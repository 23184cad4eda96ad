import random

import workloads

import socksort
import socksort.cli  # noqa: F401


def test_families_are_seeded_and_shaped():
    a = workloads.family("random", 50, random.Random(3))
    assert a == workloads.family("random", 50, random.Random(3))
    assert a == workloads.canon(a) and a[0] == 0
    assert set(workloads.family("fewsocks", 200, random.Random(1))) <= set(range(8))
    assert workloads.family("axax", 5, None) == (0, 1, 0, 2, 0)
    assert workloads.family("alternating", 4, None) == (0, 1, 0, 1)
    assert workloads.family("one-run", 3, None) == (0, 0, 0)


def test_bell_total_counts_verify9_items():
    assert workloads.bell_total(3) == 1 + 1 + 2 + 5
    assert workloads.bell_total(9) == 26443


def test_stack_checks_reject_a_wrong_output():
    stack = workloads.Stack(socksort, 1)
    results = [(call, socksort.stack_machine.phi(*call.args))
               for call in stack.calls if call.function == "phi" and call.items <= 200][:6]
    assert stack.check(results) == [None] * len(results)
    call, out = results[0]
    assert stack.check([(call, out[::-1])]) != [None]
    assert stack.check([(call, out[1:])]) == ["output is not a permutation of the input"]


def test_iterate_check_replays_the_stopping_rule():
    stack = workloads.Stack(socksort, 1)
    for call in stack.calls:
        if call.function == "phi_iterate":
            out = call.run()
            assert stack.check([(call, out)]) == [None]
            bad = ("sorted", 1, out[2]) if out[0] != "sorted" else ("never-sorts", None, out[2])
            assert stack.check([(call, bad)]) != [None]


def test_membership_checks_reject_a_wrong_output():
    member = workloads.Membership(socksort, 1)
    small = [c for c in member.calls if c.items == 1000 and c.family == "random"]
    results = [(c, c.run()) for c in small]
    assert member.check(results) == [None] * len(results)
    for call, out in results:
        if call.function == "phi_cons_via_sandwich":
            assert member.check([(call, out[::-1])]) != [None]
        if call.function == "in_image_cons" and out[0]:
            assert member.check([(call, (True, out[1][::-1]))]) != [None]


def test_verify9_check_compares_with_the_golden_copy():
    v = workloads.Verify9(socksort, 0)
    golden = v.golden.decode()
    assert v.check([(v.calls[0], (0, golden))]) == [None]
    assert v.check([(v.calls[0], (0, golden + "\n"))]) != [None]
    assert v.check([(v.calls[0], (1, golden))]) != [None]
