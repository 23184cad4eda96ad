import dataclasses
import random
from collections import Counter
from functools import cache
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socksort.core import (
    enumerate_standardized,
    format_sequence,
    parse_sequence,
    random_standardized,
    standardize,
)
from socksort.image_membership import (
    GammaStep,
    Membership,
    _last_sandwich,
    gamma_trace,
    in_image_aba,
    in_image_cons,
    phi_aba_via_decomposition,
    phi_cons_via_sandwich,
    sandwich_decompose,
)
from socksort.patterns import ABA_CLASSICAL, ABA_CONSECUTIVE, _prepare
from socksort.preimage_fertility import preimages_of
from socksort.stack_machine import _feed, _undo, phi, sweep
from test_linearity import FAMILIES

CONS_ABA = frozenset({ABA_CONSECUTIVE})
CLASSICAL_ABA = frozenset({ABA_CLASSICAL})

raw_seqs = st.lists(st.integers(min_value=0, max_value=5), max_size=12).map(
    lambda xs: standardize(tuple(xs))
)

long_seqs = st.tuples(st.integers(1, 30), st.integers(0, 500)).flatmap(
    lambda kn: st.lists(st.integers(0, kn[0] - 1), min_size=kn[1], max_size=kn[1])
).map(lambda xs: standardize(tuple(xs)))


# ---------------------------------------------------------------------------
# evaluators


def test_sandwich_decompose_example():
    p = parse_sequence("abacdca")
    removed, kept = sandwich_decompose(p)
    assert removed == (1, 4)
    assert kept == (0, 2, 3, 5, 6)
    assert format_sequence(p[i] for i in kept) == "aacca"


def test_sandwich_decompose_no_sandwich():
    assert sandwich_decompose((0, 1, 1, 0)) == ((), (0, 1, 2, 3))


def test_phi_cons_via_sandwich_examples():
    assert phi_cons_via_sandwich(parse_sequence("aab")) == parse_sequence("baa")
    assert phi_cons_via_sandwich(parse_sequence("aba")) == parse_sequence("baa")
    assert phi_cons_via_sandwich(()) == ()


def test_phi_aba_via_decomposition_example():
    assert phi_aba_via_decomposition(parse_sequence("abca")) == parse_sequence("cbaa")


@pytest.mark.parametrize("n", range(1, 9))
def test_phi_aba_via_decomposition_follows_the_decomposition(n):
    # The paper's identity: cut q around x = q[0] into x-runs and x-free
    # segments, sort each segment on its own, then append every copy of x.
    for q in enumerate_standardized(n):
        x = q[0]
        segs = [tuple(g) for is_x, g in groupby(q, key=lambda s: s == x) if not is_x]
        want = tuple(s for seg in segs for s in phi_aba_via_decomposition(seg))
        assert phi_aba_via_decomposition(q) == want + (x,) * q.count(x), q


def test_phi_aba_via_decomposition_on_deep_nesting():
    # Each sock opens a new nesting level of the decomposition; evaluating
    # it by recursion overflows the interpreter stack at this length.
    assert phi_aba_via_decomposition(range(1500)) == tuple(range(1499, -1, -1))


@pytest.mark.parametrize("n", range(8))
def test_evaluators_match_stack_machine(n):
    for q in enumerate_standardized(n):
        assert phi_cons_via_sandwich(q) == phi(q, CONS_ABA), q
        assert phi_aba_via_decomposition(q) == phi(q, CLASSICAL_ABA), q


@given(raw_seqs)
@settings(max_examples=60)
def test_evaluators_match_on_random_sequences(q):
    assert phi_cons_via_sandwich(q) == phi(q, CONS_ABA)
    assert phi_aba_via_decomposition(q) == phi(q, CLASSICAL_ABA)


def _sandwich_output(p):
    removed, kept = sandwich_decompose(p)
    return tuple([p[i] for i in removed] + [p[i] for i in reversed(kept)])


def test_sandwich_evaluator_reads_the_decomposition():
    # The evaluator's pass over socks and sandwich_decompose's pass over
    # positions are written apart; the map's output is the removed socks,
    # then the kept ones reversed.
    for n in range(9):
        for q in enumerate_standardized(n):
            assert phi_cons_via_sandwich(q) == _sandwich_output(q), q
    for family, make in sorted(FAMILIES.items()):
        q = make(10_000)
        assert phi_cons_via_sandwich(q) == _sandwich_output(q), family


@pytest.mark.parametrize(
    "family",
    [
        [i % 2 for i in range(3000)],  # abab...
        [0 if i % 2 == 0 else i // 2 + 1 for i in range(3001)],  # a x1 a x2 a ...
        [0] * 3000,  # one run
    ],
    ids=["alternating", "axax", "one-run"],
)
def test_sandwich_evaluator_on_long_adversarial_families(family):
    # In the first two families each removal exposes the next sandwich,
    # all along the word; the one-run word has none.
    assert phi_cons_via_sandwich(family) == phi(family, CONS_ABA)


# ---------------------------------------------------------------------------
# membership, consecutive map


@pytest.mark.parametrize(
    "s,member,witness",
    [
        ("aba", False, None),
        ("baa", True, "aab"),
        ("abb", True, "bba"),
        ("abba", True, "abba"),
        ("abcc", True, "ccba"),
        ("abc", True, "cba"),
        ("", True, ""),
        ("a", True, "a"),
    ],
)
def test_in_image_cons_fixed_examples(s, member, witness):
    res = in_image_cons(parse_sequence(s))
    assert res.member is member
    got = None if res.witness is None else format_sequence(res.witness)
    assert got == witness


def _check_cons_witness(q):
    res = in_image_cons(q)
    if res.member:
        assert standardize(phi(res.witness, CONS_ABA)) == q, q
    else:
        assert res.witness is None


def _last_sandwich_by_definition(t):
    return max((i for i in range(1, len(t) - 1) if t[i - 1] == t[i + 1] != t[i]), default=0)


def test_last_sandwich_follows_its_definition():
    # in_image_cons splits at this position and preimage_fertility's
    # _consecutive starts its split scan there.
    for n in range(9):
        for q in enumerate_standardized(n):
            assert _last_sandwich(q) == _last_sandwich_by_definition(q), q
    for seed in (1, 2, 3):
        q = random_standardized(10**4, random.Random(seed))
        # the kept remainder is sandwich-free, so its answer is 0
        rest = tuple(q[i] for i in sandwich_decompose(q)[1])
        for t in (q, rest):
            assert _last_sandwich(t) == _last_sandwich_by_definition(t), seed
        assert _last_sandwich(rest) == 0 < _last_sandwich(q), seed


def test_in_image_cons_witness_maps_back():
    for n in range(8):
        for q in enumerate_standardized(n):
            _check_cons_witness(q)
    # k distinct socks, the sandwich x y x, then k+2 fresh pairs: the left
    # part, up to the y, holds k+1 socks to place into k+2 pairs.
    k = 10**4
    pairs = tuple(s for s in range(k + 2, 2 * k + 4) for _ in range(2))
    q = tuple(range(k)) + (k, k + 1, k) + pairs
    assert in_image_cons(q).member
    _check_cons_witness(q)


@given(long_seqs)
@settings(max_examples=100)
def test_in_image_cons_witness_maps_back_on_long_words(q):
    _check_cons_witness(q)


@pytest.mark.parametrize("n", range(8))
def test_in_image_cons_matches_brute_force(n):
    image = {standardize(phi(q, CONS_ABA)) for q in enumerate_standardized(n)}
    for q in enumerate_standardized(n):
        assert in_image_cons(q).member == (q in image), q


class _OverBudget(Exception):
    pass


def _search_preimage(q, pats, budget=300_000):
    """Some arrangement p of q's own multiset with phi(p) == q, or None.
    phi permutes its input and commutes with renaming, so q is an image
    exactly when such a p exists.  Socks are pushed with the stack
    machine's own _feed and _undo, so the search shares no code with
    image_membership.  A branch is pruned when the output so far is not a
    prefix of q, or when the stack read top to bottom, the order its socks
    leave in, is not a subsequence of the rest of q.  A failed state is
    remembered by its output length and stack, which fix the socks left to
    push.  Raises _OverBudget after budget search nodes."""
    must_pop = _prepare(frozenset(pats))
    q = list(q)
    left = Counter(q)
    stack, out, p, failed = [], [], [], set()
    nodes = 0

    def fits(mark):  # out[:mark] is known to be a prefix of q
        rest = iter(q[len(out):])
        return out[mark:] == q[mark:len(out)] and all(sock in rest for sock in reversed(stack))

    def search():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OverBudget
        if len(p) == len(q):  # fits held, so out + stack[::-1] == q
            return True
        state = (len(out), tuple(stack))
        if state in failed:
            return False
        for sock in [sock for sock, copies in left.items() if copies]:
            mark = len(out)
            _feed(must_pop, stack, out, (sock,))
            left[sock] -= 1
            p.append(sock)
            if fits(mark) and search():
                return True
            p.pop()
            left[sock] += 1
            _undo(stack, out, mark)
        failed.add(state)
        return False

    return tuple(p) if search() else None


def _judge_by_search(words, pats, test):
    """Fails, naming the shortest failing word, unless _search_preimage
    agrees with test's verdict on each of words and each p it finds maps to
    its word; a word over the search's budget fails too.  Returns how many
    of words are members."""
    failing, members = [], 0
    for q in words:
        try:
            p = _search_preimage(q, pats)
        except _OverBudget:
            failing.append((len(q), q, "over budget"))
            continue
        members += p is not None
        if (p is not None) != test(q).member:
            failing.append((len(q), q, f"search found {p}"))
        elif p is not None and phi(p, pats) != tuple(q):
            failing.append((len(q), q, f"{p} does not map to it"))
    _, shortest, why = min(failing, default=(0, (), ""))
    assert not failing, f"{len(failing)} failing, shortest: {format_sequence(shortest)} ({why})"
    return members


def test_in_image_cons_agrees_with_a_machine_search_near_the_image():
    # A referee for both verdicts past brute-force lengths: words next to
    # the ~aba image, of length 12-16, judged by _search_preimage.
    rng = random.Random(18)
    words = [_perturbed(standardize(phi(random_standardized(rng.randint(12, 16), rng),
                                        CONS_ABA)), rng) for _ in range(100)]
    assert 0 < _judge_by_search(words, CONS_ABA, in_image_cons) < len(words)


def test_in_image_aba_agrees_with_a_machine_search_near_the_image():
    # The same referee next to the classical image, at length 12-24.  The
    # search's cost grows steeply with the length (up to about 2 s for one
    # word of length 24), so lengths lean short.
    rng = random.Random(20)
    words = [_perturbed(standardize(phi(random_standardized(12 + int(13 * rng.random() ** 2), rng),
                                        CLASSICAL_ABA)), rng) for _ in range(40)]
    assert 0 < _judge_by_search(words, CLASSICAL_ABA, in_image_aba) < len(words)


# ---------------------------------------------------------------------------
# both maps at the preimage-listing cap


@pytest.fixture(scope="module")
def preimage_counts_at_length_10():
    """Brute-force preimage counts of every length-10 image, per map: one
    stack-machine sweep per map over all 115,975 canonical words."""
    return {pats: Counter(standardize(out) for _, out in sweep(10, pats))
            for pats in (CONS_ABA, CLASSICAL_ABA)}


@pytest.mark.parametrize("pats,test", [(CONS_ABA, in_image_cons),
                                       (CLASSICAL_ABA, in_image_aba)],
                         ids=["cons", "classical"])
def test_membership_matches_preimage_search_at_length_10(pats, test,
                                                         preimage_counts_at_length_10):
    # Every length-10 target under ~aba.  The classical map takes 20
    # seeded targets; random targets are mostly non-members there, so half
    # are images of random words.
    if pats is CONS_ABA:
        targets = list(enumerate_standardized(10))
    else:
        rng = random.Random(10)
        targets = [random_standardized(10, rng) for _ in range(10)]
        targets += [standardize(phi(random_standardized(10, rng), pats)) for _ in range(10)]
    brute = preimage_counts_at_length_10[pats]
    for t in targets:
        res, report = test(t), preimages_of(t, pats)
        assert res.member == (brute[t] > 0), t
        assert report.count == brute[t], t
        if pats is CONS_ABA and res.member:
            assert standardize(res.witness) in report.preimages, t


# ---------------------------------------------------------------------------
# membership, classical map


@pytest.mark.parametrize(
    "s,member,gamma,dividers",
    [
        ("baa", True, 0, ()),
        ("aab", True, 0, ()),
        ("abab", False, -1, (2,)),
        ("abba", False, -1, (3,)),
        ("bcbabccdd", True, 0, (2, 4)),
        ("bcbcbaabcccdd", False, -1, (2, 4, 7)),
    ],
)
def test_in_image_aba_fixed_examples(s, member, gamma, dividers):
    q = parse_sequence(s)
    trace = gamma_trace(q)
    assert in_image_aba(q).member is member
    assert trace.final_gamma == gamma
    assert trace.initial_dividers == dividers


def test_in_image_aba_verdict_follows_gamma():
    # in_image_aba answers, and in_image_cons non-member answers, carry no
    # witness; both compare equal to a fresh verdict-only Membership.
    for n in range(9):
        for q in enumerate_standardized(n):
            assert in_image_aba(q) == Membership(gamma_trace(q).member), q
            res = in_image_cons(q)
            if not res.member:
                assert res == Membership(False), q


def test_answers_are_frozen():
    # Verdict-only answers are shared between calls, so none may change.
    for res in (in_image_aba((0, 1, 0, 1)), in_image_aba((0, 0)),
                in_image_cons((0, 1, 0)), in_image_cons((0, 0, 1))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.member = not res.member


def _div(position, gamma):
    return GammaStep("divider", position, gamma)


def _run(position, gamma, length, score, dividers=()):
    return GammaStep("run", position, gamma, length, score, dividers)


# Every step of three traces: a run's dividers are the ones it removed
# (score > 0) or the one it planted at its start (score == -1).
GAMMA_STEPS = {
    "bcbabccdd": (
        _run(0, 0, 1, 0), _run(1, 0, 1, 0),
        _div(2, -1), _run(2, -1, 1, 0), _run(3, -1, 1, 0),
        _div(4, -2), _run(4, -2, 1, 0),
        _run(6, -1, 2, 1, (4,)), _run(8, 0, 2, 1, (2,)),
    ),
    "bcbcbaabcccdd": (
        _run(0, 0, 1, 0), _run(1, 0, 1, 0),
        _div(2, -1), _run(2, -1, 1, 0), _run(3, -1, 1, 0),
        _div(4, -2), _run(4, -2, 1, 0), _run(6, -1, 2, 1, (4,)),
        _div(7, -2), _run(7, -2, 1, 0), _run(10, -2, 3, 0),
        _run(12, -1, 2, 1, (7,)),
    ),
    "abaccb": (
        _run(0, 0, 1, 0), _run(1, 0, 1, 0),
        _div(2, -1), _run(2, -1, 1, 0),
        _run(4, 0, 2, 1, (2,)), _run(5, -1, 1, -1, (5,)),
    ),
}


@pytest.mark.parametrize("s", sorted(GAMMA_STEPS))
def test_gamma_trace_steps_are_pinned(s):
    assert gamma_trace(parse_sequence(s)).steps == GAMMA_STEPS[s]


@pytest.mark.parametrize("n", range(8))
def test_in_image_aba_matches_brute_force(n):
    image = {standardize(phi(q, CLASSICAL_ABA)) for q in enumerate_standardized(n)}
    for q in enumerate_standardized(n):
        assert in_image_aba(q).member == (q in image), q


def test_in_image_aba_block_start_runs():
    # Runs that open their block merge one more divider than interior
    # runs; these two length-9 sequences only pass with that rule.
    for s in ("abaccbadd", "abaccbcdd"):
        assert in_image_aba(parse_sequence(s)).member, s


def _in_classical_image_by_intervals(q):
    """Membership under classical aba from phi(x^b0 s_1 ... s_r x^br) =
    phi(s_1) ... phi(s_r) x^m read backwards: q[i:j] is an image when its
    last sock x does not occur before its trailing run q[k:j] and, for some
    b, both q[i:b] and q[b:j-1] are (b == k when the run is one sock)."""

    @cache
    def image(i, j):
        if i == j:
            return True
        x, k = q[j - 1], j - 1
        while k > i and q[k - 1] == x:
            k -= 1
        return x not in q[i:k] and any(image(i, b) and image(b, j - 1)
                                       for b in range(i if j - k > 1 else k, k + 1))

    return image(0, len(q))


def _near_classical_image(rng):
    """The image of a random word of length 20..150, perturbed.  Lengths
    lean short: the referee's cost grows about as the cube of the length,
    while faults in the refund rules showed no less often on short words
    than on long ones."""
    n = 20 + int(131 * rng.random() ** 3)
    return _perturbed(standardize(phi_aba_via_decomposition(random_standardized(n, rng))), rng)


def _perturbed(q, rng):
    """Canonical q with 1-3 random adjacent swaps or re-socks, standardized."""
    q = list(q)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(q) - 1)
        if rng.random() < 0.5:
            q[i], q[i + 1] = q[i + 1], q[i]
        else:
            q[i] = rng.randint(0, max(q) + 1)
    return standardize(q)


def test_in_image_aba_matches_the_interval_recursion_near_the_image():
    # A referee for non-member verdicts past brute-force lengths: words
    # next to the image exercise the gamma refunds far more than uniform
    # random words, almost none of which are members.  Lengths stay at
    # most 150, inside Python's default recursion limit.
    # gamma_trace is judged too: in_image_aba answers many of these words
    # by their trailing run alone, and gamma_trace always runs the scan.
    rng = random.Random(16)
    words = [_near_classical_image(rng) for _ in range(1500)]
    verdicts = [_in_classical_image_by_intervals(q) for q in words]
    for name, test in (("in_image_aba", in_image_aba), ("gamma_trace", gamma_trace)):
        failing = [q for q, member in zip(words, verdicts) if test(q).member != member]
        assert not failing, (f"{name}: {len(failing)} mismatches, shortest: "
                             f"{format_sequence(min(failing, key=len))}")
    assert 0 < sum(verdicts) < len(words)


def _last_sock_before_its_run(q):
    """The trailing-run cut of in_image_aba: q's last sock occurs before
    its trailing run."""
    return bool(q) and q.count(q[-1]) != len(q) - q.index(q[-1])


def _last_sock_copied_earlier(rng):
    """The image of a random word of length 1000..10000 with one more copy
    of its last sock set before its trailing run."""
    p = random_standardized(rng.randint(1000, 10_000), rng)
    q = list(standardize(phi_aba_via_decomposition(p)))
    x, k = q[-1], len(q) - 1
    while k > 0 and q[k - 1] == x:
        k -= 1
    q.insert(rng.randrange(k), x)
    return standardize(q)


def test_the_trailing_run_cut_rejects_only_non_members():
    # Every word the cut answers, the full scan rejects too: all canonical
    # words up to length 9, and seeded long words, uniform and next to
    # the image.
    cut = [q for n in range(10) for q in enumerate_standardized(n) if _last_sock_before_its_run(q)]
    assert len(cut) == 19_595
    rng = random.Random(31)
    long_words = [random_standardized(rng.randint(1000, 10_000), rng) for _ in range(10)]
    long_words += [_last_sock_copied_earlier(rng) for _ in range(10)]
    assert all(map(_last_sock_before_its_run, long_words))
    for q in cut + long_words:
        assert not gamma_trace(q).member, format_sequence(q)


def _check_gamma_bookkeeping(q):
    trace = gamma_trace(q)
    # Gamma changes by -1 at divider crossings and by the recorded score
    # on runs.  A run's dividers are its edits to the layout: score > 0
    # removes that many dividers already crossed, -1 plants a new one at
    # the run start.
    gamma = 0
    layout = set(trace.initial_dividers)
    for st_ in trace.steps:
        if st_.kind == "divider":
            gamma -= 1
            assert st_.position in layout and st_.dividers == (), (q, st_)
        else:
            assert st_.kind == "run", (q, st_)
            gamma += st_.score
            start = st_.position - st_.run_length + 1
            if st_.score > 0:
                assert len(st_.dividers) == st_.score, (q, st_)
                assert set(st_.dividers) <= layout, (q, st_)
                assert max(st_.dividers) <= start, (q, st_)
                layout -= set(st_.dividers)
            elif st_.score == -1:
                assert st_.dividers == (start,) and start not in layout, (q, st_)
                layout.add(start)
            else:
                assert st_.dividers == (), (q, st_)
        assert st_.gamma_after == gamma, (q, st_)
    assert trace.final_gamma == gamma


@given(long_seqs)
@settings(max_examples=100)
def test_lazy_trace_agrees_with_verdict(q):
    first = gamma_trace(q)
    assert in_image_aba(q).member == (first.final_gamma >= 0)
    assert gamma_trace(q) == first
    _check_gamma_bookkeeping(q)


def test_gamma_trace_step_bookkeeping():
    assert gamma_trace(parse_sequence("bcbcbaabcccdd")).steps, "expected a non-trivial trace"
    _check_gamma_bookkeeping(parse_sequence("bcbcbaabcccdd"))
    for q in enumerate_standardized(7):
        _check_gamma_bookkeeping(q)


@given(raw_seqs)
@settings(max_examples=60)
def test_membership_decisions_are_pure(q):
    assert in_image_aba(q).member == in_image_aba(q).member
    assert gamma_trace(q).final_gamma == gamma_trace(q).final_gamma
    assert in_image_cons(q).member == in_image_cons(q).member
