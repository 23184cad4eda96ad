import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socksort.core import (
    enumerate_standardized,
    is_sorted,
    random_standardized,
    standardize,
)
from socksort.image_membership import phi_aba_via_decomposition
from socksort.patterns import (
    ABA_CLASSICAL,
    ABA_CONSECUTIVE,
    AAB_CONSECUTIVE,
    avoids,
    parse_patterns,
)
from socksort.stack_machine import (
    IterationOutcome,
    TraceEvent,
    is_one_stack_sortable,
    phi,
    phi_iterate,
    phi_trace,
    sweep,
)

CONS_ABA = frozenset({ABA_CONSECUTIVE})
CLASSICAL_ABA = frozenset({ABA_CLASSICAL})
BOTH_CONS = frozenset({ABA_CONSECUTIVE, AAB_CONSECUTIVE})

seqs = st.lists(st.integers(min_value=0, max_value=5), max_size=11).map(tuple)


@pytest.mark.parametrize(
    "p,pats,expected",
    [
        ("aab", CONS_ABA, "baa"),
        ("aba", CONS_ABA, "baa"),
        ("abca", CLASSICAL_ABA, "cbaa"),
        ("aab", BOTH_CONS, "aba"),
        ("", CONS_ABA, ""),
        ("a", CONS_ABA, "a"),
    ],
)
def test_phi_fixed_examples(p, pats, expected):
    from socksort.core import format_sequence, parse_sequence

    assert format_sequence(phi(parse_sequence(p), pats)) == expected


@given(seqs)
def test_phi_output_is_a_rearrangement(p):
    for pats in (CONS_ABA, CLASSICAL_ABA, BOTH_CONS):
        assert Counter(phi(p, pats)) == Counter(p)


@given(seqs)
def test_phi_deterministic(p):
    assert phi(p, CONS_ABA) == phi(p, CONS_ABA)


def test_sorted_inputs_with_cons_map_need_not_stay_sorted():
    # The machine must pop everything at the end in stack order, so even
    # a sorted input can come out unsorted under some pattern sets.
    assert phi((0, 0, 1), BOTH_CONS) == (0, 1, 0)


def test_trace_structure():
    p = (0, 0, 1)
    tr = phi_trace(p, CONS_ABA)
    kinds = [ev.kind for ev in tr.events]
    assert kinds.count("push") == 3
    assert kinds.count("pop") == 3
    # Pops replay the output in order; pushes replay the input.
    pushes = [ev.sock for ev in tr.events if ev.kind == "push"]
    pops = [ev.sock for ev in tr.events if ev.kind == "pop"]
    assert tuple(pushes) == p
    assert tuple(pops) == tr.output
    assert [ev.index for ev in tr.events if ev.kind == "push"] == [0, 1, 2]
    assert tr.output == phi(p, CONS_ABA)


@given(seqs)
def test_trace_agrees_with_phi(p):
    tr = phi_trace(p, CLASSICAL_ABA)
    assert tr.output == phi(p, CLASSICAL_ABA)
    assert len(tr.events) == 2 * len(p)


@pytest.mark.parametrize("text", ["~aba", "aba", "abba,abab"])
def test_phi_and_trace_accept_a_one_shot_iterator(text):
    # Neither copies its input first, so each must read it exactly once.
    pats = parse_patterns(text)
    word = tuple(random.Random(len(text)).choices(range(6), k=40))
    assert phi(iter(word), pats) == phi(word, pats)
    assert phi_trace(iter(word), pats) == phi_trace(word, pats)


INVARIANT_SETS = ("~aba", "aba", "aba,aab", "~aba,~aab", "abba,abab", "abca,abac", "aab",
                  "~aab", "aba,~aab")


def test_every_prefix_of_stack_avoids_patterns():
    # Reconstruct stack states from the event log and recheck the
    # machine's own invariant, which the push-legality checks rely on.
    words = [q for n in range(8) for q in enumerate_standardized(n)]
    for pats, q in product(map(parse_patterns, INVARIANT_SETS), words):
        stack: list[int] = []
        for ev in phi_trace(q, pats).events:
            if ev.kind == "push":
                stack.append(ev.sock)
                assert avoids(tuple(stack), pats), (q, tuple(stack))
            else:
                assert stack.pop() == ev.sock


def _reference_events(p, pats):
    """The map by its definition: before each push, pop one sock at a time
    while the stack with the candidate on top contains a pattern of pats."""
    stack: list[int] = []
    events = []
    popped = 0
    for i, sock in enumerate(p):
        while stack and not avoids((*stack, sock), pats):
            events.append(TraceEvent("pop", stack.pop(), popped))
            popped += 1
        stack.append(sock)
        events.append(TraceEvent("push", sock, i))
    while stack:
        events.append(TraceEvent("pop", stack.pop(), popped))
        popped += 1
    return tuple(events)


def test_phi_trace_matches_the_definition_level_machine():
    # The legality checks pop several socks per check; the definition pops
    # one per containment test.  Every push and pop must agree.
    words = [q for n in range(8) for q in enumerate_standardized(n)]
    for pats, q in product(map(parse_patterns, INVARIANT_SETS), words):
        assert phi_trace(q, pats).events == _reference_events(q, pats), q


def test_phi_iterate_sorts_quickly():
    res = phi_iterate((0, 1, 0), CONS_ABA)
    assert res.outcome is IterationOutcome.SORTED
    assert res.sorted_after == 1
    assert res.final == (1, 0, 0)


def test_phi_iterate_already_sorted():
    res = phi_iterate((0, 0, 1), CONS_ABA)
    assert res.outcome is IterationOutcome.SORTED
    assert res.sorted_after == 0


def test_phi_iterate_detects_cycle():
    # With the mixed classical set, the alternating witness renames to
    # itself after one pass and can never sort.
    pats = parse_patterns("abba,abab")
    res = phi_iterate((0, 1, 0, 2, 0), pats, max_k=3)
    assert res.outcome is IterationOutcome.NEVER_SORTS


def test_phi_iterate_budget_exhaustion_reported():
    pats = parse_patterns("abba,abab")
    res = phi_iterate((0, 1, 0, 2, 0), pats, max_k=0)
    assert res.outcome is IterationOutcome.NOT_SORTED_WITHIN


@given(seqs)
def test_iterated_sorting_terminates_for_classical_aba(p):
    res = phi_iterate(p, CLASSICAL_ABA, max_k=len(p) + 1)
    assert res.outcome is IterationOutcome.SORTED
    assert is_sorted(res.final)


def test_cons_map_has_unsorted_fixed_points():
    # The stack a b b a never holds three consecutive socks shaped like
    # aba, so the whole input is pushed and flushed back unchanged.
    p = (0, 1, 1, 0)
    assert phi(p, CONS_ABA) == p
    res = phi_iterate(p, CONS_ABA, max_k=5)
    assert res.outcome is IterationOutcome.NEVER_SORTS


def test_is_one_stack_sortable():
    assert is_one_stack_sortable((0, 1, 0), CONS_ABA)
    assert is_one_stack_sortable((), CONS_ABA)
    assert not is_one_stack_sortable((0, 1, 2, 0, 1, 2), CONS_ABA)


def test_one_pass_sortable_counts_for_cons_map():
    # Frozen from exhaustive runs.
    got = [
        sum(1 for q in enumerate_standardized(n) if is_one_stack_sortable(q, CONS_ABA))
        for n in range(1, 7)
    ]
    assert got == [1, 2, 5, 13, 35, 95]


@pytest.mark.parametrize(
    "family",
    [
        list(range(3000)),  # abc...
        [i % 2 for i in range(3000)],  # abab...
        [0 if i % 2 == 0 else i // 2 + 1 for i in range(3001)],  # a x1 a x2 a ...
        [0] * 3000,  # one run
        random.Random(3000).choices(range(40), k=3000),
    ],
    ids=["increasing", "alternating", "axax", "one-run", "random"],
)
def test_classical_aba_machine_on_long_families(family):
    # Deep stacks: every push is checked against thousands of socks.
    out = phi(family, CLASSICAL_ABA)
    assert out == phi_aba_via_decomposition(family)
    # The trace records what the machine does: one push per input sock in
    # input order, one pop per output sock.
    trace = phi_trace(family, CLASSICAL_ABA)
    assert trace.output == out
    pushes = [e.index for e in trace.events if e.kind == "push"]
    assert pushes == list(range(len(family)))
    assert sum(e.kind == "pop" for e in trace.events) == len(family)


FOUR_LETTER_SETS = ("abba,abab", "abca,abac", "abca", "abba", "abab", "abac")
LONG_WORDS = {
    "random": random_standardized(1000, random.Random(1)),
    "fewsocks": tuple(random.Random(2).choices(range(8), k=1000)),
    "increasing": tuple(range(200)),
    "alternating": tuple(i % 2 for i in range(200)),
    "axax": tuple(0 if i % 2 == 0 else i // 2 + 1 for i in range(201)),
    "one-run": (0,) * 200,
}


@pytest.mark.parametrize("text", FOUR_LETTER_SETS)
def test_four_letter_closed_forms_match_the_definition_on_long_words(text):
    # The closed forms pop to the earliest end of an occurrence in one scan;
    # the definition pops one sock per containment test.
    pats = parse_patterns(text)
    for name, word in LONG_WORDS.items():
        ref = tuple(e.sock for e in _reference_events(word, pats) if e.kind == "pop")
        assert phi(word, pats) == ref, name


@pytest.mark.parametrize("text", ["abba,abab", "abca,abac"])
def test_mixed_set_witness_maps_to_itself_at_length_99(text):
    # a x1 a x2 ... a x49 a, well past the lengths verify reaches; each
    # four-letter shape has a one-scan closed-form check.
    witness = [0]
    for i in range(1, 50):
        witness += [i, 0]
    assert standardize(phi(witness, parse_patterns(text))) == tuple(witness)


SWEEP_SETS = ("~aba", "aba", "aba,aab", "~aba,~aab", "abba,abab", "abca,abac", "~abc")


def _phi_rows(words, sets):
    return [(q, *(phi(q, pats) for pats in sets)) for q in words]


@pytest.mark.parametrize("text", SWEEP_SETS)
def test_sweep_matches_phi_word_for_word(text):
    sets = [parse_patterns(text)]
    for n in range(9):
        assert list(sweep(n, sets)) == _phi_rows(enumerate_standardized(n), sets), n


def test_sweep_runs_several_sets_at_once():
    sets = [parse_patterns(text) for text in SWEEP_SETS]
    for n in range(9):
        assert list(sweep(n, sets)) == _phi_rows(enumerate_standardized(n), sets), n


def test_sweep_prune_skips_subtrees_only():
    sets = [CLASSICAL_ABA]
    # Words whose second sock repeats the first: prune every other prefix
    # of length 2, and the leaves are exactly those words.
    got = list(sweep(5, sets, prune=lambda word, _: len(word) == 2 and word[1] != 0))
    want = [row for row in _phi_rows(enumerate_standardized(5), sets) if row[0][1] == 0]
    assert got == want


def test_sweep_prune_sees_every_prefix_and_its_one_pass_output():
    sets = [CONS_ABA, CLASSICAL_ABA]
    seen = []

    def record(word, outputs):
        seen.append((tuple(word), tuple(map(tuple, outputs))))
        return False

    list(sweep(6, sets, prune=record))
    prefixes = [q for n in range(1, 6) for q in enumerate_standardized(n)]
    assert sorted(word for word, _ in seen) == sorted(prefixes)
    for word, outputs in seen:
        assert outputs == tuple(phi(word, pats) for pats in sets), word
    # In aba the second a pops b under both maps; the flush then adds both a's.
    assert dict(seen)[(0, 1, 0)] == ((1, 0, 0), (1, 0, 0))


def _is_subsequence(small, big):
    rest = iter(big)
    return all(x in rest for x in small)


@pytest.mark.parametrize("text", [*SWEEP_SETS, "abbc"])
def test_prefix_output_is_a_subsequence_of_the_word_output(text):
    # Stack socks leave top first, so the prune in count_one_stack_sortable
    # may judge a prefix by its own one-pass output.
    pats = parse_patterns(text)
    out = {q: phi(q, pats) for n in range(8) for q in enumerate_standardized(n)}
    for q, q_out in out.items():
        for k in range(len(q)):
            assert _is_subsequence(out[q[:k]], q_out), (q, k)


def test_sweep_rejects_bad_lengths():
    with pytest.raises(ValueError):
        list(sweep(-1, [CONS_ABA]))
