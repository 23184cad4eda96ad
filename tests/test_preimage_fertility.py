from math import comb

import pytest

from socksort import verify
from socksort.core import (
    enumerate_standardized,
    format_sequence,
    parse_sequence,
    standardize,
)
from socksort.patterns import parse_patterns
from socksort.preimage_fertility import (
    CLASSICAL_ABA,
    CONS_ABA,
    DEFAULT_MAX_LEN,
    fertility_witness,
    preimages_of,
    staircase_count_formula,
    staircase_preimage_count,
    staircase_target,
)
from socksort.stack_machine import phi


def names(report):
    return [format_sequence(q) for q in report.preimages]


def test_preimages_of_abcc_cons():
    report = preimages_of(parse_sequence("abcc"), CONS_ABA)
    assert names(report) == ["aabc", "abac"]
    assert report.count == 2


def test_preimages_of_abcc_classical():
    report = preimages_of(parse_sequence("abcc"), CLASSICAL_ABA)
    assert report.count == 3
    for q in report.preimages:
        assert standardize(phi(q, CLASSICAL_ABA)) == report.target


def test_preimages_standardize_target():
    report = preimages_of((7, 7, 9), CONS_ABA)
    assert report.target == (0, 0, 1)


def test_preimages_are_actual_preimages():
    for s in ("aab", "abb", "abba", "abcab"):
        target = parse_sequence(s)
        for pats in (CONS_ABA, CLASSICAL_ABA):
            report = preimages_of(target, pats)
            for q in report.preimages:
                assert standardize(phi(q, pats)) == standardize(target)


def test_preimages_empty_for_non_members():
    assert preimages_of(parse_sequence("aba"), CONS_ABA).count == 0


@pytest.mark.parametrize("pats", [CONS_ABA, CLASSICAL_ABA], ids=["cons", "classical"])
def test_preimages_are_the_brute_force_preimages_up_to_length_9(pats):
    # The reference groups every canonical word by its standardized output
    # from one stack-machine sweep; the sweep walks the words in order, so
    # each group is already sorted.
    for n in range(10):
        want = {}
        for word, out in verify.outputs(n, pats):
            want.setdefault(standardize(out), []).append(word)
        for t in enumerate_standardized(n):
            assert list(preimages_of(t, pats).preimages) == want.get(t, []), t


def test_preimages_reject_other_pattern_sets():
    with pytest.raises(ValueError, match="single-aba maps only"):
        preimages_of(parse_sequence("abab"), parse_patterns("abba,abab"))


def test_preimages_length_cap():
    # The edge of the fixed bound: length 10 is searched, length 11 raises.
    assert DEFAULT_MAX_LEN == 10
    edge = (0,) * 9 + (1,)
    assert names(preimages_of(edge, CONS_ABA)) == ["abbbbbbbbb"]
    with pytest.raises(ValueError, match="target length 11 exceeds the bound 10"):
        preimages_of(edge + (1,), CONS_ABA)
    with pytest.raises(ValueError):
        preimages_of(tuple(range(11)), CONS_ABA)


def test_staircase_target_shape():
    assert format_sequence(staircase_target(3, 2)) == "abcdd"
    with pytest.raises(ValueError):
        staircase_target(0, 1)
    with pytest.raises(ValueError):
        staircase_target(1, 0)


def test_staircase_counts_classical_match_binomial():
    for n in range(1, DEFAULT_MAX_LEN):
        for k in range(1, DEFAULT_MAX_LEN + 1 - n):
            got = staircase_preimage_count(n, k, CLASSICAL_ABA)
            assert got == comb(k + n - 1, k - 1), (n, k)


def test_staircase_counts_cons_match_partial_sum():
    # The consecutive map admits strictly fewer preimages once both
    # n >= 2 and k >= 2; the closed form is a partial binomial sum.
    for n in range(1, DEFAULT_MAX_LEN):
        for k in range(1, DEFAULT_MAX_LEN + 1 - n):
            got = staircase_preimage_count(n, k, CONS_ABA)
            assert got == staircase_count_formula(n, k, CONS_ABA), (n, k)
    assert staircase_preimage_count(2, 2, CONS_ABA) == 2
    assert comb(3, 1) == 3  # the full binomial overcounts here


def test_staircase_formula_rejects_other_maps():
    with pytest.raises(ValueError):
        staircase_count_formula(2, 2, frozenset())
    with pytest.raises(ValueError):
        staircase_preimage_count(2, 2, frozenset())


@pytest.mark.parametrize("pats", [CONS_ABA, CLASSICAL_ABA], ids=["cons", "classical"])
def test_fertility_witness_counts(pats):
    for n in range(2, DEFAULT_MAX_LEN + 1):
        for m in range(1, n):
            w = fertility_witness(m, n, pats)
            assert len(w) == n
            assert preimages_of(w, pats).count == m, (m, n)


def test_fertility_witness_fixed_examples():
    assert format_sequence(fertility_witness(3, 5, CONS_ABA)) == "abbbc"
    assert format_sequence(fertility_witness(1, 2, CONS_ABA)) == "ab"
    assert format_sequence(fertility_witness(4, 6, CONS_ABA)) == "abbbbc"
    assert format_sequence(fertility_witness(3, 5, CLASSICAL_ABA)) == "abccd"
    assert format_sequence(fertility_witness(1, 2, CLASSICAL_ABA)) == "aa"
    assert format_sequence(fertility_witness(2, 4, CLASSICAL_ABA)) == "abbc"


def test_fertility_witness_requires_valid_m():
    with pytest.raises(ValueError):
        fertility_witness(0, 3, CONS_ABA)
    with pytest.raises(ValueError):
        fertility_witness(3, 3, CONS_ABA)
