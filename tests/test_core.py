import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socksort import multipattern, patterns, preimage_fertility, stack_machine
from socksort.core import (
    count_standardized,
    enumerate_standardized,
    equivalent,
    format_sequence,
    is_sorted,
    parse_sequence,
    partition_to_seq,
    random_standardized,
    seq_to_partition,
    standardize,
)

# Bell numbers for n = 0..9, computed by the triangle recurrence.
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]

sock_seqs = st.lists(st.integers(min_value=0, max_value=8), max_size=12).map(tuple)


def test_standardize_examples():
    assert standardize((5, 3, 5, 7)) == (0, 1, 0, 2)
    assert standardize("xyx") == (0, 1, 0)
    assert standardize(()) == ()


def test_standardize_first_occurrence_order():
    # The first new sock gets 0, the second 1, regardless of raw ids.
    assert standardize((9, 9, 2, 9, 1)) == (0, 0, 1, 0, 2)


@given(sock_seqs)
def test_standardize_idempotent(p):
    assert standardize(standardize(p)) == standardize(p)


@given(sock_seqs)
def test_standardize_preserves_equality_pattern(p):
    q = standardize(p)
    assert len(q) == len(p)
    for i in range(len(p)):
        for j in range(len(p)):
            assert (p[i] == p[j]) == (q[i] == q[j])


def test_equivalent():
    assert equivalent((4, 2, 4), (0, 1, 0))
    assert not equivalent((0, 1, 0), (0, 1, 1))
    assert equivalent((), ())
    assert not equivalent((0, 1), (0, 1, 2))
    assert not equivalent((0, 1, 2), (0, 1))
    # The renaming must be a bijection: merging socks fails in each direction.
    assert not equivalent((0, 1), (0, 0))
    assert not equivalent((0, 0), (0, 1))


def test_equivalent_agrees_with_standardize_exhaustively():
    words = [w for n in range(5) for w in product(range(3), repeat=n)]
    for p, q in product(words, repeat=2):
        assert equivalent(p, q) == (standardize(p) == standardize(q)), (p, q)


@pytest.mark.parametrize(
    "p,expected",
    [
        ((), True),
        ((0,), True),
        ((0, 0, 1, 1, 2), True),
        ((0, 1, 0), False),
        ((0, 1, 1, 0), False),
        ((2, 2, 2), True),
    ],
)
def test_is_sorted(p, expected):
    assert is_sorted(p) is expected


def test_partition_round_trip():
    p = (0, 1, 0, 2, 1)
    blocks = seq_to_partition(p)
    assert blocks == ((1, 3), (2, 5), (4,))
    assert partition_to_seq(blocks) == p


def test_partition_to_seq_rejects_bad_cover():
    with pytest.raises(ValueError):
        partition_to_seq([(1, 2), (2, 3)])  # position 2 repeated
    with pytest.raises(ValueError):
        partition_to_seq([(1,), (3,)])  # gap at 2
    with pytest.raises(ValueError):
        partition_to_seq([(1,), ()])


@given(sock_seqs.filter(lambda p: len(p) > 0))
def test_partition_round_trip_property(p):
    q = standardize(p)
    assert partition_to_seq(seq_to_partition(q)) == q


def test_enumeration_matches_bell_numbers():
    for n, want in enumerate(BELL):
        got = sum(1 for _ in enumerate_standardized(n)) if n <= 8 else None
        if got is not None:
            assert got == want, f"Bell({n})"
        assert count_standardized(n) == want


def test_enumeration_is_lexicographic_and_standardized():
    seqs = list(enumerate_standardized(4))
    assert seqs == sorted(seqs)
    assert all(q == standardize(q) for q in seqs)
    assert len(set(seqs)) == len(seqs)


def test_count_standardized_larger():
    assert count_standardized(12) == 4213597


def test_random_standardized_is_standardized():
    rng = random.Random(7)
    for n in (0, 1, 5, 40):
        q = random_standardized(n, rng)
        assert q == standardize(q)


def test_random_standardized_seeded_reproducible():
    a = random_standardized(30, random.Random(123))
    b = random_standardized(30, random.Random(123))
    assert a == b


def test_parse_sequence_both_forms():
    assert parse_sequence("abacb") == (0, 1, 0, 2, 1)
    assert parse_sequence("0,1,0,2,1") == (0, 1, 0, 2, 1)
    assert parse_sequence("10,11,10") == (10, 11, 10)


def test_parse_sequence_rejects_junk():
    with pytest.raises(ValueError):
        parse_sequence("ab!c")
    with pytest.raises(ValueError):
        parse_sequence("1,-2")


def test_format_sequence_uses_letters_when_small():
    assert format_sequence((0, 1, 0, 2, 1)) == "abacb"
    assert format_sequence((0, 26)) == "0,26"


@given(sock_seqs)
def test_parse_format_round_trip(p):
    assert parse_sequence(format_sequence(p)) == tuple(p)


# One call past each library bound that no command reaches, with its message.
LIBRARY_BOUNDS = {
    "partition_to_seq([[0]])": (
        lambda: partition_to_seq([[0]]), "positions must be integers >= 1, got 0"),
    "enumerate_standardized(-1)": (
        lambda: next(enumerate_standardized(-1)), "length must be >= 0"),
    "count_standardized(-1)": (lambda: count_standardized(-1), "length must be >= 0"),
    "random_standardized(-1)": (
        lambda: random_standardized(-1, random.Random(0)), "length must be >= 0"),
    "format_sequence((-1,))": (
        lambda: format_sequence((-1,)), "sock ids must be non-negative"),
    "build_one_stack_sortable(-1)": (
        lambda: multipattern.build_one_stack_sortable(-1), "length must be >= 0"),
    "Pattern(mode=str)": (
        lambda: patterns.Pattern((0, 1), "classical"), "bad pattern mode 'classical'"),
    "phi(empty set)": (lambda: stack_machine.phi((0, 1), []), "empty pattern set"),
    "fertility_witness(aba,aab)": (
        lambda: preimage_fertility.fertility_witness(1, 3, multipattern.ABA_AAB_PINNED),
        "fertility witnesses apply to the single-aba maps only"),
    "preimages_of(aba,aab)": (
        lambda: preimage_fertility.preimages_of((0, 1, 0), multipattern.ABA_AAB_PINNED),
        "preimages apply to the single-aba maps only"),
    "staircase_count_formula(aba,aab)": (
        lambda: preimage_fertility.staircase_count_formula(2, 2, multipattern.ABA_AAB_PINNED),
        "staircase counts apply to the single-aba maps only"),
    "phi_iterate(max_k=-1)": (
        lambda: stack_machine.phi_iterate((1, 0), multipattern.ABA_AAB_PINNED, max_k=-1),
        "max_k must be >= 0"),
}


@pytest.mark.parametrize("case", LIBRARY_BOUNDS)
def test_library_bounds_raise_value_error(case):
    call, message = LIBRARY_BOUNDS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
