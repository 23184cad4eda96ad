from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socksort.core import enumerate_standardized, standardize
from socksort.patterns import (
    AAB_CLASSICAL,
    AAB_CONSECUTIVE,
    ABA_CLASSICAL,
    ABA_CONSECUTIVE,
    Mode,
    Pattern,
    _embeds,
    _prepare,
    avoids,
    contains,
    format_pattern,
    parse_pattern,
    parse_patterns,
)

small_seqs = st.lists(st.integers(min_value=0, max_value=4), max_size=10).map(tuple)
short_seqs = st.lists(st.integers(min_value=0, max_value=4), max_size=8).map(tuple)

REFERENCE_SHAPES = [
    parse_pattern(text).shape
    for text in (
        "ab", "aa", "aba", "aab", "abc", "aaa", "abb", "abba", "abca", "abac", "abab"
    )
]


def brute_occurs(seq, shape):
    """Classical occurrence by trying every position subset."""
    return any(
        standardize(tuple(seq[i] for i in idx)) == shape
        for idx in combinations(range(len(seq)), len(shape))
    )


def ends_at(seq, shape, sock):
    """Whether seq followed by sock holds a classical occurrence of shape
    that ends at sock, by trying every position subset."""
    return any(
        standardize(sub + (sock,)) == shape
        for sub in combinations(seq, len(shape) - 1)
    )


class TestPatternType:
    def test_constants(self):
        assert ABA_CONSECUTIVE == Pattern((0, 1, 0), Mode.CONSECUTIVE)
        assert AAB_CLASSICAL.shape == (0, 0, 1)
        assert AAB_CLASSICAL.mode is Mode.CLASSICAL

    def test_shape_must_be_standardized(self):
        with pytest.raises(ValueError):
            Pattern((1, 0, 1), Mode.CLASSICAL)

    def test_shape_must_have_two_socks_minimum(self):
        # A single-sock shape would be matched by every push.
        with pytest.raises(ValueError):
            Pattern((0,), Mode.CLASSICAL)
        with pytest.raises(ValueError):
            Pattern((), Mode.CONSECUTIVE)

    def test_hashable_and_frozen(self):
        s = {ABA_CLASSICAL, ABA_CONSECUTIVE, ABA_CLASSICAL}
        assert len(s) == 2
        with pytest.raises(AttributeError):
            ABA_CLASSICAL.mode = Mode.CONSECUTIVE


class TestParsing:
    def test_parse_pattern(self):
        assert parse_pattern("~aba") == ABA_CONSECUTIVE
        assert parse_pattern("aba") == ABA_CLASSICAL
        assert parse_pattern("aab") == AAB_CLASSICAL

    def test_parse_patterns_list(self):
        assert parse_patterns("~aba,~aab") == frozenset(
            {ABA_CONSECUTIVE, AAB_CONSECUTIVE}
        )
        assert parse_patterns("aba") == frozenset({ABA_CLASSICAL})

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_patterns("")
        with pytest.raises(ValueError):
            parse_patterns(",")

    @pytest.mark.parametrize("text", ["~aba", "aba", "aab", "abba", "~abcab"])
    def test_format_round_trip(self, text):
        assert format_pattern(parse_pattern(text)) == text


class TestContainment:
    def test_consecutive_needs_a_window(self):
        # abba has no three-letter aba window, xabax does.
        assert not contains((0, 1, 1, 0), ABA_CONSECUTIVE)
        assert contains((2, 0, 1, 0, 2), ABA_CONSECUTIVE)

    def test_classical_allows_gaps(self):
        assert contains((0, 1, 1, 0), ABA_CLASSICAL)
        assert not contains((0, 0, 1, 1, 2), ABA_CLASSICAL)

    def test_equality_pattern_must_match_exactly(self):
        # aab requires the first two equal and the third different; aba
        # inside abab is fine but aab is nowhere in it.
        assert not contains((0, 1, 0, 1), AAB_CONSECUTIVE)
        assert contains((0, 0, 1), AAB_CONSECUTIVE)
        # Classical aab can pick positions 0, 2, 3 from abac.
        assert contains((0, 1, 0, 2), AAB_CLASSICAL)

    def test_distinct_pattern_socks_need_distinct_targets(self):
        # Shape abc needs three different socks.
        abc = Pattern((0, 1, 2), Mode.CLASSICAL)
        assert not contains((0, 0, 0, 0), abc)
        assert not contains((0, 1, 0, 1), abc)
        assert contains((0, 1, 0, 2), abc)

    @given(small_seqs)
    def test_consecutive_implies_classical(self, p):
        for pat in (ABA_CONSECUTIVE, AAB_CONSECUTIVE):
            if contains(p, pat):
                assert contains(p, Pattern(pat.shape, Mode.CLASSICAL))

    @given(small_seqs)
    def test_consecutive_matches_standardized_window(self, p):
        shape = (0, 1, 0)
        want = any(
            standardize(p[i : i + 3]) == shape for i in range(len(p) - 2)
        )
        assert contains(p, ABA_CONSECUTIVE) == want

    def test_avoids(self):
        pats = frozenset({ABA_CONSECUTIVE, AAB_CONSECUTIVE})
        assert avoids((0, 1, 2, 0), pats)
        assert not avoids((0, 1, 0), pats)
        assert not avoids((0, 1, 1, 0), pats)  # window 110 renames to aab


class TestPushGuard:
    # _prepare's checks assume what the stack machine maintains: the stack
    # is non-empty and avoids every pattern of the set.

    def test_guard_checks_new_occurrences_only(self):
        violates = _prepare(frozenset({ABA_CONSECUTIVE}))
        # Stack reads bottom-to-top; the candidate would sit on top.
        assert violates([0, 1], 0)
        assert not violates([0, 1], 1)

    def test_classical_guard_sees_deep_stack(self):
        violates = _prepare(frozenset({ABA_CLASSICAL}))
        assert violates([0, 1, 2], 0)
        assert not violates([0, 1, 2], 2)

    @given(small_seqs, st.integers(min_value=0, max_value=4))
    def test_guard_agrees_with_containment_on_avoiding_stacks(self, stack, sock):
        # On stacks that already avoid pats, the guard equals containment
        # of stack+sock.
        for pats in (
            frozenset({ABA_CONSECUTIVE}),
            frozenset({ABA_CLASSICAL}),
            frozenset({ABA_CLASSICAL, AAB_CLASSICAL}),
        ):
            if not stack or not avoids(stack, pats):
                continue
            assert bool(_prepare(pats)(list(stack), sock)) == (
                not avoids(stack + (sock,), pats)
            )

    @given(short_seqs, st.integers(min_value=0, max_value=5))
    def test_classical_backtracker_agrees_with_brute_force(self, seq, sock):
        # _embeds itself needs no avoidance: it finds the occurrences that
        # use the candidate as their last letter in any stack, and the
        # position it returns ends one of them.
        for shape in REFERENCE_SHAPES:
            pat = Pattern(shape, Mode.CLASSICAL)
            assert contains(seq, pat) == brute_occurs(seq, shape)
            e = _embeds(seq, shape[:-1], {shape[-1]: sock})
            assert (e >= 0) == ends_at(seq, shape, sock)
            if e >= 0:
                assert ends_at(seq[: e + 1], shape, sock)

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_guard_agrees_with_brute_force_exhaustively(self, mode):
        # Every non-empty standardized stack up to length 6 that avoids the
        # shape (every state the machine can reach), every candidate up to
        # one past the largest sock, every shape of length 2-4.  This pins
        # the closed-form checks, the pruned backtracker and the window
        # renaming on all of them.
        stacks = [q for n in range(1, 7) for q in enumerate_standardized(n)]
        shapes = [q for k in range(2, 5) for q in enumerate_standardized(k)]
        for stack, shape in product(stacks, shapes):
            pat = Pattern(shape, mode)
            if contains(stack, pat):
                continue
            k = len(shape)
            for sock in range(max(stack) + 2):
                if mode is Mode.CLASSICAL:
                    want = ends_at(stack, shape, sock)
                else:
                    top = stack[len(stack) - k + 1 :]
                    want = len(top) == k - 1 and standardize(top + (sock,)) == shape
                got = _prepare(frozenset({pat}))(list(stack), sock)
                assert bool(got) == want, (stack, sock, shape)

    def test_classical_pop_count_exhaustively(self):
        # The count a classical check returns: 0 exactly when the push is
        # legal, and otherwise every stack down to the popped height still
        # holds an occurrence ending at the candidate, so the machine would
        # pop each of those socks one at a time too.  The closed forms are
        # exact: after their pops the push is legal.
        stacks = [q for n in range(1, 7) for q in enumerate_standardized(n)]
        shapes = [q for k in range(2, 5) for q in enumerate_standardized(k)]
        exact = {ABA_CLASSICAL.shape, AAB_CLASSICAL.shape,
                 (0, 1, 2, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, 0, 2)}
        for stack, shape in product(stacks, shapes):
            pat = Pattern(shape, Mode.CLASSICAL)
            if contains(stack, pat):
                continue
            n = len(stack)
            for sock in range(max(stack) + 2):
                k = _prepare(frozenset({pat}))(list(stack), sock)
                assert 0 <= k <= n, (stack, sock, shape)
                assert (k > 0) == ends_at(stack, shape, sock), (stack, sock, shape)
                for height in range(n - k + 1, n + 1):
                    assert ends_at(stack[:height], shape, sock), (stack, sock, shape, height)
                if shape in exact:
                    assert not contains(stack[: n - k] + (sock,), pat), (stack, sock, shape)
