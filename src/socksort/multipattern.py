"""Sorting with several forbidden patterns at once.

The featured pattern set forbids classical aba and classical aab.  That
mode choice is pinned by a survey over all four mode combinations
(``mode_combination_survey``): only the classical-aba combinations give
counts that double with length; making both patterns consecutive yields
the Fibonacci-like totals 1, 2, 4, 7, 12, ... instead.

Sequences fully sorted by one pass of the pinned map have a nested
shape: a lead sock, a sortable word on fresh socks, then a trailing run
of the lead sock.  Their counts double with length and follow a
binomial refinement by the number of distinct socks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .core import SockSeq, count_standardized, is_sorted
from .patterns import (
    AAB_CLASSICAL,
    ABA_CLASSICAL,
    Mode,
    Pattern,
    PatternSet,
    contains,
)
from .stack_machine import IterationOutcome, phi_iterate, sweep

ABA_AAB_PINNED: PatternSet = frozenset({ABA_CLASSICAL, AAB_CLASSICAL})

MAX_COUNT_LENGTH = 12
WITNESS_SEARCH_LEN = 6  # longest word the uniform-set fallback search tries


@dataclass(frozen=True)
class CountTable:
    """Counts of one-pass-sortable standardized sequences by length and by
    number of distinct socks, with the two closed-form comparisons."""

    totals: tuple[int, ...]  # totals[n-1] = count at length n
    by_distinct: tuple[tuple[int, ...], ...]  # [n-1][r-1] = count with r socks

    def matches_doubling(self, n: int) -> bool:
        return self.totals[n - 1] == 2 ** (n - 1)

    def row_matches_shifted_binomial(self, n: int) -> bool:
        row = self.by_distinct[n - 1]
        return all(row[r - 1] == comb(n - 1, r - 1) for r in range(1, n + 1))

    def row_matches_unshifted_binomial(self, n: int) -> bool:
        row = self.by_distinct[n - 1]
        return all(row[r - 1] == comb(n, r - 1) for r in range(1, n + 1))


def count_one_stack_sortable(
    max_n: int, pats: Iterable[Pattern] = ABA_AAB_PINNED
) -> CountTable:
    """Brute-force count over all standardized sequences up to max_n; the
    sweep skips every prefix whose own one-pass output is unsorted, since
    that output is a subsequence of each extension's output."""
    if not 1 <= max_n <= MAX_COUNT_LENGTH:
        raise ValueError(f"max_n must be between 1 and {MAX_COUNT_LENGTH}")
    pats_f = frozenset(pats)
    totals: list[int] = []
    rows: list[tuple[int, ...]] = []
    for n in range(1, max_n + 1):
        row = [0] * n
        for q, out in sweep(n, pats_f, lambda _, out: not is_sorted(out)):
            if is_sorted(out):
                row[len(set(q)) - 1] += 1
        totals.append(sum(row))
        rows.append(tuple(row))
    return CountTable(tuple(totals), tuple(rows))


@lru_cache(maxsize=None)
def build_one_stack_sortable(n: int) -> tuple[SockSeq, ...]:
    """Construct the sequences sorted by one pass of the featured map:
    p = lead sock, a shorter such word on fresh socks, then a trailing
    run of the lead sock."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return ((),)
    out: list[SockSeq] = []
    for trailing in range(n):
        inner_len = n - 1 - trailing
        for inner in build_one_stack_sortable(inner_len):
            out.append((0,) + tuple(v + 1 for v in inner) + (0,) * trailing)
    return tuple(sorted(out))


def mode_combination_survey(max_n: int) -> dict[tuple[str, str], tuple[int, ...]]:
    """Sortable counts for every mode choice on the aba and aab shapes.
    Keys are (aba mode, aab mode) value names.  The totals come from
    ``count_one_stack_sortable``, so max_n takes its bounds
    (1..MAX_COUNT_LENGTH)."""
    return {
        (aba_mode.value, aab_mode.value): count_one_stack_sortable(
            max_n, {Pattern((0, 1, 0), aba_mode), Pattern((0, 0, 1), aab_mode)}
        ).totals
        for aba_mode in Mode
        for aab_mode in Mode
    }


@dataclass(frozen=True)
class WitnessReport:
    case: int  # 1: uniform pattern set, 2: mixed
    witness: SockSeq | None
    verdict: str  # "never-sorts" | "search-exhausted"


_ABBA = Pattern((0, 1, 1, 0), Mode.CLASSICAL)
_ABCA = Pattern((0, 1, 2, 0), Mode.CLASSICAL)


def _is_sorting_shape(shape: SockSeq) -> bool:
    # One foreign sock strictly inside a run of a single sock.
    return set(shape) == {0, 1} and shape.count(1) == 1 and shape[-1] == 0


def _returning_pair(shape: SockSeq) -> bool:
    return contains(shape, _ABBA) or contains(shape, _ABCA)


def unsortable_witness(pats: Iterable[Pattern], m: int) -> WitnessReport:
    """Find a sequence that repeated sorting passes never sort.

    Shapes of the form a..aba..a are rejected up front; the mixed/uniform
    split below only covers sets without them.  Mixed sets (some shapes
    revisit their first sock after an excursion, some do not) keep a1 a2 a1
    a3 a1 ... a1 am a1 if its orbit repeats a class unsorted within 3 passes:
    pass 1 renames to it for abba,abab and abca,abac, pass 3 to pass 1 for
    aab,abba.  Else, and for uniform sets, each unsorted word up to length
    WITNESS_SEARCH_LEN is iterated from its sweep pass.
    """
    pats_f = frozenset(pats)
    if not pats_f:
        raise ValueError("empty pattern set")
    for pat in pats_f:
        if _is_sorting_shape(pat.shape):
            raise ValueError(f"pattern shape {pat.shape!r} has the excluded a..aba..a form")
    if m < 2:
        raise ValueError("need m >= 2")
    flags = [_returning_pair(pat.shape) for pat in pats_f]
    mixed = any(flags) and not all(flags)
    if mixed:
        witness = [0]
        for i in range(1, m):
            witness += [i, 0]
        result = phi_iterate(tuple(witness), pats_f, max_k=3)
        if result.outcome is IterationOutcome.NEVER_SORTS:
            return WitnessReport(2, tuple(witness), "never-sorts")
        # The explicit witness is only guaranteed for genuinely mixed
        # behaviour; fall back to searching.
        case = 2
    else:
        case = 1
    for n in range(2, WITNESS_SEARCH_LEN + 1):
        budget = count_standardized(n) + 1
        for q, out in sweep(n, pats_f):
            if is_sorted(q):
                continue
            # q's orbit after its first pass decides it; budget passes over
            # at most B(n) classes still reach a sorted word or a repeat.
            if phi_iterate(out, pats_f, max_k=budget).outcome is IterationOutcome.NEVER_SORTS:
                return WitnessReport(case, q, "never-sorts")
    return WitnessReport(case, None, "search-exhausted")
