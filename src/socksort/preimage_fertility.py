"""Preimage enumeration and fertility constructions for the sorting maps.

Preimages are counted up to sock renaming: the search space for a target
is every standardized sequence with the target's multiplicity profile,
generated once each, in lexicographic order, as restricted growth strings.
The search is one stack-machine sweep that prunes every prefix whose
emitted output, renamed, already departs from the target.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from math import comb

from .core import SockSeq, standardize
from .patterns import ABA_CLASSICAL, ABA_CONSECUTIVE, Pattern, PatternSet
from .stack_machine import sweep

CONS_ABA: PatternSet = frozenset({ABA_CONSECUTIVE})
CLASSICAL_ABA: PatternSet = frozenset({ABA_CLASSICAL})

DEFAULT_MAX_LEN = 10


@dataclass(frozen=True)
class PreimageReport:
    target: SockSeq  # standardized
    patterns: PatternSet
    preimages: tuple[SockSeq, ...]  # standardized, lexicographic

    @property
    def count(self) -> int:
        return len(self.preimages)


def preimages_of(target: Iterable[int], pats: Iterable[Pattern]) -> PreimageReport:
    """All preimages of target under one phi pass, up to renaming.

    Exhaustive over arrangements of the target's sock multiset (one pass
    of the map permutes its input, so nothing else can map there).
    Length is capped at DEFAULT_MAX_LEN because the search is factorial.
    """
    t = standardize(target)
    if len(t) > DEFAULT_MAX_LEN:
        raise ValueError(f"target length {len(t)} exceeds the bound {DEFAULT_MAX_LEN}")
    pats_f = frozenset(pats)

    def departs(_, emitted: list[list[int]]) -> bool:
        return standardize(emitted[0]) != t[: len(emitted[0])]

    found = tuple(
        q for q, out in sweep(len(t), (pats_f,), departs, Counter(t).values())
        if standardize(out) == t
    )
    return PreimageReport(t, pats_f, found)


def staircase_target(n: int, k: int) -> SockSeq:
    """n distinct singleton socks followed by k copies of one more sock."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return tuple(range(n)) + (n,) * k


def staircase_preimage_count(n: int, k: int, pats: Iterable[Pattern]) -> int:
    """Preimage count of the staircase target under either aba map."""
    pats_f = frozenset(pats)
    if pats_f not in (CONS_ABA, CLASSICAL_ABA):
        raise ValueError("staircase counts apply to the single-aba maps only")
    return preimages_of(staircase_target(n, k), pats_f).count


def staircase_count_formula(n: int, k: int, pats: Iterable[Pattern]) -> int:
    """Closed form matching the enumerated staircase preimage count.

    Classical map: the trailing run can be split into ascending insertion
    slots among the n+k-1 other positions, giving C(k+n-1, k-1).  The
    consecutive map is stingier: a preimage chooses j of the k-1 adjacent
    pairs inside the trailing run to host the singleton socks, so the
    count is the partial binomial sum over j <= min(n, k-1).
    """
    pats_f = frozenset(pats)
    if pats_f == CLASSICAL_ABA:
        return comb(k + n - 1, k - 1)
    if pats_f == CONS_ABA:
        return sum(comb(k - 1, j) for j in range(min(n, k - 1) + 1))
    raise ValueError("staircase counts apply to the single-aba maps only")


def fertility_witness(m: int, n: int, pats: Iterable[Pattern]) -> SockSeq:
    """A length-n sequence with exactly m preimages under the given map.

    For the consecutive map: one lead sock, m copies of a second sock,
    then fresh socks.  For the classical map: distinct socks with the
    m-th doubled.  Requires 1 <= m <= n-1.
    """
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n-1")
    pats_f = frozenset(pats)
    if pats_f == CONS_ABA:
        return (0,) + (1,) * m + tuple(range(2, n - m + 1))
    if pats_f == CLASSICAL_ABA:
        head = tuple(range(m))
        return head + (m - 1,) + tuple(range(m, n - 1))
    raise ValueError("fertility witnesses apply to the single-aba maps only")
