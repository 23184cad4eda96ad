"""Preimage listing and fertility constructions for the sorting maps.

Preimages are counted up to sock renaming.  One pass of either aba map
permutes its input, and its structure theory, read backwards, builds each
preimage of a target directly: the work follows the preimages found.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

from .core import SockSeq, standardize
from .image_membership import _last_sandwich, _takes
from .patterns import ABA_CLASSICAL, ABA_CONSECUTIVE, Pattern, PatternSet

CONS_ABA: PatternSet = frozenset({ABA_CONSECUTIVE})
CLASSICAL_ABA: PatternSet = frozenset({ABA_CLASSICAL})
MAPS: dict[str, PatternSet] = {"cons-aba": CONS_ABA, "aba": CLASSICAL_ABA}  # report order

DEFAULT_MAX_LEN = 10


def check_target_length(n: int) -> None:
    """Raise for a target longer than DEFAULT_MAX_LEN, before it is built."""
    if n > DEFAULT_MAX_LEN:
        raise ValueError(f"target length {n} exceeds the bound {DEFAULT_MAX_LEN}")


@dataclass(frozen=True)
class PreimageReport:
    target: SockSeq  # standardized
    preimages: tuple[SockSeq, ...]  # standardized, lexicographic

    @property
    def count(self) -> int:
        return len(self.preimages)


def _is_classical(pats: Iterable[Pattern], what: str) -> bool:
    """Which of the two MAPS pats is: True for classical aba, False for
    consecutive aba.  Any other pattern set raises."""
    pats_f = frozenset(pats)
    if pats_f not in MAPS.values():
        raise ValueError(f"{what} apply to the single-aba maps only")
    return pats_f == CLASSICAL_ABA


def _classical(q: SockSeq) -> list[SockSeq]:
    """Every p with phi(p) == q under classical aba: the identity
    phi(x^b0 s_1 x^b1 ... s_r x^br) = phi(s_1) ... phi(s_r) x^m of
    phi_aba_via_decomposition, read backwards, one interval of q at a time.
    For q[i:j], x is its last sock, q[k:j] its trailing run of m copies, and
    x may not occur in q[i:k].  A preimage is the first x, then a preimage
    of a first part q[i:b] (empty when b == i), then a preimage of
    q[b:j-1], whose m-1 copies of x host the rest; with m == 1 there is no
    such copy, so b == k.  The second x sits at 1 + (b - i), so each
    preimage is listed once."""

    @cache
    def lister(i: int, j: int) -> list[SockSeq]:  # the preimages of q[i:j]
        if i == j:
            return [()]
        x, k = q[j - 1], j - 1
        while k > i and q[k - 1] == x:
            k -= 1
        if x in q[i:k]:
            return []
        return [(x, *seg, *rest) for b in range(i if j - k > 1 else k, k + 1)
                for seg in lister(i, b) for rest in lister(b, j - 1)]

    return lister(0, len(q))


def _consecutive(t: SockSeq) -> list[SockSeq]:
    """Every p with phi(p) == t under consecutive aba.  The adjacent equal
    pairs t[i] == t[i+1] are found once.  For each split s at or after
    _last_sandwich(t), t[:s] goes in order into pairs at or after s, taken
    right to left, one sock per pair, by the pair rule _takes.  p is t[s:]
    reversed, with each sock set just before the t[i] of its pair."""
    found = []
    pairs = [i for i in range(len(t) - 2, -1, -1) if t[i] == t[i + 1]]
    for s in range(_last_sandwich(t), len(t) + 1):
        for chosen in combinations([i for i in pairs if i >= s], s):
            if all(_takes(t, i, sock) for sock, i in zip(t, chosen)):
                host = dict(zip(chosen, t))
                found.append(tuple(v for i in range(len(t) - 1, s - 1, -1)
                                   for v in ((host[i], t[i]) if i in host else (t[i],))))
    return found


def preimages_of(target: Iterable[int], pats: Iterable[Pattern]) -> PreimageReport:
    """All preimages of target under one pass of either aba map, up to
    renaming.  Length is capped at DEFAULT_MAX_LEN, which bounds the
    number of preimages listed."""
    t = standardize(target)
    lister = _classical if _is_classical(pats, "preimages") else _consecutive
    check_target_length(len(t))
    return PreimageReport(t, tuple(sorted(standardize(p) for p in lister(t))))


def staircase_target(n: int, k: int) -> SockSeq:
    """n distinct singleton socks followed by k copies of one more sock."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return tuple(range(n)) + (n,) * k


def staircase_preimage_count(n: int, k: int, pats: Iterable[Pattern]) -> int:
    """Preimage count of the staircase target under either aba map."""
    if n >= 1 and k >= 1:
        check_target_length(n + k)
    return preimages_of(staircase_target(n, k), pats).count


def staircase_count_formula(n: int, k: int, pats: Iterable[Pattern]) -> int:
    """Closed form matching the enumerated staircase preimage count.

    Classical map: the trailing run can be split into ascending insertion
    slots among the n+k-1 other positions, giving C(k+n-1, k-1).  The
    consecutive map is stingier: a preimage chooses j of the k-1 adjacent
    pairs inside the trailing run to host the singleton socks, so the
    count is the partial binomial sum over j <= min(n, k-1).
    """
    if _is_classical(pats, "staircase counts"):
        return comb(k + n - 1, k - 1)
    return sum(comb(k - 1, j) for j in range(min(n, k - 1) + 1))


def fertility_witness(m: int, n: int, pats: Iterable[Pattern]) -> SockSeq:
    """A length-n sequence with exactly m preimages under the given map.

    For the consecutive map: one lead sock, m copies of a second sock,
    then fresh socks.  For the classical map: distinct socks with the
    m-th doubled.  Requires 1 <= m <= n-1.
    """
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n-1")
    if _is_classical(pats, "fertility witnesses"):
        return tuple(range(m)) + (m - 1,) + tuple(range(m, n - 1))
    return (0,) + (1,) * m + tuple(range(2, n - m + 1))
