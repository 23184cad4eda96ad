"""Image membership for the two single-pattern sorting maps.

Both maps have linear-time structure theory.

Consecutive aba: call an interior position sandwiched when its two
neighbours hold the same sock and it holds a different one.  One pass of
the map first emits the sandwiched socks (removing one never creates a
new sandwich to its left, so removal order is position order) and then
the reversal of the sandwich-free remainder.  A sequence p is in the
image exactly when, splitting p at the last sandwiched position, the
left part can be injected into adjacent equal pairs of the reversed
right part under the slot rules checked below.

Classical aba: the image test scans maximal runs against a set of
dividers.  Dividers are charged when crossed and refunded by long runs
that sit far from the sock's previous occurrence; membership is decided
by the final balance.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .core import SockSeq

__all__ = [
    "SandwichDecomposition",
    "sandwich_decompose",
    "phi_cons_via_sandwich",
    "aba_decompose",
    "phi_aba_via_decomposition",
    "ConsMembership",
    "in_image_cons",
    "GammaStep",
    "GammaTrace",
    "AbaMembership",
    "in_image_aba",
]


# ---------------------------------------------------------------------------
# consecutive aba


@dataclass(frozen=True)
class SandwichDecomposition:
    """Socks removed by iterated sandwich extraction, with their original
    indices in increasing order, plus the sandwich-free residual."""

    removed: tuple[tuple[int, int], ...]  # (sock, original index)
    residual: SockSeq


def _sandwich_positions(p: SockSeq) -> list[int]:
    return [i for i in range(1, len(p) - 1) if p[i - 1] == p[i + 1] != p[i]]


def sandwich_decompose(p: Iterable[int]) -> SandwichDecomposition:
    """Repeatedly extract the leftmost sandwiched sock until none remain.

    Removing a sandwiched sock merges an equal pair and never creates a
    new sandwich at or left of the removal point, so one left-to-right
    pass over a stack of kept socks suffices: each incoming sock pops the
    top when it sandwiches it, and removals come out in position order.
    One pop per step is enough, because the new top then equals the
    incoming sock.
    """
    kept: list[tuple[int, int]] = []  # (sock, original index)
    removed: list[tuple[int, int]] = []
    for i, sock in enumerate(p):
        if len(kept) >= 2 and kept[-2][0] == sock != kept[-1][0]:
            removed.append(kept.pop())
        kept.append((sock, i))
    return SandwichDecomposition(tuple(removed), tuple(s for s, _ in kept))


def phi_cons_via_sandwich(p: Iterable[int]) -> SockSeq:
    """Evaluate the consecutive-aba map without running the stack."""
    dec = sandwich_decompose(tuple(p))
    return tuple(sock for sock, _ in dec.removed) + dec.residual[::-1]


@dataclass(frozen=True)
class ConsMembership:
    member: bool
    witness: SockSeq | None  # a preimage under the consecutive-aba map


def _pair_assignment(left: SockSeq, right: SockSeq) -> list[int] | None:
    """Greedily match each sock of left to an adjacent equal pair of right.

    Pairs are consumed right to left, one sock per pair, skipping pairs
    whose sock equals the sock being placed.  The last pair of a maximal
    run additionally rejects a sock equal to whatever follows the run
    (placing it there would get that sock extracted too early).  Returns
    the pair index chosen for each sock of left, or None.
    """
    m = len(right)
    run_end = [0] * m  # exclusive end of the maximal run containing i
    i = 0
    while i < m:
        j = i
        while j < m and right[j] == right[i]:
            j += 1
        for t in range(i, j):
            run_end[t] = j
        i = j
    picks: list[int] = []
    t = m - 2
    for sock in left:
        while t >= 0:
            if right[t] == right[t + 1] and right[t] != sock:
                e = run_end[t]
                if not (t == e - 2 and e < m and right[e] == sock):
                    break
            t -= 1
        if t < 0:
            return None
        picks.append(t)
        t -= 1
    return picks


def _cons_witness(left: SockSeq, right: SockSeq, picks: list[int]) -> SockSeq:
    m = len(right)
    w = list(right[::-1])
    # Insertion spots in w are m-1-t; work from the largest index down so
    # earlier inserts do not shift later ones.
    for sock, t in sorted(zip(left, picks), key=lambda st: st[1]):
        w.insert(m - 1 - t, sock)
    return tuple(w)


def in_image_cons(p: Iterable[int]) -> ConsMembership:
    """Is p the output of one consecutive-aba pass?  Returns a witness
    preimage when it is.

    Only the minimal split needs checking: moving the split left of the
    last sandwiched position is impossible, and any assignment that
    works for a longer sandwich-free tail also works for the longest.
    """
    seq = tuple(p)
    sandwiches = _sandwich_positions(seq)
    split = sandwiches[-1] if sandwiches else 0
    left, right = seq[:split], seq[split:]
    picks = _pair_assignment(left, right)
    if picks is None:
        return ConsMembership(False, None)
    return ConsMembership(True, _cons_witness(left, right, picks))


# ---------------------------------------------------------------------------
# classical aba


def aba_decompose(
    p: Iterable[int],
) -> tuple[int, tuple[int, ...], tuple[SockSeq, ...]]:
    """Split p around its first sock x: alternating x-runs and non-empty
    x-free segments.  Always returns one more run than segments; the last
    run may be empty."""
    seq = tuple(p)
    if not seq:
        raise ValueError("empty sequence")
    x = seq[0]
    runs: list[int] = []
    segs: list[SockSeq] = []
    i, n = 0, len(seq)
    while i < n:
        j = i
        while j < n and seq[j] == x:
            j += 1
        runs.append(j - i)
        i = j
        j = i
        while j < n and seq[j] != x:
            j += 1
        if j > i:
            segs.append(seq[i:j])
        i = j
    if len(runs) == len(segs):
        runs.append(0)
    return x, tuple(runs), tuple(segs)


def phi_aba_via_decomposition(p: Iterable[int]) -> SockSeq:
    """Evaluate the classical-aba map: sort each x-free segment
    recursively, then append every copy of x."""
    seq = tuple(p)
    if not seq:
        return ()
    x, runs, segs = aba_decompose(seq)
    out: list[int] = []
    for seg in segs:
        out.extend(phi_aba_via_decomposition(seg))
    out.extend([x] * sum(runs))
    return tuple(out)


@dataclass(frozen=True)
class GammaStep:
    kind: str  # "divider" | "run" | "remove" | "insert"
    position: int
    gamma_after: int
    run_length: int | None = None
    block: int | None = None
    prev_block: int | None = None
    score: int | None = None
    dividers: tuple[int, ...] = field(default=())


@dataclass(frozen=True)
class GammaTrace:
    initial_dividers: tuple[int, ...]
    steps: tuple[GammaStep, ...]
    final_gamma: int
    final_dividers: tuple[int, ...]


@dataclass(frozen=True)
class AbaMembership:
    member: bool
    trace: GammaTrace


def _initial_dividers(p: SockSeq) -> list[int]:
    """Positions k such that a divider sits just before p[k]: the scan
    starts a new region whenever the current sock last appeared in the
    region with a gap.  Dividers never split a run of equal socks."""
    dividers: list[int] = []
    last: dict[int, int] = {}
    for k, sock in enumerate(p):
        prev = last.get(sock)
        if prev is not None and prev < k - 1:
            dividers.append(k)
            last = {}
        last[sock] = k
    return dividers


def in_image_aba(p: Iterable[int]) -> AbaMembership:
    """Is p the output of one classical-aba pass?

    Walk maximal runs left to right.  Crossing a divider costs 1.  A run
    of length l lying in block j (blocks are divider-separated, counted
    from 1 in the current layout) whose sock last occurred in block m
    (0 when new) refunds k = min(cap, j-m-1), deleting the k dividers
    closest behind the cursor.  The cap is l-1 when socks precede the
    run inside its own block (they occupy one merge slot) and l when the
    run starts its block.  k = -1 charges 1 and plants a new divider at
    the run start, already behind the cursor, so it is never crossed.
    Membership is final gamma >= 0.
    """
    seq = tuple(p)
    initial = _initial_dividers(seq)
    prev_at: list[int | None] = [None] * len(seq)
    lastpos: dict[int, int] = {}
    for i, sock in enumerate(seq):
        prev_at[i] = lastpos.get(sock)
        lastpos[sock] = i
    steps: list[GammaStep] = []
    crossed: list[int] = []  # dividers at positions <= cursor, increasing
    upcoming = deque(initial)
    gamma = 0
    i, n = 0, len(seq)
    while i < n:
        j = i
        while j < n and seq[j] == seq[i]:
            j += 1
        run_start, run_len = i, j - i
        while upcoming and upcoming[0] <= run_start:
            d = upcoming.popleft()
            crossed.append(d)
            gamma -= 1
            steps.append(GammaStep("divider", d, gamma))
        block = len(crossed) + 1
        prev = prev_at[run_start]
        prev_block = 0 if prev is None else bisect_right(crossed, prev) + 1
        block_start = crossed[-1] if crossed else 0
        cap = run_len if run_start == block_start else run_len - 1
        k = min(cap, block - prev_block - 1)
        gamma += k
        steps.append(
            GammaStep(
                "run",
                j - 1,
                gamma,
                run_length=run_len,
                block=block,
                prev_block=prev_block,
                score=k,
            )
        )
        if k > 0:
            removed = tuple(crossed[-k:])
            del crossed[-k:]
            steps.append(GammaStep("remove", j - 1, gamma, dividers=removed))
        elif k == -1:
            crossed.append(run_start)
            steps.append(GammaStep("insert", run_start, gamma, dividers=(run_start,)))
        i = j
    final = tuple(crossed) + tuple(upcoming)
    trace = GammaTrace(tuple(initial), tuple(steps), gamma, tuple(sorted(final)))
    return AbaMembership(gamma >= 0, trace)
