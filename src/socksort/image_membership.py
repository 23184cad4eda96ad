"""Image membership for the two single-pattern sorting maps.

Both maps have linear-time structure theory.

Consecutive aba: call an interior position sandwiched when its two
neighbours hold the same sock and it holds a different one.  One pass of
the map first emits the sandwiched socks (removing one never creates a
new sandwich to its left, so removal order is position order) and then
the reversal of the sandwich-free remainder.  A sequence p is in the
image exactly when, with s its last sandwiched position, the prefix
p[:s] can be placed in order into the adjacent equal pairs p[i] == p[i+1]
with i >= s, taken right to left, one sock per pair, each pair taking the
socks that _takes allows.  One greedy pass decides this and builds the
witness, so the test is linear.

Classical aba: the image test rejects a word whose last sock occurs
before its trailing run, and scans any other word's maximal runs against
a set of dividers, with one bisect per run.  Dividers are charged when
crossed and refunded by long runs that sit far from the sock's previous
occurrence; membership is decided by the final balance.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .core import SockSeq

@dataclass(frozen=True)
class Membership:
    """An image test's verdict.  in_image_cons gives a witness preimage
    with each member; gamma_trace(p) explains in_image_aba's verdict.
    Verdict-only answers (every in_image_aba answer, and in_image_cons on
    non-members) are the two shared instances below; being frozen, they
    are safe to share."""

    member: bool
    witness: SockSeq | None = None


_MEMBER, _NOT_MEMBER = Membership(True), Membership(False)


# ---------------------------------------------------------------------------
# consecutive aba


def sandwich_decompose(p: SockSeq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Repeatedly extract the leftmost sandwiched sock until none remain;
    returns the positions removed and the positions kept, each increasing.

    Removing a sandwiched sock merges an equal pair and never creates a
    new sandwich at or left of the removal point, so one left-to-right
    pass over a stack of kept positions suffices: each incoming sock pops
    the top when it sandwiches it, and removals come out in position order.
    One pop per step is enough, because the new top then equals the
    incoming sock.
    """
    kept: list[int] = []
    removed: list[int] = []
    for i, sock in enumerate(p):
        if len(kept) >= 2 and p[kept[-2]] == sock != p[kept[-1]]:
            removed.append(kept.pop())
        kept.append(i)
    return tuple(removed), tuple(kept)


def phi_cons_via_sandwich(p: Iterable[int]) -> SockSeq:
    """Evaluate the consecutive-aba map without running the stack: the
    pass of sandwich_decompose over socks rather than positions, emitting
    each sandwiched sock as it is popped, then the kept socks reversed."""
    kept: list[int] = []
    out: list[int] = []
    for sock in p:
        if len(kept) >= 2 and kept[-2] == sock != kept[-1]:
            out.append(kept.pop())
        kept.append(sock)
    out.extend(reversed(kept))
    return tuple(out)


def _last_sandwich(t: SockSeq) -> int:
    """The last sandwiched position of t, 0 when there is none."""
    for i in range(len(t) - 2, 0, -1):
        if t[i - 1] == t[i + 1] != t[i]:
            return i
    return 0


def _takes(t: SockSeq, i: int, sock: int) -> bool:
    """The pair rule: the adjacent equal pair at i of t, right of the split,
    takes sock unless sock equals t[i], and would not be sandwiched, or
    t[i+2], and would sandwich t[i+1], extracting it too early.  It reads
    t at target positions only, so it does not depend on the split."""
    return sock != t[i] and (i + 2 == len(t) or sock != t[i + 2])


def in_image_cons(p: Iterable[int]) -> Membership:
    """Is p the output of one consecutive-aba pass?  Returns a witness
    preimage when it is.

    Only the minimal split s = _last_sandwich(p) needs checking: moving it
    left is impossible, and any assignment that works for a longer
    sandwich-free tail also works for the longest.  Each sock of p[:s], in
    order, takes the first pair i >= s, right to left, that _takes it.  The
    witness is p[s:] reversed, with each placed sock set just before the
    p[i] of its pair, so one pass from the end down to s builds it.
    """
    seq = tuple(p)
    split = _last_sandwich(seq)
    witness: list[int] = []
    k = 0  # socks of seq[:split] placed so far
    for i in range(len(seq) - 1, split - 1, -1):
        if k < split and i + 1 < len(seq) and seq[i] == seq[i + 1] and _takes(seq, i, seq[k]):
            witness.append(seq[k])
            k += 1
        witness.append(seq[i])
    return _NOT_MEMBER if k < split else Membership(True, tuple(witness))


# ---------------------------------------------------------------------------
# classical aba


def phi_aba_via_decomposition(p: Iterable[int]) -> SockSeq:
    """Evaluate the classical-aba map in one linear scan.

    A stack that avoids classical aba holds each sock in one contiguous
    block.  Pushing a sock already inside it therefore pops everything
    above that sock's block, and any other push is free; the stack is
    flushed at the end.  This is the decomposition p = x^b0 s_1 ... s_r x^br
    around the first sock x, read left to right: with x at the bottom, the
    stack above it runs the map on the current x-free segment s_i, and x's
    return pops exactly its image, so phi(p) = phi(s_1) ... phi(s_r) x^(b0+...+br).
    """
    stack: list[int] = []
    inside: set[int] = set()
    out: list[int] = []
    for sock in p:
        if sock in inside:
            while stack[-1] != sock:
                top = stack.pop()
                inside.discard(top)
                out.append(top)
        else:
            inside.add(sock)
        stack.append(sock)
    out.extend(reversed(stack))
    return tuple(out)


@dataclass(frozen=True)
class GammaStep:
    """A "divider" step crosses an initial divider; a "run" step ends a
    maximal run, and its dividers are the ones it removed (score > 0) or
    the one it planted at its start (score == -1)."""

    kind: str  # "divider" | "run"
    position: int
    gamma_after: int
    run_length: int | None = None
    score: int | None = None
    dividers: tuple[int, ...] = ()


@dataclass(frozen=True)
class GammaTrace:
    initial_dividers: tuple[int, ...]
    steps: tuple[GammaStep, ...]
    final_gamma: int

    @property
    def member(self) -> bool:
        """in_image_aba's verdict: the final balance is not negative."""
        return self.final_gamma >= 0

    def rows(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Change-point rows (position, gamma, dividers): the start, every divider
        crossing and every run that scores or has length >= 2, after its edits."""
        layout = list(self.initial_dividers)
        yield 0, 0, tuple(layout)
        for st in self.steps:
            if st.kind == "run":
                if st.score > 0:
                    for d in st.dividers:
                        layout.remove(d)
                elif st.score == -1:
                    insort(layout, st.dividers[0])
                elif st.run_length < 2:
                    continue
            yield st.position, st.gamma_after, tuple(layout)


def _gamma_scan(p: SockSeq, steps: list | None) -> tuple[list[int], int]:
    """The gamma rules of in_image_aba.

    Returns the initial dividers and the final gamma, and appends one
    GammaStep per event to steps when it is a list.
    Initial dividers are placed on the fly: a run whose sock already
    occurs at or after the last initial divider (with a gap, as runs are
    maximal) gets a new one at its start, so dividers sit at run starts,
    never split a run, and are crossed by the run they open.  A run starts
    its block exactly when it opens the scan or such a divider: the only
    other dividers, planted by k = -1 runs, sit at earlier run starts.
    """
    initial: list[int] = []
    crossed: list[int] = []  # dividers at positions <= cursor, increasing
    last: dict[int, int] = {}  # sock -> its last position in an earlier run
    start = 0  # position of the last initial divider
    gamma = 0
    i, n = 0, len(p)
    while i < n:
        sock = p[i]
        j = i + 1
        while j < n and p[j] == sock:
            j += 1
        prev = last.get(sock)
        if prev is not None and prev >= start:
            initial.append(i)
            crossed.append(i)
            start = i
            gamma -= 1
            if steps is not None:
                steps.append(GammaStep("divider", i, gamma))
        last[sock] = j - 1
        # blocks strictly between the run's block and its sock's previous one
        between = len(crossed) if prev is None else len(crossed) - bisect_right(crossed, prev) - 1
        k = min(j - i if i == start else j - i - 1, between)
        gamma += k
        if steps is not None:
            edits = tuple(crossed[-k:]) if k > 0 else (i,) if k == -1 else ()
            steps.append(GammaStep("run", j - 1, gamma, j - i, k, edits))
        if k > 0:
            del crossed[-k:]
        elif k == -1:
            crossed.append(i)
        i = j
    return initial, gamma


def in_image_aba(p: Iterable[int]) -> Membership:
    """Is p the output of one classical-aba pass?

    Walk maximal runs left to right.  Crossing a divider costs 1.  A run
    of length l lying in block j (blocks are divider-separated, counted
    from 1 in the current layout) whose sock last occurred in block m
    (0 when new) refunds k = min(cap, j-m-1), deleting the k dividers
    closest behind the cursor.  The cap is l-1 when socks precede the
    run inside its own block (they occupy one merge slot) and l when the
    run starts its block.  k = -1 charges 1 and plants a new divider at
    the run start, already behind the cursor, so it is never crossed.
    Membership is final gamma >= 0, as GammaTrace.member says too.  The
    scan keeps no step records.

    Before the scan, a word whose last sock occurs before its trailing run
    is rejected: by the decomposition, phi(p) = phi(s_1) ... phi(s_r) x^m
    ends in every copy of its last sock x.  gamma_trace always scans.
    """
    seq = tuple(p)
    if seq and seq.count(seq[-1]) != len(seq) - seq.index(seq[-1]):
        return _NOT_MEMBER
    return _MEMBER if _gamma_scan(seq, None)[1] >= 0 else _NOT_MEMBER


def gamma_trace(p: Iterable[int]) -> GammaTrace:
    """The divider/gamma trace that explains in_image_aba's verdict: the
    same scan, with one step per divider crossing and per run, and its
    member verdict."""
    steps: list[GammaStep] = []
    initial, gamma = _gamma_scan(tuple(p), steps)
    return GammaTrace(tuple(initial), tuple(steps), gamma)
