"""The pattern-avoiding stack sorting map.

Socks are pushed left to right.  Before each push, socks are popped to
the output while pushing the candidate would create a pattern occurrence
inside the stack (read bottom to top, candidate on top).  The stack is
flushed at the end.  Tie-free by construction: at most one move applies
at any moment, so the map is a function.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .core import SockSeq, is_sorted, standardize
from .patterns import Check, Pattern, _prepare


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # "push" | "pop"
    sock: int
    index: int  # input index for pushes, output index for pops


@dataclass(frozen=True)
class SortTrace:
    events: tuple[TraceEvent, ...]
    output: SockSeq


def _feed(must_pop: Check, stack: list[int], out: list[int], socks: Iterable[int]) -> None:
    """Push each sock, first popping to out while must_pop says so.  A check
    names how many socks to pop, so a run of forced pops costs one check."""
    for sock in socks:
        while stack and (k := must_pop(stack, sock)):
            out.append(stack.pop())
            if k > 1:
                out += stack[:-k:-1]
                del stack[1 - k :]
        stack.append(sock)


def _undo(stack: list[int], out: list[int], mark: int) -> None:
    """Take back the last push and its pops, given mark, the output length
    saved before that push."""
    stack.pop()
    while len(out) > mark:
        stack.append(out.pop())


def phi(p: Iterable[int], pats: Iterable[Pattern]) -> SockSeq:
    """One pass of the sorting map for the given pattern set."""
    stack: list[int] = []
    out: list[int] = []
    _feed(_prepare(frozenset(pats)), stack, out, p)
    return tuple(out + stack[::-1])


def phi_trace(p: Iterable[int], pats: Iterable[Pattern]) -> SortTrace:
    """Like phi, but records every push and pop."""
    must_pop = _prepare(frozenset(pats))
    stack: list[int] = []
    out: list[int] = []
    events: list[TraceEvent] = []
    for i, sock in enumerate(p):
        mark = len(out)
        _feed(must_pop, stack, out, (sock,))
        events += [TraceEvent("pop", out[j], j) for j in range(mark, len(out))]
        events.append(TraceEvent("push", sock, i))
    mark = len(out)
    out += stack[::-1]
    events += [TraceEvent("pop", out[j], j) for j in range(mark, len(out))]
    return SortTrace(tuple(events), tuple(out))


def sweep(
    n: int, pattern_sets: Sequence[Iterable[Pattern]],
    prune: Callable[[list[int], list[list[int]]], bool] | None = None,
) -> Iterator[tuple[SockSeq, ...]]:
    """Every canonical length-n word, in lexicographic order, followed by its
    one-pass output under each pattern set.  The map is online, so words that
    share a prefix share its stack and emitted output: each sock is pushed
    once per prefix and its pops are undone on backtrack.  prune(prefix,
    outputs) sees each shorter prefix (a list it must not change) and its
    own one-pass output under each set; True skips the words extending it.
    Stack socks leave top first, so a prefix's output is a subsequence of
    the output of every word extending it."""
    if n < 0:
        raise ValueError("length must be >= 0")
    machines = [(_prepare(frozenset(pats)), [], []) for pats in pattern_sets]
    word: list[int] = []

    def grow() -> Iterator[tuple[SockSeq, ...]]:
        marks = [(stack, out, len(out)) for _, stack, out in machines]
        for v in range(max(word, default=-1) + 2):
            word.append(v)
            for m in machines:
                _feed(*m, (v,))
            if len(word) == n:
                yield tuple(word), *[tuple(out + stack[::-1]) for _, stack, out in machines]
            elif prune is None or not prune(
                word, [out + stack[::-1] for _, stack, out in machines]
            ):
                yield from grow()
            for m in marks:
                _undo(*m)
            word.pop()

    if not n:
        yield ((),) * (len(machines) + 1)
        return
    yield from grow()


class IterationOutcome(enum.Enum):
    SORTED = "sorted"
    NEVER_SORTS = "never-sorts"
    NOT_SORTED_WITHIN = "not-sorted-within"


@dataclass(frozen=True)
class IterationResult:
    outcome: IterationOutcome
    sorted_after: int | None  # passes used, 0 when already sorted
    final: SockSeq


def phi_iterate(
    p: Iterable[int], pats: Iterable[Pattern], max_k: int = 100
) -> IterationResult:
    """Apply phi repeatedly, up to max_k passes.

    Stops early with NEVER_SORTS when an unsorted sequence repeats up to
    renaming: iteration is then trapped in a cycle of unsorted sequences.
    """
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    pats_f = frozenset(pats)
    cur = tuple(p)
    if is_sorted(cur):
        return IterationResult(IterationOutcome.SORTED, 0, cur)
    seen = {standardize(cur)}
    for k in range(1, max_k + 1):
        cur = phi(cur, pats_f)
        if is_sorted(cur):
            return IterationResult(IterationOutcome.SORTED, k, cur)
        std = standardize(cur)
        if std in seen:
            return IterationResult(IterationOutcome.NEVER_SORTS, None, cur)
        seen.add(std)
    return IterationResult(IterationOutcome.NOT_SORTED_WITHIN, None, cur)


def is_one_stack_sortable(p: Iterable[int], pats: Iterable[Pattern]) -> bool:
    """True when a single pass of phi sorts p."""
    return is_sorted(phi(p, pats))
