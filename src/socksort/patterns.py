"""Equality patterns over sock sequences.

A pattern is a standardized shape plus a matching mode.  An occurrence
maps pattern letters to socks so that two letters are equal exactly when
the matched socks are equal.  Classical occurrences may use any
subsequence; consecutive occurrences must be a contiguous window.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .core import SockSeq, format_sequence, parse_sequence, standardize


class Mode(enum.Enum):
    CLASSICAL = "classical"
    CONSECUTIVE = "consecutive"


@dataclass(frozen=True)
class Pattern:
    """A standardized shape of length >= 2 with a matching mode.

    Length-1 shapes are rejected: a pattern matched by every single sock
    would leave the sorting stack no legal push.
    """

    shape: SockSeq
    mode: Mode

    def __post_init__(self) -> None:
        shape = tuple(self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) < 2:
            raise ValueError("pattern shape needs at least 2 letters")
        if shape != standardize(shape):
            raise ValueError(f"pattern shape {shape!r} is not standardized")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"bad pattern mode {self.mode!r}")


PatternSet = frozenset[Pattern]

ABA_CLASSICAL = Pattern((0, 1, 0), Mode.CLASSICAL)
ABA_CONSECUTIVE = Pattern((0, 1, 0), Mode.CONSECUTIVE)
AAB_CLASSICAL = Pattern((0, 0, 1), Mode.CLASSICAL)
AAB_CONSECUTIVE = Pattern((0, 0, 1), Mode.CONSECUTIVE)


def parse_pattern(text: str) -> Pattern:
    """Parse 'aba' (classical) or '~aba' (consecutive); digits work too."""
    text = text.strip()
    mode = Mode.CLASSICAL
    if text.startswith("~"):
        mode = Mode.CONSECUTIVE
        text = text[1:]
    shape = parse_sequence(text)
    return Pattern(shape, mode)


def parse_patterns(text: str) -> PatternSet:
    """Comma-separated list of patterns, e.g. '~aba,~aab'."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty pattern set")
    return frozenset(parse_pattern(part) for part in parts)


def format_pattern(pattern: Pattern) -> str:
    prefix = "~" if pattern.mode is Mode.CONSECUTIVE else ""
    return prefix + format_sequence(pattern.shape)


def _matches_factor(seq: SockSeq, shape: SockSeq) -> bool:
    k = len(shape)
    return any(
        standardize(seq[i : i + k]) == shape for i in range(len(seq) - k + 1)
    )


def _embeds(seq: Sequence[int], shape: SockSeq, fwd: dict[int, int]) -> bool:
    """Whether shape occurs as a subsequence of seq, extending the partial
    letter->sock binding fwd.  Backtracks over positions keeping the
    binding injective; fwd is restored before returning False."""
    k = len(shape)
    n = len(seq)
    if n < k:
        return False
    bound_socks = set(fwd.values())

    def extend(pi: int, si: int) -> bool:
        if pi == k:
            return True
        letter = shape[pi]
        for j in range(si, n - (k - pi - 1)):
            sock = seq[j]
            bound = fwd.get(letter)
            if bound is not None:
                if sock == bound and extend(pi + 1, j + 1):
                    return True
                continue
            if sock in bound_socks:
                continue
            fwd[letter] = sock
            bound_socks.add(sock)
            if extend(pi + 1, j + 1):
                return True
            del fwd[letter]
            bound_socks.remove(sock)
        return False

    return extend(0, 0)


def contains(p: Iterable[int], pattern: Pattern) -> bool:
    """Whether p contains an occurrence of the pattern."""
    seq = tuple(p)
    if len(seq) < len(pattern.shape):
        return False
    if pattern.mode is Mode.CONSECUTIVE:
        return _matches_factor(seq, pattern.shape)
    return _embeds(seq, pattern.shape, {})


def avoids(p: Iterable[int], pats: Iterable[Pattern]) -> bool:
    seq = tuple(p)
    return not any(contains(seq, pat) for pat in pats)


@lru_cache(maxsize=None)
def _prepare(pats: PatternSet) -> tuple[tuple[bool, SockSeq], ...]:
    if not pats:
        raise ValueError("empty pattern set")
    return tuple(
        (pat.mode is Mode.CONSECUTIVE, pat.shape)
        for pat in sorted(pats, key=lambda q: (q.mode.value, q.shape))
    )


def _violates(stack: Sequence[int], candidate: int, prepared) -> bool:
    for consecutive, shape in prepared:
        k = len(shape)
        if consecutive:
            if len(stack) >= k - 1:
                window = tuple(stack[len(stack) - k + 1 :]) + (candidate,)
                if standardize(window) == shape:
                    return True
        elif _embeds(stack, shape[:-1], {shape[-1]: candidate}):
            # A new classical occurrence must end at the candidate.
            return True
    return False


def push_would_violate(
    stack: Sequence[int], candidate: int, pats: Iterable[Pattern]
) -> bool:
    """Would pushing candidate create a pattern occurrence in the stack?

    The stack is read bottom to top with the candidate on top.  Assuming
    the stack already avoids pats, any new occurrence must end at the
    candidate, so only those are checked.
    """
    pats_f = pats if isinstance(pats, frozenset) else frozenset(pats)
    return _violates(tuple(stack), candidate, _prepare(pats_f))
