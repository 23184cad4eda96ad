"""Equality patterns over sock sequences.

A pattern is a standardized shape plus a matching mode.  An occurrence
maps pattern letters to socks so that two letters are equal exactly when
the matched socks are equal.  Classical occurrences may use any
subsequence; consecutive occurrences must be a contiguous window.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

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
    """Parse 'aba' (classical) or '~aba' (consecutive).  Integer shapes are
    comma-separated, as in parse_sequence: '0,1,0', not '010'."""
    text = text.strip()
    mode = Mode.CLASSICAL
    if text.startswith("~"):
        mode = Mode.CONSECUTIVE
        text = text[1:]
    shape = parse_sequence(text)
    return Pattern(shape, mode)


def parse_patterns(text: str) -> PatternSet:
    """Comma-separated list of patterns, e.g. '~aba,~aab'.  The commas
    separate patterns, so each shape is written in letters."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty pattern set")
    for part in parts:
        if part.removeprefix("~").strip().isdigit():
            raise ValueError(f"bad pattern {part!r}: pattern lists are written in letters")
    return frozenset(parse_pattern(part) for part in parts)


def format_pattern(pattern: Pattern) -> str:
    prefix = "~" if pattern.mode is Mode.CONSECUTIVE else ""
    return prefix + format_sequence(pattern.shape)


def _matches_factor(seq: SockSeq, shape: SockSeq) -> bool:
    k = len(shape)
    return any(
        standardize(seq[i : i + k]) == shape for i in range(len(seq) - k + 1)
    )


def _embeds(seq: Sequence[int], shape: SockSeq, fwd: dict[int, int]) -> int:
    """Where shape occurs as a subsequence of seq, extending the partial
    letter->sock binding fwd: the position matched to shape's last letter
    in the first occurrence found, or -1 when there is none.  Backtracks
    over positions keeping the binding injective; fwd is restored before
    returning -1.

    Two prunes keep deep stacks cheap.  A letter is matched only at the
    first fitting occurrence of its sock, since a later one leaves less
    room for the rest of the shape.  A letter that recurs later in shape
    is never bound at the last occurrence of its sock, since the
    recurrence could then not be matched; the last-occurrence index is
    built only when such a free letter exists."""
    k = len(shape)
    n = len(seq)
    if n < k:
        return -1
    for letter, sock in fwd.items():
        if letter in shape and sock not in seq:
            return -1
    bound_socks = set(fwd.values())
    recurs = [shape[pi] not in fwd and shape[pi] in shape[pi + 1 :] for pi in range(k)]
    last = {sock: j for j, sock in enumerate(seq)} if any(recurs) else {}

    def extend(pi: int, si: int) -> int:
        if pi == k:
            return si - 1
        letter = shape[pi]
        stop = n - (k - pi - 1)
        bound = fwd.get(letter)
        if bound is not None:
            try:
                j = seq.index(bound, si, stop)
            except ValueError:
                return -1
            return extend(pi + 1, j + 1)
        tried = set()
        for j in range(si, stop):
            sock = seq[j]
            if sock in bound_socks or sock in tried:
                continue
            tried.add(sock)
            if recurs[pi] and last[sock] == j:
                continue
            fwd[letter] = sock
            bound_socks.add(sock)
            e = extend(pi + 1, j + 1)
            if e >= 0:
                return e
            del fwd[letter]
            bound_socks.remove(sock)
        return -1

    return extend(0, 0)


def contains(p: Iterable[int], pattern: Pattern) -> bool:
    """Whether p contains an occurrence of the pattern."""
    seq = tuple(p)
    if len(seq) < len(pattern.shape):
        return False
    if pattern.mode is Mode.CONSECUTIVE:
        return _matches_factor(seq, pattern.shape)
    return _embeds(seq, pattern.shape, {}) >= 0


def avoids(p: Iterable[int], pats: Iterable[Pattern]) -> bool:
    seq = tuple(p)
    return not any(contains(seq, pat) for pat in pats)


Check = Callable[[list[int], int], int]


def _aba_pops(s: list[int], c: int) -> int:
    # Each sock's copies are contiguous in an aba-avoiding stack: pop the
    # socks above c's block.  The walk down costs what the pops cost.
    if s[-1] == c or c not in s:
        return 0
    k = 1
    while s[-1 - k] != c:
        k += 1
    return k


def _abca_pops(s: list[int], c: int) -> int:
    # After c's first copy: the first sock other than c and other than the
    # first non-c sock after that copy.
    if c not in s:
        return 0
    first = c
    for j in range(s.index(c) + 1, len(s)):
        x = s[j]
        if x != c:
            if first == c:
                first = x
            elif x != first:
                return len(s) - j
    return 0


def _abba_pops(s: list[int], c: int) -> int:
    # After c's first copy: the first repeat of a non-c sock.
    if c not in s:
        return 0
    seen = set()
    for j in range(s.index(c) + 1, len(s)):
        x = s[j]
        if x != c:
            if x in seen:
                return len(s) - j
            seen.add(x)
    return 0


def _abab_pops(s: list[int], c: int) -> int:
    # The first sock after c's first copy that also occurs before it.  A
    # sock x first seen after that copy cannot end x c x: with a later c
    # between, the stack would hold c x c x, an abab.
    if c not in s:
        return 0
    i = s.index(c)
    before = set(s[:i])
    for j in range(i + 1, len(s)):
        if s[j] in before:
            return len(s) - j
    return 0


def _abac_pops(s: list[int], c: int) -> int:
    # The first non-c sock with another non-c sock since its first copy:
    # one seen before that is not the latest non-c sock.
    seen = set()
    latest = c
    for j, x in enumerate(s):
        if x != c and x != latest:
            if x in seen:
                return len(s) - j
            seen.add(x)
            latest = x
    return 0


# Closed forms for the short shapes the library's maps and the classical
# unsortability checks use: (consecutive, shape) -> check on a non-empty,
# shape-avoiding stack s (bottom to top) and a candidate c, returning how
# many socks must be popped before c is pushed (a bool counts as 0 or 1).
# A classical occurrence ending at c picks earlier letters from anywhere in
# s; a consecutive one is the top len(shape) - 1 socks.  Each classical
# form is one scan that finds the earliest stack position e where an
# occurrence of the shape's head (all letters but the last, which is c)
# ends, and pops len(s) - e, so after its pops the push is legal.  Other
# classical shapes fall back to _embeds, other consecutive ones to renaming
# the top window.
_CLOSED_FORMS: dict[tuple[bool, SockSeq], Check] = {
    # Only the top sock can occur twice in an aab-avoiding stack, and every
    # sock from its second copy up is that sock: pop all its copies but one.
    (False, (0, 0, 1)): lambda s, c: 0 if s[-1] == c else s.count(s[-1]) - 1,
    (False, (0, 1, 0)): _aba_pops,
    (False, (0, 1, 0, 1)): _abab_pops,
    (False, (0, 1, 0, 2)): _abac_pops,
    (False, (0, 1, 1, 0)): _abba_pops,
    (False, (0, 1, 2, 0)): _abca_pops,
    (True, (0, 0, 1)): lambda s, c: len(s) >= 2 and s[-2] == s[-1] != c,
    (True, (0, 1, 0)): lambda s, c: len(s) >= 2 and s[-2] == c != s[-1],
}


def _check(pat: Pattern) -> Check:
    consecutive = pat.mode is Mode.CONSECUTIVE
    shape = pat.shape
    closed = _CLOSED_FORMS.get((consecutive, shape))
    if closed is not None:
        return closed
    k = len(shape)
    if consecutive:
        return lambda s, c: (
            len(s) >= k - 1 and standardize(tuple(s[1 - k :]) + (c,)) == shape
        )
    head, letter = shape[:-1], shape[-1]

    def pops(s: list[int], c: int) -> int:
        # An occurrence whose head ends at stack position e stays in every
        # stack that still holds position e.
        e = _embeds(s, head, {letter: c})
        return len(s) - e if e >= 0 else 0

    return pops


def _either(first: Check, second: Check) -> Check:
    """first's count when it is nonzero, else second's."""
    return lambda s, c: first(s, c) or second(s, c)


@lru_cache(maxsize=None)
def _prepare(pats: PatternSet) -> Check:
    """The push-legality check of a pattern set: must_pop(stack, candidate)
    is how many socks to pop from the stack (a list read bottom to top)
    before checking again.  It is 0 exactly when pushing the candidate
    would complete no occurrence of a pattern in pats.  A nonzero count
    comes from an occurrence ending at the candidate that survives in every
    stack down to that many pops, so popping one sock per check would pop
    them all too.  A set's check returns its first nonzero count.

    The stack must be non-empty and avoid every pattern in pats.  The
    stack machine keeps this true: each push is checked before it happens,
    pops only shorten the stack, and _undo restores an earlier state."""
    if not pats:
        raise ValueError("empty pattern set")
    checks = [_check(pat) for pat in sorted(pats, key=lambda q: (q.mode.value, q.shape))]
    return reduce(_either, checks)
