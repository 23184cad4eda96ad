"""Sock sequences and their set-partition view.

A sock sequence is a word over non-negative integer sock ids.  Two
sequences are equivalent when a consistent renaming of socks turns one
into the other; the canonical representative renames socks in order of
first appearance, which makes it a restricted growth string.  A sequence
is sorted when every sock's occurrences sit in one contiguous block.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator

SockSeq = tuple[int, ...]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def standardize(p: Iterable[int]) -> SockSeq:
    """Rename socks to 0, 1, 2, ... in order of first appearance."""
    names: dict[int, int] = {}
    out = []
    for sock in p:
        code = names.get(sock)
        if code is None:
            code = names[sock] = len(names)
        out.append(code)
    return tuple(out)


def equivalent(p: Iterable[int], q: Iterable[int]) -> bool:
    """True when p and q differ only by a renaming of socks: one pass that
    stops where the renaming breaks in either direction."""
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        return False
    fwd: dict[int, int] = {}
    back: dict[int, int] = {}
    for a, b in zip(p, q):
        if fwd.setdefault(a, b) != b or back.setdefault(b, a) != a:
            return False
    return True


def is_sorted(p: Iterable[int]) -> bool:
    """True when every sock's occurrences are contiguous."""
    seen = set()
    prev = None
    for sock in p:
        if sock != prev:
            if sock in seen:
                return False
            seen.add(sock)
            prev = sock
    return True


def seq_to_partition(p: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Blocks of 1-based positions that share a sock, ordered by first position."""
    blocks: dict[int, list[int]] = {}
    for i, sock in enumerate(p, start=1):
        blocks.setdefault(sock, []).append(i)
    return tuple(tuple(b) for b in sorted(blocks.values()))


def partition_to_seq(blocks: Iterable[Iterable[int]]) -> SockSeq:
    """Inverse of seq_to_partition.

    Blocks must be non-empty, pairwise disjoint, and cover 1..n exactly.
    The result is standardized (socks numbered by first position).
    """
    cells = [sorted(set(b)) for b in blocks]
    if any(not c for c in cells):
        raise ValueError("empty block")
    cells.sort()
    assign: dict[int, int] = {}
    for label, cell in enumerate(cells):
        for pos in cell:
            if not isinstance(pos, int) or pos < 1:
                raise ValueError(f"positions must be integers >= 1, got {pos!r}")
            if pos in assign:
                raise ValueError(f"position {pos} appears in two blocks")
            assign[pos] = label
    n = len(assign)
    if sorted(assign) != list(range(1, n + 1)):
        raise ValueError("blocks must cover positions 1..n exactly")
    return tuple(assign[i] for i in range(1, n + 1))


def enumerate_standardized(n: int) -> Iterator[SockSeq]:
    """All standardized sequences of length n, in lexicographic order."""
    if n < 0:
        raise ValueError("length must be >= 0")

    def place(word: SockSeq, opened: int) -> Iterator[SockSeq]:
        if len(word) == n:
            yield word
        else:  # any opened sock, then the next new one
            for v in range(opened + 1):
                yield from place(word + (v,), max(opened, v + 1))

    yield from place((), 0)


def count_standardized(n: int) -> int:
    """Number of standardized sequences of length n (Bell number), via the
    Bell triangle so it does not depend on enumerate_standardized."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def random_standardized(n: int, rng: random.Random) -> SockSeq:
    """Random standardized sequence built one sock at a time: each step
    repeats one of the socks seen so far or opens a new one."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return ()
    seq = [0]
    mx = 0
    for _ in range(n - 1):
        v = rng.randint(0, mx + 1)
        if v > mx:
            mx = v
        seq.append(v)
    return tuple(seq)


def parse_sequence(text: str) -> SockSeq:
    """Parse 'abacb' (letters a-z) or '0,1,0,2,1' (comma-separated ints)."""
    text = text.strip()
    if text == "":
        return ()
    if "," in text or text.isdecimal():
        parts = [part.strip() for part in text.split(",")]
        if any(not part.isdecimal() for part in parts):
            raise ValueError(f"bad sock sequence {text!r}: expected non-negative integers")
        return tuple(int(part) for part in parts)
    if not all("a" <= ch <= "z" for ch in text):
        raise ValueError(
            f"bad sock sequence {text!r}: use letters a-z or comma-separated integers"
        )
    return tuple(ord(ch) - ord("a") for ch in text)


def letter_form(p: Iterable[int]) -> bool:
    """True when every sock id fits a-z: the notation of p and its parts."""
    return all(s < 26 for s in p)


def format_sequence(p: Iterable[int], letters: bool | None = None) -> str:
    """Letters when every sock id fits a-z, otherwise comma-separated ints;
    letters, when given, is the notation of a whole input p is part of."""
    p = tuple(p)
    if p and min(p) < 0:
        raise ValueError("sock ids must be non-negative")
    if letter_form(p) if letters is None else letters:
        return "".join(_LETTERS[s] for s in p)
    return ",".join(str(s) for s in p)
