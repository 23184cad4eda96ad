"""The benchmark's workloads: seeded inputs, the calls of one round, and the
reference checks that decide whether each call's result is right.

A round is a fixed list of calls.  The timed phase repeats rounds, so the
work per round, the calls per round and the tail percentile are properties
of the workload and its seed, not of the run length.  Items count input
work (canonical sequences swept, or input socks), never what the program
chooses to do with it.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_VERIFY9 = Path(__file__).resolve().parent / "golden" / "verify9.jsonl"

MEMBERSHIP_FAMILIES = ("random", "fewsocks", "increasing", "alternating", "axax", "one-run")
# log-spaced from 10^3 to 10^5, a factor of sqrt(10) apart
MEMBERSHIP_LENGTHS = (1000, 3162, 10000, 31623, 100000)
MEMBERSHIP_FUNCTIONS = (
    "in_image_cons",
    "in_image_aba",
    "phi_cons_via_sandwich",
    "phi_aba_via_decomposition",
)
# The classical-aba stack machine is cubic on the adversarial families
# (one-run takes 18 s at 10^3), so it is the reference only where it is
# cheap: the random families at the smallest length.
CLASSICAL_REFERENCE_FAMILIES = ("random", "fewsocks")
CLASSICAL_REFERENCE_MAX_LEN = 1000

STACK_RANDOM_FAMILIES = ("random", "fewsocks")
STACK_RANDOM_LENGTH = 1000
STACK_ADVERSARIAL_FAMILIES = ("increasing", "alternating", "axax", "one-run")
# Pattern set -> base length L of the adversarial families, which run at L
# and 2L.  L keeps the slowest call of a set near a second: the legality
# backtracking grows like n^3 on the worst family of each set.
STACK_SETS = {
    "~aba": 1000,
    "aba": 200,
    "aba,aab": 100,
    "~aba,~aab": 1000,
    "abba,abab": 50,
    "abca,abac": 50,
}
# (pattern set, family, length); phi_iterate runs with ITERATE_MAX_K passes.
# axax of odd length is the mixed-set witness a x1 a ... a x49 a.  The two
# heaviest iterate calls are seed-free, so that with the heavy adversarial
# calls they fill the top eleven ranks and the tail latency does not swing
# with the random inputs.
STACK_ITERATE = (
    ("abba,abab", "axax", 99),
    ("abca,abac", "axax", 99),
    ("abca,abac", "alternating", 100),
    ("aba", "random", 200),
    ("~aba", "random", 200),
)
ITERATE_MAX_K = 100


def bell_total(max_n: int) -> int:
    """Canonical sequences of every length 0..max_n (sum of Bell numbers),
    via the Bell triangle."""
    total, row = 1, [1]
    for _ in range(max_n):
        total += row[-1]
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return total


def family(name: str, n: int, rng: random.Random) -> tuple[int, ...]:
    """A length-n input of the named family.  Only random and fewsocks
    draw from rng; the structured families are the same for every seed."""
    if name == "random":
        # same law as socksort.core.random_standardized, kept here so the
        # inputs do not move when the program's generator changes
        seq, mx = [], -1
        for _ in range(n):
            v = rng.randint(0, mx + 1) if seq else 0
            mx = max(mx, v)
            seq.append(v)
        return tuple(seq)
    if name == "fewsocks":
        return tuple(rng.randrange(8) for _ in range(n))
    if name == "increasing":
        return tuple(range(n))
    if name == "alternating":
        return tuple(i % 2 for i in range(n))
    if name == "axax":  # a x1 a x2 a x3 ...
        return tuple(0 if i % 2 == 0 else i // 2 + 1 for i in range(n))
    if name == "one-run":
        return (0,) * n
    raise ValueError(f"unknown family {name!r}")


def canon(p) -> tuple[int, ...]:
    """Rename socks in order of first appearance."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(s, len(names)) for s in p)


def is_sorted(p) -> bool:
    seen, prev = set(), None
    for s in p:
        if s != prev:
            if s in seen:
                return False
            seen.add(s)
            prev = s
    return True


def is_permutation(out, p) -> bool:
    return len(out) == len(p) and Counter(out) == Counter(p)


@dataclass
class Call:
    label: str  # function/family/length, for reports
    function: str  # the socksort function the call measures
    family: str
    owner: object  # the function is looked up on owner at each call, so a
    # traced run sees the wrapped binding
    args: tuple
    items: int
    reduce: object = None  # result -> what the checks need

    def run(self):
        result = getattr(self.owner, self.function)(*self.args)
        return result if self.reduce is None else self.reduce(result)


@dataclass
class Workload:
    name: str
    calls: list[Call] = field(default_factory=list)

    @property
    def items_per_round(self) -> int:
        return sum(c.items for c in self.calls)

    def warm_up(self) -> None:
        """First calls outside the timed phase (lazy caches, imports)."""

    def check(self, results: list) -> list[str | None]:
        """For each (call, output) pair: None when the output is right,
        else why not.  Calls that raised are never passed here."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify9


class Verify9(Workload):
    """In-process `socksort verify 9 --format json-lines`; fixed inputs, so
    the seed changes nothing."""

    def __init__(self, socksort, seed: int) -> None:
        super().__init__("verify9")
        self.cli = socksort.cli
        self.golden = GOLDEN_VERIFY9.read_bytes()
        self.calls.append(Call("verify 9", "verify", "all", self, (9,), bell_total(9)))

    def verify(self, max_n: int) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["verify", str(max_n), "--format", "json-lines"])
        return rc, buf.getvalue()

    def warm_up(self) -> None:
        self.verify(4)

    def check(self, results):
        verdicts = []
        for _, (rc, text) in results:
            if rc != 0:
                verdicts.append(f"exit code {rc}")
            elif text.encode() != self.golden:
                verdicts.append("output differs from the golden copy")
            else:
                verdicts.append(None)
        return verdicts


# ---------------------------------------------------------------------------
# membership


class Membership(Workload):
    """Long seeded inputs through the linear-time image tests and the two
    fast evaluators, bypassing enumeration and the stack machine."""

    def __init__(self, socksort, seed: int) -> None:
        super().__init__("membership")
        im = socksort.image_membership
        self.sm = socksort.stack_machine
        self.im = im
        self.pf = socksort.preimage_fertility
        rng = random.Random(seed)
        reducers = {
            "in_image_cons": lambda r: (r.member, r.witness),
            "in_image_aba": lambda r: r.member,
            "phi_cons_via_sandwich": None,
            "phi_aba_via_decomposition": None,
        }
        for n in MEMBERSHIP_LENGTHS:
            for fam in MEMBERSHIP_FAMILIES:
                p = family(fam, n, rng)
                for fname in MEMBERSHIP_FUNCTIONS:
                    self.calls.append(Call(f"{fname}/{fam}/{n}", fname, fam, im, (p,), n,
                                           reducers[fname]))

    def warm_up(self) -> None:
        for fname in MEMBERSHIP_FUNCTIONS:
            getattr(self.im, fname)((0, 1, 0, 2, 2, 1))

    def check(self, results):
        cons, aba = self.pf.CONS_ABA, self.pf.CLASSICAL_ABA
        verdicts = []
        for call, out in results:
            p = call.args[0]
            why = None
            if call.function == "in_image_cons":
                member, witness = out
                if member and canon(self.sm.phi(witness, cons)) != canon(p):
                    why = "witness does not map back to the input"
            elif call.function == "phi_cons_via_sandwich":
                if not is_permutation(out, p):
                    why = "output is not a permutation of the input"
                elif not self.im.in_image_cons(out).member:
                    why = "output is not in the cons-aba image"
                elif out != self.sm.phi(p, cons):
                    why = "output differs from the stack machine"
            elif call.function == "phi_aba_via_decomposition":
                if not is_permutation(out, p):
                    why = "output is not a permutation of the input"
                elif not self.im.in_image_aba(out).member:
                    why = "output is not in the aba image"
                elif (call.family in CLASSICAL_REFERENCE_FAMILIES
                      and len(p) <= CLASSICAL_REFERENCE_MAX_LEN
                      and out != self.sm.phi(p, aba)):
                    why = "output differs from the stack machine"
            verdicts.append(why)
        return verdicts


# ---------------------------------------------------------------------------
# stack


class Stack(Workload):
    """Seeded inputs through the generic stack machine: few long calls, so
    legality backtracking on deep stacks dominates."""

    def __init__(self, socksort, seed: int) -> None:
        super().__init__("stack")
        sm = socksort.stack_machine
        self.sm = sm
        self.im = socksort.image_membership
        self.sets = {name: socksort.parse_patterns(name) for name in STACK_SETS}
        rng = random.Random(seed)
        for set_name, base in STACK_SETS.items():
            pats = self.sets[set_name]
            inputs = [(fam, STACK_RANDOM_LENGTH) for fam in STACK_RANDOM_FAMILIES]
            inputs += [(fam, n) for fam in STACK_ADVERSARIAL_FAMILIES for n in (base, 2 * base)]
            for fam, n in inputs:
                self.calls.append(Call(f"phi[{set_name}]/{fam}/{n}", "phi", fam, sm,
                                       (family(fam, n, rng), pats), n))
        for set_name, fam, n in STACK_ITERATE:
            self.calls.append(Call(
                f"phi_iterate[{set_name}]/{fam}/{n}", "phi_iterate", fam, sm,
                (family(fam, n, rng), self.sets[set_name], ITERATE_MAX_K), n,
                lambda r: (r.outcome.value, r.sorted_after, r.final)))

    def warm_up(self) -> None:
        for pats in self.sets.values():
            self.sm.phi((0, 1, 0, 2, 2, 1, 0), pats)

    def check(self, results):
        evaluators = {
            self.sets["~aba"]: self.im.phi_cons_via_sandwich,
            self.sets["aba"]: self.im.phi_aba_via_decomposition,
        }
        verdicts = []
        for call, out in results:
            p, pats = call.args[0], call.args[1]
            why = None
            if call.function == "phi":
                fast = evaluators.get(pats)
                if not is_permutation(out, p):
                    why = "output is not a permutation of the input"
                elif fast is not None and out != fast(p):
                    why = "output differs from the fast evaluator"
            else:
                why = self._check_iterate(p, pats, call.args[2], out)
            verdicts.append(why)
        return verdicts

    def _check_iterate(self, p, pats, max_k, out) -> str | None:
        """Replay the passes with phi and compare the stopping rule."""
        outcome, passes, final = out
        cur, seen = p, {canon(p)}
        for k in range(0, max_k + 1):
            if k:
                cur = self.sm.phi(cur, pats)
            if is_sorted(cur):
                ok = outcome == "sorted" and passes == k and final == cur
                return None if ok else f"expected sorted after {k} passes"
            if k and canon(cur) in seen:
                ok = outcome == "never-sorts" and passes is None and final == cur
                return None if ok else f"expected never-sorts at pass {k}"
            seen.add(canon(cur))
        ok = outcome == "not-sorted-within" and final == cur
        return None if ok else "expected not-sorted-within"


WORKLOADS = {"verify9": Verify9, "membership": Membership, "stack": Stack}
