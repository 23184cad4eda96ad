"""The derived-value verification suite behind `socksort verify`, and the
records every other command prints.

Each check returns a (name, passed, detail) tuple, which `run` turns into
a `check` record before its `summary`; `fertility_staircase`,
`sortable_counts` and `unsortability` judge the commands' own records.
The three per-word checks share one brute-force pass, `outputs`, over
every canonical word up to the bound, and `bench` reads its brute-force
hits from the same pass.  Both read each length's rows in batches of
_BATCH_ROWS and judge a batch column by column, mapping each library call
over a column of words or outputs.  `per_word` keeps no word beyond one
batch, only each length's two image sets and two accepted sets, and
reports their symmetric difference in sorted order.  Library functions are
looked up through their modules at call time, so a test can replace one
and see the matching check fail.
"""

from __future__ import annotations

import heapq
import random
import time
from collections.abc import Iterator
from itertools import compress, islice, repeat
from math import comb
from operator import attrgetter, ne, not_, or_

from . import core, image_membership, multipattern, preimage_fertility, stack_machine
from .core import format_sequence, parse_sequence
from .patterns import PatternSet, parse_patterns

Result = tuple[str, bool, dict]

BRUTE_HARD_CAP = 12
POLY_LENGTH_CAP = 10_000
DIVIDER = "‖"  # double vertical bar
_BATCH_ROWS = 256  # rows per_word and bench read from a length's sweep and judge together

# Mixed pattern sets exercised by the unsortability suite: in each, one
# shape revisits its first sock after an excursion and the other does not.
UNSORTABLE_LABELS = ("abba,abab", "abca,abac")


def outputs(n: int) -> Iterator[tuple[core.SockSeq, ...]]:
    """Every canonical length-n word, in lexicographic order, with its
    one-pass outputs under preimage_fertility.MAPS, ~aba then aba, from one
    sweep of the stack machine."""
    return stack_machine.sweep(n, tuple(preimage_fertility.MAPS.values()))


def per_word(max_n: int) -> list[Result]:
    """Evaluator identities, image membership and witness validity, in one
    streamed pass per length over every canonical word up to max_n.

    Each length's rows are read in batches of _BATCH_ROWS and a batch is
    judged column by column: each library call is mapped over its words or
    outputs, and the evaluator and witness checks take the batch's first
    failing word, so the first in word order is the one reported.  No word
    is kept beyond its batch.  A length keeps two sets per map, the
    standardized outputs (its image) and the words the membership test
    accepts, and their symmetric difference is reported in word order, then
    map order, up to five.  Each distinct output of a batch is standardized
    once."""
    sandwich = image_membership.phi_cons_via_sandwich
    decomposition = image_membership.phi_aba_via_decomposition
    in_cons, in_aba = image_membership.in_image_cons, image_membership.in_image_aba
    phi, equivalent, cons = stack_machine.phi, core.equivalent, preimage_fertility.CONS_ABA
    member, witness_of = attrgetter("member"), attrgetter("witness")
    per_length: list[int] = []
    bad_evaluator = bad_witness = None
    mismatches: list[dict] = []
    names = tuple(preimage_fertility.MAPS)
    members = dict.fromkeys(names, 0)
    witnesses = 0
    for n in range(max_n + 1):
        images, accepted = (set(), set()), (set(), set())
        rows, size = outputs(n), 0
        while batch := list(islice(rows, _BATCH_ROWS)):
            words, outs_cons, outs_aba = zip(*batch)
            size += len(words)
            if bad_evaluator is None:
                differs = map(or_, map(ne, map(sandwich, words), outs_cons),
                              map(ne, map(decomposition, words), outs_aba))
                bad_evaluator = next(compress(words, differs), None)
            images[0].update(map(core.standardize, set(outs_cons)))
            images[1].update(map(core.standardize, set(outs_aba)))
            verdicts = list(map(in_cons, words))
            flags = list(map(member, verdicts))
            hits = list(compress(words, flags))
            accepted[0].update(hits)
            if bad_witness is None:
                held = map(equivalent, map(phi, map(witness_of, compress(verdicts, flags)),
                                           repeat(cons)), hits)
                bad_witness = next(compress(hits, map(not_, held)), None)
                witnesses += len(hits)
            accepted[1].update(compress(words, map(member, map(in_aba, words))))
        per_length.append(size)
        for name, image in zip(names, images):
            members[name] += len(image)
        wrong = ((q, i) for i, (image, accepts) in enumerate(zip(images, accepted))
                 for q in image ^ accepts)
        for q, i in heapq.nsmallest(5 - len(mismatches), wrong):
            mismatches.append({"map": names[i], "sequence": format_sequence(q),
                               "algorithm": q in accepted[i], "brute": q in images[i]})

    if any(size != core.count_standardized(n) for n, size in enumerate(per_length)):
        evaluators = False, {"reason": "enumeration size mismatch", "per_length": per_length}
    elif bad_evaluator is not None:
        evaluators = False, {"sequence": format_sequence(bad_evaluator)}
    else:
        evaluators = True, {"sequences": sum(per_length), "per_length": per_length}
    if mismatches:
        image = False, {"mismatches": mismatches}
    else:
        image = True, {
            "sequences": sum(per_length),
            "members_cons": members["cons-aba"],
            "members_aba": members["aba"],
        }
    if bad_witness is not None:
        witness = False, {"sequence": format_sequence(bad_witness)}
    else:
        witness = True, {"witnesses": witnesses}
    return [
        ("evaluator-identities", *evaluators),
        ("image-membership", *image),
        ("witness-validity", *witness),
    ]


def fertility(m: int, n: int, pats: PatternSet) -> dict:
    """`socksort fertility`'s record: the length-n witness built to have m
    preimages under pats, and its listed preimage count."""
    preimage_fertility.check_target_length(n)
    witness = preimage_fertility.fertility_witness(m, n, pats)
    count = preimage_fertility.preimages_of(witness, pats).count
    return {"record": "fertility", "witness": format_sequence(witness), "count": count,
            "expected": m, "match": count == m}


def staircase(n: int, k: int, pats: PatternSet) -> dict:
    """`socksort staircase`'s record: the staircase target's listed preimage
    count under pats against its closed form."""
    count = preimage_fertility.staircase_preimage_count(n, k, pats)
    expected = preimage_fertility.staircase_count_formula(n, k, pats)
    return {"record": "staircase",
            "target": format_sequence(preimage_fertility.staircase_target(n, k)),
            "count": count, "expected": expected, "match": count == expected}


def count_1ss(max_n: int) -> Iterator[dict]:
    """`socksort count-1ss`'s records: per length up to max_n, the pinned
    map's sortable count against the doubling and the binomial rows; then,
    up to length 7, each mode combination's totals and whether they double."""
    table = multipattern.count_one_stack_sortable(max_n)
    for n, (total, row) in enumerate(zip(table.totals, table.by_distinct), 1):
        yield {"record": "count", "n": n, "total": total,
               "doubling": table.matches_doubling(n), "by_distinct": list(row),
               "shifted_binomial": table.row_matches_shifted_binomial(n),
               "unshifted_binomial": table.row_matches_unshifted_binomial(n)}
    survey = multipattern.mode_combination_survey(min(max_n, 7))
    for (aba, aab), counts in sorted(survey.items()):
        yield {"record": "survey", "aba": aba, "aab": aab, "totals": list(counts),
               "doubling": all(c == 2 ** i for i, c in enumerate(counts))}


def witness(pats: PatternSet, m: int) -> Iterator[dict]:
    """`socksort witness`'s records: case, witness and verdict, then up to
    three passes, with a `cycle` record after the first that renames to it."""
    report = multipattern.unsortable_witness(pats, m)
    current = seq = report.witness
    yield {"record": "witness", "case": report.case, "verdict": report.verdict,
           "witness": None if seq is None else format_sequence(seq)}
    if seq is None:
        return
    for i in range(1, 4):
        current = stack_machine.phi(current, pats)
        yield {"record": "pass", "index": i, "sequence": format_sequence(current)}
        if core.equivalent(current, seq):
            yield {"record": "cycle", "after": i}
            return


def sort(seq: core.SockSeq, pats: PatternSet, k: int, trace: bool) -> Iterator[dict]:
    """`socksort sort`'s records: per pass, its events when traced and its
    output when k > 1, `sorted-early` if it sorts before the k-th; the output."""
    if k < 1:
        raise ValueError("--k must be at least 1")
    current = seq
    for i in range(1, k + 1):
        if trace:
            traced = stack_machine.phi_trace(current, pats)
            for ev in traced.events:
                yield {"record": "event", "kind": ev.kind, "sock": ev.sock,
                       "index": ev.index, "pass_index": i}
            current = traced.output
        else:
            current = stack_machine.phi(current, pats)
        if k > 1:
            yield {"record": "pass", "index": i, "sequence": format_sequence(current)}
        if core.is_sorted(current) and i < k:
            yield {"record": "sorted-early", "passes": i}
            break
    yield {"record": "output", "sequence": format_sequence(current),
           "sorted": core.is_sorted(current)}


def render_dividers(seq: core.SockSeq, dividers, letters: bool, mark: int | None = None) -> str:
    """seq in the given notation with a bar at each divider, optionally
    marking one position (uppercase in letter form, brackets in integer form)."""
    text = format_sequence(seq, letters)
    toks = list(text) if letters else text.split(",")
    if mark is not None and seq:
        toks[mark] = toks[mark].upper() if letters else f"[{toks[mark]}]"
    cuts = [0, *dividers, len(seq)]
    return DIVIDER.join(("" if letters else ",").join(toks[a:b]) for a, b in zip(cuts, cuts[1:]))


def image_check(seq: core.SockSeq, name: str, trace: bool, witness: bool) -> Iterator[dict]:
    """`socksort image-check`'s records under the map called name.  cons-aba:
    the extracted socks and residual when traced, the verdict, the witness
    when asked.  aba, from one scan: the dividers, gamma rows when traced, the verdict."""
    if name == "aba" and witness:
        raise ValueError("--witness applies to the cons-aba map only")
    letters = core.letter_form(seq)  # every part is written as the input is
    if name == "cons-aba":
        res = image_membership.in_image_cons(seq)
        if trace:
            removed, kept = image_membership.sandwich_decompose(seq)
            yield {"record": "extracted", "socks": [seq[i] for i in removed],
                   "positions": list(removed)}
            yield {"record": "residual",
                   "sequence": format_sequence((seq[i] for i in kept), letters)}
        yield {"record": "verdict", "member": res.member}
        if witness:
            yield {"record": "witness", "sequence":
                   None if res.witness is None else format_sequence(res.witness, letters)}
        return
    gt = image_membership.gamma_trace(seq)
    yield {"record": "dividers", "positions": list(gt.initial_dividers),
           "rendered": render_dividers(seq, gt.initial_dividers, letters)}
    if trace:
        for pos, gamma, layout in gt.rows():
            yield {"record": "gamma-row", "position": pos, "gamma": gamma,
                   "dividers": list(layout),
                   "rendered": render_dividers(seq, layout, letters, mark=pos)}
    yield {"record": "verdict", "member": gt.member, "gamma": gt.final_gamma}


def preimages(seq: core.SockSeq, pats: PatternSet) -> Iterator[dict]:
    """`socksort preimages`' records: seq's preimages under pats, then their count."""
    report = preimage_fertility.preimages_of(seq, pats)
    for q in report.preimages:
        yield {"record": "preimage", "sequence": format_sequence(q)}
    yield {"record": "count", "target": format_sequence(report.target),
           "count": report.count}


def fertility_staircase(max_n: int) -> Result:
    fert_cap = min(max_n, 7)
    fert_checked = 0
    for pats in preimage_fertility.MAPS.values():
        for n in range(2, fert_cap + 1):
            for m in range(1, n):
                r = fertility(m, n, pats)
                if not r["match"]:
                    return "fertility-staircase", False, {
                        k: r[k] for k in ("witness", "count", "expected")}
                fert_checked += 1
    stair_cap = min(max_n, 8)
    stair_checked = 0
    cons_binomial_misses = 0
    for pats in preimage_fertility.MAPS.values():
        for n in range(1, stair_cap):
            for k in range(1, stair_cap - n + 1):
                r = staircase(n, k, pats)
                if not r["match"]:
                    return "fertility-staircase", False, {
                        "n": n, "k": k, "count": r["count"], "expected": r["expected"]}
                if pats is preimage_fertility.CONS_ABA:
                    cons_binomial_misses += r["count"] != comb(k + n - 1, k - 1)
                stair_checked += 1
    return "fertility-staircase", True, {
        "fertility_cases": fert_checked,
        "staircase_cases": stair_checked,
        "cons_binomial_misses": cons_binomial_misses,
    }


def sortable_counts(max_n: int) -> Result:
    totals, doubling_modes = [], []
    for r in count_1ss(max_n):
        if r["record"] == "survey":
            if r["doubling"]:
                doubling_modes.append(f"{r['aba']}/{r['aab']}")
            continue
        n = r["n"]
        if not r["doubling"]:
            return "sortable-counts", False, {"n": n, "total": r["total"]}
        if not r["shifted_binomial"]:
            return "sortable-counts", False, {"n": n, "row": r["by_distinct"]}
        # The table counts exactly the sortable standardized words of
        # length n, so distinct sortable ones of that number are all of them.
        built = multipattern.build_one_stack_sortable(n)
        sound = all(
            len(q) == n
            and q == core.standardize(q)
            and stack_machine.is_one_stack_sortable(q, multipattern.ABA_AAB_PINNED)
            for q in built
        )
        if not (sound and len(set(built)) == len(built) == r["total"]):
            return "sortable-counts", False, {"n": n, "mismatch": "construction"}
        totals.append(r["total"])
    return "sortable-counts", True, {"totals": totals, "doubling_modes": sorted(doubling_modes)}


def unsortability() -> Result:
    checked = 0
    for label in UNSORTABLE_LABELS:
        pats = parse_patterns(label)
        for m in range(2, 7):
            head, *rest = witness(pats, m)
            if head["verdict"] != "never-sorts" or head["witness"] is None:
                return "unsortability", False, {"patterns": label, "m": m,
                                                "verdict": head["verdict"]}
            if rest[1:2] != [{"record": "cycle", "after": 1}]:
                return "unsortability", False, {"patterns": label, "m": m,
                                                "reason": "pass output not equivalent"}
            res = stack_machine.phi_iterate(parse_sequence(head["witness"]), pats, max_k=3)
            if res.outcome is not stack_machine.IterationOutcome.NEVER_SORTS:
                return "unsortability", False, {
                    "patterns": label, "m": m, "outcome": res.outcome.value,
                }
            checked += 1
    return "unsortability", True, {"witnesses": checked}


def run(max_n: int) -> list[dict]:
    """`socksort verify`'s records, for max_n from 3 to 11: the six checks in
    report order, each PASS or FAIL with its detail; then the summary, OK
    only if every check passed."""
    if not 3 <= max_n <= 11:
        raise ValueError("verify supports max_n between 3 and 11")
    results = [*per_word(max_n), fertility_staircase(max_n), sortable_counts(max_n),
               unsortability()]
    failed = sum(not ok for _, ok, _ in results)
    return [*({"record": "check", "name": name, "status": "PASS" if ok else "FAIL",
               "detail": detail} for name, ok, detail in results),
            {"record": "summary", "status": "FAILED" if failed else "OK",
             "passed": len(results) - failed, "failed": failed, "max_n": max_n}]


def bench(lengths: list[int], seed: int) -> Iterator[dict]:
    """`socksort bench`'s records: per length, each map's timed verdict on one
    seeded word, then up to BRUTE_HARD_CAP whether brute force agrees."""
    if any(n > POLY_LENGTH_CAP for n in lengths):
        raise ValueError(f"lengths above {POLY_LENGTH_CAP} are out of bounds")
    rng = random.Random(seed)
    for n in lengths:
        seq = core.random_standardized(n, rng)
        members = []
        tests = image_membership.in_image_cons, image_membership.in_image_aba
        for name, test in zip(preimage_fertility.MAPS, tests):
            t0 = time.perf_counter()
            members.append(test(seq).member)
            yield {"record": "poly", "length": n, "map": name, "member": members[-1],
                   "seconds": time.perf_counter() - t0}
        if n <= BRUTE_HARD_CAP:
            t0 = time.perf_counter()
            rows, enumerated, hits = outputs(n), 0, [False] * len(members)
            while batch := list(islice(rows, _BATCH_ROWS)):
                _, *columns = zip(*batch)
                enumerated += len(batch)
                hits = [hit or any(map(core.equivalent, column, repeat(seq)))
                        for hit, column in zip(hits, columns)]
            yield {"record": "brute", "length": n, "enumerated": enumerated,
                   "agree": hits == members, "seconds": time.perf_counter() - t0}
