"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained apart from the shared length-sweep fixture,
so a failure points at exactly one guarantee.  Several checks enumerate
every standardized sequence up to length 9 or 10, and c09 walks every
one of length 12, which is most of the module's time.
"""

import json
import time
from math import comb
from pathlib import Path

import pytest

from socksort import stack_machine
from socksort.cli import main
from socksort.core import (
    count_standardized,
    enumerate_standardized,
    is_sorted,
    standardize,
)
from socksort.image_membership import (
    in_image_aba,
    in_image_cons,
    phi_aba_via_decomposition,
    phi_cons_via_sandwich,
)
from socksort.multipattern import (
    ABA_AAB_PINNED,
    build_one_stack_sortable,
    count_one_stack_sortable,
)
from socksort.patterns import parse_patterns
from socksort.preimage_fertility import (
    CLASSICAL_ABA,
    CONS_ABA,
    fertility_witness,
    preimages_of,
    staircase_preimage_count,
)
from socksort.stack_machine import (
    IterationOutcome,
    phi,
    phi_iterate,
)

SWEEP_MAX = 9
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_MEMBER_TRACE = (GOLDEN / "image-check-member-trace.txt").read_text(encoding="utf-8")
GOLDEN_NONMEMBER_TRACE = (GOLDEN / "image-check-nonmember-trace.txt").read_text(
    encoding="utf-8")


@pytest.fixture(scope="module")
def sweep():
    """(sequence, one-pass cons output, one-pass classical output) for
    every standardized sequence of length 0..9."""
    data = {}
    for n in range(SWEEP_MAX + 1):
        rows = [
            (q, phi(q, CONS_ABA), phi(q, CLASSICAL_ABA))
            for q in enumerate_standardized(n)
        ]
        assert len(rows) == count_standardized(n)
        data[n] = rows
    return data


def test_c01_reference_traces_render_exactly(capsys):
    """The two reference gamma traces must match byte for byte."""
    t0 = time.perf_counter()
    assert main(["image-check", "bcbabccdd", "--map", "aba", "--trace"]) == 0
    member_out = capsys.readouterr().out
    assert main(["image-check", "bcbcbaabcccdd", "--map", "aba", "--trace"]) == 0
    nonmember_out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    assert member_out == GOLDEN_MEMBER_TRACE
    assert nonmember_out == GOLDEN_NONMEMBER_TRACE
    assert elapsed < 1.0, f"trace rendering took {elapsed:.3f}s, expected milliseconds"


def test_c02_membership_agrees_with_brute_force_images(sweep):
    """Polynomial membership equals brute-force image membership for all
    Bell(n) standardized sequences, n <= 9, both maps, within budget."""
    t0 = time.perf_counter()
    disagreements = []
    for n, rows in sweep.items():
        image_cons = {standardize(oc) for _, oc, _ in rows}
        image_aba = {standardize(oa) for _, _, oa in rows}
        for q, _, _ in rows:
            if in_image_cons(q).member != (q in image_cons):
                disagreements.append(("cons-aba", q))
            if in_image_aba(q).member != (q in image_aba):
                disagreements.append(("aba", q))
    elapsed = time.perf_counter() - t0
    assert disagreements == [], (
        f"{len(disagreements)} disagreements, first five: {disagreements[:5]}"
    )
    assert elapsed < 300, f"oracle sweep took {elapsed:.1f}s, budget is 5 minutes"


def test_c03_evaluators_match_stack_simulation(sweep):
    """Single-pass evaluators equal the stack machine on every
    standardized sequence of length <= 9."""
    mismatches = []
    for rows in sweep.values():
        for q, out_cons, out_aba in rows:
            if phi_cons_via_sandwich(q) != out_cons:
                mismatches.append(("cons-aba", q))
            if phi_aba_via_decomposition(q) != out_aba:
                mismatches.append(("aba", q))
    assert mismatches == [], (
        f"{len(mismatches)} evaluator mismatches, first five: {mismatches[:5]}"
    )


def test_c04_cons_witnesses_map_back_exactly(sweep):
    """Every MEMBER verdict from in_image_cons comes with a witness whose
    one-pass image is the target itself."""
    bad = []
    members = 0
    for rows in sweep.values():
        for q, _, _ in rows:
            res = in_image_cons(q)
            if not res.member:
                continue
            members += 1
            if phi(res.witness, CONS_ABA) != q:
                bad.append(q)
    assert members > 10000, "sweep unexpectedly small"
    assert bad == [], f"{len(bad)} witnesses failed, first five: {bad[:5]}"


def test_c05_staircase_counts_match_binomial_under_both_maps():
    """Preimage counts of the staircase a1..an followed by k repeats of one
    more sock, for n, k >= 1 with n+k <= 8:

    - classical aba: exactly C(k+n-1, k-1);
    - consecutive ~aba: exactly sum_{j <= min(n, k-1)} C(k-1, j), which
      falls strictly below the binomial exactly when n >= 2 and k >= 2.

    The smallest such case is abcc: abca is a preimage under aba only,
    because ~aba never pops on the window b c a and flushes acba.
    """
    cons = preimages_of((0, 1, 2, 2), CONS_ABA).preimages
    classical = preimages_of((0, 1, 2, 2), CLASSICAL_ABA).preimages
    assert cons == ((0, 0, 1, 2), (0, 1, 0, 2))
    assert classical == ((0, 0, 1, 2), (0, 1, 0, 2), (0, 1, 2, 0))
    assert standardize(phi((0, 1, 2, 0), CONS_ABA)) == (0, 1, 2, 0)
    assert standardize(phi((0, 1, 2, 0), CLASSICAL_ABA)) == (0, 1, 2, 2)

    mismatches = []
    for n in range(1, 8):
        for k in range(1, 8 - n + 1):
            binomial = comb(k + n - 1, k - 1)
            partial_sum = sum(comb(k - 1, j) for j in range(min(n, k - 1) + 1))
            for pats, name, want in (
                (CLASSICAL_ABA, "aba", binomial),
                (CONS_ABA, "cons-aba", partial_sum),
            ):
                got = staircase_preimage_count(n, k, pats)
                if got != want:
                    mismatches.append(
                        f"map={name} n={n} k={k}: enumerated {got}, expected {want}"
                    )
            assert (binomial > partial_sum) == (n >= 2 and k >= 2), (
                f"n={n} k={k}: binomial {binomial} vs partial sum {partial_sum}"
            )
    assert mismatches == [], (
        "staircase counts deviate from their closed forms:\n" + "\n".join(mismatches)
    )


def test_c06_fertility_witnesses_have_exact_preimage_counts():
    """For every 1 <= m <= n-1 with n <= 7, the constructed witness has
    exactly m preimages under its map."""
    for pats, name in ((CONS_ABA, "cons-aba"), (CLASSICAL_ABA, "aba")):
        for n in range(2, 8):
            for m in range(1, n):
                w = fertility_witness(m, n, pats)
                got = preimages_of(w, pats).count
                assert got == m, f"{name} witness for m={m}, n={n} has {got} preimages"


def test_c07_sortable_counts_double_and_follow_the_triangle():
    """Under the pinned two-pattern configuration, s(n) = 2^(n-1) for
    n <= 10, the distinct-sock triangle sums to s(n), rows match
    C(n-1, r-1) and not C(n, r-1), and the direct construction equals
    the brute-force classification."""
    table = count_one_stack_sortable(10)
    for n in range(1, 11):
        total = table.totals[n - 1]
        row = table.by_distinct[n - 1]
        assert total == 2 ** (n - 1), f"s({n}) = {total}"
        assert sum(row) == total, f"triangle row {n} sums to {sum(row)}"
        assert table.row_matches_shifted_binomial(n), (
            f"row {n} deviates from C(n-1, r-1): {row}"
        )
        if n >= 2:
            assert not table.row_matches_unshifted_binomial(n), (
                f"row {n} unexpectedly matches C(n, r-1) too"
            )
    for n in range(11):
        built = build_one_stack_sortable(n)
        brute = tuple(
            q for q, out in stack_machine.sweep(n, [ABA_AAB_PINNED]) if is_sorted(out)
        )
        assert built == brute, f"construction deviates from brute force at n={n}"


def test_c08_mixed_pattern_sets_never_sort_the_alternating_witness():
    """For two mixed pattern sets and m in 2..6, one pass maps
    a1 a2 a1 a3 a1 ... a1 am a1 to a renaming of itself and iteration
    reports never-sorts within three passes."""
    for text in ("abba,abab", "abca,abac"):
        pats = parse_patterns(text)
        for m in range(2, 7):
            w = [0]
            for i in range(1, m):
                w += [i, 0]
            w = tuple(w)
            out = phi(w, pats)
            assert standardize(out) == standardize(w), (
                f"{text}, m={m}: pass output {out} not equivalent to input"
            )
            res = phi_iterate(w, pats, max_k=3)
            assert res.outcome is IterationOutcome.NEVER_SORTS, (
                f"{text}, m={m}: outcome {res.outcome.value}"
            )


def test_c09_polynomial_scaling_against_the_brute_force_wall(capsys):
    """Length-10000 membership finishes in seconds while brute force at
    length 12 must enumerate all 4213597 standardized sequences; the
    bench table exhibits the crossover."""
    code = main([
        "bench", "--lengths", "12,10000", "--seed", "20240801",
        "--format", "json-lines",
    ])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    poly = {
        (r["length"], r["map"]): r["seconds"]
        for r in records
        if r["record"] == "poly"
    }
    assert poly[(10000, "aba")] < 10, f"aba at 10^4 took {poly[(10000, 'aba')]:.3f}s"
    assert poly[(10000, "cons-aba")] < 10, (
        f"cons-aba at 10^4 took {poly[(10000, 'cons-aba')]:.3f}s"
    )
    brute = [r for r in records if r["record"] == "brute"]
    assert len(brute) == 1 and brute[0]["length"] == 12
    assert brute[0]["enumerated"] == 4213597
    assert brute[0]["agree"] is True
    wall = brute[0]["seconds"]
    fast = max(poly[(12, "aba")], poly[(12, "cons-aba")])
    assert wall > 100 * fast, (
        f"no crossover visible: brute {wall:.3f}s vs poly {fast:.6f}s at length 12"
    )


def test_c10_verification_report_is_deterministic(capsys):
    """Two structured runs of the full verification suite at max_n=8 are
    byte-identical, and equal to the committed golden report."""
    assert main(["verify", "8", "--format", "json-lines"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "8", "--format", "json-lines"]) == 0
    second = capsys.readouterr().out
    assert first, "verify produced no output"
    assert first == second
    assert first == (GOLDEN / "verify8.jsonl").read_text(encoding="utf-8")
