import ast
import dataclasses
import io
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from socksort import (
    cli,
    core,
    image_membership,
    multipattern,
    preimage_fertility,
    stack_machine,
    verify,
)
from socksort.cli import build_parser, main
from socksort.core import enumerate_standardized, random_standardized
from socksort.stack_machine import is_one_stack_sortable

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_MEMBER_TRACE = (GOLDEN / "image-check-member-trace.txt").read_text(encoding="utf-8")
GOLDEN_NONMEMBER_TRACE = (GOLDEN / "image-check-nonmember-trace.txt").read_text(
    encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_sort_single_pass(capsys):
    code, out = run(capsys, "sort", "aab", "--pattern", "~aba")
    assert code == 0
    assert "output: baa" in out


def test_sort_trace_events(capsys):
    code, out = run(capsys, "sort", "aab", "--pattern", "~aba", "--trace")
    assert code == 0
    assert out.splitlines()[0] == "push a (input 0)"
    assert "pop b (output 0)" in out


def test_sort_trace_integer_form_throughout(capsys):
    # One sock id past z puts every event in integer form, like the output.
    code, out = run(capsys, "sort", "0,30,0", "--pattern", "aba", "--trace")
    assert code == 0
    assert out == (
        "push 0 (input 0)\n"
        "push 30 (input 1)\n"
        "pop 30 (output 0)\n"
        "push 0 (input 2)\n"
        "pop 0 (output 1)\n"
        "pop 0 (output 2)\n"
        "output: 30,0,0\n"
    )


def test_sort_multiple_passes(capsys):
    code, out = run(capsys, "sort", "abab", "--pattern", "aba", "--k", "3")
    assert code == 0
    assert "pass 1:" in out
    assert "sorted after" in out or "pass 3:" in out


def test_sort_rejects_bad_k(capsys):
    code, _ = run(capsys, "sort", "aab", "--pattern", "~aba", "--k", "0")
    assert code == 2


def test_image_check_member_trace_exact_text(capsys):
    code, out = run(capsys, "image-check", "bcbabccdd", "--map", "aba", "--trace")
    assert code == 0
    assert out == GOLDEN_MEMBER_TRACE


def test_image_check_nonmember_trace_exact_text(capsys):
    code, out = run(capsys, "image-check", "bcbcbaabcccdd", "--map", "aba", "--trace")
    assert code == 0
    assert out == GOLDEN_NONMEMBER_TRACE


def test_image_check_cons_witness(capsys):
    code, out = run(capsys, "image-check", "abb", "--map", "cons-aba", "--witness")
    assert code == 0
    assert "verdict: MEMBER" in out
    assert "witness: bba" in out
    # The empty word is its own (empty) preimage, not a missing witness.
    code, out = run(capsys, "image-check", "", "--map", "cons-aba", "--witness")
    assert code == 0
    assert out == "verdict: MEMBER\nwitness: \n"
    code, out = run(capsys, "image-check", "", "--map", "cons-aba", "--witness",
                    "--format", "json-lines")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"member": True, "record": "verdict"},
        {"record": "witness", "sequence": ""},
    ]


def test_image_check_cons_trace_exact_text(capsys):
    code, out = run(capsys, "image-check", "abacdca", "--map", "cons-aba", "--trace")
    assert code == 0
    assert out == "extracted: bd\nresidual: aacca\nverdict: NON-MEMBER\n"
    code, out = run(capsys, "image-check", "abacdca", "--map", "cons-aba", "--trace",
                    "--format", "json-lines")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"positions": [1, 4], "record": "extracted", "socks": [1, 3]},
        {"record": "residual", "sequence": "aacca"},
        {"member": False, "record": "verdict"},
    ]


def test_image_check_cons_trace_keeps_the_input_notation(capsys):
    # One sock id past z puts both parts in integer form, like the input.
    code, out = run(capsys, "image-check", "0,30,0", "--map", "cons-aba", "--trace")
    assert code == 0
    assert out == "extracted: 30\nresidual: 0,0\nverdict: NON-MEMBER\n"
    code, out = run(capsys, "image-check", "0,30,0", "--map", "cons-aba", "--trace",
                    "--format", "json-lines")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"positions": [1], "record": "extracted", "socks": [30]},
        {"record": "residual", "sequence": "0,0"},
        {"member": False, "record": "verdict"},
    ]
    code, out = run(capsys, "image-check", "1,0,1,30,30", "--map", "cons-aba", "--trace")
    assert code == 0
    assert out.splitlines()[:2] == ["extracted: 0", "residual: 1,1,30,30"]


def test_image_check_aba_trace_row_for_a_planted_divider(capsys):
    # The last run b scores -1 and plants a divider at its own start.
    code, out = run(capsys, "image-check", "abaccb", "--map", "aba", "--trace")
    assert code == 0
    assert out == (
        "dividers: ab‖accb\n"
        "  Ab‖accb  gamma=0\n"
        "  ab‖Accb  gamma=-1\n"
        "  abacCb  gamma=0\n"
        "  abacc‖B  gamma=-1\n"
        "verdict: NON-MEMBER (gamma=-1)\n"
    )


def test_image_check_aba_trace_of_the_empty_word(capsys):
    code, out = run(capsys, "image-check", "", "--map", "aba", "--trace")
    assert code == 0
    assert out == "dividers: \n    gamma=0\nverdict: MEMBER (gamma=0)\n"


def test_image_check_cons_without_witness_flag(capsys):
    _, out = run(capsys, "image-check", "abb", "--map", "cons-aba")
    assert "witness" not in out


def test_image_check_witness_flag_is_cons_only(capsys):
    code, _ = run(capsys, "image-check", "abb", "--map", "aba", "--witness")
    assert code == 2


def test_image_check_json_lines(capsys):
    code, out = run(capsys, "image-check", "bcbabccdd", "--map", "aba", "--trace",
                    "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["record"] == "dividers"
    assert records[0]["positions"] == [2, 4]
    gammas = [r["gamma"] for r in records if r["record"] == "gamma-row"]
    assert gammas == [0, -1, -2, -1, 0]
    assert records[-1] == {"gamma": 0, "member": True, "record": "verdict"}


def test_dash_reads_the_sequence_from_stdin(capsys, monkeypatch):
    # Linux caps one command-line argument at 128 KiB; this input is larger.
    socks = range(30000)
    text = ",".join(map(str, socks)) + "\n"
    assert len(text) > 128 * 1024
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run(capsys, "image-check", "-", "--map", "cons-aba", "--witness")
    assert code == 0
    assert out == f"verdict: MEMBER\nwitness: {','.join(map(str, reversed(socks)))}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("aab\n"))
    assert run(capsys, "sort", "-", "--pattern", "~aba") == (0, "output: baa\n")


def test_preimages_lists_and_counts(capsys):
    code, out = run(capsys, "preimages", "abcc", "--map", "cons-aba")
    assert code == 0
    assert out == "preimage: aabc\npreimage: abac\ncount: 2\n"


def test_preimages_rejects_long_targets(capsys):
    code, _ = run(capsys, "preimages", "abcdefghijk", "--map", "aba")
    assert code == 2


def test_fertility(capsys):
    code, out = run(capsys, "fertility", "--m", "3", "--n", "5", "--map", "cons-aba")
    assert code == 0
    assert "witness: abbbc" in out
    assert "preimages=3" in out


def test_fertility_rejects_bad_m(capsys):
    code, _ = run(capsys, "fertility", "--m", "5", "--n", "5", "--map", "aba")
    assert code == 2


def test_fertility_checks_the_bound_before_building_the_witness(capsys, monkeypatch):
    build = preimage_fertility.fertility_witness

    def bounded(m, n, pats):
        if n > 10:
            pytest.fail(f"built a fertility witness of length {n}")
        return build(m, n, pats)

    monkeypatch.setattr(preimage_fertility, "fertility_witness", bounded)
    assert main(["fertility", "--m", "3", "--n", "1000000000", "--map", "aba"]) == 2
    assert capsys.readouterr().err == "error: target length 1000000000 exceeds the bound 10\n"


def test_staircase_classical_matches_binomial(capsys):
    code, out = run(capsys, "staircase", "--n", "2", "--k", "2", "--map", "aba")
    assert code == 0
    assert "preimages=3" in out
    assert "match=yes" in out


def test_staircase_cons_matches_partial_sum(capsys):
    # The consecutive map has fewer preimages than the binomial: abcc has
    # 2, the partial sum C(1,0) + C(1,1).
    code, out = run(capsys, "staircase", "--n", "2", "--k", "2", "--map", "cons-aba")
    assert code == 0
    assert "preimages=2" in out
    assert "formula=2" in out
    assert "match=yes" in out


def test_staircase_checks_the_bound_before_building_the_target(capsys, monkeypatch):
    build = preimage_fertility.staircase_target

    def bounded(n, k):
        if n + k > 10:
            pytest.fail(f"built a staircase target of length {n + k}")
        return build(n, k)

    monkeypatch.setattr(preimage_fertility, "staircase_target", bounded)
    assert main(["staircase", "--n", "1000000000", "--k", "1", "--map", "aba"]) == 2
    assert capsys.readouterr().err == "error: target length 1000000001 exceeds the bound 10\n"


def test_count_1ss(capsys):
    code, out = run(capsys, "count-1ss", "--n-max", "5")
    assert code == 0
    assert "n=5 total=16 pow2=PASS" in out
    assert "survey aba=classical aab=classical" in out
    assert "doubling=yes" in out


def test_witness_mixed_patterns(capsys):
    code, out = run(capsys, "witness", "--patterns", "abba,abab", "--m", "4")
    assert code == 0
    assert "case: 2" in out
    assert "witness: abacada" in out
    assert "verdict: never-sorts" in out
    assert "pass 1:" in out
    assert "cycle:" in out


def test_witness_mixed_set_falls_back_to_search(capsys):
    # The explicit witness fails for this set, so the search finds one.
    code, out = run(capsys, "witness", "--patterns", "aa,abba", "--m", "3")
    assert code == 0
    assert out == (
        "case: 2 witness: abab verdict: never-sorts\n"
        "pass 1: baba\n"
        "cycle: output renames to the input\n"
    )


def test_witness_rejects_excluded_shape(capsys):
    code, _ = run(capsys, "witness", "--patterns", "~aba", "--m", "3")
    assert code == 2


def test_verify_small(capsys):
    code, out = run(capsys, "verify", "3")
    assert code == 0
    lines = out.splitlines()
    names = [line.split()[1] for line in lines[:-1]]
    assert names == [
        "evaluator-identities",
        "image-membership",
        "witness-validity",
        "fertility-staircase",
        "sortable-counts",
        "unsortability",
    ]
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("OK: 6/6")


def test_verify_bounds(capsys):
    assert run(capsys, "verify", "12")[0] == 2
    assert run(capsys, "verify", "2")[0] == 2
    # Library callers get the same bound.
    for max_n in (2, 12):
        with pytest.raises(ValueError, match="verify supports max_n between 3 and 11"):
            verify.run(max_n)


def test_verify_json_lines_parse(capsys):
    code, out = run(capsys, "verify", "3", "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1]["status"] == "OK"
    assert records[-1]["failed"] == 0


def _first_unsortable(n):
    return next(
        q for q in enumerate_standardized(n)
        if not is_one_stack_sortable(q, multipattern.ABA_AAB_PINNED)
    )


# Each breaks one property of the length-n construction and keeps the rest.
BROKEN_CONSTRUCTIONS = {
    "dropped": lambda built, n: built[1:],
    "unsortable": lambda built, n: built[:-1] + (_first_unsortable(n),),
    "duplicated": lambda built, n: built[:-1] + built[:1],
    "unstandardized": lambda built, n: built[:-1] + (tuple(v + 1 for v in built[-1]),),
    "short": lambda built, n: built[:-1] + ((0,) * (n - 1),),
}


@pytest.mark.parametrize("breakage", sorted(BROKEN_CONSTRUCTIONS))
def test_verify_sortable_counts_catches_broken_construction(monkeypatch, breakage):
    real = multipattern.build_one_stack_sortable

    def broken(n):
        built = real(n)
        return BROKEN_CONSTRUCTIONS[breakage](built, n) if n == 5 else built

    monkeypatch.setattr(multipattern, "build_one_stack_sortable", broken)
    name, ok, detail = verify.sortable_counts(7)
    assert name == "sortable-counts"
    assert not ok
    assert detail == {"n": 5, "mismatch": "construction"}


BROKEN_WORD = (0, 0, 1, 1)  # aabb, in the image of both maps


def _wrong_output(real):
    return lambda q: real(q) + (0,) if q == BROKEN_WORD else real(q)


def _flipped_verdict(real):
    def broken(q):
        res = real(q)
        return dataclasses.replace(res, member=not res.member) if q == BROKEN_WORD else res
    return broken


def _bad_witness(real):
    def broken(q):
        res = real(q)
        return dataclasses.replace(res, witness=(0,) * len(q)) if q == BROKEN_WORD else res
    return broken


# Each breaks one library function on aabb; only its own check may fail.
BROKEN_PER_WORD = {
    "evaluator-identities": ("phi_aba_via_decomposition", _wrong_output, {"sequence": "aabb"}),
    "image-membership": ("in_image_aba", _flipped_verdict, {"mismatches": [
        {"map": "aba", "sequence": "aabb", "algorithm": False, "brute": True},
    ]}),
    "witness-validity": ("in_image_cons", _bad_witness, {"sequence": "aabb"}),
}


@pytest.mark.parametrize("check", sorted(BROKEN_PER_WORD))
def test_verify_per_word_checks_catch_broken_functions(monkeypatch, check):
    function, breakage, expected = BROKEN_PER_WORD[check]
    monkeypatch.setattr(image_membership, function,
                        breakage(getattr(image_membership, function)))
    results = {name: (ok, detail) for name, ok, detail in verify.per_word(5)}
    assert list(results) == ["evaluator-identities", "image-membership", "witness-validity"]
    assert results.pop(check) == (False, expected)
    assert all(ok for ok, _ in results.values())


def test_verify_per_word_standardizes_through_core(monkeypatch):
    # Left as it is, ab's one output under both maps, ba, enters the image
    # in place of ab.
    real = core.standardize
    monkeypatch.setattr(core, "standardize", lambda p: p if p == (1, 0) else real(p))
    results = {name: (ok, detail) for name, ok, detail in verify.per_word(5)}
    assert results.pop("image-membership") == (False, {"mismatches": [
        {"map": "cons-aba", "sequence": "ab", "algorithm": True, "brute": False},
        {"map": "aba", "sequence": "ab", "algorithm": True, "brute": False},
        {"map": "cons-aba", "sequence": "ba", "algorithm": False, "brute": True},
        {"map": "aba", "sequence": "ba", "algorithm": False, "brute": True},
    ]})
    assert all(ok for ok, _ in results.values())


def _verdict_on(words, member):
    """Breaks a membership test so that it returns member on each of words."""
    targets = {core.parse_sequence(w) for w in words}

    def breakage(real):
        return lambda q: dataclasses.replace(real(q), member=member) if q in targets else real(q)
    return breakage


def test_verify_reports_the_first_five_mismatches_in_word_then_map_order(monkeypatch):
    # ~aba rejects three of its members, aba accepts four non-members, over
    # lengths 4 and 5; abba mismatches under both maps.
    monkeypatch.setattr(image_membership, "in_image_cons", _verdict_on(
        ("abba", "abcc", "abbaa"), False)(image_membership.in_image_cons))
    monkeypatch.setattr(image_membership, "in_image_aba", _verdict_on(
        ("abcb", "abba", "abaaa", "aabab"), True)(image_membership.in_image_aba))
    results = {name: (ok, detail) for name, ok, detail in verify.per_word(5)}
    assert results.pop("image-membership") == (False, {"mismatches": [
        {"map": "cons-aba", "sequence": "abba", "algorithm": False, "brute": True},
        {"map": "aba", "sequence": "abba", "algorithm": True, "brute": False},
        {"map": "aba", "sequence": "abcb", "algorithm": True, "brute": False},
        {"map": "cons-aba", "sequence": "abcc", "algorithm": False, "brute": True},
        {"map": "aba", "sequence": "aabab", "algorithm": True, "brute": False},
    ]})
    assert all(ok for ok, _ in results.values())


def test_verify_per_word_holds_at_most_one_batch(monkeypatch):
    # A batch is judged before the next one is requested, so no length is
    # held whole; length 8 has 4,140 rows, so its batches are really cut.
    calls = 0
    lookahead = []
    real_test, real_outputs = image_membership.in_image_cons, verify.outputs

    def counted(q):
        nonlocal calls
        calls += 1
        return real_test(q)

    def streamed(n):
        start = calls
        for requested, row in enumerate(real_outputs(n), 1):
            lookahead.append(requested - (calls - start))
            yield row

    monkeypatch.setattr(image_membership, "in_image_cons", counted)
    monkeypatch.setattr(verify, "outputs", streamed)
    assert all(ok for _, ok, _ in verify.per_word(8))
    assert calls == sum(core.count_standardized(n) for n in range(9))
    assert max(lookahead) == verify._BATCH_ROWS < core.count_standardized(8)


def _wrong_output_on(words):
    def breakage(real):
        return lambda q: real(q) + (0,) if q in words else real(q)
    return breakage


# The 7th and 9th canonical words of length 5: one batch by default, but
# batches 6 and 8, 3 and 4, or 0 and 1 at 1, 2 or 7 rows a batch.
SPLIT_WORDS = tuple(enumerate_standardized(5))[6:9:2]

# The functions each case breaks, and how: BROKEN_PER_WORD's three cases,
# the first-five-mismatches test's, and a wrong evaluator on SPLIT_WORDS.
BATCH_CASES = {
    **{check: [(function, breakage)]
       for check, (function, breakage, _) in BROKEN_PER_WORD.items()},
    "first-five-mismatches": [
        ("in_image_cons", _verdict_on(("abba", "abcc", "abbaa"), False)),
        ("in_image_aba", _verdict_on(("abcb", "abba", "abaaa", "aabab"), True)),
    ],
    "split-evaluator": [("phi_aba_via_decomposition", _wrong_output_on(SPLIT_WORDS))],
}


def test_verify_reports_the_earlier_of_two_bad_evaluator_words(monkeypatch):
    (function, breakage), = BATCH_CASES["split-evaluator"]
    monkeypatch.setattr(image_membership, function, breakage(getattr(image_membership, function)))
    results = verify.per_word(5)
    assert results[0] == ("evaluator-identities", False,
                          {"sequence": core.format_sequence(SPLIT_WORDS[0])})
    assert all(ok for _, ok, _ in results[1:])


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_verify_per_word_does_not_depend_on_the_batch_size(monkeypatch, case):
    for function, breakage in BATCH_CASES[case]:
        monkeypatch.setattr(image_membership, function,
                            breakage(getattr(image_membership, function)))
    default = verify.per_word(5)
    assert not all(ok for _, ok, _ in default)
    for rows in (1, 2, 7):
        monkeypatch.setattr(verify, "_BATCH_ROWS", rows)
        assert verify.per_word(5) == default, f"{rows} rows a batch"


def _table_with(**changes):
    def breakage(real):
        return lambda max_n: dataclasses.replace(real(max_n), **changes)
    return breakage


def _witness_at(m, report):
    def breakage(real):
        return lambda pats, m_: report if m_ == m else real(pats, m_)
    return breakage


# Each breaks one library function through its module, so that exactly
# one of verify.run's failure branches fires; (check, detail) is its record.
BROKEN_CHECKS = {
    "enumeration-size": (
        core, "count_standardized", lambda real: lambda n: real(n) + (n == 3),
        "evaluator-identities",
        {"reason": "enumeration size mismatch", "per_length": [1, 1, 2, 5, 15, 52]},
    ),
    "fertility": (
        preimage_fertility, "fertility_witness",
        lambda real: lambda m, n, pats: real(n - m, n, pats),
        "fertility-staircase", {"witness": "abb", "count": 2, "expected": 1},
    ),
    "staircase": (
        preimage_fertility, "staircase_count_formula",
        lambda real: lambda n, k, pats: real(n, k, pats) + ((n, k) == (2, 3)),
        "fertility-staircase", {"n": 2, "k": 3, "count": 4, "expected": 5},
    ),
    "sortable-total": (
        multipattern, "count_one_stack_sortable", _table_with(totals=(1, 2, 5, 8, 16)),
        "sortable-counts", {"n": 3, "total": 5},
    ),
    "sortable-row": (
        multipattern, "count_one_stack_sortable",
        _table_with(by_distinct=((1,), (1, 1), (2, 1, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))),
        "sortable-counts", {"n": 3, "row": [2, 1, 1]},
    ),
    "witness-verdict": (
        multipattern, "unsortable_witness",
        _witness_at(4, multipattern.WitnessReport(2, None, "search-exhausted")),
        "unsortability", {"patterns": "abba,abab", "m": 4, "verdict": "search-exhausted"},
    ),
    "witness-pass": (
        multipattern, "unsortable_witness",
        _witness_at(3, multipattern.WitnessReport(2, (0, 0, 1), "never-sorts")),
        "unsortability",
        {"patterns": "abba,abab", "m": 3, "reason": "pass output not equivalent"},
    ),
    "witness-iteration": (
        stack_machine, "phi_iterate",
        lambda real: lambda p, pats, max_k: (
            stack_machine.IterationResult(stack_machine.IterationOutcome.SORTED, 1, p)
            if len(p) == 9 else real(p, pats, max_k=max_k)
        ),
        "unsortability", {"patterns": "abba,abab", "m": 5, "outcome": "sorted"},
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CHECKS))
def test_verify_checks_report_their_failure_details(monkeypatch, case):
    module, function, breakage, check, expected = BROKEN_CHECKS[case]
    monkeypatch.setattr(module, function, breakage(getattr(module, function)))
    results = {r["name"]: (r["status"] == "PASS", r["detail"]) for r in verify.run(5)[:-1]}
    assert results.pop(check) == (False, expected)
    assert all(ok for ok, _ in results.values())


def _pinned_table_with(**changes):
    """Breaks the pinned map's count table only, so count-1ss's survey,
    which counts other pattern sets, still runs."""
    def breakage(real):
        def broken(max_n, *pats):
            table = real(max_n, *pats)
            return table if pats else dataclasses.replace(table, **changes)
        return broken
    return breakage


# Each breaks one library function through its module, as BROKEN_CHECKS
# does; the command runs the case its verify check reports, and prints
# the line with the same numbers.
BROKEN_COMMANDS = {
    "fertility": (
        *BROKEN_CHECKS["fertility"],
        "fertility --m 1 --n 3 --map cons-aba",
        "witness: abb preimages=2 expected=1 match=NO",
    ),
    "staircase": (
        *BROKEN_CHECKS["staircase"],
        "staircase --n 2 --k 3 --map cons-aba",
        "target: abccc preimages=4 formula=5 match=NO",
    ),
    "count-pow2": (
        multipattern, "count_one_stack_sortable",
        _pinned_table_with(totals=(1, 2, 5, 8, 16)),
        "sortable-counts", {"n": 3, "total": 5},
        "count-1ss --n-max 5",
        "n=3 total=5 pow2=FAIL row=1,2,1 shifted_binomial=PASS unshifted_binomial=FAIL",
    ),
    "count-shifted-binomial": (
        multipattern, "count_one_stack_sortable",
        _pinned_table_with(
            by_distinct=((1,), (1, 1), (2, 1, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))),
        "sortable-counts", {"n": 3, "row": [2, 1, 1]},
        "count-1ss --n-max 5",
        "n=3 total=4 pow2=PASS row=2,1,1 shifted_binomial=FAIL unshifted_binomial=FAIL",
    ),
    "witness": (
        *BROKEN_CHECKS["witness-verdict"],
        "witness --patterns abba,abab --m 4",
        "case: 2 witness: - verdict: search-exhausted",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_COMMANDS))
def test_commands_exit_1_on_the_mismatch_their_check_reports(monkeypatch, capsys, case):
    module, function, breakage, check, expected, argv, line = BROKEN_COMMANDS[case]
    monkeypatch.setattr(module, function, breakage(getattr(module, function)))
    code, out = run(capsys, *argv.split())
    assert code == 1
    assert line in out.splitlines()
    results = {r["name"]: (r["status"] == "PASS", r["detail"]) for r in verify.run(5)[:-1]}
    assert results[check] == (False, expected)


def test_verify_exits_1_and_reports_the_failing_check(monkeypatch, capsys):
    module, function, breakage, *_ = BROKEN_CHECKS["fertility"]
    monkeypatch.setattr(module, function, breakage(getattr(module, function)))
    code, out = run(capsys, "verify", "5")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL fertility-staircase witness=abb count=2 expected=1" in lines
    assert lines[-1] == "FAILED: 5/6 checks passed"
    code, out = run(capsys, "verify", "5", "--format", "json-lines")
    assert code == 1
    summary = json.loads(out.splitlines()[-1])
    assert summary == {"record": "summary", "status": "FAILED", "passed": 5, "failed": 1,
                       "max_n": 5}


def test_bench_small(capsys):
    code, out = run(capsys, "bench", "--lengths", "0,6", "--seed", "5")
    assert code == 0
    assert "length=0 cons-aba:" in out
    assert "length=6 brute: enumerated=203 agree=yes" in out


def test_bench_rejects_huge_lengths(capsys):
    assert run(capsys, "bench", "--lengths", "20000")[0] == 2
    assert run(capsys, "bench", "--lengths", "nope")[0] == 2


BENCH_GOLDEN_ARGV = ("bench", "--lengths", "0,1,6,9,100", "--seed", "5")


# bench's brute force reads each length's sweep in batches, so its goldens
# hold at any batch size, one row a batch included.
@pytest.mark.parametrize("rows", [verify._BATCH_ROWS, 1, 7])
def test_bench_matches_its_goldens_but_for_timings(monkeypatch, capsys, rows):
    monkeypatch.setattr(verify, "_BATCH_ROWS", rows)
    code, out = run(capsys, *BENCH_GOLDEN_ARGV, "--format", "json-lines")
    assert code == 0
    untimed = [
        json.dumps({k: v for k, v in json.loads(line).items() if k != "seconds"},
                   sort_keys=True)
        for line in out.splitlines()
    ]
    assert "\n".join(untimed) + "\n" == (GOLDEN / "bench.jsonl").read_text(encoding="utf-8")
    code, out = run(capsys, *BENCH_GOLDEN_ARGV)
    assert code == 0
    assert re.sub(r" time=[0-9.]+s", "", out) == (GOLDEN / "bench.txt").read_text(encoding="utf-8")


# The commands whose outputs each golden pair holds, in order.
COMMAND_GOLDENS = {
    "count-1ss": ["count-1ss --n-max 8"],
    "fertility": [f"fertility --m {m} --n {n} --map {name}"
                  for m, n in ((3, 5), (9, 10)) for name in ("cons-aba", "aba")],
    # abaccb's last run plants a divider; abacdca's cons trace has no witness.
    "image-check": ["image-check bcbabccdd --map aba --trace",
                    "image-check abaccb --map aba --trace",
                    "image-check abacdca --map cons-aba --trace --witness",
                    "image-check abb --map cons-aba --witness"],
    "preimages": [f"preimages abcc --map {name}" for name in ("cons-aba", "aba")],
    # A sock past z puts every event and pass of the last run in integer form.
    "sort": ["sort abab --pattern aba --k 3", "sort aab --pattern ~aba --trace",
             "sort 0,30,0 --pattern aba --trace --k 2"],
    "staircase": [f"staircase --n {n} --k {n} --map {name}"
                  for n in (2, 5) for name in ("cons-aba", "aba")],
    "verify": ["verify 5"],
    # aab,abba passes three times without a cycle line; abab is case 1.
    "witness": ["witness --patterns abba,abab --m 4", "witness --patterns abca,abac --m 3",
                "witness --patterns aab,abba --m 3", "witness --patterns abab --m 3"],
}


@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json-lines", "jsonl")])
@pytest.mark.parametrize("command", sorted(COMMAND_GOLDENS))
def test_commands_match_their_goldens(capsys, command, fmt, suffix):
    out = ""
    for argv in COMMAND_GOLDENS[command]:
        code, text = run(capsys, *argv.split(), "--format", fmt)
        assert code == 0, argv
        out += text
    assert out == (GOLDEN / f"{command}.{suffix}").read_text(encoding="utf-8")


def test_bench_exits_1_when_brute_force_disagrees(monkeypatch, capsys):
    # bench draws its length-6 word first, so this is the word it tests.
    word = random_standardized(6, random.Random(5))
    real = image_membership.in_image_aba

    def flipped(q):
        res = real(q)
        return dataclasses.replace(res, member=not res.member) if q == word else res

    monkeypatch.setattr(image_membership, "in_image_aba", flipped)
    code, out = run(capsys, "bench", "--lengths", "6", "--seed", "5")
    assert code == 1
    assert "length=6 aba: member=yes" in out
    assert "length=6 brute: enumerated=203 agree=NO" in out


def test_witness_exits_1_when_the_search_is_exhausted(monkeypatch, capsys):
    # No single shape of length 2-4 exhausts the default search, so shorten it.
    monkeypatch.setattr(multipattern, "WITNESS_SEARCH_LEN", 1)
    code, out = run(capsys, "witness", "--patterns", "abba", "--m", "3")
    assert code == 1
    assert out == "case: 1 witness: - verdict: search-exhausted\n"


# Library and command bound violations, each with the one stderr line
# `main` writes for it.
USAGE_ERRORS = [
    ("sort abc --pattern a", "pattern shape needs at least 2 letters"),
    ("sort abc --pattern 0,1,0", "bad pattern '0': pattern lists are written in letters"),
    ("preimages abcdefghijk --map aba", "target length 11 exceeds the bound 10"),
    ("fertility --m 0 --n 3 --map aba", "need 1 <= m <= n-1"),
    ("staircase --n 0 --k 1 --map aba", "need n >= 1 and k >= 1"),
    ("count-1ss --n-max 13", "max_n must be between 1 and 12"),
    ("witness --patterns aba --m 3",
     "pattern shape (0, 1, 0) has the excluded a..aba..a form"),
    ("verify 12", "verify supports max_n between 3 and 11"),
    ("bench --lengths nope", "bad lengths 'nope'"),
    ("bench --lengths=+-5", "bad lengths '+-5'"),
    ("bench --lengths 0,20000", "lengths above 10000 are out of bounds"),
    ("sort 1,² --pattern aba",
     "bad sock sequence '1,²': expected non-negative integers"),
]


def test_usage_errors(capsys):
    assert main(["image-check", "abb"]) == 2  # missing --map
    capsys.readouterr()
    assert main(["nope"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    for argv, message in USAGE_ERRORS:
        assert main(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n", argv
        assert captured.out == "", argv


def test_cli_only_parses_and_renders():
    # Compute stays in the library: cli.py imports none of these modules and
    # reads no other module's private names.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None):
                modules.update(node.module.split("."))
            for alias in node.names:
                assert not alias.name.startswith("_"), alias.name
                modules.update(alias.name.split("."))
                modules.add(alias.asname or alias.name)
    assert not modules & {"bisect", "image_membership", "multipattern", "random",
                          "stack_machine", "time"}
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")
               and not node.attr.startswith("__")]
    assert private == []
    # Every command returns a render(...) call, and only render prints to stdout.
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = [func for name, func in functions.items() if name.startswith("cmd_")]
    assert len(commands) == len(OPTIONS)
    for func in commands:
        assert isinstance(func.body[-1], ast.Return), func.name
        for node in ast.walk(func):
            if isinstance(node, ast.Return):
                assert isinstance(node.value, ast.Call), func.name
                assert ast.unparse(node.value.func) == "render", func.name
    for name, func in functions.items():
        prints = [ast.unparse(node) for node in ast.walk(func) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "print"]
        assert name == "render" or all("file=sys.stderr" in p for p in prints), name

# Every subcommand's option strings.  A new flag needs an edit here.
OPTIONS = {
    "sort": {"--format", "--pattern", "--k", "--trace"},
    "image-check": {"--format", "--map", "--trace", "--witness"},
    "preimages": {"--format", "--map"},
    "fertility": {"--format", "--m", "--n", "--map"},
    "staircase": {"--format", "--n", "--k", "--map"},
    "count-1ss": {"--format", "--n-max"},
    "witness": {"--format", "--patterns", "--m"},
    "verify": {"--format"},
    "bench": {"--format", "--lengths", "--seed"},
}


def test_parser_options_are_pinned(capsys):
    (subparsers,) = build_parser()._subparsers._group_actions
    found = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert found == OPTIONS
    assert main(["preimages", "abc", "--map", "aba", "--max-len", "3"]) == 2
    assert "unrecognized arguments: --max-len 3" in capsys.readouterr().err


def test_map_choices_come_from_the_one_table():
    (subparsers,) = build_parser()._subparsers._group_actions
    for name in ("image-check", "preimages", "fertility", "staircase"):
        (action,) = [a for a in subparsers.choices[name]._actions if a.dest == "map"]
        assert list(action.choices) == sorted(preimage_fertility.MAPS), name


def test_verify_outputs_follow_the_one_table():
    maps = preimage_fertility.MAPS.values()
    for n in range(6):
        for row in verify.outputs(n):
            q = row[0]
            assert row == (q, *(stack_machine.phi(q, pats) for pats in maps)), q


def _readme_examples():
    """(argv, expected stdout lines) for each `$ socksort ...` line in
    README's CLI block that has output under it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("\n$ "):
        command, *output = chunk.removeprefix("$ ").strip("\n").splitlines()
        if output:
            examples.append((shlex.split(command)[1:], output))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_examples_are_found():
    assert len(README_EXAMPLES) == 7


@pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_print_what_readme_shows(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == expected
