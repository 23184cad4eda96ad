from math import comb

import pytest

from socksort.core import enumerate_standardized, is_sorted, parse_sequence, standardize
from socksort.multipattern import (
    ABA_AAB_PINNED,
    WitnessReport,
    build_one_stack_sortable,
    count_one_stack_sortable,
    mode_combination_survey,
    unsortable_witness,
)
from socksort.patterns import Mode, Pattern, parse_patterns
from socksort.stack_machine import (
    IterationOutcome,
    is_one_stack_sortable,
    phi,
    phi_iterate,
)

MIXED_ABBA = parse_patterns("abba,abab")
MIXED_ABCA = parse_patterns("abca,abac")


def test_pinned_set_is_classical():
    assert ABA_AAB_PINNED == frozenset(
        {Pattern((0, 1, 0), Mode.CLASSICAL), Pattern((0, 0, 1), Mode.CLASSICAL)}
    )


class TestCounts:
    def test_totals_double(self):
        table = count_one_stack_sortable(8)
        assert table.totals == (1, 2, 4, 8, 16, 32, 64, 128)
        assert all(table.matches_doubling(n) for n in range(1, 9))

    def test_rows_follow_shifted_binomial(self):
        table = count_one_stack_sortable(7)
        for n in range(1, 8):
            row = table.by_distinct[n - 1]
            assert row == tuple(comb(n - 1, r - 1) for r in range(1, n + 1)), n
            assert table.row_matches_shifted_binomial(n)

    def test_unshifted_binomial_fails_from_n2(self):
        table = count_one_stack_sortable(4)
        assert table.row_matches_unshifted_binomial(1)
        assert not table.row_matches_unshifted_binomial(2)

    def test_rows_sum_to_totals(self):
        table = count_one_stack_sortable(7)
        for n in range(1, 8):
            assert sum(table.by_distinct[n - 1]) == table.totals[n - 1]

    def test_length_cap(self):
        with pytest.raises(ValueError):
            count_one_stack_sortable(13)

    def test_top_of_the_bound(self):
        # MAX_COUNT_LENGTH = 12 is the advertised bound; it must also run.
        table = count_one_stack_sortable(12)
        for n in range(1, 13):
            assert table.matches_doubling(n), n
            row = table.by_distinct[n - 1]
            assert row == tuple(comb(n - 1, r - 1) for r in range(1, n + 1)), n

    @pytest.mark.parametrize("aab_mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("aba_mode", list(Mode), ids=lambda m: m.value)
    def test_pruned_count_matches_a_plain_count(self, aba_mode, aab_mode):
        pats = {Pattern((0, 1, 0), aba_mode), Pattern((0, 0, 1), aab_mode)}
        rows = []
        for n in range(1, 9):
            row = [0] * n
            for q in enumerate_standardized(n):
                if is_sorted(phi(q, pats)):
                    row[len(set(q)) - 1] += 1
            rows.append(tuple(row))
        table = count_one_stack_sortable(8, pats)
        assert table.by_distinct == tuple(rows)
        assert table.totals == tuple(sum(row) for row in rows)

    @pytest.mark.parametrize("text", ["~aba", "aba", "abba,abab", "abca,abac", "abbc"])
    def test_pruned_count_matches_a_plain_count_beyond_the_survey(self, text):
        pats = parse_patterns(text)
        rows = []
        for n in range(1, 9):
            row = [0] * n
            for q in enumerate_standardized(n):
                if is_sorted(phi(q, pats)):
                    row[len(set(q)) - 1] += 1
            rows.append(tuple(row))
        table = count_one_stack_sortable(8, pats)
        assert table.by_distinct == tuple(rows)
        assert table.totals == tuple(sum(row) for row in rows)


class TestBuild:
    def test_matches_brute_force(self):
        for n in range(0, 9):
            built = build_one_stack_sortable(n)
            brute = tuple(
                q
                for q in enumerate_standardized(n)
                if is_one_stack_sortable(q, ABA_AAB_PINNED)
            )
            assert built == brute, n

    def test_nested_shape(self):
        # Every sortable word is a lead sock, a sortable word on fresh
        # socks, then a trailing run of the lead sock.
        for w in build_one_stack_sortable(6):
            assert w[0] == 0
            trailing = 0
            while trailing < len(w) and w[len(w) - 1 - trailing] == 0:
                trailing += 1
            inner = w[1 : len(w) - trailing]
            assert 0 not in inner
            assert standardize(inner) in build_one_stack_sortable(len(inner))

    def test_small_values(self):
        assert build_one_stack_sortable(0) == ((),)
        assert build_one_stack_sortable(1) == ((0,),)
        assert build_one_stack_sortable(2) == ((0, 0), (0, 1))


def test_mode_survey_pins_classical_aba():
    survey = mode_combination_survey(6)
    assert set(survey) == {
        ("classical", "classical"),
        ("classical", "consecutive"),
        ("consecutive", "classical"),
        ("consecutive", "consecutive"),
    }
    doubling = {
        key for key, counts in survey.items()
        if all(c == 2 ** i for i, c in enumerate(counts))
    }
    assert doubling == {("classical", "classical"), ("classical", "consecutive")}
    # Consecutive-aba interpretations land on a different growth curve.
    assert survey[("consecutive", "consecutive")] == (1, 2, 4, 7, 12, 20)


@pytest.mark.parametrize("max_n", [0, 13])
def test_mode_survey_takes_the_counter_bounds(max_n):
    with pytest.raises(ValueError):
        mode_combination_survey(max_n)


class TestUnsortableWitness:
    @pytest.mark.parametrize("pats", [MIXED_ABBA, MIXED_ABCA], ids=["abba", "abca"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_mixed_sets_get_alternating_witness(self, pats, m):
        report = unsortable_witness(pats, m)
        assert report.case == 2
        assert report.verdict == "never-sorts"
        w = report.witness
        assert len(w) == 2 * m - 1
        out = phi(w, pats)
        assert standardize(out) == standardize(w)
        assert phi_iterate(w, pats, max_k=3).outcome is IterationOutcome.NEVER_SORTS

    @pytest.mark.parametrize("text", ["abba", "abab"])
    def test_uniform_set_falls_back_to_search(self, text):
        # Both uniform flavours: every shape revisits its lead sock, or
        # none does.  The search finds the alternating 4-sock cycle.
        report = unsortable_witness(parse_patterns(text), 3)
        assert report.case == 1
        assert report.verdict == "never-sorts"
        # aba is already a fixed point: a four-letter shape never fires
        # inside a three-deep stack, so everything is pushed and flushed.
        assert report.witness == (0, 1, 0)
        assert (
            phi_iterate(report.witness, parse_patterns(text), max_k=3).outcome
            is IterationOutcome.NEVER_SORTS
        )

    @pytest.mark.parametrize(
        "text,case,witnesses",
        [
            ("abba", 1, ("aba", "aba", "aba")),
            ("abca", 1, ("aba", "aba", "aba")),
            ("aa", 1, ("abab", "abab", "abab")),
            # aab is sorted, so it is no witness, though its pass never sorts
            ("aab", 1, ("aba", "aba", "aba")),
            ("abba,abab", 2, ("aba", "abaca", "abacada")),
        ],
    )
    def test_reports_are_pinned(self, text, case, witnesses):
        pats = parse_patterns(text)
        for m, witness in zip((2, 3, 4), witnesses):
            report = WitnessReport(case, parse_sequence(witness), "never-sorts")
            assert unsortable_witness(pats, m) == report, m

    def test_sorting_shapes_are_rejected(self):
        for text in ("aba", "~aba", "aaba", "abaa", "~aba,~aab"):
            with pytest.raises(ValueError):
                unsortable_witness(parse_patterns(text), 3)

    def test_needs_two_socks(self):
        with pytest.raises(ValueError):
            unsortable_witness(MIXED_ABBA, 1)

    def test_empty_pattern_set_rejected(self):
        with pytest.raises(ValueError):
            unsortable_witness(frozenset(), 3)
