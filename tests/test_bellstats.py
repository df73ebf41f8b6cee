from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import bellstats
from bellkit.bellstats import (
    EXPERIMENT_KEYS,
    TSIRELSON_BOUND,
    CoincidenceTable,
    ExperimentDataset,
    SinglesTable,
    check_probabilities,
    check_sum_tolerance,
    chsh,
    counts_to_probabilities,
    expectation,
    marginal_deviations,
    student_t_tail,
    t_test_vs_threshold,
)

from oracles import t_tail_by_incomplete_beta

# Reference experiment, exact counts over 81 subjects (Table rows in
# outcome order 11, 12, 21, 22).
COUNTS = {
    "AB": (4, 51, 21, 5),
    "AB'": (48, 2, 24, 7),
    "A'B": (63, 7, 7, 4),
    "A'B'": (12, 7, 8, 54),
}
# Same data as printed three-decimal probabilities.
ROUNDED = {
    "AB": (0.049, 0.630, 0.259, 0.062),
    "AB'": (0.593, 0.025, 0.296, 0.086),
    "A'B": (0.778, 0.086, 0.086, 0.049),
    "A'B'": (0.148, 0.086, 0.099, 0.667),
}


def counts_dataset() -> ExperimentDataset:
    tables = {k: CoincidenceTable.from_counts(k, COUNTS[k], 81) for k in EXPERIMENT_KEYS}
    return ExperimentDataset(name="reference", tables=tables, n_subjects=81)


def rounded_dataset() -> ExperimentDataset:
    tables = {k: CoincidenceTable(k, *ROUNDED[k], sum_tol=0.005) for k in EXPERIMENT_KEYS}
    return ExperimentDataset(name="reference", tables=tables, n_subjects=81)


simplex4 = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4).filter(
    lambda xs: sum(xs) > 1e-6
)


class TestCoincidenceTable:
    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CoincidenceTable("AB", -0.1, 0.5, 0.4, 0.2)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to"):
            CoincidenceTable("AB", 0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CoincidenceTable("AB", bad, 0.5, 0.25, 0.25)

    @pytest.mark.parametrize("sum_tol", [-0.1, 1.0, 2.0, math.inf, math.nan])
    def test_sum_tolerance_must_lie_in_0_1(self, sum_tol):
        # a tolerance of 1 or more would admit the all-zero table, NaN any sum
        with pytest.raises(ValueError, match=r"tolerance must lie in \[0, 1\)"):
            CoincidenceTable("AB", 0.0, 0.0, 0.0, 0.0, sum_tol=sum_tol)

    def test_sum_tolerance_of_zero_is_accepted(self):
        assert check_sum_tolerance(0.0) == 0.0

    def test_rounded_source_tolerance(self):
        t = CoincidenceTable("A'B", *ROUNDED["A'B"], sum_tol=0.005)  # sums to 0.999
        assert t.probabilities.sum() == pytest.approx(0.999)
        with pytest.raises(ValueError):
            CoincidenceTable("A'B", *ROUNDED["A'B"])  # tight default must reject

    def test_counts_consistency_enforced(self):
        with pytest.raises(ValueError, match="counts sum"):
            CoincidenceTable("AB", 0.25, 0.25, 0.25, 0.25, counts=(1, 1, 1, 2), n=4)
        with pytest.raises(ValueError, match="disagree"):
            CoincidenceTable("AB", 0.25, 0.25, 0.25, 0.25, counts=(2, 1, 1, 4), n=8)

    def test_stack_check_names_the_first_bad_row(self):
        rows = np.array([[0.25] * 4, [0.5, 0.5, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4]])
        check_probabilities(rows[[0, 2]], "AB")
        with pytest.raises(ValueError, match=r"AB: probabilities sum to 2\.000000"):
            check_probabilities(rows, "AB")

    def test_stack_check_reports_non_finite_before_out_of_range(self):
        rows = np.array([[1.5, -0.5, 0.0, 0.0], [np.nan, 0.5, 0.25, 0.25]])
        with pytest.raises(ValueError, match=r"^AB: probabilities must be finite, got \[ nan 0\.5  0\.25 0\.25\]$"):
            check_probabilities(rows, "AB")

    def test_whole_stack_check_matches_a_row_by_row_scan(self):
        def scan(rows, sum_tol):
            for test, message in (
                (lambda r: not np.isfinite(r).all(), lambda r: f"must be finite, got {r}"),
                (lambda r: ((r < -1e-12) | (r > 1.0 + 1e-12)).any(), lambda r: f"must lie in [0, 1], got {r}"),
                (lambda r: abs(r.sum() - 1.0) > sum_tol,
                 lambda r: f"sum to {r.sum():.6f}, outside 1 +/- {sum_tol}"),
            ):
                for row in rows:
                    if test(row):
                        return f"AB: probabilities {message(row)}"
            return None

        edges = [0.0, 0.25, 0.5, 1.0, -1e-12, -2e-12, 1.0 + 1e-12, 1.0 + 2e-12, 0.5 + 1e-6, 0.5 + 2e-6,
                 np.nan, np.inf, -np.inf]
        rng = np.random.default_rng(7)
        for _ in range(400):
            rows = np.full((3, 4), 0.25)
            for _ in range(rng.integers(0, 4)):
                i, j = rng.integers(0, 3), rng.integers(0, 4)
                rows[i, j], rows[i, (j + 1) % 4] = rng.choice(edges), rng.choice(edges)
            for sum_tol in (1e-6, 1e-4):
                try:
                    check_probabilities(rows, "AB", sum_tol)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == scan(rows, sum_tol), rows

    def test_from_counts(self):
        t = CoincidenceTable.from_counts("AB", (4, 51, 21, 5), 81)
        np.testing.assert_allclose(t.probabilities, np.array([4, 51, 21, 5]) / 81.0, atol=1e-15)
        assert t.n == 81

    def test_from_counts_counts_once(self, monkeypatch):
        calls = []

        def counting(counts, n):
            calls.append((counts, n))
            return counts_to_probabilities(counts, n)

        monkeypatch.setattr(bellstats, "counts_to_probabilities", counting)
        t = CoincidenceTable.from_counts("AB", [np.int64(4), 51, 21, 5], np.int64(81))
        assert len(calls) == 1
        assert t == CoincidenceTable("AB", 4 / 81, 51 / 81, 21 / 81, 5 / 81, counts=(4, 51, 21, 5), n=81, sum_tol=1e-9)
        assert type(t.n) is int and all(type(c) is int for c in t.counts)


class TestSinglesAndDataset:
    def test_singles_pair_must_sum_to_one(self):
        SinglesTable({"A": (0.5309, 0.4691)})
        with pytest.raises(ValueError, match="sum to"):
            SinglesTable({"A": (0.6, 0.5)})

    def test_singles_pair_must_lie_in_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"singles for A: probabilities must lie in \[0, 1\]"):
            SinglesTable({"A": (1.5, -0.5)})

    def test_dataset_requires_all_four_experiments(self):
        tables = {k: CoincidenceTable.from_counts(k, COUNTS[k], 81) for k in ("AB", "AB'", "A'B")}
        with pytest.raises(ValueError, match="missing"):
            ExperimentDataset(name="x", tables=tables)

    def test_dataset_rejects_unknown_keys(self):
        tables = {k: CoincidenceTable.from_counts(k, COUNTS[k], 81) for k in EXPERIMENT_KEYS}
        tables["BB"] = tables["AB"]
        with pytest.raises(ValueError, match="unknown"):
            ExperimentDataset(name="x", tables=tables)


class TestExpectation:
    def test_reference_values_exact(self):
        ds = counts_dataset()
        expected = {
            "AB": Fraction(-63, 81),
            "AB'": Fraction(29, 81),
            "A'B": Fraction(53, 81),
            "A'B'": Fraction(51, 81),
        }
        for key, frac in expected.items():
            assert expectation(ds.tables[key]) == pytest.approx(float(frac), abs=1e-15)

    def test_printed_four_decimal_values(self):
        ds = counts_dataset()
        assert expectation(ds.tables["AB"]) == pytest.approx(-0.7778, abs=5e-5)
        assert expectation(ds.tables["A'B"]) == pytest.approx(0.6543, abs=5e-5)
        assert expectation(ds.tables["AB'"]) == pytest.approx(0.3580, abs=5e-5)
        assert expectation(ds.tables["A'B'"]) == pytest.approx(0.6296, abs=5e-5)

    @settings(max_examples=300, deadline=None)
    @given(simplex4)
    def test_bounded_by_one(self, raw):
        probs = np.array(raw) / sum(raw)
        table = CoincidenceTable("AB", *probs, sum_tol=1e-9)
        assert -1.0 - 1e-12 <= expectation(table) <= 1.0 + 1e-12

    def test_rejects_out_of_range_probabilities(self):
        class Fake:
            p11, p12, p21, p22 = 1.2, -0.2, 0.0, 0.0
            probabilities = np.array([1.2, -0.2, 0.0, 0.0])

        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            expectation(Fake())

    @settings(max_examples=200, deadline=None)
    @given(simplex4)
    def test_second_side_label_swap_flips_sign(self, raw):
        p = np.array(raw) / sum(raw)
        t = CoincidenceTable("AB", *p, sum_tol=1e-9)
        swapped = CoincidenceTable("AB", p[1], p[0], p[3], p[2], sum_tol=1e-9)
        assert expectation(swapped) == pytest.approx(-expectation(t), abs=1e-12)


class TestChsh:
    def test_reference_counts_value_is_196_over_81(self):
        report = chsh(counts_dataset())
        assert report.chsh == pytest.approx(196.0 / 81.0, abs=1e-15)
        assert report.chsh == pytest.approx(2.4197, abs=1e-4)
        assert report.violates
        assert report.tsirelson_gap == pytest.approx(TSIRELSON_BOUND - 196.0 / 81.0, abs=1e-15)

    def test_rounded_form_agrees_within_one_over_n(self):
        a = chsh(counts_dataset()).chsh
        b = chsh(rounded_dataset()).chsh
        assert abs(a - b) <= 1.0 / 81.0

    def test_missing_experiment_named_in_error(self):
        tables = {k: CoincidenceTable.from_counts(k, COUNTS[k], 81) for k in EXPERIMENT_KEYS}
        del tables["A'B"]
        with pytest.raises(ValueError, match="A'B"):
            chsh(tables)

    def test_uniform_dataset_no_violation(self):
        tables = {k: CoincidenceTable(k, 0.25, 0.25, 0.25, 0.25) for k in EXPERIMENT_KEYS}
        report = chsh(tables)
        assert report.chsh == pytest.approx(0.0, abs=1e-15)
        assert not report.violates

    def test_accepts_every_table_the_constructor_accepts(self):
        # CoincidenceTable admits probabilities within 1e-12 of [0, 1]
        tables = {k: CoincidenceTable(k, 1.0 + 1e-13, 0.0, 0.0, -1e-13) for k in EXPERIMENT_KEYS}
        report = chsh(tables)
        assert report.e_values["AB"] == pytest.approx(1.0, abs=1e-12)
        assert report.chsh == pytest.approx(2.0, abs=1e-12)


class TestMarginalDeviations:
    def test_reference_witness_rows(self):
        rows = marginal_deviations(rounded_dataset())
        assert len(rows) == 8
        by_key = {(r.side, r.outcome): r for r in rows}
        a1 = by_key[("A", 1)]
        assert (a1.lhs, a1.rhs) == (pytest.approx(0.679), pytest.approx(0.618))
        ap1 = by_key[("A'", 1)]
        assert (ap1.lhs, ap1.rhs) == (pytest.approx(0.864), pytest.approx(0.234))
        assert ap1.deviation == pytest.approx(0.630, abs=1e-12)
        assert a1.experiment_lhs == "AB" and a1.experiment_rhs == "AB'"
        assert ap1.experiment_lhs == "A'B" and ap1.experiment_rhs == "A'B'"

    def test_counts_form_witnesses_match_printed_within_1e3(self):
        rows = marginal_deviations(counts_dataset())
        by_key = {(r.side, r.outcome): r for r in rows}
        assert by_key[("A", 1)].lhs == pytest.approx(0.679, abs=1e-3)
        assert by_key[("A", 1)].rhs == pytest.approx(0.618, abs=1e-3)
        assert by_key[("A'", 1)].lhs == pytest.approx(0.864, abs=1e-3)
        assert by_key[("A'", 1)].rhs == pytest.approx(0.234, abs=1e-3)

    def test_row_layout(self):
        rows = marginal_deviations(counts_dataset())
        layout = [(r.side, r.outcome, r.experiment_lhs, r.experiment_rhs) for r in rows]
        assert layout == [
            ("A", 1, "AB", "AB'"),
            ("A", 2, "AB", "AB'"),
            ("A'", 1, "A'B", "A'B'"),
            ("A'", 2, "A'B", "A'B'"),
            ("B", 1, "AB", "A'B"),
            ("B", 2, "AB", "A'B"),
            ("B'", 1, "AB'", "A'B'"),
            ("B'", 2, "AB'", "A'B'"),
        ]

    def test_no_signaling_dataset_has_zero_deviations(self):
        # Same marginals everywhere: independent coins on both sides.
        tables = {}
        for key, (pa, pb) in zip(EXPERIMENT_KEYS, [(0.3, 0.6), (0.3, 0.7), (0.3, 0.6), (0.3, 0.7)]):
            pa_ = 0.3  # first side marginal fixed across experiments
            tables[key] = CoincidenceTable(
                key, pa_ * pb, pa_ * (1 - pb), (1 - pa_) * pb, (1 - pa_) * (1 - pb), sum_tol=1e-9
            )
        # second-side marginal must also match across the two experiments it appears in
        rows = marginal_deviations(tables)
        for r in rows:
            assert r.deviation <= 1e-12


class TestCountsToProbabilities:
    def test_reference_row(self):
        probs = counts_to_probabilities((4, 51, 21, 5), 81)
        np.testing.assert_allclose(probs, (0.0494, 0.6296, 0.2593, 0.0617), atol=5e-5)
        np.testing.assert_allclose(probs, np.array([4, 51, 21, 5]) / 81.0, atol=1e-15)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected n"):
            counts_to_probabilities((4, 51, 21, 5), 80)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            counts_to_probabilities((0, 0, 0, 0), 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            counts_to_probabilities((-1, 41, 21, 20), 81)

    def test_integer_counts_beyond_the_float_range_are_counts(self):
        assert counts_to_probabilities((10**400, 0, 0, 0), 10**400) == (1.0, 0.0, 0.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=4, max_size=4).filter(lambda c: sum(c) > 0))
    def test_round_trip(self, counts):
        n = sum(counts)
        probs = counts_to_probabilities(counts, n)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        table = CoincidenceTable.from_counts("AB", counts, n)
        np.testing.assert_allclose(table.probabilities, probs, atol=1e-15)


class TestTTest:
    def test_worked_example(self):
        res = t_test_vs_threshold([4, 4, 0, 2, 2], 2.0)
        assert res.sample_mean == pytest.approx(2.4, abs=1e-15)
        assert res.sample_std**2 == pytest.approx(2.8, abs=1e-12)
        assert res.statistic == pytest.approx(0.534522483824849, abs=1e-12)
        assert res.df == 4
        # Frozen from a 30-digit incomplete-beta evaluation.
        assert res.p_value == pytest.approx(0.3106541475187485, abs=1e-9)

    def test_against_incomplete_beta_oracle(self):
        for samples, threshold in [
            ([4, 4, 0, 2, 2], 2.0),
            ([2.1, 2.4, 2.2, 2.8, 2.3, 2.6], 2.0),
            ([1.0, 2.0, 3.0, 4.0], 3.5),
            ([5.0, 1.0], 2.0),
        ]:
            res = t_test_vs_threshold(samples, threshold)
            expected = t_tail_by_incomplete_beta(res.statistic, res.df)
            assert res.p_value == pytest.approx(expected, abs=1e-9)

    def test_symmetric_sample_gives_half(self):
        res = t_test_vs_threshold([1.0, 3.0, 2.0, 2.0], 2.0)
        assert res.statistic == pytest.approx(0.0, abs=1e-15)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)

    def test_two_sided_doubles_the_tail(self):
        one = t_test_vs_threshold([4, 4, 0, 2, 2], 2.0)
        two = t_test_vs_threshold([4, 4, 0, 2, 2], 2.0, two_sided=True)
        assert two.p_value == pytest.approx(2.0 * one.p_value, abs=1e-12)
        assert two.two_sided

    def test_two_sided_uses_absolute_statistic(self):
        below = t_test_vs_threshold([0, 0, 2, 1, 1], 2.0, two_sided=True)
        assert below.statistic < 0.0
        assert below.p_value == pytest.approx(
            2.0 * t_tail_by_incomplete_beta(abs(below.statistic), below.df), abs=1e-9
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            t_test_vs_threshold([2.0], 2.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            t_test_vs_threshold([2.0, 2.0, 2.0], 2.0)

    @pytest.mark.parametrize("samples, statistic", [
        ([1e200, 1e200, 1.0], 2.0),  # the statistic of [1, 1, 0]
        ([1e308, 1e308, -1e308], 0.5),
    ])
    def test_large_finite_samples_do_not_overflow(self, samples, statistic):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = t_test_vs_threshold(samples, 0.0)
        assert res.statistic == pytest.approx(statistic, rel=1e-15)
        # P(T > t) at df = 2 is 1/2 - t / (2 sqrt(t^2 + 2))
        assert res.p_value == pytest.approx(0.5 - statistic / (2.0 * math.sqrt(statistic**2 + 2.0)), abs=1e-12)
        assert type(res.p_value) is float
        assert res.sample_mean == pytest.approx(sum(s / 3.0 for s in samples), rel=1e-15)
        assert math.isfinite(res.sample_std)

    def test_standard_deviation_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="sample standard deviation beyond the float range"):
            t_test_vs_threshold([1.7e308, -1.7e308], 0.0)

    def test_statistic_beyond_the_float_range_is_infinite_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = t_test_vs_threshold([0.1, 0.2, 0.3], 1.7e308)
        assert res.statistic == -math.inf
        assert res.sample_mean == pytest.approx(0.2, rel=1e-15)

    def test_negative_statistic_tail_above_half(self):
        res = t_test_vs_threshold([1.0, 1.5, 2.0, 1.2], 2.0)
        assert res.statistic < 0
        assert 0.5 < res.p_value < 1.0

    @pytest.mark.parametrize("t", [-1.0, 1.2, 2.66])
    def test_tail_at_large_df_is_the_normal_tail(self, t):
        # At df = 10**7 the t and normal tails differ by about 1e-8; the
        # peak of cos^(df-1) is about 3e-4 wide.
        assert abs(student_t_tail(t, 10**7) - math.erfc(t / math.sqrt(2.0)) / 2.0) <= 1e-7

    @pytest.mark.parametrize("t", [-3.0, -0.5, 0.0, 0.7, 2.0, 40.0])
    def test_tail_at_one_df_is_the_cauchy_tail(self, t):
        # df = 1 integrates cos^0 = 1 over [atan(t), pi/2], which Simpson's rule does exactly
        assert abs(student_t_tail(t, 1) - (0.5 - math.atan(t) / math.pi)) <= 1e-12

    @pytest.mark.parametrize("nu, ratio", [
        # Gamma((nu + 1) / 2) / Gamma(nu / 2) to 40 digits, evaluated offline
        # with mpmath; 1000 is where the asymptotic series takes over.
        (1000, 22.3550903046986241391311117447920093003),
        (10**5, 223.6062387336833746710795564478843725076),
        (10**6, 707.1066044098743248784966928933544687325),
        (10**7, 2236.06792159809095768576157358929288633),
        (10**8, 7071.067794187805736441842699320577153688),
    ])
    def test_density_constant_at_large_df(self, nu, ratio):
        assert abs(bellstats._half_gamma_ratio(float(nu)) / ratio - 1.0) <= 1e-14
