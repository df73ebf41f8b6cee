"""Coincidence-experiment statistics: expectation values, the CHSH quantity,
marginal-law (no-signaling) checks, and a one-sample t test.

Probability tables follow the outcome order (11, 12, 21, 22): first factor's
outcome varies slowest, so p12 is "first side outcome 1, second side
outcome 2".
"""
from __future__ import annotations

import math

import numpy as np

from . import _Record

EXPERIMENT_KEYS = ("AB", "AB'", "A'B", "A'B'")

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Each single measurement, the two coincidence experiments that share it,
# and its side of their tables: 0 for the first (marginals are row sums),
# 1 for the second (column sums).
MARGINAL_PLAN = (
    ("A", "AB", "AB'", 0),
    ("A'", "A'B", "A'B'", 0),
    ("B", "AB", "A'B", 1),
    ("B'", "AB'", "A'B'", 1),
)


def check_sum_tolerance(sum_tol: float) -> float:
    """Return ``sum_tol`` if it lies in [0, 1), the range of a
    probability-sum tolerance; raise ValueError otherwise, NaN included."""
    if not 0.0 <= sum_tol < 1.0:
        raise ValueError(f"probability-sum tolerance must lie in [0, 1), got {sum_tol}")
    return sum_tol


def check_probabilities(probs, experiment: str, sum_tol: float = 1e-6) -> None:
    """Raise ValueError unless every row of ``probs`` (rows along the last
    axis, of any length) is finite, lies in [0, 1] and sums to 1 within
    ``sum_tol``; the message names ``experiment`` and the first offending
    row."""
    rows = np.asarray(probs, dtype=float)
    rows = rows.reshape(-1, rows.shape[-1])
    # Whole-array bounds first: NaN fails every comparison, so only a stack
    # that passes all three checks below returns here.
    if rows.size == 0 or (rows.min() >= -1e-12 and rows.max() <= 1.0 + 1e-12
                          and np.abs(rows.sum(axis=1) - 1.0).max() <= sum_tol):
        return
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{experiment}: probabilities must be finite, got {rows[bad][0]}")
    # tiny epsilon: computed probabilities land on 0 and 1 up to round-off
    bad = ((rows < -1e-12) | (rows > 1.0 + 1e-12)).any(axis=1)
    if bad.any():
        raise ValueError(f"{experiment}: probabilities must lie in [0, 1], got {rows[bad][0]}")
    totals = rows.sum(axis=1)
    bad = np.abs(totals - 1.0) > sum_tol
    if bad.any():
        raise ValueError(
            f"{experiment}: probabilities sum to {totals[bad][0]:.6f}, "
            f"outside 1 +/- {sum_tol}"
        )


def side_marginals(probs, table_side: int):
    """The two outcome marginals of one side's measurement from probabilities
    (p11, p12, p21, p22), or from each row of an array (..., 4): row sums for
    table side 0, column sums for side 1."""
    probs = np.asarray(probs)
    return probs.reshape(*probs.shape[:-1], 2, 2).sum(axis=-1 - table_side)


def chsh_combination(e_values):
    """E(A',B') + E(A',B) + E(A,B') - E(A,B) of a mapping from experiment
    key to E value (numbers, or arrays of one value per model)."""
    return e_values["A'B'"] + e_values["A'B"] + e_values["AB'"] - e_values["AB"]


class CoincidenceTable(_Record):
    """Joint outcome probabilities of one coincidence experiment.

    Parameters
    ----------
    experiment : str
        Which pair of single measurements was run, e.g. "AB'".
    p11, p12, p21, p22 : float
        Outcome probabilities in (first, second)-outcome order.
    a_labels, b_labels : pairs of str
        Outcome names of the two sides, e.g. ("Horse", "Bear").
    counts : tuple of four int, optional
        Raw counts behind the probabilities, checked against ``n`` by
        counts_to_probabilities; counts/n must match the probabilities
        within 1e-9.
    n : int, optional
        Number of trials; required when counts are given.
    sum_tol : float
        Allowed deviation of the probability sum from 1, in [0, 1).  Use
        0.005 for tables transcribed from rounded sources, the tight
        default otherwise.
    """

    def __init__(self, experiment: str, p11: float, p12: float, p21: float, p22: float,
                 a_labels: tuple = ("1", "2"), b_labels: tuple = ("1", "2"),
                 counts: tuple | None = None, n: int | None = None, sum_tol: float = 1e-6):
        self.experiment = experiment
        self.p11, self.p12, self.p21, self.p22 = p11, p12, p21, p22
        self.a_labels, self.b_labels = a_labels, b_labels
        self.counts, self.n = counts, n
        self.sum_tol = sum_tol
        check_sum_tolerance(self.sum_tol)
        probs = self.probabilities
        check_probabilities(probs, self.experiment, self.sum_tol)
        if len(self.a_labels) != 2 or len(self.b_labels) != 2:
            raise ValueError("a_labels and b_labels must each have two entries")
        if self.counts is not None:
            if len(self.counts) != 4:
                raise ValueError("counts must be four nonnegative integers")
            for c, q, p in zip(self.counts, counts_to_probabilities(self.counts, self.n), probs):
                if abs(q - p) > 1e-9:
                    raise ValueError(
                        f"{self.experiment}: counts/n disagree with probabilities "
                        f"({c}/{self.n} vs {p})"
                    )

    @classmethod
    def from_counts(cls, experiment, counts, n, a_labels=("1", "2"), b_labels=("1", "2")) -> "CoincidenceTable":
        table = cls(experiment, *counts_to_probabilities(counts, n), a_labels=a_labels, b_labels=b_labels,
                    sum_tol=1e-9)
        # set after construction: the probabilities are counts/n already, so
        # __init__'s check of counts against them would count them again
        table.counts, table.n = tuple(int(c) for c in counts), int(n)
        return table

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([self.p11, self.p12, self.p21, self.p22], dtype=float)

    @property
    def labels(self) -> tuple:
        """Combined outcome names in table order (11, 12, 21, 22)."""
        return tuple(f"{a} {b}" for a in self.a_labels for b in self.b_labels)


class SinglesTable(_Record):
    """Single-measurement outcome probabilities, one (p1, p2) pair per side,
    each checked as check_probabilities checks a table, within 1e-4.
    ``labels`` defaults to a new empty dict."""

    def __init__(self, probabilities: dict, labels: dict | None = None):
        self.probabilities = probabilities
        self.labels = {} if labels is None else labels
        for side, pair in self.probabilities.items():
            if len(pair) != 2:
                raise ValueError(f"singles for {side} must be a pair")
            check_probabilities(pair, f"singles for {side}", sum_tol=1e-4)


class ExperimentDataset(_Record):
    """Four coincidence tables (and optional singles) from one experiment.

    ``singles`` is parsed, checked and written back with the dataset; no
    analysis reads it: each side's marginals come from the coincidence
    tables (marginal_deviations).
    """

    def __init__(self, name: str, tables: dict, singles: SinglesTable | None = None,
                 n_subjects: int | None = None):
        self.name, self.tables, self.singles, self.n_subjects = name, tables, singles, n_subjects
        missing = [k for k in EXPERIMENT_KEYS if k not in self.tables]
        if missing:
            raise ValueError(f"dataset is missing coincidence tables: {missing}")
        extra = [k for k in self.tables if k not in EXPERIMENT_KEYS]
        if extra:
            raise ValueError(f"dataset has unknown coincidence tables: {extra}")


class MarginalDeviation(_Record):
    """One marginal-law comparison row.

    ``lhs`` and ``rhs`` are the same one-side marginal computed from the two
    coincidence experiments that share that side; under the marginal law
    (no-signaling) they must be equal.  ``deviation`` is |lhs - rhs|.
    """

    def __init__(self, side: str, outcome: int, experiment_lhs: str, experiment_rhs: str,
                 lhs: float, rhs: float):
        self.side, self.outcome = side, outcome
        self.experiment_lhs, self.experiment_rhs = experiment_lhs, experiment_rhs
        self.lhs, self.rhs = lhs, rhs
        self.deviation = abs(lhs - rhs)


class ChshReport(_Record):
    """CHSH evaluation of a four-experiment dataset.

    ``chsh`` is the combination of ``e_values`` (chsh_combination),
    ``violates`` whether |chsh| > 2, and ``tsirelson_gap`` is
    TSIRELSON_BOUND - |chsh|.
    """

    def __init__(self, e_values: dict, marginal_deviations: list):
        self.e_values, self.marginal_deviations = e_values, marginal_deviations
        self.chsh = chsh_combination(e_values)
        self.violates = abs(self.chsh) > 2.0
        self.tsirelson_gap = TSIRELSON_BOUND - abs(self.chsh)


def expectation_of(probs):
    """E = p11 + p22 - p12 - p21 of probabilities (p11, p12, p21, p22), or of
    each row of an array (..., 4), under the (+1, -1) outcome values."""
    probs = np.asarray(probs)
    return probs[..., 0] + probs[..., 3] - probs[..., 1] - probs[..., 2]


def expectation(table: CoincidenceTable) -> float:
    """E of a coincidence table, as expectation_of gives it.  The
    probabilities must pass check_probabilities, as at construction; a
    table-like object without ``experiment`` or ``sum_tol`` gets the defaults."""
    probs = table.probabilities
    check_probabilities(probs, getattr(table, "experiment", "table"), getattr(table, "sum_tol", 1e-6))
    return float(expectation_of(probs))


def _tables_of(dataset) -> dict:
    tables = dataset.tables if isinstance(dataset, ExperimentDataset) else dataset
    for key in EXPERIMENT_KEYS:
        if key not in tables:
            raise ValueError(f"missing coincidence table {key!r}")
    return tables


def chsh(dataset) -> ChshReport:
    """Full CHSH report: E values, the bound check, and marginal-law rows.

    The CHSH combination is E(A',B') + E(A',B) + E(A,B') - E(A,B); the AB
    term carries the minus sign.
    """
    tables = _tables_of(dataset)
    e_values = {key: expectation(tables[key]) for key in EXPERIMENT_KEYS}
    return ChshReport(e_values, marginal_deviations(tables))


def marginal_deviations(dataset) -> list:
    """The eight marginal-law rows of a four-experiment dataset.

    Each single measurement appears in two coincidence experiments; its
    outcome marginals must agree between them.  First-side marginals are row
    sums of the joint table, second-side marginals are column sums.
    """
    tables = _tables_of(dataset)
    rows = []
    for side, exp_lhs, exp_rhs, table_side in MARGINAL_PLAN:
        lhs_pair = side_marginals(tables[exp_lhs].probabilities, table_side)
        rhs_pair = side_marginals(tables[exp_rhs].probabilities, table_side)
        for outcome in (1, 2):
            rows.append(MarginalDeviation(side, outcome, exp_lhs, exp_rhs,
                                          float(lhs_pair[outcome - 1]), float(rhs_pair[outcome - 1])))
    return rows


def counts_to_probabilities(counts, n) -> tuple:
    """Relative frequencies counts[k]/n.  ValueError unless n is positive
    and the counts are nonnegative integers (in value) summing to n."""
    if n is None or n <= 0:
        raise ValueError("n must be a positive integer")
    # float() would overflow on integers beyond the float range; NaN and inf fail
    if not all(isinstance(c, (int, np.integer)) or float(c).is_integer() for c in counts):
        raise ValueError(f"counts must be integers, got {tuple(counts)}")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    if sum(counts) != n:
        raise ValueError(f"counts sum to {sum(counts)}, expected n={n}")
    return tuple(c / n for c in counts)


class TTestResult(_Record):
    """One-sample t test of a mean against a fixed threshold.

    ``p_value`` is the tail P(T > statistic) at ``df`` degrees of freedom,
    or twice P(T > |statistic|) when ``two_sided`` (student_t_tail).
    """

    def __init__(self, statistic: float, df: int, sample_mean: float, sample_std: float,
                 threshold: float, two_sided: bool):
        self.statistic, self.df = statistic, df
        self.sample_mean, self.sample_std = sample_mean, sample_std
        self.threshold, self.two_sided = threshold, two_sided
        if two_sided:
            self.p_value = 2.0 * student_t_tail(abs(statistic), df)
        else:
            self.p_value = student_t_tail(statistic, df)


# From this df on, _half_gamma_ratio sums an asymptotic series: the lgamma
# difference loses about 1e-13 relative at df = 1000 and 1e-8 at df = 10^8,
# where the series is good to 2e-16.
HALF_GAMMA_SERIES_DF = 1000.0


def _half_gamma_ratio(nu: float) -> float:
    """Gamma((nu + 1) / 2) / Gamma(nu / 2), the ratio in the t density.

    From HALF_GAMMA_SERIES_DF on, with x = nu / 2, the series
    sqrt(x) (1 - 1/(8x) + 1/(128x^2) + 5/(1024x^3) - 21/(32768x^4)), whose
    next term is below 5e-17 there; below, exp of an lgamma difference.
    """
    if nu < HALF_GAMMA_SERIES_DF:
        return math.exp(math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0))
    inv = 2.0 / nu
    series = 1.0 + inv * (-1 / 8 + inv * (1 / 128 + inv * (5 / 1024 - inv * 21 / 32768)))
    return math.sqrt(nu / 2.0) * series


# Simpson nodes of student_t_tail's quadrature grid (odd, so the panels pair up).
T_TAIL_POINTS = 4001


def student_t_tail(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom.

    The substitution t = sqrt(df) tan(theta) turns the tail integral into
    C * sqrt(df) * integral of cos^(df-1)(theta) over
    [atan(t/sqrt(df)), pi/2], evaluated by composite Simpson quadrature.
    The grid ends where the integrand underflows, cos^(df-1) < e^-745, so
    its T_TAIL_POINTS nodes stay on the peak, whose width is about 1/sqrt(df).
    ValueError for a NaN ``t`` or a ``df`` that is not finite and at least 1.
    """
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if not 1 <= df < math.inf:
        raise ValueError(f"df must be finite and at least 1, got {df}")
    nu = float(df)
    norm_const = _half_gamma_ratio(nu) / math.sqrt(nu * math.pi)
    lo = math.atan(t / math.sqrt(nu))
    hi = math.acos(math.exp(-745.0 / (nu - 1.0))) if df > 1 else math.pi / 2.0
    theta = np.linspace(lo, max(lo, hi), T_TAIL_POINTS)
    integrand = np.cos(theta) ** (nu - 1.0)
    weights = np.ones(T_TAIL_POINTS)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = float(np.dot(weights, integrand)) * (theta[1] - theta[0]) / 3.0
    return float(norm_const * math.sqrt(nu) * integral)


def t_test_vs_threshold(samples, threshold: float, two_sided: bool = False) -> TTestResult:
    """One-sample t test of mean(samples) against ``threshold``.

    The default reports the one-sided tail P(T > t); pass two_sided=True for
    the symmetric alternative.

    The samples and the threshold are scaled by the power of two that
    brings the largest sample magnitude into [0.5, 1), so no square of a
    finite sample overflows; the scaling is exact, and samples of normal
    size give the bits of the unscaled arithmetic.

    Raises
    ------
    ValueError
        For fewer than two samples, a NaN or infinite sample or threshold,
        zero sample variance (the statistic is undefined), or a sample
        standard deviation beyond the float range.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("t test needs at least two samples")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    shift = -math.frexp(float(np.abs(x).max()))[1]
    x = np.ldexp(x, shift)
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise ValueError("zero sample variance: t statistic undefined")
    df = int(x.size - 1)
    with np.errstate(over="ignore"):  # past the float range: inf, refused below for the std
        statistic = (mean - float(np.ldexp(threshold, shift))) / (std / math.sqrt(x.size))
        mean, std = float(np.ldexp(mean, -shift)), float(np.ldexp(std, -shift))
    if math.isinf(std):
        raise ValueError("sample standard deviation beyond the float range")
    return TTestResult(statistic, df, mean, std, threshold, two_sided)
