"""Coincidence-experiment statistics: expectation values, the CHSH quantity,
marginal-law (no-signaling) checks, and a one-sample t test.

The tables they read, and the rules for their inputs, live in
bellkit.tables, in the outcome order (11, 12, 21, 22) described there.
"""
from __future__ import annotations

import math

import numpy as np

from . import _Record
from .tables import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset, check_probabilities

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
