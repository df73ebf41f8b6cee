"""Golden checks of the built-in reference results.

``run_verification`` re-derives the published numbers shipped with the
package (expectation values, marginal-law witnesses, reconstructed tables,
operator matrices) and runs the seeded property suites (factorization,
evolution structure, the CHSH bound, fit convergence).  Each check yields
one row with the measured value, the expected value, the tolerance, and a
pass/fail flag, so the command line can print a compact table and scripts
can gate on the aggregate result.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bellstats import (
    EXPERIMENT_KEYS,
    TSIRELSON_BOUND,
    CoincidenceTable,
    chsh,
    marginal_deviations,
    student_t_tail,
)
from .entanglement import (
    canonical_iso_of,
    check_factorization,
    evolution_between,
    is_product_evolution,
    operator_schmidt,
    random_isomorphism,
    refute_common_product_iso,
    states_equal_up_to_phase,
)
from .hilbert import tensor
from .modelfit import (
    FitConfig,
    fit_basis,
    probabilities_from_model,
    reference_fixture,
    reference_published_operators,
)

# Published values the reference dataset must reproduce.
EXPECTED_E = {"AB": -0.7778, "A'B": 0.6543, "AB'": 0.3580, "A'B'": 0.6296}
EXPECTED_CHSH = 2.4197
# First-outcome marginal of one side across the two experiments sharing it:
# (side, value in the lhs experiment, value in the rhs experiment).
EXPECTED_WITNESSES = (("A", 0.679, 0.618), ("A'", 0.864, 0.234))
PUBLISHED_P_VALUE = 0.0171


@dataclass
class CheckRow:
    """One verification row: measured vs expected at a stated tolerance."""

    name: str
    passed: bool
    measured: str
    expected: str
    tolerance: str
    note: str = ""
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        # Cast defensively: comparisons against numpy floats produce numpy
        # scalars, which json.dumps refuses.
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "note": self.note,
            "elapsed_ms": float(self.elapsed_ms),
        }


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return (last result, best wall seconds)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _unitary2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    first = z[:, 0] / np.linalg.norm(z[:, 0])
    second = z[:, 1] - np.vdot(first, z[:, 1]) * first
    return np.column_stack([first, second / np.linalg.norm(second)])


def _product_family(inverse: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> list:
    """Pull the product basis ua[:, i] (x) ub[:, j] back through an isomorphism.

    Column 2i + j of kron(ua, ub) is ua[:, i] (x) ub[:, j].
    """
    return list((inverse @ np.kron(ua, ub)).T)


def _random_quartet(rng: np.random.Generator) -> tuple:
    """(iso, four product families pulled back through iso, a state psi), drawn
    in this order: iso, ua, ua', ub, ub', psi."""
    iso = random_isomorphism(rng)
    inverse = iso.matrix.conj().T
    ua, uap, ub, ubp = (_unitary2(rng) for _ in range(4))
    families = {
        "AB": _product_family(inverse, ua, ub),
        "AB'": _product_family(inverse, ua, ubp),
        "A'B": _product_family(inverse, uap, ub),
        "A'B'": _product_family(inverse, uap, ubp),
    }
    return iso, families, _unit(rng, 4)


def _table_of(family, psi, key: str) -> CoincidenceTable:
    probs = [abs(np.vdot(v, psi)) ** 2 for v in family]
    return CoincidenceTable(key, *probs)


def _check_chsh_values(dataset) -> CheckRow:
    report, elapsed = _timed(lambda: chsh(dataset), repeats=5)
    worst = max(abs(report.e_values[k] - EXPECTED_E[k]) for k in EXPERIMENT_KEYS)
    worst = max(worst, abs(report.chsh - EXPECTED_CHSH))
    measured = ", ".join(f"E({k})={report.e_values[k]:+.5f}" for k in EXPERIMENT_KEYS)
    expected = ", ".join(f"E({k})={EXPECTED_E[k]:+.4f}" for k in EXPERIMENT_KEYS)
    return CheckRow(
        name="chsh-values",
        passed=worst <= 5e-4 and elapsed < 1e-3,
        measured=f"{measured}, CHSH={report.chsh:.5f}",
        expected=f"{expected}, CHSH={EXPECTED_CHSH}",
        tolerance="5e-4 each; runtime < 1 ms",
        note=f"violation verdict {report.violates}, bound gap {report.tsirelson_gap:.5f}",
        elapsed_ms=elapsed * 1e3,
    )


def _check_marginal_witnesses(dataset) -> CheckRow:
    rows, elapsed = _timed(lambda: marginal_deviations(dataset), repeats=5)
    first_outcome = {r.side: r for r in rows if r.outcome == 1}
    worst = 0.0
    measured_parts = []
    expected_parts = []
    for side, lhs_expected, rhs_expected in EXPECTED_WITNESSES:
        row = first_outcome[side]
        worst = max(worst, abs(row.lhs - lhs_expected), abs(row.rhs - rhs_expected))
        measured_parts.append(f"p({side}=1): {row.lhs:.4f} vs {row.rhs:.4f}")
        expected_parts.append(f"p({side}=1): {lhs_expected} vs {rhs_expected}")
    return CheckRow(
        name="marginal-witnesses",
        passed=worst <= 1e-3 and elapsed < 1e-3,
        measured="; ".join(measured_parts),
        expected="; ".join(expected_parts),
        tolerance="1e-3 each; runtime < 1 ms",
        note="same-side marginals from the two experiments sharing that side",
        elapsed_ms=elapsed * 1e3,
    )


def _check_model_probabilities() -> CheckRow:
    def worst_dev():
        state, models, dataset = reference_fixture()
        worst = 0.0
        for key in EXPERIMENT_KEYS:
            table = probabilities_from_model(state, models[key])
            worst = max(
                worst, float(np.max(np.abs(table.probabilities - dataset.tables[key].probabilities)))
            )
        return worst

    worst, elapsed = _timed(worst_dev)
    return CheckRow(
        name="model-probabilities",
        passed=worst <= 0.03,
        measured=f"worst of 16 coincidence probabilities off by {worst:.4f}",
        expected="reference tables reproduced from the rounded state and bases",
        tolerance="0.03 (two-decimal inputs)",
        elapsed_ms=elapsed * 1e3,
    )


def _check_operator_entries() -> CheckRow:
    def worst_dev():
        _, models, _ = reference_fixture()
        published = reference_published_operators()
        worst = 0.0
        for key in EXPERIMENT_KEYS:
            diff = models[key].operator - published[key]
            worst = max(worst, float(np.max(np.abs(diff.real))), float(np.max(np.abs(diff.imag))))
        return worst

    worst, elapsed = _timed(worst_dev)
    return CheckRow(
        name="operator-entries",
        passed=worst <= 0.01,
        measured=f"worst entry deviation {worst:.4f} (real/imaginary parts)",
        expected="synthesized operators match the published matrices",
        tolerance="0.01 per part (three-decimal references)",
        elapsed_ms=elapsed * 1e3,
    )


def _check_product_factorization(trials: int = 1000) -> CheckRow:
    def worst_dev():
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(trials):
            iso = random_isomorphism(rng)
            inverse = iso.matrix.conj().T
            family = _product_family(inverse, _unitary2(rng), _unitary2(rng))
            psi = inverse @ tensor(_unit(rng, 2), _unit(rng, 2))
            worst = max(worst, check_factorization(psi, family).max_deviation)
        return worst

    worst, elapsed = _timed(worst_dev)
    return CheckRow(
        name="product-factorization",
        passed=worst <= 1e-10 and elapsed < 1.0,
        measured=f"worst joint-vs-marginal-product deviation {worst:.2e}",
        expected="joint probabilities factorize for product state/measurement pairs",
        tolerance="1e-10; runtime < 1 s",
        note=f"{trials} seeded random pairs",
        elapsed_ms=elapsed * 1e3,
    )


def _check_shared_basis_evolutions(sets: int = 500) -> CheckRow:
    def run():
        rng = np.random.default_rng(102)
        worst_marginal = 0.0
        product_failures = 0
        for _ in range(sets):
            iso, families, psi = _random_quartet(rng)
            for src, dst in (("AB", "AB'"), ("A'B", "A'B'")):
                evolution = evolution_between(families[src], families[dst])
                if not is_product_evolution(evolution, iso):
                    product_failures += 1
            tables = {key: _table_of(families[key], psi, key) for key in families}
            worst_marginal = max(
                worst_marginal, max(row.deviation for row in marginal_deviations(tables))
            )
        return worst_marginal, product_failures

    (worst_marginal, product_failures), elapsed = _timed(run)
    return CheckRow(
        name="shared-basis-evolutions",
        passed=product_failures == 0 and worst_marginal <= 1e-10 and elapsed < 5.0,
        measured=(
            f"{product_failures} non-product evolutions, "
            f"worst marginal deviation {worst_marginal:.2e}"
        ),
        expected="evolutions between same-basis product measurements are product; "
        "marginals stay put",
        tolerance="rank tolerance 1e-7, marginals 1e-10; runtime < 5 s",
        note=f"{sets} seeded measurement quartets = {2 * sets} evolution pairs",
        elapsed_ms=elapsed * 1e3,
    )


def _check_own_basis_product_form() -> CheckRow:
    def run():
        state, models, _ = reference_fixture()
        ranks = {}
        for key in EXPERIMENT_KEYS:
            iso = canonical_iso_of(models[key])
            ranks[key] = operator_schmidt(models[key].operator, iso).rank()
        image_ab = canonical_iso_of(models["AB"]).apply(state)
        image_abp = canonical_iso_of(models["AB'"]).apply(state)
        overlap = abs(np.vdot(image_ab, image_abp))
        same = states_equal_up_to_phase(image_ab, image_abp)
        return ranks, overlap, same

    (ranks, overlap, same), elapsed = _timed(run)
    rank_text = ", ".join(f"{key}: {ranks[key]}" for key in EXPERIMENT_KEYS)
    return CheckRow(
        name="own-basis-product-form",
        passed=all(rank == 1 for rank in ranks.values()) and not same and overlap < 0.99,
        measured=f"ranks {rank_text}; contextual image overlap {overlap:.4f}",
        expected="rank 1 under each measurement's own identification; overlap < 0.99",
        tolerance="rank tolerance 1e-7",
        note="the state's two contextual images are genuinely different vectors",
        elapsed_ms=elapsed * 1e3,
    )


def _check_no_common_product_basis(n_trials: int = 10_000) -> CheckRow:
    def run():
        _, models, _ = reference_fixture()
        operators = [models[key].operator for key in EXPERIMENT_KEYS]
        canonical_ranks = [operator_schmidt(op).rank() for op in operators]
        extra = [canonical_iso_of(models[key]) for key in EXPERIMENT_KEYS]
        result = refute_common_product_iso(operators, extra_isos=extra, n_trials=n_trials, seed=0)
        return canonical_ranks, result

    (canonical_ranks, result), elapsed = _timed(run)
    return CheckRow(
        name="no-common-product-basis",
        passed=any(rank > 1 for rank in canonical_ranks) and not result.found,
        measured=(
            f"canonical ranks {tuple(canonical_ranks)}; "
            f"no common product identification in {result.trials} candidates"
        ),
        expected="entangled under the canonical identification; randomized search finds "
        "no identification rendering all four product",
        tolerance=f"rank tolerance 1e-7; {n_trials} random candidates plus the four own bases",
        note="a not-found result is evidence, not proof",
        elapsed_ms=elapsed * 1e3,
    )


def _check_tsirelson_bound(trials: int = 1000) -> CheckRow:
    def run():
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(trials):
            _, families, psi = _random_quartet(rng)
            tables = {key: _table_of(families[key], psi, key) for key in families}
            worst = max(worst, abs(chsh(tables).chsh))
        return worst

    worst, elapsed = _timed(run)
    return CheckRow(
        name="tsirelson-bound",
        passed=worst <= TSIRELSON_BOUND + 1e-9,
        measured=f"largest |CHSH| {worst:.6f}",
        expected=f"|CHSH| <= 2*sqrt(2) = {TSIRELSON_BOUND:.6f} for product models",
        tolerance="1e-9 slack",
        note=f"{trials} seeded single-identification product models",
        elapsed_ms=elapsed * 1e3,
    )


def _check_basis_fit_convergence() -> CheckRow:
    def run():
        state, _, dataset = reference_fixture()
        summaries = {}
        for key in EXPERIMENT_KEYS:
            result = fit_basis(state, dataset.tables[key], FitConfig(seed=0, target_misfit=1e-8))
            summaries[key] = (result.misfit, result.converged, result.restarts_used)
        return summaries

    summaries, elapsed = _timed(run)
    worst_misfit = max(misfit for misfit, _, _ in summaries.values())
    all_converged = all(converged for _, converged, _ in summaries.values())
    max_restarts = max(restarts for _, _, restarts in summaries.values())
    return CheckRow(
        name="basis-fit-convergence",
        passed=all_converged and worst_misfit <= 1e-8 and max_restarts <= 64 and elapsed < 60.0,
        measured=f"worst misfit {worst_misfit:.2e}, max restarts {max_restarts}",
        expected="all four reference tables fit from the reference state",
        tolerance="misfit 1e-8 within 64 restarts; runtime < 60 s",
        elapsed_ms=elapsed * 1e3,
    )


def _check_p_value_context() -> CheckRow:
    return CheckRow(
        name="p-value-context",
        passed=True,
        measured=f"published p = {PUBLISHED_P_VALUE}",
        expected="not regenerable",
        tolerance="informational",
        note=(
            "the built-in dataset carries aggregate counts only; without per-subject "
            "outcome sequences the t statistic behind this p-value cannot be recomputed"
        ),
    )


def _reference_t_tail(t: float, df: int, points: int = 200_001) -> float:
    """P(T > t) via the regularized incomplete beta function.

    For t >= 0 the tail equals I_x(df/2, 1/2) / 2 with x = df / (df + t^2).
    The substitution u = x sin^2(theta) removes both endpoint singularities,
    leaving a smooth integrand for Simpson's rule.  Independent of the
    cosine-power route used by the statistics module.
    """
    if t < 0.0:
        return 1.0 - _reference_t_tail(-t, df, points)
    if t == 0.0:
        return 0.5  # x = 1 makes the integrand 0/0 at the endpoint; symmetry is exact
    a = df / 2.0
    x = df / (df + t * t)
    thetas = np.linspace(0.0, math.pi / 2.0, points)
    integrand = (
        2.0
        * x**a
        * np.sin(thetas) ** (2.0 * a - 1.0)
        * np.cos(thetas)
        / np.sqrt(1.0 - x * np.sin(thetas) ** 2)
    )
    h = thetas[1] - thetas[0]
    weights = np.ones(points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    incomplete = float(np.sum(weights * integrand)) * h / 3.0
    complete = math.gamma(a) * math.gamma(0.5) / math.gamma(a + 0.5)
    return 0.5 * incomplete / complete


def _check_t_tail_reference() -> CheckRow:
    points = ((0.534522483824849, 3), (2.0, 10), (1.2, 80), (2.66, 80), (0.0, 7), (-1.0, 5))

    def worst_dev():
        return max(abs(student_t_tail(t, df) - _reference_t_tail(t, df)) for t, df in points)

    worst, elapsed = _timed(worst_dev)
    return CheckRow(
        name="t-tail-reference",
        passed=worst <= 1e-6,
        measured=f"worst tail-probability disagreement {worst:.2e}",
        expected="two independent integration routes agree",
        tolerance="1e-6",
        note=f"checked at {len(points)} (t, df) points including df = 80",
        elapsed_ms=elapsed * 1e3,
    )


def run_verification(dataset=None) -> list:
    """All golden checks; rows 1-2 run on ``dataset`` (default: built-in).

    Returns a list of CheckRow.  The aggregate verdict is
    ``all(row.passed for row in rows)``.
    """
    if dataset is None:
        _, _, dataset = reference_fixture()
    return [
        _check_chsh_values(dataset),
        _check_marginal_witnesses(dataset),
        _check_model_probabilities(),
        _check_operator_entries(),
        _check_product_factorization(),
        _check_shared_basis_evolutions(),
        _check_own_basis_product_form(),
        _check_no_common_product_basis(),
        _check_tsirelson_bound(),
        _check_basis_fit_convergence(),
        _check_p_value_context(),
        _check_t_tail_reference(),
    ]
