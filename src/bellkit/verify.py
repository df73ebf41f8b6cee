"""Golden checks of the built-in reference results.

``run_verification`` re-derives the published numbers shipped with the
package (expectation values, marginal-law witnesses, reconstructed tables,
operator matrices) and runs the seeded property suites (factorization,
evolution structure, the CHSH bound, fit convergence).  Each check yields
one row with the measured value, the expected value, the tolerance, and a
pass/fail flag, so the command line can print a compact table and scripts
can gate on the aggregate result.

The three seeded suites (product-factorization, shared-basis-evolutions,
tsirelson-bound) run over a stack of trials at once.  Each makes one
``rng.standard_normal((trials, K))`` draw and cuts row i into the samples
that the per-trial helpers draw after skipping i * K normals
(``PAIR_LAYOUT``, ``QUARTET_LAYOUT``), so each trial is the model that the
sequential per-trial draws give.  The stacks
pass the checks the per-trial constructors make: isomorphisms and
evolutions unitary within 1e-9, probability tables finite, in [0, 1] and
summing to 1.  The trial the stack ranks worst is then drawn again on its
own and run through the public per-trial functions; a row fails when the
two routes differ by more than ``ROUTE_TOL`` in that trial's families,
state or property value.

Where shared-basis-evolutions and no-common-product-basis test
operator-Schmidt rank, a Gram-matrix bound rules out rank 1 without an SVD
for clearly entangled operators (entanglement._transported_is_product);
only the rest go through the SVD.  t-tail-reference builds its
200,001-point Simpson grid once per row and evaluates each (t, df) point in
that grid's two work buffers.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bellstats import (
    EXPERIMENT_KEYS,
    MARGINAL_PLAN,
    TSIRELSON_BOUND,
    CoincidenceTable,
    check_probabilities,
    chsh,
    chsh_combination,
    expectation_of,
    side_marginals,
    marginal_deviations,
    student_t_tail,
)
from .entanglement import (
    _haar_unitaries,
    _transported_is_product,
    canonical_iso_of,
    check_factorization,
    collapse_probabilities,
    evolution_between,
    is_product_evolution,
    marginal_product_deviations,
    operator_schmidt,
    random_isomorphism,
    refute_common_product_iso,
    states_equal_up_to_phase,
)
from .hilbert import check_unitary, tensor, unitary_deviation
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

# The complex samples one trial of a seeded suite draws, in draw order.  A
# sample of shape s takes prod(s) normals for its real parts, then prod(s)
# for its imaginary parts, as rng.standard_normal(s) + 1j *
# rng.standard_normal(s) draws them.
PAIR_LAYOUT = ((4, 4), (2, 2), (2, 2), (2,), (2,))  # iso, ua, ub, two qubit states
QUARTET_LAYOUT = ((4, 4), (2, 2), (2, 2), (2, 2), (2, 2), (4,))  # iso, ua, ua', ub, ub', psi

# The evolutions shared-basis-evolutions checks; each pair shares its A side.
EVOLUTION_PAIRS = (("AB", "AB'"), ("A'B", "A'B'"))

# Largest allowed difference between a suite's stacked value for a trial
# and the value the per-trial route gives for it.
ROUTE_TOL = 1e-12


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


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each vector along the last axis scaled to unit norm."""
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _orthonormal_columns(z: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the two columns of a 2x2 matrix, or of each matrix of
    a stack (..., 2, 2), first column first."""
    first = _unit_rows(z[..., 0])
    second = z[..., 1] - np.sum(first.conj() * z[..., 1], axis=-1, keepdims=True) * first
    return np.stack([first, _unit_rows(second)], axis=-1)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _unit_rows(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _unitary2(rng: np.random.Generator) -> np.ndarray:
    return _orthonormal_columns(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def _product_family(inverse: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> list:
    """Pull the product basis ua[:, i] (x) ub[:, j] back through an isomorphism.

    Column 2i + j of kron(ua, ub) is ua[:, i] (x) ub[:, j].
    """
    return list((inverse @ np.kron(ua, ub)).T)


def _random_product_pair(rng: np.random.Generator) -> tuple:
    """(iso, a product family pulled back through iso, a product state pulled
    back likewise), drawn in this order: iso, ua, ub, the two qubit states."""
    iso = random_isomorphism(rng)
    inverse = iso.matrix.conj().T
    family = _product_family(inverse, _unitary2(rng), _unitary2(rng))
    return iso, family, inverse @ tensor(_unit(rng, 2), _unit(rng, 2))


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


def _trial_tables(families: dict, psi) -> dict:
    """One CoincidenceTable per family of a single trial."""
    return {
        key: CoincidenceTable(key, *collapse_probabilities(np.column_stack(family), psi))
        for key, family in families.items()
    }


def _normals(layout) -> int:
    return sum(2 * math.prod(shape) for shape in layout)


def _draw_stack(rng: np.random.Generator, trials: int, layout) -> list:
    """One (trials, *shape) array per layout entry.  Row i holds the samples
    that the per-trial helpers draw after i * _normals(layout) normals."""
    normals = rng.standard_normal((trials, _normals(layout)))
    samples, start = [], 0
    for shape in layout:
        size = math.prod(shape)
        real = normals[:, start:start + size]
        imag = normals[:, start + size:start + 2 * size]
        samples.append((real + 1j * imag).reshape((trials, *shape)))
        start += 2 * size
    return samples


def _redraw(seed: int, trial: int, layout) -> np.random.Generator:
    """A generator of ``seed`` positioned at the first normal of ``trial``."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(trial * _normals(layout))
    return rng


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each pair of 2x2 matrices, or of 2-vectors, in two stacks."""
    if a.ndim == 2:
        return (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, 4, 4)


def _haar_stack(z: np.ndarray) -> tuple:
    """(isos, their inverses) from Ginibre samples, checked as Isomorphism checks."""
    isos = _haar_unitaries(z)
    check_unitary(isos, "isomorphism matrix")
    return isos, _dagger(isos)


def _pair_stack(rng: np.random.Generator, trials: int) -> tuple:
    """``trials`` draws of _random_product_pair at once: isos (T, 4, 4),
    families (T, 4, 4) with the family vectors as columns, states (T, 4)."""
    z_iso, z_ua, z_ub, z_a, z_b = _draw_stack(rng, trials, PAIR_LAYOUT)
    isos, inverse = _haar_stack(z_iso)
    families = inverse @ _kron_stack(_orthonormal_columns(z_ua), _orthonormal_columns(z_ub))
    states = (inverse @ _kron_stack(_unit_rows(z_a), _unit_rows(z_b))[:, :, None])[:, :, 0]
    return isos, families, states


def _quartet_stack(rng: np.random.Generator, trials: int) -> tuple:
    """``trials`` draws of _random_quartet at once: isos (T, 4, 4), the four
    families (T, 4, 4) with the family vectors as columns, states (T, 4)."""
    z_iso, z_ua, z_uap, z_ub, z_ubp, z_psi = _draw_stack(rng, trials, QUARTET_LAYOUT)
    isos, inverse = _haar_stack(z_iso)
    ua, uap, ub, ubp = (_orthonormal_columns(z) for z in (z_ua, z_uap, z_ub, z_ubp))
    families = {
        "AB": inverse @ _kron_stack(ua, ub),
        "AB'": inverse @ _kron_stack(ua, ubp),
        "A'B": inverse @ _kron_stack(uap, ub),
        "A'B'": inverse @ _kron_stack(uap, ubp),
    }
    return isos, families, _unit_rows(z_psi)


def _factorization_deviations(families: np.ndarray, states: np.ndarray) -> np.ndarray:
    """check_factorization's max_deviation, per trial."""
    joint = collapse_probabilities(families, states).reshape(-1, 2, 2)
    _, deviations = marginal_product_deviations(joint, joint.sum(axis=2), joint.sum(axis=1))
    return deviations.max(axis=(1, 2))


def _evolution_products(isos: np.ndarray, families: dict) -> np.ndarray:
    """Whether each evolution of EVOLUTION_PAIRS is product through its
    trial's iso, as is_product_evolution finds it: shape (T, 2).  The
    evolutions are checked as Evolution checks them."""
    products = []
    for src, dst in EVOLUTION_PAIRS:
        evolutions = families[dst] @ _dagger(families[src])
        check_unitary(evolutions, "evolution operator")
        products.append(_transported_is_product(isos, evolutions))
    return np.stack(products, axis=1)


def _table_stack(families: dict, states: np.ndarray) -> dict:
    """Each experiment's probabilities per trial (T, 4), checked as
    CoincidenceTable checks them."""
    tables = {key: collapse_probabilities(family, states) for key, family in families.items()}
    for key, probs in tables.items():
        check_probabilities(probs, key)
    return tables


def _worst_marginal_deviation(tables: dict) -> np.ndarray:
    """The largest of marginal_deviations' eight rows, per trial."""
    return np.max(
        [np.abs(side_marginals(tables[lhs], side) - side_marginals(tables[rhs], side)).max(axis=1)
         for _, lhs, rhs, side in MARGINAL_PLAN],
        axis=0,
    )


def _chsh_values(tables: dict) -> np.ndarray:
    """chsh(...).chsh, per trial."""
    return chsh_combination({key: expectation_of(p) for key, p in tables.items()})


def _model_gap(families: dict, states: np.ndarray, i: int, trial_families: dict, psi) -> float:
    """Largest entry difference between trial i of a stack and the same trial
    drawn on its own, so that a slip in the draw layout shows even where the
    suite's values sit at round-off."""
    gaps = [np.abs(families[key][i] - np.column_stack(trial_families[key])) for key in families]
    return float(max(np.max(gaps), np.max(np.abs(states[i] - psi))))


def _route_note(trial: int, gap: float) -> str:
    """Empty when the stacked and per-trial routes agree on ``trial``."""
    return "" if gap <= ROUTE_TOL else f"; trial {trial} differs from the per-trial route by {gap:.2e}"


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


def _check_model_probabilities(fixture: tuple | None = None) -> CheckRow:
    state, models, dataset = fixture or reference_fixture()

    def worst_dev():
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


def _check_operator_entries(fixture: tuple | None = None) -> CheckRow:
    _, models, _ = fixture or reference_fixture()

    def worst_dev():
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
    seed = 101

    def run():
        _, families, states = _pair_stack(np.random.default_rng(seed), trials)
        deviations = _factorization_deviations(families, states)
        i = int(np.argmax(deviations))
        _, family, state = _random_product_pair(_redraw(seed, i, PAIR_LAYOUT))
        gap = max(abs(check_factorization(state, family).max_deviation - deviations[i]),
                  _model_gap({"": families}, states, i, {"": family}, state))
        return float(deviations[i]), _route_note(i, gap)

    (worst, disagreement), elapsed = _timed(run)
    return CheckRow(
        name="product-factorization",
        passed=worst <= 1e-10 and not disagreement and elapsed < 1.0,
        measured=f"worst joint-vs-marginal-product deviation {worst:.2e}",
        expected="joint probabilities factorize for product state/measurement pairs",
        tolerance="1e-10; runtime < 1 s",
        note=f"{trials} seeded random pairs{disagreement}",
        elapsed_ms=elapsed * 1e3,
    )


def _check_shared_basis_evolutions(sets: int = 500) -> CheckRow:
    seed = 102

    def run():
        isos, families, states = _quartet_stack(np.random.default_rng(seed), sets)
        non_product = np.sum(~_evolution_products(isos, families), axis=1)
        marginal = _worst_marginal_deviation(_table_stack(families, states))
        i = int(np.argmax(non_product) if non_product.any() else np.argmax(marginal))
        iso, trial_families, psi = _random_quartet(_redraw(seed, i, QUARTET_LAYOUT))
        failures = sum(
            not is_product_evolution(evolution_between(trial_families[src], trial_families[dst]), iso)
            for src, dst in EVOLUTION_PAIRS
        )
        rows = marginal_deviations(_trial_tables(trial_families, psi))
        deviation = max(row.deviation for row in rows)
        gap = max(abs(failures - non_product[i]), abs(deviation - marginal[i]),
                  _model_gap(families, states, i, trial_families, psi))
        return float(marginal.max()), int(non_product.sum()), _route_note(i, gap)

    (worst_marginal, product_failures, disagreement), elapsed = _timed(run)
    return CheckRow(
        name="shared-basis-evolutions",
        passed=product_failures == 0 and worst_marginal <= 1e-10 and not disagreement
        and elapsed < 5.0,
        measured=(
            f"{product_failures} non-product evolutions, "
            f"worst marginal deviation {worst_marginal:.2e}"
        ),
        expected="evolutions between same-basis product measurements are product; "
        "marginals stay put",
        tolerance="rank tolerance 1e-7, marginals 1e-10; runtime < 5 s",
        note=f"{sets} seeded measurement quartets = {2 * sets} evolution pairs{disagreement}",
        elapsed_ms=elapsed * 1e3,
    )


def _check_own_basis_product_form(fixture: tuple | None = None) -> CheckRow:
    state, models, _ = fixture or reference_fixture()

    def run():
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


def _check_no_common_product_basis(n_trials: int = 10_000,
                                   fixture: tuple | None = None) -> CheckRow:
    _, models, _ = fixture or reference_fixture()

    def run():
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
    seed = 103

    def run():
        _, families, states = _quartet_stack(np.random.default_rng(seed), trials)
        values = np.abs(_chsh_values(_table_stack(families, states)))
        i = int(np.argmax(values))
        _, trial_families, psi = _random_quartet(_redraw(seed, i, QUARTET_LAYOUT))
        reference = abs(chsh(_trial_tables(trial_families, psi)).chsh)
        gap = max(abs(reference - values[i]), _model_gap(families, states, i, trial_families, psi))
        return float(values[i]), _route_note(i, gap)

    (worst, disagreement), elapsed = _timed(run)
    return CheckRow(
        name="tsirelson-bound",
        passed=worst <= TSIRELSON_BOUND + 1e-9 and not disagreement,
        measured=f"largest |CHSH| {worst:.6f}",
        expected=f"|CHSH| <= 2*sqrt(2) = {TSIRELSON_BOUND:.6f} for product models",
        tolerance="1e-9 slack",
        note=f"{trials} seeded single-identification product models{disagreement}",
        elapsed_ms=elapsed * 1e3,
    )


def _check_basis_fit_convergence(fixture: tuple | None = None) -> CheckRow:
    state, _, dataset = fixture or reference_fixture()

    def run():
        fits = [fit_basis(state, dataset.tables[key], FitConfig(seed=0, target_misfit=1e-8))
                for key in EXPERIMENT_KEYS]
        return (max(fit.misfit for fit in fits),
                max(unitary_deviation(fit.matrix) for fit in fits))

    (worst_misfit, worst_unitarity), elapsed = _timed(run)
    return CheckRow(
        name="basis-fit-convergence",
        passed=worst_misfit <= 1e-8 and worst_unitarity <= 1e-12 and elapsed < 60.0,
        measured=f"worst misfit {worst_misfit:.2e}, worst unitarity error {worst_unitarity:.2e}",
        expected="all four reference tables fit from the reference state",
        tolerance="misfit 1e-8; each basis unitary within 1e-12; runtime < 60 s",
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


def _t_tail_grid(points: int = 200_001) -> tuple:
    """The quadrature grid of _reference_t_tail: sin theta and the
    Simpson-weighted cos theta * h / 3 on ``points`` evenly spaced theta in
    [0, pi/2], then two work buffers of the same length."""
    thetas = np.linspace(0.0, math.pi / 2.0, points)
    h = thetas[1] - thetas[0]
    sines = np.sin(thetas)
    weighted = np.cos(thetas, out=thetas)
    weighted *= h / 3.0
    weighted[1:-1:2] *= 4.0
    weighted[2:-1:2] *= 2.0
    return sines, weighted, np.empty(points), np.empty(points)


def _reference_t_tail(t: float, df: int, points: int = 200_001, grid: tuple | None = None) -> float:
    """P(T > t) via the regularized incomplete beta function.

    For t >= 0 the tail equals I_x(df/2, 1/2) / 2 with x = df / (df + t^2).
    The substitution u = x sin^2(theta) removes both endpoint singularities,
    leaving a smooth integrand for a ``points``-point Simpson rule.
    Independent of the cosine-power route used by the statistics module.
    ``grid``, when given, is _t_tail_grid(points): callers evaluating many
    (t, df) pairs build it once, and each call writes the integrand into its
    work buffers, so no call allocates a grid-sized array.
    """
    if t < 0.0:
        return 1.0 - _reference_t_tail(-t, df, points, grid)
    if t == 0.0:
        return 0.5  # x = 1 makes the integrand 0/0 at the endpoint; symmetry is exact
    sines, weighted, integrand, root = grid if grid is not None else _t_tail_grid(points)
    a = df / 2.0
    x = df / (df + t * t)
    np.power(sines, 2.0 * a - 1.0, out=integrand)
    np.multiply(sines, sines, out=root)
    root *= -x
    root += 1.0
    np.sqrt(root, out=root)
    integrand /= root
    # einsum's own loop: a BLAS dot of this length would wake BLAS threads
    incomplete = 2.0 * x**a * float(np.einsum("i,i", integrand, weighted))
    complete = math.gamma(a) * math.gamma(0.5) / math.gamma(a + 0.5)
    return 0.5 * incomplete / complete


def _check_t_tail_reference() -> CheckRow:
    points = ((0.534522483824849, 3), (2.0, 10), (1.2, 80), (2.66, 80), (0.0, 7), (-1.0, 5))

    def worst_dev():
        grid = _t_tail_grid()
        return max(abs(student_t_tail(t, df) - _reference_t_tail(t, df, grid=grid))
                   for t, df in points)

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

    The reference fixture is built once and shared by the rows that read
    it; none of them changes it.  Returns a list of CheckRow.  The aggregate
    verdict is ``all(row.passed for row in rows)``.
    """
    fixture = reference_fixture()
    if dataset is None:
        dataset = fixture[2]
    return [
        _check_chsh_values(dataset),
        _check_marginal_witnesses(dataset),
        _check_model_probabilities(fixture),
        _check_operator_entries(fixture),
        _check_product_factorization(),
        _check_shared_basis_evolutions(),
        _check_own_basis_product_form(fixture),
        _check_no_common_product_basis(fixture=fixture),
        _check_tsirelson_bound(),
        _check_basis_fit_convergence(fixture),
        _check_p_value_context(),
        _check_t_tail_reference(),
    ]
