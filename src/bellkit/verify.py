"""Golden checks of the built-in reference results.

``run_verification`` re-derives the published numbers shipped with the
package (expectation values, marginal-law witnesses, reconstructed tables,
operator matrices) and runs the seeded property suites (factorization,
evolution structure, the CHSH bound, fit convergence).  Each check yields
one row with the measured value, the expected value, the tolerance, and a
pass/fail flag, so the command line can print a compact table and scripts
can gate on the aggregate result.  Each ``_check_*`` is a plain function of
its data: no verdict reads the clock.  ``run_verification`` alone times the
rows, each whole check, into ``CheckRow.elapsed_ms``; the runtime budgets
are asserted in the acceptance tests, not here.

The three seeded suites (product-factorization, shared-basis-evolutions,
tsirelson-bound) run over a stack of trials at once.  Each makes one
``rng.standard_normal((trials, K))`` draw and cuts row i into trial i's
samples, K normals per trial in draw order (``PAIR_LAYOUT``,
``QUARTET_LAYOUT``).  The stacks pass the checks the per-trial
constructors make: isomorphisms and evolutions unitary within 1e-9,
probability tables finite, in [0, 1] and summing to 1.  The trial the
stack ranks worst is then taken from the stack and run through the public
per-trial functions; a row fails when the stacked and the public value of
its property differ by more than ``ROUTE_TOL``.

The suites' Haar-random isomorphisms come from an elementwise Gram-Schmidt
(entanglement._haar_unitaries) that gives each trial the same bits in a
stack as alone.  no-common-product-basis proves its verdict
(entanglement.refute_common_product_iso): a common product identification
would carry every word M_i M_j M_k of the measurements to a product X (x) Y,
whose eigenvalues pair as l_1 l_4 = l_2 l_3, and the row passes when some
word's eigenvalues miss every such pairing by more than
entanglement.WORD_DEFECT_FLOOR.  Where shared-basis-evolutions tests
operator-Schmidt rank, entanglement._transported_is_product transports a
whole stack by plain matrix products: a bound on the exact 2x2 minors of the
reshuffle proves rank 1 for product operators, and one SVD call settles the
rest.
t-tail-reference compares the statistics module's quadrature with the
closed-form finite sums of Abramowitz & Stegun 26.7.3-26.7.4.
"""
from __future__ import annotations

import math
import time

import numpy as np

from . import _Record
from .bellstats import (
    MARGINAL_PLAN,
    TSIRELSON_BOUND,
    chsh,
    chsh_combination,
    expectation_of,
    side_marginals,
    marginal_deviations,
    student_t_tail,
)
from .entanglement import (
    WORD_DEFECT_FLOOR,
    Isomorphism,
    _haar_unitaries,
    _transported_is_product,
    canonical_iso_of,
    check_factorization,
    collapse_probabilities,
    evolution_between,
    is_product_evolution,
    marginal_product_deviations,
    operator_schmidt,
    random_isomorphism,  # not called, like tensor: perfbench/spans.py wraps verify's binding of both
    refute_common_product_iso,
    states_equal_up_to_phase,
)
from .fitting import fit_basis
from .hilbert import check_unitary, tensor, unitary_deviation
from .modelfit import probabilities_from_model, reference_fixture, reference_published_operators
from .tables import EXPERIMENT_KEYS, CoincidenceTable, check_probabilities

# Published values the reference dataset must reproduce.
EXPECTED_E = {"AB": -0.7778, "A'B": 0.6543, "AB'": 0.3580, "A'B'": 0.6296}
EXPECTED_CHSH = 2.4197
# First-outcome marginal of one side across the two experiments sharing it:
# (side, value in the lhs experiment, value in the rhs experiment).
EXPECTED_WITNESSES = (("A", 0.679, 0.618), ("A'", 0.864, 0.234))
PUBLISHED_P_VALUE = 0.0171

# The complex samples of one trial of a seeded suite, in draw order.  A
# sample of shape s takes prod(s) normals for its real parts, then prod(s)
# for its imaginary parts, as rng.standard_normal(s) + 1j *
# rng.standard_normal(s) would draw them one trial at a time.
PAIR_LAYOUT = ((4, 4), (2, 2), (2, 2), (2,), (2,))  # iso, ua, ub, two qubit states
QUARTET_LAYOUT = ((4, 4), (2, 2), (2, 2), (2, 2), (2, 2), (4,))  # iso, ua, ua', ub, ub', psi

# The evolutions shared-basis-evolutions checks; each pair shares its A side.
EVOLUTION_PAIRS = (("AB", "AB'"), ("A'B", "A'B'"))

# Largest allowed difference between a suite's stacked value for a trial
# and the value the per-trial route gives for it.
ROUTE_TOL = 1e-12


class CheckRow(_Record):
    """One verification row: measured vs expected at a stated tolerance.

    ``passed`` depends on the measured values only.  ``elapsed_ms`` is the
    wall time of the whole check, set by run_verification; the CLI prints
    it in JSON rows only.
    """

    def __init__(self, name: str, passed: bool, measured: str, expected: str, tolerance: str,
                 note: str = "", elapsed_ms: float = 0.0):
        self.name, self.passed = name, passed
        self.measured, self.expected, self.tolerance = measured, expected, tolerance
        self.note, self.elapsed_ms = note, elapsed_ms

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


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each vector along the last axis scaled to unit norm."""
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _orthonormal_columns(z: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the two columns of a 2x2 matrix, or of each matrix of
    a stack (..., 2, 2), first column first."""
    first = _unit_rows(z[..., 0])
    second = z[..., 1] - np.sum(first.conj() * z[..., 1], axis=-1, keepdims=True) * first
    return np.stack([first, _unit_rows(second)], axis=-1)


def _trial_tables(families: dict, states: np.ndarray, i: int) -> dict:
    """One CoincidenceTable per family of trial i of a stack."""
    return {
        key: CoincidenceTable(key, *collapse_probabilities(family[i], states[i]))
        for key, family in families.items()
    }


def _normals(layout) -> int:
    return sum(2 * math.prod(shape) for shape in layout)


def _draw_stack(rng: np.random.Generator, trials: int, layout) -> list:
    """One (trials, *shape) array per layout entry.  Row i holds the samples
    drawn after i * _normals(layout) normals, in layout order."""
    normals = rng.standard_normal((trials, _normals(layout)))
    samples, start = [], 0
    for shape in layout:
        size = math.prod(shape)
        real = normals[:, start:start + size]
        imag = normals[:, start + size:start + 2 * size]
        samples.append((real + 1j * imag).reshape((trials, *shape)))
        start += 2 * size
    return samples


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
    """``trials`` random product pairs at once: Haar isos (T, 4, 4), the
    product bases ua (x) ub pulled back through each iso as the columns of
    families (T, 4, 4), and product states pulled back likewise (T, 4)."""
    z_iso, z_ua, z_ub, z_a, z_b = _draw_stack(rng, trials, PAIR_LAYOUT)
    isos, inverse = _haar_stack(z_iso)
    families = inverse @ _kron_stack(_orthonormal_columns(z_ua), _orthonormal_columns(z_ub))
    states = (inverse @ _kron_stack(_unit_rows(z_a), _unit_rows(z_b))[:, :, None])[:, :, 0]
    return isos, families, states


def _quartet_stack(rng: np.random.Generator, trials: int) -> tuple:
    """``trials`` random product quartets at once: Haar isos (T, 4, 4), the
    four product bases of ua, ua', ub, ub' pulled back through each iso as
    the columns of families (T, 4, 4), and random unit states (T, 4)."""
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
    trial's iso, as is_product_evolution finds it: shape (T, 2), from the
    exact minors of each transport and an SVD of those they do not prove
    product.  The evolutions are checked as Evolution checks them."""
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


def _route_note(trial: int, gap: float) -> str:
    """Empty when the stacked and per-trial routes agree on ``trial``."""
    return "" if gap <= ROUTE_TOL else f"; trial {trial} differs from the per-trial route by {gap:.2e}"


def _check_chsh_values(dataset) -> CheckRow:
    report = chsh(dataset)
    worst = max(abs(report.e_values[k] - EXPECTED_E[k]) for k in EXPERIMENT_KEYS)
    worst = max(worst, abs(report.chsh - EXPECTED_CHSH))
    measured = ", ".join(f"E({k})={report.e_values[k]:+.5f}" for k in EXPERIMENT_KEYS)
    expected = ", ".join(f"E({k})={EXPECTED_E[k]:+.4f}" for k in EXPERIMENT_KEYS)
    return CheckRow(
        name="chsh-values",
        passed=worst <= 5e-4,
        measured=f"{measured}, CHSH={report.chsh:.5f}",
        expected=f"{expected}, CHSH={EXPECTED_CHSH}",
        tolerance="5e-4 each",
        note=f"violation verdict {report.violates}, bound gap {report.tsirelson_gap:.5f}",
    )


def _check_marginal_witnesses(dataset) -> CheckRow:
    first_outcome = {r.side: r for r in marginal_deviations(dataset) if r.outcome == 1}
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
        passed=worst <= 1e-3,
        measured="; ".join(measured_parts),
        expected="; ".join(expected_parts),
        tolerance="1e-3 each",
        note="same-side marginals from the two experiments sharing that side",
    )


def _check_model_probabilities(fixture: tuple) -> CheckRow:
    state, models, dataset = fixture
    worst = 0.0
    for key in EXPERIMENT_KEYS:
        table = probabilities_from_model(state, models[key])
        worst = max(worst, float(np.max(np.abs(table.probabilities - dataset.tables[key].probabilities))))
    return CheckRow(
        name="model-probabilities",
        passed=worst <= 0.03,
        measured=f"worst of 16 coincidence probabilities off by {worst:.4f}",
        expected="reference tables reproduced from the rounded state and bases",
        tolerance="0.03 (two-decimal inputs)",
    )


def _check_operator_entries(fixture: tuple) -> CheckRow:
    _, models, _ = fixture
    published = reference_published_operators()
    worst = 0.0
    for key in EXPERIMENT_KEYS:
        diff = models[key].operator - published[key]
        worst = max(worst, float(np.max(np.abs(diff.real))), float(np.max(np.abs(diff.imag))))
    return CheckRow(
        name="operator-entries",
        passed=worst <= 0.01,
        measured=f"worst entry deviation {worst:.4f} (real/imaginary parts)",
        expected="synthesized operators match the published matrices",
        tolerance="0.01 per part (three-decimal references)",
    )


FACTORIZATION_PAIRS = 1000


def _check_product_factorization() -> CheckRow:
    _, families, states = _pair_stack(np.random.default_rng(101), FACTORIZATION_PAIRS)
    deviations = _factorization_deviations(families, states)
    i = int(np.argmax(deviations))
    gap = abs(check_factorization(states[i], families[i].T).max_deviation - deviations[i])
    worst, disagreement = float(deviations[i]), _route_note(i, gap)
    return CheckRow(
        name="product-factorization",
        passed=worst <= 1e-10 and not disagreement,
        measured=f"worst joint-vs-marginal-product deviation {worst:.2e}",
        expected="joint probabilities factorize for product state/measurement pairs",
        tolerance="1e-10",
        note=f"{FACTORIZATION_PAIRS} seeded random pairs{disagreement}",
    )


EVOLUTION_QUARTETS = 500


def _check_shared_basis_evolutions() -> CheckRow:
    isos, families, states = _quartet_stack(np.random.default_rng(102), EVOLUTION_QUARTETS)
    non_product = np.sum(~_evolution_products(isos, families), axis=1)
    marginal = _worst_marginal_deviation(_table_stack(families, states))
    i = int(np.argmax(non_product) if non_product.any() else np.argmax(marginal))
    iso = Isomorphism(isos[i], name="random")
    failures = sum(
        not is_product_evolution(evolution_between(families[src][i].T, families[dst][i].T), iso)
        for src, dst in EVOLUTION_PAIRS
    )
    deviation = max(row.deviation for row in marginal_deviations(_trial_tables(families, states, i)))
    gap = max(abs(failures - non_product[i]), abs(deviation - marginal[i]))
    worst_marginal, product_failures = float(marginal.max()), int(non_product.sum())
    disagreement = _route_note(i, gap)
    return CheckRow(
        name="shared-basis-evolutions",
        passed=product_failures == 0 and worst_marginal <= 1e-10 and not disagreement,
        measured=(
            f"{product_failures} non-product evolutions, "
            f"worst marginal deviation {worst_marginal:.2e}"
        ),
        expected="evolutions between same-basis product measurements are product; "
        "marginals stay put",
        tolerance="rank tolerance 1e-7, marginals 1e-10",
        note=f"{EVOLUTION_QUARTETS} seeded measurement quartets = "
        f"{2 * EVOLUTION_QUARTETS} evolution pairs{disagreement}",
    )


def _check_own_basis_product_form(fixture: tuple) -> CheckRow:
    state, models, _ = fixture
    isos = {key: canonical_iso_of(models[key]) for key in EXPERIMENT_KEYS}
    ranks = {key: operator_schmidt(models[key].operator, isos[key]).rank() for key in EXPERIMENT_KEYS}
    image_ab = isos["AB"].apply(state)
    image_abp = isos["AB'"].apply(state)
    overlap = abs(np.vdot(image_ab, image_abp))
    same = states_equal_up_to_phase(image_ab, image_abp)
    rank_text = ", ".join(f"{key}: {ranks[key]}" for key in EXPERIMENT_KEYS)
    return CheckRow(
        name="own-basis-product-form",
        passed=all(rank == 1 for rank in ranks.values()) and not same and overlap < 0.99,
        measured=f"ranks {rank_text}; contextual image overlap {overlap:.4f}",
        expected="rank 1 under each measurement's own identification; overlap < 0.99",
        tolerance="rank tolerance 1e-7",
        note="the state's two contextual images are genuinely different vectors",
    )


def _check_no_common_product_basis(fixture: tuple) -> CheckRow:
    _, models, _ = fixture
    operators = [models[key].operator for key in EXPERIMENT_KEYS]
    canonical_ranks = [operator_schmidt(op).rank() for op in operators]
    result = refute_common_product_iso(operators)
    word = "".join(f"({EXPERIMENT_KEYS[k]})" for k in result.word)
    return CheckRow(
        name="no-common-product-basis",
        passed=any(rank > 1 for rank in canonical_ranks) and result.refuted,
        measured=f"canonical ranks {tuple(canonical_ranks)}; worst of {result.trials} words {word}, "
        f"pairing defect {result.defect:.3g}",
        expected="entangled under the canonical identification; a word of three measurements whose "
        "eigenvalues pair as no product's do",
        tolerance=f"rank tolerance 1e-7; pairing defect above {WORD_DEFECT_FLOOR:g}, the round-off bound "
        "for operators unitary within 1e-9",
        note="a common product identification would carry each word to X (x) Y, whose eigenvalues a_p b_q "
        "pair as l1 l4 = l2 l3; a word's spectrum does not depend on the identification, so one word "
        "that pairs no way proves that none exists",
    )


TSIRELSON_MODELS = 1000


def _check_tsirelson_bound() -> CheckRow:
    _, families, states = _quartet_stack(np.random.default_rng(103), TSIRELSON_MODELS)
    values = np.abs(_chsh_values(_table_stack(families, states)))
    i = int(np.argmax(values))
    gap = abs(abs(chsh(_trial_tables(families, states, i)).chsh) - values[i])
    worst, disagreement = float(values[i]), _route_note(i, gap)
    return CheckRow(
        name="tsirelson-bound",
        passed=worst <= TSIRELSON_BOUND + 1e-9 and not disagreement,
        measured=f"largest |CHSH| {worst:.6f}",
        expected=f"|CHSH| <= 2*sqrt(2) = {TSIRELSON_BOUND:.6f} for product models",
        tolerance="1e-9 slack",
        note=f"{TSIRELSON_MODELS} seeded single-identification product models{disagreement}",
    )


def _check_basis_fit_convergence(fixture: tuple) -> CheckRow:
    state, _, dataset = fixture
    fits = [fit_basis(state, dataset.tables[key], target_misfit=1e-8) for key in EXPERIMENT_KEYS]
    worst_misfit = max(fit.misfit for fit in fits)
    worst_unitarity = max(unitary_deviation(fit.matrix) for fit in fits)
    return CheckRow(
        name="basis-fit-convergence",
        passed=worst_misfit <= 1e-8 and worst_unitarity <= 1e-12,
        measured=f"worst misfit {worst_misfit:.2e}, worst unitarity error {worst_unitarity:.2e}",
        expected="all four reference tables fit from the reference state",
        tolerance="misfit 1e-8; each basis unitary within 1e-12",
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


def _reference_t_tail(t: float, df: int) -> float:
    """P(T > t) from the finite sums of Abramowitz & Stegun 26.7.3-26.7.4.

    With theta = atan(t / sqrt(df)), A = P(|T| < |t|), carrying the sign of
    t, is sin(theta) [1 + 1/2 cos^2 + (1*3)/(2*4) cos^4 + ...] for even df and
    (2/pi) (theta + sin(theta) [cos + 2/3 cos^3 + (2*4)/(3*5) cos^5 + ...])
    for odd df, with terms up to cos^(df-2) theta, and P(T > t) = (1 - A)/2.
    Exact up to round-off, and independent of the quadrature of the
    statistics module; 1 - A cancels in the far tail, so it serves only
    tails well away from 0.
    """
    theta = math.atan(t / math.sqrt(df))
    cos = math.cos(theta)
    odd = df % 2
    term, series = (cos if odd else 1.0), 0.0
    for m in range(1, df // 2 + 1):
        series += term
        term *= cos * cos * (2 * m - 1 + odd) / (2 * m + odd)
    a = math.sin(theta) * series
    if odd:
        a = 2.0 / math.pi * (theta + a)
    return 0.5 * (1.0 - a)


def _check_t_tail_reference() -> CheckRow:
    points = ((0.534522483824849, 3), (2.0, 10), (1.2, 80), (2.66, 80), (0.0, 7), (-1.0, 5))
    worst = max(abs(student_t_tail(t, df) - _reference_t_tail(t, df)) for t, df in points)
    return CheckRow(
        name="t-tail-reference",
        passed=worst <= 1e-6,
        measured=f"worst tail-probability disagreement {worst:.2e}",
        expected="the quadrature agrees with the closed-form finite sum",
        tolerance="1e-6",
        note=f"checked at {len(points)} (t, df) points including df = 80",
    )


def run_verification(dataset=None) -> list:
    """All golden checks; rows 1-2 run on ``dataset`` (default: built-in).

    The reference fixture is built once and shared by the rows that read
    it; none of them changes it.  Returns a list of CheckRow.  The aggregate
    verdict is ``all(row.passed for row in rows)``.  The one clock of the
    module times each whole check into its row's ``elapsed_ms``.
    """
    fixture = reference_fixture()
    if dataset is None:
        dataset = fixture[2]
    checks = (
        (_check_chsh_values, dataset),
        (_check_marginal_witnesses, dataset),
        (_check_model_probabilities, fixture),
        (_check_operator_entries, fixture),
        (_check_product_factorization,),
        (_check_shared_basis_evolutions,),
        (_check_own_basis_product_form, fixture),
        (_check_no_common_product_basis, fixture),
        (_check_tsirelson_bound,),
        (_check_basis_fit_convergence, fixture),
        (_check_p_value_context,),
        (_check_t_tail_reference,),
    )
    rows = []
    for check, *args in checks:
        start = time.perf_counter()
        row = check(*args)
        row.elapsed_ms = (time.perf_counter() - start) * 1e3
        rows.append(row)
    return rows
