"""End-to-end gate: the eleven headline results this package must reproduce.

One test per result, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line for each.  Every test also prints a measured-vs-target summary
(visible with ``-s`` or on failure).  The seeded randomized suites and the
optimizer runs are exercised once through ``bellkit.verify.run_verification``
and shared across tests; the cheap numeric results are re-derived here
directly against the library API.
"""

import math
import time

import numpy as np
import pytest

from bellkit import (
    EXPERIMENT_KEYS,
    TSIRELSON_BOUND,
    canonical_iso_of,
    chsh,
    marginal_deviations,
    operator_schmidt,
    probabilities_from_model,
    reference_fixture,
    reference_published_operators,
    run_verification,
    states_equal_up_to_phase,
)

EXPECTED_E = {"AB": -0.7778, "A'B": 0.6543, "AB'": 0.3580, "A'B'": 0.6296}
EXPECTED_CHSH = 2.4197
# (side, first-outcome marginal in the lhs experiment, same in the rhs experiment)
EXPECTED_WITNESSES = (("A", 0.679, 0.618), ("A'", 0.864, 0.234))


@pytest.fixture(scope="module")
def verification():
    """Run the full golden-check suite once; tests pick out their rows."""
    return {row.name: row for row in run_verification()}


def best_of(fn, repeats=5):
    """Best-of-N wall time, so one scheduler hiccup cannot fail a budget."""
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_01_chsh_reproduction():
    _, _, dataset = reference_fixture()
    report, elapsed = best_of(lambda: chsh(dataset))
    for key, expected in EXPECTED_E.items():
        assert report.e_values[key] == pytest.approx(expected, abs=5e-4), key
    assert report.chsh == pytest.approx(EXPECTED_CHSH, abs=5e-4)
    assert elapsed < 1e-3
    print(
        f"criterion 1: CHSH {report.chsh:+.5f} (target {EXPECTED_CHSH} +/- 5e-4), "
        f"E-values within 5e-4, {elapsed * 1e3:.3f} ms"
    )


def test_criterion_02_marginal_law_witnesses():
    _, _, dataset = reference_fixture()
    rows, elapsed = best_of(lambda: marginal_deviations(dataset))
    first_outcome = {row.side: (row.lhs, row.rhs) for row in rows if row.outcome == 1}
    for side, lhs, rhs in EXPECTED_WITNESSES:
        measured_lhs, measured_rhs = first_outcome[side]
        assert measured_lhs == pytest.approx(lhs, abs=1e-3), side
        assert measured_rhs == pytest.approx(rhs, abs=1e-3), side
    assert elapsed < 1e-3
    a_lhs, a_rhs = first_outcome["A"]
    ap_lhs, ap_rhs = first_outcome["A'"]
    print(
        f"criterion 2: first-outcome marginals A {a_lhs:.4f}/{a_rhs:.4f}, "
        f"A' {ap_lhs:.4f}/{ap_rhs:.4f} "
        f"(targets 0.679/0.618 and 0.864/0.234 +/- 1e-3), {elapsed * 1e3:.3f} ms"
    )


def test_criterion_03_model_forward_check():
    state, models, dataset = reference_fixture()
    worst = 0.0
    for key in EXPERIMENT_KEYS:
        table = probabilities_from_model(state, models[key])
        target = dataset.tables[key]
        for field in ("p11", "p12", "p21", "p22"):
            deviation = abs(getattr(table, field) - getattr(target, field))
            worst = max(worst, deviation)
            assert deviation <= 0.03, (key, field, deviation)
    print(f"criterion 3: all 16 model-predicted coincidence probabilities within 0.03 "
          f"of the reference tables (worst deviation {worst:.4f})")


def test_criterion_04_matrix_golden_check():
    _, models, _ = reference_fixture()
    published = reference_published_operators()
    worst = 0.0
    for key in EXPERIMENT_KEYS:
        difference = models[key].operator - published[key]
        worst_real = float(np.max(np.abs(difference.real)))
        worst_imag = float(np.max(np.abs(difference.imag)))
        worst = max(worst, worst_real, worst_imag)
        assert worst_real <= 0.01, (key, worst_real)
        assert worst_imag <= 0.01, (key, worst_imag)
    print(f"criterion 4: all 64 synthesized operator entries match the published "
          f"matrices within 0.01 per part (worst {worst:.4f})")


def test_criterion_05_product_factorization_suite(verification):
    row = verification["product-factorization"]
    assert row.passed, row
    assert row.elapsed_ms < 1_000.0
    print(f"criterion 5: {row.measured}; tolerance {row.tolerance}; "
          f"{row.elapsed_ms:.0f} ms")


def test_criterion_06_shared_basis_evolution_suite(verification):
    row = verification["shared-basis-evolutions"]
    assert row.passed, row
    assert row.elapsed_ms < 5_000.0
    print(f"criterion 6: {row.measured}; tolerance {row.tolerance}; "
          f"{row.elapsed_ms:.0f} ms ({row.note})")


def test_criterion_07_own_basis_product_form_and_contextual_images():
    state, models, _ = reference_fixture()
    ranks = {}
    for key in EXPERIMENT_KEYS:
        model = models[key]
        iso = canonical_iso_of(model)
        ranks[key] = operator_schmidt(model.operator, iso).rank(rank_tol=1e-7)
    assert all(rank == 1 for rank in ranks.values()), ranks

    image_ab = canonical_iso_of(models["AB"]).apply(state.values)
    image_abp = canonical_iso_of(models["AB'"]).apply(state.values)
    assert not states_equal_up_to_phase(image_ab, image_abp)
    overlap = abs(np.vdot(image_ab, image_abp))
    assert overlap < 0.99
    print(f"criterion 7: all four operators have Schmidt rank 1 in their own "
          f"eigenbasis identification; the two contextual state images differ "
          f"(overlap {overlap:.4f} < 0.99)")


def test_criterion_08_no_common_product_basis(verification):
    _, models, _ = reference_fixture()
    canonical_ranks = {
        key: operator_schmidt(models[key].operator).rank(rank_tol=1e-7)
        for key in EXPERIMENT_KEYS
    }
    assert max(canonical_ranks.values()) > 1, canonical_ranks
    row = verification["no-common-product-basis"]
    assert row.passed, row
    print(f"criterion 8: canonical-identification Schmidt ranks {canonical_ranks}; "
          f"{row.measured}")


def test_criterion_09_tsirelson_bound_suite(verification):
    row = verification["tsirelson-bound"]
    assert row.passed, row
    print(f"criterion 9: {row.measured} <= 2*sqrt(2) = {TSIRELSON_BOUND:.6f}; "
          f"{row.note}")


def test_criterion_10_basis_fit_convergence(verification):
    row = verification["basis-fit-convergence"]
    assert row.passed, row
    assert row.elapsed_ms < 60_000.0
    print(f"criterion 10: {row.measured}; tolerance {row.tolerance}; "
          f"{row.elapsed_ms:.0f} ms")


def test_criterion_11_p_value_documented_and_t_tail_oracle(verification):
    context = verification["p-value-context"]
    assert context.passed
    assert "0.0171" in context.measured
    assert "cannot be recomputed" in context.note
    oracle = verification["t-tail-reference"]
    assert oracle.passed, oracle
    assert oracle.tolerance == "1e-6"
    print(f"criterion 11: {context.measured} ({context.expected}); "
          f"{oracle.measured} (tolerance {oracle.tolerance})")
