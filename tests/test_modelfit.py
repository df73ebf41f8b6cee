"""Tests for measurement-model synthesis, forward probabilities, and fitting."""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bellkit.modelfit as modelfit
from bellkit import io
from bellkit.bellstats import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset, chsh
from bellkit.hilbert import CVec, gram, tensor
from bellkit.modelfit import (
    FitConfig,
    ObservableModel,
    StateVector,
    expectation_from_model,
    fit_basis,
    fit_state,
    load_model,
    probabilities_from_model,
    reference_fixture,
    synthesize,
)

from oracles import random_state, random_unitary

# Reference-table probabilities as published (3 decimals) and the exact
# model-reproduced values under the repaired eigenbases, frozen from an
# independent evaluation of the printed vectors.
TABLE_ROWS = {
    "AB": (0.049, 0.630, 0.259, 0.062),
    "AB'": (0.593, 0.025, 0.296, 0.086),
    "A'B": (0.778, 0.086, 0.086, 0.049),
    "A'B'": (0.148, 0.086, 0.099, 0.667),
}
MODEL_ROWS = {
    "AB": (0.048609, 0.639227, 0.252819, 0.059344),
    "AB'": (0.587434, 0.028458, 0.295537, 0.088571),
    "A'B": (0.779364, 0.089269, 0.083968, 0.047399),
    "A'B'": (0.151934, 0.083985, 0.094903, 0.669178),
}

# The four printed operator matrices (rounded to three decimals in print).
PRINTED_OPERATORS = {
    "AB": [
        [0.952, -0.207 - 0.030j, 0.224 + 0.007j, 0.003 - 0.006j],
        [-0.207 + 0.030j, -0.930, 0.028 - 0.001j, -0.163 + 0.251j],
        [0.224 - 0.007j, 0.028 + 0.001j, -0.916, -0.193 + 0.266j],
        [0.003 + 0.006j, -0.163 - 0.251j, -0.193 - 0.266j, 0.895],
    ],
    "AB'": [
        [-0.001, 0.587 + 0.397j, 0.555 + 0.434j, 0.035 + 0.0259j],
        [0.587 - 0.397j, -0.489, 0.497 + 0.0341j, -0.106 - 0.005j],
        [0.555 - 0.434j, 0.497 - 0.0341j, -0.503, 0.045 - 0.001j],
        [0.035 - 0.0259j, -0.106 + 0.005j, 0.045 + 0.001j, 0.992],
    ],
    "A'B": [
        [-0.587, 0.568 + 0.353j, 0.274 + 0.365j, 0.002 + 0.004j],
        [0.568 - 0.353j, 0.090, 0.681 + 0.263j, -0.110 - 0.007j],
        [0.274 - 0.365j, 0.681 - 0.263j, -0.484, 0.150 - 0.050j],
        [0.002 - 0.004j, -0.110 + 0.007j, 0.150 + 0.050j, 0.981],
    ],
    "A'B'": [
        [0.854, 0.385 + 0.243j, -0.035 - 0.164j, -0.115 - 0.146j],
        [0.385 - 0.243j, -0.700, 0.483 + 0.132j, -0.086 + 0.212j],
        [-0.035 + 0.164j, 0.483 - 0.132j, 0.542, 0.093 + 0.647j],
        [-0.115 + 0.146j, -0.086 - 0.212j, 0.093 - 0.647j, -0.697],
    ],
}


def random_on_basis(rng):
    u = random_unitary(rng, 4)
    return [u[:, k] for k in range(4)]


# ---------------------------------------------------------------------------
# synthesize / ObservableModel


def test_synthesize_canonical_basis_gives_diagonal_operator():
    model = synthesize(np.eye(4), eigenvalues=(1, -1, -1, 1))
    np.testing.assert_allclose(model.operator, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-12)


def test_synthesize_reference_operators_match_printed_matrices():
    _, models, _ = reference_fixture()
    for key, model in models.items():
        dev = np.max(np.abs(model.operator - np.array(PRINTED_OPERATORS[key])))
        assert dev <= 0.01, f"{key}: worst entry deviation {dev:.4f}"


def test_published_operator_data_file_matches_frozen_transcription():
    published = modelfit.reference_published_operators()
    assert set(published) == {"AB", "AB'", "A'B", "A'B'"}
    for key, matrix in published.items():
        np.testing.assert_array_equal(matrix, np.array(PRINTED_OPERATORS[key]))


def test_synthesize_reference_spot_entries():
    _, models, _ = reference_fixture()
    op = models["AB"].operator
    assert op[0, 0].real == pytest.approx(0.952, abs=0.01)
    assert abs(op[0, 1] - (-0.207 - 0.030j)) <= 0.01
    assert models["A'B'"].operator[3, 3].real == pytest.approx(-0.697, abs=0.01)


def test_synthesize_operator_squares_to_identity_for_sign_eigenvalues():
    _, models, _ = reference_fixture()
    for model in models.values():
        np.testing.assert_allclose(model.operator @ model.operator, np.eye(4), atol=1e-9)
        np.testing.assert_allclose(model.operator, model.operator.conj().T, atol=1e-9)


def test_synthesize_eigenprojector_round_trip():
    # eigenvalues are doubly degenerate, so compare the +1/-1 eigenprojectors
    rng = np.random.default_rng(11)
    for _ in range(40):
        basis = random_on_basis(rng)
        model = synthesize(basis, eigenvalues=(1, -1, -1, 1))
        plus = np.outer(basis[0], basis[0].conj()) + np.outer(basis[3], basis[3].conj())
        minus = np.outer(basis[1], basis[1].conj()) + np.outer(basis[2], basis[2].conj())
        np.testing.assert_allclose((np.eye(4) + model.operator) / 2, plus, atol=1e-8)
        np.testing.assert_allclose((np.eye(4) - model.operator) / 2, minus, atol=1e-8)


def test_synthesize_rejects_far_from_orthonormal_family():
    vecs = np.eye(4).copy()
    vecs[1] = vecs[0]  # duplicated vector: worst pair (0, 1) deviates by 1
    with pytest.raises(ValueError, match=r"worst pair \(0, 1\)"):
        synthesize(vecs)


def test_synthesize_accepts_rounded_but_repairable_family():
    _, models, _ = reference_fixture()
    for model in models.values():
        repaired = [v.values for v in model.eigenvectors]
        assert np.max(np.abs(gram(repaired) - np.eye(4))) <= 1e-9
        raw = [v.values for v in model.eigenvectors_raw]
        assert np.max(np.abs(gram(raw) - np.eye(4))) > 0.0


def test_observable_model_rejects_mismatched_operator():
    with pytest.raises(ValueError, match="spectral synthesis"):
        ObservableModel(
            experiment="x",
            eigenvectors_raw=[CVec(v) for v in np.eye(4)],
            eigenvectors=[CVec(v) for v in np.eye(4)],
            eigenvalues=(1, -1, -1, 1),
            operator=np.eye(4, dtype=complex),
        )


def test_outcome_labels_combine_sides():
    _, models, _ = reference_fixture()
    assert models["AB"].outcome_labels == (
        "Horse Growls", "Horse Whinnies", "Bear Growls", "Bear Whinnies",
    )
    assert models["A'B'"].outcome_labels == (
        "Tiger Snorts", "Tiger Meows", "Cat Snorts", "Cat Meows",
    )


# ---------------------------------------------------------------------------
# StateVector


class TestStateVector:
    def test_reference_provenance_accepts_rounded_norm(self):
        state = StateVector(
            CVec.from_polar_deg((0.23, 0.62, 0.75, 0.0), (13.93, 16.72, 9.69, 194.15)),
            provenance="reference",
        )
        assert state.raw.norm() == pytest.approx(0.99990, abs=1e-4)
        assert np.linalg.norm(state.values) == pytest.approx(1.0, abs=1e-12)

    def test_fitted_provenance_requires_unit_norm(self):
        with pytest.raises(ValueError, match="provenance 'fitted'"):
            StateVector(CVec(np.array([0.23, 0.62, 0.75, 0.0])), provenance="fitted")

    def test_unknown_provenance(self):
        with pytest.raises(ValueError, match="unknown provenance"):
            StateVector(CVec(np.array([1.0, 0, 0, 0])), provenance="published")

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension 4"):
            StateVector(CVec(np.array([1.0, 0.0])))


def test_reference_fixture_returns_fresh_objects():
    state, models, dataset = reference_fixture()
    pristine = (state.values.copy(), models["AB"].operator.copy(), dataset.tables["AB"].p11)
    state.raw.values[0] = 7.0
    models["AB"].operator[0, 0] = 99.0
    del models["A'B'"]
    dataset.tables["AB"].p11 = 0.5
    again_state, again_models, again_dataset = reference_fixture()
    assert again_state is not state and again_models is not models and again_dataset is not dataset
    assert np.array_equal(again_state.values, pristine[0])
    assert np.array_equal(again_models["AB"].operator, pristine[1])
    assert sorted(again_models) == sorted(EXPERIMENT_KEYS)
    assert again_dataset.tables["AB"].p11 == pristine[2]


# ---------------------------------------------------------------------------
# probabilities / expectations


def test_probabilities_reproduce_reference_table_within_print_tolerance():
    state, models, _ = reference_fixture()
    for key, model in models.items():
        table = probabilities_from_model(state, model)
        np.testing.assert_allclose(table.probabilities, TABLE_ROWS[key], atol=0.03)


def test_probabilities_frozen_regression_values():
    state, models, _ = reference_fixture()
    for key, model in models.items():
        table = probabilities_from_model(state, model)
        np.testing.assert_allclose(table.probabilities, MODEL_ROWS[key], atol=5e-6)


def test_probabilities_of_eigenstate_concentrate_on_its_outcome():
    rng = np.random.default_rng(5)
    basis = random_on_basis(rng)
    model = synthesize(basis, experiment="test")
    table = probabilities_from_model(basis[2], model)
    np.testing.assert_allclose(table.probabilities, [0, 0, 1, 0], atol=1e-12)


def test_probabilities_sum_to_one_and_carry_labels():
    rng = np.random.default_rng(17)
    for _ in range(50):
        model = synthesize(random_on_basis(rng), experiment="r",
                           a_labels=("u", "d"), b_labels=("l", "r"))
        table = probabilities_from_model(random_state(rng, 4), model)
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(table.probabilities >= 0)
        assert table.labels == ("u l", "u r", "d l", "d r")


def test_probabilities_reject_a_cvec_that_is_not_unit():
    model = synthesize(np.eye(4))
    with pytest.raises(ValueError, match="unit vector"):
        probabilities_from_model(CVec(np.array([2.0, 0, 0, 0])), model)


def test_expectation_eigenstate_is_its_eigenvalue():
    rng = np.random.default_rng(23)
    basis = random_on_basis(rng)
    model = synthesize(basis, eigenvalues=(1, -1, -1, 1))
    assert expectation_from_model(basis[0], model) == pytest.approx(1.0, abs=1e-12)
    assert expectation_from_model(basis[1], model) == pytest.approx(-1.0, abs=1e-12)


def test_expectation_reference_ab_close_to_measured_value():
    state, models, _ = reference_fixture()
    assert expectation_from_model(state, models["AB"]) == pytest.approx(-0.7778, abs=0.05)


def test_expectation_two_route_equality():
    rng = np.random.default_rng(31)
    for _ in range(60):
        model = synthesize(random_on_basis(rng))
        psi = random_state(rng, 4)
        via_operator = expectation_from_model(psi, model)
        table = probabilities_from_model(psi, model)
        via_probs = float(np.dot(model.eigenvalues, table.probabilities))
        assert via_operator == pytest.approx(via_probs, abs=1e-12)


def test_model_reconstructed_dataset_chsh_close_to_measured():
    state, models, _ = reference_fixture()
    tables = {key: probabilities_from_model(state, model) for key, model in models.items()}
    report = chsh(ExperimentDataset(name="reconstructed", tables=tables))
    assert report.chsh == pytest.approx(2.4197, abs=0.05)
    assert report.chsh == pytest.approx(2.431848, abs=5e-5)  # frozen exact value
    assert report.violates


# ---------------------------------------------------------------------------
# fit_basis


def test_fit_basis_recovers_realizable_target():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 4)
    model = synthesize(random_on_basis(rng), experiment="target")
    target = probabilities_from_model(psi, model)
    result = fit_basis(psi, target, FitConfig(seed=7, target_misfit=1e-10))
    assert result.converged
    assert result.misfit <= 1e-10
    recovered = probabilities_from_model(psi, result.model)
    np.testing.assert_allclose(recovered.probabilities, target.probabilities, atol=1e-5)


def test_fit_basis_reference_row_converges():
    state, _, dataset = reference_fixture()
    result = fit_basis(state, dataset.tables["AB"], FitConfig(seed=0, target_misfit=1e-8))
    assert result.converged
    assert result.misfit <= 1e-8
    assert result.restarts_used <= 64


def test_fit_basis_rejects_invalid_target():
    with pytest.raises(ValueError, match="sum to"):
        fit_basis(np.array([1.0, 0, 0, 0]), (1.0, 1.0, 0.0, 0.0))


def test_fit_basis_rejects_nan_target():
    with pytest.raises(ValueError, match="finite"):
        fit_basis(np.array([1.0, 0, 0, 0]), (np.nan, 0.5, 0.5, 0.0))


def test_fit_basis_trace_is_monotone_nonincreasing():
    state, _, dataset = reference_fixture()
    result = fit_basis(state, dataset.tables["A'B"], FitConfig(seed=2, target_misfit=1e-8))
    trace = np.asarray(result.trace)
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] == pytest.approx(result.misfit)


def test_fit_basis_is_deterministic_given_seed():
    rng = np.random.default_rng(9)
    psi = random_state(rng, 4)
    target = probabilities_from_model(psi, synthesize(random_on_basis(rng)))
    cfg = FitConfig(seed=13, target_misfit=1e-10)
    first = fit_basis(psi, target, cfg)
    second = fit_basis(psi, target, cfg)
    assert first.misfit == second.misfit
    np.testing.assert_array_equal(first.matrix, second.matrix)


def test_fit_basis_unconverged_is_reported_not_raised():
    # the exact fit still leaves a misfit at round-off level, above this target
    state, _, dataset = reference_fixture()
    cfg = FitConfig(seed=1, target_misfit=1e-300, restarts=2, max_iterations=40)
    result = fit_basis(state, dataset.tables["AB"], cfg)
    assert not result.converged
    assert result.misfit > 1e-300
    assert result.restarts_used == 1


def _target_cases(rng):
    """(state, target) pairs: generic, with zero entries, t = |psi|^2 (and
    within 1e-9 of it), and psi orthogonal to sqrt(t)."""
    for k in range(2000):
        psi = random_state(rng, 4)
        kind = k % 5
        if kind == 0:
            t = rng.dirichlet(np.ones(4))
        elif kind == 1:
            t = rng.dirichlet(np.ones(4)) * (rng.random(4) < 0.5)
            t = t / t.sum() if t.sum() > 0 else np.eye(4)[rng.integers(4)]
        elif kind == 2:
            t = np.abs(psi) ** 2
        elif kind == 3:
            t = np.abs(psi) ** 2 * (1.0 + 1e-9 * rng.standard_normal(4))
            t = t / t.sum()
        else:
            t = rng.dirichlet(np.ones(4))
            q = np.sqrt(t)
            psi = psi - q * np.vdot(q, psi)
            psi = psi / np.linalg.norm(psi)
        yield psi, t


def test_fit_basis_closed_form_is_exact_on_random_pairs():
    rng = np.random.default_rng(2024)
    for psi, t in _target_cases(rng):
        result = fit_basis(psi, t, FitConfig(target_misfit=1e-28))
        assert result.misfit <= 1e-28, (psi, t)
        assert np.max(np.abs(result.matrix.conj().T @ result.matrix - np.eye(4))) <= 1e-14
        assert result.converged and result.restarts_used == 1 and result.iterations == 1
        assert result.trace == [result.misfit]


def test_fit_basis_ignores_seed_restarts_and_iteration_budget():
    state, _, dataset = reference_fixture()
    first = fit_basis(state, dataset.tables["A'B'"], FitConfig(seed=0))
    other = fit_basis(state, dataset.tables["A'B'"], FitConfig(seed=9, restarts=1, max_iterations=1))
    np.testing.assert_array_equal(first.matrix, other.matrix)
    assert first.misfit == other.misfit


def test_fit_config_validation():
    with pytest.raises(ValueError, match="target_misfit"):
        FitConfig(target_misfit=0.0)
    with pytest.raises(ValueError, match="at least 1"):
        FitConfig(restarts=0)


# ---------------------------------------------------------------------------
# fit_state


def _product_dataset(rng):
    """Dataset generated by one state and four product measurements."""

    def qubit_basis():
        u = random_unitary(rng, 2)
        return u[:, 0], u[:, 1]

    psi = random_state(rng, 4)
    a_side = {"A": qubit_basis(), "A'": qubit_basis()}
    b_side = {"B": qubit_basis(), "B'": qubit_basis()}
    pairs = {"AB": ("A", "B"), "AB'": ("A", "B'"), "A'B": ("A'", "B"), "A'B'": ("A'", "B'")}
    tables = {}
    for key, (a, b) in pairs.items():
        ua, ub = a_side[a], b_side[b]
        vectors = [tensor(ua[i], ub[j]) for i in (0, 1) for j in (0, 1)]
        tables[key] = probabilities_from_model(psi, synthesize(vectors, experiment=key))
    return psi, ExperimentDataset(name="generated", tables=tables)


def test_fit_state_realizable_dataset_converges_and_reproduces_tables():
    rng = np.random.default_rng(42)
    _, dataset = _product_dataset(rng)
    result = fit_state(dataset, FitConfig(seed=5, target_misfit=1e-8, restarts=16))
    assert result.converged
    assert result.objective <= 1e-8
    # the fitted state and measurements reproduce every target probability;
    # the state itself is identified only up to a product-unitary gauge
    for key, (model, misfit) in result.per_experiment.items():
        fitted = probabilities_from_model(result.state, model)
        np.testing.assert_allclose(
            fitted.probabilities, dataset.tables[key].probabilities, atol=1e-4
        )
        assert misfit <= 1e-8


def test_fit_state_reference_dataset_has_no_product_representation():
    # marginal-law violation forces a strictly positive objective
    _, _, dataset = reference_fixture()
    result = fit_state(dataset, FitConfig(seed=1, target_misfit=1e-8, restarts=3))
    assert not result.converged
    assert result.objective > 1e-4


def test_fit_state_degenerate_dataset_gives_basis_aligned_state():
    tables = {key: CoincidenceTable(key, 1.0, 0.0, 0.0, 0.0) for key in EXPERIMENT_KEYS}
    dataset = ExperimentDataset(name="degenerate", tables=tables)
    result = fit_state(dataset, FitConfig(seed=2, target_misfit=1e-8, restarts=8))
    assert result.converged
    # all mass on one outcome forces a (near-)product state aligned with the
    # first eigenvector of every fitted measurement
    schmidt = np.linalg.svd(result.state.values.reshape(2, 2), compute_uv=False)
    assert schmidt[1] <= 0.02
    for model, _ in result.per_experiment.values():
        overlap = abs(np.vdot(model.eigenvectors[0].values, result.state.values))
        assert overlap >= 0.999


def test_fit_state_trace_is_monotone():
    rng = np.random.default_rng(8)
    _, dataset = _product_dataset(rng)
    result = fit_state(dataset, FitConfig(seed=3, target_misfit=1e-10, restarts=4))
    trace = np.asarray(result.trace)
    assert np.all(np.diff(trace) <= 0)


@pytest.fixture(scope="module")
def reference_state_fit():
    _, _, dataset = reference_fixture()
    return dataset, fit_state(dataset, FitConfig(seed=0, restarts=8, target_misfit=1e-8))


def test_fit_state_reference_objective_at_seed_0(reference_state_fit):
    _, result = reference_state_fit
    assert result.objective <= 1.6e-3
    # no start reaches the target; all stall before the default cap of 400
    assert result.restarts_used == 8
    assert result.iterations < 400


def test_fit_state_table_misfits_are_those_of_the_reported_models(reference_state_fit):
    realizable = _product_dataset(np.random.default_rng(42))[1]
    for dataset, result in (
        reference_state_fit,
        (realizable, fit_state(realizable, FitConfig(seed=5, target_misfit=1e-8, restarts=4))),
    ):
        total = 0.0
        for key, (model, misfit) in result.per_experiment.items():
            target = dataset.tables[key].probabilities / dataset.tables[key].probabilities.sum()
            fitted = probabilities_from_model(result.state, model).probabilities
            assert abs(misfit - np.sum((fitted - target) ** 2)) <= 1e-12
            total += misfit
        assert total <= result.objective + 1e-12


def test_fit_state_restarts_used_is_the_first_start_reaching_the_target():
    # start k's search does not depend on the other starts, and a smaller
    # batch draws the first rows of a larger one; with 8 iterations only
    # some starts of this dataset reach the target
    _, dataset = _product_dataset(np.random.default_rng(1))
    cfg = FitConfig(seed=3, target_misfit=1e-8, restarts=8, max_iterations=8)
    result = fit_state(dataset, cfg)
    assert result.converged
    assert result.restarts_used == 4
    first_four = fit_state(dataset, replace(cfg, restarts=4))
    assert first_four.restarts_used == 4
    # the winner is the best start of all eight
    assert result.objective <= first_four.objective
    first_three = fit_state(dataset, replace(cfg, restarts=3))
    assert not first_three.converged
    assert first_three.restarts_used == 3


def test_fit_state_blocks_of_starts_match_one_stack():
    # 300 starts span two blocks; the winner of this seed lies in the second
    _, _, dataset = reference_fixture()
    cfg = FitConfig(seed=0, target_misfit=1e-8, restarts=modelfit._BLOCK_STARTS + 44, max_iterations=6)
    result = fit_state(dataset, cfg)
    signatures = np.array([modelfit._signature(t.probabilities / t.probabilities.sum())
                           for t in (dataset.tables[k] for k in EXPERIMENT_KEYS)])
    starts = np.random.default_rng(cfg.seed).standard_normal((cfg.restarts, 32))
    params, objectives, history, evaluations = modelfit._levenberg(
        lambda p: modelfit._state_residuals(p, signatures), starts, cfg
    )
    best = int(np.argmin(objectives))
    assert best >= modelfit._BLOCK_STARTS
    assert result.objective == objectives[best]
    z = params[best, :4] + 1j * params[best, 4:8]
    assert abs(np.vdot(z / np.linalg.norm(z), result.state.values)) == pytest.approx(1.0, abs=1e-12)
    reached = np.flatnonzero(objectives <= cfg.target_misfit)
    assert result.restarts_used == (reached[0] + 1 if reached.size else cfg.restarts)
    assert result.evaluations == evaluations
    assert result.iterations == len(history) - 1
    trace = history[:, best]
    assert result.trace == list(trace[np.r_[True, np.diff(trace) < 0]])


def test_fit_state_memory_is_bounded_by_one_block():
    import tracemalloc

    _, _, dataset = reference_fixture()
    peaks = {}
    for restarts in (modelfit._BLOCK_STARTS, 1000):
        tracemalloc.start()
        try:
            fit_state(dataset, FitConfig(seed=0, restarts=restarts, max_iterations=2))
            peaks[restarts] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= 1.1 * peaks[modelfit._BLOCK_STARTS]


def test_fit_state_counts_iterations_and_residual_evaluations():
    # no start of the reference dataset converges or stalls within 5
    # iterations: each evaluates its residuals once, then 32 Jacobian
    # columns and one trial point per iteration
    _, _, dataset = reference_fixture()
    result = fit_state(dataset, FitConfig(seed=1, target_misfit=1e-8, restarts=3, max_iterations=5))
    assert result.iterations == 5
    assert result.evaluations == 3 * (1 + 33 * 5)
    # the trace holds the winning start's accepted values only
    assert 1 <= len(result.trace) <= 6
    assert np.all(np.diff(result.trace) < 0)
    assert result.trace[-1] == result.objective


# ---------------------------------------------------------------------------
# reference fixture


class TestReferenceFixture:
    def test_state_amplitudes_and_phases(self):
        state, _, _ = reference_fixture()
        np.testing.assert_allclose(state.raw.amplitudes, (0.23, 0.62, 0.75, 0.0), atol=1e-12)
        np.testing.assert_allclose(
            state.raw.phases_deg[:3], (13.93, 16.72, 9.69), atol=1e-9
        )
        assert state.provenance == "reference"

    def test_ab_prime_fourth_eigenvector(self):
        _, models, _ = reference_fixture()
        vec = models["AB'"].eigenvectors_raw[3]
        assert vec.amplitudes[3] == pytest.approx(0.93, abs=1e-12)
        assert vec.phases_deg[3] == pytest.approx(85.52, abs=1e-9)

    def test_dataset_chsh_matches_published_value(self):
        _, _, dataset = reference_fixture()
        report = chsh(dataset)
        assert report.chsh == pytest.approx(2.4197, abs=5e-4)
        assert report.chsh == pytest.approx(196 / 81, abs=1e-12)

    def test_eigenvalue_pattern(self):
        _, models, _ = reference_fixture()
        for model in models.values():
            assert model.eigenvalues == (1.0, -1.0, -1.0, 1.0)

    def test_dataset_carries_counts_and_labels(self):
        _, _, dataset = reference_fixture()
        assert dataset.n_subjects == 81
        assert dataset.tables["AB"].counts == (4, 51, 21, 5)
        assert dataset.tables["AB"].a_labels == ("Horse", "Bear")
        assert dataset.singles.probabilities["A'"][0] == pytest.approx(59 / 81)

    def test_fixture_equals_the_packaged_files_loaded_as_user_files(self):
        data = Path(modelfit.__file__).resolve().parent / "data"
        state, models, dataset = reference_fixture()
        file_state, file_models = load_model(data / "reference_model.json", strict=True)
        file_dataset, warnings = io.parse_dataset_file(
            data / "reference_dataset_counts.json", strict=True
        )
        assert warnings == []
        assert dataset == file_dataset
        assert state.provenance == file_state.provenance == "reference"
        np.testing.assert_array_equal(state.raw.values, file_state.raw.values)
        assert list(models) == list(file_models) == list(EXPERIMENT_KEYS)
        for key, model in models.items():
            other = file_models[key]
            assert (model.experiment, model.eigenvalues, model.a_labels, model.b_labels) == (
                other.experiment, other.eigenvalues, other.a_labels, other.b_labels
            )
            np.testing.assert_array_equal(model.operator, other.operator)
            for v, w in zip(model.eigenvectors_raw, other.eigenvectors_raw):
                np.testing.assert_array_equal(v.values, w.values)

    def test_fixture_builds_fresh_objects_on_every_call(self):
        first_state, first_models, first_dataset = reference_fixture()
        second_state, second_models, second_dataset = reference_fixture()
        assert first_state is not second_state and first_dataset is not second_dataset
        assert first_models["AB"] is not second_models["AB"]
