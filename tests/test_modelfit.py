"""Tests for measurement-model synthesis, forward probabilities, and fitting."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import bellkit.fitting as fitting
import bellkit.modelfit as modelfit
from bellkit import io
from bellkit.bellstats import MARGINAL_PLAN, chsh, marginal_deviations
from bellkit.entanglement import canonical_iso_of
from bellkit.fitting import fit_basis, fit_state
from bellkit.hilbert import from_polar_deg, gram, orthonormalize, polar_deg, tensor
from bellkit.modelfit import (
    ObservableModel,
    StateVector,
    load_model,
    probabilities_from_model,
    reference_fixture,
    synthesize,
)
from bellkit.tables import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset

from oracles import (
    TABLE_SIDES,
    expectation_from_model,
    levenberg_gather_scatter,
    random_state,
    random_unitary,
    state_residuals_by_slots,
)

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


def test_synthesize_weights_each_projector_by_its_eigenvalue():
    rng = np.random.default_rng(31)
    eigenvalues = (0.3, -1.7, 2.5, 0.0)
    for _ in range(20):
        q = random_unitary(rng, 4)
        model = synthesize([q[:, k] for k in range(4)], eigenvalues=eigenvalues)
        expected = sum(lam * np.outer(v, v.conj())
                       for lam, v in zip(eigenvalues, model.eigenvectors))
        np.testing.assert_allclose(model.operator, expected, atol=1e-14)


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


@pytest.mark.parametrize("family, worst", [
    ([np.eye(4)[0], np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]], "(0, 1) deviates by 1.0000"),
    ([np.full(4, np.nan)] * 4, "(0, 0) deviates by nan"),
], ids=["duplicate", "nan"])
def test_every_repair_site_refuses_with_the_message_of_orthonormalize(family, worst):
    message = f"family is beyond repair: not orthonormal within 0.05, worst pair {worst}"
    for build in (orthonormalize, synthesize, canonical_iso_of,
                  lambda vectors: ObservableModel("AB", vectors, (1.0, -1.0, -1.0, 1.0))):
        with pytest.raises(ValueError) as raised:
            build(family)
        assert str(raised.value) == message, build


@pytest.mark.parametrize("eigenvalue", [np.inf, -np.inf, np.nan, 2e150])
def test_synthesize_rejects_eigenvalues_beyond_1e150(eigenvalue):
    with pytest.raises(ValueError, match="eigenvalues must be finite, at most 1e150"):
        synthesize(np.eye(4), eigenvalues=(1.0, -1.0, eigenvalue, 1.0))
    assert synthesize(np.eye(4), eigenvalues=(1.0, -1.0, -1e150, 1.0)).operator[2, 2] == -1e150


def test_synthesize_accepts_rounded_but_repairable_family():
    _, models, _ = reference_fixture()
    for model in models.values():
        assert np.max(np.abs(gram(model.eigenvectors) - np.eye(4))) <= 1e-9
        assert np.max(np.abs(gram(model.eigenvectors_raw) - np.eye(4))) > 0.0


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
            from_polar_deg((0.23, 0.62, 0.75, 0.0), (13.93, 16.72, 9.69, 194.15)),
            provenance="reference",
        )
        assert np.linalg.norm(state.raw) == pytest.approx(0.99990, abs=1e-4)
        assert np.linalg.norm(state.values) == pytest.approx(1.0, abs=1e-12)

    def test_fitted_provenance_requires_unit_norm(self):
        with pytest.raises(ValueError, match="provenance 'fitted'"):
            StateVector(np.array([0.23, 0.62, 0.75, 0.0]), provenance="fitted")

    def test_unknown_provenance(self):
        with pytest.raises(ValueError, match="unknown provenance"):
            StateVector(np.array([1.0, 0, 0, 0]), provenance="published")

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension 4"):
            StateVector(np.array([1.0, 0.0]))


def test_reference_fixture_returns_fresh_objects():
    state, models, dataset = reference_fixture()
    pristine = (state.values.copy(), models["AB"].operator.copy(), dataset.tables["AB"].p11)
    state.raw[0] = 7.0
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
        probabilities_from_model(np.array([2.0, 0, 0, 0]), model)


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
    result = fit_basis(psi, target, target_misfit=1e-10)
    assert result.converged
    assert result.misfit <= 1e-10
    recovered = probabilities_from_model(psi, result.model)
    np.testing.assert_allclose(recovered.probabilities, target.probabilities, atol=1e-5)


def test_fit_basis_reference_row_converges():
    state, _, dataset = reference_fixture()
    result = fit_basis(state, dataset.tables["AB"], target_misfit=1e-8)
    assert result.converged
    assert result.misfit <= 1e-8
    assert result.restarts_used <= 64


def test_fit_basis_rejects_invalid_target():
    with pytest.raises(ValueError, match="sum to"):
        fit_basis(np.array([1.0, 0, 0, 0]), (1.0, 1.0, 0.0, 0.0))


def test_fit_basis_rejects_nan_target():
    with pytest.raises(ValueError, match="finite"):
        fit_basis(np.array([1.0, 0, 0, 0]), (np.nan, 0.5, 0.5, 0.0))


def test_fit_basis_takes_a_table_with_a_round_off_negative_entry():
    # tables admit entries down to -1e-12; the fit treats them as 0
    table = CoincidenceTable("AB", -1e-12, 0.5, 0.25, 0.25 + 1e-12)
    result = fit_basis(np.array([0.5, 0.5, 0.5, 0.5]), table)
    assert result.converged
    np.testing.assert_allclose(probabilities_from_model([0.5, 0.5, 0.5, 0.5], result.model).probabilities,
                               [0.0, 0.5, 0.25, 0.25], atol=1e-11)


def test_fit_basis_is_deterministic_given_seed():
    rng = np.random.default_rng(9)
    psi = random_state(rng, 4)
    target = probabilities_from_model(psi, synthesize(random_on_basis(rng)))
    first = fit_basis(psi, target, target_misfit=1e-10)
    second = fit_basis(psi, target, target_misfit=1e-10)
    assert first.misfit == second.misfit
    np.testing.assert_array_equal(first.matrix, second.matrix)


def test_fit_basis_unconverged_is_reported_not_raised():
    # the exact fit still leaves a misfit at round-off level, above this target
    state, _, dataset = reference_fixture()
    result = fit_basis(state, dataset.tables["AB"], target_misfit=1e-300)
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
        result = fit_basis(psi, t, target_misfit=1e-28)
        assert result.misfit <= 1e-28, (psi, t)
        assert np.max(np.abs(result.matrix.conj().T @ result.matrix - np.eye(4))) <= 1e-14
        assert result.converged and result.restarts_used == 1 and result.iterations == 1


def test_fit_config_validation():
    _, _, dataset = reference_fixture()
    for target in (0.0, -1e-8, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="target_misfit must be finite and positive"):
            fit_state(dataset, target_misfit=target)
    with pytest.raises(ValueError, match="at least 1"):
        fit_state(dataset, restarts=0)


# ---------------------------------------------------------------------------
# fit_state


def _measured(psi, bases):
    """Dataset of state psi under, per experiment key, the product of a pair of qubit bases."""
    tables = {}
    for key, (ua, ub) in bases.items():
        vectors = [tensor(ua[i], ub[j]) for i in (0, 1) for j in (0, 1)]
        tables[key] = probabilities_from_model(psi, synthesize(vectors, experiment=key))
    return ExperimentDataset(name="generated", tables=tables)


def _product_dataset(rng):
    """Dataset generated by one state and four single measurements, each
    shared by the two experiments that run it."""

    def qubit_basis():
        u = random_unitary(rng, 2)
        return u[:, 0], u[:, 1]

    psi = random_state(rng, 4)
    a_side = {"A": qubit_basis(), "A'": qubit_basis()}
    b_side = {"B": qubit_basis(), "B'": qubit_basis()}
    pairs = {"AB": ("A", "B"), "AB'": ("A", "B'"), "A'B": ("A'", "B"), "A'B'": ("A'", "B'")}
    return psi, _measured(psi, {key: (a_side[a], b_side[b]) for key, (a, b) in pairs.items()})


def test_fit_state_realizable_dataset_converges_and_reproduces_tables():
    rng = np.random.default_rng(42)
    _, dataset = _product_dataset(rng)
    result = fit_state(dataset, seed=5, target_misfit=1e-8, restarts=16)
    assert result.converged
    assert result.objective <= 1e-8
    assert result.marginal_bound <= 1e-28  # the data keep the marginal law
    # the fitted state and measurements reproduce every target probability;
    # the state itself is identified only up to a product-unitary gauge
    for key, (model, misfit) in result.per_experiment.items():
        fitted = probabilities_from_model(result.state, model)
        np.testing.assert_allclose(
            fitted.probabilities, dataset.tables[key].probabilities, atol=1e-4
        )
        assert misfit <= 1e-8


def test_fit_state_reference_dataset_has_no_product_representation():
    # the reference data break the marginal law, so no start can represent
    # them: the objective is at least the closed-form bound, well above 1e-4
    _, _, dataset = reference_fixture()
    result = fit_state(dataset, seed=1, target_misfit=1e-8, restarts=3)
    assert not result.converged
    assert result.objective >= result.marginal_bound > 1e-4


def test_fit_state_degenerate_dataset_gives_basis_aligned_state():
    tables = {key: CoincidenceTable(key, 1.0, 0.0, 0.0, 0.0) for key in EXPERIMENT_KEYS}
    dataset = ExperimentDataset(name="degenerate", tables=tables)
    result = fit_state(dataset, seed=2, target_misfit=1e-8, restarts=8)
    assert result.converged
    # all mass on one outcome forces a (near-)product state aligned with the
    # first eigenvector of every fitted measurement
    schmidt = np.linalg.svd(result.state.values.reshape(2, 2), compute_uv=False)
    assert schmidt[1] <= 0.02
    for model, _ in result.per_experiment.values():
        overlap = abs(np.vdot(model.eigenvectors[0], result.state.values))
        assert overlap >= 0.999


def test_fit_state_trace_is_monotone():
    rng = np.random.default_rng(8)
    _, dataset = _product_dataset(rng)
    result = fit_state(dataset, seed=3, target_misfit=1e-10, restarts=4)
    trace = np.asarray(result.trace)
    assert np.all(np.diff(trace) <= 0)


@pytest.fixture(scope="module")
def reference_state_fit():
    _, _, dataset = reference_fixture()
    return dataset, fit_state(dataset, seed=0, restarts=8, target_misfit=1e-8)


def test_fit_state_reference_objective_at_seed_0(reference_state_fit):
    _, result = reference_state_fit
    assert result.objective == pytest.approx(0.57038299, rel=1e-6)
    assert result.objective >= result.marginal_bound
    # no start reaches the target; all stall before the default cap of 400
    assert result.restarts_used == 8
    assert result.iterations < 400


def test_fit_state_marginal_bound_is_half_the_squared_deviations(reference_state_fit):
    # sum over the sides of d^2 / 2, d the side's first-outcome deviation
    dataset, result = reference_state_fit
    rows = [row for row in marginal_deviations(dataset) if row.outcome == 1]
    assert result.marginal_bound == pytest.approx(sum((row.lhs - row.rhs) ** 2 / 2 for row in rows), rel=1e-12)
    assert result.marginal_bound == pytest.approx(0.5605090687, rel=1e-9)


def test_fit_state_tables_of_a_side_share_its_measurement(reference_state_fit):
    # a product model's eigenvectors are a_i (x) b_j in the order 11, 12, 21,
    # 22, so the first outcome of side 0 spans vectors 0 and 1, of side 1
    # vectors 0 and 2; their projector is |a_1><a_1| (x) I or I (x) |b_1><b_1|
    _, result = reference_state_fit

    def first_outcome(key, table_side):
        vectors = result.per_experiment[key][0].eigenvectors
        return sum(np.outer(v, v.conj()) for v in (vectors[0], vectors[1 + table_side]))

    for _, lhs, rhs, table_side in MARGINAL_PLAN:
        np.testing.assert_allclose(first_outcome(lhs, table_side), first_outcome(rhs, table_side), atol=1e-12)


def test_fit_state_ends_above_the_bound_on_data_that_break_the_marginal_law():
    # psi = cos 0.3 |00> + sin 0.3 |11>, with A along z in AB and along x in
    # AB', A' along x in A'B and along z in A'B'; B along z, B' along x.  With
    # its own directions per table, the search reached objective 1.2e-11 here.
    # The first-outcome marginals of A, and of A', differ by cos(0.6) / 2
    # between their two tables, so the bound is cos(0.6)^2 / 4.
    psi = np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)])
    z, x = np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    dataset = _measured(psi, {"AB": (z, z), "AB'": (x, x), "A'B": (x, z), "A'B'": (z, x)})
    result = fit_state(dataset, seed=0, restarts=8)
    assert result.marginal_bound == pytest.approx(np.cos(0.6) ** 2 / 4, rel=1e-12)
    assert not result.converged
    assert result.objective >= result.marginal_bound


def test_fit_state_table_misfits_are_those_of_the_reported_models(reference_state_fit):
    realizable = _product_dataset(np.random.default_rng(42))[1]
    for dataset, result in (
        reference_state_fit,
        (realizable, fit_state(realizable, seed=5, target_misfit=1e-8, restarts=4)),
    ):
        total = 0.0
        for key, (model, misfit) in result.per_experiment.items():
            target = dataset.tables[key].probabilities / dataset.tables[key].probabilities.sum()
            fitted = probabilities_from_model(result.state, model).probabilities
            assert abs(misfit - np.sum((fitted - target) ** 2)) <= 1e-12
            total += misfit
        assert total <= result.objective + 1e-12


def test_fit_state_restarts_used_is_the_first_start_reaching_the_target(monkeypatch):
    # start k's search does not depend on the other starts, and a smaller
    # batch draws the first rows of a larger one; with 6 iterations only
    # some starts of this dataset reach the target
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 6)
    _, dataset = _product_dataset(np.random.default_rng(1))
    result = fit_state(dataset, seed=3, target_misfit=1e-8, restarts=8)
    assert result.converged
    assert result.restarts_used == 7
    first_seven = fit_state(dataset, seed=3, target_misfit=1e-8, restarts=7)
    assert first_seven.restarts_used == 7
    # the winner is the best start of all eight
    assert result.objective <= first_seven.objective
    first_six = fit_state(dataset, seed=3, target_misfit=1e-8, restarts=6)
    assert not first_six.converged
    assert first_six.restarts_used == 6


def test_fit_state_blocks_of_starts_match_one_stack(monkeypatch):
    # 300 starts span two blocks; the winner of this seed lies in the second
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 6)
    _, _, dataset = reference_fixture()
    restarts = fitting._BLOCK_STARTS + 44
    result = fit_state(dataset, seed=1, target_misfit=1e-8, restarts=restarts)
    signatures = np.array([fitting._signature(t.probabilities / t.probabilities.sum())
                           for t in (dataset.tables[k] for k in EXPERIMENT_KEYS)])
    starts = np.random.default_rng(1).standard_normal((restarts, 20))
    params, objectives, history, evaluations = fitting._levenberg(
        lambda p: fitting._state_residuals(p, signatures), starts, 1e-8
    )
    best = int(np.argmin(objectives))
    assert best >= fitting._BLOCK_STARTS
    assert result.objective == objectives[best]
    z = params[best, :4] + 1j * params[best, 4:8]
    assert abs(np.vdot(z / np.linalg.norm(z), result.state.values)) == pytest.approx(1.0, abs=1e-12)
    reached = np.flatnonzero(objectives <= 1e-8)
    assert result.restarts_used == (reached[0] + 1 if reached.size else restarts)
    assert result.evaluations == evaluations
    assert result.iterations == len(history) - 1
    trace = history[:, best]
    assert result.trace == list(trace[np.r_[True, np.diff(trace) < 0]])


def test_fit_state_memory_is_bounded_by_one_block(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 2)
    _, _, dataset = reference_fixture()
    peaks = {}
    for restarts in (fitting._BLOCK_STARTS, 1000):
        tracemalloc.start()
        try:
            fit_state(dataset, seed=0, restarts=restarts)
            peaks[restarts] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= 1.1 * peaks[fitting._BLOCK_STARTS]


def _stop_rule(monkeypatch, min_decrease, stall_iterations, max_iterations):
    """Set the stop rule fitting._levenberg reads when it is called."""
    monkeypatch.setattr(fitting, "_MIN_DECREASE", min_decrease)
    monkeypatch.setattr(fitting, "_STALL_ITERATIONS", stall_iterations)
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", max_iterations)


@pytest.mark.parametrize("rows, cols", [(288, 9), (12, 32), (40, 41), (41, 40)])
def test_primal_and_dual_damped_steps_agree(rows, cols, monkeypatch):
    # the core's first trial point, from its dual step -J^T (J J^T + lam I)^-1 r
    # at lam = 1e-3, against the primal (J^T J + lam I) delta = -J^T r; the
    # singular values of J are of order 1, so neither system is worse
    # conditioned than about 1e3
    rng = np.random.default_rng(rows * cols)
    r = rng.standard_normal((6, rows))
    jac = rng.standard_normal((6, rows, cols)) / np.sqrt(max(rows, cols))
    trials = []

    def residuals(p):
        trials.append(p.copy())
        return r, jac

    _stop_rule(monkeypatch, 0.0, 8, 1)
    fitting._levenberg(residuals, np.zeros((6, cols)), 0.0)
    jac_t = jac.transpose(0, 2, 1)
    primal = -np.linalg.solve(jac_t @ jac + 1e-3 * np.eye(cols), jac_t @ r[..., None])[..., 0]
    assert trials[1].shape == primal.shape == (6, cols)
    assert np.max(np.abs(trials[1] - primal)) <= 1e-12 * max(1.0, np.max(np.abs(primal)))


@pytest.mark.parametrize("rows, cols", [(4, 30)])
def test_levenberg_solves_the_smaller_system(rows, cols, monkeypatch):
    # a linear least-squares problem with fewer residuals than parameters: the
    # core reaches its minimum, and every solve it runs is R x R
    rng = np.random.default_rng(7)
    jac = rng.standard_normal((3, rows, cols))
    b = rng.standard_normal((3, rows))
    sizes = []
    solve = np.linalg.solve

    def recording(a, rhs):
        sizes.append(a.shape[-1])
        return solve(a, rhs)

    _stop_rule(monkeypatch, 1e-12, 8, 200)
    monkeypatch.setattr(np.linalg, "solve", recording)
    params, objectives, _, _ = fitting._levenberg(
        lambda p: ((jac @ p[..., None])[..., 0] - b, jac), np.zeros((3, cols)), 1e-20)
    monkeypatch.undo()
    assert set(sizes) == {min(rows, cols)}
    best = np.array([np.linalg.lstsq(j, v, rcond=None)[0] for j, v in zip(jac, b)])
    floor = np.sum(((jac @ best[..., None])[..., 0] - b) ** 2, axis=1)
    np.testing.assert_allclose(objectives, floor, rtol=1e-9, atol=1e-18)


def test_levenberg_leaves_its_starts_unchanged(monkeypatch):
    # three starts, one already at the target: the first stops at once, the
    # other two run and stop later, and the array passed in keeps its values
    c = np.array([0.5, -1.0])
    starts = np.array([c, [3.0, 2.0], [-4.0, 0.25]])
    before = starts.copy()
    _stop_rule(monkeypatch, 1e-12, 8, 100)
    params, _, _, _ = fitting._levenberg(lambda p: (p - c, np.broadcast_to(np.eye(2), (len(p), 2, 2))),
                                         starts, 1e-20)
    np.testing.assert_array_equal(starts, before)
    np.testing.assert_allclose(params, [c, c, c], atol=1e-9)


def _signatures_of(dataset):
    return np.array([fitting._signature(t.probabilities / t.probabilities.sum())
                     for t in (dataset.tables[k] for k in EXPERIMENT_KEYS)])


def _both_loops(dataset, starts, target_misfit):
    """(compact loop, gather-scatter loop) results from the same starts, and the
    number of rows each residual evaluation of the compact loop received."""
    signatures = _signatures_of(dataset)
    sizes = []

    def residuals(params):
        sizes.append(len(params))
        return fitting._state_residuals(params, signatures)

    got = fitting._levenberg(residuals, starts.copy(), target_misfit)
    want = levenberg_gather_scatter(lambda p: fitting._state_residuals(p, signatures), starts.copy(),
                                    target_misfit, fitting._MAX_ITERATIONS)
    for mine, theirs in zip(got[:3], want[:3]):
        assert np.array_equal(mine, theirs)
    assert got[3] == want[3] == sum(sizes)
    return got, sizes


@pytest.mark.parametrize("data", ["reference", "product"])
@pytest.mark.parametrize("starts, max_iterations", [(1, 400), (8, 400), (300, 400), (1, 1), (8, 1), (300, 1)])
def test_levenberg_is_bit_identical_to_the_gather_scatter_loop(data, starts, max_iterations, monkeypatch):
    # params, objectives, history and evaluations, bit for bit; on the
    # realizable product data the starts reach the target at different
    # iterations, so the compact rows shrink more than once
    dataset = reference_fixture()[2] if data == "reference" else _product_dataset(np.random.default_rng(1))[1]
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", max_iterations)
    draws = np.random.default_rng(3).standard_normal((starts, 20))
    (_, _, history, _), sizes = _both_loops(dataset, draws, 1e-10)
    assert len(history) == len(sizes) <= max_iterations + 1
    if data == "product" and starts > 1 and max_iterations > 1:
        assert len(set(sizes)) >= 3
        assert sorted(sizes, reverse=True) == sizes


def test_levenberg_start_at_the_target_runs_no_iteration():
    # start 0 begins at a point that already meets the target: it is frozen
    # before the first step, while the other starts run on
    dataset = _product_dataset(np.random.default_rng(1))[1]
    draws = np.random.default_rng(3).standard_normal((8, 20))
    solved, objectives, _, _ = levenberg_gather_scatter(
        lambda p: fitting._state_residuals(p, _signatures_of(dataset)), draws.copy(), 1e-10,
        fitting._MAX_ITERATIONS)
    draws[0] = solved[int(np.argmin(objectives))]
    (params, _, history, _), sizes = _both_loops(dataset, draws, 1e-10)
    assert history[0, 0] <= 1e-10
    assert np.all(history[:, 0] == history[0, 0])
    assert np.array_equal(params[0], draws[0])
    assert sizes[:2] == [8, 7]


def test_fit_state_counts_iterations_and_residual_evaluations(monkeypatch):
    # no start of the reference dataset converges or stalls within 5
    # iterations: each evaluates its residuals and Jacobian once at its
    # start, then once at the trial point of each iteration
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 5)
    _, _, dataset = reference_fixture()
    result = fit_state(dataset, seed=1, target_misfit=1e-8, restarts=3)
    assert result.iterations == 5
    assert result.evaluations == 3 * (1 + 5)
    # the trace holds the winning start's accepted values only
    assert 1 <= len(result.trace) <= 6
    assert np.all(np.diff(result.trace) < 0)
    assert result.trace[-1] == result.objective


def _correlations(psi):
    """<psi| s_mu (x) s_nu |psi> as a 4x4 array, from the Kronecker products."""
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    return np.array([[np.vdot(psi, np.kron(s, t) @ psi).real for t in paulis] for s in paulis])


def test_state_jacobian_matches_central_differences_over_scales():
    # |z| and each side's direction norm are log-uniform over 1e-3..1e3; column
    # i of J scales as 1 / (norm of its block), so each column is compared on
    # its own
    rng = np.random.default_rng(17)
    blocks = [range(8)] + [range(8 + 3 * i, 11 + 3 * i) for i in range(4)]
    for _ in range(40):
        signatures = rng.uniform(-1, 1, (4, 3))
        params = rng.standard_normal(20)
        scale = np.empty(20)
        for block in blocks:
            block = list(block)
            scale[block] = 10.0 ** rng.uniform(-3, 3)
            params[block] *= scale[block] / np.linalg.norm(params[block])
        r, jac = fitting._state_residuals(params[None], signatures)
        assert r.shape == (1, 12) and jac.shape == (1, 12, 20)
        # the residuals themselves, from psi and the Pauli products
        z = params[:4] + 1j * params[4:8]
        c = _correlations(z / np.linalg.norm(z))
        directions = params[8:].reshape(4, 3)[TABLE_SIDES]
        units = directions / np.linalg.norm(directions, axis=-1, keepdims=True)
        fitted = [(a @ c[1:, 0], b @ c[0, 1:], a @ c[1:, 1:] @ b) for a, b in units]
        np.testing.assert_allclose(r[0], 0.5 * (np.ravel(fitted) - signatures.ravel()), rtol=0, atol=1e-12)
        central = np.empty((12, 20))
        for i in range(20):
            step = np.zeros(20)
            step[i] = 1e-5 * scale[i]
            plus, minus = (fitting._state_residuals((params + sign * step)[None], signatures)[0][0]
                           for sign in (1, -1))
            central[:, i] = (plus - minus) / (2 * step[i])
        error = np.abs(central - jac[0]).max(axis=0)
        assert np.all(error <= 1e-6 * np.abs(jac[0]).max(axis=0))
        # table k's rows are exactly zero in the columns of the two sides it does not read
        for k in range(4):
            for side in set(range(4)) - set(TABLE_SIDES[k]):
                assert np.all(jac[0, 3 * k:3 * k + 3, 8 + 3 * side:11 + 3 * side] == 0.0)


def test_state_residuals_agree_with_the_slot_by_slot_route_to_round_off():
    # the same residuals and Jacobian in another order of operations; every
    # residual is at most 1 in size, and each column of J at most 1 over the
    # norm of its block, so both routes agree to a few units of round-off on
    # those scales, with |z| and each side's direction norm log-uniform over
    # 1e-3..1e3
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for count in (1, 7, 300):
        signatures = rng.uniform(-1, 1, (4, 3))
        params = rng.standard_normal((count, 20))
        for block in [slice(0, 8)] + [slice(8 + 3 * i, 11 + 3 * i) for i in range(4)]:
            params[:, block] *= 10.0 ** rng.uniform(-3, 3, (count, 1))
        r, jac = fitting._state_residuals(params, signatures)
        r_ref, jac_ref = state_residuals_by_slots(params, signatures)
        assert r.shape == r_ref.shape and jac.shape == jac_ref.shape
        assert np.all(np.abs(r - r_ref) <= 16 * eps)
        block_norms = np.concatenate([np.linalg.norm(params[:, :8], axis=1, keepdims=True).repeat(8, 1),
                                      np.linalg.norm(params[:, 8:].reshape(count, 4, 3), axis=2).repeat(3, 1)], 1)
        assert np.all(np.abs(jac - jac_ref) <= 16 * eps / block_norms[:, None, :])
        assert np.array_equal(jac == 0, jac_ref == 0)


def _with_forward_differences(signatures, step=1e-7):
    """fit_state's residuals in its 20 parameters, with a forward-difference
    Jacobian in those parameters in place of the exact one."""

    def values(q):
        return fitting._state_residuals(q, signatures)[0]

    def residuals(q):
        r = values(q)
        moved = values((q[:, None, :] + step * np.eye(20)).reshape(-1, 20)).reshape(len(q), 20, 12)
        return r, (moved - r[:, None, :]).transpose(0, 2, 1) / step

    return residuals


def _both_routes(dataset, seed, restarts, target_misfit):
    """(objectives, restarts used) of the exact and the forward-difference route."""
    signatures = np.array([fitting._signature(t.probabilities / t.probabilities.sum())
                           for t in (dataset.tables[k] for k in EXPERIMENT_KEYS)])
    routes = []
    for residuals in (lambda p: fitting._state_residuals(p, signatures), _with_forward_differences(signatures)):
        starts = np.random.default_rng(seed).standard_normal((restarts, 20))
        objectives = fitting._levenberg(residuals, starts, target_misfit)[1]
        reached = np.flatnonzero(objectives <= target_misfit)
        routes.append((objectives, reached[0] + 1 if reached.size else restarts))
    return routes


def test_exact_jacobian_reaches_the_forward_difference_objective(reference_state_fit):
    dataset, result = reference_state_fit
    (exact, used), (differenced, used_differenced) = _both_routes(dataset, 0, 8, 1e-8)
    assert used == used_differenced == result.restarts_used
    assert exact.min() == result.objective
    assert abs(exact.min() - differenced.min()) <= 1e-9 * differenced.min()
    # random tables, which break the marginal law: the exact route never
    # ends more than 1e-8 relative above the forward-difference one, and
    # some of these datasets have no representation the search finds
    rng = np.random.default_rng(23)
    unreached = 0
    for _ in range(10):
        tables = {key: CoincidenceTable(key, *rng.dirichlet(np.ones(4))) for key in EXPERIMENT_KEYS}
        (exact, _), (differenced, _) = _both_routes(ExperimentDataset(name="random", tables=tables), 4, 4, 1e-10)
        assert exact.min() <= max(differenced.min() * (1 + 1e-8), 1e-10)
        unreached += differenced.min() > 1e-6
    assert unreached >= 3


# ---------------------------------------------------------------------------
# reference fixture


class TestReferenceFixture:
    def test_state_amplitudes_and_phases(self):
        state, _, _ = reference_fixture()
        amplitudes, phases = polar_deg(state.raw)
        np.testing.assert_allclose(amplitudes, (0.23, 0.62, 0.75, 0.0), atol=1e-12)
        np.testing.assert_allclose(phases[:3], (13.93, 16.72, 9.69), atol=1e-9)
        assert state.provenance == "reference"

    def test_ab_prime_fourth_eigenvector(self):
        _, models, _ = reference_fixture()
        amplitudes, phases = polar_deg(models["AB'"].eigenvectors_raw[3])
        assert amplitudes[3] == pytest.approx(0.93, abs=1e-12)
        assert phases[3] == pytest.approx(85.52, abs=1e-9)

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
        (file_state, file_models), _ = load_model(data / "reference_model.json", strict=True)
        file_dataset, warnings = io.parse_dataset_file(
            data / "reference_dataset_counts.json", strict=True
        )
        assert warnings == []
        assert dataset == file_dataset
        assert state.provenance == file_state.provenance == "reference"
        np.testing.assert_array_equal(state.raw, file_state.raw)
        assert list(models) == list(file_models) == list(EXPERIMENT_KEYS)
        for key, model in models.items():
            other = file_models[key]
            assert (model.experiment, model.eigenvalues, model.a_labels, model.b_labels) == (
                other.experiment, other.eigenvalues, other.a_labels, other.b_labels
            )
            np.testing.assert_array_equal(model.operator, other.operator)
            for v, w in zip(model.eigenvectors_raw, other.eigenvectors_raw):
                np.testing.assert_array_equal(v, w)

    def test_fixture_builds_fresh_objects_on_every_call(self):
        first_state, first_models, first_dataset = reference_fixture()
        second_state, second_models, second_dataset = reference_fixture()
        assert first_state is not second_state and first_dataset is not second_dataset
        assert first_models["AB"] is not second_models["AB"]
