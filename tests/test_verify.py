"""The stacked seeded suites of verify-paper against the per-trial route.

Each suite draws all its trials at once and cuts the draw into per-trial
samples.  These tests check that every trial is the model the sequential
per-trial helpers of ``oracles`` draw, that the stacked property values
equal the library's per-trial values, and that a planted bad trial still
fails its row.
"""
from __future__ import annotations

import types

import numpy as np
import pytest

from bellkit import verify
from bellkit.bellstats import chsh, marginal_deviations
from bellkit.entanglement import (
    OperatorSchmidt,
    check_factorization,
    evolution_between,
    is_product_evolution,
    random_isomorphism,
)
from oracles import _random_product_pair, _random_quartet, _unit, _unitary2

PAIR_SUITE = (101, 1000)
QUARTET_SUITES = [(102, 500), (103, 1000)]
PLANTED = 7  # the trial the planting tests corrupt


def _close(a, b, tol=1e-14):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol


def test_pair_stack_matches_per_trial_draws():
    seed, trials = PAIR_SUITE
    _, z_ua, z_ub, z_a, z_b = verify._draw_stack(np.random.default_rng(seed), trials, verify.PAIR_LAYOUT)
    isos, families, states = verify._pair_stack(np.random.default_rng(seed), trials)
    unitaries = [verify._orthonormal_columns(z) for z in (z_ua, z_ub)]
    qubits = [verify._unit_rows(z) for z in (z_a, z_b)]
    helpers = np.random.default_rng(seed)  # per-trial order: iso, ua, ub, two qubit states
    pairs = np.random.default_rng(seed)
    for i in range(trials):
        assert np.array_equal(isos[i], random_isomorphism(helpers).matrix), i
        for stack in unitaries:
            assert _close(stack[i], _unitary2(helpers)), i
        for stack in qubits:
            assert _close(stack[i], _unit(helpers, 2)), i
        iso, family, psi = _random_product_pair(pairs)
        assert np.array_equal(isos[i], iso.matrix), i
        assert _close(families[i], np.column_stack(family)), i
        assert _close(states[i], psi), i


@pytest.mark.parametrize("seed, trials", QUARTET_SUITES)
def test_quartet_stack_matches_per_trial_draws(seed, trials):
    _, *z_sides, z_psi = verify._draw_stack(np.random.default_rng(seed), trials, verify.QUARTET_LAYOUT)
    isos, families, states = verify._quartet_stack(np.random.default_rng(seed), trials)
    unitaries = [verify._orthonormal_columns(z) for z in z_sides]
    psis = verify._unit_rows(z_psi)
    helpers = np.random.default_rng(seed)  # per-trial order: iso, ua, ua', ub, ub', psi
    quartets = np.random.default_rng(seed)
    for i in range(trials):
        assert np.array_equal(isos[i], random_isomorphism(helpers).matrix), i
        for stack in unitaries:
            assert _close(stack[i], _unitary2(helpers)), i
        assert _close(psis[i], _unit(helpers, 4)), i
        iso, trial_families, psi = _random_quartet(quartets)
        assert np.array_equal(isos[i], iso.matrix), i
        for key, family in trial_families.items():
            assert _close(families[key][i], np.column_stack(family)), (i, key)
        assert _close(states[i], psi), i


def test_stacked_factorization_deviation_matches_every_trial():
    seed, trials = PAIR_SUITE
    _, families, states = verify._pair_stack(np.random.default_rng(seed), trials)
    stacked = verify._factorization_deviations(families, states)
    rng = np.random.default_rng(seed)
    for i in range(trials):
        _, family, psi = _random_product_pair(rng)
        assert abs(stacked[i] - check_factorization(psi, family).max_deviation) <= verify.ROUTE_TOL, i


@pytest.mark.parametrize("seed, trials", QUARTET_SUITES)
def test_stacked_ranks_marginals_and_chsh_match_every_trial(seed, trials):
    isos, families, states = verify._quartet_stack(np.random.default_rng(seed), trials)
    products = verify._evolution_products(isos, families)
    tables = verify._table_stack(families, states)
    marginal = verify._worst_marginal_deviation(tables)
    chsh_values = np.abs(verify._chsh_values(tables))
    rng = np.random.default_rng(seed)
    for i in range(trials):
        iso, trial_families, psi = _random_quartet(rng)
        for k, (src, dst) in enumerate(verify.EVOLUTION_PAIRS):
            evolution = evolution_between(trial_families[src], trial_families[dst])
            transported = iso.transport(evolution.matrix)
            rank = OperatorSchmidt(transported).rank()
            assert products[i, k] == (rank == 1), (i, src, dst)
            assert products[i, k] == is_product_evolution(evolution, iso), (i, src, dst)
        one_trial = {key: [np.column_stack(family)] for key, family in trial_families.items()}
        trial_tables = verify._trial_tables(one_trial, [psi], 0)
        deviation = max(row.deviation for row in marginal_deviations(trial_tables))
        assert abs(marginal[i] - deviation) <= verify.ROUTE_TOL, i
        assert abs(chsh_values[i] - abs(chsh(trial_tables).chsh)) <= verify.ROUTE_TOL, i


# ---------------------------------------------------------------------------
# planted failures


def _planting(monkeypatch, stack_fn: str, plant):
    original = getattr(verify, stack_fn)

    def planted(rng, trials):
        stack = original(rng, trials)
        plant(*stack)
        return stack

    monkeypatch.setattr(verify, stack_fn, planted)


def _column_of(psi: np.ndarray, k: int) -> np.ndarray:
    """A unitary whose column k is psi up to a phase."""
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(4)[:, :3]]))
    order = [1, 2, 3]
    order.insert(k, 0)
    return q[:, order]


def test_entangled_family_fails_product_factorization(monkeypatch):
    bell = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]]) / np.sqrt(2)

    def plant(isos, families, states):
        families[PLANTED] = isos[PLANTED].conj().T @ bell

    _planting(monkeypatch, "_pair_stack", plant)
    row = verify._check_product_factorization()
    assert not row.passed
    assert float(row.measured.split()[-1]) > 1e-3
    assert "differs from the per-trial route" not in row.note


def test_non_product_evolution_fails_shared_basis_evolutions(monkeypatch):
    cnot = np.eye(4)[[0, 1, 3, 2]]

    def plant(isos, families, states):
        iso = isos[PLANTED]
        families["AB'"][PLANTED] = iso.conj().T @ cnot @ iso @ families["AB"][PLANTED]

    _planting(monkeypatch, "_quartet_stack", plant)
    row = verify._check_shared_basis_evolutions()
    assert not row.passed
    assert row.measured.startswith("1 non-product evolutions, ")
    assert "differs from the per-trial route" not in row.note


def test_contextual_families_fail_tsirelson_bound(monkeypatch):
    # psi is outcome 12 of AB (E = -1) and outcome 11 of the others (E = +1).
    def plant(isos, families, states):
        for key in families:
            families[key][PLANTED] = _column_of(states[PLANTED], 1 if key == "AB" else 0)

    _planting(monkeypatch, "_quartet_stack", plant)
    row = verify._check_tsirelson_bound()
    assert not row.passed
    assert row.measured == "largest |CHSH| 4.000000"
    assert "differs from the per-trial route" not in row.note


def _stretched_family(isos, families, states):
    families["AB'"][PLANTED] *= 1.01


def _stretched_state(isos, families, states):
    states[PLANTED] *= 1.01


@pytest.mark.parametrize("check, plant, message", [
    (verify._check_shared_basis_evolutions, _stretched_family, "evolution operator is not unitary"),
    (verify._check_tsirelson_bound, _stretched_state, "AB: probabilities sum to 1.020100"),
])
def test_stacks_get_the_per_trial_constructor_checks(monkeypatch, check, plant, message):
    _planting(monkeypatch, "_quartet_stack", plant)
    with pytest.raises(ValueError, match=message):
        check()


@pytest.mark.parametrize("check", [
    verify._check_product_factorization,
    verify._check_shared_basis_evolutions,
    verify._check_tsirelson_bound,
])
def test_each_seeded_row_draws_its_generator_once(monkeypatch, check):
    original = np.random.default_rng
    seeds = []

    def counting(seed=None):
        seeds.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    row = check()
    assert row.passed
    assert len(seeds) == 1


def _shifted_factorization(state, family):
    report = check_factorization(state, family)
    report.max_deviation += 1e-11
    return report


def _shifted_marginals(tables):
    rows = marginal_deviations(tables)
    for row in rows:
        row.deviation += 1e-11
    return rows


def _shifted_chsh(tables):
    return types.SimpleNamespace(chsh=chsh(tables).chsh + 1e-11)


@pytest.mark.parametrize("check, name, shifted", [
    (verify._check_product_factorization, "check_factorization", _shifted_factorization),
    (verify._check_shared_basis_evolutions, "marginal_deviations", _shifted_marginals),
    (verify._check_tsirelson_bound, "chsh", _shifted_chsh),
])
def test_disagreeing_per_trial_route_fails_the_row(monkeypatch, check, name, shifted):
    passing = check()
    monkeypatch.setattr(verify, name, shifted)
    row = check()
    assert passing.passed and not row.passed
    assert row.measured == passing.measured
    assert "differs from the per-trial route by 1.00e-11" in row.note


def test_run_verification_builds_the_reference_fixture_once_and_leaves_it_unchanged(monkeypatch):
    original = verify.reference_fixture
    built = []

    def counting():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(verify, "reference_fixture", counting)
    rows = verify.run_verification()
    assert len(built) == 1
    assert all(row.passed for row in rows)
    # the rows share that one fixture, so none of them may change it
    (state, models, dataset), (fresh_state, fresh_models, fresh_dataset) = built[0], original()
    assert np.array_equal(state.values, fresh_state.values)
    for key in fresh_models:
        assert np.array_equal(models[key].operator, fresh_models[key].operator), key
        assert np.array_equal(dataset.tables[key].probabilities, fresh_dataset.tables[key].probabilities), key


def test_no_verdict_reads_the_clock(monkeypatch):
    unpatched = verify.run_verification()
    readings = iter(range(0, 10**6, 100))  # a clock that advances 100 s per reading
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: float(next(readings))))
    rows = verify.run_verification()
    assert len(rows) == 12 and all(row.passed for row in rows)
    for row, reference in zip(rows, unpatched):
        assert row.to_dict() | {"elapsed_ms": 0.0} == reference.to_dict() | {"elapsed_ms": 0.0}, row.name
        # two readings per row, both at the one timing site
        assert row.elapsed_ms == 100_000.0, row.name
