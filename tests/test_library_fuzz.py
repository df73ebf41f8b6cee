"""Library-level robustness: constructors reject non-finite input, and every
object they accept goes through the downstream functions cleanly.

``tests/test_fuzz.py`` does the same for the command line.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellkit.bellstats import chsh, marginal_deviations, student_t_tail, t_test_vs_threshold
from bellkit.entanglement import (
    Evolution,
    Isomorphism,
    OperatorSchmidt,
    SchmidtDecomposition,
    canonical_iso_of,
    check_factorization,
    operator_schmidt,
    refute_common_product_iso,
    schmidt_state,
)
import bellkit.fitting as fitting
from bellkit.fitting import FitResult, fit_basis, fit_state
from bellkit.hilbert import check_unitary, orthonormalize
from bellkit.modelfit import (
    ObservableModel,
    StateVector,
    probabilities_from_model,
    reference_fixture,
    synthesize,
)
from bellkit.tables import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset

from oracles import random_state, random_unitary

NAN = math.nan
NAN_VECTORS = [np.full(4, NAN)] * 4
NAN_MATRIX = np.full((4, 4), NAN)
NAN_FAMILY = "family is beyond repair: not orthonormal within 0.05, worst pair \\(0, 0\\) deviates by nan"


@pytest.mark.parametrize("build, message", [
    (lambda: check_unitary(NAN_MATRIX, "matrix"), "matrix is not unitary"),
    (lambda: Isomorphism(NAN_MATRIX), "isomorphism matrix is not unitary"),
    (lambda: Evolution(NAN_MATRIX, "AB", "AB'"), "evolution operator is not unitary"),
    (lambda: orthonormalize(NAN_VECTORS), NAN_FAMILY),
    (lambda: canonical_iso_of(NAN_VECTORS), NAN_FAMILY),
    (lambda: synthesize(NAN_VECTORS), NAN_FAMILY),
    (lambda: ObservableModel("AB", NAN_VECTORS, (1, -1, -1, 1)), NAN_FAMILY),
    (lambda: ObservableModel("AB", list(np.eye(4)), (1, -1, NAN, 1)), "eigenvalues must be finite"),
    (lambda: schmidt_state(np.full(4, NAN)), "schmidt_state expects a unit state"),
    (lambda: check_factorization(np.full(4, NAN), np.eye(4)), "check_factorization expects a unit state"),
    (lambda: fit_basis(np.full(4, NAN), [0.25] * 4), "state must be a unit vector"),
    (lambda: SchmidtDecomposition(np.full((2, 2), NAN)), "svd expects finite entries"),
    (lambda: OperatorSchmidt(NAN_MATRIX), "svd expects finite entries"),
    (lambda: FitResult(NAN, True, np.eye(4), None), "misfit must be nonnegative"),
    (lambda: CoincidenceTable("AB", 0.0, 0.0, 0.0, 0.0, sum_tol=NAN), "tolerance must lie in \\[0, 1\\)"),
    (lambda: fit_state(reference_fixture()[2], target_misfit=NAN), "target_misfit must be finite and positive"),
    (lambda: student_t_tail(NAN, 5), "t must not be NaN"),
    (lambda: student_t_tail(1.0, NAN), "df must be finite and at least 1, got nan"),
    (lambda: t_test_vs_threshold([1.0, NAN, 2.0], 0.5), "samples must be finite"),
    (lambda: t_test_vs_threshold([1.0, math.inf, 2.0], 0.5), "samples must be finite"),
    (lambda: t_test_vs_threshold([1.0, 2.0, 3.0], NAN), "threshold must be finite, got nan"),
    (lambda: refute_common_product_iso([np.eye(4), NAN_MATRIX]), "operators must have finite entries"),
    (lambda: refute_common_product_iso([np.eye(4), np.full((4, 4), math.inf)]), "operators must have finite entries"),
], ids=["check_unitary", "Isomorphism", "Evolution", "orthonormalize", "canonical_iso_of", "synthesize",
        "ObservableModel", "ObservableModel-eigenvalue", "schmidt_state", "check_factorization", "fit_basis-state",
        "SchmidtDecomposition", "OperatorSchmidt", "FitResult", "CoincidenceTable",
        "fit_state", "student_t_tail-t", "student_t_tail-df", "t_test-nan-sample", "t_test-inf-sample",
        "t_test-threshold", "refute-nan", "refute-inf"])
def test_nan_fails_every_bound_check(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda psi: schmidt_state(psi), "schmidt_state expects a unit state"),
    (lambda psi: check_factorization(psi, np.eye(4)), "check_factorization expects a unit state"),
    (lambda psi: fit_basis(psi, [0.25] * 4), "state must be a unit vector"),
], ids=["schmidt_state", "check_factorization", "fit_basis"])
def test_an_overflowing_norm_fails_the_unit_checks_without_a_warning(build, message):
    with pytest.raises(ValueError, match=message):
        build(np.full(4, 1e200))


# Settings that fit_state cannot run: range() and SeedSequence take only
# non-negative integers.
@pytest.mark.parametrize("fields, message", [
    ({"restarts": 2.5}, "restarts must be an integer of at least 1, got 2.5"),
    ({"restarts": np.float64(3)}, "restarts must be an integer of at least 1, got (np.float64\\()?3.0"),
    ({"restarts": math.inf}, "restarts must be an integer of at least 1, got inf"),
    ({"restarts": NAN}, "restarts must be an integer of at least 1, got nan"),
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
], ids=["restarts-float", "restarts-numpy-float", "restarts-inf", "restarts-nan", "seed-float",
        "seed-negative", "seed-str"])
def test_fit_config_refuses_what_fit_state_cannot_run(fields, message):
    with pytest.raises(ValueError, match=message):
        fit_state(reference_fixture()[2], **fields)


def test_fit_config_accepts_numpy_integers(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 5)
    _, _, dataset = reference_fixture()
    assert fit_state(dataset, seed=np.int64(3), restarts=np.int32(2)).restarts_used == 2


# fit_basis runs fit_state's check on its target misfit: at inf every fit
# would report convergence, and at NaN, 0 or below none would.
@pytest.mark.parametrize("target_misfit", [math.inf, NAN, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
def test_fit_basis_refuses_a_target_misfit_that_is_not_finite_and_positive(target_misfit):
    state, _, dataset = reference_fixture()
    with pytest.raises(ValueError, match=f"target_misfit must be finite and positive, got {target_misfit}$"):
        fit_basis(state, dataset.tables["AB"], target_misfit)


# Any double, with the values at the edges of what the constructors accept
# drawn more often.
EDGES = (NAN, math.inf, -math.inf, 0.0, -0.0, -1e-12, -2e-12, 1.0 + 1e-12, 5e-324, 1e-300,
         1e150, 2e150, 1e300, 1.7976931348623157e308)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES)


def _spoil(draw, values: list, make=lambda x: x) -> list:
    """Replace up to two entries of ``values`` by arbitrary doubles."""
    values = list(values)
    for index in draw(st.sets(st.integers(0, len(values) - 1), max_size=2)):
        values[index] = make(draw(ANY_FLOAT))
    return values


@st.composite
def tables(draw, key: str):
    """A CoincidenceTable, or None where its constructor refuses the draw."""
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(-2, 50), min_size=4, max_size=4))
        n = draw(st.sampled_from([sum(counts)]) | st.integers(-2, 200))
        build = lambda: CoincidenceTable.from_counts(key, counts, n)  # noqa: E731
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
        total = sum(weights)
        probs = _spoil(draw, [w / total for w in weights] if total > 0 else weights)
        sum_tol = draw(st.sampled_from([1e-9, 1e-6, 0.005]) | ANY_FLOAT)
        build = lambda: CoincidenceTable(key, *probs, sum_tol=sum_tol)  # noqa: E731
    try:
        return build()
    except ValueError:
        return None


@st.composite
def states(draw):
    """A StateVector, or None where its constructor refuses the draw."""
    psi = random_state(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 4)
    scale = draw(st.sampled_from([1.0]) | st.floats(0.97, 1.03))
    raw = _spoil(draw, psi * scale, lambda x: complex(x, draw(ANY_FLOAT)))
    try:
        return StateVector(raw, provenance=draw(st.sampled_from(["reference", "fitted", "user"])))
    except ValueError:
        return None


@st.composite
def models(draw):
    """An ObservableModel from synthesize, or None where it refuses the draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = random_unitary(rng, 4).T + draw(st.floats(0.0, 0.02)) * rng.standard_normal((4, 4))
    vectors = [_spoil(draw, v, lambda x: complex(x, draw(ANY_FLOAT))) for v in basis]
    eigenvalues = _spoil(draw, draw(st.sampled_from([(1.0, -1.0, -1.0, 1.0), (0.3, -1.7, 2.5, 0.0)])))
    try:
        return synthesize(vectors, eigenvalues=eigenvalues, experiment="AB")
    except ValueError:
        return None


def _finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=complex)).all() for v in values)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.fixed_dictionaries({key: tables(key) for key in EXPERIMENT_KEYS}), states(), models())
def test_whatever_a_constructor_accepts_every_downstream_function_accepts(drawn_tables, state, model):
    accepted = {key: table for key, table in drawn_tables.items() if table is not None}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if len(accepted) == 4:
            dataset = ExperimentDataset("fuzz", accepted)
            report = chsh(dataset)
            assert _finite(report.chsh, report.tsirelson_gap, list(report.e_values.values()))
            rows = marginal_deviations(dataset)
            assert _finite([(row.lhs, row.rhs, row.deviation) for row in rows])
        if state is not None:
            assert _finite(schmidt_state(state).coefficients)
            for table in accepted.values():
                fit = fit_basis(state, table)
                assert _finite(fit.misfit, fit.matrix, fit.model.operator)
        if model is not None:
            decomposition = operator_schmidt(model.operator)
            assert _finite(decomposition.sigma)
        if state is not None and model is not None:
            assert _finite(probabilities_from_model(state, model).probabilities)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16))
def test_fit_state_never_ends_below_its_marginal_bound(data_seed, seed):
    # the two tables of a side share its bias, so no start can end below the
    # closed-form bound; random tables break the marginal law
    rng = np.random.default_rng(data_seed)
    tables = {key: CoincidenceTable(key, *rng.dirichlet(np.ones(4))) for key in EXPERIMENT_KEYS}
    result = fit_state(ExperimentDataset("random", tables), seed=seed, restarts=2)
    assert result.objective >= result.marginal_bound - 1e-12


def test_the_fuzzed_constructors_accept_some_draws():
    """Guard against a strategy that only ever draws refused inputs."""
    found = {"table": False, "state": False, "model": False}

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(tables("AB"), states(), models())
    def probe(table, state, model):
        found["table"] |= table is not None
        found["state"] |= state is not None
        found["model"] |= model is not None

    probe()
    assert all(found.values()), found
