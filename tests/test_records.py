"""bellkit's record classes: construction, defaults, ``==``, ``repr``,
hashing, the checks each constructor runs, and the fields that eight of
them compute from their arguments.

A record's fields, in ``==`` and ``repr``, are its constructor's
parameters; the fields it computes from them are attributes only."""
from __future__ import annotations

import importlib
import math
import pkgutil

import numpy as np
import pytest

import bellkit
from bellkit.bellstats import (
    TSIRELSON_BOUND,
    ChshReport,
    MarginalDeviation,
    TTestResult,
    chsh,
    expectation,
    marginal_deviations,
    student_t_tail,
    t_test_vs_threshold,
)
from bellkit.entanglement import (
    Evolution,
    FactorizationReport,
    Isomorphism,
    OperatorSchmidt,
    ProductIsoSearchResult,
    SchmidtDecomposition,
    canonical_iso_of,
    check_factorization,
    operator_schmidt,
    refute_common_product_iso,
    reshuffle,
    schmidt_state,
)
from bellkit.fitting import FitResult, StateFitResult
from bellkit.hilbert import orthonormalize
from bellkit.modelfit import ObservableModel, StateVector, reference_fixture
from bellkit.tables import CoincidenceTable, ExperimentDataset, SinglesTable
from bellkit.verify import CheckRow

EYE4 = np.eye(4, dtype=complex)
BASIS = list(EYE4)


def _tables(p11: float = 0.25) -> dict:
    rest = (1.0 - p11) / 3
    return {key: CoincidenceTable(key, p11, rest, rest, rest) for key in ("AB", "AB'", "A'B", "A'B'")}


TABLES = _tables()
SINGLES = SinglesTable({"A": (0.5, 0.5)})
STATE = StateVector(np.array([1, 0, 0, 0], dtype=complex))
E_VALUES = {"AB": -0.5, "AB'": 0.5, "A'B": 0.5, "A'B'": 0.5}
MODEL = ObservableModel("AB", BASIS, (1.0, -1.0, -1.0, 1.0))

# Each record: its fields in parameter order, valid arguments, the defaults
# of its trailing parameters, overrides that keep it == and that make it !=
# (None where every compared field is an array, see
# test_record_arrays_compare_as_in_a_tuple), and for each check an override
# that fails it with the message it raises.  Arrays are passed with the
# dtype a constructor converts to, so each field holds its argument itself.
RECORDS = [
    (CoincidenceTable,
     ("experiment", "p11", "p12", "p21", "p22", "a_labels", "b_labels", "counts", "n", "sum_tol"),
     ("AB", 0.25, 0.25, 0.25, 0.25, ("Horse", "Bear"), ("Growls", "Whinnies"), (1, 1, 1, 1), 4, 1e-9),
     {"a_labels": ("1", "2"), "b_labels": ("1", "2"), "counts": None, "n": None, "sum_tol": 1e-6},
     {}, {"experiment": "AB'"},
     [({"sum_tol": 1.0}, "tolerance must lie in"),
      ({"p11": math.nan}, "must be finite"),
      ({"p11": 1.5}, "must lie in \\[0, 1\\]"),
      ({"p11": 0.3}, "sum to 1.05"),
      ({"a_labels": ("1",)}, "two entries"),
      ({"n": None}, "n must be a positive integer"),
      ({"counts": (2, -1, 1, 2)}, "counts must be nonnegative"),
      ({"counts": (1.9, 1, 1, 1)}, "counts must be integers, got \\(1.9, 1, 1, 1\\)"),
      ({"counts": (math.inf, 1, 1, 1)}, "counts must be integers"),
      ({"counts": (1, 1, 1)}, "four nonnegative integers"),
      ({"counts": (2, 1, 1, 1)}, "counts sum to 5"),
      ({"counts": (2, 0, 1, 1)}, "disagree with probabilities")]),
    (SinglesTable,
     ("probabilities", "labels"),
     ({"A": (0.5, 0.5)}, {"A": ("Horse", "Bear")}),
     {"labels": {}},
     {"probabilities": {"A": (0.5, 0.5)}}, {"labels": {}},
     [({"probabilities": {"A": (1.0,)}}, "singles for A must be a pair"),
      ({"probabilities": {"A": (0.6, 0.6)}}, "singles for A: probabilities sum to")]),
    (ExperimentDataset,
     ("name", "tables", "singles", "n_subjects"),
     ("reference", TABLES, SINGLES, 81),
     {"singles": None, "n_subjects": None},
     {"tables": _tables()}, {"tables": _tables(0.4)},
     [({"tables": {k: v for k, v in TABLES.items() if k != "AB"}}, "missing coincidence tables: \\['AB'\\]"),
      ({"tables": {**TABLES, "BB": TABLES["AB"]}}, "unknown coincidence tables: \\['BB'\\]")]),
    (MarginalDeviation,
     ("side", "outcome", "experiment_lhs", "experiment_rhs", "lhs", "rhs"),
     ("A", 1, "AB", "AB'", 0.679, 0.618),
     {}, {}, {"rhs": 0.679}, []),
    (ChshReport,
     ("e_values", "marginal_deviations"),
     (E_VALUES, []),
     {}, {"e_values": dict(E_VALUES)}, {"e_values": {**E_VALUES, "AB": -0.6}}, []),
    (TTestResult,
     ("statistic", "df", "sample_mean", "sample_std", "threshold", "two_sided"),
     (2.2, 80, 2.4, 1.7, 2.0, False),
     {}, {}, {"two_sided": True}, []),
    (Isomorphism,
     ("matrix", "name"),
     (EYE4, "mine"),
     {"name": "canonical"}, {}, {"name": "canonical"},
     [({"matrix": np.eye(3)}, "must be 4x4"),
      ({"matrix": 2 * EYE4}, "isomorphism matrix is not unitary")]),
    (SchmidtDecomposition,
     ("matrix", "iso_name"),
     (np.diag([0.8, 0.6]), "mine"),
     {"iso_name": "canonical"}, {"iso_name": "other"}, None,
     [({"matrix": np.eye(2)}, "sum c\\^2 = 1, got 2.0"),
      ({"matrix": np.full((2, 2), math.inf)}, "svd expects finite entries")]),
    (OperatorSchmidt,
     ("transported",),
     (EYE4,),
     {}, {}, None,
     [({"transported": np.full((4, 4), math.inf)}, "svd expects finite entries")]),
    (Evolution,
     ("matrix", "source", "target"),
     (EYE4, "AB", "AB'"),
     {}, {}, {"target": "A'B"},
     [({"matrix": 2 * EYE4}, "evolution operator is not unitary")]),
    (FactorizationReport,
     ("joint",),
     (np.full((2, 2), 0.25),),
     {}, {}, None, []),
    (ProductIsoSearchResult,
     ("witness", "trials", "objective"),
     (Isomorphism(EYE4), 1, 1e-30),
     {}, {}, {"objective": 0.05}, []),
    (ObservableModel,
     ("experiment", "eigenvectors_raw", "eigenvalues", "a_labels", "b_labels"),
     ("AB", BASIS, (1.0, -1.0, -1.0, 1.0), ("Horse", "Bear"), ("Growls", "Whinnies")),
     {"a_labels": ("1", "2"), "b_labels": ("1", "2")}, {}, {"experiment": "AB'"},
     [({"eigenvectors_raw": BASIS[:3]}, "model needs four eigenvectors of dimension 4"),
      ({"eigenvectors_raw": [v[:3] for v in BASIS]}, "model needs four eigenvectors of dimension 4"),
      ({"eigenvalues": (1.0, -1.0, -1.0)}, "model needs four eigenvalues"),
      # a non-real eigenvalue would make the operator non-Hermitian
      ({"eigenvalues": (2j, -1.0, -1.0, 1.0)}, "at most 1e150 in magnitude, and real, got \\(2j, "),
      ({"eigenvalues": (1.0, -1.0, -2e150, 1.0)}, "at most 1e150 in magnitude"),
      ({"eigenvectors_raw": [2 * v for v in BASIS]}, "worst pair \\(0, 0\\) deviates by 3.0000")]),
    (StateVector,
     ("raw", "provenance"),
     (np.array([0.6, 0.8j, 0.0, 0.0]), "fitted"),
     {"provenance": "user"}, {}, {"provenance": "user"},
     [({"raw": np.ones(3, dtype=complex)}, "dimension 4"),
      ({"provenance": "guessed"}, "unknown provenance 'guessed'"),
      ({"raw": np.full(4, 0.51, dtype=complex)}, "state norm 1.020000 outside 1 \\+/- 1e-09")]),
    (FitResult,
     ("misfit", "converged", "matrix", "model"),
     (1e-30, True, EYE4, MODEL),
     {}, {}, {"converged": False},
     [({"misfit": -1.0}, "misfit must be nonnegative")]),
    (StateFitResult,
     ("state", "objective", "marginal_bound", "converged", "per_experiment", "trace", "restarts_used",
      "iterations", "evaluations"),
     (STATE, 1e-12, 0.0, True, {"AB": (MODEL, 1e-12)}, [0.5, 1e-12], 1, 12, 13),
     {}, {}, {"evaluations": 14}, []),
    (CheckRow,
     ("name", "passed", "measured", "expected", "tolerance", "note", "elapsed_ms"),
     ("chsh-value", True, "2.4197", "2.4197", "5e-05", "counts form", 1.5),
     {"note": "", "elapsed_ms": 0.0}, {}, {"passed": False}, []),
]


@pytest.mark.parametrize("cls, fields, args, defaults, same, differ, checks", RECORDS,
                         ids=[spec[0].__name__ for spec in RECORDS])
def test_record(cls, fields, args, defaults, same, differ, checks):
    keywords = dict(zip(fields, args))
    record = cls(*args)
    assert all(getattr(record, name) is value for name, value in keywords.items())

    # positional and keyword construction agree; omitted parameters take their defaults
    assert cls(**keywords) == record
    required = len(fields) - len(defaults)
    bare = cls(*args[:required])
    assert {name: getattr(bare, name) for name in fields[required:]} == defaults
    if "labels" in defaults:
        assert bare.labels is not cls(*args[:required]).labels

    # == over the compared fields, != its negation, records of another class unequal
    assert cls(**{**keywords, **same}) == record
    assert not cls(**{**keywords, **same}) != record
    if differ is not None:
        assert cls(**{**keywords, **differ}) != record
    assert record != args and record != object()

    assert repr(record) == f"{cls.__name__}({', '.join(f'{name}={value!r}' for name, value in keywords.items())})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)

    for override, message in checks:
        with pytest.raises(ValueError, match=message):
            cls(**{**keywords, **override})


def test_record_repr_text():
    row = MarginalDeviation("A", 1, "AB", "AB'", 0.679, 0.618)
    # computed attributes are not fields
    assert repr(row) == ("MarginalDeviation(side='A', outcome=1, experiment_lhs='AB', "
                         "experiment_rhs=\"AB'\", lhs=0.679, rhs=0.618)")
    assert row.deviation == abs(0.679 - 0.618)
    # class attributes are not fields
    assert repr(FitResult(0.0, True, None, None)) == "FitResult(misfit=0.0, converged=True, matrix=None, model=None)"
    assert FitResult(0.0, True, None, None).restarts_used == 1


def test_record_arrays_compare_as_in_a_tuple():
    # == compares the field tuples: an array field matches itself, and two
    # distinct arrays leave numpy's elementwise result, which has no truth value
    matrix = np.diag([0.8, 0.6])
    decomposition = SchmidtDecomposition(matrix)
    assert decomposition == SchmidtDecomposition(matrix, "other")
    with pytest.raises(ValueError, match="truth value of an array"):
        decomposition == SchmidtDecomposition(matrix.copy())  # noqa: B015


def test_every_record_class_has_a_row():
    for module in pkgutil.iter_modules(bellkit.__path__):
        importlib.import_module(f"bellkit.{module.name}")
    classes, unseen = set(), [bellkit._Record]
    while unseen:
        for cls in unseen.pop().__subclasses__():
            classes.add(cls)
            unseen.append(cls)
    assert classes == {spec[0] for spec in RECORDS}


@pytest.fixture(scope="module")
def derived_fields():
    """Per record class, pairs of a record its builder returns on the
    reference fixture and the fields the record computes, each computed here
    by the expression its docstring gives."""
    state, models, dataset = reference_fixture()
    psi, iso = state.values, canonical_iso_of(models["AB"])
    e = {key: expectation(table) for key, table in dataset.tables.items()}
    value = e["A'B'"] + e["A'B"] + e["AB'"] - e["AB"]
    one_sided, two_sided = (t_test_vs_threshold([2.1, 2.5, 1.9, 2.8, 2.4], 2.0, sides) for sides in (False, True))
    left, coefficients, right = np.linalg.svd(iso.apply(psi).reshape(2, 2))
    transported = iso.transport(models["AB'"].operator)
    u, sigma, vh = np.linalg.svd(reshuffle(transported))
    report = check_factorization(psi, models["AB"])
    marginal_a, marginal_b = report.joint.sum(axis=1), report.joint.sum(axis=0)
    expected = np.outer(marginal_a, marginal_b)
    operators = [models[key].operator for key in ("AB", "AB'", "A'B", "A'B'")]
    v = np.column_stack(models["AB"].eigenvectors)
    return {
        ChshReport: [(chsh(dataset), {"chsh": value, "violates": abs(value) > 2.0,
                                      "tsirelson_gap": TSIRELSON_BOUND - abs(value)})],
        MarginalDeviation: [(row, {"deviation": abs(row.lhs - row.rhs)}) for row in marginal_deviations(dataset)],
        TTestResult: [(one_sided, {"p_value": student_t_tail(one_sided.statistic, one_sided.df)}),
                      (two_sided, {"p_value": 2.0 * student_t_tail(abs(two_sided.statistic), two_sided.df)})],
        SchmidtDecomposition: [(schmidt_state(psi, iso),
                                {"coefficients": coefficients, "left": left, "right": right.T})],
        OperatorSchmidt: [(operator_schmidt(models["AB'"].operator, iso),
                           {"sigma": sigma, "factors_a": [u[:, k].reshape(2, 2) for k in range(4)],
                            "factors_b": [vh[k, :].reshape(2, 2) for k in range(4)]})],
        FactorizationReport: [(report, {"marginal_a": marginal_a, "marginal_b": marginal_b, "expected": expected,
                                        "deviations": np.abs(report.joint - expected),
                                        "max_deviation": np.abs(report.joint - expected).max()})],
        # no witness for the quartet, one for a pair
        ProductIsoSearchResult: [(refute_common_product_iso(operators), {"found": False, "witness": None}),
                                 (refute_common_product_iso(operators[:2]), {"found": True})],
        ObservableModel: [(models["AB"], {"eigenvectors": orthonormalize(models["AB"].eigenvectors_raw),
                                          "operator": (v * np.asarray(models["AB"].eigenvalues)) @ v.conj().T})],
    }


@pytest.mark.parametrize("cls", [ChshReport, MarginalDeviation, TTestResult, SchmidtDecomposition,
                                 OperatorSchmidt, FactorizationReport, ProductIsoSearchResult, ObservableModel],
                         ids=lambda cls: cls.__name__)
def test_record_computes_the_fields_its_builder_computed(derived_fields, cls):
    for record, expected in derived_fields[cls]:
        assert type(record) is cls
        for name, value in expected.items():
            assert np.array_equal(getattr(record, name), value), name
        # the record rebuilt from its own fields computes the same bits
        again = cls(*(getattr(record, name) for name in cls._fields))
        for name in expected:
            assert np.array_equal(getattr(again, name), getattr(record, name)), name
