"""bellkit's 17 record classes: construction, defaults, ``==``, ``repr``,
hashing and the checks each constructor runs."""
from __future__ import annotations

import math

import numpy as np
import pytest

from bellkit.bellstats import (
    TSIRELSON_BOUND,
    ChshReport,
    CoincidenceTable,
    ExperimentDataset,
    MarginalDeviation,
    SinglesTable,
    TTestResult,
)
from bellkit.entanglement import (
    Evolution,
    FactorizationReport,
    Isomorphism,
    OperatorSchmidt,
    ProductIsoSearchResult,
    SchmidtDecomposition,
)
from bellkit.modelfit import FitResult, ObservableModel, StateFitResult, StateVector
from bellkit.verify import CheckRow

EYE4 = np.eye(4, dtype=complex)
EYE2 = np.eye(2, dtype=complex)
DIAG = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
BASIS = list(EYE4)
HALF_EYE2 = [np.eye(2) / math.sqrt(2)]


def _tables(p11: float = 0.25) -> dict:
    rest = (1.0 - p11) / 3
    return {key: CoincidenceTable(key, p11, rest, rest, rest) for key in ("AB", "AB'", "A'B", "A'B'")}


TABLES = _tables()
SINGLES = SinglesTable({"A": (0.5, 0.5)})
STATE = StateVector(np.array([1, 0, 0, 0], dtype=complex))
E_VALUES = {"AB": -0.5, "AB'": 0.5, "A'B": 0.5, "A'B'": 0.5}
MODEL = ObservableModel("AB", BASIS, BASIS, (1.0, -1.0, -1.0, 1.0), DIAG)

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
      ({"n": None}, "positive n"),
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
     ("side", "outcome", "experiment_lhs", "experiment_rhs", "lhs", "rhs", "deviation"),
     ("A", 1, "AB", "AB'", 0.679, 0.618, 0.061),
     {}, {}, {"deviation": 0.0}, []),
    (ChshReport,
     ("e_values", "chsh", "violates", "tsirelson_gap", "marginal_deviations"),
     (E_VALUES, 2.0, False, TSIRELSON_BOUND - 2.0, []),
     {}, {"e_values": dict(E_VALUES)}, {"tsirelson_gap": 0.0},
     [({"chsh": 2.1}, "does not match its defining combination"),
      ({"violates": True}, "violates flag inconsistent")]),
    (TTestResult,
     ("statistic", "df", "p_value", "sample_mean", "sample_std", "threshold", "two_sided"),
     (2.2, 80, 0.0171, 2.4, 1.7, 2.0, False),
     {}, {}, {"two_sided": True}, []),
    (Isomorphism,
     ("matrix", "name"),
     (EYE4, "mine"),
     {"name": "canonical"}, {}, {"name": "canonical"},
     [({"matrix": np.eye(3)}, "must be 4x4"),
      ({"matrix": 2 * EYE4}, "isomorphism matrix is not unitary")]),
    (SchmidtDecomposition,
     ("coefficients", "left", "right", "iso_name"),
     (np.array([0.6, 0.8]), EYE2, EYE2, "mine"),
     {"iso_name": "canonical"}, {"iso_name": "other"}, None,
     [({"coefficients": np.array([1.0, 1.0])}, "sum c\\^2 = 1, got 2.0")]),
    (OperatorSchmidt,
     ("sigma", "factors_a", "factors_b", "transported"),
     (np.array([2.0, 0.0, 0.0, 0.0]), HALF_EYE2, HALF_EYE2, EYE4),
     {}, {}, {"factors_a": []},
     [({"sigma": np.array([1.0, 0.0, 0.0, 0.0])}, "sum sigma\\^2 must equal")]),
    (Evolution,
     ("matrix", "source", "target"),
     (EYE4, "AB", "AB'"),
     {}, {}, {"target": "A'B"},
     [({"matrix": 2 * EYE4}, "evolution operator is not unitary")]),
    (FactorizationReport,
     ("joint", "marginal_a", "marginal_b", "expected", "deviations", "max_deviation"),
     (np.full((2, 2), 0.25), np.full(2, 0.5), np.full(2, 0.5), np.full((2, 2), 0.25), np.zeros((2, 2)), 0.0),
     {}, {}, {"max_deviation": 0.5}, []),
    (ProductIsoSearchResult,
     ("found", "witness", "trials", "objective"),
     (True, Isomorphism(EYE4), 1, 1e-30),
     {}, {}, {"objective": 0.05}, []),
    (ObservableModel,
     ("experiment", "eigenvectors_raw", "eigenvectors", "eigenvalues", "operator", "a_labels", "b_labels"),
     ("AB", BASIS, BASIS, (1.0, -1.0, -1.0, 1.0), DIAG, ("Horse", "Bear"), ("Growls", "Whinnies")),
     {"a_labels": ("1", "2"), "b_labels": ("1", "2")}, {}, {"experiment": "AB'"},
     [({"eigenvectors": BASIS[:3]}, "model needs four eigenvectors"),
      ({"eigenvalues": (1.0, -1.0, -1.0)}, "model needs four eigenvalues"),
      ({"eigenvectors": [2 * v for v in BASIS]}, "orthonormal within 1e-9"),
      ({"operator": EYE4}, "does not match its spectral synthesis"),
      ({"eigenvalues": (1j, -1.0, -1.0, 1.0), "operator": np.diag([1j, -1, -1, 1])}, "must be Hermitian"),
      # within 1e-9 of the synthesis, Hermitian, and its square 1.8e-9 off the identity
      ({"operator": DIAG + 0.9e-9}, "must square to the identity")]),
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
     ("state", "objective", "converged", "per_experiment", "trace", "restarts_used", "iterations",
      "evaluations"),
     (STATE, 1e-12, True, {"AB": (MODEL, 1e-12)}, [0.5, 1e-12], 1, 12, 13),
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
    row = MarginalDeviation("A", 1, "AB", "AB'", 0.679, 0.618, 0.061)
    assert repr(row) == ("MarginalDeviation(side='A', outcome=1, experiment_lhs='AB', "
                         "experiment_rhs=\"AB'\", lhs=0.679, rhs=0.618, deviation=0.061)")
    # class attributes are not fields
    assert repr(FitResult(0.0, True, None, None)) == "FitResult(misfit=0.0, converged=True, matrix=None, model=None)"
    assert FitResult(0.0, True, None, None).restarts_used == 1


def test_record_arrays_compare_as_in_a_tuple():
    # == compares the field tuples: an array field matches itself, and two
    # distinct arrays leave numpy's elementwise result, which has no truth value
    left = np.eye(2)
    decomposition = SchmidtDecomposition([0.6, 0.8], left, left)
    assert decomposition == SchmidtDecomposition(decomposition.coefficients, left, left, "other")
    with pytest.raises(ValueError, match="truth value of an array"):
        decomposition == SchmidtDecomposition([0.6, 0.8], left, left)  # noqa: B015
