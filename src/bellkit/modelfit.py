"""Measurement models on C^4, their forward probabilities, model files and
the reference fixture.

A four-outcome coincidence measurement is represented by an orthonormal
eigenbasis with outcome eigenvalues (+1, -1, -1, +1 by default) and the
self-adjoint operator they synthesize.  Published bases arrive rounded, so
models keep both the raw vectors and their orthonormal repair.  The seeded
basis and state fits live in bellkit.fitting, off reference_fixture's
import path.
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

import numpy as np

from . import _Record, io
# gram and tensor are not called: perfbench/spans.py wraps modelfit's bindings
from .hilbert import _values, from_polar_deg, gram, orthonormalize, tensor
from .tables import CoincidenceTable

_EIGENVALUE_PATTERN = (1.0, -1.0, -1.0, 1.0)


class ObservableModel(_Record):
    """A four-outcome measurement: eigenbasis, eigenvalues, operator.

    ``eigenvectors_raw`` holds the four 4-vectors as supplied (possibly
    rounded) and ``eigenvalues`` four real numbers of magnitude at most
    1e150.  The record computes ``eigenvectors``, their orthonormal repair by
    hilbert.orthonormalize, which refuses a family beyond 0.05 of
    orthonormal, and ``operator``, the spectral synthesis
    sum(lambda_k |v_k><v_k|) over the repaired vectors.  Golden tests can
    target either form of the vectors.
    """

    def __init__(self, experiment: str, eigenvectors_raw: list, eigenvalues: tuple,
                 a_labels: tuple = ("1", "2"), b_labels: tuple = ("1", "2")):
        self.experiment = experiment
        self.eigenvectors_raw, self.eigenvalues = eigenvectors_raw, eigenvalues
        self.a_labels, self.b_labels = a_labels, b_labels
        if len(self.eigenvectors_raw) != 4 or any(np.shape(v) != (4,) for v in self.eigenvectors_raw):
            raise ValueError("model needs four eigenvectors of dimension 4")
        if len(self.eigenvalues) != 4:
            raise ValueError("model needs four eigenvalues")
        lam = np.asarray(self.eigenvalues)
        if not (np.isreal(lam).all() and np.max(np.abs(lam)) <= 1e150):  # NaN fails the bound
            raise ValueError(
                f"eigenvalues must be finite, at most 1e150 in magnitude, and real, got {self.eigenvalues}"
            )
        self.eigenvectors = orthonormalize(self.eigenvectors_raw)
        self.operator = _spectral_sum(self.eigenvalues, self.eigenvectors)

    @property
    def outcome_labels(self) -> tuple:
        return tuple(f"{a} {b}" for a in self.a_labels for b in self.b_labels)


class StateVector(_Record):
    """A unit state with a provenance tag.

    ``raw`` keeps the as-given components, a complex array of shape (4,).
    Provenance "reference" admits rounded published amplitudes (norm within
    0.02 of 1); "fitted" and "user" require unit norm within 1e-9.  The
    ``values`` property always returns the exactly normalized vector used in
    computations.
    """

    def __init__(self, raw: np.ndarray, provenance: str = "user"):
        self.raw = np.asarray(raw, dtype=complex)
        self.provenance = provenance
        if self.raw.shape != (4,):
            raise ValueError("state must have dimension 4")
        if self.provenance not in ("reference", "fitted", "user"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        tol = 0.02 if self.provenance == "reference" else 1e-9
        with np.errstate(over="ignore"):  # an overflowing norm fails the bound
            norm = np.linalg.norm(self.raw)
        if not abs(norm - 1.0) <= tol:
            raise ValueError(
                f"state norm {norm:.6f} outside 1 +/- {tol} for provenance {self.provenance!r}"
            )

    @property
    def values(self) -> np.ndarray:
        return self.raw / np.linalg.norm(self.raw)


def _unit_state(state) -> np.ndarray:
    """A StateVector's values; any other state must be unit within 1e-6 (NaN
    fails) and is normalized."""
    if isinstance(state, StateVector):
        return state.values
    psi = _values(state).reshape(-1)
    with np.errstate(over="ignore"):  # an overflowing norm fails the bound
        norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError("state must be a unit vector")
    return psi / norm


def _spectral_sum(eigenvalues, vectors) -> np.ndarray:
    """The operator sum(lambda_k |v_k><v_k|), as (V * lambda) @ V^dagger."""
    v = np.column_stack(vectors)
    return (v * np.asarray(eigenvalues)) @ v.conj().T


def synthesize(eigenvectors, eigenvalues=_EIGENVALUE_PATTERN, experiment: str = "",
               a_labels=("1", "2"), b_labels=("1", "2")) -> ObservableModel:
    """Build a measurement model by spectral synthesis.

    Converts the eigenvectors to complex arrays, the eigenvalues to floats
    and the labels to tuples, and builds the ObservableModel, which repairs
    the possibly rounded family by hilbert.orthonormalize and assembles the
    operator sum(lambda_k |v_k><v_k|).  ValueError as the record raises it.
    """
    return ObservableModel(experiment, [np.asarray(v, dtype=complex) for v in eigenvectors],
                           tuple(float(lam) for lam in eigenvalues), tuple(a_labels), tuple(b_labels))


def probabilities_from_model(state, model: ObservableModel) -> CoincidenceTable:
    """Outcome probabilities |<v_k|state>|^2 over the repaired basis."""
    psi = _unit_state(state)
    probs = np.array([abs(np.vdot(v, psi)) ** 2 for v in model.eigenvectors])
    return CoincidenceTable(
        model.experiment or "model",
        *probs,
        a_labels=model.a_labels,
        b_labels=model.b_labels,
        sum_tol=1e-9,
    )


# ---------------------------------------------------------------------------
# file loading and the reference fixture

def _state_from_content(block: dict) -> StateVector:
    return StateVector(
        from_polar_deg(block["amplitudes"], block["phases_deg"]),
        provenance=block["provenance"],
    )


def _model_from_content(content: dict) -> tuple:
    """(StateVector or None, dict of ObservableModel) from parsed model-file content."""
    state = None if content["state"] is None else _state_from_content(content["state"])
    models = {
        key: synthesize(
            [from_polar_deg(v["amplitudes"], v["phases_deg"]) for v in block["eigenvectors"]],
            eigenvalues=tuple(block["eigenvalues"]),
            experiment=key,
            a_labels=tuple(block["a_labels"]),
            b_labels=tuple(block["b_labels"]),
        )
        for key, block in content["measurements"].items()
    }
    return state, models


def load_state(path, strict: bool = False) -> tuple:
    """Load a state file; returns (StateVector, warnings), the warnings as
    io.parse_state_file reports them."""
    content, warnings = io.parse_state_file(path, strict=strict)
    return _state_from_content(content), warnings


def load_model(path, strict: bool = False) -> tuple:
    """Load a model file; returns ((StateVector or None, dict of
    ObservableModel keyed by experiment), warnings), the warnings as
    io.parse_model_file reports them."""
    content, warnings = io.parse_model_file(path, strict=strict)
    return _model_from_content(content), warnings


def _data_text(name: str) -> str:
    return resources.files("bellkit").joinpath("data").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _fixture_docs() -> tuple:
    """Parsed content of the reference model file, and the decoded dataset document."""
    model_content, _ = io.parse_model_doc(json.loads(_data_text("reference_model.json")))
    dataset_doc = json.loads(_data_text("reference_dataset_counts.json"))
    return model_content, dataset_doc


def reference_fixture() -> tuple:
    """The built-in reference experiment: state, four models, dataset.

    Returns (StateVector, dict of ObservableModel keyed by experiment,
    ExperimentDataset).  The dataset is the exact-counts reconstruction of
    the published table; amplitudes and phases of the state and the sixteen
    eigenvectors are the printed two-decimal values.
    """
    model_content, dataset_doc = _fixture_docs()
    state, models = _model_from_content(model_content)
    dataset, _ = io.parse_dataset_doc(dataset_doc)
    return state, models, dataset


def reference_published_operators() -> dict:
    """The four published operator matrices, as printed (three decimals).

    These are golden reference values, independent of the matrices that
    ``reference_fixture`` synthesizes from the rounded eigenvectors; the two
    routes agree within the rounding tolerance 0.01.
    """
    doc = json.loads(_data_text("reference_operators.json"))
    return {
        key: np.array([[complex(re, im) for re, im in row] for row in rows])
        for key, rows in doc["operators"].items()
    }
