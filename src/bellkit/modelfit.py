"""Measurement models on C^4 and numerical fitting of bases and states.

A four-outcome coincidence measurement is represented by an orthonormal
eigenbasis with outcome eigenvalues (+1, -1, -1, +1 by default) and the
self-adjoint operator they synthesize.  Published bases arrive rounded, so
models keep both the raw vectors and their orthonormal repair.

fit_basis is exact: one Householder reflection maps the state onto the
square roots of the target probabilities, and it takes only a target misfit.
fit_state shares each single measurement between the two tables that run
it and solves its least-squares problem by the batched Levenberg iteration
of hilbert._levenberg over its seeded restarts, in blocks of a fixed size,
with the residuals' exact Jacobian; it takes a seed, a number of restarts
and a target misfit, and reports the closed-form lower bound that the
marginal law puts on its objective.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from importlib import resources

import numpy as np

from . import _Record, io
from .bellstats import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset
# gram is not called: perfbench/spans.py wraps modelfit's binding
from .hilbert import _levenberg, _values, from_polar_deg, gram, orthonormalize, tensor

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
# fitting

def check_fit_settings(target_misfit: float, seed: int = 0, restarts: int = 1) -> None:
    """ValueError unless 0 < target_misfit < inf, seed is an integer >= 0 and
    restarts an integer >= 1, each Python's or numpy's; NaN fails each check.
    fit_state and fit_basis run it first."""
    if not 0.0 < target_misfit < math.inf:  # NaN fails it too
        raise ValueError(f"target_misfit must be finite and positive, got {target_misfit}")
    for name, value, least in (("seed", seed, 0), ("restarts", restarts, 1)):
        if not (isinstance(value, (int, np.integer)) and value >= least):
            kind = "a non-negative integer" if least == 0 else "an integer of at least 1"
            raise ValueError(f"{name} must be {kind}, got {value!r}")


class FitResult(_Record):
    """Outcome of fit_basis.

    The fit is one closed-form step, so ``restarts_used`` and ``iterations``
    are both 1.
    """

    restarts_used = 1
    iterations = 1

    def __init__(self, misfit: float, converged: bool, matrix: np.ndarray, model: ObservableModel | None):
        self.misfit, self.converged, self.matrix, self.model = misfit, converged, matrix, model
        if not self.misfit >= 0:
            raise ValueError("misfit must be nonnegative")


def _normalized_target(target) -> np.ndarray:
    if not isinstance(target, CoincidenceTable):
        probs = np.asarray(target, dtype=float).reshape(-1)
        if probs.size != 4:
            raise ValueError("target must have four probabilities")
        # the dataset parser's default slack, for rounded published rows
        target = CoincidenceTable("target", *probs, sum_tol=0.005)
    # Tables admit entries down to -1e-12 (round-off); none may reach the
    # square root in fit_basis.
    probs = np.maximum(target.probabilities, 0.0)
    # Rounded published rows can sum to 0.999; probabilities over an
    # orthonormal basis sum to exactly 1, so fitting is well posed only for
    # a normalized target.
    return probs / probs.sum()


def fit_basis(state, target, target_misfit: float = 1e-10, experiment: str = "") -> FitResult:
    """Find an eigenbasis whose outcome probabilities match a target table.

    Closed form by one Householder reflection (Householder 1958).  Let
    q = sqrt(target) and x = exp(-i phi) state, where phi = arg<q|state>
    makes <q|x> real and nonnegative.  The reflection H = I - 2 w w^dagger
    with w = (x + q) / |x + q| maps x to -q, so the columns u_k = H e_k
    give |<u_k|state>|^2 = target_k.  Reflecting onto -q rather than q
    keeps |x + q|^2 = 2 + 2 |<q|state>| >= 2: no cancellation when x is
    close to q, and no special case when <q|state> = 0.

    ``misfit`` is sum_k (|<u_k|state>|^2 - target_k)^2 over the columns of
    ``matrix``, at round-off level; ``converged`` says whether it is at most
    ``target_misfit``.  A target misfit below round-off is reported as not
    converged, not raised.
    """
    check_fit_settings(target_misfit)
    psi = _unit_state(state)
    t = _normalized_target(target)
    labels = {}
    if isinstance(target, CoincidenceTable):
        experiment = experiment or target.experiment
        labels = {"a_labels": target.a_labels, "b_labels": target.b_labels}

    q = np.sqrt(t)
    x = psi * np.exp(-1j * np.angle(np.vdot(q, psi)))
    w = (x + q) / np.linalg.norm(x + q)
    matrix = np.eye(4) - 2.0 * np.outer(w, w.conj())
    d = np.abs(matrix.conj().T @ psi) ** 2 - t
    misfit = float(np.dot(d, d))
    return FitResult(
        misfit=misfit,
        converged=misfit <= target_misfit,
        matrix=matrix,
        model=synthesize(list(matrix.T), experiment=experiment, **labels),
    )


class StateFitResult(_Record):
    """Outcome of a whole-dataset state search.

    ``per_experiment`` maps experiment keys to (ObservableModel, misfit):
    the product measurement of the winning start for that table, and its
    misfit recomputed from the model's outcome probabilities at ``state``.
    ``marginal_bound`` is the closed-form lower bound on ``objective`` that
    the marginal law gives (fit_state).  ``trace`` lists the winning start's
    accepted objective values, so it is nonincreasing.  ``restarts_used`` is
    the index of the first start that reaches the target misfit plus 1, or
    the number of starts if none does.
    ``iterations`` is the most batched iterations any block of starts ran,
    and ``evaluations`` counts the points where residuals and Jacobian were
    evaluated: each start's first point and one per iteration it ran.
    """

    def __init__(self, state: StateVector, objective: float, marginal_bound: float, converged: bool,
                 per_experiment: dict, trace: list, restarts_used: int, iterations: int, evaluations: int):
        self.state, self.objective, self.marginal_bound = state, objective, marginal_bound
        self.converged = converged
        self.per_experiment, self.trace = per_experiment, trace
        self.restarts_used, self.iterations, self.evaluations = restarts_used, iterations, evaluations


# Pauli products P = s_mu (x) s_nu for mu, nu in (I, X, Y, Z), in the order of C[mu, nu] = <P>, and their real
# forms M = [[Re P, -Im P], [Im P, Re P]]: z^dagger P z = x.M x, x = (Re z, Im z).  C holds 1, the Bloch vectors m
# (column 0), n (row 0) and correlations t; a table's a.m, b.n, a.t.b weigh C by (1, a) (x) (1, b) under _MASKS.
_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
_PRODUCTS = np.array([np.kron(s, t) for s in _PAULI for t in _PAULI])
_REAL_FORMS = np.block([[_PRODUCTS.real, -_PRODUCTS.imag], [_PRODUCTS.imag, _PRODUCTS.real]]).reshape(128, 8).T
_MASKS = np.zeros((2, 3, 4, 4))  # on C, then on C^T, whose entries _C_AND_CT picks from C's
_MASKS[:, 2, 1:, 1:] = _MASKS[0, 0, 1:, 0] = _MASKS[0, 1, 0, 1:] = _MASKS[1, 0, 0, 1:] = _MASKS[1, 1, 1:, 0] = 1.0
_C_AND_CT = np.concatenate([np.arange(16), np.arange(16).reshape(4, 4).T.ravel()])
_USES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])[..., None]  # which of (a, b) a.m, b.n, a.t.b read
_SPREAD = (np.eye(16)[:, None, :] * _MASKS[0].reshape(3, 16)).reshape(16, 48)  # (1, a) (x) (1, b) to w
# The side that each table's directions a and b measure, in EXPERIMENT_KEYS order, the sides numbered A, A', B, B':
# AB reads A and B, AB' A and B', A'B A' and B, A'B' A' and B'.
_SLOT_SIDES = np.array([0, 2, 0, 3, 1, 2, 1, 3])
# fit_state's 20 parameters q are x = (Re z, Im z), then the directions of A, A', B and B'; p = q E^T gives the 32
# per-table parameters of _state_residuals, and its Jacobian in q is J E.
_EXPANSION = np.block([[np.eye(8), np.zeros((8, 12))],
                       [np.zeros((24, 8)), np.kron(np.eye(4)[_SLOT_SIDES], np.eye(3))]])


def _signature(target: np.ndarray) -> tuple:
    """Character decomposition (row bias, column bias, correlation) of a table."""
    t11, t12, t21, t22 = target
    return (t11 + t12 - t21 - t22, t11 - t12 + t21 - t22, t11 - t12 - t21 + t22)


def _state_residuals(params: np.ndarray, signatures: np.ndarray) -> tuple:
    """The 12 residuals r (B, 12) fit_state documents, and their Jacobian J (B, 12, 32).

    ``params`` (B, 32) holds x = (Re z, Im z), then table k's directions a and
    b in ``params[:, 8 + 6k:14 + 6k]``.  A fitted value v = w.C, w the masked
    (1, a) (x) (1, b), has gradient 2 (w.(M x) - v x) / x.x in x.  It is linear
    in each unit direction u = d / |d| it reads: its gradient g there has
    u.g = v, so its derivative in d is (g - v u) / |d|.
    """
    count = params.shape[0]
    x, directions = params[:, :8], params[:, 8:].reshape(count, 4, 2, 3)
    norms = np.sqrt(np.add.reduce(directions * directions, -1, keepdims=True))
    padded = np.ones((count, 4, 2, 4))  # (1, a) and (1, b) of each table
    units = np.divide(directions, norms, out=padded[..., 1:])
    outer = padded[:, :, 0, :, None] * padded[:, :, 1, None, :]
    weights = (outer.reshape(count, 4, 16) @ _SPREAD).reshape(count, 12, 16)
    mx = (x @ _REAL_FORMS).reshape(count, 16, 8)
    quadratic = mx @ x[:, :, None]
    c = quadratic / quadratic[:, :1]  # the first form is the identity: x.M x is x.x
    fitted = weights @ c
    np.negative(fitted, out=weights[..., :1])  # and its M x is x
    jac = np.concatenate(((weights @ mx) / quadratic[:, :1], np.zeros((count, 12, 24))), axis=2)
    masked = _MASKS * c.take(_C_AND_CT, 1).reshape(count, 2, 1, 4, 4)  # C for gradients in (1, a), C^T in (1, b)
    grads = (masked.reshape(count, 2, 12, 4) @ padded.transpose(0, 2, 3, 1)[:, ::-1]).reshape(count, 2, 3, 4, 4)
    blocks = grads.transpose(0, 4, 2, 1, 3)[..., 1:] - units[:, :, None] * fitted.reshape(count, 4, 3, 1, 1) * _USES
    own = np.einsum("bkjkc->bkjc", jac[:, :, 8:].reshape(count, 4, 3, 4, 6))  # a view: table k's own columns
    own[...] = (blocks * (0.5 / norms[:, :, None])).reshape(count, 4, 3, 6)
    return (fitted[..., 0] - signatures.reshape(12)) * 0.5, jac


# The stop rule fit_state passes to Levenberg's method (hilbert._levenberg).
_MAX_ITERATIONS = 400
_STALL_ITERATIONS = 8
_MIN_DECREASE = 1e-10
# fit_state runs its starts through _levenberg this many at a time.
_BLOCK_STARTS = 256


def _qubit_basis(direction: np.ndarray) -> np.ndarray:
    """The 2x2 basis whose rows are the eigenvectors (+1, -1) of the Pauli
    operator along a nonzero R^3 direction."""
    theta = math.atan2(math.hypot(direction[0], direction[1]), direction[2])
    phi = math.atan2(direction[1], direction[0])
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s * np.exp(1j * phi)], [-s * np.exp(-1j * phi), c]], dtype=complex)


def fit_state(dataset: ExperimentDataset, seed: int = 0, restarts: int = 64,
              target_misfit: float = 1e-10) -> StateFitResult:
    """Search for the unit state best explained by product measurements.

    Objective: the sum over the four coincidence tables of the product-basis
    misfit at the candidate state, where each single measurement is shared
    by the two tables that run it, as in the paper: A by AB and AB', A' by
    A'B and A'B', B by AB and A'B, and B' by AB' and A'B'.  A state reaches
    objective ~0 exactly when the whole dataset admits a representation by
    that state and four single measurements, one per side.

    The marginal law is imposed: the two tables of a side share its bias
    a.m (or b.n).  So the objective is at least ``marginal_bound``, the sum
    over the four sides of (difference of the side's biases in its two
    normalized tables)^2 / 8, which is d^2 / 2 for the side's first-outcome
    deviation d of bellstats.marginal_deviations.  That bound is certified in
    closed form; how far the objective lies above it is what the starts
    found, not a proof.

    For projectors along unit Bloch directions a and b, a table's misfit is
    ((a.m - ra)^2 + (b.n - rb)^2 + (a.t.b - rc)^2) / 4, where m, n and t are
    the state's marginal Bloch vectors and correlation matrix and (ra, rb,
    rc) the table's signature.  So the objective is the squared norm of 12
    residuals in 20 smooth parameters: psi = z / |z| with z in C^4, and per
    side one unnormalized R^3 direction divided by its norm, with an exact
    Jacobian evaluated alongside the residuals.

    The ``restarts`` starts, drawn as standard normals from ``seed``, run
    through Levenberg's damped Gauss-Newton method in blocks of 256 stacked
    starts, so memory does not grow with the number of restarts.  A start
    stops when its objective reaches ``target_misfit``, after 8 iterations
    in a row without a relative decrease above 1e-10, or after 400
    iterations.  The start with the lowest objective, then the lowest
    index, wins.  The recovered state is identified only up to the
    product-unitary gauge the objective cannot distinguish.
    """
    check_fit_settings(target_misfit, seed, restarts)
    tables = [dataset.tables[k] for k in EXPERIMENT_KEYS]
    targets = [_normalized_target(t) for t in tables]
    signatures = np.array([_signature(t) for t in targets])
    # a side's two tables share one bias, at best the mean of their two targets
    biases = signatures[:, :2].ravel()
    gaps = biases - (np.bincount(_SLOT_SIDES, biases) / 2)[_SLOT_SIDES]

    def residuals(q):
        r, jac = _state_residuals(q @ _EXPANSION.T, signatures)
        return r, jac @ _EXPANSION

    rng = np.random.default_rng(seed)
    objectives, winners, traces, iterations, evaluations = [], [], [], 0, 0
    for first in range(0, restarts, _BLOCK_STARTS):
        starts = rng.standard_normal((min(_BLOCK_STARTS, restarts - first), 20))
        params, f, history, count = _levenberg(residuals, starts, target_misfit, _MIN_DECREASE, _STALL_ITERATIONS,
                                               _MAX_ITERATIONS)
        # keep only the block's best start, so memory stays bounded by one block
        winner = int(np.argmin(f))
        objectives.append(f)
        winners.append(params[winner])
        traces.append(history[:, winner])
        iterations = max(iterations, len(history) - 1)
        evaluations += count
    objectives = np.concatenate(objectives)
    best = int(np.argmin(objectives))
    winner, trace = _EXPANSION @ winners[best // _BLOCK_STARTS], traces[best // _BLOCK_STARTS]
    z = winner[:4] + 1j * winner[4:8]
    # the global phase is free: make the first component real and nonnegative
    z = np.concatenate([[abs(z[0])], z[1:] * np.exp(-1j * np.angle(z[0]))])
    state = StateVector(z / np.linalg.norm(z), provenance="fitted")
    per_experiment = {}
    for table, target, (a, b) in zip(tables, targets, winner[8:].reshape(4, 2, 3)):
        model = synthesize(tensor(_qubit_basis(a), _qubit_basis(b)), experiment=table.experiment,
                           a_labels=table.a_labels, b_labels=table.b_labels)
        misfit = np.sum((probabilities_from_model(state, model).probabilities - target) ** 2)
        per_experiment[table.experiment] = (model, float(misfit))
    reached = np.flatnonzero(objectives <= target_misfit)
    return StateFitResult(
        state=state,
        objective=float(objectives[best]),
        marginal_bound=float(gaps @ gaps) / 4,
        converged=bool(reached.size),
        per_experiment=per_experiment,
        trace=[float(v) for v in trace[np.r_[True, np.diff(trace) < 0]]],
        restarts_used=int(reached[0]) + 1 if reached.size else restarts,
        iterations=iterations,
        evaluations=evaluations,
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
