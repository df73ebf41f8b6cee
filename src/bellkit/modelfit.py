"""Measurement models on C^4 and numerical fitting of bases and states.

A four-outcome coincidence measurement is represented by an orthonormal
eigenbasis with outcome eigenvalues (+1, -1, -1, +1 by default) and the
self-adjoint operator they synthesize.  Published bases arrive rounded, so
models keep both the raw vectors and their orthonormal repair.

The fitting routines parametrize unitaries as exp(iH) with H Hermitian and
minimize squared probability misfits by seeded, restarted coordinate search
under a fixed step schedule; FitConfig sets seed, budgets and target misfit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import io
from .bellstats import EXPERIMENT_KEYS, CoincidenceTable, ExperimentDataset
from .hilbert import CVec, gram, orthonormalize, tensor

_EIGENVALUE_PATTERN = (1.0, -1.0, -1.0, 1.0)


@dataclass
class ObservableModel:
    """A four-outcome measurement: eigenbasis, eigenvalues, operator.

    ``eigenvectors_raw`` holds the vectors as supplied (possibly rounded);
    ``eigenvectors`` their orthonormal repair.  Golden tests can target
    either form.
    """

    experiment: str
    eigenvectors_raw: list
    eigenvectors: list
    eigenvalues: tuple
    operator: np.ndarray
    a_labels: tuple = ("1", "2")
    b_labels: tuple = ("1", "2")

    def __post_init__(self):
        if len(self.eigenvectors) != 4 or len(self.eigenvectors_raw) != 4:
            raise ValueError("model needs four eigenvectors")
        if len(self.eigenvalues) != 4:
            raise ValueError("model needs four eigenvalues")
        repaired = [v.values for v in self.eigenvectors]
        if np.max(np.abs(gram(repaired) - np.eye(4))) > 1e-9:
            raise ValueError("repaired eigenvectors must be orthonormal within 1e-9")
        synthesized = np.zeros((4, 4), dtype=complex)
        for lam, v in zip(self.eigenvalues, repaired):
            synthesized += lam * np.outer(v, v.conj())
        if np.max(np.abs(synthesized - self.operator)) > 1e-9:
            raise ValueError("operator does not match its spectral synthesis")
        if np.max(np.abs(self.operator - self.operator.conj().T)) > 1e-9:
            raise ValueError("operator must be Hermitian")
        if all(abs(lam) == 1.0 for lam in self.eigenvalues):
            if np.max(np.abs(self.operator @ self.operator - np.eye(4))) > 1e-9:
                raise ValueError("operator of a +/-1 measurement must square to the identity")

    @property
    def outcome_labels(self) -> tuple:
        return tuple(f"{a} {b}" for a in self.a_labels for b in self.b_labels)


@dataclass
class StateVector:
    """A unit state with a provenance tag.

    Provenance "reference" admits rounded published amplitudes (norm within
    0.02 of 1); "fitted" and "user" require unit norm within 1e-9.  The
    ``values`` property always returns the exactly normalized vector used in
    computations; ``raw`` keeps the as-given components.
    """

    raw: CVec
    provenance: str = "user"

    def __post_init__(self):
        if not isinstance(self.raw, CVec):
            self.raw = CVec(np.asarray(self.raw, dtype=complex))
        if self.raw.dim != 4:
            raise ValueError("state must have dimension 4")
        if self.provenance not in ("reference", "fitted", "user"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        tol = 0.02 if self.provenance == "reference" else 1e-9
        if not self.raw.is_unit(tol):
            raise ValueError(
                f"state norm {self.raw.norm():.6f} outside 1 +/- {tol} for "
                f"provenance {self.provenance!r}"
            )

    @property
    def values(self) -> np.ndarray:
        return self.raw.values / self.raw.norm()


def _state_values(state) -> np.ndarray:
    if isinstance(state, StateVector):
        return state.values
    if isinstance(state, CVec):
        return state.values / state.norm()
    psi = np.asarray(state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("state must be a unit vector")
    return psi / norm


def synthesize(eigenvectors, eigenvalues=_EIGENVALUE_PATTERN, experiment: str = "",
               a_labels=("1", "2"), b_labels=("1", "2")) -> ObservableModel:
    """Build a measurement model by spectral synthesis.

    The eigenvector family may be rounded; it is re-orthonormalized (the
    repair order is the package-wide convention) before the operator
    sum(lambda_k |v_k><v_k|) is assembled.

    Raises
    ------
    ValueError
        If the family's Gram matrix deviates from the identity by more than
        0.05 before repair; the message names the worst pair.
    """
    raw = [v if isinstance(v, CVec) else CVec(np.asarray(v, dtype=complex)) for v in eigenvectors]
    if len(raw) != 4:
        raise ValueError("need four eigenvectors")
    eigenvalues = tuple(float(lam) for lam in eigenvalues)
    g = gram([v.values for v in raw])
    dev = np.abs(g - np.eye(4))
    worst = tuple(int(k) for k in np.unravel_index(int(np.argmax(dev)), dev.shape))
    if dev[worst] > 0.05:
        raise ValueError(
            f"eigenvectors are not orthonormal within 0.05 before repair: "
            f"worst pair {worst} deviates by {dev[worst]:.4f}"
        )
    repaired_values = orthonormalize([v.values for v in raw])
    repaired = [CVec(v) for v in repaired_values]
    operator = np.zeros((4, 4), dtype=complex)
    for lam, v in zip(eigenvalues, repaired_values):
        operator += lam * np.outer(v, v.conj())
    return ObservableModel(
        experiment=experiment,
        eigenvectors_raw=raw,
        eigenvectors=repaired,
        eigenvalues=eigenvalues,
        operator=operator,
        a_labels=tuple(a_labels),
        b_labels=tuple(b_labels),
    )


def probabilities_from_model(state, model: ObservableModel) -> CoincidenceTable:
    """Outcome probabilities |<v_k|state>|^2 over the repaired basis."""
    psi = _state_values(state)
    probs = np.array([abs(np.vdot(v.values, psi)) ** 2 for v in model.eigenvectors])
    return CoincidenceTable(
        model.experiment or "model",
        *probs,
        a_labels=model.a_labels,
        b_labels=model.b_labels,
        sum_tol=1e-9,
    )


def expectation_from_model(state, model: ObservableModel) -> float:
    """<state|operator|state>; the imaginary residue must vanish."""
    psi = _state_values(state)
    value = complex(np.vdot(psi, model.operator @ psi))
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


# ---------------------------------------------------------------------------
# fitting

@dataclass
class FitConfig:
    """Seed, budgets, and target misfit of the seeded coordinate searches."""

    seed: int = 0
    max_iterations: int = 400
    restarts: int = 64
    target_misfit: float = 1e-10

    def __post_init__(self):
        if self.target_misfit <= 0:
            raise ValueError("target_misfit must be positive")
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be at least 1")


@dataclass
class FitResult:
    """Outcome of one fitting run.

    ``trace`` lists the accepted misfit values of the winning restart in
    order; it is nonincreasing by construction.
    """

    misfit: float
    converged: bool
    matrix: np.ndarray
    model: ObservableModel | None
    trace: list
    restarts_used: int
    iterations: int
    seed: int
    target_misfit: float

    def __post_init__(self):
        if self.misfit < 0:
            raise ValueError("misfit must be nonnegative")
        if self.converged and self.misfit > self.target_misfit:
            raise ValueError("converged result must meet the target misfit")


def _hermitian_from_params(theta: np.ndarray, dim: int) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=complex)
    idx = 0
    for k in range(dim):
        h[k, k] = theta[idx]
        idx += 1
    for k in range(dim):
        for l in range(k + 1, dim):
            h[k, l] = theta[idx] + 1j * theta[idx + 1]
            h[l, k] = theta[idx] - 1j * theta[idx + 1]
            idx += 2
    return h


def _unitary_from_hermitian(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _unitary_full(theta: np.ndarray) -> np.ndarray:
    return _unitary_from_hermitian(_hermitian_from_params(theta, 4))


def _unitary_product(theta: np.ndarray) -> np.ndarray:
    ua = _unitary_from_hermitian(_hermitian_from_params(theta[:4], 2))
    ub = _unitary_from_hermitian(_hermitian_from_params(theta[4:], 2))
    return np.kron(ua, ub)


# Step schedule of _coordinate_descent.
_INITIAL_STEP = 0.4
_STEP_GROW = 1.6
_STEP_SHRINK = 0.5
_MIN_STEP = 1e-9
_STALL_PASSES = 40


def _coordinate_descent(objective, theta: np.ndarray, cfg: FitConfig, rng) -> tuple:
    """Adaptive per-coordinate search under a cosine-decay step envelope."""
    steps = np.full(theta.size, _INITIAL_STEP)
    best = objective(theta)
    trace = [best]
    evaluations = 0
    passes_since_improvement = 0
    for p in range(cfg.max_iterations):
        if best <= cfg.target_misfit:
            break
        envelope = _MIN_STEP + 0.5 * (1.0 + math.cos(math.pi * p / cfg.max_iterations)) * (
            _INITIAL_STEP - _MIN_STEP
        )
        improved = False
        for i in rng.permutation(theta.size):
            step = min(steps[i], envelope)
            accepted = False
            for direction in (1.0, -1.0):
                candidate = theta.copy()
                candidate[i] += direction * step
                value = objective(candidate)
                evaluations += 1
                if value < best:
                    theta = candidate
                    best = value
                    trace.append(best)
                    accepted = True
                    break
            if accepted:
                steps[i] = min(steps[i] * _STEP_GROW, _INITIAL_STEP)
                improved = True
            else:
                steps[i] = max(steps[i] * _STEP_SHRINK, _MIN_STEP)
        if improved:
            passes_since_improvement = 0
        else:
            passes_since_improvement += 1
        if passes_since_improvement >= _STALL_PASSES:
            break
        if np.all(steps <= _MIN_STEP):
            break
    return theta, best, trace, evaluations


def _normalized_target(target, sum_tol: float = 0.005) -> np.ndarray:
    if isinstance(target, CoincidenceTable):
        probs = target.probabilities
    else:
        probs = np.asarray(target, dtype=float).reshape(-1)
        if probs.size != 4:
            raise ValueError("target must have four probabilities")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("target probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > sum_tol:
            raise ValueError(f"target probabilities sum to {total:.4f}, outside 1 +/- {sum_tol}")
    # Rounded published rows can sum to 0.999; probabilities over an
    # orthonormal basis sum to exactly 1, so fitting is well posed only for
    # a normalized target.
    return probs / probs.sum()


def fit_basis(state, target, cfg: FitConfig | None = None, product: bool = False,
              experiment: str = "") -> FitResult:
    """Find an eigenbasis whose outcome probabilities match a target table.

    Searches over 4x4 unitaries U = exp(iH) (16 real parameters; with
    ``product=True`` over U_a (x) U_b, 8 parameters) minimizing
    sum_k (|<u_k|state>|^2 - target_k)^2, where u_k are the columns of U.
    Deterministic for a given config: restarts draw from a spawned seed
    sequence, run until the first one reaches ``cfg.target_misfit``, and the
    best (lowest misfit, then lowest restart index) wins.

    Non-convergence is reported in the result, not raised.
    """
    cfg = cfg or FitConfig()
    psi = _state_values(state)
    t = _normalized_target(target)
    if isinstance(target, CoincidenceTable) and not experiment:
        experiment = target.experiment
    build = _unitary_product if product else _unitary_full
    size = 8 if product else 16

    def objective(theta: np.ndarray) -> float:
        u = build(theta)
        probs = np.abs(u.conj().T @ psi) ** 2
        d = probs - t
        return float(np.dot(d, d))

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    total_evaluations = 0
    restarts_used = 0
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        theta0 = rng.uniform(-1.0, 1.0, size)
        theta, misfit, trace, evaluations = _coordinate_descent(objective, theta0, cfg, rng)
        total_evaluations += evaluations
        restarts_used = r + 1
        if best is None or misfit < best[0]:
            best = (misfit, r, theta, trace)
        if best[0] <= cfg.target_misfit:
            break

    misfit, _, theta, trace = best
    matrix = build(theta)
    converged = misfit <= cfg.target_misfit
    model = None
    if isinstance(target, CoincidenceTable):
        model = synthesize(
            [matrix[:, k] for k in range(4)],
            experiment=experiment,
            a_labels=target.a_labels,
            b_labels=target.b_labels,
        )
    else:
        model = synthesize([matrix[:, k] for k in range(4)], experiment=experiment)
    return FitResult(
        misfit=misfit,
        converged=converged,
        matrix=matrix,
        model=model,
        trace=trace,
        restarts_used=restarts_used,
        iterations=total_evaluations,
        seed=cfg.seed,
        target_misfit=cfg.target_misfit,
    )


@dataclass
class StateFitResult:
    """Outcome of a whole-dataset state search.

    ``per_experiment`` maps experiment keys to (ObservableModel, misfit):
    the best product measurement found for that table at the fitted state.
    """

    state: StateVector
    objective: float
    converged: bool
    per_experiment: dict
    trace: list
    restarts_used: int
    seed: int


def _state_from_params(params: np.ndarray) -> np.ndarray:
    amps = np.abs(params[:4]) + 1e-12
    amps = amps / np.linalg.norm(amps)
    phases = np.concatenate([[0.0], params[4:]])
    return amps * np.exp(1j * phases)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAULI_PAIRS = [[np.kron(sk, sl) for sl in _PAULI] for sk in _PAULI]


def _bloch_data(psi: np.ndarray) -> tuple:
    """Marginal Bloch vectors and the correlation matrix of a C^4 state.

    The state is read as a 2x2 coefficient matrix over the canonical
    product structure (row = first factor); m and n are the Bloch vectors
    of the reduced density matrices and t[k, l] = <psi|s_k (x) s_l|psi>.
    """
    c = psi.reshape(2, 2)
    rho_a = c @ c.conj().T
    rho_b = c.T @ c.conj()
    m = np.array([np.trace(rho_a @ s).real for s in _PAULI])
    n = np.array([np.trace(rho_b @ s).real for s in _PAULI])
    t = np.array(
        [[np.vdot(psi, pair @ psi).real for pair in row] for row in _PAULI_PAIRS]
    )
    return m, n, t


def _signature(target: np.ndarray) -> tuple:
    """Character decomposition (row bias, column bias, correlation) of a table."""
    t11, t12, t21, t22 = target
    return (t11 + t12 - t21 - t22, t11 - t12 + t21 - t22, t11 - t12 - t21 + t22)


def _unit_from_angles(theta: float, phi: float) -> np.ndarray:
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


def _angles_of(v: np.ndarray) -> tuple:
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        return (0.0, 0.0)
    v = v / norm
    return (math.acos(min(1.0, max(-1.0, v[2]))), math.atan2(v[1], v[0]))


def _min_product_misfit(m, n, t, signature, warm=None, rng=None) -> tuple:
    """Minimum of the product-measurement misfit for one table.

    Over projector pairs P(a), Q(b) built from unit Bloch vectors a and b,
    the table sum_k (q_k - target_k)^2 collapses to
    ((a.m - ra)^2 + (b.n - rb)^2 + (a.t.b - rc)^2) / 4, which is minimized
    by a short coordinate search over the four spherical angles.  Returns
    (misfit, angles).  The hot loop runs on plain floats; it is called many
    thousands of times per outer fit_state evaluation.
    """
    ra, rb, rc = signature
    m0, m1, m2 = (float(x) for x in m)
    n0, n1, n2 = (float(x) for x in n)
    ((t00, t01, t02), (t10, t11, t12), (t20, t21, t22)) = (
        (float(x) for x in row) for row in t
    )
    sin, cos = math.sin, math.cos

    def value(ta: float, pa: float, tb: float, pb: float) -> float:
        sa = sin(ta)
        a0, a1, a2 = sa * cos(pa), sa * sin(pa), cos(ta)
        sb = sin(tb)
        b0, b1, b2 = sb * cos(pb), sb * sin(pb), cos(tb)
        da = a0 * m0 + a1 * m1 + a2 * m2 - ra
        db = b0 * n0 + b1 * n1 + b2 * n2 - rb
        dc = (
            a0 * (t00 * b0 + t01 * b1 + t02 * b2)
            + a1 * (t10 * b0 + t11 * b1 + t12 * b2)
            + a2 * (t20 * b0 + t21 * b1 + t22 * b2)
            - rc
        )
        return 0.25 * (da * da + db * db + dc * dc)

    starts = []
    if warm is not None:
        starts.append(list(warm))
    else:
        starts.append([*_angles_of(m), *_angles_of(n)])
        if rng is not None:
            starts.append([rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi),
                           rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)])
    best_angles = None
    best = math.inf
    for angles in starts:
        current = value(*angles)
        steps = [0.4, 0.4, 0.4, 0.4]
        for _ in range(80):
            if current <= 1e-16:
                break
            improved = False
            for i in range(4):
                accepted = False
                step = steps[i]
                original = angles[i]
                for direction in (step, -step):
                    angles[i] = original + direction
                    v = value(*angles)
                    if v < current:
                        current = v
                        accepted = True
                        improved = True
                        break
                    angles[i] = original
                if accepted:
                    steps[i] = min(step * 1.6, 0.6)
                else:
                    steps[i] = max(step * 0.5, 1e-10)
            if not improved and max(steps) <= 1e-10:
                break
        if current < best:
            best, best_angles = current, list(angles)
    return best, best_angles


def _qubit_basis(theta: float, phi: float) -> tuple:
    """Eigenvectors (+1, -1) of the Pauli operator along the given direction."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    plus = np.array([c, s * np.exp(1j * phi)], dtype=complex)
    minus = np.array([-s * np.exp(-1j * phi), c], dtype=complex)
    return plus, minus


def _product_model_from_angles(angles, table: CoincidenceTable) -> ObservableModel:
    ua = _qubit_basis(angles[0], angles[1])
    ub = _qubit_basis(angles[2], angles[3])
    vectors = [tensor(ua[i], ub[j]) for i in (0, 1) for j in (0, 1)]
    return synthesize(
        vectors,
        experiment=table.experiment,
        a_labels=table.a_labels,
        b_labels=table.b_labels,
    )


def fit_state(dataset: ExperimentDataset, cfg: FitConfig | None = None) -> StateFitResult:
    """Search for the unit state best explained by product measurements.

    Objective: the sum over the four coincidence tables of the minimal
    product-basis misfit at the candidate state — the same quantity as
    running fit_basis restricted to U_a (x) U_b bases, computed here in
    Bloch coordinates where the inner minimum is a four-angle problem.  A
    state reaches objective ~0 exactly when the whole dataset admits a
    representation by that state and four product measurements; a dataset
    violating the marginal law has strictly positive objective for every
    state.

    The outer search runs seeded coordinate descent over the 7 state
    parameters (four amplitudes up to normalization, three relative
    phases), warm-starting the inner angle solves.  The recovered state is
    identified only up to the product-unitary gauge the objective cannot
    distinguish.
    """
    cfg = cfg or FitConfig()
    tables = [dataset.tables[k] for k in EXPERIMENT_KEYS]
    signatures = [_signature(_normalized_target(t)) for t in tables]

    def objective(params: np.ndarray, warm: list, rng) -> tuple:
        psi = _state_from_params(params)
        m, n, t = _bloch_data(psi)
        total = 0.0
        angle_sets = []
        for sig, w in zip(signatures, warm):
            misfit, angles = _min_product_misfit(m, n, t, sig, warm=w, rng=rng)
            total += misfit
            angle_sets.append(angles)
        return total, angle_sets

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    restarts_used = 0
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        params = np.concatenate([rng.uniform(0.2, 1.0, 4), rng.uniform(-math.pi, math.pi, 3)])
        warm = [None] * 4
        value, warm = objective(params, warm, rng)
        trace = [value]
        steps = np.full(7, 0.3)
        stalled = 0
        for _ in range(40):
            if value <= cfg.target_misfit:
                break
            improved = False
            for i in range(7):
                accepted = False
                for direction in (1.0, -1.0):
                    candidate = params.copy()
                    candidate[i] += direction * steps[i]
                    cand_value, cand_warm = objective(candidate, warm, rng)
                    if cand_value < value:
                        params, value, warm = candidate, cand_value, cand_warm
                        trace.append(value)
                        accepted = True
                        improved = True
                        break
                if accepted:
                    steps[i] = min(steps[i] * 1.5, 0.5)
                else:
                    steps[i] = max(steps[i] * 0.5, 1e-7)
            stalled = 0 if improved else stalled + 1
            if stalled >= 4 or np.all(steps <= 1e-7):
                break
        restarts_used = r + 1
        if best is None or value < best[0]:
            best = (value, r, params, warm, trace)
        if best[0] <= cfg.target_misfit:
            break

    value, _, params, warm, trace = best
    psi = _state_from_params(params)
    state = StateVector(CVec(psi), provenance="fitted")
    m, n, t = _bloch_data(psi)
    per_experiment = {}
    for table, sig, angles in zip(tables, signatures, warm):
        misfit, final_angles = _min_product_misfit(m, n, t, sig, warm=angles)
        per_experiment[table.experiment] = (
            _product_model_from_angles(final_angles, table),
            float(misfit),
        )
    return StateFitResult(
        state=state,
        objective=float(value),
        converged=bool(value <= cfg.target_misfit),
        per_experiment=per_experiment,
        trace=trace,
        restarts_used=restarts_used,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# file loading and the reference fixture

def _state_from_content(block: dict) -> StateVector:
    return StateVector(
        CVec.from_polar_deg(block["amplitudes"], block["phases_deg"]),
        provenance=block["provenance"],
    )


def _model_from_content(content: dict) -> tuple:
    """(StateVector or None, dict of ObservableModel) from parsed model-file content."""
    state = None if content["state"] is None else _state_from_content(content["state"])
    models = {
        key: synthesize(
            [CVec.from_polar_deg(v["amplitudes"], v["phases_deg"]) for v in block["eigenvectors"]],
            eigenvalues=tuple(block["eigenvalues"]),
            experiment=key,
            a_labels=tuple(block["a_labels"]),
            b_labels=tuple(block["b_labels"]),
        )
        for key, block in content["measurements"].items()
    }
    return state, models


def load_state(path, strict: bool = False) -> StateVector:
    """Load a state file into a StateVector."""
    content, _ = io.parse_state_file(path, strict=strict)
    return _state_from_content(content)


def load_model(path, strict: bool = False) -> tuple:
    """Load a model file; returns (StateVector or None, dict of ObservableModel)."""
    content, _ = io.parse_model_file(path, strict=strict)
    return _model_from_content(content)


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
