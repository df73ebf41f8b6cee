"""Complex Hilbert-space primitives for 2- and 4-dimensional problems.

Vectors are plain complex ndarrays.  Their external representation is
polar — amplitude >= 0 with phase in degrees in [0, 360) — because that is
how measurement bases are written down and exchanged in data files;
from_polar_deg and polar_deg convert between the two.  _levenberg is the
damped Gauss-Newton core that fitting's state search and entanglement's
identification search share.
"""
from __future__ import annotations

import numpy as np

# Processing order used when re-orthonormalizing a four-outcome basis:
# outcomes (1,1), (1,2), (2,2), (2,1).  Gram-Schmidt output depends on the
# order in which near-orthonormal vectors are visited; this order is the
# calibrated package-wide convention for repairing rounded bases.
REPAIR_ORDER = (0, 1, 3, 2)

RANK_TOL = 1e-7  # default rank tolerance, relative to the largest singular value


def _values(x) -> np.ndarray:
    """Components of anything with ``values`` (a StateVector) or of an
    array-like, as a complex ndarray."""
    return np.asarray(getattr(x, "values", x), dtype=complex)


def peak_part(matrix) -> float:
    """Largest |real part| or |imaginary part| among the entries.  Unlike the
    largest modulus it cannot overflow on finite entries."""
    m = _values(matrix)
    return float(np.max(np.abs(np.concatenate([m.real.ravel(), m.imag.ravel()]))))


def is_hermitian(matrix) -> bool:
    """Whether max|M - M^dagger| <= 1e-9 * max(1, peak_part(M)), so that
    scaling an operator up does not change the verdict.  M is divided by the
    scale first, so no modulus can overflow."""
    m = _values(matrix)
    m = m / max(1.0, peak_part(m))
    return bool(np.max(np.abs(m - m.conj().T)) <= 1e-9)


def unitary_deviation(matrix):
    """max|U^dagger U - I| of a square matrix, or one per matrix of a stack
    of shape (..., n, n)."""
    u = _values(matrix)
    dev = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])), axis=(-2, -1))
    return float(dev) if dev.ndim == 0 else dev


def check_unitary(matrix, what: str) -> None:
    """Raise ValueError naming ``what`` unless the matrix, or every matrix of
    a stack, is unitary within 1e-9."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation fails the bound
        dev = float(np.max(unitary_deviation(matrix)))
    if not dev <= 1e-9:
        raise ValueError(f"{what} is not unitary (deviation {dev:.3e})")


def numerical_rank(sigma, rank_tol: float = RANK_TOL):
    """Number of singular values above ``rank_tol`` times the largest, along
    the last axis of a descending ``sigma`` (one rank per row of a stack).
    ValueError unless ``rank_tol`` lies in [0, 1), NaN included."""
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank tolerance must lie in [0, 1), got {rank_tol}")
    sigma = np.asarray(sigma)
    ranks = np.sum(sigma > rank_tol * sigma[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def from_polar_deg(amplitudes, phases_deg) -> np.ndarray:
    """The complex vector with the given amplitudes >= 0 and phases in degrees."""
    amps = np.asarray(amplitudes, dtype=float)
    phs = np.asarray(phases_deg, dtype=float)
    if amps.shape != phs.shape:
        raise ValueError("amplitudes and phases must have the same length")
    if (amps < 0).any():
        raise ValueError("amplitudes must be nonnegative")
    # Norms and Gram matrices square the amplitudes; keep the squares finite.
    if (amps > 1e150).any():
        raise ValueError(f"amplitudes must be at most 1e150, got {amps.max():.6g}")
    if not (np.isfinite(amps).all() and np.isfinite(phs).all()):
        raise ValueError("amplitudes and phases must be finite")
    return amps * np.exp(1j * np.radians(phs))


def polar_deg(vector) -> tuple:
    """(amplitudes, phases in degrees in [0, 360)) of a complex vector;
    zero-amplitude entries report phase 0."""
    v = _values(vector)
    amplitudes = np.abs(v)
    phases = np.degrees(np.angle(v)) % 360.0
    # a phase just below 0 rounds to 360.0 under the modulo
    return amplitudes, np.where((amplitudes == 0.0) | (phases == 360.0), 0.0, phases)


def tensor(u, v) -> np.ndarray:
    """Tensor product of two vectors, ordered (u1v1, u1v2, u2v1, u2v2), or of
    two matrices, whose rows are then the tensor products of their rows in
    that order.  Each entry is one product u_i v_k, as in np.kron, by
    broadcasting."""
    u, v = _values(u), _values(v)
    if u.ndim == 1:
        return (u[:, None] * v).reshape(-1)
    return (u[:, None, :, None] * v[:, None, :]).reshape(len(u) * len(v), -1)


tensor_op = tensor  # the same product, under its name for operators


def gram(vectors) -> np.ndarray:
    """Gram matrix G[i, j] = <v_i | v_j> of a sequence of vectors."""
    v = np.array([_values(x) for x in vectors])
    return v.conj() @ v.T


def orthonormalize(vectors):
    """Gram-Schmidt repair of a near-orthonormal family, as a list of arrays.

    ValueError naming the worst pair unless every entry of the family's Gram
    matrix lies within 0.05 of the identity's (NaN fails).  Within that bound
    Gershgorin puts the Gram matrix's least eigenvalue of k vectors at
    1 - 0.05 k or above, 0.8 for four, so no Gram-Schmidt residual of fewer
    than 20 vectors vanishes, and none of four falls under 0.89.  Four
    vectors are processed in REPAIR_ORDER, any other number in natural
    order, and returned at their original positions, so outcome labels keep
    their meaning.  An empty family is returned as an empty list.
    """
    vs = [_values(v) for v in vectors]
    if not vs:
        return []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation fails the bound
        dev = np.abs(gram(vs) - np.eye(len(vs)))
    worst = tuple(int(k) for k in np.unravel_index(int(np.argmax(dev)), dev.shape))
    if not dev[worst] <= 0.05:
        raise ValueError(
            f"family is beyond repair: not orthonormal within 0.05, "
            f"worst pair {worst} deviates by {dev[worst]:.4f}"
        )
    k = len(vs)
    out: list = [None] * k
    done: list = []
    for idx in REPAIR_ORDER if k == 4 else range(k):
        w = vs[idx].copy()
        for u in done:
            w = w - np.vdot(u, w) * u
        w = w / np.linalg.norm(w)
        out[idx] = w
        done.append(w)
    return out


_INITIAL_DAMPING = 1e-3  # Levenberg's damping at every start


def _damped_step(r: np.ndarray, jac: np.ndarray, damped: np.ndarray, primal: bool) -> np.ndarray:
    """The damped Gauss-Newton step delta (B, P) of residuals r (B, R) with
    Jacobian J (B, R, P), ``damped`` being lam I: (J^T J + lam I) delta =
    -J^T r, a P x P system, when ``primal``, else delta = -J^T (J J^T +
    lam I)^-1 r, an R x R one.  The two agree for every lam > 0."""
    jac_t = jac.transpose(0, 2, 1)
    if primal:
        return -np.linalg.solve(jac_t @ jac + damped, jac_t @ r[..., None])[..., 0]
    return -(jac_t @ np.linalg.solve(jac @ jac_t + damped, r[..., None]))[..., 0]


def _levenberg(residuals, params: np.ndarray, target: float, min_decrease: float, stall_limit: int,
               max_iterations: int, retract=None) -> tuple:
    """Minimize |r(p)|^2 from every start of ``params`` (B, ...) at once.

    ``residuals(p)`` returns r (B, R) and its Jacobian J (B, R, P) at the
    starts of p, J in the P coordinates of a step delta.  Each iteration
    solves the damped Gauss-Newton step of every running start in the
    smaller form (_damped_step): dual when R <= P, primal when R > P.  The
    trial point is ``retract(p, delta)``, or p + delta without one, and r
    and J are evaluated once there.  A step is kept only when it lowers the
    objective; lam, 1e-3 at each start, is then multiplied by 0.3, otherwise
    by 10 and the start keeps its r and J.  A start stops when its objective
    is at most ``target``, after ``stall_limit`` iterations in a row without
    a decrease above ``min_decrease`` times its objective, or after
    ``max_iterations``.  The running starts' rows are compact arrays,
    replaced where a step is kept and shrunk when a start stops;
    ``objectives`` holds every start's, frozen from its stop on.  Returns
    (params, objectives, history, evaluations): history[k] holds every
    start's objective after iteration k; evaluations counts the points at
    which ``residuals`` ran.  The starts passed in are not modified.
    """
    params = params.copy()
    r, jac = residuals(params)
    f = np.einsum("bi,bi->b", r, r)
    objectives, damping, stalled = f.copy(), np.full_like(f, _INITIAL_DAMPING), np.zeros(f.shape, dtype=int)
    live, p, primal = np.arange(f.size), params, jac.shape[1] > jac.shape[2]
    identity = np.eye(jac.shape[2] if primal else jac.shape[1])
    history, evaluations = [objectives.copy()], f.size
    for _ in range(max_iterations):
        going = (f > target) & (stalled < stall_limit)
        if not going.all():
            params[live] = p
            if not going.any():
                break
            live = live[going]
            p, r, jac, f, damping, stalled = (a[going] for a in (p, r, jac, f, damping, stalled))
        delta = _damped_step(r, jac, damping[:, None, None] * identity, primal)
        trial = p + delta if retract is None else retract(p, delta)
        r_trial, jac_trial = residuals(trial)
        f_trial = np.einsum("bi,bi->b", r_trial, r_trial)
        accept = f_trial < f
        stalled = np.where(f - f_trial > min_decrease * f, 0, stalled + 1)
        damping *= np.where(accept, 0.3, 10.0)
        if accept.all():  # as at one start whenever its step is kept
            p, r, jac, f = trial, r_trial, jac_trial, f_trial
        elif accept.any():
            for old, new in ((p, trial), (r, r_trial), (jac, jac_trial), (f, f_trial)):
                np.copyto(old, new, where=accept.reshape(-1, *[1] * (old.ndim - 1)))
        objectives[live] = f
        history.append(objectives.copy())
        evaluations += live.size
    params[live] = p
    return params, objectives, np.array(history), evaluations


def svd(matrix) -> tuple:
    """Thin singular value decomposition by numpy (LAPACK): numpy's factors
    (u, sigma, vh) of M = u @ diag(sigma) @ vh.  For an m x n input and
    k = min(m, n), u (m x k) and vh (k x n) have orthonormal columns and
    rows, and sigma (k,) is nonnegative and sorted descending.  ValueError
    if the input is not 2-D or has a NaN or infinite entry.
    """
    m = _values(matrix)
    if m.ndim != 2:
        raise ValueError("svd expects a matrix")
    if not np.isfinite(m).all():
        raise ValueError("svd expects finite entries")
    return np.linalg.svd(m, full_matrices=False)
