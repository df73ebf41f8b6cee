"""Complex Hilbert-space primitives for 2- and 4-dimensional problems.

Vectors are stored rectangular (complex ndarray) internally; the canonical
external representation is polar — amplitude >= 0 with phase in degrees in
[0, 360) — because that is how measurement bases are written down and
exchanged in data files.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Processing order used when re-orthonormalizing a four-outcome basis:
# outcomes (1,1), (1,2), (2,2), (2,1).  Gram-Schmidt output depends on the
# order in which near-orthonormal vectors are visited; this order is the
# calibrated package-wide convention for repairing rounded bases.
REPAIR_ORDER = (0, 1, 3, 2)

_ALLOWED_DIMS = (2, 4)


class ConvergenceError(RuntimeError):
    """Iterative routine failed to reach its tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _values(x) -> np.ndarray:
    """Components of anything with ``values`` (CVec, CMat, StateVector) or of
    an array-like, as a complex ndarray."""
    return np.asarray(getattr(x, "values", x), dtype=complex)


def is_hermitian(matrix, tol: float = 1e-9) -> bool:
    """Whether max|M - M^dagger| <= tol * max(1, max|M|), so that scaling an
    operator up does not change the verdict.  M is divided by the scale first."""
    m = _values(matrix)
    m = m / max(1.0, float(np.max(np.abs(m))))
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def unitary_deviation(matrix) -> float:
    """max|U^dagger U - I| of a square matrix."""
    u = _values(matrix)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def numerical_rank(sigma, rank_tol: float = 1e-7):
    """Number of singular values above ``rank_tol`` times the largest, along
    the last axis of a descending ``sigma`` (one rank per row of a stack)."""
    sigma = np.asarray(sigma)
    ranks = np.sum(sigma > rank_tol * sigma[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


@dataclass
class CVec:
    """A complex vector of dimension 2 or 4.

    Attributes
    ----------
    values : np.ndarray
        Rectangular complex components.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.shape[0] not in _ALLOWED_DIMS:
            raise ValueError(f"CVec dimension must be 2 or 4, got {self.values.shape[0]}")

    @classmethod
    def from_polar_deg(cls, amplitudes, phases_deg) -> "CVec":
        """Build a vector from amplitudes >= 0 and phases in degrees."""
        amps = np.asarray(amplitudes, dtype=float)
        phs = np.asarray(phases_deg, dtype=float)
        if amps.shape != phs.shape:
            raise ValueError("amplitudes and phases must have the same length")
        if (amps < 0).any():
            raise ValueError("amplitudes must be nonnegative")
        # Norms and Gram matrices square the amplitudes; keep the squares finite.
        if (amps > 1e150).any():
            raise ValueError(f"amplitudes must be at most 1e150, got {amps.max():.6g}")
        return cls(amps * np.exp(1j * np.radians(phs)))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def phases_deg(self) -> np.ndarray:
        """Phases in [0, 360); zero-amplitude entries report phase 0."""
        phases = np.degrees(np.angle(self.values)) % 360.0
        return np.where(np.abs(self.values) == 0.0, 0.0, phases)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def is_unit(self, tol: float = 1e-9) -> bool:
        """Whether the norm is within ``tol`` of 1 (0.02 for rounded sources)."""
        return abs(self.norm() - 1.0) <= tol

    def normalized(self) -> "CVec":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return CVec(self.values / n)


@dataclass
class CMat:
    """A complex 2x2 or 4x4 matrix."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("CMat must be square")
        if self.values.shape[0] not in _ALLOWED_DIMS:
            raise ValueError(f"CMat dimension must be 2 or 4, got {self.values.shape[0]}")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def is_hermitian(self, tol: float = 1e-9) -> bool:
        return is_hermitian(self.values, tol)

    def is_unitary(self, tol: float = 1e-9) -> bool:
        return unitary_deviation(self.values) <= tol


@dataclass
class SVDResult:
    """Singular value decomposition M = u @ diag(sigma) @ vh.

    ``sigma`` is nonnegative and sorted descending; ``u`` and ``vh`` have
    orthonormal columns/rows.
    """

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        if np.any(self.sigma < -1e-12):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(self.sigma) > 1e-12):
            raise ValueError("singular values must be sorted descending")

    def reconstruct(self) -> np.ndarray:
        return self.u @ np.diag(self.sigma) @ self.vh

    def rank(self, rank_tol: float = 1e-7) -> int:
        """Number of singular values above ``rank_tol`` relative to the largest."""
        return numerical_rank(self.sigma, rank_tol)


def tensor(u, v) -> np.ndarray:
    """Tensor product of two vectors, ordered (u1v1, u1v2, u2v1, u2v2)."""
    return np.kron(_values(u), _values(v))


def tensor_op(a, b) -> np.ndarray:
    """Tensor product of two operators in the same component ordering."""
    return np.kron(_values(a), _values(b))


def inner(u, v) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    return complex(np.vdot(_values(u), _values(v)))


def gram(vectors) -> np.ndarray:
    """Gram matrix G[i, j] = <v_i | v_j> of a sequence of vectors."""
    v = np.array([_values(x) for x in vectors])
    return v.conj() @ v.T


def orthonormalize(vectors, order=None, tol: float = 1e-6):
    """Gram-Schmidt repair of a near-orthonormal family.

    Vectors are processed in ``order`` (defaults to REPAIR_ORDER for four
    vectors, natural order otherwise) but returned at their original
    positions, so outcome labels keep their meaning.

    Parameters
    ----------
    vectors : sequence of array-like
        Near-orthonormal family.
    order : sequence of int, optional
        Processing order; a permutation of range(len(vectors)).
    tol : float
        A residual norm at or below ``tol`` marks the family as linearly
        dependent beyond repair.

    Returns
    -------
    list of np.ndarray
        Orthonormal vectors, original positions preserved.
    """
    vs = [_values(v) for v in vectors]
    k = len(vs)
    if order is None:
        order = REPAIR_ORDER if k == 4 else tuple(range(k))
    if sorted(order) != list(range(k)):
        raise ValueError("order must be a permutation of the vector indices")
    out: list = [None] * k
    done: list = []
    for idx in order:
        w = vs[idx].copy()
        for u in done:
            w = w - np.vdot(u, w) * u
        residual = np.linalg.norm(w)
        if residual <= tol:
            raise ValueError(
                f"vector {idx} is linearly dependent on the others "
                f"(residual {residual:.3e}); family is beyond repair"
            )
        w = w / residual
        out[idx] = w
        done.append(w)
    return out


def svd(matrix) -> SVDResult:
    """Thin singular value decomposition by numpy (LAPACK).

    Parameters
    ----------
    matrix : array-like
        Input matrix M (m x n), real or complex.

    Returns
    -------
    SVDResult
        With u (m x k), sigma (k,) and vh (k x n), k = min(m, n), and
        M = u @ diag(sigma) @ vh.

    Raises
    ------
    ValueError
        If the input is not 2-D or has a NaN or infinite entry.
    """
    m = _values(matrix)
    if m.ndim != 2:
        raise ValueError("svd expects a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd expects finite entries")
    u, sigma, vh = np.linalg.svd(m, full_matrices=False)
    return SVDResult(u=u, sigma=sigma, vh=vh)
