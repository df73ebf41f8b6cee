"""Entanglement structure relative to an isomorphism C^4 ~ C^2 (x) C^2.

Whether a state, measurement, or evolution is "product" is never absolute:
it is a property relative to a chosen labeled unitary identification of the
4-dimensional space with the tensor product of two 2-dimensional factor
spaces.  This module provides that identification (`Isomorphism`), Schmidt
decompositions of states and operators transported through it, evolution
operators between measurement models, and the factorization / marginal-law
diagnostics built on top.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    _values,
    check_unitary,
    gram,
    is_hermitian,
    numerical_rank,
    orthonormalize,
    peak_part,
    svd,
    tensor_op,
)

# Outcome labels of the product basis, in component order.
PRODUCT_LABELS = ((1, 1), (1, 2), (2, 1), (2, 2))

# Candidates per block in refute_common_product_iso.  A block's stacked
# transports and reshuffles stay a few hundred kilobytes.
SEARCH_BLOCK = 256

# Largest real or imaginary part of an operator entry that
# Isomorphism.transport accepts.  The entries of U M U^dagger and the
# singular values of its reshuffle stay below 16 * sqrt(2) times it, so they
# cannot overflow.
MAX_OPERATOR_ENTRY = 1e300


def _model_eigenvectors(measurement) -> list:
    """Repaired eigenvectors of a measurement model or plain vector family."""
    vecs = getattr(measurement, "eigenvectors", measurement)
    return [_values(v) for v in vecs]


@dataclass
class Isomorphism:
    """A labeled unitary identification of C^4 with C^2 (x) C^2.

    ``matrix`` sends a vector in C^4 to its coefficient vector over the
    product basis; component k of the image carries the outcome label
    PRODUCT_LABELS[k].
    """

    matrix: np.ndarray
    name: str = "canonical"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (4, 4):
            raise ValueError("isomorphism matrix must be 4x4")
        check_unitary(self.matrix, "isomorphism matrix")

    def apply(self, state) -> np.ndarray:
        return self.matrix @ _values(state)

    def transport(self, operator) -> np.ndarray:
        """Image U M U^† of an operator under the identification.

        Raises
        ------
        ValueError
            If the real or imaginary part of an operator entry exceeds
            MAX_OPERATOR_ENTRY in magnitude (or is not finite).
        """
        op = _values(operator)
        peak = peak_part(op)
        if not peak <= MAX_OPERATOR_ENTRY:
            raise ValueError(
                f"operator entries must have real and imaginary parts of at most "
                f"{MAX_OPERATOR_ENTRY:.0e} in magnitude, got {peak:.6g}"
            )
        return self.matrix @ op @ self.matrix.conj().T


def canonical_iso() -> Isomorphism:
    """The identity identification: basis vector k is the product vector k."""
    return Isomorphism(np.eye(4, dtype=complex), name="canonical")


def _haar_unitaries(ginibre: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from Ginibre samples of shape (..., 4, 4).

    QR with the phases of R's diagonal moved into Q (Mezzadri 2007), so the
    result does not depend on LAPACK's sign convention.
    """
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_isomorphism(rng: np.random.Generator) -> Isomorphism:
    """A Haar-distributed isomorphism (QR of a Ginibre sample)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return Isomorphism(_haar_unitaries(z), name="random")


def canonical_iso_of(measurement) -> Isomorphism:
    """The isomorphism that makes a measurement's eigenvectors the product basis.

    Maps the k-th (repaired) eigenvector to the k-th product basis vector, so
    the transported operator is diagonal with the outcome eigenvalues.

    Raises
    ------
    ValueError
        If the eigenvector family deviates from orthonormality by more than
        0.05 before repair, or is linearly dependent.
    """
    vecs = _model_eigenvectors(measurement)
    if len(vecs) != 4:
        raise ValueError("need four eigenvectors")
    dev = float(np.max(np.abs(gram(vecs) - np.eye(4))))
    if dev > 0.05:
        raise ValueError(
            f"eigenvectors deviate from orthonormality by {dev:.4f}, beyond repair tolerance 0.05"
        )
    repaired = orthonormalize(vecs)
    matrix = np.array([v.conj() for v in repaired])
    name = getattr(measurement, "experiment", None)
    return Isomorphism(matrix, name=f"from-model:{name}" if name else "from-model")


@dataclass
class SchmidtDecomposition:
    """State decomposition psi = sum_k c_k u_k (x) v_k through an isomorphism."""

    coefficients: np.ndarray
    left: np.ndarray   # 2x2, column k is u_k
    right: np.ndarray  # 2x2, column k is v_k
    iso_name: str = field(default="canonical", compare=False)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        total = float(np.sum(self.coefficients**2))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"Schmidt coefficients must satisfy sum c^2 = 1, got {total}")

    def rank(self, rank_tol: float = 1e-7) -> int:
        return numerical_rank(self.coefficients, rank_tol)

    @property
    def is_product(self) -> bool:
        return self.rank() == 1


@dataclass
class OperatorSchmidt:
    """Operator decomposition T = sum_k sigma_k A_k (x) B_k.

    ``transported`` is the operator's image under the isomorphism; the
    factors are Hilbert-Schmidt orthonormal 2x2 matrices.
    """

    sigma: np.ndarray
    factors_a: list
    factors_b: list
    transported: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        # Both sides scaled by the power of two that brings peak_part into
        # [0.5, 1): exact, so no square can overflow and nothing is divided
        # by a subnormal peak.
        shift = -np.frexp(peak_part(self.transported))[1]
        t = np.asarray(self.transported)
        hs_sq = float(np.sum(np.ldexp(t.real, shift) ** 2 + np.ldexp(t.imag, shift) ** 2))
        if abs(float(np.sum(np.ldexp(self.sigma, shift) ** 2)) - hs_sq) > 1e-9 * hs_sq:
            raise ValueError("sum sigma^2 must equal the squared Hilbert-Schmidt norm")

    def rank(self, rank_tol: float = 1e-7) -> int:
        return numerical_rank(self.sigma, rank_tol)

    @property
    def is_product(self) -> bool:
        return self.rank() == 1

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for s, a, b in zip(self.sigma, self.factors_a, self.factors_b):
            out += s * tensor_op(a, b)
        return out


@dataclass
class Evolution:
    """Unitary operator carrying one measurement's eigenstates to another's."""

    matrix: np.ndarray
    source: str
    target: str

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        check_unitary(self.matrix, "evolution operator")


def apply_iso(iso: Isomorphism, state) -> np.ndarray:
    """Coefficients of a state over the product basis of ``iso``."""
    return iso.apply(state)


def reshuffle(matrix) -> np.ndarray:
    """Rearrange a 4x4 operator so tensor factors become outer factors.

    With indices split as row = (i, j), column = (i', j') — i, i' on the
    first factor, j, j' on the second, all in {0, 1} and row-major — the
    reshuffled matrix is

        R[(i, i'), (j, j')] = T[(i, j), (i', j')].

    A product operator A (x) B has T[(i, j), (i', j')] = A[i, i'] B[j, j'],
    so its reshuffle is the rank-1 outer product vec(A) vec(B)^T of the
    row-major vectorizations.  Worked 2x2 example: A = [[0, 1], [1, 0]]
    (swap), B = [[1, 0], [0, -1]] (sign flip) give

        T = A (x) B = [[0, 0, 1,  0],          R = vec(A) vec(B)^T
                       [0, 0, 0, -1],            = (0, 1, 1, 0)^T (1, 0, 0, -1)
                       [1, 0, 0,  0],            = [[0, 0, 0,  0],
                       [0,-1, 0,  0]]               [1, 0, 0, -1],
                                                    [1, 0, 0, -1],
                                                    [0, 0, 0,  0]],

    which has a single nonzero singular value 2 = ||A||_HS ||B||_HS.  A stack
    of shape (..., 4, 4) is reshuffled matrix by matrix.
    """
    t = np.asarray(matrix, dtype=complex)
    if t.shape[-2:] != (4, 4):
        raise ValueError("reshuffle expects a 4x4 matrix or a stack of them")
    return t.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(t.shape)


def _transported_is_product(us: np.ndarray, operators: np.ndarray,
                            rank_tol: float = 1e-7) -> np.ndarray:
    """Whether U M U^dagger has operator-Schmidt rank 1, for each unitary of a
    stack (..., 4, 4), with one operator M or a matching stack of them.

    Each operator is first scaled by a power of two that brings its
    peak_part into [0.5, 1).  That changes no rank, and keeps every square
    finite for entries up to the float maximum.  With R the reshuffle of
    the transport, F = ||R||_F^2 and G = R^dagger R,
    e2 = (F^2 - ||G||_F^2) / 2 = sum_{i<j} s_i^2 s_j^2 over the singular
    values s, so s_1^2 s_2^2 <= e2 <= 6 s_1^2 s_2^2 and
    F >= s_1^2.  An entry with e2 > c F^2, c = max(1e-6, 100 rank_tol^2),
    thus has s_2 / s_1 > sqrt(c / 6) > 4 rank_tol: it is not product, with
    room for round-off.  Only the other entries, zero operators among them,
    go through np.linalg.svd and numerical_rank.
    """
    operators = np.asarray(operators)
    peaks = np.maximum(np.abs(operators.real), np.abs(operators.imag)).max(axis=(-2, -1))
    shift = -np.frexp(peaks)[1][..., None, None]
    scaled = np.ldexp(operators.real, shift) + 1j * np.ldexp(operators.imag, shift)
    r = reshuffle(us @ scaled @ us.conj().swapaxes(-1, -2))
    f = np.sum(r.real**2 + r.imag**2, axis=(-2, -1))
    g = r.conj().swapaxes(-1, -2) @ r
    e2 = 0.5 * (f**2 - np.sum(g.real**2 + g.imag**2, axis=(-2, -1)))
    product = ~(e2 > max(1e-6, 100.0 * rank_tol**2) * f**2)
    unsettled = r[product]
    product[product] = numerical_rank(np.linalg.svd(unsettled, compute_uv=False), rank_tol) == 1
    return product


def _operator_schmidt_of_transported(transported: np.ndarray) -> OperatorSchmidt:
    res = svd(reshuffle(transported))
    factors_a = [res.u[:, k].reshape(2, 2) for k in range(4)]
    factors_b = [res.vh[k, :].reshape(2, 2) for k in range(4)]
    return OperatorSchmidt(
        sigma=res.sigma, factors_a=factors_a, factors_b=factors_b, transported=transported
    )


def schmidt_state(state, iso: Isomorphism | None = None) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit state relative to an isomorphism."""
    iso = iso if iso is not None else canonical_iso()
    psi = _values(state)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("schmidt_state expects a unit state")
    coeffs = iso.apply(psi).reshape(2, 2)
    res = svd(coeffs)
    return SchmidtDecomposition(
        coefficients=res.sigma,
        left=res.u,
        right=res.vh.T,  # column k holds the second-factor components
        iso_name=iso.name,
    )


def operator_schmidt(operator, iso: Isomorphism | None = None) -> OperatorSchmidt:
    """Operator-Schmidt decomposition of a self-adjoint operator.

    The operator is transported through the isomorphism, reshuffled, and
    decomposed by SVD; the singular values are the Schmidt coefficients.

    Raises
    ------
    ValueError
        If the operator is not Hermitian within 1e-9 relative to its largest
        entry (absolute below 1).
    """
    iso = iso if iso is not None else canonical_iso()
    op = _values(operator)
    if op.shape != (4, 4):
        raise ValueError("operator must be 4x4")
    if not is_hermitian(op):
        raise ValueError("operator_schmidt expects a Hermitian operator")
    return _operator_schmidt_of_transported(iso.transport(op))


def measurement_entanglement_degree(operator, iso: Isomorphism | None = None) -> float:
    """How far a measurement is from product form: 1 - sigma_1^2 / sum sigma^2.

    Zero exactly for product measurements; approaches 1 - 1/k when k Schmidt
    coefficients are equal.
    """
    sigma = operator_schmidt(operator, iso).sigma
    if sigma[0] == 0.0:
        raise ValueError("entanglement degree undefined for the zero operator")
    # Scaled by the largest coefficient, so that no square can overflow.
    return 1.0 - 1.0 / float(np.sum((sigma / sigma[0]) ** 2))


def evolution_between(source_model, target_model) -> Evolution:
    """The unitary sending the k-th eigenvector of source to the k-th of target.

    Eigenvectors pair by outcome position (11 to 11, 12 to 12, and so on).
    """
    src = _model_eigenvectors(source_model)
    dst = _model_eigenvectors(target_model)
    matrix = np.zeros((4, 4), dtype=complex)
    for s, d in zip(src, dst):
        matrix += np.outer(d, s.conj())
    return Evolution(
        matrix=matrix,
        source=str(getattr(source_model, "experiment", "source")),
        target=str(getattr(target_model, "experiment", "target")),
    )


def is_product_evolution(evolution: Evolution, iso: Isomorphism | None = None,
                         rank_tol: float = 1e-7) -> bool:
    """Whether a unitary evolution is a tensor product relative to ``iso``."""
    iso = iso if iso is not None else canonical_iso()
    transported = iso.transport(evolution.matrix)
    return _operator_schmidt_of_transported(transported).rank(rank_tol) == 1


def states_equal_up_to_phase(u, v, tol: float = 0.01) -> bool:
    """Whether two unit states coincide up to a global phase.

    True when |<u|v>| >= 1 - tol; the default threshold 0.99 separates
    genuinely distinct contextual representations from rounding noise.
    """
    a = _values(u)
    b = _values(v)
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return bool(overlap >= 1.0 - tol)


@dataclass
class FactorizationReport:
    """Joint outcome probabilities against the product of marginals.

    ``joint[i, j]`` is the probability of outcome (i+1, j+1); ``expected``
    holds the products marginal_a[i] * marginal_b[j].  ``marginal_source``
    records whether marginals came from supplied singles data or from the
    joint table's row/column sums.
    """

    joint: np.ndarray
    marginal_a: np.ndarray
    marginal_b: np.ndarray
    marginal_source: str
    expected: np.ndarray
    deviations: np.ndarray
    max_deviation: float


def collapse_probabilities(vectors, states) -> np.ndarray:
    """|<v_k|psi>|^2 for each column v_k of a 4x4 matrix and a state, or for
    each pair of a stack of matrices (..., 4, 4) and states (..., 4)."""
    states = np.asarray(states)
    return np.abs((np.conj(vectors).swapaxes(-1, -2) @ states[..., None])[..., 0]) ** 2


def marginal_product_deviations(joint, marginal_a, marginal_b) -> tuple:
    """(expected, |joint - expected|) for a 2x2 joint table, or each table of
    a stack (..., 2, 2), where expected[i, j] = marginal_a[i] * marginal_b[j]."""
    expected = np.asarray(marginal_a)[..., :, None] * np.asarray(marginal_b)[..., None, :]
    return expected, np.abs(joint - expected)


def check_factorization(state, measurement, singles=None) -> FactorizationReport:
    """Compare joint collapse probabilities with products of marginals.

    Parameters
    ----------
    state : array-like or StateVector
        Unit state in C^4.
    measurement : ObservableModel or sequence of four vectors
        Four-outcome coincidence measurement; outcome k carries the product
        label PRODUCT_LABELS[k].
    singles : pair of pairs, optional
        Externally measured one-side marginals ((pA1, pA2), (pB1, pB2)).
        When omitted, marginals are the joint table's row and column sums.
    """
    psi = _values(state)
    joint = collapse_probabilities(np.column_stack(_model_eigenvectors(measurement)), psi)
    joint = joint.reshape(2, 2)
    if singles is not None:
        marginal_a = np.asarray(singles[0], dtype=float)
        marginal_b = np.asarray(singles[1], dtype=float)
        source = "singles"
    else:
        marginal_a = joint.sum(axis=1)
        marginal_b = joint.sum(axis=0)
        source = "joint"
    expected, deviations = marginal_product_deviations(joint, marginal_a, marginal_b)
    return FactorizationReport(
        joint=joint,
        marginal_a=marginal_a,
        marginal_b=marginal_b,
        marginal_source=source,
        expected=expected,
        deviations=deviations,
        max_deviation=float(deviations.max()),
    )


@dataclass
class ProductIsoSearchResult:
    """Outcome of a randomized search for a common product-rendering isomorphism."""

    found: bool
    witness: Isomorphism | None
    trials: int


def refute_common_product_iso(operators, extra_isos=(), n_trials: int = 10_000,
                              seed: int = 0, rank_tol: float = 1e-7) -> ProductIsoSearchResult:
    """Search for one isomorphism rendering every operator product.

    Candidates are the supplied ``extra_isos`` (typically each measurement's
    own canonical identification) followed by ``n_trials`` seeded
    Haar-random isomorphisms, drawn exactly as ``random_isomorphism`` draws
    them from ``np.random.default_rng(seed)``.  They are tested in blocks of
    SEARCH_BLOCK: each operator in turn is transported through the
    candidates still alive, reshuffled, and kept only where its operator
    Schmidt rank is 1.  Most candidates are ruled out without an SVD: with
    F the squared Frobenius norm of the reshuffle R and
    e2 = (F^2 - ||R^dagger R||_F^2) / 2 = sum_{i<j} s_i^2 s_j^2, a candidate
    with e2 > max(1e-6, 100 rank_tol^2) F^2 has s_2 / s_1 > 4 rank_tol, so
    rank above 1.  Only the others go through the SVD (see
    _transported_is_product).  The witness is the first candidate that survives
    every operator and ``trials`` is its 1-based position in the candidate
    order; when none survives, ``trials`` counts every candidate.  A
    not-found result is evidence — not proof — that no such isomorphism
    exists.
    """
    ops = [_values(op) for op in operators]
    rng = np.random.default_rng(seed)
    extra = list(extra_isos)
    total = len(extra) + n_trials
    for start in range(0, total, SEARCH_BLOCK):
        stop = min(start + SEARCH_BLOCK, total)
        fixed = [iso.matrix for iso in extra[start:stop]]
        n_random = stop - start - len(fixed)
        z = rng.standard_normal((n_random, 2, 4, 4))
        block = np.concatenate(
            [np.reshape(fixed, (-1, 4, 4)), _haar_unitaries(z[:, 0] + 1j * z[:, 1])]
        )
        alive = np.arange(stop - start)
        for op in ops:
            alive = alive[_transported_is_product(block[alive], op, rank_tol)]
            if not alive.size:
                break
        if alive.size:
            k = start + int(alive[0])
            witness = extra[k] if k < len(extra) else Isomorphism(block[alive[0]], name="random")
            return ProductIsoSearchResult(found=True, witness=witness, trials=k + 1)
    return ProductIsoSearchResult(found=False, witness=None, trials=total)
