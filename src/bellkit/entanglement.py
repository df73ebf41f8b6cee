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

import numpy as np

from . import _Record
from .hilbert import (
    RANK_TOL,
    _levenberg,
    _values,
    check_unitary,
    gram,  # not called: perfbench/spans.py wraps entanglement's binding
    is_hermitian,
    numerical_rank,
    orthonormalize,
    peak_part,
    svd,
    tensor_op,  # not called: perfbench/spans.py wraps entanglement's binding
)

# Outcome labels of the product basis, in component order.
PRODUCT_LABELS = ((1, 1), (1, 2), (2, 1), (2, 2))

# refute_common_product_iso's seeded Haar-random starts, and the stop rule
# it passes to hilbert._levenberg.
SEARCH_STARTS = 4
SEARCH_TARGET = 1e-24
SEARCH_MIN_DECREASE = 1e-3
SEARCH_STALL = 2
SEARCH_ITERATIONS = 15

# The search's 9 directions sigma_a (x) sigma_b / 2, a and b over X, Y and
# Z: u(4) apart from the local directions, under which it is invariant.
_XYZ = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
_NONLOCAL = np.array([np.kron(s, t) for s in _XYZ for t in _XYZ]) / 2
# reshuffle on flat indices, its own inverse: R.ravel() = T.ravel()[_RESHUFFLED].
_RESHUFFLED = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
# (R.ravel() @ _MOVES).reshape(16, 9)[:, g] is the flat reshuffle of
# i (G_g T - T G_g), the move of R = reshuffle(T) in direction g.
_MOVES = np.stack([(1j * (np.kron(g, np.eye(4)) - np.kron(np.eye(4), g.T)))[np.ix_(_RESHUFFLED, _RESHUFFLED)].T
                   for g in _NONLOCAL], axis=-1).reshape(16, 144)
# The 36 2x2 minors a_i b_j - a_j b_i of a 4x4 matrix, rows (a, b) and
# columns (i, j) each an index pair of _PAIRS: _MINOR_ENTRIES[m] holds the
# flat indices of minor m's entries (a_i, a_j, b_i, b_j) (_minors).  Those
# entries reversed, times _MINOR_SIGNS, are the minor's partial derivatives
# in them.  [_MINOR_ROWS, _MINOR_ENTRIES] indexes them in a (36, 16) array.
_PAIRS = np.triu_indices(4, 1)
_MINOR_ENTRIES = np.array([4 * p[:, None] + q for p in _PAIRS for q in _PAIRS]).reshape(4, 36).T
_MINOR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_MINOR_ROWS = np.arange(36)[:, None]

# Largest real or imaginary part of an operator entry that
# Isomorphism.transport accepts.  The entries of U M U^dagger and the
# singular values of its reshuffle stay below 16 * sqrt(2) times it, so they
# cannot overflow.
MAX_OPERATOR_ENTRY = 1e300


def _model_eigenvectors(measurement) -> list:
    """Repaired eigenvectors of a measurement model or plain vector family."""
    vecs = getattr(measurement, "eigenvectors", measurement)
    return [_values(v) for v in vecs]


class Isomorphism(_Record):
    """A labeled unitary identification of C^4 with C^2 (x) C^2.

    ``matrix`` sends a vector in C^4 to its coefficient vector over the
    product basis; component k of the image carries the outcome label
    PRODUCT_LABELS[k].
    """

    def __init__(self, matrix: np.ndarray, name: str = "canonical"):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.name = name
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

    Returns the Q of Z = Q R with R upper triangular and a positive real
    diagonal, which is Haar-distributed (Mezzadri 2007) and free of any
    library's sign convention.  Classical Gram-Schmidt orthonormalizes the
    columns first to last and projects each column against the ones before
    it twice ("twice is enough"), so Q stays unitary to round-off for Z of
    condition number up to about 1e12.  Every sum is spelled out term by
    term in real arithmetic, with the stack on the last axis: a matrix takes
    the same floating-point steps alone or anywhere in a stack of any size,
    so its Q is bit-identical either way.
    """
    z = np.asarray(ginibre)
    # w[k, 0, p, i] is part p (real, imaginary) of entry i of column k, and
    # w[k, 1] is i times that column, so that one product with a vector v
    # gives the real and imaginary parts of <column k, v> together.
    w = np.empty((4, 2, 2, 4, *z.shape[:-2]))
    w[:, 0, 0] = np.moveaxis(z.real, (-1, -2), (0, 1))
    w[:, 0, 1] = np.moveaxis(z.imag, (-1, -2), (0, 1))
    for k in range(4):
        v = w[k, 0]
        for _ in range(2 if k else 0):
            p = w[:k] * v
            p = p[:, :, 0] + p[:, :, 1]
            c = p[:, :, 0] + p[:, :, 1] + p[:, :, 2] + p[:, :, 3]  # <q_j, v> for j < k
            d = c[:, :, None, None] * w[:k]
            d = d[:, 0] + d[:, 1]  # <q_j, v> q_j
            for j in range(k):
                v -= d[j]
        sq = v * v
        sq = sq[0] + sq[1]
        v /= np.sqrt(sq[0] + sq[1] + sq[2] + sq[3])
        np.negative(v[1], out=w[k, 1, 0])
        w[k, 1, 1] = v[0]
    q = np.empty(z.shape, dtype=complex)
    np.moveaxis(q.real, (-1, -2), (0, 1))[...] = w[:, 0, 0]
    np.moveaxis(q.imag, (-1, -2), (0, 1))[...] = w[:, 0, 1]
    return q


def random_isomorphism(rng: np.random.Generator) -> Isomorphism:
    """A Haar-distributed isomorphism (Gram-Schmidt of a Ginibre sample)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return Isomorphism(_haar_unitaries(z), name="random")


def canonical_iso_of(measurement) -> Isomorphism:
    """The isomorphism that makes a measurement's eigenvectors the product basis.

    Maps the k-th (repaired) eigenvector to the k-th product basis vector, so
    the transported operator is diagonal with the outcome eigenvalues.

    Raises
    ------
    ValueError
        If there are not four eigenvectors, or as hilbert.orthonormalize
        refuses a family beyond 0.05 of orthonormal.
    """
    vecs = _model_eigenvectors(measurement)
    if len(vecs) != 4:
        raise ValueError("need four eigenvectors")
    matrix = np.array([v.conj() for v in orthonormalize(vecs)])
    name = getattr(measurement, "experiment", None)
    return Isomorphism(matrix, name=f"from-model:{name}" if name else "from-model")


class SchmidtDecomposition(_Record):
    """State decomposition psi = sum_k c_k u_k (x) v_k through an isomorphism.

    ``matrix`` is the 2x2 coefficient matrix of psi's image, entry (i, j)
    on product basis vector (i, j).  Its SVD gives ``coefficients`` (the
    c_k, descending), ``left`` and ``right``, 2x2 with column k holding u_k
    and v_k.  ``==`` ignores ``iso_name``.
    """

    _uncompared = ("iso_name",)

    def __init__(self, matrix: np.ndarray, iso_name: str = "canonical"):
        self.matrix, self.iso_name = matrix, iso_name
        u, self.coefficients, vh = svd(matrix)
        self.left, self.right = u, vh.T  # column k holds the second-factor components
        total = float(np.sum(self.coefficients**2))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"Schmidt coefficients must satisfy sum c^2 = 1, got {total}")

    def rank(self, rank_tol: float = RANK_TOL) -> int:
        return numerical_rank(self.coefficients, rank_tol)

    @property
    def is_product(self) -> bool:
        return self.rank() == 1


class OperatorSchmidt(_Record):
    """Operator decomposition T = sum_k sigma_k A_k (x) B_k.

    ``transported`` is the operator's image T under the isomorphism.  The
    SVD of reshuffle(T) gives ``sigma`` (descending) and the factors
    ``factors_a`` and ``factors_b``, Hilbert-Schmidt orthonormal 2x2
    matrices.
    """

    def __init__(self, transported: np.ndarray):
        self.transported = transported
        u, self.sigma, vh = svd(reshuffle(transported))
        self.factors_a = [u[:, k].reshape(2, 2) for k in range(4)]
        self.factors_b = [vh[k, :].reshape(2, 2) for k in range(4)]

    def rank(self, rank_tol: float = RANK_TOL) -> int:
        return numerical_rank(self.sigma, rank_tol)

    @property
    def is_product(self) -> bool:
        return self.rank() == 1


class Evolution(_Record):
    """Unitary operator carrying one measurement's eigenstates to another's."""

    def __init__(self, matrix: np.ndarray, source: str, target: str):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.source, self.target = source, target
        check_unitary(self.matrix, "evolution operator")


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


def _peak_scaled(operators) -> np.ndarray:
    """A matrix, or each of a stack, scaled by the power of two that brings
    its peak_part into [0.5, 1): exact, and every square stays finite."""
    parts = np.ascontiguousarray(operators, dtype=complex).view(float)
    shift = -np.frexp(np.abs(parts).max(axis=(-2, -1)))[1]
    return np.ldexp(parts, shift[..., None, None]).view(complex)


def _minors(flat: np.ndarray) -> np.ndarray:
    """The 36 2x2 minors a_i b_j - a_j b_i (..., 36) of each flat 4x4 matrix
    of a stack (..., 16)."""
    a_i, a_j, b_i, b_j = (flat[..., entries] for entries in _MINOR_ENTRIES.T)
    return a_i * b_j - a_j * b_i


def _transported_is_product(us: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Whether U M U^dagger has operator-Schmidt rank 1 at RANK_TOL, for
    stacks of unitaries and of operators, each (..., 4, 4) with at least
    one stack axis, broadcast against each other.

    Each operator is first scaled by a power of two that brings its
    peak_part into [0.5, 1): that changes no rank and keeps every square
    finite.  With s the singular values of the reshuffle R of the
    transport, F = sum s_i^2 = sum |R|^2 and e2 = sum_{i<j} s_i^2 s_j^2, the
    sum of |m|^2 over R's 36 2x2 minors m (Cauchy-Binet): 64 e2 < RANK_TOL^2
    F^2 proves s_2 / s_1 < RANK_TOL / 2, as s_1^2 >= F / 4 gives
    (s_2 / s_1)^2 <= 16 e2 / F^2.  The factor 2 absorbs the round-off of R,
    e2 and the SVD.  The entries this does not prove product, zero
    operators among them, go through one np.linalg.svd and numerical_rank.
    """
    r = reshuffle(us @ _peak_scaled(operators) @ us.conj().swapaxes(-1, -2))
    flat = r.reshape(*r.shape[:-2], 16)
    minors = _minors(flat)
    e2 = np.sum(minors.real**2 + minors.imag**2, axis=-1)
    f = np.sum(flat.real**2 + flat.imag**2, axis=-1)
    product = 64.0 * e2 < RANK_TOL**2 * f**2
    left = ~product
    if left.any():
        product[left] = numerical_rank(np.linalg.svd(r[left], compute_uv=False)) == 1
    return product


def _unit_values(state, caller: str) -> np.ndarray:
    """A state's components; ValueError naming ``caller`` unless they have
    unit norm within 1e-9 (NaN fails)."""
    psi = _values(state)
    with np.errstate(over="ignore"):  # an overflowing norm fails the bound
        norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"{caller} expects a unit state")
    return psi


def schmidt_state(state, iso: Isomorphism | None = None) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit state (norm within 1e-9) relative to
    an isomorphism."""
    iso = iso if iso is not None else canonical_iso()
    psi = _unit_values(state, "schmidt_state")
    return SchmidtDecomposition(iso.apply(psi).reshape(2, 2), iso.name)


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
    return OperatorSchmidt(iso.transport(op))


def measurement_entanglement_degree(operator, iso: Isomorphism | None = None) -> float:
    """How far a measurement is from product form: 1 - sigma_1^2 / sum sigma^2.

    Zero exactly for product measurements; approaches 1 - 1/k when k Schmidt
    coefficients are equal.  ``operator`` may also be its OperatorSchmidt,
    already computed; ``iso`` is then not used.
    """
    if not isinstance(operator, OperatorSchmidt):
        operator = operator_schmidt(operator, iso)
    sigma = operator.sigma
    if sigma[0] == 0.0:
        raise ValueError("entanglement degree undefined for the zero operator")
    # Scaled by the largest coefficient, so that no square can overflow.
    return 1.0 - 1.0 / float(np.sum((sigma / sigma[0]) ** 2))


def evolution_between(source_model, target_model) -> Evolution:
    """The unitary sending the k-th eigenvector of source to the k-th of target.

    Eigenvectors pair by outcome position (11 to 11, 12 to 12, and so on).
    """
    src = np.column_stack(_model_eigenvectors(source_model))
    dst = np.column_stack(_model_eigenvectors(target_model))
    return Evolution(
        matrix=dst @ src.conj().T,
        source=str(getattr(source_model, "experiment", "source")),
        target=str(getattr(target_model, "experiment", "target")),
    )


def is_product_evolution(evolution: Evolution, iso: Isomorphism | None = None) -> bool:
    """Whether a unitary evolution is a tensor product relative to ``iso``, at RANK_TOL."""
    iso = iso if iso is not None else canonical_iso()
    return OperatorSchmidt(iso.transport(evolution.matrix)).is_product


def states_equal_up_to_phase(u, v) -> bool:
    """Whether two unit states coincide up to a global phase.

    True when |<u|v>| >= 0.99, a threshold that separates genuinely distinct
    contextual representations from rounding noise.
    """
    a = _values(u)
    b = _values(v)
    overlap = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return bool(overlap >= 0.99)


class FactorizationReport(_Record):
    """Joint outcome probabilities against the product of their marginals.

    ``joint[i, j]`` is the probability of outcome (i+1, j+1); ``marginal_a``
    and ``marginal_b`` are its row and column sums, ``expected`` holds the
    products marginal_a[i] * marginal_b[j], ``deviations`` the |joint -
    expected| and ``max_deviation`` their largest entry.
    """

    def __init__(self, joint: np.ndarray):
        self.joint = joint
        self.marginal_a, self.marginal_b = joint.sum(axis=1), joint.sum(axis=0)
        self.expected, self.deviations = marginal_product_deviations(joint, self.marginal_a, self.marginal_b)
        self.max_deviation = float(self.deviations.max())


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


def check_factorization(state, measurement) -> FactorizationReport:
    """Compare joint collapse probabilities with products of their marginals.

    Parameters
    ----------
    state : array-like or StateVector
        Unit state in C^4, norm within 1e-9 (ValueError otherwise).
    measurement : ObservableModel or sequence of four vectors
        Four-outcome coincidence measurement; outcome k carries the product
        label PRODUCT_LABELS[k].

    The marginals are the joint table's row and column sums.  To compare
    the joint table with marginals measured elsewhere, pass ``joint`` and
    them to marginal_product_deviations.
    """
    psi = _unit_values(state, "check_factorization")
    joint = collapse_probabilities(np.column_stack(_model_eigenvectors(measurement)), psi)
    return FactorizationReport(joint.reshape(2, 2))


class ProductIsoSearchResult(_Record):
    """Outcome of the least-squares search for a common product-rendering
    isomorphism: ``witness`` is the isomorphism found, or None, and
    ``found`` whether there is one; ``trials`` counts the starts run and
    ``objective`` is the lowest objective any start reached."""

    def __init__(self, witness: Isomorphism | None, trials: int, objective: float):
        self.witness, self.trials, self.objective = witness, trials, objective
        self.found = witness is not None


def _minor_residuals(us: np.ndarray, operators: np.ndarray) -> tuple:
    """The search's residuals r (B, 72 K) at a stack of unitaries (B, 4, 4),
    and their Jacobian J (B, 72 K, 9) in the directions _NONLOCAL.

    r holds the real and imaginary parts of the 36 2x2 minors of each R_k =
    reshuffle(U M_k U^dagger), so |r|^2 = sum_k sum_{i<j} s_i^2 s_j^2 over
    the singular values s of R_k (Cauchy-Binet).  Under U <- exp(iH) U with
    H = sum_g h_g G_g, T = U M U^dagger moves by i (G_g T - T G_g) per unit
    of h_g; its reshuffle carries through each minor by the product rule.
    """
    count, k = len(us), len(operators)
    t = us[:, None] @ operators @ us.conj().swapaxes(-1, -2)[:, None]
    x = t.reshape(count * k, 16)[:, _RESHUFFLED]  # each R_k, flat
    minors = _minors(x)
    # d minor / d entry, for each minor and each flat entry of R_k
    weights = np.zeros((count * k, 36, 16), dtype=complex)
    weights[:, _MINOR_ROWS, _MINOR_ENTRIES] = x[:, _MINOR_ENTRIES[:, ::-1]] * _MINOR_SIGNS
    # R_k's moves row by row: OpenBLAS may run one (B K, 16) x (16, 144)
    # product on two threads, which took longer than the row-by-row
    # products whenever another process held a core
    d_minors = weights @ (x[:, None] @ _MOVES).reshape(-1, 16, 9)
    jac = np.stack((d_minors.real, d_minors.imag), axis=2).reshape(count, 72 * k, 9)
    return np.stack((minors.real, minors.imag), axis=-1).reshape(count, 72 * k), jac


def _retract(us: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(iH) U for H = sum_g h_g G_g over _NONLOCAL, by H's eigendecomposition."""
    w, v = np.linalg.eigh((h @ _NONLOCAL.reshape(9, 16)).reshape(-1, 4, 4))
    return (v * np.exp(1j * w)[:, None, :]) @ (v.conj().swapaxes(-1, -2) @ us)


def refute_common_product_iso(operators, seed: int = 0) -> ProductIsoSearchResult:
    """Search for one isomorphism rendering every operator product.

    Least squares on U(4) (Absil, Mahony & Sepulchre 2008): with each
    operator M_k scaled to unit Hilbert-Schmidt norm, minimize sum_k
    sum_{i<j} s_i^2 s_j^2 over the singular values s of reshuffle(U M_k
    U^dagger), the squared sum of the real and imaginary parts of its 36
    2x2 minors (_minor_residuals).  It vanishes exactly where every
    transport has operator-Schmidt rank 1.  The objective does not change
    under U <- (A (x) B) U, so the steps run over the 9 other directions
    G = sigma_a (x) sigma_b / 2, a and b over X, Y and Z, with the
    retraction U <- exp(iH) U.  So modulo local unitaries 9 dimensions are
    free, and a +/-1 measurement with a twofold spectrum costs 4 to be
    product: two measurements have a common product identification in
    general, three do not.

    The starts are SEARCH_STARTS seeded Haar-random isomorphisms, drawn
    exactly as ``random_isomorphism`` draws them from
    ``np.random.default_rng(seed)``.  They run as one stack
    through hilbert._levenberg, with the exact Jacobian, until the objective
    is at most SEARCH_TARGET, after SEARCH_STALL iterations in a row without
    a relative decrease above SEARCH_MIN_DECREASE, or after
    SEARCH_ITERATIONS.  ``found`` is whether some start ends where every
    operator has operator-Schmidt rank 1 at RANK_TOL
    (_transported_is_product); the witness is the first such start's final
    unitary.  ``trials`` counts the starts and ``objective`` is the lowest
    reached.  A not-found result is evidence, not proof, that no such
    isomorphism exists; a best objective far above RANK_TOL^2 bounds how
    close the starts came.

    Raises
    ------
    ValueError
        If an operator entry is not finite.
    """
    ops = np.reshape([_values(op) for op in operators], (-1, 4, 4))
    if not np.isfinite(ops).all():
        raise ValueError("operators must have finite entries")
    scaled = _peak_scaled(ops)
    norms = np.sqrt(np.sum(scaled.real**2 + scaled.imag**2, axis=(-2, -1)))
    unit = np.divide(scaled, norms[:, None, None], out=np.zeros_like(scaled), where=norms[:, None, None] > 0)
    z = np.random.default_rng(seed).standard_normal((SEARCH_STARTS, 2, 4, 4))
    starts = _haar_unitaries(z[:, 0] + 1j * z[:, 1])
    us, objectives, _, _ = _levenberg(
        lambda u: _minor_residuals(u, unit), starts, SEARCH_TARGET, SEARCH_MIN_DECREASE, SEARCH_STALL,
        SEARCH_ITERATIONS, retract=_retract)
    hits = np.flatnonzero(_transported_is_product(us[:, None], ops).all(axis=1))
    witness = Isomorphism(us[hits[0]], name="search") if hits.size else None
    return ProductIsoSearchResult(witness, len(us), float(objectives.min()))
