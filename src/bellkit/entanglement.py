"""Entanglement structure relative to an isomorphism C^4 ~ C^2 (x) C^2.

Whether a state, measurement, or evolution is "product" is never absolute:
it is a property relative to a chosen labeled unitary identification of the
4-dimensional space with the tensor product of two 2-dimensional factor
spaces.  This module provides that identification (`Isomorphism`), Schmidt
decompositions of states and operators transported through it, evolution
operators between measurement models, and the factorization / marginal-law
diagnostics built on top.  refute_common_product_iso proves, from the
spectrum of a word of three measurements, that no one identification
renders a family of measurements product.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import _Record
from .hilbert import (
    RANK_TOL,
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

# The 36 2x2 minors a_i b_j - a_j b_i of a 4x4 matrix, rows (a, b) and
# columns (i, j) each an index pair of _PAIRS: _MINOR_ENTRIES[m] holds the
# flat indices of minor m's entries (a_i, a_j, b_i, b_j) (_minors).
_PAIRS = np.triu_indices(4, 1)
_MINOR_ENTRIES = np.array([4 * p[:, None] + q for p in _PAIRS for q in _PAIRS]).reshape(4, 36).T

# The three ways to split four eigenvalues into two pairs, (a, b | c, d).
_SPLITS = np.array([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]])
# The least pairing defect of a word that refutes a common product
# identification (refute_common_product_iso).  An operator unitary within
# 1e-9 per entry lies within 4e-9 in norm of a unitary, so a word of three
# lies within 1.2e-8 of a unitary word V; round-off in the products and in
# eigvals adds about 1e-14.  Bauer-Fike, with continuity, matches the
# spectrum of V + E to V's within 7 ||E|| (2n - 1, n = 4), so the exact and
# the computed spectra of the word lie within 1.7e-7 of each other, and a
# defect, a difference of products of two eigenvalues of modulus about 1,
# moves by at most 4 times that: 6.7e-7.  Planted common identifications
# reach about 2e-15, random +/-1 quartets with twofold spectra at least 0.049.
WORD_DEFECT_FLOOR = 1e-6

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


class ProductObstruction(_Record):
    """The spectral certificate of refute_common_product_iso: ``word``, the
    operator indices (i, j, k) of the word M_i M_j M_k with the largest
    pairing defect, that ``defect``, and ``trials``, the number of words
    tested.  ``refuted`` is whether the defect exceeds WORD_DEFECT_FLOOR."""

    def __init__(self, word: tuple, defect: float, trials: int):
        self.word, self.defect, self.trials = word, defect, trials
        self.refuted = defect > WORD_DEFECT_FLOOR


def refute_common_product_iso(operators) -> ProductObstruction:
    """Prove that no one isomorphism renders every operator product, or fail to.

    If U M_k U^dagger = x_k (x) y_k for every k, each word M_i M_j M_k is
    carried to (x_i x_j x_k) (x) (y_i y_j y_k), whose eigenvalues are the
    products a_p b_q of the factors' (Horn & Johnson, Topics in Matrix
    Analysis, 1991, Thm 4.2.12): they split into two pairs with equal
    products, l_1 l_4 = l_2 l_3.  A word's spectrum does not depend on U.
    The pairing defect of a word is the least |l_a l_b - l_c l_d| over the
    three splits of its eigenvalues, so one word with a defect above
    WORD_DEFECT_FLOOR proves that no common product identification exists.
    The operators are Hermitian and unitary, so each is its own inverse: a
    cyclic shift of a word is conjugate to it and the reversed word is its
    adjoint, and the six orders of a triple share one defect.  One word per
    triple i < j < k is tested, all in one stacked eigvals call; ``refuted``
    is whether the worst exceeds the floor.  The converse fails: a defect at
    or below the floor proves nothing.

    Raises
    ------
    ValueError
        If an operator entry is not finite, if there are fewer than three
        operators, or if an operator is not Hermitian (is_hermitian) or not
        unitary within 1e-9.
    """
    ops = np.reshape([_values(op) for op in operators], (-1, 4, 4))
    if not np.isfinite(ops).all():
        raise ValueError("operators must have finite entries")
    if len(ops) < 3:
        raise ValueError(f"refute_common_product_iso needs at least three operators, got {len(ops)}")
    if not all(is_hermitian(op) for op in ops):
        raise ValueError("operators must be Hermitian")
    check_unitary(ops, "an operator")
    triples = np.array(list(itertools.combinations(range(len(ops)), 3)))
    words = ops[triples[:, 0]] @ ops[triples[:, 1]] @ ops[triples[:, 2]]
    split = np.linalg.eigvals(words)[:, _SPLITS]
    defects = np.abs(split[..., 0] * split[..., 1] - split[..., 2] * split[..., 3]).min(axis=-1)
    worst = int(np.argmax(defects))
    return ProductObstruction(tuple(triples[worst].tolist()), float(defects[worst]), len(triples))
