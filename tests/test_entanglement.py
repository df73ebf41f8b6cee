"""Tests for product/entangled structure relative to C^4 = C^2 (x) C^2 identifications."""
from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from bellkit import entanglement, verify
from bellkit.entanglement import (
    Evolution,
    Isomorphism,
    canonical_iso,
    canonical_iso_of,
    check_factorization,
    evolution_between,
    is_product_evolution,
    marginal_product_deviations,
    measurement_entanglement_degree,
    operator_schmidt,
    random_isomorphism,
    refute_common_product_iso,
    reshuffle,
    schmidt_state,
    states_equal_up_to_phase,
)
from bellkit.hilbert import numerical_rank, tensor, tensor_op, unitary_deviation
from bellkit.modelfit import reference_fixture, synthesize

from oracles import random_state, random_unitary, singular_values_by_charpoly, svd2_closed_form

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)

# Frozen from an independent evaluation of the reference vectors under the
# package-wide repair convention.
REFERENCE_SCHMIDT = (0.82676734, 0.56254402)
REFERENCE_AB_SIGMA = (1.923778, 0.476479, 0.260543, 0.064531)
REFERENCE_DEGREES = {"AB": 0.074770, "AB'": 0.413956, "A'B": 0.558299, "A'B'": 0.261673}
REFERENCE_CONTEXT_OVERLAP = 0.600073


def product_measurement(rng, iso):
    """A measurement that is product with respect to ``iso``, plus its factors."""
    ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
    inverse = iso.matrix.conj().T
    vectors = [inverse @ tensor(ua[:, i], ub[:, j]) for i in (0, 1) for j in (0, 1)]
    return synthesize(vectors, experiment="product"), ua, ub


# ---------------------------------------------------------------------------
# isomorphisms


def test_canonical_iso_sends_first_basis_vector_to_label_11():
    image = canonical_iso().apply(np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(image, [1, 0, 0, 0], atol=1e-12)


def test_iso_from_model_maps_eigenvectors_to_product_basis():
    _, models, _ = reference_fixture()
    iso = canonical_iso_of(models["AB"])
    for k, vec in enumerate(models["AB"].eigenvectors):
        image = iso.apply(vec)
        expected = np.zeros(4)
        expected[k] = 1.0
        np.testing.assert_allclose(np.abs(image), expected, atol=1e-9)
        assert image[k] == pytest.approx(1.0, abs=1e-9)  # phase convention: exactly e_k


def test_apply_iso_coefficients_are_inner_products():
    state, models, _ = reference_fixture()
    iso = canonical_iso_of(models["AB"])
    image = iso.apply(state.values)
    for k, vec in enumerate(models["AB"].eigenvectors):
        assert image[k] == pytest.approx(np.vdot(vec, state.values), abs=1e-9)


def test_apply_iso_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(50):
        iso = random_isomorphism(rng)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.linalg.norm(iso.apply(v)) == pytest.approx(np.linalg.norm(v), abs=1e-12)


def test_random_isomorphism_is_the_phase_fixed_qr_factor():
    # Haar measure needs Z = U R with R upper triangular and a positive
    # diagonal; a bare LAPACK Q leaves R's diagonal phases arbitrary.
    rng = np.random.default_rng(4)
    for _ in range(50):
        state = rng.bit_generator.state
        iso = random_isomorphism(rng)
        rng.bit_generator.state = state
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = iso.matrix.conj().T @ z
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
        assert np.max(np.abs(np.diag(r).imag)) <= 1e-12
        assert np.all(np.diag(r).real > 0.0)


def _phase_fixed_qr(z):
    """LAPACK's Q with the phases of R's diagonal moved into it."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def test_haar_unitaries_match_the_phase_fixed_qr():
    z = _ginibre(np.random.default_rng(8), 2000)
    q = entanglement._haar_unitaries(z)
    assert np.max(unitary_deviation(q)) <= 1e-14
    assert np.max(np.abs(q - _phase_fixed_qr(z))) <= 1e-12


def test_haar_unitaries_stay_unitary_at_condition_number_1e12():
    rng = np.random.default_rng(9)
    n = 500
    left = _phase_fixed_qr(_ginibre(rng, n))
    right = _phase_fixed_qr(_ginibre(rng, n))
    z = left @ (np.array([1.0, 1e-4, 1e-8, 1e-12])[:, None] * right)
    assert np.min(np.linalg.cond(z)) > 1e11
    assert np.max(unitary_deviation(entanglement._haar_unitaries(z))) <= 1e-14


def test_haar_unitaries_are_bit_identical_alone_and_in_any_stack():
    z = _ginibre(np.random.default_rng(10), 400)
    full = entanglement._haar_unitaries(z)
    for k in (0, 5, 399):
        assert np.array_equal(entanglement._haar_unitaries(z[k]), full[k]), k
    for lo, hi in ((0, 2), (3, 67), (100, 356), (250, 400)):
        assert np.array_equal(entanglement._haar_unitaries(z[lo:hi]), full[lo:hi]), (lo, hi)
    nested = entanglement._haar_unitaries(z.reshape(20, 20, 4, 4))
    assert np.array_equal(nested.reshape(400, 4, 4), full)


def test_isomorphism_requires_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        Isomorphism(np.ones((4, 4)))


def test_canonical_iso_of_rejects_family_beyond_repair():
    vecs = [np.eye(4)[0], np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]]
    with pytest.raises(ValueError, match="beyond repair"):
        canonical_iso_of(vecs)


def test_iso_of_canonical_basis_model_is_identity():
    model = synthesize(np.eye(4))
    iso = canonical_iso_of(model)
    np.testing.assert_allclose(iso.matrix, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# state Schmidt decomposition


def test_schmidt_of_pulled_back_product_state_is_rank_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        iso = random_isomorphism(rng)
        u, w = random_state(rng, 2), random_state(rng, 2)
        state = iso.matrix.conj().T @ tensor(u, w)
        dec = schmidt_state(state, iso)
        assert dec.rank() == 1
        assert dec.is_product
        np.testing.assert_allclose(dec.coefficients, [1.0, 0.0], atol=1e-9)


def test_schmidt_of_singlet_is_maximally_entangled():
    dec = schmidt_state(SINGLET)
    np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert dec.rank() == 2
    assert not dec.is_product


def test_schmidt_reference_state_against_closed_form_oracle():
    state, _, _ = reference_fixture()
    dec = schmidt_state(state.values)
    oracle = svd2_closed_form(state.values.reshape(2, 2))
    np.testing.assert_allclose(dec.coefficients, oracle, atol=1e-9)
    np.testing.assert_allclose(dec.coefficients, REFERENCE_SCHMIDT, atol=5e-7)
    assert dec.rank() == 2


def test_schmidt_reconstructs_state():
    rng = np.random.default_rng(12)
    for _ in range(20):
        psi = random_state(rng, 4)
        dec = schmidt_state(psi)
        rebuilt = sum(
            c * tensor(dec.left[:, k], dec.right[:, k]) for k, c in enumerate(dec.coefficients)
        )
        np.testing.assert_allclose(rebuilt, psi, atol=1e-9)


def test_schmidt_coefficients_invariant_under_local_unitaries():
    rng = np.random.default_rng(19)
    psi = random_state(rng, 4)
    base = schmidt_state(psi)
    for _ in range(10):
        local = tensor_op(random_unitary(rng, 2), random_unitary(rng, 2))
        twisted = Isomorphism(local @ canonical_iso().matrix, name="twisted")
        dec = schmidt_state(psi, twisted)
        np.testing.assert_allclose(dec.coefficients, base.coefficients, atol=1e-9)


def test_schmidt_state_requires_unit_norm():
    with pytest.raises(ValueError, match="unit"):
        schmidt_state(np.array([1.0, 1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# reshuffle and operator Schmidt decomposition


def test_reshuffle_worked_example():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    r = reshuffle(tensor_op(a, b))
    expected = np.outer([0, 1, 1, 0], [1, 0, 0, -1])
    np.testing.assert_allclose(r, expected, atol=1e-12)
    sigma = np.linalg.norm(r)  # single nonzero singular value of a rank-1 matrix
    assert sigma == pytest.approx(2.0, abs=1e-12)


def test_reshuffle_of_product_is_rank_one_outer_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        r = reshuffle(tensor_op(a, b))
        np.testing.assert_allclose(r, np.outer(a.reshape(-1), b.reshape(-1)), atol=1e-12)


def test_reshuffle_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        reshuffle(np.eye(3))


def test_operator_schmidt_requires_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        operator_schmidt(m)


@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_operator_schmidt_rejects_a_relative_anti_hermitian_part(scale):
    _, models, _ = reference_fixture()
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = 1e-6, -1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        operator_schmidt(scale * (models["AB"].operator + skew))


def test_operator_schmidt_of_pulled_back_product_operator():
    rng = np.random.default_rng(8)
    for _ in range(20):
        iso = random_isomorphism(rng)
        ha = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        hb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ma, mb = ha + ha.conj().T, hb + hb.conj().T
        op = iso.matrix.conj().T @ tensor_op(ma, mb) @ iso.matrix
        dec = operator_schmidt(op, iso)
        assert dec.rank() == 1
        assert dec.is_product
        # factors are the normalized tensor components, up to a joint phase
        norm_a = np.linalg.norm(ma)
        overlap_a = abs(np.trace(dec.factors_a[0].conj().T @ ma))
        assert overlap_a == pytest.approx(norm_a, abs=1e-9)
        norm_b = np.linalg.norm(mb)
        overlap_b = abs(np.trace(dec.factors_b[0].conj().T @ mb))
        assert overlap_b == pytest.approx(norm_b, abs=1e-9)
        assert dec.sigma[0] == pytest.approx(norm_a * norm_b, abs=1e-9)


def test_operator_schmidt_of_identity():
    dec = operator_schmidt(np.eye(4))
    assert dec.rank() == 1
    assert dec.sigma[0] == pytest.approx(2.0, abs=1e-12)


def test_operator_schmidt_reference_ab_is_entangled_measurement():
    _, models, _ = reference_fixture()
    dec = operator_schmidt(models["AB"].operator)
    assert dec.rank() > 1
    np.testing.assert_allclose(dec.sigma, REFERENCE_AB_SIGMA, atol=5e-6)
    oracle = singular_values_by_charpoly(reshuffle(models["AB"].operator))
    np.testing.assert_allclose(dec.sigma, oracle, atol=1e-7)


def test_operator_schmidt_reconstructs_transported_operator():
    rng = np.random.default_rng(14)
    for _ in range(20):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = h + h.conj().T
        iso = random_isomorphism(rng)
        dec = operator_schmidt(op, iso)
        rebuilt = sum(s * tensor_op(a, b) for s, a, b in zip(dec.sigma, dec.factors_a, dec.factors_b))
        np.testing.assert_allclose(rebuilt, iso.transport(op), atol=1e-9)


def _subnormal_product_operator():
    """A Hermitian operator pulled back from a product one, scaled into the
    subnormal range, and the isomorphism it was pulled back through."""
    rng = np.random.default_rng(9)
    iso = random_isomorphism(rng)
    ha = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    hb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    op = iso.matrix.conj().T @ tensor_op(ha + ha.conj().T, hb + hb.conj().T) @ iso.matrix
    return 1e-310 * (op + op.conj().T) / 2, iso


def test_operator_schmidt_of_a_subnormal_product_operator():
    op, iso = _subnormal_product_operator()
    assert 0.0 < np.max(np.abs(op)) < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert operator_schmidt(op, iso).rank() == 1
        assert operator_schmidt(iso.transport(op)).rank() == 1
        assert operator_schmidt(op).rank() > 1


# ---------------------------------------------------------------------------
# entanglement degree


def test_degree_of_product_operator_is_zero():
    rng = np.random.default_rng(4)
    iso = random_isomorphism(rng)
    ha = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    hb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    op = iso.matrix.conj().T @ tensor_op(ha + ha.conj().T, hb + hb.conj().T) @ iso.matrix
    assert measurement_entanglement_degree(op, iso) == pytest.approx(0.0, abs=1e-12)


def test_degree_with_equal_coefficients_follows_symmetry():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    two = tensor_op(sx, sx) + tensor_op(sy, sy)
    assert measurement_entanglement_degree(two) == pytest.approx(1 - 1 / 2, abs=1e-12)
    four = tensor_op(sx, sx) + tensor_op(sy, sy) + tensor_op(sz, sz) + np.eye(4)
    assert measurement_entanglement_degree(four) == pytest.approx(1 - 1 / 4, abs=1e-12)


def test_degree_reference_regression_values():
    _, models, _ = reference_fixture()
    for key, model in models.items():
        degree = measurement_entanglement_degree(model.operator)
        assert degree == pytest.approx(REFERENCE_DEGREES[key], abs=5e-6), key


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_degree_is_unchanged_by_scaling_the_operator(scale):
    _, models, _ = reference_fixture()
    for key, model in models.items():
        degree = measurement_entanglement_degree(model.operator)
        scaled = measurement_entanglement_degree(scale * model.operator)
        assert scaled == pytest.approx(degree, abs=1e-12), key
    assert measurement_entanglement_degree(scale * np.eye(4)) == 0.0


def test_degree_rejects_zero_operator():
    with pytest.raises(ValueError, match="zero operator"):
        measurement_entanglement_degree(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# evolutions


def test_evolution_from_model_to_itself_is_identity():
    _, models, _ = reference_fixture()
    evo = evolution_between(models["AB"], models["AB"])
    np.testing.assert_allclose(evo.matrix, np.eye(4), atol=1e-9)


def test_evolution_between_canonical_permutations():
    src = synthesize(np.eye(4))
    perm = np.eye(4)[[1, 0, 3, 2]]
    dst = synthesize(perm)
    evo = evolution_between(src, dst)
    np.testing.assert_allclose(evo.matrix, perm.T, atol=1e-12)


def test_evolution_reference_ab_to_ab_prime_maps_eigenvectors():
    _, models, _ = reference_fixture()
    evo = evolution_between(models["AB"], models["AB'"])
    assert evo.source == "AB" and evo.target == "AB'"
    for src, dst in zip(models["AB"].eigenvectors, models["AB'"].eigenvectors):
        np.testing.assert_allclose(evo.matrix @ src, dst, atol=1e-9)


def test_evolution_requires_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        Evolution(np.ones((4, 4)), source="a", target="b")


def test_identity_evolution_is_product_for_every_isomorphism():
    rng = np.random.default_rng(6)
    evo = Evolution(np.eye(4, dtype=complex), source="x", target="x")
    assert is_product_evolution(evo)
    for _ in range(10):
        assert is_product_evolution(evo, random_isomorphism(rng))


def test_pulled_back_one_sided_rotation_is_product_evolution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        iso = random_isomorphism(rng)
        ub = random_unitary(rng, 2)
        u = iso.matrix.conj().T @ tensor_op(np.eye(2), ub) @ iso.matrix
        evo = Evolution(u, source="m", target="m'")
        assert is_product_evolution(evo, iso)


def test_reference_ab_to_ab_prime_evolution_is_entangled():
    # the marginal law fails between AB and AB', so the connecting evolution
    # cannot be a product relative to the canonical identification
    _, models, _ = reference_fixture()
    evo = evolution_between(models["AB"], models["AB'"])
    assert not is_product_evolution(evo)


# ---------------------------------------------------------------------------
# contextual state images


def test_states_equal_up_to_phase_accepts_phase_rotations():
    rng = np.random.default_rng(13)
    v = random_state(rng, 4)
    for theta in (0.0, 0.4, np.pi, 5.1):
        assert states_equal_up_to_phase(v, np.exp(1j * theta) * v)


def test_states_equal_up_to_phase_rejects_orthogonal():
    assert not states_equal_up_to_phase(np.eye(4)[0], np.eye(4)[1])


def test_reference_contextual_images_differ():
    state, models, _ = reference_fixture()
    image_ab = canonical_iso_of(models["AB"]).apply(state.values)
    image_abp = canonical_iso_of(models["AB'"]).apply(state.values)
    assert not states_equal_up_to_phase(image_ab, image_abp)
    overlap = abs(np.vdot(image_ab, image_abp))
    assert overlap == pytest.approx(REFERENCE_CONTEXT_OVERLAP, abs=5e-6)


# ---------------------------------------------------------------------------
# factorization of product pairs and the spectral family of product measurements


def test_product_state_and_measurement_factorize():
    rng = np.random.default_rng(10)
    for _ in range(25):
        iso = random_isomorphism(rng)
        model, _, _ = product_measurement(rng, iso)
        u, w = random_state(rng, 2), random_state(rng, 2)
        state = iso.matrix.conj().T @ tensor(u, w)
        report = check_factorization(state, model)
        assert report.max_deviation <= 1e-10
        assert report.marginal_a.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.marginal_b.sum() == pytest.approx(1.0, abs=1e-9)


def test_reference_joint_probability_does_not_factorize():
    state, models, dataset = reference_fixture()
    joint = check_factorization(state.values, models["AB"]).joint
    expected, deviations = marginal_product_deviations(
        joint, dataset.singles.probabilities["A"], dataset.singles.probabilities["B"])
    # joint (Horse, Growls) outcome vs the product of the published singles
    assert joint[0, 0] == pytest.approx(0.0494, abs=1e-3)
    assert expected[0, 0] == pytest.approx(0.2556, abs=1e-3)
    assert deviations[0, 0] == pytest.approx(0.206992, abs=5e-6)
    assert deviations.max() == pytest.approx(0.363964, abs=5e-6)


def test_check_factorization_requires_unit_norm():
    # 2 e0 would otherwise report max_deviation 12.0
    with pytest.raises(ValueError, match="check_factorization expects a unit state"):
        check_factorization(2.0 * np.eye(4)[0], np.eye(4))


def test_singlet_with_product_measurement_does_not_factorize():
    rng = np.random.default_rng(15)
    model, _, _ = product_measurement(rng, canonical_iso())
    report = check_factorization(SINGLET, model)
    assert report.max_deviation > 1e-3


def test_spectral_family_of_product_measurement_is_product_projectors():
    # nondegenerate composite spectra: eigenprojectors of the pulled-back
    # product operator match the pulled-back projector products
    from oracles import eigenprojectors_from_spectrum

    rng = np.random.default_rng(16)
    lam_a, lam_b = (2.0, -1.0), (1.0, 3.0)
    for _ in range(10):
        iso = random_isomorphism(rng)
        ua, ub = random_unitary(rng, 2), random_unitary(rng, 2)
        ea = sum(lam_a[i] * np.outer(ua[:, i], ua[:, i].conj()) for i in range(2))
        eb = sum(lam_b[j] * np.outer(ub[:, j], ub[:, j].conj()) for j in range(2))
        op = iso.matrix.conj().T @ tensor_op(ea, eb) @ iso.matrix
        spectrum = [lam_a[i] * lam_b[j] for i in range(2) for j in range(2)]
        projectors = eigenprojectors_from_spectrum(op, spectrum)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            product_proj = tensor_op(
                np.outer(ua[:, i], ua[:, i].conj()), np.outer(ub[:, j], ub[:, j].conj())
            )
            expected = iso.matrix.conj().T @ product_proj @ iso.matrix
            np.testing.assert_allclose(projectors[lam_a[i] * lam_b[j]], expected, atol=1e-9)


# ---------------------------------------------------------------------------
# evolutions between measurements sharing one identification, vs the reference data


def test_shared_iso_product_pair_has_product_evolution_and_stable_marginals():
    rng = np.random.default_rng(20)
    for _ in range(10):
        iso = random_isomorphism(rng)
        inverse = iso.matrix.conj().T
        ua = random_unitary(rng, 2)
        ub, ubp = random_unitary(rng, 2), random_unitary(rng, 2)
        first = synthesize(
            [inverse @ tensor(ua[:, i], ub[:, j]) for i in (0, 1) for j in (0, 1)],
            experiment="AB",
        )
        second = synthesize(
            [inverse @ tensor(ua[:, i], ubp[:, j]) for i in (0, 1) for j in (0, 1)],
            experiment="AB'",
        )
        evo = evolution_between(first, second)
        assert is_product_evolution(evo, iso)
        # the shared side's marginal is measurement-independent
        psi = random_state(rng, 4)
        p = [abs(np.vdot(v, psi)) ** 2 for v in first.eigenvectors]
        q = [abs(np.vdot(v, psi)) ** 2 for v in second.eigenvectors]
        assert p[0] + p[1] == pytest.approx(q[0] + q[1], abs=1e-10)
        assert p[2] + p[3] == pytest.approx(q[2] + q[3], abs=1e-10)


KEYS = ("AB", "AB'", "A'B", "A'B'")
PAULIS = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1.0, -1.0])}
# columns: each Pauli operator's +1 and -1 eigenvectors
EIGENBASES = {"X": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "Y": np.array([[1, 1], [1j, -1j]]) / np.sqrt(2),
              "Z": np.eye(2)}
PLANTED_FACTORS = (("X", "X"), ("X", "Y"), ("Z", "X"), ("Z", "Z"))


def _reference_operators():
    """The four reference operators, in the row's order."""
    _, models, _ = reference_fixture()
    return [models[k].operator for k in KEYS]


def _planted_conjugation():
    """U_0, one Haar unitary from default_rng(5), and the operators U_0 (a (x) b) U_0^dagger."""
    rng = np.random.default_rng(5)
    u0 = entanglement._haar_unitaries(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return u0, [u0 @ np.kron(PAULIS[a], PAULIS[b]) @ u0.conj().T for a, b in PLANTED_FACTORS]


# The pairing defect of each reference triple's word, triples in
# itertools.combinations order: (AB, AB', A'B), (AB, AB', A'B'),
# (AB, A'B, A'B') and (AB', A'B, A'B').
REFERENCE_DEFECTS = (0.06422687, 0.6564022, 0.7933942, 0.2690285)


def test_no_single_isomorphism_renders_all_reference_measurements_product():
    result = refute_common_product_iso(_reference_operators())
    assert result.refuted and result.trials == 4
    assert result.word == (0, 2, 3)  # AB A'B A'B'
    assert result.defect == pytest.approx(REFERENCE_DEFECTS[2], rel=1e-6)


def test_each_reference_triple_is_refuted_by_its_pairing_defect():
    operators = _reference_operators()
    results = [refute_common_product_iso([operators[k] for k in triple])
               for triple in itertools.combinations(range(4), 3)]
    assert all(r.word == (0, 1, 2) and r.trials == 1 and r.refuted for r in results)
    np.testing.assert_allclose([r.defect for r in results], REFERENCE_DEFECTS, rtol=1e-6)


def test_the_six_orders_of_a_triple_share_one_defect():
    # a cyclic shift of a word is conjugate to it and the reversed word is its
    # adjoint, so one word per triple stands for all six
    operators = _reference_operators()
    for triple in itertools.combinations(range(4), 3):
        defects = [refute_common_product_iso([operators[k] for k in order]).defect
                   for order in itertools.permutations(triple)]
        assert max(defects) - min(defects) <= 1e-14, triple


def _reflection(rng):
    """A Haar-random 2x2 reflection u diag(1, -1) u^dagger."""
    u = random_unitary(rng, 2)
    return u @ np.diag([1.0, -1.0]) @ u.conj().T


def test_planted_common_identifications_stay_below_the_floor():
    # the factors shared as in the paper: AB = a (x) b, AB' = a (x) b', ...
    rng = np.random.default_rng(83)
    defects = []
    for _ in range(200):
        a, a_prime, b, b_prime = (_reflection(rng) for _ in range(4))
        u = random_isomorphism(rng).matrix
        planted = [u @ np.kron(x, y) @ u.conj().T for x in (a, a_prime) for y in (b, b_prime)]
        defects.append(refute_common_product_iso(planted).defect)
    assert max(defects) <= 1e-13 < entanglement.WORD_DEFECT_FLOOR


def test_random_quartets_are_refuted_far_above_the_floor():
    # +/-1 measurements with twofold spectra, each under its own Haar unitary
    rng = np.random.default_rng(89)
    us = entanglement._haar_unitaries(_ginibre(rng, 2000, 4))
    quartets = us @ np.diag([1.0, 1.0, -1.0, -1.0]) @ us.conj().swapaxes(-1, -2)
    assert min(refute_common_product_iso(q).defect for q in quartets) >= 0.049


def test_the_row_fails_on_a_planted_common_identification():
    u0, planted = _planted_conjugation()
    models = {}
    for key, (a, b), operator in zip(KEYS, PLANTED_FACTORS, planted):
        qa, qb = EIGENBASES[a], EIGENBASES[b]
        models[key] = synthesize([u0 @ np.kron(qa[:, i], qb[:, j]) for i in (0, 1) for j in (0, 1)], experiment=key)
        np.testing.assert_allclose(models[key].operator, operator, atol=1e-12)
    row = verify._check_no_common_product_basis((None, models, None))
    assert not row.passed
    result = refute_common_product_iso([models[key].operator for key in KEYS])
    assert not result.refuted and result.defect <= 1e-13
    assert "; worst of 4 words " in row.measured and row.measured.endswith(f"pairing defect {result.defect:.3g}")


def _ginibre(rng, *shape):
    return rng.standard_normal((*shape, 4, 4)) + 1j * rng.standard_normal((*shape, 4, 4))


def test_product_verdict_matches_the_svd_rank_on_near_product_operators():
    rng = np.random.default_rng(71)
    n = 2000
    a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    b = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    products = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, 4, 4)
    eps = 10.0 ** rng.uniform(-16.0, -1.0, n)
    us = entanglement._haar_unitaries(_ginibre(rng, n))
    # pulled back through each unitary, so that its transport is near product
    near = us.conj().swapaxes(-1, -2) @ (products + eps[:, None, None] * _ginibre(rng, n)) @ us
    near[0] = 0.0
    verdicts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1.0, 1e-300, 1e299):
            operators = scale * near
            sigma = np.linalg.svd(reshuffle(us @ operators @ us.conj().swapaxes(-1, -2)),
                                  compute_uv=False)
            expected = numerical_rank(sigma) == 1
            got = entanglement._transported_is_product(us, operators)
            np.testing.assert_array_equal(got, expected)
            assert not got[0]  # the zero operator has rank 0
            verdicts.append(got)
    assert 0 < np.sum(verdicts) < np.size(verdicts)  # both verdicts occur


def test_product_verdict_pairs_a_stack_of_unitaries_with_a_stack_of_operators():
    # unitaries (N, 1, 4, 4) against operators (K, 4, 4): each pair's verdict
    # is the SVD rank of the public route
    rng = np.random.default_rng(79)
    us = entanglement._haar_unitaries(_ginibre(rng, 6))
    m = _ginibre(rng, 5)
    operators = m + m.conj().swapaxes(-1, -2)
    for k in (0, 2, 4):  # product through unitary k
        a, b = (h + h.conj().T for h in (random_unitary(rng, 2), random_unitary(rng, 2)))
        operators[k] = us[k].conj().T @ np.kron(a, b) @ us[k]
    u0, planted = _planted_conjugation()
    # the planted quartet is product through U_0^dagger, the last of its stack
    haar = entanglement._haar_unitaries(_ginibre(rng, 4))
    cases = [(us, operators), (haar, np.array(_reference_operators())),
             (np.concatenate([haar, u0.conj().T[None]]), np.array(planted))]
    found = []
    for stack, ops in cases:
        got = entanglement._transported_is_product(stack[:, None], ops)
        expected = [[operator_schmidt(op, Isomorphism(u)).rank() == 1 for op in ops] for u in stack]
        np.testing.assert_array_equal(got, expected)
        found.append(got)
    assert found[0].sum() == 3 and not found[1].any()
    assert found[2][-1].all() and found[2].sum() == len(planted)


def _svd_rows(monkeypatch):
    """Record the number of matrices each np.linalg.svd call receives."""
    rows = []
    svd = np.linalg.svd

    def counting(m, *args, **kwargs):
        rows.append(np.reshape(m, (-1, *np.shape(m)[-2:])).shape[0])
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return rows


def test_shared_basis_evolutions_are_proved_product_without_an_svd(monkeypatch):
    isos, families, _ = verify._quartet_stack(np.random.default_rng(102), 500)
    rows = _svd_rows(monkeypatch)
    products = verify._evolution_products(isos, families)
    monkeypatch.undo()
    assert products.shape == (500, 2) and products.all()
    assert sum(rows) == 0


def test_minor_sum_is_the_sum_of_products_of_squared_singular_value_pairs():
    rng = np.random.default_rng(73)
    m = _ginibre(rng, 1000) * 10.0 ** rng.uniform(-3.0, 3.0, (1000, 1, 1))
    s2 = np.linalg.svd(m, compute_uv=False) ** 2
    e2 = sum(s2[:, a] * s2[:, b] for a in range(4) for b in range(a + 1, 4))
    minors = entanglement._minors(m.reshape(1000, 16))
    got = np.sum(minors.real**2 + minors.imag**2, axis=-1)
    assert np.max(np.abs(got / e2 - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# every measurement is product relative to its own eigenbasis identification


def test_each_reference_measurement_is_product_under_its_own_iso():
    _, models, _ = reference_fixture()
    for key, model in models.items():
        iso = canonical_iso_of(model)
        dec = operator_schmidt(model.operator, iso)
        assert dec.rank() == 1, key
        np.testing.assert_allclose(dec.sigma, [2.0, 0.0, 0.0, 0.0], atol=1e-9)
        # transported operator is the diagonal eigenvalue matrix
        np.testing.assert_allclose(
            iso.transport(model.operator), np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-9
        )
