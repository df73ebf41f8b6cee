from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import hilbert
from bellkit.hilbert import CMat, CVec, SVDResult, gram, inner, orthonormalize, svd, tensor, tensor_op

from oracles import random_state, random_unitary, singular_values_by_charpoly, svd2_closed_form


def test_tensor_plus_minus_example():
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    np.testing.assert_allclose(tensor(u, v), np.array([1, -1, 1, -1]) / 2.0, atol=1e-15)


def test_inner_orthogonal_example():
    u = np.array([1.0, 1.0j]) / math.sqrt(2)
    v = np.array([1.0, -1.0j]) / math.sqrt(2)
    assert abs(inner(u, v)) <= 1e-15


def test_inner_conjugate_linear_first_argument():
    rng = np.random.default_rng(7)
    u, v = random_state(rng, 4), random_state(rng, 4)
    assert inner(2j * u, v) == pytest.approx(-2j * inner(u, v))
    assert inner(u, 2j * v) == pytest.approx(2j * inner(u, v))


def test_svd_against_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = svd(m)
        np.testing.assert_allclose(res.sigma, singular_values_by_charpoly(m), atol=1e-7)


def test_svd_2x2_against_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(svd(m).sigma, svd2_closed_form(m), atol=1e-10)


def test_svd_reconstruction_and_unitarity_bulk():
    # 1000 seeded random matrices: exact reconstruction and unitary factors.
    rng = np.random.default_rng(2024)
    eye = np.eye(4)
    for _ in range(1000):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        res = svd(m)
        assert np.max(np.abs(res.reconstruct() - m)) <= 1e-9
        assert np.max(np.abs(res.u.conj().T @ res.u - eye)) <= 1e-9
        assert np.max(np.abs(res.vh @ res.vh.conj().T - eye)) <= 1e-9
        assert np.all(np.diff(res.sigma) <= 1e-12)


def test_svd_zero_matrix():
    res = svd(np.zeros((4, 4)))
    np.testing.assert_allclose(res.sigma, 0.0)
    np.testing.assert_allclose(res.u.conj().T @ res.u, np.eye(4), atol=1e-12)


def test_numerical_rank_of_zero_and_of_a_stack():
    assert hilbert.numerical_rank(np.zeros(4)) == 0
    assert svd(np.zeros((4, 4))).rank() == 0
    stack = np.array([[3.0, 1.0, 0.0, 0.0], [2.0, 1e-9, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(hilbert.numerical_rank(stack), [2, 1, 0])


def test_svd_rank_one_matrix():
    rng = np.random.default_rng(11)
    u, v = random_state(rng, 4), random_state(rng, 4)
    m = np.outer(u, v.conj())
    res = svd(m)
    assert res.rank() == 1
    assert res.sigma[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(res.reconstruct() - m)) <= 1e-12


def test_svd_rectangular_shapes():
    rng = np.random.default_rng(5)
    for shape in [(4, 2), (2, 4)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        res = svd(m)
        assert np.max(np.abs(res.reconstruct() - m)) <= 1e-10
        np.testing.assert_allclose(res.sigma, singular_values_by_charpoly(m)[: res.sigma.size], atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_svd_rejects_non_finite_entries(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        svd(m)


def test_svd_rejects_non_matrix_input():
    with pytest.raises(ValueError, match="matrix"):
        svd(np.ones(4))
    with pytest.raises(ValueError, match="matrix"):
        svd(np.ones((2, 2, 2)))


def test_tensor_norm_invariant():
    rng = np.random.default_rng(101)
    for _ in range(200):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(np.linalg.norm(tensor(u, v)) - np.linalg.norm(u) * np.linalg.norm(v)) <= 1e-12


def test_tensor_op_mixed_product_invariant():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = tensor_op(a, b) @ tensor(u, v)
        rhs = tensor(a @ u, b @ v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)
def test_cauchy_schwarz(u, v):
    u, v = np.array(u), np.array(v)
    assert abs(inner(u, v)) <= np.linalg.norm(u) * np.linalg.norm(v) + 1e-12


def test_gram_of_orthonormal_family_is_identity():
    rng = np.random.default_rng(55)
    q = random_unitary(rng, 4)
    g = gram([q[:, k] for k in range(4)])
    np.testing.assert_allclose(g, np.eye(4), atol=1e-12)


def test_gram_of_reference_eigenbasis_near_identity():
    # Printed 2-decimal vectors deviate from orthonormality by < 0.05.
    from bellkit.modelfit import reference_fixture

    _, models, _ = reference_fixture()
    raw = [v.values for v in models["AB"].eigenvectors_raw]
    dev = np.max(np.abs(gram(raw) - np.eye(4)))
    assert dev <= 0.05
    assert dev > 0.0  # rounded inputs are not exactly orthonormal


class TestCVec:
    def test_polar_round_trip(self):
        v = CVec.from_polar_deg([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15])
        np.testing.assert_allclose(v.amplitudes, [0.23, 0.62, 0.75, 0.0], atol=1e-15)
        np.testing.assert_allclose(v.phases_deg[:3], [13.93, 16.72, 9.69], atol=1e-12)
        assert v.phases_deg[3] == 0.0  # zero amplitude carries no phase

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=359.99), min_size=4, max_size=4),
    )
    def test_polar_round_trip_property(self, amps, phases):
        v = CVec.from_polar_deg(amps, phases)
        np.testing.assert_allclose(v.amplitudes, amps, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v.phases_deg, phases, rtol=1e-9, atol=1e-9)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CVec.from_polar_deg([-0.1, 0, 0, 0], [0, 0, 0, 0])

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension"):
            CVec(np.ones(3))

    def test_unit_flag(self):
        v = CVec(np.array([1.0, 0.0, 0.0, 0.0]))
        assert v.is_unit()
        w = CVec.from_polar_deg([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15])
        assert not w.is_unit(tol=1e-9)
        assert w.is_unit(tol=0.02)  # rounded source tolerance
        assert w.normalized().is_unit(tol=1e-12)

    def test_normalize_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            CVec(np.zeros(2)).normalized()


class TestCMat:
    def test_flags(self):
        h = np.array([[1.0, 1j], [-1j, 0.5]])
        assert CMat(h).is_hermitian()
        assert not CMat(h).is_unitary()
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        assert CMat(u).is_unitary()

    def test_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            CMat(np.ones((2, 4)))


class TestSVDResultValidation:
    def test_descending_enforced(self):
        with pytest.raises(ValueError, match="descending"):
            SVDResult(u=np.eye(2), sigma=np.array([1.0, 2.0]), vh=np.eye(2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SVDResult(u=np.eye(2), sigma=np.array([1.0, -0.5]), vh=np.eye(2))


class TestOrthonormalize:
    def test_repairs_small_perturbation(self):
        rng = np.random.default_rng(9)
        q = random_unitary(rng, 4)
        noisy = [q[:, k] + 0.005 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)) for k in range(4)]
        fixed = orthonormalize(noisy)
        np.testing.assert_allclose(gram(fixed), np.eye(4), atol=1e-12)
        for before, after in zip(noisy, fixed):
            assert np.max(np.abs(before - after)) < 0.05  # repair is a small nudge

    def test_positions_preserved(self):
        # Processing order (0,1,3,2) must not move vectors around.
        e = np.eye(4, dtype=complex)
        fixed = orthonormalize([e[:, 0], e[:, 1], e[:, 2], e[:, 3]])
        for k in range(4):
            np.testing.assert_allclose(fixed[k], e[:, k], atol=1e-15)

    def test_dependent_family_rejected(self):
        e = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="beyond repair"):
            orthonormalize([e[:, 0], e[:, 0], e[:, 2], e[:, 3]])

    def test_bad_order_rejected(self):
        e = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="permutation"):
            orthonormalize([e[:, k] for k in range(4)], order=(0, 1, 2, 2))


def test_repair_order_constant():
    assert hilbert.REPAIR_ORDER == (0, 1, 3, 2)
