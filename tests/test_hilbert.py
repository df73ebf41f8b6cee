from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import hilbert
from bellkit.hilbert import from_polar_deg, gram, orthonormalize, polar_deg, svd, tensor, tensor_op
from bellkit.modelfit import StateVector, synthesize

from oracles import random_state, random_unitary, singular_values_by_charpoly, svd2_closed_form


def test_tensor_plus_minus_example():
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    v = np.array([1.0, -1.0]) / math.sqrt(2)
    np.testing.assert_allclose(tensor(u, v), np.array([1, -1, 1, -1]) / 2.0, atol=1e-15)


def test_svd_against_charpoly_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        _, sigma, _ = svd(m)
        np.testing.assert_allclose(sigma, singular_values_by_charpoly(m), atol=1e-7)


def test_svd_2x2_against_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(svd(m)[1], svd2_closed_form(m), atol=1e-10)


def test_svd_reconstruction_and_unitarity_bulk():
    # 1000 seeded random matrices: exact reconstruction and unitary factors.
    rng = np.random.default_rng(2024)
    eye = np.eye(4)
    for _ in range(1000):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, sigma, vh = svd(m)
        assert np.max(np.abs((u * sigma) @ vh - m)) <= 1e-9
        assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-9
        assert np.max(np.abs(vh @ vh.conj().T - eye)) <= 1e-9
        assert np.all(sigma >= 0)
        assert np.all(np.diff(sigma) <= 1e-12)


def test_svd_zero_matrix():
    u, sigma, _ = svd(np.zeros((4, 4)))
    np.testing.assert_allclose(sigma, 0.0)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_numerical_rank_of_zero_and_of_a_stack():
    assert hilbert.numerical_rank(np.zeros(4)) == 0
    assert hilbert.numerical_rank(svd(np.zeros((4, 4)))[1]) == 0
    stack = np.array([[3.0, 1.0, 0.0, 0.0], [2.0, 1e-9, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(hilbert.numerical_rank(stack), [2, 1, 0])
    # a zero tolerance counts every positive singular value, however small
    assert hilbert.numerical_rank(np.array([2.0, 1e-300, 0.0]), 0.0) == 2


@pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -np.inf, -1.0, 1.0, 1e308])
def test_numerical_rank_refuses_a_tolerance_outside_0_1(rank_tol):
    with pytest.raises(ValueError, match=r"rank tolerance must lie in \[0, 1\)"):
        hilbert.numerical_rank(np.array([1.0, 0.5]), rank_tol)


def test_unitary_deviation_and_check_of_a_stack():
    stack = np.stack([np.eye(4), 2.0 * np.eye(4), np.eye(4)[[1, 0, 2, 3]]])
    np.testing.assert_allclose(hilbert.unitary_deviation(stack), [0.0, 3.0, 0.0])
    hilbert.check_unitary(stack[[0, 2]], "family")
    with pytest.raises(ValueError, match=r"family is not unitary \(deviation 3\.000e\+00\)"):
        hilbert.check_unitary(stack, "family")


def test_is_hermitian_near_the_float_maximum():
    huge = sys.float_info.max
    assert hilbert.peak_part(np.full((4, 4), huge + 1j * huge)) == huge
    assert not hilbert.is_hermitian(np.full((4, 4), huge + 1j * huge))
    assert hilbert.is_hermitian(huge * np.eye(4) + 1j * huge * (np.eye(4, k=1) - np.eye(4, k=-1)))


def test_svd_rank_one_matrix():
    rng = np.random.default_rng(11)
    u, v = random_state(rng, 4), random_state(rng, 4)
    m = np.outer(u, v.conj())
    u, sigma, vh = svd(m)
    assert hilbert.numerical_rank(sigma) == 1
    assert sigma[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs((u * sigma) @ vh - m)) <= 1e-12


def test_svd_rectangular_shapes():
    rng = np.random.default_rng(5)
    for shape in [(4, 2), (2, 4)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, sigma, vh = svd(m)
        assert np.max(np.abs((u * sigma) @ vh - m)) <= 1e-10
        np.testing.assert_allclose(sigma, singular_values_by_charpoly(m)[: sigma.size], atol=1e-8)


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


def _complex_arrays(shape):
    size = math.prod(shape)
    entries = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)
    return st.lists(entries, min_size=size, max_size=size).map(lambda xs: np.array(xs).reshape(shape))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2,), (2, 2)]).flatmap(lambda shape: st.tuples(_complex_arrays(shape), _complex_arrays(shape))))
def test_tensor_equals_np_kron(pair):
    # each entry is the one product u_i v_k that np.kron takes, so the bits agree
    u, v = pair
    assert np.array_equal(tensor(u, v), np.kron(u, v))


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


def test_gram_of_orthonormal_family_is_identity():
    rng = np.random.default_rng(55)
    q = random_unitary(rng, 4)
    g = gram([q[:, k] for k in range(4)])
    np.testing.assert_allclose(g, np.eye(4), atol=1e-12)


def test_gram_of_reference_eigenbasis_near_identity():
    # Printed 2-decimal vectors deviate from orthonormality by < 0.05.
    from bellkit.modelfit import reference_fixture

    _, models, _ = reference_fixture()
    dev = np.max(np.abs(gram(models["AB"].eigenvectors_raw) - np.eye(4)))
    assert dev <= 0.05
    assert dev > 0.0  # rounded inputs are not exactly orthonormal


class TestCVec:
    """Complex vectors are plain arrays: their polar form (from_polar_deg,
    polar_deg) and the dimension and norm checks of StateVector and
    synthesize."""

    def test_polar_round_trip(self):
        v = from_polar_deg([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15])
        amplitudes, phases = polar_deg(v)
        np.testing.assert_allclose(amplitudes, [0.23, 0.62, 0.75, 0.0], atol=1e-15)
        np.testing.assert_allclose(phases[:3], [13.93, 16.72, 9.69], atol=1e-12)
        assert phases[3] == 0.0  # zero amplitude carries no phase

    def test_phase_just_below_zero_reports_zero_not_360(self):
        _, phases = polar_deg(np.array([1.0, 0, 0, 0]) * np.exp(-1e-17j))
        np.testing.assert_array_equal(phases, [0.0, 0.0, 0.0, 0.0])
        assert 359.9 < polar_deg(np.array([np.exp(-1e-9j), 0.0]))[1][0] < 360.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=359.99), min_size=4, max_size=4),
    )
    def test_polar_round_trip_property(self, amps, phases):
        back_amps, back_phases = polar_deg(from_polar_deg(amps, phases))
        np.testing.assert_allclose(back_amps, amps, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(back_phases, phases, rtol=1e-9, atol=1e-9)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            from_polar_deg([-0.1, 0, 0, 0], [0, 0, 0, 0])

    def test_amplitude_above_1e150_rejected(self):
        assert abs(from_polar_deg([1e150, 0, 0, 0], [90, 0, 0, 0])[0]) == pytest.approx(1e150)
        with pytest.raises(ValueError, match="at most 1e150, got 2e\\+150"):
            from_polar_deg([2e150, 0, 0, 0], [0, 0, 0, 0])

    @pytest.mark.parametrize("amplitudes, phases", [
        ([np.nan, 0, 0, 0], [0, 0, 0, 0]),
        ([1.0, 0, 0, 0], [np.inf, 0, 0, 0]),
        ([1.0, 0, 0, 0], [0, -np.inf, 0, 0]),
        ([1.0, 0, 0, 0], [0, 0, np.nan, 0]),
    ])
    def test_non_finite_input_rejected(self, amplitudes, phases):
        # pytest's configuration turns the RuntimeWarning of np.exp(inf) into an error
        with pytest.raises(ValueError, match="amplitudes and phases must be finite"):
            from_polar_deg(amplitudes, phases)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            from_polar_deg([1.0, 0, 0, 0], [0, 0, 0])

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="dimension 4"):
            StateVector(np.ones(3) / math.sqrt(3))
        with pytest.raises(ValueError, match="dimension 4"):
            StateVector(np.eye(2) / math.sqrt(2))  # four components, not a 4-vector
        with pytest.raises(ValueError, match="four eigenvectors of dimension 4"):
            synthesize(list(np.eye(3)) + [np.zeros(3)])
        with pytest.raises(ValueError, match="four eigenvectors of dimension 4"):
            synthesize(list(np.eye(4))[:3])

    def test_unit_flag(self):
        assert np.array_equal(StateVector(np.array([1.0, 0.0, 0.0, 0.0])).values, [1, 0, 0, 0])
        rounded = from_polar_deg([0.23, 0.62, 0.75, 0.0], [13.93, 16.72, 9.69, 194.15])
        for provenance in ("user", "fitted"):
            with pytest.raises(ValueError, match="outside 1 \\+/- 1e-09"):
                StateVector(rounded, provenance=provenance)
        state = StateVector(rounded, provenance="reference")  # rounded source tolerance
        assert np.linalg.norm(state.values) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_zero_vector_rejected(self):
        for provenance in ("reference", "fitted", "user"):
            with pytest.raises(ValueError, match="state norm 0.000000 outside"):
                StateVector(np.zeros(4), provenance=provenance)


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

    def test_empty_family_is_empty(self):
        assert orthonormalize([]) == []

    def test_dependent_family_rejected(self):
        e = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="beyond repair"):
            orthonormalize([e[:, 0], e[:, 0], e[:, 2], e[:, 3]])


def test_repair_order_constant():
    assert hilbert.REPAIR_ORDER == (0, 1, 3, 2)
