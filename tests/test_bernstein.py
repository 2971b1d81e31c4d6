from math import comb

import numpy as np
import pytest

from swarmplan.bernstein import build_basis, sample_trajectory

from oracles import finite_difference_derivative, refit_coefficients


def test_degree_one_basis_hits_endpoints():
    basis = build_basis(2, 1, 0.1)
    np.testing.assert_allclose(basis.W, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("K,n,dt", [(2, 1, 0.1), (10, 3, 0.05), (30, 10, 0.1), (50, 12, 0.2)])
def test_partition_of_unity_and_range(K, n, dt):
    basis = build_basis(K, n, dt)
    np.testing.assert_allclose(basis.W.sum(axis=1), 1.0, atol=1e-12)
    assert basis.W.min() >= -1e-15
    assert basis.W.max() <= 1.0 + 1e-15


@pytest.mark.parametrize("K,n,dt", [(10, 3, 0.05), (30, 10, 0.1), (50, 12, 0.2)])
def test_derivative_rows_sum_to_zero(K, n, dt):
    basis = build_basis(K, n, dt)
    np.testing.assert_allclose(basis.W1.sum(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(basis.W2.sum(axis=1), 0.0, atol=1e-10)


def test_basis_weights_are_exact_binomials_past_degree_ten():
    """At tau = 0.5 every weight of degree n is C(n, m) / 2**n exactly; a
    float product of binomial factors misses from C(11, 5) on."""
    for n in range(11, 21):
        W = build_basis(21, n, 0.1).W
        assert W[10].tolist() == [comb(n, m) / 2**n for m in range(n + 1)], n


def test_first_derivative_matches_finite_difference():
    K, n, dt = 30, 10, 0.1
    basis = build_basis(K, n, dt)
    T = (K - 1) * dt
    tau = np.arange(K) / (K - 1)
    scale = np.abs(basis.W1).max()
    for m in range(n + 1):
        fd = np.array([finite_difference_derivative(n, m, t, T) for t in tau])
        np.testing.assert_allclose(basis.W1[:, m], fd, atol=1e-6 * scale)


def test_velocity_matches_dense_resampling():
    K, n, dt = 30, 10, 0.1
    refine = 50
    basis = build_basis(K, n, dt)
    dense = build_basis((K - 1) * refine + 1, n, dt / refine)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=3 * (n + 1))
    _, vel, _ = sample_trajectory(basis, coeffs)
    pos_dense, *_ = sample_trajectory(dense, coeffs)
    fd = (pos_dense[2:] - pos_dense[:-2]) / (2 * dt / refine)
    fd_at_coarse = fd[refine - 1 :: refine][: K - 1]
    np.testing.assert_allclose(vel[1:-1], fd_at_coarse[: K - 2], atol=1e-4)


def test_constant_coefficients_reproduce_constant():
    basis = build_basis(30, 10, 0.1)
    coeffs = np.concatenate([np.full(11, 1.7), np.full(11, -0.4), np.full(11, 2.2)])
    pos, vel, acc = sample_trajectory(basis, coeffs)
    np.testing.assert_allclose(pos, np.tile([1.7, -0.4, 2.2], (30, 1)), atol=1e-12)
    np.testing.assert_allclose(vel, 0.0, atol=1e-9)
    np.testing.assert_allclose(acc, 0.0, atol=1e-8)


def test_zero_coefficients_give_zero_trajectory():
    basis = build_basis(20, 6, 0.1)
    pos, vel, acc = sample_trajectory(basis, np.zeros(21))
    assert not pos.any() and not vel.any() and not acc.any()


def test_build_basis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_basis(1, 5, 0.1)
    with pytest.raises(ValueError):
        build_basis(10, 0, 0.1)
    with pytest.raises(ValueError):
        build_basis(10, 5, 0.0)


def test_sample_trajectory_rejects_dimension_mismatch():
    basis = build_basis(10, 5, 0.1)
    with pytest.raises(ValueError):
        sample_trajectory(basis, np.zeros(3 * 7))


def test_refit_recovers_coefficients():
    basis = build_basis(30, 10, 0.1)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=33)
    pos, *_ = sample_trajectory(basis, coeffs)
    np.testing.assert_allclose(refit_coefficients(basis, pos), coeffs, atol=1e-8)


@pytest.mark.parametrize("K,n", [(30, 10), (5, 3), (20, 6)])
def test_stacked_sampling_keeps_the_bits_of_separate_products(K, n):
    """One ``W_all`` product gives exactly the rows of ``W @ c``, ``W1 @ c`` and ``W2 @ c``."""
    basis = build_basis(K, n, 0.1)
    rng = np.random.default_rng(K * n)
    for scale in (1e-3, 1.0, 1e3):
        coeffs = rng.normal(0.0, scale, 3 * (n + 1))
        cmat = coeffs.reshape(3, n + 1).T
        pos, vel, acc = sample_trajectory(basis, coeffs)
        assert np.array_equal(pos, basis.W @ cmat)
        assert np.array_equal(vel, basis.W1 @ cmat)
        assert np.array_equal(acc, basis.W2 @ cmat)
