"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's own closed forms: the
angle oracle is a grid search with local refinement, the magnitude oracle a
ternary search, the equality-QP oracle a dense bordered-KKT factorization,
and the basis-derivative oracle a finite difference of directly evaluated
basis functions.  Two references are exceptions, written to be matched bit
for bit rather than to tolerance: the problem-matrix reference repeats, from
scratch per problem, the arithmetic the library now shares across problems,
:func:`build_b` is the target vector as first written, and
:func:`reference_advance` is the AM iteration as written before its numpy
calls were cut.
"""

import math

import numpy as np
import scipy.linalg
from scipy.linalg import null_space, pinv
from scipy.special import comb

from swarmplan.polar import omega
from swarmplan.solver import rho_at, sample_rows, step_s1, step_s2, step_s4, step_s5

# Trig tables for the coarse grid are instance-independent.
_ALPHA_GRID = np.linspace(-np.pi, np.pi, 2000)
_BETA_GRID = np.linspace(0.0, np.pi, 1000)
_COS_A, _SIN_A = np.cos(_ALPHA_GRID), np.sin(_ALPHA_GRID)
_SIN_B, _COS_B = np.sin(_BETA_GRID), np.cos(_BETA_GRID)


def projection_objective(diff, d, shape, alpha, beta):
    """Scaled per-row residual the angle update minimizes."""
    u = np.asarray(diff, float) / shape.as_array
    wx = np.cos(alpha) * np.sin(beta)
    wy = np.sin(alpha) * np.sin(beta)
    wz = np.cos(beta)
    return (u[0] - d * wx) ** 2 + (u[1] - d * wy) ** 2 + (u[2] - d * wz) ** 2


def _grid_min(u, d, cos_a, sin_a, sin_b, cos_b, alphas, betas):
    """Exact minimum of the projection objective over the full alpha x beta grid.

    The objective is norm2 - 2 d [c1(alpha) sin(beta) + uz cos(beta)] + d^2
    with sin(beta) >= 0 on [0, pi], so for every beta the best alpha is the
    one maximizing c1; the 2-D grid minimum therefore factors into two 1-D
    scans (identical result to evaluating all grid points, verified by
    test_grid_search_separable_scan_matches_dense_grid).
    """
    c1 = u[0] * cos_a + u[1] * sin_a
    i = int(np.argmax(c1))
    inner = c1[i] * sin_b + u[2] * cos_b
    j = int(np.argmax(inner))
    norm2 = float(u @ u)
    return alphas[i], betas[j], norm2 - 2.0 * d * float(inner[j]) + d * d


def grid_search_angles(diff, d, shape):
    """Globally minimize the projection objective on a 2000x1000 grid, then refine."""
    u = np.asarray(diff, float) / shape.as_array
    a0, b0, _ = _grid_min(u, d, _COS_A, _SIN_A, _SIN_B, _COS_B, _ALPHA_GRID, _BETA_GRID)
    da = _ALPHA_GRID[1] - _ALPHA_GRID[0]
    db = _BETA_GRID[1] - _BETA_GRID[0]
    alphas = np.linspace(a0 - 2 * da, a0 + 2 * da, 400)
    betas = np.clip(np.linspace(b0 - 2 * db, b0 + 2 * db, 400), 0.0, np.pi)
    return _grid_min(u, d, np.cos(alphas), np.sin(alphas), np.sin(betas), np.cos(betas), alphas, betas)


def dense_grid_min(diff, d, shape, alphas, betas):
    """Brute-force evaluation of every grid point (parity check for _grid_min)."""
    u = np.asarray(diff, float) / shape.as_array
    c1 = u[0] * np.cos(alphas) + u[1] * np.sin(alphas)
    inner = np.outer(c1, np.sin(betas)) + u[2] * np.cos(betas)
    objective = float(u @ u) - 2.0 * d * inner + d * d
    return float(objective.min())


def magnitude_objective(diff, alpha, beta, shape, d):
    """Unscaled per-row quadratic the magnitude update minimizes."""
    axes = shape.as_array
    wx = np.cos(alpha) * np.sin(beta)
    wy = np.sin(alpha) * np.sin(beta)
    wz = np.cos(beta)
    r = np.asarray(diff, float) - d * axes * np.array([wx, wy, wz])
    return float(r @ r)


def ternary_search_magnitude(diff, alpha, beta, shape, lo, hi, span=50.0, iters=120):
    """Minimize the magnitude quadratic over [lo, hi] by ternary search.

    Plain ternary search bottoms out near sqrt(machine eps); since the
    objective is an exact quadratic, a final three-point parabolic fit
    (objective samples only) recovers the interior vertex to full precision,
    and the result is clipped back into the interval for boundary optima.
    """
    a = lo
    b = hi if np.isfinite(hi) else lo + span
    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if magnitude_objective(diff, alpha, beta, shape, m1) <= magnitude_objective(diff, alpha, beta, shape, m2):
            b = m2
        else:
            a = m1
    c, h = 0.5 * (a + b), 1e-3
    f_minus = magnitude_objective(diff, alpha, beta, shape, c - h)
    f_mid = magnitude_objective(diff, alpha, beta, shape, c)
    f_plus = magnitude_objective(diff, alpha, beta, shape, c + h)
    curvature = f_minus - 2.0 * f_mid + f_plus
    if curvature > 0:
        c = c + 0.5 * h * (f_minus - f_plus) / curvature
    return float(np.clip(c, lo, hi))


def dense_kkt_qp(Q, q, C, e):
    """Solve min 0.5 z'Qz + q'z s.t. C z = e via one dense bordered factorization."""
    n, m = Q.shape[0], C.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = Q
    kkt[:n, n:] = C.T
    kkt[n:, :n] = C
    rhs = np.concatenate([-q, e])
    sol = scipy.linalg.solve(kkt, rhs)
    return sol[:n]


def bernstein_value(n, m, tau):
    """Direct evaluation of one basis function (binomial via scipy)."""
    return comb(n, m, exact=True) * tau**m * (1.0 - tau) ** (n - m)


def finite_difference_derivative(n, m, tau, T, h=1e-6):
    """Central difference of the basis function in real time (duration T).

    The basis functions are polynomials, so evaluating slightly outside
    [0, 1] at the endpoints is exact.
    """
    dtau = h / T
    return (bernstein_value(n, m, tau + dtau) - bernstein_value(n, m, tau - dtau)) / (2.0 * h)


def refit_coefficients(basis, positions):
    """Least-squares fit of stacked coefficients to ``K x 3`` position samples.

    Inverse of the position part of ``sample_trajectory``; exact whenever the
    samples come from a degree <= ``n`` polynomial.  Tests use it to build
    the coefficients of a chosen path.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (basis.K, 3):
        raise ValueError(f"expected positions of shape ({basis.K}, 3), got {positions.shape}")
    cmat, *_ = np.linalg.lstsq(basis.W, positions, rcond=None)
    return cmat.T.ravel()


def brute_force_collisions(positions, obstacles, coll_axes):
    """Direct double-loop declared-collision evaluation."""
    positions = np.atleast_2d(positions)
    out = []
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if np.sum(((positions[i] - positions[j]) / coll_axes) ** 2) < 1.0:
                out.append((f"agent{i}", f"agent{j}"))
    for k, (center, axes) in enumerate(obstacles):
        for i in range(len(positions)):
            if np.sum(((positions[i] - center) / axes) ** 2) < 1.0:
                out.append((f"agent{i}", f"obstacle{k}"))
    return out


def reference_problem_matrices(basis, M, e, kappa, w_goal, w_smooth):
    """Every matrix of a problem with ``M`` targets, assembled from scratch for one problem.

    Mirrors the per-problem assembly the library did before it shared the
    matrices across problems: ``kron`` per axis, ``A`` kept contiguous for
    the Gram matrix, ``null_space(C)`` and ``pinv(C) @ e``.
    """
    W, W1, W2, K = basis.W, basis.W1, basis.W2, basis.K
    eye3 = np.eye(3)
    Wk = W[K - kappa :, :]
    Q_axis = 2.0 * (w_goal * Wk.T @ Wk + w_smooth * W2.T @ W2)
    Q_axis = 0.5 * (Q_axis + Q_axis.T)
    A = np.kron(eye3, np.vstack([W1, W2, np.tile(W, (M, 1))]))
    B3 = np.kron(eye3, W)
    G = np.vstack([B3, -B3])
    C = np.kron(eye3, np.vstack([W[0], W1[0], W2[0]]))
    AT = np.ascontiguousarray(A.T)
    GT = np.ascontiguousarray(G.T)
    null_basis = null_space(C)
    return {
        "Q": np.kron(eye3, Q_axis),
        "A": A,
        "AT": AT,
        "G": G,
        "GT": GT,
        "C": C,
        "gram": AT @ A + GT @ G,
        "null_basis": null_basis,
        "null_basis_T": np.ascontiguousarray(null_basis.T),
        "zeta_particular": pinv(C) @ e,
    }


def build_b(problem, d, omega_rows):
    """Stacked target vector matching the row layout of ``A = shared.AT.T``.

    ``d`` holds one magnitude and ``omega_rows`` one unit direction per
    constraint row.  Every constraint row contributes
    ``center + scale * d * omega`` per axis; velocity rows are centered at
    zero, acceleration rows carry the gravity offset on z, and collision rows
    are centered on the target positions with the ellipsoid semi-axes as
    scales.
    """
    if d.shape != (problem.n_rows,):
        raise ValueError(f"magnitudes must have {problem.n_rows} rows, got {d.shape}")
    rows = problem.centers + problem.scales * (d[:, None] * omega_rows)
    return rows.T.ravel()


def reference_clipped_magnitude(diff, omega_rows, scales, lo, hi):
    """The magnitude update as first written: quadratic vertex per row, then ``np.clip``."""
    scaled_dir = scales * omega_rows
    num = np.einsum("ij,ij->i", diff, scaled_dir)
    den = np.einsum("ij,ij->i", scaled_dir, scaled_dir)
    safe = den > 1e-12
    vertex = num / den if safe.all() else np.where(safe, num / np.where(safe, den, 1.0), lo)
    return np.clip(vertex, lo, hi)


def reference_s3(problem, state, diff, omega_rows):
    """S3 with the barrier bounds built at every gamma, 1 included, from the previous magnitudes.

    Collision row bounds are ``min(1, anchor)`` at step 0, where the
    measured state is pinned, and ``1 + (1 - gamma) * (d_prev - 1)`` from
    step 1 on, with ``d_prev`` the previous magnitude one step earlier.
    """
    lo = problem.lo_base
    if problem.M:
        gamma = problem.config.gamma
        d_prev = state.d[problem.col_rows].reshape(problem.M, problem.K)
        bound = np.empty_like(d_prev)
        bound[:, 0] = np.minimum(1.0, problem.anchors)
        bound[:, 1:] = 1.0 + (1.0 - gamma) * (d_prev[:, :-1] - 1.0)
        lo = lo.copy()
        lo[problem.col_rows] = bound.ravel()
    return reference_clipped_magnitude(diff, omega_rows, problem.scales, lo, problem.hi_bounds)


def reference_advance(problem, state):
    """One AM iteration in place, as written before its numpy calls were cut.

    It subtracts the row centers from the samples once for S2 and again for
    S3, builds the barrier at every gamma (:func:`reference_s3`), clips with
    ``np.clip``, and builds the target vector with :func:`build_b` before it
    subtracts it from the transposed samples.  S1, S2, S4, S5 and the
    sampling are the library's own.
    """
    state.zeta1 = step_s1(problem, state)
    samples, gz = sample_rows(problem, state.zeta1)
    omega_rows = omega(*step_s2(problem, samples - problem.centers))
    state.d = reference_s3(problem, state, samples - problem.centers, omega_rows)
    state.slack = step_s4(problem, gz)
    state.b = build_b(problem, state.d, omega_rows)
    r_eq = samples.T.ravel() - state.b
    viol = np.maximum(gz - problem.h, 0.0)
    state.lam = step_s5(problem, state, r_eq, viol)
    state.eq_residual = math.sqrt(r_eq.dot(r_eq))
    state.ineq_residual = math.sqrt(viol.dot(viol))
    state.iter += 1
    state.rho = rho_at(state.iter)
