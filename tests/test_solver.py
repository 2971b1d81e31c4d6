import dataclasses

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from swarmplan.bernstein import build_basis, refit_coefficients, sample_trajectory
from swarmplan.polar import EllipsoidShape, PolarVars, omega
from swarmplan.problem import AgentSnapshot, ConstraintTarget, PlanningConfig, assemble, build_b
from swarmplan.solver import (
    SolverConfig,
    SolverState,
    advance,
    rho_at,
    sample_rows,
    solve,
    step_s1,
    step_s2,
    step_s3,
    step_s4,
    step_s5,
)

from conftest import cylinder_target, make_problem, random_full_instance
from oracles import dense_kkt_qp, ternary_search_magnitude


def small_problem(seed=0, with_target=True):
    """n=3, K=5 instance for dense-oracle comparisons."""
    rng = np.random.default_rng(seed)
    config = PlanningConfig(K=5, n=3, kappa=2, p_min=(-3, -3, -1), p_max=(3, 3, 3))
    basis = build_basis(5, 3, 0.1)
    snapshot = AgentSnapshot(
        position=rng.uniform(-1, 1, 3), goal=rng.uniform(-1, 1, 3), velocity=rng.uniform(-0.5, 0.5, 3)
    )
    targets = []
    if with_target:
        centers = rng.uniform(-1, 1, (5, 3))
        targets.append(ConstraintTarget("obstacle", EllipsoidShape(0.3, 0.3, 0.5), centers))
    return assemble(snapshot, targets, basis, config), rng


def random_state(problem, rng, rho=None):
    """A random iterate whose target vector is built from its polar variables, as :func:`advance` builds it."""
    state = SolverState.cold(problem)
    state.zeta1 = rng.normal(size=problem.n_coeffs)
    state.polar = PolarVars(
        alpha=rng.uniform(-np.pi, np.pi, problem.n_rows),
        beta=rng.uniform(0, np.pi, problem.n_rows),
        d=rng.uniform(0, 2.5, problem.n_rows),
    )
    state.b = build_b(problem, state.polar, omega(state.polar.alpha, state.polar.beta))
    state.lam = rng.normal(size=problem.n_coeffs)
    state.slack = rng.uniform(0, 1, problem.h.size)
    state.rho = rho if rho is not None else float(rng.uniform(1, 1e4))
    return state


def s1_rhs(problem, state):
    """Right-hand side of the S1 normal equations for the state's target vector."""
    return -problem.q + state.lam + state.rho * (problem.AT @ state.b) + state.rho * (problem.GT @ (problem.h - state.slack))


def updated_angles(problem, state):
    """S2 on the state's trajectory: the angles and their directions, as :func:`advance` feeds S3."""
    samples, _ = sample_rows(problem, state.zeta1)
    alpha, beta = step_s2(problem, samples)
    return samples, alpha, beta, omega(alpha, beta)


# ---------------------------------------------------------------- S1


def test_s1_zero_problem_returns_zero():
    problem, _ = small_problem(with_target=False)
    problem.Q = np.eye(problem.n_coeffs)
    problem.q = np.zeros(problem.n_coeffs)
    problem.e = np.zeros(9)
    problem.zeta_particular = np.zeros(problem.n_coeffs)
    state = SolverState.cold(problem)
    state.rho = 0.0
    zeta = step_s1(problem, state)
    np.testing.assert_allclose(zeta, 0.0, atol=1e-12)


def test_s1_equality_feasibility_and_stationarity():
    for seed in range(10):
        problem, rng = small_problem(seed)
        state = random_state(problem, rng)
        zeta = step_s1(problem, state)
        np.testing.assert_allclose(problem.C @ zeta, problem.e, atol=1e-8)
        A_hat = problem.Q + state.rho * problem.gram
        rhs = s1_rhs(problem, state)
        # Stationary along every direction that keeps C z = e.
        stat = problem.null_basis.T @ (A_hat @ zeta - rhs)
        assert np.linalg.norm(stat) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_s1_matches_dense_kkt_oracle():
    for seed in range(20):
        problem, rng = small_problem(seed)
        state = random_state(problem, rng)
        zeta = step_s1(problem, state)
        A_hat = problem.Q + state.rho * problem.gram
        zeta_oracle = dense_kkt_qp(A_hat, -s1_rhs(problem, state), problem.C, problem.e)
        assert np.linalg.norm(zeta - zeta_oracle) <= 1e-6 * (1.0 + np.linalg.norm(zeta_oracle))


def test_s1_refactors_only_when_rho_changes():
    problem, rng = small_problem(0)
    state = random_state(problem, rng, rho=2.0)
    step_s1(problem, state)
    factor = state.factor
    step_s1(problem, state)
    assert state.factor is factor
    state.rho = 3.0
    step_s1(problem, state)
    assert state.factor is not factor and state.factor[0] == 3.0
    A_hat = problem.Q + state.rho * problem.gram
    zeta_oracle = dense_kkt_qp(A_hat, -s1_rhs(problem, state), problem.C, problem.e)
    assert np.linalg.norm(step_s1(problem, state) - zeta_oracle) <= 1e-6 * (1.0 + np.linalg.norm(zeta_oracle))


def test_s1_is_constrained_minimum_of_augmented_objective():
    problem, rng = small_problem(3)
    state = random_state(problem, rng)
    b = state.b

    def objective(z):
        return (
            0.5 * z @ problem.Q @ z
            + problem.q @ z
            - state.lam @ z
            + 0.5 * state.rho * np.sum((problem.A @ z - b) ** 2)
            + 0.5 * state.rho * np.sum((problem.G @ z - problem.h + state.slack) ** 2)
        )

    zeta = step_s1(problem, state)
    f0 = objective(zeta)
    for _ in range(1000):
        step = problem.null_basis @ rng.normal(0, 0.1, problem.null_basis.shape[1])
        assert objective(zeta + step) >= f0 - 1e-8 * (1 + abs(f0))


# ---------------------------------------------------------------- S2


def linear_motion_problem(basis30, config, velocity):
    t = np.arange(basis30.K)[:, None] * basis30.dt
    positions = np.array([0.0, 0.0, 1.0]) + t * np.asarray(velocity)
    zeta = refit_coefficients(basis30, positions)
    problem = make_problem(basis30, config, positions[0], positions[-1])
    state = SolverState.cold(problem)
    state.zeta1 = zeta
    return problem, state


def test_s2_velocity_family_aligns_with_motion(basis30, default_config):
    problem, state = linear_motion_problem(basis30, default_config, [0.8, 0.0, 0.0])
    _, alpha, beta, _ = updated_angles(problem, state)
    K = basis30.K
    np.testing.assert_allclose(alpha[:K], 0.0, atol=1e-7)
    np.testing.assert_allclose(beta[:K], np.pi / 2, atol=1e-7)


def test_s2_acceleration_family_at_rest_points_up(basis30, default_config):
    problem, state = linear_motion_problem(basis30, default_config, [0.0, 0.0, 0.0])
    _, _, beta, _ = updated_angles(problem, state)
    K = basis30.K
    np.testing.assert_allclose(beta[K : 2 * K], 0.0, atol=1e-6)


def test_s2_never_increases_scaled_projection_objective():
    rng = np.random.default_rng(8)
    for seed in range(5):
        problem, _ = small_problem(seed)
        state = random_state(problem, rng)

        def scaled_objective(alpha, beta):
            pos, vel, acc = sample_trajectory(problem.basis, state.zeta1)
            samples = problem.stack_samples(pos, vel, acc)
            u = (samples - problem.centers) / problem.scales
            sb = np.sin(beta)
            w = np.stack([np.cos(alpha) * sb, np.sin(alpha) * sb, np.cos(beta)], axis=1)
            return float(np.sum((u - state.polar.d[:, None] * w) ** 2))

        before = scaled_objective(state.polar.alpha, state.polar.beta)
        _, alpha_new, beta_new, _ = updated_angles(problem, state)
        after = scaled_objective(alpha_new, beta_new)
        assert after <= before + 1e-10 * (1 + before)


# ---------------------------------------------------------------- S3


def test_s3_far_obstacle_leaves_clip_inactive(basis30, default_config):
    target = cylinder_target(0.0, 5.0, 0.3)  # far off the path
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    state = SolverState.cold(problem)
    state.zeta1 = refit_coefficients(basis30, np.tile([0.0, 0.0, 1.0], (30, 1)))
    samples, *_, omega_rows = updated_angles(problem, state)
    d = step_s3(problem, state, samples, omega_rows, "standard")
    assert np.all(d[problem.col_rows] > 1.0)


def test_s3_bf_gamma_one_is_bitwise_standard():
    rng = np.random.default_rng(9)
    for seed in range(10):
        problem, _ = small_problem(seed)  # default config has gamma = 1.0
        state = random_state(problem, rng)
        samples, *_, omega_rows = updated_angles(problem, state)
        np.testing.assert_array_equal(
            step_s3(problem, state, samples, omega_rows, "bf"), step_s3(problem, state, samples, omega_rows, "standard")
        )


def test_s3_rows_minimize_clipped_quadratic():
    rng = np.random.default_rng(10)
    problem, _ = small_problem(1)
    state = random_state(problem, rng)
    samples, alpha, beta, omega_rows = updated_angles(problem, state)
    d = step_s3(problem, state, samples, omega_rows, "standard")
    for row in range(problem.n_rows):
        shape = EllipsoidShape(*problem.scales[row])
        d_ref = ternary_search_magnitude(
            samples[row] - problem.centers[row],
            alpha[row],
            beta[row],
            shape,
            problem.lo_base[row],
            problem.hi_bounds[row],
        )
        assert abs(d[row] - d_ref) <= 1e-8


def test_s3_bf_uses_anchor_and_previous_iterate():
    problem, rng = small_problem(2)
    problem = assemble(
        problem.snapshot,
        problem.targets,
        problem.basis,
        dataclasses.replace(problem.config, gamma=0.9),
    )
    state = random_state(problem, rng)
    samples, *_, omega_rows = updated_angles(problem, state)
    d_prev = state.polar.d[problem.col_rows].copy()
    d = step_s3(problem, state, samples, omega_rows, "bf")
    K = problem.K
    gamma = 0.9
    lo0 = 1 + (1 - gamma) * (problem.anchors[0] - 1)
    assert d[problem.col_rows][0] >= lo0 - 1e-12
    lo_rest = 1 + (1 - gamma) * (d_prev[:-1] - 1)
    assert np.all(d[problem.col_rows][1:] >= lo_rest - 1e-12)


def test_s3_mode_validation():
    problem, rng = small_problem(0)
    state = random_state(problem, rng)
    samples, *_, omega_rows = updated_angles(problem, state)
    with pytest.raises(ValueError):
        step_s3(problem, state, samples, omega_rows, "bff")


# ---------------------------------------------------------------- S4 / S5


def test_s4_inside_bounds_gives_positive_slack(basis30, default_config):
    problem = make_problem(basis30, default_config, [0, 0, 1], [0.5, 0, 1])
    zeta = refit_coefficients(basis30, np.tile([0.0, 0.0, 1.0], (30, 1)))
    _, gz = sample_rows(problem, zeta)
    slack = step_s4(problem, gz)
    assert np.all(slack > 0)
    np.testing.assert_allclose(slack, problem.h - problem.G @ zeta)


def test_s4_zeroes_slack_on_violated_rows(basis30, default_config):
    problem = make_problem(basis30, default_config, [0, 0, 1], [0.5, 0, 1])
    # constant trajectory outside the upper x bound
    zeta = refit_coefficients(basis30, np.tile([default_config.p_max[0] + 0.5, 0.0, 1.0], (30, 1)))
    _, gz = sample_rows(problem, zeta)
    slack = step_s4(problem, gz)
    assert np.all(slack[: basis30.K] == 0.0)
    assert np.all(slack >= 0.0)


def test_s4_minimizes_penalty_among_random_nonnegative_slacks():
    problem, rng = small_problem(4)
    state = random_state(problem, rng)
    _, gz = sample_rows(problem, state.zeta1)
    slack = step_s4(problem, gz)
    base = np.sum((gz - problem.h + slack) ** 2)
    for _ in range(10_000):
        candidate = np.maximum(slack + rng.uniform(-0.05, 0.05, slack.size), 0.0)
        assert np.sum((gz - problem.h + candidate) ** 2) >= base - 1e-12


def test_s5_no_update_without_residual_or_rho():
    problem, rng = small_problem(5)
    state = random_state(problem, rng)
    r_eq = np.zeros(3 * problem.n_rows)
    viol = np.zeros(problem.h.size)
    np.testing.assert_array_equal(step_s5(problem, state, r_eq, viol), state.lam)
    lam = state.lam.copy()
    state.rho = 0.0
    advance(problem, state, "standard")
    assert state.eq_residual > 0
    np.testing.assert_array_equal(state.lam, lam)


def test_s5_matches_direct_expression():
    """The multiplier update of one iteration against the dense residuals ``A z - b`` and ``G z - h + s``."""
    problem, rng = small_problem(6)
    state = random_state(problem, rng)
    lam, rho = state.lam.copy(), state.rho
    advance(problem, state, "standard")
    r_eq = problem.A @ state.zeta1 - state.b
    viol = problem.G @ state.zeta1 - problem.h + state.slack
    expected = lam - 0.5 * rho * (problem.A.T @ r_eq) - 0.5 * rho * (problem.G.T @ viol)
    np.testing.assert_allclose(state.lam, expected, rtol=1e-12, atol=1e-12)
    assert state.eq_residual == pytest.approx(np.linalg.norm(r_eq), rel=1e-12)
    assert state.ineq_residual == pytest.approx(np.linalg.norm(viol), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- solve


def test_solve_rest_at_goal_converges_immediately(basis30, default_config):
    goal = np.array([0.2, -0.4, 1.1])
    problem = make_problem(basis30, default_config, goal, goal)
    zeta, diag = solve(problem)
    assert diag.converged and diag.iterations <= 5
    pos, *_ = sample_trajectory(basis30, zeta)
    assert np.abs(pos - goal).max() < 1e-6


def test_solve_single_obstacle_keeps_clearance(basis30, default_config):
    target = cylinder_target(0.0, 0.05, 0.3)
    problem = make_problem(basis30, default_config, [-1.5, 0, 1], [1.5, 0, 1], [target])
    zeta, diag = solve(problem)
    assert diag.converged
    pos, *_ = sample_trajectory(basis30, zeta)
    metric = np.sum(((pos - target.predicted_centers) / target.shape.as_array) ** 2, axis=1)
    assert metric.min() >= 1.0 - 1e-3


def test_solve_gamma_sweep_increases_clearance(basis30):
    target = cylinder_target(0.0, 0.05, 0.3)

    def min_clearance(gamma):
        config = PlanningConfig(gamma=gamma)
        problem = make_problem(basis30, config, [-1.5, 0, 1], [1.5, 0, 1], [target])
        zeta, diag = solve(problem, mode="bf")
        assert diag.converged
        pos, *_ = sample_trajectory(basis30, zeta)
        return np.sum(((pos - target.predicted_centers) / target.shape.as_array) ** 2, axis=1).min()

    assert min_clearance(0.9) >= min_clearance(1.0)


def test_solve_bf_gamma_one_bitwise_matches_standard(basis30):
    rng = np.random.default_rng(12)
    config = PlanningConfig(gamma=1.0)
    for _ in range(5):
        problem, _ = random_full_instance(rng, basis30, config)
        z_std, d_std = solve(problem, mode="standard")
        problem2 = assemble(problem.snapshot, problem.targets, basis30, config)
        z_bf, d_bf = solve(problem2, mode="bf")
        np.testing.assert_array_equal(z_std, z_bf)
        assert d_std.iterations == d_bf.iterations


def test_solve_bf_cold_start_never_looser_than_plain_bound(basis30):
    """Criterion 3's feasibility check in bf mode: the first barrier bound reads
    the measured state, not the zero placeholder magnitudes of a cold start."""
    config = PlanningConfig(gamma=0.9)
    rng = np.random.default_rng(7)
    converged = 0
    for _ in range(100):
        problem, target = random_full_instance(rng, basis30, config)
        zeta, diag = solve(problem, mode="bf")
        if not diag.converged:
            continue
        converged += 1
        pos, *_ = sample_trajectory(basis30, zeta)
        metric = np.sum(((pos - target.predicted_centers) / target.shape.as_array) ** 2, axis=1)
        assert metric.min() >= 1.0 - 1e-3
    assert converged >= 95


@pytest.mark.parametrize("mode", ["standard", "bf"])
def test_solve_converges_from_start_inside_envelope(basis30, mode):
    """Step 0 is pinned to the measured state, so its collision row must admit an
    anchor below 1 or the residual has a floor above the threshold."""
    target = cylinder_target(0.0, 0.0, 0.3)
    problem = make_problem(basis30, PlanningConfig(gamma=0.9), [-0.27, 0, 1], [-1.5, 0, 1], [target])
    assert problem.anchors[0] < 1.0
    _, diag = solve(problem, mode=mode)
    assert diag.converged


def test_solve_converges_from_state_outside_speed_and_thrust_bands(basis30, default_config):
    snapshot = AgentSnapshot(
        position=np.array([-1.0, 0.0, 1.0]),
        goal=np.array([1.0, 0.0, 1.0]),
        velocity=np.array([2.0, 0.0, 0.0]),  # above v_max
        acceleration=np.array([0.0, 0.0, -9.0]),  # thrust 0.81 below f_min
    )
    problem = assemble(snapshot, [], basis30, default_config)
    _, diag = solve(problem)
    assert diag.converged


def test_solve_nonconvergence_reports_best_iterate(basis30, default_config):
    target = cylinder_target(0.0, 0.05, 0.3)
    problem = make_problem(basis30, default_config, [-1.5, 0, 1], [1.5, 0, 1], [target])
    zeta, diag = solve(problem, config=SolverConfig(maxiter=5))
    assert not diag.converged
    assert diag.iterations == 5
    assert np.all(np.isfinite(zeta))


def test_solve_mode_validation(basis30, default_config):
    problem = make_problem(basis30, default_config, [0, 0, 1], [1, 0, 1])
    with pytest.raises(ValueError):
        solve(problem, mode="barrier")


def test_slack_nonnegative_along_iterations():
    problem, rng = small_problem(7)
    state = SolverState.cold(problem)
    for _ in range(30):
        advance(problem, state, "standard")
        assert np.all(state.slack >= 0.0)


def test_s3_never_increases_penalty_along_solve(basis30, default_config):
    rng = np.random.default_rng(14)
    problem, _ = random_full_instance(rng, basis30, default_config)
    state = SolverState.cold(problem)
    for _ in range(40):
        d_prev = state.polar.d
        advance(problem, state, "standard")
        # The penalty at the new trajectory and angles, before and after S3 moved the magnitudes.
        samples, _ = sample_rows(problem, state.zeta1)
        omega_rows = omega(state.polar.alpha, state.polar.beta)
        b_before = build_b(problem, PolarVars(state.polar.alpha, state.polar.beta, d_prev), omega_rows)
        before = float(np.sum((samples.T.ravel() - b_before) ** 2))
        after = float(np.sum((samples.T.ravel() - state.b) ** 2))
        assert after <= before + 1e-9 * (1 + before)


def test_s1_singular_reduced_system_raises():
    """Validated configurations keep the reduced Hessian positive definite, so a
    singular one is an error, never silently shifted."""
    problem, _ = small_problem(0, with_target=False)
    problem.Q = np.zeros_like(problem.Q)  # removes all curvature at rho = 0
    problem.q = np.zeros_like(problem.q)
    state = SolverState.cold(problem)
    state.rho = 0.0
    with pytest.raises(LinAlgError):
        step_s1(problem, state)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(maxiter=0)
    with pytest.raises(ValueError):
        SolverConfig(threshold=0.0)
    assert rho_at(0) == 1.0
    assert rho_at(100) == 5e5
