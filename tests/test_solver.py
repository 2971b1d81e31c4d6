import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from swarmplan import sim, solver
from swarmplan.bernstein import build_basis, sample_trajectory
from swarmplan.polar import EllipsoidShape, clipped_magnitude, omega
from swarmplan.problem import AgentSnapshot, ConstraintTarget, PlanningConfig, assemble
from swarmplan.scenario import generate_random
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
from oracles import (
    build_b,
    dense_kkt_qp,
    reference_advance,
    reference_s3,
    refit_coefficients,
    ternary_search_magnitude,
)


def small_problem(seed=0, with_target=True):
    """n=3, K=5 instance for dense-oracle comparisons; the goal cost pulls all K = kappa = 5 samples."""
    rng = np.random.default_rng(seed)
    config = PlanningConfig(p_min=(-3, -3, -1), p_max=(3, 3, 3))
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
    """A random iterate whose target vector is built from random polar variables, as :func:`advance` builds it."""
    state = SolverState.cold(problem)
    state.zeta1 = rng.normal(size=problem.n_coeffs)
    alpha = rng.uniform(-np.pi, np.pi, problem.n_rows)
    beta = rng.uniform(0, np.pi, problem.n_rows)
    state.d = rng.uniform(0, 2.5, problem.n_rows)
    state.b = build_b(problem, state.d, omega(alpha, beta))
    state.lam = rng.normal(size=problem.n_coeffs)
    state.slack = rng.uniform(0, 1, problem.h.size)
    state.rho = rho if rho is not None else float(rng.uniform(1, 1e4))
    return state


def s1_rhs(problem, state):
    """Right-hand side of the S1 normal equations for the state's target vector."""
    shared = problem.shared
    return -problem.q + state.lam + state.rho * (shared.AT @ state.b) + state.rho * (shared.GT @ (problem.h - state.slack))


def updated_angles(problem, state):
    """S2 on the state's trajectory: the row differences, the angles and their directions, as :func:`advance` feeds S3."""
    samples, _ = sample_rows(problem, state.zeta1)
    diff = samples - problem.centers
    alpha, beta = step_s2(problem, diff)
    return diff, alpha, beta, omega(alpha, beta)


def plain_bound_clip(problem, diff, omega_rows):
    """S3 with the constant collision bound of the assembled problem (1, and ``min(1, anchor)`` at step 0)."""
    return clipped_magnitude(diff, omega_rows, problem.scales, problem.lo_base, problem.hi_bounds)


def assert_same_bits(actual, expected, err_msg=""):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, err_msg
    assert actual.tobytes() == expected.tobytes(), err_msg


def check_s3_against_plain_bound(monkeypatch):
    """Make every S3 the solver runs assert that it equals :func:`plain_bound_clip` bit for bit.

    S3 skips the barrier at gamma = 1, so each call is also held to the
    barrier written out (``oracles.reference_s3``): the barrier at gamma = 1
    must be the plain bound, not only be replaced by it.  Returns the list
    that records the number of collision targets of each checked call.
    """
    calls = []

    def checked(problem, state, diff, omega_rows):
        d = step_s3(problem, state, diff, omega_rows)
        assert_same_bits(d, plain_bound_clip(problem, diff, omega_rows))
        assert_same_bits(d, reference_s3(problem, state, diff, omega_rows))
        calls.append(problem.M)
        return d

    monkeypatch.setattr(solver, "step_s3", checked)
    return calls


# ---------------------------------------------------------------- S1


def replace_shared_cost(problem, Q):
    """Give the problem's private basis a shared structure with cost ``Q``, and the problem too.

    A factor's key ``(M, rho)`` does not name the cost it was built from,
    so the basis's factors for ``M`` are dropped and S1 factors the new ``Q``.
    """
    table = problem.basis.table
    for key in [key for key in table if isinstance(key, tuple) and key[0] == problem.M]:
        del table[key]
    table[problem.M] = problem.shared = dataclasses.replace(problem.shared, Q=Q)


def test_s1_zero_problem_returns_zero():
    problem, _ = small_problem(with_target=False)
    replace_shared_cost(problem, np.eye(problem.n_coeffs))
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
        np.testing.assert_allclose(problem.shared.C @ zeta, problem.e, atol=1e-8)
        A_hat = problem.shared.Q + state.rho * problem.shared.gram
        rhs = s1_rhs(problem, state)
        # Stationary along every direction that keeps C z = e.
        stat = problem.shared.null_basis.T @ (A_hat @ zeta - rhs)
        assert np.linalg.norm(stat) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_s1_matches_dense_kkt_oracle():
    for seed in range(20):
        problem, rng = small_problem(seed)
        state = random_state(problem, rng)
        zeta = step_s1(problem, state)
        A_hat = problem.shared.Q + state.rho * problem.shared.gram
        zeta_oracle = dense_kkt_qp(A_hat, -s1_rhs(problem, state), problem.shared.C, problem.e)
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
    A_hat = problem.shared.Q + state.rho * problem.shared.gram
    zeta_oracle = dense_kkt_qp(A_hat, -s1_rhs(problem, state), problem.shared.C, problem.e)
    assert np.linalg.norm(step_s1(problem, state) - zeta_oracle) <= 1e-6 * (1.0 + np.linalg.norm(zeta_oracle))


def test_s1_table_hit_matches_fresh_factor(monkeypatch):
    """A factor another problem on the basis stored gives the bits a fresh one does."""
    calls = []
    monkeypatch.setattr(solver, "cho_factor", lambda *a, **k: calls.append(1) or cho_factor(*a, **k))
    problem, rng = small_problem(4)
    other = assemble(AgentSnapshot(position=np.zeros(3), goal=np.ones(3)), problem.targets, problem.basis, problem.config)
    state = random_state(problem, rng, rho=rho_at(7))
    step_s1(other, random_state(other, rng, rho=state.rho))
    factors = [key for key in problem.basis.table if isinstance(key, tuple) and key[0] == problem.M]
    assert len(calls) == 1 and factors == [(problem.M, state.rho)]
    hit = step_s1(problem, state)
    assert len(calls) == 1 and state.factor[1] is problem.basis.table[problem.M, state.rho]
    assert not state.factor[1][0].flags.writeable

    fresh_problem, _ = small_problem(4)
    assert fresh_problem.basis is not problem.basis and (problem.M, state.rho) not in fresh_problem.basis.table
    fresh = step_s1(fresh_problem, dataclasses.replace(state, factor=None))
    assert len(calls) == 2
    np.testing.assert_array_equal(hit, fresh)


def test_run_mission_factors_once_per_conflict_count_and_penalty(monkeypatch):
    """Every agent and round of a mission shares one factor per (M, rho); the
    penalty schedule takes 52 values (1.3**k for k <= 50, then the cap)."""
    factored, conflict_counts = [], set()
    monkeypatch.setattr(solver, "cho_factor", lambda *a, **k: factored.append(1) or cho_factor(*a, **k))

    def counting_solve(problem, *args, **kwargs):
        conflict_counts.add(problem.M)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(sim, "solve", counting_solve)
    report = sim.run_mission(generate_random(1, 4, 4))
    penalties = {rho_at(k) for k in range(SolverConfig().maxiter)}
    assert len(penalties) == 52
    assert report.rounds > 0 and len(conflict_counts) > 1
    assert 0 < len(factored) <= len(penalties) * len(conflict_counts)


def test_s1_keeps_the_bits_of_cho_solve(basis30, default_config):
    """The direct LAPACK solve on the cached factor, with the right-hand side summed in
    place, gives exactly what ``cho_solve`` gives on ``-q + lam + rho A'b + rho G'(h - s)``."""
    rng = np.random.default_rng(11)
    for M in range(4):
        targets = [cylinder_target(*rng.uniform(-1.0, 1.0, 2), 0.3) for _ in range(M)]
        problem = make_problem(basis30, default_config, [-1.5, -1.5, 1.0], [1.5, 1.5, 1.0], targets)
        for k in (0, 7, 30, 51):
            state = random_state(problem, rng, rho=rho_at(k))
            zeta = step_s1(problem, state)
            _, cho, v = state.factor
            y = cho_solve(cho, problem.shared.null_basis_T @ s1_rhs(problem, state) - v, check_finite=False)
            assert np.array_equal(zeta, problem.zeta_particular + problem.shared.null_basis @ y)


def test_s1_is_constrained_minimum_of_augmented_objective():
    problem, rng = small_problem(3)
    state = random_state(problem, rng)
    b = state.b

    def objective(z):
        return (
            0.5 * z @ problem.shared.Q @ z
            + problem.q @ z
            - state.lam @ z
            + 0.5 * state.rho * np.sum((problem.shared.AT.T @ z - b) ** 2)
            + 0.5 * state.rho * np.sum((problem.shared.G @ z - problem.h + state.slack) ** 2)
        )

    zeta = step_s1(problem, state)
    f0 = objective(zeta)
    for _ in range(1000):
        step = problem.shared.null_basis @ rng.normal(0, 0.1, problem.shared.null_basis.shape[1])
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
            return float(np.sum((u - state.d[:, None] * w) ** 2))

        before = scaled_objective(rng.uniform(-np.pi, np.pi, problem.n_rows), rng.uniform(0, np.pi, problem.n_rows))
        _, alpha_new, beta_new, _ = updated_angles(problem, state)
        after = scaled_objective(alpha_new, beta_new)
        assert after <= before + 1e-10 * (1 + before)


# ---------------------------------------------------------------- S3


def test_s3_far_obstacle_leaves_clip_inactive(basis30, default_config):
    target = cylinder_target(0.0, 5.0, 0.3)  # far off the path
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    state = SolverState.cold(problem)
    state.zeta1 = refit_coefficients(basis30, np.tile([0.0, 0.0, 1.0], (30, 1)))
    diff, *_, omega_rows = updated_angles(problem, state)
    d = step_s3(problem, state, diff, omega_rows)
    assert np.all(d[problem.col_rows] > 1.0)


def test_s3_bf_gamma_one_is_bitwise_standard():
    rng = np.random.default_rng(9)
    for seed in range(10):
        problem, _ = small_problem(seed)  # default config has gamma = 1.0
        state = random_state(problem, rng)
        # Run the trajectory through the obstacle so the collision rows clip at their lower bound.
        centers = problem.targets[0].predicted_centers
        state.zeta1 = refit_coefficients(problem.basis, centers + rng.normal(0.0, 0.1, centers.shape))
        diff, *_, omega_rows = updated_angles(problem, state)
        d = step_s3(problem, state, diff, omega_rows)
        # The barrier written out, from the random previous magnitudes, gives the plain-bound clip.
        assert_same_bits(reference_s3(problem, state, diff, omega_rows), plain_bound_clip(problem, diff, omega_rows))
        assert_same_bits(d, reference_s3(problem, state, diff, omega_rows))
        assert np.any(d[problem.col_rows] == 1.0)


def test_s3_rows_minimize_clipped_quadratic():
    rng = np.random.default_rng(10)
    problem, _ = small_problem(1)
    state = random_state(problem, rng)
    diff, alpha, beta, omega_rows = updated_angles(problem, state)
    d = step_s3(problem, state, diff, omega_rows)
    for row in range(problem.n_rows):
        shape = EllipsoidShape(*problem.scales[row])
        d_ref = ternary_search_magnitude(
            diff[row],
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
    diff, *_, omega_rows = updated_angles(problem, state)
    d_prev = state.d[problem.col_rows].copy()
    d = step_s3(problem, state, diff, omega_rows)
    K = problem.K
    gamma = 0.9
    lo0 = 1 + (1 - gamma) * (problem.anchors[0] - 1)
    assert d[problem.col_rows][0] >= lo0 - 1e-12
    lo_rest = 1 + (1 - gamma) * (d_prev[:-1] - 1)
    assert np.all(d[problem.col_rows][1:] >= lo_rest - 1e-12)


# ---------------------------------------------------------------- S4 / S5


def test_s4_inside_bounds_gives_positive_slack(basis30, default_config):
    problem = make_problem(basis30, default_config, [0, 0, 1], [0.5, 0, 1])
    zeta = refit_coefficients(basis30, np.tile([0.0, 0.0, 1.0], (30, 1)))
    _, gz = sample_rows(problem, zeta)
    slack = step_s4(problem, gz)
    assert np.all(slack > 0)
    np.testing.assert_allclose(slack, problem.h - problem.shared.G @ zeta)


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
    advance(problem, state)
    assert state.eq_residual > 0
    np.testing.assert_array_equal(state.lam, lam)


def test_s5_matches_direct_expression():
    """The multiplier update of one iteration against the dense residuals ``A z - b`` and ``G z - h + s``."""
    problem, rng = small_problem(6)
    state = random_state(problem, rng)
    lam, rho = state.lam.copy(), state.rho
    advance(problem, state)
    r_eq = problem.shared.AT.T @ state.zeta1 - state.b
    viol = problem.shared.G @ state.zeta1 - problem.h + state.slack
    expected = lam - 0.5 * rho * (problem.shared.AT @ r_eq) - 0.5 * rho * (problem.shared.G.T @ viol)
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
        zeta, diag = solve(problem)
        assert diag.converged
        pos, *_ = sample_trajectory(basis30, zeta)
        return np.sum(((pos - target.predicted_centers) / target.shape.as_array) ** 2, axis=1).min()

    assert min_clearance(0.9) >= min_clearance(1.0)


def test_solve_bf_gamma_one_bitwise_matches_standard(basis30, monkeypatch):
    """At gamma = 1 every S3 of a solve is the plain-bound clip and the barrier written out, bit for bit."""
    calls = check_s3_against_plain_bound(monkeypatch)
    rng = np.random.default_rng(12)
    config = PlanningConfig(gamma=1.0)
    iterations = 0
    for _ in range(5):
        problem, _ = random_full_instance(rng, basis30, config)
        _, diag = solve(problem)
        iterations += diag.iterations
    assert len(calls) == iterations and min(calls) == 1


def test_solve_bf_cold_start_never_looser_than_plain_bound(basis30):
    """Criterion 3's feasibility check at gamma = 0.9: the first barrier bound reads
    the measured state, not the zero placeholder magnitudes of a cold start."""
    config = PlanningConfig(gamma=0.9)
    rng = np.random.default_rng(7)
    converged = 0
    for _ in range(100):
        problem, target = random_full_instance(rng, basis30, config)
        zeta, diag = solve(problem)
        if not diag.converged:
            continue
        converged += 1
        pos, *_ = sample_trajectory(basis30, zeta)
        metric = np.sum(((pos - target.predicted_centers) / target.shape.as_array) ** 2, axis=1)
        assert metric.min() >= 1.0 - 1e-3
    assert converged >= 95


@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_solve_converges_from_start_inside_envelope(basis30, gamma):
    """Step 0 is pinned to the measured state, so its collision row must admit an
    anchor below 1 or the residual has a floor above the threshold."""
    target = cylinder_target(0.0, 0.0, 0.3)
    problem = make_problem(basis30, PlanningConfig(gamma=gamma), [-0.27, 0, 1], [-1.5, 0, 1], [target])
    assert problem.anchors[0] < 1.0
    _, diag = solve(problem)
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


def test_solve_nonconvergence_reports_best_iterate(basis30, default_config, monkeypatch):
    monkeypatch.setattr(SolverConfig, "maxiter", 5)
    target = cylinder_target(0.0, 0.05, 0.3)
    problem = make_problem(basis30, default_config, [-1.5, 0, 1], [1.5, 0, 1], [target])
    zeta, diag = solve(problem)
    assert not diag.converged
    assert diag.iterations == 5
    assert np.all(np.isfinite(zeta))


@pytest.mark.parametrize("field", ["h", "zeta_particular"])
def test_solve_without_a_finite_iterate_raises(field, basis30, default_config):
    """A nan problem used to run every iteration on nan and return the zero
    cold start: for this agent, a plan whose step 1 is the origin."""
    problem = make_problem(basis30, default_config, [0.5, 0.5, 1.0], [1.0, 0.5, 1.0])
    setattr(problem, field, np.full_like(getattr(problem, field), np.nan))
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve(problem)


def test_solve_stops_at_the_first_non_finite_residual(basis30, default_config, monkeypatch):
    """A nan residual reaches the multipliers, so no later iterate is finite: the
    solve stops there and returns the best finite iterate before it."""
    problem = make_problem(basis30, default_config, [-1.5, 0, 1], [1.5, 0, 1], [cylinder_target(0.0, 0.05, 0.3)])
    finite = []

    def poisoned_after_three(problem, state):
        advance(problem, state)
        if state.iter <= 3:
            finite.append((state.eq_residual + state.ineq_residual, state.zeta1))
        if state.iter == 3:
            problem.h = np.full_like(problem.h, np.nan)

    monkeypatch.setattr(solver, "advance", poisoned_after_three)
    monkeypatch.setattr(SolverConfig, "maxiter", 50)
    zeta, diag = solve(problem)
    assert diag.iterations == 4 and not diag.converged and np.isnan(diag.ineq_residual)
    assert len(finite) == 3
    assert zeta is min(finite, key=lambda pair: pair[0])[1]


def test_residuals_are_the_numpy_norms(basis30, default_config):
    """``advance``'s residuals carry the bits of ``np.linalg.norm`` of ``A z - b`` and ``max(G z - h, 0)``."""
    problem, _ = random_full_instance(np.random.default_rng(9), basis30, default_config)
    state = SolverState.cold(problem)
    for _ in range(40):
        advance(problem, state)
        samples, gz = sample_rows(problem, state.zeta1)
        assert state.eq_residual == float(np.linalg.norm(samples.T.ravel() - state.b))
        assert state.ineq_residual == float(np.linalg.norm(np.maximum(gz - problem.h, 0.0)))


def test_penalty_schedule_is_capped_past_any_iteration():
    """The schedule is ``min(1.3**k, RHO_CAP)`` where ``1.3**k`` is a float, and the cap beyond;
    ``1.3**2706`` overflows, so the cap must not be computed from it."""
    assert [rho_at(k) for k in range(2706)] == [min(solver.RHO_BASE**k, solver.RHO_CAP) for k in range(2706)]
    assert rho_at(2706) == solver.RHO_CAP and rho_at(10**6) == solver.RHO_CAP
    assert rho_at(0) == 1.0
    assert rho_at(100) == 5e5


def test_solve_runs_past_the_float_range_of_the_schedule(basis30, default_config, monkeypatch):
    monkeypatch.setattr(SolverConfig, "maxiter", 3000)
    monkeypatch.setattr(SolverConfig, "threshold", 1e-300)
    problem = make_problem(basis30, default_config, [-1.5, 0, 1], [1.5, 0, 1])
    zeta, diag = solve(problem)
    assert diag.iterations == 3000 and not diag.converged
    assert np.all(np.isfinite(zeta))


def bit_instance(basis, seed, M, gamma):
    """A random problem with ``M`` targets near the agent's path, some of which start inside their envelope."""
    rng = np.random.default_rng(seed)
    start, goal = rng.uniform([-1.5, -1.5, 0.4], [1.5, 1.5, 1.6], (2, 3))
    snapshot = AgentSnapshot(
        position=start, goal=goal, velocity=rng.uniform(-1.0, 1.0, 3), acceleration=rng.uniform(-2.0, 2.0, 3)
    )
    steps = np.linspace(0.0, 1.0, basis.K)[:, None]
    targets = []
    for _ in range(M):
        a, b = start + (goal - start) * rng.uniform(0.0, 1.0, 2)[:, None] + rng.normal(0.0, 0.3, (2, 3))
        if rng.uniform() < 0.5:
            targets.append(ConstraintTarget("neighbor", PlanningConfig.theta_agent, a + (b - a) * steps))
        else:
            targets.append(cylinder_target(a[0], a[1], rng.uniform(0.2, 0.4), K=basis.K))
    return assemble(snapshot, targets, basis, PlanningConfig(gamma=gamma))


@settings(max_examples=24)
@given(seed=st.integers(0, 2**32 - 1), M=st.integers(0, 4), gamma=st.sampled_from([0.0, 0.9, 1.0]))
def test_advance_keeps_the_bits_of_the_reference_iteration(basis30, seed, M, gamma):
    """:func:`advance` skips the barrier at gamma = 1, clips with ``minimum(maximum(...))``
    and builds the target rows once; every array of the iterate stays the
    reference iteration's bit for bit, past the penalty cap at iteration 51."""
    problem = bit_instance(basis30, seed, M, gamma)
    state, reference = SolverState.cold(problem), SolverState.cold(problem)
    for k in range(60):
        advance(problem, state)
        reference_advance(problem, reference)
        for name in ("zeta1", "d", "lam", "slack", "b"):
            assert_same_bits(getattr(state, name), getattr(reference, name), f"{name} at iteration {k + 1}")
        assert_same_bits(state.factor[2], reference.factor[2], f"v at iteration {k + 1}")
        for name in ("rho", "iter", "eq_residual", "ineq_residual"):
            assert_same_bits(getattr(state, name), getattr(reference, name), f"{name} at iteration {k + 1}")
    assert state.rho == solver.RHO_CAP


def test_slack_nonnegative_along_iterations():
    problem, rng = small_problem(7)
    state = SolverState.cold(problem)
    for _ in range(30):
        advance(problem, state)
        assert np.all(state.slack >= 0.0)


def test_s3_never_increases_penalty_along_solve(basis30, default_config):
    rng = np.random.default_rng(14)
    problem, _ = random_full_instance(rng, basis30, default_config)
    state = SolverState.cold(problem)
    for _ in range(40):
        d_prev = state.d
        advance(problem, state)
        # The penalty at the new trajectory and angles, before and after S3 moved the magnitudes.
        samples, _ = sample_rows(problem, state.zeta1)
        omega_rows = omega(*step_s2(problem, samples - problem.centers))
        b_before = build_b(problem, d_prev, omega_rows)
        before = float(np.sum((samples.T.ravel() - b_before) ** 2))
        after = float(np.sum((samples.T.ravel() - state.b) ** 2))
        assert after <= before + 1e-9 * (1 + before)


def test_s1_singular_reduced_system_raises():
    """Validated configurations keep the reduced Hessian positive definite, so a
    singular one is an error, never silently shifted."""
    problem, _ = small_problem(0, with_target=False)
    replace_shared_cost(problem, np.zeros_like(problem.shared.Q))  # removes all curvature at rho = 0
    problem.q = np.zeros_like(problem.q)
    state = SolverState.cold(problem)
    state.rho = 0.0
    with pytest.raises(LinAlgError):
        step_s1(problem, state)


def test_solver_config_validation():
    """The iteration cap and threshold are constants: no solve can be given a bad value."""
    assert SolverConfig().maxiter == 2000 and SolverConfig().threshold == 0.01
    with pytest.raises(TypeError):
        SolverConfig(maxiter=0)
    with pytest.raises(TypeError):
        SolverConfig(threshold=0.0)
