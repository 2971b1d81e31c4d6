import numpy as np
import pytest

from swarmplan.bernstein import build_basis, sample_trajectory
from swarmplan.polar import EllipsoidShape, PolarVars, omega
from swarmplan.problem import (
    GRAVITY,
    AgentSnapshot,
    ConstraintTarget,
    PlanningConfig,
    assemble,
    build_b,
    detect_conflicts,
)

from conftest import cylinder_target, make_problem
from oracles import dense_kkt_qp


def target_vector(problem, polar):
    return build_b(problem, polar, omega(polar.alpha, polar.beta))


def hover_plan(x, y, z, K=30):
    return np.tile([x, y, z], (K, 1))


def test_detect_conflicts_far_neighbors_excluded(default_config):
    own = hover_plan(0.0, 0.0, 1.0)
    neighbors = {1: hover_plan(1.0, 0.0, 1.0)}
    assert detect_conflicts(own, neighbors, [], default_config) == []


def test_detect_conflicts_coincident_step_included(default_config):
    own = hover_plan(0.0, 0.0, 1.0)
    other = hover_plan(1.0, 0.0, 1.0)
    other[5] = [0.0, 0.0, 1.0]
    targets = detect_conflicts(own, {1: other}, [], default_config)
    assert len(targets) == 1
    assert targets[0].kind == "neighbor"
    assert targets[0].shape == default_config.theta_agent


def test_detect_conflicts_matches_per_step_oracle(default_config):
    rng = np.random.default_rng(11)
    cfg = default_config
    for _ in range(50):
        own = rng.uniform([-1, -1, 0.3], [1, 1, 1.7], size=(cfg.K, 3))
        neighbor = rng.uniform([-1, -1, 0.3], [1, 1, 1.7], size=(cfg.K, 3))
        obs_shape = EllipsoidShape(*rng.uniform(0.1, 0.6, 3))
        obs_track = rng.uniform([-1, -1, 0.3], [1, 1, 1.7], size=(cfg.K, 3))
        targets = detect_conflicts(own, {0: neighbor}, [(obs_shape, obs_track)], cfg)
        kinds = [t.kind for t in targets]

        def inside(centers, shape):
            inflated = shape.as_array + cfg.theta_padding.as_array
            return any(np.sum(((own[k] - centers[k]) / inflated) ** 2) <= 1.0 for k in range(cfg.K))

        assert ("neighbor" in kinds) == inside(neighbor, cfg.theta_agent)
        assert ("obstacle" in kinds) == inside(obs_track, obs_shape)


def test_assemble_shapes_with_three_targets(basis30, default_config):
    targets = [cylinder_target(0.5, 0.0, 0.3), cylinder_target(-0.5, 0.2, 0.25), cylinder_target(0.0, 0.7, 0.2)]
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], targets)
    assert problem.A.shape == (450, 33)
    assert problem.n_rows == 150
    assert problem.C.shape == (9, 33)
    assert problem.G.shape == (180, 33)


def test_assemble_shapes_without_targets(basis30, default_config):
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1])
    assert problem.A.shape == (180, 33)


def test_assemble_row_ordering(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    K = basis30.K
    np.testing.assert_array_equal(problem.A[:K, :11], basis30.W1)
    np.testing.assert_array_equal(problem.A[K : 2 * K, :11], basis30.W2)
    np.testing.assert_array_equal(problem.A[2 * K : 3 * K, :11], basis30.W)
    # y-axis block sits in the middle column stripe
    np.testing.assert_array_equal(problem.A[3 * K : 4 * K, 11:22], basis30.W1)
    assert not problem.A[:K, 11:].any()


def test_cost_minimum_sits_at_goal_when_starting_there(basis30, default_config):
    goal = np.array([0.4, -0.7, 1.2])
    snapshot = AgentSnapshot(position=goal.copy(), goal=goal.copy())
    problem = assemble(snapshot, [], basis30, default_config)
    zeta = dense_kkt_qp(problem.Q, problem.q, problem.C, problem.e)
    pos, *_ = sample_trajectory(basis30, zeta)
    assert np.abs(pos - goal).max() < 1e-6


def test_build_b_zero_magnitudes(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    K, R = basis30.K, problem.n_rows
    b = target_vector(problem, PolarVars.zeros(R))
    for axis in range(3):
        block = b[axis * R : (axis + 1) * R]
        assert not block[:K].any()  # velocity rows
        if axis < 2:
            assert not block[K : 2 * K].any()
        else:
            np.testing.assert_allclose(block[K : 2 * K], -GRAVITY)


def test_build_b_collision_rows_on_x_semi_axis(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    K, R = basis30.K, problem.n_rows
    polar = PolarVars.zeros(R)
    polar.d[2 * K :] = 1.0
    polar.alpha[2 * K :] = 0.0
    polar.beta[2 * K :] = np.pi / 2
    b = target_vector(problem, polar)
    a = target.shape.a
    centers = target.predicted_centers
    np.testing.assert_allclose(b[2 * K : 3 * K], centers[:, 0] + a, atol=1e-12)
    np.testing.assert_allclose(b[R + 2 * K : R + 3 * K], centers[:, 1], atol=1e-12)
    np.testing.assert_allclose(b[2 * R + 2 * K : 2 * R + 3 * K], centers[:, 2], atol=1e-12)


def test_stacked_residual_matches_per_constraint_loop(basis30, default_config):
    rng = np.random.default_rng(4)
    targets = [
        ConstraintTarget("obstacle", EllipsoidShape(0.3, 0.3, 0.5), hover_plan(0.5, 0.0, 1.0)),
        ConstraintTarget("neighbor", EllipsoidShape(0.17, 0.17, 0.45), hover_plan(-0.3, 0.4, 1.0)),
    ]
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], targets)
    K, R = basis30.K, problem.n_rows
    zeta = rng.normal(size=33)
    polar = PolarVars(
        alpha=rng.uniform(-np.pi, np.pi, R),
        beta=rng.uniform(0, np.pi, R),
        d=rng.uniform(0, 3, R),
    )
    stacked = np.linalg.norm(problem.A @ zeta - target_vector(problem, polar))

    pos, vel, acc = sample_trajectory(basis30, zeta)
    total = 0.0
    for k in range(K):  # velocity rows
        w = np.array([np.cos(polar.alpha[k]) * np.sin(polar.beta[k]),
                      np.sin(polar.alpha[k]) * np.sin(polar.beta[k]),
                      np.cos(polar.beta[k])])
        total += np.sum((vel[k] - polar.d[k] * w) ** 2)
    for k in range(K):  # acceleration rows
        r = K + k
        w = np.array([np.cos(polar.alpha[r]) * np.sin(polar.beta[r]),
                      np.sin(polar.alpha[r]) * np.sin(polar.beta[r]),
                      np.cos(polar.beta[r])])
        total += np.sum((acc[k] - (-np.array([0, 0, GRAVITY]) + polar.d[r] * w)) ** 2)
    for j, target in enumerate(targets):
        axes = target.shape.as_array
        for k in range(K):
            r = (2 + j) * K + k
            w = np.array([np.cos(polar.alpha[r]) * np.sin(polar.beta[r]),
                          np.sin(polar.alpha[r]) * np.sin(polar.beta[r]),
                          np.cos(polar.beta[r])])
            total += np.sum((pos[k] - (target.predicted_centers[k] + axes * polar.d[r] * w)) ** 2)
    assert abs(stacked - np.sqrt(total)) < 1e-10


def test_quadratic_cost_is_symmetric_psd(basis30, default_config):
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1])
    np.testing.assert_array_equal(problem.Q, problem.Q.T)
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=33)
        assert v @ problem.Q @ v >= -1e-9


def test_assemble_is_deterministic(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    p1 = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    p2 = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    for name in ("Q", "q", "A", "G", "h", "C", "e"):
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))


def test_initial_condition_rows(basis30, default_config):
    snapshot = AgentSnapshot(
        position=np.array([0.1, 0.2, 0.3]),
        goal=np.array([1.0, 1.0, 1.0]),
        velocity=np.array([0.4, 0.5, 0.6]),
        acceleration=np.array([0.7, 0.8, 0.9]),
    )
    problem = assemble(snapshot, [], basis30, default_config)
    np.testing.assert_allclose(problem.e, [0.1, 0.4, 0.7, 0.2, 0.5, 0.8, 0.3, 0.6, 0.9])
    zeta = dense_kkt_qp(problem.Q, problem.q, problem.C, problem.e)
    pos, vel, acc = sample_trajectory(basis30, zeta)
    np.testing.assert_allclose(pos[0], snapshot.position, atol=1e-8)
    np.testing.assert_allclose(vel[0], snapshot.velocity, atol=1e-8)
    np.testing.assert_allclose(acc[0], snapshot.acceleration, atol=1e-7)


def test_planning_config_validation():
    with pytest.raises(ValueError):
        PlanningConfig(kappa=30)
    with pytest.raises(ValueError):
        PlanningConfig(f_min=20.0)
    with pytest.raises(ValueError):
        PlanningConfig(gamma=1.2)


def test_planning_config_rejects_negative_cost_weights():
    """Negative weights would make the quadratic cost indefinite."""
    with pytest.raises(ValueError):
        PlanningConfig(w_goal=-1.0)
    with pytest.raises(ValueError):
        PlanningConfig(w_smooth=-1.0)
    PlanningConfig(w_goal=0.0, w_smooth=0.0)


def test_constraint_target_validation():
    with pytest.raises(ValueError):
        ConstraintTarget("wall", EllipsoidShape(1, 1, 1), np.zeros((30, 3)))
    with pytest.raises(ValueError):
        ConstraintTarget("obstacle", EllipsoidShape(1, 1, 1), np.zeros((30, 2)))


def test_build_b_rejects_mismatched_polar(basis30, default_config):
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1])
    with pytest.raises(ValueError):
        target_vector(problem, PolarVars.zeros(problem.n_rows + 3))


def test_step0_bounds_admit_measured_state(basis30, default_config):
    cfg = default_config
    K = basis30.K
    snapshot = AgentSnapshot(
        position=np.array([-0.27, 0.0, 1.0]),
        goal=np.array([-1.5, 0.0, 1.0]),
        velocity=np.array([2.0, 0.0, 0.0]),
        acceleration=np.array([0.0, 0.0, -9.0]),
    )
    targets = [cylinder_target(0.0, 0.0, 0.3), cylinder_target(1.0, 0.0, 0.3)]
    problem = assemble(snapshot, targets, basis30, cfg)
    np.testing.assert_allclose(problem.anchors, [0.9, 1.27 / 0.3])
    assert problem.hi_bounds[0] == 2.0
    assert problem.lo_base[K] == pytest.approx(0.81)
    assert problem.lo_base[2 * K] == problem.anchors[0]
    assert problem.lo_base[3 * K] == 1.0
    # every later step keeps the ordinary bounds
    np.testing.assert_array_equal(problem.hi_bounds[1:K], cfg.v_max)
    np.testing.assert_array_equal(problem.lo_base[K + 1 : 2 * K], cfg.f_min)
    np.testing.assert_array_equal(problem.hi_bounds[K : 2 * K], cfg.f_max)
    np.testing.assert_array_equal(problem.lo_base[2 * K + 1 : 3 * K], 1.0)
    np.testing.assert_array_equal(problem.lo_base[3 * K + 1 :], 1.0)

    hover = assemble(AgentSnapshot(position=np.zeros(3), goal=np.ones(3)), [], basis30, cfg)
    assert hover.hi_bounds[0] == cfg.v_max
    assert hover.lo_base[K] == cfg.f_min and hover.hi_bounds[K] == cfg.f_max
