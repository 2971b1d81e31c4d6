import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmplan.bernstein import build_basis, sample_trajectory
from swarmplan.polar import EllipsoidShape, omega
from swarmplan.problem import (
    GRAVITY,
    AgentSnapshot,
    ConstraintTarget,
    PlanningConfig,
    assemble,
    detect_conflicts,
)
from swarmplan.solver import SolverState, step_s3

from conftest import cylinder_target, make_problem
from oracles import build_b, dense_kkt_qp, reference_problem_matrices


def target_vector(problem, alpha, beta, d):
    """The stacked target vector of the problem's row builder, which keeps the bits of ``build_b``."""
    omega_rows = omega(alpha, beta)
    b = problem.target_rows(d, omega_rows).T.ravel()
    assert b.tobytes() == build_b(problem, d, omega_rows).tobytes()
    return b


def hover_plan(x, y, z, K=30):
    return np.tile([x, y, z], (K, 1))


def test_detect_conflicts_far_neighbors_excluded():
    plans = np.stack([hover_plan(0.0, 0.0, 1.0), hover_plan(1.0, 0.0, 1.0)])
    assert detect_conflicts(plans, []) == [[], []]
    assert detect_conflicts(plans[:1], []) == [[]]


def test_detect_conflicts_coincident_step_included(default_config):
    other = hover_plan(1.0, 0.0, 1.0)
    other[5] = [0.0, 0.0, 1.0]
    plans = np.stack([hover_plan(0.0, 0.0, 1.0), other])
    conflicts = detect_conflicts(plans, [])
    assert [len(targets) for targets in conflicts] == [1, 1]
    for own, (target,) in enumerate(conflicts):
        assert target.kind == "neighbor"
        assert target.shape == default_config.theta_agent
        np.testing.assert_array_equal(target.predicted_centers, plans[1 - own])


def per_step_conflicts(plans, obstacles, cfg):
    """The per-agent scan, one ordered pair and one step at a time:
    (kind, shape, index) per target, other agents in index order, then
    obstacles in list order."""

    def inside(own, centers, shape):
        inflated = shape.as_array + cfg.theta_padding.as_array
        return any(np.sum(((own[k] - centers[k]) / inflated) ** 2) <= 1.0 for k in range(cfg.K))

    return [
        [("neighbor", cfg.theta_agent, b) for b in range(len(plans)) if b != a and inside(own, plans[b], cfg.theta_agent)]
        + [("obstacle", shape, o) for o, (shape, track) in enumerate(obstacles) if inside(own, track, shape)]
        for a, own in enumerate(plans)
    ]


@settings(max_examples=50)
@given(
    n_agents=st.sampled_from([1, 2, 5, 32]),
    n_obstacles=st.integers(0, 5),
    extent=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_detect_conflicts_matches_per_step_oracle(n_agents, n_obstacles, extent, seed):
    """One call for the whole swarm selects, for every agent, exactly the
    tracks a per-step scan of each ordered pair finds inside: other agents in
    index order, then obstacles in list order, each with its own kind, shape
    and centres; no agent is its own target, and agent conflicts are mutual."""
    cfg = PlanningConfig
    rng = np.random.default_rng(seed)
    lo, hi = np.array([-extent, -extent, 0.3]) / 2, np.array([extent, extent, 1.7]) / 2

    def tracks(count):
        start = rng.uniform(lo, hi, size=(count, 1, 3))
        return start + np.cumsum(rng.normal(0.0, 0.05, size=(count, cfg.K, 3)), axis=1)

    plans = tracks(n_agents)
    obstacles = [(EllipsoidShape(*rng.uniform(0.1, 0.6, 3)), track) for track in tracks(n_obstacles)]
    conflicts = detect_conflicts(plans, obstacles)
    expected = per_step_conflicts(plans, obstacles, cfg)
    assert len(conflicts) == n_agents
    pairs = set()
    for a, (targets, want) in enumerate(zip(conflicts, expected)):
        assert [(t.kind, t.shape) for t in targets] == [(kind, shape) for kind, shape, _ in want]
        for target, (kind, _, index) in zip(targets, want):
            track = plans[index] if kind == "neighbor" else obstacles[index][1]
            assert target.predicted_centers.shape == (cfg.K, 3)
            np.testing.assert_array_equal(target.predicted_centers, track)
        pairs |= {(a, index) for kind, _, index in want if kind == "neighbor"}
    assert all(a != b and (b, a) in pairs for a, b in pairs)
    if n_agents == 1 and not n_obstacles:
        assert conflicts == [[]]


def test_detect_conflicts_decides_envelope_contact_like_the_per_step_scan(default_config):
    """Pairs a few ulps either side of the padded envelope, on each axis, get
    the per-step scan's answer: the box pre-test leaves out no pair in contact."""
    cfg = default_config
    reach = cfg.theta_agent.inflate(cfg.theta_padding).as_array
    rng = np.random.default_rng(3)
    outcomes = set()
    for axis in range(3):
        for start in rng.uniform(-1.0, 1.0, size=(10, 3)):
            for ulps in range(-4, 5):
                offset = np.zeros(3)
                offset[axis] = reach[axis] * (1.0 + ulps * 2.0**-52)
                plans = np.stack([hover_plan(*start), hover_plan(*(start + offset))])
                conflicts = detect_conflicts(plans, [])
                expected = per_step_conflicts(plans, [], cfg)
                assert [[t.kind for t in row] for row in conflicts] == [[kind for kind, _, _ in row] for row in expected]
                outcomes.add(bool(conflicts[0]))
    assert outcomes == {True, False}


def test_detect_conflicts_rejects_tracks_without_k_rows(default_config):
    plans = np.stack([hover_plan(0.0, 0.0, 1.0)])
    short = hover_plan(0.0, 0.0, 1.0, K=default_config.K - 1)
    shape = EllipsoidShape(0.3, 0.3, 0.3)
    with pytest.raises(ValueError, match="must have 30 rows"):
        detect_conflicts(plans, [(shape, short)])
    with pytest.raises(ValueError, match="must have 30 rows"):
        detect_conflicts(plans, [(shape, plans[0]), (shape, short)])


def test_assemble_shapes_with_three_targets(basis30, default_config):
    targets = [cylinder_target(0.5, 0.0, 0.3), cylinder_target(-0.5, 0.2, 0.25), cylinder_target(0.0, 0.7, 0.2)]
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], targets)
    assert problem.shared.AT.shape == (33, 450)
    assert problem.n_rows == 150
    assert problem.shared.C.shape == (9, 33)
    assert problem.shared.G.shape == (180, 33)


def test_assemble_shapes_without_targets(basis30, default_config):
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1])
    assert problem.shared.AT.shape == (33, 180)


def test_assemble_row_ordering(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    K, A = basis30.K, problem.shared.AT.T
    np.testing.assert_array_equal(A[:K, :11], basis30.W1)
    np.testing.assert_array_equal(A[K : 2 * K, :11], basis30.W2)
    np.testing.assert_array_equal(A[2 * K : 3 * K, :11], basis30.W)
    # y-axis block sits in the middle column stripe
    np.testing.assert_array_equal(A[3 * K : 4 * K, 11:22], basis30.W1)
    assert not A[:K, 11:].any()


def test_cost_minimum_sits_at_goal_when_starting_there(basis30, default_config):
    goal = np.array([0.4, -0.7, 1.2])
    snapshot = AgentSnapshot(position=goal.copy(), goal=goal.copy())
    problem = assemble(snapshot, [], basis30, default_config)
    zeta = dense_kkt_qp(problem.shared.Q, problem.q, problem.shared.C, problem.e)
    pos, *_ = sample_trajectory(basis30, zeta)
    assert np.abs(pos - goal).max() < 1e-6


def test_build_b_zero_magnitudes(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    K, R = basis30.K, problem.n_rows
    b = target_vector(problem, np.zeros(R), np.zeros(R), np.zeros(R))
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
    alpha, beta, d = np.zeros(R), np.zeros(R), np.zeros(R)
    d[2 * K :] = 1.0
    beta[2 * K :] = np.pi / 2
    b = target_vector(problem, alpha, beta, d)
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
    alpha = rng.uniform(-np.pi, np.pi, R)
    beta = rng.uniform(0, np.pi, R)
    d = rng.uniform(0, 3, R)
    stacked = np.linalg.norm(problem.shared.AT.T @ zeta - target_vector(problem, alpha, beta, d))

    pos, vel, acc = sample_trajectory(basis30, zeta)
    total = 0.0
    for k in range(K):  # velocity rows
        w = np.array([np.cos(alpha[k]) * np.sin(beta[k]),
                      np.sin(alpha[k]) * np.sin(beta[k]),
                      np.cos(beta[k])])
        total += np.sum((vel[k] - d[k] * w) ** 2)
    for k in range(K):  # acceleration rows
        r = K + k
        w = np.array([np.cos(alpha[r]) * np.sin(beta[r]),
                      np.sin(alpha[r]) * np.sin(beta[r]),
                      np.cos(beta[r])])
        total += np.sum((acc[k] - (-np.array([0, 0, GRAVITY]) + d[r] * w)) ** 2)
    for j, target in enumerate(targets):
        axes = target.shape.as_array
        for k in range(K):
            r = (2 + j) * K + k
            w = np.array([np.cos(alpha[r]) * np.sin(beta[r]),
                          np.sin(alpha[r]) * np.sin(beta[r]),
                          np.cos(beta[r])])
            total += np.sum((pos[k] - (target.predicted_centers[k] + axes * d[r] * w)) ** 2)
    assert abs(stacked - np.sqrt(total)) < 1e-10


def test_quadratic_cost_is_symmetric_psd(basis30, default_config):
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1])
    np.testing.assert_array_equal(problem.shared.Q, problem.shared.Q.T)
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=33)
        assert v @ problem.shared.Q @ v >= -1e-9


def test_assemble_is_deterministic(basis30, default_config):
    target = cylinder_target(0.4, 0.1, 0.3)
    p1 = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    p2 = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])
    assert p1.shared is p2.shared
    for name in ("q", "h", "e", "zeta_particular"):
        np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))


@pytest.mark.parametrize("M", [0, 1, 3])
def test_shared_matrices_match_per_problem_assembly(M, default_config):
    """Every matrix a problem reads equals, bit for bit, the one a from-scratch
    assembly of that problem alone gives, on a table hit as on its first fill."""
    basis = build_basis(30, 10, 0.1)
    targets = [cylinder_target(0.4 * j, -0.3, 0.3) for j in range(M)]
    snapshots = [
        AgentSnapshot(position=np.zeros(3), goal=np.ones(3)),
        AgentSnapshot(
            position=np.array([-1.0, 0.2, 1.0]),
            goal=np.array([1.0, 0.0, 1.2]),
            velocity=np.array([0.3, -0.1, 0.2]),
            acceleration=np.array([0.5, 0.0, -0.4]),
        ),
    ]
    cfg = PlanningConfig
    for snapshot in snapshots:
        problem = assemble(snapshot, targets, basis, default_config)
        reference = reference_problem_matrices(basis, M, problem.e, cfg.kappa, cfg.w_goal, cfg.w_smooth)
        actual = {**vars(problem.shared), "A": problem.shared.AT.T, "zeta_particular": problem.zeta_particular}
        for name, expected in reference.items():
            np.testing.assert_array_equal(actual[name], expected, err_msg=name)


def test_problems_on_one_basis_share_one_structure_per_conflict_count(default_config):
    basis = build_basis(30, 10, 0.1)
    target = cylinder_target(0.4, 0.1, 0.3)
    first = make_problem(basis, default_config, [-1, 0, 1], [1, 0, 1], [target])
    second = make_problem(basis, default_config, [0, 1, 1], [1, 1, 0.5], [cylinder_target(-0.5, 0.0, 0.2)])
    free = make_problem(basis, default_config, [-1, 0, 1], [1, 0, 1])
    assert second.shared is first.shared and basis.table[1] is first.shared
    assert free.shared is basis.table[0] and free.shared is not first.shared
    # The arrays M does not change are the same arrays for every M.
    for name in ("Q", "G", "GT", "C", "null_basis", "null_basis_T", "C_pinv"):
        assert getattr(free.shared, name) is getattr(first.shared, name), name
    assert free.shared.AT.shape != first.shared.AT.shape
    # Another basis has its own table.
    assert make_problem(build_basis(30, 10, 0.1), default_config, [-1, 0, 1], [1, 0, 1]).shared is not free.shared


def test_shared_matrices_are_read_only(basis30, default_config):
    """Every agent on the basis reads the same arrays, so no problem may write to them."""
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [cylinder_target(0.4, 0.1, 0.3)])
    for name in ("Q", "AT", "G", "GT", "C", "gram", "null_basis", "null_basis_T", "C_pinv"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem.shared, name)[0, 0] = 1.0
    for name in ("centers", "scales", "lo", "hi"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem.shared, name)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        problem.shared.AT.T[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.shared.Q = np.eye(problem.n_coeffs)


def test_problems_fill_their_rows_from_the_shared_templates(basis30, default_config):
    """A problem's row metadata is the template of its basis and M with the
    target rows and the step-0 bounds filled in; the template stays as built."""
    cfg, K = default_config, basis30.K
    snapshot = AgentSnapshot(
        position=np.array([-0.27, 0.0, 1.0]),
        goal=np.array([-1.5, 0.0, 1.0]),
        velocity=np.array([2.0, 0.0, 0.0]),
        acceleration=np.array([0.0, 0.0, -9.0]),
    )
    targets = [cylinder_target(0.0, 0.0, 0.3), cylinder_target(1.0, 0.0, 0.3)]
    problem = assemble(snapshot, targets, basis30, cfg)
    shared = problem.shared
    gravity = np.zeros((problem.n_rows, 3))
    gravity[K : 2 * K, 2] = -GRAVITY
    np.testing.assert_array_equal(shared.centers, gravity)
    np.testing.assert_array_equal(shared.scales, 1.0)
    np.testing.assert_array_equal(shared.lo, np.repeat([0.0, cfg.f_min, 1.0, 1.0], K))
    np.testing.assert_array_equal(shared.hi, np.repeat([cfg.v_max, cfg.f_max, np.inf, np.inf], K))

    np.testing.assert_array_equal(problem.centers[: 2 * K], shared.centers[: 2 * K])
    np.testing.assert_array_equal(problem.centers[2 * K :], np.concatenate([t.predicted_centers for t in targets]))
    np.testing.assert_array_equal(problem.scales[2 * K :], np.repeat([t.shape.as_array for t in targets], K, axis=0))
    # Speed cap, thrust floor and the first target's anchor widen; the second starts outside.
    np.testing.assert_array_equal(np.flatnonzero(problem.lo_base != shared.lo), [K, 2 * K])
    np.testing.assert_array_equal(np.flatnonzero(problem.hi_bounds != shared.hi), [0])


def test_assemble_rejects_a_basis_that_cannot_pin_the_initial_state(default_config):
    """Below degree 2, ``C z = e`` cannot fix position, velocity and
    acceleration at step 0, whatever the state; the basis is rejected when
    its shared structure is first built, and the failed build leaves
    nothing in the basis's table."""
    snapshot = AgentSnapshot(position=np.zeros(3), goal=np.ones(3))
    basis = build_basis(30, 1, 0.1)
    with pytest.raises(ValueError, match="inconsistent with the basis degree"):
        assemble(snapshot, [], basis, default_config)
    assert basis.table == {}
    assert assemble(snapshot, [], build_basis(30, 2, 0.1), default_config).M == 0


def test_initial_condition_rows(basis30, default_config):
    snapshot = AgentSnapshot(
        position=np.array([0.1, 0.2, 0.3]),
        goal=np.array([1.0, 1.0, 1.0]),
        velocity=np.array([0.4, 0.5, 0.6]),
        acceleration=np.array([0.7, 0.8, 0.9]),
    )
    problem = assemble(snapshot, [], basis30, default_config)
    np.testing.assert_allclose(problem.e, [0.1, 0.4, 0.7, 0.2, 0.5, 0.8, 0.3, 0.6, 0.9])
    zeta = dense_kkt_qp(problem.shared.Q, problem.q, problem.shared.C, problem.e)
    pos, vel, acc = sample_trajectory(basis30, zeta)
    np.testing.assert_allclose(pos[0], snapshot.position, atol=1e-8)
    np.testing.assert_allclose(vel[0], snapshot.velocity, atol=1e-8)
    np.testing.assert_allclose(acc[0], snapshot.acceleration, atol=1e-7)


def test_planning_config_validation():
    with pytest.raises(ValueError):
        PlanningConfig(gamma=1.2)
    with pytest.raises(ValueError):
        PlanningConfig(p_min=(0, 0, 0), p_max=(1, 0, 1))
    with pytest.raises(ValueError, match="3-vectors"):
        PlanningConfig(p_min=(0, 0), p_max=(1, 1))


def test_planning_config_sets_only_gamma_and_box():
    """gamma and the workspace box are the settable values; every other planner
    value is a constant that reads on an instance with the benchmark's value."""
    assert [f.name for f in dataclasses.fields(PlanningConfig)] == ["gamma", "p_min", "p_max"]
    config = PlanningConfig(gamma=0.9, p_min=(-1, -1, 0), p_max=(1, 1, 1))
    constants = {
        "K": 30,
        "dt": 0.1,
        "n": 10,
        "w_goal": 7000.0,
        "w_smooth": 100.0,
        "kappa": 5,
        "v_max": 1.73,
        "f_min": 0.3 * GRAVITY,
        "f_max": 1.5 * GRAVITY,
        "theta_agent": EllipsoidShape(0.17, 0.17, 0.45),
        "theta_coll": EllipsoidShape(0.13, 0.13, 0.40),
        "theta_padding": EllipsoidShape(0.2, 0.2, 0.2),
    }
    for name, value in constants.items():
        assert getattr(config, name) == value and type(getattr(config, name)) is type(value), name


def test_assemble_rejects_basis_shorter_than_goal_window(default_config):
    """The goal cost pulls the last kappa = 5 samples, so a 4-step basis is an error."""
    snapshot = AgentSnapshot(position=np.zeros(3), goal=np.ones(3))
    with pytest.raises(ValueError, match="K >= kappa"):
        assemble(snapshot, [], build_basis(4, 3, 0.1), default_config)
    assert assemble(snapshot, [], build_basis(5, 3, 0.1), default_config).K == 5


def test_constraint_target_validation():
    with pytest.raises(ValueError):
        ConstraintTarget("wall", EllipsoidShape(1, 1, 1), np.zeros((30, 3)))
    with pytest.raises(ValueError):
        ConstraintTarget("obstacle", EllipsoidShape(1, 1, 1), np.zeros((30, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constraint_target_rejects_non_finite_centers(bad):
    centers = np.zeros((30, 3))
    centers[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ConstraintTarget("obstacle", EllipsoidShape(1, 1, 1), centers)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_planning_config_rejects_non_finite_box(bad):
    """Both used to pass the ``p_min >= p_max`` check; an infinite box makes S1's ``h - slack`` read inf - inf."""
    with pytest.raises(ValueError, match="finite"):
        PlanningConfig(p_min=(bad, -1.0, 0.0), p_max=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        PlanningConfig(p_min=(-1.0, -1.0, 0.0), p_max=(1.0, -bad, 1.0))


def test_build_b_rejects_mismatched_polar(basis30, default_config):
    problem = make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1])
    with pytest.raises(ValueError):
        build_b(problem, np.zeros(problem.n_rows + 3), np.zeros((problem.n_rows, 3)))
    with pytest.raises(ValueError):
        problem.target_rows(np.zeros(problem.n_rows + 3), np.zeros((problem.n_rows, 3)))


@pytest.mark.parametrize("rows", [1, 29, 31])
def test_assemble_rejects_a_track_without_k_rows(basis30, default_config, rows):
    """A 1-row track used to be broadcast over the horizon, a static target;
    29 rows failed inside numpy's copy."""
    target = ConstraintTarget("obstacle", EllipsoidShape(0.3, 0.3, 0.3), hover_plan(1.0, 0.0, 1.0, K=rows))
    with pytest.raises(ValueError, match="predicted centers must have 30 rows, got " + str(rows)):
        make_problem(basis30, default_config, [-1, 0, 1], [1, 0, 1], [target])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_assemble_rejects_a_target_at_a_non_finite_anchor(basis30, default_config):
    """A finite but tiny semi-axis makes the scaled distance overflow; the solve
    then never converges (gamma = 1) or meets a NaN bound (gamma < 1)."""
    tiny = ConstraintTarget("neighbor", EllipsoidShape(1e-200, 1e-200, 1e-200), hover_plan(1.0, 0.0, 1.0))
    far = cylinder_target(0.0, 1.5, 0.3)
    with pytest.raises(ValueError, match=r"target 1 \(neighbor, .*\) lies at a non-finite scaled distance"):
        make_problem(basis30, default_config, [0, 0, 1], [1, 0, 1], [far, tiny])


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("position", [0.0, np.nan, 1.0]),
        ("goal", [np.inf, 0.0, 0.0]),
        ("velocity", [1.0, 2.0]),
        ("acceleration", [[0.0], [0.0], [0.0]]),
    ],
)
def test_agent_snapshot_names_its_bad_field(field, value):
    fields = {"position": np.zeros(3), "goal": np.ones(3), field: value}
    with pytest.raises(ValueError, match=f"{field} must be a finite 3-vector"):
        AgentSnapshot(**fields)


def test_agent_snapshot_holds_float_copies_of_its_vectors():
    """The fields are converted once, stacked, so a later write to an input cannot reach the snapshot."""
    position, goal = np.array([1, 2, 3]), np.array([0.5, 0.5, 1.0])
    snapshot = AgentSnapshot(position=position, goal=goal, velocity=[0, 0, 1])
    goal[0] = 9.0
    assert snapshot.goal[0] == 0.5 and snapshot.position.dtype == float
    np.testing.assert_array_equal(snapshot.position, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(snapshot.velocity, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(snapshot.acceleration, np.zeros(3))


def test_goal_cost_and_bound_vector_are_built_once_per_goal_and_box(default_config):
    """``q`` and ``h`` keep the bits of the per-problem formula, are read-only,
    and are shared by every round with the same goal and box."""
    basis = build_basis(30, 10, 0.1)
    cfg, K = default_config, basis.K
    first = make_problem(basis, cfg, [-1, 0, 1], [1, 0, 1], [cylinder_target(0.4, 0.1, 0.3)])
    later = make_problem(basis, cfg, [0.2, 0.1, 1], [1, 0, 1])
    Wk = basis.W[K - cfg.kappa :, :]
    q = np.concatenate([-2.0 * cfg.w_goal * (Wk.T @ np.full(cfg.kappa, g)) for g in np.array([1.0, 0.0, 1.0])])
    h = np.concatenate([np.repeat(np.asarray(cfg.p_max), K), np.repeat(-np.asarray(cfg.p_min), K)])
    assert first.q.tobytes() == q.tobytes() and first.h.tobytes() == h.tobytes()
    assert later.q is first.q and later.h is first.h
    for name in ("q", "h"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(first, name)[0] = 1.0
    assert make_problem(basis, cfg, [-1, 0, 1], [1, 0, 1.5]).q is not first.q
    # Another config object with the same box shares the same h.
    same_box = PlanningConfig(gamma=0.9, p_min=tuple(cfg.p_min), p_max=tuple(cfg.p_max))
    assert same_box is not cfg and make_problem(basis, same_box, [0, 0, 1], [1, 0, 1]).h is first.h
    # A box that compares equal but has another signed zero keeps its own bits.
    signed = PlanningConfig(p_min=(-2.05, -2.05, 0.0), p_max=cfg.p_max)
    unsigned = PlanningConfig(p_min=(-2.05, -2.05, -0.0), p_max=cfg.p_max)
    assert signed == unsigned
    h_signed = make_problem(basis, signed, [0, 0, 1], [1, 0, 1]).h
    h_unsigned = make_problem(basis, unsigned, [0, 0, 1], [1, 0, 1]).h
    assert np.signbit(h_signed[-1]) and not np.signbit(h_unsigned[-1])


def clip_to_lower_bounds(problem):
    """S3 from a cold start with every row's difference zero, so every row clips to its lower bound."""
    diff = np.zeros((problem.n_rows, 3))
    omega_rows = np.tile([1.0, 0.0, 0.0], (problem.n_rows, 1))
    return step_s3(problem, SolverState.cold(problem), diff, omega_rows)


@settings(max_examples=60)
@given(
    gamma=st.one_of(st.sampled_from([0.0, 2.0**-53, 2.0**-51, 0.9, 1.0]), st.floats(0.0, 1.0)),
    anchors=st.lists(
        st.one_of(
            st.sampled_from([0.1, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0), 1.0]),
            st.floats(1e-3, 3.0),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_s3_step0_collision_bound_is_the_assembled_bound(basis30, gamma, anchors):
    """Step 0 is pinned to the measured state, and assembly alone sets its
    collision bound ``min(1, anchor)``: at every gamma S3 clips each target's
    step-0 magnitude to ``lo_base``'s step-0 entry, bit for bit."""
    start = np.array([0.0, 0.0, 1.0])
    targets = [
        ConstraintTarget("obstacle", EllipsoidShape(1.0, 1.0, 1.0), np.tile(start - [a, 0.0, 0.0], (basis30.K, 1)))
        for a in anchors
    ]
    problem = make_problem(basis30, PlanningConfig(gamma=gamma), start, [1.5, 0.0, 1.0], targets)
    step0 = slice(2 * problem.K, None, problem.K)
    assert problem.lo_base[step0].tobytes() == np.minimum(1.0, problem.anchors).tobytes()
    assert clip_to_lower_bounds(problem)[step0].tobytes() == problem.lo_base[step0].tobytes()


def test_s3_step0_bound_is_the_exact_anchor_at_gamma_zero(basis30):
    """At gamma = 0 a target 0.1 m away bounds step 0 by the measured 0.1,
    not by the barrier's ``1 + (0.1 - 1)``, which rounds to 0.09999999999999998."""
    target = ConstraintTarget("obstacle", EllipsoidShape(1.0, 1.0, 1.0), np.tile([0.0, 0.0, 1.0], (basis30.K, 1)))
    problem = make_problem(basis30, PlanningConfig(gamma=0.0), [0.1, 0.0, 1.0], [1.5, 0.0, 1.0], [target])
    assert problem.anchors[0] == 0.1
    assert clip_to_lower_bounds(problem)[2 * problem.K] == 0.1
