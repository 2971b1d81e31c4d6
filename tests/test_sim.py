import numpy as np
import pytest

from swarmplan.polar import EllipsoidShape
from swarmplan.problem import GRAVITY, AgentSnapshot, PlanningConfig
from swarmplan.scenario import Obstacle, Scenario, antipodal, generate_random
from swarmplan.sim import (
    MissionReport,
    check_collision,
    check_goal_reached,
    declared_obstacle_axes,
    replay_outcome,
    run_mission,
)
from swarmplan.solver import SolverConfig

from oracles import brute_force_collisions

WS = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
COLL = EllipsoidShape(0.13, 0.13, 0.40)


def two_agent_scenario(p0, p1, g0=None, g1=None):
    g0 = p0 if g0 is None else g0
    g1 = p1 if g1 is None else g1
    return Scenario(
        seed=0,
        agents=[(np.asarray(p0, float), np.asarray(g0, float)), (np.asarray(p1, float), np.asarray(g1, float))],
        workspace=WS,
    )


def test_mission_already_at_goal_succeeds_immediately():
    scenario = Scenario(seed=0, agents=[(np.array([0.3, 0.2, 1.0]), np.array([0.3, 0.2, 1.0]))], workspace=WS)
    report = run_mission(scenario)
    assert report.success and report.rounds == 0 and report.mission_time == 0.0
    assert report.collision_events == []


def test_mission_with_coincident_agents_declares_collision_at_round_zero():
    scenario = two_agent_scenario([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0, 1], [-1.0, 0, 1])
    report = run_mission(scenario)
    assert not report.success
    assert report.rounds == 0
    assert any(event[0] == 0 for event in report.collision_events)


def test_two_agent_antipodal_exchange_succeeds_cleanly():
    report = run_mission(antipodal(2, radius=1.5, height=1.0))
    assert report.success and not report.timeout
    assert report.mission_time <= 20.0
    assert report.collision_events == []
    assert all(m is None or m >= 1.0 for m in report.min_inter_agent)


def test_check_collision_threshold_cases():
    positions = np.array([[0.0, 0, 1.0], [0.14, 0, 1.0]])
    assert check_collision(positions, [], COLL) == []
    positions[1, 0] = 0.10
    violations = check_collision(positions, [], COLL)
    assert len(violations) == 1 and violations[0][:2] == ("agent0", "agent1")


def test_check_collision_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(50):
        positions = rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 1.5], size=(6, 3))
        obstacles = [
            (rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 1.5]), rng.uniform(0.1, 0.5, 3)) for _ in range(3)
        ]
        got = {v[:2] for v in check_collision(positions, obstacles, COLL)}
        expected = set(brute_force_collisions(positions, obstacles, COLL.as_array))
        assert got == expected


def test_goal_check_boundary_is_inclusive():
    at_goal = AgentSnapshot(position=np.array([0.1, 0.0, 1.0]), goal=np.array([0.0, 0.0, 1.0]))
    assert check_goal_reached(at_goal, at_goal.goal, tol_pos=0.1, tol_vel=0.2)
    away = AgentSnapshot(position=np.array([0.5, 0.0, 1.0]), goal=np.array([0.0, 0.0, 1.0]))
    assert not check_goal_reached(away, away.goal)
    fast = AgentSnapshot(
        position=np.array([0.0, 0.0, 1.0]), goal=np.array([0.0, 0.0, 1.0]), velocity=np.array([0.5, 0, 0])
    )
    assert not check_goal_reached(fast, fast.goal)


def test_declared_obstacle_axes_deflate_by_agent_margin():
    config = PlanningConfig()
    axes = declared_obstacle_axes(EllipsoidShape(0.3, 0.3, 1e6), config)
    np.testing.assert_allclose(axes[:2], 0.26)
    assert axes[2] > 1e5


def test_mission_time_equals_rounds_times_dt():
    scenario = two_agent_scenario([-1.0, 0.3, 1.0], [1.0, -0.3, 1.0], [1.0, 0.3, 1.0], [-1.0, -0.3, 1.0])
    report = run_mission(scenario)
    assert report.success
    assert report.mission_time == pytest.approx(report.rounds * 0.1)
    assert len(report.min_inter_agent) == report.rounds + 1


def test_repeated_runs_produce_identical_reports():
    first = run_mission(generate_random(5, 4, 6, WS))
    second = run_mission(generate_random(5, 4, 6, WS))
    assert first.canonical_bytes() == second.canonical_bytes()


def test_executed_kinematics_respect_bounds_on_success():
    scenario = generate_random(9, 3, 6, WS)
    report = run_mission(scenario, record_trajectory=True)
    assert report.success
    config = PlanningConfig()
    rounds = report.trajectory["rounds"]
    for prev, cur in zip(rounds, rounds[1:]):
        v = np.asarray(cur["velocities"])
        assert np.linalg.norm(v, axis=1).max() <= config.v_max + 0.05
        # thrust from executed velocity differences
        acc = (np.asarray(cur["velocities"]) - np.asarray(prev["velocities"])) / 0.1
        thrust = np.linalg.norm(acc + np.array([0.0, 0.0, GRAVITY]), axis=1)
        assert thrust.max() <= config.f_max + 0.05 * GRAVITY
        assert thrust.min() >= config.f_min - 0.05 * GRAVITY


def test_nonconverged_solves_execute_best_iterate_without_failing():
    scenario = two_agent_scenario([-1.0, 0.0, 1.0], [1.0, 0.05, 1.0], [1.0, 0.0, 1.0], [-1.0, 0.05, 1.0])
    report = run_mission(scenario, solver_config=SolverConfig(maxiter=2), time_limit=2.0)
    assert report.nonconverged_solves > 0
    assert report.rounds > 0


def test_replay_outcome_matches_report():
    for seed in (1, 5):
        scenario = generate_random(seed, 4, 8, WS)
        report = run_mission(scenario, record_trajectory=True)
        replay = replay_outcome(report.trajectory)
        assert replay["success"] == report.success
        assert (len(replay["collision_rounds"]) > 0) == (len(report.collision_events) > 0)
        assert replay["min_inter_agent"] == report.min_inter_agent
        assert replay["min_obstacle"] == report.min_obstacle


def test_report_serialization_excludes_timing_in_canonical_bytes():
    scenario = Scenario(seed=0, agents=[(np.array([0.0, 0, 1.0]), np.array([0.5, 0, 1.0]))], workspace=WS)
    report = run_mission(scenario)
    assert b"compute" not in report.canonical_bytes()
    assert "per_agent_compute_us" in report.to_record(include_timing=True)


def test_moving_obstacle_advances_each_round():
    obstacle = Obstacle(
        center=np.array([2.0, 0.0, 1.0]),
        velocity=np.array([-0.5, 0.0, 0.0]),
        shape=EllipsoidShape(0.3, 0.3, 1e6),
    )
    scenario = Scenario(
        seed=0,
        agents=[(np.array([-1.5, 1.5, 1.0]), np.array([-1.5, 1.5, 1.0]))],
        obstacles=[obstacle],
        workspace=WS,
    )
    report = run_mission(scenario, record_trajectory=True, time_limit=1.0)
    rounds = report.trajectory["rounds"]
    assert report.success  # agent already at its goal
    # ensure the recorded first-round obstacle center matches the scenario
    np.testing.assert_allclose(rounds[0]["obstacle_centers"][0], [2.0, 0.0, 1.0])
