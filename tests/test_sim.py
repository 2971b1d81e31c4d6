import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmplan import sim
from swarmplan.polar import EllipsoidShape
from swarmplan.problem import GRAVITY, AgentSnapshot, PlanningConfig
from swarmplan.scenario import Obstacle, Scenario, antipodal, generate_random
from swarmplan.sim import (
    check_collision,
    check_goal_reached,
    declared_obstacle_axes,
    default_planning_config,
    replay_outcome,
    run_mission,
    separations,
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


def test_run_mission_rejects_bad_mode_before_round_zero():
    """``mode="bf"``, the keyword the benchmark harness passes, is the only
    mode left; any other, the old ``"standard"`` too, is rejected before the
    first round, even for a mission that is over at round 0."""
    scenario = Scenario(seed=0, agents=[(np.array([0.3, 0.2, 1.0]), np.array([0.3, 0.2, 1.0]))], workspace=WS)
    for mode in ("standard", "barrier"):
        with pytest.raises(ValueError, match="mode must be 'bf'"):
            run_mission(scenario, mode=mode)
    assert run_mission(scenario, PlanningConfig(gamma=0.9), mode="bf").success


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
    assert check_collision(separations(positions, [], COLL.as_array)) == []
    positions[1, 0] = 0.10
    violations = check_collision(separations(positions, [], COLL.as_array))
    assert len(violations) == 1 and violations[0][:2] == ("agent0", "agent1")


def test_check_collision_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(50):
        positions = rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 1.5], size=(6, 3))
        obstacles = [
            (rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 1.5]), rng.uniform(0.1, 0.5, 3)) for _ in range(3)
        ]
        got = {v[:2] for v in check_collision(separations(positions, obstacles, COLL.as_array))}
        expected = set(brute_force_collisions(positions, obstacles, COLL.as_array))
        assert got == expected


@settings(max_examples=100)
@given(
    n_agents=st.integers(1, 6),
    n_obstacles=st.integers(0, 3),
    spread=st.floats(-3.0, 3.0),
    size=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_separations_are_the_numpy_norms(n_agents, n_obstacles, spread, size, seed):
    """Every separation carries the bits of ``np.linalg.norm`` of its pair's scaled
    difference, for positions and semi-axes at scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (n_agents, 3)) * 10.0**spread
    coll_axes = rng.uniform(0.5, 2.0, 3) * 10.0**size
    obstacles = [
        (rng.uniform(-1.0, 1.0, 3) * 10.0**spread, rng.uniform(0.5, 2.0, 3) * 10.0**size) for _ in range(n_obstacles)
    ]
    pair, obstacle = separations(positions, obstacles, coll_axes)
    i, j = np.triu_indices(n_agents, 1)
    assert pair.shape == i.shape and obstacle.shape == (n_obstacles, n_agents)
    for p in range(len(i)):
        assert pair[p].tobytes() == np.linalg.norm((positions[i[p]] - positions[j[p]]) / coll_axes).tobytes()
    for k, (center, axes) in enumerate(obstacles):
        for a in range(n_agents):
            assert obstacle[k, a].tobytes() == np.linalg.norm((positions[a] - center) / axes).tobytes()


def test_goal_check_boundary_is_inclusive():
    at_goal = AgentSnapshot(position=np.array([0.1, 0.0, 1.0]), goal=np.array([0.0, 0.0, 1.0]))
    assert check_goal_reached(at_goal)
    away = AgentSnapshot(position=np.array([0.5, 0.0, 1.0]), goal=np.array([0.0, 0.0, 1.0]))
    assert not check_goal_reached(away)
    fast = AgentSnapshot(
        position=np.array([0.0, 0.0, 1.0]), goal=np.array([0.0, 0.0, 1.0]), velocity=np.array([0.5, 0, 0])
    )
    assert not check_goal_reached(fast)


def test_declared_obstacle_axes_deflate_by_agent_margin():
    axes = declared_obstacle_axes(EllipsoidShape(0.3, 0.3, 1e6))
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


def test_nonconverged_solves_execute_best_iterate_without_failing(monkeypatch):
    monkeypatch.setattr(SolverConfig, "maxiter", 2)
    monkeypatch.setattr(sim, "MISSION_TIME_LIMIT", 2.0)
    scenario = two_agent_scenario([-1.0, 0.0, 1.0], [1.0, 0.05, 1.0], [1.0, 0.0, 1.0], [-1.0, 0.05, 1.0])
    report = run_mission(scenario)
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


def test_success_needs_the_goal_within_the_time_limit(monkeypatch):
    """The agent reaches its goal at round 34, when the clock reads
    34 * 0.1 = 3.4000000000000004 s: past a 3.35 s limit, inside a 3.4 s one.
    The report and the replay of its dump agree in both cases."""
    scenario = Scenario(seed=0, agents=[(np.array([0.0, 0, 1.0]), np.array([0.5, 0, 1.0]))], workspace=WS)
    for time_limit, inside in ((3.35, False), (3.4, True)):
        monkeypatch.setattr(sim, "MISSION_TIME_LIMIT", time_limit)
        report = run_mission(scenario, record_trajectory=True)
        assert report.rounds == 34
        assert report.success == inside and report.timeout == (not inside)
        assert replay_outcome(report.trajectory)["success"] == inside


# sha256 of canonical_bytes() for generate_random(1, 4, 4, WS) in bf mode at each gamma.
GOLDEN_DIGESTS = {
    1.0: "79e5f27a58cefe999c432099440240c0dbddb72fc99b0506b396725175b0a7c7",
    0.9: "d70277d84d70c789a85e7add695e6e1be339865a758d2bc57eadf9d17af8faa6",
}


@pytest.mark.parametrize("gamma", sorted(GOLDEN_DIGESTS))
def test_short_missions_keep_their_golden_digests(gamma):
    """Pinned report digests of two short missions (4 agents, 4 cylinders, 54 rounds).

    A last-bit change in assembly or S1 can flip a later mission outcome, so
    tier-1 pins the bits; a change that alters them by design updates the pins
    and says why.  Recorded on x86-64 with Python 3.11, numpy 2.4.6, scipy
    1.17.1 and the OpenBLAS 0.3.31 that numpy's wheel bundles
    (scipy-openblas64); another BLAS build or CPU kernel may round differently.
    """
    scenario = generate_random(1, 4, 4, WS)
    report = run_mission(scenario, default_planning_config(scenario, gamma), mode="bf")
    assert report.success and report.rounds == 54
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == GOLDEN_DIGESTS[gamma]


# sha256 of canonical_bytes() for generate_random(0, 32, 0, CROWD_WS) with a 1 s clock.
CROWD_WS = (np.array([-4.0, -4.0, 0.0]), np.array([4.0, 4.0, 2.0]))
CROWD_DIGEST = "47efc7b6a441baa4062ebd48f65d618f9d0c9e2b3d8f7c2c5ebc44adb92204f9"


def test_crowd_mission_keeps_its_golden_digest(monkeypatch):
    """Pinned report digest of a 32-agent mission cut at 1 s (11 rounds), so
    tier-1 pins the bits of a swarm-wide conflict selection, which the
    4-agent goldens above hardly exercise.  Recorded on the platform the
    goldens above name."""
    monkeypatch.setattr(sim, "MISSION_TIME_LIMIT", 1.0)
    report = run_mission(generate_random(0, 32, 0, CROWD_WS))
    assert report.timeout and report.rounds == 11
    assert hashlib.sha256(report.canonical_bytes()).hexdigest() == CROWD_DIGEST


@settings(max_examples=6)
@given(n_agents=st.integers(2, 6), earlier=st.integers(1, 8), n_obstacles=st.integers(0, 3), seed=st.integers(0, 99))
def test_canonical_bytes_do_not_depend_on_an_earlier_missions_agent_count(n_agents, earlier, n_obstacles, seed):
    """A mission cut at 1 s gives the same report bytes whether it runs first
    or after a mission with another number of agents in the same process."""
    assume(earlier != n_agents)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "MISSION_TIME_LIMIT", 1.0)
        scenario = generate_random(seed, n_agents, n_obstacles, WS)
        first = run_mission(scenario).canonical_bytes()
        run_mission(generate_random(seed + 1, earlier, n_obstacles, WS))
        assert run_mission(scenario).canonical_bytes() == first


def test_report_serialization_excludes_timing_in_canonical_bytes():
    scenario = Scenario(seed=0, agents=[(np.array([0.0, 0, 1.0]), np.array([0.5, 0, 1.0]))], workspace=WS)
    report = run_mission(scenario)
    assert b"compute" not in report.canonical_bytes()
    assert "per_agent_compute_us" in report.to_record(include_timing=True)


def test_moving_obstacle_advances_each_round(monkeypatch):
    monkeypatch.setattr(sim, "MISSION_TIME_LIMIT", 1.0)
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
    report = run_mission(scenario, record_trajectory=True)
    rounds = report.trajectory["rounds"]
    assert report.success  # agent already at its goal
    # ensure the recorded first-round obstacle center matches the scenario
    np.testing.assert_allclose(rounds[0]["obstacle_centers"][0], [2.0, 0.0, 1.0])
