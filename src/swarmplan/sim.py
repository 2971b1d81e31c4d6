"""Headless synchronous receding-horizon swarm simulator.

Each round the plans all agents published in the previous round are shifted
forward one step (terminal sample held), and one conflict test over the whole
swarm selects every agent's conflict set.  Each agent then assembles and
solves its own problem, and the whole swarm advances one step with perfect
tracking of the freshly planned trajectories.  Rounds repeat until every
agent reaches its goal, a collision is declared on the executed states, or
the mission clock runs out.

The agents of a round are planned one after another in agent-index order, on
the calling thread; a scenario plus configuration determines the report
(wall-clock timings aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .bernstein import build_basis, sample_trajectory
from .problem import AgentSnapshot, PlanningConfig, assemble, detect_conflicts
from .scenario import Obstacle, Scenario
from .solver import solve

MISSION_TIME_LIMIT = 20.0
# round * dt can round above the exact clock (12 * 0.1 = 1.2000000000000002).
CLOCK_TOL = 1e-9
GOAL_TOL_POS = 0.1
GOAL_TOL_VEL = 0.2
PLANNING_MARGIN = 0.05


@dataclass
class MissionReport:
    """Outcome and per-round metrics of one mission.

    ``min_inter_agent`` / ``min_obstacle`` hold, per round, the smallest
    scaled separation (values below 1 mean a declared collision); ``None``
    when there is no pair/obstacle to measure.  ``per_agent_compute_us``
    holds, per agent and round, the wall-clock time of its plan: its
    assembly and solve plus a 1/N share of the round's conflict selection,
    which runs once for all N agents.  Timings are excluded from the canonical
    byte serialization used for determinism checks.
    """

    success: bool
    timeout: bool
    mission_time: float
    rounds: int
    collision_events: list[tuple[int, str, str, float]]
    min_inter_agent: list[float | None]
    min_obstacle: list[float | None]
    per_agent_compute_us: list[list[float]]
    nonconverged_solves: int
    trajectory: dict | None = field(default=None, repr=False)

    def to_record(self, include_timing: bool = True) -> dict:
        record = {
            "success": self.success,
            "timeout": self.timeout,
            "mission_time": self.mission_time,
            "rounds": self.rounds,
            "collision_events": [list(e) for e in self.collision_events],
            "min_inter_agent": self.min_inter_agent,
            "min_obstacle": self.min_obstacle,
            "nonconverged_solves": self.nonconverged_solves,
        }
        if include_timing:
            record["per_agent_compute_us"] = self.per_agent_compute_us
        return record

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_record(include_timing), sort_keys=True)

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: everything except wall-clock timings."""
        return self.to_json(include_timing=False).encode("utf-8")


def _row_norms(diff: np.ndarray) -> np.ndarray:
    # A batched 1x3 @ 3x1 product sums like np.linalg.norm on each row alone;
    # np.linalg.norm(diff, axis=-1) sums in another order and can differ in
    # the last bit.
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


def separations(
    positions: np.ndarray,
    obstacles: list[tuple[np.ndarray, np.ndarray]],
    coll_axes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled separations of every agent pair and every agent-obstacle pair.

    Returns the agent pairs ``i < j`` in row-major order (the order of
    ``np.triu_indices``), scaled by ``coll_axes``, and an
    ``n_obstacles x n_agents`` array for the ``(center, semi_axes)``
    obstacles.  Each value equals ``np.linalg.norm`` of that pair's scaled
    difference vector bit for bit.
    """
    i, j = np.triu_indices(positions.shape[0], 1)
    centers = np.reshape([center for center, _ in obstacles], (-1, 1, 3))
    axes = np.reshape([ax for _, ax in obstacles], (-1, 1, 3))
    return _row_norms((positions[i] - positions[j]) / coll_axes), _row_norms((positions - centers) / axes)


def check_collision(separated: tuple[np.ndarray, np.ndarray]) -> list[tuple[str, str, float]]:
    """Declared-collision test on the :func:`separations` of executed states.

    Returns one ``(label_a, label_b, metric)`` entry per pair whose scaled
    separation is below 1, that is, inside the declaration envelope.
    """
    pair, obstacle = separated
    i, j = np.triu_indices(obstacle.shape[1], 1)
    violations = [(f"agent{i[p]}", f"agent{j[p]}", float(pair[p])) for p in np.flatnonzero(pair < 1.0)]
    for k, a in zip(*np.nonzero(obstacle < 1.0)):
        violations.append((f"agent{a}", f"obstacle{k}", float(obstacle[k, a])))
    return violations


def check_goal_reached(snapshot: AgentSnapshot) -> bool:
    """True once the agent is within ``GOAL_TOL_POS`` of its goal and slower than ``GOAL_TOL_VEL`` (inclusive)."""
    at_goal = np.linalg.norm(snapshot.position - snapshot.goal) <= GOAL_TOL_POS
    return bool(at_goal and np.linalg.norm(snapshot.velocity) <= GOAL_TOL_VEL)


def declared_obstacle_axes(shape) -> np.ndarray:
    """Declaration envelope for an obstacle: its planning envelope deflated by
    the same margin agents enjoy between planning and declared shapes."""
    margin = PlanningConfig.theta_agent.as_array - PlanningConfig.theta_coll.as_array
    return np.maximum(shape.as_array - margin, 1e-6)


def default_planning_config(scenario: Scenario, gamma: float = 1.0) -> PlanningConfig:
    """Default planner settings for a scenario: position samples are bounded
    by the scenario volume inflated by ``PLANNING_MARGIN`` on every side."""
    lo, hi = scenario.workspace
    return PlanningConfig(gamma=gamma, p_min=tuple(lo - PLANNING_MARGIN), p_max=tuple(hi + PLANNING_MARGIN))


def run_mission(
    scenario: Scenario,
    planning_config: PlanningConfig | None = None,
    mode: str = "bf",
    record_trajectory: bool = False,
) -> MissionReport:
    """Simulate one mission and return its report.

    ``planning_config`` defaults to :func:`default_planning_config`, and the
    barrier runs at its ``gamma``; gamma = 1 is the plain bound.  ``mode``
    accepts only ``"bf"``, any other value raises :class:`ValueError` before
    the first round; the keyword goes with the next change to ``perfbench/``,
    which passes it.
    The published plans are one ``n_agents x K x 3`` array of positions.  A
    round more than ``CLOCK_TOL`` past ``MISSION_TIME_LIMIT`` is a timeout,
    even with every agent at its goal.  Non-convergent solves execute their
    best iterate and are only counted, never treated as mission failures.
    """
    if planning_config is None:
        planning_config = default_planning_config(scenario)
    if mode != "bf":
        raise ValueError(f"mode must be 'bf', got {mode!r}")
    config = planning_config
    basis = build_basis(config.K, config.n, config.dt)
    K, dt = config.K, config.dt
    n_agents = scenario.n_agents

    snapshots = [AgentSnapshot(position=s.copy(), goal=g.copy()) for s, g in scenario.agents]
    plans = np.repeat([[s] for s, _ in scenario.agents], K, axis=1)  # every agent hovers at its start
    obstacles = [Obstacle(o.center.copy(), o.velocity.copy(), o.shape, o.kind) for o in scenario.obstacles]
    declared_axes = [declared_obstacle_axes(o.shape) for o in obstacles]
    coll_axes = config.theta_coll.as_array

    per_agent_compute: list[list[float]] = [[] for _ in range(n_agents)]
    min_inter: list[float | None] = []
    min_obstacle: list[float | None] = []
    collision_events: list[tuple[int, str, str, float]] = []
    trajectory_rounds: list[dict] = []
    nonconverged = 0
    success = timeout = False
    round_index = 0

    while True:
        positions = np.array([snap.position for snap in snapshots])
        velocities = np.array([snap.velocity for snap in snapshots])

        declared = [(o.center, ax) for o, ax in zip(obstacles, declared_axes)]
        separated = pair, obstacle = separations(positions, declared, coll_axes)
        min_inter.append(min(pair.tolist(), default=None))
        min_obstacle.append(min(obstacle.ravel().tolist(), default=None))
        if record_trajectory:
            trajectory_rounds.append(
                {
                    "positions": positions.tolist(),
                    "velocities": velocities.tolist(),
                    "obstacle_centers": [obs.center.tolist() for obs in obstacles],
                }
            )

        violations = check_collision(separated)
        if violations:
            collision_events.extend((round_index, a, b, m) for a, b, m in violations)
            break
        if round_index * dt > MISSION_TIME_LIMIT + CLOCK_TOL:
            timeout = True
            break
        if all(check_goal_reached(s) for s in snapshots):
            success = True
            break

        # Last round's plans one step on, terminal sample held.  The index array
        # makes a copy, so agent i's new plan below cannot affect a later solve.
        shifted = plans[:, np.r_[1:K, K - 1]]
        obstacle_tracks = [(o.shape, o.predicted_centers(K, dt)) for o in obstacles]
        t0 = time.perf_counter()
        conflicts = detect_conflicts(shifted, obstacle_tracks)
        selection_us = (time.perf_counter() - t0) * 1e6 / n_agents
        for i, targets in enumerate(conflicts):
            t0 = time.perf_counter()
            problem = assemble(snapshots[i], targets, basis, config)
            zeta, diag = solve(problem)
            per_agent_compute[i].append(selection_us + (time.perf_counter() - t0) * 1e6)
            pos, vel, acc = sample_trajectory(basis, zeta)
            nonconverged += not diag.converged
            snapshots[i] = AgentSnapshot(position=pos[1], goal=snapshots[i].goal, velocity=vel[1], acceleration=acc[1])
            plans[i] = pos
        for obs in obstacles:
            obs.center = obs.center + obs.velocity * dt
        round_index += 1

    report = MissionReport(
        success=success,
        timeout=timeout,
        mission_time=round_index * dt,
        rounds=round_index,
        collision_events=collision_events,
        min_inter_agent=min_inter,
        min_obstacle=min_obstacle,
        per_agent_compute_us=per_agent_compute,
        nonconverged_solves=nonconverged,
    )
    if record_trajectory:
        report.trajectory = {
            "dt": dt,
            "time_limit": MISSION_TIME_LIMIT,
            "goal_tol_pos": GOAL_TOL_POS,
            "goal_tol_vel": GOAL_TOL_VEL,
            "goals": [g.tolist() for _, g in scenario.agents],
            "theta_coll": coll_axes.tolist(),
            "obstacle_axes": [ax.tolist() for ax in declared_axes],
            "obstacle_velocities": [o.velocity.tolist() for o in scenario.obstacles],
            "rounds": trajectory_rounds,
        }
    return report


def replay_outcome(trajectory: dict) -> dict:
    """Recompute the mission outcome purely from a trajectory dump.

    Used as an independent check that a report's success flag and distance
    metrics follow from the executed states alone.
    """
    dt = trajectory["dt"]
    goals = np.asarray(trajectory["goals"])
    coll_axes = np.asarray(trajectory["theta_coll"])
    obstacle_axes = [np.asarray(ax) for ax in trajectory["obstacle_axes"]]
    tol_pos = trajectory["goal_tol_pos"]
    tol_vel = trajectory["goal_tol_vel"]

    collision_rounds: list[int] = []
    min_inter: list[float | None] = []
    min_obstacle: list[float | None] = []
    success = False
    final_round = len(trajectory["rounds"]) - 1
    for r, row in enumerate(trajectory["rounds"]):
        positions = np.asarray(row["positions"])
        velocities = np.asarray(row["velocities"])
        obstacles = list(zip(row["obstacle_centers"], obstacle_axes))
        separated = pair, obstacle = separations(positions, obstacles, coll_axes)
        min_inter.append(min(pair.tolist(), default=None))
        min_obstacle.append(min(obstacle.ravel().tolist(), default=None))
        if check_collision(separated):
            collision_rounds.append(r)
        at_goal = all(
            np.linalg.norm(positions[i] - goals[i]) <= tol_pos and np.linalg.norm(velocities[i]) <= tol_vel
            for i in range(len(goals))
        )
        if r == final_round and at_goal and not collision_rounds and r * dt <= trajectory["time_limit"] + CLOCK_TOL:
            success = True
    return {
        "success": success,
        "collision_rounds": collision_rounds,
        "min_inter_agent": min_inter,
        "min_obstacle": min_obstacle,
        "mission_time": final_round * dt,
    }
