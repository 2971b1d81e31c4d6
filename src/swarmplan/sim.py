"""Headless synchronous receding-horizon swarm simulator.

Each round every agent reads the plans all agents published in the previous
round (shifted forward one step, terminal sample held), selects its conflict
set, assembles and solves its own problem, and then the whole swarm advances
one step with perfect tracking of the freshly planned trajectories.  Rounds
repeat until every agent reaches its goal, a collision is declared on the
executed states, or the mission clock runs out.

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
from .solver import SolverConfig, solve

MISSION_TIME_LIMIT = 20.0
GOAL_TOL_POS = 0.1
GOAL_TOL_VEL = 0.2


@dataclass
class WorldState:
    """Mutable simulation state between rounds."""

    round_index: int
    snapshots: list[AgentSnapshot]
    plans: list[tuple[np.ndarray, np.ndarray]]  # published (positions, velocities), K x 3 each
    obstacles: list[Obstacle]
    dt: float

    @property
    def elapsed(self) -> float:
        """Mission clock in seconds; advances by exactly dt per round."""
        return self.round_index * self.dt


@dataclass
class MissionReport:
    """Outcome and per-round metrics of one mission.

    ``min_inter_agent`` / ``min_obstacle`` hold, per round, the smallest
    scaled separation (values below 1 mean a declared collision); ``None``
    when there is no pair/obstacle to measure.  ``per_agent_compute_us``
    holds, per agent and round, the wall-clock time of its plan: conflict
    selection, assembly and solve.  Timings are excluded from the canonical
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


def check_collision(
    positions: np.ndarray,
    obstacles: list[tuple[np.ndarray, np.ndarray]],
    theta_coll,
) -> list[tuple[str, str, float]]:
    """Declared-collision test on executed states.

    ``obstacles`` carries ``(center, semi_axes)`` pairs already expressed as
    the declaration envelope.  Returns one ``(label_a, label_b, metric)``
    entry per violating pair, with metric below 1 meaning the scaled
    separation is inside the envelope.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    coll_axes = theta_coll.as_array if hasattr(theta_coll, "as_array") else np.asarray(theta_coll, dtype=float)
    pair, obstacle = separations(positions, obstacles, coll_axes)
    i, j = np.triu_indices(positions.shape[0], 1)
    violations = [(f"agent{i[p]}", f"agent{j[p]}", float(pair[p])) for p in np.flatnonzero(pair < 1.0)]
    for k, a in zip(*np.nonzero(obstacle < 1.0)):
        violations.append((f"agent{a}", f"obstacle{k}", float(obstacle[k, a])))
    return violations


def check_goal_reached(snapshot: AgentSnapshot, goal, tol_pos: float = GOAL_TOL_POS, tol_vel: float = GOAL_TOL_VEL) -> bool:
    """True once the agent is within ``tol_pos`` of the goal and slower than ``tol_vel`` (inclusive)."""
    goal = np.asarray(goal, dtype=float)
    return bool(
        np.linalg.norm(snapshot.position - goal) <= tol_pos and np.linalg.norm(snapshot.velocity) <= tol_vel
    )


def _shift_plan(positions: np.ndarray) -> np.ndarray:
    """Advance a published plan by one step, holding the terminal sample."""
    shifted = np.empty_like(positions)
    shifted[:-1] = positions[1:]
    shifted[-1] = positions[-1]
    return shifted


def declared_obstacle_axes(shape, config: PlanningConfig) -> np.ndarray:
    """Declaration envelope for an obstacle: its planning envelope deflated by
    the same margin agents enjoy between planning and declared shapes."""
    margin = config.theta_agent.as_array - config.theta_coll.as_array
    return np.maximum(shape.as_array - margin, 1e-6)


def run_mission(
    scenario: Scenario,
    planning_config: PlanningConfig | None = None,
    solver_config: SolverConfig | None = None,
    mode: str = "standard",
    time_limit: float = MISSION_TIME_LIMIT,
    goal_tol_pos: float = GOAL_TOL_POS,
    goal_tol_vel: float = GOAL_TOL_VEL,
    record_trajectory: bool = False,
) -> MissionReport:
    """Simulate one mission and return its report.

    The planning workspace defaults to the scenario volume inflated by
    0.05 m.  Non-convergent solves execute their best iterate and are only
    counted, never treated as mission failures.
    """
    if planning_config is None:
        lo, hi = scenario.workspace
        planning_config = PlanningConfig(p_min=tuple(lo - 0.05), p_max=tuple(hi + 0.05))
    solver_config = solver_config or SolverConfig()
    config = planning_config
    basis = build_basis(config.K, config.n, config.dt)
    K, dt = config.K, config.dt
    n_agents = scenario.n_agents

    world = WorldState(
        round_index=0,
        snapshots=[AgentSnapshot(position=s.copy(), goal=g.copy()) for s, g in scenario.agents],
        plans=[(np.tile(s, (K, 1)), np.zeros((K, 3))) for s, _ in scenario.agents],
        obstacles=[Obstacle(o.center.copy(), o.velocity.copy(), o.shape, o.kind) for o in scenario.obstacles],
        dt=dt,
    )
    declared_axes = [declared_obstacle_axes(o.shape, config) for o in world.obstacles]

    per_agent_compute: list[list[float]] = [[] for _ in range(n_agents)]
    min_inter: list[float | None] = []
    min_obstacle: list[float | None] = []
    collision_events: list[tuple[int, str, str, float]] = []
    trajectory_rounds: list[dict] = []
    nonconverged = 0
    success = timeout = False

    while True:
        positions = np.array([snap.position for snap in world.snapshots])
        velocities = np.array([snap.velocity for snap in world.snapshots])

        declared = [(o.center, ax) for o, ax in zip(world.obstacles, declared_axes)]
        pair, obstacle = separations(positions, declared, config.theta_coll.as_array)
        min_inter.append(min(pair.tolist(), default=None))
        min_obstacle.append(min(obstacle.ravel().tolist(), default=None))
        if record_trajectory:
            trajectory_rounds.append(
                {
                    "positions": positions.tolist(),
                    "velocities": velocities.tolist(),
                    "obstacle_centers": [obs.center.tolist() for obs in world.obstacles],
                }
            )

        violations = check_collision(positions, declared, config.theta_coll)
        if violations:
            collision_events.extend((world.round_index, a, b, m) for a, b, m in violations)
            break
        if all(check_goal_reached(s, s.goal, goal_tol_pos, goal_tol_vel) for s in world.snapshots):
            success = True
            break
        if world.elapsed > time_limit + 1e-9:
            timeout = True
            break

        # Every agent plans from the plans published last round, so updating
        # agent i's state and plan below cannot affect a later agent's solve.
        shifted = [_shift_plan(p) for p, _ in world.plans]
        obstacle_tracks = [(o.shape, o.predicted_centers(K, dt)) for o in world.obstacles]
        for i in range(n_agents):
            neighbor_plans = {j: shifted[j] for j in range(n_agents) if j != i}
            t0 = time.perf_counter()
            targets = detect_conflicts(shifted[i], neighbor_plans, obstacle_tracks, config)
            problem = assemble(world.snapshots[i], targets, basis, config)
            zeta, diag = solve(problem, solver_config, mode)
            per_agent_compute[i].append((time.perf_counter() - t0) * 1e6)
            pos, vel, acc = sample_trajectory(basis, zeta)
            nonconverged += not diag.converged
            world.snapshots[i] = AgentSnapshot(
                position=pos[1], goal=world.snapshots[i].goal, velocity=vel[1], acceleration=acc[1]
            )
            world.plans[i] = (pos, vel)
        for obs in world.obstacles:
            obs.center = obs.center + obs.velocity * dt
        world.round_index += 1

    report = MissionReport(
        success=success,
        timeout=timeout,
        mission_time=world.elapsed,
        rounds=world.round_index,
        collision_events=collision_events,
        min_inter_agent=min_inter,
        min_obstacle=min_obstacle,
        per_agent_compute_us=per_agent_compute,
        nonconverged_solves=nonconverged,
    )
    if record_trajectory:
        report.trajectory = {
            "dt": dt,
            "time_limit": time_limit,
            "goal_tol_pos": goal_tol_pos,
            "goal_tol_vel": goal_tol_vel,
            "goals": [g.tolist() for _, g in scenario.agents],
            "theta_coll": config.theta_coll.as_array.tolist(),
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
        pair, obstacle = separations(positions, obstacles, coll_axes)
        min_inter.append(min(pair.tolist(), default=None))
        min_obstacle.append(min(obstacle.ravel().tolist(), default=None))
        if check_collision(positions, obstacles, coll_axes):
            collision_rounds.append(r)
        at_goal = all(
            np.linalg.norm(positions[i] - goals[i]) <= tol_pos and np.linalg.norm(velocities[i]) <= tol_vel
            for i in range(len(goals))
        )
        if r == final_round and at_goal and not collision_rounds and r * dt <= trajectory["time_limit"]:
            success = True
    return {
        "success": success,
        "collision_rounds": collision_rounds,
        "min_inter_agent": min_inter,
        "min_obstacle": min_obstacle,
        "mission_time": final_round * dt,
    }
