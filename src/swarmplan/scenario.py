"""Scenario generation, validation, and YAML (de)serialization.

A scenario fixes the workspace box, per-agent start/goal pairs, and the
obstacle list.  Obstacle shapes are stored as the envelope the planner keeps
agent centers outside of, i.e. the physical obstacle extent already inflated
by the agent's horizontal planning radius; cylinders use a very large
vertical semi-axis so only the horizontal test binds.

Random generation uses rejection sampling driven by a PCG64 generator, so a
seed reproduces the same scenario on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .polar import EllipsoidShape
from .problem import PlanningConfig

CYLINDER_HALF_HEIGHT = 1e6
MAX_REJECTION_ATTEMPTS = 100_000

_SEPARATION_MARGIN = 0.1


class ScenarioError(ValueError):
    """Raised for structurally invalid or over-constrained scenarios."""


def _finite_point(value: np.ndarray) -> bool:
    return value.shape == (3,) and bool(np.all(np.isfinite(value)))


@dataclass
class Obstacle:
    """Static or constant-velocity obstacle with an ellipsoidal envelope."""

    center: np.ndarray
    velocity: np.ndarray
    shape: EllipsoidShape
    kind: str = "cylinder"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        if not (_finite_point(self.center) and _finite_point(self.velocity)):
            raise ScenarioError("obstacle center and velocity must be finite 3-vectors")
        if self.kind not in ("cylinder", "ellipsoid"):
            raise ScenarioError(f"obstacle kind must be 'cylinder' or 'ellipsoid', got {self.kind!r}")

    def predicted_centers(self, K: int, dt: float) -> np.ndarray:
        """Constant-velocity extrapolation over a K-step horizon."""
        return self.center + np.outer(np.arange(K) * dt, self.velocity)


@dataclass
class Scenario:
    seed: int
    agents: list[tuple[np.ndarray, np.ndarray]]
    obstacles: list[Obstacle] = field(default_factory=list)
    workspace: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
    )

    def __post_init__(self):
        self.agents = [(np.asarray(s, dtype=float), np.asarray(g, dtype=float)) for s, g in self.agents]
        lo, hi = self.workspace
        self.workspace = (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    @property
    def n_agents(self) -> int:
        return len(self.agents)


def _inside_box(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    return bool(np.all(point >= lo) and np.all(point <= hi))


def _separation_ok(p: np.ndarray, others: list[np.ndarray]) -> bool:
    envelope = PlanningConfig.theta_coll.as_array + _SEPARATION_MARGIN
    for other in others:
        if np.sum(((p - other) / envelope) ** 2) <= 1.0:
            return False
    return True


def _outside_obstacles(p: np.ndarray, obstacles: list[Obstacle]) -> bool:
    padding = PlanningConfig.theta_padding.as_array
    for obs in obstacles:
        inflated = obs.shape.as_array + padding
        if np.sum(((p - obs.center) / inflated) ** 2) <= 1.0:
            return False
    return True


def validate(scenario: Scenario) -> None:
    """Check the scenario invariants; raise :class:`ScenarioError` on the first violation."""
    lo, hi = scenario.workspace
    if not (_finite_point(lo) and _finite_point(hi)) or np.any(lo >= hi):
        raise ScenarioError("workspace must be finite with positive extent on every axis")
    if not scenario.agents:
        raise ScenarioError("need at least one agent, got 0")
    for k, obs in enumerate(scenario.obstacles):
        if not (_finite_point(obs.center) and _finite_point(obs.velocity)):
            raise ScenarioError(f"obstacle {k}: center and velocity must be finite 3-vectors")
    starts = [s for s, _ in scenario.agents]
    goals = [g for _, g in scenario.agents]
    for i, (s, g) in enumerate(scenario.agents):
        if s.shape != (3,) or g.shape != (3,):
            raise ScenarioError(f"agent {i}: start/goal must be 3-vectors")
        if not (_inside_box(s, lo, hi) and _inside_box(g, lo, hi)):
            raise ScenarioError(f"agent {i}: start or goal outside the workspace")
        if not _outside_obstacles(s, scenario.obstacles):
            raise ScenarioError(f"agent {i}: start inside an obstacle's padded envelope")
        if not _outside_obstacles(g, scenario.obstacles):
            raise ScenarioError(f"agent {i}: goal inside an obstacle's padded envelope")
    for i in range(len(starts)):
        if not _separation_ok(starts[i], starts[:i]):
            raise ScenarioError(f"agent {i}: start too close to another start")
        if not _separation_ok(goals[i], goals[:i]):
            raise ScenarioError(f"agent {i}: goal too close to another goal")


def generate_random(seed: int, n_agents: int, n_obstacles: int, workspace=None) -> Scenario:
    """Uniform rejection sampling of obstacle positions, starts, and goals.

    Obstacles are vertical cylinders with physical radius drawn uniformly
    from [0.1, 0.2] m; their stored envelope adds the agent's horizontal
    planning radius.  Raises :class:`ScenarioError` for a negative seed,
    fewer than one agent or a negative obstacle count, and when placement
    fails after the attempt cap (overcrowded scenario).
    """
    if seed < 0:
        raise ScenarioError(f"the seed cannot be negative, got {seed}")
    if n_agents < 1:
        raise ScenarioError(f"need at least one agent, got {n_agents}")
    if n_obstacles < 0:
        raise ScenarioError(f"the obstacle count cannot be negative, got {n_obstacles}")
    if workspace is None:
        workspace = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
    lo = np.asarray(workspace[0], dtype=float)
    hi = np.asarray(workspace[1], dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    z_mid = 0.5 * (lo[2] + hi[2])

    obstacles: list[Obstacle] = []
    for _ in range(n_obstacles):
        radius = rng.uniform(0.1, 0.2) + PlanningConfig.theta_agent.a
        center_xy = rng.uniform(lo[:2], hi[:2])
        obstacles.append(
            Obstacle(
                center=np.array([center_xy[0], center_xy[1], z_mid]),
                velocity=np.zeros(3),
                shape=EllipsoidShape(radius, radius, CYLINDER_HALF_HEIGHT),
                kind="cylinder",
            )
        )

    def sample_point(placed: list[np.ndarray]) -> np.ndarray:
        for _ in range(MAX_REJECTION_ATTEMPTS):
            p = rng.uniform(lo, hi)
            if _separation_ok(p, placed) and _outside_obstacles(p, obstacles):
                return p
        raise ScenarioError(
            f"overcrowded scenario: failed to place a point after {MAX_REJECTION_ATTEMPTS} attempts"
        )

    starts: list[np.ndarray] = []
    goals: list[np.ndarray] = []
    for _ in range(n_agents):
        starts.append(sample_point(starts))
    for _ in range(n_agents):
        goals.append(sample_point(goals))

    scenario = Scenario(
        seed=seed,
        agents=list(zip(starts, goals)),
        obstacles=obstacles,
        workspace=(lo, hi),
    )
    validate(scenario)
    return scenario


def antipodal(n_agents: int, radius: float = 1.5, height: float = 1.0) -> Scenario:
    """Agents evenly spaced on a circle, each goal diametrically opposite."""
    if n_agents < 2:
        raise ScenarioError(f"antipodal exchange needs at least 2 agents, got {n_agents}")
    angles = 2.0 * np.pi * np.arange(n_agents) / n_agents
    agents = []
    for theta in angles:
        start = np.array([radius * np.cos(theta), radius * np.sin(theta), height])
        goal = np.array([-start[0], -start[1], height])
        agents.append((start, goal))
    margin = 0.5
    lo = np.array([-radius - margin, -radius - margin, 0.0])
    hi = np.array([radius + margin, radius + margin, max(2.0 * height, height + 1.0)])
    scenario = Scenario(seed=0, agents=agents, obstacles=[], workspace=(lo, hi))
    validate(scenario)
    return scenario


def save_scenario(scenario: Scenario, path) -> None:
    """Write the scenario as YAML (meters and meters/second throughout)."""
    doc = {
        "seed": int(scenario.seed),
        "workspace": {
            "min": [float(v) for v in scenario.workspace[0]],
            "max": [float(v) for v in scenario.workspace[1]],
        },
        "agents": [
            {"start": [float(v) for v in s], "goal": [float(v) for v in g]} for s, g in scenario.agents
        ],
        "obstacles": [
            {
                "center": [float(v) for v in o.center],
                "velocity": [float(v) for v in o.velocity],
                "shape": [float(o.shape.a), float(o.shape.b), float(o.shape.c)],
                "kind": o.kind,
            }
            for o in scenario.obstacles
        ],
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario YAML file.

    An unreadable file raises :class:`OSError`; a file that is not a valid
    scenario raises :class:`ScenarioError`.
    """
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        agents = [(a["start"], a["goal"]) for a in doc["agents"]]
        obstacles = [
            Obstacle(
                center=o["center"],
                velocity=o.get("velocity", [0.0, 0.0, 0.0]),
                shape=EllipsoidShape(*o["shape"]),
                kind=o.get("kind", "cylinder"),
            )
            for o in doc.get("obstacles", [])
        ]
        scenario = Scenario(
            seed=int(doc.get("seed", 0)),
            agents=agents,
            obstacles=obstacles,
            workspace=(doc["workspace"]["min"], doc["workspace"]["max"]),
        )
    except (yaml.YAMLError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    validate(scenario)
    return scenario
