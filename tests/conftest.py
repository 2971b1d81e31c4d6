import numpy as np
import pytest
from hypothesis import settings

from swarmplan.bernstein import build_basis
from swarmplan.polar import EllipsoidShape
from swarmplan.problem import AgentSnapshot, ConstraintTarget, PlanningConfig, assemble

# One profile for every property test: the same cases on every run, with no
# example database, and no per-case deadline, since case times vary by machine.
# Each test sets only its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def basis30():
    return build_basis(30, 10, 0.1)


@pytest.fixture(scope="session")
def default_config():
    return PlanningConfig()


def make_problem(basis, config, start, goal, targets=()):
    snapshot = AgentSnapshot(position=np.asarray(start, float), goal=np.asarray(goal, float))
    return assemble(snapshot, list(targets), basis, config)


def cylinder_target(x, y, radius, K=30, z=1.0):
    shape = EllipsoidShape(radius, radius, 1e6)
    centers = np.tile([x, y, z], (K, 1))
    return ConstraintTarget("obstacle", shape, centers)


def random_full_instance(rng, basis, config, min_span=1.5):
    """Random single-agent, single-obstacle instance with valid endpoints."""
    lo = np.array([-1.8, -1.8, 0.3])
    hi = np.array([1.8, 1.8, 1.7])
    while True:
        start = rng.uniform(lo, hi)
        goal = rng.uniform(lo, hi)
        if np.linalg.norm(goal - start) < min_span:
            continue
        mid = 0.5 * (start + goal) + rng.normal(0.0, 0.15, 3)
        radius = rng.uniform(0.1, 0.2) + 0.17
        center = np.array([mid[0], mid[1], 1.0])
        padded = np.array([radius + 0.2, radius + 0.2, 1e6])
        if np.sum(((start - center) / padded) ** 2) <= 1.0:
            continue
        if np.sum(((goal - center) / padded) ** 2) <= 1.0:
            continue
        target = cylinder_target(center[0], center[1], radius, K=basis.K)
        return make_problem(basis, config, start, goal, [target]), target
