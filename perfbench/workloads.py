"""The benchmark's workloads and how the program under test is loaded.

Each workload is a fixed list of missions.  A mission is one random scenario
from ``swarmplan.scenario.generate_random``, planned by
``swarmplan.sim.run_mission`` in bf mode at the workload's gamma.  The
program is always imported from the ``src/`` tree of the checkout that holds
this directory, never from an installed copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    n_agents: int
    n_obstacles: int
    extent: tuple[float, float, float]  # workspace size in metres, centred on x = y = 0, z from 0
    gamma: float
    seeds: tuple[int, ...]


WORKLOADS = {
    "clutter": Workload(10, 16, (4.0, 4.0, 2.0), 1.0, tuple(range(10))),
    "barrier": Workload(10, 16, (4.0, 4.0, 2.0), 0.9, tuple(range(10))),
    "crowd": Workload(32, 0, (8.0, 8.0, 2.0), 1.0, tuple(range(4))),
}


def import_program():
    """Import ``swarmplan`` from this checkout's ``src/``; exit non-zero if it is absent."""
    if not (SRC / "swarmplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import swarmplan

    if Path(swarmplan.__file__).resolve().parent != SRC / "swarmplan":
        sys.exit(f"perfbench: imported swarmplan from {swarmplan.__file__}, not from {SRC}")
    return swarmplan


def workspace(workload: Workload):
    w, d, h = workload.extent
    return np.array([-w / 2, -d / 2, 0.0]), np.array([w / 2, d / 2, h])


def generate(workload: Workload, generate_random) -> list:
    """The workload's scenarios, in seed order."""
    return [generate_random(s, workload.n_agents, workload.n_obstacles, workspace(workload)) for s in workload.seeds]


def planning_config(scenario, workload: Workload, PlanningConfig):
    """The simulator's default planning box (scenario volume inflated by 0.05 m) at the workload's gamma."""
    lo, hi = scenario.workspace
    return PlanningConfig(gamma=workload.gamma, p_min=tuple(lo - 0.05), p_max=tuple(hi + 0.05))
