"""Distributed receding-horizon swarm trajectory planning.

Library layout:

- :mod:`swarmplan.bernstein` -- Bernstein basis matrices and trajectory sampling.
- :mod:`swarmplan.polar` -- polar constraint primitives (direction/magnitude splits).
- :mod:`swarmplan.problem` -- per-agent planning problem assembly.
- :mod:`swarmplan.solver` -- the alternating-minimization solver.
- :mod:`swarmplan.scenario` -- scenario generation, validation, and (de)serialization.
- :mod:`swarmplan.sim` -- headless synchronous multi-agent simulator.
- :mod:`swarmplan.cli` -- command-line entry point (run / sweep / antipodal / validate-scenario).
"""

from .bernstein import BasisSet, build_basis, sample_trajectory
from .polar import EllipsoidShape, bf_lower_bound, clipped_magnitude, omega, project_scaled
from .problem import (
    AgentSnapshot,
    ConstraintTarget,
    PlanningConfig,
    PlanningProblem,
    assemble,
    build_b,
    detect_conflicts,
)
from .scenario import Obstacle, Scenario, antipodal, generate_random, load_scenario, save_scenario
from .sim import MissionReport, check_collision, check_goal_reached, run_mission
from .solver import SolveDiagnostics, SolverConfig, SolverState, solve

__all__ = [
    "AgentSnapshot",
    "BasisSet",
    "ConstraintTarget",
    "EllipsoidShape",
    "MissionReport",
    "Obstacle",
    "PlanningConfig",
    "PlanningProblem",
    "Scenario",
    "SolveDiagnostics",
    "SolverConfig",
    "SolverState",
    "antipodal",
    "assemble",
    "bf_lower_bound",
    "build_b",
    "build_basis",
    "check_collision",
    "check_goal_reached",
    "clipped_magnitude",
    "detect_conflicts",
    "generate_random",
    "load_scenario",
    "omega",
    "project_scaled",
    "run_mission",
    "sample_trajectory",
    "save_scenario",
    "solve",
]
