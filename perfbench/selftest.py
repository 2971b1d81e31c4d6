"""Self-test of the benchmark's output checks: clean outputs pass, corrupted ones are caught.

Runs one small mission (4 agents, 6 obstacles), keeps its report, its
trajectory dump and one converged plan with a conflict target, and feeds each
check a corrupted copy.  Every case must be reported by the check it names.
Usage: ``python3 perfbench/selftest.py``; exits 0 when every case passes.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import checks
import spans
import workloads

SEED, N_AGENTS, N_OBSTACLES = 1, 4, 6


def main() -> int:
    swarmplan = workloads.import_program()
    from swarmplan import sim, solver

    workload = dataclasses.replace(workloads.WORKLOADS["clutter"], n_agents=N_AGENTS, n_obstacles=N_OBSTACLES, seeds=(SEED,))
    scenario = workloads.generate(workload, swarmplan.generate_random)[0]
    config = workloads.planning_config(scenario, workload, swarmplan.PlanningConfig)

    plans = []

    def keep_plan(problem, *args, **kwargs):
        zeta, diag = solve(problem, *args, **kwargs)
        if diag.converged and problem.M and not plans:
            plans.append((problem, zeta))
        return zeta, diag

    solve = sim.solve
    with spans.patched([(sim, "solve", keep_plan)]):
        report = sim.run_mission(scenario, config, mode="bf", record_trajectory=True)
    rerun = sim.run_mission(scenario, config, mode="bf", record_trajectory=True)
    problem, zeta = plans[0]
    tol = solver.SolverConfig().threshold
    mid = report.rounds // 2
    n = problem.basis.n + 1

    def dump_case(edit):
        bad = copy.deepcopy(report)
        edit(bad.trajectory["rounds"])
        return checks.check_mission(bad, scenario, config)[0]

    def report_case(**changes):
        return checks.check_mission(dataclasses.replace(report, **changes), scenario, config)[0]

    def plan_case(edit):
        bad = zeta.copy()
        edit(bad.reshape(3, n))
        return checks.check_plan(problem, bad, tol)

    def set_row(rounds, r, key, agent, value):
        rounds[r][key][agent] = list(value)

    def truncate(rounds):
        del rounds[-1]

    obstacle = scenario.obstacles[0].center
    target_center = problem.targets[0].predicted_centers[-1]
    cases = [
        ("clean mission", None, checks.check_mission(report, scenario, config)[0]),
        ("clean plan", None, checks.check_plan(problem, zeta, tol)),
        ("clean digests", None, checks.unstable_digests({SEED: [checks.digest(report), checks.digest(rerun)]})),
        ("dump: agent 1 moved onto agent 0", "collision_round",
         dump_case(lambda rs: set_row(rs, mid, "positions", 1, rs[mid]["positions"][0]))),
        ("dump: agent 0 moved into obstacle 0", "min_obstacle",
         dump_case(lambda rs: set_row(rs, mid, "positions", 0, obstacle))),
        ("dump: agent 0 still moving in the last round", "success",
         dump_case(lambda rs: set_row(rs, -1, "velocities", 0, [1.0, 0.0, 0.0]))),
        ("dump: last round missing", "mission_time", dump_case(truncate)),
        ("report: min_inter_agent raised", "min_inter_agent",
         report_case(min_inter_agent=[m * 1.01 for m in report.min_inter_agent])),
        ("report: min_obstacle lowered", "min_obstacle",
         report_case(min_obstacle=[m - 0.01 for m in report.min_obstacle])),
        ("report: success flag flipped", "success", report_case(success=not report.success)),
        ("report: mission time one round longer", "mission_time",
         report_case(mission_time=report.mission_time + config.dt)),
        ("report: invented collision", "collision_round",
         report_case(collision_events=[(mid, "agent0", "agent1", 0.5)])),
        ("report: canonical bytes differ between repeats", "digest",
         checks.unstable_digests({SEED: [checks.digest(report), checks.digest(dataclasses.replace(report, rounds=1))]})),
        ("plan: initial position moved", "plan: initial position", plan_case(lambda c: c.__setitem__((0, 0), c[0, 0] + 0.5))),
        ("plan: mid-horizon bulge breaks the speed cap", "plan: speed", plan_case(lambda c: c.__setitem__((0, 5), c[0, 5] + 5.0))),
        ("plan: vertical bulge breaks the thrust band", "plan: thrust", plan_case(lambda c: c.__setitem__((2, 5), c[2, 5] + 5.0))),
        ("plan: tail pushed out of the workspace", "plan: position outside", plan_case(lambda c: c.__setitem__((0, slice(3, None)), 10.0))),
        ("plan: tail ends on the target", "plan: " + problem.targets[0].kind,
         plan_case(lambda c: c.__setitem__((slice(None), slice(3, None)), target_center[:, None]))),
    ]
    failures = 0
    for name, expected, found in cases:
        matched = [p for p in found if expected is not None and p.startswith(expected)]
        ok = bool(matched) if expected is not None else not found
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {(matched or found or ['no problem found'])[0]}")
    print(f"{len(cases) - failures}/{len(cases)} self-test cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
