"""Time one set-up of a workload in a fresh interpreter and print the seconds it took.

Set-up is everything before a mission's first round: importing the program
(numpy, scipy and yaml with it), generating the workload's scenarios and
building the Bernstein basis.  Usage: ``python3 perfbench/setup_probe.py <workload>``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


def main(name: str) -> None:
    swarmplan = workloads.import_program()
    workload = workloads.WORKLOADS[name]
    scenarios = workloads.generate(workload, swarmplan.generate_random)
    config = workloads.planning_config(scenarios[0], workload, swarmplan.PlanningConfig)
    swarmplan.build_basis(config.K, config.n, config.dt)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main(sys.argv[1])
