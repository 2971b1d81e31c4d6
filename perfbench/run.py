"""Benchmark of the swarm planner: whole missions through ``swarmplan.sim.run_mission``.

Usage::

    python3 perfbench/run.py --workload clutter --seed 1 --seconds 20 --trace 0

One run plans every mission of the workload in passes, all in this one
process, until ``--seconds`` have gone by and at least two passes are done;
``--seed`` sets the order of the missions in each pass.  Every mission's
outcome is recomputed from its trajectory dump and compared with its report,
and each mission's canonical report digest must be the same in every pass.

``--trace 0`` measures the end-to-end metrics, with one clock reading per
swarm round and nothing else wrapped; the round metrics take each (mission,
round) at its fastest pass.  ``--trace 1`` runs the first pass
untraced, then traces the later ones: spans around every call into the
layers (see ``spans.layer_calls``), conflict counts and solver diagnostics
per plan, and the constraints of every converged plan are checked.  It
reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an attempt is one
mission, and it fails when the mission does not succeed.  Results and spans
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 9
MIN_PASSES = 2
MAX_REPORTED_PROBLEMS = 20


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh interpreters (``setup_probe.py``)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=workloads.ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Bench:
    def __init__(self, workload: str, traced: bool):
        swarmplan = workloads.import_program()
        from swarmplan import sim, solver

        self.sim, self.solver = sim, solver
        self.workload = workloads.WORKLOADS[workload]
        self.tracer = spans.Tracer() if traced else None
        self.problems: list[str] = []
        self.solves: list[tuple[int, bool, int]] = []
        self.plan_tol = solver.SolverConfig().threshold
        self._ticks: list[float] = []
        self._current = ""

        generate = swarmplan.generate_random
        if self.tracer:
            generate = self.tracer.wrap("scenario.generate_random", generate)
        self.scenarios = workloads.generate(self.workload, generate)
        self.configs = [workloads.planning_config(s, self.workload, swarmplan.PlanningConfig) for s in self.scenarios]
        for s in self.scenarios:
            if s.n_agents != self.workload.n_agents or len(s.obstacles) != self.workload.n_obstacles:
                self.problems.append(f"scenario {s.seed}: {s.n_agents} agents, {len(s.obstacles)} obstacles")

    # -- wrappers installed on the program's modules --------------------------------------

    def _clocked_check(self, original):
        def check_collision(*args, **kwargs):
            self._ticks.append(time.perf_counter())
            return original(*args, **kwargs)

        return check_collision

    def _observed_solve(self, traced_solve):
        def solve(problem, *args, **kwargs):
            zeta, diag = traced_solve(problem, *args, **kwargs)
            with self.tracer.region("bench.check"):
                self.solves.append((diag.iterations, diag.converged, problem.M))
                if diag.converged:
                    found = checks.check_plan(problem, zeta, self.plan_tol)
                    self.problems += [f"{self._current}, plan {len(self.solves)}: {p}" for p in found]
            return zeta, diag

        return solve

    def _replacements(self, traced: bool):
        sim = self.sim
        if not traced:
            return [(sim, "check_collision", self._clocked_check(sim.check_collision))]
        calls = [(m, attr, self.tracer.wrap(name, getattr(m, attr))) for m, attr, name in spans.layer_calls(sim, self.solver)]
        calls.append((sim, "solve", self._observed_solve(self.tracer.wrap("solver.solve", sim.solve))))
        return calls

    # -- missions -------------------------------------------------------------------------

    def run_pass(self, order, traced: bool) -> list[dict]:
        results = []
        run_mission = self.sim.run_mission
        with spans.patched(self._replacements(traced)):
            for i in order:
                scenario, config = self.scenarios[i], self.configs[i]
                self._current = f"mission {scenario.seed}"
                self._ticks = []
                t0 = time.perf_counter()
                with self.tracer.region("sim.run_mission") if traced else nullcontext():
                    report = run_mission(scenario, config, mode="bf", record_trajectory=True)
                wall = time.perf_counter() - t0
                found, outcome = checks.check_mission(report, scenario, config)
                self.problems += [f"mission {scenario.seed}: {p}" for p in found]
                results.append(
                    {
                        "index": int(i),
                        "wall": wall,
                        "round_ms": [(b - a) * 1e3 for a, b in zip(self._ticks, self._ticks[1:])],
                        "rounds": report.rounds,
                        "success": report.success,
                        "digest": checks.digest(report),
                        "mission_time": outcome["mission_time"],
                        "clearance": checks.clearance(outcome),
                    }
                )
        return results


def host_record() -> dict:
    """The machine and library versions the figures were measured with."""
    import ctypes
    import os
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def _median(values):
    return float(statistics.median(values))


def fastest_rounds(results: list[dict]) -> np.ndarray:
    """Each (mission, round)'s shortest time over the passes, in ms.

    Missions are deterministic, so a round does the same work in every pass;
    interference from other work on the host only ever adds time.
    """
    by_mission: dict[int, list[list[float]]] = {}
    for r in results:
        by_mission.setdefault(r["index"], []).append(r["round_ms"])
    fastest = []
    for runs in by_mission.values():
        n = min(map(len, runs))
        fastest.append(np.min([t[:n] for t in runs], axis=0))
    return np.concatenate(fastest)


def end_to_end(results: list[dict], n_agents: int, setup_s: float) -> dict:
    round_ms = fastest_rounds(results)
    succeeded = [r for r in results if r["success"]] or results
    return {
        "setup_s": (setup_s, "s"),
        "plans_per_s": (round_ms.size * n_agents / (round_ms.sum() / 1e3), "1/s"),
        "round_ms_p50": (_median(round_ms), "ms"),
        "round_ms_p90": (float(np.percentile(round_ms, 90)), "ms"),
        "mission_time_s": (_median([r["mission_time"] for r in succeeded]), "sim_s"),
        "clearance": (_median([r["clearance"] for r in succeeded]), "scaled"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="sets the mission order of every pass")
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(args.workload, bool(args.trace))
    setup_s = None if args.trace else measure_setup(args.workload)
    rng = np.random.default_rng(args.seed)
    passes: list[list[dict]] = []
    traced_wall: list[float] = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        traced = bool(args.trace) and len(passes) > 0
        checked_before = bench.tracer.total("bench.check") if traced else 0.0
        passes.append(bench.run_pass(rng.permutation(len(bench.scenarios)), traced))
        if traced:
            checked = bench.tracer.total("bench.check") - checked_before
            traced_wall.append(sum(r["wall"] for r in passes[-1]) - checked)

    results = [r for p in passes for r in p]
    bench.problems += checks.unstable_digests(
        {s.seed: [r["digest"] for r in results if r["index"] == i] for i, s in enumerate(bench.scenarios)}
    )

    if args.trace:
        traced_results = [r for p in passes[1:] for r in p]
        span_arrays = bench.tracer.arrays()
        metrics = spans.layer_metrics(
            span_arrays, bench.solves, sum(r["rounds"] for r in traced_results), len(passes) - 1
        )
        untraced_wall = sum(r["wall"] for r in passes[0])
        metrics["trace.overhead_pct"] = (100.0 * (_median(traced_wall) / untraced_wall - 1.0), "%")
    else:
        metrics = end_to_end(results, bench.workload.n_agents, setup_s)

    result = {
        "correct": not bench.problems,
        "attempted": len(results),
        "failed": sum(not r["success"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {**result, "seed": args.seed, "passes": len(passes), "host": host_record(), "problems": bench.problems},
            indent=1,
        )
    )
    if args.trace:
        np.savez(OUT / f"{args.workload}-spans.npz", **span_arrays)
    for problem in bench.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {result['attempted']} missions attempted, {result['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
