"""Command-line entry point.

Subcommands:

- ``run``: execute one mission from a scenario file, write a JSON report and
  optionally a per-round trajectory dump.
- ``sweep``: run the cross-product of swarm sizes x seeds x gamma values on
  randomized scenarios; write one CSV row per trial plus a JSON aggregate.
- ``antipodal``: run a circle position-exchange mission.
- ``validate-scenario``: check a scenario file against the invariants.

Exit codes: 0 on success, 1 for usage errors (bad flags, unreadable files),
2 for runtime failures (including failed validation).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .problem import PlanningConfig
from .scenario import Scenario, ScenarioError, antipodal, generate_random, load_scenario
from .sim import MISSION_TIME_LIMIT, run_mission
from .solver import SolverConfig

CSV_COLUMNS = [
    "size",
    "seed",
    "gamma",
    "mode",
    "success",
    "mission_time",
    "mean_compute_us",
    "max_compute_us",
    "min_inter_agent",
    "min_obstacle",
    "rounds",
    "collisions",
    "timeout",
    "nonconverged_solves",
]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; this tool reserves 2
    # for runtime failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _planning_config(scenario: Scenario, gamma: float) -> PlanningConfig:
    lo, hi = scenario.workspace
    return PlanningConfig(gamma=gamma, p_min=tuple(lo - 0.05), p_max=tuple(hi + 0.05))


def _solver_config(args) -> SolverConfig:
    return SolverConfig(maxiter=args.maxiter, threshold=args.threshold)


def _mission_row(size: int, seed: int, gamma: float, mode: str, report) -> dict:
    compute = [t for per_agent in report.per_agent_compute_us for t in per_agent]
    inter = [m for m in report.min_inter_agent if m is not None]
    obst = [m for m in report.min_obstacle if m is not None]
    return {
        "size": size,
        "seed": seed,
        "gamma": gamma,
        "mode": mode,
        "success": int(report.success),
        "mission_time": report.mission_time,
        "mean_compute_us": float(np.mean(compute)) if compute else "",
        "max_compute_us": float(np.max(compute)) if compute else "",
        "min_inter_agent": min(inter) if inter else "",
        "min_obstacle": min(obst) if obst else "",
        "rounds": report.rounds,
        "collisions": len(report.collision_events),
        "timeout": int(report.timeout),
        "nonconverged_solves": report.nonconverged_solves,
    }


def _write_report(report, path, include_timing: bool = True) -> None:
    Path(path).write_text(json.dumps(report.to_record(include_timing), sort_keys=True, indent=1), encoding="utf-8")


def _write_dump(report, path) -> None:
    if report.trajectory is None:
        raise RuntimeError("mission was run without trajectory recording")
    Path(path).write_text(json.dumps(report.trajectory, sort_keys=True), encoding="utf-8")


def _run_and_write(scenario: Scenario, args, time_limit: float = MISSION_TIME_LIMIT):
    """Run one mission from the solver flags; write its report (``--out`` or stdout) and ``--dump``."""
    report = run_mission(
        scenario,
        _planning_config(scenario, args.gamma),
        _solver_config(args),
        mode=args.mode,
        time_limit=time_limit,
        record_trajectory=args.dump is not None,
    )
    if args.out:
        _write_report(report, args.out)
    else:
        print(report.to_json())
    if args.dump:
        _write_dump(report, args.dump)
    return report


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return 1
    report = _run_and_write(scenario, args, args.time_limit)
    print(
        f"success={report.success} mission_time={report.mission_time:.1f}s "
        f"rounds={report.rounds} collisions={len(report.collision_events)}",
        file=sys.stderr,
    )
    return 0


def _run_trial(spec: dict) -> dict:
    size, seed, gamma = spec["size"], spec["seed"], spec["gamma"]
    workspace = (np.asarray(spec["ws_lo"]), np.asarray(spec["ws_hi"]))
    scenario = generate_random(seed, size, spec["obstacles"], workspace)
    report = run_mission(
        scenario,
        _planning_config(scenario, gamma),
        SolverConfig(maxiter=spec["maxiter"], threshold=spec["threshold"]),
        mode=spec["mode"],
        record_trajectory=spec["dump_dir"] is not None,
    )
    row = _mission_row(size, seed, gamma, spec["mode"], report)
    if spec["dump_dir"] is not None:
        stem = f"size{size}_seed{seed}_gamma{gamma:g}"
        _write_dump(report, Path(spec["dump_dir"]) / f"{stem}.traj.json")
        _write_report(report, Path(spec["dump_dir"]) / f"{stem}.report.json")
    return row


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["size"], row["gamma"], row["mode"]), []).append(row)
    out = []
    for (size, gamma, mode), members in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        def _mean(key):
            values = [m[key] for m in members if m[key] != ""]
            return float(np.mean(values)) if values else None

        out.append(
            {
                "size": size,
                "gamma": gamma,
                "mode": mode,
                "trials": len(members),
                "success_rate": float(np.mean([m["success"] for m in members])),
                "mean_mission_time": _mean("mission_time"),
                "mean_compute_us": _mean("mean_compute_us"),
                "mean_min_inter_agent": _mean("min_inter_agent"),
                "mean_min_obstacle": _mean("min_obstacle"),
            }
        )
    return out


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi))
    return [int(s) for s in text.split(",") if s]


def _parse_workspace(text: str) -> tuple[np.ndarray, np.ndarray]:
    dims = [float(d) for d in text.lower().split("x")]
    if len(dims) != 3 or min(dims) <= 0:
        raise ValueError(f"workspace must be WxDxH with positive dims, got {text!r}")
    w, d, h = dims
    return np.array([-w / 2, -d / 2, 0.0]), np.array([w / 2, d / 2, h])


def cmd_sweep(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        seeds = _parse_seeds(args.seeds)
        gammas = [float(g) for g in args.gamma.split(",") if g]
        ws_lo, ws_hi = _parse_workspace(args.workspace)
        if not sizes or not gammas:
            raise ValueError("sizes and gamma lists must be non-empty")
    except ValueError as exc:
        print(f"invalid sweep spec: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_dir = None
    if args.dump:
        dump_dir = out_dir / "dumps"
        dump_dir.mkdir(exist_ok=True)

    specs = [
        {
            "size": size,
            "seed": seed,
            "gamma": gamma,
            "mode": args.mode,
            "obstacles": args.obstacles,
            "ws_lo": ws_lo.tolist(),
            "ws_hi": ws_hi.tolist(),
            "maxiter": args.maxiter,
            "threshold": args.threshold,
            "dump_dir": str(dump_dir) if dump_dir else None,
        }
        for size in sizes
        for seed in seeds
        for gamma in gammas
    ]

    rows = []
    failures = 0
    jobs = max(1, args.jobs)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [(spec, pool.submit(_run_trial, spec)) for spec in specs]
            for spec, future in futures:
                try:
                    rows.append(future.result())
                except Exception as exc:  # pragma: no cover - defensive per-trial isolation
                    failures += 1
                    print(f"trial {spec['size']}/{spec['seed']}/{spec['gamma']} failed: {exc}", file=sys.stderr)
    else:
        for spec in specs:
            try:
                rows.append(_run_trial(spec))
            except Exception as exc:
                failures += 1
                print(f"trial {spec['size']}/{spec['seed']}/{spec['gamma']} failed: {exc}", file=sys.stderr)

    rows.sort(key=lambda r: (r["size"], r["seed"], r["gamma"]))
    with open(out_dir / "trials.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    (out_dir / "aggregate.json").write_text(json.dumps(_aggregate(rows), indent=1), encoding="utf-8")
    print(f"{len(rows)} trials written to {out_dir} ({failures} failed)", file=sys.stderr)
    return 0 if failures == 0 else 2


def cmd_antipodal(args) -> int:
    try:
        scenario = antipodal(args.agents, args.radius, args.height)
    except ScenarioError as exc:
        print(f"invalid antipodal spec: {exc}", file=sys.stderr)
        return 1
    _run_and_write(scenario, args)
    return 0


def cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    print("scenario is valid")
    return 0


def _add_common_solver_flags(parser):
    parser.add_argument("--mode", choices=("standard", "bf"), default="standard")
    parser.add_argument("--gamma", type=float, default=1.0, help="barrier constant in [0, 1]")
    parser.add_argument("--maxiter", type=int, default=SolverConfig.maxiter)
    parser.add_argument("--threshold", type=float, default=SolverConfig.threshold)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swarmplan", description="Swarm trajectory planning benchmark tool")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[], help="run one mission from a scenario file")
    p_run.add_argument("scenario", help="scenario YAML path")
    p_run.add_argument("--out", help="write the mission report JSON here")
    p_run.add_argument("--dump", help="write a per-round trajectory dump JSON here")
    p_run.add_argument("--time-limit", type=float, default=MISSION_TIME_LIMIT)
    _add_common_solver_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sizes x seeds x gamma benchmark sweep")
    p_sweep.add_argument("--sizes", required=True, help="comma-separated swarm sizes, e.g. 10,20")
    p_sweep.add_argument("--seeds", required=True, help="seed range lo:hi or comma list")
    p_sweep.add_argument("--gamma", default="1.0", help="comma-separated gamma values")
    p_sweep.add_argument("--mode", choices=("standard", "bf"), default="standard")
    p_sweep.add_argument("--obstacles", type=int, default=16)
    p_sweep.add_argument("--workspace", default="4x4x2", help="workspace dims WxDxH in meters")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel trial processes")
    p_sweep.add_argument("--dump", action="store_true", help="also write per-trial trajectory dumps")
    p_sweep.add_argument("--maxiter", type=int, default=SolverConfig.maxiter)
    p_sweep.add_argument("--threshold", type=float, default=SolverConfig.threshold)
    p_sweep.set_defaults(func=cmd_sweep)

    p_anti = sub.add_parser("antipodal", help="run a circle position-exchange mission")
    p_anti.add_argument("--agents", type=int, required=True)
    p_anti.add_argument("--radius", type=float, default=1.5)
    p_anti.add_argument("--height", type=float, default=1.0)
    p_anti.add_argument("--out")
    p_anti.add_argument("--dump")
    _add_common_solver_flags(p_anti)
    p_anti.set_defaults(func=cmd_antipodal)

    p_val = sub.add_parser("validate-scenario", help="validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _gamma_error(args) -> str | None:
    """Why the ``--gamma`` flag is unusable, or None.  ``sweep`` takes a comma-separated list."""
    gamma = getattr(args, "gamma", None)
    if gamma is None:
        return None
    try:
        gammas = [gamma] if isinstance(gamma, float) else [float(g) for g in gamma.split(",") if g]
    except ValueError:
        return f"gamma values must lie in [0, 1], got {gamma!r}"
    bad = [g for g in gammas if not 0.0 <= g <= 1.0]
    if bad:
        return f"gamma values must lie in [0, 1], got {bad}"
    if args.mode == "standard" and any(g != 1.0 for g in gammas):
        return "--gamma other than 1 needs --mode bf; standard mode ignores it"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _gamma_error(args)
    if error:
        print(error, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
