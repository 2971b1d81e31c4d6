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
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .scenario import Scenario, ScenarioError, antipodal, generate_random, load_scenario
from .problem import PlanningConfig
from .sim import default_planning_config, run_mission

CSV_COLUMNS = [
    "size",
    "seed",
    "gamma",
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


def _mission_row(size: int, seed: int, gamma: float, report) -> dict:
    compute = [t for per_agent in report.per_agent_compute_us for t in per_agent]
    inter = [m for m in report.min_inter_agent if m is not None]
    obst = [m for m in report.min_obstacle if m is not None]
    return {
        "size": size,
        "seed": seed,
        "gamma": gamma,
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


def _write_report(report, path) -> None:
    Path(path).write_text(json.dumps(report.to_record(), sort_keys=True, indent=1), encoding="utf-8")


def _write_dump(report, path) -> None:
    if report.trajectory is None:
        raise RuntimeError("mission was run without trajectory recording")
    Path(path).write_text(json.dumps(report.trajectory, sort_keys=True), encoding="utf-8")


def _run_and_write(scenario: Scenario, args):
    """Run one mission at ``--gamma``; write its report (``--out`` or stdout) and ``--dump``."""
    config = default_planning_config(scenario, args.gamma)
    report = run_mission(scenario, config, record_trajectory=args.dump is not None)
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
    report = _run_and_write(scenario, args)
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
    config = default_planning_config(scenario, gamma)
    report = run_mission(scenario, config, record_trajectory=spec["dump_dir"] is not None)
    row = _mission_row(size, seed, gamma, report)
    if spec["dump_dir"] is not None:
        stem = f"size{size}_seed{seed}_gamma{gamma:g}"
        _write_dump(report, Path(spec["dump_dir"]) / f"{stem}.traj.json")
        _write_report(report, Path(spec["dump_dir"]) / f"{stem}.report.json")
    return row


def _aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["size"], row["gamma"]), []).append(row)
    out = []
    for (size, gamma), members in sorted(groups.items()):
        def _mean(key):
            values = [m[key] for m in members if m[key] != ""]
            return float(np.mean(values)) if values else None

        out.append(
            {
                "size": size,
                "gamma": gamma,
                "trials": len(members),
                "success_rate": float(np.mean([m["success"] for m in members])),
                "mean_mission_time": _mean("mission_time"),
                "mean_compute_us": _mean("mean_compute_us"),
                "mean_min_inter_agent": _mean("min_inter_agent"),
                "mean_min_obstacle": _mean("min_obstacle"),
            }
        )
    return out


def _list_of(convert):
    """Argparse converter: one or more comma-separated values."""

    def parse(text: str) -> list:
        values = [convert(v) for v in text.split(",") if v]
        if not values:
            raise ValueError(f"empty list {text!r}")
        return values

    return parse


def _parse_seeds(text: str) -> list[int]:
    """``sweep --seeds``: a range ``lo:hi`` or a comma-separated list."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
        if hi <= lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi))
    return _list_of(int)(text)


def _parse_workspace(text: str) -> tuple[np.ndarray, np.ndarray]:
    dims = [float(d) for d in text.lower().split("x")]
    if len(dims) != 3 or not all(0 < d < np.inf for d in dims):
        raise ValueError(f"workspace must be WxDxH with positive, finite dims, got {text!r}")
    w, d, h = dims
    return np.array([-w / 2, -d / 2, 0.0]), np.array([w / 2, d / 2, h])


def cmd_sweep(args) -> int:
    ws_lo, ws_hi = args.workspace
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
            "obstacles": args.obstacles,
            "ws_lo": ws_lo.tolist(),
            "ws_hi": ws_hi.tolist(),
            "dump_dir": str(dump_dir) if dump_dir else None,
        }
        for size in args.sizes
        for seed in args.seeds
        for gamma in args.gamma
    ]

    rows = []
    failures = 0
    # A failed trial is reported and counted, and the other trials still run.
    # The pool starts all its workers at the first submit, so it is no larger than the trial count.
    with ProcessPoolExecutor(max_workers=min(args.jobs, len(specs))) as pool:
        futures = [pool.submit(_run_trial, spec) for spec in specs]
        for spec, future in zip(specs, futures):
            try:
                rows.append(future.result())
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


def _checked(convert, check=lambda value: None):
    """Argparse type: a value that ``convert`` or ``check`` rejects with ``ValueError`` is a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _at_least(bound: int):
    """Check for :func:`_checked`: an integer, or every integer of a list, is at least ``bound``."""

    def check(value) -> None:
        if min(value if isinstance(value, list) else [value]) < bound:
            raise ValueError(f"must be at least {bound}, got {value}")

    return check


def _parent_exists(path: str) -> None:
    """Check for :func:`_checked`: an output file's directory exists, so the mission is not run for nothing."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ValueError(f"no such directory: {parent}")


def _directory_possible(path: str) -> None:
    """Check for :func:`_checked`: an output directory exists, or its nearest existing ancestor is a directory to make it in."""
    target = Path(path)
    existing = next((p for p in (target, *target.parents) if p.exists()), None)
    if existing is None or not existing.is_dir():
        raise ValueError(f"not a directory: {existing}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swarmplan", description="Swarm trajectory planning benchmark tool")
    sub = parser.add_subparsers(dest="command", required=True)
    gamma = _checked(float, lambda g: PlanningConfig(gamma=g))
    out_file = _checked(str, _parent_exists)

    p_run = sub.add_parser("run", parents=[], help="run one mission from a scenario file")
    p_run.add_argument("scenario", help="scenario YAML path")
    p_run.add_argument("--out", type=out_file, help="write the mission report JSON here")
    p_run.add_argument("--dump", type=out_file, help="write a per-round trajectory dump JSON here")
    p_run.add_argument("--gamma", type=gamma, default=1.0, help="barrier constant in [0, 1]")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sizes x seeds x gamma benchmark sweep")
    sizes = _checked(_list_of(int), _at_least(1))
    p_sweep.add_argument("--sizes", type=sizes, required=True, help="comma-separated swarm sizes, e.g. 10,20")
    seeds = _checked(_parse_seeds, _at_least(0))
    p_sweep.add_argument("--seeds", type=seeds, required=True, help="seed range lo:hi or comma list")
    gammas = _checked(_list_of(float), lambda gs: [PlanningConfig(gamma=g) for g in gs])
    p_sweep.add_argument("--gamma", type=gammas, default=[1.0], help="comma-separated gamma values")
    p_sweep.add_argument("--obstacles", type=_checked(int, _at_least(0)), default=16)
    workspace = _checked(_parse_workspace)
    p_sweep.add_argument("--workspace", type=workspace, default="4x4x2", help="workspace dims WxDxH in meters")
    p_sweep.add_argument("--out", type=_checked(str, _directory_possible), required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=_checked(int, _at_least(1)), default=1, help="parallel trial processes (>= 1)")
    p_sweep.add_argument("--dump", action="store_true", help="also write per-trial trajectory dumps")
    p_sweep.set_defaults(func=cmd_sweep)

    p_anti = sub.add_parser("antipodal", help="run a circle position-exchange mission")
    p_anti.add_argument("--agents", type=int, required=True)
    p_anti.add_argument("--radius", type=float, default=1.5)
    p_anti.add_argument("--height", type=float, default=1.0)
    p_anti.add_argument("--out", type=out_file)
    p_anti.add_argument("--dump", type=out_file)
    p_anti.add_argument("--gamma", type=gamma, default=1.0, help="barrier constant in [0, 1]")
    p_anti.set_defaults(func=cmd_antipodal)

    p_val = sub.add_parser("validate-scenario", help="validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
