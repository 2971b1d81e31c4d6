import csv
import json
import shlex
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from swarmplan import cli
from swarmplan.cli import CSV_COLUMNS, build_parser, main
from swarmplan.scenario import generate_random, save_scenario
from swarmplan.sim import replay_outcome

WS = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    save_scenario(generate_random(11, 2, 3, WS), path)
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_report(scenario_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(scenario_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "success" in report and "mission_time" in report


def test_run_missing_scenario_fails_with_diagnostic(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 1
    assert "cannot load scenario" in capsys.readouterr().err


def test_run_report_matches_dump_recheck(scenario_file, tmp_path):
    out = tmp_path / "report.json"
    dump = tmp_path / "traj.json"
    assert main(["run", str(scenario_file), "--out", str(out), "--dump", str(dump)]) == 0
    report = json.loads(out.read_text())
    replay = replay_outcome(json.loads(dump.read_text()))
    assert replay["success"] == bool(report["success"])
    assert (len(replay["collision_rounds"]) > 0) == (len(report["collision_events"]) > 0)


def test_run_rejects_bad_gamma(scenario_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    for gamma in ("1.4", "-0.1", "nan"):
        for argv in (["run", str(scenario_file)], ["antipodal", "--agents", "2"]):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--gamma", gamma, "--out", str(out)])
            assert info.value.code == 1, argv
            assert "--gamma" in capsys.readouterr().err
    assert not out.exists()


def test_mode_flag_is_gone_and_gamma_alone_sets_the_barrier(scenario_file, tmp_path, capsys):
    """``--mode`` selected no code path and is no longer a flag, so an old
    invocation is a usage error; ``--gamma`` below 1 runs without it."""
    out = tmp_path / "out"
    for argv in (
        ["run", str(scenario_file), "--out", str(out)],
        ["antipodal", "--agents", "2", "--out", str(out)],
        ["sweep", "--sizes", "1", "--seeds", "0:1", "--obstacles", "0", "--out", str(out)],
    ):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--mode", "bf"])
        assert info.value.code == 1, argv
        assert "--mode" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", str(scenario_file), "--gamma", "0.9", "--out", str(tmp_path / "run.json")]) == 0
    assert main(["antipodal", "--agents", "2", "--gamma", "0.9", "--out", str(tmp_path / "anti.json")]) == 0


@pytest.mark.parametrize("flag", [["--maxiter", "2000"], ["--threshold", "0.01"], ["--time-limit", "20"]])
def test_bad_solver_flags_are_usage_errors(flag, scenario_file, tmp_path, capsys):
    """The solve's iteration cap and threshold and the mission clock are
    constants, so ``--maxiter`` and ``--threshold`` (on every subcommand) and
    ``--time-limit`` (on ``run``) are usage errors, even at their old defaults."""
    out = tmp_path / "out"
    subcommands = [
        ["run", str(scenario_file), "--out", str(out)],
        ["antipodal", "--agents", "2", "--out", str(out)],
        ["sweep", "--sizes", "1", "--seeds", "0:1", "--obstacles", "0", "--out", str(out)],
    ]
    for argv in subcommands[:1] if flag[0] == "--time-limit" else subcommands:
        with pytest.raises(SystemExit) as info:
            main([*argv, *flag])
        assert info.value.code == 1, argv
        assert flag[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("limit", ["-1", "nan", "inf"])
def test_run_rejects_bad_time_limit(limit, scenario_file, tmp_path, capsys):
    """The mission clock is a constant, so any ``--time-limit`` is a usage
    error that names the flag and writes nothing."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as info:
        main(["run", str(scenario_file), "--time-limit", limit, "--out", str(out)])
    assert info.value.code == 1
    assert "--time-limit" in capsys.readouterr().err
    assert not out.exists()


def test_output_paths_are_checked_before_the_mission_runs(scenario_file, tmp_path, capsys, monkeypatch):
    """An ``--out`` or ``--dump`` file in a missing directory is a usage error
    before round 0.  It used to run the whole mission and then exit 2; a bad
    ``--dump`` beside a good ``--out`` also left the report behind."""
    missions = []
    monkeypatch.setattr(cli, "run_mission", lambda *args, **kwargs: missions.append(args))
    out = tmp_path / "report.json"
    missing = str(tmp_path / "nodir" / "file.json")
    for argv in (["run", str(scenario_file)], ["antipodal", "--agents", "2"]):
        for flags in (["--out", missing], ["--dump", missing, "--out", str(out)]):
            with pytest.raises(SystemExit) as info:
                main([*argv, *flags])
            assert info.value.code == 1, flags
            assert f"argument {flags[0]}: no such directory" in capsys.readouterr().err
    assert not missions and not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        ["--sizes", "0"],
        ["--workspace", "nanx4x2"],
        ["--workspace", "infx4x2"],
        ["--obstacles", "-3"],
        ["--sizes", ","],
        ["--seeds", ","],
        ["--seeds=-2:-1"],
        ["--seeds", "3,-1"],
        ["--gamma", "1.0,1.4"],
        ["--gamma", "nan"],
    ],
)
def test_bad_sweep_specs_are_usage_errors(spec, tmp_path, capsys):
    """Each used to run: a zero size or a non-finite workspace failed every
    trial (exit 2, empty trials.csv), a negative obstacle count ran as 0, a
    negative seed failed every trial and an empty seed list ran nothing and
    exited 0.  Argparse rejects each and names its flag."""
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--sizes", "2", "--seeds", "0:1", "--obstacles", "2", "--out", str(out), *spec])
    assert info.value.code == 1
    assert f"argument {spec[0].split('=')[0]}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"])
def test_sweep_out_must_be_a_directory(below, tmp_path, capsys, monkeypatch):
    """``sweep --out`` naming an existing file, or a path under one, used to
    parse, then fail to make the directory and exit 2.  Argparse rejects it."""
    trials = []
    monkeypatch.setattr(cli, "_run_trial", lambda spec: trials.append(spec))
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--sizes", "2", "--seeds", "0:1", "--out", str(blocker / below)])
    assert info.value.code == 1
    assert f"argument --out: not a directory: {blocker}" in capsys.readouterr().err
    assert not trials and blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_sweep_out_may_name_a_new_nested_directory(tmp_path):
    """A missing directory whose nearest existing ancestor is a directory is made."""
    args = build_parser().parse_args(["sweep", "--sizes", "2", "--seeds", "0:1", "--out", str(tmp_path / "a" / "b")])
    assert args.out == str(tmp_path / "a" / "b")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(jobs, tmp_path, capsys):
    """Used to run serially (``max(1, jobs)``)."""
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--sizes", "1", "--seeds", "0:1", "--obstacles", "0", "--out", str(out), "--jobs", jobs])
    assert info.value.code == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


class InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and runs each call at submit."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(("jobs", "seeds", "workers"), [("500", "0:1", 1), ("2", "0:3", 2), ("3", "0:2", 2)])
def test_sweep_pool_is_no_larger_than_the_trial_count(jobs, seeds, workers, tmp_path, monkeypatch):
    """The pool starts all its workers at the first submit, so ``--jobs 500``
    with one trial must not ask for 500 processes."""
    monkeypatch.setattr(InlineExecutor, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    out = tmp_path / "sweep"
    spec = ["--sizes", "1", "--seeds", seeds, "--obstacles", "0", "--jobs", jobs]
    assert main(["sweep", *spec, "--out", str(out)]) == 0
    assert InlineExecutor.sizes == [workers]
    assert len(read_rows(out / "trials.csv")) == int(seeds.split(":")[1])


def test_sweep_rejects_unparsable_gamma(tmp_path, capsys):
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--sizes", "2", "--seeds", "0:1", "--gamma", "1.0,abc", "--out", str(out)])
    assert info.value.code == 1
    assert "--gamma" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run"])  # missing positional argument
    assert info.value.code == 1


def test_sweep_row_count_and_aggregate(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--sizes", "1,2", "--seeds", "0:3", "--gamma", "1.0",
            "--obstacles", "2", "--out", str(out), "--jobs", "2",
        ]
    )
    assert code == 0
    rows = read_rows(out / "trials.csv")
    assert len(rows) == 6
    assert list(rows[0].keys()) == CSV_COLUMNS
    agg = json.loads((out / "aggregate.json").read_text())
    for group in agg:
        members = [r for r in rows if int(r["size"]) == group["size"]]
        assert group["trials"] == len(members)
        assert group["success_rate"] == pytest.approx(np.mean([int(r["success"]) for r in members]))


def test_sweep_rows_reproduce_excluding_timings(tmp_path):
    spec = ["--sizes", "2", "--seeds", "0:2", "--gamma", "1.0", "--obstacles", "2"]
    main(["sweep", *spec, "--out", str(tmp_path / "a")])
    main(["sweep", *spec, "--out", str(tmp_path / "b"), "--jobs", "2"])
    timing_cols = {"mean_compute_us", "max_compute_us"}
    rows_a = read_rows(tmp_path / "a" / "trials.csv")
    rows_b = read_rows(tmp_path / "b" / "trials.csv")
    for ra, rb in zip(rows_a, rows_b):
        for col in CSV_COLUMNS:
            if col not in timing_cols:
                assert ra[col] == rb[col], col


def test_sweep_metrics_recomputable_from_dumps(tmp_path):
    out = tmp_path / "sweep"
    main(["sweep", "--sizes", "2", "--seeds", "0:2", "--gamma", "1.0", "--obstacles", "3", "--out", str(out), "--dump"])
    for row in read_rows(out / "trials.csv"):
        stem = f"size{row['size']}_seed{row['seed']}_gamma{float(row['gamma']):g}"
        dump = json.loads((out / "dumps" / f"{stem}.traj.json").read_text())
        replay = replay_outcome(dump)
        assert replay["success"] == bool(int(row["success"]))
        assert replay["mission_time"] == pytest.approx(float(row["mission_time"]))
        assert min(m for m in replay["min_inter_agent"] if m is not None) == pytest.approx(
            float(row["min_inter_agent"])
        )
        assert min(m for m in replay["min_obstacle"] if m is not None) == pytest.approx(
            float(row["min_obstacle"])
        )


def test_sweep_invalid_seed_range(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--sizes", "2", "--seeds", "5:5", "--out", str(tmp_path / "x")])
    assert info.value.code == 1
    assert "argument --seeds: empty seed range" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_validate_scenario_exit_codes(scenario_file, tmp_path, capsys):
    assert main(["validate-scenario", str(scenario_file)]) == 0
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "seed: 0\nworkspace: {min: [-2, -2, 0], max: [2, 2, 2]}\n"
        "agents:\n- {start: [0, 0, 1], goal: [9, 0, 1]}\nobstacles: []\n",
        encoding="utf-8",
    )
    assert main(["validate-scenario", str(bad)]) == 2
    assert main(["validate-scenario", str(tmp_path / "missing.yaml")]) == 1


@pytest.mark.parametrize(
    "content",
    [
        b"seed: 0\nworkspace: {min: [-2, -2, 0], max: [2, 2, 2]\nagents: []\n",
        b"seed: 0\nworkspace: {min: [-2, -2, 0], max: [2, 2, 2]}\n"
        b"agents:\n- {start: [0, 0, 1], goal: [1, 0, 1]}\n"
        b"obstacles:\n- {center: [-1, 1, 1], shape: [-0.3, 0.3, 1]}\n",
        b"seed: 0\n# \xff\xfe\n",
        b"seed: 0\nworkspace: {min: [-2, -2, 0], max: [2, 2, 2]}\nagents: []\n",
        b"seed: .inf\nworkspace: {min: [-2, -2, 0], max: [2, 2, 2]}\nagents:\n- {start: [0, 0, 1], goal: [1, 0, 1]}\n",
        b"seed: 1.0e+400\nworkspace: {min: [-2, -2, 0], max: [2, 2, 2]}\nagents:\n- {start: [0, 0, 1], goal: [1, 0, 1]}\n",
    ],
    ids=["unterminated-flow-mapping", "negative-semi-axis", "not-utf8", "no-agents", "infinite-seed", "overflowing-seed"],
)
def test_malformed_scenario_file_is_a_scenario_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(content)
    assert main(["run", str(bad)]) == 1
    assert "cannot load scenario" in capsys.readouterr().err
    assert main(["validate-scenario", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_antipodal_subcommand(tmp_path):
    out = tmp_path / "report.json"
    assert main(["antipodal", "--agents", "2", "--radius", "1.2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["success"] is True


def test_antipodal_rejects_one_agent(capsys):
    assert main(["antipodal", "--agents", "1"]) == 1


def test_readme_examples_parse():
    """Every ``swarmplan ...`` example line of README.md parses, so the docs
    advertise no removed or misspelt flag.  Nothing runs."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    examples = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("swarmplan ")]
    assert len(examples) == 4
    for argv in examples:
        build_parser().parse_args(argv)
