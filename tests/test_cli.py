import csv
import json

import numpy as np
import pytest

from swarmplan.cli import CSV_COLUMNS, main
from swarmplan.scenario import antipodal, generate_random, save_scenario
from swarmplan.sim import replay_outcome

WS = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))


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


def test_run_rejects_bad_gamma(scenario_file, capsys):
    assert main(["run", str(scenario_file), "--gamma", "1.4"]) == 1


def test_standard_mode_rejects_gamma_below_one(scenario_file, tmp_path, capsys):
    """Standard mode ignores gamma, so gamma != 1 without --mode bf is a usage error."""
    out = tmp_path / "sweep"
    for argv in (
        ["run", str(scenario_file), "--gamma", "0.9"],
        ["antipodal", "--agents", "2", "--gamma", "0.9", "--mode", "standard"],
        ["sweep", "--sizes", "2", "--seeds", "0:1", "--gamma", "1.0,0.9", "--out", str(out)],
    ):
        assert main(argv) == 1, argv
        assert "--mode bf" in capsys.readouterr().err
    assert not out.exists()
    assert main(["antipodal", "--agents", "2", "--gamma", "0.9", "--mode", "bf", "--out", str(tmp_path / "bf.json")]) == 0


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
    assert main(["sweep", "--sizes", "2", "--seeds", "5:5", "--out", str(tmp_path / "x")]) == 1


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
    ],
    ids=["unterminated-flow-mapping", "negative-semi-axis", "not-utf8"],
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
