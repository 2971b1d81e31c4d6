"""The benchmark's per-layer split (``perfbench/spans.py``) still finds every layer boundary.

The split wraps the functions each caller looks up by module attribute.  A
boundary that is inlined or renamed drops out of ``layer_calls`` and its
per-layer metrics silently read 0, so the boundaries are pinned here.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from swarmplan import sim, solver
from swarmplan.scenario import generate_random

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_boundary_is_found_and_called(monkeypatch):
    spans = load_spans()
    calls = spans.layer_calls(sim, solver)
    assert len(calls) == 12
    tracer = spans.Tracer()
    monkeypatch.setattr(sim, "MISSION_TIME_LIMIT", 0.3)
    with spans.patched([(module, attr, tracer.wrap(name, getattr(module, attr))) for module, attr, name in calls]):
        sim.run_mission(generate_random(1, 4, 4), mode="bf")
    counts = np.bincount(tracer.arrays()["name_id"], minlength=len(tracer.names))
    called = {name for name, count in zip(tracer.names, counts) if count}
    assert called == {name for *_, name in calls}
    assert {f"solver.s{k}" for k in range(1, 6)} <= called


def test_perfbench_selftest_passes():
    """The benchmark's own output checks pass on a clean mission and catch every corruption.

    The self-test keeps a problem past its round and checks its plan
    against ``problem.snapshot``, so it is also the check that a snapshot
    must not change after its solve.
    """
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True, timeout=300, check=False
    )
    assert done.returncode == 0, done.stdout + done.stderr
