"""In-memory spans around the calls into each layer, and the per-layer metrics they give.

A span is (name, start, end, parent).  Spans are appended to flat arrays as
they open, so a traced pass of the clutter workload (about a million spans)
costs 24 bytes a span; they are written out once, at the end of the run.
The parent of a span is the span open when it started, so each mission's
spans hang off its ``sim.run_mission`` span.  A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

LONG_SOLVE_ITERATIONS = 100


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid, enter, exit_ = self._id(name), self._enter, self._exit

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return traced

    @contextmanager
    def region(self, name: str):
        """Record the body of a ``with`` block as a span called ``name``."""
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def arrays(self) -> dict:
        # Copies: a live view would stop the arrays from growing.
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def total(self, name: str) -> float:
        """Summed duration of the closed spans called ``name``."""
        if name not in self.names:
            return 0.0
        spans = self.arrays()
        mask = spans["name_id"] == self.names.index(name)
        return float((spans["end"][mask] - spans["start"][mask]).sum())


def layer_calls(sim, solver) -> list[tuple[object, str, str]]:
    """(module, attribute the caller looks up, span name) for every traced layer boundary.

    A boundary the program no longer has is left out, so its spans are
    missing and its per-call metrics read 0.
    """
    calls = [
        (sim, "check_collision", "sim.check_collision"),
        (sim, "detect_conflicts", "problem.detect_conflicts"),
        (sim, "assemble", "problem.assemble"),
        (sim, "sample_trajectory", "bernstein.sample_trajectory"),
        (sim, "build_basis", "bernstein.build_basis"),
        (solver, "step_s1", "solver.s1"),
        (solver, "step_s2", "solver.s2"),
        (solver, "step_s3", "solver.s3"),
        (solver, "step_s4", "solver.s4"),
        (solver, "step_s5", "solver.s5"),
        (solver, "sample_trajectory", "bernstein.sample_trajectory"),
        (solver, "cho_factor", "solver.cho_factor"),
    ]
    return [(module, attribute, name) for module, attribute, name in calls if hasattr(module, attribute)]


@contextmanager
def patched(replacements):
    """Set ``module.attribute = value`` for each triple, restoring the originals on exit."""
    with ExitStack() as stack:
        for module, attribute, value in replacements:
            stack.enter_context(mock.patch.object(module, attribute, value))
        yield


def _pct(values, q) -> float:
    return float(np.percentile(values, q))


def layer_metrics(spans: dict, solves: list[tuple[int, bool, int]], rounds: int, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``solves`` holds (iterations, converged, conflict count M) per solve, in
    call order, so it lines up with the ``solver.solve`` spans.  Counts are
    per pass; times are per call unless the name says otherwise.
    """
    names = list(spans["names"])
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)

    def durations(name):
        return dur[nid == names.index(name)] if name in names else np.zeros(0)

    def mean_us(name):
        d = durations(name)
        return float(d.mean() * 1e6) if d.size else 0.0

    iters = np.array([s[0] for s in solves])
    converged = np.array([s[1] for s in solves])
    conflicts = np.array([s[2] for s in solves])
    solve_dur = durations("solver.solve")
    if solve_dur.size != iters.size:
        raise RuntimeError(f"{solve_dur.size} solve spans against {iters.size} recorded solves")
    total_iters = max(int(iters.sum()), 1)
    solve_self = self_time[nid == names.index("solver.solve")]
    mission_self = self_time[nid == names.index("sim.run_mission")]
    return {
        "sim.rounds": (rounds / passes, "count"),
        "sim.plans": (iters.size / passes, "count"),
        "sim.self_ms_per_round": (mission_self.sum() * 1e3 / rounds, "ms"),
        "sim.check_collision_us": (mean_us("sim.check_collision"), "us"),
        "problem.detect_conflicts_us": (mean_us("problem.detect_conflicts"), "us"),
        "problem.assemble_us": (mean_us("problem.assemble"), "us"),
        "problem.conflicts_mean": (float(conflicts.mean()), "count"),
        "problem.conflict_free_ratio": (float(np.mean(conflicts == 0)), "ratio"),
        "solver.solve_us_p50": (_pct(solve_dur, 50) * 1e6, "us"),
        "solver.solve_us_p99": (_pct(solve_dur, 99) * 1e6, "us"),
        "solver.iterations": (iters.sum() / passes, "count"),
        "solver.iterations_p50": (_pct(iters, 50), "count"),
        "solver.iterations_p90": (_pct(iters, 90), "count"),
        "solver.iterations_p99": (_pct(iters, 99), "count"),
        "solver.iterations_max": (float(iters.max()), "count"),
        "solver.us_per_iteration": (solve_dur.sum() * 1e6 / total_iters, "us"),
        **{f"solver.s{k}_us": (mean_us(f"solver.s{k}"), "us") for k in range(1, 6)},
        "solver.self_us_per_iteration": (solve_self.sum() * 1e6 / total_iters, "us"),
        "solver.factorizations": (durations("solver.cho_factor").size / passes, "count"),
        "solver.converged_ratio": (float(converged.mean()), "ratio"),
        "solver.useful_iteration_ratio": (float(iters[converged].sum()) / total_iters, "ratio"),
        "solver.long_solve_time_share": (
            float(solve_dur[iters > LONG_SOLVE_ITERATIONS].sum() / solve_dur.sum()),
            "ratio",
        ),
        "solver.nonconverged": (float((~converged).sum()) / passes, "count"),
        "bernstein.sample_us": (mean_us("bernstein.sample_trajectory"), "us"),
        "scenario.generate_ms": (mean_us("scenario.generate_random") / 1e3, "ms"),
    }
