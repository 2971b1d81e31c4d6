"""Output checks that do not trust the program's own bookkeeping.

``check_mission`` recomputes a mission's outcome from its trajectory dump and
the scenario, and compares it with the report; it never calls
``sim.replay_outcome`` or ``sim.check_collision``.  ``check_plan`` tests one
converged plan against the constraints its problem was assembled from,
sampling the Bernstein polynomials itself.  Each returns a list of problems,
each prefixed with the name of the check that found it; an empty list means
the output passed.

The rules follow the simulator's documented contract: a collision is a
scaled separation below 1 in the declaration envelopes (obstacle envelopes
deflated by the planning-vs-declaration margin of agents); a mission ends at
the first round with a collision, at the first round where every agent is
within 0.1 m of its goal at no more than 0.2 m/s, or once the clock passes
20 s; success needs the second without the first.
"""

from __future__ import annotations

import hashlib

import numpy as np

GOAL_TOL_POS = 0.1
GOAL_TOL_VEL = 0.2
TIME_LIMIT = 20.0
GRAVITY = 9.81
FLOAT_TOL = 1e-9


def digest(report) -> str:
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def unstable_digests(digests: dict) -> list[str]:
    """Missions whose canonical report digest differs between repeats: ``{mission: [digest, ...]}``."""
    return [f"digest: mission {m} gave {len(set(d))} different canonical reports" for m, d in digests.items() if len(set(d)) > 1]


def declaration_axes(config, shape) -> np.ndarray:
    margin = config.theta_agent.as_array - config.theta_coll.as_array
    return np.maximum(shape.as_array - margin, 1e-6)


def recompute_outcome(dump: dict, scenario, config) -> dict:
    """Per-round separations, first collision, termination round and success from the dump alone."""
    coll = config.theta_coll.as_array
    goals = np.array([g for _, g in scenario.agents])
    obs_axes = [declaration_axes(config, o.shape) for o in scenario.obstacles]
    dt = float(dump["dt"])
    iu, ju = np.triu_indices(len(goals), k=1)
    min_inter, min_obstacle = [], []
    end_round = at_goal_round = collision_round = None
    collision_pairs = set()
    for r, row in enumerate(dump["rounds"]):
        pos = np.asarray(row["positions"], dtype=float)
        vel = np.asarray(row["velocities"], dtype=float)
        pair = np.linalg.norm((pos[iu] - pos[ju]) / coll, axis=1)
        min_inter.append(float(pair.min()) if pair.size else None)
        obs = [np.linalg.norm((pos - np.asarray(c)) / ax, axis=1) for c, ax in zip(row["obstacle_centers"], obs_axes)]
        min_obstacle.append(float(min(o.min() for o in obs)) if obs else None)
        hits = {(f"agent{iu[k]}", f"agent{ju[k]}") for k in np.flatnonzero(pair < 1.0)}
        hits |= {(f"agent{i}", f"obstacle{k}") for k, o in enumerate(obs) for i in np.flatnonzero(o < 1.0)}
        reached = bool(
            np.all(np.linalg.norm(pos - goals, axis=1) <= GOAL_TOL_POS)
            and np.all(np.linalg.norm(vel, axis=1) <= GOAL_TOL_VEL)
        )
        if hits and collision_round is None:
            collision_round, collision_pairs = r, hits
        if reached and at_goal_round is None:
            at_goal_round = r
        if end_round is None and (hits or reached or r * dt > TIME_LIMIT + FLOAT_TOL):
            end_round = r
    final = len(dump["rounds"]) - 1
    return {
        "min_inter_agent": min_inter,
        "min_obstacle": min_obstacle,
        "collision_round": collision_round,
        "collision_pairs": collision_pairs,
        "end_round": end_round,
        "final_round": final,
        "success": collision_round is None and at_goal_round == final and final * dt <= TIME_LIMIT + FLOAT_TOL,
        "mission_time": final * dt,
    }


def _series_mismatch(name: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: report has {len(got)} rounds, dump has {len(want)}"]
    for r, (a, b) in enumerate(zip(got, want)):
        if (a is None) != (b is None) or (a is not None and abs(a - b) > FLOAT_TOL * max(1.0, abs(b))):
            return [f"{name}: round {r} report {a} against {b} recomputed"]
    return []


def check_mission(report, scenario, config) -> tuple[list[str], dict]:
    """Problems found in one mission's report and dump, and the recomputed outcome."""
    dump = report.trajectory
    out = recompute_outcome(dump, scenario, config)
    problems = []
    if abs(float(dump["dt"]) - config.dt) > FLOAT_TOL:
        problems.append(f"dump: dt {dump['dt']} against config {config.dt}")
    first = dump["rounds"][0]
    if not np.allclose(first["positions"], [s for s, _ in scenario.agents], rtol=0.0, atol=FLOAT_TOL):
        problems.append("dump: round 0 positions are not the scenario starts")
    for r, row in enumerate(dump["rounds"]):
        expected = [o.center + r * config.dt * o.velocity for o in scenario.obstacles]
        if expected and not np.allclose(row["obstacle_centers"], expected, rtol=0.0, atol=1e-6):
            problems.append(f"dump: round {r} obstacle centres do not follow the scenario")
            break
    if out["end_round"] != out["final_round"]:
        problems.append(f"termination: mission should end at round {out['end_round']}, dump ends at {out['final_round']}")
    problems += _series_mismatch("min_inter_agent", report.min_inter_agent, out["min_inter_agent"])
    problems += _series_mismatch("min_obstacle", report.min_obstacle, out["min_obstacle"])
    events = report.collision_events
    reported_round = events[0][0] if events else None
    if reported_round != out["collision_round"] or any(e[0] != reported_round for e in events):
        problems.append(f"collision_round: report {reported_round} against {out['collision_round']} recomputed")
    elif {(e[1], e[2]) for e in events} != out["collision_pairs"]:
        problems.append(f"collision_round: pairs {sorted((e[1], e[2]) for e in events)} against {sorted(out['collision_pairs'])}")
    if report.success != out["success"]:
        problems.append(f"success: report {report.success} against {out['success']} recomputed")
    timeout = not out["success"] and out["collision_round"] is None
    if report.timeout != timeout:
        problems.append(f"success: timeout flag {report.timeout} against {timeout} recomputed")
    if report.rounds != out["final_round"] or abs(report.mission_time - out["mission_time"]) > FLOAT_TOL:
        problems.append(
            f"mission_time: report {report.mission_time} s / {report.rounds} rounds "
            f"against {out['mission_time']} s / {out['final_round']} recomputed"
        )
    return problems, out


def clearance(outcome: dict) -> float:
    """Smallest agent-agent or agent-obstacle scaled separation over the mission."""
    values = [m for m in outcome["min_inter_agent"] + outcome["min_obstacle"] if m is not None]
    return min(values)


def check_plan(problem, zeta, tol: float) -> list[str]:
    """Constraint violations of one converged plan beyond the solver's threshold ``tol``.

    A converged solve's residual rows are below ``tol`` in the units of the
    sampled quantity (m/s, m/s^2, m), each measured from a point that meets
    its constraint.  So speed, thrust and the workspace box may overshoot by
    ``tol``, and a collision metric (scaled by the target's semi-axes) may
    fall short by ``tol`` over the smallest semi-axis.  Step-0 rows are
    widened to admit the measured state, as ``PlanningProblem`` documents:
    speed cap ``max(v_max, |v0|)``, thrust band stretched to include
    ``|a0 + g|``, collision bound ``min(1, anchor)``.
    """
    cfg, snap, basis = problem.config, problem.snapshot, problem.basis
    coeffs = np.asarray(zeta, dtype=float).reshape(3, basis.n + 1).T
    pos, vel, acc = basis.W @ coeffs, basis.W1 @ coeffs, basis.W2 @ coeffs
    problems = []
    for name, got, want in (
        ("position", pos[0], snap.position),
        ("velocity", vel[0], snap.velocity),
        ("acceleration", acc[0], snap.acceleration),
    ):
        if np.linalg.norm(got - want) > tol:
            problems.append(f"plan: initial {name} off by {np.linalg.norm(got - want):.3g}")
    speed = np.linalg.norm(vel, axis=1)
    cap = np.full(speed.size, cfg.v_max)
    cap[0] = max(cfg.v_max, np.linalg.norm(snap.velocity))
    if np.any(speed > cap + tol):
        problems.append(f"plan: speed {speed.max():.4f} above the cap {cfg.v_max}")
    gravity = np.array([0.0, 0.0, GRAVITY])
    thrust = np.linalg.norm(acc + gravity, axis=1)
    thrust0 = np.linalg.norm(snap.acceleration + gravity)
    f_lo = np.full(thrust.size, cfg.f_min)
    f_hi = np.full(thrust.size, cfg.f_max)
    f_lo[0], f_hi[0] = min(cfg.f_min, thrust0), max(cfg.f_max, thrust0)
    if np.any(thrust < f_lo - tol) or np.any(thrust > f_hi + tol):
        problems.append(f"plan: thrust {thrust.min():.3f}..{thrust.max():.3f} outside [{cfg.f_min}, {cfg.f_max}]")
    if np.any(pos < np.asarray(cfg.p_min) - tol) or np.any(pos > np.asarray(cfg.p_max) + tol):
        problems.append("plan: position outside the workspace box")
    for k, target in enumerate(problem.targets):
        axes = target.shape.as_array
        metric = np.linalg.norm((pos - target.predicted_centers) / axes, axis=1)
        bound = np.ones(metric.size)
        bound[0] = min(1.0, np.linalg.norm((snap.position - target.predicted_centers[0]) / axes))
        if np.any(metric < bound - tol / axes.min()):
            step = int(np.argmin(metric - bound))
            problems.append(f"plan: {target.kind} target {k} metric {metric[step]:.4f} at step {step}")
    return problems
