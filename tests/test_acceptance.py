"""Acceptance suite: one test per release criterion, at stated tolerances.

The mission-level criteria share cached results: the gamma = 1 benchmark runs
once (100 seeds) and is reused both for the success-rate criterion and as the
baseline leg of the gamma = 0.9 clearance comparison.  Missions run across a
small process pool; each individual mission is deterministic.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swarmplan.bernstein import sample_trajectory
from swarmplan.polar import EllipsoidShape, clipped_magnitude, omega, project_scaled
from swarmplan.problem import PlanningConfig, assemble
from swarmplan.scenario import antipodal, generate_random
from swarmplan.sim import default_planning_config, replay_outcome, run_mission
from swarmplan.solver import solve, step_s1

from conftest import random_full_instance
from oracles import (
    dense_kkt_qp,
    grid_search_angles,
    magnitude_objective,
    projection_objective,
    ternary_search_magnitude,
)
from test_solver import check_s3_against_plain_bound, random_state, s1_rhs, small_problem

WORKSPACE = (np.array([-2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0]))
SWARM_SIZE = 10
N_OBSTACLES = 16
JOBS = 2

pytestmark = pytest.mark.acceptance


def _benchmark_trial(args):
    seed, gamma = args
    scenario = generate_random(seed, SWARM_SIZE, N_OBSTACLES, WORKSPACE)
    report = run_mission(scenario, default_planning_config(scenario, gamma), record_trajectory=True)
    inter = [m for m in report.min_inter_agent if m is not None]
    obst = [m for m in report.min_obstacle if m is not None]
    return {
        "seed": seed,
        "gamma": gamma,
        "success": report.success,
        "mission_time": report.mission_time,
        "min_inter_agent": min(inter) if inter else None,
        "min_obstacle": min(obst) if obst else None,
        "collisions": len(report.collision_events),
        "trajectory": report.trajectory,
    }


def _run_benchmark(seeds, gamma):
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return {r["seed"]: r for r in pool.map(_benchmark_trial, [(s, gamma) for s in seeds])}


@pytest.fixture(scope="session")
def gamma1_runs():
    return _run_benchmark(range(100), 1.0)


@pytest.fixture(scope="session")
def gamma09_runs():
    return _run_benchmark(range(50), 0.9)


def test_c1_projection_and_magnitude_match_search_oracles():
    """Criterion 1: closed forms match grid/line searches within 1e-6 objective gap.

    The closed forms are the functions S2 and S3 call, on all 1000 cases
    stacked as constraint rows: ``project_scaled`` of the differences divided
    by the semi-axes, and ``clipped_magnitude`` with the directions
    ``omega(alpha, beta)`` and the semi-axes as scales.
    """
    rng = np.random.default_rng(100)
    t0 = time.monotonic()
    cases = []
    for _ in range(1000):
        diff = rng.normal(0.0, 1.5, 3)
        d = rng.uniform(0.1, 3.0)
        shape = EllipsoidShape(*rng.uniform(0.1, 2.0, 3))
        lo = rng.uniform(0.0, 1.5)
        hi = lo + rng.uniform(0.5, 4.0) if rng.uniform() < 0.5 else np.inf
        alpha_m, beta_m = rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi)
        cases.append((diff, d, shape, lo, hi, alpha_m, beta_m))
    diff, d, shape, lo, hi, alpha_m, beta_m = zip(*cases)
    scales = np.array([s.as_array for s in shape])
    alpha, beta = project_scaled(np.array(diff) / scales)
    directions = omega(np.array(alpha_m), np.array(beta_m))
    d_closed = clipped_magnitude(np.array(diff), directions, scales, np.array(lo), np.array(hi))

    worst_angle_gap = worst_mag_gap = worst_mag_err = 0.0
    for k in range(len(cases)):
        *_, grid_obj = grid_search_angles(diff[k], d[k], shape[k])
        gap = projection_objective(diff[k], d[k], shape[k], alpha[k], beta[k]) - grid_obj
        worst_angle_gap = max(worst_angle_gap, gap)

        d_search = ternary_search_magnitude(diff[k], alpha_m[k], beta_m[k], shape[k], lo[k], hi[k])
        worst_mag_err = max(worst_mag_err, abs(d_closed[k] - d_search))
        mag_gap = magnitude_objective(diff[k], alpha_m[k], beta_m[k], shape[k], d_closed[k]) - magnitude_objective(
            diff[k], alpha_m[k], beta_m[k], shape[k], d_search
        )
        worst_mag_gap = max(worst_mag_gap, mag_gap)
    elapsed = time.monotonic() - t0
    assert worst_angle_gap <= 1e-6
    assert worst_mag_gap <= 1e-6
    assert worst_mag_err <= 1e-8
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: angle gap {worst_angle_gap:.2e}, magnitude gap {worst_mag_gap:.2e}, "
        f"runtime {elapsed:.1f}s"
    )


def test_c2_coefficient_update_matches_dense_qp_oracle():
    """Criterion 2: S1 matches a dense KKT factorization on 200 small instances."""
    worst = 0.0
    for seed in range(200):
        problem, rng = small_problem(seed)
        state = random_state(problem, rng)
        zeta = step_s1(problem, state)
        A_hat = problem.shared.Q + state.rho * problem.shared.gram
        zeta_oracle = dense_kkt_qp(A_hat, -s1_rhs(problem, state), problem.shared.C, problem.e)
        rel = np.linalg.norm(zeta - zeta_oracle) / (1.0 + np.linalg.norm(zeta_oracle))
        worst = max(worst, rel)
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 2 PASS: worst relative solution error {worst:.2e} over 200 instances")


def test_c3_full_size_feasibility_and_convergence(basis30):
    """Criterion 3: full-size single-obstacle solves are feasible at tight tolerances."""
    config = PlanningConfig()
    rng = np.random.default_rng(7)
    converged = feasible = vel_ok = thrust_ok = 0
    for _ in range(100):
        problem, target = random_full_instance(rng, basis30, config)
        zeta, diag = solve(problem)
        if not diag.converged:
            continue
        converged += 1
        pos, vel, acc = sample_trajectory(basis30, zeta)
        metric = np.sum(((pos - target.predicted_centers) / target.shape.as_array) ** 2, axis=1)
        feasible += metric.min() >= 1.0 - 1e-3
        vel_ok += np.linalg.norm(vel, axis=1).max() <= config.v_max * (1.0 + 1e-2)
        thrust = np.linalg.norm(acc + np.array([0.0, 0.0, 9.81]), axis=1)
        thrust_ok += config.f_min * (1.0 - 1e-2) <= thrust.min() and thrust.max() <= config.f_max * (1.0 + 1e-2)
    assert converged >= 95
    assert feasible == converged
    assert vel_ok == converged
    assert thrust_ok == converged
    print(f"\nACCEPTANCE 3 PASS: {converged}/100 converged, all feasible at stated tolerances")


def test_c4_barrier_gamma_one_is_bitwise_standard(basis30, monkeypatch):
    """Criterion 4: with gamma = 1 the barrier is the plain constraint bitwise.

    At every iteration of every solve, S3 equals the clip into the plain
    bounds (1, and ``min(1, anchor)`` at step 0) bit for bit.
    """
    calls = check_s3_against_plain_bound(monkeypatch)
    rng = np.random.default_rng(200)
    config = PlanningConfig(gamma=1.0)
    iterations = 0
    for case in range(50):
        problem, _ = random_full_instance(rng, basis30, config)
        if case % 2:
            # add a second target to exercise the multi-constraint path
            extra = np.tile(rng.uniform([-1.5, -1.5, 0.4], [1.5, 1.5, 1.6]), (basis30.K, 1))
            problem = assemble(
                problem.snapshot,
                problem.targets
                + [type(problem.targets[0])("neighbor", EllipsoidShape(0.17, 0.17, 0.45), extra)],
                basis30,
                config,
            )
        _, diag = solve(problem)
        iterations += diag.iterations
    assert len(calls) == iterations and sorted(set(calls)) == [1, 2]
    print(f"\nACCEPTANCE 4 PASS: 50/50 instances, {iterations} S3 updates bitwise equal to the plain-bound clip")


def test_c5_barrier_raises_clearance_at_cost_of_time(gamma1_runs, gamma09_runs):
    """Criterion 5: gamma = 0.9 buys inter-agent clearance and does not speed missions up."""
    pairs = [
        (gamma1_runs[s], gamma09_runs[s])
        for s in range(50)
        if gamma1_runs[s]["success"] and gamma09_runs[s]["success"]
    ]
    assert len(pairs) >= 25, f"too few both-success pairs: {len(pairs)}"
    clearance_g1 = np.mean([a["min_inter_agent"] for a, _ in pairs])
    clearance_g09 = np.mean([b["min_inter_agent"] for _, b in pairs])
    time_g1 = np.mean([a["mission_time"] for a, _ in pairs])
    time_g09 = np.mean([b["mission_time"] for _, b in pairs])
    assert clearance_g09 >= 1.02 * clearance_g1, (clearance_g09, clearance_g1)
    assert time_g09 >= time_g1, (time_g09, time_g1)
    print(
        f"\nACCEPTANCE 5 PASS: clearance +{100 * (clearance_g09 / clearance_g1 - 1):.1f}% "
        f"({clearance_g1:.3f} -> {clearance_g09:.3f}), mission time {time_g1:.2f}s -> {time_g09:.2f}s "
        f"on {len(pairs)} paired seeds"
    )


def test_c6_success_rate_and_posthoc_recheck(gamma1_runs):
    """Criterion 6: >= 90% success over 100 seeds, verified against trajectory dumps."""
    successes = [r for r in gamma1_runs.values() if r["success"]]
    rate = len(successes) / len(gamma1_runs)
    assert rate >= 0.90, f"success rate {rate:.2f}"
    for result in gamma1_runs.values():
        replay = replay_outcome(result["trajectory"])
        assert replay["success"] == result["success"]
        if result["success"]:
            assert replay["collision_rounds"] == []
    print(f"\nACCEPTANCE 6 PASS: success rate {rate:.0%}, all dumps re-checked clean")


def test_c7_per_agent_compute_scales_linearly():
    """Criterion 7: median per-agent plan time grows no faster than linearly and is fast.

    A plan's time covers conflict selection, assembly and the solve.

    At these sizes most solves have no conflict target, so the medians are
    nearly flat and a line fit's R^2 would measure timing jitter.  Instead
    every size must satisfy ``median(N) <= median(2) * N / 2``: quadratic
    growth would give 16x at N = 8 against the 4x allowed.  Missions are
    deterministic and scheduler noise only ever adds time, so each size keeps
    its smallest median over three interleaved runs.
    """
    sizes = [2, 4, 6, 8]
    runs = {n: [] for n in sizes}
    for _ in range(3):
        for n in sizes:
            scenario = antipodal(n, radius=1.5, height=1.0)
            report = run_mission(scenario, default_planning_config(scenario, 0.9))
            assert report.success, f"antipodal exchange with {n} agents failed"
            times = np.array([t for per_agent in report.per_agent_compute_us for t in per_agent])
            runs[n].append(float(np.median(times)))
    medians = [min(runs[n]) for n in sizes]
    for n, median in zip(sizes, medians):
        assert median <= medians[0] * n / sizes[0], (sizes, medians)
    assert medians[-1] <= 50_000.0, f"median per-agent plan at N=8: {medians[-1]:.0f}us"
    print(
        f"\nACCEPTANCE 7 PASS: medians {[f'{m / 1e3:.2f}ms' for m in medians]} for N={sizes}, "
        f"growth {[f'{m / medians[0]:.2f}x' for m in medians]} against at most {[n // sizes[0] for n in sizes]}x"
    )


def test_c8_reports_are_deterministic_across_repeated_runs():
    """Criterion 8: canonical report bytes identical when the same missions run twice.

    Both passes run in this process on freshly generated scenarios, the second
    after all ten missions of the first, so state that leaks from one mission
    into a later one changes the bytes.
    """

    def run_all():
        reports = []
        for seed in range(10):
            scenario = generate_random(seed, 4, 6, WORKSPACE)
            reports.append(run_mission(scenario, default_planning_config(scenario, 1.0)).canonical_bytes())
        return reports

    first, second = run_all(), run_all()
    for seed, (a, b) in enumerate(zip(first, second)):
        assert a == b, f"seed {seed}"
    print("\nACCEPTANCE 8 PASS: 10/10 seeds byte-identical across repeated runs")
