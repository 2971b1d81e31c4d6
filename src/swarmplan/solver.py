"""Alternating-minimization solver for one agent's planning problem.

Each iteration performs five block updates on the relaxed problem

    min 0.5 z'Qz + q'z - lam'z + rho/2 ||A z - b(angles, mags)||^2
                                + rho/2 ||G z - h + s||^2   s.t.  C z = e

S1  trajectory coefficients ``z`` via an equality-constrained QP solve,
S2  closed-form angle updates (projection onto the constraint ellipsoids),
S3  closed-form clipped magnitude updates (standard or barrier bounds),
S4  nonnegative slack update for the bound rows,
S5  multiplier update.

The penalty grows geometrically per iteration up to a cap, and the loop exits
once the combined constraint residual drops below the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bernstein import sample_trajectory
from .polar import PolarVars, _project_scaled, bf_lower_bound, clipped_magnitude, omega
from .problem import PlanningProblem, build_b

MODES = ("standard", "bf")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limits and penalty schedule.

    Once the combined residual drops below ``threshold`` the iterate counts
    as converged, but the loop keeps polishing until the residual has sat at
    ``residual_floor`` for ``settle_passes`` iterations (or ``polish_budget``
    extra iterations as a backstop).  The residual measures exactly how far
    the sampled trajectory is from its clipped polar projection, so stopping
    hard at the threshold would leave residual-sized constraint slop in the
    returned trajectory; a few floor iterations also wash out the artifacts
    of the zero-initialized magnitudes in otherwise unconstrained solves.
    Polishing is deliberately short: once the residual is at the floor,
    further iterations slowly trade optimality for standoff margin.
    """

    maxiter: int = 2000
    threshold: float = 0.01
    rho_base: float = 1.3
    rho_cap: float = 5e5
    polish_budget: int = 64
    settle_passes: int = 5
    residual_floor: float = 1e-8

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        # rho >= 1 keeps the reduced S1 Hessian positive definite (see step_s1).
        if self.rho_base < 1:
            raise ValueError(f"rho_base must be >= 1, got {self.rho_base}")
        if self.rho_cap < 1:
            raise ValueError(f"rho_cap must be >= 1, got {self.rho_cap}")
        if self.polish_budget < 0:
            raise ValueError(f"polish_budget must be >= 0, got {self.polish_budget}")
        if self.settle_passes < 1:
            raise ValueError(f"settle_passes must be >= 1, got {self.settle_passes}")

    def rho_at(self, iteration: int) -> float:
        return min(self.rho_base**iteration, self.rho_cap)


@dataclass
class SolverState:
    """Mutable iterate carried across the S1..S5 updates."""

    zeta1: np.ndarray
    polar: PolarVars
    lam: np.ndarray
    slack: np.ndarray
    rho: float = 1.0
    iter: int = 0
    eq_residual: float = np.inf
    ineq_residual: float = np.inf

    @classmethod
    def cold(cls, problem: PlanningProblem, config: SolverConfig | None = None) -> "SolverState":
        config = config or SolverConfig()
        return cls(
            zeta1=np.zeros(problem.n_coeffs),
            polar=PolarVars.zeros(problem.n_rows),
            lam=np.zeros(problem.n_coeffs),
            slack=np.zeros(problem.h.size),
            rho=config.rho_at(0),
            iter=0,
        )

    def copy(self) -> "SolverState":
        return SolverState(
            zeta1=self.zeta1.copy(),
            polar=self.polar.copy(),
            lam=self.lam.copy(),
            slack=self.slack.copy(),
            rho=self.rho,
            iter=self.iter,
            eq_residual=self.eq_residual,
            ineq_residual=self.ineq_residual,
        )


@dataclass
class SolveDiagnostics:
    iterations: int
    eq_residual: float
    ineq_residual: float
    converged: bool
    wall_time_us: float
    state: SolverState | None = field(default=None, repr=False)

    @property
    def residual(self) -> float:
        return self.eq_residual + self.ineq_residual

    def record(self) -> dict:
        """Flat export record for benchmark logs."""
        return {
            "iterations": self.iterations,
            "eq_residual": self.eq_residual,
            "ineq_residual": self.ineq_residual,
            "residual": self.residual,
            "converged": self.converged,
            "wall_time_us": self.wall_time_us,
        }


def _kkt_factors(problem: PlanningProblem, rho: float) -> tuple:
    """Cached factorization pieces of the reduced S1 system for one ``rho``.

    Returns ``(cho, v)`` where ``cho`` factors the reduced Hessian
    ``Z' A_hat Z`` and ``v = Z' A_hat z_particular``.
    """
    cached = problem._kkt_cache.get(rho)
    if cached is not None:
        return cached
    Z, ZT = problem.null_basis, problem.null_basis_T
    A_hat = problem.Q + rho * problem.gram
    cho = cho_factor(ZT @ A_hat @ Z, lower=True, check_finite=False)
    v = ZT @ (A_hat @ problem.zeta_particular)
    entry = (cho, v)
    problem._kkt_cache[rho] = entry
    return entry


def step_s1(problem: PlanningProblem, state: SolverState, b: np.ndarray | None = None) -> np.ndarray:
    """Coefficient update: minimize the penalized objective subject to ``C z = e``.

    The equality block is eliminated exactly through the precomputed
    particular solution and null-space basis, so ``C z = e`` holds to machine
    precision.  ``C`` pins only coefficients 0-2 of each axis, so the reduced
    Hessian is congruent to the free block of ``Q + rho * gram``.  ``Q`` is
    positive semidefinite for nonnegative cost weights and ``gram`` holds
    the workspace rows' ``W'W``, positive definite once ``K >= n + 1``; the
    configurations enforce the weights and ``rho >= 1``.  A singular reduced
    system raises :class:`numpy.linalg.LinAlgError`.
    """
    if b is None:
        b = build_b(problem, state.polar)
    rho = state.rho
    rhs = -problem.q + state.lam + rho * (problem.AT @ b) + rho * (problem.GT @ (problem.h - state.slack))
    cho, v = _kkt_factors(problem, rho)
    y = cho_solve(cho, problem.null_basis_T @ rhs - v, check_finite=False)
    return problem.zeta_particular + problem.null_basis @ y


def _sampled(problem: PlanningProblem, zeta1: np.ndarray):
    pos, vel, acc = sample_trajectory(problem.basis, zeta1)
    return pos, vel, acc, problem.stack_samples(pos, vel, acc)


def step_s2(
    problem: PlanningProblem,
    state: SolverState,
    samples: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Angle update: independently project every constraint row's difference."""
    if samples is None:
        *_, samples = _sampled(problem, state.zeta1)
    u = (samples - problem.centers) / problem.scales
    return _project_scaled(u)


def step_s3(
    problem: PlanningProblem,
    state: SolverState,
    mode: str = "standard",
    samples: np.ndarray | None = None,
    omega_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Magnitude update: per-row quadratic vertex clipped into the feasible interval.

    In ``bf`` mode the collision lower bounds follow the barrier rule
    ``1 + (1 - gamma) * (d_prev - 1)`` instead of the constant boundary value
    1, where ``d_prev`` is the previous iterate's magnitude one step earlier
    and, for step 0, the measured anchor.  Step 0 is pinned to the measured
    state, so its bound is also capped at the assembled step-0 bound
    ``min(1, anchor)``.  On a cold start :func:`solve` seeds the previous
    magnitudes with the anchors, so the first bound reads the measured state.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if samples is None:
        *_, samples = _sampled(problem, state.zeta1)
    if omega_rows is None:
        omega_rows = omega(state.polar.alpha, state.polar.beta)
    lo = problem.lo_base
    if mode == "bf" and problem.M:
        d_prev = state.polar.d[problem.col_rows].reshape(problem.M, problem.K)
        shifted = np.empty_like(d_prev)
        shifted[:, 0] = problem.anchors
        shifted[:, 1:] = d_prev[:, :-1]
        bound = bf_lower_bound(shifted, problem.config.gamma)
        # Step 0 is pinned to the measured state; never ask for more than it has.
        bound[:, 0] = np.minimum(bound[:, 0], lo[problem.col_rows][:: problem.K])
        lo = lo.copy()
        lo[problem.col_rows] = bound.ravel()
    return clipped_magnitude(samples - problem.centers, omega_rows, problem.scales, lo, problem.hi_bounds)


def step_s4(problem: PlanningProblem, state: SolverState, gz: np.ndarray | None = None) -> np.ndarray:
    """Slack update: the nonnegative minimizer of the bound-violation penalty."""
    if gz is None:
        gz = problem.G @ state.zeta1
    return np.maximum(0.0, problem.h - gz)


def step_s5(
    problem: PlanningProblem,
    state: SolverState,
    r_eq: np.ndarray | None = None,
    viol: np.ndarray | None = None,
) -> np.ndarray:
    """Multiplier update from the current equality and bound residuals."""
    if r_eq is None:
        r_eq = problem.A @ state.zeta1 - build_b(problem, state.polar)
    if viol is None:
        viol = problem.G @ state.zeta1 - problem.h + state.slack
    half_rho = 0.5 * state.rho
    return state.lam - half_rho * (problem.AT @ r_eq) - half_rho * (problem.GT @ viol)


def solve(
    problem: PlanningProblem,
    warm_start: SolverState | None = None,
    config: SolverConfig | None = None,
    mode: str = "standard",
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run the alternating updates until the residual threshold or iteration cap.

    Cold starts zero the polar variables, multipliers, and slacks, except
    that after the first target vector is built the collision magnitudes are
    set to the measured anchors: the ``bf`` barrier's first bound then reads
    the measured state rather than the zero placeholder, which would make it
    looser than the plain bound 1.  A warm start copies the supplied state,
    including its penalty schedule position.  Step-0 rows admit the measured
    state (see :class:`~swarmplan.problem.PlanningProblem`), so a start that
    violates an ordinary bound does not floor the residual.
    Returns the lowest-residual iterate and diagnostics carrying the final
    state for warm-start reuse.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    config = config or SolverConfig()
    state = warm_start.copy() if warm_start is not None else SolverState.cold(problem, config)
    state.rho = config.rho_at(state.iter)

    t0 = time.perf_counter()
    b = build_b(problem, state.polar)
    if warm_start is None:
        state.polar.d[problem.col_rows] = np.repeat(problem.anchors, problem.K)
    best_zeta = state.zeta1
    best_residual = np.inf
    converged = False
    local_iter = 0
    polish_iters = 0
    floor_hits = 0

    while local_iter < config.maxiter:
        zeta = step_s1(problem, state, b=b)
        state.zeta1 = zeta
        pos, vel, acc, samples = _sampled(problem, zeta)

        alpha, beta = step_s2(problem, state, samples=samples)
        state.polar.alpha = alpha
        state.polar.beta = beta
        omega_rows = omega(alpha, beta)
        state.polar.d = step_s3(problem, state, mode, samples=samples, omega_rows=omega_rows)

        pos_axis = pos.T.ravel()
        gz = np.concatenate([pos_axis, -pos_axis])
        state.slack = step_s4(problem, state, gz=gz)

        b = build_b(problem, state.polar, _omega_rows=omega_rows)
        r_eq = samples.T.ravel() - b
        viol = np.maximum(gz - problem.h, 0.0)
        state.lam = step_s5(problem, state, r_eq=r_eq, viol=viol)

        state.eq_residual = float(np.linalg.norm(r_eq))
        state.ineq_residual = float(np.linalg.norm(viol))
        state.iter += 1
        state.rho = config.rho_at(state.iter)
        local_iter += 1

        residual = state.eq_residual + state.ineq_residual
        if residual < best_residual:
            best_residual = residual
            best_zeta = zeta
        if converged:
            polish_iters += 1
        if residual < config.threshold:
            converged = True
        if residual < config.residual_floor:
            floor_hits += 1
        if converged and (floor_hits >= config.settle_passes or polish_iters >= config.polish_budget):
            break

    wall_us = (time.perf_counter() - t0) * 1e6
    diagnostics = SolveDiagnostics(
        iterations=local_iter,
        eq_residual=state.eq_residual,
        ineq_residual=state.ineq_residual,
        converged=converged,
        wall_time_us=wall_us,
        state=state,
    )
    return best_zeta, diagnostics
