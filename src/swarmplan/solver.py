"""Alternating-minimization solver for one agent's planning problem.

Each iteration performs five block updates on the relaxed problem

    min 0.5 z'Qz + q'z - lam'z + rho/2 ||A z - b(angles, mags)||^2
                                + rho/2 ||G z - h + s||^2   s.t.  C z = e

S1  trajectory coefficients ``z`` via an equality-constrained QP solve,
S2  closed-form angle updates (projection onto the constraint ellipsoids),
S3  closed-form clipped magnitude updates (barrier bounds on collision rows),
S4  nonnegative slack update for the bound rows,
S5  multiplier update.

:func:`advance` runs one iteration; ``A z`` and ``G z`` are read off one
sampling of the new trajectory (:func:`sample_rows`).  The penalty grows
geometrically per iteration up to a cap, and :func:`solve` exits once the
combined constraint residual has dropped below the threshold and settled.
Every solve starts cold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .bernstein import sample_trajectory
from .polar import bf_lower_bound, clipped_magnitude, omega, project_scaled
from .problem import PlanningProblem, cached

# Penalty schedule rho_k = min(RHO_BASE**k, RHO_CAP).  rho >= 1 at every
# iteration keeps the reduced S1 Hessian positive definite (see step_s1).
RHO_BASE = 1.3
RHO_CAP = 5e5
# Every value the schedule takes: 1.3**k below the cap (k <= 50), then the cap.
_RHO_SCHEDULE = (*itertools.takewhile(lambda rho: rho < RHO_CAP, (RHO_BASE**k for k in itertools.count())), RHO_CAP)

# Once the combined residual drops below the threshold the iterate counts as
# converged, but the loop keeps polishing until the residual has sat below
# RESIDUAL_FLOOR for SETTLE_PASSES iterations (or POLISH_BUDGET extra
# iterations as a backstop).  The residual measures exactly how far the
# sampled trajectory is from its clipped polar projection, so stopping hard at
# the threshold would leave residual-sized constraint slop in the returned
# trajectory; a few floor iterations also wash out the artifacts of the
# zero-initialized magnitudes in otherwise unconstrained solves.  Polishing is
# deliberately short: once the residual is at the floor, further iterations
# slowly trade optimality for standoff margin.
POLISH_BUDGET = 64
SETTLE_PASSES = 5
RESIDUAL_FLOOR = 1e-8


def rho_at(iteration: int) -> float:
    """Penalty weight of the given iteration, read off the schedule table."""
    return _RHO_SCHEDULE[min(iteration, len(_RHO_SCHEDULE) - 1)]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap and convergence threshold on the combined residual: constants of every solve."""

    maxiter: ClassVar[int] = 2000
    threshold: ClassVar[float] = 0.01


@dataclass
class SolverState:
    """Iterate carried across the S1..S5 updates.

    ``d`` holds the magnitudes, one per constraint row in the problem's row
    layout, in the family's own units; the angles of the same iteration live
    only as the directions S3 and ``b`` read.  ``b`` is the target vector
    the next S1 reads.  ``factor`` holds
    ``(rho, cho, v)``: the shared factor of the reduced S1 system at penalty
    ``rho`` and the problem's reduced right-hand-side offset ``v``; the
    penalty never decreases within a solve, so S1 looks them up again
    exactly when it changes.
    """

    zeta1: np.ndarray
    d: np.ndarray
    lam: np.ndarray
    slack: np.ndarray
    b: np.ndarray
    rho: float
    iter: int = 0
    eq_residual: float = np.inf
    ineq_residual: float = np.inf
    factor: tuple | None = field(default=None, repr=False)

    @classmethod
    def cold(cls, problem: PlanningProblem) -> "SolverState":
        """Zero coefficients, polar variables, multipliers and slacks.

        The first target vector is built from zero magnitudes and angles by
        the row code :func:`advance` uses; then the collision magnitudes are
        set to the measured anchors, so the barrier's first bound reads the
        measured state rather than the zero placeholder, which would make it
        looser than the plain bound 1.
        """
        d = np.zeros(problem.n_rows)
        b = problem.target_rows(d, omega(d, d)).T.ravel()
        d[problem.col_rows] = np.repeat(problem.anchors, problem.K)
        return cls(
            zeta1=np.zeros(problem.n_coeffs),
            d=d,
            lam=np.zeros(problem.n_coeffs),
            slack=np.zeros(problem.h.size),
            b=b,
            rho=rho_at(0),
        )


@dataclass
class SolveDiagnostics:
    iterations: int
    eq_residual: float
    ineq_residual: float
    converged: bool


def step_s1(problem: PlanningProblem, state: SolverState) -> np.ndarray:
    """Coefficient update: minimize the penalized objective subject to ``C z = e``.

    The equality block is eliminated exactly through the precomputed
    particular solution and null-space basis, so ``C z = e`` holds to machine
    precision.  ``C`` pins only coefficients 0-2 of each axis, so the reduced
    Hessian is congruent to the free block of ``Q + rho * gram``.  ``Q`` is
    positive semidefinite, its cost weights being :class:`PlanningConfig`'s
    positive constants, and ``gram`` holds the workspace rows' ``W'W``,
    positive definite once the basis has ``K >= n + 1``; the schedule keeps
    ``rho >= 1``.
    A singular reduced system raises :class:`numpy.linalg.LinAlgError`.

    The reduced Hessian depends only on the basis, ``M`` and ``rho``, so its
    factor is kept in the basis's table under ``(M, rho)`` (see
    :func:`swarmplan.problem.cached`) for every agent and round to share.
    ``v``, the reduced image of the agent's particular solution, is the
    problem's own; ``state.factor`` keeps it and the factor while
    ``state.rho`` stays at their penalty.
    """
    rho = state.rho
    shared = problem.shared
    Z, ZT = shared.null_basis, shared.null_basis_T
    if state.factor is None or state.factor[0] != rho:
        A_hat = shared.Q + rho * shared.gram
        cho = cached(problem.basis, (problem.M, rho), _reduced_factor, ZT, A_hat, Z)
        state.factor = (rho, cho, ZT @ (A_hat @ problem.zeta_particular))
    _, (c, lower), v = state.factor
    rhs = state.lam - problem.q
    rhs += rho * (shared.AT @ state.b)
    rhs += rho * (shared.GT @ (problem.h - state.slack))
    # LAPACK's potrs on the cached factor: the routine cho_solve calls, without its wrappers.
    y, info = dpotrs(c, ZT @ rhs - v, lower=lower, overwrite_b=True)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return problem.zeta_particular + Z @ y


def _reduced_factor(ZT: np.ndarray, A_hat: np.ndarray, Z: np.ndarray) -> tuple:
    """Lower Cholesky factor of the reduced S1 system ``Z' A_hat Z``."""
    return cho_factor(ZT @ A_hat @ Z, lower=True, check_finite=False)


def sample_rows(problem: PlanningProblem, zeta1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A z`` and ``G z`` of the coefficients, read off one sampling of the trajectory.

    Returns the constraint-row samples (``n_rows x 3``; column ``i`` holds
    axis ``i``'s block of ``A z``) and the workspace rows ``G z``.
    """
    pos, vel, acc = sample_trajectory(problem.basis, zeta1)
    pos_axis = pos.T.ravel()
    return problem.stack_samples(pos, vel, acc), np.concatenate([pos_axis, -pos_axis])


def step_s2(problem: PlanningProblem, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle update: independently project every constraint row's difference ``samples - centers``."""
    return project_scaled(diff / problem.scales)


def step_s3(
    problem: PlanningProblem,
    state: SolverState,
    diff: np.ndarray,
    omega_rows: np.ndarray,
) -> np.ndarray:
    """Magnitude update: per-row quadratic vertex clipped into the feasible interval.

    ``diff`` holds every row's difference ``samples - centers`` and
    ``omega_rows`` the directions of the angles just updated.  The
    collision lower bounds follow the barrier rule
    ``1 + (1 - gamma) * (d_prev - 1)`` at ``problem.config.gamma``, where
    ``d_prev`` is the previous iterate's magnitude one step earlier and, for
    step 0, the measured anchor.  Step 0 is pinned to the measured state,
    so its bound is also capped at the assembled step-0 bound
    ``min(1, anchor)``; that step-0 bound reads only the anchors, so the
    problem holds it (``barrier_lo_step0``).  A cold start seeds the
    previous magnitudes with the anchors (see :meth:`SolverState.cold`), so
    the first bound reads the measured state.

    The barrier bounds are built only when ``gamma < 1``.  With
    ``gamma = 1`` the rule gives 1 for every finite ``d_prev`` and anchor,
    and ``min(1, anchor)`` at step 0: the assembled ``problem.lo_base``, bit
    for bit.  ``d_prev`` is finite whenever S3 runs, since a non-finite
    magnitude makes the residual non-finite and :func:`solve` stops.
    """
    lo = problem.lo_base
    if problem.M and problem.config.gamma < 1.0:
        d_prev = state.d[problem.col_rows].reshape(problem.M, problem.K)
        lo = lo.copy()
        bound = lo[problem.col_rows].reshape(problem.M, problem.K)  # a view into lo
        bound[:, 0] = problem.barrier_lo_step0
        bound[:, 1:] = bf_lower_bound(d_prev[:, :-1], problem.config.gamma)
    return clipped_magnitude(diff, omega_rows, problem.scales, lo, problem.hi_bounds)


def step_s4(problem: PlanningProblem, gz: np.ndarray) -> np.ndarray:
    """Slack update: the nonnegative minimizer of the bound-violation penalty."""
    return np.maximum(0.0, problem.h - gz)


def step_s5(problem: PlanningProblem, state: SolverState, r_eq: np.ndarray, viol: np.ndarray) -> np.ndarray:
    """Multiplier update from the equality residual ``A z - b`` and the bound residual ``G z - h + s``."""
    half_rho = 0.5 * state.rho
    shared = problem.shared
    return state.lam - half_rho * (shared.AT @ r_eq) - half_rho * (shared.GT @ viol)


def advance(problem: PlanningProblem, state: SolverState) -> None:
    """One iteration in place: S1..S5, the residuals, and the next penalty.

    After S4 the bound residual ``G z - h + s`` equals ``max(G z - h, 0)``.
    """
    state.zeta1 = step_s1(problem, state)
    samples, gz = sample_rows(problem, state.zeta1)
    diff = samples - problem.centers
    omega_rows = omega(*step_s2(problem, diff))
    state.d = step_s3(problem, state, diff, omega_rows)
    state.slack = step_s4(problem, gz)
    # b and the residual A z - b both read the target rows, so they are built once, in row form.
    rows = problem.target_rows(state.d, omega_rows)
    state.b = rows.T.ravel()
    r_eq = (samples - rows).T.ravel()
    viol = np.maximum(gz - problem.h, 0.0)
    state.lam = step_s5(problem, state, r_eq, viol)
    # sqrt(r . r) is what np.linalg.norm computes for a 1-D real vector.
    state.eq_residual = math.sqrt(r_eq.dot(r_eq))
    state.ineq_residual = math.sqrt(viol.dot(viol))
    state.iter += 1
    state.rho = rho_at(state.iter)


def solve(problem: PlanningProblem) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run the alternating updates from a cold start until the residual settles or the iteration cap.

    Step-0 rows admit the measured state (see
    :class:`~swarmplan.problem.PlanningProblem`), so a start that violates an
    ordinary bound does not floor the residual.  Returns the lowest-residual
    iterate and the diagnostics of the last one.

    A non-finite residual ends the loop: it reaches the multipliers through
    ``A'``, so every later iterate would be non-finite too.  The best finite
    iterate before it is returned; if there is none, :class:`FloatingPointError`
    is raised, since the zero cold start is no plan.
    """
    state = SolverState.cold(problem)
    best_zeta = state.zeta1
    best_residual = np.inf
    converged = False
    polish_iters = 0
    floor_hits = 0

    while state.iter < SolverConfig.maxiter:
        advance(problem, state)
        residual = state.eq_residual + state.ineq_residual
        if not math.isfinite(residual):
            break
        if residual < best_residual:
            best_residual = residual
            best_zeta = state.zeta1
        if converged:
            polish_iters += 1
        if residual < SolverConfig.threshold:
            converged = True
        if residual < RESIDUAL_FLOOR:
            floor_hits += 1
        if converged and (floor_hits >= SETTLE_PASSES or polish_iters >= POLISH_BUDGET):
            break
    if best_residual == np.inf:
        raise FloatingPointError(f"non-finite residual at iteration {state.iter} before any finite iterate")

    diagnostics = SolveDiagnostics(
        iterations=state.iter,
        eq_residual=state.eq_residual,
        ineq_residual=state.ineq_residual,
        converged=converged,
    )
    return best_zeta, diagnostics
