"""Alternating-minimization solver for one agent's planning problem.

Each iteration performs five block updates on the relaxed problem

    min 0.5 z'Qz + q'z - lam'z + rho/2 ||A z - b(angles, mags)||^2
                                + rho/2 ||G z - h + s||^2   s.t.  C z = e

S1  trajectory coefficients ``z`` via an equality-constrained QP solve,
S2  closed-form angle updates (projection onto the constraint ellipsoids),
S3  closed-form clipped magnitude updates (standard or barrier bounds),
S4  nonnegative slack update for the bound rows,
S5  multiplier update.

:func:`advance` runs one iteration; ``A z`` and ``G z`` are read off one
sampling of the new trajectory (:func:`sample_rows`).  The penalty grows
geometrically per iteration up to a cap, and :func:`solve` exits once the
combined constraint residual has dropped below the threshold and settled.
Every solve starts cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bernstein import sample_trajectory
from .polar import PolarVars, _project_scaled, bf_lower_bound, clipped_magnitude, omega
from .problem import PlanningProblem, build_b

MODES = ("standard", "bf")

# Penalty schedule rho_k = min(RHO_BASE**k, RHO_CAP).  rho >= 1 at every
# iteration keeps the reduced S1 Hessian positive definite (see step_s1).
RHO_BASE = 1.3
RHO_CAP = 5e5

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
    """Penalty weight of the given iteration."""
    return min(RHO_BASE**iteration, RHO_CAP)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap and convergence threshold on the combined residual."""

    maxiter: int = 2000
    threshold: float = 0.01

    def __post_init__(self):
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


@dataclass
class SolverState:
    """Iterate carried across the S1..S5 updates.

    ``b`` is the target vector the next S1 reads.  ``factor`` holds
    ``(rho, cho, v)``, the reduced S1 system factored at penalty ``rho``;
    the penalty never decreases within a solve, so S1 refactors exactly
    when it changes.
    """

    zeta1: np.ndarray
    polar: PolarVars
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

        The first target vector is built from the zero polar variables; then
        the collision magnitudes are set to the measured anchors, so the
        ``bf`` barrier's first bound reads the measured state rather than the
        zero placeholder, which would make it looser than the plain bound 1.
        """
        polar = PolarVars.zeros(problem.n_rows)
        state = cls(
            zeta1=np.zeros(problem.n_coeffs),
            polar=polar,
            lam=np.zeros(problem.n_coeffs),
            slack=np.zeros(problem.h.size),
            b=build_b(problem, polar, omega(polar.alpha, polar.beta)),
            rho=rho_at(0),
        )
        polar.d[problem.col_rows] = np.repeat(problem.anchors, problem.K)
        return state


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
    positive semidefinite for nonnegative cost weights and ``gram`` holds
    the workspace rows' ``W'W``, positive definite once ``K >= n + 1``; the
    configurations enforce the weights and the schedule keeps ``rho >= 1``.
    A singular reduced system raises :class:`numpy.linalg.LinAlgError`.
    Refreshes ``state.factor`` when ``state.rho`` differs from its penalty.
    """
    rho = state.rho
    if state.factor is None or state.factor[0] != rho:
        Z, ZT = problem.null_basis, problem.null_basis_T
        A_hat = problem.Q + rho * problem.gram
        cho = cho_factor(ZT @ A_hat @ Z, lower=True, check_finite=False)
        state.factor = (rho, cho, ZT @ (A_hat @ problem.zeta_particular))
    _, cho, v = state.factor
    rhs = -problem.q + state.lam + rho * (problem.AT @ state.b) + rho * (problem.GT @ (problem.h - state.slack))
    y = cho_solve(cho, problem.null_basis_T @ rhs - v, check_finite=False)
    return problem.zeta_particular + problem.null_basis @ y


def sample_rows(problem: PlanningProblem, zeta1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A z`` and ``G z`` of the coefficients, read off one sampling of the trajectory.

    Returns the constraint-row samples (``n_rows x 3``; column ``i`` holds
    axis ``i``'s block of ``A z``) and the workspace rows ``G z``.
    """
    pos, vel, acc = sample_trajectory(problem.basis, zeta1)
    pos_axis = pos.T.ravel()
    return problem.stack_samples(pos, vel, acc), np.concatenate([pos_axis, -pos_axis])


def step_s2(problem: PlanningProblem, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle update: independently project every constraint row's difference."""
    return _project_scaled((samples - problem.centers) / problem.scales)


def step_s3(
    problem: PlanningProblem,
    state: SolverState,
    samples: np.ndarray,
    omega_rows: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Magnitude update: per-row quadratic vertex clipped into the feasible interval.

    ``omega_rows`` holds the directions of the angles just updated.  In
    ``bf`` mode the collision lower bounds follow the barrier rule
    ``1 + (1 - gamma) * (d_prev - 1)`` instead of the constant boundary value
    1, where ``d_prev`` is the previous iterate's magnitude one step earlier
    and, for step 0, the measured anchor.  Step 0 is pinned to the measured
    state, so its bound is also capped at the assembled step-0 bound
    ``min(1, anchor)``.  A cold start seeds the previous magnitudes with the
    anchors (see :meth:`SolverState.cold`), so the first bound reads the
    measured state.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
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


def step_s4(problem: PlanningProblem, gz: np.ndarray) -> np.ndarray:
    """Slack update: the nonnegative minimizer of the bound-violation penalty."""
    return np.maximum(0.0, problem.h - gz)


def step_s5(problem: PlanningProblem, state: SolverState, r_eq: np.ndarray, viol: np.ndarray) -> np.ndarray:
    """Multiplier update from the equality residual ``A z - b`` and the bound residual ``G z - h + s``."""
    half_rho = 0.5 * state.rho
    return state.lam - half_rho * (problem.AT @ r_eq) - half_rho * (problem.GT @ viol)


def advance(problem: PlanningProblem, state: SolverState, mode: str) -> None:
    """One iteration in place: S1..S5, the residuals, and the next penalty.

    After S4 the bound residual ``G z - h + s`` equals ``max(G z - h, 0)``.
    """
    state.zeta1 = step_s1(problem, state)
    samples, gz = sample_rows(problem, state.zeta1)
    state.polar.alpha, state.polar.beta = step_s2(problem, samples)
    omega_rows = omega(state.polar.alpha, state.polar.beta)
    state.polar.d = step_s3(problem, state, samples, omega_rows, mode)
    state.slack = step_s4(problem, gz)
    state.b = build_b(problem, state.polar, omega_rows)
    r_eq = samples.T.ravel() - state.b
    viol = np.maximum(gz - problem.h, 0.0)
    state.lam = step_s5(problem, state, r_eq, viol)
    state.eq_residual = float(np.linalg.norm(r_eq))
    state.ineq_residual = float(np.linalg.norm(viol))
    state.iter += 1
    state.rho = rho_at(state.iter)


def solve(
    problem: PlanningProblem,
    config: SolverConfig | None = None,
    mode: str = "standard",
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Run the alternating updates from a cold start until the residual settles or the iteration cap.

    Step-0 rows admit the measured state (see
    :class:`~swarmplan.problem.PlanningProblem`), so a start that violates an
    ordinary bound does not floor the residual.  Returns the lowest-residual
    iterate and the diagnostics of the last one.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    config = config or SolverConfig()
    state = SolverState.cold(problem)
    best_zeta = state.zeta1
    best_residual = np.inf
    converged = False
    polish_iters = 0
    floor_hits = 0

    while state.iter < config.maxiter:
        advance(problem, state, mode)
        residual = state.eq_residual + state.ineq_residual
        if residual < best_residual:
            best_residual = residual
            best_zeta = state.zeta1
        if converged:
            polish_iters += 1
        if residual < config.threshold:
            converged = True
        if residual < RESIDUAL_FLOOR:
            floor_hits += 1
        if converged and (floor_hits >= SETTLE_PASSES or polish_iters >= POLISH_BUDGET):
            break

    diagnostics = SolveDiagnostics(
        iterations=state.iter,
        eq_residual=state.eq_residual,
        ineq_residual=state.ineq_residual,
        converged=converged,
    )
    return best_zeta, diagnostics
