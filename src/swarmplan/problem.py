"""Per-agent planning problem assembly.

Each planning round an agent builds one :class:`PlanningProblem` from its own
state, its goal, and the predicted paths of whatever neighbours/obstacles are
in conflict with its previous plan.  The problem stores the quadratic cost,
the workspace bound rows, the initial-condition equalities, and the stacked
constraint matrix whose target vector ``b`` is a function of the polar
variables (see :mod:`swarmplan.solver`).

Row layout (fixed, relied on by tests and the solver): for each axis x, y, z
in that order the blocks are velocity rows (K), acceleration rows (K), then
one block of K collision rows per target in target-list order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space, pinv

from .bernstein import BasisSet
from .polar import EllipsoidShape, PolarVars

GRAVITY = 9.81


@dataclass(frozen=True)
class PlanningConfig:
    """Planner parameters; defaults are the benchmark values used throughout.

    ``p_min``/``p_max`` bound the position samples; the simulator overrides
    them with the scenario volume inflated by 0.05 m.
    """

    K: int = 30
    dt: float = 0.1
    n: int = 10
    w_goal: float = 7000.0
    w_smooth: float = 100.0
    kappa: int = 5
    smoothness_order: int = 2
    v_max: float = 1.73
    f_min: float = 0.3 * GRAVITY
    f_max: float = 1.5 * GRAVITY
    theta_agent: EllipsoidShape = field(default_factory=lambda: EllipsoidShape(0.17, 0.17, 0.45))
    theta_coll: EllipsoidShape = field(default_factory=lambda: EllipsoidShape(0.13, 0.13, 0.40))
    theta_padding: EllipsoidShape = field(default_factory=lambda: EllipsoidShape(0.2, 0.2, 0.2))
    gamma: float = 1.0
    p_min: tuple[float, float, float] = (-2.05, -2.05, -0.05)
    p_max: tuple[float, float, float] = (2.05, 2.05, 2.05)

    def __post_init__(self):
        if not 1 <= self.kappa < self.K:
            raise ValueError(f"kappa must satisfy 1 <= kappa < K, got kappa={self.kappa}, K={self.K}")
        if self.f_min >= self.f_max:
            raise ValueError(f"acceleration bounds require f_min < f_max, got {self.f_min} >= {self.f_max}")
        if self.smoothness_order != 2:
            raise ValueError("only smoothness order 2 (acceleration penalty) is supported")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if np.any(np.asarray(self.p_min) >= np.asarray(self.p_max)):
            raise ValueError("workspace bounds require p_min < p_max componentwise")
        if self.w_goal < 0 or self.w_smooth < 0:
            raise ValueError(f"cost weights must be nonnegative, got w_goal={self.w_goal}, w_smooth={self.w_smooth}")


@dataclass
class AgentSnapshot:
    """Current kinematic state and goal of one agent."""

    position: np.ndarray
    goal: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    acceleration: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("position", "goal", "velocity", "acceleration"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (3,) or not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be a finite 3-vector, got {value!r}")
            setattr(self, name, value)


@dataclass
class ConstraintTarget:
    """One collision constraint source: a neighbour or an obstacle.

    ``predicted_centers`` holds the target's position over the horizon, one
    row per step; ``shape`` is the ellipsoid the planner keeps the agent
    outside of.
    """

    kind: str
    shape: EllipsoidShape
    predicted_centers: np.ndarray

    def __post_init__(self):
        if self.kind not in ("neighbor", "obstacle"):
            raise ValueError(f"kind must be 'neighbor' or 'obstacle', got {self.kind!r}")
        self.predicted_centers = np.asarray(self.predicted_centers, dtype=float)
        if self.predicted_centers.ndim != 2 or self.predicted_centers.shape[1] != 3:
            raise ValueError(f"predicted_centers must be K x 3, got {self.predicted_centers.shape}")


def detect_conflicts(
    own_plan: np.ndarray,
    neighbor_plans: dict,
    obstacle_tracks: list[tuple[EllipsoidShape, np.ndarray]],
    config: PlanningConfig,
) -> list[ConstraintTarget]:
    """Select the neighbours/obstacles whose padded envelopes the plan enters.

    A neighbour is a conflict if at any step the difference to its predicted
    position lies inside the agent envelope inflated by the padding shape;
    obstacles use their own shape inflated the same way.  Neighbours are
    scanned in sorted key order, then obstacles in list order, which fixes
    the constraint block ordering downstream.
    """
    own_plan = np.asarray(own_plan, dtype=float)
    K = own_plan.shape[0]
    targets: list[ConstraintTarget] = []

    def inside_any(centers: np.ndarray, inflated: EllipsoidShape) -> bool:
        if centers.shape[0] != K:
            raise ValueError(f"predicted centers must have {K} rows, got {centers.shape[0]}")
        scaled = (own_plan - centers) / inflated.as_array
        return bool(np.any(np.sum(scaled**2, axis=1) <= 1.0))

    for key in sorted(neighbor_plans):
        centers = np.asarray(neighbor_plans[key], dtype=float)
        if inside_any(centers, config.theta_agent.inflate(config.theta_padding)):
            targets.append(ConstraintTarget("neighbor", config.theta_agent, centers))
    for shape, centers in obstacle_tracks:
        centers = np.asarray(centers, dtype=float)
        if inside_any(centers, shape.inflate(config.theta_padding)):
            targets.append(ConstraintTarget("obstacle", shape, centers))
    return targets


class PlanningProblem:
    """Assembled per-round optimization data for one agent.

    Immutable after assembly.
    Matrix fields follow the convention ``min 0.5 z'Qz + q'z`` subject to
    ``A z = b(polar)``, ``G z <= h``, and ``C z = e``.

    ``lo_base``/``hi_bounds`` hold the magnitude bounds per constraint row:
    speed in ``[0, v_max]``, thrust in ``[f_min, f_max]``, collision metric
    at least 1.  ``C z = e`` pins each family's step-0 sample to the measured
    state, so the step-0 rows admit it: speed cap ``max(v_max, |v0|)``,
    thrust band widened to include ``|a0 + g|``, and collision lower bound
    ``min(1, anchor)``, where ``anchors`` holds the measured scaled distance
    to each target's step-0 center.
    """

    def __init__(self, config: PlanningConfig, snapshot: AgentSnapshot, targets: list[ConstraintTarget], basis: BasisSet):
        if basis.K != config.K or basis.n != config.n or basis.dt != config.dt:
            raise ValueError("basis does not match the planning configuration")
        self.config = config
        self.snapshot = snapshot
        self.targets = list(targets)
        self.basis = basis

        K, n, M = basis.K, basis.n, len(self.targets)
        self.K = K
        self.M = M
        self.n_coeffs = 3 * (n + 1)
        self.n_rows = K * (2 + M)  # constraint rows per axis

        W, W1, W2 = basis.W, basis.W1, basis.W2
        eye3 = np.eye(3)

        # Cost: w_goal over the last kappa samples plus w_smooth on acceleration,
        # absorbed into the 0.5 z'Qz + q'z convention (factor 2 inside Q/q).
        Wk = W[K - config.kappa :, :]
        Q_axis = 2.0 * (config.w_goal * Wk.T @ Wk + config.w_smooth * W2.T @ W2)
        Q_axis = 0.5 * (Q_axis + Q_axis.T)  # exact symmetry despite GEMM rounding
        self.Q = np.kron(eye3, Q_axis)
        self.q = np.concatenate([-2.0 * config.w_goal * (Wk.T @ np.full(config.kappa, g)) for g in snapshot.goal])

        # Stacked constraint matrix: velocity, acceleration, collision blocks per axis.
        A_axis = np.vstack([W1, W2, np.tile(W, (M, 1))])
        self.A = np.kron(eye3, A_axis)

        # Workspace bounds: upper rows then lower rows, axis-major inside each.
        B3 = np.kron(eye3, W)
        self.G = np.vstack([B3, -B3])
        p_min = np.asarray(config.p_min, dtype=float)
        p_max = np.asarray(config.p_max, dtype=float)
        self.h = np.concatenate([np.repeat(p_max, K), np.repeat(-p_min, K)])

        # Initial conditions: position, velocity, acceleration at step 0, per axis.
        C_axis = np.vstack([W[0], W1[0], W2[0]])
        self.C = np.kron(eye3, C_axis)
        self.e = np.column_stack([snapshot.position, snapshot.velocity, snapshot.acceleration]).ravel()

        # Constraint-row metadata shared by the solver steps: the center each row
        # measures from, the per-axis scale applied to the polar direction, and
        # the magnitude bounds of each family.
        centers = np.zeros((self.n_rows, 3))
        centers[K : 2 * K, 2] = -GRAVITY
        scales = np.ones((self.n_rows, 3))
        lo = np.zeros(self.n_rows)
        hi = np.full(self.n_rows, np.inf)
        lo[:K] = 0.0
        hi[:K] = config.v_max
        lo[K : 2 * K] = config.f_min
        hi[K : 2 * K] = config.f_max
        anchors = np.empty(M)
        for j, target in enumerate(self.targets):
            rows = slice((2 + j) * K, (3 + j) * K)
            centers[rows] = target.predicted_centers
            scales[rows] = target.shape.as_array
            lo[rows] = 1.0
            anchors[j] = np.linalg.norm((snapshot.position - target.predicted_centers[0]) / target.shape.as_array)
        # C z = e pins every family's step-0 sample to the measured state, so
        # the step-0 bounds must admit it or the residual can never vanish.
        speed0 = np.linalg.norm(snapshot.velocity)
        thrust0 = np.linalg.norm(snapshot.acceleration - centers[K])
        hi[0] = max(hi[0], speed0)
        lo[K] = min(lo[K], thrust0)
        hi[K] = max(hi[K], thrust0)
        lo[2 * K :: K] = np.minimum(1.0, anchors)
        self.centers = centers
        self.scales = scales
        self.lo_base = lo
        self.hi_bounds = hi
        self.col_rows = slice(2 * K, self.n_rows)
        self.anchors = anchors

        # Solver precomputation: transposes for the multiplier updates, the
        # rho-independent Gram matrix, and an exact elimination of C z = e
        # (particular solution plus orthonormal null-space basis).
        self.AT = np.ascontiguousarray(self.A.T)
        self.GT = np.ascontiguousarray(self.G.T)
        self.gram = self.AT @ self.A + self.GT @ self.G
        self.null_basis = null_space(self.C)
        self.null_basis_T = np.ascontiguousarray(self.null_basis.T)
        self.zeta_particular = pinv(self.C) @ self.e
        if not np.allclose(self.C @ self.zeta_particular, self.e, atol=1e-9):
            raise ValueError("initial conditions are inconsistent with the basis degree")

    def stack_samples(self, pos: np.ndarray, vel: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Arrange sampled kinematics into constraint-row order (n_rows x 3)."""
        if self.M:
            return np.concatenate([vel, acc, np.tile(pos, (self.M, 1))])
        return np.concatenate([vel, acc])


def assemble(
    snapshot: AgentSnapshot,
    targets: list[ConstraintTarget],
    basis: BasisSet,
    config: PlanningConfig,
) -> PlanningProblem:
    """Build the optimization data for one agent and planning round."""
    return PlanningProblem(config, snapshot, targets, basis)


def build_b(problem: PlanningProblem, polar: PolarVars, omega_rows: np.ndarray) -> np.ndarray:
    """Stacked target vector matching ``problem.A``'s row layout.

    ``omega_rows`` holds ``omega(polar.alpha, polar.beta)``, one direction per
    row.  Every constraint row contributes ``center + scale * d * omega`` per axis;
    velocity rows are centered at zero, acceleration rows carry the gravity
    offset on z, and collision rows are centered on the target positions with
    the ellipsoid semi-axes as scales.
    """
    if polar.d.shape != (problem.n_rows,):
        raise ValueError(f"polar variables must have {problem.n_rows} rows, got {polar.d.shape}")
    rows = problem.centers + problem.scales * (polar.d[:, None] * omega_rows)
    return rows.T.ravel()
