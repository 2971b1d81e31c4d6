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

Only the right-hand sides, bounds and centers depend on the agent.  The
matrices depend on the basis and the number M of targets alone, so every
problem with the same basis and M shares one read-only
:class:`SharedStructure`, built on first use and kept, like every other
value problems share, in the basis's table (:func:`cached`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.linalg import null_space, pinv

from .bernstein import BasisSet
from .polar import EllipsoidShape

GRAVITY = 9.81


@dataclass(frozen=True)
class PlanningConfig:
    """Planner parameters: the barrier constant ``gamma`` and the box ``p_min``/``p_max``.

    ``sim.default_planning_config`` sets the box to the scenario volume
    inflated by 0.05 m.  The other values are constants read on any instance.
    """

    K: ClassVar[int] = 30
    dt: ClassVar[float] = 0.1
    n: ClassVar[int] = 10
    w_goal: ClassVar[float] = 7000.0
    w_smooth: ClassVar[float] = 100.0
    kappa: ClassVar[int] = 5
    v_max: ClassVar[float] = 1.73
    f_min: ClassVar[float] = 0.3 * GRAVITY
    f_max: ClassVar[float] = 1.5 * GRAVITY
    theta_agent: ClassVar[EllipsoidShape] = EllipsoidShape(0.17, 0.17, 0.45)
    theta_coll: ClassVar[EllipsoidShape] = EllipsoidShape(0.13, 0.13, 0.40)
    theta_padding: ClassVar[EllipsoidShape] = EllipsoidShape(0.2, 0.2, 0.2)
    gamma: float = 1.0
    p_min: tuple[float, float, float] = (-2.05, -2.05, -0.05)
    p_max: tuple[float, float, float] = (2.05, 2.05, 2.05)

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        p_min, p_max = np.asarray(self.p_min, dtype=float), np.asarray(self.p_max, dtype=float)
        if p_min.shape != (3,) or p_max.shape != (3,):
            raise ValueError(f"workspace bounds must be 3-vectors, got p_min={self.p_min}, p_max={self.p_max}")
        if not (np.all(np.isfinite(p_min)) and np.all(np.isfinite(p_max))):
            raise ValueError(f"workspace bounds must be finite, got p_min={self.p_min}, p_max={self.p_max}")
        if np.any(p_min >= p_max):
            raise ValueError("workspace bounds require p_min < p_max componentwise")


@dataclass
class AgentSnapshot:
    """Current kinematic state and goal of one agent.

    The four fields are finite float 3-vectors, rows of one array converted
    from the inputs, so a later write to an input does not reach the snapshot.
    """

    position: np.ndarray
    goal: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    acceleration: np.ndarray = field(default_factory=lambda: np.zeros(3))

    _FIELDS: ClassVar[tuple[str, ...]] = ("position", "goal", "velocity", "acceleration")

    def __post_init__(self):
        # One stacked conversion and check; the per-field loop runs only to name a bad field.
        try:
            stacked = np.array([getattr(self, name) for name in self._FIELDS], dtype=float)
        except (TypeError, ValueError):
            stacked = None
        if stacked is None or stacked.shape != (4, 3) or not np.isfinite(stacked).all():
            for name in self._FIELDS:
                value = np.asarray(getattr(self, name), dtype=float)
                if value.shape != (3,) or not np.all(np.isfinite(value)):
                    raise ValueError(f"{name} must be a finite 3-vector, got {value!r}")
        self.position, self.goal, self.velocity, self.acceleration = stacked


@dataclass
class ConstraintTarget:
    """One collision constraint source: a neighbour or an obstacle.

    ``predicted_centers`` holds the target's finite position over the
    horizon, one row per step; ``shape`` is the ellipsoid the planner keeps
    the agent outside of.
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
        if not np.isfinite(self.predicted_centers).all():
            raise ValueError("predicted_centers must be finite")


def detect_conflicts(
    plans: np.ndarray,
    obstacle_tracks: list[tuple[EllipsoidShape, np.ndarray]],
) -> list[list[ConstraintTarget]]:
    """Select, for every agent, the neighbours/obstacles whose padded envelopes its plan enters.

    ``plans`` stacks the round's predicted positions of all agents,
    ``n_agents x K x 3``.  Another agent is a conflict if at any step the
    difference to its predicted position lies inside the agent envelope
    inflated by the padding shape; obstacles use their own shape inflated
    the same way.  Every obstacle track must have K rows.  Each agent pair
    is tested once and the result mirrored, since the negated difference
    gives the same bits; a pair whose horizon boxes lie apart skips the
    per-step test.  Agent i's targets come out as the other agents in
    index order, then obstacles in list order, which fixes the constraint
    block ordering downstream.
    """
    plans = np.asarray(plans, dtype=float)
    n_agents, K = plans.shape[:2]
    bad_rows = [len(centers) for _, centers in obstacle_tracks if len(centers) != K]
    if bad_rows:
        raise ValueError(f"predicted centers must have {K} rows, got {bad_rows[0]}")
    padding = PlanningConfig.theta_padding
    tracks = np.reshape(np.asarray([centers for _, centers in obstacle_tracks], dtype=float), (-1, K, 3))
    inflated = np.reshape([shape.inflate(padding).as_array for shape, _ in obstacle_tracks], (-1, 3))

    def meets(a: np.ndarray, others: np.ndarray, b: np.ndarray, axes: np.ndarray) -> np.ndarray:
        """Whether ``plans[a[p]]`` enters the envelope ``axes[p]`` around ``others[b[p]]`` at some step."""
        # A pair whose horizon boxes lie farther apart than the envelope on some
        # axis cannot meet at any step.  The 1e-6 margin is far wider than the
        # rounding of the exact test, so no pair it leaves out could pass that test.
        reach = axes * (1.0 + 1e-6)
        lo_a, hi_a = plans.min(axis=1)[a], plans.max(axis=1)[a]
        lo_b, hi_b = others.min(axis=1)[b], others.max(axis=1)[b]
        near = np.flatnonzero(np.all((lo_a - hi_b <= reach) & (lo_b - hi_a <= reach), axis=-1))
        scaled = (plans[a[near]] - others[b[near]]) / axes[near, None]
        hit = np.zeros(len(a), dtype=bool)
        hit[near] = np.any(np.sum(scaled**2, axis=-1) <= 1.0, axis=-1)
        return hit

    i, j = np.triu_indices(n_agents, 1)
    pair = np.zeros((n_agents, n_agents), dtype=bool)
    agent_axes = np.tile(PlanningConfig.theta_agent.inflate(padding).as_array, (len(i), 1))
    pair[i, j] = pair[j, i] = meets(i, plans, j, agent_axes)
    agent_of, obstacle_of = np.indices((n_agents, len(tracks))).reshape(2, -1)
    obstacle = np.reshape(meets(agent_of, tracks, obstacle_of, inflated[obstacle_of]), (n_agents, len(tracks)))
    return [
        [ConstraintTarget("neighbor", PlanningConfig.theta_agent, plans[b]) for b in np.flatnonzero(pair[a])]
        + [ConstraintTarget("obstacle", obstacle_tracks[o][0], tracks[o]) for o in np.flatnonzero(obstacle[a])]
        for a in range(n_agents)
    ]


@dataclass(frozen=True, eq=False)
class SharedStructure:
    """The matrices of a problem that its basis and conflict count ``M`` fix.

    ``Q``, ``G``/``GT``, ``C``, the orthonormal null-space basis of ``C`` and
    ``pinv(C)`` do not depend on ``M`` and are the same arrays for every
    ``M``; ``AT`` and ``gram = A'A + G'G`` are built per ``M``.  ``A``
    itself is not kept: it is ``AT.T``.  ``centers``, ``scales``, ``lo``
    and ``hi`` are the row templates every problem with ``M`` targets
    copies: the gravity offset on the thrust rows, unit scales, the speed
    and thrust bands, and a collision lower bound of 1; a problem fills in
    its target rows and step-0 bounds.  Every array is read-only, since
    every agent and round on the basis reads it.
    """

    M: int
    Q: np.ndarray
    G: np.ndarray
    GT: np.ndarray
    C: np.ndarray
    null_basis: np.ndarray
    null_basis_T: np.ndarray
    C_pinv: np.ndarray
    AT: np.ndarray
    gram: np.ndarray
    centers: np.ndarray
    scales: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def cached(basis: BasisSet, key, build, *args):
    """The value ``build(*args)`` of ``key`` on ``basis``, built on first use and kept in ``basis.table``.

    A key names its value given the basis: the M-independent arrays, a
    conflict count ``M``, a goal's bytes, a box's bytes, or ``(M, rho)`` for
    an S1 factor.  The value's arrays (the value itself, or the members of a
    tuple or dict) are made read-only before it is stored, since every
    problem on the basis reads them; a build that raises stores nothing.
    """
    value = basis.table.get(key)
    if value is None:
        value = build(*args)
        for part in value.values() if isinstance(value, dict) else value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        basis.table[key] = value
    return value


def _m_independent(basis: BasisSet) -> dict:
    """The arrays of :class:`SharedStructure` that every ``M`` shares.

    Raises :class:`ValueError` when ``C z = e`` cannot pin every measured
    state on the basis (degree below 2), so ``pinv(C) @ e`` solves it for
    any ``e``.
    """
    W, eye3 = basis.W, np.eye(3)
    # Cost: w_goal over the last kappa samples plus w_smooth on acceleration,
    # absorbed into the 0.5 z'Qz + q'z convention (factor 2 inside Q/q).
    Wk = W[basis.K - PlanningConfig.kappa :, :]
    Q_axis = 2.0 * (PlanningConfig.w_goal * Wk.T @ Wk + PlanningConfig.w_smooth * basis.W2.T @ basis.W2)
    Q_axis = 0.5 * (Q_axis + Q_axis.T)  # exact symmetry despite GEMM rounding
    # Workspace bounds: upper rows then lower rows, axis-major inside each.
    B3 = np.kron(eye3, W)
    G = np.vstack([B3, -B3])
    # Initial conditions: position, velocity, acceleration at step 0, per axis;
    # eliminated exactly by a particular solution plus an orthonormal null-space basis.
    C = np.kron(eye3, np.vstack([W[0], basis.W1[0], basis.W2[0]]))
    null_basis = null_space(C)
    C_pinv = pinv(C)
    if np.abs(C @ C_pinv - np.eye(len(C))).max() > 1e-9:
        raise ValueError("initial conditions are inconsistent with the basis degree")
    return {
        "Q": np.kron(eye3, Q_axis),
        "G": G,
        "GT": np.ascontiguousarray(G.T),
        "C": C,
        "null_basis": null_basis,
        "null_basis_T": np.ascontiguousarray(null_basis.T),
        "C_pinv": C_pinv,
    }


def _shared_structure(basis: BasisSet, M: int) -> SharedStructure:
    """The structure of every problem with ``M`` targets on ``basis``, on the basis's one set of M-independent arrays."""
    common = cached(basis, "M-independent", _m_independent, basis)
    # Stacked constraint matrix: velocity, acceleration, collision blocks per axis.
    A = np.kron(np.eye(3), np.vstack([basis.W1, basis.W2, np.tile(basis.W, (M, 1))]))
    AT = np.ascontiguousarray(A.T)
    K, n_rows = basis.K, basis.K * (2 + M)
    centers = np.zeros((n_rows, 3))
    centers[K : 2 * K, 2] = -GRAVITY
    lo = np.ones(n_rows)
    hi = np.full(n_rows, np.inf)
    lo[:K], hi[:K] = 0.0, PlanningConfig.v_max
    lo[K : 2 * K], hi[K : 2 * K] = PlanningConfig.f_min, PlanningConfig.f_max
    gram = AT @ A + common["GT"] @ common["G"]
    scales = np.ones((n_rows, 3))
    return SharedStructure(M=M, AT=AT, gram=gram, centers=centers, scales=scales, lo=lo, hi=hi, **common)


def _goal_cost(basis: BasisSet, config: PlanningConfig, goal: np.ndarray) -> np.ndarray:
    """The linear goal cost ``q`` of a problem heading for ``goal``: it reads the goal alone."""
    Wk = basis.W[basis.K - config.kappa :, :]
    return np.concatenate([-2.0 * config.w_goal * (Wk.T @ np.full(config.kappa, g)) for g in goal])


def _bound_vector(basis: BasisSet, config: PlanningConfig) -> np.ndarray:
    """The workspace bound vector ``h`` of a problem planned in ``config``'s box: it reads the box alone."""
    p_min = np.asarray(config.p_min, dtype=float)
    p_max = np.asarray(config.p_max, dtype=float)
    return np.concatenate([np.repeat(p_max, basis.K), np.repeat(-p_min, basis.K)])


class PlanningProblem:
    """Assembled per-round optimization data for one agent.

    Immutable after assembly.  The horizon and degree are the ``basis``'s,
    which needs ``K >= kappa`` for the goal cost; the cost weights and
    kinematic bounds are :class:`PlanningConfig`'s constants.
    Matrix fields follow the convention ``min 0.5 z'Qz + q'z`` subject to
    ``A z = b(polar)``, ``G z <= h``, and ``C z = e``.

    ``lo_base``/``hi_bounds`` hold the magnitude bounds per constraint row:
    speed in ``[0, v_max]``, thrust in ``[f_min, f_max]``, collision metric
    at least 1.  ``C z = e`` pins each family's step-0 sample to the measured
    state, so the step-0 rows admit it: speed cap ``max(v_max, |v0|)``,
    thrust band widened to include ``|a0 + g|``, and collision lower bound
    ``min(1, anchor)``, where ``anchors`` holds the measured scaled distance
    to each target's step-0 center.  These are the only step-0 bounds: the
    barrier of :func:`swarmplan.solver.step_s3` starts at step 1.

    The matrices ``Q``, ``AT``, ``G``/``GT``, ``C``, ``gram`` and the null
    basis are read from ``shared``, the read-only :class:`SharedStructure`
    of the basis and ``M``.  The goal cost ``q`` and the bound vector ``h``
    are read-only too, shared by every problem on the basis with the same
    goal and the same box; the box is keyed by its bytes, so boxes that
    differ only in the sign of a zero keep their own ``h``.  The
    agent's own data is ``e``, the row metadata (copies of the shared row
    templates with the target rows and step-0 bounds filled in) and
    ``zeta_particular``, the particular solution ``pinv(C) @ e`` of
    ``C z = e``.

    A target whose track does not have ``K`` rows, or whose anchor is not
    finite (a semi-axis so small that the scaled distance overflows), is
    rejected with :class:`ValueError`.
    """

    def __init__(self, config: PlanningConfig, snapshot: AgentSnapshot, targets: list[ConstraintTarget], basis: BasisSet):
        if basis.K < config.kappa:
            raise ValueError(f"the goal cost needs K >= kappa = {config.kappa}, got a basis with K = {basis.K}")
        self.config = config
        self.snapshot = snapshot
        self.targets = list(targets)
        self.basis = basis

        K, n, M = basis.K, basis.n, len(self.targets)
        self.K = K
        self.M = M
        self.n_coeffs = 3 * (n + 1)
        self.n_rows = K * (2 + M)  # constraint rows per axis

        self.shared = cached(basis, M, _shared_structure, basis, M)
        self.q = cached(basis, ("goal", snapshot.goal.tobytes()), _goal_cost, basis, config, snapshot.goal)
        box = struct.pack("6d", *config.p_min, *config.p_max)
        self.h = cached(basis, ("box", box), _bound_vector, basis, config)
        self.e = np.column_stack([snapshot.position, snapshot.velocity, snapshot.acceleration]).ravel()

        # Constraint-row metadata shared by the solver steps: the center each row
        # measures from, the per-axis scale applied to the polar direction, and
        # the magnitude bounds of each family.
        centers = self.shared.centers.copy()
        scales = self.shared.scales.copy()
        lo = self.shared.lo.copy()
        hi = self.shared.hi.copy()
        anchors = np.empty(M)
        for j, target in enumerate(self.targets):
            if len(target.predicted_centers) != K:
                raise ValueError(f"predicted centers must have {K} rows, got {len(target.predicted_centers)}")
            rows = slice((2 + j) * K, (3 + j) * K)
            centers[rows] = target.predicted_centers
            scales[rows] = target.shape.as_array
            anchors[j] = np.linalg.norm((snapshot.position - target.predicted_centers[0]) / target.shape.as_array)
            if not math.isfinite(anchors[j]):
                raise ValueError(f"target {j} ({target.kind}, {target.shape}) lies at a non-finite scaled distance")
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

        self.zeta_particular = self.shared.C_pinv @ self.e

    def stack_samples(self, pos: np.ndarray, vel: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Arrange sampled kinematics into constraint-row order (n_rows x 3)."""
        return np.concatenate([vel, acc, *[pos] * self.M])

    def target_rows(self, d: np.ndarray, omega_rows: np.ndarray) -> np.ndarray:
        """Per-row targets ``center + scale * d * omega`` for one magnitude and unit direction per row (n_rows x 3).

        Column ``i`` is axis ``i``'s block of the target vector ``b`` of ``A z = b``.
        """
        return self.centers + self.scales * (d[:, None] * omega_rows)


def assemble(
    snapshot: AgentSnapshot,
    targets: list[ConstraintTarget],
    basis: BasisSet,
    config: PlanningConfig,
) -> PlanningProblem:
    """Build the optimization data for one agent and planning round."""
    return PlanningProblem(config, snapshot, targets, basis)
