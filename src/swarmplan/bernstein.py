"""Bernstein basis matrices and trajectory sampling.

A trajectory over a horizon of ``K`` steps of size ``dt`` is parameterized per
axis by ``n + 1`` Bernstein coefficients.  Positions at the sample times are
``W @ c`` and time derivatives are ``W1 @ c`` and ``W2 @ c``, where the
derivative matrices are exact analytic derivatives of the basis functions
(not finite differences), as required by the downstream equality solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np


@dataclass(frozen=True)
class BasisSet:
    """Sampled Bernstein basis of degree ``n`` over ``K`` steps of ``dt`` seconds.

    ``W`` rows form a partition of unity with entries in [0, 1]; the rows of
    the derivative matrices ``W1`` (1/s) and ``W2`` (1/s^2) sum to zero.
    Instances are safe to share across agent solvers.  The matrices are
    fixed; ``W_all`` stacks ``W``, ``W1`` and ``W2`` so that one product
    samples all three.  ``problem_table`` starts empty and holds, by conflict
    count M, the problem structure every agent planning on this basis shares
    (see :func:`swarmplan.problem.shared_structure`), so it lives as long as
    the basis.  ``agent_table`` likewise holds the goal-cost and bound
    vectors that every round of an agent reuses (see
    :func:`swarmplan.problem.goal_cost` and
    :func:`swarmplan.problem.bound_vector`).
    """

    K: int
    n: int
    dt: float
    W: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    W_all: np.ndarray = field(init=False, repr=False, compare=False)
    problem_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    agent_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "W_all", np.vstack([self.W, self.W1, self.W2]))


def _basis_values(tau: np.ndarray, n: int) -> np.ndarray:
    """Degree-``n`` Bernstein basis evaluated at normalized times ``tau``."""
    out = np.empty((tau.size, n + 1))
    for m in range(n + 1):
        out[:, m] = float(comb(n, m)) * tau**m * (1.0 - tau) ** (n - m)
    return out


def build_basis(K: int, n: int, dt: float) -> BasisSet:
    """Construct the basis matrix and its first two time derivatives.

    Parameters
    ----------
    K : number of horizon steps (>= 2).
    n : polynomial degree (>= 1).
    dt : step size in seconds (> 0).

    The sample times are ``t_k = k * dt`` and the basis is normalized over the
    horizon duration ``T = (K - 1) * dt``; derivatives use the basis
    derivative recurrence, with the chain-rule factor ``1 / T`` per order.
    """
    if K < 2:
        raise ValueError(f"horizon length K must be >= 2, got {K}")
    if n < 1:
        raise ValueError(f"polynomial degree n must be >= 1, got {n}")
    if dt <= 0:
        raise ValueError(f"step size dt must be positive, got {dt}")

    T = (K - 1) * dt
    tau = np.arange(K) / (K - 1)

    W = _basis_values(tau, n)

    # d/dtau B[m,n] = n * (B[m-1,n-1] - B[m,n-1]), out-of-range terms zero.
    lower1 = _basis_values(tau, n - 1)
    W1 = np.zeros((K, n + 1))
    for m in range(n + 1):
        if m - 1 >= 0:
            W1[:, m] += lower1[:, m - 1]
        if m <= n - 1:
            W1[:, m] -= lower1[:, m]
    W1 *= n / T

    W2 = np.zeros((K, n + 1))
    if n >= 2:
        lower2 = _basis_values(tau, n - 2)
        for m in range(n + 1):
            if m - 2 >= 0:
                W2[:, m] += lower2[:, m - 2]
            if 0 <= m - 1 <= n - 2:
                W2[:, m] -= 2.0 * lower2[:, m - 1]
            if m <= n - 2:
                W2[:, m] += lower2[:, m]
        W2 *= n * (n - 1) / T**2

    return BasisSet(K=K, n=n, dt=dt, W=W, W1=W1, W2=W2)


def sample_trajectory(basis: BasisSet, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map stacked coefficients ``[c_x; c_y; c_z]`` to sampled kinematics.

    Returns ``(positions, velocities, accelerations)``, each ``K x 3``, where
    row ``k`` holds the values at time ``k * dt``.  They are row blocks of
    one product ``W_all @ c``, whose rows carry the same bits as
    ``W @ c``, ``W1 @ c`` and ``W2 @ c``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    expected = 3 * (basis.n + 1)
    if coeffs.shape != (expected,):
        raise ValueError(f"expected stacked coefficient vector of shape ({expected},), got {coeffs.shape}")
    K = basis.K
    stacked = basis.W_all @ coeffs.reshape(3, basis.n + 1).T
    return stacked[:K], stacked[K : 2 * K], stacked[2 * K :]

