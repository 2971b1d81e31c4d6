"""Polar constraint primitives.

A quadratic norm constraint on a 3-vector is split into a unit direction
``omega(alpha, beta)`` and a nonnegative magnitude ``d``.  This module holds
the direction map, the closed-form angle update (projection of a point onto
the scaled unit sphere), the closed-form clipped magnitude update, and the
barrier-style lower bound used to throttle how fast a constraint boundary may
be approached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_HALF_PI = 0.5 * np.pi
_DEGENERATE_DEN = 1e-12


@dataclass(frozen=True)
class EllipsoidShape:
    """Axis-aligned ellipsoid with semi-axes ``a, b, c`` in meters."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise ValueError(f"semi-axes must be positive, got {(self.a, self.b, self.c)}")

    @property
    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def inflate(self, other: "EllipsoidShape") -> "EllipsoidShape":
        return EllipsoidShape(self.a + other.a, self.b + other.b, self.c + other.c)


UNIT_SHAPE = EllipsoidShape(1.0, 1.0, 1.0)


@dataclass
class PolarVars:
    """Auxiliary direction/magnitude variables, one triple per constraint row.

    Rows are stacked per step and constraint family (velocity, acceleration,
    then one block per collision target); ``alpha`` is the azimuthal angle,
    ``beta`` the polar angle in [0, pi], and ``d`` the magnitude in the
    family's own units.
    """

    alpha: np.ndarray
    beta: np.ndarray
    d: np.ndarray

    @classmethod
    def zeros(cls, n_rows: int) -> "PolarVars":
        return cls(alpha=np.zeros(n_rows), beta=np.zeros(n_rows), d=np.zeros(n_rows))


def omega(alpha, beta) -> np.ndarray:
    """Unit direction for azimuth ``alpha`` and polar angle ``beta``.

    Returns ``[cos(a) sin(b), sin(a) sin(b), cos(b)]``; stacks along the last
    axis for array-valued angles.
    """
    sb = np.sin(beta)
    return np.stack([np.cos(alpha) * sb, np.sin(alpha) * sb, np.cos(beta)], axis=-1)


def _project_scaled(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle pair aligning ``omega`` with each pre-scaled difference row."""
    rxy = np.hypot(u[..., 0], u[..., 1])
    alpha = np.arctan2(u[..., 1], u[..., 0])
    beta = np.arctan2(rxy, u[..., 2])
    # A row at the constraint center has no preferred direction; pin it to
    # the +x equator so repeated runs stay deterministic.
    degenerate = (rxy == 0.0) & (u[..., 2] == 0.0)
    if np.any(degenerate):
        beta = np.where(degenerate, _HALF_PI, beta)
    return alpha, beta


def project_angles(diff: np.ndarray, d, shape: EllipsoidShape) -> tuple[np.ndarray, np.ndarray]:
    """Optimal angles for fixed magnitudes ``d``: project differences onto the ellipsoid.

    ``diff`` holds unscaled difference vectors (one per row); scaling by the
    ellipsoid semi-axes happens here.  The returned ``(alpha, beta)`` minimize
    the scaled per-row residual ``||diff / (a,b,c) - d * omega(alpha, beta)||``
    over the angles, with ``beta`` in [0, pi].  The minimizer is independent
    of ``d > 0``; the magnitude is accepted for interface symmetry with
    :func:`solve_magnitude`.
    """
    diff = np.asarray(diff, dtype=float)
    single = diff.ndim == 1
    u = np.atleast_2d(diff) / shape.as_array
    alpha, beta = _project_scaled(u)
    if single:
        return float(alpha[0]), float(beta[0])
    return alpha, beta


def clipped_magnitude(diff: np.ndarray, omega_rows: np.ndarray, scales, lo, hi) -> np.ndarray:
    """Closed-form clipped magnitude update, one row per constraint.

    Row ``i`` minimizes ``||diff[i] - scales[i] * d * omega_rows[i]||^2`` over
    scalar ``d`` (a single-variable quadratic) and clips the vertex into
    ``[lo[i], hi[i]]``.  ``diff`` and ``omega_rows`` are ``n x 3``; ``scales``
    broadcasts against them and ``lo``/``hi`` against the rows.  A vanishing
    quadratic coefficient (possible only for degenerate scales) falls back to
    the lower bound.
    """
    scaled_dir = scales * omega_rows
    num = np.einsum("ij,ij->i", diff, scaled_dir)
    den = np.einsum("ij,ij->i", scaled_dir, scaled_dir)
    safe = den > _DEGENERATE_DEN
    vertex = np.where(safe, num / np.where(safe, den, 1.0), lo)
    return np.clip(vertex, lo, hi)


def solve_magnitude(diff: np.ndarray, alpha, beta, shape: EllipsoidShape, lo, hi) -> np.ndarray:
    """:func:`clipped_magnitude` for the direction ``omega(alpha, beta)`` and one shape.

    Minimizes ``||diff - (a,b,c) * d * omega(alpha, beta)||^2`` over ``d``
    per row and clips into ``[lo, hi]``; a single difference vector gives a
    float.
    """
    diff = np.asarray(diff, dtype=float)
    d = clipped_magnitude(np.atleast_2d(diff), np.atleast_2d(omega(alpha, beta)), shape.as_array, lo, hi)
    if diff.ndim == 1:
        return float(d[0])
    return d


def bf_lower_bound(d_prev, gamma: float):
    """Barrier lower bound for the next-step magnitude given the previous one.

    Returns ``1 + (1 - gamma) * (d_prev - 1)``: with ``gamma = 1`` the bound
    collapses to the plain boundary value 1; smaller ``gamma`` forces a more
    gradual approach toward the boundary from either side.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return 1.0 + (1.0 - gamma) * (np.asarray(d_prev, dtype=float) - 1.0)
