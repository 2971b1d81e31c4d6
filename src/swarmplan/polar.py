"""Polar constraint primitives.

A quadratic norm constraint on a 3-vector is split into a unit direction
``omega(alpha, beta)`` and a nonnegative magnitude ``d``.  This module holds
the direction map, the closed-form angle update (:func:`project_scaled`, the
projection of a point onto the scaled unit sphere), the closed-form clipped
magnitude update (:func:`clipped_magnitude`), and the barrier-style lower
bound used to throttle how fast a constraint boundary may be approached.
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
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf and 0.0 < self.c < np.inf):  # also rejects nan
            raise ValueError(f"semi-axes must be positive and finite, got {(self.a, self.b, self.c)}")

    @property
    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    def inflate(self, other: "EllipsoidShape") -> "EllipsoidShape":
        return EllipsoidShape(self.a + other.a, self.b + other.b, self.c + other.c)


def omega(alpha, beta) -> np.ndarray:
    """Unit direction for azimuth ``alpha`` and polar angle ``beta``.

    Returns ``[cos(a) sin(b), sin(a) sin(b), cos(b)]``; stacks along the last
    axis for array-valued angles.
    """
    sb = np.sin(beta)
    x = np.cos(alpha) * sb
    out = np.empty((*x.shape, 3))
    out[..., 0] = x
    np.multiply(np.sin(alpha), sb, out=out[..., 1])
    out[..., 2] = np.cos(beta)
    return out


def project_scaled(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angle pair aligning ``omega`` with each pre-scaled difference row.

    ``u`` holds difference vectors already divided by the ellipsoid
    semi-axes, one per row.  The returned ``(alpha, beta)`` minimize
    ``||u - d * omega(alpha, beta)||`` over the angles for every ``d > 0``,
    with ``beta`` in [0, pi].
    """
    rxy = np.hypot(u[..., 0], u[..., 1])
    alpha = np.arctan2(u[..., 1], u[..., 0])
    beta = np.arctan2(rxy, u[..., 2])
    # A row at the constraint center has no preferred direction; pin it to
    # the +x equator so repeated runs stay deterministic.  count_nonzero
    # decides as rxy.all() does, NaN included, at a third of its cost.
    if np.count_nonzero(rxy) != rxy.size:
        beta = np.where((rxy == 0.0) & (u[..., 2] == 0.0), _HALF_PI, beta)
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
    vertex = num / den if np.count_nonzero(safe) == safe.size else np.where(safe, num / np.where(safe, den, 1.0), lo)
    # np.clip's own maximum-then-minimum, NaN included, without its dispatch cost.
    return np.minimum(np.maximum(vertex, lo, out=vertex), hi, out=vertex)


def bf_lower_bound(d_prev, gamma: float):
    """Barrier lower bound for the next-step magnitude given the previous one.

    Returns ``1 + (1 - gamma) * (d_prev - 1)``: with ``gamma = 1`` the bound
    collapses to the plain boundary value 1; smaller ``gamma`` forces a more
    gradual approach toward the boundary from either side.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return 1.0 + (1.0 - gamma) * (np.asarray(d_prev, dtype=float) - 1.0)
