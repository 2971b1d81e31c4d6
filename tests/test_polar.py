import numpy as np
import pytest

from swarmplan.polar import EllipsoidShape, bf_lower_bound, clipped_magnitude, omega, project_scaled

from oracles import grid_search_angles, projection_objective, reference_clipped_magnitude, ternary_search_magnitude

UNIT = EllipsoidShape(1.0, 1.0, 1.0)


@pytest.mark.parametrize("axes", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, 0.0)])
def test_ellipsoid_shape_rejects_non_positive_or_non_finite_semi_axes(axes):
    """``min(a, b, c) <= 0`` let a nan semi-axis through."""
    with pytest.raises(ValueError, match="semi-axes"):
        EllipsoidShape(*axes)


def test_omega_cardinal_directions():
    np.testing.assert_allclose(omega(0.0, np.pi / 2), [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(omega(1.234, 0.0), [0.0, 0.0, 1.0], atol=1e-15)


def test_omega_unit_norm():
    rng = np.random.default_rng(1)
    alpha = rng.uniform(-np.pi, np.pi, 500)
    beta = rng.uniform(0.0, np.pi, 500)
    np.testing.assert_allclose(np.linalg.norm(omega(alpha, beta), axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 60, 150, 300])
def test_omega_keeps_the_bits_of_the_stacked_formula(n):
    rng = np.random.default_rng(n)
    alpha = rng.uniform(-np.pi, np.pi, n)
    beta = rng.uniform(0.0, np.pi, n)
    for a, b in ((alpha, beta), (alpha[0], beta[0]), (alpha.reshape(-1, 1), beta.reshape(-1, 1))):
        sb = np.sin(b)
        assert np.array_equal(omega(a, b), np.stack([np.cos(a) * sb, np.sin(a) * sb, np.cos(b)], axis=-1))


# The angle update is ``project_scaled`` of the differences divided by the
# semi-axes, as S2 calls it; the magnitude update is ``clipped_magnitude``
# with the directions ``omega(alpha, beta)`` and the semi-axes as scales, as
# S3 calls it.


def test_project_angles_on_semi_axes():
    shape = EllipsoidShape(0.3, 0.5, 1.2)
    alpha, beta = project_scaled(np.array([[0.3, 0.0, 0.0], [0.0, 0.0, 1.2]]) / shape.as_array)
    assert alpha[0] == pytest.approx(0.0, abs=1e-12)
    assert beta[0] == pytest.approx(np.pi / 2, abs=1e-12)
    assert beta[1] == pytest.approx(0.0, abs=1e-12)


def test_project_angles_degenerate_center():
    alpha, beta = project_scaled(np.zeros((1, 3)))
    assert alpha[0] == 0.0
    assert beta[0] == pytest.approx(np.pi / 2)


def test_project_angles_pins_only_rows_at_the_center():
    """Among ordinary rows, only one at the center moves to the +x equator; one on the z axis keeps its pole."""
    diff = np.array([[0.3, -0.2, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, -0.7], [0.0, 0.0, 0.4]])
    alpha, beta = project_scaled(diff)
    np.testing.assert_array_equal(alpha, np.arctan2(diff[:, 1], diff[:, 0]))
    np.testing.assert_array_equal(beta[[0, 2, 3]], np.arctan2(np.hypot(diff[:, 0], diff[:, 1]), diff[:, 2])[[0, 2, 3]])
    assert beta[1] == np.pi / 2 and beta[2] == np.pi and beta[3] == 0.0


def test_grid_search_separable_scan_matches_dense_grid():
    from oracles import _grid_min, dense_grid_min

    rng = np.random.default_rng(17)
    alphas = np.linspace(-np.pi, np.pi, 500)
    betas = np.linspace(0.0, np.pi, 300)
    tables = (np.cos(alphas), np.sin(alphas), np.sin(betas), np.cos(betas))
    for _ in range(20):
        diff = rng.normal(0.0, 1.5, 3)
        d = rng.uniform(0.1, 3.0)
        shape = EllipsoidShape(*rng.uniform(0.1, 2.0, 3))
        u = diff / shape.as_array
        *_, fast = _grid_min(u, d, *tables, alphas, betas)
        assert fast == pytest.approx(dense_grid_min(diff, d, shape, alphas, betas), abs=1e-12)


def test_project_angles_matches_grid_search():
    rng = np.random.default_rng(2)
    cases = []
    for _ in range(100):
        diff = rng.normal(0.0, 1.5, 3)
        d = rng.uniform(0.1, 3.0)
        shape = EllipsoidShape(*rng.uniform(0.1, 2.0, 3))
        cases.append((diff, d, shape))
    alpha, beta = project_scaled(np.array([diff / shape.as_array for diff, _, shape in cases]))
    for (diff, d, shape), a, b in zip(cases, alpha, beta):
        obj_closed = projection_objective(diff, d, shape, a, b)
        *_, obj_grid = grid_search_angles(diff, d, shape)
        assert obj_closed <= obj_grid + 1e-6


def test_solve_magnitude_exact_polar_decomposition():
    direction = omega(np.array([0.7]), np.array([1.1]))
    d = clipped_magnitude(2.0 * direction, direction, UNIT.as_array, 1.0, np.inf)
    assert d[0] == pytest.approx(2.0, abs=1e-12)


def test_solve_magnitude_clips_to_lower_bound():
    direction = omega(np.array([-0.3]), np.array([0.9]))
    assert clipped_magnitude(0.5 * direction, direction, UNIT.as_array, 1.0, np.inf)[0] == 1.0


def test_solve_magnitude_matches_ternary_search():
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(200):
        diff = rng.normal(0.0, 2.0, 3)
        alpha = rng.uniform(-np.pi, np.pi)
        beta = rng.uniform(0.0, np.pi)
        shape = EllipsoidShape(*rng.uniform(0.2, 2.0, 3))
        lo, width = rng.uniform(0.0, 1.5), rng.uniform(0.5, 4.0)
        hi = lo + width if rng.uniform() < 0.5 else np.inf
        cases.append((diff, alpha, beta, shape, lo, hi))
    diff, alpha, beta, shapes, lo, hi = zip(*cases)
    scales = np.array([shape.as_array for shape in shapes])
    d = clipped_magnitude(np.array(diff), omega(np.array(alpha), np.array(beta)), scales, np.array(lo), np.array(hi))
    for row, case in enumerate(cases):
        d_search = ternary_search_magnitude(*case)
        assert abs(d[row] - d_search) <= 1e-8
        assert lo[row] - 1e-15 <= d[row] <= (hi[row] + 1e-15 if np.isfinite(hi[row]) else np.inf)


def test_solve_magnitude_degenerate_denominator_returns_lower_bound():
    tiny = EllipsoidShape(1e-7, 1e-7, 1e-7)
    direction = omega(np.zeros(1), np.full(1, np.pi / 2))
    assert clipped_magnitude(np.array([[1.0, 0.0, 0.0]]), direction, tiny.as_array, 0.25, np.inf)[0] == 0.25


def test_degenerate_magnitude_row_leaves_the_other_rows_unchanged():
    """A row with a vanishing quadratic coefficient takes its lower bound; every other row keeps its bits."""
    rng = np.random.default_rng(5)
    diff = rng.normal(size=(40, 3))
    omega_rows = omega(rng.uniform(-np.pi, np.pi, 40), rng.uniform(0.0, np.pi, 40))
    scales = rng.uniform(0.2, 2.0, (40, 3))
    lo, hi = rng.uniform(0.0, 0.5, 40), np.full(40, np.inf)
    regular = clipped_magnitude(diff, omega_rows, scales, lo, hi)
    scales[7] = 1e-7
    mixed = clipped_magnitude(diff, omega_rows, scales, lo, hi)
    assert mixed[7] == lo[7]
    assert np.array_equal(np.delete(mixed, 7), np.delete(regular, 7))


@pytest.mark.parametrize("n", [1, 40])
def test_clipped_magnitude_keeps_the_bits_of_np_clip(n):
    """The clip is ``np.clip``'s own maximum-then-minimum: NaN vertices stay NaN,
    an infinite upper bound clips nothing, a crossed interval gives ``hi``."""
    rng = np.random.default_rng(n)
    diff = rng.normal(size=(n, 3))
    diff[::3, 1] = np.nan
    omega_rows = omega(rng.uniform(-np.pi, np.pi, n), rng.uniform(0.0, np.pi, n))
    scales = rng.uniform(0.2, 2.0, (n, 3))
    scales[1::5] = 1e-7  # degenerate rows take the lower bound
    lo = rng.uniform(-1.0, 0.5, n)
    hi = np.where(rng.uniform(size=n) < 0.5, np.inf, rng.uniform(-0.5, 1.0, n))
    for bounds in ((lo, hi), (0.0, np.inf), (lo, np.inf), (-np.inf, hi)):
        actual = clipped_magnitude(diff, omega_rows, scales, *bounds)
        expected = reference_clipped_magnitude(diff, omega_rows, scales, *bounds)
        assert actual.tobytes() == expected.tobytes()
    assert np.isnan(clipped_magnitude(diff, omega_rows, scales, lo, hi)[0])


def test_bf_lower_bound_values():
    assert bf_lower_bound(5.0, 1.0) == 1.0
    assert bf_lower_bound(1.0, 0.37) == 1.0
    assert bf_lower_bound(2.0, 0.9) == pytest.approx(1.1, abs=1e-12)


def test_bf_lower_bound_rejects_bad_gamma():
    with pytest.raises(ValueError):
        bf_lower_bound(1.0, -0.1)
    with pytest.raises(ValueError):
        bf_lower_bound(1.0, 1.5)


def test_bf_lower_bound_monotone_in_previous_magnitude():
    d_prev = np.linspace(0.0, 4.0, 50)
    for gamma in (0.0, 0.5, 0.9):
        bounds = bf_lower_bound(d_prev, gamma)
        assert np.all(np.diff(bounds) >= 0.0)
    np.testing.assert_array_equal(bf_lower_bound(d_prev, 1.0), np.ones(50))
