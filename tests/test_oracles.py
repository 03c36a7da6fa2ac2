import math

import numpy as np
import pytest

from mbokit.grid import Grid, MultiPhaseState, rasterize_ball

from oracles import ExtinctionError, _rk4, circle_mcf, forced_ball, solve_two_ball_vp
from reference_forms import junction_angles


class TestCircleMcf:
    def test_closed_form(self):
        assert circle_mcf(0.3, 0.01) == pytest.approx(math.sqrt(0.07), rel=1e-14)

    def test_three_dimensional_rate(self):
        # dR/dt = -(d-1)/R: in 3-d the ball shrinks twice as fast
        assert circle_mcf(0.3, 0.01, dim=3) == pytest.approx(
            math.sqrt(0.09 - 4 * 0.01), rel=1e-14
        )

    def test_extinction_raises(self):
        with pytest.raises(ExtinctionError):
            circle_mcf(0.1, 0.006)


class TestRk4:
    def test_fourth_order_convergence(self):
        # halving the step must shrink the error by at least 8x (order >= 3
        # observed guarantees the integrator is wired correctly; the
        # asymptotic rate is 16x)
        def rhs(t, y):
            return -y

        y0 = np.array([1.0])
        exact = math.exp(-1.0)
        err_coarse = abs(_rk4(rhs, y0, 0.0, 1.0, 8)[0] - exact)
        err_fine = abs(_rk4(rhs, y0, 0.0, 1.0, 16)[0] - exact)
        assert err_coarse / err_fine >= 8.0

    def test_exact_on_linear_rhs(self):
        def rhs(t, y):
            return np.array([2.0])

        out = _rk4(rhs, np.array([1.0]), 0.0, 3.0, 5)
        assert out[0] == pytest.approx(7.0, rel=1e-14)


class TestTwoBall:
    def test_volume_conserved_along_solution(self):
        sol = solve_two_ball_vp(0.20, 0.12, [0.0, 5e-4, 1e-3, 2e-3])
        for r1, r2 in zip(sol.r1, sol.r2):
            assert r1**2 + r2**2 == pytest.approx(0.0544, rel=1e-10)

    def test_large_ball_grows_small_shrinks(self):
        sol = solve_two_ball_vp(0.20, 0.12, [1e-3])
        r1, r2 = sol.r1[0], sol.r2[0]
        assert r1 > 0.20
        assert r2 < 0.12

    def test_survivor_radius_after_extinction(self):
        sol = solve_two_ball_vp(0.20, 0.12, [0.05])
        assert sol.extinction_time is not None
        assert sol.r2[0] == 0.0
        assert sol.r1[0] == pytest.approx(math.sqrt(0.0544), rel=1e-6)

    def test_extinction_time_bracketed(self):
        sol = solve_two_ball_vp(0.20, 0.12, [0.05])
        t_ext = sol.extinction_time
        before = solve_two_ball_vp(0.20, 0.12, [0.95 * t_ext])
        assert before.r2[0] > 0.0

    def test_order_of_radii_irrelevant(self):
        a = solve_two_ball_vp(0.12, 0.20, [1e-3])
        b = solve_two_ball_vp(0.20, 0.12, [1e-3])
        assert a.r1[0] == pytest.approx(b.r2[0], rel=1e-12)
        assert a.r2[0] == pytest.approx(b.r1[0], rel=1e-12)

    def test_equal_radii_are_stationary(self):
        sol = solve_two_ball_vp(0.15, 0.15, [2e-3])
        assert sol.r1[0] == pytest.approx(0.15, rel=1e-9)
        assert sol.r2[0] == pytest.approx(0.15, rel=1e-9)


class TestForcedBall:
    def test_equilibrium_is_fixed(self):
        assert forced_ball(0.25, 4.0, 0.05) == pytest.approx(0.25, rel=1e-10)

    def test_above_equilibrium_grows(self):
        assert forced_ball(0.275, 4.0, 0.02) > 0.275

    def test_below_equilibrium_shrinks(self):
        assert forced_ball(0.225, 4.0, 0.02) < 0.225

    def test_extinction_raises(self):
        with pytest.raises(ExtinctionError):
            forced_ball(0.1, 4.0, 1.0)

    def test_zero_force_matches_mcf(self):
        got = forced_ball(0.3, 0.0, 0.01)
        assert got == pytest.approx(circle_mcf(0.3, 0.01), rel=1e-8)


def sector_state(grid: Grid, cuts_deg, solid_radius: float = 0.35):
    """Grains as angular sectors around the domain center, vapor outside."""
    x = np.broadcast_to(grid.coordinate(0), grid.shape) - 0.5
    y = np.broadcast_to(grid.coordinate(1), grid.shape) - 0.5
    theta = np.degrees(np.arctan2(y, x)) % 360.0
    labels = np.full(grid.shape, len(cuts_deg), dtype=np.int32)
    for i, hi in enumerate(cuts_deg[:-1], start=1):
        labels[(theta < hi) & (labels == len(cuts_deg))] = i
    solid = rasterize_ball(grid, (0.5, 0.5), solid_radius)
    labels[~solid.mask] = 0
    return MultiPhaseState(grid, labels, len(cuts_deg))


WINDOW = ((0.32, 0.32), (0.68, 0.68))


class TestJunctionAngles:
    def test_equal_sectors(self):
        g = Grid(dim=2, n=256)
        state = sector_state(g, [120.0, 240.0, 360.0])
        angles = junction_angles(state, WINDOW)
        assert sorted(angles) == pytest.approx([120.0] * 3, abs=0.5)
        assert sum(angles) == pytest.approx(360.0, abs=1e-9)

    def test_asymmetric_sectors(self):
        g = Grid(dim=2, n=256)
        state = sector_state(g, [90.0, 200.0, 360.0])
        angles = junction_angles(state, WINDOW)
        assert sorted(angles) == pytest.approx([90.0, 110.0, 160.0], abs=0.5)

    def test_no_junction_in_window_rejected(self):
        g = Grid(dim=2, n=256)
        state = sector_state(g, [120.0, 240.0, 360.0])
        with pytest.raises(ValueError):
            junction_angles(state, ((0.8, 0.8), (0.95, 0.95)))

    def test_three_dimensional_rejected(self):
        g = Grid(dim=3, n=8)
        state = MultiPhaseState(
            g, np.zeros(g.shape, dtype=np.int32), num_grains=1
        )
        with pytest.raises(ValueError):
            junction_angles(state, ((0.0, 0.0), (1.0, 1.0)))
