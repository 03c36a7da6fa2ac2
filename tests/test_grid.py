import math

import numpy as np
import pytest
from scipy import ndimage

from mbokit.grid import (
    EmptyPhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    _periodic_gaussian,
    _select_cells,
    bounding_radius,
    centroid,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(dim=2, n=128, side=2.0)
        assert g.dx == pytest.approx(2.0 / 128)
        assert g.cell_volume == pytest.approx((2.0 / 128) ** 2)
        assert g.shape == (128, 128)
        assert g.total_cells == 128 * 128

    @pytest.mark.parametrize(
        "dim, side",
        [(2, math.inf), (2, 1e-310), (3, 1e-300), (3, 1e150), (2, 1e200)],
        ids=["infinite", "2d_tiny", "3d_tiny", "3d_huge", "2d_huge"],
    )
    def test_rejects_side_whose_cell_volume_is_not_a_normal_float(self, dim, side):
        with pytest.raises(ValueError, match="side"):
            Grid(dim=dim, n=8, side=side)

    def test_accepts_extreme_sides_with_a_normal_cell_volume(self):
        for dim, side in [(2, 1e-150), (3, 1e-100), (3, 1e100), (2, 1e150)]:
            g = Grid(dim=dim, n=8, side=side)
            assert 0 < g.cell_volume < math.inf

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(dim=4, n=64)
        with pytest.raises(ValueError):
            Grid(dim=2, n=4)
        with pytest.raises(ValueError):
            Grid(dim=2, n=64, side=-1.0)

    def test_cell_centers_are_offset_half(self):
        g = Grid(dim=2, n=8)
        centers = g.axis_centers()
        assert centers[0] == pytest.approx(g.dx / 2)
        assert centers[-1] == pytest.approx(1.0 - g.dx / 2)

    def test_coordinate_layout_x_fastest(self):
        # spatial axis 0 must vary along the last array axis
        g = Grid(dim=2, n=8)
        x = np.broadcast_to(g.coordinate(0), g.shape)
        y = np.broadcast_to(g.coordinate(1), g.shape)
        assert x[0, 0] != x[0, 1] and x[0, 0] == x[1, 0]
        assert y[0, 0] != y[1, 0] and y[0, 0] == y[0, 1]

    def test_wrap_delta_range(self):
        g = Grid(dim=2, n=16, side=1.0)
        deltas = g.wrap_delta(np.asarray([0.75, -0.75, 0.5, 0.25]))
        assert deltas == pytest.approx([-0.25, 0.25, -0.5, 0.25])

    def test_periodic_distance_shortest_image(self):
        g = Grid(dim=2, n=16)
        d2 = g.periodic_distance_sq((0.95, 0.5))
        # cell nearest (0.05, 0.5) should be ~0.1 away, not 0.9
        nearest = float(d2.min())
        assert nearest < 0.01

    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic_distance_equals_per_cell_loop(self, dim):
        # reference: a zero field plus each axis's squared delta, axis 0 first
        g = Grid(dim=dim, n=24, side=0.7)
        rng = np.random.default_rng(dim)
        for point in rng.random((5, dim)) * 0.7:
            expected = np.zeros(g.shape)
            for k in range(dim):
                expected = expected + g.wrap_delta(g.coordinate(k) - point[k]) ** 2
            assert np.array_equal(g.periodic_distance_sq(point), expected)


class TestPhaseField:
    def test_counts_and_complement(self, grid64):
        mask = np.zeros(grid64.shape, dtype=bool)
        mask[:4, :] = True
        f = PhaseField(grid64, mask)
        assert f.cell_count == 4 * 64
        assert PhaseField(grid64, ~mask).cell_count == grid64.total_cells - 4 * 64

    def test_shape_mismatch_rejected(self, grid64):
        with pytest.raises(ValueError):
            PhaseField(grid64, np.zeros((3, 3), dtype=bool))


class TestRasterizeBall:
    def test_zero_radius_empty(self, grid64):
        f = rasterize_ball(grid64, (0.5, 0.5), 0.0)
        assert f.cell_count == 0

    def test_too_large_radius_rejected(self, grid64):
        with pytest.raises(ValueError):
            rasterize_ball(grid64, (0.5, 0.5), 0.5)

    def test_area_matches_circle(self):
        # volume within one interface band, 2*dx*perimeter, of pi R^2
        g = Grid(dim=2, n=256)
        f = rasterize_ball(g, (0.5, 0.5), 0.25)
        target = math.pi * 0.25**2
        band = 2.0 * g.dx * (2.0 * math.pi * 0.25)
        assert abs(f.cell_count * g.cell_volume - target) <= band

    def test_wraps_across_seam(self, grid64):
        f = rasterize_ball(grid64, (0.02, 0.5), 0.1)
        # parts on both sides of the x = 0 seam
        assert f.mask[:, :3].any() and f.mask[:, -3:].any()

    def test_ball_3d_volume(self):
        g = Grid(dim=3, n=64)
        f = rasterize_ball(g, (0.5, 0.5, 0.5), 0.3)
        target = 4.0 / 3.0 * math.pi * 0.3**3
        band = 2.0 * g.dx * (4.0 * math.pi * 0.3**2)
        assert abs(f.cell_count * g.cell_volume - target) <= band


class TestHalfSpaceAndSlab:
    def test_full_thickness_all_ones(self, grid64):
        f = rasterize_slab(grid64, 0, 0.0, grid64.side)
        assert f.cell_count == grid64.total_cells

    def test_zero_thickness_empty(self, grid64):
        f = rasterize_slab(grid64, 0, 0.0, 0.0)
        assert f.cell_count == 0

    def test_half_thickness_exact_count(self):
        g = Grid(dim=2, n=128)
        f = rasterize_slab(g, 0, 0.0, 0.5)
        assert f.cell_count == 64 * 128

    def test_sign_flips_selection(self, grid64):
        lo = rasterize_slab(grid64, 1, 0.0, 0.25)
        hi = rasterize_slab(grid64, 1, 0.25, grid64.side)
        assert lo.cell_count + hi.cell_count == grid64.total_cells
        assert not (lo.mask & hi.mask).any()

    def test_invalid_axis(self, grid64):
        with pytest.raises(ValueError):
            rasterize_slab(grid64, 2, 0.0, 0.5)

    def test_slab_half_open(self):
        g = Grid(dim=2, n=64)
        f = rasterize_slab(g, 0, 0.25, 0.5)
        # centers in [0.25, 0.5): 16 columns of 64 cells
        assert f.cell_count == 16 * 64


class TestVoronoi:
    def test_labels_cover_domain(self, grid64):
        state = voronoi_labels(grid64, [(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)])
        assert state.num_grains == 3
        assert state.solid_cell_count == grid64.total_cells
        assert set(np.unique(state.labels)) == {1, 2, 3}

    def test_vapor_margin_creates_vapor(self, grid64):
        state = voronoi_labels(
            grid64, [(0.25, 0.5), (0.75, 0.5)], vapor_margin=0.05
        )
        assert (state.labels == 0).any()
        # vapor sits on the bisectors only
        assert state.solid_cell_count > grid64.total_cells // 2

    def test_tie_goes_to_lowest_seed(self, grid64):
        # seeds on cell centers, bisector exactly on the column between them
        centers = grid64.axis_centers()
        s1, s2 = (centers[15], 0.5), (centers[47], 0.5)
        state = voronoi_labels(grid64, [s1, s2])
        x = np.broadcast_to(grid64.coordinate(0), grid64.shape)
        d1 = np.abs(grid64.wrap_delta(x - s1[0]))
        d2 = np.abs(grid64.wrap_delta(x - s2[0]))
        mid = d1 == d2
        assert mid.any()
        assert (state.labels[mid] == 1).all()

    def test_solid_restriction(self, grid64):
        ball = rasterize_ball(grid64, (0.5, 0.5), 0.3)
        state = voronoi_labels(
            grid64, [(0.4, 0.5), (0.6, 0.5)], solid=ball
        )
        assert state.solid_cell_count == ball.cell_count
        assert not state.labels[~ball.mask].any()

    def test_duplicate_seeds_rejected(self, grid64):
        with pytest.raises(ValueError):
            voronoi_labels(grid64, [(0.5, 0.5), (0.5, 0.5)])


class TestRandomBlob:
    def test_exact_fill_count(self, grid128):
        f = random_blob(grid128, seed=3, fill=0.3)
        assert f.cell_count == int(round(0.3 * grid128.total_cells))

    def test_reproducible(self, grid128):
        a = random_blob(grid128, seed=11)
        b = random_blob(grid128, seed=11)
        assert (a.mask == b.mask).all()

    def test_seed_changes_shape(self, grid128):
        a = random_blob(grid128, seed=1)
        b = random_blob(grid128, seed=2)
        assert (a.mask != b.mask).any()

    @pytest.mark.parametrize(
        "dim, n, smoothing", [(2, 96, 0.05), (2, 33, 0.2), (3, 24, 0.06), (2, 40, 0.0)]
    )
    def test_mask_equals_stable_argsort_of_scipy_filter(self, dim, n, smoothing):
        g = Grid(dim=dim, n=n, side=1.3)
        for seed in (5, 6):
            noise = np.random.default_rng(seed).standard_normal(g.shape)
            smooth = ndimage.gaussian_filter(noise, smoothing / g.dx, mode="wrap")
            target = round(0.3 * g.total_cells)
            expected = np.zeros(g.total_cells, dtype=bool)
            expected[np.argsort(-smooth.ravel(), kind="stable")[:target]] = True
            blob = random_blob(g, seed=seed, fill=0.3, smoothing=smoothing)
            assert np.array_equal(blob.mask.ravel(), expected)

    @pytest.mark.parametrize("smoothing", [-0.05, -1e-300, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_smoothing(self, grid64, smoothing):
        with pytest.raises(ValueError, match="smoothing"):
            random_blob(grid64, seed=1, smoothing=smoothing)


class TestPeriodicGaussian:
    """The blob filter against ``scipy.ndimage.gaussian_filter(mode="wrap")``."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [8, 9, 33, 96])
    def test_bit_equal_to_scipy(self, dim, n):
        # radii 0, 3, a little above n and (below 96) about 3n
        sigmas = [0.1, 0.7, n / 3.5] + ([3.0 * n / 4.0] if n < 96 else [])
        for seed, sigma in enumerate(sigmas):
            x = np.random.default_rng(seed).standard_normal((n,) * dim)
            expected = ndimage.gaussian_filter(x, sigma, mode="wrap")
            got = _periodic_gaussian(x, sigma)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("sigma", [0.0, 1e-15, -2.0])
    def test_zero_or_negative_width_is_identity(self, sigma):
        x = np.random.default_rng(1).standard_normal((9, 12))
        got = _periodic_gaussian(x, sigma)
        assert got is not x
        assert np.array_equal(got.view(np.uint64), x.view(np.uint64))
        expected = ndimage.gaussian_filter(x, sigma, mode="wrap")
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestSmallestCells:
    @pytest.mark.parametrize("count", [1, 7, 500, 1023, 1024])
    def test_equals_stable_argsort_on_many_ties(self, count):
        # values quantised to halves: about 20 distinct keys over 1024 cells
        key = np.round(2.0 * np.random.default_rng(4).standard_normal(1024)) / 2.0
        key[::5] *= -1.0  # -0.0 and +0.0 both occur and must compare equal
        mask, cut = _select_cells(key, count, False, np.empty(key.size))
        order = np.argsort(key, kind="stable")
        expected = np.zeros(key.size, dtype=bool)
        expected[order[:count]] = True
        assert np.array_equal(mask, expected)
        assert cut == key[order[count - 1]]


class TestMeasurements:
    def test_volume_scales_with_cells(self, grid64):
        f = rasterize_slab(grid64, 0, 0.0, 0.5)
        assert f.cell_count * grid64.cell_volume == pytest.approx(0.5)

    def test_centroid_of_centered_ball(self, grid128):
        f = rasterize_ball(grid128, (0.5, 0.5), 0.2)
        assert centroid(f) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_centroid_across_seam(self, grid128):
        f = rasterize_ball(grid128, (0.03, 0.5), 0.1)
        c = centroid(f)
        assert min(abs(c[0] - 0.03), abs(c[0] - 1.03)) < grid128.dx

    def test_bounding_radius_ball(self, grid128):
        f = rasterize_ball(grid128, (0.5, 0.5), 0.2)
        r = bounding_radius(f, (0.5, 0.5))
        assert 0.2 - grid128.dx <= r <= 0.2 + grid128.dx

    def test_bounding_radius_is_largest_occupied_distance(self):
        g = Grid(dim=3, n=24)
        f = random_blob(g, seed=3, fill=0.2)
        center = (0.3, 0.6, 0.45)
        d2 = g.periodic_distance_sq(center)
        assert bounding_radius(f, center) == float(np.sqrt(d2[f.mask].max()))

    def test_bounding_radius_empty_raises(self, grid64):
        f = PhaseField(grid64, np.zeros(grid64.shape, dtype=bool))
        with pytest.raises(EmptyPhaseError):
            bounding_radius(f, (0.5, 0.5))


class TestMultiPhaseState:
    def test_indicator_partition(self, grid64):
        state = voronoi_labels(grid64, [(0.2, 0.2), (0.7, 0.7)])
        total = sum(
            state.indicator(i).cell_count for i in range(state.num_grains + 1)
        )
        assert total == grid64.total_cells

    def test_label_range_enforced(self, grid64):
        labels = np.zeros(grid64.shape, dtype=np.int32)
        labels[0, 0] = 5
        with pytest.raises(ValueError):
            MultiPhaseState(grid64, labels, num_grains=3)
