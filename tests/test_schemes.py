import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbokit import diagnostics, schemes
from mbokit.grid import (
    DegeneratePhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)
from mbokit.diagnostics import LedgerWalk
from mbokit.kernel import ClampWarning, HeatKernelPlan, ResolutionWarning, convolve
from mbokit.schemes import (
    SchemeConfig,
    Stepper,
    SurfaceTensionMatrix,
    step_grain_growth,
    step_forced,
    step_volume_preserving,
)
from mbokit.threshold import select_bottom_cells

from conftest import equal_tensions, symmetric_tensions
from reference_forms import (
    convolve_labels,
    forced_step_field_form,
    full_stack_grain_step,
    full_stack_step,
    plain_tension_rows,
    stack_source,
)


def triangle_message_reference(s):
    """The O(p^3) triple loop the vectorized check replaced."""
    p = s.shape[0]
    for k in range(p):
        others = [i for i in range(p) if i != k]
        for i in others:
            for j in others:
                if i != j and not s[i, j] < s[i, k] + s[k, j]:
                    return (
                        f"triangle inequality fails: sigma[{i},{j}] >= "
                        f"sigma[{i},{k}] + sigma[{k},{j}]"
                    )
    return None


def grain_step_reference(state, tensions, smoothed):
    """Full (p+1)-field phi stack and argmin, as the streamed step replaced."""
    ext = tensions.extended
    phi = np.zeros((len(smoothed),) + state.grid.shape)
    for i in range(len(smoothed)):
        for j, f in enumerate(smoothed):
            if ext[i, j] != 0.0:
                phi[i] += ext[i, j] * f
    best = np.argmin(phi[1:], axis=0)
    phi_best = np.take_along_axis(phi[1:], best[None], axis=0)[0]
    mask, cut = select_bottom_cells((phi_best - phi[0]).reshape(-1), state.solid_cell_count)
    labels = np.where(mask.reshape(state.grid.shape), best.astype(np.int32) + 1, 0)
    return labels, float(cut)


def quiet_plan(grid, h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return HeatKernelPlan(grid, h)


class TestSurfaceTensionMatrix:
    def test_equal_tensions_valid(self):
        m = equal_tensions(3)
        assert m.num_grains == 3
        assert m.sigma[0, 1] == 1.0
        assert m.extended.shape == (4, 4)
        assert (m.extended[0, 1:] == 1.0).all()

    def test_rejects_asymmetric(self):
        sigma = np.array([[0.0, 1.0], [1.2, 0.0]])
        with pytest.raises(ValueError):
            SurfaceTensionMatrix(sigma)

    def test_rejects_nonzero_diagonal(self):
        sigma = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            SurfaceTensionMatrix(sigma)

    def test_rejects_tension_at_two(self):
        # 2 is the cost of routing the interface through vapor
        sigma = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="below 2"):
            SurfaceTensionMatrix(sigma)

    def test_rejects_triangle_violation(self):
        sigma = np.array(
            [
                [0.0, 1.9, 0.05],
                [1.9, 0.0, 0.05],
                [0.05, 0.05, 0.0],
            ]
        )
        with pytest.raises(ValueError, match="triangle"):
            SurfaceTensionMatrix(sigma)

    @pytest.mark.parametrize(
        "sigma",
        [
            # equality is a violation too: sigma[0,1] == sigma[0,2] + sigma[2,1]
            np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]]),
            # one violation, through the last grain only
            np.where(
                np.eye(5, dtype=bool),
                0.0,
                np.array(
                    [
                        [0, 1.9, 1, 1, 0.9],
                        [1.9, 0, 1, 1, 0.9],
                        [1, 1, 0, 1, 1],
                        [1, 1, 1, 0, 1],
                        [0.9, 0.9, 1, 1, 0],
                    ]
                ),
            ),
        ]
        + [symmetric_tensions(6, seed, 0.05, 1.95) for seed in range(4)]
        + [symmetric_tensions(40, seed, 0.3, 1.9) for seed in range(2)],
        ids=lambda s: f"p{s.shape[0]}",
    )
    def test_triangle_message_matches_triple_loop(self, sigma):
        expected = triangle_message_reference(sigma)
        assert expected is not None
        with pytest.raises(ValueError) as err:
            SurfaceTensionMatrix(sigma)
        assert str(err.value) == expected

    def test_equal_tensions_validate_in_quadratic_time(self, monkeypatch):
        # below twice the smallest tension no triangle can fail, so the
        # O(p^3) loop makes no pass (3.4 s at p = 1000 when it ran); at
        # twice the smallest it makes p passes, one per middle grain k
        passes = []

        def counted_range(*args):
            passes.append(len(range(*args)))
            return range(*args)

        monkeypatch.setattr(schemes, "range", counted_range, raising=False)
        m = equal_tensions(1000)
        assert (m.sigma_min, m.sigma_max) == (1.0, 1.0)
        assert passes == [0]
        SurfaceTensionMatrix(np.array([[0, 0.5, 1.0], [0.5, 0, 0.9], [1.0, 0.9, 0]]))
        assert passes == [0, 3]

    def test_off_diagonal_range(self):
        sigma = symmetric_tensions(5, 3, 0.7, 1.3)
        m = SurfaceTensionMatrix(sigma)
        off = ~np.eye(5, dtype=bool)
        assert (m.sigma_min, m.sigma_max) == (sigma[off].min(), sigma[off].max())
        # a single grain has no pair; its range is the vapor tension
        assert (equal_tensions(1).sigma_min, equal_tensions(1).sigma_max) == (1.0, 1.0)

    @pytest.mark.parametrize("ratio", [1.5, 1.99, 2.0, 2.01, 3.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_triangle_verdict_matches_triple_loop_near_ratio_two(self, ratio, seed):
        # the loop is skipped only below a ratio of 2; either way a matrix
        # is refused for its triangles exactly when the triple loop fails,
        # here from a ratio of 2 on: sigma[0,1] >= sigma[0,2] + sigma[2,1]
        p = 7
        low = 0.6
        sigma = symmetric_tensions(p, seed, low, low * ratio)
        sigma[0, 1] = sigma[1, 0] = low * ratio
        sigma[0, 2] = sigma[2, 0] = sigma[1, 2] = sigma[2, 1] = low
        expected = triangle_message_reference(sigma)
        assert (expected is None) == (ratio < 2)
        try:
            SurfaceTensionMatrix(sigma)
            message = None
        except ValueError as err:
            message = str(err)
        if expected is None:
            assert message is None or "triangle" not in message
        else:
            assert message == expected

    def test_unequal_tensions_accepted(self):
        sigma = np.array(
            [
                [0.0, 1.0, 0.8],
                [1.0, 0.0, 1.2],
                [0.8, 1.2, 0.0],
            ]
        )
        m = SurfaceTensionMatrix(sigma)
        assert np.array_equal(m.extended[1:, 1:], sigma)

    def test_definiteness_verdict_matches_eigenvalues(self):
        # the largest eigenvalue of the extended matrix on an orthonormal
        # mean-zero basis decides what the Cholesky factor decides
        r = np.random.default_rng(0)
        verdicts = {"accepted": 0, "refused": 0}
        for _ in range(3000):
            p = int(r.integers(1, 9))
            lo = r.uniform(0.3, 1.9)
            hi = r.uniform(lo, 1.999)
            sigma = symmetric_tensions(p, int(r.integers(2**32)), lo, hi)
            ext = np.ones((p + 1, p + 1))
            ext[0, 0], ext[1:, 1:] = 0.0, sigma
            basis = np.linalg.svd(np.ones((1, p + 1)))[2][1:].T
            definite = np.linalg.eigvalsh(basis.T @ ext @ basis).max() < 0
            try:
                SurfaceTensionMatrix(sigma)
            except ValueError as err:
                if "definite" not in str(err):
                    continue  # refused for its triangles
                assert not definite
                verdicts["refused"] += 1
            else:
                assert definite
                verdicts["accepted"] += 1
        assert min(verdicts.values()) > 0


class TestSchemeConfig:
    def test_rejects_unknown_scheme(self, grid64):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="euler", grid=grid64, h=1e-3, steps=1)

    def test_rejects_negative_steps(self, grid64):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="mbo", grid=grid64, h=1e-3, steps=-1)

    def test_forced_needs_force(self, grid64):
        with pytest.raises(ValueError):
            SchemeConfig(scheme="forced", grid=grid64, h=1e-3, steps=1)

    def test_tensions_only_for_grain_growth(self, grid64):
        with pytest.raises(ValueError):
            SchemeConfig(
                scheme="mbo",
                grid=grid64,
                h=1e-3,
                steps=1,
                tensions=equal_tensions(2),
            )

    @pytest.mark.parametrize(
        "scheme, grains, message",
        [
            ("grain_growth", None, "grain_growth evolves a partition "
             "(init = voronoi), not a two-phase field"),
            ("mbo", 2, "scheme mbo evolves a two-phase field, "
             "not a partition (init = voronoi)"),
            ("forced", 3, "scheme forced evolves a two-phase field, "
             "not a partition (init = voronoi)"),
        ],
        ids=["grain_growth", "mbo", "forced"],
    )
    def test_pairs_each_scheme_with_its_kind_of_state(
        self, grid64, scheme, grains, message
    ):
        # the pairing is refused first, before the force is looked at
        tensions = None if grains is None else equal_tensions(grains)
        with pytest.raises(ValueError) as raised:
            SchemeConfig(scheme, grid64, 1e-3, 1, force=1.0, tensions=tensions)
        assert str(raised.value) == message


class TestStepMbo:
    def test_comparison_principle(self, grid128):
        # nested inputs give nested outputs
        plan = HeatKernelPlan(grid128, 1e-3)
        small = rasterize_ball(grid128, (0.5, 0.5), 0.15)
        big = rasterize_ball(grid128, (0.5, 0.5), 0.3)
        out_small = step_forced(small, convolve(plan, small), 0.0, 1e-3)
        out_big = step_forced(big, convolve(plan, big), 0.0, 1e-3)
        assert (out_big.mask | ~out_small.mask).all()

    def test_ball_shrinks(self, grid128, ball128):
        plan = HeatKernelPlan(grid128, 1e-3)
        out = step_forced(ball128, convolve(plan, ball128), 0.0, 1e-3)
        assert 0 < out.cell_count < ball128.cell_count

    def test_slab_is_fixed_point(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        slab = rasterize_slab(grid128, 0, 0.25, 0.75)
        out = step_forced(slab, convolve(plan, slab), 0.0, 1e-3)
        assert (out.mask == slab.mask).all()

    def test_translation_equivariance_masks(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        blob = random_blob(grid128, seed=42)
        rolled = PhaseField(grid128, np.roll(blob.mask, (9, 5), axis=(0, 1)))
        base = step_forced(blob, convolve(plan, blob), 0.0, 1e-3)
        shifted = step_forced(rolled, convolve(plan, rolled), 0.0, 1e-3)
        assert (np.roll(base.mask, (9, 5), axis=(0, 1)) == shifted.mask).all()


class TestStepForced:
    @pytest.mark.parametrize("f", [0.0, -0.0])
    @pytest.mark.parametrize(
        "grid, h", [(Grid(2, 128), 1e-3), (Grid(3, 32), 4e-3)], ids=["2d", "3d"]
    )
    def test_zero_force_thresholds_at_one_half(self, grid, h, f):
        # the mbo step: a zero force of either sign keeps exactly the cells
        # above 1/2, so a cell at 1/2 goes and the next float above it stays
        blob = random_blob(grid, seed=11, fill=0.4, smoothing=0.05)
        smoothed = convolve(quiet_plan(grid, h), blob)
        flat = smoothed.reshape(-1)
        flat[:3] = np.nextafter(0.5, [-1.0, 0.5, 1.0], dtype=np.float64)
        got = step_forced(blob, smoothed, f, h)
        assert got.mask.tobytes() == (smoothed > 0.5).tobytes()
        assert got.mask.reshape(-1)[:3].tolist() == [False, False, True]

    def test_positive_force_grows_interface(self, grid128, ball128):
        plan = HeatKernelPlan(grid128, 1e-3)
        grown = step_forced(ball128, convolve(plan, ball128), 8.0, 1e-3)
        plain = step_forced(ball128, convolve(plan, ball128), 0.0, 1e-3)
        assert grown.cell_count > plain.cell_count

    @pytest.mark.parametrize("f", [0.0, -0.0, 0.5, -2.0, 30.0, -30.0, 1e308])
    @pytest.mark.parametrize(
        "grid, h", [(Grid(2, 128), 1e-3), (Grid(3, 32), 4e-3)], ids=["2d", "3d"]
    )
    def test_scalar_threshold_has_the_bits_of_the_field_form(self, grid, h, f):
        # the scalar threshold is one multiply and one subtract, as each
        # cell of the constant force grid once saw
        blob = random_blob(grid, seed=11, fill=0.4, smoothing=0.05)
        smoothed = convolve(quiet_plan(grid, h), blob)
        got = step_forced(blob, smoothed, f, h)
        expected = forced_step_field_form(blob, smoothed, f, h)
        assert got.mask.tobytes() == expected.mask.tobytes()


class TestStepVolumePreserving:
    def test_conserves_count_exactly(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        blob = random_blob(grid128, seed=9)
        out, lam = step_volume_preserving(blob, convolve(plan, blob))
        assert out.cell_count == blob.cell_count
        assert isinstance(lam, float)

    def test_slab_fixed_point_with_half_multiplier(self, grid128):
        # multiplier off-center only by the one-cell quantization
        plan = HeatKernelPlan(grid128, 1e-3)
        slab = rasterize_slab(grid128, 0, 0.25, 0.75)
        out, lam = step_volume_preserving(slab, convolve(plan, slab))
        assert (out.mask == slab.mask).all()
        one_cell = (4.0 * np.pi * 1e-3) ** -0.5 * grid128.dx
        assert abs(lam - 0.5) <= one_cell

    def test_translation_equivariance(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        blob = random_blob(grid128, seed=17)
        rolled = PhaseField(grid128, np.roll(blob.mask, (3, 11), axis=(0, 1)))
        base, lam_a = step_volume_preserving(blob, convolve(plan, blob))
        shifted, lam_b = step_volume_preserving(rolled, convolve(plan, rolled))
        assert (np.roll(base.mask, (3, 11), axis=(0, 1)) == shifted.mask).all()
        assert lam_a == pytest.approx(lam_b, abs=1e-12)

    def test_empty_phase_rejected(self, grid64):
        plan = quiet_plan(grid64, 1e-3)
        empty = PhaseField(grid64, np.zeros(grid64.shape, dtype=bool))
        with pytest.raises(DegeneratePhaseError):
            step_volume_preserving(empty, convolve(plan, empty))

    def test_full_phase_rejected(self, grid64):
        plan = quiet_plan(grid64, 1e-3)
        full = PhaseField(grid64, np.ones(grid64.shape, dtype=bool))
        with pytest.raises(DegeneratePhaseError):
            step_volume_preserving(full, convolve(plan, full))


class TestStepGrainGrowth:
    def test_conserves_solid_count(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        state = voronoi_labels(
            grid128,
            [(0.3, 0.3), (0.7, 0.4), (0.45, 0.75)],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.35),
        )
        out, lam = step_grain_growth(
            state, *stack_source(convolve_labels(plan, state)), equal_tensions(3)
        )
        assert out.solid_cell_count == state.solid_cell_count

    def test_single_grain_reduces_to_volume_preserving(self, grid128):
        # one grain against vapor is the two-phase scheme in disguise
        plan = HeatKernelPlan(grid128, 1e-3)
        blob = random_blob(grid128, seed=23)
        state = MultiPhaseState(
            grid128, blob.mask.astype(np.int32), num_grains=1
        )
        gg_state, lam_gg = step_grain_growth(
            state, *stack_source(convolve_labels(plan, state)), equal_tensions(1)
        )
        vp_mask, lam_vp = step_volume_preserving(blob, convolve(plan, blob))
        assert (gg_state.labels.astype(bool) == vp_mask.mask).all()
        assert lam_gg == pytest.approx(1.0 - 2.0 * lam_vp, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_streamed_step_matches_full_stack_unequal_tensions(self, grid128, seed):
        p = 5
        tensions = SurfaceTensionMatrix(symmetric_tensions(p, seed, 0.7, 1.3))
        plan = HeatKernelPlan(grid128, 1e-3)
        points = np.random.default_rng(seed).uniform(0.3, 0.7, (p, 2))
        state = voronoi_labels(
            grid128,
            [tuple(x) for x in points],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.3),
        )
        smoothed = convolve_labels(plan, state)
        out, lam = step_grain_growth(state, *stack_source(smoothed), tensions)
        labels, lam_ref = grain_step_reference(state, tensions, smoothed)
        assert np.array_equal(out.labels, labels)
        assert lam == lam_ref

    @pytest.mark.parametrize(
        "weights", [(1.0,), (0.75, 1.0, 1.25)], ids=["unit", "mixed"]
    )
    def test_streamed_step_matches_full_stack_on_exact_ties(self, grid64, weights):
        # quarter-valued fields and tensions in quarters: every phi is exact,
        # so many cells tie between grains and the lowest label must win
        p = 4
        r = np.random.default_rng(3)
        sigma = r.choice(weights, (p, p))
        sigma = np.triu(sigma, 1) + np.triu(sigma, 1).T
        tensions = SurfaceTensionMatrix(sigma)
        smoothed = [r.integers(0, 5, grid64.shape) / 4.0 for _ in range(p + 1)]
        state = MultiPhaseState(grid64, r.integers(0, p + 1, grid64.shape), p)
        out, lam = step_grain_growth(state, *stack_source(smoothed), tensions)
        labels, lam_ref = grain_step_reference(state, tensions, smoothed)
        assert np.array_equal(out.labels, labels)
        assert lam == lam_ref
        ext = tensions.extended
        phi = np.stack(
            [sum(w * f for w, f in zip(ext[i], smoothed)) for i in range(1, p + 1)]
        )
        tied = (phi == phi.min(axis=0)).sum(axis=0) > 1
        assert tied.sum() > 100

    @pytest.mark.parametrize("p", [2, 4])
    def test_tensions_of_another_grain_count_do_not_broadcast(self, grid128, p):
        # a run's ledger walk refuses such a pair before any step; a direct
        # caller meets numpy's broadcast of the tension rows
        plan = HeatKernelPlan(grid128, 1e-3)
        state = voronoi_labels(
            grid128,
            [(0.3, 0.3), (0.7, 0.4), (0.45, 0.75)],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.35),
        )
        source = stack_source(convolve_labels(plan, state))
        with pytest.raises(ValueError, match="broadcast"):
            step_grain_growth(state, *source, equal_tensions(p))

    def test_translation_equivariance(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        state = voronoi_labels(
            grid128,
            [(0.31, 0.29), (0.72, 0.41), (0.44, 0.77)],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.35),
        )
        rolled = MultiPhaseState(
            grid128, np.roll(state.labels, (7, 2), axis=(0, 1)), state.num_grains
        )
        tensions = equal_tensions(3)
        base, _ = step_grain_growth(
            state, *stack_source(convolve_labels(plan, state)), tensions
        )
        shifted, _ = step_grain_growth(
            rolled, *stack_source(convolve_labels(plan, rolled)), tensions
        )
        assert (np.roll(base.labels, (7, 2), axis=(0, 1)) == shifted.labels).all()


def grain_step_case(dim, p, unequal, layout, seed):
    """A partition, its p+1 smoothed labels and tensions for one step.

    ``voronoi``: seeds drawn in a ball.  ``mirrored``: seeds in pairs
    mirrored about the grid plane through the centres of the cells n/2 (and
    0), so two grains' fields tie, or nearly tie, cell for cell.
    ``quarters``: random labels with random quarter-valued fields and
    tensions in sixteenths, so comparison fields and scores tie exactly
    (the cut falls on tied scores).  ``ulps``: every cell holds the same
    random values in its own label order, the two largest a few ulps apart,
    and most cells are labelled by the largest: the scores are equal in
    exact arithmetic, so rounding orders them and decides the least row.  None for a draw that makes no valid
    case (tensions that are not negative definite, or repeated seeds).
    """
    grid = Grid(dim=dim, n=32 if dim == 2 else 12)
    r = np.random.default_rng(seed)
    if p == 1:
        tensions = equal_tensions(1)
    elif not unequal:
        tensions = equal_tensions(p)
    else:
        if layout == "quarters":
            sigma = r.choice((0.9375, 1.0, 1.0625), (p, p))
            sigma = np.triu(sigma, 1) + np.triu(sigma, 1).T
        else:
            sigma = symmetric_tensions(p, seed, 0.9, 1.1)
        try:
            tensions = SurfaceTensionMatrix(sigma)
        except ValueError:
            return None  # not negative definite
    if layout == "quarters":
        labels = r.integers(0, p + 1, grid.shape)
        labels.flat[0] = 1  # at least one solid cell
        state = MultiPhaseState(grid, labels, p)
        smoothed = [r.integers(0, 5, grid.shape) / 4.0 for _ in range(p + 1)]
        return state, smoothed, tensions
    if layout == "ulps":
        # every cell holds its own order of one set of values, the two
        # largest a few ulps apart: equal scores in exact arithmetic
        values = np.sort(r.random(p))
        if p > 1:
            values[-2] = values[-1] * (1.0 - r.integers(1, 64) * 2.0**-53)
        order = np.argsort(r.random((p,) + grid.shape), axis=0)
        fields = np.concatenate([np.full((1,) + grid.shape, r.random()), values[order]])
        leader = np.argmax(order, axis=0) + 1
        labels = np.where(r.random(grid.shape) < 0.9, leader, 0)
        labels.flat[0] = 1
        return MultiPhaseState(grid, labels, p), list(fields), tensions
    centre = (0.5 + grid.dx / 2,) + (0.5,) * (dim - 1)
    points = r.uniform(0.15, 0.85, (p, dim))
    if layout == "mirrored":
        points[1::2] = points[0 : p - p % 2 : 2]
        points[1::2, 0] = 2.0 * centre[0] - points[1::2, 0]
    seeds = [tuple(x) for x in points]
    if len(set(seeds)) < p:
        return None
    state = voronoi_labels(grid, seeds, solid=rasterize_ball(grid, centre, 0.4))
    plan = quiet_plan(grid, (2.5 * grid.dx) ** 2)
    return state, convolve_labels(plan, state), tensions


def streamed_and_reference_step(state, smoothed, tensions):
    """The package's step, the cells it gathered, and the reference step."""
    summary, gather = stack_source(smoothed)
    asked = []

    def recording(cells):
        asked.append(cells)
        return gather(cells)

    out, lam = step_grain_growth(state, summary, recording, tensions)
    assert len(asked) == 1
    return out, lam, asked[0], full_stack_grain_step(state, smoothed, tensions)


class TestStreamedGrainStep:
    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.sampled_from((2, 3)),
        p=st.sampled_from((1, 2, 3, 8, 30)),
        unequal=st.booleans(),
        layout=st.sampled_from(("voronoi", "mirrored", "quarters", "ulps")),
        seed=st.integers(0, 2**16),
    )
    def test_equals_full_stack_step(self, dim, p, unequal, layout, seed):
        case = grain_step_case(dim, p, unequal, layout, seed)
        assume(case is not None)
        state, smoothed, tensions = case
        out, lam, cells, (ref, lam_ref) = streamed_and_reference_step(
            state, smoothed, tensions
        )
        assert np.array_equal(out.labels, ref.labels)
        assert lam == lam_ref and np.signbit(lam) == np.signbit(lam_ref)
        changed = np.flatnonzero(out.labels != state.labels)
        assert np.isin(changed, cells).all()
        assert np.array_equal(cells, np.unique(cells))

    def test_mirrored_grains_tie_exactly(self):
        # on the mirror plane the two largest grain values are equal in some
        # cells (their labels tie for the leader), and nearly equal in more
        state, smoothed, tensions = grain_step_case(2, 8, False, "mirrored", 2)
        grains = np.sort(np.stack(smoothed[1:]), axis=0)
        tied = (grains[-1] == grains[-2]) & (grains[-1] > 0.05)
        assert np.count_nonzero(tied) > 0
        out, lam, _, (ref, lam_ref) = streamed_and_reference_step(
            state, smoothed, tensions
        )
        assert np.array_equal(out.labels, ref.labels) and lam == lam_ref

    @pytest.mark.parametrize("unequal", [False, True])
    def test_cut_on_tied_scores(self, unequal):
        state, smoothed, tensions = grain_step_case(2, 3, unequal, "quarters", 11)
        rows = list(plain_tension_rows(tensions.extended, smoothed))
        scores = np.minimum.reduce(rows[1:]) - rows[0]
        out, lam, _, (ref, lam_ref) = streamed_and_reference_step(
            state, smoothed, tensions
        )
        assert np.array_equal(out.labels, ref.labels) and lam == lam_ref
        at_cut = scores == lam
        # the selection takes some, not all, of the cells tied at the cut
        assert 0 < np.count_nonzero(at_cut & (out.labels > 0)) < np.count_nonzero(at_cut)

    def test_run_smooths_every_state_twice_but_the_first(
        self, many_grains, monkeypatch
    ):
        # the walk smooths each state for its energy and summary, and the
        # step streams it once more to gather its uncertain cells
        cfg, initial, _ = many_grains
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return convolve(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "convolve", counting)
        stepper = Stepper(cfg, initial)
        list(stepper)
        steps = len(stepper.records)
        assert steps == cfg.steps
        assert len(calls) == (2 * steps + 1) * (initial.num_grains + 1)


def grain_voronoi_256(p, unequal):
    """p grains seeded as the benchmark's generator seeds them (seed 5) in a
    square with a vapor margin of 0.05 at 256^2, tensions equal or drawn
    in [0.97, 1.03], and the config of one step at h = 2.5e-4."""
    grid = Grid(dim=2, n=256)
    seeds = np.random.default_rng(5).uniform(0.07, 0.93, (p, 2))
    state = voronoi_labels(grid, [tuple(x) for x in seeds], vapor_margin=0.05)
    tensions = (
        SurfaceTensionMatrix(symmetric_tensions(p, p, 0.97, 1.03))
        if unequal
        else equal_tensions(p)
    )
    cfg = SchemeConfig(
        scheme="grain_growth", grid=grid, h=2.5e-4, steps=1, tensions=tensions
    )
    return cfg, state


def every_row_dissipation(cfg, old, new):
    """The ledger's dissipation of the step from ``old`` to ``new`` with every
    tension row folded on every changed cell, each summed by the walk's
    scattered sum in label order: the sum the walk's pruned fold must keep
    bit for bit."""
    n, plan = cfg.grid.total_cells, HeatKernelPlan(cfg.grid, cfg.h)
    cells = np.flatnonzero(new.labels != old.labels)

    def values_on(state):
        return np.stack(
            [
                convolve(plan, state.indicator(j)).ravel()[cells]
                for j in range(state.num_grains + 1)
            ]
        )

    before = values_on(new) - values_on(old)
    new_labels, old_labels = new.labels.ravel()[cells], old.labels.ravel()[cells]
    quad = 0.0
    for i, row in enumerate(plain_tension_rows(cfg.tensions.extended, before)):
        omega = (new_labels == i) * 1.0 - (old_labels == i)
        quad += diagnostics._scattered_sum(n, cells, omega * row)
    return -quad * cfg.grid.cell_volume / np.sqrt(cfg.h)


class TestPrunedRowsKeepTheBits:
    """The step folds a grain's row only where it can match the leader's, and
    the ledger only the rows of a changed cell's old and new labels: labels,
    cut and ledger row are those of every row folded on every cell."""

    @staticmethod
    def one_step(cfg, initial, monkeypatch, step_map=None):
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamp and support-radius lines
            if step_map is not None:
                patch.setattr(schemes, "step_grain_growth", step_map)
            stepper = Stepper(cfg, initial)
            [new] = list(stepper)
        return new, stepper.records[0]

    def assert_same_step(self, cfg, initial, monkeypatch):
        new, rec = self.one_step(cfg, initial, monkeypatch)
        ref, rec_ref = self.one_step(cfg, initial, monkeypatch, full_stack_step)
        assert np.array_equal(new.labels, ref.labels)
        assert np.float64(rec.lam).tobytes() == np.float64(rec_ref.lam).tobytes()
        assert repr(rec) == repr(rec_ref)
        expected = every_row_dissipation(cfg, initial, new)
        assert np.float64(rec.dissipation).tobytes() == expected.tobytes()
        assert rec.dissipation > 0.0
        return new

    def test_two_hundred_grains_unequal_tensions(self, monkeypatch):
        cfg, initial = grain_voronoi_256(200, unequal=True)
        new = self.assert_same_step(cfg, initial, monkeypatch)
        assert np.count_nonzero(new.labels != initial.labels) > 1000

    def test_exact_ties_on_a_mirror_plane(self, monkeypatch):
        # two grains' smoothed values tie cell for cell on the mirror plane
        state, smoothed, tensions = grain_step_case(2, 8, False, "mirrored", 2)
        grains = np.sort(np.stack(smoothed[1:]), axis=0)
        assert np.count_nonzero((grains[-1] == grains[-2]) & (grains[-1] > 0.05))
        cfg = SchemeConfig(
            scheme="grain_growth",
            grid=state.grid,
            h=(2.5 * state.grid.dx) ** 2,
            steps=1,
            tensions=tensions,
        )
        self.assert_same_step(cfg, state, monkeypatch)

    def test_folded_columns_grow_linearly_in_grains(self, monkeypatch):
        # folding every row on every uncertain and changed cell hands p + 1
        # columns per cell to the fold, and those cells grow with p too;
        # the pruned folds hand a few per cell
        fold, handed, every_row = diagnostics.tension_row, {}, {}
        for p in (50, 100, 200):
            cfg, initial = grain_voronoi_256(p, unequal=True)
            cols, asked = [], []

            def counting(weights, values, at):
                cols.append(at.size)
                return fold(weights, values, at)

            monkeypatch.setattr(schemes, "tension_row", counting)
            monkeypatch.setattr(diagnostics, "tension_row", counting)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClampWarning)
                walk = LedgerWalk(cfg, initial, None)

                def gather(cells):
                    asked.append(cells.size)
                    return walk.gather(cells)

                new, _ = step_grain_growth(initial, walk.summary, gather, cfg.tensions)
                walk.advance(1, new, None)
            cells = asked[0] + walk.changed
            handed[p], every_row[p] = sum(cols), (p + 1) * cells
            assert handed[p] < 3 * cells
        for p in (100, 200):
            assert handed[p] / handed[50] <= p / 50 < every_row[p] / every_row[50]


class TestRun:
    def test_steps_zero_returns_initial_only(self, grid64):
        ball = rasterize_ball(grid64, (0.5, 0.5), 0.25)
        cfg = SchemeConfig(scheme="mbo", grid=grid64, h=1e-3, steps=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            stepper = Stepper(cfg, ball)
            states = [ball, *stepper]
        assert len(states) == 1
        assert stepper.records == []
        assert stepper.status == "completed"

    def test_steps_zero_folds_no_grain_summary(self, grid64, monkeypatch):
        # nothing follows the initial state of a run of no steps, so no
        # summary is folded for a step map; the energy is a one-step run's
        initial = voronoi_labels(grid64, [(0.3, 0.3), (0.7, 0.4), (0.5, 0.8)])
        folded = []
        fold = diagnostics.GrainSummary.fold
        monkeypatch.setattr(
            diagnostics.GrainSummary, "fold",
            lambda summary, j, psi: folded.append(j) or fold(summary, j, psi),
        )
        tensions = equal_tensions(3)
        zero = Stepper(SchemeConfig("grain_growth", grid64, 4e-3, 0, None, tensions), initial)
        assert list(zero) == [] and folded == []
        one = Stepper(SchemeConfig("grain_growth", grid64, 4e-3, 1, None, tensions), initial)
        assert folded == [1, 2, 3, 0]
        assert one.initial_energy == zero.initial_energy

    @pytest.mark.parametrize("steps", [0, 3])
    def test_status_is_final_when_the_last_state_is_yielded(
        self, grid128, ball128, steps
    ):
        # a caller that stops at the last state reads how the run ended
        cfg = SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=steps)
        stepper = Stepper(cfg, ball128)
        states = iter(stepper)
        for _ in range(steps):
            assert stepper.status == "running"
            next(states)
        assert stepper.status == "completed"
        assert next(states, None) is None

    def test_trajectory_length_and_energy_descent(self, grid128, ball128):
        cfg = SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=8)
        stepper = Stepper(cfg, ball128)
        states = [ball128, *stepper]
        assert len(states) == len(stepper.records) + 1
        for rec in stepper.records:
            assert rec.energy_after <= rec.energy_before
            assert rec.dissipation >= 0.0

    def test_small_ball_goes_extinct(self, grid128):
        ball = rasterize_ball(grid128, (0.5, 0.5), 0.05)
        cfg = SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=50)
        stepper = Stepper(cfg, ball)
        states = [ball, *stepper]
        assert stepper.status == "extinct"
        assert states[-1].cell_count == 0

    def test_underresolved_ball_pins(self, grid64):
        ball = rasterize_ball(grid64, (0.5, 0.5), 0.2)
        cfg = SchemeConfig(scheme="mbo", grid=grid64, h=1e-6, steps=10)
        # sqrt(h) ~ dx / 16: the smoothed ball rings by 2.7e-3
        with warnings.catch_warnings(), pytest.warns(ClampWarning):
            warnings.simplefilter("ignore", ResolutionWarning)
            stepper = Stepper(cfg, ball)
            list(stepper)
        assert stepper.status == "pinned"
        assert len(stepper.records) < 10

    def test_volume_preserved_across_run(self, grid128):
        blob = random_blob(grid128, seed=31)
        cfg = SchemeConfig(
            scheme="volume_preserving", grid=grid128, h=1e-3, steps=10
        )
        with warnings.catch_warnings():
            # blobs legitimately span more than 40% of the torus
            warnings.simplefilter("ignore", UserWarning)
            states = [blob, *Stepper(cfg, blob)]
        assert all(s.cell_count == blob.cell_count for s in states)

    def test_grain_growth_solid_preserved(self, grid128):
        state = voronoi_labels(
            grid128,
            [(0.35, 0.3), (0.65, 0.35), (0.5, 0.7)],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.3),
        )
        cfg = SchemeConfig(
            scheme="grain_growth",
            grid=grid128,
            h=1e-3,
            steps=5,
            tensions=equal_tensions(3),
        )
        states = [state, *Stepper(cfg, state)]
        assert all(
            s.solid_cell_count == state.solid_cell_count for s in states
        )

    @pytest.mark.parametrize("kind", ["ball", "blob", "partition"])
    def test_support_radius_warns_only_for_a_compact_solid(self, grid128, kind):
        # a ball of radius 0.45 feels its periodic images; a blob and a
        # partition's solid reach past half the side by design
        if kind == "ball":
            cfg = SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=2)
            initial = rasterize_ball(grid128, (0.5, 0.5), 0.45)
        elif kind == "blob":
            cfg = SchemeConfig("volume_preserving", grid128, 1e-3, 2)
            initial = random_blob(grid128, seed=31)
        else:
            seeds = [(0.35, 0.3), (0.65, 0.35), (0.5, 0.7)]
            initial = voronoi_labels(grid128, seeds, vapor_margin=0.05)
            cfg = SchemeConfig(
                "grain_growth", grid128, 1e-3, 2, tensions=equal_tensions(3)
            )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stepper = Stepper(cfg, initial)
            list(stepper)
        assert (stepper.initial_radius < 0.5) == (kind == "ball")
        radius = [w for w in caught if "support radius" in str(w.message)]
        assert len(radius) == (kind == "ball")

    def test_a_solid_filling_the_torus_does_not_warn(self, grid64):
        # the threshold 1/2 - f sqrt(h) / (2 sqrt(pi)) is below 0, so the
        # first step fills the torus: no interface is left, so no images
        cfg = SchemeConfig("forced", grid64, 4e-3, 3, force=30.0)
        ball = rasterize_ball(grid64, (0.5, 0.5), 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepper = Stepper(cfg, ball)
            states = list(stepper)
        assert states[0].cell_count == grid64.total_cells
        assert stepper.records[0].bounding_radius > 0.4 * grid64.side
        assert stepper.status == "pinned"

    def test_a_compact_ball_growing_past_the_bound_warns(self, grid64):
        # radius 0.37 grows to 0.42 at step 2 and 0.46 at step 3, unfilled
        cfg = SchemeConfig("forced", grid64, 4e-3, 3, force=8.0)
        ball = rasterize_ball(grid64, (0.5, 0.5), 0.37)
        with pytest.warns(UserWarning, match="support radius .* at step 2") as caught:
            states = list(Stepper(cfg, ball))
        assert len(caught) == 1
        assert states[-1].cell_count < grid64.total_cells

    def test_last_step_tells_the_walk_that_nothing_follows(
        self, many_grains, monkeypatch
    ):
        # the last state's labels are not folded into a summary no step
        # reads, and the ledger is that of a walk never told what follows
        cfg, initial, _ = many_grains
        calls = []
        advance = diagnostics.LedgerWalk.advance

        def recording(walk, step, cur, following):
            calls.append((walk, following))
            return advance(walk, step, cur, following)

        monkeypatch.setattr(diagnostics.LedgerWalk, "advance", recording)
        stepper = Stepper(cfg, initial)
        states = [initial, *stepper]
        monkeypatch.undo()
        walk, following = calls[-1]
        assert len(calls) == cfg.steps and following is states[-1]
        assert walk.summary is None
        assert all(f is None for _, f in calls[:-1])
        told_nothing = diagnostics.LedgerWalk(cfg, initial, None)
        rows = [
            told_nothing.advance(n, state, None)
            for n, state in enumerate(states[1:], start=1)
        ]
        fields = ("energy_before", "energy_after", "dissipation", "transfer", "slack")
        for row, record in zip(rows, stepper.records, strict=True):
            assert [getattr(row, f) for f in fields] == [getattr(record, f) for f in fields]

    def test_bitwise_independent_of_thread_count(self, scheme_case, monkeypatch):
        # Transforms run in the calling thread and MBO_THREADS is not read:
        # any value of it, including one that used to be refused, gives the
        # bits of a run with the variable unset.
        cfg, initial = scheme_case
        results = []
        for threads in (None, "1", "2", "abc"):
            if threads is None:
                monkeypatch.delenv("MBO_THREADS", raising=False)
            else:
                monkeypatch.setenv("MBO_THREADS", threads)
            stepper = Stepper(cfg, initial)
            final = [initial, *stepper][-1]
            raw = final.labels if isinstance(final, MultiPhaseState) else final.mask
            results.append((raw.tobytes(), stepper.status, stepper.records))
        assert all(r == results[0] for r in results[1:])

    def test_rejects_state_grid_mismatch(self, grid64, ball128):
        cfg = SchemeConfig(scheme="mbo", grid=grid64, h=1e-3, steps=1)
        with pytest.raises(ValueError):
            Stepper(cfg, ball128)

    def test_rejects_wrong_state_type(self, grid128, ball128):
        cfg = SchemeConfig(
            scheme="grain_growth",
            grid=grid128,
            h=1e-3,
            steps=1,
            tensions=equal_tensions(2),
        )
        with pytest.raises(TypeError):
            Stepper(cfg, ball128)

    def test_forced_records_transfer(self, grid128, ball128):
        cfg = SchemeConfig(
            scheme="forced", grid=grid128, h=1e-3, steps=3, force=2.0
        )
        stepper = Stepper(cfg, ball128)
        list(stepper)
        assert all(r.transfer != 0.0 for r in stepper.records)
