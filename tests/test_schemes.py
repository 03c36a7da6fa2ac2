import warnings

import numpy as np
import pytest

from mbokit.grid import (
    DegeneratePhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    RealField,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)
from mbokit.kernel import HeatKernelPlan, ResolutionWarning, convolve, convolve_labels
from mbokit.schemes import (
    SchemeConfig,
    Stepper,
    SurfaceTensionMatrix,
    equal_tensions,
    step_grain_growth,
    step_mbo,
    step_forced,
    step_volume_preserving,
)
from mbokit.threshold import select_bottom_cells

from conftest import symmetric_tensions


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
    sel = select_bottom_cells(
        RealField(state.grid, phi_best - phi[0]), state.solid_cell_count
    )
    labels = np.where(sel.mask.mask, best.astype(np.int32) + 1, 0)
    return labels, float(sel.threshold)


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

    def test_unequal_tensions_accepted(self):
        sigma = np.array(
            [
                [0.0, 1.0, 0.8],
                [1.0, 0.0, 1.2],
                [0.8, 1.2, 0.0],
            ]
        )
        m = SurfaceTensionMatrix(sigma)
        assert m.extended_neg_bound > 0


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


class TestStepMbo:
    def test_comparison_principle(self, grid128):
        # nested inputs give nested outputs
        plan = HeatKernelPlan(grid128, 1e-3)
        small = rasterize_ball(grid128, (0.5, 0.5), 0.15)
        big = rasterize_ball(grid128, (0.5, 0.5), 0.3)
        out_small = step_mbo(small, convolve(plan, small))
        out_big = step_mbo(big, convolve(plan, big))
        assert (out_big.mask | ~out_small.mask).all()

    def test_ball_shrinks(self, grid128, ball128):
        plan = HeatKernelPlan(grid128, 1e-3)
        out = step_mbo(ball128, convolve(plan, ball128))
        assert 0 < out.cell_count < ball128.cell_count

    def test_slab_is_fixed_point(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        slab = rasterize_slab(grid128, 0, 0.25, 0.75)
        out = step_mbo(slab, convolve(plan, slab))
        assert (out.mask == slab.mask).all()

    def test_translation_equivariance_masks(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        blob = random_blob(grid128, seed=42)
        rolled = PhaseField(grid128, np.roll(blob.mask, (9, 5), axis=(0, 1)))
        base = step_mbo(blob, convolve(plan, blob))
        shifted = step_mbo(rolled, convolve(plan, rolled))
        assert (np.roll(base.mask, (9, 5), axis=(0, 1)) == shifted.mask).all()


class TestStepForced:
    def test_zero_force_matches_mbo(self, grid128, ball128):
        from mbokit.grid import RealField

        plan = HeatKernelPlan(grid128, 1e-3)
        zero = RealField(grid128, np.zeros(grid128.shape))
        a = step_mbo(ball128, convolve(plan, ball128))
        b = step_forced(ball128, convolve(plan, ball128), zero, 1e-3)
        assert (a.mask == b.mask).all()

    def test_positive_force_grows_interface(self, grid128, ball128):
        from mbokit.grid import RealField

        plan = HeatKernelPlan(grid128, 1e-3)
        f = RealField(grid128, np.full(grid128.shape, 8.0))
        grown = step_forced(ball128, convolve(plan, ball128), f, 1e-3)
        plain = step_mbo(ball128, convolve(plan, ball128))
        assert grown.cell_count > plain.cell_count


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
            state, convolve_labels(plan, state), equal_tensions(3)
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
            state, convolve_labels(plan, state), equal_tensions(1)
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
        out, lam = step_grain_growth(state, smoothed, tensions)
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
        out, lam = step_grain_growth(state, smoothed, tensions)
        labels, lam_ref = grain_step_reference(state, tensions, smoothed)
        assert np.array_equal(out.labels, labels)
        assert lam == lam_ref
        ext = tensions.extended
        phi = np.stack(
            [sum(w * f for w, f in zip(ext[i], smoothed)) for i in range(1, p + 1)]
        )
        tied = (phi == phi.min(axis=0)).sum(axis=0) > 1
        assert tied.sum() > 100

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
        base, _ = step_grain_growth(state, convolve_labels(plan, state), tensions)
        shifted, _ = step_grain_growth(rolled, convolve_labels(plan, rolled), tensions)
        assert (np.roll(base.labels, (7, 2), axis=(0, 1)) == shifted.labels).all()


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
        with warnings.catch_warnings():
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

    def test_bitwise_independent_of_thread_count(self, scheme_case, monkeypatch):
        cfg, initial = scheme_case
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MBO_THREADS", threads)
            stepper = Stepper(cfg, initial)
            final = [initial, *stepper][-1]
            raw = final.labels if isinstance(final, MultiPhaseState) else final.mask
            results.append((raw.tobytes(), stepper.status, stepper.records))
        assert results[0] == results[1]

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
        from mbokit.grid import RealField

        def f(grid, t):
            return RealField(grid, np.full(grid.shape, 2.0))

        cfg = SchemeConfig(
            scheme="forced", grid=grid128, h=1e-3, steps=3, force=f
        )
        stepper = Stepper(cfg, ball128)
        list(stepper)
        assert all(r.transfer != 0.0 for r in stepper.records)
