import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from mbokit import kernel
from mbokit.grid import _BLOCK_CELLS, Grid, PhaseField, rasterize_ball, rasterize_slab
from mbokit.kernel import (
    ClampWarning,
    HeatKernelPlan,
    ResolutionWarning,
    _row_blocks,
    convolve,
)
from reference_forms import (
    derivative_factors,
    full_multipliers,
    gradient_component,
    spectral_divergence,
)


@pytest.fixture(scope="module")
def grid512():
    return Grid(dim=2, n=512)


def multipliers(plan: HeatKernelPlan) -> np.ndarray:
    """The multipliers ``plan.multiply`` applies: the real part of its
    product with a spectrum of ones."""
    grid = plan.grid
    ones = np.ones(grid.shape[:-1] + (grid.n // 2 + 1,), dtype=np.complex128)
    return plan.multiply(ones).real


class TestPlan:
    def test_zero_mode_multiplier_is_one(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        assert multipliers(plan).flat[0] == 1.0

    def test_multipliers_in_unit_interval(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        m = multipliers(plan)
        assert m.tobytes() == full_multipliers(grid128, 1e-3).tobytes()
        assert m.max() == 1.0
        assert m.min() > 0.0

    @pytest.mark.parametrize("n", [9, 15, 24, 33, 96, 97, 128])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_mirrored_multiply_equals_full_multipliers(self, dim, n):
        # the plan builds the multipliers of rows 0 .. n/2 along array axis
        # 0 a block at a time and applies each block to the rows mirroring
        # it through a reversed view; the product must keep every bit
        grid = Grid(dim=dim, n=n)
        rng = np.random.default_rng(n * 10 + dim)
        shape = grid.shape[:-1] + (n // 2 + 1,)
        spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spectrum[(0,) * dim] = complex(1.0, -0.0)  # a signed zero too
        for h in (16.0 * grid.dx**2, 0.5):  # the second underflows to zeros
            plan = HeatKernelPlan(grid, h)
            assert not hasattr(plan, "multipliers")
            expected = spectrum * full_multipliers(grid, h)
            assert plan.multiply(spectrum.copy()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 1024), (3, 96)])
    def test_multiply_in_several_blocks_equals_full_multipliers(self, dim, n):
        # the benchmark's grids, whose rows 0 .. n/2 span several blocks
        grid = Grid(dim=dim, n=n)
        shape = grid.shape[:-1] + (n // 2 + 1,)
        spectrum = np.random.default_rng(n).standard_normal(shape) * (1 - 1j)
        plan = HeatKernelPlan(grid, 16.0 * grid.dx**2)
        assert plan.others.size * (n // 2 + 1) > 2 * _BLOCK_CELLS
        expected = spectrum * full_multipliers(grid, plan.h)
        assert plan.multiply(spectrum).tobytes() == expected.tobytes()

    def test_rejects_nonpositive_bandwidth(self, grid128):
        with pytest.raises(ValueError):
            HeatKernelPlan(grid128, 0.0)

    def test_rejects_overflowing_bandwidth(self, grid128):
        # h |k|^2 would overflow to inf before the exponential
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                HeatKernelPlan(grid128, 1e308)

    def test_warns_when_underresolved(self, grid128):
        # sqrt(h) below 4 cells: diffuse layer too thin for the grid
        with pytest.warns(ResolutionWarning) as caught:
            HeatKernelPlan(grid128, 1e-6)
        # it names the code that built the plan, not the dataclass's __init__
        assert [w.filename for w in caught] == [__file__]


class TestConvolve:
    def test_mass_conserved(self, grid512):
        plan = HeatKernelPlan(grid512, 1e-2)
        ball = rasterize_ball(grid512, (0.5, 0.5), 0.2)
        out = convolve(plan, ball)
        assert out.sum() == pytest.approx(ball.cell_count, rel=1e-12)

    def test_ball_center_value(self, grid512):
        # closed form for a 2-d Gaussian on a disk: 1 - exp(-R^2/(4h));
        # periodic images at this h contribute < 1e-7
        plan = HeatKernelPlan(grid512, 1e-2)
        ball = rasterize_ball(grid512, (0.5, 0.5), 0.2)
        out = convolve(plan, ball)
        target = 1.0 - math.exp(-(0.2**2) / (4.0 * 1e-2))
        assert out[255, 255] == pytest.approx(target, abs=1e-3)

    def test_indicator_output_clamped(self, grid128):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            plan = HeatKernelPlan(grid128, 2e-6)
        ball = rasterize_ball(grid128, (0.5, 0.5), 0.2)
        with pytest.warns(ClampWarning):  # sqrt(h) = dx / 5.5 rings by 1.4e-2
            out = convolve(plan, ball)
        assert out.min() >= 0.0
        assert out.max() <= 1.0

    def test_clamp_in_the_inverse_equals_a_clip_of_the_raw_values(self, grid128):
        # the clamp runs on each block of the inverse; the overshoot it
        # names is that of the raw values' extremes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            plan = HeatKernelPlan(grid128, 2e-6)
        ball = rasterize_ball(grid128, (0.5, 0.5), 0.2)
        raw = plan.apply(ball.as_float())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = convolve(plan, ball)
        expected = np.clip(raw, 0.0, 1.0) + 0.0
        assert out.tobytes() == expected.tobytes()
        [w] = caught
        assert w.category is ClampWarning
        assert w.message.overshoot == max(raw.max() - 1.0, -raw.min()) > 1e-9

    def test_clamp_refuses_a_nan(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        spectrum = plan.forward(np.ones(grid128.shape), plan.empty_spectrum())
        spectrum[3, 4] = np.nan
        with pytest.raises(ValueError, match="field values must be finite"):
            plan.inverse(spectrum, clamp=True)

    def test_no_ringing_at_resolved_scale(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        ball = rasterize_ball(grid128, (0.5, 0.5), 0.3)
        raw = plan.apply(ball.as_float())
        assert raw.max() <= 1.0 + 1e-9
        assert raw.min() >= -1e-9

    def test_no_negative_zero_in_output(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        ball = rasterize_ball(grid128, (0.5, 0.5), 0.2)
        out = convolve(plan, ball)
        zeros = out == 0.0
        assert not np.signbit(out[zeros]).any()

    def test_semigroup_property(self, grid128, rng):
        # applying h twice equals applying 2h once
        u = rng.random(grid128.shape)
        plan_h = HeatKernelPlan(grid128, 1e-3)
        plan_2h = HeatKernelPlan(grid128, 2e-3)
        once = plan_h.apply(plan_h.apply(u))
        twice = plan_2h.apply(u)
        assert np.abs(once - twice).max() <= 1e-10 * np.abs(twice).max()

    def test_translation_equivariance_float_level(self, grid128):
        # FFT round-off breaks bit equality; float-level must survive
        ball = rasterize_ball(grid128, (0.4, 0.55), 0.22)
        plan = HeatKernelPlan(grid128, 1e-3)
        base = convolve(plan, ball)
        shifted = PhaseField(grid128, np.roll(ball.mask, (9, 5), axis=(0, 1)))
        out = convolve(plan, shifted)
        assert np.abs(np.roll(base, (9, 5), axis=(0, 1)) - out).max() <= 1e-12

    def test_constant_field_fixed(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        u = np.full(grid128.shape, 0.37)
        assert plan.apply(u) == pytest.approx(u, rel=1e-14)

    def test_raw_values_not_clamped(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        values = np.where(rasterize_ball(grid128, (0.5, 0.5), 0.3).mask, 2.0, -1.0)
        out = plan.apply(values)
        assert out.max() > 1.0
        assert out.min() < 0.0

    def test_given_spectrum_is_written_over_with_the_same_bits(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        spectrum = plan.empty_spectrum()
        for center in ((0.5, 0.5), (0.02, 0.9)):  # the second reuses the buffer
            ball = rasterize_ball(grid128, center, 0.3)
            fresh = convolve(plan, ball)
            out = convolve(plan, ball, spectrum)
            assert out.base is spectrum
            assert np.array_equal(out.view(np.uint64), fresh.view(np.uint64))


class TestGradConvolve:
    def test_slab_gradient_peak(self, grid512):
        # peak slope of the smoothed step: (4 pi h)^(-1/2)
        plan = HeatKernelPlan(grid512, 1e-3)
        slab = rasterize_slab(grid512, 0, 0.25, 0.75)
        gx, gy = (gradient_component(plan, slab.as_float(), k) for k in (0, 1))
        target = (4.0 * math.pi * 1e-3) ** -0.5
        assert np.abs(gx).max() == pytest.approx(target, rel=0.02)
        assert np.abs(gy).max() == 0.0

    def test_gradient_signs_on_slab(self, grid512):
        plan = HeatKernelPlan(grid512, 1e-3)
        slab = rasterize_slab(grid512, 0, 0.25, 0.75)
        gx = gradient_component(plan, slab.as_float(), 0)
        # entering interface rises, exiting falls
        assert gx[0, 128] > 0.0
        assert gx[0, 384] < 0.0

    def test_gradient_of_constant_vanishes(self, grid128):
        plan = HeatKernelPlan(grid128, 1e-3)
        comp = gradient_component(plan, np.ones(grid128.shape), 0)
        assert np.abs(comp).max() <= 1e-14

    def test_divergence_of_gradient_matches_laplacian(self, grid128, rng):
        # div(grad of smoothed u) vs second centered differences; the
        # smoothed field is band-limited enough for a loose comparison
        plan = HeatKernelPlan(grid128, 1e-3)
        u = rng.random(grid128.shape)
        comps = tuple(gradient_component(plan, u, k) for k in range(2))
        div = spectral_divergence(grid128, comps)
        smooth = plan.apply(u)
        fd = np.zeros(grid128.shape)
        for arr_axis in (0, 1):
            fd += (
                np.roll(smooth, -1, axis=arr_axis)
                - 2.0 * smooth
                + np.roll(smooth, 1, axis=arr_axis)
            ) / grid128.dx**2
        assert np.abs(div - fd).max() <= 0.05 * np.abs(fd).max()


class TestTransformsMatchScipy:
    """numpy's pocketfft, one axis at a time, reproduces scipy.fft bit for bit."""

    @pytest.mark.parametrize("n", [9, 15, 24, 33, 96, 97, 128])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_forward_inverse_divergence_bit_equal(self, dim, n):
        grid = Grid(dim=dim, n=n)
        rng = np.random.default_rng(n * 10 + dim)
        u = rng.standard_normal(grid.shape)
        plan = HeatKernelPlan(grid, 16.0 * grid.dx**2)
        spectrum = plan.forward(u, plan.empty_spectrum())
        assert np.array_equal(spectrum, sfft.rfftn(u, workers=1))
        plan.multiply(spectrum)
        expected = sfft.irfftn(spectrum, s=grid.shape, workers=1)
        assert np.array_equal(plan.inverse(spectrum, clamp=False), expected)

        comps = tuple(rng.standard_normal(grid.shape) for _ in range(dim))
        expected = np.zeros(grid.shape)
        for k in range(dim):
            spec = sfft.rfftn(comps[k], workers=1) * derivative_factors(grid)[k]
            expected += sfft.irfftn(spec, s=grid.shape, workers=1)
        assert np.array_equal(spectral_divergence(grid, comps), expected)

    @pytest.mark.parametrize("dim, n", [(2, 33), (2, 257), (3, 15), (3, 65)])
    def test_masks_skip_empty_rows_with_the_same_bits(self, dim, n):
        # of a mask only each block's run of occupied rows is transformed,
        # the rest get the zero row's transform: masks with empty rows,
        # wholly empty blocks (several blocks at n = 257 and 65), no cell
        # and every cell
        grid = Grid(dim=dim, n=n)
        plan = HeatKernelPlan(grid, 16.0 * grid.dx**2)
        shape = grid.shape[:-1] + (n // 2 + 1,)
        scattered = np.random.default_rng(n).random(grid.shape) < 0.3
        lines = scattered.reshape(-1, n)
        lines[::3] = False
        lines[: lines.shape[0] // 2] = False
        masks = [
            rasterize_ball(grid, (0.45,) * dim, 0.2).mask,
            scattered,
            np.zeros(grid.shape, dtype=bool),
            np.ones(grid.shape, dtype=bool),
        ]
        for mask in masks:
            expected = sfft.rfftn(mask.astype(np.float64), workers=1).tobytes()
            got = plan.forward(mask, np.empty(shape, dtype=np.complex128))
            assert got.tobytes() == expected

    @pytest.mark.parametrize("dim, n", [(2, 300), (3, 40)])
    def test_several_row_blocks_equal_scipy(self, dim, n):
        # the inverse writes each block's rows over a spectrum whose later
        # blocks are still unread, and clamps each block in its scratch
        grid = Grid(dim=dim, n=n)
        assert len(_row_blocks(n ** (dim - 1), n)) > 1
        ball = rasterize_ball(grid, (0.45,) * dim, 0.3)
        u = np.random.default_rng(3).standard_normal(grid.shape)
        plan = HeatKernelPlan(grid, 16.0 * grid.dx**2)
        spectrum = plan.forward(u, plan.empty_spectrum())
        assert spectrum.tobytes() == sfft.rfftn(u, workers=1).tobytes()
        expected = sfft.irfftn(spectrum, s=grid.shape, workers=1)
        assert plan.inverse(spectrum, clamp=False).tobytes() == expected.tobytes()

        spectrum = sfft.rfftn(ball.as_float(), workers=1)
        spectrum *= full_multipliers(grid, plan.h)
        expected = np.clip(sfft.irfftn(spectrum, s=grid.shape, workers=1), 0.0, 1.0)
        expected += 0.0
        assert convolve(plan, ball).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unit_scale_equals_long_double_scale(self, dim):
        # pocketfft scales the c2r result by 1/N rounded from long double
        for n in range(8, 2049):
            total = n**dim
            assert 1.0 / total == float(np.longdouble(1) / total), n


def test_private_transforms_are_reached_through_the_plan_only():
    # every transform in the package runs through HeatKernelPlan.forward
    # and .inverse: no second route to pocketfft.  The np.fft transforms
    # (frequency helpers aside) are named only inside those two methods.
    transforms = {
        f"{i}{kind}{n}" for i in ("", "i") for kind in ("fft", "rfft", "hfft")
        for n in ("", "n", "2")
    }
    transform_uses = set()

    def names_transform(node):
        # np.fft.rfftn, numpy.fft.fft, ... or from numpy.fft import rfftn
        if isinstance(node, ast.Attribute) and node.attr in transforms:
            module = node.value
            return "fft" in (getattr(module, "attr", None), getattr(module, "id", None))
        if isinstance(node, ast.ImportFrom):
            return any(alias.name in transforms for alias in node.names)
        return False

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if names_transform(child):
                transform_uses.add(f"{module}:{'.'.join(scope)}")
            visit(child, inner, module)

    for path in sorted(Path(kernel.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    assert sorted(transform_uses) == [
        "kernel.py:HeatKernelPlan.forward",
        "kernel.py:HeatKernelPlan.inverse",
    ]
