"""Heat-semigroup convolution realized as a Fourier multiplier.

The Gaussian kernel of bandwidth ``sqrt(h)`` acts on torus fields through
the exact spectral multiplier ``exp(-h |k|^2)`` with ``k = 2 pi m / side``.
This keeps the zero mode untouched (mass is conserved to rounding), makes
the semigroup property exact up to rounding, and never truncates tails.
Gradients of the smoothed field use the multipliers ``i k_j exp(-h |k|^2)``.

The transforms run on numpy's pocketfft one axis at a time, in the axis
order and with the single ``1/N`` scale of ``scipy.fft.rfftn``/``irfftn``,
so their bits equal scipy's while no process has to import it.
"""

from __future__ import annotations

import logging
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import Grid, MultiPhaseState, PhaseField, RealField

logger = logging.getLogger(__name__)

# Below sqrt(h) ~ 4 dx the smoothed profile is too steep for the grid and
# thresholding dynamics tend to freeze in place.
RESOLUTION_FACTOR = 4.0

CLAMP_TOLERANCE = 1e-9


class ResolutionWarning(UserWarning):
    """The kernel width is marginal for the grid spacing."""


def default_workers() -> int:
    """Transform parallelism: MBO_THREADS if set, else all hardware threads."""
    env = os.environ.get("MBO_THREADS")
    if env is not None:
        try:
            w = int(env)
        except ValueError as exc:
            raise ValueError(f"MBO_THREADS must be an integer, got {env!r}") from exc
        if w < 1:
            raise ValueError(f"MBO_THREADS must be >= 1, got {w}")
        return w
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _thread_pool(workers: int):
    """One pool per thread count; its threads start on the first submit."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mbokit-fft")


def _transform_lines(transform, src, out, axis: int, workers: int, **kwargs) -> None:
    """Apply a 1-D numpy transform to every line of ``src`` along ``axis``.

    The lines are split into ``workers`` blocks along another axis, run on
    one thread each (numpy releases the GIL inside pocketfft).  Every line
    is transformed on its own, so the bits do not depend on ``workers``.
    """
    split = 1 if axis == 0 else 0
    m = src.shape[split]
    blocks = min(workers, m)
    if blocks == 1:
        transform(src, axis=axis, out=out, **kwargs)
        return

    def run(i: int) -> None:
        idx = (slice(None),) * split + (slice(m * i // blocks, m * (i + 1) // blocks),)
        transform(src[idx], axis=axis, out=out[idx], **kwargs)

    for done in [_thread_pool(workers).submit(run, i) for i in range(blocks)]:
        done.result()


def _rfftn(values: np.ndarray, workers: int) -> np.ndarray:
    """``scipy.fft.rfftn`` bit for bit: r2c on the last axis, then c2c on 0 .. d-2."""
    shape = values.shape
    spectrum = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    _transform_lines(np.fft.rfft, values, spectrum, len(shape) - 1, workers)
    for axis in range(len(shape) - 1):
        _transform_lines(np.fft.fft, spectrum, spectrum, axis, workers)
    return spectrum


def _irfftn(spectrum: np.ndarray, shape: tuple[int, ...], workers: int) -> np.ndarray:
    """``scipy.fft.irfftn`` bit for bit; overwrites ``spectrum``.

    The passes run unscaled and the result is scaled once by ``1.0 / N``,
    which equals scipy's scale (``1/N`` in long double, rounded to double)
    for every n from 8 to 2048 in 2-D and 3-D.
    """
    for axis in range(len(shape) - 1):
        _transform_lines(np.fft.ifft, spectrum, spectrum, axis, workers, norm="forward")
    out = np.empty(shape)
    last = len(shape) - 1
    _transform_lines(
        np.fft.irfft, spectrum, out, last, workers, n=shape[-1], norm="forward"
    )
    out *= 1.0 / out.size
    return out


@lru_cache(maxsize=16)
def _frequencies(grid: Grid) -> tuple[np.ndarray, ...]:
    """Angular frequency of each spatial axis, broadcastable to rfft layout.

    The last array axis is half-size (real transform).  Returned in spatial
    order: entry k is the frequency along spatial axis k.
    """
    out: list[np.ndarray] = [None] * grid.dim  # type: ignore[list-item]
    for array_axis in range(grid.dim):
        spatial = grid.dim - 1 - array_axis
        if array_axis == grid.dim - 1:
            f = np.fft.rfftfreq(grid.n, d=grid.dx)
        else:
            f = np.fft.fftfreq(grid.n, d=grid.dx)
        shape = [1] * grid.dim
        shape[array_axis] = f.size
        out[spatial] = (2.0 * np.pi * f).reshape(shape)
    return tuple(out)


@lru_cache(maxsize=16)
def _derivative_factors(grid: Grid) -> tuple[np.ndarray, ...]:
    """Pure-imaginary first-derivative multipliers, Nyquist modes zeroed.

    Zeroing the Nyquist plane keeps the derivative kernel odd, so gradients
    of real fields stay real and antisymmetry is exact.
    """
    nyquist = np.pi * grid.n / grid.side
    factors = []
    for k in range(grid.dim):
        f = _frequencies(grid)[k].copy()
        f[np.isclose(np.abs(f), nyquist)] = 0.0
        factors.append(1j * f)
    return tuple(factors)


@dataclass(frozen=True)
class HeatKernelPlan:
    """Cached multiplier ``exp(-h |k|^2)`` for one grid and bandwidth.

    Building a plan is cheap but not free; reuse one across the steps of a
    run.  The zero-frequency multiplier is exactly 1, all others in (0, 1).
    The transforms run on ``workers`` threads, read from
    :func:`default_workers` when the plan is built.
    """

    grid: Grid
    h: float
    multipliers: np.ndarray = field(init=False, repr=False)
    workers: int = field(init=False, default_factory=default_workers)

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"bandwidth h must be positive, got {self.h}")
        if np.sqrt(self.h) < RESOLUTION_FACTOR * self.grid.dx:
            warnings.warn(
                f"sqrt(h) = {np.sqrt(self.h):.3g} is below "
                f"{RESOLUTION_FACTOR:g} dx = {RESOLUTION_FACTOR * self.grid.dx:.3g}; "
                "interfaces may pin to the grid",
                ResolutionWarning,
                stacklevel=2,
            )
        k2 = np.zeros(self._spectral_shape())
        for k in range(self.grid.dim):
            k2 = k2 + _frequencies(self.grid)[k] ** 2
        object.__setattr__(self, "multipliers", np.exp(-self.h * k2))

    def _spectral_shape(self) -> tuple[int, ...]:
        return (self.grid.n,) * (self.grid.dim - 1) + (self.grid.n // 2 + 1,)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Real-to-complex transform of a float64 grid array."""
        return _rfftn(values, self.workers)

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Complex-to-real transform back to the grid; overwrites ``spectrum``."""
        return _irfftn(spectrum, self.grid.shape, self.workers)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Smooth a raw array (no clamping, no wrapping in field types)."""
        return self.inverse(self.forward(values) * self.multipliers)

    def apply_grad_component(self, values: np.ndarray, axis: int) -> np.ndarray:
        """One component of the gradient of the smoothed raw array."""
        factor = _derivative_factors(self.grid)[axis]
        return self.inverse(self.forward(values) * self.multipliers * factor)


def convolve(plan: HeatKernelPlan, field_in: PhaseField | RealField) -> RealField:
    """Smooth a field with the heat kernel of the plan's bandwidth.

    Indicator inputs are clamped back to [0, 1] after the transform; the
    spectral ringing removed this way is tiny (order 1e-15) and a warning
    fires if it ever exceeds the recorded tolerance.  ``plan.apply`` gives
    the raw values.  The cell average is preserved to rounding.
    """
    if field_in.grid != plan.grid:
        raise ValueError("field grid does not match plan grid")
    indicator = isinstance(field_in, PhaseField)
    spectrum = plan.forward(field_in.as_float() if indicator else field_in.values)
    spectrum *= plan.multipliers
    out = plan.inverse(spectrum)
    if indicator:
        overshoot = max(0.0, float(out.max()) - 1.0, -float(out.min()))
        if overshoot > CLAMP_TOLERANCE:
            logger.warning(
                "clamp removed overshoot %.3e above tolerance %.1e",
                overshoot,
                CLAMP_TOLERANCE,
            )
        np.clip(out, 0.0, 1.0, out=out)
        out += 0.0  # normalize -0.0 so downstream orderings are exact
    return RealField(plan.grid, out)


def convolve_labels(plan: HeatKernelPlan, state: MultiPhaseState) -> list[np.ndarray]:
    """Clamped smoothed indicator of every label of a partition, vapor first."""
    return [
        convolve(plan, state.indicator(j)).values for j in range(state.num_grains + 1)
    ]


def spectral_divergence(grid: Grid, components: tuple[np.ndarray, ...]) -> np.ndarray:
    """Divergence of a smooth vector field via spectral differentiation."""
    if len(components) != grid.dim:
        raise ValueError(f"need {grid.dim} components, got {len(components)}")
    w = default_workers()
    factors = _derivative_factors(grid)
    out = np.zeros(grid.shape)
    for k in range(grid.dim):
        spec = _rfftn(np.asarray(components[k], dtype=np.float64), w)
        spec *= factors[k]
        out += _irfftn(spec, grid.shape, w)
    return out
