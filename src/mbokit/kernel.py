"""Heat-semigroup convolution realized as a Fourier multiplier.

The Gaussian kernel of bandwidth ``sqrt(h)`` acts on torus fields through
the exact spectral multiplier ``exp(-h |k|^2)`` with ``k = 2 pi m / side``.
This keeps the zero mode untouched (mass is conserved to rounding), makes
the semigroup property exact up to rounding, and never truncates tails.
A plan stores only tables of ``|k|^2`` and builds the multipliers a block
of rows along array axis 0 at a time; frequencies ``m`` and ``n - m`` there
have equal squares, so a block of rows 0 .. n//2 also serves their mirrors.

The plan's forward and inverse are the package's only transforms.  They
run on numpy's pocketfft in the calling thread, one axis at a time, in the
axis order and with the single ``1/N`` scale of ``scipy.fft.rfftn``/
``irfftn``, so their bits equal scipy's while no process has to import it.
A smoothed indicator is a plain float64 array of the grid's shape.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import _BLOCK_CELLS, Grid, PhaseField

# Below sqrt(h) ~ 4 dx the smoothed profile is too steep for the grid and
# thresholding dynamics tend to freeze in place.
RESOLUTION_FACTOR = 4.0

CLAMP_TOLERANCE = 1e-9


class ResolutionWarning(UserWarning):
    """The kernel width is marginal for the grid spacing."""


class ClampWarning(UserWarning):
    """A clamp of smoothed indicators removed ``overshoot`` > CLAMP_TOLERANCE."""

    def __init__(self, overshoot: float) -> None:
        super().__init__(f"clamp removed overshoot {overshoot:.3e} "
                         f"above tolerance {CLAMP_TOLERANCE:.1e}")
        self.overshoot = overshoot


def _row_blocks(rows: int, n: int) -> list[slice]:
    """Blocks of whole rows of length ``n``, about ``_BLOCK_CELLS`` cells each."""
    count = min(rows, -(-rows * n // _BLOCK_CELLS))
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def _squares(grid: Grid) -> np.ndarray:
    """``|k|^2`` of the frequencies 0 .. n//2 of one axis, which on a cubic
    grid are those of every axis."""
    return (2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)) ** 2


def multiplier_exponent(grid: Grid, h: float) -> float:
    """The largest ``h |k|^2`` over the grid's frequencies, as a plan forms
    it: ``inf`` when the multipliers of bandwidth ``h`` would overflow."""
    top, largest = 0.0, float(_squares(grid).max())
    for _ in range(grid.dim):  # every axis reaches the largest square
        top += largest
    return h * top


@dataclass(frozen=True)
class HeatKernelPlan:
    """The multiplier ``exp(-h |k|^2)`` of one grid and bandwidth.

    A plan holds ``others``, ``|k|^2`` summed over the spatial axes but the
    last on a slab along array axis 0, and ``squares``, that of frequencies
    0 .. n//2 along that axis; no multipliers.  Reuse a plan across the
    steps of a run.  The zero-frequency multiplier is exactly 1, all others
    in [0, 1).  A bandwidth whose :func:`multiplier_exponent` is not finite
    is refused.
    """

    grid: Grid
    h: float
    others: np.ndarray = field(init=False, repr=False)
    squares: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"bandwidth h must be positive, got {self.h}")
        if not math.isfinite(multiplier_exponent(self.grid, self.h)):
            raise ValueError(f"bandwidth h = {self.h} overflows h |k|^2")
        if np.sqrt(self.h) < RESOLUTION_FACTOR * self.grid.dx:
            warnings.warn(
                f"sqrt(h) = {np.sqrt(self.h):.3g} is below "
                f"{RESOLUTION_FACTOR:g} dx = {RESOLUTION_FACTOR * self.grid.dx:.3g}; "
                "interfaces may pin to the grid",
                ResolutionWarning,
                stacklevel=3,  # past the dataclass __init__ to the plan's builder
            )
        n, dim, sq = self.grid.n, self.grid.dim, _squares(self.grid)
        if dim == 3:  # plus the middle axis's squares, in fft order
            sq_fft = np.concatenate((sq, sq[1 : n - n // 2][::-1]))
            object.__setattr__(self, "others", sq + sq_fft[:, None])
        else:
            object.__setattr__(self, "others", sq)
        object.__setattr__(self, "squares", sq.reshape((-1,) + (1,) * (dim - 1)))

    def empty_spectrum(self) -> np.ndarray:
        """A new, uninitialised buffer for one spectrum of the plan's grid."""
        shape = self.grid.shape[:-1] + (self.grid.n // 2 + 1,)
        return np.empty(shape, dtype=np.complex128)

    def forward(self, values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
        """Real-to-complex transform of a grid array, ``scipy.fft.rfftn`` bit
        for bit: r2c on the last axis, then c2c on 0 .. d-2.

        ``values`` may be of any real or boolean dtype: numpy casts each
        block of rows to float64 on its own, so no float copy of the whole
        array is made.  A boolean block with an empty end row transforms
        only its occupied rows' run; the rest get a zero row's transform.
        The transform is written into ``spectrum``, a buffer as
        :meth:`empty_spectrum` returns it that shares no memory with
        ``values``, and ``spectrum`` is returned.
        """
        values = np.asarray(values)
        shape, n = values.shape, values.shape[-1]
        lines, spec_lines = values.reshape(-1, n), spectrum.reshape(-1, n // 2 + 1)
        zero_row = np.fft.rfft(np.zeros(n))
        for block in _row_blocks(lines.shape[0], n):
            lo, hi = block.start, block.stop
            if values.dtype == bool and not (lines[lo].any() and lines[hi - 1].any()):
                rows = np.flatnonzero(lines[lo:hi].any(axis=1))
                first, last = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
                spec_lines[lo : lo + first] = spec_lines[lo + last : hi] = zero_row
                lo, hi = lo + first, lo + last
            # numpy casts the block to float64 itself, and frees that copy
            np.fft.rfft(lines[lo:hi], axis=1, out=spec_lines[lo:hi])
        for axis in range(len(shape) - 1):
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        return spectrum

    def inverse(self, spectrum: np.ndarray, clamp: bool) -> np.ndarray:
        """Complex-to-real transform back to the grid, ``scipy.fft.irfftn``
        bit for bit, written over ``spectrum``'s memory.

        The c2c passes run unscaled and in place.  The c2r pass then takes
        blocks of rows into one scratch block, scales them by ``1.0 / N``
        (which equals scipy's scale, ``1/N`` in long double rounded to
        double, for every n from 8 to 2048 in 2-D and 3-D), and copies row r
        to floats ``r*n .. (r+1)*n`` of ``spectrum``'s buffer.  Complex row r
        starts at float ``r*(n+1)`` or later, so a block's rows land only on
        rows already read.  Returns a C-contiguous view of the first N
        floats of that buffer (of a contiguous copy, if ``spectrum`` is not
        contiguous), which keeps the whole buffer alive: 2/n more than a
        field.  ``clamp`` clips each block to [0, 1], as for an indicator,
        and adds ``+0.0`` in the scratch: a NaN is refused, and the extremes
        before it give a ClampWarning's size.
        """
        shape = self.grid.shape
        spectrum = np.ascontiguousarray(spectrum)
        n, total = shape[-1], math.prod(shape)
        for axis in range(len(shape) - 1):
            np.fft.ifft(spectrum, axis=axis, norm="forward", out=spectrum)
        lines = spectrum.reshape(-1, n // 2 + 1)
        flat = spectrum.reshape(-1).view(np.float64)
        blocks = _row_blocks(lines.shape[0], n)
        scratch = np.empty((max(b.stop - b.start for b in blocks), n))
        extremes = np.zeros((len(blocks), 2))  # each block's max and -min
        for i, rows in enumerate(blocks):
            out = scratch[: rows.stop - rows.start]
            np.fft.irfft(lines[rows], n=n, axis=1, norm="forward", out=out)
            out *= 1.0 / total
            if clamp:
                extremes[i] = out.max(), -out.min()
                np.clip(out, 0.0, 1.0, out=out)
                out += 0.0
            flat[rows.start * n : rows.stop * n] = out.ravel()
        top, bottom = extremes.max(axis=0).tolist()
        if math.isnan(top):
            raise ValueError("field values must be finite")
        if (overshoot := max(0.0, top - 1.0, bottom)) > CLAMP_TOLERANCE:
            warnings.warn(ClampWarning(overshoot), stacklevel=2)
        return flat[:total].reshape(shape)

    def multiply(self, spectrum: np.ndarray) -> np.ndarray:
        """Multiply a spectrum of the plan's grid by ``exp(-h |k|^2)`` in
        place and return it.  Rows 0 .. n//2 along array axis 0 build theirs
        in one scratch block of about ``_BLOCK_CELLS`` (``others`` plus the
        row's square, times -h, then exp) and lend them to rows n - m."""
        n, head = self.grid.n, self.squares.shape[0]
        step = max(1, _BLOCK_CELLS // self.others.size)
        scratch = np.empty((min(step, head),) + self.others.shape)
        for lo in range(0, head, step):
            hi = min(lo + step, head)
            m = np.add(self.others, self.squares[lo:hi], out=scratch[: hi - lo])
            m *= -self.h
            np.exp(m, out=m)
            np.multiply(spectrum[lo:hi], m, out=spectrum[lo:hi])
            # rows r in [first, last) of this block are mirrored by n - r
            first, last = max(lo, 1), min(hi, n - head + 1)
            rows = spectrum[n - last + 1 : n - first + 1]
            np.multiply(rows, m[first - lo : last - lo][::-1], out=rows)
        return spectrum

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Smooth a raw array (no clamping, no wrapping in field types)."""
        spectrum = self.forward(values, self.empty_spectrum())
        return self.inverse(self.multiply(spectrum), clamp=False)


def convolve(
    plan: HeatKernelPlan, field_in: PhaseField, spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Smooth an indicator with the heat kernel of the plan's bandwidth.

    The values are clamped back to [0, 1] as the inverse writes them; the
    spectral ringing removed this way is tiny (order 1e-15) and a
    :class:`ClampWarning` fires if it exceeds the tolerance.  ``plan.apply``
    smooths a raw array, unclamped.  The cell average is preserved to
    rounding.

    One transform pair does the work: the forward transform reads the mask
    into ``spectrum``, a buffer from :meth:`HeatKernelPlan.empty_spectrum`
    that shares no memory with the input (a new one when None), and the
    smoothed values are written over it: the result is a C-contiguous
    float64 view of the grid's shape into that buffer, 2/n larger than a
    field.
    """
    if field_in.grid != plan.grid:
        raise ValueError("field grid does not match plan grid")
    if spectrum is None:
        spectrum = plan.empty_spectrum()
    spectrum = plan.forward(field_in.mask, spectrum)
    return plan.inverse(plan.multiply(spectrum), clamp=True)
