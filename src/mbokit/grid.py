"""Uniform periodic grids and the field types living on them.

Everything downstream (convolution, thresholding, schemes) works on a
d-dimensional torus sampled at cell centers.  Cells never carry partial
occupancy: an indicator field is a boolean mask, a labeled state is an
integer array.  Arrays are C-ordered with the x axis varying fastest,
so ``mask.ravel()`` enumerates cells in row-major order with spatial
axis 0 innermost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class EmptyPhaseError(ValueError):
    """An operation that needs occupied cells got an empty phase."""


class DegeneratePhaseError(ValueError):
    """A scheme step received an empty or space-filling phase."""


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: ``n`` cells per axis on a torus of the given side.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    n : int
        Cells per axis, at least 8.
    side : float
        Physical side length of the torus (same on every axis).

    Notes
    -----
    Cell ``i`` along an axis is centered at ``(i + 1/2) * dx``.  Array
    axis ``a`` of a field corresponds to spatial axis ``dim - 1 - a``,
    which makes spatial axis 0 the fastest-varying (row-major, x fastest).
    """

    dim: int
    n: int
    side: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 cells per axis, got {self.n}")
        if not 0 < self.side < np.inf:
            raise ValueError(f"side must be positive and finite, got {self.side}")
        try:
            volume = self.cell_volume
        except OverflowError:  # float ** raises where float * gives inf
            volume = np.inf
        if not sys.float_info.min <= volume < np.inf:
            raise ValueError(f"side {self.side} gives cell volume {volume}")

    @property
    def dx(self) -> float:
        return self.side / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def total_cells(self) -> int:
        return self.n**self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis, shape (n,)."""
        return (np.arange(self.n) + 0.5) * self.dx

    def coordinate(self, axis: int) -> np.ndarray:
        """Center coordinate of spatial ``axis`` broadcastable to ``shape``."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        c = self.axis_centers()
        # spatial axis k lives on array axis dim-1-k
        shape = [1] * self.dim
        shape[self.dim - 1 - axis] = self.n
        return c.reshape(shape)

    def wrap_delta(self, delta: np.ndarray) -> np.ndarray:
        """Map coordinate differences into [-side/2, side/2)."""
        half = 0.5 * self.side
        return (delta + half) % self.side - half

    def periodic_distance_sq(self, point: Sequence[float]) -> np.ndarray:
        """Squared periodic distance from every cell center to ``point``."""
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coords, grid is {self.dim}-d")
        # per-axis 1-D squared deltas, summed by broadcasting in axis order
        d2 = self.wrap_delta(self.coordinate(0) - point[0]) ** 2
        for k in range(1, self.dim):
            d2 = d2 + self.wrap_delta(self.coordinate(k) - point[k]) ** 2
        return d2


def _as_bool_mask(grid: Grid, mask: np.ndarray) -> np.ndarray:
    arr = np.asarray(mask)
    if arr.shape != grid.shape:
        raise ValueError(f"mask shape {arr.shape} does not match grid {grid.shape}")
    if arr.dtype != np.bool_:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask values must be 0/1")
        arr = arr.astype(bool)
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class PhaseField:
    """Indicator of one phase: a boolean mask over the grid cells."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", _as_bool_mask(self.grid, self.mask))

    @cached_property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def as_float(self) -> np.ndarray:
        return self.mask.astype(np.float64)


@dataclass(frozen=True)
class RealField:
    """Real-valued (float64) field over the grid cells."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"values shape {arr.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class MultiPhaseState:
    """Partition of the torus into vapor (label 0) and grains 1..num_grains.

    Every cell carries exactly one label, so the indicator fields of all
    labels sum to one everywhere by construction.
    """

    grid: Grid
    labels: np.ndarray
    num_grains: int

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.labels))
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"labels shape {arr.shape} does not match grid {self.grid.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("labels must be integers")
        if self.num_grains < 1:
            raise ValueError("need at least one grain label")
        if arr.size and (arr.min() < 0 or arr.max() > self.num_grains):
            raise ValueError(
                f"labels must lie in [0, {self.num_grains}], "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        object.__setattr__(self, "labels", arr.astype(np.int32))

    @property
    def solid_mask(self) -> np.ndarray:
        return self.labels > 0

    @cached_property
    def solid_cell_count(self) -> int:
        return int(np.count_nonzero(self.labels))

    def indicator(self, label: int) -> PhaseField:
        """Indicator field of a single label (0 = vapor)."""
        if not 0 <= label <= self.num_grains:
            raise ValueError(f"label {label} out of range")
        return PhaseField(self.grid, self.labels == label)

    def solid(self) -> PhaseField:
        return PhaseField(self.grid, self.solid_mask)


# ---------------------------------------------------------------------------
# rasterizers


def rasterize_ball(grid: Grid, center: Sequence[float], radius: float) -> PhaseField:
    """Indicator of the open ball of given center and radius.

    A cell belongs to the ball iff its center lies strictly inside, with
    distances measured periodically.  The radius must stay below half
    the side so the ball cannot touch itself through the torus.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if radius >= 0.5 * grid.side:
        raise ValueError(
            f"radius {radius} must be below half the side {grid.side} "
            "to avoid periodic self-overlap"
        )
    d2 = grid.periodic_distance_sq(center)
    return PhaseField(grid, d2 < radius * radius)


def rasterize_slab(grid: Grid, axis: int, lo: float, hi: float) -> PhaseField:
    """Cells with center coordinate in [lo, hi) along ``axis``."""
    if not 0 <= lo <= hi <= grid.side:
        raise ValueError(f"need 0 <= lo <= hi <= side, got [{lo}, {hi}]")
    x = grid.coordinate(axis)
    return PhaseField(grid, np.broadcast_to((x >= lo) & (x < hi), grid.shape))


def voronoi_labels(
    grid: Grid,
    seeds: Sequence[Sequence[float]],
    vapor_margin: float = 0.0,
    solid: PhaseField | None = None,
) -> MultiPhaseState:
    """Label cells by the nearest seed (periodic metric), vapor elsewhere.

    Grain ``i+1`` is the periodic Voronoi cell of ``seeds[i]``; equidistant
    cells go to the lowest seed index.  Cells within ``vapor_margin`` of the
    periodic seam on any axis become vapor (label 0), as do cells outside
    ``solid`` when a solid region is prescribed.
    """
    pts = [tuple(map(float, s)) for s in seeds]
    if not pts:
        raise ValueError("need at least one seed")
    if any(len(p) != grid.dim for p in pts):
        raise ValueError("seed dimension does not match grid")
    if len(set(pts)) != len(pts):
        raise ValueError("seeds must be pairwise distinct")
    best_d2 = grid.periodic_distance_sq(pts[0])
    best = np.zeros(grid.shape, dtype=np.int32)
    for i, p in enumerate(pts[1:], start=1):
        d2 = grid.periodic_distance_sq(p)
        closer = d2 < best_d2  # strict: ties keep the earlier seed
        best = np.where(closer, np.int32(i), best)
        best_d2 = np.where(closer, d2, best_d2)
    labels = best + 1
    if vapor_margin > 0:
        for k in range(grid.dim):
            x = grid.coordinate(k)
            seam = np.minimum(x, grid.side - x) < vapor_margin
            labels = np.where(np.broadcast_to(seam, grid.shape), 0, labels)
    if solid is not None:
        if solid.grid != grid:
            raise ValueError("solid mask lives on a different grid")
        labels = np.where(solid.mask, labels, 0)
    return MultiPhaseState(grid, labels, num_grains=len(pts))


def random_blob(
    grid: Grid, seed: int, fill: float = 0.3, smoothing: float = 0.05
) -> PhaseField:
    """Deterministic smooth random shape occupying ``fill`` of the cells.

    White noise is smoothed periodically at length ``smoothing`` (0 keeps
    the raw noise) and thresholded at the exact quantile, so the cell count
    is reproducible bit for bit for a given seed.
    """
    if not 0 < fill < 1:
        raise ValueError(f"fill must be in (0, 1), got {fill}")
    if not 0 <= smoothing < np.inf:
        raise ValueError(f"smoothing must be finite and nonnegative, got {smoothing}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(grid.shape)
    smooth = _periodic_gaussian(noise, smoothing / grid.dx)
    target = max(1, min(grid.total_cells - 1, round(fill * grid.total_cells)))
    # the filter leaves the noise dead; it is the selection's scratch key
    mask, _ = _select_cells(smooth.ravel(), target, top=True, key=noise.ravel())
    return PhaseField(grid, mask.reshape(grid.shape))


# A filter pass works on blocks of whole lines: about 2^15 output cells,
# and at most 2^18 cells once wrap-padded, however far the kernel reaches.
_BLOCK_CELLS = 1 << 15
_BLOCK_PADDED = 1 << 18


def _periodic_gaussian(values: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(values, sigma, mode="wrap")``, bit for bit.

    scipy's arithmetic in numpy: weights ``exp(-0.5 / sigma**2 * x**2)`` for
    ``|x| <= r = int(4 * sigma + 0.5)``, divided by their sum; one pass per
    array axis in order 0 ... d-1, each reading the last pass's output; and
    per cell ``w[0] * x[k]``, then ``(x[k-j] + x[k+j]) * w[j]`` added for
    j = r down to 1, indices taken modulo n (r may exceed n).  A ``sigma``
    of at most 1e-15 (or negative) filters nothing, as in scipy.  Returns a
    new C-contiguous array and leaves ``values`` as it was.
    """
    if not sigma > 1e-15:
        return np.array(values, dtype=np.float64)
    src = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty(src.shape)
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = (phi / phi.sum())[r:]  # weight of offsets +j and -j (exactly symmetric)
    for axis, n in enumerate(src.shape):
        # the lines along the axis as (outer, n, inner); a block of lines is
        # gathered before its result is written back, so every pass after
        # the first filters ``out`` in place
        shape = (math.prod(src.shape[:axis]), n, math.prod(src.shape[axis + 1 :]))
        lines, dest = src.reshape(shape), out.reshape(shape)
        wrap = np.arange(-r, n + r) % n
        block = max(1, min(_BLOCK_CELLS // n, _BLOCK_PADDED // (n + 2 * r)))
        bi = min(shape[2], block)
        bo = block // bi
        for o in range(0, shape[0], bo):
            for i in range(0, shape[2], bi):
                # the block's lines wrap-padded, the filtered axis first
                pad = lines[o : o + bo, :, i : i + bi].transpose(1, 0, 2).take(wrap, 0)
                acc = pad[r : r + n] * w[0]
                t = np.empty(acc.shape)
                for j in range(r, 0, -1):
                    np.add(pad[r - j : r - j + n], pad[r + j : r + j + n], t)
                    t *= w[j]
                    acc += t
                dest[o : o + bo, :, i : i + bi] = acc.transpose(1, 0, 2)
        src = out
    return out


def _select_cells(
    values: np.ndarray, count: int, top: bool, key: np.ndarray
) -> tuple[np.ndarray, np.float64]:
    """Flat mask of the ``count`` largest (``top``) or smallest of the flat
    ``values``, and the value at the cut.

    Every value beyond the cut is taken; the rest come from values equal to
    it in ascending index order, so the mask marks the same cells as
    ``np.argsort(k, kind="stable")[:count]`` for ``k = -(values + 0.0)``
    (top) or ``values + 0.0``.  The cut is found by partitioning ``key``, a
    scratch array of ``values.size`` floats that is overwritten; a zero cut
    is returned as +0.0.  Needs ``1 <= count <= values.size`` and no NaN.
    Shared with :mod:`mbokit.threshold`; private, so a traced run charges
    its time to the caller.
    """
    # 0.0 - x is -x and x + 0.0 is x, each with every zero made +0.0
    if top:
        np.subtract(0.0, values, out=key)
    else:
        np.add(values, 0.0, out=key)
    key.partition(count - 1)
    cut = 0.0 - key[count - 1] if top else key[count - 1]
    mask = values > cut if top else values < cut
    missing = count - int(np.count_nonzero(mask))
    if missing:
        ties = np.flatnonzero(values == cut)
        mask[ties[:missing]] = True
    return mask, cut


# ---------------------------------------------------------------------------
# measurements


def bounding_radius(field: PhaseField, center: Sequence[float]) -> float:
    """Largest periodic distance from ``center`` to an occupied cell center."""
    if field.cell_count == 0:
        raise EmptyPhaseError("bounding_radius of an empty phase")
    d2 = field.grid.periodic_distance_sq(center)
    return float(np.sqrt(np.max(d2, where=field.mask, initial=0.0)))


def centroid(field: PhaseField) -> tuple[float, ...]:
    """Periodic centroid of the occupied cells (circular mean per axis)."""
    if field.cell_count == 0:
        raise EmptyPhaseError("centroid of an empty phase")
    g = field.grid
    out = []
    for k in range(g.dim):
        theta = 2.0 * np.pi * g.coordinate(k) / g.side
        theta = np.broadcast_to(theta, g.shape)[field.mask]
        ang = np.arctan2(np.sin(theta).mean(), np.cos(theta).mean())
        out.append(float((ang * g.side / (2.0 * np.pi)) % g.side))
    return tuple(out)
