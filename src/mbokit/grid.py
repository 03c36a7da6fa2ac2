"""Uniform periodic grids and the field types living on them.

Everything downstream (convolution, thresholding, schemes) works on a
d-dimensional torus sampled at cell centers.  Cells never carry partial
occupancy: an indicator field is a boolean mask, a labeled state is an
integer array; a real field, such as a smoothed indicator, is a plain
float64 array of the grid's shape.  Arrays are C-ordered with the x axis
varying fastest, so ``mask.ravel()`` enumerates cells in row-major order
with spatial axis 0 innermost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .threshold import _select_cells


class DegeneratePhaseError(ValueError):
    """An operation that needs occupied cells got an empty phase, or a
    scheme step an empty or space-filling one."""


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
        return np.add(*_distance_sq_terms(self, point))


def _distance_sq_terms(grid: Grid, point: Sequence[float]):
    """The two terms whose broadcast sum is :meth:`Grid.periodic_distance_sq`:
    the per-axis squared deltas of spatial axes 0 ... d-2 summed in axis
    order, slab-sized, and the column of axis d-1, on array axis 0.  Only
    their sum is grid-sized."""
    if len(point) != grid.dim:
        raise ValueError(f"point has {len(point)} coords, grid is {grid.dim}-d")
    terms = [grid.wrap_delta(grid.coordinate(k) - point[k]) ** 2 for k in range(grid.dim)]
    partial = terms[0]
    for term in terms[1:-1]:
        partial = partial + term
    return partial, terms[-1]


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
    """Indicator of one phase: a boolean mask over the grid cells.  It has
    no grains (``num_grains`` is None) and is its own :meth:`solid`."""

    grid: Grid
    mask: np.ndarray
    num_grains = None  # a class constant, not a dataclass field

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", _as_bool_mask(self.grid, self.mask))

    def solid(self) -> PhaseField:
        return self

    @cached_property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def as_float(self) -> np.ndarray:
        return self.mask.astype(np.float64)


@dataclass(frozen=True)
class MultiPhaseState:
    """Partition of the torus into vapor (label 0) and grains 1..num_grains.

    Every cell carries exactly one label, so the indicator fields of all
    labels sum to one everywhere by construction.  C-contiguous int32
    labels are kept as handed over, not copied.
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
        object.__setattr__(self, "labels", arr.astype(np.int32, copy=False))

    @cached_property
    def solid_cell_count(self) -> int:
        return int(np.count_nonzero(self.labels))

    def indicator(self, label: int) -> PhaseField:
        """Indicator field of a single label (0 = vapor)."""
        if not 0 <= label <= self.num_grains:
            raise ValueError(f"label {label} out of range")
        return PhaseField(self.grid, self.labels == label)

    def solid(self) -> PhaseField:
        return PhaseField(self.grid, self.labels > 0)


# ---------------------------------------------------------------------------
# rasterizers


def rasterize_ball(grid: Grid, center: Sequence[float], radius: float) -> PhaseField:
    """Indicator of the open ball of given center and radius.

    A cell belongs to the ball iff its center lies strictly inside, with
    distances measured periodically.  The radius must stay below half
    the side so the ball cannot touch itself through the torus.
    """
    if not (math.isfinite(radius) and np.isfinite(center).all()):
        raise ValueError(
            f"ball center and radius must be finite, got {tuple(center)}, {radius}"
        )
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
    if not np.isfinite(pts).all():
        raise ValueError("seed coordinates must be finite")
    if len(set(pts)) != len(pts):
        raise ValueError("seeds must be pairwise distinct")
    if not math.isfinite(vapor_margin):
        raise ValueError(f"vapor_margin must be finite, got {vapor_margin}")
    if solid is not None and solid.grid != grid:
        raise ValueError("solid mask lives on a different grid")
    # every seed's distances go into one buffer and are compared in place
    best_d2 = grid.periodic_distance_sq(pts[0])
    d2 = np.empty(grid.shape)
    closer = np.empty(grid.shape, dtype=bool)
    labels = np.ones(grid.shape, dtype=np.int32)
    for i, p in enumerate(pts[1:], start=2):
        np.add(*_distance_sq_terms(grid, p), out=d2)
        np.less(d2, best_d2, out=closer)  # strict: ties keep the earlier seed
        np.copyto(labels, i, where=closer)
        np.copyto(best_d2, d2, where=closer)
    del best_d2, d2, closer
    if vapor_margin > 0:
        for k in range(grid.dim):
            x = grid.coordinate(k)
            seam = np.minimum(x, grid.side - x) < vapor_margin
            np.copyto(labels, 0, where=np.broadcast_to(seam, grid.shape))
    if solid is not None:
        labels[~solid.mask] = 0
    return MultiPhaseState(grid, labels, num_grains=len(pts))


# The blob filter may reach this many times n cells: a Gaussian width of
# about the side, past which the wrapped kernel is nearly flat while the
# filter's cost and its offset tables keep growing with the width.
MAX_FILTER_REACH = 4


def random_blob(
    grid: Grid, seed: int, fill: float = 0.3, smoothing: float = 0.05
) -> PhaseField:
    """Deterministic smooth random shape occupying ``fill`` of the cells.

    White noise is smoothed periodically at length ``smoothing`` (0 keeps
    the raw noise) and thresholded at the exact quantile, so the cell count
    is reproducible bit for bit for a given seed.  The filter reaches
    ``int(4 sigma + 0.5)`` cells for ``sigma = smoothing / dx``; a reach
    beyond ``MAX_FILTER_REACH`` times n (a smoothing of about the side) is
    refused before anything is allocated.
    """
    if not 0 < fill < 1:
        raise ValueError(f"fill must be in (0, 1), got {fill}")
    if not 0 <= smoothing < np.inf:
        raise ValueError(f"smoothing must be finite and nonnegative, got {smoothing}")
    sigma = smoothing / grid.dx
    if not 4.0 * sigma + 0.5 < MAX_FILTER_REACH * grid.n + 1:
        raise ValueError(
            f"smoothing {smoothing} makes the blob filter reach more than "
            f"{MAX_FILTER_REACH} n = {MAX_FILTER_REACH * grid.n} cells"
        )
    smooth = np.random.default_rng(seed).standard_normal(grid.shape)
    _periodic_gaussian(smooth, sigma)  # the noise, filtered in place
    target = max(1, min(grid.total_cells - 1, round(fill * grid.total_cells)))
    mask, _ = _select_cells(smooth.ravel(), target, top=True)
    return PhaseField(grid, mask.reshape(grid.shape))


# A filter pass works on blocks of whole lines: about 2^15 output cells,
# and at most 2^18 cells once wrap-padded, however far the kernel reaches.
# ``bounding_radius`` takes its distances in blocks of about 2^15 cells too,
# and the heat kernel its transforms' rows and its multipliers.
_BLOCK_CELLS = 1 << 15
_BLOCK_PADDED = 1 << 18


def _periodic_gaussian(values: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(values, sigma, mode="wrap")``, bit for
    bit, written over ``values`` (a C-contiguous float64 array), which is
    returned.

    scipy's arithmetic in numpy: weights ``exp(-0.5 / sigma**2 * x**2)`` for
    ``|x| <= r = int(4 * sigma + 0.5)``, divided by their sum; one pass per
    array axis in order 0 ... d-1, each reading the last pass's output; and
    per cell ``w[0] * x[k]``, then ``(x[k-j] + x[k+j]) * w[j]`` added for
    j = r down to 1, indices taken modulo n (r may exceed n).  A ``sigma``
    of at most 1e-15 (or negative) filters nothing, as in scipy.
    """
    if not sigma > 1e-15:
        return values
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = (phi / phi.sum())[r:]  # weight of offsets +j and -j (exactly symmetric)
    for axis, n in enumerate(values.shape):
        # the lines along the axis as (outer, n, inner); a block of lines is
        # gathered whole before its result is written back over them, so
        # every pass, the first included, filters ``values`` in place
        outer, inner = values.shape[:axis], values.shape[axis + 1 :]
        shape = (math.prod(outer), n, math.prod(inner))
        lines = values.reshape(shape)
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
                lines[o : o + bo, :, i : i + bi] = acc.transpose(1, 0, 2)
    return values


# ---------------------------------------------------------------------------
# measurements


# numpy sums a float64 vector along a fixed binary tree: a node of more
# than 128 values splits after half of them, rounded down to a multiple of
# 8, and a node's split depends on its size alone (not on the stride).  So
# numpy's sum of a node's values gives that node's bits, and
# ``_pairwise_sum`` asks for the sums of nodes of at most this many values.
_SUM_CHUNK = 1 << 15


def _pairwise_sum(n: int, node_sum, lo: int = 0):
    """``v.sum()`` for a float64 vector ``v`` of ``n`` values, bit for bit,
    where ``node_sum(lo, hi)`` returns ``v[lo:hi].sum()``.

    Only the sums of the tree's nodes of at most ``_SUM_CHUNK`` values are
    asked for, in order.  ``node_sum`` may also return a complex number that
    holds the sums of two vectors' nodes, which add componentwise.  ``lo``
    offsets the node within ``v``.
    """
    if n <= _SUM_CHUNK:
        return node_sum(lo, lo + n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(half, node_sum, lo) + _pairwise_sum(
        n - half, node_sum, lo + half
    )


def bounding_radius(field: PhaseField, center: Sequence[float]) -> float:
    """Largest periodic distance from ``center`` to an occupied cell center.

    Takes the squared distances of :meth:`Grid.periodic_distance_sq`, added
    in the same order, in blocks of slabs along array axis 0 (spatial axis
    d-1), and skips blocks that hold no occupied cell; the maximum does not
    depend on the order, so the result is that of the full-grid field.
    """
    if field.cell_count == 0:
        raise DegeneratePhaseError("bounding_radius of an empty phase")
    g = field.grid
    inner, column = _distance_sq_terms(g, center)  # inner is shared by every slab
    slabs = max(1, _BLOCK_CELLS * g.n // g.total_cells)
    d2 = np.empty((slabs,) + g.shape[1:])
    occupied = field.mask.reshape(g.n, -1).any(axis=1)
    best = 0.0
    for lo in range(0, g.n, slabs):
        if occupied[lo : lo + slabs].any():
            outer = column[lo : lo + slabs]
            block = np.add(inner, outer, out=d2[: len(outer)])
            mask = field.mask[lo : lo + slabs]
            best = max(best, float(np.max(block, where=mask, initial=0.0)))
    return math.sqrt(best)


def centroid(field: PhaseField) -> tuple[float, ...]:
    """Periodic centroid of the occupied cells (circular mean per axis).

    Takes cos and sin of each axis's n cell angles once, as one complex
    table, and sums each over the occupied cells in row-major order with
    the bits of numpy's sum of the gathered values (so the means are those
    of cos and sin of the gathered angles).  The two sums walk one
    :func:`_pairwise_sum` tree together; each node gathers the slabs along
    array axis 0 that hold its cells, so no gather covers all of them.
    """
    count = field.cell_count
    if count == 0:
        raise DegeneratePhaseError("centroid of an empty phase")
    g, mask = field.grid, field.mask
    ends = np.cumsum(np.count_nonzero(mask.reshape(g.n, -1), axis=1))
    out = []
    for k in range(g.dim):
        theta = 2.0 * np.pi * g.coordinate(k) / g.side
        table = np.empty(theta.shape, dtype=np.complex128)
        table.real, table.imag = np.cos(theta), np.sin(theta)
        values = np.broadcast_to(table, g.shape)

        def node_sum(lo: int, hi: int) -> complex:
            first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
            skip = lo - (int(ends[first - 1]) if first else 0)
            z = values[first : last + 1][mask[first : last + 1]][skip : skip + hi - lo]
            return complex(z.real.sum(), z.imag.sum())

        total = _pairwise_sum(count, node_sum)
        ang = np.arctan2(total.imag / count, total.real / count)
        out.append(float((ang * g.side / (2.0 * np.pi)) % g.side))
    return tuple(out)
