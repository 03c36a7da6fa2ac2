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

from .threshold import _kth_smallest, _select_cells


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
    if not 0 <= vapor_margin < math.inf:
        raise ValueError(f"vapor_margin must be finite and >= 0, got {vapor_margin}")
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
# about the side, past which the wrapped kernel is nearly flat.  The folded
# approximation costs the same at any reach, but the cells it cannot place
# are evaluated by the direct filter, whose cost and weight table grow with
# the reach, so a longer reach stays a configuration error (the same
# message, exit 3).
MAX_FILTER_REACH = 4

# The folded filter's distance from the direct filter's bits is bounded by
# ``_BOUND_MARGIN`` times the rounding bound :func:`_folded_filter` returns,
# and a blob places every cell farther than ``_CUT_SLACK`` times that bound
# from its approximate cut.
_BOUND_MARGIN = 2.0
_CUT_SLACK = 2.0


def random_blob(
    grid: Grid, seed: int, fill: float = 0.3, smoothing: float = 0.05
) -> PhaseField:
    """Deterministic smooth random shape occupying ``fill`` of the cells.

    White noise is smoothed periodically at length ``smoothing`` (0 keeps
    the raw noise) and thresholded at the exact quantile, so the cell count
    is reproducible bit for bit for a given seed.  The mask is the stable
    top ``fill`` of ``scipy.ndimage.gaussian_filter(noise, sigma,
    mode="wrap")`` for ``sigma = smoothing / dx``, the direct filter of
    :func:`_filtered_at`, ties going to the lowest flat index.  The filter
    reaches ``int(4 sigma + 0.5)`` cells; a reach beyond
    ``MAX_FILTER_REACH`` times n (a smoothing of about the side) is refused
    before anything is allocated.

    The direct filter's values are not computed everywhere: the noise is
    filtered in place by :func:`_folded_filter`, every value within ``err``
    of the direct filter's, so the two cuts lie within ``err`` and a cell
    farther than 2 ``err`` from the approximate cut lies on that side of
    the exact one.  Only when the cells within 2 ``err`` outnumber the
    cells still to be taken, the approximation is freed, the noise drawn
    again and those cells evaluated by the direct filter (each must lie
    within ``err`` of its approximation, or a RuntimeError names it), and
    the exact selection picks among them.
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
    cells = grid.total_cells
    target = max(1, min(cells - 1, round(fill * cells)))
    w = _gaussian_weights(sigma)
    smooth = np.random.default_rng(seed).standard_normal(grid.shape)
    err = _BOUND_MARGIN * _folded_filter(smooth, w)  # the noise, filtered in place
    flat, band = smooth.reshape(-1), _CUT_SLACK * err
    cut = _kth_smallest(flat, cells - target)
    mask, near = np.empty(cells, dtype=bool), []
    for lo in range(0, cells, _BLOB_BLOCK):
        above = flat[lo : lo + _BLOB_BLOCK] - cut
        np.greater(above, band, out=mask[lo : lo + _BLOB_BLOCK])
        near.append(np.flatnonzero(np.abs(above, out=above) <= band) + lo)
    near = np.concatenate(near)
    missing = target - int(np.count_nonzero(mask))
    if missing < near.size:  # the approximation cannot place them all
        approx = flat[near]
        del smooth, flat  # freed before the noise is drawn again
        noise = np.random.default_rng(seed).standard_normal((1,) + grid.shape)
        at = np.stack((np.zeros_like(near), *np.unravel_index(near, grid.shape)), axis=1)
        exact = _filtered_at(noise, w, at)
        del noise
        wrong = np.flatnonzero(np.abs(exact - approx) > err)
        if wrong.size:
            i = wrong[0]
            raise RuntimeError(
                f"blob cell {tuple(at[i, 1:].tolist())}: direct filter "
                f"{exact[i].item()!r} lies farther than the bound {err!r} "
                f"from its approximation {approx[i].item()!r}"
            )
        near = near[_select_cells(exact, missing, top=True)[0]]
    mask[near] = True
    return PhaseField(grid, mask.reshape(grid.shape))


# ``bounding_radius`` takes its distances in blocks of about 2^15 cells, and
# the heat kernel its transforms' rows and its multipliers.  A blob's filter
# and its comparison with the cut take blocks of about 2^13 cells (the
# filter at least ``_TILE`` lines), which keeps their scratch and the BLAS
# packing buffers near 64 KiB at 96^3; the filter writes ``_TILE`` cells of
# a line at a time.
_BLOCK_CELLS = 1 << 15
_BLOB_BLOCK = 1 << 13
_TILE = 32


def _gaussian_weights(sigma: float) -> np.ndarray:
    """The direct filter's weights of offsets 0 ... r for ``r = int(4 sigma
    + 0.5)``: scipy's ``exp(-0.5 / sigma**2 * x**2)`` for ``|x| <= r``,
    divided by their sum (exactly symmetric).  A ``sigma`` of at most 1e-15
    filters nothing, as in scipy: its weights are ``[1.0]``."""
    if not sigma > 1e-15:
        return np.ones(1)
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[r:]


def _gamma(k: int) -> float:
    """The rounding factor of k float64 operations, k u / (1 - k u)."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _folded_filter(values: np.ndarray, w: np.ndarray) -> float:
    """Filter ``values`` (C-contiguous float64, n cells on every axis) in
    place by the weights ``w`` of offsets 0 ... r wrapped onto the torus, and
    return a bound on every result's distance from the direct filter's.

    A pass along an array axis copies a block of lines, wrap-padded, and
    writes each tile of ``_TILE`` cells of them back as one ``np.matmul`` of
    the tile's window: the cells within r of the tile, or, where those
    would cover more than half a line, the whole line, against the kernel
    folded onto its n cells (a line of at most four tiles is one tile).  So
    a cell costs at most n multiply-adds a pass, however far r reaches.

    The bound: a pass's results lie within gamma_(n+t) sum|w||v| of the
    exact filter of its input v, for any summation order (t =
    ceil((2r+1)/n) weights fold into an entry), and the direct filter's
    within gamma_(r+2) sum|w||v|, where sum|w||v| is at most the weights'
    exact sum S times max|v|; the direct filter's input lies within the
    last pass's bound of ours, which the exact filter scales by S.
    """
    r, n = w.size - 1, values.shape[0]
    if r == 0:
        return 0.0  # the weights are [1.0], which change no bit
    if n > 2 * (_TILE + 2 * r):  # a window: the tile and r cells either side
        tile, left, span = _TILE, r, _TILE + 2 * r
    else:  # a window: the whole line, from the tile's first cell on
        tile, left, span = (n if n <= 4 * _TILE else _TILE), 0, n
    offsets = np.arange(-r, r + 1)
    folded = np.bincount(offsets % n, w[np.abs(offsets)], n)
    kernel = folded[(np.arange(span)[:, None] - left - np.arange(tile)) % n]
    starts = [*range(0, n - tile, tile), n - tile]  # the last tile ends the line
    right = span - tile - left  # the padded block's cells past the line's end
    rounding = _gamma(n - (-(2 * r + 1) // n)) + _gamma(r + 2)
    weight_sum = 1.0 + _gamma(2 * r + 2)
    rows = max(_TILE, _BLOB_BLOCK // n)
    scratch = np.empty(rows * (n + left + right))
    err = 0.0
    for axis in range(values.ndim):
        top = max(values.max(), -values.min()).item()
        err = weight_sum * (err + rounding * (top + err))
        inner = n ** (values.ndim - 1 - axis)
        if inner == 1:  # the lines are rows, of blocks (1, rows, n)
            lines, along, bo, bi = values.reshape(1, -1, n), 2, 1, rows
        else:  # the lines are columns, of blocks (bo, n, bi)
            lines, along = values.reshape(-1, n, inner), 1
            bi = min(inner, rows)
            bo = rows // bi
        for o in range(0, lines.shape[0], bo):
            for i in range(0, lines.shape[3 - along], bi):
                part = lines[o : o + bo][_cut(3 - along, i, i + bi)]
                shape = list(part.shape)
                shape[along] = n + left + right
                pad = scratch[: math.prod(shape)].reshape(shape)
                np.copyto(pad[_cut(along, left, left + n)], part)
                np.copyto(pad[_cut(along, 0, left)], part[_cut(along, n - left, n)])
                np.copyto(pad[_cut(along, left + n, None)], part[_cut(along, 0, right)])
                for s in starts:
                    window = pad[_cut(along, s, s + span)]
                    out = part[_cut(along, s, s + tile)]
                    if along == 2:
                        np.matmul(window, kernel, out=out)
                    else:
                        np.matmul(kernel.T, window, out=out)
    return err


def _cut(axis: int, lo: int, hi: int | None) -> tuple:
    """The index of ``[lo:hi]`` along ``axis``."""
    return (slice(None),) * axis + (slice(lo, hi),)


def _filtered_at(values: np.ndarray, w: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The direct filter of each of the stacked arrays ``values`` (B, n,
    ..., n) by the weights ``w`` of :func:`_gaussian_weights`, bit for bit,
    at the cells ``at`` (m, 1 + k): a stack index, then the cell's k
    indices.

    scipy's arithmetic: one pass per array axis in order 0 ... k-1, each
    reading the last pass's output, and per cell ``w[0] * x[i]``, then
    ``(x[i-j] + x[i+j]) * w[j]`` added for j = r down to 1, indices taken
    modulo n (r may exceed n).  Only the cells' cone is evaluated: the
    first pass at each distinct pair of stack and first index, a slab of
    n^(k-1) outputs, as many slabs at a time as make about ``_BLOB_BLOCK``
    cells (at least one), and the other passes on the stack of those slabs.
    """
    if at.shape[1] == 1:
        return values[at[:, 0]]
    n = values.shape[1]
    heads, group = np.unique(at[:, :2], axis=0, return_inverse=True)
    group = group.reshape(-1)
    chunk = max(1, _BLOB_BLOCK // values[0, 0].size)
    out = np.empty(len(at))
    for lo in range(0, len(heads), chunk):
        stack, first = heads[lo : lo + chunk].T
        slab = values[stack, first] * w[0]
        for j in range(w.size - 1, 0, -1):
            slab += (values[stack, (first - j) % n] + values[stack, (first + j) % n]) * w[j]
        cells = (group >= lo) & (group < lo + chunk)
        rest = np.column_stack([group[cells] - lo, at[cells, 2:]])
        out[cells] = _filtered_at(slab, w, rest)
    return out


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
