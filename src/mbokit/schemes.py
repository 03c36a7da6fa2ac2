"""Thresholding schemes: diffuse, threshold, repeat.

One step smooths the current phase configuration with the heat kernel of
bandwidth sqrt(h) and rebuilds sharp phases from the smoothed values.  The
step maps are the thresholding rules alone; they are handed the smoothed
fields, which ``diagnostics.LedgerWalk`` computes (for grain growth, a
per-cell summary of them and a gather of their values on chosen cells):

* ``step_forced``: threshold at 1/2 - f sqrt(h) / (2 sqrt(pi)) for a
  constant force f; adds a normal velocity f on top of curvature.  At
  f = 0 it is the ``mbo`` step: interfaces move by mean curvature.
* ``step_volume_preserving``: keep exactly the current cell count by
  selecting the top cells of the smoothed field; the reported threshold
  plays the role of a volume multiplier.
* ``step_grain_growth``: multiphase vapor/grain version with a surface
  tension matrix; each cell goes to its best grain, and the total solid
  cell count is preserved exactly through a bottom selection of the
  grain-versus-vapor score.  It certifies most cells from the summary and
  folds the comparison fields only on the rest.

``Stepper`` iterates a step map one state at a time, recording the energy
ledger (walked by ``diagnostics.LedgerWalk``), thresholds, and support
radii per step, and stops early when the state freezes or a phase
disappears.  It is the only driver: a caller that wants every state
collects them, ``states = [initial, *stepper]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    DegeneratePhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    bounding_radius,
    centroid,
)
from .kernel import multiplier_exponent
from .threshold import _kth_smallest, select_bottom_cells, select_top_cells
from .diagnostics import GrainSummary, LedgerWalk, StepRecord, tension_row

SCHEMES = ("mbo", "volume_preserving", "forced", "grain_growth")

# A solid reaching beyond this fraction of the side starts feeling its own
# periodic images; runs past it are flagged, not stopped, unless the solid
# starts at half the side or beyond: it fills the torus by design.
WRAP_RADIUS_FRACTION = 0.4

# A grain-growth step certifies cells from the summary this many at a time.
_CERTIFY_BLOCK = 1 << 12


@dataclass(frozen=True)
class SurfaceTensionMatrix:
    """Validated grain-to-grain surface tensions, vapor normalized to 1.

    Requirements checked at construction: finite entries, symmetry, zero
    diagonal, strictly positive off-diagonal entries below 2 (the vapor
    route between any two grains costs 2, so larger entries would be
    relaxed instantly), a strict triangle inequality, and negative
    definiteness as a bilinear form on mean-zero vectors.  The extended
    matrix bordered by a vapor row and column of ones is built here once
    and reused everywhere.  ``sigma_min`` and ``sigma_max`` are the
    smallest and largest off-diagonal tensions (both 1.0, the vapor
    tension, for a single grain, which has no pair).  When the largest is
    below twice the smallest every triangle holds, and the O(p³) loop that
    names the first violation runs only for other matrices.
    """

    sigma: np.ndarray
    extended: np.ndarray = field(init=False, repr=False)
    sigma_min: float = field(init=False)
    sigma_max: float = field(init=False)

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(np.asarray(self.sigma, dtype=np.float64))
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
            raise ValueError(f"tension matrix must be square, got shape {s.shape}")
        p = s.shape[0]
        if not np.isfinite(s).all():
            raise ValueError("tension matrix entries must be finite")
        if not np.array_equal(s, s.T):
            raise ValueError("tension matrix must be symmetric")
        if np.diagonal(s).any():
            raise ValueError("tension matrix diagonal must be zero")
        off = ~np.eye(p, dtype=bool)
        if p > 1 and not (s[off] > 0).all():
            raise ValueError("off-diagonal tensions must be positive")
        if p > 1 and not (s[off] < 2).all():
            raise ValueError(
                "off-diagonal tensions must stay below 2, the cost of the "
                "vapor route between two grains"
            )
        lo, hi = (float(s[off].min()), float(s[off].max())) if p > 1 else (1.0, 1.0)
        # below twice the smallest tension every triangle holds: sigma_ij <
        # 2 sigma_min <= sigma_ik + sigma_kj, so only other matrices are looped
        for k in range(p if hi >= 2.0 * lo else 0):  # first (i, j) in row order
            bad = off & ~(s < s[:, k, None] + s[k])
            bad[k] = bad[:, k] = False
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(
                    f"triangle inequality fails: sigma[{i},{j}] >= "
                    f"sigma[{i},{k}] + sigma[{k},{j}]"
                )
        ext = np.ones((p + 1, p + 1))
        ext[0, 0] = 0.0
        ext[1:, 1:] = s
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "sigma_min", lo)
        object.__setattr__(self, "sigma_max", hi)
        object.__setattr__(self, "extended", ext)
        # the form in the mean-zero basis e_i - e_last is B_ij = M_ij - M_i,last
        # - M_last,j + M_last,last; by Sylvester's law of inertia M is negative
        # definite on mean-zero vectors iff -B has a Cholesky factor
        last = ext[-1]
        neg_form = last[:-1, None] + last[:-1] - ext[:-1, :-1] - last[-1]
        try:
            np.linalg.cholesky(neg_form)
        except np.linalg.LinAlgError:
            raise ValueError(
                "tension matrix is not negative definite on mean-zero vectors"
            ) from None

    @property
    def num_grains(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class SchemeConfig:
    """Which scheme to run, on which grid, at which bandwidth, how long.

    A bandwidth whose kernel multipliers or whose horizon ``steps * h``
    would overflow is refused here, so no plan or step time meets it.
    ``force`` is the forced scheme's constant force f, a finite number
    (0.0 included), and None for every other scheme; ``tensions`` are grain
    growth's, which evolves a partition, and None for the two-phase schemes.
    """

    scheme: str
    grid: Grid
    h: float
    steps: int
    force: float | None = None
    tensions: SurfaceTensionMatrix | None = None

    def __post_init__(self) -> None:
        if self.scheme == "grain_growth" and self.tensions is None:
            raise ValueError(
                "grain_growth evolves a partition (init = voronoi), "
                "not a two-phase field"
            )
        if self.scheme != "grain_growth" and self.tensions is not None:
            raise ValueError(
                f"scheme {self.scheme} evolves a two-phase field, "
                "not a partition (init = voronoi)"
            )
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, pick one of {SCHEMES}")
        if not 0 < self.h < math.inf:
            raise ValueError(f"bandwidth h must be positive and finite, got {self.h}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if not math.isfinite(multiplier_exponent(self.grid, self.h)):
            raise ValueError(f"bandwidth h = {self.h} overflows h |k|^2 on this grid")
        if not math.isfinite(self.steps * self.h):
            raise ValueError(f"horizon steps * h = {self.steps} * {self.h} overflows")
        if self.force is not None and not math.isfinite(self.force):
            raise ValueError(f"force_value must be finite, got {self.force}")
        if self.scheme == "forced" and self.force is None:
            raise ValueError("forced scheme needs a force_value")
        if self.scheme != "forced" and self.force is not None:
            raise ValueError(f"scheme {self.scheme!r} does not take a force")


# ---------------------------------------------------------------------------
# single steps


def step_forced(chi: PhaseField, smoothed: np.ndarray, f: float, h: float) -> PhaseField:
    """One forced step: threshold ``smoothed`` at 1/2 - f sqrt(h) / (2 sqrt(pi)).

    ``f`` is the constant force.  A zero force of either sign gives the
    threshold 1/2 exactly: the plain ``mbo`` step.
    """
    tau = 0.5 - f * (math.sqrt(h) / (2.0 * math.sqrt(math.pi)))
    return PhaseField(chi.grid, smoothed > tau)


def step_volume_preserving(
    chi: PhaseField, smoothed: np.ndarray
) -> tuple[PhaseField, float]:
    """One exactly volume-preserving step.

    Selects precisely the current number of cells of ``chi``, largest
    ``smoothed`` values first.  Returns the new phase and the selection
    threshold (the volume multiplier of the step).
    """
    count = chi.cell_count
    if count == 0 or count == chi.grid.total_cells:
        raise DegeneratePhaseError(
            "volume-preserving step needs a phase that is neither empty nor full"
        )
    mask, cut = select_top_cells(smoothed.reshape(-1), count)
    return PhaseField(chi.grid, mask.reshape(chi.grid.shape)), float(cut)


def step_grain_growth(
    state: MultiPhaseState,
    summary: GrainSummary,
    gather: Callable[[np.ndarray], np.ndarray],
    tensions: SurfaceTensionMatrix,
) -> tuple[MultiPhaseState, float]:
    """One multiphase step preserving the total solid cell count.

    The comparison fields phi_i are tension-weighted sums of the smoothed
    indicators (vapor first; vapor enters each grain's field with weight
    one).  Each cell's candidate grain minimizes phi over grains, lowest
    label on ties; the solid set keeps exactly its cell count by a bottom
    selection of the score phi_best - phi_vapor.  Returns the new state and
    the score cut.

    The fields are not held: ``summary`` is the :class:`GrainSummary` of
    the state's smoothed labels, and ``gather(cells)`` returns their values
    on sorted flat cells, one row per label, vapor first.  From the summary
    alone :func:`_uncertain_cells` certifies most cells as unchanged; only
    the rest are gathered and selected among.  There the vapor row is
    folded by :func:`tension_row`, and grain i's only where the bound of
    :func:`_uncertain_cells` lets it match the leader's; elsewhere its fold
    exceeds the leader's, so the running minimum (from +inf, in label
    order) and its lowest label are the same.  Labels and cut are those of
    the fold of every row over every cell, bit for bit.
    """
    p = tensions.num_grains
    if state.solid_cell_count == 0:
        raise DegeneratePhaseError("grain growth needs at least one solid cell")
    cells, solid_outside, err = _uncertain_cells(state, summary, tensions)
    values, ext, every = gather(cells), tensions.extended, np.arange(cells.size)
    phi_vapor = tension_row(ext[0], values, every)
    lo, hi = tensions.sigma_min, tensions.sigma_max
    psi_max = values[summary.leader.reshape(-1)[cells], every]
    reach = (hi - lo) * summary.rest.reshape(-1)[cells] + 2.0 * err
    phi_best, best = np.full(cells.size, np.inf), np.empty(cells.size, np.int32)
    for i in range(1, p + 1):
        at = np.flatnonzero(lo * (psi_max - values[i]) <= reach)
        row = tension_row(ext[i], values, at)
        lower = row < phi_best[at]  # strict, so the lowest grain wins ties
        phi_best[at[lower]] = row[lower]
        best[at[lower]] = i
    mask, cut = select_bottom_cells(
        phi_best - phi_vapor, state.solid_cell_count - solid_outside
    )
    labels = state.labels.copy()
    labels.ravel()[cells] = np.where(mask, best, 0)
    return MultiPhaseState(state.grid, labels, p), float(cut)


def _uncertain_cells(
    state: MultiPhaseState, summary: GrainSummary, tensions: SurfaceTensionMatrix
) -> tuple[np.ndarray, int, float]:
    """The sorted flat cells a step cannot certify as keeping their label
    from ``summary``, how many cells outside them stay solid, and ``err``.

    In exact arithmetic, with S the grain sum, m the leader and [lo, hi]
    the off-diagonal tensions, the vapor terms cancel and any other grain's
    row exceeds the leader's by at least lo (psi_max - psi_2nd) - (hi -
    lo)(S - psi_max); every grain's score phi_i - phi_vapor lies above
    base + lo rest, and the leader's below base + hi rest.  A fold of at
    most p+1 terms, S and these bounds round by less than ``err`` = (p + 8)
    2^-50 ``scale``, at least twice the worst case, and the float32 gap
    lies within ``gap_err`` of exact.  So where the gap bound exceeds 2 err
    the leader is the fold's unique argmin, and every score lies within
    its bounds widened by err.  The cut, the solid count's smallest score,
    lies between that order statistic of the lower and of the upper
    bounds: a cell whose upper bound is below the bracket is solid, one
    whose lower bound is above it is vapor, both strictly.  Such a cell is
    left out when its certain label is its old one; the rest (ties and
    near-ties, cells near the cut, certain changes) hold every cell whose
    score equals the cut.
    """
    k = state.solid_cell_count
    lo, hi = tensions.sigma_min, tensions.sigma_max
    err = (tensions.num_grains + 8) * 2.0**-50 * summary.scale
    gap_err = 2.0**-22 * summary.scale  # the float32 gap's distance from exact
    base, rest, gap, leader, old = (
        a.reshape(-1)
        for a in (summary.base, summary.rest, summary.gap, summary.leader, state.labels)
    )
    bounds = np.empty(old.size)

    def cut_of_bounds(sigma: float, widen: float) -> np.float64:
        # base + sigma rest + widen into ``bounds``, and its k-th smallest
        np.multiply(rest, sigma, out=bounds)
        np.add(bounds, base, out=bounds)
        np.add(bounds, widen, out=bounds)
        return _kth_smallest(bounds, k - 1)

    cut_high = cut_of_bounds(hi, err)
    cut_low = cut_of_bounds(lo, -err)  # ``bounds`` keeps the lower bounds
    cells, solid_outside = [], 0
    for start in range(0, old.size, _CERTIFY_BLOCK):
        part = slice(start, start + _CERTIFY_BLOCK)
        high = hi * rest[part]
        high += base[part]
        high += err
        margin = np.subtract(gap[part], gap_err, dtype=np.float64)
        margin *= lo
        margin -= (hi - lo) * rest[part]
        stays = leader[part] == old[part]
        stays &= high < cut_low
        stays &= margin > 2.0 * err
        solid_outside += int(np.count_nonzero(stays))
        stays |= (bounds[part] > cut_high) & (old[part] == 0)
        cells.append(np.flatnonzero(~stays) + start)
    return np.concatenate(cells), solid_outside, err


# ---------------------------------------------------------------------------
# multi-step driver


class Stepper:
    """The configured scheme run from ``initial``, one step per iteration.

    Construction checks the initial state, measures its support radius
    from the initial solid's centroid, and smooths it to take its energy,
    ``initial_energy``.  Iterating runs the steps and yields each new state
    as its step finishes, appending the step's ledger row to ``records``.
    It stops early with ``status`` "pinned" when a step changes no cell and
    "extinct" when the evolving phase empties, else "completed" when every
    step ran; it is final when the last state is yielded (at construction
    with no steps).  The step maps read the smoothed field, or the
    grain summary and gather, of a :class:`LedgerWalk`, so only the current
    and the previous state, one spectrum and the summary are held.  A
    warning fires if the support radius of a compact solid, one that starts
    below half the side, ever exceeds 40 percent of the side, where its
    periodic images start to interact, unless it fills the torus.
    """

    def __init__(self, config: SchemeConfig, initial) -> None:
        grid = config.grid
        self.config = config
        solid0 = initial.solid()
        if solid0.cell_count == 0:
            raise DegeneratePhaseError("initial state has no occupied cells")
        self.center = centroid(solid0)
        self.initial_radius = bounding_radius(solid0, self.center)
        self.records: list[StepRecord] = []
        self.status = "running" if config.steps else "completed"
        if WRAP_RADIUS_FRACTION * grid.side < self.initial_radius < grid.side / 2:
            warnings.warn(
                f"initial support radius {self.initial_radius:.3g} exceeds "
                f"{WRAP_RADIUS_FRACTION:.0%} of the side; periodic images interact",
                stacklevel=2,
            )
        walk = LedgerWalk(config, initial, None)  # a step map makes each next state
        self.initial_energy = walk.energy
        self._steps = self._iterate(walk)

    def __iter__(self):
        return self._steps

    def _iterate(self, walk: LedgerWalk):
        # walk.smoothed and walk.summary are read inline, never bound to a
        # name here: they are valid only until walk.advance smooths the next
        # state over them
        config = self.config
        grid, h = config.grid, config.h
        wrap_warned = self.initial_radius > WRAP_RADIUS_FRACTION * grid.side
        for n in range(1, config.steps + 1):
            lam: float | None = None
            if config.scheme == "grain_growth":
                new_state, lam = step_grain_growth(
                    walk.state, walk.summary, walk.gather, config.tensions
                )
            elif config.scheme == "volume_preserving":
                new_state, lam = step_volume_preserving(walk.state, walk.smoothed)
            else:  # mbo is the forced step at f = 0
                f = 0.0 if config.force is None else config.force
                new_state = step_forced(walk.state, walk.smoothed, f, h)
            last = new_state if n == config.steps else None  # nothing follows it
            row = walk.advance(n, new_state, last)

            new_solid = new_state.solid()
            count, radius = new_solid.cell_count, None
            if count:
                radius = bounding_radius(new_solid, self.center)
            del new_solid  # a partition's solid mask is not held across the yield
            # a solid filling the torus has no interface, so no periodic images
            wrapping = 0 < count < grid.total_cells and (
                radius > WRAP_RADIUS_FRACTION * grid.side
            )
            if wrapping and not wrap_warned:
                warnings.warn(
                    f"support radius {radius:.3g} at step {n} exceeds "
                    f"{WRAP_RADIUS_FRACTION:.0%} of the side",
                    stacklevel=2,
                )
                wrap_warned = True

            self.records.append(StepRecord(**vars(row), lam=lam, bounding_radius=radius))
            if radius is None:
                self.status = "extinct"
            elif walk.changed == 0:
                self.status = "pinned"
            elif n == config.steps:
                self.status = "completed"
            yield new_state
            if self.status != "running":
                return
