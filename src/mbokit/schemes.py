"""Thresholding schemes: diffuse, threshold, repeat.

One step smooths the current phase configuration with the heat kernel of
bandwidth sqrt(h) and rebuilds sharp phases from the smoothed values.  The
step maps are the thresholding rules alone; they are handed the smoothed
fields, which ``diagnostics.LedgerWalk`` computes once per state:

* ``step_mbo``: threshold at 1/2; interfaces move by mean curvature.
* ``step_volume_preserving``: keep exactly the current cell count by
  selecting the top cells of the smoothed field; the reported threshold
  plays the role of a volume multiplier.
* ``step_forced``: threshold at 1/2 - f sqrt(h) / (2 sqrt(pi)) with a
  space-time forcing f sampled at the step's target time; adds a normal
  velocity f on top of curvature.
* ``step_grain_growth``: multiphase vapor/grain version with a surface
  tension matrix; each cell goes to its best grain, and the total solid
  cell count is preserved exactly through a bottom selection of the
  grain-versus-vapor score.

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
from typing import Callable, Sequence

import numpy as np

from .grid import (
    DegeneratePhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    RealField,
    bounding_radius,
    centroid,
)
from .threshold import select_bottom_cells, select_top_cells
from .diagnostics import GOOD_ITERATION_BAND, LedgerWalk, StepRecord, tension_rows

SCHEMES = ("mbo", "volume_preserving", "forced", "grain_growth")

ForceFunction = Callable[[Grid, float], RealField]

# A solid reaching beyond this fraction of the side starts feeling its own
# periodic images; runs past it are flagged, not stopped.
WRAP_RADIUS_FRACTION = 0.4


@dataclass(frozen=True)
class SurfaceTensionMatrix:
    """Validated grain-to-grain surface tensions, vapor normalized to 1.

    Requirements checked at construction: symmetry, zero diagonal, strictly
    positive off-diagonal entries below 2 (the vapor route between any two
    grains costs 2, so larger entries would be relaxed instantly), a strict
    triangle inequality, and negative definiteness as a bilinear form on
    mean-zero vectors.  The extended matrix bordered by a vapor row and
    column of ones is built here once and reused everywhere.
    """

    sigma: np.ndarray
    extended: np.ndarray = field(init=False, repr=False)
    extended_neg_bound: float = field(init=False)

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(np.asarray(self.sigma, dtype=np.float64))
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
            raise ValueError(f"tension matrix must be square, got shape {s.shape}")
        p = s.shape[0]
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
        for k in range(p):  # one p x p slice per k, first (i, j) in row order
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
        object.__setattr__(self, "extended", ext)
        object.__setattr__(self, "extended_neg_bound", _mean_zero_neg_bound(ext))
        if not self.extended_neg_bound > 0:
            raise ValueError(
                "tension matrix is not negative definite on mean-zero vectors"
            )

    @property
    def num_grains(self) -> int:
        return self.sigma.shape[0]


def _mean_zero_neg_bound(matrix: np.ndarray) -> float:
    """Largest admissible bound b with  x.M.x <= -b |x|^2  on mean-zero x."""
    n = matrix.shape[0]
    basis = np.linalg.svd(np.ones((1, n)))[2][1:].T  # orthonormal, mean zero
    eigs = np.linalg.eigvalsh(basis.T @ matrix @ basis)
    return float(-eigs.max())


def equal_tensions(num_grains: int) -> SurfaceTensionMatrix:
    """All grain pairs at tension 1 (same as the vapor boundary)."""
    s = np.ones((num_grains, num_grains)) - np.eye(num_grains)
    return SurfaceTensionMatrix(s)


@dataclass(frozen=True)
class SchemeConfig:
    """Which scheme to run, on which grid, at which bandwidth, how long."""

    scheme: str
    grid: Grid
    h: float
    steps: int
    force: ForceFunction | None = None
    tensions: SurfaceTensionMatrix | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, pick one of {SCHEMES}")
        if not 0 < self.h < math.inf:
            raise ValueError(f"bandwidth h must be positive and finite, got {self.h}")
        if self.steps < 0:
            raise ValueError(f"steps must be nonnegative, got {self.steps}")
        if self.scheme == "forced" and self.force is None:
            raise ValueError("forced scheme needs a force function")
        if self.scheme != "forced" and self.force is not None:
            raise ValueError(f"scheme {self.scheme!r} does not take a force")
        if self.scheme == "grain_growth" and self.tensions is None:
            raise ValueError("grain growth needs a surface tension matrix")
        if self.scheme != "grain_growth" and self.tensions is not None:
            raise ValueError(f"scheme {self.scheme!r} does not take tensions")


# ---------------------------------------------------------------------------
# single steps


def step_mbo(chi: PhaseField, smoothed: RealField) -> PhaseField:
    """One plain thresholding step: keep the cells whose ``smoothed`` value,
    the heat-kernel convolution of ``chi``, exceeds 1/2."""
    return PhaseField(chi.grid, smoothed.values > 0.5)


def step_forced(
    chi: PhaseField, smoothed: RealField, force_now: RealField, h: float
) -> PhaseField:
    """One forced step: threshold ``smoothed`` at 1/2 - f sqrt(h) / (2 sqrt(pi)).

    ``force_now`` is the forcing sampled at the step's target time.  A zero
    force reproduces :func:`step_mbo` bit for bit, because the threshold
    field then equals 1/2 exactly in every cell.
    """
    if force_now.grid != chi.grid:
        raise ValueError("force field lives on a different grid")
    tau = 0.5 - force_now.values * (math.sqrt(h) / (2.0 * math.sqrt(math.pi)))
    return PhaseField(chi.grid, smoothed.values > tau)


def step_volume_preserving(
    chi: PhaseField, smoothed: RealField
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
    sel = select_top_cells(smoothed, count)
    return sel.mask, float(sel.threshold)


def step_grain_growth(
    state: MultiPhaseState,
    smoothed: Sequence[np.ndarray],
    tensions: SurfaceTensionMatrix,
) -> tuple[MultiPhaseState, float]:
    """One multiphase step preserving the total solid cell count.

    Builds the comparison fields phi_i one at a time as tension-weighted
    sums of the smoothed indicators ``smoothed`` (vapor first; vapor enters
    each grain's field with weight one).  Each cell's candidate grain
    minimizes phi over grains, lowest label on ties, through a running
    minimum; the solid set keeps exactly its cell count by a bottom
    selection of phi_best - phi_vapor.  Returns the new state and the score
    cut.
    """
    p = tensions.num_grains
    if state.num_grains != p:
        raise ValueError("state and tension matrix disagree on grain count")
    grid = state.grid
    solid_count = state.solid_cell_count
    if solid_count == 0:
        raise DegeneratePhaseError("grain growth needs at least one solid cell")
    rows = tension_rows(tensions.extended, smoothed)
    phi_vapor, phi_best = next(rows).copy(), next(rows).copy()
    best = np.ones(grid.shape, dtype=np.int32)
    for i, row in enumerate(rows, start=2):
        lower = row < phi_best  # strict, so the lowest grain wins ties
        np.copyto(phi_best, row, where=lower)
        np.copyto(best, i, where=lower)
    sel = select_bottom_cells(RealField(grid, phi_best - phi_vapor), solid_count)
    labels = np.where(sel.mask.mask, best, 0)
    return MultiPhaseState(grid, labels, p), float(sel.threshold)


# ---------------------------------------------------------------------------
# multi-step driver


def _solid_of(state) -> PhaseField:
    if isinstance(state, MultiPhaseState):
        return state.solid()
    return state


class Stepper:
    """The configured scheme run from ``initial``, one step per iteration.

    Construction checks the initial state, measures its support radius
    from the initial solid's centroid, and smooths it to take its energy,
    ``initial_energy``.  Iterating runs the steps and yields each new state
    as its step finishes, appending the step's ledger row to ``records``.
    It stops early with ``status`` "pinned" when a step changes no cell and
    "extinct" when the evolving phase empties; ``status`` is "completed"
    once every step ran.  The step maps read the smoothed fields of a
    :class:`LedgerWalk`, so only the current and the previous state and one
    set of smoothed fields are held.  A warning fires if the support radius
    ever exceeds 40 percent of the side, where the periodic images start to
    interact.
    """

    def __init__(self, config: SchemeConfig, initial) -> None:
        grid = config.grid
        if (config.scheme == "grain_growth") != isinstance(initial, MultiPhaseState):
            raise TypeError("initial state type does not match the scheme")
        if initial.grid != grid:
            raise ValueError("initial state lives on a different grid")
        self.config = config
        solid0 = _solid_of(initial)
        if solid0.cell_count == 0:
            raise DegeneratePhaseError("initial state has no occupied cells")
        self.center = centroid(solid0)
        self.initial_radius = bounding_radius(solid0, self.center)
        self.records: list[StepRecord] = []
        self.status = "running"
        if self.initial_radius > WRAP_RADIUS_FRACTION * grid.side:
            warnings.warn(
                f"initial support radius {self.initial_radius:.3g} exceeds "
                f"{WRAP_RADIUS_FRACTION:.0%} of the side; periodic images interact",
                stacklevel=2,
            )
        walk = LedgerWalk(config, initial)
        self.initial_energy = walk.energy
        self._steps = self._iterate(walk)

    def __iter__(self):
        return self._steps

    def _iterate(self, walk: LedgerWalk):
        # walk.smoothed is read inline, never bound to a name here, so the
        # old fields die inside walk.advance before the new ones are made
        config = self.config
        grid, h = config.grid, config.h
        wrap_warned = self.initial_radius > WRAP_RADIUS_FRACTION * grid.side
        for n in range(1, config.steps + 1):
            t = n * h
            lam: float | None = None
            good: bool | None = None
            force_now: RealField | None = None

            if config.scheme == "grain_growth":
                new_state, lam = step_grain_growth(
                    walk.state, walk.smoothed, config.tensions
                )
                good = abs(lam) < GOOD_ITERATION_BAND
            elif config.scheme == "mbo":
                new_state = step_mbo(walk.state, walk.smoothed)
            elif config.scheme == "forced":
                force_now = config.force(grid, t)
                new_state = step_forced(walk.state, walk.smoothed, force_now, h)
            else:
                new_state, lam = step_volume_preserving(walk.state, walk.smoothed)
                good = abs(lam - 0.5) < GOOD_ITERATION_BAND
            row = walk.advance(n, new_state, force_now)

            new_solid = _solid_of(new_state)
            radius = None
            if new_solid.cell_count:
                radius = bounding_radius(new_solid, self.center)
                if radius > WRAP_RADIUS_FRACTION * grid.side and not wrap_warned:
                    warnings.warn(
                        f"support radius {radius:.3g} at step {n} exceeds "
                        f"{WRAP_RADIUS_FRACTION:.0%} of the side",
                        stacklevel=2,
                    )
                    wrap_warned = True

            self.records.append(
                StepRecord(
                    **vars(row),
                    time=t,
                    lam=lam,
                    bounding_radius=radius,
                    good_iteration=good,
                )
            )
            if new_solid.cell_count == 0:
                self.status = "extinct"
            elif walk.changed.size == 0:
                self.status = "pinned"
            yield new_state
            if self.status != "running":
                return
        self.status = "completed"



# ---------------------------------------------------------------------------
# bandwidth comparison


@dataclass(frozen=True)
class MonotonicityCheck:
    lhs: float
    rhs: float
    passed: bool


def approx_monotonicity_check(
    chi: PhaseField, h: float, h0: float
) -> MonotonicityCheck:
    """Check E_h >= (sqrt h0 / (sqrt h + sqrt h0))^(d+1) E_h0 for h <= h0.

    The energy is almost monotone under bandwidth refinement; the prefactor
    approaches 1/2^(d+1) at h = h0 and 1 as h -> 0.  Passing tolerance is
    a relative 1e-6 on the right-hand side.  Both energies are the ones a
    plain run's :class:`LedgerWalk` takes of ``chi``.
    """
    if not 0 < h <= h0:
        raise ValueError(f"need 0 < h <= h0, got h={h}, h0={h0}")
    d = chi.grid.dim
    lhs, energy_h0 = (
        LedgerWalk(SchemeConfig("mbo", chi.grid, b, 0), chi).energy for b in (h, h0)
    )
    factor = (math.sqrt(h0) / (math.sqrt(h) + math.sqrt(h0))) ** (d + 1)
    rhs = factor * energy_h0
    return MonotonicityCheck(lhs, rhs, lhs >= rhs * (1.0 - 1e-6))
