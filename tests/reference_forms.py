"""Full-grid reference forms and test-side probes that the package's own
paths are tested against.

No scheme step and no audit calls these: ``diagnostics.LedgerWalk`` computes
the dissipation of runs and audits on the changed cells only, and
``schemes.step_grain_growth`` folds the comparison fields only on the cells
it cannot certify.  They keep the textbook definitions as independent
oracles, built from public ``mbokit`` names alone.  Next to them sit the
probes no command reads: every label smoothed whole, the bandwidth
monotonicity check of the energy (C9) and the triple-junction angles (C8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mbokit.diagnostics import GrainSummary, LedgerWalk, tension_rows
from mbokit.grid import Grid, MultiPhaseState, PhaseField, RealField
from mbokit.kernel import HeatKernelPlan, convolve
from mbokit.schemes import SchemeConfig, SurfaceTensionMatrix
from mbokit.threshold import select_bottom_cells


def plain_tension_rows(ext: np.ndarray, fields) -> list[np.ndarray]:
    """Every row sum over j of ext[i, j] * fields[j], each folded from +0.0
    in j order (weights of 1 add the field itself, weights of 0 nothing):
    the fold ``tension_rows`` must reproduce bit for bit."""
    rows = []
    for i in range(len(fields)):
        acc = np.zeros_like(fields[0])
        for j, f in enumerate(fields):
            if ext[i, j] == 1.0:
                acc += f
            elif ext[i, j] != 0.0:
                acc += np.multiply(ext[i, j], f)
        rows.append(acc)
    return rows


def full_multipliers(grid: Grid, h: float) -> np.ndarray:
    """``exp(-h |k|^2)`` over every row of the real-to-complex spectrum,
    ``|k|^2`` summed from zero in spatial axis order: the array a plan's
    mirrored multiply must reproduce bit for bit."""
    k2 = np.zeros(grid.shape[:-1] + (grid.n // 2 + 1,))
    for k in range(grid.dim):
        f = np.fft.rfftfreq if k == 0 else np.fft.fftfreq
        shape = [1] * grid.dim
        shape[grid.dim - 1 - k] = -1
        k2 = k2 + (2.0 * np.pi * f(grid.n, d=grid.dx)).reshape(shape) ** 2
    return np.exp(-h * k2)


def phase_difference(a: PhaseField, b: PhaseField) -> RealField:
    """Signed difference a - b as a real field with values in {-1, 0, 1}."""
    if a.grid != b.grid:
        raise ValueError("phase fields live on different grids")
    return RealField(a.grid, a.as_float() - b.as_float())


def dissipation_two_phase(
    omega: RealField,
    h: float,
    *,
    plan: HeatKernelPlan | None = None,
) -> float:
    """Dissipation (1/sqrt h) * integral of omega G_h omega, nonnegative.

    ``omega`` must take values in {-1, 0, 1} (a difference of indicators).
    Positivity holds because the kernel has a positive transform, so tiny
    negative rounding is the worst that can appear.
    """
    vals = omega.values
    if not np.isin(vals, (-1.0, 0.0, 1.0)).all():
        raise ValueError("omega must take values in {-1, 0, 1}")
    if plan is None:
        plan = HeatKernelPlan(omega.grid, h)
    products = vals * plan.apply(vals)
    return float(products.sum()) * omega.grid.cell_volume / math.sqrt(h)


def linearized_energy(
    phi: RealField, chi: PhaseField, threshold: float, h: float
) -> float:
    """Linear comparison functional whose pointwise minimizer is the update.

    Equals (1/sqrt h) * integral of (1-chi) phi + chi (2*threshold - phi).
    Among all cell sets of the same volume it is minimized exactly by the
    superlevel selection of ``phi`` at ``threshold``, which is how the
    volume-preserving step is defined.
    """
    if phi.grid != chi.grid:
        raise ValueError("phi and chi live on different grids")
    c = chi.as_float()
    values = (1.0 - c) * phi.values + c * (2.0 * threshold - phi.values)
    return float(values.sum()) * chi.grid.cell_volume / math.sqrt(h)


def dissipation_multiphase(
    omega: np.ndarray,
    grid: Grid,
    tensions: SurfaceTensionMatrix,
    h: float,
    *,
    plan: HeatKernelPlan | None = None,
) -> float:
    """Dissipation of a partition increment: minus its quadratic energy.

    ``omega`` stacks the per-label indicator differences (vapor first) and
    must sum to zero across labels in every cell.  The extended tension
    matrix is negative definite on that zero-sum subspace while the kernel
    has a positive transform, so the value is nonnegative up to rounding.
    """
    p = tensions.num_grains
    if omega.shape != (p + 1,) + grid.shape:
        raise ValueError(f"omega shape {omega.shape} does not match state layout")
    if not np.isin(omega, (-1, 0, 1)).all():
        raise ValueError("omega entries must lie in {-1, 0, 1}")
    if omega.sum(axis=0, dtype=np.int64).any():
        raise ValueError("omega must sum to zero across labels in every cell")
    if plan is None:
        plan = HeatKernelPlan(grid, h)
    w = omega.astype(np.float64)
    rows = tension_rows(tensions.extended, [plan.apply(w[j]) for j in range(p + 1)])
    total = sum(float((w[i] * row).sum()) for i, row in enumerate(rows))
    return -total * grid.cell_volume / math.sqrt(h)


def full_stack_grain_step(
    state: MultiPhaseState, smoothed, tensions: SurfaceTensionMatrix
) -> tuple[MultiPhaseState, float]:
    """The grain-growth step over every cell from all p+1 smoothed labels
    ``smoothed`` (vapor first): every comparison row folded by
    ``tension_rows``, a running minimum over the grains (lowest label on
    ties) and a bottom selection of phi_best - phi_vapor keeping the solid
    cell count.  ``step_grain_growth`` must give its labels and cut bit for
    bit."""
    rows = tension_rows(tensions.extended, smoothed)
    phi_vapor, phi_best = next(rows).copy(), next(rows).copy()
    best = np.ones(state.grid.shape, dtype=np.int32)
    for i, row in enumerate(rows, start=2):
        lower = row < phi_best
        np.copyto(phi_best, row, where=lower)
        np.copyto(best, i, where=lower)
    scores = RealField(state.grid, phi_best - phi_vapor)
    sel = select_bottom_cells(scores, state.solid_cell_count)
    labels = np.where(sel.mask.mask, best, 0)
    return MultiPhaseState(state.grid, labels, state.num_grains), float(sel.threshold)


def stack_source(smoothed):
    """The summary and the gather a run's ledger walk hands
    ``step_grain_growth``, made from a list of smoothed labels held whole."""

    def gather(cells: np.ndarray) -> np.ndarray:
        return np.stack([f.ravel()[cells] for f in smoothed])

    summary = GrainSummary(smoothed[0].shape, len(smoothed) - 1)
    for j in [*range(1, len(smoothed)), 0]:  # the grains, then the vapor
        summary.fold(j, smoothed[j])
    return summary, gather


def full_stack_step(state: MultiPhaseState, summary, gather, tensions):
    """:func:`full_stack_grain_step` in the call form of
    ``step_grain_growth``: every smoothed label is gathered on every cell,
    so a run's walk holds the whole stack and takes its ledger's old values
    from it."""
    values = gather(np.arange(state.grid.total_cells))
    smoothed = [v.reshape(state.grid.shape) for v in values]
    return full_stack_grain_step(state, smoothed, tensions)


def convolve_labels(plan: HeatKernelPlan, state: MultiPhaseState) -> list[np.ndarray]:
    """Clamped smoothed indicator of every label of a partition, vapor first."""
    return [
        convolve(plan, state.indicator(j)).values for j in range(state.num_grains + 1)
    ]


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
        LedgerWalk(SchemeConfig("mbo", chi.grid, b, 0), chi, chi).energy
        for b in (h, h0)
    )
    factor = (math.sqrt(h0) / (math.sqrt(h) + math.sqrt(h0))) ** (d + 1)
    rhs = factor * energy_h0
    return MonotonicityCheck(lhs, rhs, lhs >= rhs * (1.0 - 1e-6))


def junction_angles(
    state: MultiPhaseState,
    window: tuple[Sequence[float], Sequence[float]],
    exclusion_cells: float = 3.0,
) -> tuple[float, ...]:
    """Opening angles at a triple junction between three grains, in degrees.

    Within the given window (a coordinate box (lo, hi)) there must be
    exactly one junction where three grain labels meet.  For each label
    pair, the interface direction is fit by principal components through
    the midpoints of cell faces separating the two grains, skipping a disk
    of ``exclusion_cells * dx`` around the junction where the arms blur
    into each other.  Returns the three angles between consecutive arms,
    which sum to 360 by construction.
    """
    grid = state.grid
    if grid.dim != 2:
        raise ValueError("junction fitting is two-dimensional")
    lo, hi = (tuple(map(float, p)) for p in window)
    labels = state.labels

    def in_window(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x >= lo[0]) & (x < hi[0]) & (y >= lo[1]) & (y < hi[1])

    # corner points where 2x2 cell blocks carry 3 or more distinct grains
    blocks = np.stack(
        [labels, np.roll(labels, -1, 1), np.roll(labels, -1, 0),
         np.roll(np.roll(labels, -1, 0), -1, 1)]
    )
    distinct = np.zeros(grid.shape, dtype=np.int32)
    solid_block = (blocks > 0).all(axis=0)
    for lab in range(1, state.num_grains + 1):
        distinct += (blocks == lab).any(axis=0)
    corner_x = grid.coordinate(0) + 0.5 * grid.dx  # corner shared by the block
    corner_y = grid.coordinate(1) + 0.5 * grid.dx
    cx = np.broadcast_to(corner_x, grid.shape)
    cy = np.broadcast_to(corner_y, grid.shape)
    hits = (distinct >= 3) & solid_block & in_window(cx, cy)
    if not hits.any():
        raise ValueError("no triple junction inside the window")
    jx, jy = float(cx[hits].mean()), float(cy[hits].mean())
    spread = np.hypot(cx[hits] - jx, cy[hits] - jy)
    if spread.max() > 4.0 * grid.dx:
        raise ValueError("window contains more than one junction cluster")

    present = sorted({int(v) for v in np.unique(blocks[:, hits]) if v > 0})
    if len(present) != 3:
        raise ValueError(f"expected 3 grains at the junction, found {present}")

    directions: dict[tuple[int, int], float] = {}
    for a_idx in range(3):
        for b_idx in range(a_idx + 1, 3):
            a, b = present[a_idx], present[b_idx]
            pts = []
            for axis in (0, 1):
                nb = np.roll(labels, -1, axis=1 - axis)  # neighbor along spatial axis
                pair = ((labels == a) & (nb == b)) | ((labels == b) & (nb == a))
                px = np.broadcast_to(grid.coordinate(0), grid.shape)[pair].copy()
                py = np.broadcast_to(grid.coordinate(1), grid.shape)[pair].copy()
                if axis == 0:
                    px += 0.5 * grid.dx
                else:
                    py += 0.5 * grid.dx
                keep = in_window(px, py)
                dist = np.hypot(px - jx, py - jy)
                keep &= dist > exclusion_cells * grid.dx
                pts.append(np.column_stack([px[keep], py[keep]]))
            cloud = np.vstack(pts)
            if cloud.shape[0] < 3:
                raise ValueError(f"too few interface points for grains {a},{b}")
            rel = cloud - [jx, jy]
            u, _s, _v = np.linalg.svd(rel - rel.mean(axis=0), full_matrices=False)
            direction = _v[0]
            if direction @ rel.mean(axis=0) < 0:
                direction = -direction
            directions[(a, b)] = math.atan2(direction[1], direction[0])

    arms = sorted(directions.values())
    angles = [
        math.degrees((arms[(i + 1) % 3] - arms[i]) % (2.0 * math.pi))
        for i in range(3)
    ]
    return tuple(angles)
