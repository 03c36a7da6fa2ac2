"""Full-grid reference forms and test-side probes that the package's own
paths are tested against.

No scheme step and no audit calls these: ``diagnostics.LedgerWalk`` computes
the dissipation of runs and audits on the changed cells only, and
``schemes.step_grain_growth`` folds the comparison fields only on the cells
it cannot certify.  They keep the textbook definitions as independent
oracles, built from public ``mbokit`` names alone.  Next to them sit the
probes no command reads: every label smoothed whole, the bandwidth
monotonicity check of the energy (C9), the support-growth monitor, the
triple-junction angles (C8), and the stationarity probes (C10): inner
variations of energy and dissipation along a test vector field, whose
weighted sum is the discrete Euler-Lagrange residual of a step.  Their
spectral derivatives run on a plan's public ``forward``/``multiply``/
``inverse``, with derivative factors built from ``np.fft`` as
:func:`full_multipliers` builds its table.  :func:`_periodic_gaussian`, the
blob filter computed exactly everywhere, is the oracle of
``grid.random_blob``, which computes it only where its approximation
cannot place a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from mbokit.diagnostics import GOOD_ITERATION_BAND, GrainSummary, LedgerWalk
from mbokit.grid import Grid, MultiPhaseState, PhaseField
from mbokit.kernel import HeatKernelPlan, convolve
from mbokit.schemes import SchemeConfig, Stepper, SurfaceTensionMatrix
from mbokit.threshold import select_bottom_cells


# A filter pass works on blocks of whole lines: about 2^15 output cells,
# and at most 2^18 cells once wrap-padded, however far the kernel reaches.
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


def plain_tension_rows(ext: np.ndarray, fields):
    """Yield every row sum over j of ext[i, j] * fields[j], each a new
    array folded from +0.0 in j order (weights of 1 add the field itself,
    weights of 0 nothing): the fold ``tension_row`` must reproduce bit for
    bit."""
    for i in range(len(fields)):
        acc = np.zeros_like(fields[0])
        for j, f in enumerate(fields):
            if ext[i, j] == 1.0:
                acc += f
            elif ext[i, j] != 0.0:
                acc += np.multiply(ext[i, j], f)
        yield acc


def forced_step_field_form(
    chi: PhaseField, smoothed: np.ndarray, f: float, h: float
) -> PhaseField:
    """The forced step thresholded against a full grid of the constant force
    ``f``, as ``step_forced`` once read it: its scalar threshold must give
    these bits."""
    c = math.sqrt(h) / (2.0 * math.sqrt(math.pi))
    return PhaseField(chi.grid, smoothed > 0.5 - np.full(chi.grid.shape, f) * c)


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


def phase_difference(a: PhaseField, b: PhaseField) -> np.ndarray:
    """Signed difference a - b as a float array with values in {-1, 0, 1}."""
    if a.grid != b.grid:
        raise ValueError("phase fields live on different grids")
    return a.as_float() - b.as_float()


def dissipation_two_phase(
    omega: np.ndarray, h: float, *, plan: HeatKernelPlan
) -> float:
    """Dissipation (1/sqrt h) * integral of omega G_h omega, nonnegative.

    ``omega`` must take values in {-1, 0, 1} (a difference of indicators).
    Positivity holds because the kernel has a positive transform, so tiny
    negative rounding is the worst that can appear.  ``omega`` lives on
    the grid of ``plan``.
    """
    if not np.isin(omega, (-1.0, 0.0, 1.0)).all():
        raise ValueError("omega must take values in {-1, 0, 1}")
    products = omega * plan.apply(omega)
    return float(products.sum()) * plan.grid.cell_volume / math.sqrt(h)


def linearized_energy(
    phi: np.ndarray, chi: PhaseField, threshold: float, h: float
) -> float:
    """Linear comparison functional whose pointwise minimizer is the update.

    Equals (1/sqrt h) * integral of (1-chi) phi + chi (2*threshold - phi).
    Among all cell sets of the same volume it is minimized exactly by the
    superlevel selection of ``phi`` at ``threshold``, which is how the
    volume-preserving step is defined.
    """
    if phi.shape != chi.grid.shape:
        raise ValueError("phi and chi have different shapes")
    c = chi.as_float()
    values = (1.0 - c) * phi + c * (2.0 * threshold - phi)
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
    smoothed = [plan.apply(w[j]) for j in range(p + 1)]
    rows = plain_tension_rows(tensions.extended, smoothed)
    total = sum(float((w[i] * row).sum()) for i, row in enumerate(rows))
    return -total * grid.cell_volume / math.sqrt(h)


def full_stack_grain_step(
    state: MultiPhaseState, smoothed, tensions: SurfaceTensionMatrix
) -> tuple[MultiPhaseState, float]:
    """The grain-growth step over every cell from all p+1 smoothed labels
    ``smoothed`` (vapor first): every comparison row folded by
    :func:`plain_tension_rows`, a running minimum over the grains (lowest
    label on ties) and a bottom selection of phi_best - phi_vapor keeping
    the solid cell count.  ``step_grain_growth`` must give its labels and
    cut bit for bit."""
    rows = plain_tension_rows(tensions.extended, smoothed)
    phi_vapor, phi_best = next(rows), next(rows)
    best = np.ones(state.grid.shape, dtype=np.int32)
    for i, row in enumerate(rows, start=2):
        lower = row < phi_best
        np.copyto(phi_best, row, where=lower)
        np.copyto(best, i, where=lower)
    scores = (phi_best - phi_vapor).reshape(-1)
    mask, cut = select_bottom_cells(scores, state.solid_cell_count)
    labels = np.where(mask.reshape(state.grid.shape), best, 0)
    return MultiPhaseState(state.grid, labels, state.num_grains), float(cut)


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
    return [convolve(plan, state.indicator(j)) for j in range(state.num_grains + 1)]


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


# Distance C with  integral_0^C of the unit-bandwidth 1-d kernel = 1/4,
# i.e. erf(C/2) = 1/2, so C = 2 erfinv(1/2).  Within one good iteration the
# support radius can grow by at most C*sqrt(h) plus a multiplier term with
# slope 1/G1(C).
TIGHTNESS_REACH = 0.9538725524089398
_KERNEL_AT_REACH = float((4.0 * np.pi) ** -0.5 * np.exp(-(TIGHTNESS_REACH**2) / 4.0))
TIGHTNESS_SLOPE = 1.0 / _KERNEL_AT_REACH


@dataclass(frozen=True)
class TightnessReport:
    reach: float
    slope: float
    cell_allowance: float
    checked_steps: int
    good_violations: tuple[int, ...]
    tripling_violations: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not (self.good_violations or self.tripling_violations)


def tightness_monitor(stepper: Stepper) -> TightnessReport:
    """Check how fast the support radius grows, step by step.

    On good iterations the radius may grow by at most the smaller of
    ``TIGHTNESS_REACH * sqrt(h)`` and ``TIGHTNESS_SLOPE * sqrt(h) * |lambda
    - 1/2|`` (the half-space comparison yields both); any iteration may at
    worst triple it.  Grid quantization gets one cell diagonal of
    allowance.  This is a monitor: violations are reported, never raised.
    ``stepper`` is a :class:`Stepper` that has run.
    """
    cfg = stepper.config
    records = stepper.records
    if any(r.lam is None or r.bounding_radius is None for r in records):
        raise ValueError("tightness monitor needs recorded lambda and radius")
    sqrt_h = math.sqrt(cfg.h)
    allowance = math.sqrt(cfg.grid.dim) * cfg.grid.dx
    good_bad: list[int] = []
    tripling_bad: list[int] = []
    prev_radius = stepper.initial_radius
    for rec in records:
        growth = rec.bounding_radius - prev_radius
        offset = abs(rec.lam - 0.5)
        if offset < GOOD_ITERATION_BAND:
            bound = sqrt_h * min(TIGHTNESS_REACH, TIGHTNESS_SLOPE * offset)
            if growth > bound + allowance:
                good_bad.append(rec.step)
        if rec.bounding_radius > 3.0 * prev_radius + allowance:
            tripling_bad.append(rec.step)
        prev_radius = rec.bounding_radius
    return TightnessReport(
        TIGHTNESS_REACH,
        TIGHTNESS_SLOPE,
        allowance,
        len(records),
        tuple(good_bad),
        tuple(tripling_bad),
    )


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


# ---------------------------------------------------------------------------
# stationarity probes: inner variations of energy and dissipation


def _cellsum(grid: Grid, values: np.ndarray) -> float:
    return float(values.sum()) * grid.cell_volume


def state_difference(a: MultiPhaseState, b: MultiPhaseState) -> np.ndarray:
    """Per-label indicator difference a - b, shape (num_grains+1, *grid)."""
    if a.grid != b.grid or a.num_grains != b.num_grains:
        raise ValueError("states are not comparable")
    out = np.empty((a.num_grains + 1,) + a.grid.shape, dtype=np.int8)
    for i in range(a.num_grains + 1):
        out[i] = (a.labels == i).astype(np.int8) - (b.labels == i).astype(np.int8)
    return out


def derivative_factors(grid: Grid) -> tuple[np.ndarray, ...]:
    """The first-derivative multipliers ``i k_j`` over the real-to-complex
    spectrum, in spatial axis order, built from ``np.fft`` as
    :func:`full_multipliers` builds its table, with the Nyquist modes
    zeroed: that keeps the derivative kernel odd, so gradients of real
    fields stay real and antisymmetry is exact."""
    nyquist = np.pi * grid.n / grid.side
    factors = []
    for k in range(grid.dim):
        f = np.fft.rfftfreq if k == 0 else np.fft.fftfreq
        shape = [1] * grid.dim
        shape[grid.dim - 1 - k] = -1
        freq = (2.0 * np.pi * f(grid.n, d=grid.dx)).reshape(shape)
        freq[np.isclose(np.abs(freq), nyquist)] = 0.0
        factors.append(1j * freq)
    return tuple(factors)


def gradient_component(
    plan: HeatKernelPlan, values: np.ndarray, axis: int
) -> np.ndarray:
    """Component ``axis`` of the gradient of the smoothed raw array, on the
    plan's public transform route."""
    spectrum = plan.multiply(plan.forward(values, plan.empty_spectrum()))
    spectrum *= derivative_factors(plan.grid)[axis]
    return plan.inverse(spectrum, clamp=False)


def spectral_divergence(grid: Grid, components: Sequence[np.ndarray]) -> np.ndarray:
    """Divergence of a smooth vector field by spectral differentiation, on
    the transforms of a plan of the grid whose bandwidth is never applied
    (``side**2`` only keeps it from warning)."""
    plan = HeatKernelPlan(grid, grid.side**2)
    if len(components) != grid.dim:
        raise ValueError(f"need {grid.dim} components, got {len(components)}")
    factors = derivative_factors(grid)
    out = np.zeros(grid.shape)
    for k in range(grid.dim):
        spec = plan.forward(components[k], plan.empty_spectrum())
        spec *= factors[k]
        out += plan.inverse(spec, clamp=False)
    return out


@dataclass(frozen=True)
class TestVectorField:
    """Smooth periodic vector field used to probe stationarity."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.grid.dim:
            raise ValueError("one component per spatial axis required")
        comps = tuple(
            np.ascontiguousarray(np.asarray(c, dtype=np.float64))
            for c in self.components
        )
        for c in comps:
            if c.shape != self.grid.shape:
                raise ValueError("component shape does not match grid")
        object.__setattr__(self, "components", comps)

    @cached_property
    def divergence(self) -> np.ndarray:
        return spectral_divergence(self.grid, self.components)


def constant_vector_field(grid: Grid, direction: Sequence[float]) -> TestVectorField:
    """Spatially constant field; its divergence vanishes identically."""
    if len(direction) != grid.dim:
        raise ValueError("direction dimension does not match grid")
    comps = tuple(np.full(grid.shape, float(d)) for d in direction)
    return TestVectorField(grid, comps)


def radial_bump_field(
    grid: Grid, center: Sequence[float], r0: float, width: float
) -> TestVectorField:
    """Radial field g(r) e_r with a Gaussian bump g at radius r0.

    The bump must decay before the torus seam (keep r0 plus a few widths
    below half the side) so the field is smooth as a periodic function.
    """
    d2 = grid.periodic_distance_sq(center)
    r = np.sqrt(d2)
    g = np.exp(-(((r - r0) / width) ** 2))
    scale = g / np.maximum(r, 1e-12)
    comps = []
    for k in range(grid.dim):
        delta = grid.wrap_delta(grid.coordinate(k) - center[k])
        comps.append(scale * np.broadcast_to(delta, grid.shape))
    return TestVectorField(grid, tuple(comps))


def first_variation_energy(chi: PhaseField, xi: TestVectorField, h: float) -> float:
    """Inner variation of the two-phase energy along the flow of ``xi``.

    Uses the divergence form in which every term is a kernel convolution of
    a bounded field, so no derivative of the indicator is ever needed:

        (1/sqrt h) * integral of
            xi . (1-chi) grad(G chi)  -  (1-chi) gradG . (xi chi)
          + div(xi) (1-chi) (G chi)   +  (1-chi) G(div(xi) chi)
    """
    plan = HeatKernelPlan(chi.grid, h)
    g = chi.grid
    c = chi.as_float()
    outside = 1.0 - c
    div = xi.divergence
    smooth = plan.apply(c)
    t1 = np.zeros(g.shape)
    t2 = np.zeros(g.shape)
    for k in range(g.dim):
        t1 += xi.components[k] * gradient_component(plan, c, k)
        t2 += gradient_component(plan, xi.components[k] * c, k)
    total = outside * (t1 - t2) + div * outside * smooth + outside * plan.apply(div * c)
    return _cellsum(g, total) / math.sqrt(h)


def first_variation_dissipation(
    chi1: PhaseField, chi0: PhaseField, xi: TestVectorField, h: float
) -> float:
    """Inner variation of the dissipation term at the updated phase.

    Equals (2/sqrt h) * integral of chi1 xi . grad(G (chi1-chi0)) +
    div(xi) chi1 G (chi1-chi0).  Flowing the update further away from its
    predecessor increases the dissipation, so for a pure translation flow
    past a just-translated state this comes out positive.
    """
    plan = HeatKernelPlan(chi1.grid, h)
    g = chi1.grid
    omega = chi1.as_float() - chi0.as_float()
    c1 = chi1.as_float()
    adv = np.zeros(g.shape)
    for k in range(g.dim):
        adv += xi.components[k] * gradient_component(plan, omega, k)
    total = c1 * adv + xi.divergence * c1 * plan.apply(omega)
    return 2.0 * _cellsum(g, total) / math.sqrt(h)


def _weighted_variation_terms(
    labels: np.ndarray,
    fields: Sequence[np.ndarray],
    tensions: SurfaceTensionMatrix,
    xi: TestVectorField,
    h: float,
) -> float:
    """Sum over labels j of  w_j xi . grad(G f_j) + div(xi) w_j (G f_j)
    with weights w_j(x) = extended_sigma[label(x), j]."""
    g = xi.grid
    plan = HeatKernelPlan(g, h)
    ext = tensions.extended
    total = np.zeros(g.shape)
    div = xi.divergence
    for j in range(tensions.num_grains + 1):
        w = ext[labels, j]
        adv = np.zeros(g.shape)
        for k in range(g.dim):
            adv += xi.components[k] * gradient_component(plan, fields[j], k)
        total += w * adv + div * w * plan.apply(fields[j])
    return float(total.sum()) * g.cell_volume


def first_variation_energy_multiphase(
    state: MultiPhaseState,
    tensions: SurfaceTensionMatrix,
    xi: TestVectorField,
    h: float,
) -> float:
    """Inner variation of the multiphase energy along ``xi``."""
    fields = [state.indicator(j).as_float() for j in range(state.num_grains + 1)]
    raw = _weighted_variation_terms(state.labels, fields, tensions, xi, h)
    return 2.0 * raw / math.sqrt(h)


def first_variation_dissipation_multiphase(
    state1: MultiPhaseState,
    state0: MultiPhaseState,
    tensions: SurfaceTensionMatrix,
    xi: TestVectorField,
    h: float,
) -> float:
    """Inner variation of the quadratic increment energy at the update."""
    omega = state_difference(state1, state0).astype(np.float64)
    fields = [omega[j] for j in range(state1.num_grains + 1)]
    raw = _weighted_variation_terms(state1.labels, fields, tensions, xi, h)
    return 2.0 * raw / math.sqrt(h)


def euler_lagrange_residual(
    chi1: PhaseField, chi0: PhaseField, lam: float, xi: TestVectorField, h: float
) -> float:
    """Stationarity residual of a volume-preserving step against ``xi``.

    Sums the energy variation, the dissipation variation, and the volume
    multiplier term ((2 lam - 1)/sqrt h) * integral of div(xi) chi1.  The
    exact continuum minimizer makes this vanish; on a grid it is a
    discretization monitor that should shrink under refinement.
    """
    g = chi1.grid
    multiplier = (2.0 * lam - 1.0) / math.sqrt(h)
    volume_term = multiplier * _cellsum(g, xi.divergence * chi1.as_float())
    return (
        first_variation_energy(chi1, xi, h)
        + first_variation_dissipation(chi1, chi0, xi, h)
        + volume_term
    )


def euler_lagrange_residual_forced(
    chi1: PhaseField,
    chi0: PhaseField,
    force_now: np.ndarray,
    xi: TestVectorField,
    h: float,
) -> float:
    """Stationarity residual of a forced step against ``xi``.

    The multiplier term is replaced by the force coupling
    -(1/sqrt pi) * integral of div(f xi) chi1, with the product divergence
    computed spectrally from the sampled force.
    """
    g = chi1.grid
    fxi = tuple(force_now * c for c in xi.components)
    div_fxi = spectral_divergence(g, fxi)
    force_term = -_cellsum(g, div_fxi * chi1.as_float()) / math.sqrt(math.pi)
    return (
        first_variation_energy(chi1, xi, h)
        + first_variation_dissipation(chi1, chi0, xi, h)
        + force_term
    )


def euler_lagrange_residual_grain_growth(
    state1: MultiPhaseState,
    state0: MultiPhaseState,
    lam: float,
    tensions: SurfaceTensionMatrix,
    xi: TestVectorField,
    h: float,
) -> float:
    """Stationarity residual of a grain-growth step against ``xi``."""
    g = state1.grid
    solid1 = (state1.labels > 0).astype(np.float64)
    volume_term = (2.0 * lam / math.sqrt(h)) * _cellsum(g, xi.divergence * solid1)
    return (
        first_variation_energy_multiphase(state1, tensions, xi, h)
        - first_variation_dissipation_multiphase(state1, state0, tensions, xi, h)
        - volume_term
    )
