"""Energies, the energy ledger, audit checks, and variational residuals.

The thresholding schemes in this package are implicit descent steps for a
nonlocal interfacial energy.  This module computes that energy and walks
the per-step energy ledger, whose dissipation it sums over the changed
cells only.  On top of those it provides audit tools: the scaling
statistic of the volume multiplier and its log-log fit, a support-growth
monitor, and inner variations of energy and dissipation whose weighted sum
is the discrete stationarity residual of a step.

All integrals are plain cell sums times the cell volume.  Quantities that
are exact by construction are checked at tolerances near machine rounding;
quantities limited by discretization get tolerances in the 1e-3 to 5e-2
range, stated where they are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .grid import Grid, MultiPhaseState, PhaseField, RealField
from .kernel import HeatKernelPlan, convolve, convolve_labels, spectral_divergence

if TYPE_CHECKING:  # only for annotations; no runtime dependency on schemes
    from .schemes import SchemeConfig, Stepper, SurfaceTensionMatrix

# A step is a "good iteration" when its volume multiplier stays within
# this band of its resting value (1/2 for two-phase, 0 for grain growth).
GOOD_ITERATION_BAND = 0.25

# Distance C with  integral_0^C of the unit-bandwidth 1-d kernel = 1/4,
# i.e. erf(C/2) = 1/2, so C = 2 erfinv(1/2).  Within one good iteration the
# support radius can grow by at most C*sqrt(h) plus a multiplier term with
# slope 1/G1(C).
TIGHTNESS_REACH = 0.9538725524089398
_KERNEL_AT_REACH = float((4.0 * np.pi) ** -0.5 * np.exp(-(TIGHTNESS_REACH**2) / 4.0))
TIGHTNESS_SLOPE = 1.0 / _KERNEL_AT_REACH

# Ledger slack below -1e-9 times the energy scale counts as a violation,
# as does any ledger value that is not finite.
LEDGER_RTOL = 1e-9


def _cellsum(grid: Grid, values: np.ndarray) -> float:
    return float(values.sum()) * grid.cell_volume


@dataclass(frozen=True)
class LedgerRow:
    """Energy ledger of one step.

    ``slack`` is energy_before - energy_after - dissipation + transfer, where
    ``transfer`` is the forcing term (0.0 without a force); descent steps
    keep it nonnegative up to rounding.
    """

    step: int
    energy_before: float
    energy_after: float
    dissipation: float
    transfer: float
    slack: float


@dataclass(frozen=True)
class StepRecord(LedgerRow):
    """Ledger row of one scheme step plus the run's bookkeeping.

    ``lam`` is the selection threshold for volume-preserving steps, the
    score cut for grain growth, and None for plain and forced thresholding.
    """

    time: float
    lam: float | None
    bounding_radius: float | None
    good_iteration: bool | None


# ---------------------------------------------------------------------------
# two-phase energy pieces


def energy_two_phase(chi: PhaseField, smoothed: RealField, h: float) -> float:
    """Interfacial energy (1/sqrt h) * integral of (1-chi) G_h chi.

    ``smoothed`` is G_h chi, as :func:`convolve` returns it.  Scales like
    perimeter / sqrt(pi) once the interface is resolved; a flat interface
    contributes exactly 1/sqrt(pi) per unit length in the limit.
    """
    return _cellsum(chi.grid, ~chi.mask * smoothed.values) / math.sqrt(h)


# ---------------------------------------------------------------------------
# multiphase energy pieces


def tension_rows(ext: np.ndarray, fields: Sequence[np.ndarray]):
    """Yield sum over j of ext[i, j] * fields[j] for each label i, in j order.

    One buffer holds every row in turn; copy a row to keep it.  Weights of
    exactly 1 add ``f`` itself, which is the same sum without the multiply.
    """
    acc, term = np.empty_like(fields[0]), np.empty_like(fields[0])
    for i in range(len(fields)):
        acc.fill(0.0)
        for j, f in enumerate(fields):
            if ext[i, j] == 1.0:
                acc += f
            elif ext[i, j] != 0.0:
                acc += np.multiply(ext[i, j], f, out=term)
        yield acc


def energy_multiphase(
    state: MultiPhaseState,
    smoothed: Sequence[np.ndarray],
    h: float,
    tensions: "SurfaceTensionMatrix",
) -> float:
    """Weighted interfacial energy of a vapor/grain partition.

    ``smoothed`` holds the smoothed indicators, vapor first, as
    :func:`convolve_labels` returns them.  Grain pairs are weighted by their
    surface tension; the vapor boundary carries weight 1, entering twice
    because the functional sums both orientations of that interface.
    """
    if tensions.num_grains != state.num_grains:
        raise ValueError("tension matrix size does not match state")
    p = state.num_grains
    labels = state.labels.ravel()
    # overlap[i, j] = sum over cells of label i of smoothed label j
    overlap = np.empty((p + 1, p + 1))
    for j, psi in enumerate(smoothed):
        overlap[:, j] = np.bincount(labels, weights=psi.ravel(), minlength=p + 1)
    grain_part = float(np.sum(tensions.sigma * overlap[1:, 1:]))
    vapor_part = 2.0 * float(np.sum(overlap[1:, 0]))
    return (grain_part + vapor_part) * state.grid.cell_volume / math.sqrt(h)


def state_difference(a: MultiPhaseState, b: MultiPhaseState) -> np.ndarray:
    """Per-label indicator difference a - b, shape (num_grains+1, *grid)."""
    if a.grid != b.grid or a.num_grains != b.num_grains:
        raise ValueError("states are not comparable")
    out = np.empty((a.num_grains + 1,) + a.grid.shape, dtype=np.int8)
    for i in range(a.num_grains + 1):
        out[i] = (a.labels == i).astype(np.int8) - (b.labels == i).astype(np.int8)
    return out


# ---------------------------------------------------------------------------
# ledger and multiplier statistics


@dataclass(frozen=True)
class LedgerReport:
    rows: tuple[LedgerRow, ...]
    passed: bool
    first_violation: int | None
    tolerance: float


class LedgerWalk:
    """The energy ledger along consecutive states under ``config``.

    Holds the newest ``state``, its clamped smoothed fields ``smoothed``
    (as :func:`convolve` or :func:`convolve_labels` returns them, which a
    step map reads) and its ``energy`` (:func:`energy_two_phase` or, for
    grain growth, :func:`energy_multiphase` of those fields).
    :meth:`advance` moves to the next state and returns the step's row.
    Runs and audits both walk their states through here, so an audit of
    untouched states reproduces the run's rows bit for bit, and at most two
    states and one set of smoothed fields are alive.
    """

    def __init__(
        self, config: "SchemeConfig", state: PhaseField | MultiPhaseState
    ) -> None:
        self.config = config
        self.plan = HeatKernelPlan(config.grid, config.h)
        if config.scheme == "grain_growth":
            self._smooth = convolve_labels
            self._energy = partial(energy_multiphase, tensions=config.tensions)
        else:
            self._smooth, self._energy = convolve, energy_two_phase
        self.state = state
        self.smoothed = self._smooth(self.plan, state)
        self.energy = self._energy(state, self.smoothed, config.h)
        self.changed = np.empty(0, dtype=np.intp)

    def advance(
        self,
        step: int,
        cur: PhaseField | MultiPhaseState,
        force_now: RealField | None = None,
    ) -> LedgerRow:
        """Ledger row of the step from ``state`` to ``cur``, then move to ``cur``.

        ``changed`` becomes the flat row-major indices of the cells whose
        label changed.  By linearity of the kernel the dissipation needs no
        convolution of its own: it pairs omega = cur - prev with G cur -
        G prev, and omega is zero off the changed cells.  So the old
        smoothed fields are cut down to those cells before ``cur`` is
        smoothed, and the dissipation (tension rows for a partition) and
        the forcing transfer are scattered into a zero field and summed
        there, bit for bit the full-grid sums.  Forced steps pass the force
        at the target time.
        """
        cfg, prev = self.config, self.state
        grid, h = cfg.grid, cfg.h
        multiphase = isinstance(cur, MultiPhaseState)
        if multiphase:
            cells = np.flatnonzero(cur.labels != prev.labels)
            before = [f.ravel()[cells] for f in self.smoothed]
        else:
            cells = np.flatnonzero(cur.mask != prev.mask)
            before = self.smoothed.values.ravel()[cells]
        self.smoothed = None  # drop the old fields before smoothing cur
        self.smoothed = smoothed = self._smooth(self.plan, cur)
        energy = self._energy(cur, smoothed, h)
        products = np.zeros(grid.total_cells)
        transfer = 0.0
        if multiphase:
            new_labels = cur.labels.ravel()[cells]
            old_labels = prev.labels.ravel()[cells]
            # the differences overwrite ``before``, which is dead after this
            pairs = zip(smoothed, before)
            diffs = [np.subtract(a.ravel()[cells], b, out=b) for a, b in pairs]
            quad = 0.0
            for i, row in enumerate(tension_rows(cfg.tensions.extended, diffs)):
                omega = (new_labels == i) * 1.0 - (old_labels == i)
                products[cells] = omega * row
                quad += float(products.sum())
            dissipation = -quad * grid.cell_volume / math.sqrt(h)
        else:
            omega = cur.mask.ravel()[cells] * 1.0 - prev.mask.ravel()[cells]
            diff = smoothed.values.ravel()[cells] - before
            products[cells] = omega * diff
            dissipation = _cellsum(grid, products) / math.sqrt(h)
            if force_now is not None:
                products[cells] = force_now.values.ravel()[cells] * omega
                transfer = _cellsum(grid, products) / math.sqrt(math.pi)
        slack = self.energy - energy - dissipation + transfer
        row = LedgerRow(step, self.energy, energy, dissipation, transfer, slack)
        self.state, self.energy, self.changed = cur, energy, cells
        return row


def ledger_report(rows: Sequence[LedgerRow]) -> LedgerReport:
    """Verdict on ledger rows: a row is a violation when its slack is below
    -LEDGER_RTOL times the initial energy (or times 1, if that is larger or
    the initial energy is not finite), or when any of its energies,
    dissipation, transfer or slack is not finite."""
    if not rows:
        return LedgerReport((), True, None, 0.0)
    e0 = abs(rows[0].energy_before)
    tol = LEDGER_RTOL * (max(1.0, e0) if math.isfinite(e0) else 1.0)

    def violated(r: LedgerRow) -> bool:
        values = (r.energy_before, r.energy_after, r.dissipation, r.transfer, r.slack)
        return not all(map(math.isfinite, values)) or r.slack < -tol

    first = next((r.step for r in rows if violated(r)), None)
    return LedgerReport(tuple(rows), first is None, first, tol)


def ledger_check(
    config: "SchemeConfig", states: Iterable, first_step: int = 0
) -> LedgerReport:
    """Recompute the per-step energy inequality from the stored states.

    Every step of a descent scheme must satisfy
    ``energy_after + dissipation <= energy_before`` (forced runs add the
    forcing transfer to the right side).  Energies and dissipations are
    recomputed here from the states themselves, one convolution per state,
    so a corrupted state shows up as a violated step regardless of what the
    run recorded.  The states walk the run's own :class:`LedgerWalk`, so
    untouched states reproduce the run's rows bit for bit.  ``first_step``
    is the step number of the first state: rows are numbered, and a force
    is evaluated, at the steps the states were produced at.

    ``states`` may be any iterable; it is read once, in order, and at most
    two states and one set of smoothed fields are held.
    """
    states = iter(states)
    walk = LedgerWalk(config, next(states))
    rows: list[LedgerRow] = []
    for step, state in enumerate(states, start=first_step + 1):
        force_now = config.force(config.grid, step * config.h) if config.force else None
        rows.append(walk.advance(step, state, force_now))
    return ledger_report(rows)


def multiplier_integral(
    h: float, lams: Sequence[float], steps: int
) -> tuple[float, int]:
    """M(h) of one run over ``steps`` steps and its number of bad iterations.

    M(h) = h * sum over steps of (lambda_n - 1/2)^2 is a discrete time
    integral of the squared multiplier offset; a bad iteration is a step
    with offset at least GOOD_ITERATION_BAND.  A run that pinned before
    ``steps`` repeats its last state, and with it its last multiplier, so
    ``lams`` is padded with its last entry up to ``steps`` entries.
    """
    lams = list(lams)
    lams += lams[-1:] * (steps - len(lams))
    offsets = np.asarray([lam - 0.5 for lam in lams], dtype=np.float64)
    m = float(h * np.sum(offsets**2))
    return m, int(np.count_nonzero(np.abs(offsets) >= GOOD_ITERATION_BAND))


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Least-squares slope of log y against log x; None unless every y is
    positive."""
    if not all(y > 0 for y in ys):
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


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


def tightness_monitor(stepper: "Stepper") -> TightnessReport:
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


# ---------------------------------------------------------------------------
# inner variations


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
        t1 += xi.components[k] * plan.apply_grad_component(c, k)
        t2 += plan.apply_grad_component(xi.components[k] * c, k)
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
        adv += xi.components[k] * plan.apply_grad_component(omega, k)
    total = c1 * adv + xi.divergence * c1 * plan.apply(omega)
    return 2.0 * _cellsum(g, total) / math.sqrt(h)


def _weighted_variation_terms(
    labels: np.ndarray,
    fields: Sequence[np.ndarray],
    tensions: "SurfaceTensionMatrix",
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
            adv += xi.components[k] * plan.apply_grad_component(fields[j], k)
        total += w * adv + div * w * plan.apply(fields[j])
    return float(total.sum()) * g.cell_volume


def first_variation_energy_multiphase(
    state: MultiPhaseState,
    tensions: "SurfaceTensionMatrix",
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
    tensions: "SurfaceTensionMatrix",
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
    force_now: RealField,
    xi: TestVectorField,
    h: float,
) -> float:
    """Stationarity residual of a forced step against ``xi``.

    The multiplier term is replaced by the force coupling
    -(1/sqrt pi) * integral of div(f xi) chi1, with the product divergence
    computed spectrally from the sampled force.
    """
    g = chi1.grid
    fxi = tuple(force_now.values * c for c in xi.components)
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
    tensions: "SurfaceTensionMatrix",
    xi: TestVectorField,
    h: float,
) -> float:
    """Stationarity residual of a grain-growth step against ``xi``."""
    g = state1.grid
    solid1 = state1.solid_mask.astype(np.float64)
    volume_term = (2.0 * lam / math.sqrt(h)) * _cellsum(g, xi.divergence * solid1)
    return (
        first_variation_energy_multiphase(state1, tensions, xi, h)
        - first_variation_dissipation_multiphase(state1, state0, tensions, xi, h)
        - volume_term
    )
