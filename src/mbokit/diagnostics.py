"""Energies, the energy ledger and audit checks.

The thresholding schemes in this package are implicit descent steps for a
nonlocal interfacial energy.  This module computes that energy and walks
the per-step energy ledger, whose dissipation it sums over the changed
cells only.  On top of those it provides the scaling statistic of the
volume multiplier and its log-log fit, which ``mbokit sweep`` reports.

All integrals are plain cell sums times the cell volume.  Quantities that
are exact by construction are checked at tolerances near machine rounding;
quantities limited by discretization get tolerances in the 1e-3 to 5e-2
range, stated where they are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .grid import _SUM_CHUNK, MultiPhaseState, PhaseField, _pairwise_sum
from .kernel import HeatKernelPlan, convolve

if TYPE_CHECKING:  # only for annotations; no runtime dependency on schemes
    from .schemes import SchemeConfig, SurfaceTensionMatrix

# A volume-preserving step is a "good iteration" when its multiplier stays
# within this band of 1/2; ``multiplier_integral`` counts the others.
GOOD_ITERATION_BAND = 0.25

# Ledger slack below -1e-9 times the energy scale counts as a violation,
# as does any ledger value that is not finite.
LEDGER_RTOL = 1e-9


def _scattered_sum(n: int, cells: np.ndarray, values: np.ndarray) -> float:
    """``float(v.sum())`` for ``v = np.zeros(n)`` with ``v[cells] = values``,
    bit for bit, for sorted flat indices ``cells``; builds only the chunks
    of ``v`` that hold a cell, one at a time in one scratch chunk."""
    scratch = np.empty(min(n, _SUM_CHUNK))

    def node_sum(lo: int, hi: int) -> np.float64:
        first, end = np.searchsorted(cells, (lo, hi))
        if first == end:
            return 0.0  # numpy's sum of the node's +0.0s
        v = scratch[: hi - lo]
        v.fill(0.0)
        v[cells[first:end] - lo] = values[first:end]
        return v.sum()

    return float(_pairwise_sum(n, node_sum))


def _changed_cells(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(new != old)``, compared ``_SUM_CHUNK`` cells at a
    time, so no full-grid mask is made."""
    new, old = new.ravel(), old.ravel()
    return np.concatenate(
        [
            np.flatnonzero(new[lo : lo + _SUM_CHUNK] != old[lo : lo + _SUM_CHUNK]) + lo
            for lo in range(0, new.size, _SUM_CHUNK)
        ]
    )


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

    lam: float | None
    bounding_radius: float | None


# ---------------------------------------------------------------------------
# two-phase energy pieces


def energy_two_phase(chi: PhaseField, smoothed: np.ndarray, h: float) -> float:
    """Interfacial energy (1/sqrt h) * integral of (1-chi) G_h chi.

    ``smoothed`` is G_h chi, as :func:`convolve` returns it.  Scales like
    perimeter / sqrt(pi) once the interface is resolved; a flat interface
    contributes exactly 1/sqrt(pi) per unit length in the limit.  The
    integrand is built and summed one chunk at a time, with the bits of
    numpy's sum over the whole grid.
    """
    mask, values = chi.mask.ravel(), smoothed.ravel()
    total = _pairwise_sum(
        mask.size, lambda lo, hi: (~mask[lo:hi] * values[lo:hi]).sum()
    )
    return float(total) * chi.grid.cell_volume / math.sqrt(h)


# ---------------------------------------------------------------------------
# multiphase energy pieces


def tension_row(weights: np.ndarray, values: np.ndarray, cols: np.ndarray):
    """Sum over j of weights[j] * values[j, cols], folded from +0.0 in j order.

    ``np.add.accumulate`` adds the terms one by one at any width (a narrow
    ``np.add.reduce`` does not), a block of at most 2^12 values at a time.
    Weights of 1 and 0 give the values and signed zeros, which change no
    nonzero sum; the closing + 0.0, the fold's start, turns -0.0 to +0.0.
    """
    row = np.empty(cols.size)
    width = max(1, 4096 // weights.size)
    for lo in range(0, cols.size, width):
        block = values[:, cols[lo : lo + width]]
        np.multiply(weights[:, None], block, out=block)
        np.add.accumulate(block, axis=0, out=block)
        np.add(block[-1], 0.0, out=row[lo : lo + width])
    return row


class GrainSummary:
    """What a grain-growth step reads of a partition's smoothed labels psi
    instead of the p+1 fields, per cell: ``leader``, the grain of the
    largest grain value psi_max (the lowest label on ties); ``gap``, psi_max
    minus the second largest (inf with one grain); ``rest``, S - psi_max;
    and ``base``, psi_0 - S.  S is the grain values summed from +0.0 in
    label order, bit for bit the vapor comparison field of
    :func:`tension_row`, and rest and base are one rounding each from the
    folded values.  ``scale`` bounds 1 + psi_0 + 2 S on every cell.  The
    second largest value and ``gap`` are kept in float32, rounded to
    nearest, so ``gap`` lies within 2^-22 ``scale`` of its exact value; a
    step needs no more of it than a lower bound.

    The labels are folded one at a time, the grains in order and the vapor
    last, so 2.6 fields are held whatever the number of grains; the vapor's
    values are read, never copied.
    """

    def __init__(self, shape: tuple[int, ...], num_grains: int) -> None:
        self._top, self._total = np.empty(shape), np.empty(shape)
        self._second = np.empty(shape, dtype=np.float32)
        self.leader = np.empty(shape, dtype=np.min_scalar_type(num_grains))

    def fold(self, label: int, psi: np.ndarray) -> None:
        """Take in the smoothed values ``psi`` of ``label``, which are only
        read: the grains in order from 1, then the vapor, label 0, which
        completes the summary."""
        top, second, total = self._top, self._second, self._total
        if label == 1:
            top.fill(-np.inf)
            second.fill(-np.inf)
            total.fill(0.0)
        if label:
            total += psi
            above = psi > top
            np.maximum(second, psi, out=second)
            np.copyto(second, top, where=above)
            np.copyto(top, psi, where=above)
            np.copyto(self.leader, label, where=above)
            return
        self.scale = 1.0 + float(psi.max()) + 2.0 * float(total.max())
        self.gap = np.subtract(top, second, out=second)
        self.rest = np.subtract(total, top, out=top)
        self.base = np.subtract(psi, total, out=total)


def energy_multiphase(
    state: MultiPhaseState,
    smoothed: Iterable[tuple[int, np.ndarray]],
    h: float,
    tensions: "SurfaceTensionMatrix",
) -> float:
    """Weighted interfacial energy of a vapor/grain partition.

    ``smoothed`` yields (label, smoothed indicator) pairs, every label once
    in any order (``enumerate`` of a list of smoothed labels, or a stream
    whose fields are valid one at a time); each label's overlaps are summed
    on their own, so the order leaves the bits alone.  Grain pairs are
    weighted by their surface tension; the vapor boundary carries weight 1,
    entering twice because the functional sums both orientations of that
    interface.
    """
    if tensions.num_grains != state.num_grains:
        raise ValueError("tension matrix size does not match state")
    p = state.num_grains
    # cast to intp inside each bincount, so no full-grid copy is held while
    # a stream smooths the next label
    labels = state.labels.ravel()
    # overlap[i, j] = sum over cells of label i of smoothed label j
    overlap = np.empty((p + 1, p + 1))
    for j, psi in smoothed:
        overlap[:, j] = np.bincount(labels, weights=psi.ravel(), minlength=p + 1)
    grain_part = float(np.sum(tensions.sigma * overlap[1:, 1:]))
    vapor_part = 2.0 * float(np.sum(overlap[1:, 0]))
    return (grain_part + vapor_part) * state.grid.cell_volume / math.sqrt(h)


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

    Holds the newest ``state`` and its ``energy`` (:func:`energy_two_phase`
    or, for grain growth, :func:`energy_multiphase`), and smooths every
    state through one spectrum buffer, allocated once.  :meth:`advance`
    moves to the next state and returns the step's row.  Runs and audits
    both walk their states through here, so an audit of untouched states
    reproduces the run's rows bit for bit.

    A two-phase walk keeps its state's clamped smoothed values ``smoothed``
    (the float64 array :func:`convolve` returns), which a step map reads.  A
    grain-growth walk smooths one label at a time and keeps of each field,
    while it is valid, its share of the energy and a few values; its
    ``smoothed`` is None.  ``following``, passed with every state, is the
    state the walk moves to next: None while a step map has yet to make it
    (a run), the state itself when nothing follows (``mbokit energy``, the
    last state of a run or an audit).  With ``following`` None a grain walk
    folds the labels into ``summary`` (a :class:`GrainSummary`, which the
    step map reads with :meth:`gather`); otherwise it keeps each label's
    values on the cells that change toward ``following``; ``summary`` is None.

    ``smoothed`` and ``summary`` are valid only until the next
    :meth:`advance` writes the next state's over them.  Read them before
    advancing; copy what must outlive the step.

    Each state handed in is refused unless ``config`` can walk it: one of
    the other kind than its scheme evolves is a TypeError, and a partition
    whose grain count is not the tensions' a ValueError.
    """

    def __init__(
        self,
        config: "SchemeConfig",
        state: PhaseField | MultiPhaseState,
        following: PhaseField | MultiPhaseState | None,
    ) -> None:
        self.config = config
        self._walkable(state, following)
        self.plan = HeatKernelPlan(config.grid, config.h)
        self._spectrum = self.plan.empty_spectrum()
        self.summary: GrainSummary | None = None
        self._gathered: tuple[np.ndarray, np.ndarray] | None = None
        self.state, self.changed = state, 0
        self.energy = self._smooth(state, following, None, None)

    def _walkable(self, *states: PhaseField | MultiPhaseState | None) -> None:
        tensions = self.config.tensions  # None unless the scheme is grain growth
        for state in (s for s in states if s is not None):
            if isinstance(state, MultiPhaseState) != (tensions is not None):
                raise TypeError(f"scheme {self.config.scheme!r} cannot walk this state")
            if tensions is not None and state.num_grains != tensions.num_grains:
                raise ValueError("state and tension matrix disagree on grain count")

    def _stream(self, state: MultiPhaseState, keep: np.ndarray):
        """Each label with its clamped smoothed field, valid until the next
        is asked for: the grains in order, then the vapor.  Each label's
        values on the sorted flat cells ``keep`` are kept, one row per label,
        vapor first, and left with ``keep`` in ``_gathered``."""
        values = np.empty((state.num_grains + 1, keep.size))
        self._gathered = (keep, values)
        for j in [*range(1, state.num_grains + 1), 0]:
            psi = convolve(self.plan, state.indicator(j), self._spectrum)
            np.take(psi.ravel(), keep, out=values[j])
            yield j, psi

    def _smooth(
        self,
        state: PhaseField | MultiPhaseState,
        following: PhaseField | MultiPhaseState | None,
        cells: np.ndarray | None,
        before: np.ndarray | None,
    ) -> float:
        """Smooth ``state`` into the walk's spectrum and return its energy.

        For a partition, ``before`` (None, or the old smoothed labels'
        values on ``cells``, one row per label) becomes the new values minus
        the old, label by label.  A known ``following`` leaves in
        ``_gathered``, as :meth:`gather` does, the cells that change toward
        it and each label's values on them; an unknown one leaves the
        labels' ``summary``.
        """
        h = self.config.h
        if not isinstance(state, MultiPhaseState):
            self.smoothed = convolve(self.plan, state, self._spectrum)
            return energy_two_phase(state, self.smoothed, h)
        self.smoothed = None
        toward = np.empty(0, dtype=np.intp)  # a step map gathers what it needs
        if following is not None:
            self.summary = None
            toward = _changed_cells(following.labels, state.labels)
        elif self.summary is None:
            self.summary = GrainSummary(state.grid.shape, state.num_grains)

        def fields():
            for j, psi in self._stream(state, toward):
                if before is not None:
                    np.subtract(psi.ravel()[cells], before[j], out=before[j])
                if following is None:
                    self.summary.fold(j, psi)
                yield j, psi

        return energy_multiphase(state, fields(), h, self.config.tensions)

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """The smoothed labels of ``state`` on the sorted flat ``cells``,
        one row per label, vapor first.

        Smooths the state once more, one label at a time; the values are
        also kept until the next :meth:`advance`, which takes the ledger's
        old values from them when the changed cells are among ``cells``.
        """
        for _ in self._stream(self.state, cells):
            pass
        return self._gathered[1]

    def _values_on(self, cells: np.ndarray) -> np.ndarray:
        """Every smoothed label of ``state`` on ``cells``: taken from the
        last :meth:`gather`, or from the values a known ``following`` left,
        when they cover ``cells``, else gathered anew."""
        if self._gathered is not None:
            gathered, values = self._gathered
            at = np.searchsorted(gathered, cells)
            if not at.size or (
                at[-1] < gathered.size and np.array_equal(gathered[at], cells)
            ):
                # at[i] >= i, so each row is packed in place, front first
                for row in values:
                    row[: at.size] = row[at]
                return values[:, : at.size]
        return self.gather(cells)

    def advance(
        self,
        step: int,
        cur: PhaseField | MultiPhaseState,
        following: PhaseField | MultiPhaseState | None,
    ) -> LedgerRow:
        """Ledger row of the step from ``state`` to ``cur``, then move to ``cur``.

        ``changed`` becomes the number of cells whose label changed.  By
        linearity of the kernel the dissipation needs no convolution of its
        own: it pairs omega = cur - prev with G cur - G prev, and omega is
        zero off the changed cells.  So only the old smoothed fields' values
        on those cells are kept (gathered before ``cur`` is smoothed over
        them: for a partition, taken from the step map's :meth:`gather`, or
        from those kept while the old state was smoothed when ``cur`` was
        known to follow it, else gathered anew), and the dissipation
        (tension rows for a partition) and the forcing transfer are summed
        over the changed cells with the bits of numpy's sum of the
        full-grid integrand, which is zero off them.  The transfer of a
        forced walk takes the config's force f on each rising cell and -f on
        each falling one.  ``following`` is as for the constructor.

        On a changed cell omega is +1 at the new label, -1 at the old and 0
        elsewhere, so a partition's row i is folded only on the changed
        cells whose old or new label is i.  A cell or row left out added
        signed zeros, which change a sum at most in the sign of a zero sum;
        ``quad``, from +0.0, is never -0.0, and a zero leaves it alone.
        """
        self._walkable(cur, following)
        cfg, prev = self.config, self.state
        grid, h = cfg.grid, cfg.h
        n = grid.total_cells
        transfer = 0.0
        if isinstance(cur, MultiPhaseState):
            cells = _changed_cells(cur.labels, prev.labels)
            before = self._values_on(cells)
            energy = self._smooth(cur, following, cells, before)  # now differences
            new_labels = cur.labels.ravel()[cells]
            old_labels = prev.labels.ravel()[cells]
            quad, ext = 0.0, cfg.tensions.extended
            found = np.bincount(np.concatenate((new_labels, old_labels)))
            for i in np.flatnonzero(found):  # in label order
                at = np.flatnonzero((new_labels == i) | (old_labels == i))
                row = tension_row(ext[i], before, at)
                row[old_labels[at] == i] *= -1.0  # omega * row, bit for bit
                quad += _scattered_sum(n, cells[at], row)
            dissipation = -quad * grid.cell_volume / math.sqrt(h)
            changed = cells.size
        else:
            # the old smoothed values on the changed cells, in cell order,
            # kept a chunk at a time in one pass: no array of the cells
            new, old = cur.mask.ravel(), prev.mask.ravel()
            chunks = [slice(lo, lo + _SUM_CHUNK) for lo in range(0, n, _SUM_CHUNK)]
            values = self.smoothed.ravel()
            before = np.concatenate([values[c][new[c] != old[c]] for c in chunks])
            changed = before.size
            energy = self._smooth(cur, following, None, None)
            after = self.smoothed.ravel()
            force = cfg.force
            scratch, taken = np.empty(min(n, _SUM_CHUNK)), 0

            def node_sum(lo: int, hi: int):
                # nodes come in cell order and take the values of ``before`` in
                # turn; omega is exactly +1 (rising) or -1 on a changed cell, so
                # a product with it is a value or its negation, bit for bit
                nonlocal taken
                flipped = np.flatnonzero(new[lo:hi] != old[lo:hi])
                if not flipped.size:
                    return 0.0
                diff = before[taken : taken + flipped.size]
                taken += flipped.size
                np.subtract(after[lo:hi][flipped], diff, out=diff)  # G cur - G prev
                falling, v, sums = old[lo:hi][flipped], scratch[: hi - lo], []
                terms = [diff] if force is None else [diff, np.full(diff.size, force)]
                for term in terms:
                    np.negative(term, out=term, where=falling)
                    v.fill(0.0)
                    v[flipped] = term
                    sums.append(v.sum())
                return complex(*sums)

            with np.errstate(over="ignore"):  # the verdict reports an inf
                total = complex(_pairwise_sum(n, node_sum))
            dissipation = total.real * grid.cell_volume / math.sqrt(h)
            transfer = total.imag * grid.cell_volume / math.sqrt(math.pi)
        slack = self.energy - energy - dissipation + transfer
        row = LedgerRow(step, self.energy, energy, dissipation, transfer, slack)
        self.state, self.energy, self.changed = cur, energy, changed
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
    is the step number of the first state: rows are numbered by the steps
    the states were produced at.

    ``states`` may be any iterable; it is read once, in order.  Partitions
    are read one state ahead of the walk, so a grain-growth audit holds at
    most three states and smooths one label at a time through one spectrum
    buffer; two-phase states, whose walk holds one field either way, are
    read as they are walked, two at a time.
    """
    pairs = _with_following(states, config.scheme == "grain_growth")
    walk = LedgerWalk(config, *next(pairs))
    rows: list[LedgerRow] = []
    for step, (state, following) in enumerate(pairs, start=first_step + 1):
        rows.append(walk.advance(step, state, following))
    return ledger_report(rows)


def _with_following(states: Iterable, read_ahead: bool):
    """Each state with the one that follows it (itself at the end) when
    ``read_ahead``, else with None."""
    cur = None
    for state in states:
        if not read_ahead:
            yield state, None
        elif cur is not None:
            yield cur, state
        cur = state
    if read_ahead and cur is not None:
        yield cur, cur


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
