"""Checks of the energy ledger against independent routes.

Every nontrivial expected value here is produced by a second computation
path: closed-form frequency sums, a periodized-Gaussian double sum built
without the FFT, or random competitor search.
"""

import logging
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erfinv

from mbokit.cli import main
from mbokit import diagnostics
from mbokit import grid as grid_module
from mbokit.diagnostics import (
    GOOD_ITERATION_BAND,
    LEDGER_RTOL,
    LedgerRow,
    LedgerWalk,
    energy_multiphase,
    energy_two_phase,
    ledger_check,
    ledger_report,
    loglog_slope,
    multiplier_integral,
    tension_row,
)
from mbokit.grid import (
    Grid,
    MultiPhaseState,
    PhaseField,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)
from mbokit.kernel import (
    ClampWarning,
    HeatKernelPlan,
    ResolutionWarning,
    convolve,
)
from mbokit.schemes import (
    SchemeConfig,
    Stepper,
    SurfaceTensionMatrix,
    step_grain_growth,
    step_volume_preserving,
)
from mbokit.threshold import select_top_cells

from conftest import equal_tensions, symmetric_tensions
from reference_forms import (
    TIGHTNESS_REACH,
    TIGHTNESS_SLOPE,
    approx_monotonicity_check,
    constant_vector_field,
    convolve_labels,
    dissipation_multiphase,
    dissipation_two_phase,
    euler_lagrange_residual,
    euler_lagrange_residual_forced,
    euler_lagrange_residual_grain_growth,
    first_variation_dissipation,
    first_variation_dissipation_multiphase,
    first_variation_energy,
    first_variation_energy_multiphase,
    linearized_energy,
    phase_difference,
    plain_tension_rows,
    radial_bump_field,
    stack_source,
    state_difference,
    tightness_monitor,
)


def periodized_gaussian_matrix(grid: Grid, h: float, images: int = 3) -> np.ndarray:
    """Kernel matrix K[i,j] = periodized Gaussian between cell centers i, j.

    Independent of the FFT path.  Valid as the exact discrete kernel only
    when exp(-h * k_nyquist^2) is negligible; callers pick h accordingly.
    """
    c = grid.axis_centers()
    xx, yy = np.meshgrid(c, c, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    k = np.zeros((grid.total_cells, grid.total_cells))
    for mi in range(-images, images + 1):
        for mj in range(-images, images + 1):
            d = pts[:, None, :] - pts[None, :, :] + np.array([mi, mj]) * grid.side
            k += (4.0 * np.pi * h) ** -1 * np.exp(-(d**2).sum(-1) / (4.0 * h))
    return k


def full_grid_dissipation(cfg, prev, cur, prev_smoothed, cur_smoothed):
    """Multiphase dissipation over every cell: omega_i paired with row_i of
    the tension-weighted smoothed differences, as the ledger once did."""
    ext = cfg.tensions.extended
    diffs = [new - old for new, old in zip(cur_smoothed, prev_smoothed)]
    omega = state_difference(cur, prev)
    quad = 0
    for i in range(len(diffs)):
        row = np.zeros(cfg.grid.shape)
        for j, d in enumerate(diffs):
            if ext[i, j] != 0.0:
                row += ext[i, j] * d
        quad += float((omega[i] * row).sum())
    return -quad * cfg.grid.cell_volume / math.sqrt(cfg.h)


def full_grid_two_phase(cfg, prev, cur, prev_smoothed, cur_smoothed):
    """Two-phase dissipation and forcing transfer summed over every cell, as
    the ledger once formed them from a full grid of the config's force."""
    omega = cur.as_float()
    omega -= prev.mask
    diff = cur_smoothed - prev_smoothed
    cell = cfg.grid.cell_volume
    dissipation = float((omega * diff).sum()) * cell / math.sqrt(cfg.h)
    transfer = 0.0
    if cfg.force is not None:
        force = np.full(cfg.grid.shape, cfg.force)
        transfer = float((force * omega).sum()) * cell / math.sqrt(math.pi)
    return dissipation, transfer


@pytest.fixture(scope="module")
def tiny_setup():
    grid = Grid(dim=2, n=8)
    h = 0.06  # exp(-h k_nyq^2) ~ 3e-17: discrete kernel == periodized Gaussian
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        plan = HeatKernelPlan(grid, h)
    return grid, h, plan, periodized_gaussian_matrix(grid, h)


class TestTwoPhaseEnergy:
    def test_empty_and_full_have_zero_energy(self, grid64):
        empty = PhaseField(grid64, np.zeros(grid64.shape, dtype=bool))
        full = PhaseField(grid64, np.ones(grid64.shape, dtype=bool))
        plan = HeatKernelPlan(grid64, 1e-3)
        assert energy_two_phase(empty, convolve(plan, empty), 1e-3) == 0.0
        e_full = energy_two_phase(full, convolve(plan, full), 1e-3)
        assert e_full == pytest.approx(0.0, abs=1e-12)

    def test_flat_interface_value(self):
        # two unit-length interfaces: E = 2/sqrt(pi)
        g = Grid(dim=2, n=512)
        slab = rasterize_slab(g, 0, 0.25, 0.75)
        target = 2.0 / math.sqrt(math.pi)
        e = energy_two_phase(slab, convolve(HeatKernelPlan(g, 1e-3), slab), 1e-3)
        assert e == pytest.approx(target, rel=2e-4)

    def test_energy_nonnegative_on_random_shapes(self, grid64, rng):
        plan = HeatKernelPlan(grid64, 1e-3)
        for _ in range(5):
            f = PhaseField(grid64, rng.random(grid64.shape) < 0.4)
            assert energy_two_phase(f, convolve(plan, f), 1e-3) >= 0.0


    @pytest.mark.parametrize("dim, n", [(2, 1024), (2, 257), (3, 96), (3, 33)])
    def test_chunked_energy_equals_full_grid_sum(self, dim, n):
        g = Grid(dim=dim, n=n)
        blob = random_blob(g, seed=n, fill=0.3, smoothing=0.05)
        h = 16.0 * g.dx**2
        smoothed = convolve(HeatKernelPlan(g, h), blob)
        integrand = ~blob.mask * smoothed
        full = float(integrand.sum()) * g.cell_volume / math.sqrt(h)
        assert energy_two_phase(blob, smoothed, h) == full


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestPairwiseSum:
    """The chunked sums give the bits of ``ndarray.sum()`` over all cells."""

    @pytest.fixture(
        params=[128, 200, 1 << 15], ids=["chunk128", "chunk200", "chunk2^15"]
    )
    def chunk(self, request, monkeypatch):
        # a chunk of at least 128 values (numpy's unsplit leaf) is exact
        monkeypatch.setattr(grid_module, "_SUM_CHUNK", request.param)

    @staticmethod
    def dense(values: np.ndarray) -> float:
        flat = values.ravel()
        return grid_module._pairwise_sum(flat.size, lambda lo, hi: flat[lo:hi].sum())

    @staticmethod
    def spread(rng, shape) -> np.ndarray:
        # magnitudes over 16 decades, so any change of summation order shows
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)

    def test_every_length_up_to_200(self, chunk, rng):
        for n in range(1, 201):
            v = self.spread(rng, n)
            assert _bits(self.dense(v)) == _bits(v.sum()), n

    @pytest.mark.parametrize(
        "shape",
        [(8, 8), (9, 9), (33, 33), (100, 100), (257, 257), (512, 512),
         (9, 9, 9), (33, 33, 33), (64, 64, 64), (96, 96, 96)],
    )
    def test_grids(self, chunk, rng, shape):
        v = self.spread(rng, shape)
        assert _bits(self.dense(v)) == _bits(v.sum())

    def test_signed_zeros(self, chunk):
        for n in (1, 7, 8, 129, 300, 4099):
            for v in (np.full(n, -0.0), np.zeros(n), np.resize([-0.0, 0.0], n)):
                assert _bits(self.dense(v)) == _bits(v.sum()), n
            v = np.resize([1.5, -1.5, -0.0], n)  # exact cancellations
            assert _bits(self.dense(v)) == _bits(v.sum()), n

    @pytest.mark.parametrize("n", [1, 100, 4099, 33**3, 96**3])
    def test_sparse_equals_scatter_into_zeros(self, chunk, rng, n):
        picks = {
            "none": np.empty(0, dtype=np.intp),
            "one": np.array([n - 1]),
            "few": rng.choice(n, min(n, 150), replace=False),
            "many": rng.choice(n, n // 3, replace=False),
            "all": np.arange(n),
        }
        for name, cells in picks.items():
            cells = np.sort(cells)
            values = self.spread(rng, cells.size)
            values[::5] = -0.0
            zeros = np.zeros(n)
            zeros[cells] = values
            got = diagnostics._scattered_sum(n, cells, values)
            assert _bits(got) == _bits(zeros.sum()), name


class TestTensionRow:
    """A row folded over chosen columns, a block at a time, has the bits of
    the plain fold of those columns, at every width and number of grains."""

    WIDTHS = (1, 2, 7, 8, 9, 4097)

    @pytest.mark.parametrize("p", [1, 8, 64, 200])
    @pytest.mark.parametrize("case", ["equal", "perturbed", "signed"])
    def test_rows_equal_the_plain_fold_bit_for_bit(self, rng, case, p):
        sigma = np.ones((p, p)) - np.eye(p)
        if case == "perturbed" and p > 1:
            sigma = symmetric_tensions(p, p, 0.97, 1.03)
        ext = SurfaceTensionMatrix(sigma).extended  # weights 0 and 1 among them
        for width in self.WIDTHS:
            shape = (p + 1, width + 40)
            # smoothed indicators, with exact 0 and 1 where they clamp
            values = np.clip(rng.random(shape) * 1.2 - 0.1, 0.0, 1.0)
            if case == "signed":  # the ledger folds new minus old values
                values -= np.clip(rng.random(shape) * 1.2 - 0.1, 0.0, 1.0)
                values[:, ::7] = -0.0  # -0.0 terms sum to +0.0 from +0.0
            cols = np.sort(rng.choice(shape[1], width, replace=False))
            kept = values.copy()
            rows = plain_tension_rows(ext, values[:, cols])
            for i, ref in enumerate(rows):
                got = tension_row(ext[i], values, cols)
                assert got.tobytes() == ref.tobytes(), (width, i)
            assert i == p and values.tobytes() == kept.tobytes()


class TestDissipation:
    def test_single_cell_closed_form(self, grid64):
        # D(one cell) = dx^(2d)/(sqrt(h) side^d) * sum exp(-h|k|^2)
        h = 1e-3
        plan = HeatKernelPlan(grid64, h)
        mask = np.zeros(grid64.shape, dtype=bool)
        mask[5, 9] = True
        omega = phase_difference(
            PhaseField(grid64, mask),
            PhaseField(grid64, np.zeros(grid64.shape, dtype=bool)),
        )
        got = dissipation_two_phase(omega, h, plan=plan)
        freqs = 2.0 * np.pi * np.fft.fftfreq(grid64.n, d=grid64.dx)
        kxx, kyy = np.meshgrid(freqs, freqs, indexing="ij")
        total = np.exp(-h * (kxx**2 + kyy**2)).sum()
        closed = grid64.dx**4 / math.sqrt(h) * total
        assert got == pytest.approx(closed, rel=1e-10)

    def test_against_periodized_gaussian_double_sum(self, tiny_setup, rng):
        grid, h, plan, kmat = tiny_setup
        a = PhaseField(grid, rng.random(grid.shape) < 0.4)
        b = PhaseField(grid, rng.random(grid.shape) < 0.4)
        omega = phase_difference(a, b)
        got = dissipation_two_phase(omega, h, plan=plan)
        w = omega.ravel()
        brute = (w @ kmat @ w) * grid.cell_volume**2 / math.sqrt(h)
        assert got == pytest.approx(brute, rel=1e-10)

    def test_nonnegative_on_random_differences(self, grid64, rng):
        plan = HeatKernelPlan(grid64, 1e-3)
        for _ in range(10):
            a = PhaseField(grid64, rng.random(grid64.shape) < 0.5)
            b = PhaseField(grid64, rng.random(grid64.shape) < 0.5)
            omega = phase_difference(a, b)
            assert dissipation_two_phase(omega, 1e-3, plan=plan) >= 0.0

    def test_rejects_non_difference_values(self, grid64):
        plan = HeatKernelPlan(grid64, 1e-3)
        bad = np.full(grid64.shape, 0.5)
        with pytest.raises(ValueError):
            dissipation_two_phase(bad, 1e-3, plan=plan)


class TestLinearizedEnergy:
    def test_selection_minimizes_over_competitors(self, rng):
        # the order-statistic mask beats 200 random volume-matched masks
        g = Grid(dim=2, n=64)
        h = 1e-3
        plan = HeatKernelPlan(g, h)
        blob = random_blob(g, seed=12)
        phi = convolve(plan, blob)
        mask, lam = select_top_cells(phi.reshape(-1), blob.cell_count)
        chosen = PhaseField(g, mask.reshape(g.shape))
        best = linearized_energy(phi, chosen, lam, h)
        for _ in range(200):
            flat = np.zeros(g.total_cells, dtype=bool)
            flat[rng.permutation(g.total_cells)[: blob.cell_count]] = True
            rival = PhaseField(g, flat.reshape(g.shape))
            assert best <= linearized_energy(phi, rival, lam, h) + 1e-12


class TestMultiphase:
    def test_single_grain_doubles_two_phase_energy(self, grid64):
        blob = random_blob(grid64, seed=4)
        state = MultiPhaseState(grid64, blob.mask.astype(np.int32), 1)
        plan = HeatKernelPlan(grid64, 1e-3)
        e2 = energy_two_phase(blob, convolve(plan, blob), 1e-3)
        smoothed = convolve_labels(plan, state)
        emp = energy_multiphase(state, enumerate(smoothed), 1e-3, equal_tensions(1))
        assert emp == pytest.approx(2.0 * e2, rel=1e-12)

    def test_energy_refuses_tensions_of_another_grain_count(self, grid64):
        # a one-grain overlap block would broadcast against larger tensions
        blob = random_blob(grid64, seed=4)
        state = MultiPhaseState(grid64, blob.mask.astype(np.int32), 1)
        smoothed = convolve_labels(HeatKernelPlan(grid64, 1e-3), state)
        with pytest.raises(ValueError, match="tension matrix size"):
            energy_multiphase(state, enumerate(smoothed), 1e-3, equal_tensions(3))

    def test_dissipation_against_double_sum(self, tiny_setup, rng):
        grid, h, plan, kmat = tiny_setup
        labels = np.zeros(grid.shape, dtype=np.int32)
        labels[rng.random(grid.shape) < 0.5] = 1
        labels[rng.random(grid.shape) < 0.3] = 2
        before = MultiPhaseState(grid, labels, 2)
        moved = labels.copy()
        swap = rng.random(grid.shape) < 0.2
        moved[swap] = (moved[swap] + 1) % 3
        after = MultiPhaseState(grid, moved, 2)
        tensions = equal_tensions(2)
        omega = state_difference(after, before)
        got = dissipation_multiphase(omega, grid, tensions, h, plan=plan)
        ext = tensions.extended
        brute = 0.0
        for i in range(3):
            for j in range(3):
                wi = omega[i].ravel().astype(np.float64)
                wj = omega[j].ravel().astype(np.float64)
                brute -= ext[i, j] * (wi @ kmat @ wj)
        brute *= grid.cell_volume**2 / math.sqrt(h)
        assert got == pytest.approx(brute, rel=1e-10)
        assert got >= 0.0

    def test_dissipation_rejects_nonzero_column_sums(self, grid64):
        plan = HeatKernelPlan(grid64, 1e-3)
        omega = np.zeros((3,) + grid64.shape, dtype=np.int8)
        omega[1, 0, 0] = 1  # appears from nowhere: column sum not zero
        with pytest.raises(ValueError):
            dissipation_multiphase(omega, grid64, equal_tensions(2), 1e-3, plan=plan)


def _row_bits(row: LedgerRow) -> tuple:
    values = (row.energy_before, row.energy_after, row.dissipation, row.transfer)
    return (row.step, *map(_bits, values), _bits(row.slack))


class TestStreamedAudit:
    """An audit reads one state ahead and streams each grain state's labels
    through one spectrum buffer; its rows keep the bits of the run's, whose
    walk folds each state's labels into its summary."""

    @pytest.fixture(scope="class", params=["pinned", "unequal"])
    def grain_run(self, request):
        seeds = [(0.3, 0.3), (0.7, 0.35), (0.5, 0.7)]
        if request.param == "pinned":  # sqrt h = 4 dx: freezes after 5 steps
            grid, h, steps = Grid(dim=2, n=32), 1.0 / 64, 20
            tensions = equal_tensions(3)
        else:
            grid, h, steps = Grid(dim=2, n=128), 1e-3, 4
            seeds.append((0.45, 0.5))
            tensions = SurfaceTensionMatrix(symmetric_tensions(4, 8, 0.7, 1.3))
        initial = voronoi_labels(
            grid, seeds, solid=rasterize_ball(grid, (0.5, 0.5), 0.3)
        )
        cfg = SchemeConfig("grain_growth", grid, h, steps, tensions=tensions)
        stepper = Stepper(cfg, initial)
        states = [initial, *stepper]
        if request.param == "pinned":
            assert stepper.status == "pinned" and len(states) == 6
            assert stepper.records[-1].dissipation == 0.0
        else:
            assert stepper.status == "completed" and len(states) == 5
        return cfg, stepper, states

    def test_rows_equal_run_records(self, grain_run):
        cfg, stepper, states = grain_run
        report = ledger_check(cfg, iter(states))
        assert list(map(_row_bits, report.rows)) == list(
            map(_row_bits, stepper.records)
        )

    def test_audit_from_a_later_step(self, grain_run):
        cfg, stepper, states = grain_run
        report = ledger_check(cfg, states[2:], first_step=2)
        assert [row.step for row in report.rows] == list(range(3, len(states)))
        assert list(map(_row_bits, report.rows)) == list(
            map(_row_bits, stepper.records[2:])
        )

    def test_lone_state(self, grain_run):
        cfg, stepper, states = grain_run
        last = states[-1]
        report = ledger_check(cfg, [last], first_step=len(states) - 1)
        assert report.rows == () and report.passed
        walk = LedgerWalk(cfg, last, last)
        assert walk.smoothed is None
        assert _bits(walk.energy) == _bits(stepper.records[-1].energy_after)

    def test_a_streamed_walk_advanced_elsewhere_gathers_again(self, grain_run):
        # announced states[1], handed states[2]: the read-ahead values do not
        # cover the cells that change, so the walk smooths states[0] again
        cfg, _, states = grain_run
        prev, cur = states[0], states[2]
        walk = LedgerWalk(cfg, prev, states[1])
        row = walk.advance(1, cur, cur)
        plan = HeatKernelPlan(cfg.grid, cfg.h)
        omega = state_difference(cur, prev)
        ref = dissipation_multiphase(omega, cfg.grid, cfg.tensions, cfg.h, plan=plan)
        assert ref > 0.0
        assert row.dissipation == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert _bits(row.energy_before) == _bits(LedgerWalk(cfg, prev, prev).energy)
        assert _bits(row.energy_after) == _bits(LedgerWalk(cfg, cur, cur).energy)


class TestWalkRefusesStatesItCannotWalk:
    """A walk refuses every state it is handed, as ``state``, ``cur`` or
    ``following``, that its config cannot walk: a state of the other kind,
    or a partition whose grain count is not the tensions'."""

    @pytest.fixture
    def states(self):
        grid = Grid(dim=2, n=32)
        solid = rasterize_ball(grid, (0.5, 0.5), 0.3)
        three = voronoi_labels(grid, [(0.3, 0.3), (0.7, 0.4), (0.5, 0.7)], solid=solid)
        two = voronoi_labels(grid, [(0.3, 0.3), (0.7, 0.4)], solid=solid)
        return grid, solid, three, two

    def test_audit_of_fields_under_grain_growth(self, states):
        grid, solid, _, _ = states
        cfg = SchemeConfig("grain_growth", grid, 1e-2, 1, tensions=equal_tensions(3))
        with pytest.raises(TypeError):
            ledger_check(cfg, [solid, solid])

    def test_audit_of_partitions_under_a_two_phase_scheme(self, states):
        grid, _, three, _ = states
        cfg = SchemeConfig("mbo", grid, 1e-2, 1)
        with pytest.raises(TypeError):
            ledger_check(cfg, [three, three])

    def test_following_of_another_grain_count(self, states):
        grid, _, three, two = states
        cfg = SchemeConfig("grain_growth", grid, 1e-2, 1, tensions=equal_tensions(3))
        with pytest.raises(ValueError, match="grain count"):
            LedgerWalk(cfg, three, two)

    def test_advance_to_a_state_of_the_other_kind(self, states):
        grid, solid, three, _ = states
        cfg = SchemeConfig("grain_growth", grid, 1e-2, 1, tensions=equal_tensions(3))
        walk = LedgerWalk(cfg, three, None)
        with pytest.raises(TypeError):
            walk.advance(1, solid, solid)
        two_phase = LedgerWalk(SchemeConfig("mbo", grid, 1e-2, 1), solid, None)
        with pytest.raises(TypeError):
            two_phase.advance(1, solid, three)


class TestLedger:
    def test_passes_on_honest_run(self, grid128, ball128):
        cfg = SchemeConfig(
            scheme="volume_preserving", grid=grid128, h=1e-3, steps=6
        )
        stepper = Stepper(cfg, ball128)
        report = ledger_check(cfg, [ball128, *stepper])
        assert report.passed
        assert report.first_violation is None
        assert len(report.rows) == len(stepper.records)

    def test_run_rows_equal_audit_rows_bitwise(self, scheme_case):
        cfg, initial = scheme_case
        stepper = Stepper(cfg, initial)
        report = ledger_check(cfg, [initial, *stepper])
        run_tolerance = ledger_report(stepper.records).tolerance
        assert (report.passed, report.tolerance) == (True, run_tolerance)
        assert len(report.rows) == len(stepper.records) > 0
        for rec, row in zip(stepper.records, report.rows):
            assert rec.step == row.step
            assert rec.energy_before == row.energy_before
            assert rec.energy_after == row.energy_after
            assert rec.dissipation == row.dissipation
            assert rec.slack == row.slack
            assert rec.transfer == row.transfer

    def test_merged_dissipation_matches_reference_forms(self, scheme_case):
        cfg, initial = scheme_case
        stepper = Stepper(cfg, initial)
        states = [initial, *stepper]
        plan = HeatKernelPlan(cfg.grid, cfg.h)
        for rec, prev, cur in zip(stepper.records, states, states[1:]):
            if cfg.tensions is None:
                omega = phase_difference(cur, prev)
                ref = dissipation_two_phase(omega, cfg.h, plan=plan)
            else:
                omega = state_difference(cur, prev)
                ref = dissipation_multiphase(
                    omega, cfg.grid, cfg.tensions, cfg.h, plan=plan
                )
            assert ref > 0.0
            assert rec.dissipation == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("unequal", [False, True])
    def test_changed_cell_dissipation_equals_full_grid_form(self, grid128, unequal):
        p = 4
        if unequal:
            tensions = SurfaceTensionMatrix(symmetric_tensions(p, 8, 0.7, 1.3))
        else:
            tensions = equal_tensions(p)
        initial = voronoi_labels(
            grid128,
            [(0.35, 0.3), (0.65, 0.35), (0.5, 0.7), (0.45, 0.5)],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.3),
        )
        cfg = SchemeConfig(
            scheme="grain_growth", grid=grid128, h=1e-3, steps=3, tensions=tensions
        )
        states = [initial, *Stepper(cfg, initial)]
        states.append(states[-1])  # a step that flips no cell
        plan = HeatKernelPlan(grid128, cfg.h)
        smoothed = [convolve_labels(plan, s) for s in states]
        # a run's walk folds each state's labels into its summary; an
        # audit's streams them, knowing the state that follows
        kept = LedgerWalk(cfg, states[0], None)
        streamed = LedgerWalk(cfg, states[0], states[1])
        for n in range(1, len(states)):
            prev, cur = states[n - 1], states[n]
            expected = full_grid_dissipation(
                cfg, prev, cur, smoothed[n - 1], smoothed[n]
            )
            row = kept.advance(n, cur, None)
            following = states[min(n + 1, len(states) - 1)]
            assert streamed.advance(n, cur, following) == row
            assert streamed.smoothed is None
            assert row.dissipation == expected
            assert np.signbit(row.dissipation) == np.signbit(expected)
            if n == len(states) - 1:
                assert row.dissipation == 0.0
            else:
                assert row.dissipation > 0.0

    @pytest.mark.parametrize("scheme", ["mbo", "forced"])
    def test_changed_cell_two_phase_terms_equal_full_grid_form(
        self, grid128, ball128, scheme
    ):
        # a force of either sign grows or shrinks the ball, so the transfer
        # sums f on rising cells and -f on falling ones; zeros of both signs
        # give the plain scheme's steps and a zero transfer
        for force in [None] if scheme == "mbo" else [12.0, -12.0, 0.0, -0.0]:
            cfg = SchemeConfig(
                scheme=scheme, grid=grid128, h=1e-3, steps=4, force=force
            )
            states = [ball128, *Stepper(cfg, ball128)]
            states.append(states[-1])  # a step that flips no cell
            plan = HeatKernelPlan(grid128, cfg.h)
            smoothed = [convolve(plan, s) for s in states]
            walk = LedgerWalk(cfg, states[0], None)
            for n in range(1, len(states)):
                prev, cur = states[n - 1], states[n]
                expected = full_grid_two_phase(
                    cfg, prev, cur, smoothed[n - 1], smoothed[n]
                )
                row = walk.advance(n, cur, None)
                got = (row.dissipation, row.transfer)
                assert got == expected
                assert list(np.signbit(got)) == list(np.signbit(expected))
                flipped = np.count_nonzero(cur.mask != prev.mask)
                assert walk.changed == flipped
                if n == len(states) - 1:
                    assert flipped == 0
                    assert not np.signbit(got).any() and got == (0.0, 0.0)
                else:
                    assert flipped > 0 and row.dissipation > 0.0
                    assert (row.transfer != 0.0) == bool(force)

    def test_audit_from_a_later_step_reproduces_run_rows(self, grid128, ball128):
        # rows are numbered by their own step, not by the position of the
        # state in the audited list
        cfg = SchemeConfig(
            scheme="forced", grid=grid128, h=1e-3, steps=6, force=2.0
        )
        stepper = Stepper(cfg, ball128)
        states = [ball128, *stepper]
        assert stepper.status == "completed"
        report = ledger_check(cfg, states[3:], first_step=3)
        assert [row.step for row in report.rows] == [4, 5, 6]
        for rec, row in zip(stepper.records[3:], report.rows):
            assert (rec.step, rec.energy_before, rec.energy_after) == (
                row.step, row.energy_before, row.energy_after
            )
            assert (rec.dissipation, rec.transfer, rec.slack) == (
                row.dissipation, row.transfer, row.slack
            )

    def test_fails_on_corrupted_state(self, grid128, ball128):
        # negative control: tamper with one state, the audit must notice
        cfg = SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=6)
        states = [ball128, *Stepper(cfg, ball128)]
        tampered = states[3].mask.copy()
        tampered[:20, :20] = ~tampered[:20, :20]
        states[3] = PhaseField(grid128, tampered)
        report = ledger_check(cfg, states)
        assert not report.passed
        assert report.first_violation is not None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("energy_before", math.inf),
            ("energy_after", math.nan),
            ("dissipation", -math.inf),
            ("transfer", math.inf),
            ("slack", math.nan),
        ],
    )
    def test_non_finite_value_is_a_violation(self, field, value):
        good = dict(energy_before=2.0, energy_after=1.0, dissipation=0.5,
                    transfer=0.0, slack=0.5)
        rows = [LedgerRow(step=1, **good), LedgerRow(step=2, **{**good, field: value})]
        report = ledger_report(rows)
        assert (report.passed, report.first_violation) == (False, 2)
        # a non-finite initial energy fails row 1, under a finite tolerance
        report = ledger_report(rows[::-1])
        assert (report.passed, report.first_violation) == (False, 2)
        assert report.tolerance == (
            LEDGER_RTOL if field == "energy_before" else 2.0 * LEDGER_RTOL
        )


class TestLagrangeScaling:
    def test_needs_three_distinct_bandwidths(self, tmp_path, capsys):
        # the M(h) fit is the sweep's: a repeated bandwidth is a config error
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "scheme = volume_preserving\nn = 64\nh = 1e-3\nsteps = 1\n"
            "init = ball\nball_center = 0.5 0.5\nball_radius = 0.3\n"
            f"h_list = 1e-3, 1e-3, 1e-3\nT = 1e-2\nout_dir = {tmp_path}/sw\n"
        )
        assert main(["sweep", str(cfg)]) == 3
        assert capsys.readouterr().err == "config error: h_list repeats 0.001\n"
        assert not (tmp_path / "sw").exists()

    def test_slope_on_synthetic_linear_data(self):
        # constant offset 0.1: M(h) = 0.01*h, slope exactly 1
        hs = (1e-3, 1e-4, 1e-5)
        results = [multiplier_integral(h, [0.6], 1) for h in hs]
        slope = loglog_slope(hs, [m for m, _ in results])
        assert slope == pytest.approx(1.0, rel=1e-9)
        assert [bad for _, bad in results] == [0, 0, 0]

    def test_bad_iteration_count(self):
        series = [
            (1e-3, [0.5, 0.8]),
            (1e-4, [0.5, 0.5]),
            (1e-5, [0.45, 0.5]),
        ]
        bads = [multiplier_integral(h, lams, 2)[1] for h, lams in series]
        assert bads == [1, 0, 0]

    def test_pinned_run_repeats_its_last_multiplier(self):
        m, bad = multiplier_integral(1e-3, [0.6, 0.8], 5)
        assert m == 1e-3 * np.sum((np.array([0.6, 0.8, 0.8, 0.8, 0.8]) - 0.5) ** 2)
        assert bad == 4
        m, bad = multiplier_integral(1e-3, [0.6, 0.8], 2)
        assert (m, bad) == (1e-3 * np.sum((np.array([0.6, 0.8]) - 0.5) ** 2), 1)

    def test_slope_needs_positive_values(self):
        assert loglog_slope((1e-3, 1e-4, 1e-5), (1.0, 0.0, 2.0)) is None


class TestTightness:
    def test_constants(self):
        assert TIGHTNESS_REACH == pytest.approx(0.9538725524089398, rel=1e-12)
        assert TIGHTNESS_SLOPE == pytest.approx(4.4503392758878, rel=1e-10)
        assert GOOD_ITERATION_BAND == 0.25

    def test_reach_is_two_erfinv_half(self):
        assert TIGHTNESS_REACH == float(2.0 * erfinv(0.5))

    def test_clean_on_stationary_ball(self, grid128, ball128):
        cfg = SchemeConfig(
            scheme="volume_preserving", grid=grid128, h=1e-3, steps=5
        )
        stepper = Stepper(cfg, ball128)
        list(stepper)
        report = tightness_monitor(stepper)
        assert report.clean
        assert report.checked_steps == len(stepper.records)

    def test_requires_recorded_lambdas(self, grid128, ball128):
        cfg = SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=2)
        stepper = Stepper(cfg, ball128)
        list(stepper)
        with pytest.raises(ValueError):
            tightness_monitor(stepper)


class TestFirstVariations:
    def test_translation_field_gives_zero_energy_variation(self, grid256):
        h = 1e-4
        logging.getLogger("mbokit.kernel").setLevel(logging.ERROR)
        ball = rasterize_ball(grid256, (0.5, 0.5), 0.25)
        xi = constant_vector_field(grid256, (1.0, 0.0))
        assert abs(first_variation_energy(ball, xi, h)) <= 1e-8

    def test_radial_bump_variation_matches_line_integral(self, grid256):
        # tangential divergence on the circle: dE -> 2*pi*g(R)/sqrt(pi)
        h = 1e-4
        ball = rasterize_ball(grid256, (0.5, 0.5), 0.25)
        xi = radial_bump_field(grid256, (0.5, 0.5), 0.25, 0.08)
        got = first_variation_energy(ball, xi, h)
        assert got == pytest.approx(2.0 * math.sqrt(math.pi), rel=0.05)

    def test_slab_shift_dissipation_value(self):
        # one-cell shift against xi = e1: dD = +2*dx/(h*sqrt(pi)) + o(1)
        g = Grid(dim=2, n=256)
        h = 1e-3
        before = rasterize_slab(g, 0, 0.25, 0.75)
        after = PhaseField(g, np.roll(before.mask, 1, axis=1))
        xi = constant_vector_field(g, (1.0, 0.0))
        got = first_variation_dissipation(after, before, xi, h)
        target = 2.0 * g.dx / (h * math.sqrt(math.pi))
        assert got == pytest.approx(target, rel=0.01)
        assert got > 0.0

    def test_stationary_update_has_zero_residual(self, grid256):
        h = 1e-4
        plan = HeatKernelPlan(grid256, h)
        ball = rasterize_ball(grid256, (0.5, 0.5), 0.25)
        chi1, lam = step_volume_preserving(ball, convolve(plan, ball))
        xi = constant_vector_field(grid256, (0.0, 1.0))
        res = euler_lagrange_residual(chi1, ball, lam, xi, h)
        assert abs(res) <= 1e-6


@pytest.fixture(scope="module")
def single_grain_step():
    """One volume-preserving step of a blob (chi0 -> chi1) and one
    grain-growth step of the same blob as a single-grain partition
    (state0 -> state1), at sqrt(h) = 5 dx; both flip the same 552 cells.
    The bump field is off-centre so that no variation vanishes by symmetry."""
    g = Grid(dim=2, n=128)
    h = (5.0 * g.dx) ** 2
    plan = HeatKernelPlan(g, h)
    chi0 = random_blob(g, seed=3, fill=0.3, smoothing=0.08)
    chi1, lam = step_volume_preserving(chi0, convolve(plan, chi0))
    state0 = MultiPhaseState(g, chi0.mask.astype(np.int32), 1)
    state1, cut = step_grain_growth(
        state0, *stack_source(convolve_labels(plan, state0)), equal_tensions(1)
    )
    assert np.count_nonzero(chi1.mask != chi0.mask) == 552
    assert (state1.labels == chi1.mask).all()
    xi = radial_bump_field(g, (0.43, 0.55), 0.22, 0.05)
    return SimpleNamespace(
        chi0=chi0, chi1=chi1, lam=lam, state0=state0, state1=state1, cut=cut,
        tensions=equal_tensions(1), xi=xi, h=h,
    )


class TestMultiphaseStationarity:
    """A single grain is the two-phase problem with every interface counted
    from both sides: the energy doubles, so the multiphase variations and
    residual are twice the two-phase ones (the dissipation variation enters
    with the opposite sign convention)."""

    def test_energy_variation_doubles(self, single_grain_step):
        s = single_grain_step
        two = first_variation_energy(s.chi1, s.xi, s.h)
        multi = first_variation_energy_multiphase(
            s.state1, s.tensions, s.xi, s.h
        )
        assert two == pytest.approx(-0.27931, abs=1e-5)
        assert multi == pytest.approx(2.0 * two, rel=1e-12)

    def test_dissipation_variation_is_minus_twice(self, single_grain_step):
        s = single_grain_step
        two = first_variation_dissipation(s.chi1, s.chi0, s.xi, s.h)
        multi = first_variation_dissipation_multiphase(
            s.state1, s.state0, s.tensions, s.xi, s.h
        )
        assert two == pytest.approx(-0.79629, abs=1e-5)
        assert multi == pytest.approx(-2.0 * two, rel=1e-12)

    def test_grain_growth_residual_is_twice_volume_preserving(
        self, single_grain_step
    ):
        s = single_grain_step
        assert s.cut == pytest.approx(1.0 - 2.0 * s.lam, rel=1e-12)
        two = euler_lagrange_residual(s.chi1, s.chi0, s.lam, s.xi, s.h)
        multi = euler_lagrange_residual_grain_growth(
            s.state1, s.state0, s.cut, s.tensions, s.xi, s.h
        )
        assert two != 0.0
        assert multi / two == pytest.approx(2.0, rel=1e-10)

    def test_zero_force_residual_is_half_multiplier_residual(
        self, single_grain_step
    ):
        s = single_grain_step
        zero = np.zeros(s.chi1.grid.shape)
        forced = euler_lagrange_residual_forced(
            s.chi1, s.chi0, zero, s.xi, s.h
        )
        half = euler_lagrange_residual(s.chi1, s.chi0, 0.5, s.xi, s.h)
        assert forced == half


class TestApproxMonotonicity:
    def test_holds_on_random_shapes(self, grid128):
        # at h = 1e-4 (sqrt(h) = 1.3 dx) three blobs' smoothed fields ring
        # by 1.1-1.6e-9, past the clamp tolerance of 1e-9
        with pytest.warns(ClampWarning) as caught:
            for seed in range(5):
                blob = random_blob(grid128, seed=seed)
                chk = approx_monotonicity_check(blob, 1e-4, 1e-3)
                assert chk.passed
                assert chk.lhs >= chk.rhs * (1.0 - 1e-6)
        assert sum(w.category is ClampWarning for w in caught) == 3

    def test_rejects_bad_bandwidth_order(self, grid128):
        blob = random_blob(grid128, seed=0)
        with pytest.raises(ValueError):
            approx_monotonicity_check(blob, 1e-3, 1e-4)
