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
from mbokit.diagnostics import (
    GOOD_ITERATION_BAND,
    LEDGER_RTOL,
    TIGHTNESS_REACH,
    TIGHTNESS_SLOPE,
    LedgerRow,
    LedgerWalk,
    constant_vector_field,
    energy_multiphase,
    energy_two_phase,
    euler_lagrange_residual,
    euler_lagrange_residual_forced,
    euler_lagrange_residual_grain_growth,
    first_variation_dissipation,
    first_variation_dissipation_multiphase,
    first_variation_energy,
    first_variation_energy_multiphase,
    ledger_check,
    ledger_report,
    loglog_slope,
    multiplier_integral,
    radial_bump_field,
    state_difference,
    tightness_monitor,
)
from mbokit.grid import (
    Grid,
    MultiPhaseState,
    PhaseField,
    RealField,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)
from mbokit.kernel import (
    HeatKernelPlan,
    ResolutionWarning,
    convolve,
    convolve_labels,
)
from mbokit.schemes import (
    SchemeConfig,
    Stepper,
    SurfaceTensionMatrix,
    approx_monotonicity_check,
    equal_tensions,
    step_grain_growth,
    step_volume_preserving,
)
from mbokit.threshold import select_top_cells

from conftest import symmetric_tensions
from reference_forms import (
    dissipation_multiphase,
    dissipation_two_phase,
    linearized_energy,
    phase_difference,
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


def full_grid_two_phase(cfg, prev, cur, prev_smoothed, cur_smoothed, force_now):
    """Two-phase dissipation and forcing transfer summed over every cell, as
    the ledger once formed them."""
    omega = cur.as_float()
    omega -= prev.mask
    diff = cur_smoothed.values - prev_smoothed.values
    cell = cfg.grid.cell_volume
    dissipation = float((omega * diff).sum()) * cell / math.sqrt(cfg.h)
    transfer = 0.0
    if force_now is not None:
        transfer = float((force_now.values * omega).sum()) * cell / math.sqrt(math.pi)
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
        w = omega.values.ravel()
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
        from mbokit.grid import RealField

        bad = RealField(grid64, np.full(grid64.shape, 0.5))
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
        sel = select_top_cells(phi, blob.cell_count)
        best = linearized_energy(phi, sel.mask, sel.threshold, h)
        for _ in range(200):
            flat = np.zeros(g.total_cells, dtype=bool)
            flat[rng.permutation(g.total_cells)[: blob.cell_count]] = True
            rival = PhaseField(g, flat.reshape(g.shape))
            assert best <= linearized_energy(phi, rival, sel.threshold, h) + 1e-12


class TestMultiphase:
    def test_single_grain_doubles_two_phase_energy(self, grid64):
        blob = random_blob(grid64, seed=4)
        state = MultiPhaseState(grid64, blob.mask.astype(np.int32), 1)
        plan = HeatKernelPlan(grid64, 1e-3)
        e2 = energy_two_phase(blob, convolve(plan, blob), 1e-3)
        smoothed = convolve_labels(plan, state)
        emp = energy_multiphase(state, smoothed, 1e-3, equal_tensions(1))
        assert emp == pytest.approx(2.0 * e2, rel=1e-12)

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
        walk = LedgerWalk(cfg, states[0])
        for n in range(1, len(states)):
            prev, cur = states[n - 1], states[n]
            expected = full_grid_dissipation(
                cfg, prev, cur, smoothed[n - 1], smoothed[n]
            )
            row = walk.advance(n, cur)
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
        force = None
        if scheme == "forced":
            def force(grid, t):  # changes sign across the grid and in time
                x = grid.coordinate(0) + 0.5 * grid.coordinate(1)
                return RealField(grid, 10.0 * np.cos(2.0 * np.pi * x) - 40.0 * t)

        cfg = SchemeConfig(
            scheme=scheme, grid=grid128, h=1e-3, steps=4, force=force
        )
        states = [ball128, *Stepper(cfg, ball128)]
        states.append(states[-1])  # a step that flips no cell
        plan = HeatKernelPlan(grid128, cfg.h)
        smoothed = [convolve(plan, s) for s in states]
        walk = LedgerWalk(cfg, states[0])
        for n in range(1, len(states)):
            prev, cur = states[n - 1], states[n]
            force_now = force(grid128, n * cfg.h) if force else None
            expected = full_grid_two_phase(
                cfg, prev, cur, smoothed[n - 1], smoothed[n], force_now
            )
            row = walk.advance(n, cur, force_now)
            got = (row.dissipation, row.transfer)
            assert got == expected
            assert list(np.signbit(got)) == list(np.signbit(expected))
            flipped = np.count_nonzero(cur.mask != prev.mask)
            assert walk.changed.size == flipped
            if n == len(states) - 1:
                assert flipped == 0
                assert not np.signbit(got).any() and got == (0.0, 0.0)
            else:
                assert flipped > 0 and row.dissipation > 0.0
                assert scheme == "mbo" or row.transfer != 0.0

    def test_audit_from_a_later_step_reproduces_run_rows(self, grid128, ball128):
        # a force that changes every step: rows must be evaluated at their own
        # step number, not at the position of the state in the audited list
        def ramp(grid, t):
            return RealField(grid, np.full(grid.shape, 2.0 - 250.0 * t))

        cfg = SchemeConfig(
            scheme="forced", grid=grid128, h=1e-3, steps=6, force=ramp
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
        state0, convolve_labels(plan, state0), equal_tensions(1)
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
        zero = RealField(s.chi1.grid, np.zeros(s.chi1.grid.shape))
        forced = euler_lagrange_residual_forced(
            s.chi1, s.chi0, zero, s.xi, s.h
        )
        half = euler_lagrange_residual(s.chi1, s.chi0, 0.5, s.xi, s.h)
        assert forced == half


class TestApproxMonotonicity:
    def test_holds_on_random_shapes(self, grid128):
        for seed in range(5):
            blob = random_blob(grid128, seed=seed)
            chk = approx_monotonicity_check(blob, 1e-4, 1e-3)
            assert chk.passed
            assert chk.lhs >= chk.rhs * (1.0 - 1e-6)

    def test_rejects_bad_bandwidth_order(self, grid128):
        blob = random_blob(grid128, seed=0)
        with pytest.raises(ValueError):
            approx_monotonicity_check(blob, 1e-3, 1e-4)
