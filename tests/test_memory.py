"""Memory pins: a run and an audit hold a fixed number of fields and states.

Peaks are measured with ``tracemalloc``, to which numpy reports every array
buffer it allocates, so the figures count array bytes exactly and do not
depend on the allocator or on other processes.
"""

import tracemalloc

import numpy as np
import pytest

from mbokit import grid as grid_module
from mbokit.cli import main, read_dump, write_dump
from mbokit.diagnostics import LedgerWalk, energy_two_phase, ledger_check
from mbokit.grid import (
    _BLOCK_CELLS,
    Grid,
    MultiPhaseState,
    PhaseField,
    bounding_radius,
    centroid,
    random_blob,
    rasterize_ball,
    voronoi_labels,
)
from mbokit.kernel import HeatKernelPlan, convolve
from mbokit.schemes import (
    SchemeConfig,
    Stepper,
    step_forced,
    step_grain_growth,
)
from mbokit.threshold import select_bottom_cells, select_top_cells

from conftest import equal_tensions


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of traced bytes it allocated on top of
    what was already live when it was called."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


BALL_RUN = """\
scheme = mbo
n = 256
h = 1e-3
init = ball
ball_center = 0.5 0.5
ball_radius = 0.3
dump_every = 0
"""


def test_run_command_peak_does_not_grow_with_steps(tmp_path):
    def run_command(steps):
        cfg = tmp_path / f"run{steps}.cfg"
        cfg.write_text(BALL_RUN + f"steps = {steps}\nout_dir = {tmp_path}/o{steps}\n")
        return main(["run", str(cfg)])

    run_command(2)  # warm the plan and transform caches outside the measurement
    code2, peak2 = traced_peak(run_command, 2)
    code20, peak20 = traced_peak(run_command, 20)
    assert code2 == code20 == 0
    ledger = (tmp_path / "o20" / "ledger.csv").read_text().splitlines()
    assert len(ledger) == 22  # header, initial row, 20 completed steps
    state_bytes = 256 * 256  # one boolean mask
    assert abs(peak20 - peak2) < state_bytes


def test_check_command_peak_does_not_grow_with_dumps(tmp_path):
    cfg = tmp_path / "run.cfg"
    text = BALL_RUN.replace("dump_every = 0", "dump_every = 1")
    cfg.write_text(text + f"steps = 20\nout_dir = {tmp_path}/out\n")
    assert main(["run", str(cfg)]) == 0
    dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
    assert len(dumps) == 21
    main(["check", *dumps[:3]])  # warm the caches outside the measurement
    code3, peak3 = traced_peak(main, ["check", *dumps[:3]])
    code21, peak21 = traced_peak(main, ["check", *dumps])
    assert code3 == code21 == 0
    assert abs(peak21 - peak3) < 256 * 256  # one boolean mask


def test_sweep_command_peak_does_not_grow_with_horizon(tmp_path):
    def sweep_command(horizon):
        cfg = tmp_path / f"sweep{horizon}.cfg"
        cfg.write_text(
            BALL_RUN
            + f"h_list = 4e-3, 2e-3, 1e-3\nT = {horizon}\nout_dir = {tmp_path}/s\n"
        )
        return main(["sweep", str(cfg)])

    sweep_command(0.008)  # warm the plan and transform caches
    code1, peak1 = traced_peak(sweep_command, 0.016)
    code2, peak2 = traced_peak(sweep_command, 0.032)
    assert code1 == code2 == 0
    assert peak2 - peak1 < 256 * 256  # one boolean mask


def run_peak(cfg, initial, monkeypatch):
    """Traced peak of a run to its end, and the most cells a step gathered
    the smoothed labels on."""
    gathered = [0]
    gather = LedgerWalk.gather

    def recording(walk, cells):
        gathered[0] = max(gathered[0], cells.size)
        return gather(walk, cells)

    monkeypatch.setattr(LedgerWalk, "gather", recording)

    def run_to_end():
        stepper = Stepper(cfg, initial)
        list(stepper)
        return stepper

    stepper, peak = traced_peak(run_to_end)
    assert len(stepper.records) == 2
    return peak, gathered[0]


def test_grain_run_holds_no_stack_of_smoothed_fields(many_grains, monkeypatch):
    # one spectrum, the labels' summary (2.6 fields), the states, and the
    # smoothed labels on the cells a step cannot certify, 4 % here
    cfg, initial, stack = many_grains
    peak, _ = run_peak(cfg, initial, monkeypatch)
    assert peak < 0.15 * stack


def test_grain_run_peak_grows_with_grains_only_by_gathered_values(
    many_grains, twice_the_grains, monkeypatch
):
    # the summary, the spectrum and the states do not depend on the number
    # of grains; beyond the p+1 values gathered on each uncertain cell,
    # about twice the grains add under one field (the energy's (p+1)^2
    # overlaps among it) to a peak, against 52 more fields of stack
    field = many_grains[0].grid.total_cells * 8
    rests = []
    for cfg, initial, stack in (many_grains, twice_the_grains):
        peak, cells = run_peak(cfg, initial, monkeypatch)
        rests.append(peak - (initial.num_grains + 1) * cells * 8)
    assert rests[1] - rests[0] < field


def test_grain_advance_allocates_no_second_stack(many_grains):
    # the new state is smoothed through the walk's one spectrum, and its
    # summary is folded into the old summary's arrays
    cfg, initial, stack = many_grains
    walk = LedgerWalk(cfg, initial, None)
    after, _ = step_grain_growth(initial, walk.summary, walk.gather, cfg.tensions)
    summary = walk.summary
    arrays = [id(a) for a in (summary.gap, summary.rest, summary.base, summary.leader)]
    _, peak = traced_peak(walk.advance, 1, after, None)
    assert walk.changed > 0
    assert walk.summary is summary
    assert [id(a) for a in (summary.gap, summary.rest, summary.base, summary.leader)] == arrays
    assert peak < 0.1 * stack


def test_grain_audit_holds_no_stack_of_smoothed_fields(many_grains):
    # the audit knows each state's successor and streams its labels through
    # one spectrum buffer; beyond a few fields it holds the smoothed values
    # on the changed cells of two steps, 3 % and 4 % of the cells here
    cfg, initial, stack = many_grains
    states = [initial, *Stepper(cfg, initial)]
    report, peak = traced_peak(ledger_check, cfg, states)
    assert report.passed and len(report.rows) == 2
    assert peak < 0.15 * stack


def test_grain_energy_holds_no_stack_of_smoothed_fields(many_grains):
    # the route of ``mbokit energy``: a lone state, nothing follows it
    cfg, initial, stack = many_grains
    energy, peak = traced_peak(lambda: LedgerWalk(cfg, initial, initial).energy)
    assert energy == LedgerWalk(cfg, initial, None).energy
    assert peak < 0.1 * stack


def test_grain_dump_reads_with_one_label_cast(tmp_path):
    # the uint8 payload and the state's int32 labels, 5 bytes a cell; a
    # second int32 copy of the labels made it 9
    grid = Grid(dim=2, n=256)
    seeds = [(0.2 + 0.15 * i, 0.3 + 0.1 * (i % 3)) for i in range(5)]
    state = voronoi_labels(grid, seeds, vapor_margin=0.05)
    path = tmp_path / "state_000000.mbof"
    write_dump(path, state, 1e-3, 0)
    (loaded, _, _), peak = traced_peak(read_dump, path)
    assert np.array_equal(loaded.labels, state.labels)
    assert peak < 6 * grid.total_cells


def test_grain_state_keeps_contiguous_int32_labels():
    # a step hands over its new labels, and the state keeps them: a copy
    # would be 4 bytes a cell
    grid = Grid(dim=2, n=256)
    labels = np.random.default_rng(5).integers(0, 4, grid.shape, dtype=np.int32)
    state, peak = traced_peak(MultiPhaseState, grid, labels, 3)
    assert state.labels is labels
    assert peak < 0.1 * grid.total_cells


def test_voronoi_set_up_peak_does_not_grow_with_seeds():
    # each seed's distances go into one reused buffer and are compared in
    # place: no allocation per seed (3.9 fields with a new one per seed)
    grid = Grid(dim=2, n=256)
    field = grid.total_cells * 8
    rng = np.random.default_rng(7)
    peaks = []
    for count in (8, 64):
        seeds = [tuple(x) for x in rng.uniform(0.07, 0.93, (count, 2))]
        solid = rasterize_ball(grid, (0.5, 0.5), 0.4)
        state, peak = traced_peak(voronoi_labels, grid, seeds, 0.05, solid)
        assert state.num_grains == count
        peaks.append(peak)
    assert peaks[1] < 3 * field
    assert peaks[1] - peaks[0] < 0.05 * field


GRID64 = Grid(dim=3, n=64)
FIELD64 = GRID64.total_cells * 8  # bytes of one float64 field


def test_blob_set_up_holds_one_grid_field():
    # the noise, filtered in place, and blocks: no second field
    blob, peak = traced_peak(random_blob, GRID64, 3)
    assert blob.cell_count == round(0.3 * GRID64.total_cells)
    assert peak < 2 * FIELD64


def test_blob_recheck_holds_one_grid_field(monkeypatch, rechecked):
    # a wide band leaves dozens of cells to the direct filter: the noise is
    # drawn again only once the approximation is freed, and the cone of
    # those cells holds one slab of n^2 values at a time
    monkeypatch.setattr(grid_module, "_CUT_SLACK", 1e8)
    blob, peak = traced_peak(random_blob, GRID64, 3)
    assert blob.cell_count == round(0.3 * GRID64.total_cells)
    assert len(rechecked(3)) == 1 and rechecked(3)[0] >= 24
    assert peak < 2 * FIELD64


def selection_peak(select, grid):
    """Traced peak of a selection of a third of the cells of ``grid``, in
    float64 fields; the mask it returns is an eighth of one."""
    scores = np.random.default_rng(5).standard_normal(grid.shape).reshape(-1)
    target = grid.total_cells // 3
    (mask, _), peak = traced_peak(select, scores, target)
    assert np.count_nonzero(mask) == target
    return peak / (grid.total_cells * 8)


@pytest.mark.parametrize("select", [select_top_cells, select_bottom_cells])
def test_selection_holds_one_scratch_field(select):
    # no scratch key of a field's size: the mask, a sample and a few blocks
    assert selection_peak(select, GRID64) < 0.5


@pytest.mark.parametrize("select", [select_top_cells, select_bottom_cells])
@pytest.mark.parametrize("grid", [Grid(3, 96), Grid(2, 256)], ids=["96^3", "256^2"])
def test_selection_scratch_stays_below_half_a_field(grid, select):
    assert selection_peak(select, grid) < 0.5


@pytest.mark.parametrize("select", [select_top_cells, select_bottom_cells])
def test_selection_gathers_no_plateau_at_the_cut(select):
    # half the scores are exactly zero and the cut falls among them: the
    # ties at an end of the bracket are counted, never gathered
    grid = Grid(3, 96)
    values = np.maximum(np.random.default_rng(5).standard_normal(grid.shape), 0.0)
    if select is select_bottom_cells:
        values = -values
    target = int(0.6 * grid.total_cells)
    (mask, cut), peak = traced_peak(select, values.reshape(-1), target)
    assert np.count_nonzero(mask) == target and cut == 0.0
    assert peak < 0.5 * grid.total_cells * 8


@pytest.mark.parametrize("smoothing", [1e308, 1e300, 5.0])
def test_oversized_blob_smoothing_is_refused_before_allocating(smoothing):
    grid = Grid(dim=2, n=16)  # filter radius inf, 6.4e301 and 320 cells

    def attempt():
        try:
            random_blob(grid, seed=1, smoothing=smoothing)
        except ValueError as exc:
            return str(exc)

    message, peak = traced_peak(attempt)
    assert "smoothing" in message
    assert peak < grid.total_cells * 8  # not even the noise field


# One state smoothed, its energy and its support radius, at 512^2 and 64^3
# (2^18 cells each).  The figures count traced bytes on top of the live
# arrays: one spectrum-sized buffer for a smoothing, chunks for the rest.
GRID512 = Grid(dim=2, n=512)


@pytest.fixture(params=[GRID512, GRID64], ids=["512^2", "64^3"])
def ball_and_plan(request):
    grid = request.param
    ball = rasterize_ball(grid, (0.45,) * grid.dim, 0.3)
    plan = HeatKernelPlan(grid, 16.0 * grid.dx**2)
    convolve(plan, ball)  # warm the transform caches
    return ball, plan, grid.total_cells * 8


def test_convolve_holds_one_spectrum(ball_and_plan):
    ball, plan, field = ball_and_plan
    smoothed, peak = traced_peak(convolve, plan, ball)
    n = ball.grid.n
    # the values are a view into the spectrum they were written over
    assert smoothed.base.nbytes == field // n * (n + 2)
    assert peak < 1.3 * field


def test_plan_holds_no_multipliers_and_multiplies_in_one_block(ball_and_plan):
    # a plan keeps the |k|^2 tables of a slab and of a row, under a
    # hundredth of a field; multiply builds the multipliers a block of
    # about 2^15 cells at a time in one scratch block, which numpy's ufunc
    # casts to complex through its buffer of 8192 values
    ball, plan, field = ball_and_plan
    built, peak = traced_peak(HeatKernelPlan, ball.grid, plan.h)
    arrays = [v for v in vars(built).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 0.01 * field
    assert peak < 0.05 * field
    spectrum = plan.forward(ball.mask, plan.empty_spectrum())
    _, peak = traced_peak(plan.multiply, spectrum)
    assert peak < _BLOCK_CELLS * 8 + 8192 * 16 + 4096  # and a few small objects


def test_centroid_gathers_no_occupied_cells_whole(ball_and_plan):
    ball, _, field = ball_and_plan
    _, peak = traced_peak(centroid, ball)
    assert peak < 0.25 * field


def test_energy_builds_no_full_grid_integrand(ball_and_plan):
    ball, plan, field = ball_and_plan
    smoothed = convolve(plan, ball)
    _, peak = traced_peak(energy_two_phase, ball, smoothed, plan.h)
    assert peak < 0.25 * field


def test_bounding_radius_builds_no_distance_field(ball_and_plan):
    ball, _, field = ball_and_plan
    center = centroid(ball)
    _, peak = traced_peak(bounding_radius, ball, center)
    assert peak < 0.25 * field


def test_two_phase_advance_holds_one_spectrum():
    # a step that changes about a hundred cells: the ledger's sums add
    # chunks, not a zero field
    ball = rasterize_ball(GRID512, (0.45, 0.45), 0.3)
    cfg = SchemeConfig("mbo", GRID512, 16.0 * GRID512.dx**2, 1)
    walk = LedgerWalk(cfg, ball, None)
    after = step_forced(ball, walk.smoothed, 0.0, cfg.h)
    _, peak = traced_peak(walk.advance, 1, after, None)
    assert 50 < walk.changed < 500
    assert peak < 1.3 * GRID512.total_cells * 8


@pytest.mark.parametrize("grid", [GRID512, GRID64], ids=["512^2", "64^3"])
def test_two_phase_advance_holds_no_full_grid_temporaries(grid):
    # a tenth of the cells change: one old value on each is held (0.1 of a
    # field), but no array of the cells, no full-grid mask and no second
    # array of their size; the multiply's block and its cast buffer (0.19)
    # come on top
    ball = rasterize_ball(grid, (0.45,) * grid.dim, 0.3)
    flipped = np.random.default_rng(1).random(grid.shape) < 0.1
    after = PhaseField(grid, ball.mask ^ flipped)
    cfg = SchemeConfig("mbo", grid, 16.0 * grid.dx**2, 1)
    walk = LedgerWalk(cfg, ball, None)
    walk.advance(1, after, None)  # warm the caches and hold a step's cells
    _, peak = traced_peak(walk.advance, 2, ball, None)
    assert walk.changed == np.count_nonzero(flipped)
    assert peak < 0.3 * grid.total_cells * 8


def test_forced_step_holds_no_force_field():
    # the force is a number: a forced step thresholds at a scalar and sums
    # its transfer over the changed cells, so it holds what a plain step does
    ball = rasterize_ball(GRID512, (0.45, 0.45), 0.3)
    h = 16.0 * GRID512.dx**2
    peaks = {}
    for scheme, force in [("mbo", None), ("forced", 0.5)] * 2:  # the first warms
        stepper = Stepper(SchemeConfig(scheme, GRID512, h, 1, force=force), ball)
        _, peaks[scheme] = traced_peak(next, iter(stepper))
    assert abs(peaks["forced"] - peaks["mbo"]) < 0.1 * GRID512.total_cells * 8
