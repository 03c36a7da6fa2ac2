"""Memory pins: a run and an audit hold a fixed number of fields and states.

Peaks are measured with ``tracemalloc``, to which numpy reports every array
buffer it allocates, so the figures count array bytes exactly and do not
depend on the allocator or on other processes.
"""

import tracemalloc

import numpy as np
import pytest

from mbokit.cli import main
from mbokit.diagnostics import ledger_check
from mbokit.grid import Grid, RealField, random_blob, rasterize_ball, voronoi_labels
from mbokit.schemes import SchemeConfig, Stepper, equal_tensions
from mbokit.threshold import select_bottom_cells, select_top_cells


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


@pytest.fixture(scope="module")
def many_grains():
    """57 grains in a ball at 128^2, and the bytes of one stack of its p+1
    smoothed fields; few cells change per step, so gathered values are small."""
    grid = Grid(dim=2, n=128)
    lattice = [(i, j) for i in range(-4, 5) for j in range(-4, 5) if i * i + j * j < 18]
    seeds = [(0.5 + 0.07 * i + 0.003 * j, 0.5 + 0.07 * j) for i, j in lattice]
    solid = rasterize_ball(grid, (0.5, 0.5), 0.36)
    initial = voronoi_labels(grid, seeds, solid=solid)
    p = len(seeds)
    cfg = SchemeConfig(
        scheme="grain_growth", grid=grid, h=1e-3, steps=2, tensions=equal_tensions(p)
    )
    return cfg, initial, (p + 1) * grid.total_cells * 8


def test_grain_run_holds_one_stack_of_smoothed_fields(many_grains):
    cfg, initial, stack = many_grains

    def run_to_end():
        stepper = Stepper(cfg, initial)
        list(stepper)
        return stepper

    stepper, peak = traced_peak(run_to_end)
    assert len(stepper.records) == 2
    assert stack < peak < 1.5 * stack


def test_grain_audit_holds_one_stack_of_smoothed_fields(many_grains):
    cfg, initial, stack = many_grains
    states = [initial, *Stepper(cfg, initial)]
    report, peak = traced_peak(ledger_check, cfg, states)
    assert report.passed and len(report.rows) == 2
    assert stack < peak < 1.5 * stack


GRID64 = Grid(dim=3, n=64)
FIELD64 = GRID64.total_cells * 8  # bytes of one float64 field


def test_blob_set_up_holds_two_grid_fields():
    # the noise and one filtered field; the selection key reuses the noise
    blob, peak = traced_peak(random_blob, GRID64, 3)
    assert blob.cell_count == round(0.3 * GRID64.total_cells)
    assert peak < 3 * FIELD64


@pytest.mark.parametrize("select", [select_top_cells, select_bottom_cells])
def test_selection_holds_one_scratch_field(select):
    scores = RealField(GRID64, np.random.default_rng(5).standard_normal(GRID64.shape))
    target = GRID64.total_cells // 3
    sel, peak = traced_peak(select, scores, target)
    assert sel.mask.cell_count == target
    assert peak < 1.5 * FIELD64
