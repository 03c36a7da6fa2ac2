import ast
import csv
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mbokit
from mbokit import cli
from mbokit.cli import (
    ConfigError,
    DumpError,
    build_initial,
    build_grid,
    build_tensions,
    main,
    parse_config,
    read_dump,
    read_header,
    write_dump,
)
from mbokit.diagnostics import energy_two_phase
from mbokit.grid import (
    DegeneratePhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    rasterize_ball,
    voronoi_labels,
)
from mbokit.kernel import ClampWarning, HeatKernelPlan, ResolutionWarning, convolve
from mbokit import schemes
from mbokit.schemes import SchemeConfig, Stepper

from conftest import GRAIN_BALL, grain_lattice
from oracles import circle_mcf
from reference_forms import full_stack_step

BASE = """\
scheme = mbo
n = 64
h = 4e-3
steps = 3
init = ball
ball_center = 0.5 0.5
ball_radius = 0.3
"""


# Runs at n = 32 that complete, pin at once (sqrt h far below dx), fill the
# torus under a large force (then pin) and empty it; and a run of no steps.
_SCHEDULE_BALL = "n = 32\nh = 4e-3\ninit = ball\nball_center = 0.5 0.5\nball_radius = 0.3\n"
_SCHEDULE_FORCED = "scheme = forced\nsteps = 7\n" + _SCHEDULE_BALL
DUMP_SCHEDULE_RUNS = {
    "completed": "scheme = mbo\nsteps = 7\n" + _SCHEDULE_BALL,
    "pinned": "scheme = mbo\nsteps = 7\n" + _SCHEDULE_BALL.replace("4e-3", "1e-5"),
    "fills": _SCHEDULE_FORCED + "force_value = 30\n",
    "empties": _SCHEDULE_FORCED + "force_value = -30\n",
    "no_steps": "scheme = mbo\nsteps = 0\n" + _SCHEDULE_BALL,
}

# Valid configs at n = 32; the non-finite geometry tests override one key.
NON_FINITE_BASES = {
    "ball": "scheme = mbo\nn = 32\nh = 1.6e-2\nsteps = 2\ninit = ball\n"
    "ball_center = 0.5 0.5\nball_radius = 0.3\n",
    "two_balls": "scheme = mbo\nn = 32\nh = 1.6e-2\nsteps = 2\ninit = two_balls\n"
    "ball_center = 0.3 0.5\nball_radius = 0.15\n"
    "ball2_center = 0.7 0.5\nball2_radius = 0.15\n",
    "voronoi": "scheme = grain_growth\nn = 32\nh = 1.6e-2\nsteps = 2\n"
    "init = voronoi\nseeds = 0.3 0.3; 0.6 0.7\nvapor_margin = 0.05\n"
    "solid_center = 0.5 0.5\nsolid_radius = 0.3\nsigma_default = 0.9\n",
}


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config(BASE)
        assert cfg.get("scheme") == "mbo"
        assert cfg.get("n") == 64
        assert cfg.get("h") == 4e-3
        assert cfg.get("ball_center") == (0.5, 0.5)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nn = 32  # inline\n")
        assert cfg.get("n") == 32

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*mystery"):
            parse_config("n = 64\nh = 1e-3\nmystery = 1\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match="line 3.*line 1"):
            parse_config("n = 64\nh = 1e-3\nn = 128\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n = 64\nh = fast\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_seed_list_parses(self):
        cfg = parse_config("seeds = 0.1 0.2; 0.3 0.4; 0.5 0.6\n")
        assert cfg.get("seeds") == ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))

    def test_sigma_keys_parse(self):
        cfg = parse_config("sigma.1.2 = 1.5\nsigma_default = 0.9\n")
        assert cfg.get("sigma.1.2") == 1.5

    @pytest.mark.parametrize("key", ["sigma.2.2", "sigma.01.1", "sigma.3.03"])
    def test_diagonal_sigma_rejected(self, key):
        # the labels compare as integers, so a leading zero names the same grain
        with pytest.raises(ConfigError, match=rf"^line 2: '{key}' .* diagonal"):
            parse_config(f"sigma_default = 0.9\n{key} = 1.0\nsigma.1.2 = 0.8\n")


class TestBuildTensions:
    def test_default_fill_and_overrides(self):
        cfg = parse_config("sigma_default = 0.9\nsigma.1.3 = 1.1\n")
        m = build_tensions(cfg, 3)
        assert m.sigma[0, 1] == 0.9
        assert m.sigma[0, 2] == 1.1
        assert m.sigma[2, 0] == 1.1

    def test_tension_of_two_rejected_with_rule(self):
        cfg = parse_config("sigma.1.2 = 2.0\n")
        with pytest.raises(ConfigError, match="below 2"):
            build_tensions(cfg, 2)

    def test_contradictory_symmetric_entries(self):
        cfg = parse_config("sigma.1.2 = 1.0\nsigma.2.1 = 1.5\n")
        with pytest.raises(ConfigError, match="contradicts"):
            build_tensions(cfg, 2)

    def test_out_of_range_grain_index(self):
        cfg = parse_config("sigma.1.5 = 1.0\n")
        with pytest.raises(ConfigError, match="outside grains"):
            build_tensions(cfg, 3)


class TestBuildInitial:
    def test_two_balls_overlap_rejected(self):
        cfg = parse_config(
            "n = 64\ninit = two_balls\n"
            "ball_center = 0.4 0.5\nball_radius = 0.2\n"
            "ball2_center = 0.5 0.5\nball2_radius = 0.2\n"
        )
        with pytest.raises(ConfigError, match="overlap"):
            build_initial(cfg, build_grid(cfg))

    def test_grains_key_is_unknown(self):
        # the grain count is that of the seeds; no key restates it
        with pytest.raises(ConfigError, match="line 3: unknown key 'grains'"):
            parse_config(
                "n = 64\ninit = voronoi\ngrains = 2\nseeds = 0.2 0.2; 0.8 0.8\n"
            )


@st.composite
def dump_cases(draw):
    """A random state of every kind the dump format stores: a two-phase
    field, a one-grain and a many-grain partition, in 2-D and 3-D."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(8, 24 if dim == 2 else 10))
    side = draw(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    grid = Grid(dim=dim, n=n, side=side)
    kind = draw(st.sampled_from(["two_phase", "one_grain", "many_grains"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "two_phase":
        state = PhaseField(grid, rng.random(grid.shape) < draw(st.floats(0, 1)))
    else:
        grains = 1 if kind == "one_grain" else draw(st.integers(2, 255))
        labels = rng.integers(0, grains + 1, size=grid.shape, dtype=np.int32)
        state = MultiPhaseState(grid, labels, grains)
    h = draw(st.floats(0, 1e3, exclude_min=True, allow_nan=False))
    step = draw(st.integers(0, 10**9))
    return state, h, step


HEADER_KEYS = ("dim", "n", "side", "h", "step", "phases")

# values no writer produces: non-numeric, out of range, too large or too small
odd_values = st.one_of(
    st.sampled_from(
        ["", " ", "x", "1.5", "0", "-1", "8,8", "8,,8", "8,8,8", "-8,-8", "1e309",
         "-inf", "nan", "1e-320", "1e308", "9" * 40, "256", "257", "1_0", "0x10"]
    ),
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=10),
)


@st.composite
def header_mutations(draw):
    """A valid two-phase dump with one to three of its header lines dropped,
    repeated, garbled or given odd values, or with bytes after its payload."""
    head, _, payload = _valid_dump_bytes().partition(b"\n\n")
    lines = head.split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "garble", "value", "append"]))
        key = draw(st.sampled_from(HEADER_KEYS)).encode()
        at = [i for i, ln in enumerate(lines) if ln.partition(b"=")[0] == key]
        if op == "append":
            payload += draw(st.binary(min_size=1, max_size=600))
        elif op == "repeat":
            value = draw(st.one_of(st.just("1"), odd_values)).encode()
            lines.insert(draw(st.integers(1, len(lines))), key + b"=" + value)
        elif at and op == "drop":
            del lines[at[0]]
        elif at and op == "garble":
            garbled = draw(st.binary(min_size=0, max_size=8))
            lines[at[0]] = garbled + b"=" + lines[at[0]].partition(b"=")[2]
        elif at:
            lines[at[0]] = key + b"=" + draw(odd_values).encode()
    return b"\n".join(lines) + b"\n\n" + payload


def _valid_dump_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "v.mbof")
        write_dump(path, rasterize_ball(Grid(dim=2, n=8), (0.5, 0.5), 0.3), 1e-3, 2)
        return path.read_bytes()


class TestDumpRoundTrip:
    @given(dump_cases())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_every_state_kind(self, case):
        state, h, step = case
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.mbof"), Path(tmp, "b.mbof")
            write_dump(first, state, h, step)
            loaded, h_read, step_read = read_dump(first)
            assert type(loaded) is type(state)
            assert loaded.grid == state.grid
            assert (h_read, step_read) == (h, step)
            if isinstance(state, MultiPhaseState):
                assert loaded.num_grains == state.num_grains
                assert np.array_equal(loaded.labels, state.labels)
            else:
                assert np.array_equal(loaded.mask, state.mask)
            write_dump(second, loaded, h_read, step_read)
            assert first.read_bytes() == second.read_bytes()

    @given(header_mutations())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_header_reads_back_or_check_exits_4(self, dump):
        # a fuzzed h may be far below the grid's resolution, so check may
        # warn, but only of a documented kind
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.read_back_or_exit_4(dump)
        assert all(map(is_documented_warning, caught)), [str(w) for w in caught]

    @staticmethod
    def read_back_or_exit_4(dump):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "f.mbof")
            path.write_bytes(dump)
            try:
                header = read_header(path)
                read_dump(path)
            except (ValueError, OSError):
                assert main(["check", str(path)]) == 4
                return
            args = ["check", str(path)]
            if header.num_grains is not None:  # a partition: tensions needed
                config = Path(tmp, "grains.cfg")
                config.write_text("scheme = grain_growth\n")
                args += ["--config", str(config)]
            assert main(args) == 0

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"n=16,16", b"n=0_16,16"),
            (b"step=3", b"step=+3"),
            (b"h=0.001", b"h=+1e-3"),
            (b"dim=2", b"dim= 2"),
        ],
        ids=["underscore_n", "signed_step", "signed_h", "spaced_dim"],
    )
    def test_header_that_does_not_round_trip_exits_4(self, tmp_path, old, new):
        # such a header parses, but rewriting its state would change the bytes
        p = tmp_path / "r.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=16), (0.5, 0.5), 0.3), 1e-3, 3)
        data = p.read_bytes()
        assert data.count(old) == 1
        p.write_bytes(data.replace(old, new))
        with pytest.raises(ValueError, match="header"):
            read_header(p)
        assert main(["check", str(p)]) == 4

    def test_two_phase_bit_exact(self, tmp_path):
        g = Grid(dim=2, n=64)
        ball = rasterize_ball(g, (0.4, 0.6), 0.22)
        p = tmp_path / "a.mbof"
        write_dump(p, ball, 1e-3, 7)
        state, h, step = read_dump(p)
        assert (state.mask == ball.mask).all()
        assert h == 1e-3 and step == 7
        # writing the load again reproduces the bytes
        q = tmp_path / "b.mbof"
        write_dump(q, state, h, step)
        assert p.read_bytes() == q.read_bytes()

    def test_multiphase_bit_exact(self, tmp_path):
        g = Grid(dim=2, n=64)
        state = voronoi_labels(g, [(0.2, 0.3), (0.7, 0.6)], vapor_margin=0.03)
        p = tmp_path / "m.mbof"
        write_dump(p, state, 2.5e-4, 0)
        loaded, h, step = read_dump(p)
        assert isinstance(loaded, MultiPhaseState)
        assert (loaded.labels == state.labels).all()
        assert loaded.num_grains == 2

    def test_truncated_payload_rejected(self, tmp_path):
        g = Grid(dim=2, n=64)
        ball = rasterize_ball(g, (0.5, 0.5), 0.2)
        p = tmp_path / "t.mbof"
        write_dump(p, ball, 1e-3, 0)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError, match="cells"):
            read_dump(p)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "x.mbof"
        p.write_bytes(b"NOPE\n\nxxxx")
        with pytest.raises(ValueError, match="MBOF1"):
            read_dump(p)

    @pytest.mark.parametrize("key", ["dim", "n", "side", "h", "step", "phases"])
    def test_missing_header_key_named(self, tmp_path, key):
        p = tmp_path / "k.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.2), 1e-3, 0)
        head, _, payload = p.read_bytes().partition(b"\n\n")
        kept = [ln for ln in head.split(b"\n") if not ln.startswith(f"{key}=".encode())]
        p.write_bytes(b"\n".join(kept) + b"\n\n" + payload)
        with pytest.raises(ValueError, match=f"'{key}'"):
            read_dump(p)

    def test_single_grain_partition_round_trips_as_partition(self, tmp_path):
        # one grain means two labels, the same count as a two-phase field
        g = Grid(dim=2, n=64)
        state = voronoi_labels(
            g, [(0.5, 0.5)], solid=rasterize_ball(g, (0.5, 0.5), 0.3)
        )
        p = tmp_path / "g1.mbof"
        write_dump(p, state, 1e-3, 4)
        loaded, h, step = read_dump(p)
        assert isinstance(loaded, MultiPhaseState)
        assert loaded.num_grains == 1
        assert (loaded.labels == state.labels).all()
        assert (h, step) == (1e-3, 4)
        q = tmp_path / "again.mbof"
        write_dump(q, loaded, h, step)
        assert p.read_bytes() == q.read_bytes()

    def test_only_single_grain_dumps_carry_a_kind_line(self, tmp_path):
        # every other dump keeps the bytes it always had
        g = Grid(dim=2, n=64)
        keys = b"MBOF1 dim n side h step phases".split()
        states = {
            "ball": rasterize_ball(g, (0.5, 0.5), 0.3),
            "grains": voronoi_labels(g, [(0.2, 0.3), (0.7, 0.6)]),
            "grain": voronoi_labels(g, [(0.5, 0.5)], vapor_margin=0.1),
        }
        for name, state in states.items():
            write_dump(tmp_path / name, state, 1e-3, 0)
            head = (tmp_path / name).read_bytes().partition(b"\n\n")[0]
            got = [ln.partition(b"=")[0] for ln in head.split(b"\n")]
            assert got == keys + ([b"kind"] if name == "grain" else [])

    @pytest.mark.parametrize(
        "line, message",
        [(b"phases=1", "phases=1"), (b"phases=2\nkind=grains", "kind 'grains'")],
        ids=["one_phase", "unknown_kind"],
    )
    def test_bad_phases_or_kind_rejected(self, tmp_path, line, message):
        p = tmp_path / "k.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.2), 1e-3, 0)
        p.write_bytes(p.read_bytes().replace(b"phases=2", line, 1))
        with pytest.raises(ValueError, match=message):
            read_dump(p)

    @pytest.mark.parametrize(
        "kind, label, top", [("two_phase", 7, 1), ("partition", 3, 2)]
    )
    def test_two_phase_payload_outside_zero_one_rejected(
        self, tmp_path, kind, label, top
    ):
        # a payload label above the header's top label: 1 for a two-phase
        # field, the grain count for a partition
        g = Grid(dim=2, n=64)
        state = (
            rasterize_ball(g, (0.5, 0.5), 0.2)
            if kind == "two_phase"
            else voronoi_labels(g, [(0.2, 0.3), (0.7, 0.6)])
        )
        p = tmp_path / "b.mbof"
        write_dump(p, state, 1e-3, 0)
        blob = bytearray(p.read_bytes())
        blob[-1] = label
        p.write_bytes(bytes(blob))
        with pytest.raises(
            DumpError, match=f"holds label {label}, above its top label {top}$"
        ):
            read_dump(p)


def quiet_main(args):
    """``main`` with warnings ignored whatever the active filters are, so
    stderr holds only the command's own messages."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCommands:
    def test_run_writes_outputs_and_passes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "ledger.csv").exists()
        dumps = sorted(out.glob("state_*.mbof"))
        assert len(dumps) == 4

    def test_run_steps_zero_writes_initial_only(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 0")
            + f"out_dir = {tmp_path}/out0\n",
        )
        assert main(["run", cfg]) == 0
        dumps = sorted((tmp_path / "out0").glob("state_*.mbof"))
        assert [d.name for d in dumps] == ["state_000000.mbof"]

    def test_run_steps_zero_ledger_carries_initial_energy(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 0") + f"out_dir = {tmp_path}/out0\n",
        )
        assert main(["run", cfg]) == 0
        rows = (tmp_path / "out0" / "ledger.csv").read_text().splitlines()
        assert len(rows) == 2
        capsys.readouterr()
        assert main(["energy", str(tmp_path / "out0" / "state_000000.mbof")]) == 0
        assert rows[1].split(",")[3] == capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "run, status, dumped",
        [
            ("completed", "completed", {0: [0, 7], 2: [0, 2, 4, 6, 7], 3: [0, 3, 6, 7]}),
            ("pinned", "pinned", dict.fromkeys([0, 2, 3], [0, 1])),
            ("fills", "pinned", dict.fromkeys([0, 2, 3], [0, 2])),
            ("empties", "extinct", dict.fromkeys([0, 2, 3], [0, 1])),
            ("no_steps", "completed", dict.fromkeys([0, 2, 3], [0])),
        ],
    )
    def test_run_dumps_on_schedule_and_its_last_state(
        self, tmp_path, capsys, run, status, dumped
    ):
        # ``dumped`` maps dump_every to the steps dumped: the initial and the
        # last state, and those of the steps dump_every divides
        for dump_every, steps in dumped.items():
            out = tmp_path / f"out{dump_every}"
            text = DUMP_SCHEDULE_RUNS[run] + f"dump_every = {dump_every}\n"
            cfg = write_cfg(tmp_path, text + f"out_dir = {out}\n")
            assert quiet_main(["run", cfg]) == 0
            last = steps[-1]
            printed = capsys.readouterr().out
            assert printed.startswith(f"status: {status} after {last} steps\n")
            names = sorted(p.name for p in out.iterdir())
            assert names == ["ledger.csv"] + [f"state_{k:06d}.mbof" for k in steps]
            rows = (out / "ledger.csv").read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == [
                str(k) for k in range(last + 1)
            ]

    def test_run_reruns_bit_identical(self, tmp_path):
        cfg_a = write_cfg(
            tmp_path, BASE + f"out_dir = {tmp_path}/a\ndump_every = 1\n", "a.cfg"
        )
        cfg_b = write_cfg(
            tmp_path, BASE + f"out_dir = {tmp_path}/b\ndump_every = 1\n", "b.cfg"
        )
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0
        for pa in sorted((tmp_path / "a").iterdir()):
            pb = tmp_path / "b" / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_run_config_error_exit(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "mystery = 3\n")
        assert main(["run", cfg]) == 3

    def test_run_negative_dump_every_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # refused before the grid or the initial state is built
        monkeypatch.setattr(cli, "build_grid", lambda cfg: pytest.fail("set up"))
        text = BASE + f"dump_every = -3\nout_dir = {tmp_path}/out\n"
        assert main(["run", write_cfg(tmp_path, text)]) == 3
        assert capsys.readouterr().err.startswith("config error: line 8: dump_every")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, name, content, code, line",
        [
            (
                "run", "run.cfg", BASE.replace("n = 64", "n = abc").encode(), 3,
                "config error: line 2: bad value for 'n': "
                "invalid literal for int() with base 10: 'abc'",
            ),
            (
                "run", "run.cfg",
                NON_FINITE_BASES["voronoi"].replace("= 0.9", "= 3").encode(), 3,
                "config error: invalid surface tensions: off-diagonal tensions "
                "must stay below 2, the cost of the vapor route between two grains",
            ),
            (
                "run", "run.cfg", BASE.replace("n = 64", "n = 4").encode(), 3,
                "config error: need at least 8 cells per axis, got 4",
            ),
            (
                "run", "run.cfg", BASE.replace("= 0.3", "= 0.6").encode(), 3,
                "config error: radius 0.6 must be below half the side 1.0 "
                "to avoid periodic self-overlap",
            ),
            (
                "run", "run.cfg", BASE.replace("h = 4e-3", "h = -1").encode(), 3,
                "config error: bandwidth h must be positive and finite, got -1.0",
            ),
            (
                "check", "s.mbof", _valid_dump_bytes()[:-1] + b"\x07", 4,
                "cannot load dumps: {path}: payload holds label 7, "
                "above its top label 1",
            ),
            (
                "check", "s.mbof", b"MBOF1\ndim=2\n", 4,
                "cannot load dumps: {path}: missing header terminator",
            ),
            (
                "energy", "s.mbof", None, 4,
                "cannot load dump: [Errno 2] No such file or directory: '{path}'",
            ),
            (
                "run", "run.cfg", None, 3,
                "config error: cannot read {path}: No such file or directory",
            ),
        ],
        ids=[
            "bad_value", "tensions", "grid", "initial", "scheme",
            "payload", "header", "missing_dump", "missing_config",
        ],
    )
    def test_refused_input_names_its_reason(
        self, tmp_path, capsys, command, name, content, code, line
    ):
        # the exit code and the whole last stderr line of each kind of
        # refused input: a config value, the tensions, the grid, the initial
        # state, the scheme, a dump's payload and header, a missing file
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert quiet_main([command, str(path)]) == code
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == line.format(path=path)

    @pytest.mark.parametrize("side", ["inf", "1e-320", "1e200"])
    def test_run_side_out_of_range_is_config_error(self, tmp_path, capsys, side):
        text = BASE + f"side = {side}\nout_dir = {tmp_path}/out\n"
        assert main(["run", write_cfg(tmp_path, text)]) == 3
        assert capsys.readouterr().err.startswith("config error: side")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, unreadable",
        [
            ("run", "directory"),
            ("sweep", "directory"),
            ("run", "byte_ff"),
            ("check", "directory"),
            ("energy", "directory"),
        ],
    )
    def test_unreadable_config_is_config_error(
        self, tmp_path, capsys, command, unreadable
    ):
        if unreadable == "directory":
            cfg = tmp_path / "cfgdir"
            cfg.mkdir()
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_bytes(BASE.encode() + b"# \xff\n")
        g = Grid(dim=2, n=64)
        dump = tmp_path / "s.mbof"
        if command == "check":
            write_dump(dump, rasterize_ball(g, (0.5, 0.5), 0.3), 4e-3, 0)
        if command == "energy":
            write_dump(dump, voronoi_labels(g, [(0.2, 0.2), (0.8, 0.8)]), 4e-3, 0)
        args = {
            "run": ["run", str(cfg)],
            "sweep": ["sweep", str(cfg)],
            "check": ["check", str(dump), "--config", str(cfg)],
            "energy": ["energy", str(dump), "--config", str(cfg)],
        }[command]
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("config error:")

    def test_run_degenerate_exit(self, tmp_path):
        text = BASE.replace("scheme = mbo", "scheme = volume_preserving")
        text = text.replace("init = ball", "init = slab")
        text = text.replace("ball_center = 0.5 0.5", "slab_lo = 0.0")
        text = text.replace("ball_radius = 0.3", "slab_hi = 1.0")
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 4

    def test_check_passes_on_consecutive_dumps(self, tmp_path):
        cfg = write_cfg(
            tmp_path, BASE + f"out_dir = {tmp_path}/out\ndump_every = 1\n"
        )
        assert main(["run", cfg]) == 0
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        assert main(["check", *dumps]) == 0

    def test_check_fails_on_tampered_dump(self, tmp_path):
        cfg = write_cfg(
            tmp_path, BASE + f"out_dir = {tmp_path}/out\ndump_every = 1\n"
        )
        assert main(["run", cfg]) == 0
        victim = tmp_path / "out" / "state_000002.mbof"
        state, h, step = read_dump(victim)
        grown = state.mask.copy()
        grown[:24, :24] = True
        from mbokit.grid import PhaseField

        write_dump(victim, PhaseField(state.grid, grown), h, step)
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        assert main(["check", *dumps]) == 2

    def test_check_header_without_side_exits_4(self, tmp_path, capsys):
        p = tmp_path / "s.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.2), 1e-3, 0)
        p.write_bytes(p.read_bytes().replace(b"side=1\n", b""))
        assert main(["check", str(p)]) == 4
        assert "'side'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "energy"])
    @pytest.mark.parametrize(
        "line",
        [b"h=0", b"h=-0.001", b"h=inf", b"h=nan", b"side=inf"],
        ids=["zero_h", "negative_h", "infinite_h", "nan_h", "infinite_side"],
    )
    def test_bad_bandwidth_or_side_in_header_exits_4(
        self, tmp_path, capsys, command, line
    ):
        p = tmp_path / "s.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.2), 1e-3, 0)
        key = line.partition(b"=")[0]
        head, _, payload = p.read_bytes().partition(b"\n\n")
        lines = [line if ln.startswith(key + b"=") else ln for ln in head.split(b"\n")]
        p.write_bytes(b"\n".join(lines) + b"\n\n" + payload)
        assert main([command, str(p)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("cannot load dump") and "finite" in err

    def test_energy_rejects_two_phase_byte_seven(self, tmp_path):
        p = tmp_path / "e.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.3), 4e-3, 0)
        blob = bytearray(p.read_bytes())
        blob[-1] = 7
        p.write_bytes(bytes(blob))
        assert main(["energy", str(p)]) == 4

    @pytest.mark.parametrize(
        "picked, gap",
        [
            ((0, 2, 4, 6), "step 2 follows step 0"),
            ((0, 1, 1, 2), "step 1 follows step 1"),
        ],
        ids=["stride", "repeat"],
    )
    def test_check_refuses_non_consecutive_steps(self, tmp_path, capsys, picked, gap):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 6")
            + f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        dumps = [str(tmp_path / "out" / f"state_{k:06d}.mbof") for k in picked]
        assert main(["check", *dumps]) == 4
        assert gap in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, keys",
        [("run", ""), ("sweep", "h_list = 4e-3, 2e-3, 1e-3\nT = 8e-3\n")],
        ids=["run", "sweep"],
    )
    def test_out_dir_naming_a_file_exits_4(self, tmp_path, capsys, command, keys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        cfg = write_cfg(tmp_path, BASE + keys + f"out_dir = {blocker}\n")
        assert quiet_main([command, cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and "Traceback" not in err
        assert blocker.read_text() == "not a directory"

    def test_run_negative_blob_smoothing_is_config_error(self, tmp_path, capsys):
        text = BASE.replace("scheme = mbo", "scheme = volume_preserving")
        text = text.replace("init = ball", "init = blob\nblob_seed = 3")
        text += f"blob_smoothing = -0.05\nout_dir = {tmp_path}/out\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 3
        assert "smoothing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("smoothing", ["1e308", "1e300", "5.0"])
    def test_run_oversized_blob_smoothing_is_config_error(
        self, tmp_path, capsys, smoothing
    ):
        # at n = 16 the filter radius int(4 sigma + 0.5) is inf, 6.4e301 and
        # 320 cells, all above the 4 n = 64 cells a blob filter may reach
        text = BASE.replace("scheme = mbo", "scheme = volume_preserving")
        text = text.replace("n = 64", "n = 16").replace("h = 4e-3", "h = 0.07")
        text = text.replace("init = ball", "init = blob\nblob_seed = 3")
        text += f"blob_smoothing = {smoothing}\nout_dir = {tmp_path}/out\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "smoothing" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "init, line",
        [
            ("ball", "ball_radius = nan"),
            ("ball", "ball_center = nan 0.5"),
            ("ball", "ball_center = inf 0.5"),
            ("two_balls", "ball2_radius = nan"),
            ("two_balls", "ball2_center = 0.7 -inf"),
            ("voronoi", "solid_radius = nan"),
            ("voronoi", "solid_center = 0.5 inf"),
            ("voronoi", "vapor_margin = nan"),
            ("voronoi", "seeds = 0.3 0.3; nan 0.7"),
            ("voronoi", "sigma_default = nan"),
        ],
    )
    def test_non_finite_geometry_is_config_error(self, tmp_path, capsys, init, line):
        key = line.split(" =")[0]
        text = "".join(
            f"{row}\n" for row in NON_FINITE_BASES[init].splitlines()
            if not row.startswith(f"{key} =")
        )
        cfg = write_cfg(tmp_path, text + f"{line}\nout_dir = {tmp_path}/out\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("init", ["ball", "two_balls", "voronoi"])
    def test_non_finite_geometry_bases_run(self, tmp_path, init):
        text = NON_FINITE_BASES[init] + f"out_dir = {tmp_path}/out\n"
        assert quiet_main(["run", write_cfg(tmp_path, text)]) == 0

    @pytest.mark.parametrize("command", ["run", "energy"])
    def test_infinite_bandwidth_is_config_error(self, tmp_path, capsys, command):
        if command == "run":
            text = BASE.replace("h = 4e-3", "h = inf") + f"out_dir = {tmp_path}/out\n"
            args = ["run", write_cfg(tmp_path, text)]
        else:
            dump = tmp_path / "e.mbof"
            ball = rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.3)
            write_dump(dump, ball, 4e-3, 0)
            args = ["energy", str(dump), "--h", "inf"]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, lines",
        [
            ("run", "h = 1e308\n"),  # h |k|^2 and steps * h overflow
            ("run", "h = 1e303\nsteps = 1000000\n"),  # only steps * h does
            ("energy", "h = 1e308\n"),
            ("check", "h = 1e308\n"),
            ("sweep", "h_list = 4e-3, 2e-3, 1e308\nT = 8e-3\n"),
            ("sweep", "h_list = 4e-3, 2e-3, 1e-320\nT = 8e-3\n"),  # T / h does
        ],
        ids=["run", "run-horizon", "energy", "check", "sweep", "sweep-steps"],
    )
    def test_overflowing_bandwidth_is_config_error(
        self, tmp_path, capsys, command, lines
    ):
        h = float(lines.split()[2].rstrip(","))
        if command == "energy":
            dump = tmp_path / "e.mbof"
            ball = rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.3)
            write_dump(dump, ball, h, 0)
            args = ["energy", str(dump), "--h", "1e308"]
        elif command == "check":
            ball = rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.3)
            args = ["check"]
            for k in range(2):
                args.append(str(tmp_path / f"s{k}.mbof"))
                write_dump(args[-1], ball, h, k)
        else:
            keys = [row.split(" =")[0] for row in lines.splitlines()]
            text = "".join(
                f"{row}\n"
                for row in BASE.splitlines()
                if row.split(" =")[0] not in keys
            )
            text += f"{lines}out_dir = {tmp_path}/out\n"
            args = [command, write_cfg(tmp_path, text)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_force_value_is_config_error(
        self, tmp_path, capsys, command, value
    ):
        text = BASE.replace("scheme = mbo", "scheme = forced")
        text += f"force_value = {value}\nout_dir = {tmp_path}/out\n"
        cfg = write_cfg(tmp_path, text)
        if command == "run":
            args = ["run", cfg]
        else:  # two dumps, so that the audit evaluates the force once
            ball = rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.3)
            dumps = [str(tmp_path / f"s{k}.mbof") for k in range(2)]
            for k, dump in enumerate(dumps):
                write_dump(dump, ball, 4e-3, k)
            args = ["check", *dumps, "--config", cfg]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "force_value" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("base", ["ball", "voronoi"])
    def test_check_refuses_a_force_that_run_refuses(self, tmp_path, capsys, base):
        # a scheme that takes no force, configured with one: run refuses the
        # config, and check and energy refuse it for that run's dumps as well
        def config(name, extra=""):
            out_dir = f"out_dir = {tmp_path / name}\n"
            text = f"{NON_FINITE_BASES[base]}dump_every = 1\n{extra}{out_dir}"
            return write_cfg(tmp_path, text, f"{name}.cfg")

        assert quiet_main(["run", config("out")]) == 0
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        assert len(dumps) == 3
        forced = config("forced", "force_value = 0.5\n")
        capsys.readouterr()
        for args in (
            ["run", forced],
            ["check", *dumps, "--config", forced],
            ["energy", dumps[-1], "--config", forced],
        ):
            assert quiet_main(args) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error:")
            assert "does not take a force" in captured.err
        assert not (tmp_path / "forced").exists()

    def test_forced_run_needs_only_its_force_value(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = BASE.replace("scheme = mbo", "scheme = forced")
        text += f"dump_every = 1\nout_dir = {out}\n"
        assert quiet_main(["run", write_cfg(tmp_path, text)]) == 3
        err = capsys.readouterr().err
        assert err == "config error: forced scheme needs a force_value\n"
        cfg = write_cfg(tmp_path, text + "force_value = 5\n")
        assert quiet_main(["run", cfg]) == 0
        assert capsys.readouterr().out.startswith("status: completed after 3 steps")
        dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
        assert quiet_main(["check", *dumps, "--config", cfg]) == 0
        assert "ledger: PASS" in capsys.readouterr().out

    def test_mbo_run_is_the_forced_run_at_zero_force(self, tmp_path, capsys):
        # mbo steps by the forced threshold at f = 0: a forced run at either
        # zero force writes the same bytes, and each run's check passes
        forced = BASE.replace("scheme = mbo", "scheme = forced")
        runs = {
            "mbo": BASE,
            "zero": forced + "force_value = 0\n",
            "negative_zero": forced + "force_value = -0.0\n",
        }
        written = {}
        for name, text in runs.items():
            out = tmp_path / name
            text += f"dump_every = 1\nout_dir = {out}\n"
            cfg = write_cfg(tmp_path, text, f"{name}.cfg")
            assert quiet_main(["run", cfg]) == 0
            written[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
            assert quiet_main(["check", *dumps, "--config", cfg]) == 0
            assert capsys.readouterr().out.endswith("ledger: PASS\n")
        assert len(written["mbo"]) == 5  # ledger.csv and the dumps of steps 0-3
        assert written["zero"] == written["mbo"] == written["negative_zero"]

    def test_non_finite_ledger_value_fails_run_and_check(self, tmp_path, capsys):
        # step 1's forcing transfer overflows to inf, and so does its slack
        out = tmp_path / "out"
        text = BASE.replace("scheme = mbo", "scheme = forced")
        text += f"force_value = 1e308\ndump_every = 1\nout_dir = {out}\n"
        cfg = write_cfg(tmp_path, text)
        assert quiet_main(["run", cfg]) == 2
        assert "ledger: FAIL" in capsys.readouterr().out
        assert "inf" in (out / "ledger.csv").read_text().splitlines()[2].split(",")
        dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
        assert quiet_main(["check", *dumps, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "ledger: FAIL" in captured.out
        assert "first violated step: 1" in captured.err

    @pytest.mark.parametrize("init", ["ball", "slab"])
    @pytest.mark.parametrize("value, status", [(30, "pinned"), (-30, "extinct")])
    def test_force_past_the_threshold_range_fills_or_empties_the_torus(
        self, tmp_path, capsys, init, value, status
    ):
        # |f| sqrt(h) = 1.90 > sqrt(pi): the threshold 1/2 - f sqrt(h) /
        # (2 sqrt(pi)) leaves [0, 1], so step 1 fills (f > 0) or empties
        # (f < 0) the torus whatever the state; the run is accepted and
        # its ledger holds
        out = tmp_path / "out"
        text = BASE.replace("scheme = mbo", "scheme = forced")
        if init == "slab":
            text = text.replace("init = ball", "init = slab\nslab_lo = 0.2\nslab_hi = 0.4")
        text += f"force_value = {value}\ndump_every = 1\nout_dir = {out}\n"
        cfg = write_cfg(tmp_path, text)
        assert quiet_main(["run", cfg]) == 0
        assert capsys.readouterr().out.startswith(f"status: {status} after")
        state, _h, _step = read_dump(out / "state_000001.mbof")
        assert state.cell_count == (state.grid.total_cells if value > 0 else 0)
        dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
        assert quiet_main(["check", *dumps, "--config", cfg]) == 0
        assert "ledger: PASS" in capsys.readouterr().out

    def test_initial_radius_warning_names_the_command(self, tmp_path):
        text = BASE.replace("ball_radius = 0.3", "ball_radius = 0.45")
        cfg = write_cfg(tmp_path, text + f"out_dir = {tmp_path}/out\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", cfg]) == 0
        [w] = [w for w in caught if "initial support radius" in str(w.message)]
        lines, first = inspect.getsourcelines(cli.cmd_run)
        assert w.filename == cli.__file__
        assert first <= w.lineno < first + len(lines)

    def test_check_numbers_rows_by_dump_step(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 6")
            + f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 0
        dumps = [str(tmp_path / "out" / f"state_{k:06d}.mbof") for k in range(7)]
        capsys.readouterr()
        assert main(["check", *dumps]) == 0
        full = capsys.readouterr().out.splitlines()
        assert main(["check", *dumps[3:]]) == 0
        tail = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in tail[:-1]] == [
            "step 4", "step 5", "step 6"
        ]
        assert tail == full[3:]

    def test_check_audits_a_single_grain_run_with_its_config(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scheme = grain_growth\nn = 64\nh = 4e-3\nsteps = 3\n"
            "init = voronoi\nseeds = 0.5 0.5\nvapor_margin = 0.22\n"
            f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 0
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        assert len(dumps) == 4
        capsys.readouterr()
        assert main(["check", *dumps, "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out] == [
            "step 1", "step 2", "step 3", "ledger"
        ]

    @pytest.mark.parametrize("command", ["check", "energy"])
    @pytest.mark.parametrize("scheme", ["mbo", "volume_preserving"])
    def test_partition_dumps_under_a_two_phase_scheme_are_config_error(
        self, tmp_path, capsys, scheme, command
    ):
        # run refuses a partition under any scheme but grain_growth, and so
        # does an audit of a partition run's dumps
        text = (
            "n = 32\nh = 1.6e-2\nsteps = 2\ninit = voronoi\n"
            "seeds = 0.3 0.3; 0.7 0.4; 0.5 0.8\nvapor_margin = 0.05\n"
            f"out_dir = {tmp_path}/out\ndump_every = 1\n"
        )
        grains = write_cfg(tmp_path, "scheme = grain_growth\n" + text)
        assert quiet_main(["run", grains]) == 0
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        other = write_cfg(tmp_path, f"scheme = {scheme}\n" + text, "other.cfg")
        capsys.readouterr()
        args = ["check", *dumps] if command == "check" else ["energy", dumps[-1]]
        for argv in (["run", other], args + ["--config", other]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:")
            assert f"scheme {scheme}" in captured.err and "partition" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["check", "energy"])
    def test_two_phase_dumps_under_grain_growth_are_config_error(
        self, tmp_path, capsys, command
    ):
        cfg = write_cfg(tmp_path, BASE + f"out_dir = {tmp_path}/out\ndump_every = 1\n")
        assert main(["run", cfg]) == 0
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        grains = BASE.replace("scheme = mbo", "scheme = grain_growth")
        grains = write_cfg(tmp_path, grains, "grains.cfg")
        capsys.readouterr()
        args = ["check", *dumps] if command == "check" else ["energy", dumps[-1]]
        assert main(args + ["--config", grains]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "two-phase" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("damage", ["truncated", "byte_seven"])
    def test_check_bad_dump_midway_prints_no_row(self, tmp_path, capsys, damage):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 6")
            + f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 0
        dumps = [str(tmp_path / "out" / f"state_{k:06d}.mbof") for k in range(7)]
        victim = Path(dumps[4])
        blob = bytearray(victim.read_bytes())
        if damage == "truncated":
            del blob[-10:]
        else:
            blob[-1] = 7
        victim.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["check", *dumps]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot load dumps:")
        assert "state_000004" in captured.err
        assert "step" not in captured.out

    def test_check_bad_last_grain_dump_prints_no_row(self, tmp_path, capsys):
        # the audit reads one dump ahead, so the last one is read while the
        # first row is being worked out
        cfg = write_cfg(
            tmp_path,
            "scheme = grain_growth\nn = 64\nh = 4e-3\nsteps = 3\n"
            "init = voronoi\nseeds = 0.3 0.5; 0.7 0.5\nvapor_margin = 0.1\n"
            f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 0
        dumps = [str(tmp_path / "out" / f"state_{k:06d}.mbof") for k in range(4)]
        last = Path(dumps[-1])
        blob = bytearray(last.read_bytes())
        blob[-1] = 3  # one past the two grains
        last.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["check", *dumps, "--config", cfg]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot load dumps:")
        assert "state_000003" in captured.err
        assert captured.out == ""

    def test_check_refuses_dumps_with_different_labels(self, tmp_path, capsys):
        g = Grid(dim=2, n=64)
        ball = rasterize_ball(g, (0.5, 0.5), 0.3)
        grains = voronoi_labels(g, [(0.2, 0.3), (0.7, 0.6)], vapor_margin=0.1)
        write_dump(tmp_path / "a.mbof", ball, 1e-3, 0)
        write_dump(tmp_path / "b.mbof", grains, 1e-3, 1)
        paths = [str(tmp_path / "a.mbof"), str(tmp_path / "b.mbof")]
        assert main(["check", *paths]) == 4
        assert "labels" in capsys.readouterr().err

    def test_run_failing_first_step_creates_no_out_dir(self, tmp_path, capsys):
        # a full slab cannot take a volume-preserving step
        text = BASE.replace("scheme = mbo", "scheme = volume_preserving")
        text = text.replace("init = ball", "init = slab")
        text = text.replace("ball_center = 0.5 0.5", "slab_lo = 0.0")
        text = text.replace("ball_radius = 0.3", "slab_hi = 1.0")
        cfg = write_cfg(tmp_path, text + f"out_dir = {tmp_path}/out\n")
        assert quiet_main(["run", cfg]) == 4
        assert capsys.readouterr().err.startswith("runtime error:")
        assert not (tmp_path / "out").exists()

    def test_run_failing_later_step_leaves_earlier_dumps(
        self, tmp_path, capsys, monkeypatch
    ):
        import mbokit.schemes as schemes
        from mbokit.grid import DegeneratePhaseError

        real_step, calls = schemes.step_forced, []
        ledger = tmp_path / "out" / "ledger.csv"

        def failing_third_step(*args, **kwargs):
            calls.append(ledger.read_bytes() if ledger.exists() else None)
            if len(calls) == 3:
                raise DegeneratePhaseError("injected failure")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(schemes, "step_forced", failing_third_step)
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 5")
            + f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 4
        assert "injected failure" in capsys.readouterr().err
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["ledger.csv"] + [f"state_{k:06d}.mbof" for k in range(3)]
        # the header, row 0 and the rows of steps 1 and 2, with the bytes a
        # run of two steps writes
        rows = ledger.read_bytes()
        assert [line.split(b",")[0] for line in rows.splitlines()] == [
            b"n", b"0", b"1", b"2"
        ]
        assert calls[0] is None  # no out_dir before step 1 finishes
        # each row is on disk as its step finishes
        assert rows.startswith(calls[1]) and calls[1].count(b"\n") == 3
        assert calls[2] == rows
        monkeypatch.setattr(schemes, "step_forced", real_step)
        two = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 2") + f"out_dir = {tmp_path}/two\n",
            "two.cfg",
        )
        assert main(["run", two]) == 0
        assert rows == (tmp_path / "two" / "ledger.csv").read_bytes()

    def test_check_multiphase_needs_config(self, tmp_path):
        g = Grid(dim=2, n=64)
        state = voronoi_labels(g, [(0.2, 0.2), (0.8, 0.8)])
        p = tmp_path / "s.mbof"
        write_dump(p, state, 1e-3, 0)
        assert main(["check", str(p)]) == 3

    def test_energy_prints_value(self, tmp_path, capsys):
        g = Grid(dim=2, n=64)
        ball = rasterize_ball(g, (0.5, 0.5), 0.3)
        p = tmp_path / "e.mbof"
        write_dump(p, ball, 4e-3, 0)
        assert main(["energy", str(p)]) == 0
        printed = float(capsys.readouterr().out.strip())
        smoothed = convolve(HeatKernelPlan(g, 4e-3), ball)
        assert printed == energy_two_phase(ball, smoothed, 4e-3)

    def test_energy_with_override_bandwidth(self, tmp_path, capsys):
        g = Grid(dim=2, n=64)
        ball = rasterize_ball(g, (0.5, 0.5), 0.3)
        p = tmp_path / "e.mbof"
        write_dump(p, ball, 4e-3, 0)
        assert main(["energy", str(p), "--h", "8e-3"]) == 0
        printed = float(capsys.readouterr().out.strip())
        smoothed = convolve(HeatKernelPlan(g, 8e-3), ball)
        assert printed == energy_two_phase(ball, smoothed, 8e-3)

    @pytest.mark.parametrize("scheme", ["mbo", "volume_preserving"])
    def test_sweep_scores_pinned_runs_at_the_horizon(self, tmp_path, scheme):
        # at n = 64 the finest mbo run and every volume-preserving run pin
        # after one step; a pinned state repeats, and so does its multiplier
        h_list, horizon = (4e-3, 1e-3, 2.5e-4), 0.02
        text = BASE.replace("scheme = mbo", f"scheme = {scheme}")
        text += f"h_list = 4e-3, 1e-3, 2.5e-4\nT = {horizon}\nout_dir = {tmp_path}/sw\n"
        assert quiet_main(["sweep", write_cfg(tmp_path, text)]) == 0
        with open(tmp_path / "sw" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        g = Grid(dim=2, n=64)
        ball = rasterize_ball(g, (0.5, 0.5), 0.3)
        for h, row in zip(h_list, rows):
            steps = round(horizon / h)
            if scheme == "mbo":
                assert float(row["oracle"]) == circle_mcf(0.3, steps * h, 2)
                error = abs(float(row["radius"]) - float(row["oracle"]))
                assert float(row["error"]) == error
                continue
            with warnings.catch_warnings():  # sqrt(h) = dx at h = 2.5e-4: it rings
                warnings.simplefilter("ignore")
                stepper = Stepper(SchemeConfig(scheme, g, h, 1), ball)
                list(stepper)
            [record] = stepper.records
            assert row["steps"] == "1"
            expected = h * steps * (record.lam - 0.5) ** 2
            assert float(row["M"]) == pytest.approx(expected, rel=1e-12)
        if scheme == "mbo":
            assert rows[2]["steps"] == "1"
            assert float(rows[2]["error"]) > 0.07

    def test_sweep_scores_an_extinct_ball_at_zero(self, tmp_path):
        # the circle law empties a ball of radius 0.3 at t = 0.045, so every
        # row's exact radius is 0 and its error is the measured radius: 0
        # for the runs that end extinct, the ball's for the finest, which pins
        text = BASE + "h_list = 4e-3, 1e-3, 2.5e-4\nT = 0.05\n"
        text += f"out_dir = {tmp_path}/sw\n"
        assert quiet_main(["sweep", write_cfg(tmp_path, text)]) == 0
        with open(tmp_path / "sw" / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["radius"]) > 0 for row in rows] == [False, False, True]
        for row in rows:
            assert float(row["oracle"]) == 0.0
            assert float(row["error"]) == float(row["radius"])

    def test_sweep_identical_bandwidths_identical_rows(self, tmp_path):
        # a row depends on its own bandwidth and the horizon only, so two
        # sweeps that share a bandwidth write the same row for it
        text = BASE.replace("scheme = mbo", "scheme = volume_preserving")
        text += "T = 1.2e-2\n"
        rows = []
        for name, h_list in (("a", "6e-3, 4e-3, 2e-3"), ("b", "4e-3, 2e-3, 1e-3")):
            sub = tmp_path / name
            sub.mkdir()
            cfg = write_cfg(
                sub, text + f"h_list = {h_list}\nout_dir = {sub}/sw\n"
            )
            assert quiet_main(["sweep", cfg]) == 0
            rows.append((sub / "sw" / "sweep.csv").read_text().splitlines())
        assert len(rows[0]) == len(rows[1]) == 4
        assert rows[0][2:] == rows[1][1:3]

    def test_sweep_requires_three_points(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "h_list = 4e-3, 2e-3\nT = 1e-2\n")
        assert main(["sweep", cfg]) == 3

    def test_sweep_mbo_reports_oracle_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE
            + "h_list = 8e-3, 4e-3, 2e-3\nT = 1.6e-2\n"
            + f"out_dir = {tmp_path}/sw2\n",
        )
        assert main(["sweep", cfg]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "slope" in out

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("ball_center = 0.5 0.5\n", "", "ball_center"),
            ("h_list = 4e-3, 2e-3, 1e-3", "h_list = 4e-3, -2e-3, 1e-3", "-0.002"),
            ("h_list = 4e-3, 2e-3, 1e-3", "h_list = 4e-3, 0, 1e-3", "0.0"),
            ("h_list = 4e-3, 2e-3, 1e-3", "h_list = 4e-3, inf, 1e-3", "inf"),
            ("T = 8e-3", "T = nan", "nan"),
            ("T = 8e-3", "T = 0", "0.0"),
            ("T = 8e-3", "T = -8e-3", "-0.008"),
            ("h_list = 4e-3, 2e-3, 1e-3", "h_list = 4e-3, 2e-3, 4e-3", "0.004"),
            ("T = 8e-3", "T = 8e-3\nforce_value = 0.5", "take a force"),
        ],
        ids=[
            "ball_without_center",
            "negative_h",
            "zero_h",
            "infinite_h",
            "nan_T",
            "zero_T",
            "negative_T",
            "repeated_h",
            "force",
        ],
    )
    def test_sweep_bad_config_is_config_error(
        self, tmp_path, capsys, old, new, message
    ):
        text = BASE.replace("scheme = mbo", "scheme = volume_preserving")
        text += "h_list = 4e-3, 2e-3, 1e-3\nT = 8e-3\n" + f"out_dir = {tmp_path}/sw\n"
        assert old in text
        cfg = write_cfg(tmp_path, text.replace(old, new))
        assert main(["sweep", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize(
        "command, scheme, extra",
        [
            ("run", "mbo", ""),
            ("sweep", "volume_preserving", "h_list = 4e-3, 2e-3, 1e-3\nT = 8e-3\n"),
        ],
        ids=["run_mbo", "sweep_volume_preserving"],
    )
    def test_two_phase_scheme_with_voronoi_is_config_error(
        self, tmp_path, capsys, command, scheme, extra
    ):
        text = (
            f"scheme = {scheme}\nn = 64\nh = 4e-3\nsteps = 3\n"
            "init = voronoi\nseeds = 0.3 0.3; 0.7 0.7\nvapor_margin = 0.05\n"
            f"out_dir = {tmp_path}/out\n" + extra
        )
        assert main([command, write_cfg(tmp_path, text)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "voronoi" in err
        assert not (tmp_path / "out").exists()

    def test_more_grains_than_a_dump_holds_is_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_voronoi(*args, **kwargs):
            raise AssertionError("refused before the Voronoi set-up")

        monkeypatch.setattr(cli, "voronoi_labels", no_voronoi)
        rng = np.random.default_rng(5)
        seeds = "; ".join(f"{x:.17g} {y:.17g}" for x, y in rng.random((300, 2)))
        text = (
            "scheme = grain_growth\nn = 32\nh = 1.6e-2\nsteps = 1\n"
            f"init = voronoi\nseeds = {seeds}\nout_dir = {tmp_path}/out\n"
        )
        assert main(["run", write_cfg(tmp_path, text)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "255" in err
        assert not (tmp_path / "out").exists()


# The benchmark's smoke configs (perfbench/workloads.py, seed 0), at the
# tiny sizes its own tests run.
SMOKE_CONFIGS = {
    "plain_ball": "scheme = mbo\ndim = 2\nn = 48\nh = 0.0075\nsteps = 3\n"
    "init = ball\nball_center = 0.6369616873214543 0.2697867137638703\n"
    "ball_radius = 0.3\n",
    "vp_blob3d": "scheme = volume_preserving\ndim = 3\nn = 24\nh = 0.031\n"
    "steps = 3\ninit = blob\nblob_seed = 1826701615\nblob_fill = 0.3\n"
    "blob_smoothing = 0.06\n",
    "grain": "scheme = grain_growth\ndim = 2\nn = 32\nh = 0.0175\nsteps = 2\n"
    "init = voronoi\nseeds = 0.6177870510964507 0.3020165738369285; "
    "0.10523723058512743 0.08421376655453502; "
    "0.7694124057122342 0.8549697964588405; "
    "0.5917067671597747 0.6973670424462386\n"
    "vapor_margin = 0.05\nsigma_default = 1\n",
}

# Under-resolved grains: many smoothings clamp an overshoot.
CLAMPED_GRAINS = (
    "scheme = grain_growth\nn = 32\nh = 1e-4\nsteps = 1\ninit = voronoi\n"
    "seeds = 0.3 0.3; 0.7 0.4; 0.5 0.7\nvapor_margin = 0.05\n"
    "sigma_default = 1\ndump_every = 1\n"
)


def recorded_main(args):
    """``main(args)`` and every warning it showed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    return code, caught


class TestWarnings:
    @pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
    def test_benchmark_configs_leave_stderr_empty(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, SMOKE_CONFIGS[name] + f"out_dir = {out}\ndump_every = 1\n")
        code, caught = recorded_main(["run", cfg])
        assert code == 0 and caught == []
        dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
        code, caught = recorded_main(["check", *dumps, "--config", cfg])
        assert code == 0 and caught == []
        assert capsys.readouterr().err == ""

    def test_clamp_warning_shows_once_per_command(self, tmp_path):
        # the run's smoothings clamp many overshoots; each command shows one
        # warning, which names the largest of them
        text = CLAMPED_GRAINS + f"out_dir = {tmp_path}/out\n"
        cfg = write_cfg(tmp_path, text)
        parsed = parse_config(text)
        grid = build_grid(parsed)
        initial = build_initial(parsed, grid)
        with warnings.catch_warnings(record=True) as each:
            warnings.simplefilter("always")
            list(Stepper(cli.build_scheme_config(parsed, grid, initial), initial))
        overshoots = [w.message.overshoot for w in each if w.category is ClampWarning]
        assert len(overshoots) > 4
        code, caught = recorded_main(["run", cfg])
        assert code == 0
        [w] = [w for w in caught if w.category is ClampWarning]
        assert w.message.overshoot == max(overshoots)
        assert str(w.message).startswith(f"clamp removed overshoot {max(overshoots):.3e}")
        dumps = sorted(str(p) for p in (tmp_path / "out").glob("state_*.mbof"))
        code, caught = recorded_main(["check", *dumps, "--config", cfg])
        assert code == 0
        assert len([w for w in caught if w.category is ClampWarning]) == 1


def test_scheme_configs_are_built_in_one_place():
    # every command reaches SchemeConfig through _scheme_config, so each
    # pairs its scheme with its states and reads the force in one way
    calls = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):  # by its name or as an attribute
                func = child.func
                if "SchemeConfig" in (getattr(func, "id", 0), getattr(func, "attr", 0)):
                    calls.add(".".join(scope))
            visit(child, inner)

    visit(ast.parse(Path(cli.__file__).read_text()), ())
    assert sorted(calls) == ["_scheme_config"]


def test_each_rule_has_one_owner():
    # parse_config types every value by _KEYS, so no config value is cast
    # again; a state says whether it has grains; SchemeConfig alone says
    # which scheme evolves which kind of state
    casts, lookups = [], []
    owners = {"evolves a partition": set(), "evolves a two-phase field": set()}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parsed = {  # the names a loop over the parsed values binds
            name.id
            for loop in ast.walk(tree)
            if isinstance(loop, ast.For)
            and ast.unparse(loop.iter) == "cfg.values.items()"
            for name in ast.walk(loop.target)
            if isinstance(name, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase, modules in owners.items():
                    if phrase in node.value:
                        modules.add(path.stem)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            func, where = node.func.id, f"{path.stem}:{node.lineno}"
            args = [ast.unparse(getattr(a, "func", a)) for a in node.args]
            if func == "getattr" and args[1:2] == ["'num_grains'"]:
                lookups.append(where)
            reads = {"cfg.get", "cfg.require", *parsed}
            if func in ("int", "float", "str") and args[:1] and args[0] in reads:
                casts.append(where)
    assert casts == [] and lookups == []
    assert owners == {phrase: {"schemes"} for phrase in owners}


def test_a_refused_input_becomes_a_command_error_in_one_place():
    # _refused_as turns a ValueError or OSError into a ConfigError or a
    # DumpError; only read_config, whose message reads the OSError's
    # strerror, catches one itself
    catchers = set()
    for func in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for handler in ast.walk(func):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                names = {getattr(n, "id", None) for n in ast.walk(handler.type)}
                if names & {"ValueError", "OSError"}:
                    catchers.add(func.name)
    assert sorted(catchers) == ["_refused_as", "read_config"]


def test_distances_and_label_values_are_taken_in_one_place():
    # in the package, wrap_delta is defined in Grid and read only by
    # _distance_sq_terms, and diagnostics takes label values on cells only
    # in LedgerWalk._stream
    uses = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            name = next(
                (getattr(child, a) for a in ("attr", "id", "name") if hasattr(child, a)),
                None,
            )
            if name == "wrap_delta" or (name == "take" and module == "diagnostics"):
                uses.add(f"{module}.{name}: {'.'.join(scope)}")
            visit(child, inner, module)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.stem)
    assert sorted(uses) == [
        "diagnostics.take: LedgerWalk._stream",
        "grid.wrap_delta: Grid",
        "grid.wrap_delta: _distance_sq_terms",
    ]


def test_the_good_iteration_band_is_compared_in_one_place():
    # one definition of a good iteration: multiplier_integral's
    compares = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Name) and sub.id == "GOOD_ITERATION_BAND"
                for sub in ast.walk(node)
            ):
                compares.append(f"{path.stem}:{node.lineno}")
    assert len(compares) == 1, compares


def test_every_config_key_is_named_in_the_readme():
    # in a code span, or as a ``key = value`` line of a config example
    readme = (Path(cli.__file__).parents[2] / "README.md").read_text()
    spans = re.findall(r"`([^`\n]+)`", readme)
    named = {span.split("=")[0].strip() for span in spans}
    named |= set(re.findall(r"^(\w+) *=", readme, flags=re.MULTILINE))
    assert sorted(set(cli._KEYS) - named) == []


def modules_after(code: str, package: str) -> str:
    """Sorted modules of ``package`` (itself and its submodules) loaded by
    running ``code`` in a fresh process."""
    src = str(Path(mbokit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code += (
        f"\nprint(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestGrainRunAgainstFullStackStep:
    def test_many_grains_run_writes_the_same_bytes(
        self, tmp_path, monkeypatch, many_grains
    ):
        # the run of the many_grains fixture through the CLI, with the
        # package's step and with the step that folds every cell's rows
        seeds = "; ".join(f"{x!r} {y!r}" for x, y in grain_lattice(0.07, 18))
        (cx, cy), radius = GRAIN_BALL
        text = (
            "scheme = grain_growth\nn = 128\nh = 1e-3\nsteps = 2\n"
            f"init = voronoi\nseeds = {seeds}\nsolid_center = {cx} {cy}\n"
            f"solid_radius = {radius}\nsigma_default = 1\ndump_every = 1\n"
        )
        outputs = []
        for name in ("streamed", "full_stack"):
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text + f"out_dir = {out}\n")
            with monkeypatch.context() as patch:
                if name == "full_stack":
                    patch.setattr(schemes, "step_grain_growth", full_stack_step)
                assert main(["run", str(cfg)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert sorted(outputs[0]) == [
            "ledger.csv", "state_000000.mbof", "state_000001.mbof", "state_000002.mbof"
        ]
        assert outputs[0] == outputs[1]
        initial = read_dump(tmp_path / "streamed" / "state_000000.mbof")[0]
        assert np.array_equal(initial.labels, many_grains[1].labels)


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # importing scipy.fft alone costs about 0.3 s of start-up per process
        assert modules_after("import sys, mbokit.cli", "scipy") == "[]"

    def test_package_root_loads_no_submodule_and_reexports_no_name(self):
        # every public name is imported from the module that defines it
        code = (
            "import sys, mbokit\n"
            "names = [n for n in vars(mbokit) if not n.startswith('_')]\n"
            "assert names == [] and mbokit.__version__, names"
        )
        assert modules_after(code, "mbokit") == "['mbokit']"

    def test_threshold_loads_no_other_mbokit_module(self):
        # the order statistic needs numpy alone
        loaded = modules_after("import sys, mbokit.threshold", "mbokit")
        assert loaded == "['mbokit', 'mbokit.threshold']"

    def test_blob_initial_state_leaves_scipy_unloaded(self):
        # the blob filter used to import scipy.ndimage, about 0.3 s per process
        code = (
            "import sys\n"
            "from mbokit.cli import build_grid, build_initial, parse_config\n"
            "cfg = parse_config('n = 32\\ndim = 3\\ninit = blob\\nblob_seed = 4\\n')\n"
            "blob = build_initial(cfg, build_grid(cfg))\n"
            "assert blob.cell_count == round(0.3 * 32**3)"
        )
        assert modules_after(code, "scipy") == "[]"

    @pytest.mark.parametrize("scheme", ["grain_growth", "volume_preserving"])
    def test_run_and_check_leave_numpy_ma_unloaded(self, tmp_path, scheme):
        # np.union1d and its kin import numpy.ma on their first call, which
        # adds about 1 MB of traced memory to a run
        assert modules_after(run_and_check_code(tmp_path, scheme), "numpy.ma") == "[]"

    @pytest.mark.parametrize("scheme", ["grain_growth", "volume_preserving"])
    def test_run_and_check_leave_concurrent_futures_unloaded(
        self, tmp_path, monkeypatch, scheme
    ):
        # the transforms run in the calling thread: no thread pool is started
        monkeypatch.delenv("MBO_THREADS", raising=False)
        code = run_and_check_code(tmp_path, scheme)
        assert modules_after(code, "concurrent.futures") == "[]"


def run_and_check_code(tmp_path, scheme: str) -> str:
    """Code that runs a two-step config of ``scheme`` at 32^2 with ``main``
    and checks its three dumps, both quietly and both passing."""
    if scheme == "grain_growth":
        init = (
            "init = voronoi\nseeds = 0.3 0.3; 0.7 0.4; 0.45 0.75\n"
            "solid_center = 0.5 0.5\nsolid_radius = 0.35\nsigma_default = 1\n"
        )
    else:
        init = (
            "init = blob\nblob_seed = 4\nblob_fill = 0.3\n"
            "blob_smoothing = 0.06\n"
        )
    cfg, out = tmp_path / "a.cfg", tmp_path / "out"
    cfg.write_text(
        f"scheme = {scheme}\nn = 32\nh = 1e-2\nsteps = 2\n{init}"
        f"dump_every = 1\nout_dir = {out}\n"
    )
    return (
        "import contextlib, glob, io, sys\nfrom mbokit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['run', {str(cfg)!r}]) == 0\n"
        f"    dumps = sorted(glob.glob({str(out / 'state_*.mbof')!r}))\n"
        "    assert len(dumps) == 3\n"
        f"    assert main(['check', *dumps, '--config', {str(cfg)!r}]) == 0\n"
    )


class TestExitMap:
    """``main`` alone turns an error into its exit code and stderr line."""

    ARGS = {
        "run": ["run", "a.cfg"],
        "sweep": ["sweep", "a.cfg"],
        "check": ["check", "a.mbof", "b.mbof"],
        "energy": ["energy", "a.mbof"],
    }

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ConfigError("line 2: bad"), 3, "config error"),
            (DumpError("a.mbof: not a dump"), 4, "cannot load dump"),
            (DegeneratePhaseError("phase fills the grid"), 4, "runtime error"),
            (FileNotFoundError(2, "No such file or directory"), 4, "runtime error"),
            (NotADirectoryError(20, "Not a directory"), 4, "runtime error"),
            (MemoryError("Unable to allocate 2.98 GiB"), 4, "runtime error"),
        ],
        ids=[
            "config", "dump", "degenerate", "missing", "not_a_directory", "memory",
        ],
    )
    def test_each_error_has_one_exit_code_and_prefix(
        self, monkeypatch, capsys, command, error, code, prefix
    ):
        def failing(*args):
            raise error

        monkeypatch.setattr(cli, f"cmd_{command}", failing)
        assert main(self.ARGS[command]) == code
        if isinstance(error, DumpError) and command == "check":
            prefix = "cannot load dumps"
        assert capsys.readouterr() == ("", f"{prefix}: {error}\n")

    def test_run_on_a_grid_too_large_to_allocate_is_runtime_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # numpy's allocation failure (``_ArrayMemoryError``, a MemoryError)
        # while the initial state is built, before any output is written
        message = "Unable to allocate 2.98 GiB for an array with shape (20000, 20000)"

        def failing(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "build_initial", failing)
        cfg, out = tmp_path / "a.cfg", tmp_path / "out"
        cfg.write_text(f"n = 20000\nout_dir = {out}\n")
        assert main(["run", str(cfg)]) == 4
        assert capsys.readouterr() == ("", f"runtime error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(ARGS))
    @pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug")])
    def test_an_unmapped_error_propagates(self, monkeypatch, command, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(cli, f"cmd_{command}", failing)
        with pytest.raises(type(error), match="a bug"):
            main(self.ARGS[command])


# The edges every fuzzed value may take, and garbage.
EDGE_VALUES = (
    "0", "-1", "-0.5", "inf", "-inf", "nan", "1e308", "-1e308", "1e-320",
    "x", "0x10", "1_0", "1,2", "0.5 0.5", "0.5 0.5 0.5", ";", "; 0.5 0.5",
)


def plausible_values(key):
    """Values a config might set ``key`` to; n stays at most 32 and steps at
    most 3, and a seed list names at most 4 grains."""
    parse = cli._KEYS.get(key, float)
    unit = st.floats(-0.25, 1.25).map(repr)
    if key == "scheme":
        return st.sampled_from(schemes.SCHEMES)
    if key == "init":
        return st.sampled_from(["ball", "two_balls", "slab", "blob", "voronoi"])
    if key == "steps":
        return st.integers(0, 3).map(str)
    if parse is int:
        return st.integers(-2, 32).map(str)
    if key in ("h", "T", "blob_smoothing"):
        return st.sampled_from(["1e-4", "1e-3", "4e-3", "1.6e-2", "0.1", "2"])
    if parse is float:
        return st.one_of(unit, st.floats(-3.0, 3.0).map(repr))
    point = st.lists(st.one_of(unit, st.sampled_from(EDGE_VALUES)), min_size=1,
                     max_size=4).map(" ".join)
    if parse is cli._seed_list:
        return st.lists(point, min_size=1, max_size=4).map("; ".join)
    if parse is cli._float_list:
        return st.lists(unit, min_size=1, max_size=4).map(", ".join)
    return point


def is_documented_warning(w):
    """An under-resolved bandwidth, a clamp above its tolerance, or a support
    radius past 40 percent of the side: the warnings a command may show."""
    if issubclass(w.category, (ResolutionWarning, ClampWarning)):
        return True
    return w.category is UserWarning and "support radius" in str(w.message)


# Configs that run; the fuzz sets, adds or drops keys of one of them.
FUZZ_BASES = (
    {"scheme": "mbo", "init": "ball", "ball_center": "0.5 0.5", "ball_radius": "0.3"},
    {"scheme": "volume_preserving", "init": "blob", "blob_seed": "3"},
    {"scheme": "forced", "init": "slab", "slab_lo": "0.3", "slab_hi": "0.6",
     "force_value": "0.5"},
    {"scheme": "mbo", "init": "two_balls", "ball_center": "0.3 0.5",
     "ball_radius": "0.15", "ball2_center": "0.7 0.5", "ball2_radius": "0.15"},
    {"scheme": "grain_growth", "init": "voronoi", "seeds": "0.3 0.3; 0.7 0.4; 0.5 0.8",
     "solid_center": "0.5 0.5", "solid_radius": "0.4", "sigma.1.2": "0.8"},
)
FUZZ_KEYS = sorted(set(cli._KEYS) - {"out_dir", "dump_every"}) + [
    f"sigma.{i}.{j}" for i in range(1, 5) for j in range(1, 5)
]


@st.composite
def fuzzed_configs(draw):
    values = {"n": "32", "h": "4e-3", "steps": "2"} | draw(st.sampled_from(FUZZ_BASES))
    for _ in range(draw(st.integers(1, 4))):
        key = draw(st.sampled_from(FUZZ_KEYS))
        if draw(st.integers(0, 9)) == 0:
            values.pop(key, None)
        else:
            edge = st.sampled_from(EDGE_VALUES)
            values[key] = draw(st.one_of(plausible_values(key), edge))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class TestFuzzedConfigs:
    @given(fuzzed_configs())
    @example(  # the forcing transfer overflows: exit 2, without a warning
        "n = 32\nh = 4e-3\nsteps = 2\nscheme = forced\ninit = slab\nslab_lo = 0.3\n"
        "slab_hi = 0.6\nforce_value = 1e308\n"
    )
    @settings(max_examples=600, deadline=None)
    def test_run_check_and_energy_meet_every_config(self, text):
        """Every config ends ``run`` with a documented exit code, raises no
        numpy RuntimeWarning and no warning of an undocumented kind, and a
        finished run is audited to its verdict."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            self.meet_config(text)
        assert all(map(is_documented_warning, caught)), [str(w) for w in caught]

    @staticmethod
    def meet_config(text):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            cfg = Path(tmp, "fuzz.cfg")
            cfg.write_text(text + f"out_dir = {out}\ndump_every = 1\n")
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(["run", str(cfg)])
            assert code in (0, 2, 3, 4)
            if code == 3:
                assert stderr.getvalue().startswith("config error:")
                assert not out.exists()
            if code not in (0, 2):
                return
            with open(out / "ledger.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if code == 0:
                assert all(math.isfinite(float(v)) for row in rows for v in row if v)
            dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
            assert len(dumps) == len(rows)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(["check", *dumps, "--config", str(cfg)]) == code
            printed = io.StringIO()
            with redirect_stdout(printed):
                assert main(["energy", dumps[-1], "--config", str(cfg)]) == 0
            assert printed.getvalue() == rows[-1][3] + "\n"
