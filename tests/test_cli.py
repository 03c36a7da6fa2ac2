import csv
import inspect
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbokit
from mbokit import cli
from mbokit.cli import (
    ConfigError,
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
    Grid,
    MultiPhaseState,
    PhaseField,
    rasterize_ball,
    voronoi_labels,
)
from mbokit.kernel import HeatKernelPlan, convolve
from mbokit.oracles import circle_mcf
from mbokit.schemes import SchemeConfig, Stepper

BASE = """\
scheme = mbo
n = 64
h = 4e-3
steps = 3
init = ball
ball_center = 0.5 0.5
ball_radius = 0.3
"""


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

    def test_diagonal_sigma_rejected(self):
        with pytest.raises(ConfigError, match="diagonal"):
            parse_config("sigma.2.2 = 1.0\n")


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

    def test_voronoi_with_grain_count_mismatch(self):
        cfg = parse_config(
            "n = 64\ninit = voronoi\ngrains = 4\nseeds = 0.2 0.2; 0.8 0.8\n"
        )
        with pytest.raises(ConfigError, match="seeds"):
            build_initial(cfg, build_grid(cfg))


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

    def test_two_phase_payload_outside_zero_one_rejected(self, tmp_path):
        p = tmp_path / "b.mbof"
        write_dump(p, rasterize_ball(Grid(dim=2, n=64), (0.5, 0.5), 0.2), 1e-3, 0)
        blob = bytearray(p.read_bytes())
        blob[-1] = 7
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="7"):
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

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_force_value_is_config_error(
        self, tmp_path, capsys, command, value
    ):
        text = BASE.replace("scheme = mbo", "scheme = forced")
        text += f"force = const\nforce_value = {value}\nout_dir = {tmp_path}/out\n"
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

    def test_non_finite_ledger_value_fails_run_and_check(self, tmp_path, capsys):
        # step 1's forcing transfer overflows to inf, and so does its slack
        out = tmp_path / "out"
        text = BASE.replace("scheme = mbo", "scheme = forced")
        text += f"force = const\nforce_value = 1e308\ndump_every = 1\nout_dir = {out}\n"
        cfg = write_cfg(tmp_path, text)
        assert quiet_main(["run", cfg]) == 2
        assert "ledger: FAIL" in capsys.readouterr().out
        assert "inf" in (out / "ledger.csv").read_text().splitlines()[2].split(",")
        dumps = sorted(str(p) for p in out.glob("state_*.mbof"))
        assert quiet_main(["check", *dumps, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "ledger: FAIL" in captured.out
        assert "first violated step: 1" in captured.err

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

        real_step, calls = schemes.step_mbo, []

        def failing_third_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise DegeneratePhaseError("injected failure")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(schemes, "step_mbo", failing_third_step)
        cfg = write_cfg(
            tmp_path,
            BASE.replace("steps = 3", "steps = 5")
            + f"out_dir = {tmp_path}/out\ndump_every = 1\n",
        )
        assert main(["run", cfg]) == 4
        assert "injected failure" in capsys.readouterr().err
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == [f"state_{k:06d}.mbof" for k in range(3)]

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
            stepper = Stepper(SchemeConfig(scheme=scheme, grid=g, h=h, steps=1), ball)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                list(stepper)
            [record] = stepper.records
            assert row["steps"] == "1"
            expected = h * steps * (record.lam - 0.5) ** 2
            assert float(row["M"]) == pytest.approx(expected, rel=1e-12)
        if scheme == "mbo":
            assert rows[2]["steps"] == "1"
            assert float(rows[2]["error"]) > 0.07

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


def scipy_modules_after(code: str) -> str:
    """Sorted ``scipy*`` modules loaded by running ``code`` in a fresh process."""
    src = str(Path(mbokit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # importing scipy.fft alone costs about 0.3 s of start-up per process
        assert scipy_modules_after("import sys, mbokit.cli") == "[]"

    def test_all_names_resolve_once(self):
        assert len(set(mbokit.__all__)) == len(mbokit.__all__)
        for name in mbokit.__all__:
            assert getattr(mbokit, name) is not None, name

    def test_blob_initial_state_leaves_scipy_unloaded(self):
        # the blob filter used to import scipy.ndimage, about 0.3 s per process
        code = (
            "import sys\n"
            "from mbokit.cli import build_grid, build_initial, parse_config\n"
            "cfg = parse_config('n = 32\\ndim = 3\\ninit = blob\\nblob_seed = 4\\n')\n"
            "blob = build_initial(cfg, build_grid(cfg))\n"
            "assert blob.cell_count == round(0.3 * 32**3)"
        )
        assert scipy_modules_after(code) == "[]"
