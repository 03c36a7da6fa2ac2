"""Command-line front end: run, sweep, check, energy.

Configs are strict ``key = value`` files; unknown or duplicated keys are
rejected with their line numbers so a typo cannot silently change an
experiment.  States are stored in a small self-describing dump format
(ASCII header, raw row-major uint8 labels) that round-trips bit for bit.

Exit codes: 0 success (and ledger PASS), 2 ledger FAIL, 3 configuration
error, 4 runtime error (degenerate states, unreadable dumps, output that
cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import (
    LedgerWalk,
    ledger_check,
    ledger_report,
    loglog_slope,
    multiplier_integral,
)
from .grid import (
    DegeneratePhaseError,
    EmptyPhaseError,
    Grid,
    MultiPhaseState,
    PhaseField,
    RealField,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)
from .oracles import ExtinctionError, circle_mcf
from .schemes import SchemeConfig, Stepper, SurfaceTensionMatrix

MAGIC = "MBOF1"

EXIT_OK = 0
EXIT_LEDGER_FAIL = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


class ConfigError(ValueError):
    """Bad experiment configuration; message carries line numbers."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# config files

_SIGMA_KEY = re.compile(r"^sigma\.(\d+)\.(\d+)$")


def _point(value: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in value.split())


def _float_list(value: str) -> tuple[float, ...]:
    return tuple(float(tok.strip()) for tok in value.split(",") if tok.strip())


def _seed_list(value: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_point(part) for part in value.split(";") if part.strip())


# The parser of each key's value; ``sigma.<i>.<j>`` keys parse as floats.
_KEYS = {
    "scheme": str,
    "init": str,
    "force": str,
    "out_dir": str,
    "dim": int,
    "n": int,
    "steps": int,
    "dump_every": int,
    "grains": int,
    "blob_seed": int,
    "slab_axis": int,
    "side": float,
    "h": float,
    "ball_radius": float,
    "ball2_radius": float,
    "slab_lo": float,
    "slab_hi": float,
    "blob_fill": float,
    "blob_smoothing": float,
    "vapor_margin": float,
    "solid_radius": float,
    "force_value": float,
    "sigma_default": float,
    "T": float,
    "ball_center": _point,
    "ball2_center": _point,
    "solid_center": _point,
    "h_list": _float_list,
    "seeds": _seed_list,
}


@dataclass
class ExperimentConfig:
    """Typed view of a parsed config file."""

    values: dict[str, object]
    lines: dict[str, int]

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"missing required key '{key}'")
        return self.values[key]


def parse_config(text: str) -> ExperimentConfig:
    """Parse a ``key = value`` config, one pair per line, '#' comments.

    Unknown keys are rejected with their line number; assigning a key twice
    is an error naming both lines.  Values are typed per key; surface
    tension entries use ``sigma.<i>.<j>`` with 1-based grain labels.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key '{key}'")
        if key in lines:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {lines[key]})"
            )
        parse = _KEYS.get(key, float if _SIGMA_KEY.match(key) else None)
        if parse is None:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        try:
            values[key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
        lines[key] = lineno
    cfg = ExperimentConfig(values, lines)
    _validate_sigma_entries(cfg)
    return cfg


def read_config(path: Path | str) -> ExperimentConfig:
    """Parse the config file at ``path``; a file that cannot be read as
    UTF-8 text is a :class:`ConfigError` too."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from exc
    return parse_config(text)


def _validate_sigma_entries(cfg: ExperimentConfig) -> None:
    for key in cfg.values:
        m = _SIGMA_KEY.match(key)
        if m and int(m.group(1)) == int(m.group(2)):
            raise ConfigError(
                f"line {cfg.lines[key]}: '{key}' sets a diagonal tension; "
                "diagonal entries are fixed at zero"
            )


def build_tensions(cfg: ExperimentConfig, num_grains: int) -> SurfaceTensionMatrix:
    """Assemble the tension matrix from sigma_default and sigma.i.j keys."""
    default = float(cfg.get("sigma_default", 1.0))
    sigma = np.full((num_grains, num_grains), default)
    np.fill_diagonal(sigma, 0.0)
    seen: dict[tuple[int, int], tuple[float, int]] = {}
    for key, value in cfg.values.items():
        m = _SIGMA_KEY.match(key)
        if not m:
            continue
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= num_grains and 1 <= j <= num_grains):
            raise ConfigError(
                f"line {cfg.lines[key]}: '{key}' is outside grains 1..{num_grains}"
            )
        pair = (min(i, j), max(i, j))
        if pair in seen and seen[pair][0] != value:
            raise ConfigError(
                f"line {cfg.lines[key]}: '{key}' contradicts the value set on "
                f"line {seen[pair][1]}"
            )
        seen[pair] = (float(value), cfg.lines[key])
        sigma[i - 1, j - 1] = sigma[j - 1, i - 1] = float(value)
    try:
        return SurfaceTensionMatrix(sigma)
    except ValueError as exc:
        raise ConfigError(f"invalid surface tensions: {exc}") from exc


def build_grid(cfg: ExperimentConfig) -> Grid:
    try:
        return Grid(
            dim=int(cfg.get("dim", 2)),
            n=int(cfg.require("n")),
            side=float(cfg.get("side", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial(cfg: ExperimentConfig, grid: Grid):
    """Construct the initial state described by the ``init`` key."""
    kind = cfg.require("init")
    try:
        if kind == "ball":
            return rasterize_ball(
                grid, cfg.require("ball_center"), cfg.require("ball_radius")
            )
        if kind == "two_balls":
            a = rasterize_ball(
                grid, cfg.require("ball_center"), cfg.require("ball_radius")
            )
            b = rasterize_ball(
                grid, cfg.require("ball2_center"), cfg.require("ball2_radius")
            )
            if (a.mask & b.mask).any():
                raise ConfigError("the two balls overlap")
            return PhaseField(grid, a.mask | b.mask)
        if kind == "slab":
            return rasterize_slab(
                grid,
                int(cfg.get("slab_axis", 0)),
                cfg.require("slab_lo"),
                cfg.require("slab_hi"),
            )
        if kind == "blob":
            return random_blob(
                grid,
                seed=int(cfg.require("blob_seed")),
                fill=float(cfg.get("blob_fill", 0.3)),
                smoothing=float(cfg.get("blob_smoothing", 0.05)),
            )
        if kind == "voronoi":
            seeds = cfg.require("seeds")
            if cfg.has("grains") and int(cfg.get("grains")) != len(seeds):
                raise ConfigError(
                    f"grains = {cfg.get('grains')} but {len(seeds)} seeds given"
                )
            solid = None
            if cfg.has("solid_center"):
                solid = rasterize_ball(
                    grid, cfg.require("solid_center"), cfg.require("solid_radius")
                )
            return voronoi_labels(
                grid,
                seeds,
                vapor_margin=float(cfg.get("vapor_margin", 0.0)),
                solid=solid,
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown init '{kind}'")


def build_force(cfg: ExperimentConfig):
    kind = cfg.get("force")
    if kind is None:
        return None
    if kind != "const":
        raise ConfigError(f"unknown force '{kind}' (supported: const)")
    value = float(cfg.require("force_value"))
    if not math.isfinite(value):
        raise ConfigError(f"force_value must be finite, got {value}")

    def force(grid: Grid, _t: float) -> RealField:
        return RealField(grid, np.full(grid.shape, value))

    return force


def _check_initial_kind(scheme: str, initial) -> None:
    """Grain growth evolves a partition (``init = voronoi``) and every other
    scheme a two-phase field; any other pairing is a config error."""
    multiphase = isinstance(initial, MultiPhaseState)
    if scheme == "grain_growth" and not multiphase:
        raise ConfigError("grain_growth needs init = voronoi")
    if scheme != "grain_growth" and multiphase:
        raise ConfigError(
            f"scheme {scheme} evolves a two-phase field, not init = voronoi"
        )


def build_scheme_config(cfg: ExperimentConfig, grid: Grid, initial) -> SchemeConfig:
    scheme = cfg.require("scheme")
    _check_initial_kind(scheme, initial)
    tensions = None
    if scheme == "grain_growth":
        tensions = build_tensions(cfg, initial.num_grains)
    try:
        return SchemeConfig(
            scheme=scheme,
            grid=grid,
            h=float(cfg.require("h")),
            steps=int(cfg.require("steps")),
            force=build_force(cfg),
            tensions=tensions,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# dump format


def _header(grid: Grid, h: float, step: int, phases: int, partition: bool) -> bytes:
    """The header of a dump, through its blank line.

    A partition with one grain has two labels, as a two-phase field has; its
    header adds ``kind=labels`` so that it reads back as a partition.
    """
    kind = "kind=labels\n" if partition and phases == 2 else ""
    return (
        f"{MAGIC}\n"
        f"dim={grid.dim}\n"
        f"n={','.join(str(grid.n) for _ in range(grid.dim))}\n"
        f"side={_fmt(grid.side)}\n"
        f"h={_fmt(h)}\n"
        f"step={step}\n"
        f"phases={phases}\n"
        f"{kind}"
        "\n"
    ).encode("ascii")


def write_dump(path: Path | str, state, h: float, step: int) -> None:
    """Store a state: ASCII header, blank line, raw uint8 labels."""
    partition = isinstance(state, MultiPhaseState)
    if partition:
        labels, phases = state.labels, state.num_grains + 1
    else:
        labels, phases = state.mask.view(np.uint8), 2
    if phases > 256:
        raise ValueError("dump format carries at most 256 labels")
    with open(path, "wb") as fh:
        fh.write(_header(state.grid, h, step, phases, partition))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).data)


# A header is a few short lines; this much is read to find its end.
_HEADER_LIMIT = 1 << 16


@dataclass(frozen=True)
class DumpHeader:
    """A dump's header, checked against the size of its file.

    ``num_grains`` is None for a two-phase field; ``offset`` is where the
    payload of ``grid.total_cells`` bytes starts.
    """

    path: str
    grid: Grid
    h: float
    step: int
    num_grains: int | None
    offset: int


def read_header(path: Path | str) -> DumpHeader:
    """Check a dump's header and its payload size without reading the payload.

    Only the exact header that :func:`write_dump` writes for the values it
    holds is accepted, so every dump that reads rewrites to the same bytes.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_LIMIT)
        size = os.fstat(fh.fileno()).st_size
    sep = head.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: missing header terminator")
    head_lines = head[:sep].decode("ascii").splitlines()
    if not head_lines or head_lines[0] != MAGIC:
        raise ValueError(f"{path}: not a {MAGIC} dump")
    fields: dict[str, str] = {}
    for line in head_lines[1:]:
        key, _, value = line.partition("=")
        fields[key] = value
    for key in ("dim", "n", "side", "h", "step", "phases"):
        if key not in fields:
            raise ValueError(f"{path}: header lacks '{key}'")
    n = int(fields["n"].partition(",")[0])
    grid = Grid(dim=int(fields["dim"]), n=n, side=float(fields["side"]))
    h = float(fields["h"])
    if not 0 < h < math.inf:
        raise ValueError(f"{path}: h={h} must be positive and finite")
    phases = int(fields["phases"])
    if not 2 <= phases <= 256:
        raise ValueError(f"{path}: phases={phases}, need 2 to 256")
    kind = fields.get("kind")
    if kind not in (None, "labels"):
        raise ValueError(f"{path}: unknown kind '{kind}'")
    step = int(fields["step"])
    offset = sep + 2
    if head[:offset] != _header(grid, h, step, phases, kind == "labels"):
        raise ValueError(f"{path}: header does not rewrite to the same bytes")
    cells = size - offset
    if cells != grid.total_cells:
        raise ValueError(f"{path}: expected {grid.total_cells} cells, got {cells}")
    num_grains = phases - 1 if kind == "labels" or phases > 2 else None
    return DumpHeader(str(path), grid, h, step, num_grains, offset)


def read_dump(path: Path | str):
    """Load a stored state; returns (state, h, step)."""
    header = read_header(path)
    payload = np.fromfile(path, dtype=np.uint8, offset=header.offset)
    grid = header.grid
    labels = payload.reshape(grid.shape)
    if header.num_grains is None:
        if payload.max(initial=0) > 1:
            raise ValueError(
                f"{path}: two-phase payload holds label {payload.max()}, not 0 or 1"
            )
        state = PhaseField(grid, labels.view(bool))
    else:
        state = MultiPhaseState(grid, labels.astype(np.int32), header.num_grains)
    return state, header.h, header.step


# ---------------------------------------------------------------------------
# commands


def _write_ledger_csv(path: Path, stepper: Stepper) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t", "lambda", "E_h", "D_h", "slack", "radius"])
        e0, r0 = _fmt(stepper.initial_energy), _fmt(stepper.initial_radius)
        writer.writerow(["0", _fmt(0.0), "", e0, "", "", r0])
        for r in stepper.records:
            writer.writerow(
                [
                    str(r.step),
                    _fmt(r.time),
                    "" if r.lam is None else _fmt(r.lam),
                    _fmt(r.energy_after),
                    _fmt(r.dissipation),
                    _fmt(r.slack),
                    "" if r.bounding_radius is None else _fmt(r.bounding_radius),
                ]
            )


def cmd_run(config_path: str) -> int:
    """Run a configured trajectory, write dumps and the ledger CSV.

    Dumps are written as their steps finish and only the newest state is
    kept; the initial dump waits for the first step, so a run whose first
    step fails creates no ``out_dir``.
    """
    try:
        cfg = read_config(config_path)
        grid = build_grid(cfg)
        initial = build_initial(cfg, grid)
        scheme_cfg = build_scheme_config(cfg, grid, initial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(str(cfg.get("out_dir", "out")))
    dump_every = int(cfg.get("dump_every", 0))

    def dump(state, step: int) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_dump(out_dir / f"state_{step:06d}.mbof", state, scheme_cfg.h, step)

    def due(step: int) -> bool:
        return dump_every > 0 and step % dump_every == 0

    try:
        stepper = Stepper(scheme_cfg, initial)
        step, state = 0, initial
        for step, state in enumerate(stepper, start=1):
            if step == 1:
                dump(initial, 0)
                del initial
            if due(step):
                dump(state, step)
        if step == 0 or not due(step):
            dump(state, step)
        _write_ledger_csv(out_dir / "ledger.csv", stepper)
    except (DegeneratePhaseError, EmptyPhaseError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    report = ledger_report(stepper.records)
    print(f"status: {stepper.status} after {len(stepper.records)} steps")
    print(f"ledger: {'PASS' if report.passed else 'FAIL'} "
          f"(tolerance {report.tolerance:.3g})")
    if not report.passed:
        print(f"first violated step: {report.first_violation}", file=sys.stderr)
        return EXIT_LEDGER_FAIL
    return EXIT_OK


def _measured_radius(state: PhaseField) -> float:
    grid = state.grid
    vol = state.cell_count * grid.cell_volume
    if grid.dim == 2:
        return math.sqrt(vol / math.pi)
    return (3.0 * vol / (4.0 * math.pi)) ** (1.0 / 3.0)


def cmd_sweep(config_path: str) -> int:
    """Bandwidth sweep: convergence order for mbo, multiplier scaling for vp."""
    try:
        cfg = read_config(config_path)
        grid = build_grid(cfg)
        scheme = cfg.require("scheme")
        h_list = cfg.require("h_list")
        horizon = float(cfg.require("T"))
        if not 0 < horizon < math.inf:
            raise ConfigError(f"T must be positive and finite, got {horizon}")
        if len(h_list) < 3:
            raise ConfigError("h_list needs at least 3 entries")
        for k, h in enumerate(h_list):
            if not 0 < h < math.inf:
                raise ConfigError(f"h_list entry {h} is not positive and finite")
            if h in h_list[:k]:
                raise ConfigError(f"h_list repeats {h}")
        if scheme not in ("mbo", "volume_preserving"):
            raise ConfigError(f"sweep supports mbo and volume_preserving, not {scheme}")
        if scheme == "mbo" and cfg.require("init") != "ball":
            raise ConfigError("mbo sweep compares against a shrinking ball")
        initial = build_initial(cfg, grid)
        _check_initial_kind(scheme, initial)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows: list[dict[str, float | int | None]] = []
    try:
        for h in h_list:
            steps = max(1, round(horizon / h))
            scheme_cfg = SchemeConfig(scheme=scheme, grid=grid, h=h, steps=steps)
            stepper, final = Stepper(scheme_cfg, initial), initial
            for final in stepper:  # keep only the newest state
                pass
            # a run that stopped early is scored at the horizon steps * h: a
            # pinned state repeats itself, and an emptied phase stays empty
            records = stepper.records
            row: dict[str, float | int | None] = {"h": h, "steps": len(records)}
            if scheme == "mbo":
                measured = _measured_radius(final)
                try:
                    target = circle_mcf(
                        float(cfg.require("ball_radius")), steps * h, grid.dim
                    )
                except ExtinctionError:
                    target = 0.0
                row["radius"] = measured
                row["oracle"] = target
                row["error"] = abs(measured - target)
            else:
                lams = [r.lam for r in records]
                row["M"], row["bad"] = multiplier_integral(h, lams, steps)
            rows.append(row)
    except (DegeneratePhaseError, EmptyPhaseError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    fitted = "error" if scheme == "mbo" else "M"
    slope = loglog_slope(h_list, [row[fitted] for row in rows])

    cols = list(rows[0].keys())
    print("  ".join(f"{c:>14}" for c in cols))
    for row in rows:
        print(
            "  ".join(
                f"{row[c]:>14}" if isinstance(row[c], int) else f"{row[c]:>14.8g}"
                for c in cols
            )
        )
    print(f"fitted slope: {'n/a' if slope is None else f'{slope:.4f}'}")

    out_dir = Path(str(cfg.get("out_dir", "out")))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow(
                    [
                        str(row[c]) if isinstance(row[c], int) else _fmt(float(row[c]))
                        for c in cols
                    ]
                )
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _dump_headers(paths: Sequence[str]) -> list[DumpHeader]:
    """Headers of the dumps sorted by step, checked to form one run:
    consecutive steps, one h, one grid, one kind of state."""
    headers = sorted((read_header(p) for p in paths), key=lambda hd: hd.step)
    for a, b in zip(headers, headers[1:]):
        if b.step != a.step + 1:
            raise ValueError(
                f"step {b.step} follows step {a.step}; steps must be consecutive"
            )
    hs = {hd.h for hd in headers}
    if len(hs) != 1:
        raise ValueError(f"dumps disagree on h: {sorted(hs)}")
    if len({hd.grid for hd in headers}) != 1:
        raise ValueError("dumps live on different grids")
    if len({hd.num_grains for hd in headers}) != 1:
        raise ValueError("dumps disagree on their labels")
    return headers


class _UnreadableDump(Exception):
    """A dump whose header passed failed to load."""


def _dump_states(headers: Sequence[DumpHeader]):
    """The dumps' states in order, each read when it is asked for."""
    for hd in headers:
        try:
            yield read_dump(hd.path)[0]
        except (ValueError, OSError) as exc:
            raise _UnreadableDump(str(exc)) from exc


def _audit_setup(num_grains: int | None, config_path: str | None):
    """Scheme, force and tensions under which stored states are audited;
    ``num_grains`` is None for two-phase states."""
    if config_path is None:
        if num_grains is not None:
            raise ConfigError("multiphase dumps need --config for the tensions")
        return "mbo", None, None
    cfg = read_config(config_path)
    scheme = str(cfg.get("scheme", "mbo"))
    force = build_force(cfg)
    if num_grains is not None:
        return "grain_growth", force, build_tensions(cfg, num_grains)
    if scheme == "grain_growth":
        raise ConfigError("two-phase dumps with a grain_growth config")
    return scheme, force, None


def cmd_check(paths: Sequence[str], config_path: str | None = None) -> int:
    """Re-audit stored states: recompute the per-step energy ledger.

    Every header is checked first; the states are then read and audited
    two at a time.
    """
    try:
        headers = _dump_headers(paths)
    except (ValueError, OSError) as exc:
        print(f"cannot load dumps: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    first = headers[0]
    try:
        scheme, force, tensions = _audit_setup(first.num_grains, config_path)
        scheme_cfg = SchemeConfig(
            scheme=scheme,
            grid=first.grid,
            h=first.h,
            steps=len(headers) - 1,
            force=force if scheme == "forced" else None,
            tensions=tensions,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = ledger_check(scheme_cfg, _dump_states(headers), first.step)
    except _UnreadableDump as exc:
        print(f"cannot load dumps: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for row in report.rows:
        print(
            f"step {row.step}: E {row.energy_before:.9g} -> {row.energy_after:.9g}"
            f"  D {row.dissipation:.3e}  slack {row.slack:.3e}"
        )
    print(f"ledger: {'PASS' if report.passed else 'FAIL'}")
    if not report.passed:
        print(f"first violated step: {report.first_violation}", file=sys.stderr)
        return EXIT_LEDGER_FAIL
    return EXIT_OK


def cmd_energy(path: str, h: float | None, config_path: str | None = None) -> int:
    """Print the interfacial energy of one stored state, as a run's
    :class:`LedgerWalk` takes it."""
    try:
        state, dump_h, _step = read_dump(path)
    except (ValueError, OSError) as exc:
        print(f"cannot load dump: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    bandwidth = dump_h if h is None else h
    if not 0 < bandwidth < math.inf:
        print("config error: h must be positive and finite", file=sys.stderr)
        return EXIT_CONFIG
    scheme, tensions = "mbo", None
    if isinstance(state, MultiPhaseState):
        try:
            scheme, _, tensions = _audit_setup(state.num_grains, config_path)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    scheme_cfg = SchemeConfig(scheme, state.grid, bandwidth, 0, tensions=tensions)
    print(_fmt(LedgerWalk(scheme_cfg, state).energy))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbokit",
        description="Thresholding dynamics on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured trajectory")
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep", help="bandwidth sweep against oracles")
    p_sweep.add_argument("config")

    p_check = sub.add_parser("check", help="re-audit stored trajectory dumps")
    p_check.add_argument("dumps", nargs="+")
    p_check.add_argument("--config", default=None)

    p_energy = sub.add_parser("energy", help="energy of one stored state")
    p_energy.add_argument("dump")
    p_energy.add_argument("--h", type=float, default=None)
    p_energy.add_argument("--config", default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "sweep":
        return cmd_sweep(args.config)
    if args.command == "check":
        return cmd_check(args.dumps, args.config)
    return cmd_energy(args.dump, args.h, args.config)


if __name__ == "__main__":
    sys.exit(main())
