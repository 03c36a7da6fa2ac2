"""Command-line front end: run, sweep, check, energy.

Configs are strict ``key = value`` files; unknown or duplicated keys are
rejected with their line numbers so a typo cannot silently change an
experiment.  States are stored in a small self-describing dump format
(ASCII header, raw row-major uint8 labels) that round-trips bit for bit.

Exit codes: 0 success (and ledger PASS), 2 ledger FAIL, 3 configuration
error, 4 runtime error (degenerate states, unreadable dumps, output that
cannot be written).  The commands raise; ``_refused_as`` alone turns a
``ValueError`` or ``OSError`` of bad input into a :class:`ConfigError` or a
:class:`DumpError`, and :func:`main` alone turns an error into its exit code
and stderr line, through ``_EXITS``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager
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
    Grid,
    MultiPhaseState,
    PhaseField,
    random_blob,
    rasterize_ball,
    rasterize_slab,
    voronoi_labels,
)
from .kernel import ClampWarning
from .schemes import SchemeConfig, Stepper, SurfaceTensionMatrix

MAGIC = "MBOF1"

# A dump stores one byte per cell: the vapor and at most this many grains.
MAX_GRAINS = 255

EXIT_OK = 0
EXIT_LEDGER_FAIL = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


class ConfigError(ValueError):
    """Bad experiment configuration; message carries line numbers."""


class DumpError(ValueError):
    """A dump that cannot be read, or dumps that do not form one run."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def _refused_as(kind: type[ValueError], prefix: str):
    """Re-raise a ValueError or OSError, but not a ``kind``, as ``kind``."""
    try:
        yield
    except kind:
        raise
    except (ValueError, OSError) as exc:
        raise kind(f"{prefix}{exc}") from exc


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
    "out_dir": str,
    "dim": int,
    "n": int,
    "steps": int,
    "dump_every": int,
    "blob_seed": int,
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
        sigma = _SIGMA_KEY.match(key)
        parse = _KEYS.get(key, float if sigma else None)
        if parse is None:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if sigma and int(sigma.group(1)) == int(sigma.group(2)):
            raise ConfigError(
                f"line {lineno}: '{key}' sets a diagonal tension; "
                "diagonal entries are fixed at zero"
            )
        with _refused_as(ConfigError, f"line {lineno}: bad value for '{key}': "):
            values[key] = parse(value)
        lines[key] = lineno
    return ExperimentConfig(values, lines)


def read_config(path: Path | str) -> ExperimentConfig:
    """Parse the config file at ``path``; a file that cannot be read as
    UTF-8 text is a :class:`ConfigError` too."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from exc
    return parse_config(text)


def build_tensions(cfg: ExperimentConfig, num_grains: int) -> SurfaceTensionMatrix:
    """Assemble the tension matrix from sigma_default and sigma.i.j keys."""
    default = cfg.get("sigma_default", 1.0)
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
        seen[pair] = (value, cfg.lines[key])
        sigma[i - 1, j - 1] = sigma[j - 1, i - 1] = value
    with _refused_as(ConfigError, "invalid surface tensions: "):
        return SurfaceTensionMatrix(sigma)


def build_grid(cfg: ExperimentConfig) -> Grid:
    with _refused_as(ConfigError, ""):
        return Grid(
            dim=cfg.get("dim", 2), n=cfg.require("n"), side=cfg.get("side", 1.0)
        )


def build_initial(cfg: ExperimentConfig, grid: Grid):
    """Construct the initial state described by the ``init`` key."""
    kind = cfg.require("init")
    with _refused_as(ConfigError, ""):
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
            return rasterize_slab(grid, 0, cfg.require("slab_lo"), cfg.require("slab_hi"))
        if kind == "blob":
            return random_blob(
                grid,
                seed=cfg.require("blob_seed"),
                fill=cfg.get("blob_fill", 0.3),
                smoothing=cfg.get("blob_smoothing", 0.05),
            )
        if kind == "voronoi":
            seeds = cfg.require("seeds")
            if len(seeds) > MAX_GRAINS:
                raise ConfigError(
                    f"{len(seeds)} seeds, but a dump holds at most {MAX_GRAINS} grains"
                )
            solid = None
            if cfg.get("solid_center") is not None:
                solid = rasterize_ball(
                    grid, cfg.require("solid_center"), cfg.require("solid_radius")
                )
            return voronoi_labels(
                grid,
                seeds,
                vapor_margin=cfg.get("vapor_margin", 0.0),
                solid=solid,
            )
    raise ConfigError(f"unknown init '{kind}'")


def _scheme_config(
    cfg: ExperimentConfig, scheme: str, grid: Grid, h: float, steps: int,
    grains: int | None,
) -> SchemeConfig:
    """The :class:`SchemeConfig` of ``scheme`` for states of ``grains`` grains
    (None for a two-phase field), with the ``force_value`` of ``cfg`` and,
    exactly when the states have grains, its tensions.

    A refusal of :class:`SchemeConfig` is a config error.  It pairs the
    scheme with the states, initial or stored: grain growth takes tensions
    and every other scheme none.  It also refuses a force that is not
    finite, a forced scheme without one and any other scheme with one.
    """
    tensions = None if grains is None else build_tensions(cfg, grains)
    with _refused_as(ConfigError, ""):
        return SchemeConfig(scheme, grid, h, steps, cfg.get("force_value"), tensions)


def build_scheme_config(cfg: ExperimentConfig, grid: Grid, initial) -> SchemeConfig:
    scheme = cfg.require("scheme")
    h, steps = cfg.require("h"), cfg.require("steps")
    return _scheme_config(cfg, scheme, grid, h, steps, initial.num_grains)


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
    if phases > MAX_GRAINS + 1:
        raise ValueError(f"dump format carries at most {MAX_GRAINS + 1} labels")
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
    A file that cannot be read or accepted is a :class:`DumpError`.
    """
    with _refused_as(DumpError, ""):
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
        if not 2 <= phases <= MAX_GRAINS + 1:
            raise ValueError(f"{path}: phases={phases}, need 2 to {MAX_GRAINS + 1}")
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
    """Load a stored state; returns (state, h, step).  A file that cannot be
    read or accepted is a :class:`DumpError`."""
    header = read_header(path)
    grid = header.grid
    with _refused_as(DumpError, ""):
        payload = np.fromfile(path, dtype=np.uint8, offset=header.offset)
        labels = payload.reshape(grid.shape)
        top = header.num_grains or 1  # the top label: 1 for a two-phase field
        if payload.max(initial=0) > top:
            raise ValueError(
                f"{path}: payload holds label {payload.max()}, "
                f"above its top label {top}"
            )
        if header.num_grains is None:
            state = PhaseField(grid, labels.view(bool))
        else:
            state = MultiPhaseState(grid, labels, header.num_grains)  # casts once
    return state, header.h, header.step


# ---------------------------------------------------------------------------
# commands


def cmd_run(config_path: str) -> int:
    """Run a configured trajectory, write dumps and the ledger CSV.

    Dumps and ledger rows are written as their steps finish, and only the
    newest state is kept.  The initial dump and the ledger's first rows
    wait for the first step, so a run whose first step fails creates no
    ``out_dir``; a run that fails later leaves the rows of the steps that
    finished, each flushed as it is written.
    """
    cfg = read_config(config_path)
    dump_every = cfg.get("dump_every", 0)
    if dump_every < 0:
        raise ConfigError(
            f"line {cfg.lines['dump_every']}: dump_every must be 0 or more, "
            f"got {dump_every}"
        )
    grid = build_grid(cfg)
    initial = build_initial(cfg, grid)
    scheme_cfg = build_scheme_config(cfg, grid, initial)
    out_dir = Path(cfg.get("out_dir", "out"))
    h = scheme_cfg.h

    stepper = Stepper(scheme_cfg, initial)
    states = iter(stepper)
    state = next(states, None)  # step 1 runs before out_dir is made
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dump(out_dir / "state_000000.mbof", initial, h, 0)
    del initial
    with open(out_dir / "ledger.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "t", "lambda", "E_h", "D_h", "slack", "radius"])
        e0, r0 = _fmt(stepper.initial_energy), _fmt(stepper.initial_radius)
        writer.writerow(["0", _fmt(0.0), "", e0, "", "", r0])
        while state is not None:  # rebinding ``state`` lets the old one go
            r = stepper.records[-1]
            writer.writerow(
                [
                    str(r.step),
                    _fmt(r.step * h),
                    "" if r.lam is None else _fmt(r.lam),
                    _fmt(r.energy_after),
                    _fmt(r.dissipation),
                    _fmt(r.slack),
                    "" if r.bounding_radius is None else _fmt(r.bounding_radius),
                ]
            )
            fh.flush()
            if stepper.status != "running" or (dump_every and r.step % dump_every == 0):
                write_dump(out_dir / f"state_{r.step:06d}.mbof", state, h, r.step)
            state = next(states, None)
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
    cfg = read_config(config_path)
    grid = build_grid(cfg)
    scheme = cfg.require("scheme")
    h_list = cfg.require("h_list")
    horizon = cfg.require("T")
    if not 0 < horizon < math.inf:
        raise ConfigError(f"T must be positive and finite, got {horizon}")
    if len(h_list) < 3:
        raise ConfigError("h_list needs at least 3 entries")
    for k, h in enumerate(h_list):
        if not 0 < h < math.inf:
            raise ConfigError(f"h_list entry {h} is not positive and finite")
        if not math.isfinite(horizon / h):
            raise ConfigError(f"h_list entry {h} gives T / h = {horizon / h}")
        if h in h_list[:k]:
            raise ConfigError(f"h_list repeats {h}")
    if scheme not in ("mbo", "volume_preserving"):
        raise ConfigError(f"sweep supports mbo and volume_preserving, not {scheme}")
    if scheme == "mbo" and cfg.require("init") != "ball":
        raise ConfigError("mbo sweep compares against a shrinking ball")
    initial = build_initial(cfg, grid)
    configs = [
        _scheme_config(
            cfg, scheme, grid, h, max(1, round(horizon / h)), initial.num_grains
        )
        for h in h_list
    ]

    rows: list[dict[str, float | int | None]] = []
    for scheme_cfg in configs:
        h, steps = scheme_cfg.h, scheme_cfg.steps
        stepper, final = Stepper(scheme_cfg, initial), initial
        for final in stepper:  # keep only the newest state
            pass
        # a run that stopped early is scored at the horizon steps * h: a
        # pinned state repeats itself, and an emptied phase stays empty
        records = stepper.records
        row: dict[str, float | int | None] = {"h": h, "steps": len(records)}
        if scheme == "mbo":
            # the circle law sqrt(r0^2 - 2(d-1)t), 0 once the ball is extinct
            r0 = cfg.require("ball_radius")
            arg = r0 * r0 - 2.0 * (grid.dim - 1) * (steps * h)
            row["radius"] = measured = _measured_radius(final)
            row["oracle"] = target = math.sqrt(arg) if arg > 0 else 0.0
            row["error"] = abs(measured - target)
        else:
            lams = [r.lam for r in records]
            row["M"], row["bad"] = multiplier_integral(h, lams, steps)
        rows.append(row)

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

    out_dir = Path(cfg.get("out_dir", "out"))
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
    return EXIT_OK


def _dump_headers(paths: Sequence[str]) -> list[DumpHeader]:
    """Headers of the dumps sorted by step, checked to form one run:
    consecutive steps, one h, one grid, one kind of state."""
    headers = sorted((read_header(p) for p in paths), key=lambda hd: hd.step)
    for a, b in zip(headers, headers[1:]):
        if b.step != a.step + 1:
            raise DumpError(
                f"step {b.step} follows step {a.step}; steps must be consecutive"
            )
    hs = {hd.h for hd in headers}
    if len(hs) != 1:
        raise DumpError(f"dumps disagree on h: {sorted(hs)}")
    if len({hd.grid for hd in headers}) != 1:
        raise DumpError("dumps live on different grids")
    if len({hd.num_grains for hd in headers}) != 1:
        raise DumpError("dumps disagree on their labels")
    return headers


def _audit_config(
    config_path: str | None, grid: Grid, h: float, steps: int, grains: int | None
) -> SchemeConfig:
    """The config under which stored states of ``grains`` grains (None for
    two-phase states) are audited: that of ``--config``, whose scheme reads
    as ``mbo`` when it names none, or plain ``mbo`` without one."""
    if config_path is None and grains is not None:
        raise ConfigError("multiphase dumps need --config for the tensions")
    cfg = ExperimentConfig({}, {}) if config_path is None else read_config(config_path)
    return _scheme_config(cfg, cfg.get("scheme", "mbo"), grid, h, steps, grains)


def cmd_check(paths: Sequence[str], config_path: str | None) -> int:
    """Re-audit stored states: recompute the per-step energy ledger.

    Every header is checked first; the states are then read, each when the
    audit asks for it, and audited two at a time.
    """
    headers = _dump_headers(paths)
    first, steps = headers[0], len(headers) - 1
    grid, h, grains = first.grid, first.h, first.num_grains
    scheme_cfg = _audit_config(config_path, grid, h, steps, grains)
    states = (read_dump(hd.path)[0] for hd in headers)
    report = ledger_check(scheme_cfg, states, first.step)
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


def cmd_energy(path: str, h: float | None, config_path: str | None) -> int:
    """Print the interfacial energy of one stored state, as a run's
    :class:`LedgerWalk` takes it."""
    state, dump_h, _step = read_dump(path)
    bandwidth = dump_h if h is None else h
    scheme_cfg = _audit_config(config_path, state.grid, bandwidth, 0, state.num_grains)
    print(_fmt(LedgerWalk(scheme_cfg, state, state).energy))  # nothing follows
    return EXIT_OK


# The errors a command raises on bad input, each with its exit code and the
# start of its stderr line; ``check`` reads several dumps, so its dump errors
# say "dumps".  Any other exception is a bug and propagates.
_EXITS = (
    (ConfigError, EXIT_CONFIG, "config error"),
    (DumpError, EXIT_RUNTIME, "cannot load dump"),
    ((DegeneratePhaseError, OSError, MemoryError), EXIT_RUNTIME, "runtime error"),
)


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
    # a command's clamp warnings show as one, naming the largest overshoot,
    # when it ends; other warnings show as they fire
    show, overshoots = warnings.showwarning, []

    def collect(message, category, *where) -> None:
        if category is ClampWarning:
            overshoots.append(message.overshoot)
        else:
            show(message, category, *where)

    with warnings.catch_warnings():
        warnings.showwarning = collect
        try:
            if args.command == "run":
                return cmd_run(args.config)
            if args.command == "sweep":
                return cmd_sweep(args.config)
            if args.command == "check":
                return cmd_check(args.dumps, args.config)
            return cmd_energy(args.dump, args.h, args.config)
        except Exception as exc:
            for kinds, code, prefix in _EXITS:
                if isinstance(exc, kinds):
                    plural = kinds is DumpError and args.command == "check"
                    print(f"{prefix}{'s' * plural}: {exc}", file=sys.stderr)
                    return code
            raise
        finally:
            warnings.showwarning = show
            if overshoots:
                warnings.warn(ClampWarning(max(overshoots)))


if __name__ == "__main__":
    sys.exit(main())
