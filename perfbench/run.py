#!/usr/bin/env python3
"""Benchmark of mbokit's two user-facing commands, `run` and `check`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # tiny sizes, self-checks
    python3 perfbench/run.py --make-reference   # rewrite reference.json

Run it from the root of a source checkout: the program is imported from the
checkout's ``src`` directory, never from an installed copy, and the
benchmark exits with code 2 and no result when that is not possible.

One cycle generates the workload's config from the seed, then times three
fresh processes one after the other (closed loop, one command at a time):
the set-up probe (`setup_child.py`), `mbokit run <cfg>` and `mbokit check
<all dumps> --config <cfg>`, each in a fresh, empty directory.  Cycles
repeat until ``--seconds`` have passed (at least MIN_CYCLES); the reported
value of each metric is its median over the cycles.  Every command's output
is verified; see `verify_run`, `verify_check`, `verify_setup` and
`Bench.settle`.

With ``--trace 1`` the same commands run under `traced_cli.py` instead, and
the per-layer metrics are reported: self times and call counts from the
traced processes, exact counters from one separate counting run, and the
tracing overhead against untraced runs made in the same invocation.

Children run single-threaded (MBO_THREADS and the BLAS/OpenMP thread counts
set to 1).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload, smoke_variant

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

PY = sys.executable
CLI = (PY, "-c", "import sys; from mbokit.cli import main; sys.exit(main())")
SETUP = (PY, str(HERE / "setup_child.py"))
TRACED = (PY, str(HERE / "traced_cli.py"))
PROBE = (
    "import json, mbokit, numpy, scipy, platform\n"
    "from numpy._core._multiarray_umath import __cpu_features__, __cpu_dispatch__\n"
    "print(json.dumps({'mbokit': mbokit.__file__, 'python': platform.python_version(),\n"
    "  'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
    "  'cpu_dispatch': [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}))\n"
)

THREAD_ENV = {
    "MBO_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_ENV = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 150.0
MIN_CYCLES = 3
REFERENCE_SEEDS = range(32)
REFERENCE_KEYS = ("trajectory_sha256", "final_dump_sha256", "ledger_csv_sha256")

END_TO_END = {
    "run_s": "s",
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "check_peak_rss_mb": "MiB",
}
LAYERS = ("grid", "kernel", "threshold", "schemes", "diagnostics", "cli")
PER_LAYER = {
    "kernel.forward_s": "s",
    "kernel.inverse_s": "s",
    "kernel.fft_calls": "count",
    "kernel.fft_calls_per_step": "count",
    "kernel.fft_computed_bytes": "bytes",
    "kernel.convolve_self_s": "s",
    "kernel.convolve_calls": "count",
    "kernel.convolve_repeat_frac": "ratio",
    "kernel.convolve_empty_frac": "ratio",
    "threshold.select_s": "s",
    "threshold.select_calls": "count",
    "schemes.step_self_s": "s",
    "schemes.run_self_s": "s",
    "schemes.steps": "count",
    "schemes.flipped_cells": "count",
    "schemes.tension_setup_s": "s",
    "grid.init_s": "s",
    "grid.bounding_radius_s": "s",
    "grid.centroid_s": "s",
    "grid.indicator_s": "s",
    "diagnostics.ledger_check_s": "s",
    "diagnostics.energy_self_s": "s",
    "diagnostics.energy_calls": "count",
    "diagnostics.dissipation_self_s": "s",
    "diagnostics.dissipation_calls": "count",
    "diagnostics.state_difference_s": "s",
    "diagnostics.state_difference_calls": "count",
    "cli.write_dump_s": "s",
    "cli.read_dump_s": "s",
    "cli.dump_bytes_written": "bytes",
    "cli.dump_bytes_read": "bytes",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.interpreter_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

# Span names (as traced_cli.py records them) behind each per-layer metric.
FFT_FORWARD = ("kernel.HeatKernelPlan.forward",)
FFT_INVERSE = ("kernel.HeatKernelPlan.inverse",)
SMOOTH = ("kernel.convolve", "kernel.HeatKernelPlan.apply")
SELECT = ("threshold.select_top_cells", "threshold.select_bottom_cells")
STEP = tuple(
    f"schemes.step_{s}" for s in ("mbo", "forced", "volume_preserving", "grain_growth")
)
INIT = ("grid.rasterize_ball", "grid.random_blob", "grid.voronoi_labels")
ENERGY = ("diagnostics.energy_two_phase", "diagnostics.energy_multiphase")
DISSIPATION = ("diagnostics.dissipation_two_phase", "diagnostics.dissipation_multiphase")
DIFFERENCE = ("diagnostics.state_difference", "diagnostics.phase_difference")

# Time outside any span, beyond wrapper installation, means spans were lost.
UNATTRIBUTED_LIMIT = 0.02


class BenchError(Exception):
    """The program cannot be benchmarked here; no result is printed."""


class Rejected(Exception):
    """A command's output failed verification."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


def launch(argv, cwd: Path, tag: str) -> Proc:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        rc=proc.returncode,
        wall_s=wall,
        rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def probe_program() -> dict:
    """Import the program once (untimed warm-up) and record its environment."""
    if not (SRC / "mbokit" / "cli.py").is_file():
        raise BenchError(f"no mbokit sources under {SRC}")
    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        proc = launch((PY, "-c", PROBE), Path(tmp), "probe")
    if proc.rc != 0:
        raise BenchError(f"cannot import mbokit from {SRC}: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout)
    if not Path(facts["mbokit"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"mbokit imported from {facts['mbokit']}, not from {SRC}")
    return facts


# ---------------------------------------------------------------------------
# verification


@dataclass
class RunOutput:
    tag: str
    trajectory_sha: str  # over every dump, in step order
    final_sha: str
    ledger_sha: str
    init_sha: str  # of the initial labels, as setup_child.py prints it
    flipped_cells: int
    dumps: list[str]

    @property
    def signature(self) -> tuple[str, str, str]:
        """What two repetitions of one config must agree on, bit for bit."""
        return (self.trajectory_sha, self.final_sha, self.ledger_sha)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump_payload(path: Path, w: Workload, step: int) -> np.ndarray:
    """The labels of one dump, after checking its header against the config."""
    blob = path.read_bytes()
    sep = blob.find(b"\n\n")
    head = blob[:sep].decode("ascii", errors="replace").splitlines()
    fields = dict(line.partition("=")[::2] for line in head[1:])
    expected = {
        "dim": str(w.dim),
        "n": ",".join([str(w.n)] * w.dim),
        "step": str(step),
        "phases": str(w.phases),
    }
    if sep < 0 or head[:1] != ["MBOF1"] or any(fields.get(k) != v for k, v in expected.items()):
        raise Rejected(f"{path.name}: unexpected header {head}")
    try:
        h = float(fields.get("h", "nan"))
    except ValueError:
        h = math.nan
    if h != w.h:
        raise Rejected(f"{path.name}: h={fields.get('h')}, config has {w.h!r}")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=sep + 2)
    if payload.size != w.cells or payload.max(initial=0) >= w.phases:
        raise Rejected(f"{path.name}: payload does not fit {w.cells} cells of {w.phases} labels")
    return payload


def verify_run(w: Workload, proc: Proc, cwd: Path, tag: str) -> RunOutput:
    """Exit 0, completed status, ledger PASS, exactly the expected files."""
    if proc.rc != 0:
        raise Rejected(f"exit {proc.rc}: {proc.stderr.strip()[-300:]}")
    if f"status: completed after {w.steps} steps" not in proc.stdout:
        raise Rejected(f"not completed: {proc.stdout.strip()[:300]}")
    if "ledger: PASS" not in proc.stdout:
        raise Rejected("ledger did not pass")
    out = cwd / "out"
    dumps = [f"state_{i:06d}.mbof" for i in range(w.steps + 1)]
    found = sorted(p.name for p in out.iterdir())
    if found != sorted(dumps + ["ledger.csv"]):
        raise Rejected(f"unexpected output files {found}")
    ledger = (out / "ledger.csv").read_bytes()
    if len(ledger.splitlines()) != w.steps + 2:
        raise Rejected("ledger.csv does not hold one row per step")
    payloads = [_dump_payload(out / d, w, i) for i, d in enumerate(dumps)]
    if w.conserves_solid:
        solid = {int(np.count_nonzero(p)) for p in payloads}
        if len(solid) != 1:
            raise Rejected(f"solid cell count changed across dumps: {sorted(solid)}")
    flipped = sum(int(np.count_nonzero(a != b)) for a, b in zip(payloads, payloads[1:]))
    trajectory = hashlib.sha256()
    for d in dumps:
        trajectory.update((out / d).read_bytes())
    return RunOutput(
        tag=tag,
        trajectory_sha=trajectory.hexdigest(),
        final_sha=_sha256((out / dumps[-1]).read_bytes()),
        ledger_sha=_sha256(ledger),
        init_sha=_sha256(payloads[0].tobytes()),
        flipped_cells=flipped,
        dumps=[f"out/{d}" for d in dumps],
    )


def verify_check(w: Workload, proc: Proc) -> None:
    if proc.rc != 0:
        raise Rejected(f"exit {proc.rc}: {proc.stderr.strip()[-300:]}")
    audited = sum(line.startswith("step ") for line in proc.stdout.splitlines())
    if "ledger: PASS" not in proc.stdout or audited != w.steps:
        raise Rejected(f"audit did not pass all {w.steps} steps")


def verify_setup(proc: Proc) -> str:
    if proc.rc != 0:
        raise Rejected(f"exit {proc.rc}: {proc.stderr.strip()[-300:]}")
    return proc.stdout.strip()


# ---------------------------------------------------------------------------
# one invocation


class Bench:
    """Commands of one workload and seed, and the tally of their failures."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.config = w.config_text(seed)
        self.config_sha = _sha256(self.config.encode())
        self.work = work
        self.cycle = 0
        self.attempted = 0
        self.failed: dict[str, str] = {}  # command tag -> first reason
        self.runs: list[RunOutput] = []
        self.setups: list[tuple[str, str]] = []  # (tag, initial-state hash)

    def fresh_dir(self) -> Path:
        self.cycle += 1
        d = self.work / f"c{self.cycle:03d}"
        d.mkdir()
        (d / "bench.cfg").write_text(self.config)
        return d

    def fail(self, tag: str, reason: str) -> None:
        self.failed.setdefault(tag, reason)

    def _command(self, argv, cwd: Path, tag: str) -> Proc:
        self.attempted += 1
        return launch(argv, cwd, tag)

    def setup(self, cwd: Path) -> Proc:
        tag = f"c{self.cycle:03d}.setup"
        proc = self._command(SETUP + ("bench.cfg",), cwd, "setup")
        try:
            self.setups.append((tag, verify_setup(proc)))
        except Rejected as exc:
            self.fail(tag, str(exc))
        return proc

    def run(self, cwd: Path, prefix=CLI, name="run") -> tuple[Proc, RunOutput | None]:
        tag = f"c{self.cycle:03d}.{name}"
        proc = self._command(prefix + ("run", "bench.cfg"), cwd, name)
        try:
            out = verify_run(self.w, proc, cwd, tag)
        except Rejected as exc:
            self.fail(tag, str(exc))
            return proc, None
        self.runs.append(out)
        return proc, out

    def check(self, cwd: Path, out: RunOutput, prefix=CLI, name="check") -> Proc:
        tag = f"c{self.cycle:03d}.{name}"
        argv = prefix + ("check", *out.dumps, "--config", "bench.cfg")
        proc = self._command(argv, cwd, name)
        try:
            verify_check(self.w, proc)
        except Rejected as exc:
            self.fail(tag, str(exc))
        return proc

    def settle(self, reference: dict) -> None:
        """Cross-command checks: the same bytes from every run, and the
        stored reference's bytes where this config has one."""
        if not self.runs:
            return
        first = self.runs[0]
        want = reference.get(self.config_sha)
        for out in self.runs:
            if out.signature != first.signature:
                self.fail(out.tag, "dumps or ledger.csv differ between repetitions")
            if want and out.signature != tuple(want[k] for k in REFERENCE_KEYS):
                self.fail(out.tag, "dumps or ledger.csv differ from the reference")
        for tag, sha in self.setups:
            if sha != first.init_sha:
                self.fail(tag, "set-up built another initial state than the run")


def _deadline_passed(start: float, seconds: float, cycles: int, last: float, least: int) -> bool:
    """Stop when another cycle as long as the last one would overrun."""
    return cycles >= least and time.perf_counter() + last > start + seconds


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    start = time.perf_counter()
    cycles = 0
    while True:
        t = time.perf_counter()
        d = bench.fresh_dir()
        samples["setup_s"].append(bench.setup(d).wall_s)
        run, out = bench.run(d)
        samples["run_s"].append(run.wall_s)
        samples["peak_rss_mb"].append(run.rss_mib)
        if out is not None:
            check = bench.check(d, out)
            samples["check_s"].append(check.wall_s)
            samples["check_peak_rss_mb"].append(check.rss_mib)
        shutil.rmtree(d)
        cycles += 1
        if _deadline_passed(start, seconds, cycles, time.perf_counter() - t, MIN_CYCLES):
            return samples


# ---------------------------------------------------------------------------
# traced runs


def span_table(record: dict) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds]."""
    names, spans = record["names"], record["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, list[float]] = {}
    for i, (nid, start, end, _) in enumerate(spans):
        row = table.setdefault(names[nid], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[i]
    return table


def traced_metrics(records: list[tuple[dict, Proc]]) -> tuple[dict[str, float], str | None]:
    """Per-layer metrics of one traced run + check pair, and any
    inconsistency between the spans and the processes' wall time."""
    table: dict[str, list[float]] = {}
    wall = interpreter = imports = unattributed = roots = 0.0
    for record, proc in records:
        for name, row in span_table(record).items():
            acc = table.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        root = sum(e - s for _, s, e, parent in record["spans"] if parent < 0)
        in_child = record["end"] - record["start"]
        wall += proc.wall_s
        interpreter += proc.wall_s - in_child
        imports += record["imported"] - record["start"]
        unattributed += in_child - (record["imported"] - record["start"]) - root
        roots += root

    def calls(names):
        return sum(table[n][0] for n in names if n in table)

    def self_s(names):
        return sum(table[n][2] for n in names if n in table)

    m = {
        "kernel.forward_s": self_s(FFT_FORWARD),
        "kernel.inverse_s": self_s(FFT_INVERSE),
        "kernel.fft_calls": calls(FFT_FORWARD + FFT_INVERSE),
        "kernel.convolve_self_s": self_s(SMOOTH),
        "kernel.convolve_calls": calls(SMOOTH),
        "threshold.select_s": self_s(SELECT),
        "threshold.select_calls": calls(SELECT),
        "schemes.step_self_s": self_s(STEP),
        "schemes.run_self_s": self_s(("schemes.run",)),
        "schemes.steps": calls(STEP),
        "schemes.tension_setup_s": self_s(("schemes.SurfaceTensionMatrix.__post_init__",)),
        "grid.init_s": self_s(INIT),
        "grid.bounding_radius_s": self_s(("grid.bounding_radius",)),
        "grid.centroid_s": self_s(("grid.centroid",)),
        "grid.indicator_s": self_s(("grid.MultiPhaseState.indicator",)),
        # inclusive: the whole audit, the lever the other items compete for
        "diagnostics.ledger_check_s": table.get("diagnostics.ledger_check", [0, 0.0])[1],
        "diagnostics.energy_self_s": self_s(ENERGY),
        "diagnostics.energy_calls": calls(ENERGY),
        "diagnostics.dissipation_self_s": self_s(DISSIPATION),
        "diagnostics.dissipation_calls": calls(DISSIPATION),
        "diagnostics.state_difference_s": self_s(DIFFERENCE),
        "diagnostics.state_difference_calls": calls(DIFFERENCE),
        "cli.write_dump_s": self_s(("cli.write_dump",)),
        "cli.read_dump_s": self_s(("cli.read_dump",)),
        "cli.import_s": imports,
        "trace.wall_s": wall,
        "trace.interpreter_s": interpreter,
        "trace.unattributed_s": unattributed,
    }
    layer_total = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r[2] for n, r in table.items() if n.split(".")[0] == layer)
        layer_total += m[f"{layer}.self_s"]
    m["kernel.fft_calls_per_step"] = m["kernel.fft_calls"] / max(1, m["schemes.steps"])
    problem = None
    if abs(layer_total - roots) > 1e-6 * max(1.0, roots):
        problem = f"layer self times sum to {layer_total} s, spans cover {roots} s"
    elif not 0.0 <= unattributed <= UNATTRIBUTED_LIMIT * wall:
        problem = f"{unattributed} s of {wall} s fall outside every span"
    return m, problem


def _read_record(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def traced_pair(bench: Bench, mode: str) -> tuple[list[tuple[dict, Proc]], RunOutput | None]:
    """One traced run and its check in a fresh directory."""
    d = bench.fresh_dir()
    records = []
    run, out = bench.run(d, TRACED + ("run.json", mode), name=f"{mode}-run")
    rec = _read_record(d / "run.json")
    if rec is not None:
        records.append((rec, run))
    if out is not None:
        check = bench.check(d, out, TRACED + ("check.json", mode), name=f"{mode}-check")
        rec = _read_record(d / "check.json")
        if rec is not None:
            records.append((rec, check))
    shutil.rmtree(d)
    return records, out


def measure_layers(bench: Bench, seconds: float) -> dict[str, list[float]]:
    start = time.perf_counter()
    # exact counters, from processes that are not timed
    counted, out = traced_pair(bench, "count")
    counts = Counter()
    for record, _ in counted:
        counts.update(record["counts"])
    exact = {
        "kernel.fft_computed_bytes": counts["fft_bytes"],
        "kernel.convolve_repeat_frac": counts["smooth_repeats"] / max(1, counts["smooth_calls"]),
        "kernel.convolve_empty_frac": counts["smooth_empty"] / max(1, counts["smooth_calls"]),
        "cli.dump_bytes_written": counts["dump_bytes_written"],
        "cli.dump_bytes_read": counts["dump_bytes_read"],
        "schemes.flipped_cells": out.flipped_cells if out else 0,
    }
    samples: dict[str, list[float]] = {k: [] for k in PER_LAYER}
    untraced: list[float] = []
    cycles = 0
    while True:
        t = time.perf_counter()
        d = bench.fresh_dir()
        untraced.append(bench.run(d)[0].wall_s)
        shutil.rmtree(d)
        records, _ = traced_pair(bench, "time")
        if len(records) == 2:
            m, problem = traced_metrics(records)
            if problem:
                bench.fail(f"c{bench.cycle:03d}.time-run", f"trace: {problem}")
            m["trace.overhead_frac"] = records[0][1].wall_s / statistics.median(untraced) - 1.0
            for k, v in {**m, **exact}.items():
                samples[k].append(v)
        cycles += 1
        if _deadline_passed(start, seconds, cycles, time.perf_counter() - t, 1):
            return samples


# ---------------------------------------------------------------------------
# reference outputs


def platform_key(facts: dict) -> dict:
    """What bit-identical outputs can depend on besides the program."""
    return {k: facts[k] for k in ("python", "numpy", "scipy", "cpu_dispatch")}


def load_reference(facts: dict) -> tuple[dict, str]:
    if not REFERENCE.is_file():
        return {}, "no reference file"
    data = json.loads(REFERENCE.read_text())
    if data["platform"] != platform_key(facts):
        return {}, f"reference made on {data['platform']}, not comparable here"
    return data["runs"], f"{len(data['runs'])} stored runs"


def make_reference() -> int:
    facts = probe_program()
    runs = {}
    for w in WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
                bench = Bench(w, seed, Path(tmp))
                _, out = bench.run(bench.fresh_dir())
                if out is None:
                    print(f"{w.name} seed {seed}: {bench.failed}", file=sys.stderr)
                    return 1
                runs[bench.config_sha] = {
                    "workload": w.name,
                    "seed": seed,
                    **dict(zip(REFERENCE_KEYS, out.signature)),
                }
                print(f"{w.name} seed {seed}: {out.final_sha[:16]}", flush=True)
    data = {"platform": platform_key(facts), "runs": runs}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# reporting


def _work_dir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return WORK_ROOT


def measure(w: Workload, seed: int, seconds: float, trace: bool, facts: dict) -> dict:
    """One invocation's result, as the last output line reports it."""
    reference, ref_note = load_reference(facts)
    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        bench = Bench(w, seed, Path(tmp))
        if trace:
            samples = measure_layers(bench, seconds)
            units = PER_LAYER
        else:
            samples = measure_end_to_end(bench, seconds)
            units = END_TO_END
        bench.settle(reference)
    print(f"# workload {w.name}, seed {seed}, {bench.cycle} command directories, "
          f"reference: {ref_note}")
    for tag, reason in sorted(bench.failed.items()):
        print(f"# FAILED {tag}: {reason}")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        if not values:
            continue
        # exact counters repeat exactly; keep them whole numbers
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (value,) * 3
        print(f"{name:<36} {value:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    failed = len(bench.failed)
    print(f"{'failed_frac':<36} {failed / max(1, bench.attempted):>14.6g} ratio  "
          f"({failed} of {bench.attempted} commands)")
    return {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def print_facts(facts: dict, w: Workload) -> None:
    affinity = len(os.sched_getaffinity(0))
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    print(f"# nproc {os.cpu_count()} (usable {affinity}); children run with {threads}")
    print(f"# python {facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"numpy SIMD {' '.join(facts['cpu_dispatch'])}")
    print(f"# {w.name}: {w.cells} cells, one float64 field {w.cells * 8 / 2**20:.3g} MiB, "
          f"one dump payload {w.cells / 2**20:.3g} MiB, {w.steps} steps")


# ---------------------------------------------------------------------------
# self-checks at tiny sizes


def _flip_last_cell(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def corruption_is_rejected(w: Workload) -> list[str]:
    """Each corruption of a clean run's output must fail verification."""
    with tempfile.TemporaryDirectory(dir=_work_dir()) as tmp:
        bench = Bench(w, 1, Path(tmp))
        d = bench.fresh_dir()
        proc, clean = bench.run(d)
        if clean is None:
            return [f"{w.name}: clean run rejected: {bench.failed}"]
        final = Path(clean.dumps[-1]).name
        corruptions = {
            "flipped cell in the final dump": lambda out: _flip_last_cell(out / final),
            "flipped cell in the first dump": lambda out: _flip_last_cell(out / "state_000000.mbof"),
            "leftover dump from another run": lambda out: shutil.copy(out / final, out / "state_000099.mbof"),
        }
        problems = []
        for what, corrupt in corruptions.items():
            bad = Path(tmp) / "bad"
            shutil.copytree(d, bad)
            corrupt(bad / "out")
            try:
                if verify_run(w, proc, bad, "bad").signature == clean.signature:
                    problems.append(f"{w.name}: {what} was accepted")
            except Rejected:
                pass
            shutil.rmtree(bad)
    return problems


def smoke() -> int:
    """Tiny variants of every workload, both trace modes, plus corruption."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [wl["name"] for wl in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    facts = probe_program()
    for w in WORKLOADS.values():
        tiny = smoke_variant(w)
        for trace in (False, True):
            result = measure(tiny, 1, 1, trace, facts)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{w.name} trace={int(trace)}: metrics {got} != {expected[trace]}")
            if not result["correct"]:
                problems.append(f"{w.name} trace={int(trace)}: not correct")
        selections = result["metrics"]["threshold.select_calls"]["value"]
        if selections != (0 if w.scheme == "mbo" else tiny.steps):
            problems.append(f"{w.name}: {selections} selections in {tiny.steps} steps")
        problems += corruption_is_rejected(tiny)
    for p in problems:
        print(f"smoke: {p}")
    print(f"smoke: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            parser.error("--workload is required")
        w = WORKLOADS[args.workload]
        facts = probe_program()
        print_facts(facts, w)
        result = measure(w, args.seed, args.seconds, bool(args.trace), facts)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
