"""The benchmark's own tests, at tiny sizes: `python3 -m pytest -q perfbench`."""

import json
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def test_seed_fixes_the_config():
    for w in WORKLOADS.values():
        assert w.config_text(7) == w.config_text(7)
        assert w.config_text(7) != w.config_text(8)


def test_smoke_prints_every_metric_and_rejects_corrupted_dumps():
    assert run.smoke() == 0


def test_no_result_without_the_program(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    root = Path(run.__file__).resolve().parent.parent
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "grain64_256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
