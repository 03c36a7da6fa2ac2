"""Run one mbokit CLI command with the public functions of every layer traced.

    python3 traced_cli.py <record.json> <time|count> <mbokit arguments...>

Every public function defined in mbokit.grid, kernel, threshold, schemes,
diagnostics and cli, plus the methods in METHODS, is wrapped where it is
looked up: each mbokit module namespace that holds the function object gets
the wrapper, so names bound at import time (``schemes.convolve``,
``diagnostics.convolve``, ``cli.run``, ``cli.ledger_check``) are traced as
well as the defining module's.  Each call records a span (name, start, end,
parent) in memory; the spans go to <record.json> when the command returns.

``count`` mode adds the counters a timed run must not pay for: bytes in and
out of every FFT, repeated and all-zero inputs to the smoothing entry points
(hashing every input), and dump file sizes.  Its span times are not used.
"""

import sys
import time

T_START = time.perf_counter()

import functools  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import mbokit.cli  # noqa: E402  (imports every layer on the run/check path)

T_IMPORTED = time.perf_counter()

LAYERS = ("grid", "kernel", "threshold", "schemes", "diagnostics", "cli")
METHODS = {
    "grid": {"MultiPhaseState": ("indicator", "solid")},
    "kernel": {
        "HeatKernelPlan": ("__post_init__", "forward", "inverse", "apply")
    },
    "schemes": {"SurfaceTensionMatrix": ("__post_init__",)},
}


def _smoothing_input(name, args):
    """The float64 array a smoothing entry point transforms."""
    if name == "kernel.convolve":
        field_in = args[1]
        return field_in.as_float() if hasattr(field_in, "as_float") else field_in.values
    return args[1]  # HeatKernelPlan.apply(self, values)


class Recorder:
    def __init__(self, counting: bool):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack = [-1]
        self.counting = counting
        self.counts = {
            "fft_bytes": 0,
            "smooth_calls": 0,
            "smooth_repeats": 0,
            "smooth_empty": 0,
            "dump_bytes_written": 0,
            "dump_bytes_read": 0,
        }
        self._seen: set = set()

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = self._count if self.counting else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name in ("kernel.HeatKernelPlan.forward", "kernel.HeatKernelPlan.inverse"):
            c["fft_bytes"] += args[1].nbytes + result.nbytes
        elif name in ("kernel.convolve", "kernel.HeatKernelPlan.apply"):
            values = _smoothing_input(name, args)
            digest = hashlib.blake2b(values.tobytes(), digest_size=16).digest()
            key = (args[0].grid, args[0].h, values.dtype.str, values.shape, digest)
            c["smooth_calls"] += 1
            c["smooth_repeats"] += key in self._seen
            c["smooth_empty"] += not values.any()
            self._seen.add(key)
        elif name == "cli.write_dump":
            c["dump_bytes_written"] += os.path.getsize(args[0])
        elif name == "cli.read_dump":
            c["dump_bytes_read"] += os.path.getsize(args[0])


def install(rec: Recorder) -> None:
    modules = [m for k, m in sys.modules.items() if k == "mbokit" or k.startswith("mbokit.")]
    for layer in LAYERS:
        mod = sys.modules[f"mbokit.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
            ):
                continue
            traced = rec.wrap(f"{layer}.{attr}", obj)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, key, traced)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, rec.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))


def main() -> int:
    record_path, mode, *cli_args = sys.argv[1:]
    if mode not in ("time", "count"):
        raise SystemExit(f"mode must be time or count, got {mode!r}")
    rec = Recorder(counting=mode == "count")
    install(rec)
    t_main = time.perf_counter()
    try:
        return mbokit.cli.main(cli_args)
    finally:
        t_end = time.perf_counter()
        with open(record_path, "w") as fh:
            json.dump(
                {
                    "start": T_START,
                    "imported": T_IMPORTED,
                    "main_start": t_main,
                    "end": t_end,
                    "names": rec.names,
                    "spans": rec.spans,
                    "counts": rec.counts if rec.counting else None,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
