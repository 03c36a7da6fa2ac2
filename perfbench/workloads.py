"""The benchmark's workloads: `mbokit run` configs generated from a seed.

The program only ever sees the generated config text.  The seed picks the
ball center, the blob seed and the Voronoi seed points; everything else is
fixed per workload.  Every workload dumps every step (``dump_every = 1``)
so that ``mbokit check`` audits the full trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

VAPOR_MARGIN = 0.05
# Grain seeds stay this far inside the vapor band at the seam, so every
# grain starts with cells of its own.
SEED_INSET = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    dim: int
    n: int
    h: float
    steps: int
    init: str  # ball | blob | voronoi
    grains: int = 0

    @property
    def conserves_solid(self) -> bool:
        """Whether the scheme keeps the occupied cell count exactly."""
        return self.scheme in ("volume_preserving", "grain_growth")

    @property
    def phases(self) -> int:
        """Labels per cell in a dump: vapor plus grains, or in/out."""
        return self.grains + 1 if self.init == "voronoi" else 2

    @property
    def cells(self) -> int:
        return self.n**self.dim

    def config_text(self, seed: int) -> str:
        """The config for one seed; dumps go to ``out`` below the cwd."""
        rng = np.random.default_rng(seed)
        lines = [
            f"scheme = {self.scheme}",
            f"dim = {self.dim}",
            f"n = {self.n}",
            f"h = {self.h!r}",
            f"steps = {self.steps}",
            f"init = {self.init}",
        ]
        if self.init == "ball":
            center = " ".join(repr(float(x)) for x in rng.random(self.dim))
            lines += [f"ball_center = {center}", "ball_radius = 0.3"]
        elif self.init == "blob":
            lines += [
                f"blob_seed = {int(rng.integers(2**31))}",
                "blob_fill = 0.3",
                "blob_smoothing = 0.06",
            ]
        else:
            lo, hi = VAPOR_MARGIN + SEED_INSET, 1.0 - VAPOR_MARGIN - SEED_INSET
            points = rng.uniform(lo, hi, size=(self.grains, self.dim))
            seeds = "; ".join(" ".join(repr(float(x)) for x in p) for p in points)
            lines += [
                f"seeds = {seeds}",
                f"vapor_margin = {VAPOR_MARGIN!r}",
                "sigma_default = 1",
            ]
        lines += ["out_dir = out", "dump_every = 1"]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # sqrt(h) = 5 dx; one smooth interface, no selection; FFT-bound
        # with an 8 MiB float64 field, larger than L2
        Workload("plain_ball_1024", "mbo", 2, 1024, 2.5e-5, 8, "ball"),
        # the only exact selection over all cells; 3-D transforms, many
        # interfaces, ~0.9 MB dumps written and read back
        Workload("vp_blob3d_96", "volume_preserving", 3, 96, 2e-3, 8, "blob"),
        # cache-resident grid, 65 smoothed labels per state; time goes to
        # the O(p^2 N) comparison and dissipation loops
        Workload("grain64_256", "grain_growth", 2, 256, 2.5e-4, 1, "voronoi", 64),
    )
}

# Tiny variants of the same configs for the benchmark's own tests; each
# keeps sqrt(h) above 4 dx and stays clear of extinction over its steps.
_SMOKE_SIZES = {
    "plain_ball_1024": dict(n=48, h=7.5e-3, steps=3),
    "vp_blob3d_96": dict(n=24, h=3.1e-2, steps=3),
    "grain64_256": dict(n=32, h=1.75e-2, steps=2, grains=4),
}


def smoke_variant(workload: Workload) -> Workload:
    return replace(workload, **_SMOKE_SIZES[workload.name])
