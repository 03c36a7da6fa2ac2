"""Set-up probe: everything `mbokit run` does before its first step.

    python3 setup_child.py <config>

Imports mbokit.cli, parses the config, builds the grid, the initial state
and the scheme config, then prints the SHA-256 of the initial labels as a
dump stores them (uint8, row-major), so the caller can check the set-up
against the run's first dump.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
from mbokit.cli import build_grid, build_initial, build_scheme_config, parse_config
from mbokit.grid import MultiPhaseState


def main(config_path: str) -> int:
    cfg = parse_config(Path(config_path).read_text())
    grid = build_grid(cfg)
    initial = build_initial(cfg, grid)
    build_scheme_config(cfg, grid, initial)
    if isinstance(initial, MultiPhaseState):
        labels = initial.labels
    else:
        labels = initial.mask
    payload = np.ascontiguousarray(labels, dtype=np.uint8).tobytes()
    print(hashlib.sha256(payload).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
