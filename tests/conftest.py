import math

import numpy as np
import pytest

from mbokit.grid import (
    Grid,
    PhaseField,
    random_blob,
    rasterize_ball,
    voronoi_labels,
)
from mbokit.kernel import HeatKernelPlan
from mbokit.schemes import SchemeConfig, SurfaceTensionMatrix


@pytest.fixture(scope="session")
def grid64() -> Grid:
    return Grid(dim=2, n=64)


@pytest.fixture(scope="session")
def grid128() -> Grid:
    return Grid(dim=2, n=128)


@pytest.fixture(scope="session")
def grid256() -> Grid:
    return Grid(dim=2, n=256)


@pytest.fixture(scope="session")
def plan128(grid128) -> HeatKernelPlan:
    return HeatKernelPlan(grid128, 1e-3)


@pytest.fixture(scope="session")
def ball128(grid128) -> PhaseField:
    return rasterize_ball(grid128, (0.5, 0.5), 0.3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240611)


def generic_mask(grid: Grid, seed: int, fill: float = 0.35) -> np.ndarray:
    """Random mask with no symmetry, for tie-free threshold tests."""
    r = np.random.default_rng(seed)
    return r.random(grid.shape) < fill


def equal_tensions(num_grains: int) -> SurfaceTensionMatrix:
    """All grain pairs at tension 1 (same as the vapor boundary)."""
    s = np.ones((num_grains, num_grains)) - np.eye(num_grains)
    return SurfaceTensionMatrix(s)


def symmetric_tensions(p, seed, low, high):
    """Symmetric random off-diagonal entries in [low, high), zero diagonal."""
    upper = np.triu(np.random.default_rng(seed).uniform(low, high, (p, p)), 1)
    return upper + upper.T


@pytest.fixture(
    params=["mbo", "volume_preserving", "forced", "grain_growth", "mbo_extinct"]
)
def scheme_case(request, grid128, ball128):
    """A short run of every scheme, plus a plain run that stops early.

    Returns ``(config, initial)``; the ``mbo_extinct`` run shrinks a small
    ball until it vanishes, well before its step budget (the same run as
    ``test_small_ball_goes_extinct``).
    """
    name = request.param
    if name == "grain_growth":
        initial = voronoi_labels(
            grid128,
            [(0.35, 0.3), (0.65, 0.35), (0.5, 0.7)],
            solid=rasterize_ball(grid128, (0.5, 0.5), 0.3),
        )
        cfg = SchemeConfig(
            scheme=name, grid=grid128, h=1e-3, steps=4, tensions=equal_tensions(3)
        )
        return cfg, initial
    if name == "mbo_extinct":
        small = rasterize_ball(grid128, (0.5, 0.5), 0.05)
        return SchemeConfig(scheme="mbo", grid=grid128, h=1e-3, steps=50), small
    force = 2.0 if name == "forced" else None
    cfg = SchemeConfig(scheme=name, grid=grid128, h=1e-3, steps=4, force=force)
    if name == "volume_preserving":
        return cfg, random_blob(grid128, seed=31)
    return cfg, ball128


GRAIN_BALL = ((0.5, 0.5), 0.36)  # the solid of the lattice grain cases


def grain_lattice(spacing, bound):
    """Seeds at the points (i, j) of a lattice of the given spacing with
    i^2 + j^2 < ``bound`` around the centre, slightly sheared."""
    span = range(-math.isqrt(bound), math.isqrt(bound) + 1)
    lattice = [(i, j) for i in span for j in span if i * i + j * j < bound]
    return [(0.5 + spacing * i + 0.003 * j, 0.5 + spacing * j) for i, j in lattice]


def grain_case(spacing, bound):
    """Grains seeded by :func:`grain_lattice` in a ball at 128^2; a two-step
    run's config, the initial state and the bytes of one stack of its p+1
    smoothed fields."""
    grid = Grid(dim=2, n=128)
    seeds = grain_lattice(spacing, bound)
    initial = voronoi_labels(grid, seeds, solid=rasterize_ball(grid, *GRAIN_BALL))
    p = len(seeds)
    cfg = SchemeConfig(
        scheme="grain_growth", grid=grid, h=1e-3, steps=2, tensions=equal_tensions(p)
    )
    return cfg, initial, (p + 1) * grid.total_cells * 8


@pytest.fixture(scope="module")
def many_grains():
    """57 grains in a ball at 128^2; 3 % and 4 % of the cells change in
    its two steps."""
    cfg, initial, stack = grain_case(0.07, 18)
    assert initial.num_grains == 57
    return cfg, initial, stack


@pytest.fixture(scope="module")
def twice_the_grains():
    """109 grains in the same ball; 6 % and 12 % of the cells change."""
    cfg, initial, stack = grain_case(0.05, 36)
    assert initial.num_grains == 109
    return cfg, initial, stack
