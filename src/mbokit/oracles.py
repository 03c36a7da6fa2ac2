"""Sharp-interface references the schemes are audited against.

These are deliberately independent of the grid code: closed forms where
they exist, otherwise a hand-rolled fixed-step RK4 on the radius ODEs.
Nothing here touches convolutions or thresholds, so agreement between a
scheme run and an oracle is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ExtinctionError(ValueError):
    """The requested time lies beyond the shape's extinction."""


def circle_mcf(r0: float, t: float, dim: int = 2) -> float:
    """Radius of a ball shrinking by mean curvature: sqrt(r0^2 - 2(d-1)t)."""
    if r0 <= 0:
        raise ValueError(f"initial radius must be positive, got {r0}")
    arg = r0 * r0 - 2.0 * (dim - 1) * t
    if arg <= 0:
        raise ExtinctionError(
            f"ball of radius {r0} is extinct by t = {r0 * r0 / (2 * (dim - 1)):.6g}"
        )
    return math.sqrt(arg)


def _rk4(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    n_steps: int,
) -> np.ndarray:
    """Classic fixed-step fourth-order Runge-Kutta from t0 to t1."""
    y = np.array(y0, dtype=np.float64)
    dt = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return y


@dataclass(frozen=True)
class TwoBallSolution:
    """Radii of two competing balls over time, plus the extinction time."""

    times: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    extinction_time: float | None


def _two_ball_rhs(dim: int) -> Callable[[float, np.ndarray], np.ndarray]:
    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        r1, r2 = y
        mean = (dim - 1) * (r1 ** (dim - 2) + r2 ** (dim - 2)) / (
            r1 ** (dim - 1) + r2 ** (dim - 1)
        )
        return np.array([mean - (dim - 1) / r1, mean - (dim - 1) / r2])

    return rhs


def solve_two_ball_vp(
    r1_0: float,
    r2_0: float,
    times: Sequence[float],
    dim: int = 2,
    dt_cap: float = 1e-5,
) -> TwoBallSolution:
    """Two balls exchanging volume under curvature with a shared multiplier.

    Each radius obeys  dR_i/dt = -(d-1)/R_i + mean curvature of the whole
    configuration, which conserves the total d-volume (sum of R^d).  The
    smaller ball shrinks, accelerates, and vanishes in finite time; after
    extinction the survivor holds the combined volume and stays constant.

    Integration is fixed-step RK4 with the step shrunk near extinction;
    the extinction time is bracketed to about 1e-10.
    """
    if not (r1_0 > 0 and r2_0 > 0):
        raise ValueError("both initial radii must be positive")
    ts = np.asarray(sorted(times), dtype=np.float64)
    if ts.size == 0 or ts[0] < 0:
        raise ValueError("times must be nonnegative")
    rhs = _two_ball_rhs(dim)
    survivor = (r1_0**dim + r2_0**dim) ** (1.0 / dim)
    small_first = r2_0 <= r1_0
    big, small = (r1_0, r2_0) if small_first else (r2_0, r1_0)

    out_big = np.empty_like(ts)
    out_small = np.empty_like(ts)
    extinction: float | None = None
    t, y = 0.0, np.array([big, small])
    for idx, target in enumerate(ts):
        while t < target and extinction is None:
            span = target - t
            # the collapse timescale is the squared small radius
            dt = min(span, dt_cap, max(5e-3 * y[1] ** 2, 1e-12))
            trial = _rk4(rhs, y, t, t + dt, 1)
            if not np.isfinite(trial).all() or trial[1] <= 1e-6:
                lo, hi = 0.0, dt
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    probe = _rk4(rhs, y, t, t + mid, 1)
                    if np.isfinite(probe).all() and probe[1] > 1e-6:
                        lo = mid
                    else:
                        hi = mid
                extinction = t + hi
                y = np.array([survivor, 0.0])
                break
            y, t = trial, t + dt
        if extinction is not None and target >= extinction:
            out_big[idx], out_small[idx] = survivor, 0.0
        else:
            out_big[idx], out_small[idx] = y
    if small_first:
        return TwoBallSolution(ts, out_big, out_small, extinction)
    return TwoBallSolution(ts, out_small, out_big, extinction)


def forced_ball(
    r0: float, f: float, t: float, dim: int = 2, n_steps: int | None = None
) -> float:
    """Ball radius under curvature plus constant normal forcing.

    Solves dR/dt = -(d-1)/R + f by fixed-step RK4.  The balance radius
    (d-1)/f separates growth from shrinkage and is unstable: starting above
    it the ball grows, below it the ball shrinks toward extinction, which
    raises :class:`ExtinctionError`.
    """
    if r0 <= 0:
        raise ValueError(f"initial radius must be positive, got {r0}")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return r0
    if n_steps is None:
        n_steps = max(1000, int(t * 2e5))

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return np.array([f - (dim - 1) / y[0]])

    y = np.array([r0])
    dt = t / n_steps
    now = 0.0
    for _ in range(n_steps):
        y = _rk4(rhs, y, now, now + dt, 1)
        now += dt
        if not np.isfinite(y[0]) or y[0] <= 1e-9:
            raise ExtinctionError(f"forced ball extinct near t = {now:.6g}")
    return float(y[0])
