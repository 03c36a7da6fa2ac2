"""Exact order-statistic selection of cells by score.

Selection is the discrete counterpart of picking a superlevel set whose
volume matches a prescribed target: take the ``target`` best cells and
return the pair ``(mask, cut)``, a flat boolean mask and the score of the
last cell in (the threshold).  Ties at the cut are resolved by ascending
flat cell index, which makes the result deterministic and the cell count
exact no matter how degenerate the scores are.

The cut is an exact order statistic found without a copy of the scores: a
strided sample of at most about 2^12 of them brackets it, and one pass over
blocks of 2^13 cells counts the scores up to the bracket and gathers the
few inside it (another pass runs only if the sample missed a cluster).
A selection holds the mask it returns and a small fraction of a field of
scratch.  This is the one implementation of that order statistic.  Its
private ``_kth_smallest`` also gives ``grid.random_blob`` the cut of its
approximate field and the grain step's certificate the cuts of its
bounds, and ``random_blob`` picks by ``_select_cells`` among the cells
its approximation cannot place.
"""

from __future__ import annotations

import math

import numpy as np


def select_top_cells(
    scores: np.ndarray, target_cells: int
) -> tuple[np.ndarray, np.float64]:
    """Select exactly ``target_cells`` of the flat float64 ``scores``, the
    largest first, for ``target_cells`` in [1, ``scores.size``].

    Returns the flat boolean mask of the cells taken and the cut, the
    target-th largest score.  All cells scoring strictly above the cut are
    taken; the remainder is filled from the cells scoring exactly the cut
    in ascending index order.
    """
    return _select_cells(scores, target_cells, top=True)


def select_bottom_cells(
    scores: np.ndarray, target_cells: int
) -> tuple[np.ndarray, np.float64]:
    """Select exactly ``target_cells`` of the flat float64 ``scores``, the
    smallest first; the cut is the target-th smallest score.

    Mirror image of :func:`select_top_cells`; for tie-free scores it picks
    the same cells as top selection on the negated scores.
    """
    return _select_cells(scores, target_cells, top=False)


# The exact selection reads its input in blocks of this many cells, and
# brackets its cut from a strided sample of about ``_SAMPLE_KEYS`` keys first.
_SELECT_BLOCK = 1 << 13
_SAMPLE_KEYS = 1 << 12


def _select_cells(
    values: np.ndarray, count: int, top: bool
) -> tuple[np.ndarray, np.float64]:
    """Flat mask of the ``count`` largest (``top``) or smallest of the flat
    ``values``, and the value at the cut.

    Every value beyond the cut is taken; the rest come from values equal to
    it in ascending index order, so the mask marks the same cells as
    ``np.argsort(k, kind="stable")[:count]`` for ``k = -(values + 0.0)``
    (top) or ``values + 0.0``.  The cut is the order statistic of rank
    ``values.size - count`` (top) or ``count - 1`` (bottom), counted from 0,
    found by :func:`_kth_smallest` without a full-size copy of ``values``; a
    zero cut is returned as +0.0.  Needs values free of NaN; a ``count`` out
    of range is a ValueError.  Private, so a traced run charges its time to
    the caller.
    """
    if not 1 <= count <= values.size:
        raise ValueError(f"target_cells {count} outside [1, {values.size}]")
    cut = _kth_smallest(values, values.size - count if top else count - 1) + 0.0
    mask = values > cut if top else values < cut
    missing = count - int(np.count_nonzero(mask))
    for lo in range(0, values.size, _SELECT_BLOCK):  # ties, lowest index first
        if not missing:
            break
        ties = np.flatnonzero(values[lo : lo + _SELECT_BLOCK] == cut)[:missing]
        mask[lo + ties] = True
        missing -= ties.size
    return mask, cut


def _kth_smallest(values: np.ndarray, k: int) -> np.float64:
    """The ``k``-th smallest (from 0) of the flat ``values``, exactly.

    The sorted values of every ``values.size // _SAMPLE_KEYS``-th cell (of
    every cell, for a smaller input) bracket it: they give the two ends,
    ``width`` places either side of where rank ``k`` falls among them.
    One :func:`_bracket_pass` counts the values up to the low end and
    gathers the few strictly inside, and rank ``k`` picks its place among
    those.  Only a rank that falls on an end or outside the bracket needs
    that end's ties, counted in one more pass.  A sample can miss a cluster
    of values, so the rank may fall outside the bracket; then the bracket
    moves to that side, four times as wide, its near end at the old far end
    and its far end at most an infinity, and the pass runs again.
    """
    n = values.size
    sample = np.sort(values[:: max(1, n // _SAMPLE_KEYS)])
    s = sample.size
    width = 2 * math.isqrt(s)  # about four standard deviations of the rank
    lo_at, hi_at = k * s // n - width, k * s // n + width
    while True:
        lo = sample[lo_at] if lo_at >= 0 else np.float64(-np.inf)
        hi = sample[hi_at] if hi_at < s else np.float64(np.inf)
        upto_lo, inside = _bracket_pass(values, lo, hi)
        if 0 <= k - upto_lo < inside.size:
            inside.partition(k - upto_lo)
            return inside[k - upto_lo]
        upto_inside = upto_lo + inside.size
        del inside  # not held through the next pass
        if k < upto_lo:
            if k >= upto_lo - _count_equal(values, lo):
                return lo
        elif hi > lo and k < upto_inside + _count_equal(values, hi):
            return hi
        width *= 4
        if k < upto_lo:
            lo_at, hi_at = lo_at - width, lo_at
        else:
            lo_at, hi_at = hi_at, hi_at + width


def _bracket_pass(values: np.ndarray, lo: np.float64, hi: np.float64):
    """Read ``values`` a block at a time and return how many are at most
    ``lo`` and, in index order, those strictly between ``lo`` and ``hi``."""
    upto_lo = 0
    parts = []
    for start in range(0, values.size, _SELECT_BLOCK):
        block = values[start : start + _SELECT_BLOCK]
        keep = block > lo
        upto_lo += block.size - int(np.count_nonzero(keep))
        parts.append(block[np.logical_and(keep, block < hi, out=keep)])
    return upto_lo, np.concatenate(parts)


def _count_equal(values: np.ndarray, value: np.float64) -> int:
    """How many of ``values`` equal ``value``, read a block at a time."""
    return sum(
        int(np.count_nonzero(values[start : start + _SELECT_BLOCK] == value))
        for start in range(0, values.size, _SELECT_BLOCK)
    )
