"""Exact order-statistic selection of cells by score.

Selection is the discrete counterpart of picking a superlevel set whose
volume matches a prescribed target: take the ``target`` best cells, with
the cut value reported as the threshold.  Ties at the cut are resolved by
ascending row-major cell index, which makes the result deterministic and
the cell count exact no matter how degenerate the scores are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PhaseField, RealField, _smallest_cells


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection: threshold, mask, and the requested count.

    ``threshold`` is None when zero cells were requested (empty selection,
    infinite cut).  Otherwise it equals the score of the last cell in:
    the target-th largest score for top selection, target-th smallest for
    bottom selection.
    """

    threshold: float | None
    mask: PhaseField
    target_cells: int


def _normalize(scores: RealField) -> np.ndarray:
    # adding 0.0 turns any -0.0 into +0.0 and changes nothing else,
    # so equal-valued cells compare equal regardless of zero sign
    return scores.values.ravel() + 0.0


def _selection(
    scores: RealField, target_cells: int, flat: np.ndarray, descending: bool
) -> SelectionResult:
    grid = scores.grid
    total = flat.size
    if not 0 <= target_cells <= total:
        raise ValueError(f"target_cells {target_cells} outside [0, {total}]")
    if target_cells == 0:
        empty = PhaseField(grid, np.zeros(grid.shape, dtype=bool))
        return SelectionResult(None, empty, 0)
    mask, cut = _smallest_cells(-flat if descending else flat, target_cells)
    threshold = float(-cut) if descending else float(cut)
    return SelectionResult(threshold, PhaseField(grid, mask.reshape(grid.shape)), target_cells)


def select_top_cells(scores: RealField, target_cells: int) -> SelectionResult:
    """Select exactly ``target_cells`` cells with the largest scores.

    All cells scoring strictly above the threshold are taken; the remainder
    is filled from the cells scoring exactly the threshold in ascending
    row-major index order.
    """
    return _selection(scores, target_cells, _normalize(scores), descending=True)


def select_bottom_cells(scores: RealField, target_cells: int) -> SelectionResult:
    """Select exactly ``target_cells`` cells with the smallest scores.

    Mirror image of :func:`select_top_cells`; for tie-free scores it picks
    the same cells as top selection on the negated field.
    """
    return _selection(scores, target_cells, _normalize(scores), descending=False)
