"""Exact order-statistic selection of cells by score.

Selection is the discrete counterpart of picking a superlevel set whose
volume matches a prescribed target: take the ``target`` best cells, with
the cut value reported as the threshold.  Ties at the cut are resolved by
ascending row-major cell index, which makes the result deterministic and
the cell count exact no matter how degenerate the scores are.

The cut is an exact order statistic found without a copy of the scores: a
strided sample of about 2^12 of them brackets it, and one pass over blocks
of 2^13 cells counts the scores up to each end of the bracket and gathers
the few inside it (another pass runs only if the sample missed a cluster).
A selection holds the mask it returns and a small fraction of a field of
scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PhaseField, RealField, _select_cells


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection: threshold and mask.

    ``threshold`` is None when zero cells were requested (empty selection,
    infinite cut).  Otherwise it equals the score of the last cell in:
    the target-th largest score for top selection, target-th smallest for
    bottom selection.  ``mask`` is a phase field for a field of scores and
    a boolean array over the scores of a 1-D array.
    """

    threshold: float | None
    mask: PhaseField | np.ndarray


def _selection(
    scores: RealField | np.ndarray, target_cells: int, top: bool
) -> SelectionResult:
    field = isinstance(scores, RealField)
    flat = scores.values.ravel() if field else scores
    if not 0 <= target_cells <= flat.size:
        raise ValueError(f"target_cells {target_cells} outside [0, {flat.size}]")
    if target_cells == 0:
        mask, cut = np.zeros(flat.size, dtype=bool), None
    else:
        mask, cut = _select_cells(flat, target_cells, top=top)
        cut = float(cut)
    if field:
        mask = PhaseField(scores.grid, mask.reshape(scores.grid.shape))
    return SelectionResult(cut, mask)


def select_top_cells(scores: RealField, target_cells: int) -> SelectionResult:
    """Select exactly ``target_cells`` cells with the largest scores.

    All cells scoring strictly above the threshold are taken; the remainder
    is filled from the cells scoring exactly the threshold in ascending
    row-major index order.
    """
    return _selection(scores, target_cells, top=True)


def select_bottom_cells(
    scores: RealField | np.ndarray, target_cells: int
) -> SelectionResult:
    """Select exactly ``target_cells`` cells with the smallest scores.

    Mirror image of :func:`select_top_cells`; for tie-free scores it picks
    the same cells as top selection on the negated field.  ``scores`` may
    also be a 1-D float64 array, the scores of some cells in ascending
    index order (as a grain-growth step passes the cells it could not
    certify); ties then go to the earlier entries.
    """
    return _selection(scores, target_cells, top=False)
