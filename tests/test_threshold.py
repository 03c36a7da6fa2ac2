import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mbokit.grid import Grid
from mbokit.threshold import (
    _kth_smallest,
    _select_cells,
    select_bottom_cells,
    select_top_cells,
)


def _field(grid: Grid, flat_values) -> np.ndarray:
    """Flat float64 scores, one per cell of ``grid``."""
    return np.asarray(flat_values, dtype=np.float64).reshape(grid.total_cells)


@pytest.fixture(scope="module")
def grid3():
    # smallest legal grid is n=8; tiny hand-checked examples use a helper
    return Grid(dim=2, n=8)


def tiny(values):
    """Flat scores of an 8x8 grid: given values first, deep-negative padding
    after."""
    g = Grid(dim=2, n=8)
    flat = np.full(g.total_cells, -1e300)
    flat[: len(values)] = values
    # padding never wins a top selection with small targets
    return g, flat


class TestTopSelection:
    def test_frozen_example(self):
        g, scores = tiny([0.9, 0.7, 0.3])
        mask, cut = select_top_cells(scores, 2)
        picked = np.flatnonzero(mask)
        assert picked.tolist() == [0, 1]
        assert cut == 0.7

    def test_tie_at_cut_lowest_flat_index(self):
        g, scores = tiny([0.5, 0.5, 0.1])
        mask, cut = select_top_cells(scores, 1)
        picked = np.flatnonzero(mask)
        assert picked.tolist() == [0]
        assert cut == 0.5

    def test_all_equal_takes_first_block(self):
        g = Grid(dim=2, n=8)
        scores = _field(g, np.zeros(g.total_cells))
        mask, _ = select_top_cells(scores, 10)
        picked = np.flatnonzero(mask)
        assert picked.tolist() == list(range(10))

    def test_target_all(self):
        g = Grid(dim=2, n=8)
        scores = _field(g, np.arange(g.total_cells, dtype=float))
        mask, cut = select_top_cells(scores, g.total_cells)
        assert np.count_nonzero(mask) == g.total_cells
        assert cut == 0.0

    def test_target_out_of_range(self):
        g, scores = tiny([1.0])
        for select in (select_top_cells, select_bottom_cells):
            # a selection takes at least one cell
            for target in (0, -1, g.total_cells + 1):
                with pytest.raises(ValueError, match=r"outside \[1, 64\]"):
                    select(scores, target)

    def test_negative_zero_and_zero_tie_deterministic(self):
        g = Grid(dim=2, n=8)
        flat = np.full(g.total_cells, -1.0)
        flat[5] = -0.0
        flat[3] = 0.0
        scores = _field(g, flat)
        mask, _ = select_top_cells(scores, 1)
        # -0.0 == 0.0: the tie must resolve by flat index, not sign bit
        assert np.flatnonzero(mask).tolist() == [3]


class TestBottomSelection:
    def test_mirrors_top_on_negated_scores(self, rng):
        g = Grid(dim=2, n=16)
        scores = rng.standard_normal(g.total_cells)
        for target in (1, 7, 100, g.total_cells):
            bot, bot_cut = select_bottom_cells(scores, target)
            top, top_cut = select_top_cells(-scores, target)
            assert (bot == top).all()
            assert bot_cut == -top_cut

    def test_frozen_example(self):
        g, scores = tiny([0.9, 0.7, 0.3])
        # -inf padding is picked first by a bottom selection
        mask, cut = select_bottom_cells(scores, 62)
        kept_out = np.flatnonzero(~mask)
        assert kept_out.tolist() == [0, 1]
        assert cut == 0.3


def signed_zero_scores(zeros):
    """Scores on a 16x16 grid quantised to halves, so that every value recurs
    many times, with about a fifth of the cells zero; ``zeros`` picks the sign
    of those zeros: "mixed", "negative" or "positive"."""
    g = Grid(dim=2, n=16)
    noise = np.random.default_rng(8).standard_normal(g.total_cells)
    values = np.round(2.0 * noise) / 2.0
    values[::3] *= -1.0
    zero = values == 0.0
    if zeros != "mixed":
        values[zero] = -0.0 if zeros == "negative" else 0.0
    signs = np.signbit(values[zero])
    assert zero.sum() > 30 and signs.any() == (zeros != "positive")
    assert (~signs).any() == (zeros != "negative")
    return g, values


SELECT = {"top": select_top_cells, "bottom": select_bottom_cells}


class TestSelectionEdgeCases:
    """Signed zeros and long runs of exact ties at the cut."""

    @pytest.mark.parametrize("zeros", ["mixed", "negative", "positive"])
    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_mask_equals_stable_argsort_of_normalised_key(self, side, zeros):
        g, values = signed_zero_scores(zeros)
        key = values + 0.0
        order = np.argsort(-key if side == "top" else key, kind="stable")
        for target in (1, 17, 100, 128, 200, 255, 256):
            mask, cut = SELECT[side](_field(g, values), target)
            expected = np.zeros(g.total_cells, dtype=bool)
            expected[order[:target]] = True
            assert np.array_equal(mask, expected)
            assert cut == values[order[target - 1]]

    @pytest.mark.parametrize("zeros", ["mixed", "negative", "positive"])
    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_zero_cut_gives_positive_zero_threshold(self, side, zeros):
        g, values = signed_zero_scores(zeros)
        beyond = int(np.count_nonzero(values > 0 if side == "top" else values < 0))
        run = int(np.count_nonzero(values == 0.0))
        for target in (beyond + 1, beyond + run // 2, beyond + run):
            _, lam = SELECT[side](_field(g, values), target)
            assert lam == 0.0 and math.copysign(1.0, lam) == 1.0


@st.composite
def scores_and_target(draw):
    values = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=64,
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=64
            ),
        )
    )
    target = draw(st.integers(min_value=1, max_value=64))
    return values, target


class TestSelectionProperties:
    @given(scores_and_target())
    @settings(max_examples=200, deadline=None)
    def test_exact_count_and_order(self, case):
        values, target = case
        g = Grid(dim=2, n=8)
        mask, cut = select_top_cells(_field(g, values), target)
        assert int(mask.sum()) == target
        if target < 64:
            worst_in = values[mask].min()
            best_out = values[~mask].max()
            assert worst_in >= best_out
            assert cut == worst_in

    @given(scores_and_target())
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, case):
        values, target = case
        g = Grid(dim=2, n=8)
        a, _ = select_top_cells(_field(g, values), target)
        b, _ = select_top_cells(_field(g, values), target)
        assert (a == b).all()

    @given(scores_and_target())
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_target(self, case):
        values, target = case
        if target == 64:
            return
        g = Grid(dim=2, n=8)
        small, _ = select_top_cells(_field(g, values), target)
        big, _ = select_top_cells(_field(g, values), target + 1)
        assert (big | ~small).all()


def stable_selection(values, target, side):
    """Mask and cut of ``target`` cells by a stable argsort of the normalised
    keys, the rule both selections promise."""
    key = values + 0.0
    order = np.argsort(-key if side == "top" else key, kind="stable")
    expected = np.zeros(values.size, dtype=bool)
    expected[order[:target]] = True
    return expected, key[order[target - 1]]


@pytest.mark.parametrize("n", [1, 2, 7, 100, 2200, 4095, 4096, 8191, 8192, 12288])
def test_selection_at_every_size(n):
    # one path for every size: the cut is the partition's order statistic
    # and the mask a stable argsort's, on halves with signed zeros and
    # infinities among them
    rng = np.random.default_rng(n)
    values = rng.integers(-3, 4, n) * 0.5
    values[rng.random(n) < 0.5] *= -1.0  # about half the zeros are -0.0
    values[rng.random(n) < 0.1] = -np.inf
    values[rng.random(n) < 0.1] = np.inf
    for k in range(n) if n <= 7 else (0, n // 3, n - 1):
        assert _kth_smallest(values, k) + 0.0 == np.partition(values, k)[k] + 0.0
        for side in ("top", "bottom"):
            mask, cut = _select_cells(values, k + 1, side == "top")
            expected, expected_cut = stable_selection(values, k + 1, side)
            assert np.array_equal(mask, expected), (k, side)
            assert cut == expected_cut


@pytest.fixture
def bracket_passes(monkeypatch):
    """Record the brackets of every pass the exact selection makes."""
    import mbokit.threshold as threshold_module

    calls = []
    real = threshold_module._bracket_pass

    def spy(values, lo, hi):
        calls.append((lo, hi))
        return real(values, lo, hi)

    monkeypatch.setattr(threshold_module, "_bracket_pass", spy)
    return calls


class TestBracketedSelection:
    """Inputs of 2^13 cells and more are bracketed from a sample and read in
    blocks; the mask and the cut must still be those of a stable argsort."""

    def check(self, grid, values, targets, side):
        for target in targets:
            mask, cut = SELECT[side](_field(grid, values), target)
            expected, expected_cut = stable_selection(values, target, side)
            assert np.array_equal(mask, expected), target
            assert cut == expected_cut
            assert math.copysign(1.0, cut) == math.copysign(1.0, expected_cut)

    @pytest.mark.parametrize("side", ["top", "bottom"])
    @pytest.mark.parametrize("grid", [Grid(2, 96), Grid(3, 24)], ids=["96^2", "24^3"])
    def test_clamped_plateaus_at_the_cut(self, grid, side):
        # a third of the cells exactly 0.0 and a third exactly 1.0
        noise = np.random.default_rng(21).standard_normal(grid.total_cells)
        values = np.clip(0.5 + 1.2 * noise, 0.0, 1.0)
        n = grid.total_cells
        near, far = (1.0, 0.0) if side == "top" else (0.0, 1.0)
        first, last = int((values == near).sum()), int((values == far).sum())
        assert min(first, last) > n // 4
        targets = [1, first // 2, first, first + 1, n - last, n - last // 2, n]
        self.check(grid, values, targets, side)

    @pytest.mark.parametrize("side", ["top", "bottom"])
    @pytest.mark.parametrize("value", [0.0, -0.0, 0.75])
    def test_all_values_equal(self, side, value, bracket_passes):
        g = Grid(2, 128)
        values = np.full(g.total_cells, value)
        self.check(g, values, [1, 2, g.total_cells // 2, g.total_cells], side)
        assert len(bracket_passes) == 4  # the rank sits on both ends at once

    @pytest.mark.parametrize("zeros", ["mixed", "negative", "positive"])
    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_signed_zeros(self, side, zeros):
        g = Grid(2, 128)
        noise = np.random.default_rng(9).standard_normal(g.total_cells)
        values = np.round(2.0 * noise) / 2.0
        values[::3] *= -1.0
        zero = values == 0.0
        if zeros != "mixed":
            values[zero] = -0.0 if zeros == "negative" else 0.0
        below = int((values < 0).sum()) if side == "bottom" else int((values > 0).sum())
        run = int(zero.sum())
        targets = [1, below, below + 1, below + run // 2, below + run, g.total_cells]
        self.check(g, values, targets, side)

    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_sampled_field_takes_one_pass(self, side, bracket_passes):
        g = Grid(3, 32)
        values = np.random.default_rng(2).standard_normal(g.total_cells)
        self.check(g, values, [g.total_cells // 3], side)
        assert len(bracket_passes) == 1

    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_cluster_the_sample_misses_takes_another_pass(self, side, bracket_passes):
        # 5 % of the cells, none of them sampled, in a narrow band of values
        # below (for top) or above the rest: the rank falls outside the
        # bracket the sample gives
        g = Grid(2, 128)
        n = g.total_cells
        rng = np.random.default_rng(13)
        values = rng.random(n)
        unsampled = np.flatnonzero(np.arange(n) % (n // 4096))
        cluster = rng.choice(unsampled, n // 20, replace=False)
        band = 1e-9 * rng.random(cluster.size)
        values[cluster] = -0.5 - band if side == "top" else 1.5 + band
        self.check(g, values, [n // 2, n - n // 20 - 3, n - n // 20 + 5], side)
        assert len(bracket_passes) > 3
        first_lo, first_hi = bracket_passes[0]
        assert np.isfinite([first_lo, first_hi]).all()
