"""Deterministic reductions: tree schedule shape and tree reduction."""

import numpy as np
import pytest

from repro.dist import tree_reduce, tree_schedule


class TestTreeSchedule:
    @pytest.mark.parametrize("parts,rounds", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (16, 4),
    ])
    def test_round_count_is_ceil_log2(self, parts, rounds):
        assert len(tree_schedule(parts)) == rounds

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5, 7, 8, 13, 16])
    def test_every_rank_folds_into_zero_exactly_once(self, parts):
        folded = []
        for pairs in tree_schedule(parts):
            for dst, src in pairs:
                assert dst < src  # recursive halving folds upward ranks down
                folded.append(src)
        # Every rank except 0 is consumed exactly once; 0 survives as root.
        assert sorted(folded) == list(range(1, parts))

    def test_schedule_is_pure_function_of_count(self):
        assert tree_schedule(8) == tree_schedule(8)
        assert tree_schedule(4) == [[(0, 1), (2, 3)], [(0, 2)]]

    def test_src_not_reused_after_fold(self):
        # Once folded, a rank never appears as a dst in a later round.
        consumed = set()
        for pairs in tree_schedule(16):
            for dst, src in pairs:
                assert dst not in consumed and src not in consumed
            consumed.update(src for _, src in pairs)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            tree_schedule(0)


class TestTreeReduce:
    def test_matches_exact_sum_on_integers(self):
        parts = [np.full(5, float(i + 1)) for i in range(8)]
        np.testing.assert_array_equal(tree_reduce(parts), np.full(5, 36.0))

    def test_deterministic_under_adversarial_magnitudes(self):
        # Mixed magnitudes where summation order changes the rounded
        # result: the tree must still give the same bits every time.
        rng = np.random.default_rng(7)
        parts = [
            rng.standard_normal(64) * mag
            for mag in (1e-12, 1.0, 1e12, -1e12, 1e-6, -1.0, 1e6, 3.0)
        ]
        first = tree_reduce(parts)
        for _ in range(5):
            assert np.array_equal(tree_reduce(parts), first)
        # Sanity: order genuinely matters for these inputs, so the bits
        # the tree pins are not vacuously unique.
        naive = np.zeros(64)
        for p in parts:
            naive = naive + p
        reversed_sum = np.zeros(64)
        for p in reversed(parts):
            reversed_sum = reversed_sum + p
        assert not np.array_equal(naive, reversed_sum)

    def test_single_partial_is_identity(self):
        v = np.arange(6, dtype=np.float64)
        out = tree_reduce([v])
        np.testing.assert_array_equal(out, v)
        out[0] = -1.0  # must be a copy, not a view of the input
        assert v[0] == 0.0

    def test_does_not_mutate_inputs(self):
        parts = [np.ones(4), np.full(4, 2.0)]
        tree_reduce(parts)
        np.testing.assert_array_equal(parts[0], np.ones(4))

    def test_2d_partials(self):
        parts = [np.full((3, 2), float(i)) for i in range(4)]
        np.testing.assert_array_equal(tree_reduce(parts), np.full((3, 2), 6.0))

    def test_shape_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_reduce([])
        with pytest.raises(ValueError):
            tree_reduce([np.ones(3), np.ones(4)])

