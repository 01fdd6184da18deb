"""Segment-primitive unit and property tests."""

import numpy as np
from hypothesis import given, strategies as st

from tests import build_reference as ref

from repro.util.segments import (
    lengths_to_offsets,
    offsets_to_lengths,
    repeat_offsets,
    run_starts,
    segment_histogram,
    segment_local_index,
    segment_max,
    segment_sum,
    stable_key_order,
)

lengths_strategy = st.lists(st.integers(min_value=0, max_value=20), max_size=50)


class TestOffsets:
    def test_empty(self):
        offsets = lengths_to_offsets(np.array([], dtype=np.int64))
        assert offsets.tolist() == [0]

    def test_basic(self):
        offsets = lengths_to_offsets(np.array([2, 0, 3]))
        assert offsets.tolist() == [0, 2, 2, 5]

    @given(lengths_strategy)
    def test_roundtrip(self, lengths):
        arr = np.array(lengths, dtype=np.int64)
        np.testing.assert_array_equal(offsets_to_lengths(lengths_to_offsets(arr)), arr)


class TestRepeatOffsets:
    def test_basic(self):
        offsets = np.array([0, 2, 2, 5])
        assert repeat_offsets(offsets).tolist() == [0, 0, 2, 2, 2]

    @given(lengths_strategy)
    def test_matches_naive(self, lengths):
        arr = np.array(lengths, dtype=np.int64)
        offsets = lengths_to_offsets(arr)
        naive = [i for i, n in enumerate(lengths) for _ in range(n)]
        assert repeat_offsets(offsets).tolist() == naive


class TestSegmentLocalIndex:
    def test_basic(self):
        offsets = np.array([0, 3, 3, 5])
        assert segment_local_index(offsets).tolist() == [0, 1, 2, 0, 1]

    @given(lengths_strategy)
    def test_matches_naive(self, lengths):
        offsets = lengths_to_offsets(np.array(lengths, dtype=np.int64))
        naive = [j for n in lengths for j in range(n)]
        assert segment_local_index(offsets).tolist() == naive


class TestSegmentReductions:
    def test_sum(self):
        out = segment_sum(np.array([1.0, 2.0, 4.0]), np.array([0, 0, 2]), 3)
        assert out.tolist() == [3.0, 0.0, 4.0]

    def test_max_with_initial(self):
        out = segment_max(np.array([5, 1]), np.array([1, 1]), 3, initial=-1)
        assert out.tolist() == [-1, 5, -1]

    @given(st.lists(st.tuples(st.integers(0, 9), st.floats(-10, 10)), max_size=60))
    def test_sum_matches_naive(self, pairs):
        seg = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs])
        got = segment_sum(vals, seg, 10)
        want = np.zeros(10)
        for s, v in pairs:
            want[s] += v
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestSinglePassCounts:
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 15)), max_size=80))
    def test_histogram_matches_add_at(self, pairs):
        seg = np.array(sorted(p[0] for p in pairs), dtype=np.int64)
        local = np.array([p[1] for p in pairs], dtype=np.uint8)
        ref.assert_same(segment_histogram(seg, local, 11, 16), ref.segment_histogram(seg, local, 11, 16))

    @given(st.lists(st.integers(-5, 5), max_size=60))
    def test_run_starts_of_sorted_keys_match_unique(self, keys):
        keys = np.sort(np.array(keys, dtype=np.int64))
        ref.assert_same(run_starts(keys), np.unique(keys, return_index=True)[1])


class TestStableKeyOrder:
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=200))
    def test_matches_stable_argsort(self, keys):
        keys = np.array(keys, dtype=np.int64)
        want = np.argsort(keys, kind="stable")
        ref.assert_same(stable_key_order(keys, 41), want)

    def test_keys_too_wide_to_pack_fall_back(self):
        keys = np.array([5, 2**40, 5, 0, 2**40], dtype=np.int64)
        ref.assert_same(stable_key_order(keys, 2**60), np.argsort(keys, kind="stable"))
