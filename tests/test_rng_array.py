"""Bit-exactness tests for the vectorised PRNG / hashing primitives.

The kernel engine's whole contract rests on these: every lane of
:class:`~repro.utils.rng.MWCArray` must reproduce its scalar
:class:`~repro.utils.rng.MultiplyWithCarry` twin draw for draw, and the
vectorised SplitMix64 / parametric hash must match their scalar
counterparts on every input.  The block draws the kernel's linearised
streams consume must equal the on-demand masked draws row for row.
Any drift here silently corrupts a whole campaign's sample, so the
pins are long (10k draws) and cover the degenerate corners of the seed
space.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utils.hashing import ParametricHash, set_index_array
from repro.utils.rng import (
    MWC_MULTIPLIER,
    MWCArray,
    MultiplyWithCarry,
    SplitMix64,
    splitmix64_draw,
    splitmix64_mix,
)

#: Corners of the 64-bit seed space plus values that stress the seed
#: whitening: 0 (all-zero state input), 1, the 32-bit boundary, the
#: 64-bit ceiling, and the MWC multiplier itself.
EDGE_SEEDS = [0, 1, 2, 0xFFFFFFFF, 0x100000000, 2**64 - 1, MWC_MULTIPLIER, 42]


class TestSplitMix64Vectorised:
    def test_mix_matches_scalar_mixer(self):
        values = np.array(
            [0, 1, 0xFFFFFFFF, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15],
            dtype=np.uint64,
        )
        from repro.utils.hashing import _mix64

        for value in values:
            assert int(splitmix64_mix(np.array([value], dtype=np.uint64))[0]) == \
                _mix64(int(value))

    def test_draw_matches_sequential_stream(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        streams = [SplitMix64(int(seed)) for seed in seeds]
        for k in range(1, 51):
            expected = [stream.next_u64() for stream in streams]
            drawn = splitmix64_draw(seeds, k)
            assert [int(v) for v in drawn] == expected

    def test_draws_are_one_based(self):
        with pytest.raises(ConfigurationError):
            splitmix64_draw(np.array([1], dtype=np.uint64), 0)

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           k=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_any_draw_of_any_stream(self, seed, k):
        stream = SplitMix64(seed)
        for _ in range(k - 1):
            stream.next_u64()
        drawn = splitmix64_draw(np.array([seed], dtype=np.uint64), k)
        assert int(drawn[0]) == stream.next_u64()


class TestMWCArrayBitExact:
    def test_10k_draws_match_scalar_lanes(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        array = MWCArray(seeds)
        scalars = [MultiplyWithCarry(int(seed)) for seed in seeds]
        for _ in range(10_000):
            drawn = array.next_u32()
            assert [int(v) for v in drawn] == [rng.next_u32() for rng in scalars]
        x, c = array.state()
        assert [(int(a), int(b)) for a, b in zip(x, c)] == \
            [rng.state() for rng in scalars]

    def test_masked_draws_preserve_per_lane_history(self):
        # Lanes draw under rotating masks; each lane must still see
        # exactly its scalar twin's stream, in order.
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        lanes = len(EDGE_SEEDS)
        array = MWCArray(seeds)
        scalars = [MultiplyWithCarry(int(seed)) for seed in seeds]
        for round_index in range(300):
            mask = np.array(
                [(lane + round_index) % 3 != 0 for lane in range(lanes)], dtype=bool
            )
            drawn = array.next_u32(mask)
            for lane in range(lanes):
                if mask[lane]:
                    assert int(drawn[lane]) == scalars[lane].next_u32()
        x, c = array.state()
        assert [(int(a), int(b)) for a, b in zip(x, c)] == \
            [rng.state() for rng in scalars]

    @pytest.mark.parametrize("bound", [1, 2, 3, 7, 16, 37, 512, 100_000])
    def test_randrange_matches_scalar_rejection_sampling(self, bound):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        array = MWCArray(seeds)
        scalars = [MultiplyWithCarry(int(seed)) for seed in seeds]
        for _ in range(500):
            drawn = array.randrange(bound)
            assert [int(v) for v in drawn] == \
                [rng.randrange(bound) for rng in scalars]

    def test_masked_randrange_and_randint(self):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        lanes = len(EDGE_SEEDS)
        array = MWCArray(seeds)
        scalars = [MultiplyWithCarry(int(seed)) for seed in seeds]
        for round_index in range(200):
            mask = np.array(
                [(lane * 5 + round_index) % 4 != 1 for lane in range(lanes)],
                dtype=bool,
            )
            drawn = array.randint_inclusive(0, 500, mask)
            for lane in range(lanes):
                if mask[lane]:
                    assert int(drawn[lane]) == scalars[lane].randint_inclusive(0, 500)
        x, c = array.state()
        assert [(int(a), int(b)) for a, b in zip(x, c)] == \
            [rng.state() for rng in scalars]

    def test_nonzero_low_bound_offsets(self):
        array = MWCArray(np.array([9], dtype=np.uint64))
        scalar = MultiplyWithCarry(9)
        for _ in range(100):
            assert int(array.randint_inclusive(10, 20)[0]) == \
                scalar.randint_inclusive(10, 20)

    def test_degenerate_state_repair_matches_scalar(self):
        # The scalar constructor repairs (x=0, c=0) to (x=1, c=0); the
        # vectorised one must repair the same lanes the same way.  No
        # 64-bit seed is known to hit the fixed point, so exercise the
        # repair directly on the post-whitening state.
        seeds = np.array([0, 1], dtype=np.uint64)
        array = MWCArray(seeds)
        array._x[:] = np.uint64(0)
        array._c[:] = np.uint64(0)
        repaired = MWCArray.__new__(MWCArray)
        repaired._x = array._x.copy()
        repaired._c = array._c.copy()
        repaired._x[(repaired._x == 0) & (repaired._c == 0)] = np.uint64(1)
        assert list(repaired._x) == [1, 1]
        # And the repaired stream advances like scalar MWC from (1, 0).
        t = MWC_MULTIPLIER * 1 + 0
        assert int(
            MWCArray.next_u32(repaired)[0]
        ) == t & 0xFFFFFFFF

    def test_rejects_non_positive_bound(self):
        array = MWCArray(np.array([1], dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            array.randrange(0)
        with pytest.raises(ConfigurationError):
            array.randint_inclusive(5, 4)

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_any_seed_lane_matches_scalar(self, seed):
        array = MWCArray(np.array([seed], dtype=np.uint64))
        scalar = MultiplyWithCarry(seed)
        for _ in range(200):
            assert int(array.next_u32()[0]) == scalar.next_u32()


#: Block-draw bounds: powers of two (masked reduction, no rejection at
#: 2**32), small odd bounds, and 2**31 + 1, which rejects almost half
#: of all raw draws.
BLOCK_BOUNDS = [1, 2, 3, 16, 37, 2**31, 2**31 + 1, 2**32 - 1, 2**32]

block_seeds = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6
)


def _twins(seeds):
    lanes = np.array(seeds, dtype=np.uint64)
    return MWCArray(lanes), MWCArray(lanes), np.ones(len(seeds), dtype=bool)


def _same_state(a, b):
    (ax, ac), (bx, bc) = a.state(), b.state()
    return np.array_equal(ax, bx) and np.array_equal(ac, bc)


class TestBlockDraws:
    """``randrange_block`` / ``randrange_block_pair`` against masked draws."""

    @given(seeds=block_seeds, n=st.sampled_from(BLOCK_BOUNDS),
           rows=st.integers(min_value=0, max_value=24),
           int64_out=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_block_rows_equal_successive_masked_draws(self, seeds, n, rows,
                                                      int64_out):
        block_rng, twin, mask = _twins(seeds)
        out = (np.empty((rows, len(seeds)), dtype=np.int64)
               if int64_out else None)
        block = block_rng.randrange_block(n, rows, out=out)
        assert block.shape == (rows, len(seeds))
        if int64_out:
            assert block is out
        for row in range(rows):
            expected = twin.randrange(n, mask)
            assert [int(v) for v in block[row]] == [int(v) for v in expected]
        assert _same_state(block_rng, twin)

    @given(seeds=block_seeds, n1=st.sampled_from(BLOCK_BOUNDS),
           n2=st.sampled_from(BLOCK_BOUNDS),
           rows=st.integers(min_value=0, max_value=16),
           int64_out=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_pair_rows_equal_alternating_masked_draws(self, seeds, n1, n2,
                                                      rows, int64_out):
        block_rng, twin, mask = _twins(seeds)
        lanes = len(seeds)
        outs = {}
        if int64_out:
            outs = {
                "out_first": np.empty((rows, lanes), dtype=np.int64),
                "out_second": np.empty((rows, lanes), dtype=np.int64),
            }
        first, second = block_rng.randrange_block_pair(n1, n2, rows, **outs)
        if int64_out:
            assert first is outs["out_first"]
            assert second is outs["out_second"]
        for row in range(rows):
            expected_first = twin.randrange(n1, mask)
            expected_second = twin.randrange(n2, mask)
            assert [int(v) for v in first[row]] == \
                [int(v) for v in expected_first]
            assert [int(v) for v in second[row]] == \
                [int(v) for v in expected_second]
        assert _same_state(block_rng, twin)

    def test_zero_rows_draw_nothing(self):
        block_rng, twin, _mask = _twins(EDGE_SEEDS)
        assert block_rng.randrange_block(7, 0).shape == (0, len(EDGE_SEEDS))
        first, second = block_rng.randrange_block_pair(7, 3, 0)
        assert first.shape == second.shape == (0, len(EDGE_SEEDS))
        assert _same_state(block_rng, twin)

    def test_rejects_bad_parameters(self):
        array = MWCArray(np.array([1], dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            array.randrange_block(0, 4)
        with pytest.raises(ConfigurationError):
            array.randrange_block(4, -1)
        with pytest.raises(ConfigurationError):
            array.randrange_block_pair(4, 0, 4)
        with pytest.raises(ConfigurationError):
            array.randrange_block_pair(4, 4, -1)


class TestSetIndexArray:
    @pytest.mark.parametrize("num_sets", [1, 2, 37, 512, 2**31])
    def test_matches_scalar_hash(self, num_sets):
        hasher = ParametricHash(num_sets)
        lines = np.array([0, 1, 0x1000, 2**40, 2**63 - 1], dtype=np.uint64)
        riis = np.array([0, 1, 12345, 2**32 - 1], dtype=np.uint64)
        matrix = set_index_array(lines[:, None], riis[None, :], num_sets)
        for i, line in enumerate(lines):
            for j, rii in enumerate(riis):
                assert int(matrix[i, j]) == hasher.set_index(int(line), int(rii))

    def test_rejects_out_of_range_num_sets(self):
        with pytest.raises(ConfigurationError):
            set_index_array([1], [1], 0)
        with pytest.raises(ConfigurationError):
            set_index_array([1], [1], 2**31 + 1)

    @given(line=st.integers(min_value=0, max_value=2**64 - 1),
           rii=st.integers(min_value=0, max_value=2**32 - 1),
           num_sets=st.integers(min_value=1, max_value=2**31))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_scalar(self, line, rii, num_sets):
        expected = ParametricHash(num_sets).set_index(line, rii)
        assert int(set_index_array([line], [rii], num_sets)[0]) == expected

    def test_placement_objects_delegate(self):
        from repro.mem.placement import ModuloPlacement, RandomPlacement

        modulo = ModuloPlacement(64)
        lines = np.arange(0, 500, 7)
        assert [int(v) for v in modulo.set_index_array(lines)] == \
            [modulo.set_index(int(line)) for line in lines]
        random = RandomPlacement(64, rii=99)
        assert [int(v) for v in random.set_index_array(lines)] == \
            [random.set_index(int(line)) for line in lines]
