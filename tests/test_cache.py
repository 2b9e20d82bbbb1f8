"""Tests for the set-associative cache model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.mem.cache import _CLEAN_VICTIM, HIT, MISS, Cache, CacheGeometry, Eviction
from repro.mem.placement import ModuloPlacement, RandomPlacement
from repro.mem.replacement import EvictOnMissRandom, LRUReplacement
from repro.sim.reference import _reference_access
from repro.utils.rng import MultiplyWithCarry


def make_cache(
    size=256,
    line=16,
    ways=4,
    placement_kind="modulo",
    replacement_kind="eom",
    seed=1,
    write_back=True,
    rii=0,
):
    geometry = CacheGeometry(size_bytes=size, line_size=line, ways=ways)
    if placement_kind == "modulo":
        placement = ModuloPlacement(geometry.num_sets)
    else:
        placement = RandomPlacement(geometry.num_sets, rii=rii)
    if replacement_kind == "eom":
        replacement = EvictOnMissRandom(MultiplyWithCarry(seed))
    else:
        replacement = LRUReplacement()
    return Cache(geometry, placement, replacement, name="test", write_back=write_back)


class TestGeometry:
    def test_paper_llc(self):
        g = CacheGeometry(size_bytes=65536, line_size=16, ways=8)
        assert g.num_sets == 512
        assert g.num_lines == 4096

    def test_paper_l1(self):
        g = CacheGeometry(size_bytes=4096, line_size=16, ways=4)
        assert g.num_sets == 64

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=3000, line_size=16, ways=4)

    def test_rejects_too_small(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(size_bytes=32, line_size=16, ways=4)

    def test_mismatched_placement_rejected(self):
        geometry = CacheGeometry(size_bytes=256, line_size=16, ways=4)
        with pytest.raises(ConfigurationError):
            Cache(geometry, ModuloPlacement(99), LRUReplacement())


class TestBasicBehaviour:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(5).hit is False
        assert cache.access(5).hit is True

    def test_probe_has_no_side_effects(self):
        cache = make_cache()
        assert cache.probe(5) is False
        assert cache.stats.accesses == 0
        cache.access(5)
        assert cache.probe(5) is True
        assert cache.stats.accesses == 1

    def test_occupancy_grows_to_capacity(self):
        cache = make_cache(size=256, ways=4)  # 16 lines
        for line in range(100):
            cache.access(line)
        assert cache.occupancy() == 16

    def test_eviction_reported(self):
        # Direct-mapped single set: second distinct line evicts first.
        cache = make_cache(size=16, ways=1)
        cache.access(0)
        result = cache.access(1)  # same set (1 set only)
        assert result.hit is False
        assert result.eviction == Eviction(line=0, dirty=False)

    def test_dirty_eviction_after_store(self):
        cache = make_cache(size=16, ways=1)
        cache.access(0, write=True)
        result = cache.access(1)
        assert result.eviction.dirty is True
        assert cache.stats.writebacks == 1

    def test_write_through_never_dirty(self):
        cache = make_cache(size=16, ways=1, write_back=False)
        cache.access(0, write=True)
        result = cache.access(1)
        assert result.eviction.dirty is False

    def test_stats_counting(self):
        cache = make_cache()
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3
        assert cache.stats.miss_ratio == pytest.approx(2 / 3)

    def test_invalidate(self):
        cache = make_cache()
        cache.access(7, write=True)
        eviction = cache.invalidate(7)
        assert eviction.dirty is True
        assert cache.probe(7) is False
        assert cache.invalidate(7) is None

    def test_flush_returns_dirty_lines(self):
        cache = make_cache(size=256, ways=4)
        cache.access(1, write=True)
        cache.access(2)
        cache.access(3, write=True)
        written = cache.flush()
        assert {e.line for e in written} == {1, 3}
        assert cache.occupancy() == 0


class TestEoMSemantics:
    def test_hits_do_not_change_state(self):
        """The paper's key property: EoM hits leave the cache unchanged."""
        cache = make_cache(placement_kind="random", replacement_kind="eom")
        for line in range(10):
            cache.access(line)
        before = cache.resident_lines()
        for line in list(before):
            cache.access(line)
        assert cache.resident_lines() == before

    def test_random_victims_vary(self):
        """With EoM, the same overflow scenario evicts different ways."""
        victims = set()
        for seed in range(20):
            cache = make_cache(size=64, ways=4, seed=seed)  # 1 set
            for line in range(4):
                cache.access(line)
            result = cache.access(99)
            # EoM may draw a way that a cold self-eviction left invalid;
            # only filled victims carry a line.
            if result.eviction is not None:
                victims.add(result.eviction.line)
        assert len(victims) > 1

    def test_miss_can_fill_invalid_way_without_eviction(self):
        """EoM draws over all ways: a miss whose victim draw lands on an
        invalid frame evicts nothing (and Equation 1 still counts it as
        an eviction opportunity)."""
        results = []
        for seed in range(50):
            cache = make_cache(size=64, ways=4, seed=seed)  # 1 set, empty
            cache.access(1)
            results.append(cache.access(2).eviction)
        # From a nearly-empty set most victim draws hit invalid ways...
        assert sum(1 for e in results if e is None) > 25
        # ...but sometimes the draw lands on the one valid line.
        assert sum(1 for e in results if e is not None) > 0


class TestLRUSemantics:
    def test_lru_victim_order(self):
        cache = make_cache(size=64, ways=4, replacement_kind="lru")  # 1 set
        for line in range(4):
            cache.access(line)
        cache.access(0)  # refresh 0
        result = cache.access(99)
        assert result.eviction.line == 1  # 1 is now LRU


class TestForcedEvictions:
    def test_forced_eviction_invalidates(self):
        cache = make_cache(size=16, ways=1)
        cache.access(3)
        eviction = cache.force_eviction(cache.set_of(3))
        assert eviction.line == 3
        assert cache.probe(3) is False
        assert cache.stats.forced_evictions == 1

    def test_forced_eviction_on_empty_way(self):
        cache = make_cache(size=16, ways=1)
        eviction = cache.force_eviction(0)
        assert eviction.line is None
        assert cache.stats.forced_evictions == 1
        assert cache.stats.evictions == 0

    def test_forced_eviction_writes_back_dirty(self):
        cache = make_cache(size=16, ways=1)
        cache.access(3, write=True)
        eviction = cache.force_eviction(cache.set_of(3))
        assert eviction.dirty is True
        assert cache.stats.writebacks == 1

    def test_out_of_range_set_rejected(self):
        cache = make_cache()
        with pytest.raises(SimulationError):
            cache.force_eviction(9999)


class TestRII:
    def test_new_rii_flushes(self):
        cache = make_cache(placement_kind="random")
        cache.access(1, write=True)
        written = cache.new_rii(42)
        assert [e.line for e in written] == [1]
        assert cache.occupancy() == 0
        assert cache.placement.rii == 42

    def test_new_rii_on_modulo_rejected(self):
        cache = make_cache(placement_kind="modulo")
        with pytest.raises(ConfigurationError):
            cache.new_rii(1)

    def test_rii_changes_set_mapping(self):
        cache_a = make_cache(size=1024, placement_kind="random", rii=1)
        cache_b = make_cache(size=1024, placement_kind="random", rii=2)
        moved = sum(
            1 for line in range(100) if cache_a.set_of(line) != cache_b.set_of(line)
        )
        assert moved > 80


class TestWaySubsets:
    def test_access_confined_to_ways(self):
        cache = make_cache(size=64, ways=4)  # 1 set
        cache.access(1, ways=(0, 1))
        cache.access(2, ways=(0, 1))
        cache.access(3, ways=(0, 1))  # must evict within {0,1}
        assert cache.occupancy() == 2

    def test_probe_respects_ways(self):
        cache = make_cache(size=64, ways=4)
        cache.access(1, ways=(0,))
        assert cache.probe(1, ways=(0,)) is True
        assert cache.probe(1, ways=(1, 2, 3)) is False


class TestPropertyBased:
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40)
    def test_occupancy_never_exceeds_capacity(self, lines, seed):
        cache = make_cache(size=256, ways=4, placement_kind="random", seed=seed)
        for line in lines:
            cache.access(line)
        assert cache.occupancy() <= cache.geometry.num_lines
        assert cache.occupancy() <= len(set(lines))

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=100),
    )
    @settings(max_examples=40)
    def test_last_access_always_resident(self, lines):
        cache = make_cache(size=256, ways=4, placement_kind="random")
        for line in lines:
            cache.access(line)
        assert cache.probe(lines[-1]) is True

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200),
    )
    @settings(max_examples=40)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = make_cache(size=128, ways=2, placement_kind="random")
        for line in lines:
            cache.access(line)
        assert cache.stats.hits + cache.stats.misses == len(lines)

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40)
    def test_resident_lines_subset_of_accessed(self, lines, seed):
        cache = make_cache(size=128, ways=2, placement_kind="random", seed=seed)
        for line in lines:
            cache.access(line)
        assert cache.resident_lines() <= set(lines)


class TestStatsConservation:
    """The accounting invariant: every removal path agrees.

    ``evictions`` must equal the number of *valid* lines displaced and
    ``writebacks`` the number of *dirty* lines displaced, no matter
    whether lines left via ``access`` (replacement), ``force_eviction``
    (CRG force-miss), ``invalidate`` or ``flush`` (full or per-way).
    """

    def _fill(self, cache, n, dirty_every=2):
        """Fill ``n`` distinct lines, marking every ``dirty_every``-th dirty."""
        for line in range(n):
            cache.access(line, write=(line % dirty_every == 0))

    def test_invalidate_counts_eviction(self):
        cache = make_cache()
        cache.access(7, write=True)
        before = cache.stats.evictions
        eviction = cache.invalidate(7)
        assert eviction == Eviction(line=7, dirty=True)
        assert cache.stats.evictions == before + 1
        assert cache.stats.writebacks == 1

    def test_invalidate_clean_line_counts_eviction_not_writeback(self):
        cache = make_cache()
        cache.access(7)
        eviction = cache.invalidate(7)
        assert eviction == Eviction(line=7, dirty=False)
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 0

    def test_invalidate_missing_line_counts_nothing(self):
        cache = make_cache()
        assert cache.invalidate(99) is None
        assert cache.stats.evictions == 0
        assert cache.stats.writebacks == 0

    def test_flush_counts_every_valid_line(self):
        cache = make_cache()
        self._fill(cache, 8)
        # EoM fills may already have displaced lines; count the deltas.
        evictions_before = cache.stats.evictions
        writebacks_before = cache.stats.writebacks
        displaced = cache.occupancy()
        dirty = sum(
            1 for s in range(cache.geometry.num_sets)
            for w in range(cache.geometry.ways) if cache._dirty[s][w]
        )
        written_back = cache.flush()
        assert cache.stats.evictions == evictions_before + displaced
        assert cache.stats.writebacks == writebacks_before + dirty
        assert len(written_back) == dirty
        assert cache.occupancy() == 0

    def test_flush_way_subset_counts_only_those_ways(self):
        cache = make_cache()
        for line in range(16):
            cache.access(line, write=True, ways=(0, 1))
        evictions_from_fills = cache.stats.evictions
        in_subset = sum(
            1 for s in range(cache.geometry.num_sets)
            for w in (0, 1) if cache._tags[s][w] is not None
        )
        cache.flush(ways=(0, 1))
        assert cache.stats.evictions == evictions_from_fills + in_subset
        assert all(
            cache._tags[s][w] is None
            for s in range(cache.geometry.num_sets) for w in (0, 1)
        )

    def test_flush_rejects_out_of_range_way(self):
        cache = make_cache()
        with pytest.raises(SimulationError):
            cache.flush(ways=(0, 99))

    def test_all_paths_agree_on_totals(self):
        """Displace lines via every path; totals must still reconcile."""
        cache = make_cache(placement_kind="random", seed=5)
        displaced = 0
        dirty_displaced = 0

        # Path 1: replacement on demand misses (overfill one cache).
        for line in range(64):
            result = cache.access(line, write=(line % 3 == 0))
            if result.eviction is not None:
                displaced += 1
                if result.eviction.dirty:
                    dirty_displaced += 1

        # Path 2: forced evictions (CRG force-misses).
        for set_index in range(cache.geometry.num_sets):
            eviction = cache.force_eviction(set_index)
            if eviction.line is not None:
                displaced += 1
                if eviction.dirty:
                    dirty_displaced += 1

        # Path 3: explicit invalidations.
        for line in list(cache.resident_lines())[:4]:
            eviction = cache.invalidate(line)
            if eviction is not None:
                displaced += 1
                if eviction.dirty:
                    dirty_displaced += 1

        # Path 4: the final flush displaces everything left.
        remaining = cache.occupancy()
        dirty_remaining = sum(
            1 for s in range(cache.geometry.num_sets)
            for w in range(cache.geometry.ways) if cache._dirty[s][w]
        )
        cache.flush()
        displaced += remaining
        dirty_displaced += dirty_remaining

        assert cache.stats.evictions == displaced
        assert cache.stats.writebacks == dirty_displaced


class TestForcedEvictionEdgeCases:
    """CRG edge cases: force-miss draws into empty frames."""

    def test_all_invalid_set_consumes_budget_without_writeback(self):
        cache = make_cache()
        eviction = cache.force_eviction(0)
        assert eviction == Eviction(line=None, dirty=False)
        assert cache.stats.forced_evictions == 1
        assert cache.stats.evictions == 0
        assert cache.stats.writebacks == 0
        assert cache.occupancy() == 0

    def test_repeated_forced_evictions_on_empty_set(self):
        cache = make_cache()
        for _ in range(5):
            cache.force_eviction(0)
        assert cache.stats.forced_evictions == 5
        assert cache.stats.evictions == 0

    def test_way_restricted_forced_eviction_spares_other_ways(self):
        cache = make_cache(size=64, ways=4)  # one set
        for line in range(4):
            cache.access(line)  # fill all four ways
        resident_before = cache.resident_lines()
        eviction = cache.force_eviction(0, ways=(2,))
        assert eviction.line is not None
        assert cache.stats.forced_evictions == 1
        assert resident_before - cache.resident_lines() == {eviction.line}


class TestProbeUnderWayRestriction:
    def test_probe_sees_line_only_through_its_way(self):
        cache = make_cache(size=64, ways=4)  # one set
        cache.access(5, ways=(1,))
        assert cache.probe(5)
        assert cache.probe(5, ways=(1,))
        assert not cache.probe(5, ways=(0,))
        assert not cache.probe(5, ways=(2, 3))

    def test_probe_has_no_side_effects_under_restriction(self):
        cache = make_cache(size=64, ways=4)
        cache.access(5, ways=(1,))
        hits, misses = cache.stats.hits, cache.stats.misses
        cache.probe(5, ways=(0, 2, 3))
        cache.probe(5, ways=(1,))
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)

    def test_probe_accepts_tuple_and_list_ways(self):
        cache = make_cache(size=64, ways=4)
        cache.access(9, ways=[3])
        assert cache.probe(9, ways=[3])
        assert cache.probe(9, ways=(3,))


def _cache_state(cache):
    """Everything a demand access can change, as comparable data."""
    stats = cache.stats
    replacement = cache.replacement
    rng = getattr(replacement, "_rng", None)
    return (
        [list(tags) for tags in cache._tags],
        [list(dirty) for dirty in cache._dirty],
        (stats.hits, stats.misses, stats.evictions, stats.writebacks,
         stats.forced_evictions),
        [list(stack) for stack in getattr(replacement, "_recency", None) or []],
        (rng._x, rng._c) if rng is not None else None,
    )


def _decode(code):
    """Map a ``lookup_fill`` code onto ``(hit, eviction)``."""
    if code == HIT:
        return True, None
    if code == MISS:
        return False, None
    if code >= 0:
        return False, Eviction(line=code, dirty=True)
    return False, Eviction(line=_CLEAN_VICTIM - code, dirty=False)


#: Candidate-way choices of a 4-way cache: every way, or one of two
#: disjoint partitions (so lines may sit in several partitions at once).
_WAY_CHOICES = (None, (0, 1), (2, 3), (3,))

_cache_kinds = st.tuples(
    st.sampled_from(["modulo", "random"]),
    st.sampled_from(["eom", "lru"]),
    st.booleans(),  # write-back
    st.integers(min_value=0, max_value=50),  # seed / RII
)
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # line: few sets, many conflicts
        st.booleans(),  # write
        st.sampled_from(range(len(_WAY_CHOICES))),
    ),
    min_size=1, max_size=120,
)


class TestAccessCore:
    """``lookup_fill`` is the one demand transaction: ``access`` wraps
    it, and both leave exactly the state of the reference access."""

    def _caches(self, kind, count):
        placement, replacement, write_back, seed = kind
        return [
            make_cache(size=128, ways=4, placement_kind=placement,
                       replacement_kind=replacement, seed=seed,
                       write_back=write_back, rii=seed)
            for _ in range(count)
        ]

    @given(kind=_cache_kinds, ops=_ops)
    @settings(max_examples=80, deadline=None)
    def test_core_access_and_reference_agree(self, kind, ops):
        core, wrapped, reference = self._caches(kind, 3)
        for line, write, choice in ops:
            ways = _WAY_CHOICES[choice]
            code = core.lookup_fill(line, write, ways)
            result = wrapped.access(line, write=write, ways=ways)
            expected = _reference_access(reference, line, write, ways)
            assert result == expected
            assert _decode(code) == (expected.hit, expected.eviction)
            assert _cache_state(core) == _cache_state(wrapped) \
                == _cache_state(reference)

    @given(kind=_cache_kinds, ops=_ops, updates=st.lists(st.booleans(), max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_update_if_resident_is_probe_then_access(self, kind, ops, updates):
        single, probed = self._caches(kind, 2)
        for (line, write, choice), update in zip(ops, updates + [False] * len(ops)):
            ways = _WAY_CHOICES[choice]
            if update:
                resident = probed.probe(line, ways)
                if resident:
                    probed.access(line, write=True, ways=ways)
                assert single.update_if_resident(line, True, ways) is resident
            else:
                single.lookup_fill(line, write, ways)
                probed.lookup_fill(line, write, ways)
            assert _cache_state(single) == _cache_state(probed)

    def test_access_reports_clean_victims(self):
        cache = make_cache(size=16, ways=1)  # one frame: every miss evicts
        assert cache.access(1).eviction is None
        assert cache.access(2).eviction == Eviction(line=1, dirty=False)
        cache.access(3, write=True)
        assert cache.lookup_fill(4) == 3  # dirty victim: its line
        assert _decode(cache.lookup_fill(5)) == (False, Eviction(line=4, dirty=False))

    def test_negative_line_rejected(self):
        with pytest.raises(SimulationError):
            make_cache().access(-1)
