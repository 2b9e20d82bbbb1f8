"""Tests for platform construction and the shared memory path."""

from __future__ import annotations

import pytest

from repro.core.config import OperationMode
from repro.errors import ConfigurationError, SimulationError
from repro.sim.config import Scenario, SystemConfig
from repro.sim.memorypath import MemoryPath
from repro.mem.partition import PartitionedLLC
from repro.sim.platform import build_platform


def small_config(**overrides):
    params = dict(l1_size=256, llc_size=2048)
    params.update(overrides)
    return SystemConfig(**params)


class TestBuildPlatform:
    def test_efl_platform(self):
        platform = build_platform(small_config(), Scenario.efl(250), seed=1)
        assert platform.efl is not None
        assert platform.llc_partition is None
        assert len(platform.il1s) == 4
        assert len(platform.dl1s) == 4

    def test_cp_platform(self):
        platform = build_platform(
            small_config(),
            Scenario.cache_partitioning(2, mode=OperationMode.DEPLOYMENT),
            seed=1,
        )
        assert platform.efl is None
        assert isinstance(platform.llc_partition, PartitionedLLC)
        assert platform.llc_partition.cache is platform.llc

    def test_cp_analysis_only_materialises_analysed_core(self):
        platform = build_platform(
            small_config(), Scenario.cache_partitioning(4), seed=1
        )
        assert platform.llc_partition.partition.counts == {0: 4}

    def test_cp_deployment_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            build_platform(
                small_config(),
                Scenario.cache_partitioning(4, mode=OperationMode.DEPLOYMENT),
                seed=1,
            )

    def test_fresh_seed_fresh_riis(self):
        a = build_platform(small_config(), Scenario.efl(250), seed=1)
        b = build_platform(small_config(), Scenario.efl(250), seed=2)
        assert a.llc.placement.rii != b.llc.placement.rii

    def test_same_seed_reproducible(self):
        a = build_platform(small_config(), Scenario.efl(250), seed=9)
        b = build_platform(small_config(), Scenario.efl(250), seed=9)
        assert a.llc.placement.rii == b.llc.placement.rii
        assert a.il1s[0].placement.rii == b.il1s[0].placement.rii

    def test_caches_have_distinct_riis(self):
        platform = build_platform(small_config(), Scenario.efl(250), seed=3)
        riis = [c.placement.rii for c in platform.il1s + platform.dl1s]
        riis.append(platform.llc.placement.rii)
        assert len(set(riis)) == len(riis)

    def test_td_platform(self):
        config = small_config(placement="modulo", replacement="lru")
        platform = build_platform(config, Scenario.uncontrolled(), seed=1)
        assert platform.llc.placement.is_randomised is False


class TestMemoryPathDeployment:
    def make(self, scenario=None):
        scenario = scenario or Scenario.efl(250, mode=OperationMode.DEPLOYMENT)
        platform = build_platform(small_config(), scenario, seed=5)
        return platform, MemoryPath(platform)

    def test_llc_hit_latency(self):
        platform, path = self.make(Scenario.uncontrolled())
        done = path.fill(0, line=7, time=100)
        # miss first: bus(2) + lookup(10) + memory via controller.
        assert done == 100 + 2 + 10 + 100
        done2 = path.fill(0, line=7, time=300)
        assert done2 == 300 + 2 + 10
        assert path.llc_hits == 1
        assert path.llc_misses == 1

    def test_efl_deployment_throttles_misses(self):
        platform, path = self.make()
        t = 0
        completions = []
        for line in range(40):
            t = path.fill(0, line, t)
            completions.append(t)
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        # EoM misses with MID 250: spacing is at least the miss cost
        # and is stretched by EAB stalls for short draws; the mean gap
        # must exceed the bare miss cost.
        assert sum(gaps) / len(gaps) > 112
        assert platform.efl.stall_cycles(0) > 0

    def test_dirty_llc_victims_written_back(self):
        platform, path = self.make(Scenario.uncontrolled())
        # Fill the tiny LLC with written lines until evictions happen.
        t = 0
        for line in range(400):
            t = path.fill(0, line, t, write=True)
        assert platform.memory.writes > 0

    def test_l1_writeback_hit_marks_dirty(self):
        platform, path = self.make(Scenario.uncontrolled())
        t = path.fill(0, 7, 0)
        path.l1_writeback(0, 7, t)
        # On eventual eviction the line must write back to memory.
        before = platform.memory.writes
        platform.llc.invalidate(7)
        assert platform.llc.stats.writebacks > 0 or platform.memory.writes >= before

    def test_l1_writeback_miss_goes_to_memory(self):
        platform, path = self.make(Scenario.uncontrolled())
        before = platform.memory.writes
        path.l1_writeback(0, 999, 50)
        assert platform.memory.writes == before + 1

    def test_negative_time_rejected(self):
        _platform, path = self.make()
        import pytest as _pytest
        with _pytest.raises(Exception):
            path.fill(0, 1, -5)


class TestMemoryPathAnalysis:
    def test_worst_case_charges(self):
        config = small_config()
        platform = build_platform(config, Scenario.efl(250), seed=5)
        path = MemoryPath(platform)
        done = path.fill(0, line=7, time=0)
        # bus worst case (4 * 2) + lookup 10 + memory worst case (400),
        # plus any EAB stall (none for the very first eviction).
        assert done == 8 + 10 + 400

    def test_analysis_hits_cheaper(self):
        platform = build_platform(small_config(), Scenario.efl(250), seed=5)
        path = MemoryPath(platform)
        t = path.fill(0, 7, 0)
        done = path.fill(0, 7, t)
        assert done - t == 8 + 10

    def test_crg_interference_applied(self):
        platform = build_platform(small_config(), Scenario.efl(250), seed=5)
        path = MemoryPath(platform)
        path.fill(0, 1, 0)
        path.fill(0, 2, 100_000)
        assert platform.llc.stats.forced_evictions > 0

    def test_custom_penalties(self):
        config = small_config(analysis_bus_penalty=0, analysis_memory_penalty=0)
        platform = build_platform(config, Scenario.efl(250), seed=5)
        path = MemoryPath(platform)
        done = path.fill(0, line=7, time=0)
        assert done == 2 + 10 + 100

    def test_core_outside_cp_partition_cannot_fill(self):
        # CP analysis materialises only the analysed core's partition.
        platform = build_platform(
            small_config(), Scenario.cache_partitioning(2), seed=5
        )
        path = MemoryPath(platform)
        path.fill(0, 1, 0)
        with pytest.raises(SimulationError):
            path.fill(1, 2, 0)

    def test_cp_analysis_sees_no_interference(self):
        platform = build_platform(
            small_config(), Scenario.cache_partitioning(2), seed=5
        )
        path = MemoryPath(platform)
        path.fill(0, 1, 0)
        path.fill(0, 2, 100_000)
        assert platform.llc.stats.forced_evictions == 0
