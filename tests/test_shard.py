"""Sharded kernel engine: partitioning, shared programs, plan cache.

Three properties earn the sharded kernel engine its place:

* **partitioning is sound** — every lane lands in exactly one shard,
  order preserved, sizes balanced (proved by hypothesis over arbitrary
  lane/shard counts);
* **bit-identity is shard-count-invariant** — 1, 2, 3 or 7 shards, a
  shared-memory program or a locally compiled one, the sample equals
  the scalar interpreter's exactly;
* **compile-once** — a PWCETTable sweep compiles each benchmark's
  trace once and answers every further (MID, way-count) campaign from
  its plan cache, and every campaign — in-process or sharded — costs
  exactly one program lookup.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from tests.conftest import make_stream_trace

from repro.errors import ConfigurationError
from repro.sim.backend import RunObserver, SerialBackend
from repro.sim.batch import (
    SHARDED_AUTO_MIN_RUNS,
    BatchBackend,
    ShardedBatchBackend,
    shard_lanes,
)
from repro.sim.campaign import collect_execution_times
from repro.sim.checkpoint import CampaignCheckpoint
from repro.sim.config import Scenario, SystemConfig
from repro.sim.kernels import KernelTemplatePlan
from repro.sim.plancache import PlanCache, SharedProgram, TraceProgram
from repro.sim.simulator import RunRequest
from repro.utils.rng import SplitMix64, derive_seeds, splitmix64_draw

CONFIG = SystemConfig(l1_size=256, llc_size=2048)
SCENARIO = Scenario.efl(250)


def record_key(record):
    return (
        record.index,
        record.seed,
        record.cycles,
        record.instructions,
        record.llc_hits,
        record.llc_misses,
        record.llc_forced_evictions,
        record.efl_stall_cycles,
        record.efl_evictions,
        record.memory_reads,
        record.memory_writes,
    )


@pytest.fixture(scope="module")
def trace():
    return make_stream_trace("shardeq", words=48, sweeps=3, store_every=2)


class TestShardLanes:
    @given(
        count=st.integers(min_value=0, max_value=400),
        shards=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_lane_in_exactly_one_shard(self, count, shards):
        jobs = [(index, 1000 + index, 1) for index in range(count)]
        parts = shard_lanes(jobs, shards)
        # Exactly-one: concatenating the shards in order reproduces the
        # job list, so no lane is lost, duplicated or reordered.
        assert [job for part in parts for job in part] == jobs
        assert all(part for part in parts)  # no empty shards
        if count:
            sizes = [len(part) for part in parts]
            assert max(sizes) - min(sizes) <= 1  # balanced
            assert len(parts) == min(shards, count)

    @given(
        count=st.integers(min_value=1, max_value=400),
        shards=st.integers(min_value=1, max_value=8),
        max_size=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_max_size_bounds_every_shard(self, count, shards, max_size):
        jobs = [(index, index, 1) for index in range(count)]
        parts = shard_lanes(jobs, shards, max_size)
        assert [job for part in parts for job in part] == jobs
        assert all(len(part) <= max_size for part in parts)

    def test_deterministic(self):
        jobs = [(index, index * 7, 1) for index in range(29)]
        assert shard_lanes(jobs, 4) == shard_lanes(jobs, 4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            shard_lanes([], 0)
        with pytest.raises(ConfigurationError):
            shard_lanes([], 2, 0)

    def test_empty_jobs(self):
        assert shard_lanes([], 3) == []


class TestSeedSchedule:
    def test_per_shard_seeds_match_scalar_schedule(self, trace):
        # Sharding must not change which PRNG draws a lane consumes:
        # the k-th SplitMix64 draw the kernel sweep computes for a lane
        # equals the k-th next_u64() of that lane's own run seed —
        # regardless of which shard the lane landed in.
        import numpy as np

        seeds = derive_seeds(123, 23)
        jobs = [(index, seed, 1) for index, seed in enumerate(seeds)]
        nc = CONFIG.num_cores
        for shard in shard_lanes(jobs, 3):
            shard_seeds = np.array(
                [seed for _i, seed, _a in shard], dtype=np.uint64
            )
            for k in (1, 2, 2 * nc + 1, 4 * nc + 2, 4 * nc + 4):
                draws = splitmix64_draw(shard_seeds, k)
                for lane, (_index, seed, _attempt) in enumerate(shard):
                    stream = SplitMix64(seed)
                    expected = [stream.next_u64() for _ in range(k)][-1]
                    assert int(draws[lane]) == expected


class TestShardCountInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_bit_identical_to_scalar(self, trace, workers):
        scalar = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=19, master_seed=5, engine="scalar"
        )
        sharded = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=19, master_seed=5,
            backend=ShardedBatchBackend(
                workers=workers, force_pool=True, strict=True
            ),
        )
        assert sharded.execution_times == scalar.execution_times
        assert sharded.seeds == scalar.seeds
        assert sharded.instructions == scalar.instructions
        assert [record_key(r) for r in sharded.records] == \
            [record_key(r) for r in scalar.records]

    def test_checksums_match_single_process_batch(self, trace):
        # "batch" is the single-process kernel engine (BatchBackend).
        seeds = derive_seeds(31, 9)
        template = RunRequest.isolation(trace, CONFIG, SCENARIO, seeds[0])
        requests = [template.with_run(i, seed) for i, seed in enumerate(seeds)]
        single = BatchBackend(strict=True).execute(requests)
        sharded = ShardedBatchBackend(
            workers=3, force_pool=True, strict=True
        ).execute(requests)
        assert [o.checksum for o in sharded] == [o.checksum for o in single]
        assert [o.result for o in sharded] == [o.result for o in single]

    def test_engine_sharded_is_strict(self, trace):
        from repro.core.config import OperationMode

        with pytest.raises(ConfigurationError, match="analysis-mode"):
            collect_execution_times(
                trace, CONFIG,
                Scenario.efl(250, mode=OperationMode.DEPLOYMENT),
                runs=4, master_seed=1, engine="kernel", workers=2,
            )

    def test_engine_batch_with_workers_shards(self, trace):
        # The kernel engine's in-process backend is BatchBackend;
        # workers=2 turns it into two shards.
        scalar = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=11, master_seed=8, engine="scalar"
        )
        sharded = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=11, master_seed=8,
            engine="kernel", workers=2,
        )
        assert sharded.execution_times == scalar.execution_times
        assert sharded.backend.startswith("sharded[")

    def test_workers_with_scalar_engine_rejected(self, trace):
        with pytest.raises(ConfigurationError, match="shard workers"):
            collect_execution_times(
                trace, CONFIG, SCENARIO, runs=4, master_seed=1,
                engine="scalar", workers=2,
            )


class TestSingleCpuDegrade:
    def test_degrades_with_warning_on_one_cpu(self, trace, monkeypatch):
        import repro.sim.backend as backend_mod
        import repro.sim.batch as batch_mod

        messages = []

        class Recorder(RunObserver):
            def on_message(self, message):
                messages.append(message)

        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 1)
        scalar = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=9, master_seed=3, engine="scalar"
        )
        sharded = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=9, master_seed=3,
            backend=batch_mod.ShardedBatchBackend(workers=4, strict=True),
            observer=Recorder(),
        )
        assert sharded.execution_times == scalar.execution_times
        assert any("degrading" in message for message in messages)

    def test_force_pool_keeps_the_pool(self, trace, monkeypatch):
        import repro.sim.backend as backend_mod

        messages = []

        class Recorder(RunObserver):
            def on_message(self, message):
                messages.append(message)

        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 1)
        scalar = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=9, master_seed=3, engine="scalar"
        )
        forced = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=9, master_seed=3,
            backend=ShardedBatchBackend(
                workers=2, force_pool=True, strict=True
            ),
            observer=Recorder(),
        )
        assert forced.execution_times == scalar.execution_times
        assert not any("degrading" in message for message in messages)

    def test_auto_policy_needs_parallelism_and_size(self, trace, monkeypatch):
        import repro.sim.campaign as campaign_mod

        # Plenty of CPUs + explicit workers -> sharded.
        monkeypatch.setattr(campaign_mod, "usable_cpus", lambda: 8)
        chosen = campaign_mod._select_backend("auto", None, workers=4, runs=16)
        assert isinstance(chosen, ShardedBatchBackend)
        # Plenty of CPUs, no workers, small campaign -> single-process.
        chosen = campaign_mod._select_backend("auto", None, runs=16)
        assert type(chosen).__name__ == "BatchBackend"
        # Plenty of CPUs, no workers, big campaign -> sharded.
        chosen = campaign_mod._select_backend(
            "auto", None, runs=SHARDED_AUTO_MIN_RUNS
        )
        assert isinstance(chosen, ShardedBatchBackend)
        # One CPU -> never auto-sharded.
        monkeypatch.setattr(campaign_mod, "usable_cpus", lambda: 1)
        chosen = campaign_mod._select_backend(
            "auto", None, runs=SHARDED_AUTO_MIN_RUNS
        )
        assert type(chosen).__name__ == "BatchBackend"


class TestSharedProgram:
    def test_round_trip_preserves_arrays_and_steps(self, trace):
        import numpy as np

        program = TraceProgram.compile(trace, CONFIG)
        shared = SharedProgram.create(program)
        try:
            clone = shared.handle.attach()
            try:
                from repro.sim.plancache import SHARED_FIELDS

                for name in SHARED_FIELDS:
                    np.testing.assert_array_equal(
                        getattr(clone, name), getattr(program, name)
                    )
                    assert not getattr(clone, name).flags.writeable
                assert clone.steps == program.steps
                assert clone.task == program.task
                assert clone.instructions == program.instructions
                assert clone.fast_ihits == program.fast_ihits
                assert clone.fast_dhits == program.fast_dhits
            finally:
                clone.close()
        finally:
            shared.dispose()

    def test_dispose_is_idempotent(self, trace):
        program = TraceProgram.compile(trace, CONFIG)
        shared = SharedProgram.create(program)
        shared.dispose()
        shared.dispose()

    def test_attached_plan_executes_bit_identically(self, trace):
        seeds = derive_seeds(77, 5)
        template = RunRequest.isolation(trace, CONFIG, SCENARIO, seeds[0])
        requests = [template.with_run(i, s) for i, s in enumerate(seeds)]
        reference = SerialBackend().execute(requests)
        program = TraceProgram.compile(trace, CONFIG)
        shared = SharedProgram.create(program)
        try:
            clone = shared.handle.attach()
            try:
                plan = KernelTemplatePlan(CONFIG, SCENARIO, 0, clone)
                outcomes = plan.execute(requests)
                assert [o.checksum for o in outcomes] == \
                    [o.checksum for o in reference]
            finally:
                clone.close()
        finally:
            shared.dispose()


class TestPlanCache:
    def test_hit_and_miss_accounting(self, trace):
        cache = PlanCache()
        first = cache.program(trace, CONFIG)
        again = cache.program(trace, CONFIG)
        assert again is first
        assert cache.snapshot() == (1, 1)
        other = make_stream_trace("other", words=16, sweeps=1)
        cache.program(other, CONFIG)
        assert cache.snapshot() == (1, 2)
        assert len(cache) == 2

    def test_distinct_configs_compile_separately(self, trace):
        cache = PlanCache()
        cache.program(trace, CONFIG)
        cache.program(trace, SystemConfig(l1_size=512, llc_size=2048))
        assert cache.snapshot() == (0, 2)

    def test_eviction_respects_max_entries(self):
        cache = PlanCache(max_entries=2)
        traces = [
            make_stream_trace(f"lru{i}", words=8, sweeps=1) for i in range(3)
        ]
        for t in traces:
            cache.program(t, CONFIG)
        assert len(cache) == 2
        # The oldest entry was evicted: looking it up recompiles.
        cache.program(traces[0], CONFIG)
        assert cache.misses == 4

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(max_entries=0)

    def test_campaign_reports_cache_traffic(self, trace):
        cache = PlanCache()
        first = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=6, master_seed=1,
            engine="kernel", plan_cache=cache,
        )
        assert (first.plan_cache_hits, first.plan_cache_misses) == (0, 1)
        second = collect_execution_times(
            trace, CONFIG, Scenario.efl(500), runs=6, master_seed=2,
            engine="kernel", plan_cache=cache,
        )
        assert (second.plan_cache_hits, second.plan_cache_misses) == (1, 0)

    @pytest.mark.parametrize("case", [
        "kernel", "kernel-workers2-one-run", "sharded-one-worker",
        "sharded-one-cpu",
    ])
    def test_campaign_costs_one_program_lookup(self, trace, case,
                                               monkeypatch):
        # PlanCache.kernel_plan's contract: a kernel campaign costs
        # exactly one program hit/miss, also when a sharded backend
        # ends up running its resolved plan in-process.
        import repro.sim.backend as backend_mod

        cache = PlanCache()
        runs, kwargs = 4, {"engine": "kernel", "plan_cache": cache}
        if case == "kernel-workers2-one-run":
            runs, kwargs["workers"] = 1, 2
        elif case == "sharded-one-worker":
            kwargs = {"backend": ShardedBatchBackend(
                workers=1, strict=True, plan_cache=cache)}
        elif case == "sharded-one-cpu":
            monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 1)
            kwargs = {"backend": ShardedBatchBackend(
                workers=2, strict=True, plan_cache=cache)}
        scalar = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=runs, master_seed=6,
            engine="scalar",
        )
        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=runs, master_seed=6, **kwargs
        )
        assert result.execution_times == scalar.execution_times
        assert cache.hits + cache.misses == 1
        assert (result.plan_cache_hits, result.plan_cache_misses) == (0, 1)

    def test_pwcet_table_compiles_each_trace_once(self):
        from repro.analysis.experiments import PWCETTable
        from repro.workloads.scale import ExperimentScale

        table = PWCETTable(scale=ExperimentScale.tiny(), seed=3)
        setups = [("efl", 100), ("efl", 250), ("cp", 1)]
        benches = list(table.traces)[:2]
        for bench in benches:
            for kind, value in setups:
                table.campaign(bench, kind, value)
        cache = table.plan_cache
        # Compile-once: one miss per benchmark, every further (MID,
        # ways) scenario over the same trace/geometry is a hit.
        assert cache.misses == len(benches)
        assert cache.hits == len(benches) * (len(setups) - 1)

    def test_eviction_never_drops_pinned_entries(self, trace):
        cache = PlanCache(max_entries=1)
        program = cache.program(trace, CONFIG)
        cache.pin(trace, CONFIG)
        # Flood far past capacity: the pinned entry must survive every
        # eviction pass (the cache rides above max_entries instead).
        floods = [
            make_stream_trace(f"flood{i}", words=8, sweeps=1) for i in range(4)
        ]
        for t in floods:
            cache.program(t, CONFIG)
        assert cache.program(trace, CONFIG) is program  # no recompile
        hits_before = cache.hits
        cache.unpin(trace, CONFIG)
        # Capacity is re-enforced once the pin releases; the entry was
        # most recently used, so it is the one that stays.
        assert len(cache) == 1
        assert cache.program(trace, CONFIG) is program
        assert cache.hits == hits_before + 1

    def test_pin_hit_miss_counters(self, trace):
        cache = PlanCache()
        # Pinning an empty slot pre-warms it: a pin miss.
        cache.pin(trace, CONFIG)
        assert (cache.pin_hits, cache.pin_misses) == (0, 1)
        cache.program(trace, CONFIG)
        # Pinning a slot that already holds a compiled program is a
        # pin hit (the pin protects real work).
        cache.pin(trace, CONFIG)
        assert (cache.pin_hits, cache.pin_misses) == (1, 1)
        cache.unpin(trace, CONFIG)
        cache.unpin(trace, CONFIG)
        assert not cache.pinned(trace, CONFIG)

    def test_unpin_without_pin_raises(self, trace):
        cache = PlanCache()
        cache.program(trace, CONFIG)
        with pytest.raises(ConfigurationError, match="unpin"):
            cache.unpin(trace, CONFIG)
        # Double-unpin after a single pin is equally a caller bug.
        cache.pin(trace, CONFIG)
        cache.unpin(trace, CONFIG)
        with pytest.raises(ConfigurationError, match="unpin"):
            cache.unpin(trace, CONFIG)

    def test_clear_keeps_pinned_entries(self, trace):
        cache = PlanCache()
        program = cache.program(trace, CONFIG)
        other = make_stream_trace("clearme", words=8, sweeps=1)
        cache.program(other, CONFIG)
        cache.pin(trace, CONFIG)
        cache.clear()
        assert len(cache) == 1
        assert cache.program(trace, CONFIG) is program
        cache.unpin(trace, CONFIG)

    def test_pwcet_table_bench_row_pins_and_unpins(self):
        from repro.analysis.experiments import PWCETTable
        from repro.workloads.scale import ExperimentScale

        table = PWCETTable(scale=ExperimentScale.tiny(), seed=3)
        bench = next(iter(table.traces))
        trace = table.traces[bench]
        cache = table.plan_cache
        with table.bench_row(bench):
            assert cache.pinned(trace, table.config)
            table.campaign(bench, "efl", 100)
            table.campaign(bench, "efl", 250)
        # Row finished: the pin is released (a stale pin here would
        # hold the entry above capacity forever)...
        assert not cache.pinned(trace, table.config)
        # ...and it was a pre-warm pin: the slot was empty at pin time.
        assert (cache.pin_hits, cache.pin_misses) == (0, 1)

    def test_iid_compliance_leaves_no_stale_pins(self):
        from repro.analysis.experiments import PWCETTable, run_iid_compliance
        from repro.workloads.scale import ExperimentScale

        table = PWCETTable(scale=ExperimentScale.tiny(), seed=3)
        run_iid_compliance(table, mid=100, bench_ids=list(table.traces)[:2])
        cache = table.plan_cache
        for bench, trace in table.traces.items():
            assert not cache.pinned(trace, table.config), bench

    def test_render_campaign_reports_plan_cache(self, trace):
        from repro.analysis.reporting import render_campaign

        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=6, master_seed=1,
            engine="kernel", plan_cache=PlanCache(),
        )
        rendered = render_campaign(result)
        assert "plan cache: 1 compile(s), 0 hit(s)" in rendered

    def test_scalar_campaign_reports_no_cache_traffic(self, trace):
        from repro.analysis.reporting import render_campaign

        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=4, master_seed=1, engine="scalar"
        )
        assert (result.plan_cache_hits, result.plan_cache_misses) == (0, 0)
        assert "plan cache" not in render_campaign(result)

    def test_kernel_campaign_surfaces_compile_stats(self, trace):
        from repro.analysis.reporting import render_campaign
        from repro.sim.campaign import CampaignResult

        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=4, master_seed=1,
            engine="kernel", plan_cache=PlanCache(),
        )
        stats = result.kernel_stats
        assert stats is not None
        # The conservation keys the fusion pass maintains.
        for key in ("chains", "segments", "fused_accesses",
                    "fusion_ratio", "ifetch", "dmem"):
            assert key in stats, key
        rendered = render_campaign(result)
        assert "kernel plan:" in rendered
        assert "megakernel segments" in rendered
        # The stats survive the wire format round-trip.
        clone = CampaignResult.from_dict(result.to_dict())
        assert clone.kernel_stats == stats

    def test_non_kernel_campaigns_have_no_kernel_stats(self, trace):
        from repro.analysis.reporting import render_campaign

        scalar = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=4, master_seed=1, engine="scalar",
        )
        # A kernel backend whose campaign fell back to scalar (profiled
        # runs are ineligible) must not report the cached plan's stats.
        cache = PlanCache()
        KernelTemplatePlan.for_request(
            RunRequest.isolation(trace, CONFIG, SCENARIO, 1), cache
        )
        fallback = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=4, master_seed=1,
            backend=BatchBackend(plan_cache=cache), profile=True,
        )
        assert fallback.backend == "serial"
        for result in (scalar, fallback):
            assert result.kernel_stats is None, result.backend
            assert "kernel plan" not in render_campaign(result)

    def test_warm_plan_cache_repeat_is_bit_identical(self, trace):
        """Two campaigns through one plan cache: the second reuses the
        compiled plan AND the recorded presize hints, and must still
        reproduce the first sample exactly."""
        cache = PlanCache()
        first = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=8, master_seed=9,
            engine="kernel", plan_cache=cache,
        )
        second = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=8, master_seed=9,
            engine="kernel", plan_cache=cache,
        )
        assert first.execution_times == second.execution_times
        assert second.plan_cache_hits > 0


class TestShardedCheckpoint:
    def test_resume_is_bit_identical(self, trace, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        reference = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=16, master_seed=6, engine="scalar"
        )

        class KillAfter(RunObserver):
            def __init__(self, limit):
                self.limit = limit
                self.seen = 0

            def on_run(self, record):
                self.seen += 1
                if self.seen >= self.limit:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            collect_execution_times(
                trace, CONFIG, SCENARIO, runs=16, master_seed=6,
                engine="scalar", observer=KillAfter(6),
                checkpoint=CampaignCheckpoint(journal, resume=True),
            )
        survived = len(journal.read_text().splitlines()) - 1
        assert survived >= 6
        resumed = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=16, master_seed=6,
            backend=ShardedBatchBackend(
                workers=2, force_pool=True, strict=True
            ),
            checkpoint=CampaignCheckpoint(journal, resume=True),
        )
        assert resumed.resumed_runs == survived
        assert resumed.execution_times == reference.execution_times
        assert resumed.seeds == reference.seeds

    def test_journal_header_records_backend(self, trace, tmp_path):
        import json

        journal = tmp_path / "campaign.jsonl"
        collect_execution_times(
            trace, CONFIG, SCENARIO, runs=5, master_seed=2,
            backend=ShardedBatchBackend(
                workers=2, force_pool=True, strict=True
            ),
            checkpoint=CampaignCheckpoint(journal, resume=False),
        )
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["backend"] == "sharded[2]"


class TestShardedEligibility:
    def test_strict_rejects_heterogeneous(self, trace):
        other = make_stream_trace("hetero", words=16, sweeps=1)
        a = RunRequest.isolation(trace, CONFIG, SCENARIO, 1, index=0)
        b = RunRequest.isolation(other, CONFIG, SCENARIO, 2, index=1)
        with pytest.raises(ConfigurationError, match="heterogeneous"):
            ShardedBatchBackend(
                workers=2, force_pool=True, strict=True
            ).execute([a, b])

    def test_non_strict_falls_back_to_serial(self, trace):
        from repro.core.config import OperationMode

        messages = []

        class Recorder(RunObserver):
            def on_message(self, message):
                messages.append(message)

        scenario = Scenario.efl(250, mode=OperationMode.DEPLOYMENT)
        seeds = derive_seeds(11, 4)
        template = RunRequest.isolation(trace, CONFIG, scenario, seeds[0])
        requests = [template.with_run(i, s) for i, s in enumerate(seeds)]
        outcomes = ShardedBatchBackend(
            workers=2, force_pool=True
        ).execute(requests, observer=Recorder())
        reference = SerialBackend().execute(requests)
        assert [o.checksum for o in outcomes] == \
            [o.checksum for o in reference]
        assert any("falling back" in message for message in messages)

    def test_empty_request_list(self):
        backend = ShardedBatchBackend(workers=2, force_pool=True, strict=True)
        assert backend.execute([]) == []

    def test_invalid_max_lanes_rejected(self):
        with pytest.raises(ConfigurationError, match="max_lanes"):
            ShardedBatchBackend(workers=2, max_lanes=0)
