"""The kernel engine's campaign backends: sharding, policy, fallback.

:class:`~repro.sim.batch.BatchBackend` runs a campaign's lanes
in-process and :class:`~repro.sim.batch.ShardedBatchBackend` shards
them over worker processes.  Single-process bit identity against the
scalar oracle lives in ``tests/test_kernel.py``; these tests assert
the sharded form of the same contract for every analysis scenario
class the paper uses (TR+EFL, fixed-MID EFL, TR isolation, CP, TD),
plus lane chunking, cross-engine resume, the engine-selection policy,
the strict-mode failure ergonomics and the fallback path.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from tests.conftest import make_stream_trace

from repro.core.config import OperationMode
from repro.errors import ConfigurationError, SimulationError
from repro.sim.backend import (
    RetryPolicy,
    RunObserver,
    SerialBackend,
    installed_fault_plan,
)
from repro.sim.batch import BatchBackend, ENGINE_NAMES, ShardedBatchBackend
from repro.sim.campaign import CampaignResult, collect_execution_times
from repro.sim.checkpoint import CampaignCheckpoint
from repro.sim.config import Scenario, SystemConfig
from repro.sim.faults import FaultPlan
from repro.sim.simulator import RunRequest, batch_ineligibility
from repro.utils.rng import derive_seeds

CONFIG = SystemConfig(l1_size=256, llc_size=2048)
ANALYSIS = OperationMode.ANALYSIS

#: One scenario per class of the paper's analysis campaigns, plus the
#: fixed-MID EFL variant (a different CRG/ACU draw pattern) and the TD
#: substrate (modulo + LRU: no hardware randomness at all).
SCENARIO_CLASSES = [
    pytest.param(CONFIG, Scenario.efl(250), id="tr-efl"),
    pytest.param(CONFIG, Scenario.efl(250, randomise_mid=False), id="tr-efl-fixed"),
    pytest.param(CONFIG, Scenario.uncontrolled(mode=ANALYSIS), id="tr-isolation"),
    pytest.param(
        CONFIG,
        Scenario.cache_partitioning(2, num_cores=4, mode=ANALYSIS),
        id="cp",
    ),
    pytest.param(
        replace(CONFIG, placement="modulo", replacement="lru"),
        Scenario.uncontrolled(mode=ANALYSIS),
        id="td",
    ),
]


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
    return make_stream_trace("batcheq", words=48, sweeps=3, store_every=2)


class TestBitIdentity:
    """Sharded kernel campaigns (``workers=2``) against the scalar oracle."""

    @pytest.mark.parametrize("config, scenario", SCENARIO_CLASSES)
    def test_campaign_matches_scalar(self, trace, config, scenario):
        scalar = collect_execution_times(
            trace, config, scenario, runs=14, master_seed=9, engine="scalar"
        )
        sharded = collect_execution_times(
            trace, config, scenario, runs=14, master_seed=9, engine="kernel",
            workers=2,
        )
        assert sharded.execution_times == scalar.execution_times
        assert sharded.seeds == scalar.seeds
        assert sharded.instructions == scalar.instructions
        assert [record_key(r) for r in sharded.records] == \
            [record_key(r) for r in scalar.records]
        assert sharded.backend == "sharded[2]"
        assert scalar.backend == "serial"

    @pytest.mark.parametrize("config, scenario", SCENARIO_CLASSES)
    def test_outcome_checksums_match_scalar(self, trace, config, scenario):
        seeds = derive_seeds(21, 6)
        template = RunRequest.isolation(trace, config, scenario, seeds[0])
        requests = [template.with_run(i, seed) for i, seed in enumerate(seeds)]
        scalar = SerialBackend().execute(requests)
        # force_pool: the shards really run in worker processes, even
        # on a single-CPU host.
        sharded = ShardedBatchBackend(
            workers=2, force_pool=True, strict=True
        ).execute(requests)
        assert [o.checksum for o in sharded] == [o.checksum for o in scalar]
        assert [o.result for o in sharded] == [o.result for o in scalar]

    def test_chunked_lanes_match_unchunked(self, trace):
        seeds = derive_seeds(3, 13)
        template = RunRequest.isolation(trace, CONFIG, Scenario.efl(250), seeds[0])
        requests = [template.with_run(i, seed) for i, seed in enumerate(seeds)]
        whole = BatchBackend(strict=True).execute(requests)
        # max_lanes raises the shard count: 13 lanes in shards of <= 4.
        chunked = ShardedBatchBackend(
            workers=2, force_pool=True, strict=True, max_lanes=4
        ).execute(requests)
        assert [o.checksum for o in chunked] == [o.checksum for o in whole]

    def test_store_free_trace(self, trace):
        loads_only = make_stream_trace("loads", words=32, sweeps=2)
        scalar = collect_execution_times(
            loads_only, CONFIG, Scenario.efl(100), runs=8, master_seed=2,
            engine="scalar",
        )
        sharded = collect_execution_times(
            loads_only, CONFIG, Scenario.efl(100), runs=8, master_seed=2,
            engine="kernel", workers=2,
        )
        assert sharded.execution_times == scalar.execution_times

    def test_resume_across_engines(self, trace, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        scenario = Scenario.efl(250)
        reference = collect_execution_times(
            trace, CONFIG, scenario, runs=12, master_seed=4, engine="scalar"
        )

        class KillAfter(RunObserver):
            def __init__(self, limit):
                self.limit = limit
                self.seen = 0

            def on_run(self, record):
                self.seen += 1
                if self.seen >= self.limit:
                    raise KeyboardInterrupt

        # Kill a scalar campaign mid-flight, then resume it on the
        # sharded kernel engine: the journalled prefix plus the
        # vectorised remainder must equal the uninterrupted scalar
        # sample.
        with pytest.raises(KeyboardInterrupt):
            collect_execution_times(
                trace, CONFIG, scenario, runs=12, master_seed=4,
                engine="scalar", observer=KillAfter(5),
                checkpoint=CampaignCheckpoint(journal, resume=True),
            )
        survived = len(journal.read_text().splitlines()) - 1
        assert survived >= 5
        resumed = collect_execution_times(
            trace, CONFIG, scenario, runs=12, master_seed=4, engine="kernel",
            workers=2, checkpoint=CampaignCheckpoint(journal, resume=True),
        )
        assert resumed.resumed_runs == survived
        assert resumed.execution_times == reference.execution_times
        assert resumed.seeds == reference.seeds


class TestEngineSelection:
    def test_auto_upgrades_default_backend(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1
        )
        # auto prefers the kernel engine on default semantics.
        assert result.backend == "kernel"
        assert all(r.wall_time_s > 0 for r in result.records)
        assert result.runs_per_second > 0

    def test_auto_upgrades_plain_serial_backend(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1,
            backend=SerialBackend(),
        )
        assert result.backend == "kernel"

    def test_auto_keeps_retrying_serial_backend(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1,
            backend=SerialBackend(retry=RetryPolicy(max_attempts=2)),
        )
        assert result.backend == "serial"

    def test_auto_keeps_serial_subclasses(self, trace):
        class Counting(SerialBackend):
            pass

        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1,
            backend=Counting(),
        )
        assert result.backend == "serial"

    def test_auto_falls_back_for_deployment_mode(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250, mode=OperationMode.DEPLOYMENT),
            runs=5, master_seed=1,
        )
        assert result.backend == "serial"

    def test_scalar_never_upgrades(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1,
            engine="scalar",
        )
        assert result.backend == "serial"

    def test_unknown_engine_rejected(self, trace):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            collect_execution_times(
                trace, CONFIG, Scenario.efl(250), runs=5, engine="warp"
            )

    def test_engine_names_exported(self):
        assert ENGINE_NAMES == ("auto", "scalar", "kernel")

    @pytest.mark.parametrize("engine", ["batch", "sharded"])
    def test_retired_engine_names_rejected(self, trace, engine):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            collect_execution_times(
                trace, CONFIG, Scenario.efl(250), runs=5, engine=engine
            )

    def test_no_backend_takes_a_kernel_flag(self):
        with pytest.raises(TypeError):
            BatchBackend(kernel=True)
        with pytest.raises(TypeError):
            ShardedBatchBackend(workers=2, kernel=True)


class TestStrictEligibility:
    def test_deployment_mode_named_in_error(self, trace):
        with pytest.raises(ConfigurationError, match="analysis-mode"):
            collect_execution_times(
                trace, CONFIG, Scenario.efl(250, mode=OperationMode.DEPLOYMENT),
                runs=4, master_seed=1, engine="kernel",
            )

    def test_profile_named_in_error(self, trace):
        with pytest.raises(ConfigurationError, match="[Pp]rofil"):
            collect_execution_times(
                trace, CONFIG, Scenario.efl(250), runs=4, master_seed=1,
                engine="kernel", profile=True,
            )

    def test_cycle_budget_named_in_error(self, trace):
        with pytest.raises(ConfigurationError, match="cycle-budget"):
            collect_execution_times(
                trace, CONFIG, Scenario.efl(250), runs=4, master_seed=1,
                engine="kernel", cycle_budget=10**9,
            )

    def test_write_through_ablation_named_in_error(self, trace):
        with pytest.raises(ConfigurationError, match="write-through"):
            collect_execution_times(
                trace, replace(CONFIG, dl1_write_back=False), Scenario.efl(250),
                runs=4, master_seed=1, engine="kernel",
            )

    def test_fault_plan_makes_campaign_ineligible(self, trace):
        plan = FaultPlan(seed=1, crash_rate=0.5)
        with installed_fault_plan(plan):
            with pytest.raises(ConfigurationError, match="fault-injection"):
                collect_execution_times(
                    trace, CONFIG, Scenario.efl(250), runs=4, master_seed=1,
                    engine="kernel",
                )

    def test_heterogeneous_requests_rejected(self, trace):
        other = make_stream_trace("other", words=16, sweeps=1)
        a = RunRequest.isolation(trace, CONFIG, Scenario.efl(250), 1, index=0)
        b = RunRequest.isolation(other, CONFIG, Scenario.efl(250), 2, index=1)
        with pytest.raises(ConfigurationError, match="heterogeneous"):
            BatchBackend(strict=True).execute([a, b])

    def test_batch_ineligibility_none_for_analysis_isolation(self, trace):
        request = RunRequest.isolation(trace, CONFIG, Scenario.efl(250), 1)
        assert batch_ineligibility(request) is None

    def test_invalid_max_lanes_rejected(self):
        with pytest.raises(ConfigurationError, match="max_lanes"):
            BatchBackend(max_lanes=0)


class TestFallback:
    def test_non_strict_falls_back_and_reports(self, trace):
        messages = []

        class Recorder(RunObserver):
            def on_message(self, message):
                messages.append(message)

        scenario = Scenario.efl(250, mode=OperationMode.DEPLOYMENT)
        seeds = derive_seeds(11, 4)
        template = RunRequest.isolation(trace, CONFIG, scenario, seeds[0])
        requests = [template.with_run(i, seed) for i, seed in enumerate(seeds)]
        backend = BatchBackend()
        outcomes = backend.execute(requests, observer=Recorder())
        reference = SerialBackend().execute(requests)
        assert [o.checksum for o in outcomes] == [o.checksum for o in reference]
        assert backend.name == "serial"
        assert any("falling back" in message for message in messages)

    def test_empty_request_list(self):
        assert BatchBackend(strict=True).execute([]) == []


class TestEmptySampleErgonomics:
    def test_statistics_name_the_campaign(self):
        result = CampaignResult(
            task="bench", scenario_label="EFL250", execution_times=[],
            instructions=0, runs=0,
        )
        for statistic in ("min_time", "max_time", "mean_time"):
            with pytest.raises(SimulationError) as excinfo:
                getattr(result, statistic)
            message = str(excinfo.value)
            assert "bench" in message
            assert "EFL250" in message
            assert statistic in message

    def test_hwm_index_raises_too(self):
        result = CampaignResult(
            task="bench", scenario_label="EFL250", execution_times=[],
            instructions=0, runs=0,
        )
        with pytest.raises(SimulationError):
            result.hwm_index

    def test_non_empty_sample_unaffected(self):
        result = CampaignResult(
            task="bench", scenario_label="EFL250", execution_times=[3, 1, 2],
            instructions=10, runs=3,
        )
        assert result.min_time == 1
        assert result.max_time == 3
        assert result.mean_time == 2.0
        assert result.hwm_index == 0
