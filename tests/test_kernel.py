"""Kernel engine: bit-identity, compilation, selection.

The kernel engine runs a campaign as lock-step NumPy lanes over a
``TraceProgram`` lowered to fused max-plus chains plus irreducible
cache-access ops (:mod:`repro.sim.kernels`).  It is only allowed to
exist because it is bit-identical to the scalar interpreter: same
execution times, same per-run counters, same checksums, same seeds,
across every analysis scenario class the paper uses.  These tests
assert that contract, the compile pass's accounting (every
instruction lands in exactly one group class), the plan-cache
integration (kernel plans cached alongside their programs, one
program lookup per campaign), the engine-selection policy (``auto``
prefers the kernel; ``--engine kernel`` is strict), and the
cross-engine checkpoint-resume matrix (scalar, in-process and sharded
kernel journals are interchangeable because the sample is
engine-invariant).  ``tests/test_batch.py`` covers the sharded form of
the bit-identity contract and the backends' policy and fallback.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from tests.conftest import make_stream_trace
from tests.test_batch import SCENARIO_CLASSES, record_key

from repro.core.config import OperationMode
from repro.errors import ConfigurationError
from repro.observability import Telemetry
from repro.sim.backend import RunObserver, SerialBackend
from repro.sim.batch import BatchBackend, ShardedBatchBackend
from repro.sim.campaign import collect_execution_times
from repro.sim.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.sim.config import Scenario, SystemConfig
from repro.sim.kernels import (
    ChainOp,
    FetchOp,
    KernelTemplatePlan,
    MemOp,
    compile_kernel_plan,
    numba_available,
)
from repro.sim.plancache import PlanCache
from repro.sim.simulator import RunRequest
from repro.utils.rng import derive_seeds

CONFIG = SystemConfig(l1_size=256, llc_size=2048)


@pytest.fixture(scope="module")
def trace():
    return make_stream_trace("kerneleq", words=48, sweeps=3, store_every=2)


# ----------------------------------------------------------------------
# bit-identity against the scalar oracle
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("config, scenario", SCENARIO_CLASSES)
    def test_campaign_matches_scalar(self, trace, config, scenario):
        scalar = collect_execution_times(
            trace, config, scenario, runs=14, master_seed=9, engine="scalar"
        )
        kernel = collect_execution_times(
            trace, config, scenario, runs=14, master_seed=9, engine="kernel"
        )
        assert kernel.execution_times == scalar.execution_times
        assert kernel.seeds == scalar.seeds
        assert kernel.instructions == scalar.instructions
        assert [record_key(r) for r in kernel.records] == \
            [record_key(r) for r in scalar.records]
        assert kernel.backend == "kernel"
        assert scalar.backend == "serial"

    @pytest.mark.parametrize("config, scenario", SCENARIO_CLASSES)
    def test_outcome_checksums_match_scalar(self, trace, config, scenario):
        seeds = derive_seeds(21, 6)
        template = RunRequest.isolation(trace, config, scenario, seeds[0])
        requests = [template.with_run(i, seed) for i, seed in enumerate(seeds)]
        scalar = SerialBackend().execute(requests)
        kernel = BatchBackend(strict=True).execute(requests)
        assert [o.checksum for o in kernel] == [o.checksum for o in scalar]
        assert [o.result for o in kernel] == [o.result for o in scalar]
        assert all(o.wall_time_s > 0 for o in kernel)

    def test_chunked_lanes_match_unchunked(self, trace):
        seeds = derive_seeds(3, 13)
        template = RunRequest.isolation(
            trace, CONFIG, Scenario.efl(250), seeds[0]
        )
        requests = [template.with_run(i, seed) for i, seed in enumerate(seeds)]
        whole = BatchBackend(strict=True).execute(requests)
        chunked = BatchBackend(strict=True, max_lanes=4).execute(requests)
        assert [o.checksum for o in chunked] == [o.checksum for o in whole]

    def test_sharded_kernel_matches_scalar(self, trace):
        scalar = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=10, master_seed=7,
            engine="scalar",
        )
        sharded = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=10, master_seed=7,
            backend=ShardedBatchBackend(
                workers=2, force_pool=True, strict=True
            ),
        )
        assert sharded.execution_times == scalar.execution_times
        assert sharded.seeds == scalar.seeds

    def test_store_free_trace(self):
        loads_only = make_stream_trace("kloads", words=32, sweeps=2)
        scalar = collect_execution_times(
            loads_only, CONFIG, Scenario.efl(100), runs=8, master_seed=2,
            engine="scalar",
        )
        kernel = collect_execution_times(
            loads_only, CONFIG, Scenario.efl(100), runs=8, master_seed=2,
            engine="kernel",
        )
        assert kernel.execution_times == scalar.execution_times

    @pytest.mark.parametrize("config, scenario", [
        pytest.param(
            replace(CONFIG, placement="modulo", replacement="lru"),
            Scenario.uncontrolled(mode=OperationMode.ANALYSIS), id="td",
        ),
        pytest.param(replace(CONFIG, replacement="lru"), Scenario.efl(100),
                     id="lru-efl"),
    ])
    def test_lru_llc_write_backs_match_scalar(self, config, scenario):
        # A footprint past the L1 but near the LLC size: dirty L1
        # victims land on resident LLC lines (dirty bit + LRU restamp)
        # and dirty LLC victims reach memory, so the LRU write-back
        # path decides both timing and memory_writes.
        trace = make_stream_trace("lruwb", words=512, sweeps=4,
                                  store_every=2)
        scalar = collect_execution_times(
            trace, config, scenario, runs=6, master_seed=3, engine="scalar"
        )
        kernel = collect_execution_times(
            trace, config, scenario, runs=6, master_seed=3, engine="kernel"
        )
        assert any(r.memory_writes for r in scalar.records)
        assert [record_key(r) for r in kernel.records] == \
            [record_key(r) for r in scalar.records]

    def test_numba_probe_degrades_silently(self):
        # This container has no numba: the probe must report that and
        # the engine must still have produced bit-identical samples
        # above through the pure NumPy path.
        assert numba_available() in (True, False)


# ----------------------------------------------------------------------
# the compile pass
# ----------------------------------------------------------------------
class TestCompile:
    def test_every_instruction_lands_in_one_group(self, trace):
        cache = PlanCache()
        program = cache.program(trace, CONFIG)
        plan = compile_kernel_plan(program, CONFIG)
        stats = plan.stats
        grouped = (
            stats["fetch_streak"] + stats["ifetch"]
        )
        assert grouped == program.instructions
        # The execute/memory phase of every instruction is likewise
        # classified exactly once.
        assert (stats["alu"] + stats["data_fast"] + stats["dmem"]) \
            == program.instructions
        assert plan.instructions == program.instructions

    def test_chains_fuse_deterministic_phases(self, trace):
        cache = PlanCache()
        program = cache.program(trace, CONFIG)
        plan = compile_kernel_plan(program, CONFIG)
        kinds = {type(op) for op in plan.ops}
        assert kinds <= {ChainOp, FetchOp, MemOp}
        chains = [op for op in plan.ops if isinstance(op, ChainOp)]
        assert len(chains) == plan.stats["chains"]
        assert plan.stats["chains"] >= 1
        # Fusion is the point: strictly fewer ops than the interpreter's
        # two phases (fetch + execute/memory) per instruction.
        assert len(plan.ops) < 2 * program.instructions
        assert plan.stats["fused_phases"] == sum(c.fused for c in chains)
        assert plan.stats["fused_phases"] > 0

    def test_first_fetch_is_irreducible(self, trace):
        # Instruction 0 can never be a fetch-fast hit (no prior line),
        # so compilation always opens with a real IL1 access.
        cache = PlanCache()
        program = cache.program(trace, CONFIG)
        plan = compile_kernel_plan(program, CONFIG)
        assert isinstance(plan.ops[0], FetchOp)

    def test_group_class_counters_on_metrics_registry(self, trace):
        telemetry = Telemetry()
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=4, master_seed=3,
            engine="kernel", plan_cache=PlanCache(), telemetry=telemetry,
        )
        metrics = telemetry.metrics
        fetch_groups = (
            metrics.value("kernel_steps_fetch_streak")
            + metrics.value("kernel_steps_ifetch")
        )
        mem_groups = (
            metrics.value("kernel_steps_alu")
            + metrics.value("kernel_steps_data_fast")
            + metrics.value("kernel_steps_dmem")
        )
        assert fetch_groups == result.instructions
        assert mem_groups == result.instructions
        assert metrics.value("kernel_chains") >= 1
        assert metrics.value("kernel_plan_misses") == 1


# ----------------------------------------------------------------------
# plan cache integration
# ----------------------------------------------------------------------
class TestKernelPlanCache:
    def test_kernel_plan_cached_alongside_program(self, trace):
        cache = PlanCache()
        request = RunRequest.isolation(trace, CONFIG, Scenario.efl(250), 1)
        first = KernelTemplatePlan.for_request(request, cache)
        again = KernelTemplatePlan.for_request(request, cache)
        assert again.kernel is first.kernel
        assert again.program is first.program
        assert (cache.kernel_hits, cache.kernel_misses) == (1, 1)
        # One program lookup per request, so compile-once assertions
        # hold whether the campaign ran in-process or sharded.
        assert cache.snapshot() == (1, 1)

    def test_kernel_campaigns_share_compiled_plans(self, trace):
        cache = PlanCache()
        for master_seed, mid in ((1, 250), (2, 500)):
            collect_execution_times(
                trace, CONFIG, Scenario.efl(mid), runs=4,
                master_seed=master_seed, engine="kernel", plan_cache=cache,
            )
        # The trace compiled once (program and kernel plan); the second
        # campaign — different scenario, same (trace, config) — hit both.
        assert cache.snapshot() == (1, 1)
        assert (cache.kernel_hits, cache.kernel_misses) == (1, 1)


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_explicit_kernel_engine(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1,
            engine="kernel",
        )
        assert result.backend == "kernel"

    def test_auto_prefers_kernel(self, trace):
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=5, master_seed=1,
        )
        assert result.backend == "kernel"

    def test_strict_kernel_rejects_deployment_mode(self, trace):
        with pytest.raises(ConfigurationError, match="analysis-mode"):
            collect_execution_times(
                trace, CONFIG,
                Scenario.efl(250, mode=OperationMode.DEPLOYMENT),
                runs=4, master_seed=1, engine="kernel",
            )

    def test_kernel_with_workers_is_sharded_kernel(self, trace):
        scalar = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=6, master_seed=4,
            engine="scalar",
        )
        result = collect_execution_times(
            trace, CONFIG, Scenario.efl(250), runs=6, master_seed=4,
            engine="kernel", workers=2,
        )
        assert result.execution_times == scalar.execution_times


# ----------------------------------------------------------------------
# cross-engine checkpoint resume (satellite: kernel joins the matrix)
# ----------------------------------------------------------------------
class KillAfter(RunObserver):
    def __init__(self, limit):
        self.limit = limit
        self.seen = 0

    def on_run(self, record):
        self.seen += 1
        if self.seen >= self.limit:
            raise KeyboardInterrupt


#: (first engine, resuming engine) pairs: the kernel must be able to
#: adopt any engine's journal and vice versa, because all engines
#: derive the identical sample.  "batch" and "sharded" hand the
#: campaign an explicit BatchBackend / ShardedBatchBackend instance
#: instead of naming an engine.
RESUME_PAIRS = [
    pytest.param("scalar", "kernel", id="scalar-to-kernel"),
    pytest.param("kernel", "scalar", id="kernel-to-scalar"),
    pytest.param("batch", "kernel", id="batch-to-kernel"),
    pytest.param("kernel", "batch", id="kernel-to-batch"),
    pytest.param("kernel", "sharded", id="kernel-to-sharded"),
]


class TestResumeAcrossEngines:
    def _engine_kwargs(self, engine):
        if engine == "batch":
            return {"backend": BatchBackend(strict=True)}
        if engine == "sharded":
            return {
                "backend": ShardedBatchBackend(
                    workers=2, force_pool=True, strict=True
                ),
            }
        return {"engine": engine}

    @pytest.mark.parametrize("first, second", RESUME_PAIRS)
    def test_journals_interchangeable(self, trace, tmp_path, first, second):
        journal = tmp_path / "campaign.jsonl"
        scenario = Scenario.efl(250)
        reference = collect_execution_times(
            trace, CONFIG, scenario, runs=12, master_seed=4, engine="scalar"
        )
        with pytest.raises(KeyboardInterrupt):
            collect_execution_times(
                trace, CONFIG, scenario, runs=12, master_seed=4,
                observer=KillAfter(5),
                checkpoint=CampaignCheckpoint(journal, resume=True),
                **self._engine_kwargs(first),
            )
        survived = len(journal.read_text().splitlines()) - 1
        assert survived >= 5
        resumed = collect_execution_times(
            trace, CONFIG, scenario, runs=12, master_seed=4,
            checkpoint=CampaignCheckpoint(journal, resume=True),
            **self._engine_kwargs(second),
        )
        assert resumed.resumed_runs == survived
        assert resumed.execution_times == reference.execution_times
        assert resumed.seeds == reference.seeds

    def test_fingerprint_is_engine_invariant(self, trace):
        # The campaign fingerprint digests (trace, config, scenario,
        # seed, runs) — never the engine — so journals and store
        # entries written under one engine address the same campaign
        # under any other.
        fingerprint = campaign_fingerprint(
            trace, CONFIG, Scenario.efl(250), 4, 12
        )
        assert fingerprint == campaign_fingerprint(
            trace, CONFIG, Scenario.efl(250), 4, 12
        )
        results = {
            (engine, workers): collect_execution_times(
                trace, CONFIG, Scenario.efl(250), runs=6, master_seed=4,
                engine=engine, workers=workers,
            )
            for engine, workers in (("scalar", None), ("kernel", None),
                                    ("kernel", 2))
        }
        times = {tuple(r.execution_times) for r in results.values()}
        assert len(times) == 1
