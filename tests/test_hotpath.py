"""Hot-path equivalence: optimised vs reference, profiled vs plain.

The backend-equivalence analogue for the single-run optimisations:
every scenario class the simulator supports must produce bit-identical
:class:`~repro.sim.simulator.RunResult` timing through

* the optimised hot path (the shipped implementations),
* the preserved pre-optimisation reference path
  (:mod:`repro.sim.reference`), and
* the optimised path with profiling enabled (``profile=True``).

Deployment co-runs get their own scenario classes: the burst
scheduler must reproduce the per-instruction heap scheduler of the
reference path, core-id tie-breaks included.

Also sanity-checks the profiler's attribution against independently
tracked counters (EFL stall cycles) and its behaviour across the
process backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OperationMode
from repro.cpu.isa import OpKind
from repro.cpu.pipeline import InOrderPipeline
from repro.cpu.trace import Trace
from repro.errors import RunTimeoutError
from repro.sim.backend import ProcessPoolBackend, ProfilingObserver, SerialBackend
from repro.sim.config import Scenario, SystemConfig
from repro.sim.profiler import COMPONENTS, HotPathProfiler, ProfileSnapshot
from repro.sim.reference import reference_hot_path
from repro.sim.simulator import RunRequest, execute_request, run_workload
from repro.workloads.scale import ExperimentScale
from repro.workloads.suite import build_benchmark

SEED = 20140601
DEPLOYMENT = OperationMode.DEPLOYMENT


def _core_timings(result):
    return [
        (core.core, core.cycles, core.instructions, core.efl_stall_cycles)
        for core in result.cores
    ]


def _run_results_equal(a, b):
    assert _core_timings(a) == _core_timings(b)
    assert a.llc_hits == b.llc_hits
    assert a.llc_misses == b.llc_misses
    assert a.llc_forced_evictions == b.llc_forced_evictions
    assert a.memory_reads == b.memory_reads
    assert a.memory_writes == b.memory_writes


def _requests():
    """One request per scenario class the simulator distinguishes."""
    tr_config = SystemConfig()
    td_config = SystemConfig(placement="modulo", replacement="lru")
    trace = build_benchmark("ID", scale=0.5)
    trace_b = build_benchmark("MA", scale=0.5)
    return {
        "efl-analysis": RunRequest.isolation(
            trace, tr_config, Scenario.efl(500), SEED
        ),
        "cp-analysis": RunRequest.isolation(
            trace,
            tr_config,
            Scenario.cache_partitioning(2, num_cores=tr_config.num_cores),
            SEED,
        ),
        "td-uncontrolled": RunRequest.isolation(
            trace, td_config, Scenario.uncontrolled(OperationMode.ANALYSIS), SEED
        ),
        "efl-deployment-workload": RunRequest.workload(
            (trace, trace_b),
            tr_config,
            Scenario.efl(500, mode=OperationMode.DEPLOYMENT),
            SEED,
        ),
        "a2-write-through": RunRequest.isolation(
            trace, SystemConfig(dl1_write_back=False), Scenario.efl(500), SEED
        ),
    }


def _corun_requests():
    """One deployment co-run per scheduler/inline-path class."""
    config = ExperimentScale.quick().system_config()
    traces = tuple(
        build_benchmark(bench, scale=0.125) for bench in ("ID", "MA", "CN", "RS")
    )
    unequal = (
        build_benchmark("MA", scale=0.25),
        build_benchmark("ID", scale=0.0625),
        build_benchmark("RS", scale=0.125),
        build_benchmark("CN", scale=0.0625),
    )
    return {
        # Uneven ways: the cores' partitions differ in size.
        "cp-uneven-ways": RunRequest.workload(
            traces, config,
            Scenario.cache_partitioning((4, 2, 1, 1), mode=DEPLOYMENT), SEED,
        ),
        # Unequal trace lengths: cores retire and the heap shrinks.
        "efl-unequal-lengths": RunRequest.workload(
            unequal, config, Scenario.efl(250, mode=DEPLOYMENT), SEED,
        ),
        # LRU + modulo L1s: no inline hit path at all.
        "td-lru-modulo": RunRequest.workload(
            traces,
            ExperimentScale.quick().system_config(
                placement="modulo", replacement="lru"
            ),
            Scenario.uncontrolled(DEPLOYMENT), SEED,
        ),
        # Write-through DL1: stores take store_through inside co-runs.
        "write-through": RunRequest.workload(
            traces,
            ExperimentScale.quick().system_config(dl1_write_back=False),
            Scenario.efl(500, mode=DEPLOYMENT), SEED,
        ),
    }


def _assert_corun_equal(a, b):
    # Whole per-core results: cycles, instructions, L1 accesses and
    # misses (inline hits included), EFL stalls and evictions.
    assert a.cores == b.cores
    _run_results_equal(a, b)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("label", sorted(_requests()))
    def test_reference_path_is_bit_identical(self, label):
        request = _requests()[label]
        optimised = execute_request(request)
        with reference_hot_path():
            reference = execute_request(request)
        _run_results_equal(optimised, reference)

    @pytest.mark.parametrize("label", sorted(_corun_requests()))
    def test_burst_scheduler_matches_per_instruction_reference(self, label):
        request = _corun_requests()[label]
        optimised = execute_request(request)
        with reference_hot_path():
            reference = execute_request(request)
        _assert_corun_equal(optimised, reference)

    def test_cycle_budget_trips_at_the_same_instruction(self):
        request = _corun_requests()["cp-uneven-ways"]
        budget = execute_request(request).cycles // 3
        budgeted = RunRequest.workload(
            request.traces, request.config, request.scenario, request.seed,
            cycle_budget=budget,
        )
        with pytest.raises(RunTimeoutError) as optimised:
            execute_request(budgeted)
        with reference_hot_path():
            with pytest.raises(RunTimeoutError) as reference:
                execute_request(budgeted)
        assert str(optimised.value) == str(reference.value)
        assert f"> {budget} simulated cycles" in str(optimised.value)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 15),  # pc slot: few lines, many hits
                    st.sampled_from([int(kind) for kind in OpKind]),
                    st.integers(0, 31),  # data word: few lines
                ),
                min_size=1, max_size=40,
            ),
            min_size=1, max_size=4,
        ),
        st.booleans(),
    )
    def test_burst_order_on_tied_synthetic_traces(self, programs, share):
        # Tiny, often identical traces keep the cores' schedule keys
        # tied, so the core-id tie-break decides the order.
        traces = []
        for core, program in enumerate(programs):
            if share:
                program = programs[0]
            kinds = [kind for _pc, kind, _word in program]
            traces.append(Trace(
                f"synthetic{core}",
                [0x1000 + 4 * pc for pc, _kind, _word in program],
                kinds,
                [0x8000 + 4 * word if kind in (OpKind.LOAD, OpKind.STORE)
                 else None
                 for (_pc, kind, word) in program],
            ))
        config = SystemConfig(l1_size=256, llc_size=1024)
        scenario = Scenario.efl(250, mode=DEPLOYMENT)
        optimised = run_workload(traces, config, scenario, SEED)
        with reference_hot_path():
            reference = run_workload(traces, config, scenario, SEED)
        _assert_corun_equal(optimised, reference)

    def test_reference_context_steps_every_instruction(self):
        # The shipped path never calls InOrderPipeline.step; inside the
        # reference context the per-instruction scheduler and isolation
        # loop put every instruction through it exactly once.
        requests = (
            _corun_requests()["efl-unequal-lengths"],
            _requests()["efl-analysis"],
        )
        shipped = InOrderPipeline.step
        calls = []

        def counting(step):
            def wrapper(self, pc, kind, address):
                calls.append(kind)
                return step(self, pc, kind, address)
            return wrapper

        InOrderPipeline.step = counting(shipped)
        try:
            for request in requests:
                execute_request(request)
        finally:
            InOrderPipeline.step = shipped
        assert calls == []

        with reference_hot_path():
            InOrderPipeline.step = counting(shipped)
            try:
                for request in requests:
                    result = execute_request(request)
                    assert len(calls) == sum(
                        core.instructions for core in result.cores
                    )
                    calls.clear()
            finally:
                InOrderPipeline.step = shipped

    def test_reference_context_restores_implementations(self):
        from repro.mem.cache import Cache
        before = Cache.__dict__["access"]
        with reference_hot_path():
            assert Cache.__dict__["access"] is not before
        assert Cache.__dict__["access"] is before

    def test_reference_context_restores_on_error(self):
        from repro.mem.cache import Cache
        before = Cache.__dict__["access"]
        with pytest.raises(RuntimeError):
            with reference_hot_path():
                raise RuntimeError("boom")
        assert Cache.__dict__["access"] is before


class TestProfilerEquivalence:
    @pytest.mark.parametrize("label", sorted(_requests()))
    def test_profiling_never_changes_timing(self, label):
        request = _requests()[label]
        plain = execute_request(request)
        profiled = execute_request(
            RunRequest(
                request.engine, request.traces, request.config,
                request.scenario, request.seed, request.index,
                request.core_id, profile=True,
            )
        )
        _run_results_equal(plain, profiled)
        assert plain.profile is None
        assert profiled.profile is not None

    def test_efl_attribution_matches_stall_counters(self):
        request = _requests()["efl-analysis"]
        profiled = execute_request(
            RunRequest.isolation(
                request.traces[0], request.config, request.scenario,
                request.seed, profile=True,
            )
        )
        stalls = sum(core.efl_stall_cycles for core in profiled.cores)
        assert profiled.profile.cycles["efl"] == stalls

    def test_all_components_present_in_snapshot(self):
        request = _requests()["efl-analysis"]
        profiled = execute_request(
            RunRequest.isolation(
                request.traces[0], request.config, request.scenario,
                request.seed, profile=True,
            )
        )
        snap = profiled.profile
        assert set(snap.events) == set(COMPONENTS)
        assert set(snap.cycles) == set(COMPONENTS)
        # A non-trivial EFL run must touch every component.
        assert all(snap.events[name] > 0 for name in COMPONENTS)
        assert snap.total_cycles > 0
        assert snap.total_wall_s > 0


class TestProfilerPrimitives:
    def test_account_and_snapshot(self):
        profiler = HotPathProfiler()
        profiler.account("bus", 10, 0.5)
        profiler.account("bus", 5)
        snap = profiler.snapshot()
        assert snap.events["bus"] == 2
        assert snap.cycles["bus"] == 15
        assert snap.wall_s["bus"] == pytest.approx(0.5)

    def test_snapshot_is_frozen_copy(self):
        profiler = HotPathProfiler()
        snap = profiler.snapshot()
        profiler.account("llc", 7)
        assert snap.cycles["llc"] == 0

    def test_merge_skips_none(self):
        a = ProfileSnapshot(events={"bus": 1}, cycles={"bus": 2}, wall_s={"bus": 0.1})
        b = ProfileSnapshot(events={"bus": 3}, cycles={"bus": 4}, wall_s={"bus": 0.2})
        merged = ProfileSnapshot.merge([a, None, b])
        assert merged.events["bus"] == 4
        assert merged.cycles["bus"] == 6
        assert merged.wall_s["bus"] == pytest.approx(0.3)


class TestProfilingObserver:
    def _requests_batch(self, profile):
        trace = build_benchmark("ID", scale=0.25)
        template = RunRequest.isolation(
            trace, SystemConfig(), Scenario.efl(500), SEED, profile=profile
        )
        return [template.with_run(i, SEED + i) for i in range(4)]

    def test_collects_snapshots_serially(self):
        observer = ProfilingObserver()
        outcomes = SerialBackend().execute(
            self._requests_batch(profile=True), observer=observer
        )
        assert len(observer.snapshots) == len(outcomes) == 4
        assert observer.total.total_cycles == sum(
            snap.total_cycles for snap in observer.snapshots
        )

    def test_no_snapshots_without_profile(self):
        observer = ProfilingObserver()
        SerialBackend().execute(self._requests_batch(profile=False), observer=observer)
        assert observer.snapshots == []

    def test_snapshots_survive_process_backend(self):
        serial_observer = ProfilingObserver()
        SerialBackend().execute(
            self._requests_batch(profile=True), observer=serial_observer
        )
        process_observer = ProfilingObserver()
        ProcessPoolBackend(workers=2, force_pool=True).execute(
            self._requests_batch(profile=True), observer=process_observer
        )
        assert len(process_observer.snapshots) == 4
        # Cycle attribution is deterministic (wall times are not).
        assert process_observer.total.cycles == serial_observer.total.cycles
        assert process_observer.total.events == serial_observer.total.events
