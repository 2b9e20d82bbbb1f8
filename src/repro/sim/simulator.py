"""Execution engines: isolation (analysis) and multicore (deployment).

:func:`run_isolation` reproduces the paper's analysis stage: the task
under analysis runs alone on core 0 of a freshly randomised platform;
interference from the other cores arrives either as CRG force-miss
evictions (EFL scenarios) or not at all (CP partitions isolate), and
bus/memory interference is charged its composable upper bound.

:func:`run_workload` reproduces the deployment stage: up to
``num_cores`` tasks run simultaneously, sharing the bus, the LLC
(partitioned or EFL-throttled) and the memory controller with real
contention.

Cross-core event ordering in deployment mode is kept approximately
time-ordered by advancing cores in ``(schedule_key, core_id)`` order
(see :attr:`CoreRunner.schedule_key`); reordering is bounded by one
instruction's latency.  The scheduler runs the minimum core in a burst
until its ``(key, core_id)`` passes the next core's.  That is exactly
the per-instruction order: another core's key changes only when that
core steps, and keys never decrease.  The analysis engine has no
ordering approximation (a single active core; CRG evictions are
replayed in exact time order), so the trust-critical side of the
paper — analysis-time bounds — is modelled exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.core.config import OperationMode
from repro.cpu.pipeline import _EXEC_LATENCY_BY_KIND, _STORE_KIND, InOrderPipeline
from repro.cpu.trace import Trace
from repro.errors import ConfigurationError, RunTimeoutError, SimulationError
from repro.mem.cache import Cache
from repro.mem.placement import RandomPlacement
from repro.sim.config import Scenario, SystemConfig
from repro.sim.memorypath import MemoryPath
from repro.sim.platform import Platform, build_platform
from repro.sim.profiler import HotPathProfiler, ProfileSnapshot

#: An unreachable schedule key or cycle budget: run to the trace's end.
_NO_LIMIT = float("inf")


@dataclass
class CoreResult:
    """Outcome of one task on one core in one run."""

    core: int
    task: str
    cycles: int
    instructions: int
    il1_misses: int
    il1_accesses: int
    dl1_misses: int
    dl1_accesses: int
    efl_stall_cycles: int = 0
    efl_evictions: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle of this task."""
        if self.cycles <= 0:
            raise SimulationError(f"task {self.task!r} retired in {self.cycles} cycles")
        return self.instructions / self.cycles


@dataclass
class RunResult:
    """Outcome of one simulated run (one or more cores)."""

    scenario_label: str
    mode: OperationMode
    cores: List[CoreResult]
    llc_hits: int
    llc_misses: int
    llc_forced_evictions: int
    memory_reads: int
    memory_writes: int
    #: Per-component attribution, present only for profiled runs.
    profile: Optional[ProfileSnapshot] = None

    @property
    def cycles(self) -> int:
        """Makespan: cycles until the last task finished."""
        return max(core.cycles for core in self.cores)

    def core(self, index: int) -> CoreResult:
        """Result of the task on core ``index``."""
        for result in self.cores:
            if result.core == index:
                return result
        raise SimulationError(f"no result for core {index}")

    @property
    def total_ipc(self) -> float:
        """Sum of per-task IPCs (the paper's workload IPC aggregate)."""
        return sum(core.ipc for core in self.cores)


class CoreRunner:
    """Drives one trace through one core's pipeline and private caches."""

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        il1: Cache,
        dl1: Cache,
        path: MemoryPath,
        config: SystemConfig,
        profiler: Optional[HotPathProfiler] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.il1 = il1
        self.dl1 = dl1
        self.path = path
        self.config = config
        self._profiler = profiler
        self._l1_hit = config.l1_hit_latency
        self._line_shift = config.line_size.bit_length() - 1
        self._wb_dl1 = config.dl1_write_back
        self.pipeline = InOrderPipeline(self._fetch_latency, self._mem_latency)
        self._iter = iter(trace)
        self._remaining = len(trace)
        # Hot-line shortcuts of the burst loop (:meth:`run_until`),
        # sound for stateless (EoM) replacement only: a resident line
        # stays resident until the next fill of the same cache, and hits
        # mutate nothing — so re-probing the line we just touched is
        # pure overhead.  LRU caches must take the full path because
        # their hits update recency state.
        self._shortcut_il1 = il1._stateless_repl
        self._shortcut_dl1 = dl1._stateless_repl and config.dl1_write_back
        self._last_iline = -1
        self._last_dline = -1
        self._fast_ihits = 0
        self._fast_dhits = 0
        # The core has a single port towards the shared levels and
        # blocking miss handling (one outstanding miss), standard for
        # simple in-order real-time cores: a fetch miss issued while a
        # data miss is in flight waits for the port.  This also
        # guarantees the shared resources (bus, memory controller, EFL
        # ACU) see this core's requests in non-decreasing time order.
        self._port_free = 0

    # ------------------------------------------------------------------
    # latency callbacks
    # ------------------------------------------------------------------
    def _fetch_latency(self, pc: int, time: int) -> int:
        line = pc >> self._line_shift
        prof = self._profiler
        if prof is None:
            result = self.il1.access(line)
        else:
            t0 = perf_counter()
            result = self.il1.access(line)
            wall = perf_counter() - t0
        if result.hit:
            if prof is not None:
                prof.account("l1", self._l1_hit, wall)
            return self._l1_hit
        if prof is not None:
            # The lookup that missed: its wall time belongs to the L1
            # model, the miss cycles to the memory-path legs below.
            prof.account("l1", 0, wall)
        # Instruction lines are never dirty; the victim (if any) is
        # silently dropped.
        issue = time if time >= self._port_free else self._port_free
        done = self.path.fill(self.core_id, line, issue)
        self._port_free = done
        return done - time

    def _mem_latency(self, address: int, is_store: bool, time: int) -> int:
        line = address >> self._line_shift
        prof = self._profiler
        if is_store and not self._wb_dl1:
            # Write-through DL1 (A2 ablation): update the DL1 copy if
            # present (no allocation on miss), write through to the LLC.
            if self.dl1.probe(line):
                self.dl1.access(line)
            issue = time if time >= self._port_free else self._port_free
            done = self.path.store_through(self.core_id, line, issue)
            self._port_free = done
            return done - time
        if prof is None:
            result = self.dl1.access(line, write=is_store)
        else:
            t0 = perf_counter()
            result = self.dl1.access(line, write=is_store)
            wall = perf_counter() - t0
        if result.hit:
            if prof is not None:
                prof.account("l1", self._l1_hit, wall)
            return self._l1_hit
        if prof is not None:
            prof.account("l1", 0, wall)
        issue = time if time >= self._port_free else self._port_free
        done = self.path.fill(self.core_id, line, issue)
        self._port_free = done
        if result.eviction is not None and result.eviction.dirty:
            self.path.l1_writeback(self.core_id, result.eviction.line, done)
        return done - time

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the whole trace has retired."""
        return self._remaining == 0

    @property
    def schedule_key(self) -> int:
        """Lower bound on this core's next shared-resource access time.

        The multicore scheduler runs the core with the lowest key.
        The fetch frontier alone is not enough: while a long miss is in
        flight the fetch of the next instruction has already happened,
        but the core's next bus/LLC/memory request cannot issue before
        the miss completes (``_port_free``).  Ordering by the maximum
        of both keeps cross-core shared-resource requests near
        time-order, which the FCFS resource models rely on.
        """
        frontier = self.pipeline.frontier
        return frontier if frontier >= self._port_free else self._port_free

    def run_until(self, limit: float, cycle_budget: float = _NO_LIMIT) -> int:
        """Run at least one instruction, until :attr:`schedule_key`
        reaches ``limit`` or the trace retires; return the new key.

        The :meth:`InOrderPipeline.step` recurrence runs on locals, and
        so do the L1 hits of stateless (EoM) random-placement caches:
        the ``_tags`` lookup, ``stats.hits`` and the store's dirty bit
        of :meth:`Cache.access`.  Misses, write-through stores, LRU or
        modulo L1s and profiled runs take the latency callbacks.  A
        clock past ``cycle_budget`` raises a deterministic (never
        retried) :class:`~repro.errors.RunTimeoutError`.
        """
        pipeline = self.pipeline
        end_fetch, start_decode = pipeline._end_fetch, pipeline._start_decode
        start_mem, start_wb = pipeline._start_mem, pipeline._start_wb
        end_wb, instructions = pipeline._end_wb, pipeline.instructions
        port_free = self._port_free
        fetch_latency, mem_latency = self._fetch_latency, self._mem_latency
        exec_latency = _EXEC_LATENCY_BY_KIND
        shift, l1_hit = self._line_shift, self._l1_hit
        plain = self._profiler is None
        # Inline hit paths; ``None`` routes every access to a callback.
        imemo = dmemo = None
        il1, dl1 = self.il1, self.dl1
        if plain and self._shortcut_il1 and type(il1.placement) is RandomPlacement:
            imemo, itags = il1.placement._memo, il1._tags
        if plain and self._shortcut_dl1 and dl1.write_back \
                and type(dl1.placement) is RandomPlacement:
            dmemo, dtags, ddirty = dl1.placement._memo, dl1._tags, dl1._dirty
        last_iline = self._last_iline if imemo is not None else -1
        last_dline = self._last_dline if dmemo is not None else -1
        fast_ihits = fast_dhits = ihits = dhits = 0
        key = end_fetch if end_fetch >= port_free else port_free
        try:
            for pc, kind, address in self._iter:
                # Fetch: the latch frees when the previous instruction
                # enters decode.
                start_fetch = end_fetch if end_fetch >= start_decode else start_decode
                line = pc >> shift
                if line == last_iline:
                    fast_ihits += 1
                    end_fetch = start_fetch + l1_hit
                elif imemo is not None and (index := imemo.get(line)) is not None \
                        and line in itags[index]:
                    ihits += 1
                    last_iline = line
                    end_fetch = start_fetch + l1_hit
                else:
                    end_fetch = start_fetch + fetch_latency(pc, start_fetch)
                    port_free = self._port_free
                    if imemo is not None:
                        last_iline = line  # just filled, now resident
                # Decode (1 cycle), then memory/execute once the
                # previous instruction entered write-back.
                start_decode = end_fetch if end_fetch >= start_mem else start_mem
                end_decode = start_decode + 1
                start_mem = end_decode if end_decode >= start_wb else start_wb
                try:
                    latency = exec_latency[kind]
                except (IndexError, TypeError):
                    raise SimulationError(f"unknown op kind {kind!r}") from None
                if latency is None:
                    line = address >> shift
                    is_store = kind == _STORE_KIND
                    if not is_store and line == last_dline:
                        fast_dhits += 1
                        latency = l1_hit
                    elif dmemo is not None and (index := dmemo.get(line)) is not None \
                            and line in (tags := dtags[index]):
                        dhits += 1
                        if is_store:
                            ddirty[index][tags.index(line)] = True
                        last_dline = line
                        latency = l1_hit
                    else:
                        latency = mem_latency(address, is_store, start_mem)
                        port_free = self._port_free
                        if dmemo is not None:
                            last_dline = line  # just filled, now resident
                if latency < 1:
                    raise SimulationError(
                        f"stage latency must be >= 1 cycle, callback returned {latency}"
                    )
                end_mem = start_mem + latency
                start_wb = end_mem if end_mem >= end_wb else end_wb
                end_wb = start_wb + 1
                instructions += 1
                if end_wb > cycle_budget:
                    raise_cycle_budget_exceeded(
                        self.trace.name, self.core_id, end_wb, instructions,
                        cycle_budget,
                    )
                key = end_fetch if end_fetch >= port_free else port_free
                if key >= limit:
                    break
        finally:
            pipeline._end_fetch, pipeline._start_decode = end_fetch, start_decode
            pipeline._start_mem, pipeline._start_wb = start_mem, start_wb
            pipeline._end_wb, pipeline.instructions = end_wb, instructions
            self._remaining = len(self.trace) - instructions
            self._fast_ihits += fast_ihits
            self._fast_dhits += fast_dhits
            il1.stats.hits += ihits
            dl1.stats.hits += dhits
            if imemo is not None:
                self._last_iline = last_iline
            if dmemo is not None:
                self._last_dline = last_dline
        return key

    def run_to_completion(self, cycle_budget: Optional[int] = None) -> None:
        """Execute the remaining trace without interleaving."""
        self.run_until(_NO_LIMIT, _NO_LIMIT if cycle_budget is None else cycle_budget)

    def result(self, platform: Platform) -> CoreResult:
        """Snapshot this core's outcome."""
        efl = platform.efl
        return CoreResult(
            core=self.core_id,
            task=self.trace.name,
            cycles=self.pipeline.time,
            instructions=self.pipeline.instructions,
            il1_misses=self.il1.stats.misses,
            il1_accesses=self.il1.stats.accesses + self._fast_ihits,
            dl1_misses=self.dl1.stats.misses,
            dl1_accesses=self.dl1.stats.accesses + self._fast_dhits,
            efl_stall_cycles=efl.stall_cycles(self.core_id) if efl else 0,
            efl_evictions=efl.acus[self.core_id].evictions if efl else 0,
        )


def raise_cycle_budget_exceeded(
    task: str, core_id: int, time: int, instructions: int, budget: int
) -> None:
    """Abort a run whose simulated clock passed its cycle budget."""
    raise RunTimeoutError(
        f"task {task!r} on core {core_id} exceeded its cycle budget: "
        f"{time} > {budget} simulated cycles after {instructions} "
        f"instructions (deterministic for this seed; not retried)",
        transient=False,
    )


def _run_cores(runners: Sequence[CoreRunner], cycle_budget: Optional[int]) -> None:
    """Co-run ``runners`` in ``(schedule_key, core_id)`` order: the
    minimum core runs until its key passes the top of the heap's."""
    budget = _NO_LIMIT if cycle_budget is None else cycle_budget
    heap: List[Tuple[int, int, CoreRunner]] = [
        (runner.schedule_key, runner.core_id, runner) for runner in runners
    ]
    heapq.heapify(heap)
    while heap:
        _key, core, runner = heapq.heappop(heap)
        if heap:
            next_key, next_core, _next = heap[0]
            # Tie on the key: the lower core id keeps running.
            limit = next_key + 1 if core < next_core else next_key
        else:
            limit = _NO_LIMIT
        key = runner.run_until(limit, budget)
        if not runner.finished:
            heapq.heappush(heap, (key, core, runner))


def _finalise(
    platform: Platform,
    path: MemoryPath,
    cores: List[CoreResult],
    profiler: Optional[HotPathProfiler] = None,
) -> RunResult:
    return RunResult(
        scenario_label=platform.scenario.label(),
        mode=platform.mode,
        cores=cores,
        llc_hits=path.llc_hits,
        llc_misses=path.llc_misses,
        llc_forced_evictions=platform.llc.stats.forced_evictions,
        memory_reads=platform.memory.reads,
        memory_writes=platform.memory.writes,
        profile=profiler.snapshot() if profiler is not None else None,
    )


def run_isolation(
    trace: Trace,
    config: SystemConfig,
    scenario: Scenario,
    seed: int,
    core_id: int = 0,
    profile: bool = False,
    cycle_budget: Optional[int] = None,
) -> RunResult:
    """Run one task alone on ``core_id`` (the paper's analysis stage).

    The scenario's mode decides whether composable upper bounds and CRG
    interference apply (``ANALYSIS``) or the task simply enjoys an
    otherwise idle machine (``DEPLOYMENT``, useful as a best case).
    ``profile`` attaches a per-component attribution snapshot to the
    result; it never changes the simulated timing.  ``cycle_budget``
    arms the livelock watchdog (deterministic
    :class:`~repro.errors.RunTimeoutError` past the budget).
    """
    platform = build_platform(config, scenario, seed, analysed_core=core_id)
    if not 0 <= core_id < config.num_cores:
        raise ConfigurationError(f"core_id {core_id} out of range")
    profiler = HotPathProfiler() if profile else None
    path = MemoryPath(platform, profiler)
    runner = CoreRunner(
        core_id, trace, platform.il1s[core_id], platform.dl1s[core_id], path, config,
        profiler=profiler,
    )
    runner.run_to_completion(cycle_budget=cycle_budget)
    return _finalise(platform, path, [runner.result(platform)], profiler)


def run_workload(
    traces: Sequence[Trace],
    config: SystemConfig,
    scenario: Scenario,
    seed: int,
    profile: bool = False,
    cycle_budget: Optional[int] = None,
) -> RunResult:
    """Co-run up to ``num_cores`` tasks (the paper's deployment stage).

    ``traces[i]`` runs on core ``i``.  Tasks retire independently; a
    finished task stops contending for shared resources.
    ``cycle_budget`` arms the livelock watchdog on the makespan clock.
    """
    if scenario.mode is not OperationMode.DEPLOYMENT:
        raise ConfigurationError("run_workload requires a deployment-mode scenario")
    if not traces:
        raise ConfigurationError("run_workload needs at least one trace")
    if len(traces) > config.num_cores:
        raise ConfigurationError(
            f"{len(traces)} tasks exceed the {config.num_cores}-core platform"
        )
    platform = build_platform(config, scenario, seed)
    profiler = HotPathProfiler() if profile else None
    path = MemoryPath(platform, profiler)
    runners = [
        CoreRunner(i, trace, platform.il1s[i], platform.dl1s[i], path, config,
                   profiler=profiler)
        for i, trace in enumerate(traces)
    ]
    _run_cores(runners, cycle_budget)
    return _finalise(
        platform, path, [runner.result(platform) for runner in runners], profiler
    )


# ----------------------------------------------------------------------
# run construction / run execution split
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """One fully specified simulation run, separated from its execution.

    A request captures *everything* a run depends on — traces, platform
    config, scenario and the run's own seed — as plain picklable data,
    so execution backends can ship it to worker processes.  Executing
    the same request twice (in any process) yields bit-identical
    results: all randomness derives from ``seed``.

    ``engine`` selects the simulator entry point: ``"isolation"`` runs
    ``traces[0]`` alone on ``core_id`` (:func:`run_isolation`);
    ``"workload"`` co-runs all traces (:func:`run_workload`).
    ``profile`` requests a per-component attribution snapshot on the
    result (timing is unaffected either way).  ``cycle_budget`` arms
    the livelock watchdog: a run whose simulated clock exceeds it is
    aborted with a deterministic
    :class:`~repro.errors.RunTimeoutError` (never retried — the same
    seed livelocks identically on every attempt).
    """

    engine: str
    traces: Tuple[Trace, ...]
    config: SystemConfig
    scenario: Scenario
    seed: int
    index: int = 0
    core_id: int = 0
    profile: bool = False
    cycle_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.engine not in ("isolation", "workload"):
            raise ConfigurationError(f"unknown run engine {self.engine!r}")
        if not self.traces:
            raise ConfigurationError("a run request needs at least one trace")
        if self.engine == "isolation" and len(self.traces) != 1:
            raise ConfigurationError(
                f"isolation runs take exactly one trace, got {len(self.traces)}"
            )
        if self.cycle_budget is not None and self.cycle_budget <= 0:
            raise ConfigurationError(
                f"cycle budget must be positive, got {self.cycle_budget}"
            )

    @classmethod
    def isolation(
        cls,
        trace: Trace,
        config: SystemConfig,
        scenario: Scenario,
        seed: int,
        index: int = 0,
        core_id: int = 0,
        profile: bool = False,
        cycle_budget: Optional[int] = None,
    ) -> "RunRequest":
        """Request running ``trace`` alone (the analysis protocol)."""
        return cls(
            "isolation", (trace,), config, scenario, seed, index, core_id,
            profile, cycle_budget,
        )

    @classmethod
    def workload(
        cls,
        traces: Sequence[Trace],
        config: SystemConfig,
        scenario: Scenario,
        seed: int,
        index: int = 0,
        profile: bool = False,
        cycle_budget: Optional[int] = None,
    ) -> "RunRequest":
        """Request co-running ``traces`` (the deployment protocol)."""
        return cls(
            "workload", tuple(traces), config, scenario, seed, index,
            profile=profile, cycle_budget=cycle_budget,
        )

    def template_key(self) -> tuple:
        """Identity of everything except ``(index, seed)``.

        Requests sharing a template key differ only in their per-run
        seed, which lets backends bootstrap workers with the shared
        trace/config data once and ship only ``(index, seed)`` pairs.
        Traces compare by identity (cheap; campaigns reuse the same
        objects), config and scenario by value.
        """
        trace_ids = tuple(id(trace) for trace in self.traces)
        return (
            self.engine, trace_ids, self.config, self.scenario,
            self.core_id, self.profile, self.cycle_budget,
        )

    def with_run(self, index: int, seed: int) -> "RunRequest":
        """The same template rebound to another ``(index, seed)`` pair."""
        return RunRequest(
            self.engine, self.traces, self.config, self.scenario,
            seed, index, self.core_id, self.profile, self.cycle_budget,
        )


def batch_ineligibility(request: RunRequest) -> Optional[str]:
    """Why ``request`` cannot run on the lock-step batch engine.

    Returns ``None`` when the request is batchable, else a short
    human-readable reason.  The batch engine
    (:mod:`repro.sim.batch`) vectorises exactly the paper's analysis
    protocol — one trace alone on one core under composable upper
    bounds — because only there is every run's control flow identical
    across lanes.  Everything else stays on the scalar engine:
    deployment co-runs interleave cores data-dependently, profiling
    attributes wall time through scalar callbacks, the cycle-budget
    watchdog checks the clock per scalar instruction, and the
    write-through DL1 ablation takes a different store path.
    """
    if request.engine != "isolation":
        return (
            "deployment-mode workloads co-run several cores with "
            "data-dependent interleaving; only isolation runs vectorise"
        )
    if request.scenario.mode is not OperationMode.ANALYSIS:
        return (
            "only analysis-mode scenarios vectorise; deployment timing "
            "is contention-dependent and stays scalar"
        )
    if request.profile:
        return (
            "profiled runs attribute cycles and wall time through "
            "per-access scalar hooks"
        )
    if request.cycle_budget is not None:
        return (
            "the cycle-budget watchdog checks the simulated clock after "
            "every scalar instruction"
        )
    if not request.config.dl1_write_back:
        return (
            "the write-through DL1 ablation (A2) takes the scalar "
            "store-through path"
        )
    return None


def execute_request(request: RunRequest) -> RunResult:
    """Execute one :class:`RunRequest` (a pure function of the request)."""
    if request.engine == "isolation":
        return run_isolation(
            request.traces[0],
            request.config,
            request.scenario,
            request.seed,
            core_id=request.core_id,
            profile=request.profile,
            cycle_budget=request.cycle_budget,
        )
    return run_workload(
        request.traces, request.config, request.scenario, request.seed,
        profile=request.profile, cycle_budget=request.cycle_budget,
    )
