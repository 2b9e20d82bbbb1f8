"""Pluggable execution backends: serial and multi-process run fan-out.

MBPTA campaigns are embarrassingly parallel — every run derives its
own seed and randomises its own platform (§3.3), with no shared state
between runs.  This module turns that property into throughput without
touching simulation semantics:

* :class:`SerialBackend` executes requests in-process, one by one —
  the reference semantics, zero dependencies;
* :class:`ProcessPoolBackend` fans requests out over a
  ``multiprocessing`` pool with chunked dispatch.  Workers are
  bootstrapped once with the campaign's shared trace/config template,
  so per-run messages carry only an ``(index, seed)`` pair;
  heterogeneous batches (Figure 4's deployment co-runs) ship a small
  job spec per run instead (:meth:`ProcessPoolBackend.execute_jobs`).
  Per-run exceptions are captured into the :class:`RunOutcome`
  instead of killing the pool, so one bad seed cannot abort a
  1000-run campaign;
* :class:`~repro.sim.batch.BatchBackend` (in :mod:`repro.sim.batch`)
  exploits the same property *within* one process: homogeneous
  analysis-mode campaigns run as lock-step NumPy lanes on the kernel
  engine (:mod:`repro.sim.kernels`), bit-identical to
  :class:`SerialBackend` and several times faster per core;
  :class:`~repro.sim.batch.ShardedBatchBackend` shards those lanes
  over this module's wave dispatch.

**Determinism guarantee.**  Seeds are derived per *run* (by the
campaign layer), never per worker, and :func:`~repro.sim.simulator.execute_request`
is a pure function of its request — so ``execution_times`` are
bit-identical across backends, worker counts and chunk sizes.  Only
wall-clock observability data (per-run wall times, completion order
seen by observers) differs.

The :class:`RunObserver` seam replaces the former ad-hoc
``on_run``/progress callables: backends report one structured
:class:`RunRecord` per completed run (cycles, LLC interference
counters, EFL stalls, wall time), which the campaign layer aggregates
into :class:`~repro.sim.campaign.CampaignResult`.

**Resilience.**  Long campaigns die to infrastructure, not to
simulation bugs: a worker OOM-killed mid-chunk, a livelocked host, a
corrupted IPC payload.  The backends classify every failure as
*transient* (infrastructure — retrying the same ``(index, seed)``
yields the bit-identical result the failed attempt owed) or
*deterministic* (the simulation itself raised — every attempt fails
the same way) and retry only the former, under a bounded
:class:`RetryPolicy` with exponential backoff.
:class:`ProcessPoolBackend` additionally detects hard worker deaths
(the chunk never returns; the dead process's exit code gives it away),
terminates and rebuilds the pool, and re-dispatches only the
unfinished requests; an optional per-run wall-clock watchdog
(``run_timeout_s``) converts a hung worker into a retryable timeout.
Every result is stamped with a checksum by the process that computed
it and re-verified on receipt, so corrupted transfers are caught and
retried instead of silently poisoning the sample.  None of this can
change ``execution_times``: retries re-execute pure functions of
``(template, index, seed)``.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    ERROR_KIND_DETERMINISTIC,
    ERROR_KIND_TRANSIENT,
    ConfigurationError,
    ResultIntegrityError,
    RunTimeoutError,
    SimulationError,
    WorkerCrashError,
    classify_exception,
)
from repro.observability import StructuredLogger, current_telemetry
from repro.sim.profiler import ProfileSnapshot
from repro.sim.simulator import RunRequest, RunResult, execute_request


def usable_cpus() -> int:
    """CPUs actually available to this process.

    Prefers the scheduler affinity mask (respects container/cgroup
    restrictions) and falls back to the raw CPU count.  Shared by the
    CLI's process-backend sanity warning and the benchmarks.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# per-run records and outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """Structured observability record of one completed run.

    Everything an operator needs to reason about a campaign without
    rerunning it: the run's reproduction handle (``index``, ``seed``),
    its timing outcome, the shared-cache interference counters and the
    wall-clock cost of producing it.
    """

    index: int
    seed: int
    cycles: int
    instructions: int
    llc_hits: int
    llc_misses: int
    llc_forced_evictions: int
    efl_stall_cycles: int
    efl_evictions: int
    memory_reads: int
    memory_writes: int
    wall_time_s: float
    #: Per-component attribution snapshot (profiled runs only).
    profile: Optional[ProfileSnapshot] = None

    #: Fields persisted by the checkpoint journal and the result store
    #: (everything but the profile, which is a measurement, not
    #: semantics).
    PERSISTED_FIELDS = (
        "index", "seed", "cycles", "instructions",
        "llc_hits", "llc_misses", "llc_forced_evictions",
        "efl_stall_cycles", "efl_evictions",
        "memory_reads", "memory_writes", "wall_time_s",
    )

    def to_dict(self) -> dict:
        """The persisted fields as a JSON-ready dict."""
        return {name: getattr(self, name) for name in self.PERSISTED_FIELDS}

    @classmethod
    def from_dict(cls, entry: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Raises ``KeyError``/``TypeError`` on malformed entries; callers
        (the checkpoint journal, the result store) wrap these into
        their own labelled errors.
        """
        return cls(**{name: entry[name] for name in cls.PERSISTED_FIELDS})

    @classmethod
    def from_result(
        cls, index: int, seed: int, result: RunResult, wall_time_s: float
    ) -> "RunRecord":
        """Condense a :class:`RunResult` into its observability record."""
        return cls(
            index=index,
            seed=seed,
            cycles=result.cycles,
            instructions=sum(core.instructions for core in result.cores),
            llc_hits=result.llc_hits,
            llc_misses=result.llc_misses,
            llc_forced_evictions=result.llc_forced_evictions,
            efl_stall_cycles=sum(core.efl_stall_cycles for core in result.cores),
            efl_evictions=sum(core.efl_evictions for core in result.cores),
            memory_reads=result.memory_reads,
            memory_writes=result.memory_writes,
            wall_time_s=wall_time_s,
            profile=result.profile,
        )


def result_checksum(index: int, seed: int, result: RunResult) -> int:
    """Integrity checksum over a run result's semantic payload.

    Computed by the process that produced the result and re-verified
    by the process that consumes it, so a payload corrupted in IPC
    transit is detected (and the run retried) instead of silently
    poisoning the campaign sample.  Covers everything the campaign
    layer reads; wall times and profiles are measurements, not
    semantics, and are excluded.
    """
    parts: List[object] = [
        index, seed, result.scenario_label,
        result.llc_hits, result.llc_misses, result.llc_forced_evictions,
        result.memory_reads, result.memory_writes,
    ]
    for core in result.cores:
        parts.extend((
            core.core, core.task, core.cycles, core.instructions,
            core.il1_misses, core.il1_accesses,
            core.dl1_misses, core.dl1_accesses,
            core.efl_stall_cycles, core.efl_evictions,
        ))
    return zlib.crc32(repr(parts).encode())


@dataclass(frozen=True)
class RunOutcome:
    """What a backend returns per request: a result or a captured error.

    ``error_kind`` classifies a failure for the retry machinery:
    :data:`~repro.errors.ERROR_KIND_TRANSIENT` failures are
    infrastructure (retryable), :data:`~repro.errors.ERROR_KIND_DETERMINISTIC`
    ones reproduce per seed (surfaced after exactly one attempt).
    ``attempts`` counts how many executions this outcome cost;
    ``checksum`` is the producer-side integrity stamp of ``result``.
    """

    index: int
    seed: int
    result: Optional[RunResult]
    error: Optional[str]
    wall_time_s: float
    error_kind: Optional[str] = None
    attempts: int = 1
    checksum: Optional[int] = None

    @property
    def failed(self) -> bool:
        """Whether this run raised instead of completing."""
        return self.error is not None

    @property
    def transient(self) -> bool:
        """Whether this outcome is a retryable infrastructure failure."""
        return self.failed and self.error_kind == ERROR_KIND_TRANSIENT

    def record(self) -> RunRecord:
        """The observability record of a *successful* outcome."""
        if self.result is None:
            raise SimulationError(
                f"run {self.index} (seed {self.seed:#x}) failed; no record"
            )
        return RunRecord.from_result(
            self.index, self.seed, self.result, self.wall_time_s
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for *transient* failures.

    ``max_attempts`` caps total executions per run (1 = never retry).
    The wait before re-dispatching attempt ``n + 1`` is
    ``backoff_s * multiplier ** (n - 1)``.  ``sleep`` is injectable so
    tests can retry without real waiting.  Deterministic simulation
    failures ignore this policy entirely — they are surfaced after
    exactly one attempt, because every retry would fail identically.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"retry needs max_attempts >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff must be non-negative, got {self.backoff_s}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )

    def delay_s(self, attempt: int) -> float:
        """Backoff before re-dispatching after failed attempt ``attempt``."""
        return self.backoff_s * self.multiplier ** (attempt - 1)

    def wait(self, attempt: int) -> None:
        """Sleep the backoff owed after failed attempt ``attempt``."""
        delay = self.delay_s(attempt)
        if delay > 0:
            self.sleep(delay)


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
class RunObserver:
    """Structured observability hook threaded through every backend.

    Subclass and override what you need; every method is a no-op by
    default.  Under :class:`ProcessPoolBackend`, :meth:`on_run` fires
    in *completion* order (not index order) in the parent process.
    """

    def on_campaign_start(self, task: str, scenario_label: str, runs: int) -> None:
        """A campaign of ``runs`` runs is about to start."""

    def on_run(self, record: RunRecord) -> None:
        """One run completed successfully."""

    def on_run_failed(self, index: int, seed: int, error: str) -> None:
        """One run failed for good; ``error`` is its formatted traceback.

        Fires once per request, after retries (if any) are exhausted —
        transient failures that a later attempt recovered fire
        :meth:`on_retry` instead.
        """

    def on_retry(self, index: int, seed: int, attempt: int, error: str) -> None:
        """Attempt ``attempt`` of one run failed transiently; it will be
        re-dispatched."""

    def on_worker_crash(self, dead_workers: int) -> None:
        """``dead_workers`` pool processes died hard; the pool is being
        rebuilt and their unfinished runs re-dispatched."""

    def on_checkpoint(self, index: int, seed: int, completed: int,
                      total: int) -> None:
        """One run's record was appended to the campaign's checkpoint
        journal (``completed`` of ``total`` runs are now journalled)."""

    def on_campaign_end(self, result: object) -> None:
        """A campaign finished; ``result`` is its CampaignResult."""

    def on_message(self, message: str) -> None:
        """Free-form progress text from the layer driving the runs."""


class StreamObserver(RunObserver):
    """Prints campaign progress, throughput and resilience events.

    Output is routed through a :class:`~repro.observability.StructuredLogger`;
    the default logger reproduces the historical plain-text format
    (``  [message]`` lines on ``stream``) bit-for-bit, while a caller
    (or the CLI's ``--log-level``/``--log-format`` flags) can swap in a
    quiet, key=value or JSON logger for service use.  Progress events
    log at ``info``, retries and worker crashes at ``warning``, final
    run failures at ``error``.
    """

    def __init__(
        self,
        stream: IO[str],
        every: int = 0,
        logger: Optional[StructuredLogger] = None,
    ) -> None:
        self.stream = stream
        self.every = every
        self.logger = (
            logger if logger is not None
            else StructuredLogger(stream=stream, level="info", fmt="plain")
        )
        self._done = 0
        self._runs = 0
        self._failed = 0
        self._retried = 0

    def on_campaign_start(self, task: str, scenario_label: str, runs: int) -> None:
        self._done = 0
        self._runs = runs
        self._failed = 0
        self._retried = 0
        self.logger.info(
            "campaign_start",
            message=f"campaign: {task} under {scenario_label} ({runs} runs)",
            task=task, scenario=scenario_label, runs=runs,
        )

    def on_run(self, record: RunRecord) -> None:
        self._done += 1
        if self.every and self._done % self.every == 0:
            self.logger.info(
                "progress",
                message=f"{self._done}/{self._runs} runs",
                done=self._done, runs=self._runs,
            )

    def on_run_failed(self, index: int, seed: int, error: str) -> None:
        self._failed += 1
        last = error.strip().splitlines()[-1] if error else "unknown error"
        self.logger.error(
            "run_failed",
            message=f"run {index} FAILED (seed {seed:#x}): {last}",
            index=index, seed=f"{seed:#x}", error=last,
        )

    def on_retry(self, index: int, seed: int, attempt: int, error: str) -> None:
        self._retried += 1
        last = error.strip().splitlines()[-1] if error else "unknown error"
        self.logger.warning(
            "run_retry",
            message=f"run {index} retrying after attempt {attempt} "
                    f"(seed {seed:#x}): {last}",
            index=index, seed=f"{seed:#x}", attempt=attempt, error=last,
        )

    def on_worker_crash(self, dead_workers: int) -> None:
        self.logger.warning(
            "worker_crash",
            message=f"{dead_workers} worker(s) died hard; rebuilding pool "
                    f"and re-dispatching unfinished runs",
            dead_workers=dead_workers,
        )

    def on_checkpoint(self, index: int, seed: int, completed: int,
                      total: int) -> None:
        if self.every and completed % self.every == 0:
            self.logger.info(
                "checkpoint",
                message=f"checkpoint: {completed}/{total} runs journalled",
                completed=completed, total=total,
            )

    def on_campaign_end(self, result: object) -> None:
        wall = getattr(result, "wall_time_s", 0.0)
        runs = getattr(result, "runs", 0)
        if wall > 0:
            self.logger.info(
                "campaign_end",
                message=f"{runs} runs in {wall:.2f}s: {runs / wall:.1f} "
                        f"runs/s, {self._failed} failed, "
                        f"{self._retried} retried",
                runs=runs, wall_time_s=round(wall, 6),
                failed=self._failed, retried=self._retried,
            )

    def on_message(self, message: str) -> None:
        self.logger.info("message", message=message)


class ProfilingObserver(RunObserver):
    """Collects per-run profile snapshots, optionally wrapping another
    observer.

    Works with any backend: snapshots travel inside the
    :class:`RunRecord` (they are picklable), so process-pool runs
    profile exactly like serial ones.  ``total`` merges everything
    collected so far into one campaign-level snapshot.
    """

    def __init__(self, inner: Optional[RunObserver] = None) -> None:
        self.inner = inner
        self.snapshots: List[ProfileSnapshot] = []

    @property
    def total(self) -> ProfileSnapshot:
        """Aggregate attribution across all observed runs."""
        return ProfileSnapshot.merge(self.snapshots)

    def on_campaign_start(self, task: str, scenario_label: str, runs: int) -> None:
        if self.inner is not None:
            self.inner.on_campaign_start(task, scenario_label, runs)

    def on_run(self, record: RunRecord) -> None:
        if record.profile is not None:
            self.snapshots.append(record.profile)
        if self.inner is not None:
            self.inner.on_run(record)

    def on_run_failed(self, index: int, seed: int, error: str) -> None:
        if self.inner is not None:
            self.inner.on_run_failed(index, seed, error)

    def on_retry(self, index: int, seed: int, attempt: int, error: str) -> None:
        if self.inner is not None:
            self.inner.on_retry(index, seed, attempt, error)

    def on_worker_crash(self, dead_workers: int) -> None:
        if self.inner is not None:
            self.inner.on_worker_crash(dead_workers)

    def on_checkpoint(self, index: int, seed: int, completed: int,
                      total: int) -> None:
        if self.inner is not None:
            self.inner.on_checkpoint(index, seed, completed, total)

    def on_campaign_end(self, result: object) -> None:
        if self.inner is not None:
            self.inner.on_campaign_end(result)

    def on_message(self, message: str) -> None:
        if self.inner is not None:
            self.inner.on_message(message)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Protocol of an execution backend.

    ``execute`` runs every request and returns one :class:`RunOutcome`
    per request, **in request (index) order**, regardless of the order
    in which runs physically completed.  Implementations must capture
    per-run exceptions into the outcome rather than propagate them,
    and accept a one-pass iterable of requests.
    """

    #: Short label recorded on CampaignResult (e.g. ``"serial"``).
    name: str = "?"

    #: Whether one ``execute`` call amortises its dispatch overhead
    #: over the whole request batch (lane-vectorised engines).  The
    #: adaptive campaign layer speculates with geometrically growing
    #: dispatch blocks only on such backends — on a per-run backend,
    #: overshooting the stopping boundary costs full runs and saves
    #: nothing.
    amortised_dispatch: bool = False

    def execute(
        self,
        requests: Iterable[RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        """Execute ``requests``; one outcome per request, index order."""
        raise NotImplementedError

    def execute_jobs(
        self,
        jobs: Sequence[tuple],
        build: Callable[..., RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        """Execute a heterogeneous batch of ``(index, seed, *spec)`` job
        tuples, ``build(*job)`` being a job's request; outcomes return
        in job order.  Requests are built one at a time as ``execute``
        consumes them."""
        return self.execute(itertools.starmap(build, jobs), observer)


# In-process fault-injection hook (see repro.sim.faults).  ``None``
# outside chaos tests; workers receive their plan at bootstrap instead.
_FAULT_PLAN = None
# True only inside pool worker processes, where an injected "crash" may
# genuinely kill the process instead of being simulated by an exception.
_IN_WORKER = False


@contextlib.contextmanager
def installed_fault_plan(plan):
    """Install a fault plan for in-process execution (chaos testing)."""
    global _FAULT_PLAN
    previous = _FAULT_PLAN
    _FAULT_PLAN = plan
    try:
        yield
    finally:
        _FAULT_PLAN = previous


def _trigger_fault(kind: str, plan) -> None:
    """Act out one injected fault (pre-execution kinds only)."""
    if kind == "slow":
        time.sleep(plan.slow_s)
    elif kind == "crash":
        if _IN_WORKER:
            os._exit(70)  # hard death: no exception, no cleanup, no result
        raise WorkerCrashError("injected worker crash (in-process simulation)")
    elif kind == "hang":
        if _IN_WORKER:
            time.sleep(plan.hang_s)  # park past the watchdog; pool kills us
        else:
            raise RunTimeoutError(
                "injected hang (in-process simulation)", transient=True
            )


def _run_one(request: RunRequest, attempt: int = 1) -> RunOutcome:
    """Execute one request, capturing and classifying any exception."""
    started = time.perf_counter()
    plan = _FAULT_PLAN
    fault = plan.fault_for(request.index, attempt) if plan is not None else None
    error = None
    error_kind = None
    checksum = None
    try:
        if fault is not None:
            _trigger_fault(fault, plan)
        result = execute_request(request)
        checksum = result_checksum(request.index, request.seed, result)
        if fault == "corrupt":
            # Simulate a bit-flip in IPC transit: mutate the payload
            # *after* stamping it, so the consumer's re-check fails.
            result.cores[0].cycles += 1
    except Exception as exc:  # noqa: BLE001 — captured and surfaced per run
        result = None
        error = traceback.format_exc()
        error_kind = classify_exception(exc)
    return RunOutcome(
        index=request.index,
        seed=request.seed,
        result=result,
        error=error,
        wall_time_s=time.perf_counter() - started,
        error_kind=error_kind,
        attempts=attempt,
        checksum=checksum,
    )


def _validated(outcome: RunOutcome) -> RunOutcome:
    """Re-verify an outcome's integrity stamp on the consumer side."""
    if outcome.result is None or outcome.checksum is None:
        return outcome
    if result_checksum(outcome.index, outcome.seed,
                       outcome.result) == outcome.checksum:
        return outcome
    try:
        raise ResultIntegrityError(
            f"run {outcome.index} (seed {outcome.seed:#x}): result failed "
            f"its integrity check after transfer; retrying"
        )
    except ResultIntegrityError:
        error = traceback.format_exc()
    return replace(
        outcome, result=None, checksum=None, error=error,
        error_kind=ERROR_KIND_TRANSIENT,
    )


class SerialBackend(ExecutionBackend):
    """In-process, one-at-a-time execution — the reference semantics.

    ``retry`` (off by default) re-executes transient failures under the
    given policy; deterministic simulation errors are never retried.
    """

    name = "serial"

    def __init__(self, retry: Optional[RetryPolicy] = None) -> None:
        self.retry = retry

    def execute(
        self,
        requests: Iterable[RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        max_attempts = self.retry.max_attempts if self.retry else 1
        outcomes = []
        for request in requests:
            attempt = 1
            while True:
                outcome = _validated(_run_one(request, attempt))
                if outcome.transient and attempt < max_attempts:
                    if observer is not None:
                        observer.on_retry(
                            outcome.index, outcome.seed, attempt,
                            outcome.error or "",
                        )
                    self.retry.wait(attempt)
                    attempt += 1
                    continue
                break
            _notify(observer, outcome)
            outcomes.append(outcome)
        return outcomes


# Worker-side state of ProcessPoolBackend: the callable that turns a
# job's ``(index, seed, *spec)`` into its RunRequest (a campaign
# template's ``with_run``), shipped once per worker at bootstrap so the
# per-job messages stay small.
_WORKER_BUILD: Optional[Callable[..., RunRequest]] = None


def _bootstrap_worker(build: Callable[..., RunRequest], fault_plan=None) -> None:
    global _WORKER_BUILD, _FAULT_PLAN, _IN_WORKER
    _WORKER_BUILD = build
    _FAULT_PLAN = fault_plan
    _IN_WORKER = True


def _run_chunk(messages: Sequence[tuple]) -> List[RunOutcome]:
    build = _WORKER_BUILD
    if build is None:  # pragma: no cover — would be a harness bug
        raise RuntimeError("worker used before bootstrap")
    return [_run_one(build(*job), attempt) for *job, attempt in messages]


def _notify(observer: Optional[RunObserver], outcome: RunOutcome) -> None:
    if observer is None:
        return
    if outcome.failed:
        observer.on_run_failed(outcome.index, outcome.seed, outcome.error or "")
    else:
        observer.on_run(outcome.record())


def _lost_outcome(
    index: int, seed: int, attempt: int, reason: Optional[str],
    timeout_s: Optional[float],
) -> RunOutcome:
    """Synthesise the outcome of a run whose worker never answered."""
    if reason == "timeout":
        exc: Exception = RunTimeoutError(
            f"run {index} (seed {seed:#x}): no pool progress within "
            f"{timeout_s}s; workers killed and run re-dispatched",
            transient=True,
        )
    else:
        exc = WorkerCrashError(
            f"run {index} (seed {seed:#x}) was lost to a hard worker death"
        )
    message = "".join(traceback.format_exception_only(type(exc), exc))
    return RunOutcome(
        index=index, seed=seed, result=None, error=message,
        wall_time_s=0.0, error_kind=ERROR_KIND_TRANSIENT, attempts=attempt,
    )


class ProcessPoolBackend(ExecutionBackend):
    """Multiprocessing fan-out with chunked dispatch and crash recovery.

    Work is dispatched in *waves*: every wave ships the still-unfinished
    ``(index, seed, ..., attempt)`` job messages to a fresh pool,
    collects what comes back, and classifies the rest.  A hard worker
    death (OOM, SIGKILL, ``os._exit``) is detected through the dead
    process's exit code; the pool is torn down once it goes quiet and
    the lost runs are re-dispatched in the next wave under ``retry``.
    A hung worker is detected by the optional progress watchdog
    (``run_timeout_s``) and handled the same way.  Completed outcomes are never discarded
    across waves, and re-executing a run is bit-identical by
    construction, so recovery cannot change the sample.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the machine's CPU count.
    chunk_size:
        Job messages per dispatched chunk.
        Defaults to an even split over ``4 * workers`` chunks — small
        enough to load balance, large enough to amortise IPC.  Smaller
        chunks also shrink the blast radius of a worker crash (a lost
        chunk is re-executed whole).
    mp_context:
        ``multiprocessing`` start method.  Defaults to ``"fork"``
        where available (cheap on Linux), else ``"spawn"``.
    retry:
        Bounded backoff policy for transient failures (worker crashes,
        watchdog timeouts, corrupted results, :class:`~repro.errors.TransientRunError`
        raised by a run).  Defaults to ``RetryPolicy()`` (3 attempts).
        Deterministic simulation errors are surfaced after exactly one
        attempt regardless of this policy.
    run_timeout_s:
        Progress watchdog: if no chunk completes for this many host
        seconds while work is outstanding, the pool is presumed hung,
        terminated, and the unfinished runs re-dispatched.  ``None``
        (default) disables the watchdog.
    fault_plan:
        Deterministic chaos hook (see :mod:`repro.sim.faults`);
        shipped to workers at bootstrap.  ``None`` outside tests.
    force_pool:
        Keep the worker pool even on a single-CPU host.  By default a
        multi-worker backend on ``usable_cpus() == 1`` degrades to
        in-process serial execution (with an observer warning), because
        the pool buys no parallelism there and the measured overhead is
        a net slowdown; tests that exercise real pool mechanics pass
        ``True`` to opt out.
    """

    #: Seconds of pool quiet time after a detected worker death before
    #: the wave is abandoned and its unfinished runs re-dispatched.
    CRASH_DRAIN_S = 0.5
    #: Poll interval of the parent's progress/death watchdog loop.
    POLL_S = 0.01

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        mp_context: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        run_timeout_s: Optional[float] = None,
        fault_plan=None,
        force_pool: bool = False,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers <= 0:
            raise ConfigurationError(f"worker count must be positive, got {workers}")
        if chunk_size is not None and chunk_size <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {chunk_size}")
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise ConfigurationError(
                f"run timeout must be positive, got {run_timeout_s}"
            )
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.mp_context = mp_context
        self.retry = retry if retry is not None else RetryPolicy()
        self.run_timeout_s = run_timeout_s
        self.fault_plan = fault_plan
        self.force_pool = force_pool
        self.name = f"process[{workers}]"
        #: Whether the single-CPU degrade warning fired for the
        #: campaign currently executing — reset at every ``execute()``
        #: entry so the advisory is once per campaign, not once per
        #: consultation of :meth:`_degrades`.
        self._degrade_warned = False

    def _chunks(self, jobs: List[tuple]) -> List[List[tuple]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(jobs) // (4 * self.workers)))
        return [jobs[i:i + size] for i in range(0, len(jobs), size)]

    def execute(
        self,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        requests = list(requests)
        if not requests:
            return []
        template_key = requests[0].template_key()
        for request in requests[1:]:
            if request.template_key() != template_key:
                raise ConfigurationError(
                    "ProcessPoolBackend.execute requires a homogeneous "
                    "batch: all requests must share traces/config/scenario "
                    "and differ only in (index, seed); ship heterogeneous "
                    "work as job tuples through execute_jobs()"
                )
        # The shared template ships once per worker; jobs are pairs.
        return self.execute_jobs(
            [(request.index, request.seed) for request in requests],
            requests[0].with_run, observer,
        )

    def execute_jobs(
        self,
        jobs: Sequence[tuple],
        build: Callable[..., RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        """Execute a heterogeneous batch shipped as small job tuples.

        Jobs must pickle, and a worker builds each job's request:
        ``build`` travels once per worker at pool bootstrap, so no trace
        is pickled per job and no process holds every request at once.
        """
        if not jobs:
            return []
        self._degrade_warned = False  # new campaign: the advisory may fire once
        if len(jobs) == 1 or self.workers == 1 or self._degrades(jobs,
                                                                 observer):
            # Not worth a pool; semantics are identical by construction.
            return self._execute_serial(itertools.starmap(build, jobs),
                                        observer)
        return self._execute_waves((_bootstrap_worker, (build, self.fault_plan)),
                                   _run_chunk, jobs, observer)

    def _execute_serial(
        self,
        requests: Iterable[RunRequest],
        observer: Optional[RunObserver],
    ) -> List[RunOutcome]:
        """In-process execution under this backend's retry and fault plan."""
        serial = SerialBackend(retry=self.retry)
        if self.fault_plan is None:
            return serial.execute(requests, observer)
        with installed_fault_plan(self.fault_plan):
            return serial.execute(requests, observer)

    def _degrades(
        self,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver],
    ) -> bool:
        """Whether to skip the pool on a single-CPU host (satellite 1).

        A multi-worker pool on one usable CPU is pure overhead
        (``BENCH_campaign.json`` measured 0.65×), so degrade to
        in-process execution — bit-identical by construction — unless
        the caller opted out with ``force_pool=True``.

        The observer advisory fires at most once per campaign (per
        :meth:`execute` call): the decision may be consulted again
        within one campaign (wave re-dispatch, subclass delegation),
        and repeating an unchanged advisory per wave is noise.  The
        structured-log side is additionally deduped by
        :class:`~repro.sim.telemetry.TelemetryObserver`.
        """
        if self.force_pool or self.workers <= 1 or len(requests) <= 1:
            return False
        if usable_cpus() != 1:
            return False
        if observer is not None and not self._degrade_warned:
            self._degrade_warned = True
            observer.on_message(
                f"only 1 usable CPU for {self.workers} workers; degrading "
                f"to in-process serial execution (results are "
                f"bit-identical; pass force_pool=True to keep the pool)"
            )
        return True

    def _execute_waves(
        self,
        bootstrap: Tuple[Callable, tuple],
        runner: Callable,
        jobs: Sequence[tuple],
        observer: Optional[RunObserver],
    ) -> List[RunOutcome]:
        """Wave loop: dispatch, validate, retry transients, finalise.

        A job is ``(index, seed, *spec)``; ``runner`` receives it with
        the attempt number appended, in a worker set up by
        ``bootstrap`` (an ``(initializer, initargs)`` pair).  Runs are
        keyed by their position in ``jobs``, since a heterogeneous
        batch may repeat an ``index``; outcomes return in job order.
        """
        context = multiprocessing.get_context(self.mp_context)
        # position -> attempt of every not-yet-final run.
        pending: Dict[int, int] = dict.fromkeys(range(len(jobs)), 1)
        final: Dict[int, RunOutcome] = {}
        telemetry = current_telemetry()
        wave = 0
        while pending:
            wave += 1
            dispatched = sorted(pending.items())
            messages = [
                (position, tuple(jobs[position]) + (attempt,))
                for position, attempt in dispatched
            ]
            if telemetry is not None:
                wave_started = time.monotonic()
                with telemetry.tracer.span(
                    "wave", wave=wave, runs=len(messages), backend=self.name
                ):
                    returned, reason = self._run_wave(
                        context, bootstrap, runner, messages, observer
                    )
                telemetry.metrics.counter("waves_dispatched").inc()
                telemetry.metrics.histogram("wave_latency_s").observe(
                    time.monotonic() - wave_started
                )
            else:
                returned, reason = self._run_wave(context, bootstrap, runner,
                                                  messages, observer)
            for position, attempt in dispatched:
                index, seed = jobs[position][:2]
                outcome = returned.get(position)
                if outcome is None:
                    outcome = _lost_outcome(
                        index, seed, attempt, reason, self.run_timeout_s
                    )
                outcome = _validated(outcome)
                if outcome.transient and attempt < self.retry.max_attempts:
                    if observer is not None:
                        observer.on_retry(index, seed, attempt,
                                          outcome.error or "")
                    pending[position] = attempt + 1
                else:
                    del pending[position]
                    final[position] = outcome
                    _notify(observer, outcome)
            if pending:
                self.retry.wait(wave)
        return [final[position] for position in range(len(jobs))]

    def _run_wave(
        self,
        context,
        bootstrap: Tuple[Callable, tuple],
        runner: Callable,
        messages: List[Tuple[int, tuple]],
        observer: Optional[RunObserver],
    ) -> Tuple[Dict[int, RunOutcome], Optional[str]]:
        """One dispatch wave over ``(position, message)`` pairs: returns
        the collected outcomes by position, plus the loss reason.

        ``reason`` is ``None`` when every chunk answered, ``"crash"``
        when a worker died hard, ``"timeout"`` when the progress
        watchdog fired.  The pool is always terminated and joined on
        the way out — including on ``KeyboardInterrupt``, so Ctrl-C on
        a long campaign cannot leak worker processes.
        """
        chunks = self._chunks(messages)
        returned: Dict[int, RunOutcome] = {}
        reason: Optional[str] = None
        initializer, initargs = bootstrap
        pool = context.Pool(
            processes=min(self.workers, len(messages)),
            initializer=initializer,
            initargs=initargs,
        )
        try:
            handles = [
                pool.apply_async(runner, ([message for _, message in chunk],))
                for chunk in chunks
            ]
            pool.close()
            # Snapshot the worker processes: mp.Pool silently replaces a
            # dead worker, but the dead Process object keeps its exit
            # code, which is the only portable trace of a hard death.
            workers = list(getattr(pool, "_pool", []))
            outstanding = set(range(len(handles)))
            last_progress = time.monotonic()
            dead_seen = 0
            while outstanding:
                progressed = False
                for handle_id in tuple(outstanding):
                    handle = handles[handle_id]
                    if not handle.ready():
                        continue
                    outstanding.discard(handle_id)
                    progressed = True
                    try:
                        # A runner answers its chunk's messages in order.
                        for (position, _message), outcome in zip(
                                chunks[handle_id], handle.get()):
                            returned[position] = outcome
                    except Exception:  # noqa: BLE001 — chunk-level loss
                        # The chunk raised instead of answering (e.g.
                        # its result did not survive the transfer); its
                        # runs are synthesised as transient losses.
                        reason = reason or "crash"
                if progressed:
                    last_progress = time.monotonic()
                    continue
                now = time.monotonic()
                dead = sum(
                    1 for worker in workers
                    if worker.exitcode not in (None, 0)
                )
                if dead > dead_seen:
                    if observer is not None:
                        observer.on_worker_crash(dead - dead_seen)
                    dead_seen = dead
                    reason = "crash"
                if reason == "crash" and now - last_progress >= self.CRASH_DRAIN_S:
                    # A worker died and the survivors have gone quiet:
                    # whatever is still outstanding was in the dead
                    # worker's hands.  Stop waiting, re-dispatch.
                    break
                if (self.run_timeout_s is not None
                        and now - last_progress > self.run_timeout_s):
                    reason = reason or "timeout"
                    break
                time.sleep(self.POLL_S)
        finally:
            pool.terminate()
            pool.join()
        return returned, reason


#: Registry of backend names accepted by :func:`make_backend` / the CLI.
BACKEND_NAMES = ("serial", "process")


def make_backend(
    name: str = "serial",
    workers: Optional[int] = None,
    run_timeout_s: Optional[float] = None,
) -> ExecutionBackend:
    """Build a backend from a CLI-style ``(name, workers)`` pair.

    ``run_timeout_s`` arms the process backend's progress watchdog
    (ignored for the serial backend, which cannot hang on a worker).
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(workers=workers, run_timeout_s=run_timeout_s)
    raise ConfigurationError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
    )
