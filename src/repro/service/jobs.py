"""Campaign jobs and the bounded-worker job queue.

The one-shot CLI runs a campaign and forgets it; the service layer
makes campaigns *jobs*: a :class:`CampaignJob` names everything the
campaign depends on (trace, config, scenario, runs, master seed,
engine choice), carries its lifecycle state, and resolves to a
:class:`~repro.sim.campaign.CampaignResult`.  A :class:`JobQueue`
executes jobs on a bounded pool of worker threads through the existing
engine-selection policy (:func:`~repro.sim.campaign.collect_execution_times`),
so everything already built under that seam — backends, sharding,
retries, telemetry — serves queued submissions unchanged.

**Job lifecycle**::

    queued ──► running ──► done
       │           ├─────► failed
       │           └─────► queued            (job-level retry: a
       │                                     transient campaign failure
       │                                     with retry budget left)
       ├─────────────────► cancelled        (cancel() before a worker
       │                                     picked the job up)
       ├─────────────────► shed             (admission control refused
       │                                     or deadline expired —
       │                                     labelled AdmissionError)
       └─────────────────► cached           (ResultStore answered the
                                             submission from storage —
                                             such jobs never enqueue)

Threads (not processes) are the right worker substrate here: a job's
heavy lifting already fans out through the process-pool/sharded
backends, so queue workers spend their time waiting, and threads share
the in-process :class:`~repro.sim.plancache.PlanCache` and telemetry
registry for free.

Determinism: a job is a pure function of ``(trace, config, scenario,
runs, master_seed)`` — the queue adds scheduling, never semantics, so
a job's sample is bit-identical to calling
:func:`~repro.sim.campaign.collect_execution_times` directly.  That
stays true under every robustness feature this module adds: a
journalled-and-recovered job, a checkpoint-resumed job and a
retry-after-chaos-kill job all produce the bit-identical sample.

**Durability & admission** (all opt-in, defaults preserve the plain
queue): an :class:`~repro.service.admission.AdmissionPolicy` bounds
queue depth, attaches deadlines and job-level retry budgets, and
drives a per-fingerprint circuit breaker; a
:class:`~repro.service.journal.JobJournal` write-ahead journals every
admission so a SIGKILLed queue can be rebuilt; a ``checkpoint_dir``
gives every executed campaign a per-fingerprint run checkpoint so a
recovered job resumes instead of restarting; a
:class:`~repro.sim.faults.ServiceFaultPlan` deterministically kills
queue workers to prove all of the above.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.cpu.trace import Trace
from repro.errors import (
    AdmissionError,
    CampaignRunError,
    ConfigurationError,
    ERROR_KIND_TRANSIENT,
    JobFailedError,
    ServiceError,
    WorkerCrashError,
    classify_exception,
)
from repro.observability import Telemetry
from repro.service.admission import (
    SHED_CIRCUIT_OPEN,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    AdmissionPolicy,
    CircuitBreaker,
)
from repro.sim.batch import ENGINE_NAMES
from repro.sim.campaign import CampaignResult, collect_execution_times
from repro.sim.checkpoint import (
    CampaignCheckpoint,
    campaign_fingerprint,
    scan_durable_jsonl,
)
from repro.sim.config import Scenario, SystemConfig

#: Job lifecycle states (see the module docstring for the transitions).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CACHED = "cached"
JOB_CANCELLED = "cancelled"
JOB_SHED = "shed"
JOB_STATES = (
    JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CACHED,
    JOB_CANCELLED, JOB_SHED,
)

#: States a job can never leave.
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CACHED, JOB_CANCELLED, JOB_SHED)


class CampaignJob:
    """One campaign submission and its lifecycle.

    Construction captures the campaign's identity; the queue (or the
    result store, for cache hits) drives the state machine.  ``wait``
    blocks until the job is terminal and returns the result — every
    concurrent waiter gets the same object, which is how in-flight
    coalescing hands one simulation to many submitters.
    """

    def __init__(
        self,
        trace: Trace,
        config: SystemConfig,
        scenario: Scenario,
        runs: int,
        master_seed: int = 0,
        engine: str = "auto",
        workers: Optional[int] = None,
        cycle_budget: Optional[int] = None,
        deadline_s: Optional[float] = None,
        adaptive=None,
    ) -> None:
        if runs <= 0:
            raise ConfigurationError(
                f"a campaign job needs at least one run, got {runs}"
            )
        if engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"a campaign job needs an engine in "
                f"{', '.join(ENGINE_NAMES)}, got {engine!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(
                f"a job deadline must be positive, got {deadline_s}"
            )
        if adaptive is not None and runs != adaptive.max_runs:
            raise ConfigurationError(
                f"adaptive job requested runs={runs} but its "
                f"ConvergencePolicy caps max_runs={adaptive.max_runs}; "
                f"submit with runs=policy.max_runs"
            )
        self.trace = trace
        self.config = config
        self.scenario = scenario
        self.runs = runs
        self.master_seed = master_seed
        self.engine = engine
        self.workers = workers
        self.cycle_budget = cycle_budget
        #: Per-job queue-wait deadline (seconds); overrides the queue's
        #: :class:`~repro.service.admission.AdmissionPolicy` default.
        self.deadline_s = deadline_s
        #: Streaming-convergence policy
        #: (:class:`~repro.pta.adaptive.ConvergencePolicy`); None runs
        #: the classic fixed-R campaign.
        self.adaptive = adaptive
        #: Content fingerprint — the dedup key of the result store.
        #: The convergence policy is part of the identity: an adaptive
        #: result is a *prefix* sample, so it must never answer a
        #: fixed-R submission from the store (nor vice versa).
        self.fingerprint = campaign_fingerprint(
            trace, config, scenario, master_seed, runs, adaptive=adaptive
        )
        self.job_id: Optional[str] = None
        self.state = JOB_QUEUED
        self.result: Optional[CampaignResult] = None
        self.error: Optional[str] = None
        #: How the result was obtained: ``"simulated"`` (a worker ran
        #: it), ``"store"`` (answered from the result store) or
        #: ``"coalesced"`` (attached to an identical in-flight job).
        self.source: Optional[str] = None
        #: Shed classification when the admission layer refused the job
        #: (one of :data:`~repro.service.admission.SHED_REASONS`).
        self.shed_reason: Optional[str] = None
        #: Execution attempts a queue worker has started (job-level
        #: retries re-queue the whole job and bump this).
        self.attempts = 0
        #: Runs the service front door accounted on ``runs_requested``
        #: for this job; the same number lands on ``runs_shed`` if the
        #: job is shed or cancelled.  Zero for jobs submitted directly
        #: to a queue (they are outside the reconciliation invariant).
        self.accounted_runs = 0
        #: ``(index, seed, message, kind)`` quadruples when the campaign
        #: failed with a :class:`~repro.errors.CampaignRunError`.
        self.failures: list = []
        #: Monotonic admission number — the index a
        #: :class:`~repro.sim.faults.ServiceFaultPlan` keys chaos on.
        self._admit_index = 0
        #: Checkpointed runs already on disk at this queue's first
        #: pickup — simulated by a previous process incarnation, so
        #: they land on ``runs_resumed`` (not ``runs_simulated``)
        #: when the job succeeds.
        self._foreign_runs = 0
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._lock = threading.Lock()
        self._terminal = threading.Event()
        self._callbacks: List[Callable[["CampaignJob"], None]] = []

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._terminal.is_set()

    def add_callback(self, callback: Callable[["CampaignJob"], None]) -> None:
        """Run ``callback(job)`` when the job turns terminal.

        Fires immediately if the job already is.  Callbacks run on the
        worker thread that finished the job (or the caller's, for
        already-terminal jobs); exceptions propagate to that thread's
        error handling, so persistence hooks should catch their own.
        """
        fire = False
        with self._lock:
            if self.state in TERMINAL_STATES:
                fire = True
            else:
                self._callbacks.append(callback)
        if fire:
            callback(self)

    def _finish(self, state: str) -> None:
        """Transition to a terminal state and release every waiter.

        Callbacks run *before* the terminal event is set so that
        persistence hooks (the result store's write-through) complete
        before any waiter wakes: a submitter that saw its job finish
        can immediately re-hit the store.  The event is set even if a
        callback raises — a broken hook must never strand waiters.
        """
        with self._lock:
            self.state = state
            self.finished_at = time.time()
            callbacks = list(self._callbacks)
            self._callbacks.clear()
        try:
            for callback in callbacks:
                callback(self)
        finally:
            self._terminal.set()

    def cancel(self) -> bool:
        """Cancel the job if no worker picked it up yet.

        Returns ``True`` when the job moved to ``cancelled``; ``False``
        when it already left the queue (running or terminal) — a
        campaign mid-execution is not interrupted, because its partial
        work is already journalled/observable and killing it buys
        nothing deterministic.
        """
        with self._lock:
            if self.state != JOB_QUEUED:
                return False
            self.state = JOB_CANCELLED
        self._finish(JOB_CANCELLED)
        return True

    def wait(self, timeout: Optional[float] = None) -> CampaignResult:
        """Block until terminal; return the result or raise.

        Failure surfaces as the most specific labelled error
        available: :class:`~repro.errors.AdmissionError` (with its
        machine-readable shed ``reason``) for a shed job,
        :class:`~repro.errors.JobFailedError` (carrying the
        transient/deterministic per-run failure breakdown) for a
        failed one, plain :class:`~repro.errors.ServiceError` for
        cancellation and timeout.
        """
        if not self._terminal.wait(timeout):
            raise ServiceError(
                f"job {self.job_id or '<unsubmitted>'} did not finish "
                f"within {timeout}s (state {self.state!r})"
            )
        if self.state == JOB_CANCELLED:
            raise ServiceError(f"job {self.job_id} was cancelled")
        if self.state == JOB_SHED:
            reason = self.shed_reason or "unknown"
            detail = (self.error or "").strip()
            raise AdmissionError(
                f"job {self.job_id or '<unadmitted>'} was shed "
                f"({reason}){': ' + detail if detail else ''}",
                reason=reason,
            )
        if self.state == JOB_FAILED:
            detail = (self.error or "unknown error").strip()
            raise JobFailedError(self.job_id, detail, failures=self.failures)
        assert self.result is not None
        return self.result

    def to_dict(self) -> dict:
        """Status summary as a JSON-ready dict (no sample payload)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "task": self.trace.name,
            "scenario": self.scenario.label(),
            "runs": self.runs,
            "master_seed": self.master_seed,
            "engine": self.engine,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "shed_reason": self.shed_reason,
            "attempts": self.attempts,
            "deadline_s": self.deadline_s,
            "adaptive": (self.adaptive.to_dict()
                         if self.adaptive is not None else None),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": (self.error.strip().splitlines()[-1]
                      if self.error else None),
        }


class JobQueue:
    """Executes :class:`CampaignJob` submissions on bounded workers.

    Parameters
    ----------
    workers:
        Worker *threads* (not processes — see the module docstring).
        Each runs one job at a time, so this bounds the number of
        concurrent campaigns, not their internal parallelism.
    telemetry:
        :class:`~repro.observability.Telemetry` threaded into every
        executed campaign (metrics/spans/logs); also receives the
        queue's own ``jobs_submitted`` / ``jobs_completed`` /
        ``jobs_failed`` / ``jobs_cancelled`` / ``jobs_shed`` /
        ``jobs_requeued`` counters, the ``job_queue_wait_s`` latency
        histogram and the ``job_queue_depth`` / ``jobs_inflight``
        gauges.
    start:
        Start the workers immediately (default).  Tests pass ``False``
        to stage submissions deterministically, then call
        :meth:`start`.
    admission:
        :class:`~repro.service.admission.AdmissionPolicy` bounding what
        the queue absorbs.  The default policy is fully permissive —
        identical to the pre-admission queue.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`: every
        admission is write-ahead journalled *before* it enters the
        queue, and every transition is appended, so a SIGKILLed
        process can rebuild its job list on restart
        (:func:`~repro.service.journal.recover_jobs`).
    checkpoint_dir:
        Optional directory of per-campaign run checkpoints (one
        ``<fingerprint>.jsonl`` per executed job).  With a journal,
        this is what turns restart-recovery from "re-simulate from
        scratch" into "resume where the crash struck"; the checkpoint
        is deleted once the job completes.
    fault_plan:
        Optional :class:`~repro.sim.faults.ServiceFaultPlan` — its
        ``kill`` faults raise a
        :class:`~repro.errors.WorkerCrashError` inside the worker at
        job pickup, exercising the job-level retry budget and
        checkpoint resume deterministically.

    Use as a context manager for deterministic teardown::

        with JobQueue(workers=2) as queue:
            job = queue.submit(CampaignJob(...))
            result = job.wait()
    """

    def __init__(
        self,
        workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        start: bool = True,
        admission: Optional[AdmissionPolicy] = None,
        journal=None,
        checkpoint_dir=None,
        fault_plan=None,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(
                f"job queue needs at least one worker, got {workers}"
            )
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.breaker = CircuitBreaker(self.admission.breaker_threshold)
        self.journal = journal
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.fault_plan = fault_plan
        self._queue: "queue_mod.Queue[Optional[CampaignJob]]" = queue_mod.Queue()
        self._jobs: Dict[str, CampaignJob] = {}
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        # A journal-backed queue continues the journal's id sequence so
        # recovered jobs never collide with the ids they had before the
        # crash (see JobJournal.next_job_number).
        first_id = 1
        if self.journal is not None:
            first_id = self.journal.next_job_number()
        self._ids = itertools.count(first_id)
        self._started = False
        self._stopped = False
        self.telemetry.metrics.gauge("job_queue_depth", self.queue_depth)
        self.telemetry.metrics.gauge("jobs_inflight", self.inflight)
        if start:
            self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker threads (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker,
                    name=f"campaign-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def queue_depth(self) -> int:
        """Jobs currently waiting for a worker (state ``queued``)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.state == JOB_QUEUED
            )

    def inflight(self) -> int:
        """Jobs a worker is currently executing (state ``running``)."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.state == JOB_RUNNING
            )

    def submit(self, job: CampaignJob) -> CampaignJob:
        """Admit the job (or shed it), assign an id, enqueue.

        Raises a labelled :class:`~repro.errors.AdmissionError` when
        the admission policy sheds the submission (bounded queue full,
        circuit open for the job's fingerprint); the job itself also
        turns terminal (state ``shed``) so any waiter sees the same
        labelled error instead of hanging.
        """
        shed_reason = None
        shed_detail = None
        with self._lock:
            if self._stopped:
                raise ServiceError("job queue is shut down; cannot submit")
            if self.breaker.is_open(job.fingerprint):
                shed_reason = SHED_CIRCUIT_OPEN
                shed_detail = (
                    f"circuit breaker open for fingerprint "
                    f"{job.fingerprint}: {self.admission.breaker_threshold} "
                    f"deterministic failures recorded"
                )
            else:
                depth = sum(
                    1 for queued in self._jobs.values()
                    if queued.state == JOB_QUEUED
                )
                limit = self.admission.max_queue_depth
                if limit is not None and depth >= limit:
                    shed_reason = SHED_QUEUE_FULL
                    shed_detail = (
                        f"queue depth {depth} is at its bound {limit}"
                    )
                else:
                    index = next(self._ids)
                    job.job_id = f"job-{index:06d}"
                    job._admit_index = index
                    self._jobs[job.job_id] = job
        if shed_reason is not None:
            self._shed(job, shed_reason, shed_detail)
            raise AdmissionError(
                f"submission shed ({shed_reason}): {shed_detail}",
                reason=shed_reason,
            )
        if self.journal is not None:
            try:
                self.journal.record_admitted(job)
            except Exception as exc:  # noqa: BLE001 — availability first
                self.telemetry.logger.error(
                    "journal_write_failed",
                    message=f"could not journal admission of {job.job_id}: "
                            f"{exc} (job runs, but will not survive a crash)",
                    job=job.job_id,
                )
            job.add_callback(self._journal_terminal)
        self.telemetry.metrics.counter("jobs_submitted").inc()
        self.telemetry.logger.info(
            "job_submitted",
            message=f"job {job.job_id} queued: {job.trace.name} under "
                    f"{job.scenario.label()} ({job.runs} runs)",
            job=job.job_id, task=job.trace.name,
            scenario=job.scenario.label(), runs=job.runs,
            fingerprint=job.fingerprint,
        )
        self._queue.put(job)
        return job

    def status(self, job_id: str) -> CampaignJob:
        """Look a submitted job up by id."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def jobs(self) -> List[CampaignJob]:
        """Every job this queue has seen, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job by id (see :meth:`CampaignJob.cancel`)."""
        cancelled = self.status(job_id).cancel()
        if cancelled:
            self.telemetry.metrics.counter("jobs_cancelled").inc()
        return cancelled

    def health(self) -> dict:
        """Readiness snapshot: queue state + service counters, JSON-ready.

        ``ok`` means the queue is accepting work (started, not shut
        down).  The ``runs`` block carries the reconciliation
        invariant's terms; the ``store`` block mirrors the result-store
        counters emitted on this queue's registry.
        """
        metrics = self.telemetry.metrics
        with self._lock:
            jobs = list(self._jobs.values())
            ok = self._started and not self._stopped
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "ok": ok,
            "workers": self.workers,
            "queue_depth": by_state.get(JOB_QUEUED, 0),
            "inflight": by_state.get(JOB_RUNNING, 0),
            "breaker_open": list(self.breaker.open_fingerprints()),
            "jobs": {
                "by_state": by_state,
                "submitted": metrics.value("jobs_submitted"),
                "completed": metrics.value("jobs_completed"),
                "failed": metrics.value("jobs_failed"),
                "cancelled": metrics.value("jobs_cancelled"),
                "shed": metrics.value("jobs_shed"),
                "requeued": metrics.value("jobs_requeued"),
                "recovered": metrics.value("jobs_recovered"),
                "coalesced": metrics.value("jobs_coalesced"),
            },
            "runs": {
                "requested": metrics.value("runs_requested"),
                "simulated": metrics.value("runs_simulated"),
                "resumed": metrics.value("runs_resumed"),
                "served_from_cache": metrics.value("runs_served_from_cache"),
                "shed": metrics.value("runs_shed"),
                "saved_converged": metrics.value("runs_saved_converged"),
                "speculated_waste": metrics.value("runs_speculated_waste"),
            },
            "convergence": {
                "adaptive_campaigns": metrics.value("adaptive_campaigns"),
                "campaigns_converged": metrics.value("campaigns_converged"),
            },
            "store": {
                "hits": metrics.value("store_hits"),
                "misses": metrics.value("store_misses"),
                "integrity_failures": metrics.value("store_integrity_failures"),
                "evictions": metrics.value("store_evictions"),
                "evicted_bytes": metrics.value("store_evicted_bytes"),
            },
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally drain and join the workers.

        With ``wait=True`` queued jobs still in the pipe are executed
        before the workers exit (a submission accepted is a submission
        answered).  With ``wait=False`` the queue stops *now*: jobs
        still queued are cancelled — terminal, so their waiters raise
        a labelled error instead of hanging forever — while running
        jobs finish on their (daemon) workers.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            started = self._started
        if not started or not wait:
            # Nothing will drain the queue (workers never existed, or
            # the caller is abandoning it): cancel queued jobs loudly
            # rather than strand their waiters.
            self._drain_cancelling()
            if started:
                for _ in self._threads:
                    self._queue.put(None)
            return
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        # A job-level retry racing the shutdown can re-queue a job
        # behind the sentinels, where no worker will ever reach it.
        self._drain_cancelling()

    def _drain_cancelling(self) -> None:
        """Empty the queue, cancelling every job found (not sentinels)."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue_mod.Empty:
                return
            if job is not None and job.cancel():
                self.telemetry.metrics.counter("jobs_cancelled").inc()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _shed(self, job: CampaignJob, reason: str, detail: str) -> None:
        """Turn ``job`` terminal with a labelled shed classification."""
        job.shed_reason = reason
        job.error = detail
        metrics = self.telemetry.metrics
        metrics.counter("jobs_shed").inc()
        metrics.counter(f"jobs_shed_{reason}").inc()
        self.telemetry.logger.warning(
            "job_shed",
            message=f"job {job.job_id or '<unadmitted>'} shed "
                    f"({reason}): {detail}",
            job=job.job_id, reason=reason, fingerprint=job.fingerprint,
        )
        if self.journal is not None and job.job_id is not None:
            try:
                self.journal.record_state(job.job_id, JOB_SHED, reason=reason)
            except Exception:  # noqa: BLE001 — shed must not explode
                pass
        job._finish(JOB_SHED)

    def _journal_terminal(self, job: CampaignJob) -> None:
        """Terminal-state callback: append the final state to the journal.

        Swallows journal errors — a full disk must degrade durability
        (the job re-runs after a crash), never correctness (the job's
        waiters still get their result).
        """
        if self.journal is None or job.job_id is None:
            return
        try:
            self.journal.record_state(job.job_id, job.state)
        except Exception as exc:  # noqa: BLE001 — see docstring
            self.telemetry.logger.error(
                "journal_write_failed",
                message=f"could not journal terminal state of {job.job_id}: "
                        f"{exc}",
                job=job.job_id,
            )

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if job.done:  # cancelled/shed while queued
                continue
            self._execute(job)

    def _deadline_for(self, job: CampaignJob) -> Optional[float]:
        if job.deadline_s is not None:
            return job.deadline_s
        return self.admission.deadline_s

    def _execute(self, job: CampaignJob) -> None:
        deadline = self._deadline_for(job)
        if (deadline is not None
                and time.time() - job.submitted_at > deadline):
            # Shed-on-pickup: the job outlived its deadline while
            # queued, so the answer is already late — don't burn a
            # worker producing it.  (Once running, a job always
            # finishes: its result is cached content-addressed, so
            # completed work is never wasted.)
            self._shed(
                job, SHED_DEADLINE,
                f"queued {time.time() - job.submitted_at:.3f}s, "
                f"deadline was {deadline}s",
            )
            return
        with job._lock:
            if job.state != JOB_QUEUED:
                return
            job.state = JOB_RUNNING
            job.started_at = time.time()
            job.attempts += 1
        self.telemetry.metrics.histogram("job_queue_wait_s").observe(
            job.started_at - job.submitted_at
        )
        if self.journal is not None:
            try:
                self.journal.record_state(
                    job.job_id, JOB_RUNNING, attempt=job.attempts
                )
            except Exception:  # noqa: BLE001 — durability, not correctness
                pass
        checkpoint = None
        if self.checkpoint_dir is not None:
            checkpoint = CampaignCheckpoint(
                self.checkpoint_dir / f"{job.fingerprint}.jsonl"
            )
            if job.attempts == 1 and checkpoint.path.exists():
                # Runs already checkpointed at this queue's FIRST
                # pickup were simulated by a previous incarnation
                # (crash recovery): this process's ``runs_simulated``
                # never saw them, so they get their own ledger slot
                # (``runs_resumed``) when the job succeeds.  Runs
                # checkpointed by a failed earlier attempt of *this*
                # queue were already counted live and must not be.
                try:
                    durable, _ = scan_durable_jsonl(
                        checkpoint.path.read_bytes()
                    )
                    job._foreign_runs = max(0, len(durable) - 1)
                except OSError:
                    job._foreign_runs = 0
        try:
            if self.fault_plan is not None:
                fault = self.fault_plan.fault_for(
                    job._admit_index, job.attempts
                )
                if fault == "kill":
                    raise WorkerCrashError(
                        f"chaos: queue worker killed executing "
                        f"{job.job_id} (attempt {job.attempts})"
                    )
            result = collect_execution_times(
                job.trace,
                job.config,
                job.scenario,
                job.runs,
                master_seed=job.master_seed,
                engine=job.engine,
                workers=job.workers,
                cycle_budget=job.cycle_budget,
                checkpoint=checkpoint,
                telemetry=self.telemetry,
                job_id=job.job_id,
                adaptive=job.adaptive,
            )
        except Exception as exc:  # noqa: BLE001 — captured onto the job
            self._handle_failure(job, exc)
            return
        self.breaker.record_success(job.fingerprint)
        if job._foreign_runs and result.resumed_runs:
            # A rejected/stale checkpoint resumes nothing: account
            # only what the campaign actually took over.
            self.telemetry.metrics.counter("runs_resumed").inc(
                min(job._foreign_runs, result.resumed_runs)
            )
        if checkpoint is not None:
            # The result is about to be persisted content-addressed;
            # the run-level checkpoint has served its purpose.
            checkpoint.path.unlink(missing_ok=True)
        job.result = result
        job.source = "simulated"
        self.telemetry.metrics.counter("jobs_completed").inc()
        if result.adaptive:
            # Early convergence frees this worker slot ``runs_saved``
            # runs sooner than the fixed-R budget; the campaign layer
            # already reconciled the saving on ``runs_saved_converged``.
            self.telemetry.logger.info(
                "job_converged",
                message=f"job {job.job_id} "
                        f"{'converged' if result.converged else 'hit max_runs'}"
                        f": {result.runs_executed} of "
                        f"{result.runs_executed + result.runs_saved + result.runs_speculated_waste} runs "
                        f"({result.runs_saved} saved)",
                job=job.job_id, converged=result.converged,
                runs_executed=result.runs_executed,
                runs_saved=result.runs_saved,
                runs_speculated_waste=result.runs_speculated_waste,
            )
        self.telemetry.logger.info(
            "job_done",
            message=f"job {job.job_id} done: {result.runs} runs in "
                    f"{result.wall_time_s:.2f}s ({result.backend})",
            job=job.job_id, runs=result.runs,
            wall_time_s=round(result.wall_time_s, 6), backend=result.backend,
        )
        job._finish(JOB_DONE)

    def _handle_failure(self, job: CampaignJob, exc: Exception) -> None:
        """Classify a campaign failure: breaker, retry budget, or fail.

        Deterministic failures (same seeds → same failure, every
        attempt) count against the circuit breaker and are never
        retried at the job level.  Transient failures re-queue the
        whole job while its ``retry_budget`` lasts — the job's
        checkpoint (if any) carries completed runs across the retry,
        so a retry resumes rather than restarts.
        """
        job.error = traceback.format_exc()
        if isinstance(exc, CampaignRunError):
            job.failures = list(exc.failures)
        kind = classify_exception(exc)
        if isinstance(exc, CampaignRunError):
            # The campaign error aggregates per-run kinds: transient
            # only if every failed run was (a single deterministic run
            # failure reproduces identically on retry).
            kind = (
                ERROR_KIND_TRANSIENT
                if all(f[3] == ERROR_KIND_TRANSIENT for f in exc.failures)
                else "deterministic"
            )
        if kind != ERROR_KIND_TRANSIENT:
            self.breaker.record_failure(job.fingerprint)
        elif job.attempts <= self.admission.retry_budget:
            with self._lock:
                stopped = self._stopped
            if not stopped:
                with job._lock:
                    job.state = JOB_QUEUED
                self.telemetry.metrics.counter("jobs_requeued").inc()
                self.telemetry.logger.warning(
                    "job_requeued",
                    message=f"job {job.job_id} failed transiently "
                            f"(attempt {job.attempts}/"
                            f"{self.admission.retry_budget + 1}); requeued",
                    job=job.job_id, attempt=job.attempts,
                )
                if self.journal is not None:
                    try:
                        self.journal.record_state(
                            job.job_id, "requeued", attempt=job.attempts
                        )
                    except Exception:  # noqa: BLE001
                        pass
                self._queue.put(job)
                return
        self.telemetry.metrics.counter("jobs_failed").inc()
        self.telemetry.logger.error(
            "job_failed",
            message=f"job {job.job_id} failed ({kind}): "
                    f"{job.error.strip().splitlines()[-1]}",
            job=job.job_id, kind=kind,
        )
        job._finish(JOB_FAILED)
