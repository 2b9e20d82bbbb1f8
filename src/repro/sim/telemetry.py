"""Telemetry wiring for campaigns: the observer that feeds metrics.

:class:`TelemetryObserver` adapts the :class:`~repro.sim.backend.RunObserver`
seam onto a :class:`~repro.observability.Telemetry` bundle: every
completed run increments ``runs_simulated`` and feeds the per-run wall
-time histogram, retries/failures/worker-crashes increment their
counters, and campaign start/end emit structured log records.  It
wraps (and always forwards to) whatever observer the caller already
attached, so progress output, checkpoint journalling and profiling
compose with telemetry instead of competing with it.

The observer measures, never decides — attaching it cannot change
samples, seeds or checksums (the telemetry suite asserts this across
the scalar and kernel engines, single-process and sharded).

Metric names emitted here (and by the seams reading
:func:`~repro.observability.current_telemetry`):

=========================  ====================================================
``runs_simulated``         completed simulation runs (post-retry, final)
``runs_failed``            runs that failed for good
``runs_retried``           transient attempts that were re-dispatched
``worker_crashes``         hard pool-worker deaths detected
``campaigns_started``      campaigns entering execution
``campaigns_completed``    campaigns that produced a sample
``adaptive_campaigns``     campaigns run under a ConvergencePolicy
``campaigns_converged``    adaptive campaigns that stopped early
``runs_saved_converged``   runs a convergence policy proved unnecessary
``waves_dispatched``       process-pool dispatch waves (backend seam)
``plan_cache_hits/misses`` compiled-trace-program cache traffic (plan cache)
``run_wall_time_s``        histogram of per-run host seconds
``wave_latency_s``         histogram of per-wave host seconds (backend seam)
``campaign_latency_s``     histogram of per-campaign host seconds
=========================  ====================================================

Service-layer names (emitted by :mod:`repro.service` on the queue's
registry; listed here so the full metric namespace has one home):

===============================  ==============================================
``jobs_submitted/completed/...`` job lifecycle counters (``failed``,
                                 ``cancelled``, ``coalesced``)
``jobs_shed``                    submissions refused by admission control
``jobs_shed_<reason>``           per-reason shed breakdown (``queue_full``,
                                 ``circuit_open``, ``deadline``)
``jobs_requeued``                job-level transient retries (retry budget)
``jobs_recovered``               journalled jobs re-admitted after a restart
``journal_rebuild_failures``     journal entries that could not be rebuilt
``runs_requested``               runs asked of the store front door
``runs_resumed``                 runs taken over from a dead process's
                                 checkpoint (simulated before this process)
``runs_served_from_cache``       runs answered by store hits / coalescing
``runs_shed``                    runs of shed or cancelled front-door jobs
``store_hits/misses``            result-store lookups
``store_integrity_failures``     corrupt entries dropped and re-simulated
``store_evictions``              entries GC removed to satisfy the quota
``store_evicted_bytes``          bytes reclaimed by those evictions
``job_queue_wait_s``             histogram of queue-wait seconds
``job_queue_depth``              gauge: jobs waiting for a worker
``jobs_inflight``                gauge: jobs currently executing
===============================  ==============================================

with the service reconciliation invariant ``runs_requested ==
runs_simulated + runs_resumed + runs_served_from_cache + runs_shed
+ runs_saved_converged``
holding on every success-or-shed path (``runs_resumed`` is non-zero
only after crash recovery: those runs were simulated — and counted —
by a previous process incarnation; ``runs_saved_converged`` only for
adaptive campaigns that stopped before their ``max_runs`` ceiling).

Campaign spans gain an ``adaptive`` attribute and per-wave
``adaptive_wave`` child spans when a convergence policy drives the
dispatch.
"""

from __future__ import annotations

from typing import Optional

from repro.observability import Telemetry
from repro.sim.backend import RunObserver, RunRecord


class TelemetryObserver(RunObserver):
    """Mirror every backend event into a :class:`Telemetry` bundle.

    ``inner`` is the observer chain already attached to the campaign
    (user observer, checkpoint writer, profiler); every hook forwards
    to it unchanged after emitting.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        inner: Optional[RunObserver] = None,
        job_id: Optional[str] = None,
    ) -> None:
        self.telemetry = telemetry
        self.inner = inner
        context = {} if job_id is None else {"job": job_id}
        self.log = telemetry.logger.bind(**context)

    # ------------------------------------------------------------------
    def on_campaign_start(self, task: str, scenario_label: str, runs: int) -> None:
        self.telemetry.metrics.counter("campaigns_started").inc()
        self.log.info(
            "campaign_start",
            message=f"campaign: {task} under {scenario_label} ({runs} runs)",
            task=task, scenario=scenario_label, runs=runs,
        )
        if self.inner is not None:
            self.inner.on_campaign_start(task, scenario_label, runs)

    def on_run(self, record: RunRecord) -> None:
        self.telemetry.metrics.counter("runs_simulated").inc()
        self.telemetry.metrics.histogram("run_wall_time_s").observe(
            record.wall_time_s
        )
        self.log.debug(
            "run_done", index=record.index, seed=f"{record.seed:#x}",
            cycles=record.cycles,
        )
        if self.inner is not None:
            self.inner.on_run(record)

    def on_run_failed(self, index: int, seed: int, error: str) -> None:
        self.telemetry.metrics.counter("runs_failed").inc()
        last = error.strip().splitlines()[-1] if error else "unknown error"
        self.log.error(
            "run_failed",
            message=f"run {index} FAILED (seed {seed:#x}): {last}",
            index=index, seed=f"{seed:#x}", error=last,
        )
        if self.inner is not None:
            self.inner.on_run_failed(index, seed, error)

    def on_retry(self, index: int, seed: int, attempt: int, error: str) -> None:
        self.telemetry.metrics.counter("runs_retried").inc()
        last = error.strip().splitlines()[-1] if error else "unknown error"
        self.log.warning(
            "run_retry",
            message=f"run {index} retrying after attempt {attempt} "
                    f"(seed {seed:#x}): {last}",
            index=index, seed=f"{seed:#x}", attempt=attempt, error=last,
        )
        if self.inner is not None:
            self.inner.on_retry(index, seed, attempt, error)

    def on_worker_crash(self, dead_workers: int) -> None:
        self.telemetry.metrics.counter("worker_crashes").inc(dead_workers)
        self.log.warning(
            "worker_crash",
            message=f"{dead_workers} worker(s) died hard; rebuilding pool "
                    f"and re-dispatching unfinished runs",
            dead_workers=dead_workers,
        )
        if self.inner is not None:
            self.inner.on_worker_crash(dead_workers)

    def on_checkpoint(self, index: int, seed: int, completed: int,
                      total: int) -> None:
        self.log.debug("checkpoint", completed=completed, total=total)
        if self.inner is not None:
            self.inner.on_checkpoint(index, seed, completed, total)

    def on_campaign_end(self, result: object) -> None:
        self.telemetry.metrics.counter("campaigns_completed").inc()
        wall = getattr(result, "wall_time_s", 0.0)
        runs = getattr(result, "runs", 0)
        if wall > 0:
            self.telemetry.metrics.histogram("campaign_latency_s").observe(wall)
        self.log.info(
            "campaign_end",
            message=f"campaign done: {runs} runs in {wall:.2f}s",
            runs=runs, wall_time_s=round(wall, 6),
            backend=getattr(result, "backend", "?"),
        )
        if self.inner is not None:
            self.inner.on_campaign_end(result)

    def on_message(self, message: str) -> None:
        # Backend advisories can repeat within one campaign (a degrade
        # decision consulted per wave, a per-chunk fallback with the
        # same reason): the structured log carries each distinct
        # advisory once per campaign — the dedupe scope is this
        # observer's bound logger — while the inner observer chain
        # still receives every emission unchanged.
        self.log.info("message", message=message, dedupe=f"message:{message}")
        if self.inner is not None:
            self.inner.on_message(message)
