"""Crash-safe write-ahead job journal for the campaign service.

A :class:`~repro.service.jobs.JobQueue` is in-memory: SIGKILL the
serving process and every queued or running :class:`CampaignJob`
vanishes.  This module makes the *job list* as durable as the
per-campaign run journals already are.  A :class:`JobJournal` is an
append-only JSONL file (the same torn-tail-tolerant format as
:mod:`repro.sim.checkpoint` — both loaders share
:func:`~repro.sim.checkpoint.scan_durable_jsonl`):

* line 1 — header: ``{"version", "kind"}``;
* ``admit`` events — written *before* the job enters the queue
  (write-ahead ordering), carrying the full :func:`job_spec` so the
  job can be rebuilt from the journal alone;
* ``state`` events — appended as the job transitions (``running``,
  ``done``, ``failed``, ``shed``, ``cancelled``, ``requeued``,
  ``recovered``).

**Recovery contract** (:func:`recover_jobs`): after a crash, reopen
the journal, rebuild every job whose last recorded state is
non-terminal (``queued``/``running``) and re-admit it through
``store.get_or_submit``.  Jobs that *completed* before the crash
became store entries, so re-admission answers them from the store with
zero simulation; jobs that were mid-campaign resume through their
per-campaign checkpoint, re-dispatching only the runs not already
journalled.  Either way the final samples are bit-identical to an
uninterrupted run — the queue adds scheduling, never semantics, and a
crash adds a restart, never a different sample.

Each recovery writes a ``recovered`` state event naming the new job
id, so a second restart does not re-admit the same work twice.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional

from repro.cpu.trace import Trace
from repro.errors import ReproError, ServiceError
from repro.pta.adaptive import ConvergencePolicy
from repro.sim.checkpoint import scan_durable_jsonl
from repro.sim.config import Scenario, SystemConfig
from repro.core.config import OperationMode
from repro.service.jobs import (
    JOB_QUEUED,
    JOB_RUNNING,
    CampaignJob,
    JobQueue,
)

#: Job-journal schema version; bumped on any incompatible format change.
JOB_JOURNAL_VERSION = 1

#: Header ``kind`` value — distinguishes a job journal from a campaign
#: checkpoint at a glance (and at load time).
JOB_JOURNAL_KIND = "job-journal"


def job_spec(job: CampaignJob) -> dict:
    """Everything needed to rebuild ``job`` after a crash, as JSON.

    The spec embeds the full trace content (not a file path — the
    journal must be self-contained: a trace regenerated at a different
    scale after restart would silently change the sample).  The
    recorded fingerprint lets :func:`job_from_spec` verify the rebuild
    reproduced the identical campaign.
    """
    return {
        "trace": {
            "name": job.trace.name,
            "pcs": list(job.trace.pcs),
            "kinds": list(job.trace.kinds),
            "addresses": list(job.trace.addresses),
        },
        "config": {
            field.name: getattr(job.config, field.name)
            for field in fields(job.config)
        },
        "scenario": {
            "mechanism": job.scenario.mechanism,
            "mode": job.scenario.mode.value,
            "mid": job.scenario.mid,
            "randomise_mid": job.scenario.randomise_mid,
            "ways_per_core": (
                list(job.scenario.ways_per_core)
                if job.scenario.ways_per_core is not None else None
            ),
        },
        "runs": job.runs,
        "master_seed": job.master_seed,
        "engine": job.engine,
        "workers": job.workers,
        "cycle_budget": job.cycle_budget,
        "deadline_s": job.deadline_s,
        "adaptive": (job.adaptive.to_dict()
                     if job.adaptive is not None else None),
        "fingerprint": job.fingerprint,
    }


def job_from_spec(spec: dict) -> CampaignJob:
    """Rebuild a :class:`CampaignJob` from a journalled :func:`job_spec`.

    The rebuilt job's fingerprint must equal the recorded one — a
    mismatch means the journal (or this library's fingerprint
    function) changed underneath the spec, and silently resuming would
    splice a different campaign into the recovered job's identity.
    """
    try:
        trace_spec = spec["trace"]
        trace = Trace(
            name=trace_spec["name"],
            pcs=list(trace_spec["pcs"]),
            kinds=list(trace_spec["kinds"]),
            addresses=list(trace_spec["addresses"]),
        )
        config = SystemConfig(**spec["config"])
        scenario_spec = dict(spec["scenario"])
        ways = scenario_spec.pop("ways_per_core")
        scenario = Scenario(
            mode=OperationMode(scenario_spec.pop("mode")),
            ways_per_core=tuple(ways) if ways is not None else None,
            **scenario_spec,
        )
        # ``.get``: journals written before the adaptive layer carry no
        # policy and rebuild as fixed-R jobs.
        adaptive_spec = spec.get("adaptive")
        job = CampaignJob(
            trace,
            config,
            scenario,
            spec["runs"],
            master_seed=spec["master_seed"],
            engine=spec["engine"],
            workers=spec["workers"],
            cycle_budget=spec["cycle_budget"],
            deadline_s=spec.get("deadline_s"),
            adaptive=(ConvergencePolicy.from_dict(adaptive_spec)
                      if adaptive_spec is not None else None),
        )
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        # ReproError: the library's own validation (a non-positive run
        # count, a bad geometry or op kind, an unknown engine) rejected
        # the rebuilt spec — just as malformed as a missing key.
        raise ServiceError(f"malformed job spec in journal: {exc}") from exc
    recorded = spec.get("fingerprint")
    if recorded is not None and job.fingerprint != recorded:
        raise ServiceError(
            f"journalled job spec rebuilds to fingerprint "
            f"{job.fingerprint}, journal recorded {recorded} — "
            f"refusing to resume a different campaign"
        )
    return job


@dataclass
class JournalEntry:
    """One journalled job: its spec plus the state trail seen so far."""

    job_id: str
    fingerprint: str
    spec: dict
    #: State trail in journal order, e.g. ``["queued", "running"]``.
    states: List[str]

    @property
    def last_state(self) -> str:
        return self.states[-1] if self.states else JOB_QUEUED

    @property
    def pending(self) -> bool:
        """Whether a crash interrupted this job before a terminal state.

        ``recovered`` counts as terminal *for the journal*: the work
        lives on under a new job id (recorded by the recovery event),
        so re-admitting this entry again would duplicate it.
        """
        return self.last_state in (JOB_QUEUED, JOB_RUNNING)


class JobJournal:
    """Append-only write-ahead journal of job admissions and transitions.

    Opening loads the durable prefix (torn trailing line from a crash
    mid-append is truncated away, exactly as campaign checkpoints do),
    replays it into per-job :class:`JournalEntry` state, and positions
    the file for appending.  All writes are flushed per event — at
    most the in-flight event is ever lost.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = None
        self._entries: Dict[str, JournalEntry] = {}
        self._open()

    # ------------------------------------------------------------------
    def _open(self) -> None:
        objects: list = []
        durable = 0
        if self.path.exists():
            with open(self.path, "rb") as stream:
                raw = stream.read()
            objects, durable = scan_durable_jsonl(raw)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if objects:
            header = objects[0]
            if (header.get("version") != JOB_JOURNAL_VERSION
                    or header.get("kind") != JOB_JOURNAL_KIND):
                raise ServiceError(
                    f"{self.path} is not a version-{JOB_JOURNAL_VERSION} "
                    f"job journal (header {header!r})"
                )
            for event in objects[1:]:
                self._replay(event)
            os.truncate(self.path, durable)  # drop any torn tail
            self._file = open(self.path, "a")
        else:
            self._file = open(self.path, "w")
            self._write({"version": JOB_JOURNAL_VERSION,
                         "kind": JOB_JOURNAL_KIND})

    def _replay(self, event: dict) -> None:
        job_id = event.get("job_id")
        if event.get("event") == "admit":
            self._entries[job_id] = JournalEntry(
                job_id=job_id,
                fingerprint=event.get("fingerprint", ""),
                spec=event.get("spec", {}),
                states=[JOB_QUEUED],
            )
        elif event.get("event") == "state":
            entry = self._entries.get(job_id)
            if entry is not None:
                entry.states.append(event.get("state", ""))
        # Unknown event kinds are skipped: a newer writer may add
        # event types an older reader can safely ignore.

    def _write(self, event: dict) -> None:
        if self._file is None:
            raise ServiceError(f"job journal {self.path} is closed")
        self._file.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._file.flush()

    # ------------------------------------------------------------------
    def record_admitted(self, job: CampaignJob) -> None:
        """Journal an admission — call *before* the job enters the queue."""
        spec = job_spec(job)
        with self._lock:
            self._write({
                "event": "admit",
                "job_id": job.job_id,
                "fingerprint": job.fingerprint,
                "spec": spec,
            })
            self._entries[job.job_id] = JournalEntry(
                job_id=job.job_id,
                fingerprint=job.fingerprint,
                spec=spec,
                states=[JOB_QUEUED],
            )

    def record_state(self, job_id: str, state: str, **extra) -> None:
        """Journal a state transition for an admitted job."""
        with self._lock:
            self._write({"event": "state", "job_id": job_id,
                         "state": state, **extra})
            entry = self._entries.get(job_id)
            if entry is not None:
                entry.states.append(state)

    def record_recovered(self, job_id: str, new_job: CampaignJob) -> None:
        """Mark ``job_id`` as re-admitted under ``new_job``'s identity.

        Written by :func:`recover_jobs` so a *second* restart does not
        re-admit the same interrupted work twice.
        """
        self.record_state(
            job_id, "recovered",
            readmitted_as=new_job.job_id, fingerprint=new_job.fingerprint,
        )

    # ------------------------------------------------------------------
    def next_job_number(self) -> int:
        """One past the highest ``job-NNNNNN`` number journalled so far.

        A restarted queue seeds its id counter here so recovered jobs
        get *fresh* ids: if a re-admission reused a journalled id, its
        ``recovered`` marker would land on its own entry and a second
        crash-and-restart would silently skip the job.
        """
        with self._lock:
            highest = 0
            for job_id in self._entries:
                if job_id and job_id.startswith("job-"):
                    try:
                        highest = max(highest, int(job_id[4:]))
                    except ValueError:
                        continue
            return highest + 1

    def entries(self) -> List[JournalEntry]:
        """Every journalled job, in admission order."""
        with self._lock:
            return list(self._entries.values())

    def pending(self) -> List[JournalEntry]:
        """Jobs a crash interrupted (last state queued/running)."""
        with self._lock:
            return [entry for entry in self._entries.values() if entry.pending]

    def close(self) -> None:
        """Close the journal file (safe to call twice)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def recover_jobs(
    journal: JobJournal,
    queue: JobQueue,
    store=None,
) -> List[CampaignJob]:
    """Re-admit every job the journal shows as interrupted.

    Each pending entry is rebuilt via :func:`job_from_spec` and
    re-admitted — through ``store.get_or_submit`` when a
    :class:`~repro.service.store.ResultStore` is given (so work that
    actually completed before the crash is answered from the store
    with zero simulation, and identical interrupted jobs coalesce),
    plain ``queue.submit`` otherwise.  Campaigns that were mid-run
    resume through their per-campaign checkpoints if the queue has a
    ``checkpoint_dir``; the recovered samples are bit-identical to an
    uninterrupted run either way.

    A spec that cannot be rebuilt (malformed journal, fingerprint
    mismatch) is counted on ``journal_rebuild_failures`` and skipped —
    one bad entry must not block recovery of the rest.  Returns the
    newly admitted jobs, in journal order.
    """
    metrics = queue.telemetry.metrics
    recovered: List[CampaignJob] = []
    for entry in journal.pending():
        try:
            job = job_from_spec(entry.spec)
        except ServiceError as exc:
            metrics.counter("journal_rebuild_failures").inc()
            queue.telemetry.logger.error(
                "journal_rebuild_failed",
                message=f"cannot rebuild journalled job {entry.job_id}: {exc}",
                job=entry.job_id, fingerprint=entry.fingerprint,
            )
            continue
        if store is not None:
            admitted = store.get_or_submit(job, queue)
        else:
            admitted = queue.submit(job)
        journal.record_recovered(entry.job_id, admitted)
        metrics.counter("jobs_recovered").inc()
        queue.telemetry.logger.info(
            "job_recovered",
            message=f"journalled job {entry.job_id} re-admitted as "
                    f"{admitted.job_id} (last state {entry.last_state!r})",
            job=admitted.job_id, previous_job=entry.job_id,
            fingerprint=entry.fingerprint,
        )
        recovered.append(admitted)
    return recovered
