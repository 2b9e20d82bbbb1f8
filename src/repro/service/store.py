"""Content-addressed result store with in-flight coalescing and GC.

A campaign is a pure function of ``(trace content, config, scenario,
master seed, runs)``; :func:`~repro.sim.checkpoint.campaign_fingerprint`
digests exactly that tuple.  The store uses the fingerprint as the
address: one JSON entry per fingerprint, holding the full
:meth:`~repro.sim.campaign.CampaignResult.to_dict` payload plus a
sha256 checksum over its canonical serialisation.

**Dedup contract** (the service's headline guarantee): resubmitting a
byte-identical campaign performs **zero** simulation runs and returns
a result whose samples, seeds and per-run records are bit-identical to
the first submission's.  Three paths deliver it:

* **store hit** — the fingerprint is on disk: the entry is loaded,
  its checksum re-verified, and the job completes in state ``cached``
  without ever entering the queue;
* **in-flight coalescing** — an identical campaign is *currently*
  running: the new submission attaches to the running job and both
  waiters receive the same result object when it finishes;
* **miss** — the campaign is simulated once, and a completion
  callback persists the result before any waiter is released (so a
  submission that observed a ``done`` job can immediately hit the
  store).

Integrity is never assumed: :meth:`ResultStore.get` recomputes the
checksum on every load and raises
:class:`~repro.errors.ResultIntegrityError` on mismatch —
:meth:`get_or_submit` treats a corrupt entry as a miss and re-simulates
(counted by ``store_integrity_failures``), so bit-rot degrades to a
cache miss, never to a wrong sample.

**Garbage collection** (:class:`StoreQuota`): an unbounded store on a
bounded disk is a production outage on a timer.  A store constructed
with a quota evicts least-recently-*accessed* entries (mtime is
touched on every verified read) whenever it exceeds its byte / entry
bounds, and drops entries older than ``max_age_s`` outright.  Two
classes of entry are never evicted: explicitly :meth:`pin`-ned
fingerprints, and fingerprints with an in-flight ``get_or_submit``
claim (evicting an entry the persist callback is about to rely on
would turn a finished simulation into a miss).  Because every entry
is a pure function of its fingerprint, eviction is always safe for
correctness — a re-submission of an evicted campaign re-simulates
bit-identically; GC trades CPU for disk, never samples.

**Accounting** (metrics on the queue's registry)::

    runs_requested == runs_simulated + runs_resumed
                      + runs_served_from_cache + runs_shed
                      + runs_saved_converged

``runs_requested`` counts every run asked of :meth:`get_or_submit`;
``runs_served_from_cache`` covers store hits *and* coalesced
attachments (their runs were requested but not re-simulated);
``runs_simulated`` is incremented per executed run by the
:class:`~repro.sim.telemetry.TelemetryObserver`; ``runs_resumed``
covers runs taken over from a dead process's checkpoint after crash
recovery (simulated — and counted — before this process started);
``runs_shed`` covers
front-door jobs the admission layer refused (queue full, circuit
open, deadline) or that were cancelled while queued;
``runs_saved_converged`` covers runs an adaptive campaign's
:class:`~repro.pta.adaptive.ConvergencePolicy` proved unnecessary —
requested up to ``max_runs`` but never simulated because the pWCET
quantile stabilised early.  Under overload
or not, no requested run is ever silently dropped from the ledger.
(Jobs that *fail* in simulation sit outside the invariant — their
runs are requested but neither simulated to completion, served, nor
shed; the suite asserts the invariant on success-and-shed paths.)
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ResultIntegrityError, ServiceError
from repro.sim.campaign import CampaignResult
from repro.service.jobs import (
    JOB_CACHED,
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_SHED,
    CampaignJob,
    JobQueue,
)

#: Entry format version — bumped if the payload schema ever changes.
STORE_VERSION = 1

#: Multipliers for the ``k``/``m``/``g`` byte suffixes of
#: :meth:`StoreQuota.parse` (binary, as disks are billed).
_BYTE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
#: Multipliers for the ``s``/``m``/``h``/``d`` age suffixes.
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _canonical(payload: dict) -> bytes:
    """The byte string the entry checksum covers.

    Sorted keys and fixed separators make the serialisation canonical:
    the same payload dict always hashes identically, independent of
    insertion order or writer version.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def payload_checksum(payload: dict) -> str:
    """sha256 over the canonical serialisation of a result payload."""
    return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass(frozen=True)
class StoreQuota:
    """Bounds a :class:`ResultStore` enforces at every write.

    Any field may be ``None`` (unbounded along that axis); a quota
    with every field ``None`` is legal and makes GC a no-op, which is
    also the behaviour of a store constructed without a quota.
    """

    #: Total bytes of stored entries (evict LRU past this).
    max_bytes: Optional[int] = None
    #: Total number of stored entries (evict LRU past this).
    max_entries: Optional[int] = None
    #: Seconds since last access after which an entry is dropped.
    max_age_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_bytes is not None and self.max_bytes < 1:
            raise ConfigurationError(
                f"store quota max_bytes must be >= 1, got {self.max_bytes}"
            )
        if self.max_entries is not None and self.max_entries < 1:
            raise ConfigurationError(
                f"store quota max_entries must be >= 1, got {self.max_entries}"
            )
        if self.max_age_s is not None and self.max_age_s <= 0:
            raise ConfigurationError(
                f"store quota max_age_s must be positive, got {self.max_age_s}"
            )

    @property
    def bounded(self) -> bool:
        """Whether any axis is actually limited."""
        return (self.max_bytes is not None or self.max_entries is not None
                or self.max_age_s is not None)

    @classmethod
    def parse(cls, spec: str) -> "StoreQuota":
        """Parse the CLI quota syntax ``bytes[:entries[:age]]``.

        Bytes take ``k``/``m``/``g`` (binary) suffixes; age takes
        ``s``/``m``/``h``/``d``.  An empty segment leaves that axis
        unbounded: ``"100m"``, ``"100m:500"``, ``":500"``,
        ``"1g::7d"`` are all valid.
        """
        parts = spec.split(":")
        if len(parts) > 3:
            raise ConfigurationError(
                f"store quota {spec!r} has more than three segments "
                f"(expected bytes[:entries[:age]])"
            )
        parts += [""] * (3 - len(parts))
        raw_bytes, raw_entries, raw_age = (part.strip() for part in parts)

        max_bytes = None
        if raw_bytes:
            text = raw_bytes.lower()
            factor = 1
            if text[-1] in _BYTE_SUFFIXES:
                factor = _BYTE_SUFFIXES[text[-1]]
                text = text[:-1]
            try:
                max_bytes = int(float(text) * factor)
            except ValueError as exc:
                raise ConfigurationError(
                    f"store quota {spec!r}: bad byte bound {raw_bytes!r}"
                ) from exc

        max_entries = None
        if raw_entries:
            try:
                max_entries = int(raw_entries)
            except ValueError as exc:
                raise ConfigurationError(
                    f"store quota {spec!r}: bad entry bound {raw_entries!r}"
                ) from exc

        max_age_s = None
        if raw_age:
            text = raw_age.lower()
            factor = 1.0
            if text[-1] in _AGE_SUFFIXES:
                factor = _AGE_SUFFIXES[text[-1]]
                text = text[:-1]
            try:
                max_age_s = float(text) * factor
            except ValueError as exc:
                raise ConfigurationError(
                    f"store quota {spec!r}: bad age bound {raw_age!r}"
                ) from exc

        return cls(max_bytes=max_bytes, max_entries=max_entries,
                   max_age_s=max_age_s)


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry, as GC sees it."""

    fingerprint: str
    path: Path
    size_bytes: int
    #: Last verified read (or write), seconds since the epoch.
    last_access: float


class ResultStore:
    """Directory of content-addressed campaign results.

    Entries live at ``<root>/<fingerprint>.json``.  Writes are atomic
    (temp file + ``os.replace``) so a crash mid-write leaves either the
    old entry or none — never a torn one; the checksum catches anything
    that slips through anyway.  An optional :class:`StoreQuota` bounds
    the store: every :meth:`put` runs :meth:`gc` afterwards, evicting
    least-recently-accessed unpinned entries past the quota.
    """

    def __init__(self, root, quota: Optional[StoreQuota] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quota = quota
        self._lock = threading.Lock()
        #: fingerprint -> running job, for in-flight coalescing.
        self._inflight: Dict[str, CampaignJob] = {}
        #: fingerprint -> pin count; pinned entries are never evicted.
        self._pins: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # plain store API
    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        """Where the entry for ``fingerprint`` lives."""
        return self.root / f"{fingerprint}.json"

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def fingerprints(self) -> List[str]:
        """Every stored fingerprint, sorted."""
        return sorted(path.stem for path in self.root.glob("*.json"))

    def entries(self) -> List[StoreEntry]:
        """Every on-disk entry, least-recently-accessed first."""
        found: List[StoreEntry] = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with an eviction/replace
            found.append(StoreEntry(
                fingerprint=path.stem,
                path=path,
                size_bytes=stat.st_size,
                last_access=stat.st_mtime,
            ))
        found.sort(key=lambda entry: (entry.last_access, entry.fingerprint))
        return found

    def total_bytes(self) -> int:
        """Bytes currently occupied by stored entries."""
        return sum(entry.size_bytes for entry in self.entries())

    def put(self, fingerprint: str, result: CampaignResult,
            metrics=None) -> Path:
        """Persist a result under its fingerprint (atomic, idempotent).

        When the store has a quota, GC runs after the write so the
        store re-enters its bounds immediately (the entry just written
        is itself the most recently accessed, so it is evicted last —
        and never, while its submission's claim is still in flight).
        """
        payload = result.to_dict()
        entry = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        path = self.path_for(fingerprint)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(entry, indent=2))
        os.replace(tmp, path)
        if self.quota is not None and self.quota.bounded:
            self.gc(metrics=metrics)
        return path

    def get(self, fingerprint: str) -> CampaignResult:
        """Load and integrity-verify the entry for ``fingerprint``.

        Raises :class:`~repro.errors.ServiceError` when absent and
        :class:`~repro.errors.ResultIntegrityError` when the entry is
        unparsable, structurally wrong, or fails its checksum.  A
        verified read touches the entry's mtime — the LRU clock GC
        orders evictions by.
        """
        path = self.path_for(fingerprint)
        if not path.exists():
            raise ServiceError(
                f"result store {self.root} has no entry for "
                f"fingerprint {fingerprint}"
            )
        try:
            entry = json.loads(path.read_bytes().decode("utf-8"))
            version = entry["version"]
            stored_fp = entry["fingerprint"]
            checksum = entry["checksum"]
            payload = entry["payload"]
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError) as exc:
            raise ResultIntegrityError(
                f"store entry {path} is malformed: {exc}"
            ) from exc
        if version != STORE_VERSION:
            raise ResultIntegrityError(
                f"store entry {path} has version {version!r}, "
                f"this library reads version {STORE_VERSION}"
            )
        if stored_fp != fingerprint:
            raise ResultIntegrityError(
                f"store entry {path} claims fingerprint {stored_fp}, "
                f"expected {fingerprint}"
            )
        actual = payload_checksum(payload)
        if actual != checksum:
            raise ResultIntegrityError(
                f"store entry {path} failed integrity verification: "
                f"checksum {actual} != recorded {checksum}"
            )
        try:
            result = CampaignResult.from_dict(payload)
        except (KeyError, TypeError) as exc:
            raise ResultIntegrityError(
                f"store entry {path} payload cannot be rebuilt: {exc}"
            ) from exc
        try:
            os.utime(path)  # refresh the LRU clock on a verified read
        except OSError:
            pass  # the read stands even if the touch races an eviction
        return result

    # ------------------------------------------------------------------
    # pinning & garbage collection
    # ------------------------------------------------------------------
    def pin(self, fingerprint: str) -> None:
        """Exempt ``fingerprint`` from eviction until :meth:`unpin`-ned.

        Pins are counted: two pins need two unpins.  Pinning a
        fingerprint with no stored entry is legal — the pin protects
        whatever entry lands under that fingerprint later.
        """
        with self._lock:
            self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Release one pin; raises on an unpin with no matching pin."""
        with self._lock:
            count = self._pins.get(fingerprint, 0)
            if count <= 0:
                raise ServiceError(
                    f"unpin of {fingerprint} without a matching pin"
                )
            if count == 1:
                del self._pins[fingerprint]
            else:
                self._pins[fingerprint] = count - 1

    def pinned(self) -> List[str]:
        """Fingerprints currently exempt from eviction (sorted).

        The union of explicit :meth:`pin`-s and in-flight
        ``get_or_submit`` claims: a claimed fingerprint's entry is
        about to be written (or was just written and is about to be
        relied on), so evicting it would race the claim's own
        persistence.
        """
        with self._lock:
            return sorted(set(self._pins) | set(self._inflight))

    def gc(self, metrics=None, now: Optional[float] = None) -> List[str]:
        """Evict entries until the store is back inside its quota.

        Eviction order: first every unpinned entry older than
        ``max_age_s``, then least-recently-accessed unpinned entries
        while the store exceeds ``max_bytes`` or ``max_entries``.
        Pinned and in-flight fingerprints are never evicted, so while
        claims are in flight the store may sit over quota for a moment.
        Each claim re-runs GC once it is released (see ``_persist``),
        so a quiescent store without pins is within its quota.  An
        explicit :meth:`pin` can hold the store over quota until the
        first GC after its :meth:`unpin`.  Returns the evicted
        fingerprints.
        """
        if self.quota is None or not self.quota.bounded:
            return []
        clock = time.time() if now is None else now
        protected = set(self.pinned())
        entries = self.entries()
        evicted: List[str] = []

        def evict(entry: StoreEntry) -> None:
            try:
                entry.path.unlink()  # no missing_ok: a raced eviction
            except OSError:          # must be accounted exactly once
                return
            evicted.append(entry.fingerprint)
            if metrics is not None:
                metrics.counter("store_evictions").inc()
                metrics.counter("store_evicted_bytes").inc(entry.size_bytes)

        survivors: List[StoreEntry] = []
        for entry in entries:
            expired = (
                self.quota.max_age_s is not None
                and clock - entry.last_access > self.quota.max_age_s
            )
            if expired and entry.fingerprint not in protected:
                evict(entry)
            else:
                survivors.append(entry)

        total = sum(entry.size_bytes for entry in survivors)
        count = len(survivors)
        remaining: List[StoreEntry] = []
        for entry in survivors:  # oldest first
            over_bytes = (self.quota.max_bytes is not None
                          and total > self.quota.max_bytes)
            over_count = (self.quota.max_entries is not None
                          and count > self.quota.max_entries)
            if not (over_bytes or over_count):
                remaining.append(entry)
                continue
            if entry.fingerprint in protected:
                remaining.append(entry)
                continue
            evict(entry)
            total -= entry.size_bytes
            count -= 1
        return evicted

    # ------------------------------------------------------------------
    # dedup front door
    # ------------------------------------------------------------------
    def get_or_submit(self, job: CampaignJob, queue: JobQueue) -> CampaignJob:
        """Answer ``job`` from storage, an in-flight twin, or the queue.

        Always returns a job that will resolve to the campaign's
        result — possibly ``job`` itself (simulated), possibly an
        already-running identical job (coalesced).  See the module
        docstring for the three paths and the accounting contract.
        A submission the queue sheds raises the labelled
        :class:`~repro.errors.AdmissionError` (and the shed runs land
        on ``runs_shed``, keeping the ledger exact).
        """
        metrics = queue.telemetry.metrics
        metrics.counter("runs_requested").inc(job.runs)
        fingerprint = job.fingerprint

        # The whole hit/coalesce/miss decision happens under the store
        # lock: concurrent identical submissions must resolve to exactly
        # one simulation, so checking the in-flight table, probing the
        # disk entry and claiming the in-flight slot must be atomic
        # (a lock-free check-then-claim would let two threads both miss
        # and simulate the same campaign twice).
        result = None
        integrity_error: Optional[ResultIntegrityError] = None
        with self._lock:
            running = self._inflight.get(fingerprint)
            if running is not None and running.done:
                running = None  # finished; its entry is on disk below
            elif running is not None and running.state in (
                JOB_FAILED, JOB_CANCELLED, JOB_SHED
            ):
                # Dead claim: a failed, cancelled or shed job never
                # writes a store entry, so its slot no longer represents
                # a simulation in flight — coalescing onto it would hand
                # this submitter the old failure instead of a fresh
                # simulation.  ``state`` (set before the terminal event)
                # is checked deliberately: it closes the window where
                # the dead job's cleanup callback has not yet released
                # the slot.  Done jobs keep the ``done`` check above —
                # their entry is only guaranteed on disk once the
                # terminal event fires.
                running = None
            if running is None:
                if self.path_for(fingerprint).exists():
                    try:
                        result = self.get(fingerprint)
                    except ResultIntegrityError as exc:
                        integrity_error = exc
                        self.path_for(fingerprint).unlink(missing_ok=True)
                if result is None:
                    # Miss: claim the slot before releasing the lock.
                    # The claim doubles as an eviction pin (see
                    # ``pinned``), so GC cannot race the persist.
                    self._inflight[fingerprint] = job

        if running is not None:
            # In-flight coalescing: ride the running job.
            metrics.counter("jobs_coalesced").inc()
            metrics.counter("runs_served_from_cache").inc(job.runs)
            job.job_id = running.job_id
            job.source = "coalesced"
            queue.telemetry.logger.info(
                "job_coalesced",
                message=f"submission coalesced onto running job "
                        f"{running.job_id} (fingerprint {fingerprint})",
                job=running.job_id, fingerprint=fingerprint,
            )
            return running

        if result is not None:
            metrics.counter("store_hits").inc()
            metrics.counter("runs_served_from_cache").inc(job.runs)
            job.job_id = f"cached-{fingerprint}"
            job.result = result
            job.source = "store"
            queue.telemetry.logger.info(
                "job_cached",
                message=f"campaign served from store "
                        f"(fingerprint {fingerprint}, "
                        f"{result.runs} runs, 0 simulated)",
                job=job.job_id, fingerprint=fingerprint,
                runs=result.runs,
            )
            job._finish(JOB_CACHED)
            return job

        if integrity_error is not None:
            # Corrupt entry was dropped above; re-simulate.
            metrics.counter("store_integrity_failures").inc()
            queue.telemetry.logger.warning(
                "store_integrity_failure",
                message=f"store entry for {fingerprint} failed "
                        f"verification; re-simulating "
                        f"({str(integrity_error).strip().splitlines()[-1]})",
                fingerprint=fingerprint,
            )
        metrics.counter("store_misses").inc()
        # Front-door accounting: this job's runs entered the ledger via
        # ``runs_requested`` above; if the job is later shed or
        # cancelled they must land on ``runs_shed``.  The callback (not
        # the queue) owns that increment so a direct ``job.cancel()``
        # is accounted identically to a queue-side shed.
        job.accounted_runs = job.runs
        job.add_callback(lambda done: self._account_shed(done, metrics))
        job.add_callback(lambda done: self._persist(done, queue))
        try:
            return queue.submit(job)
        except Exception as exc:
            # The claim slot was taken under the lock above; a job the
            # queue refused will never reach a terminal state *unless*
            # the refusal itself shed it (AdmissionError paths finish
            # the job as ``shed`` before raising, which also ran
            # _persist and released the claim).  Release the claim if
            # still ours, fail a job that is not yet terminal (which
            # releases any waiters), then let the error propagate.
            with self._lock:
                if self._inflight.get(fingerprint) is job:
                    del self._inflight[fingerprint]
            if not job.done:
                job.error = f"submission failed: {exc}"
                job._finish(JOB_FAILED)
            queue.telemetry.logger.error(
                "submit_failed",
                message=f"queue refused campaign submission "
                        f"(fingerprint {fingerprint}): {exc}",
                fingerprint=fingerprint,
            )
            raise

    def _account_shed(self, job: CampaignJob, metrics) -> None:
        """Completion callback: shed/cancelled front-door runs → ledger."""
        if job.state in (JOB_CANCELLED, JOB_SHED) and job.accounted_runs:
            metrics.counter("runs_shed").inc(job.accounted_runs)

    def _persist(self, job: CampaignJob, queue: JobQueue) -> None:
        """Completion callback: write done jobs, clear the in-flight slot.

        Runs on the worker thread *before* waiters are released
        (``CampaignJob._finish`` fires callbacks ahead of the terminal
        event), so a submitter that observed a ``done`` job can
        immediately hit the store.  The entry is written *before* the
        in-flight slot clears — a new submission always finds the slot
        or the entry, never a gap that would trigger a duplicate
        simulation.  A failed write degrades to a cache miss on the
        next submission — logged, never fatal to the job.
        """
        try:
            if job.result is not None and job.state != JOB_CACHED:
                try:
                    self.put(job.fingerprint, job.result,
                             metrics=queue.telemetry.metrics)
                except OSError as exc:
                    queue.telemetry.logger.error(
                        "store_write_failed",
                        message=f"could not persist job {job.job_id} "
                                f"(fingerprint {job.fingerprint}): {exc}",
                        job=job.job_id, fingerprint=job.fingerprint,
                    )
        finally:
            with self._lock:
                released = self._inflight.get(job.fingerprint) is job
                if released:
                    del self._inflight[job.fingerprint]
            if released and self.quota is not None and self.quota.bounded:
                # The claim protected this entry (and blocked the GC of
                # concurrent persists); with it gone, a GC that starts
                # after the last claim clears sees every entry and no
                # stale protection, so the quiescent store is in quota.
                self.gc(metrics=queue.telemetry.metrics)

    def submit(
        self, job: CampaignJob, queue: Optional[JobQueue] = None, **queue_opts
    ) -> CampaignResult:
        """One-call convenience: dedup-submit and wait for the result.

        With no ``queue``, a private single-worker queue is created and
        torn down around the call (the CLI ``submit`` verb's path);
        ``queue_opts`` are forwarded to it.
        """
        if queue is not None:
            return self.get_or_submit(job, queue).wait()
        with JobQueue(workers=1, **queue_opts) as private:
            return self.get_or_submit(job, private).wait()
