"""Deterministic fault injection: reproducible chaos for the run engine.

The resilience machinery (retries, crash recovery, watchdogs, result
integrity checks) only earns trust if every recovery path is exercised
on demand — and exercised *reproducibly*, so a chaos test that fails
in CI fails identically on a laptop.  This module provides that:

* :class:`FaultPlan` — a pure function from ``(index, attempt)`` to a
  fault kind, derived from a seed.  The same plan injects the same
  faults in every process, on every host, in every run of the suite.
* :class:`FaultInjectingBackend` — wraps any execution backend and
  installs the plan into its execution path: in-process for
  :class:`~repro.sim.backend.SerialBackend`, at worker bootstrap for
  :class:`~repro.sim.backend.ProcessPoolBackend` (where an injected
  "crash" genuinely ``os._exit``\\ s the worker and an injected "hang"
  genuinely parks it past the watchdog).

Fault kinds and the recovery path each one exercises:

========== ==========================================================
``crash``  hard worker death → exit-code detection, pool rebuild,
           re-dispatch (:class:`~repro.errors.WorkerCrashError`)
``hang``   worker parks past ``run_timeout_s`` → progress watchdog,
           pool termination (:class:`~repro.errors.RunTimeoutError`)
``slow``   run sleeps ``slow_s`` → no failure; exercises completion
           reordering and watchdog *non*-firing
``corrupt`` result mutated after checksumming → consumer-side
           integrity check (:class:`~repro.errors.ResultIntegrityError`)
========== ==========================================================

Because retries re-execute pure functions of ``(template, index,
seed)``, a campaign under any fault plan yields ``execution_times``
bit-identical to a fault-free serial campaign — the property the
chaos suite asserts.

Under the :class:`~repro.sim.batch.ShardedBatchBackend` the blast
radius changes shape but not the contract: a "crash" or "hang" fires
before its shard's lock-step kernel sweep, so the *whole shard* is lost and
re-dispatched (each lane's attempt counter advancing), while a
"corrupt" mutates only its own lane's payload after the integrity
stamp and is retried alone.  Either way, recovery re-executes pure
functions and the final sample stays bit-identical.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import ConfigurationError
from repro.sim.backend import (
    ExecutionBackend,
    RunObserver,
    RunOutcome,
    installed_fault_plan,
)
from repro.utils.rng import SplitMix64

#: Fault kinds a plan can inject, in cumulative-rate order.
FAULT_KINDS = ("crash", "hang", "slow", "corrupt")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    ``fault_for(index, attempt)`` is a pure function: the same plan
    gives the same answer in the parent, in every worker, and across
    suite runs.  Faults are only injected while ``attempt <=
    max_faulty_attempts``, which guarantees a campaign under a
    bounded :class:`~repro.sim.backend.RetryPolicy` always converges
    (the final permitted attempt runs fault-free).

    Rates are probabilities per ``(index, attempt)`` draw and must sum
    to at most 1.
    """

    seed: int
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Host seconds an injected "slow" run sleeps (keep well below any
    #: watchdog timeout).
    slow_s: float = 0.05
    #: Host seconds an injected "hang" parks a worker (keep well above
    #: the watchdog timeout so the hang is detected, not outwaited).
    hang_s: float = 30.0
    #: Inject faults only on attempts up to this number, so bounded
    #: retries always converge.
    max_faulty_attempts: int = 1

    def __post_init__(self) -> None:
        rates = (self.crash_rate, self.hang_rate, self.slow_rate,
                 self.corrupt_rate)
        if any(rate < 0 for rate in rates):
            raise ConfigurationError(f"fault rates must be non-negative: {rates}")
        if sum(rates) > 1.0:
            raise ConfigurationError(
                f"fault rates must sum to at most 1, got {sum(rates)}"
            )
        if self.max_faulty_attempts < 0:
            raise ConfigurationError(
                "max_faulty_attempts must be non-negative, "
                f"got {self.max_faulty_attempts}"
            )
        if self.slow_s < 0 or self.hang_s < 0:
            raise ConfigurationError("fault sleep durations must be non-negative")

    def fault_for(self, index: int, attempt: int) -> Optional[str]:
        """The fault injected into attempt ``attempt`` of run ``index``.

        Returns one of :data:`FAULT_KINDS` or ``None``.  Deterministic:
        derived from ``(seed, index, attempt)`` through SplitMix64, with
        no process-local state.
        """
        if attempt > self.max_faulty_attempts:
            return None
        # One independent draw per (index, attempt): mix both into the
        # stream seed so consecutive indices/attempts are uncorrelated.
        mixer = SplitMix64(self.seed & 0xFFFFFFFFFFFFFFFF)
        key = (index * 0x9E3779B97F4A7C15 + attempt) & 0xFFFFFFFFFFFFFFFF
        stream = SplitMix64(mixer.next_u64() ^ key)
        draw = stream.next_u64() / 2.0 ** 64
        cumulative = 0.0
        for kind, rate in zip(
            FAULT_KINDS,
            (self.crash_rate, self.hang_rate, self.slow_rate, self.corrupt_rate),
        ):
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def fault_counts(self, runs: int, attempt: int = 1) -> dict:
        """How many of ``runs`` indices draw each fault at ``attempt``.

        A planning/reporting helper: lets a chaos test assert its plan
        actually injects every kind before claiming coverage.
        """
        counts = {kind: 0 for kind in FAULT_KINDS}
        for index in range(runs):
            kind = self.fault_for(index, attempt)
            if kind is not None:
                counts[kind] += 1
        return counts

    def fault_indices(self, kind: str, runs: int, attempt: int = 1) -> list:
        """The run indices that draw fault ``kind`` at ``attempt``.

        Chaos tests use this to predict a plan's blast radius up
        front — e.g. which lanes a sharded campaign must retry because
        their shard hosted a crashing index.
        """
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        return [
            index for index in range(runs)
            if self.fault_for(index, attempt) == kind
        ]


#: Fault kinds a service-level plan can inject, in cumulative-rate order.
SERVICE_FAULT_KINDS = ("kill", "torn_journal", "corrupt_entry")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Deterministic chaos for the *service* layer.

    Where :class:`FaultPlan` attacks individual simulation runs, this
    plan attacks the machinery around them — the job queue, the
    write-ahead job journal and the result store:

    =================  ==================================================
    ``kill``           a queue worker dies mid-job
                       (:class:`~repro.errors.WorkerCrashError`) →
                       exercises the admission layer's job-level retry
                       budget and checkpoint-based resume
    ``torn_journal``   a crash mid-append leaves a torn journal tail →
                       exercises the durable-prefix loader
                       (:func:`~repro.sim.checkpoint.scan_durable_jsonl`)
    ``corrupt_entry``  a store entry is corrupted mid-write / by bit-rot
                       → exercises checksum rejection + re-simulation
    =================  ==================================================

    Everything is a pure function of ``(seed, index, attempt)`` through
    SplitMix64 — the same plan injects the same faults on every host,
    so a service chaos test that fails in CI fails identically locally.
    As with :class:`FaultPlan`, faults fire only while ``attempt <=
    max_faulty_attempts``, so a bounded retry budget always converges.
    """

    seed: int
    kill_rate: float = 0.0
    torn_journal_rate: float = 0.0
    corrupt_entry_rate: float = 0.0
    #: Inject faults only on attempts up to this number, so bounded
    #: job-level retry budgets always converge.
    max_faulty_attempts: int = 1

    def __post_init__(self) -> None:
        rates = (self.kill_rate, self.torn_journal_rate,
                 self.corrupt_entry_rate)
        if any(rate < 0 for rate in rates):
            raise ConfigurationError(
                f"service fault rates must be non-negative: {rates}"
            )
        if sum(rates) > 1.0:
            raise ConfigurationError(
                f"service fault rates must sum to at most 1, got {sum(rates)}"
            )
        if self.max_faulty_attempts < 0:
            raise ConfigurationError(
                "max_faulty_attempts must be non-negative, "
                f"got {self.max_faulty_attempts}"
            )

    def _stream(self, index: int, attempt: int, domain: int) -> SplitMix64:
        # Domain-separated from FaultPlan's draws: the same seed driving
        # both a run-level and a service-level plan must not correlate.
        mixer = SplitMix64((self.seed ^ 0xA5A5_5A5A_C3C3_3C3C) & 0xFFFFFFFFFFFFFFFF)
        key = (index * 0x9E3779B97F4A7C15 + attempt * 0xBF58476D1CE4E5B9
               + domain) & 0xFFFFFFFFFFFFFFFF
        return SplitMix64(mixer.next_u64() ^ key)

    def fault_for(self, index: int, attempt: int = 1) -> Optional[str]:
        """The fault injected into attempt ``attempt`` of admission ``index``.

        Returns one of :data:`SERVICE_FAULT_KINDS` or ``None``; pure in
        ``(seed, index, attempt)``.
        """
        if attempt > self.max_faulty_attempts:
            return None
        draw = self._stream(index, attempt, domain=1).next_u64() / 2.0 ** 64
        cumulative = 0.0
        for kind, rate in zip(
            SERVICE_FAULT_KINDS,
            (self.kill_rate, self.torn_journal_rate, self.corrupt_entry_rate),
        ):
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def torn_tail_bytes(self, index: int, max_bytes: int) -> int:
        """Deterministic tear size (1..max_bytes) for a torn-journal fault."""
        if max_bytes <= 0:
            raise ConfigurationError(
                f"torn_tail_bytes needs a positive max, got {max_bytes}"
            )
        return 1 + self._stream(index, 1, domain=2).next_u64() % max_bytes

    def corrupt_offset(self, index: int, size: int) -> int:
        """Deterministic byte offset (0..size-1) for a corrupt-entry fault."""
        if size <= 0:
            raise ConfigurationError(
                f"corrupt_offset needs a positive file size, got {size}"
            )
        return self._stream(index, 1, domain=3).next_u64() % size


def tear_file_tail(path, nbytes: int) -> int:
    """Truncate the last ``nbytes`` of ``path`` (a crash mid-append).

    Returns the number of bytes actually removed (the whole file, if
    shorter).  The service chaos suite applies this to job journals and
    asserts the durable-prefix loader recovers everything before the
    tear.
    """
    size = os.path.getsize(path)
    removed = min(max(nbytes, 0), size)
    os.truncate(path, size - removed)
    return removed


def flip_file_byte(path, offset: int) -> None:
    """XOR one byte of ``path`` (mid-write corruption / bit-rot).

    The service chaos suite applies this to result-store entries and
    asserts the checksum rejects the entry and the campaign is
    re-simulated bit-identically.
    """
    with open(path, "r+b") as stream:
        stream.seek(offset)
        byte = stream.read(1)
        if not byte:
            raise ConfigurationError(
                f"cannot corrupt byte {offset} of {path}: past end of file"
            )
        stream.seek(offset)
        stream.write(bytes([byte[0] ^ 0xFF]))


class FaultInjectingBackend(ExecutionBackend):
    """Wrap a backend so its runs execute under a :class:`FaultPlan`.

    For a :class:`~repro.sim.backend.ProcessPoolBackend` the plan is
    shipped to the workers at bootstrap, so crashes and hangs are the
    real thing (``os._exit``, a genuine stuck worker) and exercise the
    real recovery machinery.  For in-process backends the plan is
    installed for the duration of ``execute`` and the process-level
    faults are simulated by their classified exceptions (a crash
    cannot genuinely kill the test process).

    The wrapper adds nothing else: ordering, retries and observer
    semantics are the inner backend's.
    """

    def __init__(self, inner: ExecutionBackend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name = f"faulty[{inner.name}]"

    @contextlib.contextmanager
    def _armed(self) -> Iterator[None]:
        inner = self.inner
        if not hasattr(inner, "fault_plan"):
            with installed_fault_plan(self.plan):
                yield
            return
        # Process pool: the plan must travel to the workers, which
        # happens at pool bootstrap — install it on the backend.
        previous = inner.fault_plan
        inner.fault_plan = self.plan
        try:
            yield
        finally:
            inner.fault_plan = previous

    def execute(
        self,
        requests,
        observer: Optional[RunObserver] = None,
    ) -> "list[RunOutcome]":
        with self._armed():
            return self.inner.execute(requests, observer=observer)

    def execute_jobs(self, jobs, build, observer=None) -> "list[RunOutcome]":
        with self._armed():
            return self.inner.execute_jobs(jobs, build, observer)
