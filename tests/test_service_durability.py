"""Service durability: job journal, admission control, store GC, chaos.

The contracts under test:

* **crash-safe journal** — a SIGKILLed (or abandoned) queue's job list
  is rebuilt from the write-ahead journal; recovered campaigns resume
  through their checkpoints and the final samples are **bit-identical**
  to an uninterrupted run;
* **admission control** — a bounded queue sheds with labelled
  :class:`~repro.errors.AdmissionError` (never deadlocks, never
  queues unboundedly), deadlines shed stale work at pickup, the
  circuit breaker stops re-admitting deterministically failing
  campaigns, and job-level retry budgets absorb transient chaos;
* **store GC** — LRU eviction under byte/entry/age quotas that never
  touches a pinned or in-flight entry, and degrades to a (bit-identical)
  re-simulation, never a wrong sample;
* **accounting** — through all of the above the extended invariant
  ``runs_requested == runs_simulated + runs_served_from_cache +
  runs_shed`` stays exact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    JobFailedError,
    ServiceError,
)
from repro.observability import Telemetry
from repro.service import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_SHED,
    AdmissionPolicy,
    CampaignJob,
    CircuitBreaker,
    JobJournal,
    JobQueue,
    ResultStore,
    StoreQuota,
    job_from_spec,
    job_spec,
    recover_jobs,
)
from repro.sim.campaign import collect_execution_times
from repro.sim.checkpoint import CampaignCheckpoint
from repro.sim.config import Scenario, SystemConfig
from repro.sim.faults import ServiceFaultPlan, flip_file_byte, tear_file_tail
from repro.workloads.scale import ExperimentScale
from repro.workloads.suite import build_benchmark

from .conftest import make_stream_trace
from .test_service import _sample, assert_reconciled, make_job


@pytest.fixture
def scenario() -> Scenario:
    return Scenario.efl(mid=100)


def direct_result(job: CampaignJob):
    """The reference sample: the same campaign run without the service."""
    return collect_execution_times(
        job.trace, job.config, job.scenario, job.runs,
        master_seed=job.master_seed, engine="scalar",
    )


# ----------------------------------------------------------------------
# service-level chaos plan
# ----------------------------------------------------------------------
class TestServiceFaultPlan:
    def test_pure_in_seed_index_attempt(self):
        plan = ServiceFaultPlan(seed=11, kill_rate=0.4,
                                torn_journal_rate=0.3)
        twin = ServiceFaultPlan(seed=11, kill_rate=0.4,
                                torn_journal_rate=0.3)
        draws = [plan.fault_for(i, a) for i in range(50) for a in (1,)]
        assert draws == [twin.fault_for(i, a) for i in range(50) for a in (1,)]
        assert {"kill", "torn_journal"} <= set(d for d in draws if d) | {
            "kill", "torn_journal"
        }

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            ServiceFaultPlan(seed=1, kill_rate=0.7, corrupt_entry_rate=0.5)
        with pytest.raises(ConfigurationError):
            ServiceFaultPlan(seed=1, kill_rate=-0.1)

    def test_faults_stop_after_max_faulty_attempts(self):
        plan = ServiceFaultPlan(seed=3, kill_rate=1.0, max_faulty_attempts=2)
        assert plan.fault_for(5, 1) == "kill"
        assert plan.fault_for(5, 2) == "kill"
        assert plan.fault_for(5, 3) is None

    def test_tear_file_tail(self, tmp_path):
        path = tmp_path / "file.jsonl"
        path.write_bytes(b"a" * 100)
        assert tear_file_tail(path, 30) == 30
        assert path.stat().st_size == 70
        assert tear_file_tail(path, 500) == 70  # clamped to file size
        assert path.stat().st_size == 0

    def test_flip_file_byte(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_bytes(b"hello")
        flip_file_byte(path, 1)
        assert path.read_bytes() == b"h" + bytes([ord("e") ^ 0xFF]) + b"llo"
        with pytest.raises(ConfigurationError, match="past end"):
            flip_file_byte(path, 99)


# ----------------------------------------------------------------------
# job specs
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_round_trip_preserves_fingerprint(self, tiny_config, scenario):
        job = make_job(tiny_config, scenario, deadline_s=4.5)
        rebuilt = job_from_spec(json.loads(json.dumps(job_spec(job))))
        assert rebuilt.fingerprint == job.fingerprint
        assert rebuilt.runs == job.runs
        assert rebuilt.master_seed == job.master_seed
        assert rebuilt.engine == job.engine
        assert rebuilt.deadline_s == 4.5
        assert rebuilt.scenario == job.scenario
        assert rebuilt.config == job.config
        assert rebuilt.trace.pcs == job.trace.pcs
        assert rebuilt.trace.addresses == job.trace.addresses

    def test_fingerprint_mismatch_refused(self, tiny_config, scenario):
        spec = job_spec(make_job(tiny_config, scenario))
        spec["master_seed"] += 1  # spec no longer matches its fingerprint
        with pytest.raises(ServiceError, match="different campaign"):
            job_from_spec(spec)

    def test_malformed_spec_raises_labelled(self):
        with pytest.raises(ServiceError, match="malformed job spec"):
            job_from_spec({"trace": {"name": "x"}})

    @pytest.mark.parametrize("key, value", [
        ("runs", 0), ("engine", "sharded"), ("config", {"l1_size": 3}),
    ])
    def test_library_validation_errors_become_service_errors(
        self, tiny_config, scenario, key, value
    ):
        spec = json.loads(json.dumps(job_spec(make_job(tiny_config, scenario))))
        spec[key] = value
        with pytest.raises(ServiceError, match="malformed job spec"):
            job_from_spec(spec)

    def test_unknown_engine_rejected_at_construction(
        self, tiny_config, scenario
    ):
        with pytest.raises(ConfigurationError, match="engine"):
            make_job(tiny_config, scenario, engine="batch")


# ----------------------------------------------------------------------
# the write-ahead journal
# ----------------------------------------------------------------------
class TestJobJournal:
    def test_admissions_and_states_survive_reopen(
        self, tmp_path, tiny_config, scenario
    ):
        path = tmp_path / "jobs.jsonl"
        job = make_job(tiny_config, scenario)
        job.job_id = "job-000007"
        with JobJournal(path) as journal:
            journal.record_admitted(job)
            journal.record_state(job.job_id, "running", attempt=1)
        with JobJournal(path) as reopened:
            entries = reopened.entries()
        assert [entry.job_id for entry in entries] == ["job-000007"]
        assert entries[0].states == ["queued", "running"]
        assert entries[0].pending
        assert entries[0].fingerprint == job.fingerprint
        assert job_from_spec(entries[0].spec).fingerprint == job.fingerprint

    def test_terminal_states_not_pending(self, tmp_path, tiny_config, scenario):
        path = tmp_path / "jobs.jsonl"
        done = make_job(tiny_config, scenario, seed=1)
        done.job_id = "job-000001"
        killed = make_job(tiny_config, scenario, seed=2)
        killed.job_id = "job-000002"
        with JobJournal(path) as journal:
            journal.record_admitted(done)
            journal.record_admitted(killed)
            journal.record_state(done.job_id, "running")
            journal.record_state(done.job_id, "done")
            journal.record_state(killed.job_id, "running")
            # ...crash: killed never reaches a terminal state
        with JobJournal(path) as reopened:
            pending = reopened.pending()
        assert [entry.job_id for entry in pending] == ["job-000002"]

    def test_torn_tail_truncated_on_reopen(
        self, tmp_path, tiny_config, scenario
    ):
        path = tmp_path / "jobs.jsonl"
        job = make_job(tiny_config, scenario)
        job.job_id = "job-000001"
        with JobJournal(path) as journal:
            journal.record_admitted(job)
            journal.record_state(job.job_id, "running")
        intact = path.stat().st_size
        # A crash mid-append leaves a torn final line (deterministic
        # tear size from the chaos plan).
        plan = ServiceFaultPlan(seed=9, torn_journal_rate=1.0)
        path.write_bytes(
            path.read_bytes() + b'{"event":"state","job_id":"job-000001"'
        )
        tear = plan.torn_tail_bytes(0, 10)
        tear_file_tail(path, tear)
        with JobJournal(path) as reopened:
            entries = reopened.entries()
            assert entries[0].states == ["queued", "running"]
            # appending after recovery lands cleanly past the tear
            reopened.record_state("job-000001", "done")
        with JobJournal(path) as again:
            assert again.entries()[0].states == ["queued", "running", "done"]
        assert path.stat().st_size > intact

    def test_foreign_file_refused(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"version": 99, "kind": "something-else"}\n')
        with pytest.raises(ServiceError, match="not a version"):
            JobJournal(path)

    def test_next_job_number_continues_sequence(
        self, tmp_path, tiny_config, scenario
    ):
        path = tmp_path / "jobs.jsonl"
        job = make_job(tiny_config, scenario)
        job.job_id = "job-000041"
        with JobJournal(path) as journal:
            journal.record_admitted(job)
        journal = JobJournal(path)
        assert journal.next_job_number() == 42
        queue = JobQueue(workers=1, journal=journal, start=False)
        admitted = queue.submit(make_job(tiny_config, scenario, seed=9))
        assert admitted.job_id == "job-000042"
        queue.shutdown()
        journal.close()


# ----------------------------------------------------------------------
# crash / restart recovery
# ----------------------------------------------------------------------
class TestQueueDurability:
    def test_recover_readmits_interrupted_jobs_bit_identically(
        self, tmp_path, tiny_config, scenario
    ):
        path = tmp_path / "jobs.jsonl"
        store_dir = tmp_path / "store"
        # "Crash": jobs are journalled as admitted but no worker ever
        # runs (start=False) and the process state is dropped.
        journal = JobJournal(path)
        store = ResultStore(store_dir)
        queue = JobQueue(workers=1, journal=journal, start=False)
        job_a = store.get_or_submit(make_job(tiny_config, scenario, seed=1),
                                    queue)
        job_b = store.get_or_submit(make_job(tiny_config, scenario, seed=2),
                                    queue)
        journal.close()
        del queue, store

        # Restart: fresh journal handle, fresh queue, fresh store view.
        telemetry = Telemetry()
        journal2 = JobJournal(path)
        assert [e.job_id for e in journal2.pending()] \
            == [job_a.job_id, job_b.job_id]
        store2 = ResultStore(store_dir)
        with JobQueue(workers=1, telemetry=telemetry,
                      journal=journal2) as queue2:
            recovered = recover_jobs(journal2, queue2, store=store2)
            results = [job.wait(timeout=60) for job in recovered]
        journal2.close()
        assert telemetry.metrics.value("jobs_recovered") == 2
        # Recovered ids never collide with pre-crash ids.
        assert {job.job_id for job in recovered}.isdisjoint(
            {job_a.job_id, job_b.job_id}
        )
        assert _sample(results[0]) == _sample(
            direct_result(make_job(tiny_config, scenario, seed=1))
        )
        assert _sample(results[1]) == _sample(
            direct_result(make_job(tiny_config, scenario, seed=2))
        )
        assert_reconciled(telemetry)

        # A second restart finds nothing pending: the recovery markers
        # prevent double re-admission.
        with JobJournal(path) as journal3:
            assert journal3.pending() == []

    def test_bad_entries_do_not_block_recovery(
        self, tmp_path, tiny_config, scenario
    ):
        # One journal, three interrupted jobs.  Two specs are rewritten
        # so the library's own validation rejects them on rebuild: zero
        # runs, and an engine name this library no longer has.  Each is
        # counted and skipped; the good job is still recovered.
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        queue = JobQueue(workers=1, journal=journal, start=False)
        jobs = [queue.submit(make_job(tiny_config, scenario, seed=seed))
                for seed in (1, 2, 3)]
        journal.close()
        del queue
        bad = {jobs[0].job_id: ("runs", 0), jobs[1].job_id: ("engine", "batch")}
        lines = []
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event.get("event") == "admit" and event["job_id"] in bad:
                key, value = bad[event["job_id"]]
                event["spec"][key] = value
            lines.append(json.dumps(event, separators=(",", ":")))
        path.write_text("\n".join(lines) + "\n")

        telemetry = Telemetry()
        journal2 = JobJournal(path)
        with JobQueue(workers=1, telemetry=telemetry,
                      journal=journal2) as queue2:
            recovered = recover_jobs(journal2, queue2)
            results = [job.wait(timeout=60) for job in recovered]
        journal2.close()
        assert len(recovered) == 1
        assert recovered[0].fingerprint == jobs[2].fingerprint
        assert telemetry.metrics.value("journal_rebuild_failures") == 2
        assert telemetry.metrics.value("jobs_recovered") == 1
        assert _sample(results[0]) == _sample(
            direct_result(make_job(tiny_config, scenario, seed=3))
        )

    def test_completed_before_crash_answers_from_store(
        self, tmp_path, tiny_config, scenario
    ):
        path = tmp_path / "jobs.jsonl"
        store_dir = tmp_path / "store"
        journal = JobJournal(path)
        store = ResultStore(store_dir)
        telemetry = Telemetry()
        with JobQueue(workers=1, telemetry=telemetry,
                      journal=journal) as queue:
            job = store.get_or_submit(make_job(tiny_config, scenario), queue)
            original = job.wait(timeout=60)
        journal.close()
        # Simulate losing the journal's terminal event (crash between
        # the store write and the journal append): force the entry back
        # to a pending state.
        raw = path.read_text().splitlines()
        kept = [line for line in raw
                if json.loads(line).get("state") != "done"]
        path.write_text("\n".join(kept) + "\n")

        telemetry2 = Telemetry()
        journal2 = JobJournal(path)
        store2 = ResultStore(store_dir)
        with JobQueue(workers=1, telemetry=telemetry2,
                      journal=journal2) as queue2:
            recovered = recover_jobs(journal2, queue2, store=store2)
            result = recovered[0].wait(timeout=60)
        journal2.close()
        # The work completed before the crash: recovery is a store hit,
        # zero runs re-simulated, sample bit-identical.
        assert recovered[0].state == "cached"
        assert telemetry2.metrics.value("runs_simulated") == 0
        assert result.to_dict() == original.to_dict()
        assert_reconciled(telemetry2)

    def test_recovered_job_resumes_through_checkpoint(
        self, tmp_path, tiny_config, scenario
    ):
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        job = make_job(tiny_config, scenario, runs=8)
        reference = direct_result(job)
        # Craft the crash leftovers: a checkpoint holding the first 3
        # completed runs of the campaign.
        checkpoint = CampaignCheckpoint(ckpt_dir / f"{job.fingerprint}.jsonl")
        checkpoint.open(job.trace, job.config, job.scenario,
                        job.master_seed, job.runs)
        for record in reference.records[:3]:
            checkpoint.append(record)
        checkpoint.close()

        telemetry = Telemetry()
        with JobQueue(workers=1, telemetry=telemetry,
                      checkpoint_dir=ckpt_dir) as queue:
            result = queue.submit(job).wait(timeout=60)
        assert result.resumed_runs == 3
        assert telemetry.metrics.value("runs_simulated") == job.runs - 3
        # The 3 taken-over runs land on their own ledger slot.
        assert telemetry.metrics.value("runs_resumed") == 3
        assert _sample(result) == _sample(reference)
        # Success removes the served checkpoint.
        assert not (ckpt_dir / f"{job.fingerprint}.jsonl").exists()

    def test_chaos_killed_worker_retries_bit_identically(
        self, tmp_path, tiny_config, scenario
    ):
        # kill_rate=1.0 with max_faulty_attempts=1: every job's first
        # attempt dies, every second attempt is clean — the retry
        # budget absorbs the crash and the sample is unaffected.
        plan = ServiceFaultPlan(seed=7, kill_rate=1.0, max_faulty_attempts=1)
        telemetry = Telemetry()
        job = make_job(tiny_config, scenario)
        with JobQueue(workers=1, telemetry=telemetry,
                      admission=AdmissionPolicy(retry_budget=1),
                      fault_plan=plan) as queue:
            result = queue.submit(job).wait(timeout=60)
        assert job.attempts == 2
        assert telemetry.metrics.value("jobs_requeued") == 1
        assert _sample(result) == _sample(direct_result(job))

    def test_chaos_kill_without_budget_fails_labelled(
        self, tmp_path, tiny_config, scenario
    ):
        plan = ServiceFaultPlan(seed=7, kill_rate=1.0)
        job = make_job(tiny_config, scenario)
        with JobQueue(workers=1, fault_plan=plan) as queue:
            queue.submit(job)
            with pytest.raises(JobFailedError, match="chaos"):
                job.wait(timeout=60)
        assert job.state == JOB_FAILED

    def test_corrupt_store_entry_chaos_resimulates(
        self, tmp_path, tiny_config, scenario
    ):
        plan = ServiceFaultPlan(seed=13, corrupt_entry_rate=1.0)
        store = ResultStore(tmp_path / "store")
        telemetry = Telemetry()
        with JobQueue(workers=1, telemetry=telemetry) as queue:
            first = make_job(tiny_config, scenario)
            original = store.get_or_submit(first, queue).wait(timeout=60)
            entry_path = store.path_for(first.fingerprint)
            assert plan.fault_for(0) == "corrupt_entry"
            flip_file_byte(
                entry_path,
                plan.corrupt_offset(0, entry_path.stat().st_size),
            )
            second = make_job(tiny_config, scenario)
            recovered = store.get_or_submit(second, queue).wait(timeout=60)
        assert telemetry.metrics.value("store_integrity_failures") == 1
        assert _sample(recovered) == _sample(original)
        assert_reconciled(telemetry)


# ----------------------------------------------------------------------
# admission control & backpressure
# ----------------------------------------------------------------------
class TestAdmission:
    def test_policy_validated(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(deadline_s=0)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(retry_budget=-1)
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(breaker_threshold=0)

    def test_full_queue_sheds_with_labelled_error(
        self, tiny_config, scenario
    ):
        telemetry = Telemetry()
        queue = JobQueue(
            workers=1, telemetry=telemetry, start=False,
            admission=AdmissionPolicy(max_queue_depth=2),
        )
        queue.submit(make_job(tiny_config, scenario, seed=1))
        queue.submit(make_job(tiny_config, scenario, seed=2))
        overflow = make_job(tiny_config, scenario, seed=3)
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(overflow)
        assert excinfo.value.reason == "queue_full"
        assert overflow.state == JOB_SHED
        assert overflow.shed_reason == "queue_full"
        # The shed job's waiters get the same labelled error.
        with pytest.raises(AdmissionError, match="queue_full"):
            overflow.wait(timeout=1)
        assert telemetry.metrics.value("jobs_shed") == 1
        assert telemetry.metrics.value("jobs_shed_queue_full") == 1
        queue.shutdown(wait=False)

    def test_shed_runs_keep_invariant_exact(
        self, tmp_path, tiny_config, scenario
    ):
        store = ResultStore(tmp_path)
        telemetry = Telemetry()
        queue = JobQueue(
            workers=1, telemetry=telemetry, start=False,
            admission=AdmissionPolicy(max_queue_depth=1),
        )
        kept = store.get_or_submit(make_job(tiny_config, scenario, seed=1),
                                   queue)
        shed = make_job(tiny_config, scenario, seed=2)
        with pytest.raises(AdmissionError, match="queue_full"):
            store.get_or_submit(shed, queue)
        # The shed front-door job released its in-flight claim...
        assert shed.fingerprint not in store._inflight
        queue.start()
        kept.wait(timeout=60)
        queue.shutdown()
        # ...and its runs landed on runs_shed, keeping the ledger exact.
        assert telemetry.metrics.value("runs_shed") == shed.runs
        assert_reconciled(telemetry)

    def test_deadline_sheds_stale_job_at_pickup(self, tiny_config, scenario):
        telemetry = Telemetry()
        queue = JobQueue(
            workers=1, telemetry=telemetry, start=False,
            admission=AdmissionPolicy(deadline_s=5.0),
        )
        stale = queue.submit(make_job(tiny_config, scenario, seed=1))
        fresh = queue.submit(make_job(tiny_config, scenario, seed=2))
        stale.submitted_at -= 60  # it has been queued for a minute
        queue.start()
        with pytest.raises(AdmissionError, match="deadline"):
            stale.wait(timeout=60)
        fresh.wait(timeout=60)
        queue.shutdown()
        assert stale.state == JOB_SHED
        assert stale.shed_reason == "deadline"
        assert fresh.state == JOB_DONE
        assert telemetry.metrics.value("jobs_shed_deadline") == 1

    def test_per_job_deadline_overrides_policy(self, tiny_config, scenario):
        queue = JobQueue(workers=1, start=False,
                         admission=AdmissionPolicy(deadline_s=5.0))
        patient = queue.submit(
            make_job(tiny_config, scenario, deadline_s=3600.0)
        )
        patient.submitted_at -= 60  # over the policy default, under its own
        queue.start()
        result = patient.wait(timeout=60)
        queue.shutdown()
        assert patient.state == JOB_DONE
        assert result.runs == patient.runs

    def test_circuit_breaker_stops_deterministic_failures(
        self, tiny_config, scenario
    ):
        telemetry = Telemetry()
        with JobQueue(
            workers=1, telemetry=telemetry,
            admission=AdmissionPolicy(breaker_threshold=1),
        ) as queue:
            # cycle_budget=1 fails deterministically (and is not part
            # of the fingerprint, so the resubmission is a twin).
            doomed = make_job(tiny_config, scenario, cycle_budget=1)
            queue.submit(doomed)
            with pytest.raises(JobFailedError):
                doomed.wait(timeout=60)
            assert queue.breaker.is_open(doomed.fingerprint)

            twin = make_job(tiny_config, scenario, cycle_budget=1)
            with pytest.raises(AdmissionError) as excinfo:
                queue.submit(twin)
            assert excinfo.value.reason == "circuit_open"
            assert telemetry.metrics.value("jobs_shed_circuit_open") == 1

            # A manual reset closes the circuit; the healthy twin runs
            # and its success keeps it closed.
            queue.breaker.reset(doomed.fingerprint)
            healthy = make_job(tiny_config, scenario)
            queue.submit(healthy).wait(timeout=60)
            assert not queue.breaker.is_open(doomed.fingerprint)

    def test_breaker_success_clears_failure_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("aaaa")
        breaker.record_success("aaaa")
        breaker.record_failure("aaaa")
        assert not breaker.is_open("aaaa")
        breaker.record_failure("aaaa")
        assert breaker.is_open("aaaa")
        assert breaker.open_fingerprints() == ("aaaa",)
        breaker.reset()
        assert breaker.open_fingerprints() == ()

    def test_transient_failures_never_trip_breaker(
        self, tiny_config, scenario
    ):
        plan = ServiceFaultPlan(seed=5, kill_rate=1.0)
        with JobQueue(
            workers=1, fault_plan=plan,
            admission=AdmissionPolicy(breaker_threshold=1),
        ) as queue:
            job = make_job(tiny_config, scenario)
            queue.submit(job)
            with pytest.raises(JobFailedError):
                job.wait(timeout=60)
            # The chaos kill is transient: the breaker stays closed.
            assert not queue.breaker.is_open(job.fingerprint)

    def test_failed_wait_carries_failure_breakdown(
        self, tiny_config, scenario
    ):
        job = make_job(tiny_config, scenario, cycle_budget=1)
        with JobQueue(workers=1) as queue:
            queue.submit(job)
            with pytest.raises(JobFailedError) as excinfo:
                job.wait(timeout=60)
        error = excinfo.value
        assert error.job_id == job.job_id
        assert len(error.failures) == job.runs
        assert error.deterministic_failures == job.runs
        assert error.transient_failures == 0
        assert "deterministic" in str(error)

    def test_shutdown_nowait_cancels_queued_jobs(self, tiny_config, scenario):
        # Satellite regression: shutdown(wait=False) used to strand
        # queued jobs in a non-terminal state, hanging their waiters.
        telemetry = Telemetry()
        queue = JobQueue(workers=1, telemetry=telemetry, start=False)
        jobs = [queue.submit(make_job(tiny_config, scenario, seed=seed))
                for seed in (1, 2, 3)]
        queue.start()
        queue.shutdown(wait=False)
        for job in jobs:
            # Terminal either way — a waiter never hangs: the worker
            # may have finished a job before the shutdown raced it.
            try:
                job.wait(timeout=10)
            except ServiceError:
                pass
            assert job.done
        states = {job.state for job in jobs}
        assert states <= {JOB_CANCELLED, JOB_DONE, JOB_FAILED}
        assert any(job.state == JOB_CANCELLED for job in jobs)

    def test_health_snapshot_reconciles(self, tmp_path, tiny_config, scenario):
        store = ResultStore(tmp_path)
        telemetry = Telemetry()
        with JobQueue(workers=1, telemetry=telemetry) as queue:
            store.get_or_submit(make_job(tiny_config, scenario), queue) \
                .wait(timeout=60)
            store.get_or_submit(make_job(tiny_config, scenario), queue) \
                .wait(timeout=60)
            health = queue.health()
        assert health["ok"] is True
        assert health["queue_depth"] == 0
        assert health["inflight"] == 0
        assert health["jobs"]["completed"] == 1
        assert health["store"]["hits"] == 1
        runs = health["runs"]
        assert runs["requested"] == (
            runs["simulated"] + runs["resumed"]
            + runs["served_from_cache"] + runs["shed"]
        )
        json.dumps(health)  # JSON-ready
        queue.shutdown()
        assert queue.health()["ok"] is False

    def test_gauges_track_live_queue_state(self, tiny_config, scenario):
        telemetry = Telemetry()
        queue = JobQueue(workers=1, telemetry=telemetry, start=False)
        queue.submit(make_job(tiny_config, scenario, seed=1))
        queue.submit(make_job(tiny_config, scenario, seed=2))
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["gauges"]["job_queue_depth"] == 2
        assert snapshot["gauges"]["jobs_inflight"] == 0
        queue.start()
        queue.shutdown(wait=True)
        assert telemetry.metrics.gauges()["job_queue_depth"] == 0


# ----------------------------------------------------------------------
# store quotas & GC
# ----------------------------------------------------------------------
class TestStoreQuota:
    def test_parse_variants(self):
        assert StoreQuota.parse("100m") == StoreQuota(max_bytes=100 * 1024**2)
        assert StoreQuota.parse("2k:10") \
            == StoreQuota(max_bytes=2048, max_entries=10)
        assert StoreQuota.parse(":10") == StoreQuota(max_entries=10)
        assert StoreQuota.parse("1g::7d") \
            == StoreQuota(max_bytes=1024**3, max_age_s=7 * 86400.0)
        assert StoreQuota.parse("::30m") == StoreQuota(max_age_s=1800.0)
        assert not StoreQuota.parse("::").bounded

    def test_parse_rejects_garbage(self):
        for bad in ("abc", "10m:x", "1:2:3:4", "::1y"):
            with pytest.raises(ConfigurationError):
                StoreQuota.parse(bad)

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            StoreQuota(max_bytes=0)
        with pytest.raises(ConfigurationError):
            StoreQuota(max_entries=0)
        with pytest.raises(ConfigurationError):
            StoreQuota(max_age_s=0)


def _fill_store(store, tiny_config, scenario, seeds):
    """Simulate one tiny campaign per seed into the store; returns jobs."""
    jobs = []
    for seed in seeds:
        job = make_job(tiny_config, scenario, seed=seed, runs=2)
        store.put(job.fingerprint, direct_result(job))
        jobs.append(job)
    return jobs


class TestStoreGC:
    def test_lru_eviction_by_entry_count(self, tmp_path, tiny_config, scenario):
        store = ResultStore(tmp_path)
        telemetry = Telemetry()
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1, 2, 3))
        # Backdate so LRU order is deterministic: seed1 oldest.  The
        # quota lands after the fill so put()'s auto-GC stays out of
        # the way — this test exercises an explicit gc() call.
        for age, job in zip((300, 200, 100), jobs):
            path = store.path_for(job.fingerprint)
            os.utime(path, (time.time() - age, time.time() - age))
        store.quota = StoreQuota(max_entries=2)
        evicted = store.gc(metrics=telemetry.metrics)
        assert evicted == [jobs[0].fingerprint]
        assert store.fingerprints() == sorted(
            [jobs[1].fingerprint, jobs[2].fingerprint]
        )
        assert telemetry.metrics.value("store_evictions") == 1
        assert telemetry.metrics.value("store_evicted_bytes") > 0

    def test_byte_quota_evicts_until_under(self, tmp_path, tiny_config,
                                           scenario):
        store = ResultStore(tmp_path)
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1, 2, 3))
        sizes = {job.fingerprint: store.path_for(job.fingerprint).stat().st_size
                 for job in jobs}
        total = sum(sizes.values())
        for age, job in zip((300, 200, 100), jobs):
            path = store.path_for(job.fingerprint)
            os.utime(path, (time.time() - age, time.time() - age))
        # Quota that forces exactly the oldest entry out.
        store.quota = StoreQuota(max_bytes=total - 1)
        evicted = store.gc()
        assert evicted == [jobs[0].fingerprint]
        assert store.total_bytes() <= total - sizes[jobs[0].fingerprint]

    def test_age_quota_drops_expired(self, tmp_path, tiny_config, scenario):
        store = ResultStore(tmp_path)
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1, 2))
        store.quota = StoreQuota(max_age_s=100.0)
        old = store.path_for(jobs[0].fingerprint)
        os.utime(old, (time.time() - 1000, time.time() - 1000))
        evicted = store.gc()
        assert evicted == [jobs[0].fingerprint]
        assert store.fingerprints() == [jobs[1].fingerprint]

    def test_pinned_entry_never_evicted(self, tmp_path, tiny_config, scenario):
        store = ResultStore(tmp_path)
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1, 2))
        store.quota = StoreQuota(max_entries=1)
        for age, job in zip((300, 100), jobs):
            path = store.path_for(job.fingerprint)
            os.utime(path, (time.time() - age, time.time() - age))
        store.pin(jobs[0].fingerprint)
        evicted = store.gc()
        # The LRU victim is pinned: GC takes the next candidate instead.
        assert evicted == [jobs[1].fingerprint]
        assert store.fingerprints() == [jobs[0].fingerprint]
        store.unpin(jobs[0].fingerprint)
        with pytest.raises(ServiceError, match="without a matching pin"):
            store.unpin(jobs[0].fingerprint)

    def test_age_quota_spares_pinned_entry(self, tmp_path, tiny_config,
                                           scenario):
        store = ResultStore(tmp_path)
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1,))
        store.quota = StoreQuota(max_age_s=100.0)
        old = store.path_for(jobs[0].fingerprint)
        os.utime(old, (time.time() - 1000, time.time() - 1000))
        store.pin(jobs[0].fingerprint)
        assert store.gc() == []
        assert store.fingerprints() == [jobs[0].fingerprint]

    def test_inflight_claim_is_an_eviction_pin(
        self, tmp_path, tiny_config, scenario
    ):
        store = ResultStore(tmp_path)
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1, 2))
        store.quota = StoreQuota(max_entries=1)
        for age, job in zip((300, 100), jobs):
            path = store.path_for(job.fingerprint)
            os.utime(path, (time.time() - age, time.time() - age))
        # Plant an in-flight claim on the LRU victim: GC must spare it.
        store._inflight[jobs[0].fingerprint] = jobs[0]
        assert jobs[0].fingerprint in store.pinned()
        evicted = store.gc()
        assert evicted == [jobs[1].fingerprint]
        assert jobs[0].fingerprint in store

    def test_verified_read_refreshes_lru_clock(
        self, tmp_path, tiny_config, scenario
    ):
        store = ResultStore(tmp_path)
        jobs = _fill_store(store, tiny_config, scenario, seeds=(1, 2))
        store.quota = StoreQuota(max_entries=1)
        for age, job in zip((300, 200), jobs):
            path = store.path_for(job.fingerprint)
            os.utime(path, (time.time() - age, time.time() - age))
        store.get(jobs[0].fingerprint)  # touch: seed1 is now the MRU
        evicted = store.gc()
        assert evicted == [jobs[1].fingerprint]

    def test_put_runs_gc_automatically(self, tmp_path, tiny_config, scenario):
        store = ResultStore(tmp_path, quota=StoreQuota(max_entries=2))
        telemetry = Telemetry()
        with JobQueue(workers=1, telemetry=telemetry) as queue:
            for seed in (1, 2, 3):
                job = make_job(tiny_config, scenario, seed=seed, runs=2)
                store.get_or_submit(job, queue).wait(timeout=60)
        assert len(store.fingerprints()) == 2
        assert telemetry.metrics.value("store_evictions") == 1
        assert_reconciled(telemetry)

    def test_evicted_campaign_resimulates_bit_identically(
        self, tmp_path, tiny_config, scenario
    ):
        store = ResultStore(tmp_path, quota=StoreQuota(max_entries=1))
        telemetry = Telemetry()
        with JobQueue(workers=1, telemetry=telemetry) as queue:
            first = make_job(tiny_config, scenario, seed=1, runs=2)
            original = store.get_or_submit(first, queue).wait(timeout=60)
            # Push seed1 out of the store...
            store.get_or_submit(
                make_job(tiny_config, scenario, seed=2, runs=2), queue
            ).wait(timeout=60)
            assert first.fingerprint not in store
            # ...and resubmit it: a miss, re-simulated bit-identically.
            again = make_job(tiny_config, scenario, seed=1, runs=2)
            recovered = store.get_or_submit(again, queue).wait(timeout=60)
        assert again.source == "simulated"
        assert _sample(recovered) == _sample(original)
        assert_reconciled(telemetry)


# ----------------------------------------------------------------------
# threaded stress: claim/cancel/evict races
# ----------------------------------------------------------------------
class TestStress:
    def test_exactly_one_simulation_under_gc_hammer(
        self, tmp_path, tiny_config, scenario
    ):
        store = ResultStore(tmp_path, quota=StoreQuota(max_entries=1))
        telemetry = Telemetry()
        stop = threading.Event()
        results, errors = [], []

        def hammer():
            while not stop.is_set():
                store.gc(metrics=telemetry.metrics)

        def submit_one():
            try:
                job = make_job(tiny_config, scenario)
                results.append(
                    store.get_or_submit(job, queue).wait(timeout=60)
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with JobQueue(workers=3, telemetry=telemetry) as queue:
            gc_thread = threading.Thread(target=hammer)
            gc_thread.start()
            threads = [threading.Thread(target=submit_one) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            stop.set()
            gc_thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 8
        reference = results[0].to_dict()
        assert all(result.to_dict() == reference for result in results)
        # One fingerprint, one simulation — a GC racing the in-flight
        # claim must not turn the claim into a duplicate simulation.
        assert telemetry.metrics.value("runs_simulated") == reference["runs"]
        assert telemetry.metrics.value("store_evictions") == 0
        assert_reconciled(telemetry)

    def test_mixed_claim_cancel_evict_races_reconcile(
        self, tmp_path, tiny_config, scenario
    ):
        # 8 threads x 4 iterations over 2 fingerprints with a 1-entry
        # quota (every persist of one evicts the other) and a
        # deterministic cancel pattern.  The assertions: no thread
        # deadlocks, every wait() terminates, and the extended
        # invariant reconciles exactly.
        store = ResultStore(tmp_path, quota=StoreQuota(max_entries=1))
        telemetry = Telemetry()
        outcomes, errors = [], []

        def worker(worker_index):
            try:
                for iteration in range(4):
                    seed = 1 + (worker_index + iteration) % 2
                    job = make_job(tiny_config, scenario, seed=seed, runs=2)
                    resolved = store.get_or_submit(job, queue)
                    if (worker_index * 7 + iteration) % 3 == 0 \
                            and resolved is job \
                            and (job.job_id or "").startswith("job-"):
                        queue.cancel(job.job_id)
                    try:
                        result = resolved.wait(timeout=60)
                        outcomes.append(("ok", result.execution_times[0]))
                    except ServiceError:
                        outcomes.append(("cancelled", None))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with JobQueue(workers=4, telemetry=telemetry) as queue:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
        assert not any(thread.is_alive() for thread in threads), \
            "stress threads deadlocked"
        assert not errors
        assert len(outcomes) == 8 * 4
        # Cross-check the ledger: every requested run is accounted.
        assert_reconciled(telemetry)
        metrics = telemetry.metrics
        assert metrics.value("runs_requested") == 8 * 4 * 2
        # The store never grew past its quota.
        assert len(store.fingerprints()) <= 1


# ----------------------------------------------------------------------
# full-process SIGKILL + restart (the acceptance scenario)
# ----------------------------------------------------------------------
class TestRestartSIGKILL:
    def test_sigkill_mid_campaign_restart_is_bit_identical(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        runs = 4000
        base = [
            "--scale", "tiny", "--seed", "3", "--engine", "scalar",
            "--log-level", "quiet",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "serve",
            "--journal", str(tmp_path / "jobs.jsonl"),
            "--store", str(tmp_path / "store"),
        ]
        submit = [sys.executable, "-m", "repro.cli"] + base + [
            "--bench", "RS", "--scenario", "EFL100", "--runs", str(runs),
        ]
        process = subprocess.Popen(
            submit, env=env, cwd=tmp_path,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the campaign has checkpointed some runs (the
            # scalar engine flushes one journal line per run), then
            # SIGKILL mid-campaign.
            deadline = time.time() + 120
            progressed = False
            while time.time() < deadline and process.poll() is None:
                checkpoints = list((tmp_path / "ckpt").glob("*.jsonl"))
                if checkpoints:
                    with open(checkpoints[0], "rb") as stream:
                        if stream.read().count(b"\n") >= 8:
                            progressed = True
                            break
                time.sleep(0.02)
            assert process.poll() is None, (
                "campaign finished before the kill; raise `runs`"
            )
            assert progressed, "campaign never checkpointed a run"
        finally:
            process.kill()
            process.wait(timeout=30)
        assert process.returncode == -9  # died by SIGKILL, not cleanly
        assert not (tmp_path / "store").exists() \
            or not list((tmp_path / "store").glob("*.json"))

        # Restart with --resume-jobs, in-process for coverage.
        from repro import cli
        code = cli.main(base + ["--resume-jobs"])
        assert code == 0

        store = ResultStore(tmp_path / "store")
        fingerprints = store.fingerprints()
        assert len(fingerprints) == 1
        recovered = store.get(fingerprints[0])
        assert recovered.resumed_runs > 0  # the checkpoint was used

        trace = build_benchmark(
            "RS", ExperimentScale.from_name("tiny").trace_scale
        )
        reference = collect_execution_times(
            trace, SystemConfig(), Scenario.from_label("EFL100"), runs,
            master_seed=3, engine="scalar",
        )
        assert recovered.execution_times == reference.execution_times
        assert recovered.seeds == reference.seeds
        assert _sample(recovered) == _sample(reference)

        # A third pass is pure cache: nothing pending, nothing simulated.
        code = cli.main(base + ["--resume-jobs"])
        assert code == 0
        with JobJournal(tmp_path / "jobs.jsonl") as journal:
            assert journal.pending() == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_status_unknown_job_is_labelled(self, tmp_path):
        from repro import cli
        with pytest.raises(ConfigurationError, match="unknown job id"):
            cli.main([
                "status", "--store", str(tmp_path), "--job", "cached-feedface",
            ])

    def test_status_queue_local_id_is_labelled(self, tmp_path):
        from repro import cli
        with pytest.raises(ConfigurationError, match="queue-local"):
            cli.main([
                "status", "--store", str(tmp_path), "--job", "job-000001",
            ])

    def test_serve_requires_bench_and_scenario_together(self, tmp_path):
        from repro import cli
        with pytest.raises(ConfigurationError, match="together"):
            cli.main([
                "serve", "--journal", str(tmp_path / "j.jsonl"),
                "--store", str(tmp_path / "s"), "--bench", "RS",
            ])

    def test_serve_without_work_rejected(self, tmp_path):
        from repro import cli
        with pytest.raises(ConfigurationError, match="does nothing"):
            cli.main([
                "serve", "--journal", str(tmp_path / "j.jsonl"),
                "--store", str(tmp_path / "s"),
            ])

    def test_serve_rejects_process_backend(self, tmp_path):
        from repro import cli
        with pytest.raises(ConfigurationError, match="--backend"):
            cli.main([
                "--backend", "process",
                "serve", "--journal", str(tmp_path / "j.jsonl"),
                "--store", str(tmp_path / "s"),
                "--bench", "RS", "--scenario", "EFL100",
            ])

    def test_serve_runs_and_status_reads_back(self, tmp_path, capsys):
        from repro import cli
        code = cli.main([
            "--scale", "tiny", "--seed", "5", "--engine", "scalar",
            "--log-level", "quiet",
            "serve",
            "--journal", str(tmp_path / "jobs.jsonl"),
            "--store", str(tmp_path / "store"),
            "--store-quota", "10m:100",
            "--max-queue", "4",
            "--bench", "RS", "--scenario", "EFL100", "--runs", "6",
            "--json",
        ])
        assert code == 0
        health = json.loads(capsys.readouterr().out)
        assert health["jobs"]["completed"] == 1
        assert health["runs"]["requested"] == 6
        assert health["runs"]["simulated"] == 6

        store = ResultStore(tmp_path / "store")
        fingerprint = store.fingerprints()[0]
        code = cli.main([
            "status", "--store", str(tmp_path / "store"),
            "--job", f"cached-{fingerprint}", "--json",
        ])
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert len(status["entries"]) == 1
        assert status["entries"][0]["ok"] is True
        assert status["entries"][0]["runs"] == 6
