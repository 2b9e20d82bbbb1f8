"""Adaptive MBPTA campaigns: streaming EVT convergence.

The guarantees under test:

* the :class:`~repro.pta.adaptive.StreamingGumbelEstimator` is
  bit-identical to a from-scratch sort-and-fit at every wave boundary
  (property-tested), so "incremental" is an implementation detail the
  numbers cannot observe;
* an adaptive campaign's executed sample is bit-identical to the
  *prefix* of the fixed-R campaign's sample, across every engine, and
  a checkpoint-killed-then-resumed adaptive campaign reproduces the
  same stopping decision run-for-run;
* ``min_runs == max_runs == R`` degrades to the fixed-R campaign
  exactly;
* the service ledger extends to ``runs_requested == runs_simulated +
  runs_resumed + runs_served_from_cache + runs_shed +
  runs_saved_converged`` and adaptive jobs never collide with fixed-R
  jobs in the result store.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.observability import Telemetry
from repro.pta.adaptive import (
    ConvergencePolicy,
    StreamingGumbelEstimator,
    WaveScheduler,
)
from repro.pta.evt import (
    block_maxima,
    fit_gumbel_pwm,
    pwcet_estimate,
    validate_exceedance,
)
from repro.analysis.reporting import render_campaign
from repro.service import CampaignJob, JobQueue, ResultStore
from repro.service.journal import job_from_spec, job_spec
from repro.sim.campaign import CampaignResult, collect_execution_times
from repro.sim.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.sim.config import Scenario, SystemConfig
from repro.workloads.scale import ExperimentScale

from .conftest import make_stream_trace

CONFIG = SystemConfig(l1_size=256, llc_size=2048)
SCENARIO = Scenario.efl(100)
SEED = 5
MAX_RUNS = 64

#: A policy loose enough to converge on the tiny test trace well
#: before MAX_RUNS (the i.i.d. gate is off: 64-run smoke samples are
#: too small for 5% test thresholds to be meaningful).
POLICY = ConvergencePolicy(
    min_runs=8, max_runs=MAX_RUNS, wave_size=8, block_size=4,
    rtol=0.5, stable_waves=2, require_iid=False,
)

#: A policy that can never converge (more stable waves than waves).
NEVER = ConvergencePolicy(
    min_runs=8, max_runs=MAX_RUNS, wave_size=8, block_size=4,
    rtol=0.5, stable_waves=10_000, require_iid=False,
)


@pytest.fixture
def trace():
    return make_stream_trace("adapt", words=32, sweeps=2)


def run(trace, adaptive=None, runs=MAX_RUNS, engine="scalar", workers=None,
        journal=None, resume=True, telemetry=None):
    checkpoint = (
        CampaignCheckpoint(journal, resume=resume) if journal else None
    )
    return collect_execution_times(
        trace, CONFIG, SCENARIO, runs=runs, master_seed=SEED,
        engine=engine, workers=workers, adaptive=adaptive,
        checkpoint=checkpoint, telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------
class TestPolicyValidation:
    def make(self, **overrides):
        fields = dict(min_runs=8, max_runs=64, wave_size=8, block_size=4)
        fields.update(overrides)
        return ConvergencePolicy(**fields)

    @pytest.mark.parametrize("exceedance", [0.0, 1.0, -0.1, 1.5, True, "p"])
    def test_exceedance_rejected_at_construction(self, exceedance):
        with pytest.raises(ConfigurationError, match="exceedance"):
            self.make(exceedance=exceedance)

    @pytest.mark.parametrize("prob", [0.0, 1.0, -1e-9, math.nan, math.inf])
    def test_validate_exceedance_rejects_out_of_range(self, prob):
        with pytest.raises(ConfigurationError, match="exceedance"):
            validate_exceedance(prob)

    def test_validate_exceedance_accepts_open_interval(self):
        validate_exceedance(1e-15)
        validate_exceedance(0.5)

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError, match="min_runs"):
            self.make(min_runs=0)
        with pytest.raises(ConfigurationError, match="max_runs"):
            self.make(max_runs=4)
        with pytest.raises(ConfigurationError, match="wave_size"):
            self.make(wave_size=0)
        with pytest.raises(ConfigurationError, match="stable_waves"):
            self.make(stable_waves=0)
        with pytest.raises(ConfigurationError, match="block_size"):
            self.make(block_size=0)
        with pytest.raises(ConfigurationError, match="rtol"):
            self.make(rtol=0.0)
        with pytest.raises(ConfigurationError, match="rtol"):
            self.make(rtol=math.inf)
        with pytest.raises(ConfigurationError, match="2 blocks"):
            self.make(min_runs=1, max_runs=7, block_size=4)

    def test_for_scale_defaults(self):
        scale = ExperimentScale.quick()
        policy = ConvergencePolicy.for_scale(scale)
        assert policy.max_runs == scale.analysis_runs
        assert policy.wave_size == scale.block_size
        assert policy.block_size == scale.block_size
        assert policy.min_runs >= 2 * scale.block_size
        assert policy.min_runs <= policy.max_runs

    def test_round_trip_and_fingerprint(self):
        policy = self.make(rtol=0.01, exceedance=1e-12)
        assert ConvergencePolicy.from_dict(policy.to_dict()) == policy
        assert json.loads(json.dumps(policy.to_dict())) == policy.to_dict()
        other = self.make(rtol=0.02, exceedance=1e-12)
        assert policy.fingerprint_key() != other.fingerprint_key()


# ----------------------------------------------------------------------
# streaming estimator == from-scratch fit (property)
# ----------------------------------------------------------------------
times = st.floats(min_value=1.0, max_value=1e9, allow_nan=False,
                  allow_infinity=False)


@st.composite
def waved_samples(draw):
    """A sample, a block size and a partition of the sample into waves."""
    sample = draw(st.lists(times, min_size=1, max_size=80))
    block_size = draw(st.integers(min_value=1, max_value=5))
    waves = []
    position = 0
    while position < len(sample):
        width = draw(st.integers(min_value=1, max_value=10))
        waves.append(sample[position:position + width])
        position += width
    return sample, block_size, waves


class TestEstimatorBitIdentity:
    @given(waved_samples())
    @settings(max_examples=200, deadline=None)
    def test_incremental_equals_from_scratch_at_every_boundary(self, case):
        sample, block_size, waves = case
        policy = ConvergencePolicy(
            min_runs=1, max_runs=max(len(sample), 2 * block_size),
            wave_size=1, block_size=block_size,
            rtol=1e-300, stable_waves=10_000, require_iid=False,
        )
        estimator = StreamingGumbelEstimator(policy)
        consumed = 0
        for wave in waves:
            estimator.observe_wave(wave)
            consumed += len(wave)
            prefix = sample[:consumed]
            # block_maxima() itself refuses < 2 blocks, so spell out
            # the fixed-window maxima for the comparison.
            blocks = len(prefix) // block_size
            maxima = [
                max(prefix[i * block_size:(i + 1) * block_size])
                for i in range(blocks)
            ]
            assert np.array_equal(
                estimator.sorted_maxima, np.sort(np.asarray(maxima))
            )
            if blocks >= 2:
                assert maxima == block_maxima(prefix, block_size)
                fresh = fit_gumbel_pwm(maxima)
                fit = estimator.fit()
                # Bit-identical, not approximately equal: the merged
                # order statistics feed the same PWM arithmetic.
                assert fit.location == fresh.location
                assert fit.scale == fresh.scale
                assert estimator.pwcet() == pwcet_estimate(
                    prefix, policy.exceedance, block_size
                )
            else:
                assert estimator.fit() is None
                assert estimator.pwcet() is None

    @given(
        st.lists(times, min_size=8, max_size=60),
        st.floats(min_value=1e-18, max_value=0.4),
        st.floats(min_value=1e-18, max_value=0.4),
    )
    @settings(max_examples=200, deadline=None)
    def test_pwcet_monotone_in_exceedance(self, sample, p_a, p_b):
        rare, common = sorted((p_a, p_b))
        block = 4
        assert pwcet_estimate(sample, rare, block) >= pwcet_estimate(
            sample, common, block
        )

    def test_estimator_is_pure_replay(self):
        rng = np.random.default_rng(7)
        sample = list(rng.gumbel(1000.0, 50.0, size=96))
        first = StreamingGumbelEstimator(POLICY)
        second = StreamingGumbelEstimator(POLICY)
        for start in range(0, len(sample), POLICY.wave_size):
            wave = sample[start:start + POLICY.wave_size]
            if first.converged:
                break
            first.observe_wave(wave)
        # Replaying the identical prefix reproduces everything.
        for start in range(0, first.runs, POLICY.wave_size):
            second.observe_wave(sample[start:start + POLICY.wave_size])
        assert second.converged == first.converged
        assert second.runs == first.runs
        assert second.history == first.history
        assert second.deltas == first.deltas


# ----------------------------------------------------------------------
# adaptive campaigns
# ----------------------------------------------------------------------
class TestAdaptiveCampaign:
    def test_sample_is_prefix_of_fixed_campaign(self, trace):
        fixed = run(trace)
        adaptive = run(trace, adaptive=POLICY)
        assert adaptive.adaptive and adaptive.converged
        assert 0 < adaptive.runs_executed < MAX_RUNS
        assert adaptive.runs == adaptive.runs_executed
        assert adaptive.runs_saved == MAX_RUNS - adaptive.runs_executed
        assert adaptive.execution_times == \
            fixed.execution_times[:adaptive.runs_executed]
        assert adaptive.seeds == fixed.seeds
        assert adaptive.pwcet_rtol_requested == POLICY.rtol
        assert adaptive.pwcet_rtol_achieved is not None
        assert adaptive.pwcet_rtol_achieved < POLICY.rtol

    def test_stopping_is_engine_invariant(self, trace):
        reference = run(trace, adaptive=POLICY, engine="scalar")
        for engine, workers in (("kernel", None), ("kernel", 2)):
            other = run(trace, adaptive=POLICY, engine=engine,
                        workers=workers)
            assert other.runs_executed == reference.runs_executed
            assert other.converged == reference.converged
            assert other.execution_times == reference.execution_times
            assert other.pwcet_rtol_achieved == reference.pwcet_rtol_achieved

    def test_min_equals_max_reproduces_fixed_campaign(self, trace):
        fixed = run(trace)
        policy = ConvergencePolicy(
            min_runs=MAX_RUNS, max_runs=MAX_RUNS, wave_size=8,
            block_size=4, require_iid=False,
        )
        pinned = run(trace, adaptive=policy)
        assert pinned.runs_executed == MAX_RUNS
        assert pinned.runs_saved == 0
        assert pinned.execution_times == fixed.execution_times

    def test_non_convergence_runs_to_ceiling(self, trace):
        result = run(trace, adaptive=NEVER)
        assert result.runs_executed == MAX_RUNS
        assert result.runs_saved == 0
        assert not result.converged
        assert result.pwcet_rtol_requested == NEVER.rtol

    def test_runs_must_equal_policy_ceiling(self, trace):
        with pytest.raises(ConfigurationError, match="max_runs"):
            run(trace, adaptive=POLICY, runs=MAX_RUNS + 1)

    def test_result_round_trip_and_legacy_payloads(self, trace):
        result = run(trace, adaptive=POLICY)
        clone = CampaignResult.from_dict(json.loads(
            json.dumps(result.to_dict())
        ))
        for field in ("adaptive", "converged", "runs_executed",
                      "runs_saved", "pwcet_rtol_requested",
                      "pwcet_rtol_achieved", "execution_times", "runs"):
            assert getattr(clone, field) == getattr(result, field)
        # Payloads written before the adaptive layer still load.
        legacy = run(trace).to_dict()
        for key in ("adaptive", "converged", "runs_executed", "runs_saved",
                    "pwcet_rtol_requested", "pwcet_rtol_achieved"):
            legacy.pop(key, None)
        loaded = CampaignResult.from_dict(legacy)
        assert loaded.adaptive is False
        assert loaded.runs_executed == loaded.runs

    def test_report_shows_convergence_line(self, trace):
        text = render_campaign(run(trace, adaptive=POLICY))
        assert "convergence: converged after" in text
        assert "saved" in text
        text = render_campaign(run(trace, adaptive=NEVER))
        assert "did NOT converge" in text

    def test_telemetry_counts_saved_runs(self, trace):
        telemetry = Telemetry()
        result = run(trace, adaptive=POLICY, telemetry=telemetry)
        metrics = telemetry.metrics
        assert metrics.value("adaptive_campaigns") == 1
        assert metrics.value("campaigns_converged") == 1
        assert metrics.value("runs_saved_converged") == result.runs_saved
        assert metrics.value("runs_simulated") == result.runs_executed


# ----------------------------------------------------------------------
# speculative wave scheduling
# ----------------------------------------------------------------------
class TestWaveScheduler:
    def test_growth_validated(self):
        for bad in (0.5, 0.0, -1.0, math.inf, math.nan, True, "fast"):
            with pytest.raises(ConfigurationError, match="growth"):
                WaveScheduler(POLICY, growth=bad)

    def test_schedule_validated(self):
        for bad in ((), (8, 0), (-4,), (8.5,), (True,)):
            with pytest.raises(ConfigurationError, match="schedule"):
                WaveScheduler(POLICY, schedule=bad)

    def test_unit_growth_is_wave_by_wave(self):
        blocks = list(WaveScheduler(POLICY, growth=1.0).blocks(MAX_RUNS))
        assert blocks == [(i, i + 8) for i in range(0, MAX_RUNS, 8)]

    def test_geometric_blocks_partition_the_budget(self):
        blocks = list(WaveScheduler(POLICY, growth=4.0).blocks(MAX_RUNS))
        assert [end - start for start, end in blocks] == [8, 32, 24]
        assert blocks[0][0] == 0 and blocks[-1][1] == MAX_RUNS
        for (_, end), (start, _) in zip(blocks, blocks[1:]):
            assert end == start

    def test_explicit_schedule_repeats_its_last_block(self):
        scheduler = WaveScheduler(POLICY, schedule=(8, 16))
        blocks = list(scheduler.blocks(MAX_RUNS))
        assert [end - start for start, end in blocks] == [8, 16, 16, 16, 8]


class TestSpeculativeCampaign:
    def test_speculative_sample_is_prefix_with_reconciled_waste(self, trace):
        fixed = run(trace)
        reference = run(trace, adaptive=POLICY)
        # Dispatch the whole budget in one block: everything past the
        # stopping point is waste, the sample is untouched.
        greedy = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
            engine="kernel", adaptive=POLICY,
            scheduler=WaveScheduler(POLICY, schedule=(MAX_RUNS,)),
        )
        assert greedy.converged
        assert greedy.runs_executed == reference.runs_executed
        assert greedy.execution_times == reference.execution_times
        assert greedy.runs_speculated_waste == \
            MAX_RUNS - greedy.runs_executed
        assert greedy.runs_saved == 0
        assert greedy.runs_executed + greedy.runs_saved \
            + greedy.runs_speculated_waste == MAX_RUNS
        assert greedy.execution_times == \
            fixed.execution_times[:greedy.runs_executed]

    def test_amortised_backends_speculate_by_default(self, trace):
        result = run(trace, adaptive=POLICY, engine="kernel")
        # The default geometric schedule reproduces the wave-by-wave
        # stopping decision whether or not overshoot occurred.
        reference = run(trace, adaptive=POLICY)
        assert result.runs_executed == reference.runs_executed
        assert result.execution_times == reference.execution_times
        assert result.runs_executed + result.runs_saved \
            + result.runs_speculated_waste == MAX_RUNS

    def test_per_run_backends_never_speculate(self, trace):
        result = run(trace, adaptive=POLICY, engine="scalar")
        assert result.runs_speculated_waste == 0
        assert result.runs_saved == MAX_RUNS - result.runs_executed

    def test_scheduler_requires_adaptive(self, trace):
        with pytest.raises(ConfigurationError, match="adaptive"):
            collect_execution_times(
                trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
                scheduler=WaveScheduler(POLICY),
            )

    def test_scheduler_policy_must_match_campaign(self, trace):
        with pytest.raises(ConfigurationError, match="ConvergencePolicy"):
            collect_execution_times(
                trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
                adaptive=NEVER, scheduler=WaveScheduler(POLICY),
            )

    def test_waste_counts_on_simulated_not_saved(self, trace):
        telemetry = Telemetry()
        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
            engine="kernel", adaptive=POLICY, telemetry=telemetry,
            scheduler=WaveScheduler(POLICY, schedule=(MAX_RUNS,)),
        )
        metrics = telemetry.metrics
        assert result.runs_speculated_waste > 0
        assert metrics.value("runs_simulated") == \
            result.runs_executed + result.runs_speculated_waste
        assert metrics.value("runs_speculated_waste") == \
            result.runs_speculated_waste
        assert metrics.value("runs_saved_converged") == result.runs_saved

    def test_report_and_wire_format_carry_waste(self, trace):
        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
            engine="kernel", adaptive=POLICY,
            scheduler=WaveScheduler(POLICY, schedule=(MAX_RUNS,)),
        )
        text = render_campaign(result)
        assert "speculated past stop" in text
        assert f"of {MAX_RUNS} runs" in text
        clone = CampaignResult.from_dict(json.loads(result.to_json()))
        assert clone.runs_speculated_waste == result.runs_speculated_waste


#: Arbitrary dispatch schedules, including degenerate single-run blocks
#: and blocks far larger than the budget.
schedules = st.lists(
    st.integers(min_value=1, max_value=2 * MAX_RUNS), min_size=1, max_size=6
).map(tuple)


class TestScheduleInvariance:
    """Dispatch grouping is unobservable in the sample (property)."""

    _reference = None

    def reference(self):
        if TestScheduleInvariance._reference is None:
            trace = make_stream_trace("adapt", words=32, sweeps=2)
            TestScheduleInvariance._reference = run(trace, adaptive=POLICY)
        return TestScheduleInvariance._reference

    @given(schedule=schedules, workers=st.sampled_from([None, 2]))
    @settings(max_examples=12, deadline=None)
    def test_any_schedule_reproduces_wave_by_wave(self, schedule, workers):
        reference = self.reference()
        trace = make_stream_trace("adapt", words=32, sweeps=2)
        result = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
            engine="kernel", workers=workers, adaptive=POLICY,
            scheduler=WaveScheduler(POLICY, schedule=schedule),
        )
        assert result.converged == reference.converged
        assert result.runs_executed == reference.runs_executed
        assert result.execution_times == reference.execution_times
        assert result.pwcet_rtol_achieved == reference.pwcet_rtol_achieved
        assert result.runs_executed + result.runs_saved \
            + result.runs_speculated_waste == MAX_RUNS

    @given(schedule=schedules, kill_after=st.integers(min_value=1,
                                                      max_value=30))
    @settings(max_examples=8, deadline=None)
    def test_kill_and_resume_under_any_schedule(self, tmp_path_factory,
                                                schedule, kill_after):
        reference = self.reference()
        trace = make_stream_trace("adapt", words=32, sweeps=2)
        journal = tmp_path_factory.mktemp("spec") / "journal.jsonl"
        first = collect_execution_times(
            trace, CONFIG, SCENARIO, runs=MAX_RUNS, master_seed=SEED,
            engine="kernel", adaptive=POLICY,
            scheduler=WaveScheduler(POLICY, schedule=schedule),
            checkpoint=CampaignCheckpoint(journal),
        )
        assert first.execution_times == reference.execution_times
        # SIGKILL mid-campaign: truncate the journal, then resume with
        # plain wave-by-wave dispatch — journalled speculative overshoot
        # must replay harmlessly and the stopping decision must hold.
        lines = journal.read_text().splitlines()
        journal.write_text(
            "\n".join(lines[:1 + min(kill_after, len(lines) - 1)]) + "\n"
        )
        resumed = run(trace, adaptive=POLICY, journal=journal)
        assert resumed.converged == reference.converged
        assert resumed.runs_executed == reference.runs_executed
        assert resumed.execution_times == reference.execution_times


# ----------------------------------------------------------------------
# checkpoint kill-and-resume
# ----------------------------------------------------------------------
class TestAdaptiveResume:
    def test_resume_reproduces_stopping_decision(self, trace, tmp_path):
        journal = tmp_path / "adaptive.jsonl"
        reference = run(trace, adaptive=POLICY, journal=journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + reference.runs_executed
        # Kill after 10 completed runs: keep the header plus 10 records.
        journal.write_text("\n".join(lines[:11]) + "\n")
        resumed = run(trace, adaptive=POLICY, journal=journal)
        assert resumed.resumed_runs == 10
        assert resumed.runs_executed == reference.runs_executed
        assert resumed.converged == reference.converged
        assert resumed.execution_times == reference.execution_times
        assert resumed.pwcet_rtol_achieved == reference.pwcet_rtol_achieved

    def test_fixed_journal_feeds_adaptive_resume(self, trace, tmp_path):
        # The run journal's fingerprint deliberately excludes the
        # policy: a fixed-R journal at the same max_runs is a valid
        # prefix source for the adaptive campaign (and vice versa).
        journal = tmp_path / "fixed.jsonl"
        fixed = run(trace, journal=journal)
        adaptive = run(trace, adaptive=POLICY, journal=journal)
        assert adaptive.execution_times == \
            fixed.execution_times[:adaptive.runs_executed]
        assert adaptive.resumed_runs == adaptive.runs_executed

    def test_fully_journalled_adaptive_replays_without_executing(
            self, trace, tmp_path):
        journal = tmp_path / "adaptive.jsonl"
        reference = run(trace, adaptive=POLICY, journal=journal)
        replayed = run(trace, adaptive=POLICY, journal=journal)
        assert replayed.resumed_runs == reference.runs_executed
        assert replayed.execution_times == reference.execution_times
        assert replayed.converged == reference.converged


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------
class TestAdaptiveService:
    def make_job(self, adaptive=None, runs=MAX_RUNS):
        trace = make_stream_trace("adapt", words=32, sweeps=2)
        return CampaignJob(
            trace, CONFIG, SCENARIO, runs=runs, master_seed=SEED,
            engine="scalar", adaptive=adaptive,
        )

    def assert_reconciled(self, telemetry):
        metrics = telemetry.metrics
        assert metrics.value("runs_requested") == (
            metrics.value("runs_simulated")
            + metrics.value("runs_resumed")
            + metrics.value("runs_served_from_cache")
            + metrics.value("runs_shed")
            + metrics.value("runs_saved_converged")
        )

    def test_job_rejects_runs_policy_mismatch(self):
        with pytest.raises(ConfigurationError, match="max_runs"):
            self.make_job(adaptive=POLICY, runs=MAX_RUNS + 1)

    def test_adaptive_and_fixed_fingerprints_differ(self):
        adaptive = self.make_job(adaptive=POLICY)
        fixed = self.make_job()
        assert adaptive.fingerprint != fixed.fingerprint
        other = self.make_job(
            adaptive=ConvergencePolicy(
                min_runs=8, max_runs=MAX_RUNS, wave_size=8, block_size=4,
                rtol=0.25, stable_waves=2, require_iid=False,
            )
        )
        assert adaptive.fingerprint != other.fingerprint

    def test_job_spec_round_trips_policy(self):
        job = self.make_job(adaptive=POLICY)
        spec = json.loads(json.dumps(job_spec(job)))
        rebuilt = job_from_spec(spec)
        assert rebuilt.adaptive == POLICY
        assert rebuilt.fingerprint == job.fingerprint
        plain = self.make_job()
        assert job_from_spec(json.loads(
            json.dumps(job_spec(plain))
        )).adaptive is None

    def test_store_ledger_reconciles_with_saved_runs(self, tmp_path):
        telemetry = Telemetry()
        store = ResultStore(tmp_path / "store")
        with JobQueue(workers=1, telemetry=telemetry) as queue:
            job = self.make_job(adaptive=POLICY)
            result = store.get_or_submit(job, queue).wait()
            assert result.converged
            assert result.runs_saved > 0
            self.assert_reconciled(telemetry)
            # A byte-identical adaptive resubmission answers from the
            # store, bit-identically, and the ledger still balances.
            again = store.get_or_submit(
                self.make_job(adaptive=POLICY), queue
            ).wait()
            assert again.execution_times == result.execution_times
            assert again.converged and again.runs_saved == result.runs_saved
            self.assert_reconciled(telemetry)
            # The fixed-R twin is a store miss: it simulates the full
            # budget rather than serving the adaptive prefix.
            fixed = store.get_or_submit(self.make_job(), queue).wait()
            assert fixed.runs == MAX_RUNS
            assert fixed.execution_times[:result.runs_executed] == \
                result.execution_times
            self.assert_reconciled(telemetry)

    def test_campaign_fingerprint_policy_split(self, trace):
        base = campaign_fingerprint(trace, CONFIG, SCENARIO, SEED, MAX_RUNS)
        assert base == campaign_fingerprint(
            trace, CONFIG, SCENARIO, SEED, MAX_RUNS, adaptive=None
        )
        assert base != campaign_fingerprint(
            trace, CONFIG, SCENARIO, SEED, MAX_RUNS, adaptive=POLICY
        )
