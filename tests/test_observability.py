"""Observability layer: structured logs, metrics, spans — and the
bit-neutrality contract.

The load-bearing property is the last one: attaching a full
:class:`~repro.observability.Telemetry` bundle to a campaign changes
*nothing* about the sample — times, seeds, records and checksums are
bit-identical with and without it, across every engine.  Telemetry
observes, never decides.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.observability import (
    LEVELS,
    Histogram,
    MetricsRegistry,
    StructuredLogger,
    Telemetry,
    Tracer,
    attached_telemetry,
    current_telemetry,
    null_logger,
)
from repro.sim.campaign import collect_execution_times
from repro.sim.config import Scenario

from .conftest import make_stream_trace


# ----------------------------------------------------------------------
# structured logger
# ----------------------------------------------------------------------
class TestStructuredLogger:
    def test_plain_format_matches_historical_output(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream=stream, level="info", fmt="plain")
        logger.info("campaign_start", message="campaign: RS under EFL100 (10 runs)")
        assert stream.getvalue() == "  [campaign: RS under EFL100 (10 runs)]\n"

    def test_kv_format_quotes_and_orders_fields(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream=stream, level="info", fmt="kv")
        logger.info("job_done", job="job-000001", runs=8, note="two words")
        line = stream.getvalue().strip()
        assert "event=job_done" in line
        assert "job=job-000001" in line
        assert "runs=8" in line
        assert 'note="two words"' in line

    def test_json_format_emits_parseable_records(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream=stream, level="debug", fmt="json")
        logger.debug("run_done", index=3, cycles=1234)
        record = json.loads(stream.getvalue())
        assert record["event"] == "run_done"
        assert record["level"] == "debug"
        assert record["index"] == 3
        assert record["cycles"] == 1234

    def test_level_threshold_filters(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream=stream, level="warning", fmt="kv")
        logger.info("ignored")
        logger.debug("ignored")
        logger.warning("kept")
        logger.error("kept_too")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert not logger.is_enabled("info")
        assert logger.is_enabled("error")

    def test_quiet_logger_emits_nothing(self):
        logger = null_logger()
        logger.error("even_errors_dropped")
        assert not logger.is_enabled("error")

    def test_bind_attaches_context_to_every_record(self):
        stream = io.StringIO()
        base = StructuredLogger(stream=stream, level="info", fmt="kv")
        bound = base.bind(job="job-000007")
        bound.info("tick")
        assert "job=job-000007" in stream.getvalue()

    def test_unknown_level_and_format_rejected(self):
        with pytest.raises(ValueError):
            StructuredLogger(stream=io.StringIO(), level="loud")
        with pytest.raises(ValueError):
            StructuredLogger(stream=io.StringIO(), fmt="xml")
        assert set(LEVELS) >= {"debug", "info", "warning", "error", "quiet"}

    def test_dedupe_key_emits_once_per_logger(self):
        stream = io.StringIO()
        logger = StructuredLogger(stream=stream, level="info", fmt="kv")
        logger.info("message", message="degrading to serial", dedupe="degrade")
        logger.info("message", message="degrading to serial", dedupe="degrade")
        logger.info("message", message="other advisory", dedupe="other")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        # The dedupe key is consumed, never rendered into the record.
        assert all("dedupe" not in line for line in lines)

    def test_dedupe_scope_is_the_bound_child(self):
        # bind() children start with a fresh dedupe set: the scope is
        # one bound context (e.g. one campaign's telemetry observer),
        # not the whole process.
        stream = io.StringIO()
        base = StructuredLogger(stream=stream, level="info", fmt="kv")
        first = base.bind(job="job-1")
        second = base.bind(job="job-2")
        first.info("message", message="advisory", dedupe="advisory")
        first.info("message", message="advisory", dedupe="advisory")
        second.info("message", message="advisory", dedupe="advisory")
        assert len(stream.getvalue().strip().splitlines()) == 2


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        registry.counter("runs_simulated").inc()
        registry.counter("runs_simulated").inc(9)
        assert registry.value("runs_simulated") == 10
        assert registry.value("never_touched") == 0

    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.05
        assert summary["max"] == 5.0
        assert summary["buckets"]["le_0.1"] == 1
        assert summary["buckets"]["le_1"] == 2
        assert summary["buckets"]["inf"] == 1

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.histogram("h").observe(0.2)
        snapshot = json.loads(registry.to_json())
        assert snapshot["counters"]["a"] == 3
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_histogram_edge_sample_lands_in_its_bound_bucket(self):
        # Prometheus le convention: a sample exactly equal to a bound
        # belongs to that bound's bucket, deterministically — never to
        # the next one up.
        registry = MetricsRegistry()
        hist = registry.histogram("edges", buckets=(0.1, 1.0, 5.0))
        for value in (0.1, 1.0, 5.0):
            hist.observe(value)
        buckets = hist.summary()["buckets"]
        assert buckets == {"le_0.1": 1, "le_1": 1, "le_5": 1, "inf": 0}

    def test_histogram_bucket_counts_sum_to_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sums", buckets=(0.5, 0.5, 2.0))
        samples = (0.0, 0.5, 0.5000001, 1.9, 2.0, 2.0000001, 100.0)
        for value in samples:
            hist.observe(value)
        summary = json.loads(registry.to_json())["histograms"]["sums"]
        assert summary["count"] == len(samples)
        assert sum(summary["buckets"].values()) == summary["count"]

    def test_histogram_duplicate_bounds_collapse(self):
        # A duplicated bound used to create a permanently empty shadow
        # bucket whose le_... key collided in the rendered JSON,
        # silently dropping counts; construction now dedupes.
        hist = Histogram("dup", threading.Lock(), buckets=(1.0, 1.0, 2.0))
        assert hist.buckets == (1.0, 2.0)
        hist.observe(1.0)
        hist.observe(1.5)
        buckets = hist.summary()["buckets"]
        assert buckets == {"le_1": 1, "le_2": 1, "inf": 0}
        assert sum(buckets.values()) == hist.count

    def test_histogram_rejects_non_finite_bounds(self):
        lock = threading.Lock()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                Histogram("bad", lock, buckets=(0.1, bad))
        with pytest.raises(ValueError):
            Histogram("empty", lock, buckets=())

    def test_histogram_nan_sample_counts_in_overflow(self):
        # NaN compares false with every bound, so it deterministically
        # falls through to the overflow bucket — counted, not lost.
        hist = Histogram("nan", threading.Lock(), buckets=(1.0,))
        hist.observe(float("nan"))
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["buckets"]["inf"] == 1
        assert sum(summary["buckets"].values()) == summary["count"]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_export(self):
        tracer = Tracer()
        with tracer.span("campaign", task="RS"):
            with tracer.span("wave", wave=0):
                pass
            with tracer.span("wave", wave=1):
                pass
        roots = tracer.export()
        assert len(roots) == 1
        campaign = roots[0]
        assert campaign["name"] == "campaign"
        assert campaign["attributes"]["task"] == "RS"
        assert [child["name"] for child in campaign["children"]] == ["wave", "wave"]
        assert campaign["status"] == "ok"

    def test_span_records_error_status_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("expected")
        exported = tracer.export()[0]
        assert exported["status"] == "error"
        assert exported["attributes"]["error"] == "ValueError"

    def test_to_json_is_valid(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert json.loads(tracer.to_json())[0]["name"] == "a"


# ----------------------------------------------------------------------
# thread-local attachment
# ----------------------------------------------------------------------
class TestAttachment:
    def test_attach_and_restore(self):
        telemetry = Telemetry()
        assert current_telemetry() is None
        with attached_telemetry(telemetry):
            assert current_telemetry() is telemetry
            inner = Telemetry()
            with attached_telemetry(inner):
                assert current_telemetry() is inner
            assert current_telemetry() is telemetry
        assert current_telemetry() is None


# ----------------------------------------------------------------------
# the contract: telemetry is bit-neutral
# ----------------------------------------------------------------------
def _fingerprintable(result):
    """Everything the bit-neutrality contract covers.

    Host wall times are measurements of the run, not of the simulated
    program — they differ between any two executions and are excluded.
    """
    def deterministic(record):
        entry = record.to_dict()
        entry.pop("wall_time_s")
        return entry

    return (
        result.execution_times,
        result.seeds,
        [deterministic(record) for record in result.records],
        result.instructions,
    )


class TestTelemetryBitNeutrality:
    @pytest.mark.parametrize("engine, workers", [
        pytest.param("scalar", None, id="scalar"),
        pytest.param("kernel", None, id="kernel"),
        pytest.param("kernel", 2, id="kernel-workers2"),
    ])
    def test_sample_identical_with_and_without_telemetry(
        self, tiny_config, engine, workers
    ):
        trace = make_stream_trace(words=32, sweeps=2)
        scenario = Scenario.efl(mid=100)
        kwargs = dict(master_seed=11, engine=engine, workers=workers)
        bare = collect_execution_times(
            trace, tiny_config, scenario, 16, **kwargs
        )
        telemetry = Telemetry()
        observed = collect_execution_times(
            trace, tiny_config, scenario, 16, telemetry=telemetry, **kwargs
        )
        assert _fingerprintable(observed) == _fingerprintable(bare)

    def test_metrics_account_for_every_run(self, tiny_config):
        trace = make_stream_trace(words=32, sweeps=2)
        telemetry = Telemetry()
        result = collect_execution_times(
            trace, tiny_config, Scenario.efl(mid=100), 12,
            engine="scalar", telemetry=telemetry,
        )
        assert result.runs == 12
        assert telemetry.metrics.value("runs_simulated") == 12
        assert telemetry.metrics.value("campaigns_started") == 1
        assert telemetry.metrics.value("campaigns_completed") == 1
        hist = telemetry.metrics.histogram("run_wall_time_s")
        assert hist.count == 12

    def test_campaign_span_wraps_execution(self, tiny_config):
        trace = make_stream_trace(words=32, sweeps=2)
        telemetry = Telemetry()
        collect_execution_times(
            trace, tiny_config, Scenario.efl(mid=100), 4,
            engine="kernel", telemetry=telemetry, job_id="job-000042",
        )
        roots = telemetry.tracer.export()
        assert len(roots) == 1
        campaign = roots[0]
        assert campaign["name"] == "campaign"
        assert campaign["attributes"]["job"] == "job-000042"
        assert campaign["attributes"]["runs"] == 4
        # The kernel engine records its sweeps as children.
        assert any(
            child["name"] == "batch_sweep" for child in campaign["children"]
        )

    def test_detached_campaign_leaves_no_thread_state(self, tiny_config):
        trace = make_stream_trace(words=32, sweeps=2)
        collect_execution_times(
            trace, tiny_config, Scenario.efl(mid=100), 2,
            engine="scalar", telemetry=Telemetry(),
        )
        assert current_telemetry() is None

    def test_telemetry_logs_campaign_lifecycle(self, tiny_config):
        trace = make_stream_trace(words=32, sweeps=2)
        stream = io.StringIO()
        telemetry = Telemetry(
            logger=StructuredLogger(stream=stream, level="info", fmt="json")
        )
        collect_execution_times(
            trace, tiny_config, Scenario.efl(mid=100), 3,
            engine="scalar", telemetry=telemetry,
        )
        events = [json.loads(line)["event"]
                  for line in stream.getvalue().strip().splitlines()]
        assert "campaign_start" in events
        assert "campaign_end" in events
