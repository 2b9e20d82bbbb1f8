"""Tests for the experiment drivers and text reporting (tiny scale)."""

from __future__ import annotations

import pickle
from dataclasses import replace
from typing import List, Sequence

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    CoRun,
    Fig4Result,
    PWCETTable,
    WorkloadComparison,
    _corun_backend,
    _deployment_ipcs,
    run_fig3,
    run_fig4,
    run_iid_compliance,
)
from repro.analysis.metrics import improvement, summarise_improvements
from repro.analysis.partitions import (
    DEFAULT_WAY_OPTIONS,
    best_mid,
    best_partition,
)
from repro.analysis.reporting import (
    format_table,
    render_fig3,
    render_fig4,
    render_iid,
)
from repro.core.config import OperationMode
from repro.cpu.trace import Trace
from repro.errors import CampaignRunError
from repro.sim.backend import (
    ProcessPoolBackend,
    RetryPolicy,
    RunObserver,
    RunRecord,
    SerialBackend,
)
from repro.sim.config import Scenario
from repro.sim.faults import FaultInjectingBackend, FaultPlan
from repro.sim.simulator import RunRequest, run_workload
from repro.utils.rng import derive_seeds
from repro.workloads.generator import build_workload_traces, random_workloads
from repro.workloads.scale import ExperimentScale

BENCHES = ("RS", "PU", "CN")  # three cheap kernels keep driver tests fast


@pytest.fixture(scope="module")
def table():
    return PWCETTable(scale=ExperimentScale.tiny(), seed=7)


class TestPWCETTable:
    def test_lazy_and_cached(self, table):
        first = table.pwcet("RS", "efl", 250)
        again = table.pwcet("RS", "efl", 250)
        assert first == again
        assert ("RS", "EFL250") in table._estimates

    def test_instructions(self, table):
        assert table.instructions("RS") > 0

    def test_cp_and_efl_keys_distinct(self, table):
        efl = table.pwcet("RS", "efl", 250)
        cp = table.pwcet("RS", "cp", 2)
        assert ("RS", "CP2") in table._estimates
        assert efl > 0 and cp > 0

    def test_unknown_kind(self, table):
        with pytest.raises(Exception):
            table.pwcet("RS", "static", 1)

    def test_default_config_comes_from_scale(self, table):
        assert table.config.llc_size == table.scale.llc_size

    def test_campaign_records_provenance(self, table):
        campaign = table.campaign("RS", "efl", 250)
        assert len(campaign.seeds) == campaign.runs
        assert len(campaign.records) == campaign.runs
        assert campaign.hwm_seed is not None

    def test_backend_transparent(self, table):
        """A process-pool table reproduces the serial table's pWCETs
        bit-for-bit: seeds are per run, never per worker."""
        parallel = PWCETTable(
            scale=ExperimentScale.tiny(), seed=7,
            backend=ProcessPoolBackend(workers=2, force_pool=True),
        )
        assert parallel.pwcet("RS", "efl", 250) == table.pwcet("RS", "efl", 250)
        serial_campaign = table.campaign("RS", "efl", 250)
        parallel_campaign = parallel.campaign("RS", "efl", 250)
        assert parallel_campaign.execution_times == serial_campaign.execution_times
        assert parallel_campaign.seeds == serial_campaign.seeds


class TestDeploymentSamples:
    """The co-run batch against co-runs built and run inline."""

    WORKLOAD = ("RS", "PU", "RS", "CN")  # a duplicate: one relocated copy

    def _coruns(self) -> List[CoRun]:
        scenario = Scenario.efl(500, mode=OperationMode.DEPLOYMENT)
        return [
            CoRun(rep, seed, self.WORKLOAD, scenario)
            for rep, seed in enumerate(derive_seeds(3, 4))
        ]

    def test_matches_inline_run_workload(self, table):
        coruns = self._coruns()
        traces = build_workload_traces(self.WORKLOAD, table.scale.trace_scale)
        samples = [
            run_workload(traces, table.config, job.scenario, job.seed).total_ipc
            for job in coruns
        ]
        assert _deployment_ipcs(table, coruns, reps=4) == [
            sum(samples) / len(samples)
        ]

    def test_process_backend_matches_serial(self, table):
        coruns = self._coruns()
        serial = _deployment_ipcs(table, coruns, reps=2)
        parallel_table = PWCETTable(
            scale=ExperimentScale.tiny(), seed=7,
            backend=ProcessPoolBackend(workers=2, force_pool=True),
        )
        assert _deployment_ipcs(parallel_table, coruns, reps=2) == serial


def _reference_fig4(
    table: PWCETTable,
    mids=None,
    ways=DEFAULT_WAY_OPTIONS,
    measure_average: bool = True,
    workload_seed: int = 0x46494734,
) -> Fig4Result:
    """``run_fig4`` as it was before the co-run batch: one backend call
    per workload and setup (kept verbatim as the identity oracle)."""

    def _deployment_samples(
        table: "PWCETTable",
        traces: Sequence,
        scenario: Scenario,
        rep_seeds: Sequence[int],
        label: str,
    ) -> List[float]:
        template = RunRequest.workload(
            traces, table.config, scenario, rep_seeds[0], index=0,
            profile=table.profile, cycle_budget=table.cycle_budget,
        )
        requests = [
            template.with_run(index, seed) for index, seed in enumerate(rep_seeds)
        ]
        outcomes = table.backend.execute(requests, observer=table.observer)
        failures = [
            (outcome.index, outcome.seed, outcome.error or "", outcome.error_kind)
            for outcome in outcomes
            if outcome.failed
        ]
        if failures:
            raise CampaignRunError(label, scenario.label(), failures)
        return [outcome.result.total_ipc for outcome in outcomes]

    if mids is None:
        mids = table.scale.mid_options
    config = table.config
    scale = table.scale
    workloads = random_workloads(
        scale.workload_count, tasks_per_workload=config.num_cores, seed=workload_seed
    )

    def instructions_of(bench: str) -> int:
        return table.instructions(bench)

    def pwcet_of_ways(bench: str, w: int) -> float:
        return table.pwcet(bench, "cp", w)

    def pwcet_of_mid(bench: str, mid: int) -> float:
        return table.pwcet(bench, "efl", mid)

    trace_cache: dict = {}
    comparisons: List[WorkloadComparison] = []
    deployment_seeds = derive_seeds(workload_seed ^ 0x5EED, len(workloads))
    for index, workload in enumerate(workloads):
        counts, cp_wgipc = best_partition(
            workload, instructions_of, pwcet_of_ways, config.llc_ways, ways
        )
        mid, efl_wgipc = best_mid(workload, instructions_of, pwcet_of_mid, mids)
        wg_improvement = improvement(efl_wgipc, cp_wgipc)

        cp_waipc = efl_waipc = wa_improvement = None
        if measure_average:
            label = "+".join(workload)
            table.observer.on_message(
                f"deployment workload {index + 1}/{len(workloads)}: "
                f"{label} (CP{counts} vs EFL{mid})"
            )
            traces = build_workload_traces(
                workload, scale.trace_scale, trace_cache
            )
            rep_seeds = derive_seeds(deployment_seeds[index], scale.deployment_reps)
            cp_scenario = Scenario.cache_partitioning(
                counts, num_cores=config.num_cores, mode=OperationMode.DEPLOYMENT
            )
            efl_scenario = Scenario.efl(mid, mode=OperationMode.DEPLOYMENT)
            cp_samples = _deployment_samples(
                table, traces, cp_scenario, rep_seeds, label
            )
            efl_samples = _deployment_samples(
                table, traces, efl_scenario, rep_seeds, label
            )
            cp_waipc = sum(cp_samples) / len(cp_samples)
            efl_waipc = sum(efl_samples) / len(efl_samples)
            wa_improvement = improvement(efl_waipc, cp_waipc)

        comparisons.append(
            WorkloadComparison(
                workload=workload,
                cp_partition=counts,
                cp_wgipc=cp_wgipc,
                efl_mid=mid,
                efl_wgipc=efl_wgipc,
                wgipc_improvement=wg_improvement,
                cp_waipc=cp_waipc,
                efl_waipc=efl_waipc,
                waipc_improvement=wa_improvement,
            )
        )

    wg_summary = summarise_improvements(
        [c.wgipc_improvement for c in comparisons]
    )
    wa_values = [
        c.waipc_improvement for c in comparisons if c.waipc_improvement is not None
    ]
    wa_summary = summarise_improvements(wa_values) if wa_values else None
    return Fig4Result(
        comparisons=comparisons,
        wgipc_summary=wg_summary,
        waipc_summary=wa_summary,
    )


class _Records(RunObserver):
    """Every record and progress message, in the order they arrive."""

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self.messages: List[str] = []
        self.crashes = 0

    def on_run(self, record: RunRecord) -> None:
        self.records.append(tuple(
            getattr(record, name) for name in RunRecord.PERSISTED_FIELDS
            if name != "wall_time_s"
        ))

    def on_worker_crash(self, dead_workers: int) -> None:
        self.crashes += dead_workers

    def on_message(self, message: str) -> None:
        self.messages.append(message)


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    """Journals of every analysis campaign tiny-scale Figure 4 reads,
    so the tables below simulate nothing but their co-runs."""
    path = tmp_path_factory.mktemp("fig4-journals")
    run_fig3(PWCETTable(scale=ExperimentScale.tiny(), seed=7,
                        checkpoint_dir=path))
    return path


def _fig4(journals, backend=None, figure=run_fig4, reps=1, **kwargs):
    """Tiny-scale Figure 4 from the journals: (result, observer)."""
    observer = _Records()
    table = PWCETTable(
        scale=replace(ExperimentScale.tiny(), deployment_reps=reps),
        seed=7, checkpoint_dir=journals, backend=backend, observer=observer,
    )
    return figure(table, **kwargs), observer


@pytest.fixture(scope="module")
def in_process(journals):
    result, observer = _fig4(journals, SerialBackend())
    assert len(observer.records) == 2 * ExperimentScale.tiny().workload_count
    return result, observer.records


class TestDeploymentBatch:
    """Figure 4's co-runs as one batch: same results on every path."""

    def test_in_process_matches_per_workload_loop(self, journals, in_process):
        result, observer = _fig4(journals, SerialBackend(),
                                 figure=_reference_fig4)
        assert in_process == (result, observer.records)

    def test_pool_matches_in_process(self, journals, in_process):
        result, observer = _fig4(
            journals, ProcessPoolBackend(workers=2, force_pool=True)
        )
        assert (result, observer.records) == in_process

    def test_progress_names_each_workloads_setups(self, journals):
        _result, observer = _fig4(journals, SerialBackend())
        lines = [m for m in observer.messages if m.startswith("deployment")]
        assert lines[0].startswith("deployment workload 1/8: ")
        assert " (CP(" in lines[0] and " vs EFL" in lines[0]
        assert lines[-1] == "deployment batch: 16 co-runs on serial"

    def test_worker_crash_mid_batch_is_redispatched(self, journals):
        # Faults key on a run's index, its rep within the workload: with
        # three reps, every workload's second co-runs kill their worker.
        plan = next(
            plan for plan in (FaultPlan(seed, crash_rate=0.4)
                              for seed in range(64))
            if plan.fault_indices("crash", 3) == [1]
        )
        pool = FaultInjectingBackend(ProcessPoolBackend(
            workers=2, force_pool=True,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        ), plan)
        expected, serial = _fig4(journals, SerialBackend(), reps=3)
        result, observer = _fig4(journals, pool, reps=3)
        assert observer.crashes > 0
        assert result == expected
        assert sorted(observer.records) == sorted(serial.records)

    @pytest.mark.parametrize("backend", [
        SerialBackend(), ProcessPoolBackend(workers=2, force_pool=True),
    ], ids=["in-process", "pool"])
    def test_deterministic_error_names_workload_and_scenario(
        self, journals, in_process, monkeypatch, backend
    ):
        target = in_process[0].comparisons[2]
        build = experiments._corun_request

        def failing(*args):
            request = build(*args)
            workload, scenario = args[-2:]
            if workload == target.workload \
                    and scenario.label() == f"EFL{target.efl_mid}":
                request = replace(request, cycle_budget=1)  # always exceeded
            return request

        monkeypatch.setattr(experiments, "_corun_request", failing)
        with pytest.raises(CampaignRunError) as caught:
            _fig4(journals, backend)
        assert caught.value.task == "+".join(target.workload)
        assert caught.value.scenario_label == f"EFL{target.efl_mid}"
        assert [kind for *_, kind in caught.value.failures] == ["deterministic"]

    def test_job_messages_hold_no_trace(self, journals):
        captured = []

        class Capture(ProcessPoolBackend):
            def _run_wave(self, context, bootstrap, runner, messages,
                          observer):
                captured.extend(message for _position, message in messages)
                return super()._run_wave(context, bootstrap, runner,
                                         messages, observer)

        class NoTrace(pickle.Pickler):
            def persistent_id(self, obj):
                assert not isinstance(obj, Trace), "a Trace in a job message"
                return None

        _fig4(journals, Capture(workers=2, force_pool=True))
        assert len(captured) == 16
        for message in captured:
            NoTrace(_Sink()).dump(message)
            assert len(pickle.dumps(message)) < 600

    def test_single_cpu_runs_in_process(self, journals, in_process,
                                        monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
        monkeypatch.setattr(ProcessPoolBackend, "_execute_waves", _no_pool)
        result, observer = _fig4(journals)
        assert (result, observer.records) == in_process
        assert "deployment batch: 16 co-runs on serial" in observer.messages
        assert not any("degrad" in m for m in observer.messages)

    def test_without_average_starts_no_pool(self, journals, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 8)
        monkeypatch.setattr(ProcessPoolBackend, "_execute_waves", _no_pool)
        result, observer = _fig4(journals, measure_average=False)
        assert result.waipc_summary is None
        assert observer.records == []
        assert not any(m.startswith("deployment") for m in observer.messages)


class TestCoRunBackendPolicy:
    # The CPU-count and explicit-backend cases run through the CLI in
    # tests/test_cli.py::TestCoRunBackend.
    def test_single_corun_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(experiments, "usable_cpus", lambda: 4)
        table = PWCETTable(scale=ExperimentScale.tiny())
        assert _corun_backend(table, coruns=1) is table.backend
        assert isinstance(table.backend, SerialBackend)


class _Sink:
    def write(self, data) -> None:
        pass


def _no_pool(*_args, **_kwargs):
    raise AssertionError("a worker pool was started")


class TestIIDDriver:
    def test_rows_and_render(self, table):
        result = run_iid_compliance(table, bench_ids=BENCHES)
        assert [row.bench_id for row in result.rows] == list(BENCHES)
        assert result.mid == 500  # middle option of (250, 500, 1000)
        text = render_iid(result)
        for bench in BENCHES:
            assert bench in text
        assert "WW stat" in text


class TestFig3Driver:
    def test_structure(self, table):
        fig3 = run_fig3(table, mids=(250,), ways=(1, 2), bench_ids=BENCHES)
        assert fig3.baseline_label == "CP2"
        assert fig3.setups == ["EFL250", "CP1", "CP2"]
        for bench in BENCHES:
            assert fig3.normalised[bench]["CP2"] == pytest.approx(1.0)
            for setup in fig3.setups:
                assert fig3.pwcet[bench][setup] > 0

    def test_geomean(self, table):
        fig3 = run_fig3(table, mids=(250,), ways=(2,), bench_ids=BENCHES)
        assert fig3.geometric_mean_normalised("CP2") == pytest.approx(1.0)

    def test_render(self, table):
        fig3 = run_fig3(table, mids=(250,), ways=(2,), bench_ids=BENCHES)
        text = render_fig3(fig3)
        assert "geomean" in text
        assert "EFL250" in text


class TestFig4Driver:
    def test_wgipc_only(self, table):
        fig4 = run_fig4(table, measure_average=False)
        assert len(fig4.comparisons) == table.scale.workload_count
        assert fig4.waipc_summary is None
        for comparison in fig4.comparisons:
            assert comparison.waipc_improvement is None
            assert sum(comparison.cp_partition) <= table.config.llc_ways
        curve = fig4.wgipc_curve()
        assert curve == sorted(curve, reverse=True)

    def test_render_without_average(self, table):
        fig4 = run_fig4(table, measure_average=False)
        text = render_fig4(fig4)
        assert "wgIPC" in text
        assert "waIPC" not in text

    def test_deterministic_given_seed(self, table):
        a = run_fig4(table, measure_average=False, workload_seed=5)
        b = run_fig4(table, measure_average=False, workload_seed=5)
        assert [c.wgipc_improvement for c in a.comparisons] == [
            c.wgipc_improvement for c in b.comparisons
        ]


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1
