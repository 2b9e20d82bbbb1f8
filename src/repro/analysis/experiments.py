"""Experiment drivers for every table and figure of the evaluation.

Experiment ids follow DESIGN.md:

* **E1** (:func:`run_iid_compliance`) — the MBPTA-compliance check:
  Wald-Wolfowitz and Kolmogorov-Smirnov results per benchmark under
  EFL;
* **E2** (:func:`run_fig3`) — Figure 3: pWCET of EFL{250,500,1000} and
  CP{1,2,4} per benchmark, normalised to CP2;
* **E3/E4** (:func:`run_fig4`) — Figure 4: per-workload wgIPC (E3) and
  waIPC (E4) improvement of the best EFL setup over the best CP setup,
  with the S-curve data and the summary statistics the paper quotes.

The shared substrate is :class:`PWCETTable`, which lazily runs the
per-(benchmark, setup) analysis campaigns and caches their MBPTA
results so E2, E3 and E4 reuse the same estimates — exactly as the
paper derives Figure 4's wgIPC from Figure 3's analysis products.
"""

from __future__ import annotations

import re
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import improvement, summarise_improvements
from repro.analysis.partitions import (
    DEFAULT_WAY_OPTIONS,
    best_mid,
    best_partition,
)
from repro.core.config import OperationMode
from repro.errors import AnalysisError, CampaignRunError, ConfigurationError
from repro.pta.adaptive import ConvergencePolicy
from repro.pta.evt import validate_exceedance
from repro.pta.iid import IIDResult, iid_test
from repro.pta.mbpta import MBPTAResult, estimate_pwcet
from repro.sim.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    RunObserver,
    SerialBackend,
    usable_cpus,
)
from repro.sim.campaign import CampaignResult, collect_execution_times
from repro.sim.plancache import PlanCache
from repro.sim.checkpoint import CampaignCheckpoint
from repro.sim.config import Scenario, SystemConfig
from repro.sim.simulator import RunRequest
from repro.utils.rng import derive_seeds
from repro.workloads.generator import build_workload_traces, random_workloads
from repro.workloads.scale import ExperimentScale
from repro.workloads.suite import BENCHMARK_IDS, build_all_benchmarks


class PWCETTable:
    """Lazily computed pWCET estimates per (benchmark, setup).

    One instance owns the benchmark traces (built once at the campaign
    scale) and a cache of campaign + MBPTA results keyed by the setup
    label (``EFL500``, ``CP2``, ...).  Every campaign dispatches its
    runs through ``backend`` (default: serial) — the estimates are
    bit-identical across backends because per-run seeds derive from
    the campaign key, never from the worker layout — and reports
    per-run records to ``observer``.

    ``checkpoint_dir`` journals each analysis campaign to its own
    JSONL file (``<bench>__<setup>.jsonl``) so an interrupted Figure
    3/4 sweep resumes where it died instead of restarting: already
    journalled runs are loaded, not re-executed, and the resumed
    estimates are bit-identical to an uninterrupted sweep's.
    ``resume=False`` keeps journalling but discards any prior journal.

    ``adaptive`` (a :class:`~repro.pta.adaptive.ConvergencePolicy`)
    switches every analysis campaign from fixed-R to streaming
    convergence: each (benchmark, setup) campaign requests the policy's
    ``max_runs`` and stops at its own convergence point.  The executed
    samples are bit-identical prefixes of the fixed-R samples, so a
    tight-``rtol`` adaptive table reproduces the fixed table's figures
    at a fraction of the simulated runs.  Passing the string
    ``"per-benchmark"`` instead of a policy gives each benchmark its
    preset tolerance (:data:`~repro.pta.adaptive.BENCHMARK_RTOL`) via
    :meth:`~repro.pta.adaptive.ConvergencePolicy.for_benchmark`, with
    every other knob at the scale's defaults.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scale: Optional[ExperimentScale] = None,
        seed: int = 0,
        exceedance_prob: float = 1e-15,
        backend: Optional[ExecutionBackend] = None,
        observer: Optional[RunObserver] = None,
        profile: bool = False,
        checkpoint_dir: Optional[Path] = None,
        resume: bool = True,
        cycle_budget: Optional[int] = None,
        engine: str = "auto",
        workers: Optional[int] = None,
        adaptive: Union[ConvergencePolicy, str, None] = None,
    ) -> None:
        self.scale = scale if scale is not None else ExperimentScale.default()
        # Default to the scale's proportionally shrunk platform; an
        # explicit config overrides (e.g. for ablations).
        self.config = config if config is not None else self.scale.system_config()
        self.seed = seed
        # Reject a bad cutoff here, at construction, rather than deep
        # in the first campaign's Gumbel fit.
        self.exceedance_prob = validate_exceedance(
            exceedance_prob, label="PWCETTable exceedance_prob"
        )
        #: Streaming-convergence policy for analysis campaigns (None =
        #: fixed-R at the scale's ``analysis_runs``;
        #: ``"per-benchmark"`` = each benchmark's preset tolerance).
        if not (adaptive is None or adaptive == "per-benchmark"
                or isinstance(adaptive, ConvergencePolicy)):
            raise ConfigurationError(
                f"PWCETTable adaptive must be a ConvergencePolicy, the "
                f"string 'per-benchmark', or None; got {adaptive!r}"
            )
        self.adaptive = adaptive
        self.backend = backend if backend is not None else SerialBackend()
        # Without one, Figure 4's co-run batch picks its own backend.
        self._backend_given = backend is not None
        self.observer = observer if observer is not None else RunObserver()
        #: When set, every run is profiled and its attribution snapshot
        #: travels on the run's record (see ProfilingObserver).
        self.profile = profile
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = resume
        #: Per-run simulated-cycle budget (livelock guard); ``None``
        #: disables the guard entirely (no hot-path cost).
        self.cycle_budget = cycle_budget
        #: Run interpreter for analysis campaigns: ``"auto"`` (kernel /
        #: sharded kernel where eligible), ``"scalar"`` or ``"kernel"``
        #: (strict: it raises rather than falls back).
        self.engine = engine
        #: Shard workers for the kernel engine (None = policy
        #: default); mutually exclusive with a process backend.
        self.workers = workers
        #: One compiled trace program per (trace, geometry) across the
        #: whole sweep: every MID / way-count campaign over the same
        #: benchmark reuses the first campaign's compile.
        self.plan_cache = PlanCache()
        self.traces = build_all_benchmarks(self.scale.trace_scale)
        self._campaigns: Dict[Tuple[str, str], CampaignResult] = {}
        self._estimates: Dict[Tuple[str, str], MBPTAResult] = {}

    # ------------------------------------------------------------------
    def instructions(self, bench_id: str) -> int:
        """Dynamic instruction count of a benchmark at this scale."""
        return self.traces[bench_id].instruction_count

    def _scenario(self, label_kind: str, value: int) -> Scenario:
        if label_kind == "efl":
            return Scenario.efl(value, mode=OperationMode.ANALYSIS)
        if label_kind == "cp":
            return Scenario.cache_partitioning(
                value, num_cores=self.config.num_cores, mode=OperationMode.ANALYSIS
            )
        raise AnalysisError(f"unknown setup kind {label_kind!r}")

    def _checkpoint_for(self, bench_id: str, scenario_label: str):
        """The campaign's journal, or ``None`` without a checkpoint dir."""
        if self.checkpoint_dir is None:
            return None
        safe = re.sub(r"[^A-Za-z0-9._-]", "-", f"{bench_id}__{scenario_label}")
        return CampaignCheckpoint(
            self.checkpoint_dir / f"{safe}.jsonl", resume=self.resume
        )

    @contextmanager
    def bench_row(self, bench_id: str) -> Iterator[None]:
        """Pin ``bench_id``'s compiled plans for the scope of one row.

        A Figure-3/4 row scans one benchmark across every MID and
        way-count setup; all those campaigns share one compiled
        :class:`~repro.sim.plancache.TraceProgram`.  Pinning the
        ``(trace, config)`` entry for the row's duration guarantees the
        plan cache's LRU eviction cannot drop the program between two
        setups of the *same* benchmark (which would silently recompile
        it); the pin is always released when the row finishes — also on
        error — so a long sweep never accumulates stale pins.
        """
        trace = self.traces[bench_id]
        self.plan_cache.pin(trace, self.config)
        try:
            yield
        finally:
            self.plan_cache.unpin(trace, self.config)

    def _policy_for(self, bench_id: str) -> Optional[ConvergencePolicy]:
        """This benchmark's convergence policy, or ``None`` (fixed-R)."""
        if self.adaptive == "per-benchmark":
            return ConvergencePolicy.for_benchmark(bench_id, self.scale)
        return self.adaptive

    def campaign(self, bench_id: str, kind: str, value: int) -> CampaignResult:
        """Execution-time sample of one (benchmark, setup) campaign."""
        scenario = self._scenario(kind, value)
        key = (bench_id, scenario.label())
        if key not in self._campaigns:
            # Deterministic per-key seed (zlib.crc32, NOT Python's
            # hash(): the latter is salted per process and would make
            # campaigns irreproducible across invocations).
            key_digest = zlib.crc32(f"{bench_id}/{scenario.label()}".encode())
            adaptive = self._policy_for(bench_id)
            # Adaptive campaigns request the policy's run ceiling (the
            # checkpoint fingerprint is taken on max_runs, so a fixed-R
            # journal at the same ceiling resumes interchangeably).
            runs = (
                adaptive.max_runs if adaptive is not None
                else self.scale.analysis_runs
            )
            self._campaigns[key] = collect_execution_times(
                self.traces[bench_id],
                self.config,
                scenario,
                runs=runs,
                master_seed=self.seed ^ key_digest,
                backend=self.backend,
                observer=self.observer,
                profile=self.profile,
                checkpoint=self._checkpoint_for(bench_id, scenario.label()),
                cycle_budget=self.cycle_budget,
                engine=self.engine,
                workers=self.workers,
                plan_cache=self.plan_cache,
                adaptive=adaptive,
            )
        return self._campaigns[key]

    def estimate(self, bench_id: str, kind: str, value: int) -> MBPTAResult:
        """MBPTA result (pWCET + i.i.d. verdicts) of one campaign."""
        scenario = self._scenario(kind, value)
        key = (bench_id, scenario.label())
        if key not in self._estimates:
            campaign = self.campaign(bench_id, kind, value)
            self._estimates[key] = estimate_pwcet(
                campaign.execution_times,
                task=bench_id,
                scenario_label=scenario.label(),
                exceedance_probs=(self.exceedance_prob,),
                block_size=self.scale.block_size,
                check_iid=len(campaign.execution_times) >= 20,
            )
        return self._estimates[key]

    def pwcet(self, bench_id: str, kind: str, value: int) -> float:
        """pWCET at the table's cutoff probability."""
        return self.estimate(bench_id, kind, value).pwcet_at(self.exceedance_prob)


# ----------------------------------------------------------------------
# E1: MBPTA compliance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IIDRow:
    """i.i.d. test outcome of one benchmark."""

    bench_id: str
    runs: int
    ww_statistic: float
    ks_p_value: float
    passed: bool


@dataclass(frozen=True)
class IIDComplianceResult:
    """E1: the paper's MBPTA-compliance table under EFL."""

    mid: int
    rows: List[IIDRow]

    @property
    def all_passed(self) -> bool:
        """Whether no benchmark rejected either i.i.d. hypothesis."""
        return all(row.passed for row in self.rows)


def run_iid_compliance(
    table: Optional[PWCETTable] = None,
    mid: Optional[int] = None,
    bench_ids: Sequence[str] = BENCHMARK_IDS,
    **table_kwargs,
) -> IIDComplianceResult:
    """E1: run the WW/KS i.i.d. tests on EFL execution times.

    The paper applies the tests to execution times of the EEMBC
    benchmarks on the EFL platform and reports that, at the 5%
    significance level, all WW statistics stay below 1.96 and all KS
    outcomes above 0.05.
    """
    if table is None:
        table = PWCETTable(**table_kwargs)
    if mid is None:
        # The middle MID option (the scale's equivalent of EFL500).
        mid = table.scale.mid_options[len(table.scale.mid_options) // 2]
    rows = []
    for bench_id in bench_ids:
        with table.bench_row(bench_id):
            campaign = table.campaign(bench_id, "efl", mid)
        verdict: IIDResult = iid_test(campaign.execution_times)
        rows.append(
            IIDRow(
                bench_id=bench_id,
                runs=campaign.runs,
                ww_statistic=verdict.ww.statistic,
                ks_p_value=verdict.ks.p_value,
                passed=verdict.passed,
            )
        )
    return IIDComplianceResult(mid=mid, rows=rows)


# ----------------------------------------------------------------------
# E2: Figure 3
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Result:
    """E2: pWCET per benchmark per setup, normalised to the baseline."""

    baseline_label: str
    setups: List[str]
    bench_ids: List[str]
    pwcet: Dict[str, Dict[str, float]]
    normalised: Dict[str, Dict[str, float]]

    def geometric_mean_normalised(self, setup: str) -> float:
        """Geomean of a setup's normalised pWCET across benchmarks."""
        values = [self.normalised[bench][setup] for bench in self.bench_ids]
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))


def run_fig3(
    table: Optional[PWCETTable] = None,
    mids: Optional[Sequence[int]] = None,
    ways: Sequence[int] = DEFAULT_WAY_OPTIONS,
    baseline_ways: int = 2,
    bench_ids: Sequence[str] = BENCHMARK_IDS,
    **table_kwargs,
) -> Fig3Result:
    """E2: regenerate Figure 3.

    Computes the pWCET (default cutoff 1e-15 per run) of every
    benchmark under EFL{mids} and CP{ways} and normalises to CP with
    ``baseline_ways`` per core — the paper's CP2 reference, where each
    of the 4 cores owns exactly 2 of the 8 LLC ways.  ``mids`` defaults
    to the table's scale-equivalents of the paper's 250/500/1000.
    """
    if table is None:
        table = PWCETTable(**table_kwargs)
    if mids is None:
        mids = table.scale.mid_options
    setups: List[Tuple[str, str, int]] = [
        (f"EFL{mid}", "efl", mid) for mid in mids
    ] + [(f"CP{w}", "cp", w) for w in ways]
    setup_labels = [label for label, _kind, _value in setups]
    baseline_label = f"CP{baseline_ways}"
    if baseline_label not in setup_labels:
        setups.append((baseline_label, "cp", baseline_ways))

    pwcet: Dict[str, Dict[str, float]] = {}
    normalised: Dict[str, Dict[str, float]] = {}
    for bench_id in bench_ids:
        with table.bench_row(bench_id):
            pwcet[bench_id] = {
                label: table.pwcet(bench_id, kind, value)
                for label, kind, value in setups
            }
        base = pwcet[bench_id][baseline_label]
        normalised[bench_id] = {
            label: value / base for label, value in pwcet[bench_id].items()
        }
    return Fig3Result(
        baseline_label=baseline_label,
        setups=setup_labels,
        bench_ids=list(bench_ids),
        pwcet=pwcet,
        normalised=normalised,
    )


# ----------------------------------------------------------------------
# E3 + E4: Figure 4
# ----------------------------------------------------------------------
class CoRun(NamedTuple):
    """One job of Figure 4's deployment batch: ``index`` is the rep
    number within its workload and setup.  It holds no trace; the
    process that runs it rebuilds them (:func:`_corun_request`)."""

    index: int
    seed: int
    workload: Tuple[str, ...]
    scenario: Scenario


def _corun_request(config, trace_scale, traces, profile, cycle_budget,
                   index, seed, workload, scenario) -> RunRequest:
    """A :class:`CoRun`'s request, built in whichever process runs it;
    ``traces`` is that process's cache of base traces."""
    return RunRequest.workload(
        build_workload_traces(workload, trace_scale, traces), config,
        scenario, seed, index=index, profile=profile, cycle_budget=cycle_budget,
    )


def _corun_backend(table: "PWCETTable", coruns: int) -> ExecutionBackend:
    """The table's own backend if one was given; else every usable CPU
    when there is more than one CPU and more than one co-run (the
    analysis ``auto`` policy's rule), else in-process."""
    if table._backend_given or coruns <= 1 or usable_cpus() <= 1:
        return table.backend
    return ProcessPoolBackend(workers=usable_cpus())


def _deployment_ipcs(
    table: "PWCETTable", coruns: Sequence[CoRun], reps: int
) -> List[float]:
    """Run every co-run as one batch; mean IPC per ``reps`` co-runs."""
    build = partial(_corun_request, table.config, table.scale.trace_scale,
                    dict(table.traces), table.profile, table.cycle_budget)
    backend = _corun_backend(table, len(coruns))
    table.observer.on_message(
        f"deployment batch: {len(coruns)} co-runs on {backend.name}"
    )
    outcomes = backend.execute_jobs(coruns, build, table.observer)
    means = []
    for start in range(0, len(outcomes), reps):
        group = outcomes[start:start + reps]
        failures = [
            (outcome.index, outcome.seed, outcome.error or "",
             outcome.error_kind)
            for outcome in group if outcome.failed
        ]
        if failures:
            job = coruns[start]
            raise CampaignRunError(
                "+".join(job.workload), job.scenario.label(), failures
            )
        samples = [outcome.result.total_ipc for outcome in group]
        means.append(sum(samples) / len(samples))
    return means


@dataclass(frozen=True)
class WorkloadComparison:
    """One workload's EFL-vs-CP comparison (a point on each S-curve)."""

    workload: Tuple[str, ...]
    cp_partition: Tuple[int, ...]
    cp_wgipc: float
    efl_mid: int
    efl_wgipc: float
    wgipc_improvement: float
    cp_waipc: Optional[float] = None
    efl_waipc: Optional[float] = None
    waipc_improvement: Optional[float] = None


@dataclass(frozen=True)
class Fig4Result:
    """E3/E4: the Figure 4 S-curves and their summary statistics."""

    comparisons: List[WorkloadComparison]
    wgipc_summary: dict
    waipc_summary: Optional[dict]

    def wgipc_curve(self) -> List[float]:
        """wgIPC improvements sorted descending (the plotted S-curve)."""
        return sorted(
            (c.wgipc_improvement for c in self.comparisons), reverse=True
        )

    def waipc_curve(self) -> List[float]:
        """waIPC improvements sorted descending (the lower S-curve)."""
        return sorted(
            (
                c.waipc_improvement
                for c in self.comparisons
                if c.waipc_improvement is not None
            ),
            reverse=True,
        )


def run_fig4(
    table: Optional[PWCETTable] = None,
    mids: Optional[Sequence[int]] = None,
    ways: Sequence[int] = DEFAULT_WAY_OPTIONS,
    measure_average: bool = True,
    workload_seed: int = 0x46494734,
    **table_kwargs,
) -> Fig4Result:
    """E3/E4: regenerate Figure 4.

    For each random 4-benchmark workload the best CP partition and the
    best EFL MID are chosen by wgIPC (at the table's cutoff
    probability), giving the guaranteed-performance S-curve (E3); with
    ``measure_average`` the chosen setups are then actually co-run in
    deployment mode to measure waIPC (E4).
    """
    if table is None:
        table = PWCETTable(**table_kwargs)
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

    if measure_average and table.engine == "kernel":
        raise ConfigurationError(
            "the kernel engine only vectorises analysis-mode "
            "isolation campaigns; deployment co-runs interleave cores "
            "dynamically and need the scalar interpreter (use "
            "engine='auto' or 'scalar' for deployment experiments)"
        )
    # Selection pass: the best CP partition and EFL MID per workload,
    # and, with measure_average, its co-runs queued in batch order
    # (workload by workload, CP then EFL, deployment_reps each).
    comparisons: List[WorkloadComparison] = []
    coruns: List[CoRun] = []
    deployment_seeds = derive_seeds(workload_seed ^ 0x5EED, len(workloads))
    for index, workload in enumerate(workloads):
        counts, cp_wgipc = best_partition(
            workload, instructions_of, pwcet_of_ways, config.llc_ways, ways
        )
        mid, efl_wgipc = best_mid(workload, instructions_of, pwcet_of_mid, mids)
        comparisons.append(
            WorkloadComparison(
                workload=workload,
                cp_partition=counts,
                cp_wgipc=cp_wgipc,
                efl_mid=mid,
                efl_wgipc=efl_wgipc,
                wgipc_improvement=improvement(efl_wgipc, cp_wgipc),
            )
        )
        if measure_average:
            table.observer.on_message(
                f"deployment workload {index + 1}/{len(workloads)}: "
                f"{'+'.join(workload)} (CP{counts} vs EFL{mid})"
            )
            rep_seeds = derive_seeds(deployment_seeds[index], scale.deployment_reps)
            for scenario in (
                Scenario.cache_partitioning(
                    counts, num_cores=config.num_cores,
                    mode=OperationMode.DEPLOYMENT,
                ),
                Scenario.efl(mid, mode=OperationMode.DEPLOYMENT),
            ):
                coruns.extend(
                    CoRun(rep, seed, workload, scenario)
                    for rep, seed in enumerate(rep_seeds)
                )

    if coruns:
        ipcs = _deployment_ipcs(table, coruns, scale.deployment_reps)
        comparisons = [
            replace(
                comparison,
                cp_waipc=cp_waipc,
                efl_waipc=efl_waipc,
                waipc_improvement=improvement(efl_waipc, cp_waipc),
            )
            for comparison, cp_waipc, efl_waipc in zip(
                comparisons, ipcs[0::2], ipcs[1::2]
            )
        ]

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
