"""Measurement campaigns: many runs, fresh randomisation each.

MBPTA collects end-to-end execution times over repeated runs of the
program on the time-randomised platform, regenerating the RII (and all
PRNG streams) between runs (§3.3: "In each run, a new RII is
generated").  :func:`collect_execution_times` implements that protocol:
it derives one seed per run from a master seed, dispatches the runs
through an :class:`~repro.sim.backend.ExecutionBackend` (serial or
process-pool — the sample is bit-identical either way, because seeds
are per run), and returns the execution-time sample the PTA layer
consumes together with full provenance: the master seed, every derived
per-run seed and one observability record per run.

Long campaigns can journal completed runs to a
:class:`~repro.sim.checkpoint.CampaignCheckpoint` and resume after a
crash: journalled ``(index, seed)`` runs are loaded instead of
re-executed, and because every run is a pure function of its request,
the resumed sample is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.cpu.trace import Trace
from repro.errors import (
    CampaignRunError,
    CheckpointError,
    ConfigurationError,
    SimulationError,
)
from repro.observability import Telemetry, attached_telemetry
from repro.pta.adaptive import (
    ConvergencePolicy,
    DEFAULT_WAVE_GROWTH,
    StreamingGumbelEstimator,
    WaveScheduler,
)
from repro.sim.backend import (
    ExecutionBackend,
    RunObserver,
    RunRecord,
    SerialBackend,
    usable_cpus,
)
from repro.sim.batch import (
    ENGINE_NAMES,
    SHARDED_AUTO_MIN_RUNS,
    BatchBackend,
    ShardedBatchBackend,
)
from repro.sim.plancache import PlanCache
from repro.sim.checkpoint import CampaignCheckpoint, CheckpointWriter
from repro.sim.config import Scenario, SystemConfig
from repro.sim.simulator import RunRequest
from repro.sim.telemetry import TelemetryObserver
from repro.utils.rng import derive_seeds


@dataclass
class CampaignResult:
    """Execution-time sample of one (task, scenario) campaign.

    Beyond the raw sample, the result carries everything needed to
    reproduce or audit the campaign without rerunning it: the master
    seed, the derived per-run seeds (``seeds[i]`` reruns run ``i`` in
    isolation), one :class:`~repro.sim.backend.RunRecord` per run with
    the shared-cache interference counters, and the wall-clock
    throughput of the backend that produced it.  ``resumed_runs`` and
    ``retried_runs`` record how much resilience machinery fired:
    neither affects the sample, only how it was obtained.

    Adaptive campaigns (``adaptive=True``) additionally record the
    convergence outcome: whether the policy ``converged``, how many
    runs were ``runs_executed`` versus ``runs_saved`` against the
    requested ``max_runs``, and the requested-vs-achieved relative
    pWCET precision.  Their sample is always a bit-identical prefix of
    the fixed-R campaign's sample for the same master seed.
    """

    task: str
    scenario_label: str
    execution_times: List[int]
    instructions: int
    runs: int
    master_seed: int = 0
    seeds: List[int] = field(default_factory=list)
    records: List[RunRecord] = field(default_factory=list)
    backend: str = "serial"
    wall_time_s: float = 0.0
    #: Runs loaded from a checkpoint journal instead of executed.
    resumed_runs: int = 0
    #: Extra attempts spent recovering transient failures (sum of
    #: ``attempts - 1`` over the executed runs).
    retried_runs: int = 0
    #: Plan-cache lookups this campaign answered from / added to the
    #: cache (kernel engine only; 0/0 for scalar campaigns).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Whether this campaign ran under a streaming-convergence policy.
    adaptive: bool = False
    #: Whether the convergence policy declared the pWCET stable before
    #: ``max_runs`` (always False for fixed-R campaigns).
    converged: bool = False
    #: Observations actually collected (executed + resumed).  Equals
    #: ``runs``; kept explicit because for adaptive campaigns it is the
    #: quantity of interest against the requested ``max_runs``.
    runs_executed: int = 0
    #: Runs the convergence policy avoided:
    #: ``max_runs - runs_executed - runs_speculated_waste`` (0 for
    #: fixed-R campaigns).  The service ledger reconciles this on its
    #: ``runs_saved_converged`` counter.
    runs_saved: int = 0
    #: Runs the speculative wave scheduler executed past the stopping
    #: boundary (discarded from the sample, but simulated — they count
    #: on ``runs_simulated``, not on ``runs_saved``).  0 for fixed-R
    #: campaigns and for wave-by-wave dispatch.
    runs_speculated_waste: int = 0
    #: Relative pWCET-quantile tolerance the policy asked for, and the
    #: largest movement actually observed over the deciding window
    #: (None for fixed-R campaigns / before any fit was possible).
    pwcet_rtol_requested: Optional[float] = None
    pwcet_rtol_achieved: Optional[float] = None
    #: Compile stats of the kernel plan this campaign executed
    #: (``KernelPlan.stats``: chains, fused segments, fusion ratio...),
    #: ``None`` for non-kernel engines.
    kernel_stats: Optional[dict] = None

    def _require_sample(self, statistic: str) -> None:
        """Refuse sample statistics on an empty sample, with provenance.

        A bare ``min() arg is an empty sequence`` names neither the
        campaign nor the cause; this names both.
        """
        if not self.execution_times:
            raise SimulationError(
                f"campaign {self.task!r} under {self.scenario_label} has an "
                f"empty execution-time sample; {statistic} is undefined "
                f"(0 completed runs)"
            )

    @property
    def min_time(self) -> int:
        """Fastest observed run."""
        self._require_sample("min_time")
        return min(self.execution_times)

    @property
    def max_time(self) -> int:
        """High-water mark of the observations (HWM)."""
        self._require_sample("max_time")
        return max(self.execution_times)

    @property
    def mean_time(self) -> float:
        """Mean observed execution time."""
        self._require_sample("mean_time")
        return sum(self.execution_times) / len(self.execution_times)

    @property
    def hwm_index(self) -> int:
        """Index of the (first) high-water-mark run."""
        return self.execution_times.index(self.max_time)

    @property
    def hwm_seed(self) -> Optional[int]:
        """Seed of the HWM run — rerun it alone to study the worst case."""
        if not self.seeds:
            return None
        return self.seeds[self.hwm_index]

    @property
    def runs_per_second(self) -> float:
        """Campaign throughput (0.0 when wall time was not recorded)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.runs / self.wall_time_s

    # ------------------------------------------------------------------
    # machine-readable form (the service's wire format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """This result as a JSON-ready dict (full provenance).

        Per-run records keep their persisted fields only (profiles are
        measurements, not semantics — same rule as the checkpoint
        journal), so :meth:`from_dict` round-trips everything the
        result store and the service API serve.
        """
        return {
            "task": self.task,
            "scenario_label": self.scenario_label,
            "execution_times": list(self.execution_times),
            "instructions": self.instructions,
            "runs": self.runs,
            "master_seed": self.master_seed,
            "seeds": list(self.seeds),
            "records": [record.to_dict() for record in self.records],
            "backend": self.backend,
            "wall_time_s": self.wall_time_s,
            "resumed_runs": self.resumed_runs,
            "retried_runs": self.retried_runs,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "adaptive": self.adaptive,
            "converged": self.converged,
            "runs_executed": self.runs_executed,
            "runs_saved": self.runs_saved,
            "runs_speculated_waste": self.runs_speculated_waste,
            "pwcet_rtol_requested": self.pwcet_rtol_requested,
            "pwcet_rtol_achieved": self.pwcet_rtol_achieved,
            "kernel_stats": self.kernel_stats,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` payload serialised as JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises ``KeyError``/``TypeError`` on malformed payloads; the
        result store wraps these into
        :class:`~repro.errors.ResultIntegrityError`.
        """
        return cls(
            task=payload["task"],
            scenario_label=payload["scenario_label"],
            execution_times=list(payload["execution_times"]),
            instructions=payload["instructions"],
            runs=payload["runs"],
            master_seed=payload["master_seed"],
            seeds=list(payload["seeds"]),
            records=[RunRecord.from_dict(entry)
                     for entry in payload["records"]],
            backend=payload["backend"],
            wall_time_s=payload["wall_time_s"],
            resumed_runs=payload["resumed_runs"],
            retried_runs=payload["retried_runs"],
            plan_cache_hits=payload["plan_cache_hits"],
            plan_cache_misses=payload["plan_cache_misses"],
            # Convergence fields postdate the wire format; stored
            # results from before the adaptive layer default to the
            # fixed-R reading.
            adaptive=payload.get("adaptive", False),
            converged=payload.get("converged", False),
            runs_executed=payload.get("runs_executed", payload["runs"]),
            runs_saved=payload.get("runs_saved", 0),
            runs_speculated_waste=payload.get("runs_speculated_waste", 0),
            pwcet_rtol_requested=payload.get("pwcet_rtol_requested"),
            pwcet_rtol_achieved=payload.get("pwcet_rtol_achieved"),
            kernel_stats=payload.get("kernel_stats"),
        )


def _select_backend(
    engine: str,
    backend: Optional[ExecutionBackend],
    workers: Optional[int] = None,
    runs: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
) -> ExecutionBackend:
    """Resolve the (engine, backend, workers) triple to one backend.

    ``auto`` upgrades to the kernel engine only when the caller kept
    the default execution semantics: no backend, or a plain retry-free
    :class:`SerialBackend` (exact type — subclasses carry their own
    per-run behaviour and stay scalar).  Within that, it shards the
    kernel over worker processes when there is real parallelism to
    win — an explicit multi-worker request, or more than one usable
    CPU and a campaign of at least
    :data:`~repro.sim.batch.SHARDED_AUTO_MIN_RUNS` runs — and runs it
    in-process otherwise.  The upgrade is safe because the kernel
    backends re-check eligibility per request batch and fall back to
    scalar execution.

    ``workers`` means *shards* and only composes with the kernel
    engine (``--engine kernel --workers N`` is N kernel shards); any
    other combination is a labelled :class:`ConfigurationError` rather
    than a silently ignored flag.
    """
    if engine not in ENGINE_NAMES:
        names = ", ".join(ENGINE_NAMES)
        raise ConfigurationError(f"unknown engine {engine!r}; expected one of {names}")
    if engine == "kernel":
        if workers is not None and workers != 1:
            return ShardedBatchBackend(
                workers=workers, strict=True, plan_cache=plan_cache
            )
        return BatchBackend(fallback=backend, strict=True,
                            plan_cache=plan_cache)
    default_semantics = backend is None or (
        type(backend) is SerialBackend and backend.retry is None
    )
    if engine == "auto" and default_semantics:
        # workers > 1 on one CPU still shards: the backend degrades
        # (with its observer warning) rather than refuse.
        if (workers is not None and workers > 1) or (
                workers is None and runs is not None
                and runs >= SHARDED_AUTO_MIN_RUNS and usable_cpus() > 1):
            return ShardedBatchBackend(workers=workers, plan_cache=plan_cache)
        return BatchBackend(fallback=backend, plan_cache=plan_cache)
    if workers is not None:
        raise ConfigurationError(
            f"workers={workers} means shard workers and requires the "
            f"kernel engine; engine {engine!r} with this backend "
            f"executes per-run and takes no shards"
        )
    return backend if backend is not None else SerialBackend()


def _run_adaptive(
    adaptive: ConvergencePolicy,
    trace: Trace,
    scenario: Scenario,
    runs: int,
    seeds: List[int],
    resumed: Dict[int, RunRecord],
    template: RunRequest,
    backend: ExecutionBackend,
    effective_observer: Optional[RunObserver],
    telemetry: Optional[Telemetry],
    scheduler: Optional[WaveScheduler] = None,
) -> tuple:
    """Speculative block dispatch with a streaming convergence check.

    Dispatch follows the :class:`~repro.pta.adaptive.WaveScheduler`'s
    blocks — geometrically growing on backends that amortise dispatch
    over the request batch, one policy wave at a time otherwise — and
    each completed block streams into the
    :class:`StreamingGumbelEstimator` at every *policy* wave boundary
    it covers (resumed runs replay through the same path, which is
    what makes resume reproduce the original stopping decision).
    Issuing stops at the first converged boundary or at ``max_runs``;
    runs already executed past a converged boundary are *waste* —
    discarded from the sample, returned for the
    ``runs_speculated_waste`` ledger term.

    Returns ``(outcomes, estimator, sample_size, waste)`` where
    ``sample_size`` is the number of leading observations consumed and
    ``waste`` counts the freshly-executed runs past that point.
    Per-block failures raise :class:`CampaignRunError` immediately —
    later blocks were never issued, so no completed work is discarded.
    """
    if scheduler is None:
        # Per-run backends pay full price for overshoot; speculation
        # is only free where one sweep serves the whole block.
        speculative = bool(getattr(backend, "amortised_dispatch", False))
        scheduler = WaveScheduler(
            adaptive,
            growth=DEFAULT_WAVE_GROWTH if speculative else 1.0,
        )
    estimator = StreamingGumbelEstimator(adaptive)
    outcomes: List = []
    by_index: Dict[int, RunRecord] = {}
    fed = 0
    stop: Optional[int] = None
    for start, end in scheduler.blocks(runs):
        pending = [index for index in range(start, end)
                   if index not in resumed]
        requests = [template.with_run(index, seeds[index])
                    for index in pending]
        if not requests:
            wave_outcomes = []
        elif telemetry is not None:
            with telemetry.tracer.span(
                "adaptive_wave", wave=estimator.waves, runs=len(requests)
            ):
                wave_outcomes = backend.execute(
                    requests, observer=effective_observer
                )
        else:
            wave_outcomes = backend.execute(
                requests, observer=effective_observer
            )
        failures = [
            (outcome.index, outcome.seed, outcome.error or "",
             outcome.error_kind)
            for outcome in wave_outcomes
            if outcome.failed
        ]
        if failures:
            raise CampaignRunError(trace.name, scenario.label(), failures)
        for outcome in wave_outcomes:
            by_index[outcome.index] = outcome.record()
        outcomes.extend(wave_outcomes)
        # Evaluate every policy wave boundary the dispatched prefix
        # now covers, in order — the estimator sees exactly the waves
        # wave-by-wave dispatch would have fed it, so the stopping
        # decision is dispatch-invariant.
        while fed < end:
            wave_end = min(fed + adaptive.wave_size, runs)
            if wave_end > end:
                break
            wave_times = [
                (resumed[index] if index in resumed
                 else by_index[index]).cycles
                for index in range(fed, wave_end)
            ]
            fed = wave_end
            if estimator.observe_wave(wave_times):
                stop = fed
                break
        if stop is not None:
            break
    sample_size = stop if stop is not None else fed
    waste = sum(1 for outcome in outcomes if outcome.index >= sample_size)
    return outcomes, estimator, sample_size, waste


def collect_execution_times(
    trace: Trace,
    config: SystemConfig,
    scenario: Scenario,
    runs: int,
    master_seed: int = 0,
    backend: Optional[ExecutionBackend] = None,
    observer: Optional[RunObserver] = None,
    profile: bool = False,
    checkpoint: Optional[CampaignCheckpoint] = None,
    cycle_budget: Optional[int] = None,
    engine: str = "auto",
    workers: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
    telemetry: Optional[Telemetry] = None,
    job_id: Optional[str] = None,
    adaptive: Optional[ConvergencePolicy] = None,
    scheduler: Optional[WaveScheduler] = None,
) -> CampaignResult:
    """Collect ``runs`` end-to-end execution times of ``trace``.

    Each run uses a platform freshly randomised from its own derived
    seed.  ``backend`` chooses the execution engine (default: serial,
    in-process); ``observer`` receives one structured record per
    completed run; ``profile`` attaches a per-component attribution
    snapshot to every run's record (timing is unaffected);
    ``cycle_budget`` bounds each run's simulated cycles (a livelock
    guard — exceeding it is a deterministic failure, never retried).

    ``engine`` picks the run interpreter. ``"auto"`` (default) runs the
    campaign on the kernel engine — the
    :class:`~repro.sim.batch.BatchBackend` executing the compiled
    :class:`~repro.sim.kernels.KernelPlan` form of the trace —
    whenever it applies (the campaign is analysis-mode and the caller
    did not hand over a backend with its own per-run semantics:
    process pool, retry policy, fault injection) and falls back to the
    scalar interpreter otherwise; the sample is bit-identical either
    way.  ``"scalar"`` forces the per-run interpreter; ``"kernel"``
    demands the kernel engine and raises
    :class:`~repro.errors.ConfigurationError` naming the obstacle when
    the campaign is ineligible, instead of silently falling back.

    ``workers`` sets the kernel engine's shard count
    (``engine="kernel", workers=N`` runs N shards); combining it with a
    configuration that cannot shard raises a labelled
    :class:`~repro.errors.ConfigurationError`.  ``plan_cache`` lets
    sweeps reuse compiled trace programs across campaigns; the
    result's ``plan_cache_hits``/``plan_cache_misses`` record this
    campaign's share of the cache traffic.
    Per-run failures are captured by the backend and re-raised here as
    :class:`~repro.errors.CampaignRunError` naming every failing
    ``(index, seed, message, kind)`` — the surviving runs' work is not
    lost to one bad seed, and the failures are reproducible alone.

    ``checkpoint`` journals every completed run and, when resuming,
    loads already-journalled runs instead of re-executing them.
    Journalled seeds are validated against the campaign's derived
    seeds (:class:`~repro.errors.CheckpointError` on mismatch).

    ``telemetry`` attaches a :class:`~repro.observability.Telemetry`
    bundle for the duration of the campaign: a
    :class:`~repro.sim.telemetry.TelemetryObserver` is spliced in front
    of the observer chain (metrics + structured logs), a ``campaign``
    span wraps execution (with ``wave`` / ``batch_sweep`` children from
    the backends), and the plan cache mirrors its traffic.  Telemetry
    observes, never decides: the sample is bit-identical with and
    without it.  ``job_id`` stamps the service's job id on every log
    record and the campaign span.

    ``adaptive`` turns the fixed-R campaign into a bounded-error one: a
    :class:`~repro.pta.adaptive.ConvergencePolicy` whose ``max_runs``
    must equal ``runs``.  Execution then proceeds wave by wave on the
    same backend, a streaming Gumbel fit re-estimates the pWCET at each
    wave boundary, and issuing stops at the first boundary the policy
    declares stable.  Seeds are derived per run independently of wave
    grouping, so the adaptive sample is the bit-identical prefix of the
    fixed-R sample, on every engine; the stopping decision is a pure
    function of that prefix, so checkpoint resume continues converging
    from the journal and lands on the same ``runs_executed``.

    ``scheduler`` overrides the dispatch grouping of an adaptive
    campaign (a :class:`~repro.pta.adaptive.WaveScheduler` built over
    the same policy).  By default backends that amortise dispatch over
    the batch speculate with geometrically growing blocks; runs issued
    past the stopping point surface as ``runs_speculated_waste``.  The
    grouping never changes the sample or the stopping decision — only
    how much overshoot the campaign risks per dispatch.

    Returns a :class:`CampaignResult` whose ``execution_times`` are the
    MBPTA input sample.
    """
    if runs <= 0:
        raise ConfigurationError(f"a campaign needs at least one run, got {runs}")
    if adaptive is not None and runs != adaptive.max_runs:
        raise ConfigurationError(
            f"adaptive campaign requested runs={runs} but its "
            f"ConvergencePolicy caps max_runs={adaptive.max_runs}; pass "
            f"runs=policy.max_runs so checkpoints and fingerprints agree"
        )
    if scheduler is not None:
        if adaptive is None:
            raise ConfigurationError(
                "a WaveScheduler only applies to adaptive campaigns; pass "
                "adaptive=scheduler.policy alongside it"
            )
        if scheduler.policy != adaptive:
            raise ConfigurationError(
                "the WaveScheduler was built over a different "
                "ConvergencePolicy than this campaign's; build it with "
                "WaveScheduler(policy=adaptive, ...)"
            )
    backend = _select_backend(
        engine, backend, workers=workers, runs=runs, plan_cache=plan_cache
    )
    cache = getattr(backend, "plan_cache", None)
    cache_before = cache.snapshot() if cache is not None else (0, 0)
    seeds = derive_seeds(master_seed, runs)
    resumed: Dict[int, RunRecord] = {}
    effective_observer = observer
    if checkpoint is not None:
        resumed = checkpoint.open(
            trace, config, scenario, master_seed, runs, backend=backend.name
        )
        for index, record in resumed.items():
            if index < 0 or index >= runs:
                raise CheckpointError(
                    f"checkpoint journal {checkpoint.path} holds run "
                    f"{index}, outside this campaign's 0..{runs - 1}"
                )
            if record.seed != seeds[index]:
                raise CheckpointError(
                    f"checkpoint journal {checkpoint.path} holds run "
                    f"{index} with seed {record.seed:#x}, but this "
                    f"campaign derives seed {seeds[index]:#x} for it"
                )
        effective_observer = CheckpointWriter(checkpoint, observer, total=runs)
    # Campaign-level events fire on the telemetry observer when one is
    # attached (it forwards down the chain to the user observer), on the
    # user observer otherwise — exactly one notification either way.
    head: Optional[RunObserver] = observer
    if telemetry is not None:
        effective_observer = TelemetryObserver(
            telemetry, inner=effective_observer, job_id=job_id
        )
        head = effective_observer
    try:
        if head is not None:
            head.on_campaign_start(trace.name, scenario.label(), runs)
        template = RunRequest.isolation(
            trace, config, scenario, seeds[0], index=0, profile=profile,
            cycle_budget=cycle_budget,
        )
        started = perf_counter()
        estimator: Optional[StreamingGumbelEstimator] = None
        span_attrs = {
            "task": trace.name, "scenario": scenario.label(),
            "runs": runs, "backend": backend.name,
        }
        if job_id is not None:
            span_attrs["job"] = job_id
        waste = 0
        if adaptive is not None:
            span_attrs["adaptive"] = True
            if telemetry is not None:
                with attached_telemetry(telemetry), \
                        telemetry.tracer.span("campaign", **span_attrs):
                    outcomes, estimator, sample_size, waste = _run_adaptive(
                        adaptive, trace, scenario, runs, seeds, resumed,
                        template, backend, effective_observer, telemetry,
                        scheduler=scheduler,
                    )
            else:
                outcomes, estimator, sample_size, waste = _run_adaptive(
                    adaptive, trace, scenario, runs, seeds, resumed,
                    template, backend, effective_observer, telemetry,
                    scheduler=scheduler,
                )
        else:
            sample_size = runs
            requests = [
                template.with_run(index, seed)
                for index, seed in enumerate(seeds)
                if index not in resumed
            ]
            if not requests:
                outcomes = []
            elif telemetry is not None:
                with attached_telemetry(telemetry), \
                        telemetry.tracer.span("campaign", **span_attrs):
                    outcomes = backend.execute(requests,
                                               observer=effective_observer)
            else:
                outcomes = backend.execute(requests,
                                           observer=effective_observer)
        wall_time_s = perf_counter() - started
    finally:
        if checkpoint is not None:
            checkpoint.close()
    failures = [
        (outcome.index, outcome.seed, outcome.error or "", outcome.error_kind)
        for outcome in outcomes
        if outcome.failed
    ]
    if failures:
        raise CampaignRunError(trace.name, scenario.label(), failures)

    by_index: Dict[int, RunRecord] = dict(resumed)
    for outcome in outcomes:
        by_index[outcome.index] = outcome.record()
    # An adaptive campaign that converged consumed only the leading
    # ``sample_size`` observations; journalled runs beyond the stopping
    # point (e.g. a fixed-R journal resumed adaptively) stay unused.
    records = [by_index[index] for index in range(sample_size)]
    times = [record.cycles for record in records]
    instructions = records[0].instructions
    for record in records:
        # The trace is deterministic, so every run must retire exactly
        # the same instruction stream; divergence means the simulator
        # mutated shared state between runs (a harness bug) or a stale
        # journal slipped past the fingerprint.
        if record.instructions != instructions:
            raise SimulationError(
                f"campaign {trace.name!r} under {scenario.label()}: run "
                f"{record.index} (seed {record.seed:#x}) retired "
                f"{record.instructions} instructions where run 0 retired "
                f"{instructions}; runs of one trace must be identical"
            )
    result = CampaignResult(
        task=trace.name,
        scenario_label=scenario.label(),
        execution_times=times,
        instructions=instructions,
        runs=sample_size,
        master_seed=master_seed,
        seeds=seeds,
        records=records,
        backend=backend.name,
        wall_time_s=wall_time_s,
        resumed_runs=sum(1 for index in resumed if index < sample_size),
        retried_runs=sum(max(0, outcome.attempts - 1) for outcome in outcomes),
        plan_cache_hits=(
            cache.hits - cache_before[0] if cache is not None else 0
        ),
        plan_cache_misses=(
            cache.misses - cache_before[1] if cache is not None else 0
        ),
        adaptive=adaptive is not None,
        converged=estimator.converged if estimator is not None else False,
        runs_executed=sample_size,
        runs_saved=runs - sample_size - waste,
        runs_speculated_waste=waste,
        pwcet_rtol_requested=(
            adaptive.rtol if adaptive is not None else None
        ),
        pwcet_rtol_achieved=(
            estimator.achieved_rtol if estimator is not None else None
        ),
        # Compile stats travel only when the in-process kernel engine
        # actually ran (a campaign that fell back to scalar must not
        # report the cached plan's fusion as its own); the peek bumps
        # no counters.
        kernel_stats=(
            cache.peek_kernel_stats(trace, config)
            if cache is not None and backend.name == "kernel" else None
        ),
    )
    if adaptive is not None:
        if head is not None:
            if result.converged:
                waste_note = (
                    f", {result.runs_speculated_waste} speculated past it"
                    if result.runs_speculated_waste else ""
                )
                head.on_message(
                    f"pWCET converged after {result.runs_executed} of "
                    f"{adaptive.max_runs} runs ({result.runs_saved} saved"
                    f"{waste_note}; "
                    f"quantile moved {result.pwcet_rtol_achieved:.2e} < "
                    f"rtol {adaptive.rtol:g} for "
                    f"{adaptive.stable_waves} waves)"
                )
            else:
                head.on_message(
                    f"pWCET did not converge within max_runs="
                    f"{adaptive.max_runs} (rtol {adaptive.rtol:g}); "
                    f"sample used in full"
                )
        if telemetry is not None:
            telemetry.metrics.counter("adaptive_campaigns").inc()
            if result.converged:
                telemetry.metrics.counter("campaigns_converged").inc()
            if result.runs_saved:
                telemetry.metrics.counter("runs_saved_converged").inc(
                    result.runs_saved
                )
            if result.runs_speculated_waste:
                telemetry.metrics.counter("runs_speculated_waste").inc(
                    result.runs_speculated_waste
                )
    if head is not None:
        head.on_campaign_end(result)
    return result
