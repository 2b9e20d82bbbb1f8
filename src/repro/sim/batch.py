"""Campaign backends for the kernel engine: in-process and sharded.

MBPTA's analysis stage re-executes one trace R times on a freshly
randomised platform (§3.3).  :class:`BatchBackend` runs such a
campaign as lock-step NumPy lanes through the compiled kernel plan of
:mod:`repro.sim.kernels`; :class:`ShardedBatchBackend` splits the
lanes into contiguous shards and runs each one in a worker of the
process pool's wave dispatch.  Both are bit-identical to
:class:`~repro.sim.backend.SerialBackend` — execution times, per-run
cache counters, checksums and seed provenance — and both declare
anything the kernel cannot reproduce exactly ineligible up front
(:func:`repro.sim.simulator.batch_ineligibility`).
"""

from __future__ import annotations

import contextlib
import traceback
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, classify_exception
from repro.observability import current_telemetry
from repro.sim import backend as _backend_mod
from repro.sim.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    RunObserver,
    RunOutcome,
    SerialBackend,
    _notify,
    usable_cpus,
)
from repro.sim.kernels import KernelTemplatePlan
from repro.sim.plancache import (
    GLOBAL_PLAN_CACHE,
    PlanCache,
    SharedProgram,
    SharedProgramHandle,
)
from repro.sim.simulator import RunRequest, batch_ineligibility

#: Engine names accepted by ``collect_execution_times(engine=...)`` and
#: the CLI's ``--engine`` flag: ``scalar`` is the per-run interpreter
#: (the oracle), ``kernel`` the vector engine (``workers=N`` shards it
#: N ways), ``auto`` the kernel wherever it applies.
ENGINE_NAMES = ("auto", "scalar", "kernel")

#: Campaign size below which the ``auto`` engine policy keeps the
#: single-process kernel engine even on a multi-core host: sharding a
#: small campaign spends more on pool spin-up than the parallel sweep
#: returns (the tiny/quick analysis scales run 40-80 lanes).
SHARDED_AUTO_MIN_RUNS = 512


def _batch_obstacle(requests: Sequence[RunRequest]) -> Optional[str]:
    """Why a request batch cannot run vectorised (None if it can).

    Shared by :class:`BatchBackend` and :class:`ShardedBatchBackend`:
    both need the campaign to be a homogeneous analysis-mode template
    with no in-process fault plan installed.
    """
    if _backend_mod._FAULT_PLAN is not None:
        return "a fault-injection plan is installed (chaos testing is per-run)"
    reason = batch_ineligibility(requests[0])
    if reason is not None:
        return reason
    template = requests[0].template_key()
    if any(request.template_key() != template for request in requests[1:]):
        return (
            "requests are heterogeneous (mixed traces, configs or "
            "scenarios); lanes must share one template"
        )
    return None


class BatchBackend(ExecutionBackend):
    """Lock-step kernel-engine execution of homogeneous analysis campaigns.

    Implements the :class:`~repro.sim.backend.ExecutionBackend`
    protocol, so campaigns, checkpointing, observers and
    :class:`~repro.analysis.experiments.PWCETTable` compose unchanged.
    Requests must share one template (trace, config, scenario) and be
    analysis-mode isolation runs; anything else is delegated to
    ``fallback`` (default: a fresh :class:`SerialBackend`), or — with
    ``strict=True``, the CLI's ``--engine kernel`` contract — rejected
    with a :class:`~repro.errors.ConfigurationError` naming the reason.

    ``max_lanes`` bounds the lane width of one sweep (memory: the LLC
    tag planes are ``lanes * sets * ways`` entries); larger campaigns
    run as consecutive chunks, which is still bit-identical because
    lanes never interact.
    """

    #: One sweep serves the whole request batch: adaptive campaigns
    #: may speculate with growing dispatch blocks on this backend.
    amortised_dispatch = True

    def __init__(
        self,
        fallback: Optional[ExecutionBackend] = None,
        strict: bool = False,
        max_lanes: int = 1024,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        if max_lanes < 1:
            raise ConfigurationError(
                f"kernel engine needs max_lanes >= 1, got {max_lanes}"
            )
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.strict = strict
        self.max_lanes = max_lanes
        self.plan_cache = (
            plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE
        )
        self.name = "kernel"

    def _delegate(
        self,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver],
        reason: str,
    ) -> List[RunOutcome]:
        self.name = self.fallback.name
        if observer is not None:
            observer.on_message(
                f"kernel engine unavailable ({reason}); "
                f"falling back to the {self.fallback.name} backend"
            )
        return self.fallback.execute(requests, observer=observer)

    def execute(
        self,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        requests = list(requests)
        if not requests:
            return []
        reason = _batch_obstacle(requests)
        if reason is not None:
            if self.strict:
                raise ConfigurationError(
                    f"kernel engine cannot run this campaign: {reason}"
                )
            return self._delegate(requests, observer, reason)
        try:
            plan = KernelTemplatePlan.for_request(requests[0], self.plan_cache)
        except Exception as exc:  # noqa: BLE001 — scalar engine decides
            if self.strict:
                raise
            return self._delegate(requests, observer, str(exc))
        return self._run_plan(plan, requests, observer)

    def _run_plan(
        self,
        plan: KernelTemplatePlan,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        """Sweep eligible ``requests`` through an already-resolved plan."""
        self.name = "kernel"
        telemetry = current_telemetry()
        outcomes: List[RunOutcome] = []
        for begin in range(0, len(requests), self.max_lanes):
            chunk = requests[begin:begin + self.max_lanes]
            sweep_span = (
                telemetry.tracer.span("batch_sweep", lanes=len(chunk),
                                      task=chunk[0].traces[0].name)
                if telemetry is not None else contextlib.nullcontext()
            )
            try:
                with sweep_span:
                    chunk_outcomes = plan.execute(chunk)
            except Exception as exc:  # noqa: BLE001 — scalar engine decides
                if self.strict:
                    raise
                outcomes.extend(self._delegate(chunk, observer, str(exc)))
                continue
            for outcome in chunk_outcomes:
                _notify(observer, outcome)
            outcomes.extend(chunk_outcomes)
        return outcomes


# ----------------------------------------------------------------------
# sharded kernel: lock-step lanes inside the process pool's wave dispatch
# ----------------------------------------------------------------------
def shard_lanes(
    jobs: Sequence[tuple],
    shards: int,
    max_size: Optional[int] = None,
) -> List[List[tuple]]:
    """Partition ``jobs`` into contiguous, balanced shards.

    Deterministic: the partition depends only on ``(len(jobs), shards,
    max_size)``, sizes differ by at most one, order is preserved and
    every job lands in exactly one shard (``tests/test_shard.py``
    proves this by hypothesis).  ``max_size`` (the engine's
    ``max_lanes``) raises the shard count so no single sweep exceeds
    the lane-width bound.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    if max_size is not None and max_size < 1:
        raise ConfigurationError(
            f"shard size bound must be positive, got {max_size}"
        )
    jobs = list(jobs)
    count = len(jobs)
    if count == 0:
        return []
    shards = min(shards, count)
    if max_size is not None:
        shards = max(shards, -(-count // max_size))
    base, extra = divmod(count, shards)
    out = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        out.append(jobs[start:start + size])
        start += size
    return out


@dataclass(frozen=True)
class _ShardHandle:
    """Everything a shard worker needs to rebuild its kernel plan.

    Pickled once per worker at pool bootstrap.  The heavy trace arrays
    travel as a :class:`~repro.sim.plancache.SharedProgramHandle`
    (name + layout of the parent's shared-memory block), so the pickle
    stays a few hundred bytes regardless of trace size.
    """

    config: object
    scenario: object
    core_id: int
    program: SharedProgramHandle

    def materialise(self) -> KernelTemplatePlan:
        # The kernel plan recompiles worker-side from the attached
        # program: the compile is a single cheap pass over the step
        # arrays, far below the cost of shipping the op list.
        return KernelTemplatePlan(self.config, self.scenario, self.core_id,
                                  self.program.attach())


# Worker-side state of ShardedBatchBackend: the materialised plan,
# built once per worker from the shared-memory handle at bootstrap.
_WORKER_PLAN: Optional[KernelTemplatePlan] = None


def _bootstrap_shard_worker(handle: _ShardHandle, fault_plan=None) -> None:
    global _WORKER_PLAN
    _WORKER_PLAN = handle.materialise()
    _backend_mod._FAULT_PLAN = fault_plan
    _backend_mod._IN_WORKER = True


def _run_shard(triples: Sequence[tuple]) -> List[RunOutcome]:
    """Execute one shard of ``(index, seed, attempt)`` triples lock-step.

    Fault injection (chaos tests) acts before the sweep: a lane whose
    plan says "crash"/"hang" takes the whole shard with it — that is
    the sharded blast radius, and the parent's wave machinery retries
    exactly those lanes.  "corrupt" mutates only its own lane's result
    after the checksum stamp, so the parent's integrity re-check
    retries that lane alone.
    """
    plan = _WORKER_PLAN
    if plan is None:  # pragma: no cover — would be a harness bug
        raise RuntimeError("shard worker used before bootstrap")
    fault_plan = _backend_mod._FAULT_PLAN
    corrupt = set()
    if fault_plan is not None:
        for index, _seed, attempt in triples:
            fault = fault_plan.fault_for(index, attempt)
            if fault == "corrupt":
                corrupt.add(index)
            elif fault is not None:
                _backend_mod._trigger_fault(fault, fault_plan)
    try:
        outcomes = plan.execute_lanes(triples)
    except Exception as exc:  # noqa: BLE001 — captured per lane
        error = traceback.format_exc()
        kind = classify_exception(exc)
        return [
            RunOutcome(
                index=index, seed=seed, result=None, error=error,
                wall_time_s=0.0, error_kind=kind, attempts=attempt,
            )
            for index, seed, attempt in triples
        ]
    for outcome in outcomes:
        if outcome.index in corrupt:
            # Simulate a bit-flip in IPC transit: mutate the payload
            # *after* its integrity stamp, as _run_one does.
            outcome.result.cores[0].cycles += 1
    return outcomes


class ShardedBatchBackend(ProcessPoolBackend):
    """Multi-core lane sharding: kernel sweeps inside the wave dispatch.

    Partitions a campaign's lanes into deterministic contiguous shards
    (:func:`shard_lanes`) and executes each shard with the lock-step
    kernel sweep inside :class:`ProcessPoolBackend`'s wave
    machinery — inheriting its retry policy, progress watchdog, hard
    worker-death detection and checksum re-verification.  The compiled
    plan's arrays travel to workers zero-copy through one
    ``multiprocessing.shared_memory`` block; the per-worker pickle is a
    fixed-size :class:`_ShardHandle`.

    Bit-identity holds by construction: lanes never interact, each
    lane's PRNG streams derive from its own run seed, and a retried
    shard re-executes the same pure ``(plan, index, seed)`` functions
    — so samples, records, checksums and seeds equal the
    single-process kernel engine, which equals scalar.

    Eligibility matches :class:`BatchBackend` (homogeneous
    analysis-mode campaigns); ``strict=True`` (the CLI's
    ``--engine kernel --workers N`` contract) rejects ineligible work
    with a :class:`~repro.errors.ConfigurationError`, otherwise it
    falls back to serial execution.  One worker, a one-run campaign or
    a single usable CPU (unless ``force_pool=True``) runs the plan
    in-process instead.
    """

    #: Shards amortise dispatch like the in-process kernel engine.
    amortised_dispatch = True

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        retry=None,
        run_timeout_s: Optional[float] = None,
        fault_plan=None,
        force_pool: bool = False,
        strict: bool = False,
        plan_cache: Optional[PlanCache] = None,
        max_lanes: int = 1024,
    ) -> None:
        if workers is None:
            workers = usable_cpus()
        super().__init__(
            workers=workers,
            mp_context=mp_context,
            retry=retry,
            run_timeout_s=run_timeout_s,
            fault_plan=fault_plan,
            force_pool=force_pool,
        )
        if max_lanes < 1:
            raise ConfigurationError(
                f"sharded kernel engine needs max_lanes >= 1, got {max_lanes}"
            )
        self.strict = strict
        self.plan_cache = (
            plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE
        )
        self.max_lanes = max_lanes
        self.name = f"sharded[{workers}]"

    def _chunks(self, jobs: List[tuple]) -> List[List[tuple]]:
        return shard_lanes(jobs, self.workers, self.max_lanes)

    def _delegate_scalar(
        self,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver],
        reason: str,
    ) -> List[RunOutcome]:
        if observer is not None:
            observer.on_message(
                f"sharded kernel engine unavailable ({reason}); "
                f"falling back to the serial backend"
            )
        return self._execute_serial(requests, observer)

    def execute(
        self,
        requests: Sequence[RunRequest],
        observer: Optional[RunObserver] = None,
    ) -> List[RunOutcome]:
        requests = list(requests)
        if not requests:
            return []
        self._degrade_warned = False  # new campaign: the advisory may fire once
        reason = _batch_obstacle(requests)
        if reason is not None:
            if self.strict:
                raise ConfigurationError(
                    f"sharded kernel engine cannot run this campaign: {reason}"
                )
            return self._delegate_scalar(requests, observer, reason)
        try:
            plan = KernelTemplatePlan.for_request(requests[0], self.plan_cache)
        except Exception as exc:  # noqa: BLE001 — scalar engine decides
            if self.strict:
                raise
            return self._delegate_scalar(requests, observer, str(exc))
        if (self.workers == 1 or len(requests) == 1
                or self._degrades(requests, observer)):
            # One shard is just the kernel engine: run the resolved
            # plan in-process (chaos plans stay per-run serial, as the
            # kernel engine requires).
            if self.fault_plan is not None:
                return self._execute_serial(requests, observer)
            inner = BatchBackend(
                fallback=SerialBackend(retry=self.retry),
                strict=self.strict,
                max_lanes=self.max_lanes,
                plan_cache=self.plan_cache,
            )
            return inner._run_plan(plan, requests, observer)
        shared = SharedProgram.create(plan.program)
        handle = _ShardHandle(
            config=requests[0].config,
            scenario=requests[0].scenario,
            core_id=requests[0].core_id,
            program=shared.handle,
        )
        try:
            return self._execute_waves(
                (_bootstrap_shard_worker, (handle, self.fault_plan)),
                _run_shard,
                [(request.index, request.seed) for request in requests],
                observer,
            )
        finally:
            shared.dispose()
