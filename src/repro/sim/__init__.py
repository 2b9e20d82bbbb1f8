"""System-level simulation: configuration, wiring and engines.

* :mod:`repro.sim.config` — :class:`SystemConfig` (the paper's §4.1
  platform parameters) and :class:`Scenario` (which mechanism — EFL,
  CP or a plain shared LLC — and which operation mode to simulate);
* :mod:`repro.sim.platform` — builds the hardware instances for one
  run from a config, a scenario and a run seed;
* :mod:`repro.sim.memorypath` — the shared bus→LLC→memory transaction
  engine, including EFL gating and analysis-mode upper-bounding;
* :mod:`repro.sim.simulator` — isolation (analysis) and multicore
  (deployment) execution engines, plus the picklable
  :class:`RunRequest` construction/execution split;
* :mod:`repro.sim.backend` — pluggable execution backends (serial /
  process-pool fan-out) and the :class:`RunObserver` observability
  seam;
* :mod:`repro.sim.kernels` — the kernel engine: an entire
  analysis-mode campaign as one struct-of-arrays sweep over the
  trace's compiled op schedule, bit-identical to the scalar
  interpreter;
* :mod:`repro.sim.batch` — its campaign backends, in-process
  (:class:`BatchBackend`) and sharded over worker processes
  (:class:`ShardedBatchBackend`);
* :mod:`repro.sim.campaign` — multi-run measurement campaigns with
  per-run RII/seed refresh and full seed provenance, feeding the
  MBPTA layer;
* :mod:`repro.sim.checkpoint` — per-campaign JSONL run journals so
  interrupted campaigns resume bit-identically;
* :mod:`repro.sim.telemetry` — the :class:`TelemetryObserver` bridge
  from the :class:`RunObserver` seam into the
  :mod:`repro.observability` metrics/logs/spans (bit-neutral: the
  sample is identical with and without it);
* :mod:`repro.sim.faults` — deterministic fault injection for
  exercising the retry/crash-recovery/watchdog machinery.
"""

from repro.sim.config import Scenario, SystemConfig
from repro.sim.platform import Platform, build_platform
from repro.sim.simulator import (
    CoreResult,
    RunRequest,
    RunResult,
    execute_request,
    run_isolation,
    run_workload,
)
from repro.sim.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    RetryPolicy,
    RunObserver,
    RunOutcome,
    RunRecord,
    SerialBackend,
    StreamObserver,
    make_backend,
)
from repro.sim.batch import (
    ENGINE_NAMES,
    SHARDED_AUTO_MIN_RUNS,
    BatchBackend,
    ShardedBatchBackend,
    shard_lanes,
)
from repro.sim.campaign import collect_execution_times, CampaignResult
from repro.sim.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.sim.faults import FaultInjectingBackend, FaultPlan
from repro.sim.plancache import PlanCache
from repro.sim.telemetry import TelemetryObserver

__all__ = [
    "SystemConfig",
    "Scenario",
    "Platform",
    "build_platform",
    "CoreResult",
    "RunResult",
    "RunRequest",
    "execute_request",
    "run_isolation",
    "run_workload",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "RunObserver",
    "StreamObserver",
    "RunOutcome",
    "RunRecord",
    "RetryPolicy",
    "make_backend",
    "ENGINE_NAMES",
    "SHARDED_AUTO_MIN_RUNS",
    "BatchBackend",
    "ShardedBatchBackend",
    "shard_lanes",
    "PlanCache",
    "collect_execution_times",
    "CampaignResult",
    "CampaignCheckpoint",
    "campaign_fingerprint",
    "TelemetryObserver",
    "FaultPlan",
    "FaultInjectingBackend",
]
