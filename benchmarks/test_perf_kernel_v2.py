"""Kernel runtime v2: fused megakernel dispatch + speculative waves.

Measures the two throughput claims of the kernel runtime v2 PR
against the committed v1 baselines (``BENCH_kernel.json`` /
``BENCH_adaptive.json``):

* **Fixed-R dispatch.**  The fused megakernel plan (segment windows
  executed as one composed chain when every touched line is resident
  in every lane) must sustain at least 13.5x the scalar interpreter's
  runs/sec — the product of the floors it replaces (per-instruction
  lanes >= 5x scalar, v2 kernel >= 2.7x those lanes).  The kernel is
  timed as the best of several repeats, the scalar engine on a prefix
  of the same campaign in the same process, so host-speed drift
  between sessions cancels.

* **Adaptive-on-kernel.**  v1 recorded a regression it could not fix
  (``kernel_tradeoff``: adaptive 2.91s vs fixed 0.80s — wave-by-wave
  dispatch forfeits lane amortisation).  The speculative
  :class:`~repro.pta.adaptive.WaveScheduler` dispatches geometrically
  growing blocks, so v2's adaptive-kernel wall-clock must come back
  under 1.5x fixed-kernel, with the overshoot reconciled in the runs
  ledger as ``runs_speculated_waste``.

Bit-identity is asserted unconditionally at every step: the scalar
sample as the exact prefix of the kernel sample, and the adaptive
executed sample as the exact prefix of the fixed kernel sample.

Results land in ``BENCH_kernel_v2.json`` at the repository root.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

from repro.pta.adaptive import ConvergencePolicy
from repro.sim.config import Scenario
from repro.sim.kernels import numba_available
from repro.sim.plancache import PlanCache
from repro.workloads.suite import build_benchmark

from benchmarks.test_perf_kernel import (
    REPEATS,
    RUNS,
    SERIAL_RUNS,
    best_kernel_campaign,
    scalar_prefix,
)

#: Committed v1 figures this bench improves on (BENCH_kernel.json and
#: BENCH_adaptive.json at PR 7/9; raw runs/s are host-conditions bound).
V1_KERNEL_RUNS_PER_S = 1706.6
V1_ADAPTIVE_KERNEL_WALL_S = 2.9107

#: Floors.  The scalar-ratio floor guards absolute health; the
#: adaptive floors close the v1 ``kernel_tradeoff`` regression.
MIN_SPEEDUP_VS_SCALAR = 13.5
MAX_ADAPTIVE_OVER_FIXED = 1.5
MIN_ADAPTIVE_IMPROVEMENT_VS_V1 = 3.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel_v2.json"


def _policy() -> ConvergencePolicy:
    """The BENCH_adaptive policy, verbatim, for a like-for-like
    comparison with the committed ``kernel_tradeoff`` figures."""
    return ConvergencePolicy(
        min_runs=100, max_runs=RUNS, wave_size=25, rtol=0.01,
        stable_waves=2, block_size=10,
    )


def test_kernel_runtime_v2(scale):
    config = scale.system_config()
    trace = build_benchmark("ID", scale=scale.trace_scale)
    scenario = Scenario.efl(500)
    plan_cache = PlanCache()

    kernel = best_kernel_campaign(trace, config, scenario, plan_cache)
    adaptive = best_kernel_campaign(
        trace, config, scenario, plan_cache, adaptive=_policy()
    )

    # Bit-identity, asserted unconditionally: the scalar sample must be
    # the exact prefix of the kernel sample, and the adaptive executed
    # sample the exact prefix of the fixed kernel sample (speculation
    # may only change how runs are grouped, never what they compute).
    serial = scalar_prefix(trace, config, scenario, kernel)
    executed = adaptive.runs_executed
    # ``seeds`` is always the full derived schedule (counter-based, so
    # independent of how much of it the campaign consumed).
    prefix_identical = (
        adaptive.execution_times == kernel.execution_times[:executed]
        and adaptive.seeds == kernel.seeds
    )
    assert prefix_identical, "adaptive sample is not the fixed prefix"
    assert kernel.backend == "kernel"
    assert serial.backend == "serial"

    # Speculation reconciles in the runs ledger: every requested run
    # is executed, speculated-past-stop, or saved by convergence.
    waste = adaptive.runs_speculated_waste
    assert adaptive.converged
    assert executed + adaptive.runs_saved + waste == RUNS, (
        "speculative waste does not reconcile the runs ledger"
    )

    speedup = (
        kernel.runs_per_second / serial.runs_per_second
        if serial.runs_per_second > 0 else 0.0
    )
    improvement_raw = kernel.runs_per_second / V1_KERNEL_RUNS_PER_S
    adaptive_ratio = (
        adaptive.wall_time_s / kernel.wall_time_s
        if kernel.wall_time_s > 0 else float("inf")
    )
    adaptive_improvement = (
        V1_ADAPTIVE_KERNEL_WALL_S / adaptive.wall_time_s
        if adaptive.wall_time_s > 0 else 0.0
    )

    payload = {
        "bench": "kernel_runtime_v2",
        "scale": scale.name,
        "benchmark": "ID",
        "scenario": "EFL500",
        "instructions": kernel.instructions,
        "python": platform.python_version(),
        "numba": numba_available(),
        "repeats": REPEATS,
        "serial": {
            "runs": SERIAL_RUNS,
            "wall_s": round(serial.wall_time_s, 4),
            "runs_per_s": round(serial.runs_per_second, 2),
        },
        "kernel": {
            "runs": RUNS,
            "wall_s": round(kernel.wall_time_s, 4),
            "runs_per_s": round(kernel.runs_per_second, 2),
            "kernel_stats": kernel.kernel_stats,
        },
        "adaptive_kernel": {
            "wall_s": round(adaptive.wall_time_s, 4),
            "runs_executed": executed,
            "runs_saved": adaptive.runs_saved,
            "runs_speculated_waste": waste,
            "ledger_reconciled": True,
        },
        "v1_baseline": {
            "kernel_runs_per_s": V1_KERNEL_RUNS_PER_S,
            "adaptive_kernel_wall_s": V1_ADAPTIVE_KERNEL_WALL_S,
        },
        "speedup_vs_scalar": round(speedup, 2),
        "improvement_vs_v1_raw": round(improvement_raw, 2),
        "adaptive_over_fixed_ratio": round(adaptive_ratio, 2),
        "adaptive_improvement_vs_v1": round(adaptive_improvement, 2),
        "floors": {
            "min_speedup_vs_scalar": MIN_SPEEDUP_VS_SCALAR,
            "max_adaptive_over_fixed": MAX_ADAPTIVE_OVER_FIXED,
            "min_adaptive_improvement_vs_v1": MIN_ADAPTIVE_IMPROVEMENT_VS_V1,
        },
        "bit_identical": prefix_identical,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(f"kernel runtime v2 ({scale.name} scale, "
          f"{kernel.instructions} instructions/run):")
    print(f"  scalar         : {serial.runs_per_second:8.1f} runs/s "
          f"({SERIAL_RUNS} runs in {serial.wall_time_s:.2f}s)")
    print(f"  kernel         : {kernel.runs_per_second:8.1f} runs/s "
          f"({RUNS} runs in {kernel.wall_time_s:.2f}s)")
    print(f"  speedup vs scalar: {speedup:.2f}x "
          f"(floor {MIN_SPEEDUP_VS_SCALAR}x)")
    print(f"  adaptive kernel: {adaptive.wall_time_s:.2f}s for "
          f"{executed} executed + {waste} speculated "
          f"({adaptive_ratio:.2f}x fixed; v1 was "
          f"{V1_ADAPTIVE_KERNEL_WALL_S / 0.7972:.1f}x)")

    assert speedup >= MIN_SPEEDUP_VS_SCALAR, (
        f"kernel v2 delivered only {speedup:.2f}x over the scalar "
        f"interpreter at R={RUNS} (floor: {MIN_SPEEDUP_VS_SCALAR}x)"
    )
    assert adaptive_ratio <= MAX_ADAPTIVE_OVER_FIXED, (
        f"adaptive-on-kernel wall-clock is {adaptive_ratio:.2f}x "
        f"fixed-kernel (ceiling: {MAX_ADAPTIVE_OVER_FIXED}x) — the "
        f"kernel_tradeoff regression is back"
    )
    assert adaptive_improvement >= MIN_ADAPTIVE_IMPROVEMENT_VS_V1, (
        f"adaptive-on-kernel improved only "
        f"{adaptive_improvement:.2f}x over the v1 recorded wall "
        f"(floor: {MIN_ADAPTIVE_IMPROVEMENT_VS_V1}x)"
    )
