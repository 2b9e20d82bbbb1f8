"""Kernel-engine throughput: compiled NumPy lanes vs the scalar engine.

One analysis-mode campaign of R=1000 runs executed on the kernel
engine must sustain at least 10x the scalar interpreter's runs/sec on
a single core.  Both engines are measured back-to-back in this process
(self-relative, immune to host drift between bench invocations): the
kernel as the best of several repeats through one shared plan cache,
so the figure is about execution rather than compilation, and the
scalar engine on a 150-run prefix, so the baseline does not dominate
the bench's wall time.  Seeds derive per run from the master seed, so
the scalar sample must be a bit-identical prefix of the kernel sample
— the speedup is only worth recording if the data is provably the
same.

Results land in ``BENCH_kernel.json`` at the repository root.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

from repro.sim.campaign import collect_execution_times
from repro.sim.config import Scenario
from repro.sim.kernels import numba_available
from repro.sim.plancache import PlanCache
from repro.workloads.suite import build_benchmark

from benchmarks.conftest import CAMPAIGN_SEED

#: Lane width of the measured campaign (the paper's analysis-run count).
RUNS = 1000

#: Scalar-baseline run count: enough for a stable runs/sec estimate
#: without the baseline dominating the bench's wall time.
SERIAL_RUNS = 150

#: Timed kernel repeats; the recorded figure is the best.
REPEATS = 3

#: Acceptance floor for kernel-over-scalar throughput: the product of
#: the floors it replaces (vector lanes >= 5x scalar, compiled kernel
#: >= 2x the per-instruction lane sweep).
MIN_SPEEDUP = 10.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def best_kernel_campaign(trace, config, scenario, plan_cache, runs=RUNS,
                         adaptive=None):
    """Best (fastest) kernel campaign of ``REPEATS`` repeats.

    Sharing one plan cache across repeats keeps the measurement about
    execution, not compilation: after the first repeat every campaign
    is a pure plan-cache hit, exactly the regime a Figure-3/4 sweep
    runs in.
    """
    best = None
    for _ in range(REPEATS):
        result = collect_execution_times(
            trace, config, scenario, runs=runs, master_seed=CAMPAIGN_SEED,
            engine="kernel", plan_cache=plan_cache, adaptive=adaptive,
        )
        if best is None or result.wall_time_s < best.wall_time_s:
            best = result
    return best


def scalar_prefix(trace, config, scenario, kernel):
    """The scalar baseline, asserted to be the kernel sample's prefix."""
    serial = collect_execution_times(
        trace, config, scenario, runs=SERIAL_RUNS, master_seed=CAMPAIGN_SEED,
        engine="scalar",
    )
    assert kernel.seeds[:SERIAL_RUNS] == serial.seeds
    assert kernel.execution_times[:SERIAL_RUNS] == serial.execution_times, (
        "kernel sample diverged from the scalar oracle"
    )
    return serial


def test_kernel_engine_throughput(scale):
    config = scale.system_config()
    trace = build_benchmark("ID", scale=scale.trace_scale)
    scenario = Scenario.efl(500)

    kernel = best_kernel_campaign(trace, config, scenario, PlanCache())
    serial = scalar_prefix(trace, config, scenario, kernel)
    assert kernel.backend == "kernel"
    assert serial.backend == "serial"

    speedup = (
        kernel.runs_per_second / serial.runs_per_second
        if serial.runs_per_second > 0 else 0.0
    )
    payload = {
        "bench": "kernel_engine_throughput",
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
        },
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "bit_identical_prefix": True,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(f"kernel engine throughput ({scale.name} scale, "
          f"{kernel.instructions} instructions/run):")
    print(f"  scalar: {serial.runs_per_second:8.1f} runs/s "
          f"({SERIAL_RUNS} runs in {serial.wall_time_s:.2f}s)")
    print(f"  kernel: {kernel.runs_per_second:8.1f} runs/s "
          f"({RUNS} runs in {kernel.wall_time_s:.2f}s)")
    print(f"  speedup: {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)")

    assert speedup >= MIN_SPEEDUP, (
        f"kernel engine delivered only {speedup:.2f}x over the scalar "
        f"interpreter at R={RUNS} (floor: {MIN_SPEEDUP}x)"
    )
