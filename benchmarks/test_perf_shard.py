"""Sharded-engine throughput: multi-core lane shards vs one kernel sweep.

Measures the claim of kernel sharding: a large analysis campaign
partitioned over worker-process shards sustains at least 2x the
single-process kernel engine's runs/sec on a host with four or more
usable CPUs.  Both engines are measured back-to-back in
this process (self-relative, immune to host drift between bench
invocations), and the sharded sample must equal the single-process
sample bit for bit — the speedup is only worth recording if the data
is provably the same.

On hosts with fewer than four usable CPUs the bit-identity half still
runs and is still asserted; only the speedup floor is waived (and
recorded as ungated in the JSON), because a shard per busy CPU cannot
scale.

Results land in ``BENCH_shard.json`` at the repository root.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

from repro.sim.backend import usable_cpus
from repro.sim.batch import ShardedBatchBackend
from repro.sim.campaign import collect_execution_times
from repro.sim.config import Scenario
from repro.workloads.suite import build_benchmark

from benchmarks.conftest import CAMPAIGN_SEED

#: Lane count of the measured campaign: big enough that shard sweeps
#: dominate pool spin-up.
SHARD_RUNS = 2048

#: Worker shards of the measured configuration.
WORKERS = 4

#: The PR's acceptance floor, gated on >= 4 usable CPUs.
MIN_SPEEDUP = 2.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def test_sharded_engine_throughput(scale):
    config = scale.system_config()
    trace = build_benchmark("ID", scale=scale.trace_scale)
    scenario = Scenario.efl(500)
    cpus = usable_cpus()
    gated = cpus >= WORKERS

    single = collect_execution_times(
        trace, config, scenario, runs=SHARD_RUNS, master_seed=CAMPAIGN_SEED,
        engine="kernel",
    )
    sharded = collect_execution_times(
        trace, config, scenario, runs=SHARD_RUNS, master_seed=CAMPAIGN_SEED,
        backend=ShardedBatchBackend(
            workers=WORKERS, force_pool=True, strict=True
        ),
    )

    # Bit-identity is non-negotiable regardless of host size.
    bit_identical = (
        sharded.seeds == single.seeds
        and sharded.execution_times == single.execution_times
    )
    assert bit_identical
    assert single.backend == "kernel"
    assert sharded.backend == f"sharded[{WORKERS}]"

    speedup = (
        sharded.runs_per_second / single.runs_per_second
        if single.runs_per_second > 0 else 0.0
    )
    payload = {
        "bench": "sharded_engine_throughput",
        "scale": scale.name,
        "benchmark": "ID",
        "scenario": "EFL500",
        "instructions": sharded.instructions,
        "python": platform.python_version(),
        "usable_cpus": cpus,
        "single": {
            "runs": SHARD_RUNS,
            "wall_s": round(single.wall_time_s, 4),
            "runs_per_s": round(single.runs_per_second, 2),
        },
        "sharded": {
            "runs": SHARD_RUNS,
            "workers": WORKERS,
            "wall_s": round(sharded.wall_time_s, 4),
            "runs_per_s": round(sharded.runs_per_second, 2),
        },
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
        "speedup_gated": gated,
        "bit_identical": bit_identical,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(f"sharded engine throughput ({scale.name} scale, {cpus} CPUs, "
          f"{sharded.instructions} instructions/run):")
    print(f"  kernel : {single.runs_per_second:8.1f} runs/s "
          f"({SHARD_RUNS} runs in {single.wall_time_s:.2f}s)")
    print(f"  sharded: {sharded.runs_per_second:8.1f} runs/s "
          f"({SHARD_RUNS} runs over {WORKERS} shards in "
          f"{sharded.wall_time_s:.2f}s)")
    print(f"  speedup: {speedup:.2f}x (floor {MIN_SPEEDUP:.0f}x, "
          f"{'gated' if gated else 'ungated: < 4 usable CPUs'})")

    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded engine delivered only {speedup:.2f}x over the "
            f"single-process kernel engine at R={SHARD_RUNS} with "
            f"{WORKERS} shards (floor: {MIN_SPEEDUP}x)"
        )
