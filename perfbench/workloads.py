"""The three figure workloads and the outputs each one is checked on.

Every workload drives the public API the way ``benchmarks/conftest.py``
does: build a :class:`PWCETTable` on the scale's own platform
(``ExperimentScale.system_config()``, the table's default), then run
one experiment function on it, serially, with the default engine.

An *operation* is one analysis campaign or one deployment co-run.
Each gets a digest of its output: a campaign's execution-time sample
and its pWCET (or its i.i.d. verdict on E1), a co-run's simulated
counters and IPC.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.analysis.experiments import (
    PWCETTable,
    run_fig3,
    run_fig4,
    run_iid_compliance,
)
from repro.analysis.partitions import DEFAULT_WAY_OPTIONS
from repro.core.config import OperationMode
from repro.sim.backend import RunObserver, RunRecord
from repro.sim.campaign import collect_execution_times
from repro.sim.config import Scenario
from repro.workloads.scale import ExperimentScale
from repro.workloads.suite import BENCHMARK_IDS

#: Master seed of the recorded campaign (``benchmarks/conftest.py``).
CAMPAIGN_SEED = 20140601

#: RunRecord fields that are simulated semantics (not host time).
SIMULATED_FIELDS = tuple(
    name for name in RunRecord.PERSISTED_FIELDS if name != "wall_time_s"
)


def digest(payload) -> str:
    """Short stable digest of a JSON-able payload (floats via repr)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_fields(record: RunRecord) -> list:
    return [getattr(record, name) for name in SIMULATED_FIELDS]


class Recorder(RunObserver):
    """Collects every campaign result and every co-run record.

    Runs notified outside a campaign are the deployment co-runs.
    Journal-resumed runs are not notified, so ``simulated`` counts
    only runs the engine actually simulated.
    """

    def __init__(self) -> None:
        self.campaigns: list = []
        self.coruns: List[RunRecord] = []
        self._in_campaign = False
        self.simulated = {
            "runs": 0, "instructions": 0, "llc_misses": 0,
            "forced_evictions": 0, "efl_stall_cycles": 0,
        }

    def on_campaign_start(self, task, scenario_label, runs) -> None:
        self._in_campaign = True

    def on_campaign_end(self, result) -> None:
        self._in_campaign = False
        self.campaigns.append(result)

    def on_run(self, record: RunRecord) -> None:
        if not self._in_campaign:
            self.coruns.append(record)
        sim = self.simulated
        sim["runs"] += 1
        sim["instructions"] += record.instructions
        sim["llc_misses"] += record.llc_misses
        sim["forced_evictions"] += record.llc_forced_evictions
        sim["efl_stall_cycles"] += record.efl_stall_cycles


def setup_of(label: str) -> tuple:
    """``(kind, value)`` of a setup label: EFL500 -> ("efl", 500)."""
    match = re.fullmatch(r"(EFL|CP)(\d+)", label)
    if match is None:
        raise ValueError(f"unexpected setup label {label!r}")
    return match.group(1).lower(), int(match.group(2))


def scenario_of(label: str, num_cores: int) -> Scenario:
    """The analysis-mode scenario behind a setup label (EFL500, CP2)."""
    kind, value = setup_of(label)
    if kind == "efl":
        return Scenario.efl(value, mode=OperationMode.ANALYSIS)
    return Scenario.cache_partitioning(
        value, num_cores=num_cores, mode=OperationMode.ANALYSIS
    )


@dataclass(frozen=True)
class Workload:
    """One figure workload: its scale, experiment and output extraction."""

    name: str
    scale: Callable[[], ExperimentScale]
    #: Runs the figure on a table; returns the experiment's result.
    figure: Callable[[PWCETTable, int], object]
    #: ``(table, result, recorder) -> {operation: payload}``.
    outputs: Callable[[PWCETTable, object, Recorder], Dict[str, object]]
    #: ``(scale, result or None) -> operations`` a complete figure
    #: performs (``None``: the figure raised).
    expected_ops: Callable[[ExperimentScale, object], int]
    #: Whether the analysis campaigns resume from checkpoint journals
    #: filled before timing.  The journalled campaigns are the recorded
    #: campaign's (seed :data:`CAMPAIGN_SEED`); the workload seed then
    #: draws only the figure's own inputs.  Otherwise the workload seed
    #: is the table's seed.
    journals: bool = False


def campaign_key(result) -> str:
    return f"campaign/{result.task}/{result.scenario_label}"


def _campaign_payloads(recorder, pwcet_of) -> Dict[str, object]:
    out = {}
    for result in recorder.campaigns:
        out[campaign_key(result)] = {
            "times": result.execution_times,
            "pwcet": pwcet_of(result.task, result.scenario_label),
        }
    return out


def _fig3_outputs(table, result, recorder):
    return _campaign_payloads(
        recorder, lambda bench, label: result.pwcet[bench][label]
    )


def _iid_outputs(table, result, recorder):
    rows = {row.bench_id: row for row in result.rows}
    out = {}
    for campaign in recorder.campaigns:
        row = rows[campaign.task]
        out[campaign_key(campaign)] = {
            "times": campaign.execution_times,
            "iid": [row.ww_statistic, row.ks_p_value, row.passed],
        }
    return out


def _fig4_outputs(table, result, recorder):
    out = _campaign_payloads(
        recorder, lambda bench, label: table.pwcet(bench, *setup_of(label))
    )
    # Per workload run_fig4 co-runs CP then EFL, deployment_reps each.
    reps = table.scale.deployment_reps
    coruns = iter(recorder.coruns)
    for index, comparison in enumerate(result.comparisons):
        for setup, ipc in (("cp", comparison.cp_waipc),
                           ("efl", comparison.efl_waipc)):
            for rep in range(reps):
                record = next(coruns, None)
                out[f"corun/{index:03d}/{setup}/{rep}"] = {
                    "workload": list(comparison.workload),
                    "partition": list(comparison.cp_partition),
                    "mid": comparison.efl_mid,
                    "record": record_fields(record) if record else None,
                    "ipc": ipc,
                }
    return out


def _setups_per_bench(scale: ExperimentScale) -> int:
    return len(scale.mid_options) + len(DEFAULT_WAY_OPTIONS)


def _fig4_ops(scale: ExperimentScale, result) -> int:
    """Campaigns of every benchmark drawn, plus two setups' co-runs."""
    benches = (
        {bench for c in result.comparisons for bench in c.workload}
        if result is not None else BENCHMARK_IDS
    )
    return (len(benches) * _setups_per_bench(scale)
            + 2 * scale.workload_count * scale.deployment_reps)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig4-deploy-default",
            scale=ExperimentScale.default,
            figure=lambda table, seed: run_fig4(table, workload_seed=seed),
            outputs=_fig4_outputs,
            expected_ops=_fig4_ops,
            journals=True,
        ),
        Workload(
            name="fig3-quick",
            scale=ExperimentScale.quick,
            figure=lambda table, seed: run_fig3(table),
            outputs=_fig3_outputs,
            expected_ops=lambda scale, result: (
                len(BENCHMARK_IDS) * _setups_per_bench(scale)
            ),
        ),
        Workload(
            name="iid-default",
            scale=ExperimentScale.default,
            figure=lambda table, seed: run_iid_compliance(table),
            outputs=_iid_outputs,
            expected_ops=lambda scale, result: len(BENCHMARK_IDS),
        ),
    )
}


def build_table(workload: Workload, seed: int, journal_dir: Optional[Path],
                observer: RunObserver) -> PWCETTable:
    return PWCETTable(
        scale=workload.scale(),
        seed=CAMPAIGN_SEED if workload.journals else seed,
        checkpoint_dir=journal_dir, observer=observer,
    )


def check_output(key: str, payload, scale: ExperimentScale) -> Optional[str]:
    """Why one operation's output is malformed, or ``None``."""
    if key.startswith("campaign/"):
        times = payload["times"]
        if len(times) != scale.analysis_runs or min(times) <= 0:
            return f"{key}: sample of {len(times)} runs, not all positive"
        pwcet = payload.get("pwcet")
        if pwcet is not None and not (math.isfinite(pwcet)
                                      and pwcet >= max(times)):
            return f"{key}: pWCET {pwcet} below the sample maximum"
        return None
    if payload["record"] is None:
        return f"{key}: co-run was never simulated"
    ipc = payload["ipc"]
    if not (math.isfinite(ipc) and ipc > 0):
        return f"{key}: IPC {ipc}"
    return None


def digest_mismatches(reference: Dict[str, str],
                      digests: Dict[str, str]) -> set:
    """Operations whose digest is missing from, or differs from, the other."""
    return {
        key for key in set(reference) | set(digests)
        if reference.get(key) != digests.get(key)
    }


def oracle_campaign(campaigns: list, seed: int):
    """The campaign the scalar oracle re-runs: picked by the seed."""
    ordered = sorted(campaigns, key=campaign_key)
    return ordered[seed % len(ordered)]


def scalar_oracle(table: PWCETTable, result) -> Optional[str]:
    """Re-run one campaign on the scalar interpreter; ``None`` if equal."""
    oracle = collect_execution_times(
        table.traces[result.task], table.config,
        scenario_of(result.scenario_label, table.config.num_cores),
        runs=result.runs, master_seed=result.master_seed, engine="scalar",
    )
    if oracle.execution_times != result.execution_times:
        return "execution times differ"
    for fast, slow in zip(result.records, oracle.records):
        if record_fields(fast) != record_fields(slow):
            return f"run {fast.index} counters differ"
    return None


def source_digest(root: Path) -> str:
    """Digest of every ``src/`` Python file (the program under test)."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def fill_journals(target: str) -> None:
    """Journal every analysis campaign ``run_fig4`` reads, into ``target``.

    ``run_fig3`` touches exactly the (benchmark, setup) pairs Figure 4
    selects from.  Runs in its own process so the measured process
    never holds the fill's memory.
    """
    workload = WORKLOADS["fig4-deploy-default"]
    table = build_table(workload, CAMPAIGN_SEED, Path(target), RunObserver())
    run_fig3(table)


def journals_for(workload: Workload, cache_dir: Path, src: str,
                 scratch: Path) -> Path:
    """A private copy, under ``scratch``, of the workload's journals.

    The filled set depends only on the program and the recorded
    campaign seed, so it is kept in ``cache_dir`` keyed by the source
    digest and filled once per checkout, before any timing.
    """
    cache = cache_dir / f"{workload.name}-{src}"
    if not cache.is_dir():
        staging = cache.with_name(f"{cache.name}.{os.getpid()}.partial")
        shutil.rmtree(staging, ignore_errors=True)
        here = str(Path(__file__).resolve().parent)
        root = Path(here).parent
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
             "workloads.fill_journals(sys.argv[3])",
             str(root / "src"), here, str(staging)],
            check=True, timeout=600,
        )
        staging.rename(cache)
    private = scratch / "journals"
    shutil.copytree(cache, private)
    return private


def timed(fn, *args):
    started = perf_counter()
    value = fn(*args)
    return value, perf_counter() - started
