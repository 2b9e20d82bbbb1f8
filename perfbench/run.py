"""Time-to-figure benchmark of the EFL reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3-quick --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
runs the figure untraced and then traced and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: What a run leaves behind (results, spans, the journal cache).
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE = HERE / "reference.json"
#: Table constructions timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fresh interpreters timed importing the package; median taken.
IMPORT_SAMPLES = 3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro.analysis.experiments; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "figure_s": "s", "setup_s": "s", "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run every workload in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record this run's output digests and work counters as the "
             "reference (campaign seed only)",
    )
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_context(wl, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = probe.stdout.strip() or None
    import numpy

    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "commit": commit,
        "src_digest": wl.source_digest(ROOT),
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


class Rep:
    """One set-up plus figure: times, output digests and work counters.

    The table and the figure's result are dropped once digested, so a
    run's peak memory does not grow with its number of reps.  With
    ``oracle`` set, one campaign is then re-run on the scalar
    interpreter, outside timing (workloads that simulate their analysis
    campaigns only).
    """

    def __init__(self, wl, workload, seed, journal_dir, recorder=None,
                 oracle=False):
        from layers import traced

        self.spans = recorder
        self.error: Optional[str] = None
        self.oracle: Optional[tuple] = None
        observer = wl.Recorder()
        result = None
        with (traced(recorder) if recorder else nullcontext()):
            with (recorder.span("setup") if recorder else nullcontext()):
                table, self.setup_s = wl.timed(
                    wl.build_table, workload, seed, journal_dir, observer
                )
            try:
                with (recorder.span("figure") if recorder else nullcontext()):
                    result, self.figure_s = wl.timed(
                        workload.figure, table, seed
                    )
            except Exception:  # noqa: BLE001 — a raise is a counted failure
                self.error = traceback.format_exc()
                self.figure_s = float("nan")
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        scale = workload.scale()
        self.attempted = workload.expected_ops(scale, result)
        outputs = (
            workload.outputs(table, result, observer)
            if self.error is None else {}
        )
        self.digests = {key: wl.digest(value) for key, value in outputs.items()}
        self.problems = {
            key: problem for key, payload in outputs.items()
            if (problem := wl.check_output(key, payload, scale))
        }
        self.counters = self._counters(table, observer)
        if oracle and self.error is None and not workload.journals:
            chosen = wl.oracle_campaign(observer.campaigns, seed)
            self.oracle = (wl.campaign_key(chosen),
                           wl.scalar_oracle(table, chosen))

    @staticmethod
    def _counters(table, observer) -> Dict[str, int]:
        sim = observer.simulated
        plans = [
            table.plan_cache.peek_kernel_stats(trace, table.config)
            for trace in table.traces.values()
        ]
        plans = [stats for stats in plans if stats is not None]
        return {
            "runs_simulated": sim["runs"],
            "sim_instructions": sim["instructions"],
            "llc_misses": sim["llc_misses"],
            "forced_evictions": sim["forced_evictions"],
            "efl_stall_cycles": sim["efl_stall_cycles"],
            "plancache_hits": table.plan_cache.hits,
            "plancache_misses": table.plan_cache.misses,
            "kernel_plan_chains": sum(stats["chains"] for stats in plans),
            "kernel_plan_segments": sum(stats["segments"] for stats in plans),
            "campaigns": len(observer.campaigns),
            "coruns": len(observer.coruns),
        }


def check_reps(wl, workload, seed: int, reps: List[Rep], notes: List[str]):
    """``(attempted, failed operations, counters ok)`` over the run's reps.

    An operation fails when the figure raised, when its output is
    malformed, missing, differs between reps or (at the campaign seed)
    from the reference digest, or when the scalar oracle disagrees.
    """
    first = reps[0]
    attempted = first.attempted
    errors = [rep.error for rep in reps if rep.error]
    if errors:
        notes.extend(error.strip().splitlines()[-1] for error in errors)
        return attempted, {f"op/{i}" for i in range(attempted)}, False
    failed = set(first.problems)
    notes.extend(first.problems.values())
    counters_ok = True
    digests = first.digests
    if len(digests) != attempted:
        notes.append(f"{len(digests)} operations, expected {attempted}")
        failed.update(f"missing/{i}" for i in range(attempted - len(digests)))
    for rep in reps[1:]:
        differing = wl.digest_mismatches(digests, rep.digests)
        notes.extend(f"{key}: output differs between reps"
                     for key in sorted(differing))
        failed.update(differing)
        if rep.counters != first.counters:
            notes.append("work counters differ between reps")
            counters_ok = False
    reference = None
    if seed == wl.CAMPAIGN_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(workload.name)
    if reference is not None:
        mismatched = wl.digest_mismatches(reference["ops"], digests)
        notes.extend(f"{key}: digest differs from the reference"
                     for key in sorted(mismatched))
        failed.update(mismatched)
        if reference["counters"] != first.counters:
            notes.append("work counters differ from the reference")
            counters_ok = False
    if first.oracle is not None:
        key, problem = first.oracle
        notes.append(f"scalar oracle re-ran {key}: {problem or 'identical'}")
        if problem:
            failed.add(key)
    return attempted, failed, counters_ok


def check_counters_repeat(workload, seed: int, src: str,
                          counters: dict, notes: List[str]) -> bool:
    """Work counters must repeat exactly across runs of one program."""
    path = RUN_DIR / "counters" / f"{workload.name}-{seed}-{src}.json"
    if path.exists():
        if json.loads(path.read_text()) != counters:
            notes.append(f"work counters differ from the earlier run in {path}")
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_suffix(f".{os.getpid()}.tmp")
    staging.write_text(json.dumps(counters, sort_keys=True))
    staging.replace(path)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads as wl

    if args.workload == "all":
        return run_all(args, wl.WORKLOADS)
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    context = run_context(wl, args.seed)
    RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_DIR))
    try:
        journal_dir = None
        if workload.journals:
            journal_dir = wl.journals_for(
                workload, RUN_DIR / "cache", context["src_digest"], scratch
            )
        return measure(args, wl, layers, workload, context, journal_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(args, names) -> int:
    """Every workload in its own process; their summaries side by side.

    Exits non-zero unless every workload's output check passed.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if out.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def measure(args, wl, layers, workload, context, journal_dir) -> int:
    seed = args.seed
    notes: List[str] = []
    import_s = import_seconds() if not args.trace else 0.0
    setup_samples = [
        wl.timed(wl.build_table, workload, seed, journal_dir, wl.Recorder())[1]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    reps = [Rep(wl, workload, seed, journal_dir, oracle=True)]
    if args.trace:
        recorder = layers.SpanRecorder()
        reps.append(Rep(wl, workload, seed, journal_dir, recorder))
    else:
        while sum(rep.figure_s for rep in reps) < args.seconds \
                and reps[-1].error is None:
            reps.append(Rep(wl, workload, seed, journal_dir))
    setup_samples.extend(rep.setup_s for rep in reps)
    untraced = [rep for rep in reps if rep.spans is None]
    figure_s = statistics.median(rep.figure_s for rep in untraced)
    counters = reps[0].counters

    if args.write_reference:
        write_reference(wl, workload, seed, reps[0], notes)
    attempted, failed, counters_ok = check_reps(wl, workload, seed, reps, notes)
    counters_ok &= check_counters_repeat(
        workload, seed, context["src_digest"], counters, notes
    )
    correct = not failed and counters_ok

    if args.trace:
        traced = reps[-1]
        metrics = layers.layer_metrics(traced.spans, traced.counters)
        metrics["figure_s_untraced"] = figure_s
        metrics["tracing_overhead_s"] = metrics["figure_s_traced"] - figure_s
        metrics["model.llc_misses"] = counters["llc_misses"]
        metrics["model.forced_evictions"] = counters["forced_evictions"]
        metrics["model.efl_stall_cycles"] = counters["efl_stall_cycles"]
        metrics["work.runs_simulated"] = counters["runs_simulated"]
        metrics["work.sim_instructions"] = counters["sim_instructions"]
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "figure_s": figure_s,
            "setup_s": import_s + statistics.median(setup_samples),
            "sim_minstr_per_s": counters["sim_instructions"] / 1e6 / figure_s,
            # Freed tables are not all handed back to the OS, so a later
            # rep's peak would carry the earlier reps' leftovers.
            "peak_rss_mb": reps[0].peak_rss_mb,
        }
        units = END_TO_END_UNITS

    failed_share = len(failed) / attempted
    print(f"workload {workload.name} seed {seed} trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    print("work counters " + json.dumps(counters, sort_keys=True))
    print("figure_s samples " + json.dumps([rep.figure_s for rep in reps]))
    for note in notes:
        print("note: " + note)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {units[name]}")
    print(f"failed_share {failed_share:.6g} ({len(failed)}/{attempted})")

    record = {
        "workload": workload.name, "trace": args.trace, "context": context,
        "counters": counters, "metrics": metrics,
        "figure_samples": [rep.figure_s for rep in reps],
        "import_s": import_s, "setup_samples": setup_samples,
        "attempted": attempted,
        "failed": len(failed), "notes": notes,
        "spans": reps[-1].spans.to_json() if args.trace else None,
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{args.trace}"
               f"-{os.getpid()}.json").write_text(json.dumps(record))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def write_reference(wl, workload, seed: int, rep: Rep, notes: List[str]):
    if seed != wl.CAMPAIGN_SEED or rep.error:
        raise SystemExit("a reference is recorded from a clean run at the "
                         f"campaign seed {wl.CAMPAIGN_SEED}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[workload.name] = {
        "seed": seed,
        "counters": rep.counters,
        "ops": rep.digests,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    notes.append(f"reference for {workload.name} written to "
                 f"{REFERENCE.relative_to(ROOT)}")


PER_LAYER_UNITS = {
    "figure_s_traced": "s",
    "layer_self_share": "share",
    "workloads.trace_build_s": "s",
    "workloads.traces": "count",
    "plancache.compile_s": "s",
    "plancache.hits": "count",
    "plancache.misses": "count",
    "kernels.plan_compile_s": "s",
    "kernels.plans": "count",
    "kernels.plan_chains": "count",
    "kernels.plan_segments": "count",
    "kernels.execute_s": "s",
    "kernels.lanes": "count",
    "kernels.us_per_lane_instr": "us",
    "campaign.s": "s",
    "campaign.self_s": "s",
    "campaign.count": "count",
    "campaign.runs_executed": "count",
    "campaign.runs_resumed": "count",
    "checkpoint.open_s": "s",
    "checkpoint.runs_loaded": "count",
    "simulator.corun_s": "s",
    "simulator.coruns": "count",
    "simulator.instructions": "count",
    "simulator.kinstr_per_s": "kinstr/s",
    "pta.estimate_s": "s",
    "pta.fits": "count",
    "pta.iid_s": "s",
    "pta.iid_tests": "count",
    "analysis.select_s": "s",
    "analysis.selections": "count",
    "figure_s_untraced": "s",
    "tracing_overhead_s": "s",
    "model.llc_misses": "count",
    "model.forced_evictions": "count",
    "model.efl_stall_cycles": "count",
    "work.runs_simulated": "count",
    "work.sim_instructions": "count",
}


if __name__ == "__main__":
    sys.exit(main())
