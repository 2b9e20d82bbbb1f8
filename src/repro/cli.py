"""Command-line interface: regenerate the paper's experiments.

Usage (after ``pip install -e .``)::

    repro-efl iid  --scale quick          # E1: MBPTA compliance table
    repro-efl fig3 --scale quick          # E2: normalised pWCET table
    repro-efl fig4 --scale quick          # E3/E4: S-curve summaries
    repro-efl all  --scale tiny           # everything, smoke scale
    repro-efl fig3 --backend process --workers 4   # parallel fan-out

Every command accepts ``--scale {tiny,quick,default,paper}`` and
``--seed`` for reproducibility, plus ``--backend {serial,process}``
and ``--workers N`` to fan simulation runs out over worker processes
(results are bit-identical across backends — seeds are derived per
run, not per worker); results print as plain-text tables.  Without
``--backend``, Figure 4's deployment co-runs run as one batch over
every usable CPU; ``--backend serial`` keeps them in-process.
``--engine {auto,scalar,kernel}`` picks the run interpreter for
analysis campaigns: ``auto`` (default) compiles eligible campaigns
onto the kernel engine — sharding the lanes over worker processes
when the host has CPUs to use — ``scalar`` forces the per-run
interpreter, ``kernel`` fails loudly instead of falling back; samples
are bit-identical across engines.  ``--engine kernel --workers N``
runs N shards (``--workers`` composes with either the process backend
or the kernel engine, never both at once).

Long sweeps survive interruption with ``--checkpoint-dir DIR``: every
analysis campaign journals its completed runs there, and rerunning
with ``--resume`` picks the sweep up from the journals instead of
restarting it.  ``--run-timeout`` arms the pool backend's per-run
wall-clock watchdog; ``--cycle-budget`` bounds each run's simulated
cycles (a livelock guard).

The campaign service adds two verbs::

    repro-efl submit --store results/ --bench RS --scenario EFL500
    repro-efl status --store results/ --json

``submit`` routes one campaign through the content-addressed result
store: a byte-identical resubmission (same trace content, config,
scenario, seed and runs) simulates **zero** runs and serves the stored
sample, bit-identical to the original.  ``--json`` emits the full
machine-readable result, ``--telemetry-dir DIR`` dumps the
submission's metrics and trace spans.  ``status`` lists a store's
entries, re-verifying each entry's integrity checksum
(``status --job ID`` inspects one entry).

The durable service adds a third verb::

    repro-efl --checkpoint-dir ckpt/ serve \\
        --journal jobs.jsonl --store results/ \\
        --bench RS --scenario EFL500 --runs 1000

``serve`` runs a crash-safe queue: every admission is write-ahead
journalled to ``--journal`` and every executed campaign checkpoints
its runs under ``--checkpoint-dir``, so a SIGKILLed serve can be
rerun with ``--resume-jobs`` and will re-admit interrupted jobs,
resume their campaigns run-for-run, and produce final samples
bit-identical to an uninterrupted run.  ``--store-quota
bytes[:entries[:age]]`` bounds the store with LRU eviction;
``--max-queue`` / ``--deadline`` / ``--retry-budget`` /
``--breaker-threshold`` configure admission control (overload sheds
with labelled errors instead of queueing unboundedly).

``--log-level {debug,info,warning,error,quiet}`` and ``--log-format
{plain,kv,json}`` control progress logging; the defaults reproduce the
historical ``--verbose`` text output exactly, while ``kv``/``json``
emit machine-parseable records for log aggregation.

``--adaptive`` turns every analysis campaign into an early-stopping
one: runs are dispatched wave by wave and the campaign stops as soon
as the pWCET quantile has been stable (moved less than
``--pwcet-rtol``, default 0.005, for two consecutive waves) and the
i.i.d. tests pass, instead of always simulating the scale's fixed run
count.  The executed sample is bit-identical to the prefix of the
fixed-R campaign's sample, so results are reproducible; ``--min-runs``
/ ``--max-runs`` bound the sample size (``--min-runs R --max-runs R``
reproduces a fixed-R campaign exactly).  The flags compose with
``submit``/``serve`` — adaptive jobs carry their convergence policy in
the store fingerprint, so they never answer a fixed-R submission.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.experiments import (
    PWCETTable,
    run_fig3,
    run_fig4,
    run_iid_compliance,
)
from repro.analysis.export import (
    write_campaign_json,
    write_fig3_csv,
    write_fig4_csv,
    write_iid_csv,
)
from repro.analysis.reporting import (
    render_campaign,
    render_fig3,
    render_fig4,
    render_iid,
    render_profile,
)
from repro.errors import (
    ConfigurationError,
    ResultIntegrityError,
    ServiceError,
)
from repro.observability import LEVELS, LOG_FORMATS, StructuredLogger, Telemetry
from repro.pta import ConvergencePolicy
from repro.service import (
    AdmissionPolicy,
    CampaignJob,
    JobJournal,
    JobQueue,
    ResultStore,
    StoreQuota,
    recover_jobs,
)
from repro.sim.backend import (
    BACKEND_NAMES,
    ProfilingObserver,
    StreamObserver,
    make_backend,
    usable_cpus,
)
from repro.sim.batch import ENGINE_NAMES
from repro.sim.config import Scenario, SystemConfig
from repro.workloads.scale import ExperimentScale
from repro.workloads.suite import BENCHMARK_IDS, build_benchmark


def _cli_logger(args: argparse.Namespace) -> StructuredLogger:
    """The structured logger the CLI's flags describe.

    Defaults (``--log-level info --log-format plain``) reproduce the
    historical text output byte for byte; ``--log-format kv|json``
    switches to machine-parseable records and ``--log-level quiet``
    silences progress entirely (the service mode).
    """
    return StructuredLogger(
        stream=sys.stderr, level=args.log_level, fmt=args.log_format
    )


def _rtol_arg(value: str):
    """``--pwcet-rtol`` value: a float, or the preset-table sentinel."""
    if value == "per-benchmark":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a float or 'per-benchmark', got {value!r}"
        ) from None


def _adaptive_policy(args, scale, bench=None):
    """The convergence policy the CLI flags describe, or None.

    ``--max-runs`` (or, for the service verbs, ``--runs``) caps the
    sample; everything else defaults from the scale preset.  The
    rtol/min/max flags were already validated to require ``--adaptive``
    in :func:`main`.  ``--pwcet-rtol per-benchmark`` selects the
    benchmark preset table: with a concrete ``bench`` (the service
    verbs) it resolves to that benchmark's policy here, without one
    (the analysis table, which spans all ten) it returns the
    ``"per-benchmark"`` sentinel for :class:`PWCETTable` to resolve
    per campaign.
    """
    if not args.adaptive:
        return None
    max_runs = args.max_runs
    if max_runs is None:
        max_runs = getattr(args, "runs", None)
    if args.pwcet_rtol == "per-benchmark":
        if bench is None:
            return "per-benchmark"
        return ConvergencePolicy.for_benchmark(
            bench, scale, min_runs=args.min_runs, max_runs=max_runs
        )
    kwargs = {}
    if args.pwcet_rtol is not None:
        kwargs["rtol"] = args.pwcet_rtol
    return ConvergencePolicy.for_scale(
        scale, min_runs=args.min_runs, max_runs=max_runs, **kwargs
    )


def _build_table(args: argparse.Namespace) -> PWCETTable:
    scale = ExperimentScale.from_name(args.scale)
    if args.backend == "process" and usable_cpus() < 2:
        # Proceed anyway: results are bit-identical across backends,
        # and the backend itself degrades to in-process execution
        # rather than paying pool overhead for no parallelism.
        print(
            "warning: --backend process on a single-CPU host cannot run "
            "workers in parallel; the pool degrades to in-process serial "
            "execution (results are unaffected)",
            file=sys.stderr,
        )
    observer = (
        StreamObserver(sys.stderr, logger=_cli_logger(args))
        if args.verbose else None
    )
    if args.profile:
        observer = ProfilingObserver(observer)
    # --workers N means pool workers with --backend process, shard
    # workers otherwise (the conflicting combinations were rejected in
    # main()); only one of the two consumers ever receives it.
    pool_workers = args.workers if args.backend == "process" else None
    shard_workers = args.workers if args.backend != "process" else None
    return PWCETTable(
        config=scale.system_config(),
        scale=scale,
        seed=args.seed,
        # None leaves Figure 4's co-run batch to the table's policy.
        backend=args.backend and make_backend(
            args.backend, pool_workers, run_timeout_s=args.run_timeout
        ),
        observer=observer,
        profile=args.profile,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        cycle_budget=args.cycle_budget,
        engine=args.engine,
        workers=shard_workers,
        adaptive=_adaptive_policy(args, scale),
    )


def _finish(table: PWCETTable) -> None:
    """Print the aggregated hot-path profile when --profile was given."""
    observer = table.observer
    if isinstance(observer, ProfilingObserver) and observer.snapshots:
        print()
        print(render_profile(observer.total, runs=len(observer.snapshots)))


def _maybe_csv(args: argparse.Namespace, name: str, writer, result) -> None:
    """Write ``result`` to ``<prefix><name>.csv`` when --csv was given."""
    if getattr(args, "csv", None):
        path = f"{args.csv}{name}.csv"
        with open(path, "w", newline="") as stream:
            writer(result, stream)
        print(f"(wrote {path})", file=sys.stderr)


def _cmd_iid(args: argparse.Namespace) -> int:
    table = _build_table(args)
    result = run_iid_compliance(table, mid=args.mid)
    print(render_iid(result))
    _maybe_csv(args, "iid", write_iid_csv, result)
    _finish(table)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    table = _build_table(args)
    result = run_fig3(table)
    print(render_fig3(result))
    _maybe_csv(args, "fig3", write_fig3_csv, result)
    _finish(table)
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    table = _build_table(args)
    result = run_fig4(table, measure_average=not args.no_average)
    print(render_fig4(result))
    _maybe_csv(args, "fig4", write_fig4_csv, result)
    _finish(table)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    table = _build_table(args)
    started = time.time()
    print(render_iid(run_iid_compliance(table, mid=args.mid)))
    print()
    print(render_fig3(run_fig3(table)))
    print()
    print(render_fig4(run_fig4(table, measure_average=not args.no_average)))
    print(f"\n(total {time.time() - started:.1f}s at scale {args.scale!r})")
    _finish(table)
    return 0


def _write_telemetry(args: argparse.Namespace, telemetry: Telemetry) -> None:
    """Dump metrics and trace spans to --telemetry-dir as JSON files."""
    if not getattr(args, "telemetry_dir", None):
        return
    directory = Path(args.telemetry_dir)
    directory.mkdir(parents=True, exist_ok=True)
    metrics_path = directory / "metrics.json"
    metrics_path.write_text(telemetry.metrics.to_json(indent=2) + "\n")
    spans_path = directory / "spans.json"
    spans_path.write_text(telemetry.tracer.to_json(indent=2) + "\n")
    print(f"(wrote {metrics_path} and {spans_path})", file=sys.stderr)


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one campaign through the service's dedup front door.

    The fingerprint decides the work: a store hit simulates nothing
    and serves the persisted sample (bit-identical to the original
    submission); a miss runs the campaign through the job queue and
    persists the result before returning.
    """
    scale = ExperimentScale.from_name(args.scale)
    trace = build_benchmark(args.bench, scale.trace_scale)
    scenario = Scenario.from_label(args.scenario)
    adaptive = _adaptive_policy(args, scale, bench=args.bench)
    if adaptive is not None:
        runs = adaptive.max_runs
    else:
        runs = args.runs if args.runs is not None else scale.analysis_runs
    telemetry = Telemetry(logger=_cli_logger(args))
    store = ResultStore(args.store)
    job = CampaignJob(
        trace,
        SystemConfig(),
        scenario,
        runs=runs,
        master_seed=args.seed,
        engine=args.engine,
        workers=args.workers,
        cycle_budget=args.cycle_budget,
        adaptive=adaptive,
    )
    with JobQueue(workers=1, telemetry=telemetry) as queue:
        resolved = store.get_or_submit(job, queue)
        result = resolved.wait()
    source = job.source or resolved.source or "simulated"
    simulated = telemetry.metrics.value("runs_simulated")
    print(
        f"(job {resolved.job_id}: {job.state}, source {source}, "
        f"{simulated} runs simulated, fingerprint {job.fingerprint})",
        file=sys.stderr,
    )
    if args.json:
        write_campaign_json(result, sys.stdout)
    else:
        print(render_campaign(result))
    _write_telemetry(args, telemetry)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a durable, admission-controlled campaign service pass.

    Admissions are write-ahead journalled; with ``--resume-jobs`` the
    journal's interrupted jobs are re-admitted first (completed-before
    -crash work answers from the store, mid-campaign work resumes
    through its checkpoint — samples bit-identical either way).  Exits
    0 when every job ended ``done``/``cached``, 1 otherwise.
    """
    telemetry = Telemetry(logger=_cli_logger(args))
    quota = (
        StoreQuota.parse(args.store_quota) if args.store_quota else None
    )
    store = ResultStore(args.store, quota=quota)
    journal = JobJournal(args.journal)
    admission = AdmissionPolicy(
        max_queue_depth=args.max_queue,
        deadline_s=args.deadline,
        retry_budget=args.retry_budget,
        breaker_threshold=args.breaker_threshold,
    )
    queue = JobQueue(
        workers=args.queue_workers,
        telemetry=telemetry,
        admission=admission,
        journal=journal,
        checkpoint_dir=args.checkpoint_dir,
    )
    jobs = []
    shed = 0
    try:
        if args.resume_jobs:
            jobs.extend(recover_jobs(journal, queue, store=store))
        if args.bench is not None:
            scale = ExperimentScale.from_name(args.scale)
            trace = build_benchmark(args.bench, scale.trace_scale)
            scenario = Scenario.from_label(args.scenario)
            adaptive = _adaptive_policy(args, scale, bench=args.bench)
            if adaptive is not None:
                runs = adaptive.max_runs
            else:
                runs = (
                    args.runs if args.runs is not None
                    else scale.analysis_runs
                )
            job = CampaignJob(
                trace,
                SystemConfig(),
                scenario,
                runs=runs,
                master_seed=args.seed,
                engine=args.engine,
                workers=args.workers,
                cycle_budget=args.cycle_budget,
                adaptive=adaptive,
            )
            try:
                jobs.append(store.get_or_submit(job, queue))
            except ServiceError as exc:
                shed += 1
                print(f"(submission shed: {exc})", file=sys.stderr)
        failed = 0
        for job in jobs:
            try:
                job.wait()
            except ServiceError as exc:
                failed += 1
                print(
                    f"(job {job.job_id} did not complete: "
                    f"{str(exc).strip().splitlines()[0]})",
                    file=sys.stderr,
                )
        queue.shutdown(wait=True)
        health = queue.health()
    finally:
        queue.shutdown(wait=False)
        journal.close()
    for job in jobs:
        print(
            f"(job {job.job_id}: {job.state}, source "
            f"{job.source or 'n/a'}, fingerprint {job.fingerprint})",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(health, indent=2, sort_keys=True))
    else:
        runs_block = health["runs"]
        print(
            f"serve: {len(jobs)} jobs ({failed} failed, {shed} shed at "
            f"admission); runs requested={runs_block['requested']} "
            f"simulated={runs_block['simulated']} "
            f"resumed={runs_block['resumed']} "
            f"cached={runs_block['served_from_cache']} "
            f"shed={runs_block['shed']} "
            f"saved={runs_block['saved_converged']}"
        )
    _write_telemetry(args, telemetry)
    return 1 if (failed or shed) else 0


def _cmd_status(args: argparse.Namespace) -> int:
    """Report every entry in a result store, integrity-verified."""
    store = ResultStore(args.store)
    if args.job is not None:
        fingerprint = args.job
        if fingerprint.startswith("cached-"):
            fingerprint = fingerprint[len("cached-"):]
        if fingerprint.startswith("job-"):
            raise ConfigurationError(
                f"job id {args.job!r} is queue-local and cannot be "
                f"resolved from a store on disk; use the campaign "
                f"fingerprint (or a cached-<fingerprint> id) instead"
            )
        if fingerprint not in store:
            raise ConfigurationError(
                f"unknown job id {args.job!r}: store {store.root} has "
                f"no entry for fingerprint {fingerprint}"
            )
    entries = []
    corrupt = 0
    fingerprints = store.fingerprints()
    if args.job is not None:
        fingerprints = [fingerprint]
    for fingerprint in fingerprints:
        try:
            result = store.get(fingerprint)
        except ResultIntegrityError as exc:
            corrupt += 1
            entries.append({
                "fingerprint": fingerprint,
                "ok": False,
                "error": str(exc).strip().splitlines()[-1],
            })
        else:
            entry = {
                "fingerprint": fingerprint,
                "ok": True,
                "task": result.task,
                "scenario": result.scenario_label,
                "runs": result.runs,
                "backend": result.backend,
                "max_time": result.max_time,
            }
            if result.kernel_stats:
                entry["kernel"] = result.kernel_stats
            entries.append(entry)
    if args.json:
        print(json.dumps(
            {"store": str(store.root), "entries": entries}, indent=2
        ))
    elif not entries:
        print(f"store {store.root}: empty")
    else:
        print(f"store {store.root}: {len(entries)} entries"
              + (f" ({corrupt} corrupt)" if corrupt else ""))
        for entry in entries:
            if entry["ok"]:
                print(
                    f"  {entry['fingerprint']}  {entry['task']:>4} under "
                    f"{entry['scenario']:<8} {entry['runs']} runs "
                    f"({entry['backend']}, HWM {entry['max_time']})"
                )
            else:
                print(
                    f"  {entry['fingerprint']}  CORRUPT: {entry['error']}"
                )
    return 1 if corrupt else 0


def make_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-efl",
        description=(
            "Regenerate the experiments of 'Time-Analysable Non-Partitioned "
            "Shared Caches for Real-Time Multicore Systems' (DAC 2014)."
        ),
    )
    parser.add_argument(
        "--scale",
        default="quick",
        choices=("tiny", "quick", "default", "paper"),
        help="experiment scale preset (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help=(
            "execution backend for the simulation runs: 'serial' "
            "(in-process) or 'process' (multiprocessing fan-out); "
            "results are bit-identical either way (default: analysis "
            "campaigns in-process, Figure 4's deployment co-runs as one "
            "batch over every usable CPU)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes: pool workers with --backend process, "
            "shard workers with --engine kernel/auto "
            "(default: CPU count)"
        ),
    )
    parser.add_argument(
        "--engine",
        default="auto",
        choices=ENGINE_NAMES,
        help=(
            "run interpreter for analysis campaigns: 'auto' uses the "
            "kernel engine where eligible — sharded over worker "
            "processes when the host and campaign are big enough — "
            "and falls back to the scalar interpreter otherwise, "
            "'scalar' forces per-run interpretation, 'kernel' demands "
            "the kernel engine ('--workers N' shards it N ways) and "
            "fails (naming the obstacle) on ineligible campaigns, e.g. "
            "deployment runs or --profile; samples are bit-identical "
            "across engines (default: auto)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print per-campaign progress"
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=tuple(LEVELS),
        help=(
            "progress-log threshold: 'debug' adds per-run records, "
            "'quiet' silences progress entirely (service mode); the "
            "default 'info' with --log-format plain reproduces the "
            "historical text output exactly (default: info)"
        ),
    )
    parser.add_argument(
        "--log-format",
        default="plain",
        choices=LOG_FORMATS,
        help=(
            "progress-log record format: 'plain' (historical text), "
            "'kv' (key=value pairs) or 'json' (one JSON object per "
            "line) (default: plain)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "journal every analysis campaign's completed runs to "
            "DIR/<bench>__<setup>.jsonl so an interrupted sweep can be "
            "resumed with --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the journals in --checkpoint-dir: already "
            "completed runs are loaded, not re-executed (the resumed "
            "results are bit-identical to an uninterrupted sweep)"
        ),
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-run wall-clock watchdog for --backend process: a run "
            "making no progress for this long is killed and retried "
            "(default: no watchdog)"
        ),
    )
    parser.add_argument(
        "--cycle-budget",
        type=int,
        default=None,
        metavar="CYCLES",
        help=(
            "abort any run exceeding this many simulated cycles "
            "(livelock guard; such failures are deterministic and "
            "never retried; default: unbounded)"
        ),
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "stop each analysis campaign as soon as the pWCET quantile "
            "is stable (streaming EVT convergence) instead of always "
            "simulating the scale's fixed run count; the executed "
            "sample is bit-identical to the fixed campaign's prefix"
        ),
    )
    parser.add_argument(
        "--pwcet-rtol",
        type=_rtol_arg,
        default=None,
        metavar="RTOL",
        help=(
            "adaptive convergence tolerance: stop once the pWCET "
            "quantile moves less than this relative amount for two "
            "consecutive waves (needs --adaptive; default: 0.005); "
            "the literal 'per-benchmark' selects each benchmark's "
            "preset tolerance instead"
        ),
    )
    parser.add_argument(
        "--min-runs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "never declare convergence before N runs (needs "
            "--adaptive; default: the smallest prefix the Gumbel fit "
            "and i.i.d. tests accept)"
        ),
    )
    parser.add_argument(
        "--max-runs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "adaptive run ceiling: stop at N runs even if not "
            "converged (needs --adaptive; default: the scale preset's "
            "fixed run count); --min-runs R --max-runs R reproduces a "
            "fixed-R campaign exactly"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "attribute simulated cycles and host wall time per platform "
            "component (L1s, bus, LLC, EFL, memory controller) and print "
            "the aggregate table; simulated results are unaffected"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="PREFIX",
        default=None,
        help="also write results as CSV files named PREFIX<experiment>.csv",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub_iid = subparsers.add_parser("iid", help="E1: MBPTA compliance (WW/KS tests)")
    sub_iid.add_argument("--mid", type=int, default=None,
                         help="EFL MID in cycles (default: the scale's EFL500 equivalent)")
    sub_iid.set_defaults(func=_cmd_iid)

    sub_fig3 = subparsers.add_parser("fig3", help="E2: normalised pWCET per setup")
    sub_fig3.set_defaults(func=_cmd_fig3)

    sub_fig4 = subparsers.add_parser("fig4", help="E3/E4: wgIPC/waIPC S-curves")
    sub_fig4.add_argument(
        "--no-average",
        action="store_true",
        help="skip the deployment co-runs (wgIPC curve only)",
    )
    sub_fig4.set_defaults(func=_cmd_fig4)

    sub_all = subparsers.add_parser("all", help="run every experiment")
    sub_all.add_argument("--mid", type=int, default=None, help="EFL MID for E1")
    sub_all.add_argument(
        "--no-average", action="store_true", help="skip deployment co-runs"
    )
    sub_all.set_defaults(func=_cmd_all)

    sub_submit = subparsers.add_parser(
        "submit",
        help=(
            "submit one campaign to the content-addressed result store: "
            "a byte-identical resubmission simulates zero runs and "
            "serves the stored sample"
        ),
    )
    sub_submit.add_argument(
        "--store", metavar="DIR", required=True,
        help="result-store directory (created if missing)",
    )
    sub_submit.add_argument(
        "--bench", required=True, choices=BENCHMARK_IDS,
        help="benchmark id to run",
    )
    sub_submit.add_argument(
        "--scenario", required=True, metavar="LABEL",
        help=(
            "scenario label: EFL<mid> (e.g. EFL500), CP<ways> "
            "(e.g. CP2 or CP1-2-2-3) or SHARED"
        ),
    )
    sub_submit.add_argument(
        "--runs", type=int, default=None, metavar="N",
        help="campaign runs (default: the scale preset's analysis runs)",
    )
    sub_submit.add_argument(
        "--json", action="store_true",
        help="print the full campaign result as JSON instead of the table",
    )
    sub_submit.add_argument(
        "--telemetry-dir", metavar="DIR", default=None,
        help=(
            "also write the submission's metrics (metrics.json) and "
            "trace spans (spans.json) to DIR"
        ),
    )
    sub_submit.set_defaults(func=_cmd_submit)

    sub_serve = subparsers.add_parser(
        "serve",
        help=(
            "run a durable campaign service pass: write-ahead job "
            "journal, admission control, store quota; rerun with "
            "--resume-jobs after a crash to recover bit-identically"
        ),
    )
    sub_serve.add_argument(
        "--journal", metavar="FILE", required=True,
        help="write-ahead job journal (created if missing)",
    )
    sub_serve.add_argument(
        "--store", metavar="DIR", required=True,
        help="result-store directory (created if missing)",
    )
    sub_serve.add_argument(
        "--resume-jobs", action="store_true",
        help=(
            "re-admit the journal's interrupted jobs before taking new "
            "work: completed-before-crash jobs answer from the store, "
            "mid-campaign jobs resume through their checkpoints"
        ),
    )
    sub_serve.add_argument(
        "--store-quota", metavar="SPEC", default=None,
        help=(
            "bound the store as bytes[:entries[:age]] with k/m/g and "
            "s/m/h/d suffixes (e.g. '100m:500:7d'; empty segment = "
            "unbounded); LRU entries past the quota are evicted"
        ),
    )
    sub_serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="bound queued jobs; submissions past it shed (queue_full)",
    )
    sub_serve.add_argument(
        "--queue-workers", type=int, default=1, metavar="N",
        help="queue worker threads (default: 1)",
    )
    sub_serve.add_argument(
        "--retry-budget", type=int, default=0, metavar="N",
        help=(
            "whole-job re-queues allowed after a transient campaign "
            "failure (default: 0)"
        ),
    )
    sub_serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "shed jobs still queued after this long (labelled "
            "'deadline'; default: no deadline)"
        ),
    )
    sub_serve.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help=(
            "open the circuit for a campaign fingerprint after N "
            "deterministic failures (default: breaker disabled)"
        ),
    )
    sub_serve.add_argument(
        "--bench", default=None, choices=BENCHMARK_IDS,
        help="also submit this benchmark (needs --scenario)",
    )
    sub_serve.add_argument(
        "--scenario", default=None, metavar="LABEL",
        help="scenario label for --bench (EFL<mid>, CP<ways> or SHARED)",
    )
    sub_serve.add_argument(
        "--runs", type=int, default=None, metavar="N",
        help="campaign runs (default: the scale preset's analysis runs)",
    )
    sub_serve.add_argument(
        "--json", action="store_true",
        help="print the final health() snapshot as JSON",
    )
    sub_serve.add_argument(
        "--telemetry-dir", metavar="DIR", default=None,
        help=(
            "also write the service's metrics (metrics.json) and trace "
            "spans (spans.json) to DIR"
        ),
    )
    sub_serve.set_defaults(func=_cmd_serve)

    sub_status = subparsers.add_parser(
        "status",
        help="list a result store's entries (integrity-verified)",
    )
    sub_status.add_argument(
        "--store", metavar="DIR", required=True,
        help="result-store directory to inspect",
    )
    sub_status.add_argument(
        "--job", metavar="ID", default=None,
        help=(
            "inspect one entry by job id (cached-<fingerprint>) or "
            "bare fingerprint"
        ),
    )
    sub_status.add_argument(
        "--json", action="store_true",
        help="print the store summary as JSON",
    )
    sub_status.set_defaults(func=_cmd_status)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers <= 0:
        raise ConfigurationError(
            f"--workers must be a positive integer, got {args.workers}"
        )
    if args.backend == "process" and args.engine == "kernel":
        raise ConfigurationError(
            "--backend process conflicts with --engine kernel: the "
            "process backend interprets runs one at a time, while the "
            "kernel engine dispatches its own lane shards; drop "
            "--backend process (use --engine kernel --workers N for N "
            "shards)"
        )
    if args.engine == "scalar" and args.workers is not None \
            and args.backend != "process":
        raise ConfigurationError(
            "--workers with --engine scalar needs --backend process: the "
            "scalar engine has no shards, so worker processes only exist "
            "in the process backend's pool"
        )
    if args.resume and args.checkpoint_dir is None:
        raise ConfigurationError(
            "--resume needs --checkpoint-dir to know where the journals live"
        )
    if not args.adaptive:
        for flag, value in (("--pwcet-rtol", args.pwcet_rtol),
                            ("--min-runs", args.min_runs),
                            ("--max-runs", args.max_runs)):
            if value is not None:
                raise ConfigurationError(
                    f"{flag} only shapes an adaptive campaign's "
                    f"convergence policy; add --adaptive"
                )
    if args.adaptive and args.max_runs is not None \
            and getattr(args, "runs", None) is not None \
            and args.max_runs != args.runs:
        raise ConfigurationError(
            f"--max-runs {args.max_runs} conflicts with --runs "
            f"{args.runs}: an adaptive job's run budget is its "
            f"max_runs; pass just one of the two"
        )
    if args.command in ("submit", "serve") and args.backend == "process":
        raise ConfigurationError(
            f"{args.command} runs through the service's engine selection "
            f"and takes no --backend; use --engine/--workers to pick the "
            f"interpreter"
        )
    if args.command == "serve":
        if (args.bench is None) != (args.scenario is None):
            raise ConfigurationError(
                "serve needs --bench and --scenario together (or neither, "
                "to only recover journalled jobs)"
            )
        if args.bench is None and not args.resume_jobs:
            raise ConfigurationError(
                "serve with no --bench does nothing unless --resume-jobs "
                "re-admits journalled work"
            )
        if args.queue_workers <= 0:
            raise ConfigurationError(
                f"--queue-workers must be a positive integer, "
                f"got {args.queue_workers}"
            )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
