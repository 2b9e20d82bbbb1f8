"""Per-layer spans recorded around the program's public entry points.

The program itself carries no benchmark tracing: :func:`traced` swaps
each layer's entry point for a wrapper that records a span (name,
start, end, parent) and the layer's work counts, and puts the original
back on exit.  Spans are kept in memory and written out once, when the
benchmark ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

import repro.analysis.experiments as experiments
import repro.pta.mbpta as mbpta
import repro.sim.kernels as kernels
from repro.sim.backend import SerialBackend
from repro.sim.checkpoint import CampaignCheckpoint
from repro.sim.plancache import PlanCache


class SpanRecorder:
    """In-memory spans plus per-layer work counts."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as a ``name`` span; ``count`` sees its result."""

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return recorded

    def durations(self, subtree_of: Optional[str] = None):
        """``(total, self)`` seconds per span name.

        With ``subtree_of``, only spans under the last span of that
        name count (the span itself included).
        """
        root = None
        if subtree_of is not None:
            root = max(i for i, s in enumerate(self.spans) if s[0] == subtree_of)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if root is not None and not self._under(index, root):
                continue
            total[name] += end - start
            own[name] += end - start - covered[index]
        return total, own

    def _under(self, index: int, root: int) -> bool:
        while index >= 0:
            if index == root:
                return True
            index = self.spans[index][3]
        return False

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def _count_traces(counts, _args, result) -> None:
    counts["workloads.traces"] += len(result)


def _count_plan(counts, _args, plan) -> None:
    counts["kernels.plans"] += 1
    counts["kernels.plan_chains"] += plan.stats["chains"]
    counts["kernels.plan_segments"] += plan.stats["segments"]


def _count_lanes(counts, args, _result) -> None:
    plan, triples = args[0], args[1]
    counts["kernels.lanes"] += len(triples)
    counts["kernels.lane_instructions"] += len(triples) * plan.kernel.instructions


def _count_campaign(counts, _args, result) -> None:
    counts["campaign.count"] += 1
    counts["campaign.runs_executed"] += result.runs - result.resumed_runs
    counts["campaign.runs_resumed"] += result.resumed_runs


def _count_loaded(counts, _args, entries) -> None:
    counts["checkpoint.runs_loaded"] += len(entries)


def _count_coruns(counts, _args, outcomes) -> None:
    counts["simulator.coruns"] += len(outcomes)
    counts["simulator.instructions"] += sum(
        core.instructions
        for outcome in outcomes if outcome.result is not None
        for core in outcome.result.cores
    )


def _count(key: str):
    def count(counts, _args, _result) -> None:
        counts[key] += 1
    return count


#: (owner, attribute, span name, counter) of every wrapped entry point.
#: Module attributes are patched where the caller looks them up.
ENTRY_POINTS = (
    (experiments, "build_all_benchmarks", "workloads", _count_traces),
    (experiments, "build_workload_traces", "workloads", _count_traces),
    (PlanCache, "program", "plancache", None),
    (kernels, "compile_kernel_plan", "kernels.compile", _count_plan),
    (kernels.KernelTemplatePlan, "execute_lanes", "kernels.execute",
     _count_lanes),
    (experiments, "collect_execution_times", "campaign", _count_campaign),
    (CampaignCheckpoint, "open", "checkpoint", _count_loaded),
    (SerialBackend, "execute", "simulator", _count_coruns),
    (experiments, "estimate_pwcet", "pta.estimate", _count("pta.fits")),
    (experiments, "iid_test", "pta.iid", _count("pta.iid_tests")),
    (mbpta, "iid_test", "pta.iid", _count("pta.iid_tests")),
    (experiments, "best_partition", "analysis.select",
     _count("analysis.selections")),
    (experiments, "best_mid", "analysis.select",
     _count("analysis.selections")),
)

#: Span names of the program layers whose self times must cover the
#: traced figure.
LAYER_SPANS = sorted({name for _o, _a, name, _c in ENTRY_POINTS})


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Record spans at every entry point for the scope of the block."""
    originals = []
    try:
        for owner, attribute, name, count in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_metrics(recorder: SpanRecorder,
                  counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer seconds and counts of one traced set-up plus figure.

    ``counters`` are the rep's work counters (its table's plan-cache
    traffic; the table is fresh, so they are this figure's alone).
    Leaf layers report their total time.  ``pta.estimate_s`` and
    ``analysis.select_s`` are self times: estimates nest the i.i.d.
    tests, and Figure 4's selection runs its campaigns lazily inside.
    """
    total, own = recorder.durations()
    counts = recorder.counts
    figure_total, figure_own = recorder.durations(subtree_of="figure")
    figure_s = figure_total["figure"]
    execute_s = total["kernels.execute"]
    lane_instr = counts["kernels.lane_instructions"]
    corun_s = total["simulator"]
    layer_self = sum(figure_own[name] for name in LAYER_SPANS)
    return {
        "figure_s_traced": figure_s,
        "layer_self_share": layer_self / figure_s,
        "workloads.trace_build_s": total["workloads"],
        "workloads.traces": counts["workloads.traces"],
        "plancache.compile_s": total["plancache"],
        "plancache.hits": counters["plancache_hits"],
        "plancache.misses": counters["plancache_misses"],
        "kernels.plan_compile_s": total["kernels.compile"],
        "kernels.plans": counts["kernels.plans"],
        "kernels.plan_chains": counts["kernels.plan_chains"],
        "kernels.plan_segments": counts["kernels.plan_segments"],
        "kernels.execute_s": execute_s,
        "kernels.lanes": counts["kernels.lanes"],
        "kernels.us_per_lane_instr": (
            execute_s * 1e6 / lane_instr if lane_instr else 0.0
        ),
        "campaign.s": total["campaign"],
        "campaign.self_s": own["campaign"],
        "campaign.count": counts["campaign.count"],
        "campaign.runs_executed": counts["campaign.runs_executed"],
        "campaign.runs_resumed": counts["campaign.runs_resumed"],
        "checkpoint.open_s": total["checkpoint"],
        "checkpoint.runs_loaded": counts["checkpoint.runs_loaded"],
        "simulator.corun_s": corun_s,
        "simulator.coruns": counts["simulator.coruns"],
        "simulator.instructions": counts["simulator.instructions"],
        "simulator.kinstr_per_s": (
            counts["simulator.instructions"] / corun_s / 1e3 if corun_s else 0.0
        ),
        "pta.estimate_s": own["pta.estimate"],
        "pta.fits": counts["pta.fits"],
        "pta.iid_s": total["pta.iid"],
        "pta.iid_tests": counts["pta.iid_tests"],
        "analysis.select_s": own["analysis.select"],
        "analysis.selections": counts["analysis.selections"],
    }
