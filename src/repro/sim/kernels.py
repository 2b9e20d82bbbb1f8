"""The kernel engine: a whole analysis campaign as compiled NumPy lanes.

MBPTA's analysis stage re-executes one trace R >= 300-1000 times on a
freshly randomised single-core platform (§3.3).  The runs are
structurally identical — same instruction stream, same control flow,
same memory-path choreography — and differ *only* in their PRNG
streams.  This module runs all R of them together, each run occupying
one *lane* of a struct-of-arrays state:

* every cache is a packed ``tags[R, sets, ways]`` plane mirroring
  :class:`repro.mem.cache.Cache` (``-1`` = an invalid frame); under
  EoM replacement, residency and dirtiness additionally live in
  ``[line, lane]`` maps, under LRU the recency stacks become timestamp
  planes (argmin = victim);
* placement is a precomputed ``sets[line, R]`` matrix: the parametric
  hash of every distinct trace line under every lane's RII
  (:func:`repro.utils.hashing.set_index_array`), or one broadcast
  modulo column for TD;
* the 4-stage in-order pipeline is a ``[6, R]`` state matrix advanced
  by the same max/add recurrence as
  :class:`repro.cpu.pipeline.InOrderPipeline`;
* EFL is a per-lane ACU (EAB times, stall accumulators) plus the
  interfering cores' CRGs, whose pending injections drain under a
  compare-and-advance mask.

The engine's contract is **bit-identity** with
:class:`~repro.sim.backend.SerialBackend` — execution times, per-run
cache counters, checksums and seed provenance — for every analysis
scenario class (TR+EFL, TR isolation, CP, TD), asserted by
``tests/test_kernel.py``.  Everything it cannot reproduce exactly is
declared ineligible up front
(:func:`repro.sim.simulator.batch_ineligibility`) and stays scalar.

A :class:`~repro.sim.plancache.TraceProgram` is compiled into a
**kernel plan** that keeps the per-lane NumPy call count low:

**1. Max-plus chain fusion (the grouped opcodes).**  Between cache
accesses, the in-order pipeline's recurrence is a max-plus affine map
over the five state times ``(end_fetch, start_decode, start_mem,
start_wb, end_wb)`` — every deterministic phase is ``out = max(in_j +
w_j)`` with compile-time constants.  Max-plus maps compose, so a
maximal run of deterministic phases — fetch-fast-hit streaks,
non-memory ALU stretches, fast hits to already-resident data lines —
collapses into **one** precomputed matrix, applied at runtime with a
single gather + reduction regardless of how many instructions it
fused.  Irreducible steps — IL1 accesses, full DL1 accesses, and
through them the CRG injection points, EoM victim draws and
first-touch fills — run as access ops over the :class:`_LaneEnv`
lane state.  Composition is over exact ``int64`` add/max, so fusion
cannot change a single bit of the result.

**2. Draw-stream linearisation.**  Every hardware PRNG the analysis
hot path consumes draws with *compile-time-constant parameters*: a
cache's victim draws are always ``randrange(k)`` for its fixed
candidate count, an ACU reload is always ``randint(0, 2*MID)``, a
CRG's stream alternates ``randrange(num_sets)`` / ``randint(0,
2*MID)``.  Each lane's draw *sequence* from one generator is therefore
known ahead of time even though the *schedule* (which step consumes
the next draw) is not.  The engine precomputes each stream as a
``[rank, lane]`` block of full-width draws
(:meth:`~repro.utils.rng.MWCArray.randrange_block`) and consumes it
through per-lane cursors.  Per lane, the values consumed are exactly
the values masked on-demand draws would produce (MWC streams are
private per lane per generator; drawing ahead changes only the
generator's final state, which nothing observes), so bit-identity is
again structural.  A CRG's whole firing timeline additionally becomes
a cumulative-sum table, so its drain loop touches only the shared LLC
victim stream at runtime.

An optional Numba ``njit`` path accelerates the chain application when
numba is importable; the probe degrades silently (pure NumPy) when it
is not.

Compilation quality is observable: :func:`compile_kernel_plan` bumps
per-group-class counters (``kernel_steps_fetch_streak``,
``kernel_steps_alu``, ``kernel_steps_data_fast``,
``kernel_steps_ifetch``, ``kernel_steps_dmem``, ``kernel_chains``) on
the attached :class:`~repro.observability.MetricsRegistry`.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.observability import current_telemetry
from repro.sim.backend import RunOutcome, result_checksum
from repro.sim.plancache import GLOBAL_PLAN_CACHE, PlanCache
from repro.sim.simulator import CoreResult, RunRequest, RunResult
from repro.utils.hashing import set_index_array
from repro.utils.rng import MWCArray, splitmix64_draw

#: Kernel state rows: end_fetch, start_decode, start_mem, start_wb,
#: end_wb, plus the transient end_mem written by DL1-access ops and
#: read only by the immediately following write-back phase.
EF, SD, SM, SW, EW, EM = range(6)
N_STATE = 6


# ----------------------------------------------------------------------
# numba feature probe (optional acceleration, silent degrade)
# ----------------------------------------------------------------------
def _probe_numba():
    """An ``njit``-compiled chain applier, or ``None`` without numba."""
    try:
        from numba import njit  # type: ignore
    except Exception:  # pragma: no cover — numba not installed here
        return None

    @njit(cache=False)  # pragma: no cover — exercised only with numba
    def chain_apply(state, out_rows, src, weights, starts, scratch):
        m = out_rows.shape[0]
        total = src.shape[0]
        lanes = state.shape[1]
        for i in range(m):
            lo = starts[i]
            hi = starts[i + 1] if i + 1 < m else total
            for lane in range(lanes):
                best = state[src[lo], lane] + weights[lo]
                for t in range(lo + 1, hi):
                    value = state[src[t], lane] + weights[t]
                    if value > best:
                        best = value
                scratch[i, lane] = best
        for i in range(m):
            row = out_rows[i]
            for lane in range(lanes):
                state[row, lane] = scratch[i, lane]

    return chain_apply


_NUMBA_CHAIN = _probe_numba()


def numba_available() -> bool:
    """Whether the optional numba chain applier compiled at import."""
    return _NUMBA_CHAIN is not None


# ----------------------------------------------------------------------
# kernel ops
# ----------------------------------------------------------------------
#: Max-plus padding weight: added to any state time it stays far below
#: every real candidate without approaching int64 overflow.
_PAD_WEIGHT = -(1 << 60)


class ChainOp:
    """One fused max-plus map over the kernel state matrix.

    ``out_rows[i]`` receives ``max(state[src[t]] + weights[t])`` over
    the segment ``starts[i] <= t < starts[i+1]`` — the composed effect
    of every deterministic pipeline phase the chain swallowed.

    Segments are additionally padded to one rectangular ``(rows,
    width)`` block (``pad_src`` / ``pad_wcol``): padding terms carry
    :data:`_PAD_WEIGHT`, so the runtime reduction is a dense
    ``max(axis=1)`` over the reshaped gather — far cheaper than a
    ragged ``reduceat``.  The ragged arrays stay for the numba path.
    """

    kind = "chain"
    __slots__ = ("out_rows", "src", "weights", "wcol", "starts", "fused",
                 "pad_src", "pad_wcol", "rows_n", "width")

    def __init__(self, out_rows, src, weights, starts, fused: int) -> None:
        self.out_rows = out_rows
        self.src = src
        self.weights = weights
        self.wcol = weights[:, None]
        self.starts = starts
        self.fused = fused
        rows_n = out_rows.shape[0]
        bounds = np.append(starts, src.shape[0])
        width = int((bounds[1:] - bounds[:-1]).max())
        pad_src = np.zeros((rows_n, width), dtype=np.intp)
        pad_w = np.full((rows_n, width), _PAD_WEIGHT, dtype=np.int64)
        for i in range(rows_n):
            lo, hi = bounds[i], bounds[i + 1]
            pad_src[i, : hi - lo] = src[lo:hi]
            pad_w[i, : hi - lo] = weights[lo:hi]
        self.pad_src = pad_src.reshape(-1)
        self.pad_wcol = pad_w.reshape(-1, 1)
        self.rows_n = rows_n
        self.width = width


class FetchOp:
    """Irreducible IL1 instruction fetch (possible miss + fill)."""

    kind = "fetch"
    __slots__ = ("line",)

    def __init__(self, line: int) -> None:
        self.line = line


class MemOp:
    """Irreducible full DL1 access (possible miss, fill, write-back)."""

    kind = "mem"
    __slots__ = ("line", "store")

    def __init__(self, line: int, store: bool) -> None:
        self.line = line
        self.store = store


#: Fusion window: close a segment once it covers this many accesses.
#: Small enough that one non-resident line forfeits little fused work
#: (the fallback replays the whole window per-op), large enough that
#: the guard reduction amortises over many skipped dispatches.  Swept
#: empirically on the EFL campaign shape: 4 beats both 6 and 8 — small
#: windows pass their guard earlier in the warmup prefix, and the
#: extra guard checks are two cheap gathers.
_SEGMENT_ACCESS_CAP = 4

#: Segments below this access count are not worth the guard check: the
#: fused apply replaces too few per-op dispatches to pay for it.
_SEGMENT_ACCESS_MIN = 2


class SegmentOp:
    """A fused megakernel segment: a run of ops with an all-hit fast path.

    Covers ``ops[start:end]`` of the plan — a ``[chain?, access]*``
    run closed just after a chain item, where the transient ``EM`` row
    is dead.  Only compiled for EoM configs, whose caches keep
    ``[line, lane]`` residency maps.

    At runtime the guard is two reductions: every IL1 line and every
    DL1 line the segment touches resident in *every* lane.  When it
    holds, every access inside the window is a fast L1 hit for every
    lane, and under EoM a hit mutates nothing but counters — no tags,
    no residency, no draws, no CRG arrivals (those fire only inside
    miss fills).  The whole window therefore collapses to ``chain`` —
    every deterministic phase *and* every access's hit latency
    composed into one max-plus map at compile time — plus deferred
    counter updates (access counts, store-line dirty rows).  When the
    guard fails, the covered ops execute one by one, bit-identically;
    segment boundaries align with op boundaries, so both paths agree.
    """

    kind = "segment"
    __slots__ = ("start", "end", "ops", "chain", "il1_lines", "dl1_lines",
                 "store_lines", "il1_accesses", "dl1_accesses", "n_lines")

    def __init__(self, start: int, end: int, ops: List[object],
                 chain: Optional[ChainOp], il1_list: List[int],
                 dl1_list: List[int], store_list: List[int]) -> None:
        self.start = start
        self.end = end
        self.ops = ops
        self.chain = chain
        self.il1_lines = np.unique(np.asarray(il1_list, dtype=np.intp))
        self.dl1_lines = np.unique(np.asarray(dl1_list, dtype=np.intp))
        self.store_lines = np.unique(np.asarray(store_list, dtype=np.intp))
        self.il1_accesses = len(il1_list)
        self.dl1_accesses = len(dl1_list)
        # Guard constant: residency tallies never exceed the lane
        # count, so "every touched line resident in every lane" is one
        # summed tally hitting lanes * n_lines exactly.
        self.n_lines = int(self.il1_lines.size + self.dl1_lines.size)


class KernelPlan:
    """A compiled grouped-opcode program: ops + compilation stats.

    Depends only on ``(trace, config)`` — exactly the
    :class:`~repro.sim.plancache.TraceProgram` key — so the
    :class:`~repro.sim.plancache.PlanCache` caches it alongside the
    program it lowers.

    ``segments`` are the fused megakernel windows
    (:class:`SegmentOp`), each covering a slice of ``ops``;
    ``schedule`` interleaves them with the uncovered op spans in
    program order, which is exactly what the runtime walks.
    """

    __slots__ = ("ops", "stats", "instructions", "segments", "schedule",
                 "hints")

    def __init__(self, ops: List[object], stats: dict, instructions: int,
                 segments: Optional[List[SegmentOp]] = None) -> None:
        self.ops = ops
        self.stats = stats
        self.instructions = instructions
        # Warm-repeat grow hints: {(core, scenario): {stream: rows}}
        # high-water marks recorded by execute_lanes, so a repeated
        # campaign pre-draws each linearised stream in one block
        # instead of rediscovering its length through doubling copies.
        # Rows consumed are per-lane counts, so the hint transfers
        # across lane widths (adaptive waves, other R).
        self.hints: dict = {}
        self.segments = segments if segments is not None else []
        schedule: List[tuple] = []
        position = 0
        for segment in self.segments:
            if segment.start > position:
                schedule.append((None, ops[position:segment.start]))
            schedule.append((segment, segment.ops))
            position = segment.end
        if position < len(ops):
            schedule.append((None, ops[position:]))
        self.schedule = schedule

    def chains(self):
        """Every :class:`ChainOp` — standalone and segment-composed."""
        for op in self.ops:
            if op.kind == "chain":
                yield op
        for segment in self.segments:
            if segment.chain is not None:
                yield segment.chain


def _identity_matrix() -> List[dict]:
    return [{row: 0} for row in range(N_STATE)]


def _emit_chain(matrix: List[dict], fused: int, dead: frozenset,
                links: Optional[dict] = None,
                pool: Optional[dict] = None) -> Optional[ChainOp]:
    """Lower a composed max-plus matrix to a reduceat-ready op.

    Identity rows are skipped (the state they govern is untouched), as
    are the ``dead`` rows — outputs the next op overwrites before
    anything reads them.  ``EM`` is always dead: its only reader is
    the write-back phase, which every compilation path re-derives from
    a fresher write before reading.

    ``links`` carries affine invariants of the chain's *base* state —
    ``{dep: (base, offset)}`` meaning ``state[dep] == state[base] +
    offset`` holds on entry along every path (e.g. ``EW == SW + 1``
    after any complete instruction).  A row holding terms on both ends
    of a link collapses them into one: ``max(state[base] + wa,
    state[dep] + wb) == state[base] + max(wa, wb + offset)`` exactly,
    so pruning narrows the runtime gather without touching a bit.

    ``pool`` deduplicates structurally identical chains (loop bodies
    re-emit the same few maps thousands of times), letting the runtime
    attach per-sweep scratch to the handful of distinct ops.
    """
    out_rows: List[int] = []
    src: List[int] = []
    weights: List[int] = []
    starts: List[int] = []
    for row in range(N_STATE):
        if row == EM or row in dead:
            continue
        terms = matrix[row]
        if len(terms) == 1 and terms.get(row) == 0:
            continue
        if links:
            terms = dict(terms)
            for dep, (base, offset) in links.items():
                if dep in terms and base in terms:
                    terms[base] = max(terms[base], terms[dep] + offset)
                    del terms[dep]
        starts.append(len(src))
        out_rows.append(row)
        for base in sorted(terms):
            src.append(base)
            weights.append(terms[base])
    if not out_rows:
        return None
    if pool is not None:
        key = (tuple(out_rows), tuple(src), tuple(weights), tuple(starts),
               fused)
        op = pool.get(key)
        if op is not None:
            return op
    op = ChainOp(
        np.array(out_rows, dtype=np.intp),
        np.array(src, dtype=np.intp),
        np.array(weights, dtype=np.int64),
        np.array(starts, dtype=np.intp),
        fused,
    )
    if pool is not None:
        pool[key] = op
    return op


#: Most recent compile's fusion ratio, exposed as the
#: ``kernel_fusion_ratio`` gauge (ratios are not additive, so a
#: counter cannot carry them; the per-plan value lives in
#: ``KernelPlan.stats["fusion_ratio"]``).
_LAST_FUSION_RATIO = 0.0


def _fusion_ratio_gauge() -> float:
    return _LAST_FUSION_RATIO


def compile_kernel_plan(program, config) -> KernelPlan:
    """Lower ``program`` under ``config`` into a :class:`KernelPlan`.

    Scans the instruction steps once, accumulating deterministic
    pipeline phases into a composing max-plus matrix and flushing it to
    a :class:`ChainOp` whenever an irreducible cache access interrupts
    the run.  Decode phases compose into the chain *before* a DL1
    access (the access reads the decoded time), write-back phases
    *after* it (they read the access's ``end_mem``).

    A second, parallel composition drives the **megakernel fusion
    pass** (EoM configs only): the same phases, plus every access's
    *hit* form, compose into a per-segment matrix that keeps growing
    across chain/access boundaries.  Whenever the open window covers
    :data:`_SEGMENT_ACCESS_CAP` accesses (and at program end), it is
    closed into a :class:`SegmentOp` at a chain boundary — where the
    transient ``EM`` row is dead — so the runtime can replace the
    whole window with one composed chain whenever every touched line
    is resident in every lane.
    """
    l1_hit = int(config.l1_hit_latency)
    ops: List[object] = []
    stats = {
        "fetch_streak": 0,  # fetch-fast-hit phases fused into chains
        "alu": 0,           # non-memory execute phases fused
        "data_fast": 0,     # resident-line fast-hit phases fused
        "ifetch": 0,        # irreducible IL1 access steps
        "dmem": 0,          # irreducible DL1 access steps
        "chains": 0,
        "fused_phases": 0,
        "segments": 0,        # fused megakernel windows
        "fused_accesses": 0,  # accesses covered by those windows
        "fusion_ratio": 0.0,  # fused_accesses / (ifetch + dmem)
    }
    matrix = _identity_matrix()
    dirty = False
    fused = 0
    # Affine invariants of the *current* runtime state:
    # {dep: (base, offset)} meaning state[dep] == state[base] + offset.
    # A chain's src rows index its base state, so each chain captures
    # the snapshot valid when its base is established — after any
    # runtime op (FetchOp/MemOp) separating it from the last flush,
    # which is exactly the first assign() into the fresh matrix.
    links: dict = {}
    chain_links: dict = {}
    base_pending = True
    pool: dict = {}
    # Segment composition state: only EoM caches keep the residency
    # maps the runtime guard needs, and only EoM hits are free of
    # side effects (LRU hits restamp), so fusion is EoM-only.
    fusable = config.replacement == "eom"
    segments: List[SegmentOp] = []
    seg_matrix = _identity_matrix()
    seg_fused = 0
    seg_start = 0
    seg_links: dict = {}
    seg_il1: List[int] = []
    seg_dl1: List[int] = []
    seg_store: List[int] = []

    def write_row(row: int) -> None:
        # A write to `row` invalidates any invariant naming it.
        links.pop(row, None)
        for dep in [d for d, (b, _o) in links.items() if b == row]:
            del links[dep]

    def compose(target: List[dict], out: int, terms) -> None:
        row: dict = {}
        for source, weight in terms:
            for base, base_weight in target[source].items():
                candidate = base_weight + weight
                previous = row.get(base)
                if previous is None or previous < candidate:
                    row[base] = candidate
        target[out] = row

    def assign(out: int, terms) -> None:
        nonlocal dirty, fused, seg_fused, chain_links, base_pending
        if base_pending:
            chain_links = dict(links)
            base_pending = False
        compose(matrix, out, terms)
        write_row(out)
        dirty = True
        fused += 1
        if fusable:
            compose(seg_matrix, out, terms)
            seg_fused += 1

    _LIVE = frozenset()
    #: A DL1-access op recomputes start_mem from decode/write-back
    #: state without reading it, so a chain feeding one need not
    #: materialise its own start_mem.
    _PRE_MEM_DEAD = frozenset((SM,))
    #: Past the last instruction only end_wb (the run's execution
    #: time) is ever read.
    _FINAL_DEAD = frozenset((EF, SD, SM, SW))

    def seg_boundary(dead: frozenset, final: bool = False) -> None:
        """Maybe close the open segment (called at chain boundaries).

        The segment chain is emitted with the same dead-row set as the
        chain just flushed, so the fused and per-op paths leave
        identical live state at the boundary.
        """
        nonlocal seg_matrix, seg_fused, seg_start, seg_links
        accesses = len(seg_il1) + len(seg_dl1)
        if accesses >= _SEGMENT_ACCESS_CAP or (
                final and accesses >= _SEGMENT_ACCESS_MIN):
            chain = _emit_chain(seg_matrix, seg_fused, dead,
                                links=seg_links, pool=pool)
            segments.append(SegmentOp(
                seg_start, len(ops), ops[seg_start:len(ops)], chain,
                seg_il1, seg_dl1, seg_store,
            ))
            stats["segments"] += 1
            stats["fused_accesses"] += accesses
            seg_matrix = _identity_matrix()
            seg_fused = 0
            seg_start = len(ops)
            # The new segment's base is this boundary state (its
            # accesses compose in hit form, before any runtime write).
            seg_links = dict(links)
            seg_il1.clear()
            seg_dl1.clear()
            seg_store.clear()

    def flush(dead: frozenset = _LIVE) -> None:
        nonlocal matrix, dirty, fused, base_pending
        if dirty:
            op = _emit_chain(matrix, fused, dead,
                             links=chain_links, pool=pool)
            if op is not None:
                ops.append(op)
                stats["chains"] += 1
                stats["fused_phases"] += fused
        matrix = _identity_matrix()
        dirty = False
        fused = 0
        base_pending = True
        if fusable:
            seg_boundary(dead)

    for fetch_fast, iline, mem_code, mem_arg, is_store in program.steps:
        if fetch_fast:
            # start_fetch = max(end_fetch, start_decode); +L.
            assign(EF, ((EF, l1_hit), (SD, l1_hit)))
            stats["fetch_streak"] += 1
        else:
            flush()
            ops.append(FetchOp(iline))
            write_row(EF)
            stats["ifetch"] += 1
            if fusable:
                # The access's all-hit form, for the segment chain.
                seg_il1.append(iline)
                compose(seg_matrix, EF, ((EF, l1_hit), (SD, l1_hit)))
                seg_fused += 1
        # Decode: start_decode = max(end_fetch, start_mem).
        assign(SD, ((EF, 0), (SM, 0)))
        if mem_code == 2:
            flush(_PRE_MEM_DEAD)
            ops.append(MemOp(mem_arg, bool(is_store)))
            write_row(SM)
            write_row(EM)
            stats["dmem"] += 1
            if fusable:
                seg_dl1.append(mem_arg)
                if is_store:
                    seg_store.append(mem_arg)
                compose(seg_matrix, SM, ((SD, 1), (SW, 0)))
                compose(seg_matrix, EM, ((SM, l1_hit),))
                seg_fused += 2
        else:
            # start_mem = max(end_decode, start_wb); end_mem = +latency.
            latency = mem_arg if mem_code == 0 else l1_hit
            assign(SM, ((SD, 1), (SW, 0)))
            assign(EM, ((SM, latency),))
            links[EM] = (SM, latency)
            stats["alu" if mem_code == 0 else "data_fast"] += 1
        # Write-back: start_wb = max(end_mem, end_wb); end_wb = +1.
        assign(SW, ((EM, 0), (EW, 0)))
        assign(EW, ((SW, 1),))
        links[EW] = (SW, 1)
    flush(_FINAL_DEAD)
    if fusable:
        seg_boundary(_FINAL_DEAD, final=True)
    total_accesses = stats["ifetch"] + stats["dmem"]
    if total_accesses:
        stats["fusion_ratio"] = stats["fused_accesses"] / total_accesses

    telemetry = current_telemetry()
    if telemetry is not None:
        metrics = telemetry.metrics
        for group in ("fetch_streak", "alu", "data_fast", "ifetch", "dmem"):
            if stats[group]:
                metrics.counter(f"kernel_steps_{group}").inc(stats[group])
        if stats["chains"]:
            metrics.counter("kernel_chains").inc(stats["chains"])
        if stats["segments"]:
            metrics.counter("kernel_segments_fused").inc(stats["segments"])
            metrics.counter("kernel_fused_accesses").inc(
                stats["fused_accesses"]
            )
        global _LAST_FUSION_RATIO
        _LAST_FUSION_RATIO = stats["fusion_ratio"]
        metrics.gauge("kernel_fusion_ratio", _fusion_ratio_gauge)
    return KernelPlan(ops, stats, program.instructions, segments)


# ----------------------------------------------------------------------
# draw-stream linearisation
# ----------------------------------------------------------------------
class _DrawCursor:
    """Precomputed draw block for one constant-parameter MWC stream.

    ``take(mask)`` returns each lane's next value and advances only the
    masked lanes' cursors — the same per-lane consumption the masked
    on-demand draw performs, at a fraction of the call count.  The
    block grows geometrically; the countdown bounds how many takes can
    pass before any lane could outrun it (each take advances a lane's
    cursor by at most one).
    """

    __slots__ = ("rng", "n", "lanes", "_ids", "_block", "_cursor",
                 "_countdown")

    def __init__(self, rng: MWCArray, n: int, lanes: int,
                 initial_rows: int = 8) -> None:
        self.rng = rng
        self.n = n
        self.lanes = lanes
        self._ids = np.arange(lanes)
        self._block = np.empty((0, lanes), dtype=np.int64)
        self._cursor = np.zeros(lanes, dtype=np.int64)
        self._countdown = 0
        self._grow(initial_rows)

    def _grow(self, rows: int) -> None:
        # One block draw: bit-identical to `rows` successive
        # full-width randrange calls, at a fraction of the call count.
        # The draw lands directly in the grown block (typed int64 by
        # the destination) — no temporary, no cast pass.
        old = self._block
        filled = old.shape[0]
        grown = np.empty((filled + rows, self.lanes), dtype=np.int64)
        grown[:filled] = old
        self.rng.randrange_block(self.n, rows, out=grown[filled:])
        self._block = grown

    def presize(self, rows: int) -> None:
        """Pre-draw the stream to ``rows`` (one grow, no repeat copies)."""
        have = self._block.shape[0]
        if rows > have:
            self._grow(rows - have)

    def hint_rows(self) -> int:
        """Final block capacity — the next sweep's presize target.

        Capacity, not consumption: :meth:`take`'s countdown guard
        grows one row ahead of the deepest cursor, so a block presized
        to bare consumption still pays a mid-sweep doubling copy.
        Presizing to the capacity the last sweep ended with reproduces
        a zero-grow sweep exactly (same rows, same guard outcomes).
        """
        return int(self._block.shape[0])

    def take(self, mask: np.ndarray) -> np.ndarray:
        self._countdown -= 1
        if self._countdown < 0:
            high = int(self._cursor.max())
            rows = self._block.shape[0]
            if high + 1 >= rows:
                self._grow(rows)
                rows = self._block.shape[0]
            self._countdown = rows - high - 2
        out = self._block[self._cursor, self._ids]
        self._cursor += mask
        return out

    def take_at(self, lane_ids: np.ndarray) -> np.ndarray:
        """Compact :meth:`take`: one draw for just the listed lanes.

        ``lane_ids`` must be distinct (a ``nonzero`` of some mask).
        Values and cursor movement match ``take(mask)[lane_ids]``
        exactly; the untouched lanes' full-width gather is skipped.
        """
        self._countdown -= 1
        if self._countdown < 0:
            high = int(self._cursor.max())
            rows = self._block.shape[0]
            if high + 1 >= rows:
                self._grow(rows)
                rows = self._block.shape[0]
            self._countdown = rows - high - 2
        cur = self._cursor[lane_ids]
        out = self._block[cur, lane_ids]
        self._cursor[lane_ids] = cur + 1
        return out

    def take_events(self, ev_lanes: np.ndarray,
                    delta: np.ndarray) -> np.ndarray:
        """Consume ``delta[lane]`` values per lane, event-aligned.

        ``ev_lanes`` lists each event's lane with every lane's events
        contiguous and in order, so gathering at ``cursor[lane] +
        within-lane-offset`` yields exactly the values ``delta[lane]``
        sequential :meth:`take` calls would return.
        """
        total = ev_lanes.shape[0]
        end = self._cursor + delta
        needed = int(end.max())
        rows = self._block.shape[0]
        if needed >= rows:
            # Geometric growth with an exact-demand floor: a large
            # drain can outpace doubling, while doubling keeps the
            # frequent small drains from paying a block copy each.
            self._grow(max(needed + 8 - rows, rows))
            rows = self._block.shape[0]
        starts = np.cumsum(delta) - delta
        # positions[e] = cursor[lane] + within-lane-offset, with the
        # two per-event gathers folded into one repeat.
        positions = np.arange(total) + np.repeat(self._cursor - starts, delta)
        out = self._block[positions, ev_lanes]
        self._cursor = end
        self._countdown = 0
        return out


class _KernelCache:
    """One cache level across all lanes: ``tags[lanes, sets, ways]`` SoA.

    Mirrors :class:`repro.mem.cache.Cache` exactly on the transactions
    the analysis hot path uses: demand access (hit bookkeeping, EoM /
    LRU victim choice, write-allocate fill), CRG forced eviction and
    the posted L1 write-back update.  ``candidates`` restricts victim
    choice and lookup to the first ``candidates`` ways — the
    contiguous partition :func:`repro.sim.platform.build_platform`
    materialises for CP analysis.

    Under EoM every victim draw is ``randrange(k)`` for the fixed
    candidate count, consumed from a linearised :class:`_DrawCursor`
    stream in the scalar per-lane order (demand misses and CRG forced
    evictions interleave identically).  The hit test changes shape
    too: each line occupies at most one ``(set, way)`` frame per lane,
    so residency and dirtiness live in ``[line, lane]`` boolean maps
    and a demand hit is one row read instead of a ``(lanes, ways)`` tag
    gather + compare.  The ``tags`` planes stay authoritative for
    victim identity (what a fill or forced eviction displaces); the
    maps mirror them.

    Under LRU the recency stacks are timestamp planes and every
    transaction works on the full frame view (the ``_lru_*`` methods).
    """

    def __init__(
        self,
        lanes: int,
        num_sets: int,
        ways: int,
        candidates: int,
        sets: np.ndarray,
        rng: Optional[MWCArray],
        lru: bool,
    ) -> None:
        self.lanes = lanes
        self.ways = ways
        self.k = candidates
        self.sets = sets  # [lines, lanes]
        self.tags = np.full((lanes, num_sets, ways), -1, dtype=np.int32)
        self.hits = np.zeros(lanes, dtype=np.int64)
        self.misses = np.zeros(lanes, dtype=np.int64)
        # Write-back probe hits live apart from demand hits: the LLC's
        # reported per-run hit counts are demand hits only (matching
        # the scalar oracle), so keeping ``hits`` demand-pure lets the
        # sweep read them off the cache.
        self.wb_hits = np.zeros(lanes, dtype=np.int64)
        self.forced = np.zeros(lanes, dtype=np.int64)
        self._lane_ids = np.arange(lanes)
        self._full = np.ones(lanes, dtype=bool)
        self._accesses = 0
        # EoM with a single candidate draws nothing (the scalar path
        # skips the draw); LRU caches carry no generator at all.
        self._draws = (
            _DrawCursor(rng, candidates, lanes)
            if rng is not None and candidates > 1 else None
        )
        if lru:
            self._res = None
            self._line_dirty = None
            self._res_count = None
            self.dirty = np.zeros((lanes, num_sets, ways), dtype=bool)
            # LRU stacks as timestamp planes: stack position maps to
            # stamp order (front = max).  Initial stack [0..w-1] means
            # way w starts at stamp -(w+1); hits/fills stamp from a
            # growing positive counter, invalidations from a shrinking
            # counter below every initial stamp, so argmin over a
            # set's stamps is exactly LRUReplacement.choose_victim.
            self.stamps = np.broadcast_to(
                -(np.arange(ways, dtype=np.int64) + 1), (lanes, num_sets, ways)
            ).copy()
            self._pos_stamp = 0
            self._neg_stamp = -(ways + 1)
            return
        self.stamps = None
        # One spare row past the real lines: victim tag -1 (an empty
        # frame) fancy-indexes the dummy row, so eviction scatters and
        # the dirty-victim gather need no validity filtering.  Nothing
        # ever writes True there — the residency clear writes False,
        # and dirty writes only target real (resident) lines — so a
        # dummy-row read is always the empty frame's correct answer:
        # not resident, not dirty.
        self._res = np.zeros((sets.shape[0] + 1, lanes), dtype=bool)
        self._line_dirty = np.zeros((sets.shape[0] + 1, lanes), dtype=bool)
        # Per-line resident-lane tally, kept exactly equal to
        # ``_res.sum(axis=1)``: the all-lanes-resident test — the
        # segment guard and the demand_full fast path — becomes a
        # scalar compare instead of a [lanes] row reduction.  The LLC
        # opts out (see execute_lanes): it is never probed all-lanes,
        # and its forced-eviction drain would pay scatter-subtract
        # upkeep for nothing.
        self._res_count = np.zeros(sets.shape[0], dtype=np.int64)

    # -- EoM: residency maps and linearised victim draws ----------------
    def _miss_fill(self, line_id: int, miss: np.ndarray, write: bool):
        """Victim choice + displace + fill for the missed lanes.

        Displaced victims come back in *compact* form, aligned with
        the missed lanes: ``(lanes, lines, dirty)`` where ``lines`` is
        ``-1`` for frames that were empty.
        """
        set_idx = self.sets[line_id]
        # One nonzero + fancy gathers: cheaper than compressing three
        # full-width arrays through the same boolean mask.
        ml = np.nonzero(miss)[0]
        ms = set_idx[ml]
        if self._draws is not None:
            mw = self._draws.take_at(ml)
        else:
            mw = np.zeros(ml.shape[0], dtype=np.int64)
        vt = self.tags[ml, ms, mw]
        count = self._res_count
        # Victim tag -1 (empty frame) indexes the spare dummy row of
        # the residency/dirty maps — see __init__ — so neither the
        # dirty gather nor the residency clear filters for validity.
        dirty_small = self._line_dirty[vt, ml]
        self._res[vt, ml] = False
        if count is not None:
            # bincount + full-vector subtract beats the buffered
            # np.subtract.at scatter on these victim batch sizes; the
            # +1 shift keeps empty frames (tag -1) countable, their
            # bin is discarded by the slice.
            count -= np.bincount(vt + 1, minlength=count.shape[0] + 1)[1:]
        self.tags[ml, ms, mw] = line_id
        row = self._res[line_id]
        row[ml] = True
        self._line_dirty[line_id][ml] = bool(write)
        if count is not None:
            count[line_id] += ml.shape[0]
        return ml, vt, dirty_small

    def demand_compact(self, line_id: int, mask: np.ndarray, write: bool):
        """Demand access of one trace line across the masked lanes.

        Returns ``(miss, miss_lanes, victim_dirty)`` where the last two
        are aligned compact vectors over the missed lanes, or ``(None,
        None, None)`` when every probed lane hit — the fill path needs
        only the dirty victims' lane ids.
        """
        if self._res is None:
            miss, ml, _vt, vdirty = self._lru_demand(line_id, mask, write)
            return miss, ml, vdirty
        row = self._res[line_id]
        hit = row & mask
        miss = mask ^ hit  # hit ⊆ mask, so xor is mask & ~hit
        self.hits += hit
        self.misses += miss
        if write:
            dirty_row = self._line_dirty[line_id]
            np.logical_or(dirty_row, hit, out=dirty_row)
        if not miss.any():
            return None, None, None
        ml, _vt, dirty_small = self._miss_fill(line_id, miss, write)
        return miss, ml, dirty_small

    def demand_full(self, line_id: int, write: bool):
        """All-lanes demand — the kernel op loop's L1 access shape.

        Returns ``(miss, victim_lanes, victim_lines, victim_dirty)``
        with the victims compact (see :meth:`_miss_fill`), all
        ``None`` when every lane hit.  Under EoM hit counting is
        deferred: the access count is a compile-time constant per
        sweep, so :meth:`finalise_counters` derives ``hits = accesses
        - misses`` once at the end instead of accumulating a vector per
        access — the all-hit fast path is one scalar residency-count
        compare.
        """
        if self._res is None:
            return self._lru_demand(line_id, self._full, write)
        self._accesses += 1
        if self._res_count[line_id] == self.lanes:
            # All lanes resident — one scalar compare decides the hit,
            # and a write dirties the full row outright.
            if write:
                self._line_dirty[line_id] = True
            return None, None, None, None
        row = self._res[line_id]
        if write:
            dirty_row = self._line_dirty[line_id]
            np.logical_or(dirty_row, row, out=dirty_row)
        miss = ~row
        self.misses += miss
        ml, vt, dirty_small = self._miss_fill(line_id, miss, write)
        return miss, ml, vt, dirty_small

    def finalise_counters(self) -> None:
        """Materialise the deferred hit counters (EoM fast path)."""
        if self._accesses:
            np.subtract(self._accesses, self.misses, out=self.hits)
            self._accesses = 0

    def writeback_at(self, line_ids: np.ndarray,
                     lane_ids: np.ndarray) -> np.ndarray:
        """Posted dirty-L1-victim update (``MemoryPath.l1_writeback``).

        One event per array slot, in the compact ``(lines, lanes)``
        form :meth:`demand_full` produced — at most one victim per
        lane per access, so the lane ids are distinct and plain
        fancy-index updates suffice.  Returns, per event, whether the
        line was resident (updated and marked dirty); the caller
        forwards the rest to memory.
        """
        if self._res is None:
            return self._lru_writeback_at(line_ids, lane_ids)
        resident = self._res[line_ids, lane_ids]
        if resident.any():
            rl = lane_ids[resident]
            self._line_dirty[line_ids[resident], rl] = True
            self.wb_hits[rl] += 1
        return resident

    def force_evict_events(self, ev_lanes: np.ndarray, ev_sets: np.ndarray,
                           delta: np.ndarray) -> None:
        """One CRG drain's forced evictions as a single flat scatter.

        EoM only: the victim draw is state-independent and the
        displace writes constants (``tag = -1``), so within one drain
        only each lane's rank order matters — which the event list
        preserves — and duplicate ``(lane, set, way)`` events commute.
        As in ``Cache.force_eviction``, the draw and the
        ``forced_evictions`` count happen even when the chosen frame
        is invalid.
        """
        self.forced += delta
        if self._draws is not None:
            ways = self._draws.take_events(ev_lanes, delta)
        else:
            ways = np.zeros(ev_lanes.shape[0], dtype=np.int64)
        vt = self.tags[ev_lanes, ev_sets, ways]
        # Empty frames (tag -1) land the clear on the dummy residency
        # row — see __init__ — so the drain skips validity filtering.
        self._res[vt, ev_lanes] = False
        self.tags[ev_lanes, ev_sets, ways] = -1

    # -- LRU: full frame view and timestamp planes ----------------------
    def _lru_victims(self, set_idx: np.ndarray) -> np.ndarray:
        """Victim way per lane, mirroring ``LRUReplacement.choose_victim``."""
        stamps = self.stamps[self._lane_ids, set_idx]
        if self.k != self.ways:
            stamps = stamps[:, : self.k]
        return np.argmin(stamps, axis=1)

    def _stamp_touch(self, l: np.ndarray, s: np.ndarray, w: np.ndarray) -> None:
        self._pos_stamp += 1
        self.stamps[l, s, w] = self._pos_stamp

    def _lru_demand(self, line_id: int, mask: np.ndarray, write: bool):
        """LRU demand access; victims compact as in :meth:`demand_full`."""
        set_idx = self.sets[line_id]
        lanes_ = self._lane_ids
        frames = self.tags[lanes_, set_idx]
        cand = frames if self.k == self.ways else frames[:, : self.k]
        match = cand == line_id
        hit = match.any(axis=1)
        hit &= mask
        miss = mask & ~hit
        self.hits += hit
        self.misses += miss
        if hit.any():
            hw = np.argmax(match, axis=1)
            hl = lanes_[hit]
            hs = set_idx[hit]
            hww = hw[hit]
            if write:
                self.dirty[hl, hs, hww] = True
            self._stamp_touch(hl, hs, hww)
        if not miss.any():
            return None, None, None, None
        vway = self._lru_victims(set_idx)
        ml = lanes_[miss]
        ms = set_idx[miss]
        mw = vway[miss]
        vt = self.tags[ml, ms, mw].astype(np.int64)
        vd = self.dirty[ml, ms, mw] & (vt >= 0)
        self.tags[ml, ms, mw] = line_id
        self.dirty[ml, ms, mw] = bool(write)
        self._stamp_touch(ml, ms, mw)
        return miss, ml, vt, vd

    def _lru_writeback_at(self, line_ids: np.ndarray,
                          lane_ids: np.ndarray) -> np.ndarray:
        set_idx = self.sets[line_ids, lane_ids]
        frames = self.tags[lane_ids, set_idx]
        cand = frames if self.k == self.ways else frames[:, : self.k]
        match = cand == line_ids[:, None]
        resident = match.any(axis=1)
        if resident.any():
            hw = np.argmax(match, axis=1)
            rl = lane_ids[resident]
            rs = set_idx[resident]
            rw = hw[resident]
            self.dirty[rl, rs, rw] = True
            self.wb_hits[rl] += 1
            self._stamp_touch(rl, rs, rw)
        return resident

    def force_evict_at(self, set_idx: np.ndarray, mask: np.ndarray) -> None:
        """LRU CRG force-miss: victim choice + displace, no allocation.

        Mirrors ``Cache.force_eviction`` → ``_displace``: the
        ``forced_evictions`` count happens even when the chosen frame
        is invalid, the LRU demotion only when it was valid.
        """
        self.forced += mask
        vway = self._lru_victims(set_idx)
        ml = self._lane_ids[mask]
        ms = set_idx[mask]
        mw = vway[mask]
        valid = self.tags[ml, ms, mw] >= 0
        self.tags[ml, ms, mw] = -1
        self.dirty[ml, ms, mw] = False
        if valid.any():
            self._neg_stamp -= 1
            self.stamps[ml[valid], ms[valid], mw[valid]] = self._neg_stamp


class _KernelACU:
    """Per-lane EFL Access Control Unit (EAB times and stalls).

    Randomised-MID reloads are ``randint(0, 2*MID)`` draws, consumed
    from a linearised :class:`_DrawCursor` stream.
    """

    def __init__(self, mid: int, randomise: bool, rng: MWCArray,
                 lanes: int) -> None:
        self.mid = mid
        self.eab = np.zeros(lanes, dtype=np.int64)
        self.stall = np.zeros(lanes, dtype=np.int64)
        self.evictions = np.zeros(lanes, dtype=np.int64)
        self._draws = (
            _DrawCursor(rng, 2 * mid + 1, lanes) if randomise else None
        )

    def grant_record(self, now: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """``eviction_grant_time`` + ``record_eviction`` fused.

        Returns the per-lane grant time (valid at masked lanes); the
        reload draw is consumed only by masked lanes.
        """
        grant = np.maximum(self.eab, now)
        self.stall += np.where(mask, grant - now, 0)
        self.evictions += mask
        if self._draws is not None:
            delay = self._draws.take(mask)
        else:
            delay = self.mid
        np.copyto(self.eab, grant + delay, where=mask)
        return grant


class _KernelCRG:
    """CRG with a precomputed firing timeline (sets + arrival times).

    The generator's private stream alternates a set draw and a gap draw
    per firing, so the whole per-lane schedule — which set rank ``r``
    evicts and when — is computable ahead of the sweep.  The runtime
    drain then touches only the LLC victim stream: gather the pending
    lanes' next set, force the eviction, advance the rank cursors.
    """

    __slots__ = ("mid", "randomise", "rng", "num_sets", "lanes", "_ids",
                 "_sets", "_times", "_fired", "next_time", "_top_min")

    def __init__(self, mid: int, randomise: bool, rng: MWCArray,
                 num_sets: int, lanes: int) -> None:
        self.mid = mid
        self.randomise = randomise
        self.rng = rng
        self.num_sets = num_sets
        self.lanes = lanes
        self._ids = np.arange(lanes)
        if randomise:
            first = rng.randint_inclusive(0, 2 * mid).astype(np.int64)
        else:
            first = np.full(lanes, mid, dtype=np.int64)
        self._sets = np.empty((0, lanes), dtype=np.int64)
        self._times = first[None, :].copy()
        self._fired = np.zeros(lanes, dtype=np.int64)
        self.next_time = first.copy()
        self._grow(8)

    def _grow(self, rows: int) -> None:
        # Draws land directly in the grown blocks (typed int64 by the
        # destination slice) and the timeline is computed in place —
        # no concatenate copies, no post-hoc `+ current` pass over the
        # freshly drawn rows.  Per-campaign presize is the dominant
        # caller, so these whole-block passes are wall time.
        drawn = self._sets.shape[0]
        current = self._times[drawn]
        grown_sets = np.empty((drawn + rows, self.lanes), dtype=np.int64)
        grown_sets[:drawn] = self._sets
        grown_times = np.empty((drawn + 1 + rows, self.lanes),
                               dtype=np.int64)
        grown_times[:drawn + 1] = self._times
        times_new = grown_times[drawn + 1:]
        if not self.randomise:
            # Deterministic MID: the stream holds only set draws, so
            # one block draw covers the whole extension and the
            # timeline is an arithmetic ramp.
            self.rng.randrange_block(
                self.num_sets, rows, out=grown_sets[drawn:])
            step = self.mid if self.mid > 0 else 1
            ramp = np.arange(1, rows + 1, dtype=np.int64) * step
            np.add(current[None, :], ramp[:, None], out=times_new)
        else:
            # The stream strictly alternates set draw / gap draw, which
            # is exactly the pair-block contract: two in-place stepped
            # blocks replace 2*rows full-width masked draws.
            gaps = np.empty((rows, self.lanes), dtype=np.int64)
            self.rng.randrange_block_pair(
                self.num_sets, 2 * self.mid + 1, rows,
                out_first=grown_sets[drawn:], out_second=gaps,
            )
            # A zero gap still advances time by one cycle (at most
            # one forced eviction per cycle per core); the timeline is
            # the running sum of the clamped gaps, anchored at the
            # last already-drawn arrival by folding it into row 0.
            np.maximum(gaps, 1, out=gaps)
            gaps[0] += current
            np.cumsum(gaps, axis=0, out=times_new)
        self._sets = grown_sets
        self._times = grown_times
        self._top_min = int(self._times[-1].min())

    def presize(self, rows: int) -> None:
        """Pre-draw the timeline to ``rows`` (one grow, no repeat copies)."""
        have = self._sets.shape[0]
        if rows > have:
            self._grow(rows - have)

    def hint_rows(self) -> int:
        """Final timeline capacity — the next sweep's presize target.

        Capacity, not fired ranks: the drain extends the timeline
        until the *last drawn* arrival outruns ``now`` on every lane,
        so a timeline presized to bare consumption re-grows mid-sweep.
        The capacity the last sweep ended with reproduces a zero-grow
        sweep exactly.
        """
        return int(self._sets.shape[0])

    def fire_until(self, now: np.ndarray, mask: np.ndarray, llc) -> None:
        pending = mask & (self.next_time <= now)
        if not pending.any():
            return
        if llc._res is None:
            # LRU LLC: forced evictions demote through a shared stamp
            # counter whose value depends on the round structure, so
            # drain round by round, one eviction per pending lane.
            self._fire_rounds(now, mask, llc, pending)
            return
        fired = self._fired
        ids = self._ids
        # Extend the timeline until every masked lane's next undrawn
        # arrival lies beyond its `now`.  The scalar pre-filter (min
        # of the top row vs max `now`) skips the full check on almost
        # every drain; over-growing merely precomputes more of each
        # lane's private stream, draws stay in rank order.
        if self._top_min <= int(now.max()):
            while (mask & (self._times[-1] <= now)).any():
                self._grow(self._sets.shape[0])
        # Arrival times are strictly increasing per lane and `now` is
        # non-decreasing across drains, so each lane's pending ranks
        # are exactly rows [fired, new_fired) of the timeline.  One
        # vectorised round advances every pending lane by its first
        # rank — almost always the only one — and the few lanes with
        # deeper backlogs finish on compacted arrays.
        new_fired = fired + pending
        step = mask & (self._times[new_fired, ids] <= now)
        if step.any():
            # Deep backlogs are sparse: advance only those lanes, on
            # compacted arrays, instead of dragging every lane through
            # more full-width rounds.
            times = self._times
            act = np.nonzero(step)[0]
            sub = new_fired[act] + 1
            sub_now = now[act]
            more = times[sub, act] <= sub_now
            while more.any():
                sub += more
                more = times[sub, act] <= sub_now
            new_fired[act] = sub
        delta = new_fired - fired
        total = int(delta.sum())
        if total:
            ev_lanes = np.repeat(ids, delta)
            starts = np.cumsum(delta) - delta
            ev_ranks = np.arange(total) + np.repeat(fired - starts, delta)
            ev_sets = self._sets[ev_ranks, ev_lanes]
            llc.force_evict_events(ev_lanes, ev_sets, delta)
            self._fired = new_fired
            self.next_time = self._times[new_fired, ids]

    def _fire_rounds(self, now: np.ndarray, mask: np.ndarray, llc,
                     pending: np.ndarray) -> None:
        fired = self._fired
        ids = self._ids
        while True:
            sets = self._sets[fired, ids]
            llc.force_evict_at(sets, pending)
            fired += pending
            if int(fired.max()) >= self._sets.shape[0]:
                self._grow(self._sets.shape[0])
            self.next_time = self._times[fired, ids]
            pending = mask & (self.next_time <= now)
            if not pending.any():
                return


class _KernelCRGBank(_KernelCRG):
    """Every interfering core's CRG of one campaign, drained as one.

    Under EoM replacement the forced evictions of one drain commute
    (their writes are constants and their victim-way draws are
    state-independent), and each CRG owns a private per-lane MWC
    stream — so the k per-core generators can advance side by side as
    ``k * lanes`` *virtual* lanes.  The interleave is lane-major
    (virtual lane ``lane*k + crg``) so the flat event batch lists, for
    each lane, CRG 0's pending ranks, then CRG 1's, ... — exactly the
    order the scalar engine fires evictions and consumes victim draws
    in.  One bank drain replaces k per-CRG drains; the drain is numpy
    call-overhead-bound, so the merge cuts most of that overhead.

    Only built for EoM LLCs: the LRU drain (:meth:`_fire_rounds`)
    demotes through a shared stamp counter whose value depends on the
    per-CRG round structure, which merging would reorder.
    """

    __slots__ = ("k", "_real", "_rlanes", "_next_min")

    def __init__(self, crgs: Sequence[_KernelCRG]) -> None:
        k = len(crgs)
        first = crgs[0]
        self.k = k
        self.mid = first.mid
        self.randomise = first.randomise
        self.num_sets = first.num_sets
        self._rlanes = first.lanes
        self.lanes = first.lanes * k  # virtual lanes, for _grow
        self._ids = np.arange(self.lanes)
        self._real = np.repeat(np.arange(first.lanes), k)
        # Interleave the private streams and the already-drawn
        # timeline prefixes; per-stream draw sequences are untouched.
        rng = MWCArray.__new__(MWCArray)
        rng._x = np.stack([c.rng._x for c in crgs], axis=1).ravel()
        rng._c = np.stack([c.rng._c for c in crgs], axis=1).ravel()
        self.rng = rng
        rows = crgs[0]._sets.shape[0]
        self._sets = np.stack(
            [c._sets for c in crgs], axis=2).reshape(rows, -1)
        self._times = np.stack(
            [c._times for c in crgs], axis=2).reshape(rows + 1, -1)
        self._fired = np.zeros(self.lanes, dtype=np.int64)
        self.next_time = np.stack(
            [c.next_time for c in crgs], axis=1).ravel()
        self._top_min = int(self._times[-1].min())
        self._next_min = int(self.next_time.min())

    def fire_until(self, now: np.ndarray, mask: np.ndarray, llc) -> None:
        now_max = int(now.max())
        if now_max < self._next_min:
            return
        k = self.k
        rl = self._rlanes
        # Virtual-lane comparisons run as [real, k] broadcast views —
        # the interleave is lane-major, so a reshape of any fresh flat
        # vector lines real lanes up with `now`/`mask` columns without
        # materialising their k-fold repeats.
        nowc = now[:, None]
        maskc = mask[:, None]
        pending = ((self.next_time.reshape(rl, k) <= nowc) & maskc)
        if not pending.any():
            return
        fired = self._fired
        if self._top_min <= now_max:
            while ((self._times[-1].reshape(rl, k) <= nowc) & maskc).any():
                self._grow(self._sets.shape[0])
        # Compact to the pending virtual lanes up front: the advance
        # loop, rank gathers and event build all run on the (usually
        # much narrower) active set, full-width work stays at the two
        # comparisons above plus the scatter updates below.
        times = self._times
        act = np.nonzero(pending.reshape(-1))[0]
        act_fired = fired[act]
        real_act = self._real[act]
        sub = act_fired + 1
        sub_now = now[real_act]
        more = times[sub, act] <= sub_now
        if more.any():
            # Most active lanes owe exactly one event; compact again to
            # the deep-backlog minority so the advance loop's per-round
            # gathers shrink with the survivors instead of dragging the
            # whole active set through every round.
            idx = np.nonzero(more)[0]
            deep = act[idx]
            deep_now = sub_now[idx]
            deep_sub = sub[idx] + 1
            deep_more = times[deep_sub, deep] <= deep_now
            while deep_more.any():
                deep_sub += deep_more
                deep_more = times[deep_sub, deep] <= deep_now
            sub[idx] = deep_sub
            # Events sorted by virtual lane = sorted by real lane with
            # per-lane CRG order preserved; the LLC consumes one flat
            # batch with per-REAL-lane event counts.
            delta_act = sub - act_fired
            ev_v = np.repeat(act, delta_act)
            ev_lanes = self._real[ev_v]
            starts = np.cumsum(delta_act) - delta_act
            total = int(delta_act.sum())
            ev_ranks = np.arange(total) + np.repeat(act_fired - starts,
                                                    delta_act)
        else:
            # Every active lane owes exactly one event (the usual
            # drain): the event list IS the active set and the ranks
            # ARE the fired cursors — skip the repeat/cumsum build.
            ev_v = act
            ev_lanes = real_act
            ev_ranks = act_fired
        ev_sets = self._sets[ev_ranks, ev_v]
        delta_real = np.bincount(ev_lanes, minlength=rl)
        llc.force_evict_events(ev_lanes, ev_sets, delta_real)
        fired[act] = sub
        self.next_time[act] = times[sub, act]
        self._next_min = int(self.next_time.min())


def _tiny_chain_apply(op: ChainOp, a: np.ndarray, b: np.ndarray):
    """An unrolled applier for small two-term chains, or ``None``.

    The compile pool collapses a plan's chains to a handful of
    distinct ops, and the most frequent ones are tiny — one or two
    output rows of exactly two terms each (the ALU/write-back
    recurrences between accesses).  For those, the generic dense apply
    (fancy gather, broadcast add, reshape, axis reduction, scatter)
    costs several allocations to combine four numbers per lane; an
    unrolled ``add, add, maximum`` triple per row on two shared
    scratch vectors is both fewer calls and allocation-free.

    Returns ``None`` — caller falls back to the dense path — for wider
    shapes, and for the (never emitted today) case where a later row
    reads an earlier row's output: the unrolled writes go directly
    into the state matrix, so only each row's *own* aliasing is
    protected by the scratch vectors.
    """
    bounds = np.append(op.starts, op.src.shape[0])
    if op.rows_n > 2 or not (bounds[1:] - bounds[:-1] == 2).all():
        return None
    plan = []
    written: set = set()
    for i in range(op.rows_n):
        lo = int(bounds[i])
        s0, s1 = int(op.src[lo]), int(op.src[lo + 1])
        if written & {s0, s1}:
            return None
        plan.append((int(op.out_rows[i]), s0, int(op.weights[lo]),
                     s1, int(op.weights[lo + 1])))
        written.add(plan[-1][0])

    def apply(state: np.ndarray) -> None:
        for out, s0, w0, s1, w1 in plan:
            np.add(state[s0], w0, out=a)
            np.add(state[s1], w1, out=b)
            np.maximum(a, b, out=state[out])

    return apply


_MASK32 = np.uint64(0xFFFFFFFF)


class _LaneEnv:
    """One sweep's lane state: caches, EFL units and path counters."""

    __slots__ = (
        "lanes", "il1", "dl1", "llc", "acu", "crgs",
        "memory_writes", "bus_cycles", "llc_hit_latency", "memory_cycles",
    )

    def __init__(self, plan: "KernelTemplatePlan",
                 triples: Sequence[tuple]) -> None:
        lanes = len(triples)
        config = plan.config
        scenario = plan.scenario
        core = plan.core
        nc = config.num_cores
        seeds = np.array([seed for _index, seed, _attempt in triples],
                         dtype=np.uint64)

        # build_platform's SplitMix64(run_seed) draw schedule, 1-based:
        # IL1[c] consumes draws (2c+1, 2c+2), DL1[c] (2nc+2c+1,
        # 2nc+2c+2), the LLC (4nc+1, 4nc+2), the bus seed 4nc+3
        # (unused in analysis) and the EFL seed 4nc+4.  SplitMix64 is
        # counter-based, so only the analysed core's draws are computed.
        l1_sets = config.l1_geometry.num_sets
        l1_ways = config.l1_geometry.ways
        llc_sets = config.llc_geometry.num_sets
        llc_ways = config.llc_geometry.ways
        lru = not plan.eom

        def lane_cache(rii_k, rng_k, num_sets, ways, candidates):
            rng = MWCArray(splitmix64_draw(seeds, rng_k)) if plan.eom else None
            matrix = plan._sets_matrix(
                splitmix64_draw(seeds, rii_k), num_sets, lanes
            )
            return _KernelCache(lanes, num_sets, ways, candidates, matrix,
                                rng, lru)

        self.lanes = lanes
        self.il1 = lane_cache(2 * core + 1, 2 * core + 2, l1_sets, l1_ways,
                              l1_ways)
        self.dl1 = lane_cache(2 * nc + 2 * core + 1, 2 * nc + 2 * core + 2,
                              l1_sets, l1_ways, l1_ways)
        self.llc = lane_cache(4 * nc + 1, 4 * nc + 2, llc_sets, llc_ways,
                              plan.llc_candidates)

        self.acu = None
        self.crgs: List[object] = []
        if scenario.mechanism == "efl":
            # EFLController's inner SplitMix64(efl_seed): ACU seeds for
            # cores 0..nc-1 first, then CRG seeds for the interfering
            # cores in core order.
            efl_seeds = splitmix64_draw(seeds, 4 * nc + 4)
            mid = scenario.mid
            randomise = scenario.randomise_mid
            self.acu = _KernelACU(
                mid, randomise,
                MWCArray(splitmix64_draw(efl_seeds, core + 1)), lanes,
            )
            position = 0
            for other in range(nc):
                if other == core:
                    continue
                position += 1
                self.crgs.append(_KernelCRG(
                    mid, randomise,
                    MWCArray(splitmix64_draw(efl_seeds, nc + position)),
                    llc_sets, lanes,
                ))
            if len(self.crgs) > 1 and not lru:
                self.crgs = [_KernelCRGBank(self.crgs)]

        self.memory_writes = np.zeros(lanes, dtype=np.int64)
        self.bus_cycles = plan.bus_cycles
        self.llc_hit_latency = plan.llc_hit_latency
        self.memory_cycles = plan.memory_cycles

    def fill(self, line_id: int, issue: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
        """``MemoryPath.fill`` (analysis mode) for the masked lanes.

        Hit/miss/read accounting is NOT accumulated here: the LLC is
        probed only through this path, so its own demand counters are
        the path stats — :meth:`KernelTemplatePlan._finalise` reads
        them off the cache, and each fill pays only the compact
        dirty-victim update.
        """
        arrival = issue + self.bus_cycles
        llc = self.llc
        for crg in self.crgs:
            crg.fire_until(arrival, mask, llc)
        lookup = arrival + self.llc_hit_latency
        miss, ml, vdirty = llc.demand_compact(line_id, mask, write=False)
        if miss is None:  # demand saw no miss
            return lookup
        if self.acu is not None:
            grant = self.acu.grant_record(lookup, miss)
        else:
            grant = lookup
        # Dirty LLC victims are posted write-backs (no added latency).
        if vdirty.any():
            self.memory_writes[ml[vdirty]] += 1
        return np.where(miss, grant + self.memory_cycles, lookup)


# ----------------------------------------------------------------------
# the kernel runtime
# ----------------------------------------------------------------------
class KernelTemplatePlan:
    """One campaign's executable plan: program, kernel plan, constants.

    The expensive trace-derived half lives in a cacheable
    :class:`~repro.sim.plancache.TraceProgram` and its compiled
    :class:`KernelPlan` (both built once per ``(trace, config)`` by the
    :class:`~repro.sim.plancache.PlanCache`; the program is shareable
    across processes).  This class adds the cheap scenario-derived
    half — CP way restrictions, analysis latency constants, MID — and
    the lane sweep itself, which walks the compiled op schedule.
    """

    def __init__(self, config, scenario, core_id: int, program,
                 kernel_plan: Optional[KernelPlan] = None) -> None:
        self.config = config
        self.scenario = scenario
        self.core = core_id
        self.program = program
        self.task = program.task
        self.instructions = program.instructions
        self.fast_ihits = program.fast_ihits
        self.fast_dhits = program.fast_dhits
        self.lines = program.lines
        nc = config.num_cores
        if not 0 <= self.core < nc:
            raise ConfigurationError(f"core_id {self.core} out of range")
        self.llc_candidates = config.llc_ways
        if scenario.mechanism == "cp":
            counts = scenario.ways_per_core
            if len(counts) != nc:
                raise ConfigurationError(
                    f"CP scenario gives {len(counts)} per-core way counts "
                    f"for a {nc}-core system"
                )
            if counts[self.core] > config.llc_ways:
                raise ConfigurationError(
                    f"CP partition of {counts[self.core]} ways exceeds the "
                    f"LLC's {config.llc_ways}"
                )
            self.llc_candidates = counts[self.core]

        bus_penalty = config.analysis_bus_penalty
        if bus_penalty is None:
            bus_penalty = (nc - 1) * config.bus_latency
        self.bus_cycles = config.bus_latency + bus_penalty
        memory_penalty = config.analysis_memory_penalty
        if memory_penalty is None:
            memory_penalty = (nc - 1) * config.memory_latency
        self.memory_cycles = config.memory_latency + memory_penalty
        self.l1_hit = config.l1_hit_latency
        self.llc_hit_latency = config.llc_hit_latency
        self.random_placement = config.placement == "random"
        self.eom = config.replacement == "eom"
        self.kernel = (
            kernel_plan if kernel_plan is not None
            else compile_kernel_plan(program, config)
        )

    @classmethod
    def for_request(
        cls, request: RunRequest, plan_cache: Optional[PlanCache] = None
    ) -> "KernelTemplatePlan":
        """Build a plan for ``request``, compiling through a plan cache.

        Repeated campaigns over the same ``(trace, config)`` — a
        PWCETTable sweeping MID values and way counts — hit the cache
        and skip the trace and kernel compiles entirely.  One call
        resolves both halves: the cache returns the program alongside
        the kernel plan, so a campaign costs exactly one program
        hit/miss.
        """
        cache = plan_cache if plan_cache is not None else GLOBAL_PLAN_CACHE
        program, kernel_plan = cache.kernel_plan(
            request.traces[0], request.config, compile_kernel_plan
        )
        return cls(request.config, request.scenario, request.core_id,
                   program, kernel_plan)

    def _sets_matrix(self, rii_draws: np.ndarray, num_sets: int, lanes: int):
        """Placement matrix ``[line_id, lane] -> set`` for one cache."""
        if self.random_placement:
            riis = rii_draws & _MASK32  # build_platform truncates to _RII_BITS
            return set_index_array(self.lines[:, None], riis[None, :], num_sets)
        column = (self.lines % num_sets).astype(np.int64)
        return np.broadcast_to(column[:, None], (self.lines.shape[0], lanes))

    def execute(self, requests: Sequence[RunRequest]) -> List[RunOutcome]:
        """Run one lane chunk; one bit-identical outcome per request."""
        return self.execute_lanes(
            [(request.index, request.seed, 1) for request in requests]
        )

    def _finalise(
        self,
        triples: Sequence[tuple],
        env: _LaneEnv,
        end_wb: np.ndarray,
        started: float,
    ) -> List[RunOutcome]:
        """Package one sweep's lane state into per-run outcomes."""
        il1, dl1, llc, acu = env.il1, env.dl1, env.llc, env.acu
        wall_each = (perf_counter() - started) / env.lanes
        scenario_label = self.scenario.label()
        core = self.core
        outcomes = []
        for lane, (index, seed, attempt) in enumerate(triples):
            result = RunResult(
                scenario_label=scenario_label,
                mode=self.scenario.mode,
                cores=[
                    CoreResult(
                        core=core,
                        task=self.task,
                        cycles=int(end_wb[lane]),
                        instructions=self.instructions,
                        il1_misses=int(il1.misses[lane]),
                        il1_accesses=int(il1.hits[lane] + il1.misses[lane])
                        + self.fast_ihits,
                        dl1_misses=int(dl1.misses[lane]),
                        dl1_accesses=int(dl1.hits[lane] + dl1.misses[lane])
                        + self.fast_dhits,
                        efl_stall_cycles=int(acu.stall[lane]) if acu else 0,
                        efl_evictions=int(acu.evictions[lane]) if acu else 0,
                    )
                ],
                llc_hits=int(llc.hits[lane]),
                llc_misses=int(llc.misses[lane]),
                llc_forced_evictions=int(llc.forced[lane]),
                # Every LLC miss through the fill path is one memory
                # read, so the miss counter doubles as the read count.
                memory_reads=int(llc.misses[lane]),
                memory_writes=int(env.memory_writes[lane]),
                profile=None,
            )
            outcomes.append(
                RunOutcome(
                    index=index,
                    seed=seed,
                    result=result,
                    error=None,
                    wall_time_s=wall_each,
                    attempts=attempt,
                    checksum=result_checksum(index, seed, result),
                )
            )
        return outcomes

    def execute_lanes(self, triples: Sequence[tuple]) -> List[RunOutcome]:
        """Run one lane chunk of ``(index, seed, attempt)`` triples.

        The triple form is what the pool's wave dispatch ships to shard
        workers; ``attempt`` is carried through to the outcome so retry
        accounting survives the sharded path.
        """
        started = perf_counter()
        lanes = len(triples)
        env = _LaneEnv(self, triples)
        il1, dl1, llc = env.il1, env.dl1, env.llc
        # Warm repeats pre-draw every linearised stream to the last
        # sweep's high-water mark: one block draw replaces the
        # doubling ladder's repeated grow-and-copy passes.  Recorded
        # per (core, scenario) on the cached plan; rows are per-lane
        # consumption so the hint is lane-width-agnostic.
        growers = [
            (name, cursor)
            for name, cursor in (
                ("il1", il1._draws), ("dl1", dl1._draws),
                ("llc", llc._draws),
                ("acu", env.acu._draws if env.acu is not None else None),
            )
            if cursor is not None
        ]
        growers.extend(
            (f"crg{i}", crg) for i, crg in enumerate(env.crgs)
        )
        hint_key = (self.core, self.scenario)
        hints = self.kernel.hints.get(hint_key)
        if hints:
            for name, stream in growers:
                rows = hints.get(name)
                if rows:
                    stream.presize(rows)
        fill = env.fill
        memory_writes = env.memory_writes
        l1_hit = self.l1_hit

        state = np.zeros((N_STATE, lanes), dtype=np.int64)
        port_free = np.zeros(lanes, dtype=np.int64)
        scratch = np.empty(lanes, dtype=np.int64)
        chain_scratch = (
            np.empty((N_STATE, lanes), dtype=np.int64)
            if _NUMBA_CHAIN is not None else None
        )
        # The compile pool collapses the plan's chains to a handful of
        # distinct ops, each applied thousands of times per sweep.
        # Tiny two-term ops get an unrolled allocation-free applier;
        # the rest get a full-width weight matrix turning the
        # broadcast ``[t, 1] + [t, lanes]`` add — the dominant dense
        # apply cost — into a flat elementwise add.  Per-sweep (lanes
        # varies).
        wide = {}
        fast_apply = {}
        if chain_scratch is None:
            tiny_a = np.empty(lanes, dtype=np.int64)
            tiny_b = np.empty(lanes, dtype=np.int64)
            for op in self.kernel.chains():
                oid = id(op)
                if oid in wide or oid in fast_apply:
                    continue
                fn = _tiny_chain_apply(op, tiny_a, tiny_b)
                if fn is not None:
                    fast_apply[oid] = fn
                else:
                    wide[oid] = np.tile(op.pad_wcol, (1, lanes))
        # The LLC is never probed all-lanes and its forced-eviction
        # drain would pay scatter-subtract upkeep per event, so it
        # drops its residency tally; the L1 tallies back the segment
        # guard below as two tiny gathers.
        llc._res_count = None
        il1_count = il1._res_count
        dl1_count = dl1._res_count

        for segment, ops_run in self.kernel.schedule:
            if segment is not None and (
                    int(il1_count[segment.il1_lines].sum())
                    + int(dl1_count[segment.dl1_lines].sum())
                    == lanes * segment.n_lines):
                # Every touched line resident in every lane (tallies
                # cap at the lane count, so the summed tallies hit the
                # ceiling only when each line does): the whole window
                # is fast hits.  Apply the composed chain and settle
                # the deferred bookkeeping; nothing else (tags,
                # residency, draws, CRG arrivals) would have moved.
                op = segment.chain
                if op is not None:
                    if chain_scratch is not None:  # pragma: no cover
                        _NUMBA_CHAIN(state, op.out_rows, op.src, op.weights,
                                     op.starts, chain_scratch)
                    else:
                        fn = fast_apply.get(id(op))
                        if fn is not None:
                            fn(state)
                        else:
                            gathered = state[op.pad_src]
                            gathered += wide[id(op)]
                            state[op.out_rows] = gathered.reshape(
                                op.rows_n, op.width, lanes
                            ).max(axis=1)
                il1._accesses += segment.il1_accesses
                dl1._accesses += segment.dl1_accesses
                if segment.store_lines.size:
                    dl1._line_dirty[segment.store_lines] = True
                continue
            for op in ops_run:
                kind = op.kind
                if kind == "chain":
                    if chain_scratch is not None:  # pragma: no cover — numba
                        _NUMBA_CHAIN(state, op.out_rows, op.src, op.weights,
                                     op.starts, chain_scratch)
                        continue
                    fn = fast_apply.get(id(op))
                    if fn is not None:
                        fn(state)
                        continue
                    gathered = state[op.pad_src]
                    gathered += wide[id(op)]
                    state[op.out_rows] = gathered.reshape(
                        op.rows_n, op.width, lanes
                    ).max(axis=1)
                elif kind == "fetch":
                    # Fetch (latch frees when the previous instruction
                    # decoded) — the pipeline's fetch step, on state rows.
                    np.maximum(state[EF], state[SD], out=scratch)
                    if il1_count is not None and \
                            il1_count[op.line] == lanes:
                        # demand_full's all-resident fast path,
                        # inlined: the scalar tally compare and the
                        # deferred access count.
                        il1._accesses += 1
                        np.add(scratch, l1_hit, out=state[EF])
                        continue
                    miss, _vl, _vt, _vd = il1.demand_full(op.line, False)
                    np.add(scratch, l1_hit, out=state[EF])
                    if miss is not None:
                        issue = np.maximum(scratch, port_free)
                        done = fill(op.line, issue, miss)
                        np.copyto(port_free, done, where=miss)
                        np.copyto(state[EF], done, where=miss)
                else:
                    # Full DL1 access; decode already composed into the
                    # preceding chain, write-back into the following one.
                    np.add(state[SD], 1, out=scratch)
                    np.maximum(scratch, state[SW], out=state[SM])
                    if dl1_count is not None and \
                            dl1_count[op.line] == lanes:
                        # Inlined all-resident fast path; a store
                        # dirties the full row outright.
                        dl1._accesses += 1
                        if op.store:
                            dl1._line_dirty[op.line] = True
                        np.add(state[SM], l1_hit, out=state[EM])
                        continue
                    miss, vml, vlines, vdirty = dl1.demand_full(
                        op.line, op.store
                    )
                    np.add(state[SM], l1_hit, out=state[EM])
                    if miss is not None:
                        issue = np.maximum(state[SM], port_free)
                        done = fill(op.line, issue, miss)
                        np.copyto(port_free, done, where=miss)
                        np.copyto(state[EM], done, where=miss)
                        if vdirty.any():
                            # Dirty victims post compact write-backs:
                            # at most one per lane, so lane ids are
                            # distinct and fancy updates suffice.
                            wb_lanes = vml[vdirty]
                            resident = llc.writeback_at(
                                vlines[vdirty], wb_lanes
                            )
                            mem_lanes = wb_lanes[~resident]
                            if mem_lanes.size:
                                memory_writes[mem_lanes] += 1

        il1.finalise_counters()
        dl1.finalise_counters()
        recorded = self.kernel.hints.setdefault(hint_key, {})
        for name, stream in growers:
            rows = stream.hint_rows()
            if rows > recorded.get(name, 0):
                recorded[name] = rows
        return self._finalise(triples, env, state[EW], started)
