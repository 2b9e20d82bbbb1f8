"""The unoptimised reference hot path, kept runnable for comparison.

The per-instruction simulation core (``Cache.access``, placement
hashing, the EoM victim draw, the L1 callbacks, the LLC lookups of
``MemoryPath``, the core scheduler) carries optimisations — a per-(RII,
line) set-index memo, an inlined victim draw, int outcome codes instead
of ``AccessResult`` objects, one lookup per cache level, burst
scheduling with the pipeline and the DL1 hits and misses inlined —
that must be *invisible in the data*: every optimisation is required
to produce bit-identical execution times.

This module preserves the pre-optimisation implementations verbatim and
exposes :func:`reference_hot_path`, a context manager that swaps them
back in.  Its scheduler steps every core one instruction at a time
through the plain :meth:`~repro.cpu.pipeline.InOrderPipeline.step`,
which the burst loop never calls.  Two consumers rely on it:

* ``tests/test_hotpath.py`` proves optimised and reference paths
  produce bit-identical :class:`~repro.sim.simulator.RunResult`s
  (the hot-path analogue of the backend-equivalence test);
* ``benchmarks/test_perf_simrun.py`` measures the speedup of the
  optimised path over this baseline and records it in
  ``BENCH_simrun.json``.

The reference implementations are deliberately *copies*, not calls into
shared helpers: sharing code with the optimised path would silently
inherit its speedups and make the measured ratio meaningless.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from time import perf_counter

from repro.errors import SimulationError
from repro.mem.cache import AccessResult, Cache, Eviction
from repro.mem.placement import RandomPlacement
from repro.sim import simulator
from repro.sim.memorypath import MemoryPath
from repro.sim.simulator import CoreRunner, raise_cycle_budget_exceeded


def _reference_set_index(self, line_addr: int) -> int:
    """Pre-memoisation ``RandomPlacement.set_index``: hash every call."""
    key = (line_addr * 0x9E3779B97F4A7C15 + self.rii * 0xC2B2AE3D27D4EB4F) \
        & 0xFFFFFFFFFFFFFFFF
    z = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return ((z ^ (z >> 31)) * self.num_sets) >> 64


def _reference_probe(self, line, ways=None):
    """Pre-optimisation ``Cache.probe``."""
    set_index = self.placement.set_index(line)
    tags = self._tags[set_index]
    for way in (ways if ways is not None else self._all_ways):
        if tags[way] == line:
            return True
    return False


def _reference_access(self, line, write=False, ways=None):
    """Pre-optimisation ``Cache.access``: per-call ``tuple(ways)``
    allocation and an indirect ``choose_victim`` call on every miss."""
    set_index = self.placement.set_index(line)
    tags = self._tags[set_index]
    candidates = tuple(ways) if ways is not None else self._all_ways
    for way in candidates:
        if tags[way] == line:
            self.stats.hits += 1
            if not self._stateless_repl:
                self.replacement.on_hit(set_index, way)
            if write and self.write_back:
                self._dirty[set_index][way] = True
            return AccessResult(True, set_index, None)

    self.stats.misses += 1
    eviction = None
    target_way = self.replacement.choose_victim(set_index, candidates)
    victim_line = tags[target_way]
    if victim_line is not None:
        victim_dirty = self._dirty[set_index][target_way]
        eviction = Eviction(line=victim_line, dirty=victim_dirty)
        self.stats.evictions += 1
        if victim_dirty:
            self.stats.writebacks += 1
    tags[target_way] = line
    self._dirty[set_index][target_way] = bool(write and self.write_back)
    if not self._stateless_repl:
        self.replacement.on_fill(set_index, target_way)
    return AccessResult(False, set_index, eviction)


def _reference_force_eviction(self, set_index, ways=None):
    """Pre-optimisation ``Cache.force_eviction`` (with the consistent
    stats accounting — stats never affect timing)."""
    if not 0 <= set_index < self.geometry.num_sets:
        raise SimulationError(
            f"{self.name}: set index {set_index} out of range"
        )
    candidates = tuple(ways) if ways is not None else self._all_ways
    way = self.replacement.choose_victim(set_index, candidates)
    self.stats.forced_evictions += 1
    eviction = self._displace(set_index, way)
    return eviction if eviction is not None else Eviction(line=None, dirty=False)


def _reference_llc_ways(path, core):
    """``core``'s LLC ways (``None``: all), resolved per access."""
    partitioned = path.platform.llc_partition
    return None if partitioned is None else partitioned.partition.ways_for(core)


def _reference_fill(self, core, line, time, write=False):
    """Pre-optimisation ``MemoryPath.fill``: an LLC probe, then a
    second lookup through ``access`` for the hit or the fill."""
    if time < 0:
        raise SimulationError(f"fill at negative time {time}")
    if self._profiler is not None:
        return self._fill_profiled(core, line, time, write)
    arrival = self._bus_done(core, time)
    efl = self._efl
    if efl is not None:
        efl.inject_interference(arrival)

    lookup_done = arrival + self._llc_hit_latency
    llc, ways = self.platform.llc, _reference_llc_ways(self, core)
    if llc.probe(line, ways):
        llc.access(line, write=write, ways=ways)
        self.llc_hits += 1
        return lookup_done

    self.llc_misses += 1
    if efl is not None:
        grant = efl.grant_eviction(core, lookup_done)
        efl.record_eviction(core, grant)
    else:
        grant = lookup_done
    done = self._memory_read_done(core, grant)
    result = llc.access(line, write=write, ways=ways)
    if result.eviction is not None and result.eviction.dirty:
        self._post_memory_write(core, done)
    return done


def _reference_l1_writeback(self, core, line, time):
    """Pre-optimisation ``MemoryPath.l1_writeback``: probe, then access."""
    prof = self._profiler
    t0 = perf_counter() if prof is not None else 0.0
    llc, ways = self.platform.llc, _reference_llc_ways(self, core)
    if llc.probe(line, ways):
        llc.access(line, write=True, ways=ways)
        if prof is not None:
            prof.account("llc", 0, perf_counter() - t0)
    else:
        self._post_memory_write(core, time)
        if prof is not None:
            prof.account("memctrl", 0, perf_counter() - t0)


def _reference_store_through(self, core, line, time):
    """Pre-optimisation ``MemoryPath.store_through``: probe, then access."""
    if time < 0:
        raise SimulationError(f"store at negative time {time}")
    prof = self._profiler
    t0 = perf_counter() if prof is not None else 0.0
    arrival = self._bus_done(core, time)
    if prof is not None:
        t1 = perf_counter()
        prof.account("bus", arrival - time, t1 - t0)
        t0 = t1
    efl = self._efl
    if efl is not None:
        efl.inject_interference(arrival)
        if prof is not None:
            t1 = perf_counter()
            prof.account("efl", 0, t1 - t0)
            t0 = t1
    lookup_done = arrival + self._llc_hit_latency
    llc, ways = self.platform.llc, _reference_llc_ways(self, core)
    if llc.probe(line, ways):
        llc.access(line, write=True, ways=ways)
        self.llc_hits += 1
    else:
        self.llc_misses += 1
        self._post_memory_write(core, lookup_done)
    if prof is not None:
        prof.account("llc", self._llc_hit_latency, perf_counter() - t0)
    return lookup_done


def _reference_fetch_latency(self, pc, time):
    """Pre-optimisation ``CoreRunner._fetch_latency``: ``Cache.access``."""
    line = pc >> self._line_shift
    prof = self._profiler
    if prof is None:
        result = self.il1.access(line)
    else:
        t0 = perf_counter()
        result = self.il1.access(line)
        wall = perf_counter() - t0
    if result.hit:
        if prof is not None:
            prof.account("l1", self._l1_hit, wall)
        return self._l1_hit
    if prof is not None:
        prof.account("l1", 0, wall)
    issue = time if time >= self._port_free else self._port_free
    done = self.path.fill(self.core_id, line, issue)
    self._port_free = done
    return done - time


def _reference_mem_latency(self, address, is_store, time):
    """Pre-optimisation ``CoreRunner._mem_latency``: ``Cache.access``."""
    line = address >> self._line_shift
    prof = self._profiler
    if is_store and not self._wb_dl1:
        if self.dl1.probe(line):
            self.dl1.access(line)
        issue = time if time >= self._port_free else self._port_free
        done = self.path.store_through(self.core_id, line, issue)
        self._port_free = done
        return done - time
    if prof is None:
        result = self.dl1.access(line, write=is_store)
    else:
        t0 = perf_counter()
        result = self.dl1.access(line, write=is_store)
        wall = perf_counter() - t0
    if result.hit:
        if prof is not None:
            prof.account("l1", self._l1_hit, wall)
        return self._l1_hit
    if prof is not None:
        prof.account("l1", 0, wall)
    issue = time if time >= self._port_free else self._port_free
    done = self.path.fill(self.core_id, line, issue)
    self._port_free = done
    if result.eviction is not None and result.eviction.dirty:
        self.path.l1_writeback(self.core_id, result.eviction.line, done)
    return done - time


def _reference_core_step(runner):
    """Pre-burst ``CoreRunner.step``: execute one dynamic instruction."""
    if runner.finished:
        raise SimulationError(
            f"core {runner.core_id} stepped past the end of {runner.trace.name!r}"
        )
    pc, kind, address = next(runner._iter)
    runner.pipeline.step(pc, kind, address)
    runner._remaining -= 1


def _reference_run_to_completion(self, cycle_budget=None):
    """Pre-burst ``CoreRunner.run_to_completion``: one
    ``InOrderPipeline.step`` call per instruction."""
    pipeline_step = self.pipeline.step
    if cycle_budget is None:
        for pc, kind, address in self._iter:
            pipeline_step(pc, kind, address)
        self._remaining = 0
        return
    pipeline = self.pipeline
    for pc, kind, address in self._iter:
        pipeline_step(pc, kind, address)
        self._remaining -= 1
        if pipeline.time > cycle_budget:
            raise_cycle_budget_exceeded(
                self.trace.name, self.core_id, pipeline.time,
                pipeline.instructions, cycle_budget,
            )
    self._remaining = 0


def _reference_run_cores(runners, cycle_budget):
    """Pre-burst co-run scheduler: pop the core with the smallest
    ``(schedule_key, core_id)``, step it one instruction, push it back."""
    heap = [(runner.schedule_key, runner.core_id, runner) for runner in runners]
    heapq.heapify(heap)
    if cycle_budget is None:
        while heap:
            _key, _core, runner = heapq.heappop(heap)
            _reference_core_step(runner)
            if not runner.finished:
                heapq.heappush(heap, (runner.schedule_key, runner.core_id, runner))
    else:
        while heap:
            _key, _core, runner = heapq.heappop(heap)
            _reference_core_step(runner)
            if runner.pipeline.time > cycle_budget:
                raise_cycle_budget_exceeded(
                    runner.trace.name, runner.core_id, runner.pipeline.time,
                    runner.pipeline.instructions, cycle_budget,
                )
            if not runner.finished:
                heapq.heappush(heap, (runner.schedule_key, runner.core_id, runner))


#: (owner, attribute, reference implementation) for every hot-path
#: function the optimisation passes touched.
_REFERENCE_PATCHES = (
    (RandomPlacement, "set_index", _reference_set_index),
    (Cache, "probe", _reference_probe),
    (Cache, "access", _reference_access),
    (Cache, "force_eviction", _reference_force_eviction),
    (MemoryPath, "fill", _reference_fill),
    (MemoryPath, "l1_writeback", _reference_l1_writeback),
    (MemoryPath, "store_through", _reference_store_through),
    (CoreRunner, "_fetch_latency", _reference_fetch_latency),
    (CoreRunner, "_mem_latency", _reference_mem_latency),
    (CoreRunner, "run_to_completion", _reference_run_to_completion),
    (simulator, "_run_cores", _reference_run_cores),
)


@contextmanager
def reference_hot_path():
    """Swap the unoptimised hot-path implementations in for the block.

    Platforms must be *built inside* the block (caches bind nothing at
    construction that the patch misses, but building inside keeps the
    measurement honest end to end).  Restores the optimised
    implementations on exit, even on error.
    """
    saved = [
        (owner, name, owner.__dict__[name]) for owner, name, _impl in _REFERENCE_PATCHES
    ]
    try:
        for owner, name, impl in _REFERENCE_PATCHES:
            setattr(owner, name, impl)
        yield
    finally:
        for owner, name, impl in saved:
            setattr(owner, name, impl)
