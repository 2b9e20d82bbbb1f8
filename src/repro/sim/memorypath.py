"""The shared memory path: bus → LLC → memory controller, with EFL.

Every L1 miss (and every write-through store) travels this path.  One
:class:`MemoryPath` instance is shared by all cores of a platform; it
owns the transaction choreography:

Deployment mode (real timing):

1. bus transfer with lottery arbitration (2 cycles + contention);
2. LLC lookup (10 cycles);
3. on an LLC miss: the core's EFL eviction grant (EAB stall, if EFL is
   active), then the memory controller serves the fill (100 cycles +
   channel occupancy); LLC victim write-backs are posted to memory.

Analysis mode (time-composable upper bounds, Figure 1 of the paper):

1. the bus charges the worst arbitration round (lose once to every
   other core — the bound of Jalle et al. [13]);
2. with EFL, the CRGs' artificial force-miss evictions accumulated
   since the analysed task's last access are applied to the LLC first,
   so the task under analysis observes maximum-rate eviction
   interference (§3.4);
3. on an LLC miss: the EFL grant, then the memory controller's
   composable worst case (wait for every other core once — Paolieri et
   al. [25]).

Design simplification (documented in DESIGN.md): L1 dirty-victim
write-backs are *posted* and treated as write-no-allocate at the LLC —
they update the line if it is resident, otherwise they forward to
memory.  They therefore never trigger LLC evictions and never interact
with EFL, keeping the paper's "one eviction per demand miss" accounting
exact while avoiding recursive eviction cascades.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.core.config import OperationMode
from repro.errors import SimulationError
from repro.sim.platform import Platform
from repro.sim.profiler import HotPathProfiler


class MemoryPath:
    """Transaction engine for the shared levels of one platform.

    ``profiler`` (optional) receives per-component cycle and wall-time
    attribution for every transaction; when ``None`` (the default) the
    transactions run on a branch-free fast path.
    """

    def __init__(self, platform: Platform, profiler: Optional[HotPathProfiler] = None) -> None:
        self.platform = platform
        self._analysis = platform.mode is OperationMode.ANALYSIS
        self.llc_hits = 0
        self.llc_misses = 0
        self._profiler = profiler
        # Per-transaction hot attributes, resolved once: the platform's
        # shared components never change over the path's lifetime.
        self._llc_view = platform.llc_view
        self._efl = platform.efl
        config = platform.config
        self._llc_hit_latency = config.llc_hit_latency
        bus_penalty = config.analysis_bus_penalty
        if bus_penalty is None:
            bus_penalty = (config.num_cores - 1) * config.bus_latency
        #: total analysis-time bus transfer charge (transfer + UB).
        self._analysis_bus_cycles = config.bus_latency + bus_penalty
        memory_penalty = config.analysis_memory_penalty
        if memory_penalty is None:
            memory_penalty = (config.num_cores - 1) * config.memory_latency
        #: total analysis-time memory read charge (service + UB).
        self._analysis_memory_cycles = config.memory_latency + memory_penalty

    # ------------------------------------------------------------------
    # internal legs
    # ------------------------------------------------------------------
    def _bus_done(self, core: int, time: int) -> int:
        """Completion cycle of the core→LLC bus transfer."""
        if self._analysis:
            return time + self._analysis_bus_cycles
        return self.platform.bus.request(core, time)

    def _memory_read_done(self, core: int, time: int) -> int:
        """Completion cycle of a demand line fill from memory."""
        memctrl = self.platform.memctrl
        if self._analysis:
            memctrl.requests += 1
            memctrl.memory.reads += 1
            return time + self._analysis_memory_cycles
        return memctrl.read(core, time)

    def _post_memory_write(self, core: int, time: int) -> None:
        """Post a write-back toward memory (never stalls the core)."""
        memctrl = self.platform.memctrl
        if self._analysis:
            memctrl.worst_case_writeback(time)
        else:
            memctrl.write_back(core, time)

    # ------------------------------------------------------------------
    # public transactions
    # ------------------------------------------------------------------
    def fill(self, core: int, line: int, time: int, write: bool = False) -> int:
        """Serve an L1 demand miss for ``line`` issued at ``time``.

        Returns the cycle at which the line is available to the L1.
        ``write`` marks the LLC line dirty when the miss came from a
        store (write-allocate propagation).
        """
        if time < 0:
            raise SimulationError(f"fill at negative time {time}")
        if self._profiler is not None:
            return self._fill_profiled(core, line, time, write)
        arrival = self._bus_done(core, time)
        efl = self._efl
        if efl is not None:
            # Analysis mode: the artificial co-runners evicted at
            # maximum rate while this core computed locally; apply
            # their effect before looking up.  No-op in deployment.
            efl.inject_interference(arrival)

        lookup_done = arrival + self._llc_hit_latency
        # One access serves the lookup and, on a miss, the fill: nothing
        # between the lookup and the fill (EAB grant, memory read)
        # touches the LLC or its replacement PRNG.
        result = self._llc_view.access(core, line, write=write)
        if result.hit:
            self.llc_hits += 1
            return lookup_done

        # LLC miss: the eviction is gated by the core's EAB.
        self.llc_misses += 1
        if efl is not None:
            grant = efl.grant_eviction(core, lookup_done)
            efl.record_eviction(core, grant)
        else:
            grant = lookup_done
        done = self._memory_read_done(core, grant)
        if result.eviction is not None and result.eviction.dirty:
            self._post_memory_write(core, done)
        return done

    def _fill_profiled(self, core: int, line: int, time: int, write: bool) -> int:
        """The :meth:`fill` choreography with per-leg attribution.

        Kept as an exact mirror of the fast path — same calls, same
        order, same returned times — so profiling never perturbs the
        simulated timing (asserted by the hot-path equivalence tests).
        """
        prof = self._profiler
        t0 = perf_counter()
        arrival = self._bus_done(core, time)
        t1 = perf_counter()
        prof.account("bus", arrival - time, t1 - t0)
        efl = self._efl
        if efl is not None:
            efl.inject_interference(arrival)
            t2 = perf_counter()
            prof.account("efl", 0, t2 - t1)
            t1 = t2

        lookup_done = arrival + self._llc_hit_latency
        result = self._llc_view.access(core, line, write=write)
        if result.hit:
            self.llc_hits += 1
            prof.account("llc", self._llc_hit_latency, perf_counter() - t1)
            return lookup_done

        self.llc_misses += 1
        prof.account("llc", self._llc_hit_latency, perf_counter() - t1)
        if efl is not None:
            t1 = perf_counter()
            grant = efl.grant_eviction(core, lookup_done)
            efl.record_eviction(core, grant)
            # The EAB stall: cycles between LLC lookup completion and
            # the eviction grant.
            prof.account("efl", grant - lookup_done, perf_counter() - t1)
        else:
            grant = lookup_done
        t1 = perf_counter()
        done = self._memory_read_done(core, grant)
        if result.eviction is not None and result.eviction.dirty:
            self._post_memory_write(core, done)
        prof.account("memctrl", done - grant, perf_counter() - t1)
        return done

    def l1_writeback(self, core: int, line: int, time: int) -> None:
        """Post a dirty L1 victim toward the LLC (write-no-allocate).

        If the line is still resident in the (non-inclusive) LLC it is
        updated and marked dirty; otherwise the write-back forwards to
        memory.  Posted: the core never waits for it.
        """
        prof = self._profiler
        t0 = perf_counter() if prof is not None else 0.0
        llc_view = self._llc_view
        if llc_view.probe(core, line):
            llc_view.access(core, line, write=True)
            if prof is not None:
                prof.account("llc", 0, perf_counter() - t0)
        else:
            self._post_memory_write(core, time)
            if prof is not None:
                prof.account("memctrl", 0, perf_counter() - t0)

    def store_through(self, core: int, line: int, time: int) -> int:
        """Write-through store (A2 ablation): bus + LLC write.

        The store updates the LLC if the line is resident (hit) and
        otherwise forwards to memory without allocating — the paper's
        footnote 5 notes that letting write-through stores allocate
        (and hence evict) in the LLC would make EFL stalls pervasive.
        Returns the cycle at which the store leaves the core's port.
        """
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
        llc_view = self._llc_view
        if llc_view.probe(core, line):
            llc_view.access(core, line, write=True)
            self.llc_hits += 1
        else:
            self.llc_misses += 1
            self._post_memory_write(core, lookup_done)
        if prof is not None:
            prof.account("llc", self._llc_hit_latency, perf_counter() - t0)
        return lookup_done
