"""Cycle-accounting model of the 4-stage in-order pipeline.

The paper's cores (§4.1) are 4-stage in-order: **fetch** (1 cycle on an
IL1 hit, memory-path latency on a miss), **decode** (1 cycle),
**memory/execute** (memory operations access the DL1: 1 cycle on hit,
memory-path latency on miss; other operations take their fixed execute
latency) and **write-back** (1 cycle).

Rather than ticking every pipeline register each cycle, the model keeps
the start/completion times of the last instruction in each stage and
applies the in-order dataflow recurrence of a pipeline with
*single-entry stage latches*:

    start_F(i) = max(end_F(i-1), start_D(i-1))   # latch frees when i-1 enters D
    end_F(i)   = start_F(i) + fetch_latency(pc_i, start_F(i))
    start_D(i) = max(end_F(i), start_M(i-1));  end_D(i) = start_D(i) + 1
    start_M(i) = max(end_D(i), start_W(i-1));  end_M(i) = start_M(i) + mem_latency(...)
    start_W(i) = max(end_M(i), end_W(i-1));    end_W(i) = start_W(i) + 1

The latch backpressure (``start_D(i-1)`` / ``start_M(i-1)`` /
``start_W(i-1)`` terms) matters: without it the fetch stream would run
arbitrarily far ahead of a stalled memory stage, which a 4-stage
machine with one instruction per latch physically cannot do — and
which would present shared-resource requests out of time order.
Latencies are supplied by callbacks because they depend on *when* the
access happens (cache state, bus occupancy, EFL stalls).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cpu.isa import EXEC_LATENCY, OpKind, is_memory_op
from repro.errors import SimulationError

#: Execute-stage latency indexed by the integer op kind; ``None`` marks
#: the memory kinds, whose latency is dynamic.  Built once at import so
#: the per-instruction loop avoids enum construction and dict lookups.
_EXEC_LATENCY_BY_KIND = [
    EXEC_LATENCY.get(OpKind(value)) if not is_memory_op(value) else None
    for value in sorted(int(k) for k in OpKind)
]

#: STORE as a plain int so the per-instruction loop compares ints, not
#: enum members.
_STORE_KIND = int(OpKind.STORE)

#: fetch_latency(pc, time) -> cycles the fetch stage holds the instruction.
FetchLatencyFn = Callable[[int, int], int]
#: mem_latency(address, is_store, time) -> cycles the memory stage holds it.
MemLatencyFn = Callable[[int, bool, int], int]


class InOrderPipeline:
    """Timing state of one 4-stage in-order core.

    Parameters
    ----------
    fetch_latency:
        Callback charged for every instruction fetch.
    mem_latency:
        Callback charged for every LOAD/STORE data access.
    start_time:
        Cycle at which the core leaves reset.
    """

    def __init__(
        self,
        fetch_latency: FetchLatencyFn,
        mem_latency: MemLatencyFn,
        start_time: int = 0,
    ) -> None:
        if start_time < 0:
            raise SimulationError(f"negative start time {start_time}")
        self._fetch_latency = fetch_latency
        self._mem_latency = mem_latency
        self._end_fetch = start_time
        self._start_decode = start_time
        self._start_mem = start_time
        self._start_wb = start_time
        self._end_wb = start_time
        self.instructions = 0

    @property
    def time(self) -> int:
        """Completion cycle of the last retired instruction."""
        return self._end_wb

    @property
    def frontier(self) -> int:
        """Earliest cycle at which the *next* instruction can start fetch.

        The multicore scheduler orders cores by this frontier (and by
        their port's next free cycle), which keeps shared-resource
        requests approximately time-ordered across cores.
        """
        return self._end_fetch

    def step(self, pc: int, kind: int, address: Optional[int]) -> int:
        """Advance the pipeline by one dynamic instruction.

        Returns the write-back completion cycle of the instruction.
        The simulator's burst loop
        (:meth:`repro.sim.simulator.CoreRunner.run_until`) runs the same
        recurrence on local variables; this method is the plain form
        the reference scheduler in :mod:`repro.sim.reference` steps.
        """
        # Fetch: the fetch latch frees when the previous instruction
        # enters decode (single-entry latch backpressure).
        start_fetch = max(self._end_fetch, self._start_decode)
        self._end_fetch = start_fetch + self._fetch_latency(pc, start_fetch)

        # Decode: 1 cycle; may not start until the previous instruction
        # vacated the decode latch by entering the memory stage.
        start_decode = max(self._end_fetch, self._start_mem)
        self._start_decode = start_decode
        end_decode = start_decode + 1

        # Memory / execute: blocked until the previous instruction
        # entered write-back.
        start_mem = max(end_decode, self._start_wb)
        self._start_mem = start_mem
        try:
            fixed = _EXEC_LATENCY_BY_KIND[kind]
        except (IndexError, TypeError):
            raise SimulationError(f"unknown op kind {kind!r}") from None
        if fixed is None:
            latency = self._mem_latency(address, kind == OpKind.STORE, start_mem)
        else:
            latency = fixed
        if latency < 1:
            raise SimulationError(
                f"stage latency must be >= 1 cycle, callback returned {latency}"
            )
        end_mem = start_mem + latency

        # Write-back: 1 cycle, in order.
        start_wb = max(end_mem, self._end_wb)
        self._start_wb = start_wb
        self._end_wb = start_wb + 1

        self.instructions += 1
        return self._end_wb

    def __repr__(self) -> str:
        return (
            f"InOrderPipeline(time={self._end_wb}, "
            f"instructions={self.instructions})"
        )
