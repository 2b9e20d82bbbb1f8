"""Compile-once trace programs: the cacheable, shareable half of a plan.

The kernel engine's ``KernelTemplatePlan`` (:mod:`repro.sim.kernels`)
is two very different things glued together.  One half is
*trace-derived*: walking the instruction stream, unifying the instruction/data line-id
space (``np.unique``), precomputing the fast-hit shortcut masks and the
per-instruction step metadata.  That half is expensive (it touches
every instruction), depends only on ``(trace, config)``, and is
read-only during execution.  The other half is *scenario-derived*
(CP way counts, analysis latency constants, MID) and costs nothing.

This module extracts the first half into :class:`TraceProgram` so it
can be

* **cached** — a :class:`PlanCache` keyed by ``(trace identity,
  config)`` lets a Figure-3/4 sweep compile each benchmark's trace
  once and reuse it across every MID and way-count scenario, and

* **shared** — :class:`SharedProgram` ships the program's arrays to
  shard workers zero-copy through one
  :mod:`multiprocessing.shared_memory` block; workers rebuild their
  :class:`TraceProgram` as read-only NumPy views over the mapping
  instead of unpickling (or recompiling) anything.

Determinism: a program holds no PRNG state and is immutable after
compilation, so executing lanes against a cached or shared program is
bit-identical to compiling from scratch — the property
``tests/test_shard.py`` asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.isa import OpKind
from repro.cpu.pipeline import _EXEC_LATENCY_BY_KIND
from repro.errors import ConfigurationError
from repro.observability import current_telemetry

#: Array fields of a :class:`TraceProgram`, in shared-memory layout
#: order.  Everything else on a program is a small scalar that travels
#: inside the (pickled) :class:`SharedProgramHandle`.
SHARED_FIELDS = (
    "lines", "fetch_fast", "iline_ids", "mem_code", "mem_arg", "mem_store",
)


class TraceProgram:
    """The trace- and geometry-derived arrays of one kernel plan.

    Immutable after :meth:`compile`; safe to share between campaigns,
    lane chunks and (via :class:`SharedProgram`) worker processes.

    Array semantics (``n`` = instructions, ``m`` = distinct lines):

    * ``lines[m]`` — sorted unified line ids (instruction + data);
    * ``fetch_fast[n]`` — IL1 hot-line shortcut per instruction;
    * ``iline_ids[n]`` — instruction-line index into ``lines``;
    * ``mem_code[n]`` — 0 = fixed execute latency, 1 = fast DL1 hit,
      2 = full DL1 access;
    * ``mem_arg[n]`` — execute cycles (code 0) or data-line index
      (code 2);
    * ``mem_store[n]`` — whether the access writes (code 2 only).
    """

    def __init__(
        self,
        task: str,
        instructions: int,
        fast_ihits: int,
        fast_dhits: int,
        lines: np.ndarray,
        fetch_fast: np.ndarray,
        iline_ids: np.ndarray,
        mem_code: np.ndarray,
        mem_arg: np.ndarray,
        mem_store: np.ndarray,
    ) -> None:
        self.task = task
        self.instructions = instructions
        self.fast_ihits = fast_ihits
        self.fast_dhits = fast_dhits
        self.lines = lines
        self.fetch_fast = fetch_fast
        self.iline_ids = iline_ids
        self.mem_code = mem_code
        self.mem_arg = mem_arg
        self.mem_store = mem_store
        self._steps: Optional[List[tuple]] = None
        # Shared-memory mapping backing the arrays (attached programs
        # only); pinned here so the views outlive this object's users.
        self._shm = None

    @classmethod
    def compile(cls, trace, config) -> "TraceProgram":
        """Compile ``trace`` under ``config`` into a lane program.

        The program depends on the config only through the line size,
        the replacement policy (EoM enables the fast-hit shortcuts)
        and the DL1 write policy — but caching keys on the whole
        config, which is cheap and cannot alias.
        """
        eom = config.replacement == "eom"
        shift = config.line_size.bit_length() - 1
        n = len(trace)
        # Iterate the trace, as the scalar CoreRunner does, so trace
        # subclasses with instrumented/failing iteration behave the same.
        stream = list(trace)
        if len(stream) != n:
            raise ConfigurationError(
                f"trace {trace.name!r} yields {len(stream)} instructions "
                f"but reports len() == {n}"
            )
        kinds = np.fromiter((int(k) for _, k, _ in stream), dtype=np.int64, count=n)
        pcs = np.fromiter((int(p) for p, _, _ in stream), dtype=np.int64, count=n)
        addrs = np.fromiter(
            (int(a) if a is not None else 0 for _, _, a in stream),
            dtype=np.int64,
            count=n,
        )
        is_mem = (kinds == int(OpKind.LOAD)) | (kinds == int(OpKind.STORE))
        is_store = kinds == int(OpKind.STORE)
        ilines = pcs >> shift
        dlines = addrs >> shift
        # One unified line-id space across both address streams: the
        # LLC sees either, so its placement matrix covers the union.
        lines = np.unique(np.concatenate([ilines, dlines[is_mem]]))
        iline_ids = np.searchsorted(lines, ilines).astype(np.int64)
        dline_ids = np.searchsorted(lines, dlines).astype(np.int64)

        # Hot-line shortcut flags (CoreRunner._shortcut_il1/_shortcut_dl1):
        # with stateless EoM replacement the last-line latches update on
        # every access, so the fast-hit pattern is a pure function of
        # the trace — identical in every lane.
        fetch_fast = np.zeros(n, dtype=bool)
        if eom:
            fetch_fast[1:] = ilines[1:] == ilines[:-1]
        data_fast = np.zeros(n, dtype=bool)
        if eom and config.dl1_write_back:
            mem_pos = np.nonzero(is_mem)[0]
            if mem_pos.size:
                dm = dlines[mem_pos]
                prev = np.concatenate(([np.int64(-1)], dm[:-1]))
                data_fast[mem_pos] = (~is_store[mem_pos]) & (dm == prev)

        mem_code = np.zeros(n, dtype=np.int8)
        mem_arg = np.zeros(n, dtype=np.int64)
        mem_store = np.zeros(n, dtype=bool)
        mem_code[is_mem & data_fast] = 1
        full = is_mem & ~data_fast
        mem_code[full] = 2
        mem_arg[full] = dline_ids[full]
        mem_store[full] = is_store[full]
        nonmem = ~is_mem
        for kind in np.unique(kinds[nonmem]).tolist():
            # IndexError / TypeError for unknown kinds propagate, just
            # as the scalar per-instruction lookup would.
            mem_arg[nonmem & (kinds == kind)] = int(_EXEC_LATENCY_BY_KIND[kind])
        return cls(
            task=trace.name,
            instructions=n,
            fast_ihits=int(fetch_fast.sum()),
            fast_dhits=int(data_fast.sum()),
            lines=lines,
            fetch_fast=fetch_fast,
            iline_ids=iline_ids,
            mem_code=mem_code,
            mem_arg=mem_arg,
            mem_store=mem_store,
        )

    @property
    def steps(self) -> List[tuple]:
        """Per-instruction ``(fetch_fast, iline, code, arg, store)``
        tuples for the kernel compiler (built lazily, cached).

        Built from the arrays on both the parent and the worker side,
        so a shared program reconstructs the exact tuples a locally
        compiled one holds.
        """
        if self._steps is None:
            self._steps = list(zip(
                self.fetch_fast.tolist(),
                self.iline_ids.tolist(),
                self.mem_code.tolist(),
                self.mem_arg.tolist(),
                self.mem_store.tolist(),
            ))
        return self._steps

    def close(self) -> None:
        """Release a shared-memory-backed program's mapping.

        Drops the array views first so the mapping can unmap cleanly;
        the program must not be used afterwards.  No-op for locally
        compiled programs.
        """
        shm, self._shm = self._shm, None
        if shm is None:
            return
        for name in SHARED_FIELDS:
            setattr(self, name, None)
        self._steps = None
        shm.close()


class _CacheEntry:
    """One plan-cache slot: the trace it pins and what was compiled.

    ``trace`` is held strongly so the identity key can never be
    recycled while the entry (or a pin on it) lives.  ``program`` and
    ``kernel`` compile lazily and independently — a pin taken before
    the first campaign creates the slot without compiling anything.
    """

    __slots__ = ("trace", "program", "kernel", "pins")

    def __init__(self, trace) -> None:
        self.trace = trace
        self.program: Optional[TraceProgram] = None
        self.kernel = None
        self.pins = 0


class PlanCache:
    """LRU cache of compiled trace plans keyed by (trace, config).

    The key uses the trace's *identity* (compiling content fingerprints
    would cost as much as compiling the program) plus the config's
    value.  Each entry pins its trace object, so an id can never be
    recycled while its entry lives.  ``hits``/``misses`` count program
    lookups (``kernel_hits``/``kernel_misses`` the kernel-plan ones),
    letting sweeps assert the compile-once property.

    **Pinning:** a sweep that must not lose its working set mid-row —
    a :class:`~repro.analysis.experiments.PWCETTable` scanning one
    benchmark across many scenarios — takes :meth:`pin` on the
    ``(trace, config)`` it is using and releases it with :meth:`unpin`
    when the row completes.  Eviction skips pinned entries, even if
    that temporarily holds the cache above ``max_entries``; capacity is
    re-enforced when the pin releases.  Unpinning a key that holds no
    pin is a caller bug and raises (a silently ignored double-unpin is
    how stale-pin leaks hide).
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"plan cache needs max_entries >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.kernel_hits = 0
        self.kernel_misses = 0
        #: Pin accounting: a pin *hit* protects an entry that already
        #: holds a compiled program (the pin saved a potential
        #: recompile); a pin *miss* creates or pre-warms an empty slot.
        self.pin_hits = 0
        self.pin_misses = 0
        self._entries: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(trace, config) -> tuple:
        return (id(trace), repr(config))

    def _slot(self, trace, config) -> _CacheEntry:
        """The live entry for ``(trace, config)``, created if absent.

        A stale slot (same id, different object — impossible while the
        old entry pinned its trace, but checked defensively) is
        replaced wholesale, dropping any pins with the dead trace.
        """
        key = self._key(trace, config)
        entry = self._entries.get(key)
        if entry is None or entry.trace is not trace:
            entry = _CacheEntry(trace)
            self._entries[key] = entry
        self._entries.move_to_end(key)
        return entry

    def _evict(self) -> None:
        """Drop least-recently-used unpinned entries over capacity.

        Pinned entries are never dropped: a pinned-but-in-use program
        disappearing mid-sweep would silently recompile (or, for a
        shared program, dangle); the cache instead rides above
        ``max_entries`` until the pins release.
        """
        if len(self._entries) <= self.max_entries:
            return
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.pins == 0:
                del self._entries[key]
                if len(self._entries) <= self.max_entries:
                    return

    def program(self, trace, config) -> TraceProgram:
        """The compiled program of ``(trace, config)``; compile on miss."""
        telemetry = current_telemetry()
        entry = self._slot(trace, config)
        if entry.program is not None:
            self.hits += 1
            if telemetry is not None:
                telemetry.metrics.counter("plan_cache_hits").inc()
            return entry.program
        self.misses += 1
        if telemetry is not None:
            telemetry.metrics.counter("plan_cache_misses").inc()
        entry.program = TraceProgram.compile(trace, config)
        self._evict()
        return entry.program

    def kernel_plan(self, trace, config, compiler):
        """The ``(program, kernel plan)`` pair of ``(trace, config)``.

        ``compiler`` is :func:`repro.sim.kernels.compile_kernel_plan`
        (passed in to keep this module free of a dependency on the
        kernel layer); it receives ``(program, config)`` and runs only
        on a kernel-plan miss.  The program itself is resolved through
        :meth:`program` and returned alongside the kernel so the
        caller never performs a second program lookup — a kernel
        campaign costs exactly one program hit/miss, in-process or
        sharded, which is what lets sweeps assert compile-once.
        """
        telemetry = current_telemetry()
        program = self.program(trace, config)
        entry = self._slot(trace, config)
        if entry.kernel is not None:
            self.kernel_hits += 1
            if telemetry is not None:
                telemetry.metrics.counter("kernel_plan_hits").inc()
            return program, entry.kernel
        self.kernel_misses += 1
        if telemetry is not None:
            telemetry.metrics.counter("kernel_plan_misses").inc()
        entry.kernel = compiler(program, config)
        return program, entry.kernel

    def peek_kernel_stats(self, trace, config) -> Optional[dict]:
        """Compile stats of the cached kernel plan, or ``None``.

        A read-only peek for observability surfaces: no hit/miss
        counters move, the LRU order does not change and nothing
        compiles — reporting must not perturb the compile-once
        accounting the sweeps assert on.
        """
        entry = self._entries.get(self._key(trace, config))
        if entry is None or entry.trace is not trace or entry.kernel is None:
            return None
        return dict(entry.kernel.stats)

    # -- pinning -------------------------------------------------------
    def pin(self, trace, config) -> None:
        """Protect ``(trace, config)`` from eviction until unpinned."""
        entry = self._slot(trace, config)
        if entry.program is not None or entry.kernel is not None:
            self.pin_hits += 1
        else:
            self.pin_misses += 1
        entry.pins += 1

    def unpin(self, trace, config) -> None:
        """Release one :meth:`pin`; re-enforce capacity if it was the
        last.  Raises on a key that holds no pin."""
        key = self._key(trace, config)
        entry = self._entries.get(key)
        if entry is None or entry.trace is not trace or entry.pins <= 0:
            raise ConfigurationError(
                f"plan cache unpin without a matching pin for trace "
                f"{getattr(trace, 'name', trace)!r}"
            )
        entry.pins -= 1
        if entry.pins == 0:
            self._evict()

    def pinned(self, trace, config) -> bool:
        """Whether ``(trace, config)`` currently holds any pin."""
        key = self._key(trace, config)
        entry = self._entries.get(key)
        return entry is not None and entry.trace is trace and entry.pins > 0

    def snapshot(self) -> Tuple[int, int]:
        """Current ``(hits, misses)`` counters (for delta accounting)."""
        return (self.hits, self.misses)

    def clear(self) -> None:
        """Drop every unpinned entry (counters and pins are kept)."""
        for key in list(self._entries):
            if self._entries[key].pins == 0:
                del self._entries[key]


#: Process-wide default cache: campaigns that do not thread their own
#: cache (e.g. ad-hoc ``collect_execution_times`` calls) still reuse
#: compiled programs across invocations on the same trace objects.
GLOBAL_PLAN_CACHE = PlanCache()


# ----------------------------------------------------------------------
# zero-copy plan shipping over multiprocessing.shared_memory
# ----------------------------------------------------------------------
def _attach_untracked(name: str):
    """Attach to an existing block without resource-tracker ownership.

    The creating process owns the block's lifetime (close + unlink);
    an attaching worker must not register it with its resource tracker
    (bpo-39959): under ``fork`` every worker shares the parent's
    tracker, whose name cache is a plain set, so extra register /
    unregister pairs corrupt the parent's own registration.  Python
    3.13+ exposes ``track=False``; older versions suppress the
    registration call for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedProgramHandle:
    """Picklable recipe for attaching a :class:`SharedProgram`.

    Carries the block name, the array layout (field, dtype, shape,
    byte offset) and the program's scalar fields — a few hundred bytes
    regardless of trace size, versus pickling megabytes of step arrays
    per shard.
    """

    def __init__(
        self,
        name: str,
        layout: Tuple[Tuple[str, str, Tuple[int, ...], int], ...],
        task: str,
        instructions: int,
        fast_ihits: int,
        fast_dhits: int,
    ) -> None:
        self.name = name
        self.layout = layout
        self.task = task
        self.instructions = instructions
        self.fast_ihits = fast_ihits
        self.fast_dhits = fast_dhits

    def attach(self) -> TraceProgram:
        """Rebuild the program as read-only views over the mapping.

        The returned program pins the mapping (``program._shm``);
        workers let the OS reclaim it at exit, in-process users call
        :meth:`TraceProgram.close`.
        """
        shm = _attach_untracked(self.name)
        arrays: Dict[str, np.ndarray] = {}
        for field, dtype, shape, offset in self.layout:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            view.flags.writeable = False
            arrays[field] = view
        program = TraceProgram(
            task=self.task,
            instructions=self.instructions,
            fast_ihits=self.fast_ihits,
            fast_dhits=self.fast_dhits,
            **arrays,
        )
        program._shm = shm
        return program


class SharedProgram:
    """One program's arrays packed into a single shared-memory block.

    Created by the dispatching parent; disposed by the same parent
    after the last wave (workers only ever attach).  The layout packs
    the :data:`SHARED_FIELDS` arrays back to back at 8-byte-aligned
    offsets.
    """

    def __init__(self, shm, handle: SharedProgramHandle) -> None:
        self._shm = shm
        self.handle = handle

    @classmethod
    def create(cls, program: TraceProgram) -> "SharedProgram":
        from multiprocessing import shared_memory

        arrays = [
            (field, np.ascontiguousarray(getattr(program, field)))
            for field in SHARED_FIELDS
        ]
        layout = []
        offset = 0
        for field, array in arrays:
            offset = (offset + 7) & ~7  # 8-byte alignment
            layout.append((field, array.dtype.str, array.shape, offset))
            offset += array.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        try:
            for (field, array), (_f, dtype, shape, off) in zip(arrays, layout):
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off
                )
                view[...] = array
                del view  # views must not outlive create(): close() would fail
        except Exception:
            shm.close()
            shm.unlink()
            raise
        handle = SharedProgramHandle(
            name=shm.name,
            layout=tuple(layout),
            task=program.task,
            instructions=program.instructions,
            fast_ihits=program.fast_ihits,
            fast_dhits=program.fast_dhits,
        )
        return cls(shm, handle)

    def dispose(self) -> None:
        """Close and unlink the block (creator side; safe to call twice)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover — already gone
                pass
