"""Dynamic instruction traces and the builder kernels use to emit them.

A :class:`Trace` is the complete dynamic instruction stream of one run
of a benchmark: for every executed instruction its program counter, its
:class:`~repro.cpu.isa.OpKind` and, for memory operations, the byte
address touched.  Traces are deterministic — all randomness in the
platform lives in the hardware (placement, replacement, arbitration,
EFL), never in the program, exactly as in the paper's methodology where
the *same* benchmark binary is run many times.

:class:`TraceBuilder` gives kernels a tiny assembler-like API: it
tracks a current program counter, advances it by one instruction width
per emitted operation, and rewinds it on loop back-edges so that loop
bodies re-execute at the same PCs (which is what makes the IL1 behave
realistically).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.cpu.isa import INSTRUCTION_BYTES, OpKind, is_memory_op
from repro.errors import TraceError

#: The kinds :func:`~repro.cpu.isa.is_memory_op` accepts, as a set so
#: trace validation costs one membership test per instruction.
_MEMORY_KINDS = frozenset(kind for kind in OpKind if is_memory_op(kind))


class Trace:
    """An immutable dynamic instruction stream.

    Stored as three parallel lists (pc, kind, address) for fast
    iteration by the simulator; ``address`` is ``None`` for non-memory
    instructions.
    """

    __slots__ = ("name", "pcs", "kinds", "addresses")

    def __init__(
        self,
        name: str,
        pcs: List[int],
        kinds: List[int],
        addresses: List[Optional[int]],
    ) -> None:
        if not (len(pcs) == len(kinds) == len(addresses)):
            raise TraceError(
                f"trace {name!r}: mismatched stream lengths "
                f"({len(pcs)}, {len(kinds)}, {len(addresses)})"
            )
        if not pcs:
            raise TraceError(f"trace {name!r} is empty")
        for i, (kind, addr) in enumerate(zip(kinds, addresses)):
            if kind in _MEMORY_KINDS:
                if addr is None:
                    raise TraceError(f"trace {name!r}: memory op at {i} has no address")
            elif addr is not None:
                raise TraceError(f"trace {name!r}: non-memory op at {i} has address")
        self.name = name
        self.pcs = pcs
        self.kinds = kinds
        self.addresses = addresses

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[Tuple[int, int, Optional[int]]]:
        return zip(self.pcs, self.kinds, self.addresses)

    @property
    def instruction_count(self) -> int:
        """Number of dynamic instructions (== len(self))."""
        return len(self.pcs)

    @property
    def memory_op_count(self) -> int:
        """Number of dynamic loads + stores."""
        return sum(1 for kind in self.kinds if is_memory_op(kind))

    def code_footprint(self) -> set:
        """Set of distinct PCs (static code footprint, in instructions)."""
        return set(self.pcs)

    def data_footprint(self) -> set:
        """Set of distinct data byte-addresses touched."""
        return {addr for addr in self.addresses if addr is not None}

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, {len(self)} instructions, "
            f"{self.memory_op_count} memory ops)"
        )


class TraceBuilder:
    """Assembler-like builder for :class:`Trace` objects.

    Parameters
    ----------
    name:
        Trace label (benchmark name).
    code_base:
        Byte address where the kernel's code is laid out.  Distinct
        kernels use distinct bases so their code footprints are
        disjoint, as separate binaries' would be.

    Examples
    --------
    >>> b = TraceBuilder("demo", code_base=0x1000)
    >>> for _ in range(2):
    ...     body = b.loop_start()
    ...     b.load(0x8000)
    ...     b.alu()
    ...     b.branch(back_to=body)
    >>> len(b.build())
    6
    """

    def __init__(self, name: str, code_base: int = 0) -> None:
        if code_base < 0:
            raise TraceError(f"code_base must be non-negative, got {code_base}")
        self.name = name
        self._pc = code_base
        self._pcs: List[int] = []
        self._kinds: List[int] = []
        self._addresses: List[Optional[int]] = []

    # ------------------------------------------------------------------
    # emission primitives
    # ------------------------------------------------------------------
    def _emit(self, kind: OpKind, address: Optional[int]) -> None:
        self._pcs.append(self._pc)
        self._kinds.append(int(kind))
        self._addresses.append(address)
        self._pc += INSTRUCTION_BYTES

    def alu(self, count: int = 1) -> None:
        """Emit ``count`` single-cycle ALU instructions."""
        for _ in range(count):
            self._emit(OpKind.ALU, None)

    def mul(self, count: int = 1) -> None:
        """Emit ``count`` long-latency multiply instructions."""
        for _ in range(count):
            self._emit(OpKind.MUL, None)

    def load(self, address: int) -> None:
        """Emit a load from byte ``address``."""
        if address < 0:
            raise TraceError(f"negative load address {address}")
        self._emit(OpKind.LOAD, address)

    def store(self, address: int) -> None:
        """Emit a store to byte ``address``."""
        if address < 0:
            raise TraceError(f"negative store address {address}")
        self._emit(OpKind.STORE, address)

    def loop_start(self) -> int:
        """Mark the current PC as a loop-body entry; returns the PC."""
        return self._pc

    def branch(self, back_to: Optional[int] = None) -> None:
        """Emit a branch; ``back_to`` rewinds the PC (a taken back-edge).

        A forward/untaken branch (``back_to=None``) just falls through.
        """
        self._emit(OpKind.BRANCH, None)
        if back_to is not None:
            if back_to < 0:
                raise TraceError(f"negative branch target {back_to}")
            self._pc = back_to

    def call(self, target_pc: int) -> int:
        """Emit a branch to ``target_pc``; returns the return PC.

        Models a function call: subsequent emissions happen at the
        callee's addresses until :meth:`branch` back to the return PC.
        """
        self._emit(OpKind.BRANCH, None)
        return_pc = self._pc
        if target_pc < 0:
            raise TraceError(f"negative call target {target_pc}")
        self._pc = target_pc
        return return_pc

    # ------------------------------------------------------------------
    def build(self) -> Trace:
        """Finalise and return the trace."""
        return Trace(self.name, self._pcs, self._kinds, self._addresses)

    def __len__(self) -> int:
        return len(self._pcs)
