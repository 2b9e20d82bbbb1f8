"""Pseudo-random number generators used by the simulated hardware.

The paper's EFL access control unit uses a Multiply-With-Carry (MWC)
PRNG (Marsaglia & Zaman, 1991) because it is cheap in hardware, has a
huge period and good statistical quality.  We implement the classic
32-bit lag-1 MWC here and use it for *every* random decision the
simulated hardware takes: random replacement victims, random placement
RIIs, random bus arbitration and the EFL count-down counter draws.

For deriving independent seeds for the many PRNG instances in a system
(one per cache, per ACU, per bus...) we use SplitMix64, a standard
seed-sequence generator; it is part of the *simulation harness*, not of
the modelled hardware.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Marsaglia's multiplier for the 32-bit MWC generator.  With this
#: multiplier the generator has period a*2^31 - 1 ~ 1.5e18, far beyond
#: anything a simulation campaign consumes.
MWC_MULTIPLIER = 698769069


class MultiplyWithCarry:
    """32-bit lag-1 Multiply-With-Carry PRNG.

    State is a pair ``(x, c)`` of 32-bit value and carry.  Each step
    computes ``t = a*x + c``; the new value is ``t mod 2**32`` and the
    new carry is ``t >> 32``.  This is exactly the construction the
    paper cites ([21]) and notes can produce 32 random bits per cycle in
    hardware.

    Parameters
    ----------
    seed:
        Any non-negative integer.  It is whitened through SplitMix64 so
        that consecutive small seeds yield uncorrelated streams.

    Examples
    --------
    >>> rng = MultiplyWithCarry(42)
    >>> 0 <= rng.next_u32() <= 0xFFFFFFFF
    True
    >>> rng2 = MultiplyWithCarry(42)
    >>> [rng2.next_u32() for _ in range(3)] == [MultiplyWithCarry(42).next_u32() for _ in range(3)]
    False
    """

    __slots__ = ("_x", "_c")

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ConfigurationError(f"PRNG seed must be non-negative, got {seed}")
        mixer = SplitMix64(seed)
        # Both halves of the state must be non-degenerate: x == 0 with
        # c == 0 is the fixed point of the recurrence.
        x = mixer.next_u64() & _MASK32
        c = mixer.next_u64() % (MWC_MULTIPLIER - 1)
        if x == 0 and c == 0:
            x = 1
        self._x = x
        self._c = c

    def next_u32(self) -> int:
        """Return the next 32-bit unsigned random value."""
        t = MWC_MULTIPLIER * self._x + self._c
        self._x = t & _MASK32
        self._c = t >> 32
        return self._x

    def randrange(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)``.

        Uses rejection sampling to avoid modulo bias; the rejection
        probability is below 2**-16 for every ``n`` this library uses,
        so the expected cost is a single draw.
        """
        if n <= 0:
            raise ConfigurationError(f"randrange() bound must be positive, got {n}")
        limit = (0x100000000 // n) * n
        while True:
            v = self.next_u32()
            if v < limit:
                return v % n

    def randint_inclusive(self, lo: int, hi: int) -> int:
        """Return a uniform integer in ``[lo, hi]`` (both inclusive).

        This is the draw EFL's count-down counter performs: a value in
        ``[0, 2*MID]`` inclusive, so that the *average* inter-eviction
        delay equals the desired MID.
        """
        if hi < lo:
            raise ConfigurationError(f"empty range [{lo}, {hi}]")
        return lo + self.randrange(hi - lo + 1)

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 32 bits of entropy."""
        return self.next_u32() / 4294967296.0

    def state(self) -> tuple:
        """Return the internal ``(x, carry)`` state (for tests)."""
        return (self._x, self._c)


class SplitMix64:
    """SplitMix64 sequence generator used to derive independent seeds.

    This is the standard seed-expansion function from Steele et al.;
    two SplitMix64 streams started from different 64-bit seeds are, for
    practical purposes, independent.  It is used by the simulation
    harness to give every hardware PRNG instance its own seed and to
    derive per-run seeds in campaigns.
    """

    __slots__ = ("_state",)

    GOLDEN_GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ConfigurationError(f"PRNG seed must be non-negative, got {seed}")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next 64-bit unsigned random value."""
        self._state = (self._state + self.GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u32(self) -> int:
        """Return the next 32-bit unsigned random value."""
        return self.next_u64() >> 32


def splitmix64_mix(z: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finaliser over a ``uint64`` array.

    Bit-identical to the scalar mixer inside
    :meth:`SplitMix64.next_u64` (and to
    :func:`repro.utils.hashing._mix64`): ``uint64`` arithmetic wraps
    modulo 2**64 exactly like the masked Python-int version.
    """
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64_draw(seeds: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th ``next_u64()`` of ``SplitMix64(seed)``, per lane.

    SplitMix64 is a counter-based generator: its ``k``-th output
    (1-based) is ``mix(seed + k * GOLDEN_GAMMA)``, so any draw of any
    stream is computable directly, without materialising the ones
    before it.  The kernel engine uses this to reproduce
    :func:`repro.sim.platform.build_platform`'s seed-draw schedule for
    a whole campaign at once, touching only the draws the analysed
    core actually needs.
    """
    if k < 1:
        raise ConfigurationError(f"SplitMix64 draws are 1-based, got draw {k}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    return splitmix64_mix(seeds + np.uint64((k * SplitMix64.GOLDEN_GAMMA) & _MASK64))


class MWCArray:
    """Vectorised :class:`MultiplyWithCarry`: one stream per lane.

    Lane ``i`` is bit-identical to ``MultiplyWithCarry(seeds[i])``:
    the same SplitMix64 seed whitening, the same degenerate-state
    repair, the same ``t = a*x + c`` step (``t < 2**63``, so ``uint64``
    never wraps) and the same rejection-sampled range reduction.  The
    on-demand draws take an optional boolean ``mask``; lanes outside
    the mask consume nothing — their state is untouched.  The block
    draws (:meth:`randrange_block`, :meth:`randrange_block_pair`)
    precompute whole per-lane sequences instead; the kernel engine
    consumes them through per-lane cursors, which keeps each lane's
    draw sequence identical to the scalar engine's even when lanes
    diverge (some miss, some hit).
    """

    __slots__ = ("_x", "_c")

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        x = splitmix64_draw(seeds, 1) & np.uint64(_MASK32)
        c = splitmix64_draw(seeds, 2) % np.uint64(MWC_MULTIPLIER - 1)
        x[(x == np.uint64(0)) & (c == np.uint64(0))] = np.uint64(1)
        self._x = x
        self._c = c

    @property
    def lanes(self) -> int:
        """Number of independent streams."""
        return self._x.shape[0]

    def next_u32(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance the masked lanes one step; return the lane values.

        The returned array is the internal value vector: masked lanes
        hold their fresh draw, unmasked lanes their *previous* value
        (callers must only read masked lanes).
        """
        t = np.uint64(MWC_MULTIPLIER) * self._x + self._c
        if mask is None:
            self._x = t & np.uint64(_MASK32)
            self._c = t >> np.uint64(32)
        else:
            np.copyto(self._x, t & np.uint64(_MASK32), where=mask)
            np.copyto(self._c, t >> np.uint64(32), where=mask)
        return self._x

    def randrange(self, n: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-lane uniform integer in ``[0, n)`` (masked lanes only).

        The rejection loop advances only the still-rejected lanes, so
        each lane consumes exactly the draws its scalar twin would.
        Unmasked lanes return 0 and consume nothing.
        """
        if n <= 0:
            raise ConfigurationError(f"randrange() bound must be positive, got {n}")
        limit = np.uint64((0x100000000 // n) * n)
        nn = np.uint64(n)
        out = np.zeros(self._x.shape, dtype=np.uint64)
        pending = np.ones(self._x.shape, dtype=bool) if mask is None else mask.copy()
        while pending.any():
            v = self.next_u32(pending)
            accepted = pending & (v < limit)
            if accepted.any():
                np.copyto(out, v % nn, where=accepted)
                pending &= ~accepted
        return out

    def _block_step(self, x, c, t, lim, rejected) -> None:
        """One in-place full-width MWC step with rejection repair."""
        np.multiply(np.uint64(MWC_MULTIPLIER), x, out=t)
        np.add(t, c, out=t)
        np.bitwise_and(t, np.uint64(_MASK32), out=x)
        np.right_shift(t, np.uint64(32), out=c)
        if rejected is not None:
            np.greater_equal(x, lim, out=rejected)
            while rejected.any():
                # next_u32 repairs rejected lanes in place; ``x``
                # aliases the state vector, so it sees the redraws.
                self.next_u32(rejected)
                rejected &= x >= lim

    @staticmethod
    def _block_reduce(out, n: int) -> np.ndarray:
        """In-place ``[0, n)`` range reduction of a full-draw block."""
        kind = out.dtype.type
        if n & (n - 1) == 0:
            np.bitwise_and(out, kind(n - 1), out=out)
        else:
            np.remainder(out, kind(n), out=out)
        return out

    def randrange_block(
        self, n: int, rows: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``rows`` consecutive full-width ``randrange(n)`` draws, stacked.

        Row ``r`` of the returned ``[rows, lanes]`` array is
        bit-identical to the ``r``-th successive all-lanes
        :meth:`randrange` call — same per-lane rejection rule, same
        step count — but the whole block runs on in-place array steps
        with one output allocation, repairing only the (rare) lanes
        whose draw fell in the truncated tail.  This is the regime the
        kernel engine's linearised draw streams need (thousands of
        rows per sweep).  ``out`` lets the caller supply
        (and type) the destination block; integer dtypes are safe, the
        draws fit 32 bits.
        """
        if n <= 0:
            raise ConfigurationError(f"randrange() bound must be positive, got {n}")
        if rows < 0:
            raise ConfigurationError(f"randrange_block() rows must be non-negative, got {rows}")
        limit = (0x100000000 // n) * n
        if out is None:
            out = np.empty((rows, self.lanes), dtype=np.uint64)
        x, c = self._x, self._c
        t = np.empty(self.lanes, dtype=np.uint64)
        lim = np.uint64(limit)
        rejected = (
            np.empty(self.lanes, dtype=bool) if limit != 0x100000000 else None
        )
        for row in range(rows):
            self._block_step(x, c, t, lim, rejected)
            out[row] = x
        return self._block_reduce(out, n)

    def randrange_block_pair(
        self,
        n_first: int,
        n_second: int,
        rows: int,
        out_first: Optional[np.ndarray] = None,
        out_second: Optional[np.ndarray] = None,
    ) -> tuple:
        """``rows`` interleaved ``(randrange(n_first), randrange(n_second))``
        draw pairs, as two stacked blocks.

        The per-lane draw order is strictly alternating — first draw,
        second draw, first draw, ... — exactly the order a CRG's
        private stream consumes its set and gap draws, so row ``r`` of
        the two blocks is bit-identical to the ``r``-th scalar
        ``(set, gap)`` pair.
        """
        if n_first <= 0 or n_second <= 0:
            raise ConfigurationError(
                f"randrange() bounds must be positive, got "
                f"({n_first}, {n_second})"
            )
        if rows < 0:
            raise ConfigurationError(
                f"randrange_block_pair() rows must be non-negative, got {rows}"
            )
        limit_first = (0x100000000 // n_first) * n_first
        limit_second = (0x100000000 // n_second) * n_second
        if out_first is None:
            out_first = np.empty((rows, self.lanes), dtype=np.uint64)
        if out_second is None:
            out_second = np.empty((rows, self.lanes), dtype=np.uint64)
        x, c = self._x, self._c
        t = np.empty(self.lanes, dtype=np.uint64)
        lim_first = np.uint64(limit_first)
        lim_second = np.uint64(limit_second)
        rej_first = (
            np.empty(self.lanes, dtype=bool)
            if limit_first != 0x100000000 else None
        )
        rej_second = (
            np.empty(self.lanes, dtype=bool)
            if limit_second != 0x100000000 else None
        )
        for row in range(rows):
            self._block_step(x, c, t, lim_first, rej_first)
            out_first[row] = x
            self._block_step(x, c, t, lim_second, rej_second)
            out_second[row] = x
        return (
            self._block_reduce(out_first, n_first),
            self._block_reduce(out_second, n_second),
        )

    def randint_inclusive(
        self, lo: int, hi: int, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-lane uniform integer in ``[lo, hi]`` (both inclusive)."""
        if hi < lo:
            raise ConfigurationError(f"empty range [{lo}, {hi}]")
        draw = self.randrange(hi - lo + 1, mask)
        if lo == 0:
            return draw
        return draw + np.uint64(lo)

    def state(self) -> tuple:
        """Return copies of the internal ``(x, carry)`` vectors."""
        return (self._x.copy(), self._c.copy())


def derive_seeds(master_seed: int, count: int) -> list:
    """Derive ``count`` independent 64-bit seeds from ``master_seed``.

    Campaigns use this to give every run, and within a run every
    hardware PRNG, a distinct reproducible seed.

    >>> derive_seeds(7, 3) == derive_seeds(7, 3)
    True
    >>> derive_seeds(7, 3) != derive_seeds(8, 3)
    True
    """
    if count < 0:
        raise ConfigurationError(f"seed count must be non-negative, got {count}")
    mixer = SplitMix64(master_seed)
    return [mixer.next_u64() for _ in range(count)]
