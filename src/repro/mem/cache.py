"""Set-associative cache model with pluggable placement and replacement.

One :class:`Cache` class models every cache in the paper's platform:

* the per-core IL1/DL1 (4KB, 4-way, 16B lines, random placement +
  Evict-on-Miss random replacement);
* the shared LLC (64KB, 8-way, same policies);
* time-deterministic variants (modulo placement + LRU) for the TD
  baseline and ablations.

The model is *content-free*: it tracks which line addresses are
resident and whether they are dirty, which is everything timing
analysis needs.  All caches are write-back and write-allocate (the
paper's setup); a write-through mode is provided for the A2 ablation
(footnote 5 of the paper).

Two-phase access
----------------
EFL must know whether an LLC request would miss *before* allowing the
eviction to happen (misses stall until the eviction-allowed bit is
set, hits proceed immediately).  The cache therefore exposes
:meth:`Cache.probe` — a pure query with no side effects — alongside
:meth:`Cache.access`, which performs the full hit/miss/evict/fill
transaction (:meth:`Cache.lookup_fill` is the same transaction returning
an int code, allocating nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.utils.validation import require_power_of_two


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of a cache.

    Parameters mirror the paper's tables: total size in bytes,
    line size in bytes and associativity (ways).  The number of sets is
    derived and must come out to a positive power of two.

    >>> CacheGeometry(size_bytes=4096, line_size=16, ways=4).num_sets
    64
    >>> CacheGeometry(size_bytes=65536, line_size=16, ways=8).num_sets
    512
    """

    size_bytes: int
    line_size: int
    ways: int

    def __post_init__(self) -> None:
        require_power_of_two("size_bytes", self.size_bytes)
        require_power_of_two("line_size", self.line_size)
        require_power_of_two("ways", self.ways)
        if self.size_bytes < self.line_size * self.ways:
            raise ConfigurationError(
                f"cache of {self.size_bytes}B cannot hold {self.ways} ways "
                f"of {self.line_size}B lines"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets (size / (line_size * ways))."""
        return self.size_bytes // (self.line_size * self.ways)

    @property
    def num_lines(self) -> int:
        """Total number of line frames in the cache."""
        return self.size_bytes // self.line_size


@dataclass(frozen=True)
class Eviction:
    """A line evicted from a cache.

    ``dirty`` evictions cost a write-back on the memory path; clean
    evictions are silent.  ``line`` is ``None`` for *forced* evictions
    that hit an empty way (the CRG's artificial requests always consume
    the core's eviction budget even then, but produce no write-back).
    """

    line: Optional[int]
    dirty: bool


#: :meth:`Cache.lookup_fill` outcome codes.  Line addresses are
#: non-negative, so a code ``>= 0`` is a dirty victim's line and a clean
#: victim ``v`` is returned as ``_CLEAN_VICTIM - v``, below both codes.
HIT = -1
#: A miss that displaced no valid line.
MISS = -2
_CLEAN_VICTIM = -3


@dataclass
class AccessResult:
    """Outcome of one cache access.

    Built by :meth:`Cache.access` only; the simulator uses the int
    codes of :meth:`Cache.lookup_fill`.

    Attributes
    ----------
    hit:
        Whether the requested line was resident.
    set_index:
        The set the request mapped to.
    eviction:
        The displaced line if the fill replaced a valid line, else
        ``None``.  Misses into an invalid way evict nothing.
    """

    hit: bool
    set_index: int
    eviction: Optional[Eviction]


class CacheStats:
    """Running counters for one cache instance.

    Accounting invariant (asserted by the stats-conservation tests):
    no matter which path removes a line — a demand miss's replacement
    (:meth:`Cache.access`), a CRG force-miss
    (:meth:`Cache.force_eviction`), an explicit
    :meth:`Cache.invalidate`, or a :meth:`Cache.flush` (full or
    way-restricted, as used by partition reassignment) —

    * ``evictions``  == total valid lines displaced, and
    * ``writebacks`` == total *dirty* lines displaced.

    ``forced_evictions`` additionally counts every CRG force-miss
    request, including those whose victim draw landed on an invalid
    frame (the eviction budget is consumed even then).
    """

    __slots__ = ("hits", "misses", "evictions", "writebacks", "forced_evictions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.forced_evictions = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        """Miss ratio over demand accesses (0.0 if no accesses yet)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, writebacks={self.writebacks})"
        )


class Cache:
    """A set-associative, write-back, write-allocate cache.

    Parameters
    ----------
    geometry:
        The cache shape (:class:`CacheGeometry`).
    placement:
        A placement policy (:class:`~repro.mem.placement.ModuloPlacement`
        or :class:`~repro.mem.placement.RandomPlacement`); its
        ``num_sets`` must match the geometry.
    replacement:
        A replacement policy (:class:`~repro.mem.replacement.EvictOnMissRandom`
        or :class:`~repro.mem.replacement.LRUReplacement`).
    name:
        Label used in reprs and error messages (e.g. ``"DL1[2]"``).
    write_back:
        ``True`` (default) for write-back as in the paper; ``False``
        models a write-through cache for the A2 ablation, in which case
        stores never mark lines dirty (every store is forwarded to the
        next level by the caller).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        placement,
        replacement,
        name: str = "cache",
        write_back: bool = True,
    ) -> None:
        if placement.num_sets != geometry.num_sets:
            raise ConfigurationError(
                f"{name}: placement covers {placement.num_sets} sets but the "
                f"geometry has {geometry.num_sets}"
            )
        self.geometry = geometry
        self.placement = placement
        self.replacement = replacement
        self.name = name
        self.write_back = write_back
        self.stats = CacheStats()
        replacement.attach(geometry.num_sets, geometry.ways)
        ways = geometry.ways
        self._tags = [[None] * ways for _ in range(geometry.num_sets)]
        self._dirty = [[False] * ways for _ in range(geometry.num_sets)]
        self._all_ways: Tuple[int, ...] = tuple(range(ways))
        # EoM replacement is stateless: hits and fills need no policy
        # callback, which the hot access path exploits.
        self._stateless_repl = bool(getattr(replacement, "is_randomised", False))
        # With a stateless policy the victim draw is inlined into the
        # miss path (no choose_victim() dispatch); the draw itself must
        # stay bit-identical to EvictOnMissRandom.choose_victim.
        self._repl_rng = getattr(replacement, "_rng", None)
        self._eom_fast = self._stateless_repl and self._repl_rng is not None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def set_of(self, line: int) -> int:
        """Return the set index ``line`` maps to under the current RII."""
        return self.placement.set_index(line)

    def probe(self, line: int, ways: Optional[Sequence[int]] = None) -> bool:
        """Return whether ``line`` is resident, without side effects.

        ``ways`` optionally restricts the search to a subset of ways
        (used by the way-partitioned LLC).  No statistics or
        replacement metadata are updated.
        """
        set_index = self.placement.set_index(line)
        tags = self._tags[set_index]
        for way in (ways if ways is not None else self._all_ways):
            if tags[way] == line:
                return True
        return False

    def resident_lines(self) -> set:
        """Return the set of all line addresses currently resident."""
        return {
            tag
            for set_tags in self._tags
            for tag in set_tags
            if tag is not None
        }

    def occupancy(self) -> int:
        """Return the number of valid lines currently held."""
        return sum(
            1 for set_tags in self._tags for tag in set_tags if tag is not None
        )

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def access(
        self,
        line: int,
        write: bool = False,
        ways: Optional[Sequence[int]] = None,
    ) -> AccessResult:
        """Perform a demand access for ``line``.

        On a hit the replacement policy is notified (a no-op for EoM)
        and, for write-back caches, a write marks the line dirty.  On a
        miss the line is allocated (write-allocate), displacing a
        victim chosen by the replacement policy among ``ways`` (all
        ways when ``None``).

        Returns an :class:`AccessResult`, clean victims included.  This
        is the allocating wrapper over :meth:`lookup_fill` for tests and
        cold callers; ``repro.sim.reference`` preserves the unoptimised
        implementation for equivalence tests and the single-run
        benchmark.
        """
        if line < 0:
            raise SimulationError(f"{self.name}: negative line address {line}")
        code = self.lookup_fill(line, write, tuple(ways) if ways is not None else None)
        eviction = None
        if code >= 0:
            eviction = Eviction(line=code, dirty=True)
        elif code < MISS:
            eviction = Eviction(line=_CLEAN_VICTIM - code, dirty=False)
        return AccessResult(code == HIT, self.placement.set_index(line), eviction)

    def lookup_fill(
        self, line: int, write: bool = False, ways: Optional[Tuple[int, ...]] = None
    ) -> int:
        """The demand access of :meth:`access`, allocating nothing.

        Returns :data:`HIT`, :data:`MISS`, the dirty victim's line
        (``>= 0``: the caller owes a write-back) or ``_CLEAN_VICTIM -
        victim``.  ``ways`` is a tuple, or ``None`` for every way.
        """
        set_index = self.placement.set_index(line)
        candidates = self._all_ways if ways is None else ways
        if self._lookup(set_index, line, write, candidates):
            return HIT
        return self._allocate(set_index, line, write, candidates)

    def update_if_resident(
        self, line: int, write: bool = False, ways: Optional[Tuple[int, ...]] = None
    ) -> bool:
        """:meth:`probe`, then :meth:`access` if resident, in one lookup.

        Returns whether ``line`` was resident; never allocates.  Serves
        L1 write-backs into the LLC and write-through stores.
        """
        candidates = self._all_ways if ways is None else ways
        return self._lookup(self.placement.set_index(line), line, write, candidates)

    def _lookup(self, set_index: int, line: int, write: bool, candidates) -> bool:
        """The one demand lookup, with the hit bookkeeping: stats,
        replacement ``on_hit`` and a write's dirty bit."""
        tags = self._tags[set_index]
        if line not in tags:
            return False
        for way in candidates:
            if tags[way] == line:
                self.stats.hits += 1
                if not self._stateless_repl:
                    self.replacement.on_hit(set_index, way)
                if write and self.write_back:
                    self._dirty[set_index][way] = True
                return True
        return False

    def _allocate(self, set_index: int, line: int, write: bool, candidates) -> int:
        """Miss half of :meth:`lookup_fill`: victim draw, then the fill.

        Callers that already know ``line`` misses (the simulator's
        inline DL1 path) enter here directly.  EoM random replacement
        draws uniformly over the candidate ways *regardless of
        validity* — real TR hardware does not special-case invalid
        frames, and Equation 1's derivation assumes every miss performs
        a victim draw.  (LRU naturally returns invalid ways first
        because invalidation demotes them.)
        """
        stats = self.stats
        stats.misses += 1
        target_way = self._choose_victim(set_index, candidates)
        tags, dirty = self._tags[set_index], self._dirty[set_index]
        code = victim_line = tags[target_way]
        if victim_line is None:
            code = MISS
        else:
            stats.evictions += 1
            if dirty[target_way]:
                stats.writebacks += 1
            else:
                code = _CLEAN_VICTIM - victim_line
        tags[target_way] = line
        dirty[target_way] = bool(write and self.write_back)
        if not self._stateless_repl:
            self.replacement.on_fill(set_index, target_way)
        return code

    def _choose_victim(self, set_index: int, candidates: Tuple[int, ...]) -> int:
        """Victim draw, inlining the stateless (EoM) fast path.

        Bit-identical to ``replacement.choose_victim``: the same single
        ``randrange(len(candidates))`` draw in the same cases, so the
        hardware PRNG stream is unchanged.
        """
        if self._eom_fast:
            n = len(candidates)
            if n > 1:
                return candidates[self._repl_rng.randrange(n)]
            if n:
                return candidates[0]
            raise SimulationError("choose_victim called with no candidate ways")
        return self.replacement.choose_victim(set_index, candidates)

    def _displace(self, set_index: int, way: int) -> Optional[Eviction]:
        """Remove the line in ``(set_index, way)``, if any.

        The single bookkeeping point for every *removal* path
        (invalidate, flush, forced eviction): clears the frame, demotes
        the way in the replacement metadata and keeps the
        :class:`CacheStats` accounting invariant — one ``evictions``
        per valid line displaced, one ``writebacks`` per dirty line
        displaced.  Returns the eviction record, or ``None`` when the
        frame was already invalid.
        """
        tags = self._tags[set_index]
        line = tags[way]
        if line is None:
            return None
        dirty = self._dirty[set_index][way]
        tags[way] = None
        self._dirty[set_index][way] = False
        self.replacement.on_invalidate(set_index, way)
        self.stats.evictions += 1
        if dirty:
            self.stats.writebacks += 1
        return Eviction(line=line, dirty=dirty)

    def force_eviction(self, set_index: int, ways: Optional[Sequence[int]] = None) -> Eviction:
        """Evict the replacement policy's victim from ``set_index``.

        This implements the CRG's artificial force-miss requests
        (§3.5): the request behaves like a miss — it consumes an
        eviction slot and displaces a line — but allocates nothing
        (there is no real data behind it, the line frame is simply
        invalidated).  If the chosen way is invalid the eviction is
        recorded but displaces nothing.
        """
        if not 0 <= set_index < self.geometry.num_sets:
            raise SimulationError(
                f"{self.name}: set index {set_index} out of range"
            )
        if ways is None:
            candidates = self._all_ways
        elif type(ways) is tuple:
            candidates = ways
        else:
            candidates = tuple(ways)
        way = self._choose_victim(set_index, candidates)
        self.stats.forced_evictions += 1
        eviction = self._displace(set_index, way)
        return eviction if eviction is not None else Eviction(line=None, dirty=False)

    def invalidate(self, line: int) -> Optional[Eviction]:
        """Remove ``line`` if resident; return its eviction record."""
        set_index = self.placement.set_index(line)
        tags = self._tags[set_index]
        for way in self._all_ways:
            if tags[way] == line:
                return self._displace(set_index, way)
        return None

    def flush(self, ways: Optional[Sequence[int]] = None) -> list:
        """Invalidate every line (in ``ways``, or everywhere).

        Returns the dirty lines written back.  ``ways`` restricts the
        flush to a subset of ways — this is how the way-partitioned LLC
        flushes one core's partition on reassignment, so the same stats
        accounting applies to full and partial flushes.
        """
        if ways is None:
            target_ways = self._all_ways
        else:
            target_ways = tuple(ways)
            for way in target_ways:
                if not 0 <= way < self.geometry.ways:
                    raise SimulationError(
                        f"{self.name}: flush way {way} out of range"
                    )
        written_back = []
        for set_index in range(self.geometry.num_sets):
            for way in target_ways:
                eviction = self._displace(set_index, way)
                if eviction is not None and eviction.dirty:
                    written_back.append(eviction)
        return written_back

    def new_rii(self, rii: int) -> list:
        """Install a new RII on a random-placement cache and flush.

        Returns the write-backs produced by the flush.  Raises
        :class:`~repro.errors.ConfigurationError` when called on a
        modulo-placement cache, which has no RII.
        """
        if not getattr(self.placement, "is_randomised", False):
            raise ConfigurationError(
                f"{self.name}: new_rii() on non-randomised placement"
            )
        written_back = self.flush()
        self.placement.set_rii(rii)
        return written_back

    def __repr__(self) -> str:
        g = self.geometry
        return (
            f"Cache({self.name!r}, {g.size_bytes}B, {g.ways}-way, "
            f"{g.line_size}B lines, {self.placement!r}, {self.replacement!r})"
        )
