"""Hardware way-partitioned shared LLC — the CP baseline.

Hardware cache partitioning (Paolieri et al., ISCA 2009 — reference
[24]) assigns each core a disjoint subset of the LLC's ways.  A core
may only hit in, and allocate into, its own ways, so co-running tasks
cannot evict each other's lines.  The price is the one the paper
argues against: each task sees only ``w`` ways of associativity (and
``w/W`` of the capacity), partitions must be flushed when reassigned,
and data sharing across partitions is impossible.

:class:`PartitionedLLC` wraps a single :class:`~repro.mem.cache.Cache`
and routes each core's accesses to its assigned ways.  Because lookup
and victim selection are confined to the partition, a core's partition
behaves exactly like a private cache with the same sets and ``w`` ways
— a property the test-suite asserts and the analysis layer exploits
(isolation analysis of CP-w runs against a plain ``w``-way cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.mem.cache import AccessResult, Cache, Eviction


@dataclass(frozen=True)
class WayPartition:
    """An assignment of LLC ways to cores.

    ``ways_per_core`` maps a core id to the tuple of way indices that
    core owns.  Partitions must be disjoint; they need not cover every
    way (leaving ways unused models partition sizes that do not fill
    the cache, e.g. four 1-way partitions of an 8-way LLC).

    >>> WayPartition.even(num_cores=4, total_ways=8).ways_for(0)
    (0, 1)
    """

    ways_per_core: Dict[int, Tuple[int, ...]]

    def __post_init__(self) -> None:
        seen = set()
        for core, ways in self.ways_per_core.items():
            if not ways:
                raise ConfigurationError(f"core {core} assigned an empty partition")
            for way in ways:
                if way in seen:
                    raise ConfigurationError(
                        f"way {way} assigned to more than one core"
                    )
                if way < 0:
                    raise ConfigurationError(f"negative way index {way}")
                seen.add(way)

    @classmethod
    def even(cls, num_cores: int, total_ways: int) -> "WayPartition":
        """Split ``total_ways`` evenly across ``num_cores`` (CP-w setup).

        This is the paper's CP2 reference configuration when called
        with 4 cores and 8 ways.
        """
        if num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        if total_ways % num_cores:
            raise ConfigurationError(
                f"{total_ways} ways do not divide evenly across {num_cores} cores"
            )
        per = total_ways // num_cores
        return cls(
            {
                core: tuple(range(core * per, (core + 1) * per))
                for core in range(num_cores)
            }
        )

    @classmethod
    def from_counts(cls, counts: Sequence[int], total_ways: int) -> "WayPartition":
        """Build a partition giving ``counts[i]`` consecutive ways to core i.

        Raises if the counts exceed ``total_ways``.  Used by the CP
        partition optimiser to materialise candidate assignments.
        """
        if sum(counts) > total_ways:
            raise ConfigurationError(
                f"partition counts {list(counts)} exceed {total_ways} ways"
            )
        ways_per_core = {}
        next_way = 0
        for core, count in enumerate(counts):
            if count <= 0:
                raise ConfigurationError(
                    f"core {core} assigned non-positive way count {count}"
                )
            ways_per_core[core] = tuple(range(next_way, next_way + count))
            next_way += count
        return cls(ways_per_core)

    def ways_for(self, core: int) -> Tuple[int, ...]:
        """Return the way tuple owned by ``core``."""
        try:
            return self.ways_per_core[core]
        except KeyError:
            raise ConfigurationError(f"core {core} has no partition") from None

    @property
    def counts(self) -> Dict[int, int]:
        """Map core id -> number of ways assigned."""
        return {core: len(ways) for core, ways in self.ways_per_core.items()}


class PartitionedLLC:
    """A shared LLC whose ways are statically partitioned across cores.

    Exposes the same probe/access/force_eviction surface as
    :class:`~repro.mem.cache.Cache` with an explicit ``core`` argument.
    The simulator's memory path resolves each core's way tuple once and
    calls the underlying cache directly.
    """

    def __init__(self, cache: Cache, partition: WayPartition) -> None:
        max_way = max(
            way for ways in partition.ways_per_core.values() for way in ways
        )
        if max_way >= cache.geometry.ways:
            raise ConfigurationError(
                f"partition references way {max_way} but LLC has only "
                f"{cache.geometry.ways} ways"
            )
        self.cache = cache
        self.partition = partition

    def probe(self, core: int, line: int) -> bool:
        """Whether ``line`` is resident in ``core``'s partition."""
        return self.cache.probe(line, ways=self.partition.ways_for(core))

    def access(self, core: int, line: int, write: bool = False) -> AccessResult:
        """Demand access confined to ``core``'s partition."""
        return self.cache.access(line, write=write, ways=self.partition.ways_for(core))

    def force_eviction(self, core: int, set_index: int) -> Eviction:
        """Forced eviction confined to ``core``'s partition."""
        return self.cache.force_eviction(set_index, ways=self.partition.ways_for(core))

    def flush_partition(self, core: int) -> list:
        """Flush only ``core``'s ways (partition reassignment, §2.2).

        Returns the dirty lines written back.  This is the consistency
        flush the paper notes hardware partitioning needs whenever a
        task is given a different partition than it last used.
        Delegates to :meth:`~repro.mem.cache.Cache.flush` so partial
        and full flushes share one accounting path (one ``evictions``
        per valid line displaced, one ``writebacks`` per dirty one).
        """
        return self.cache.flush(ways=self.partition.ways_for(core))

    def __repr__(self) -> str:
        return f"PartitionedLLC({self.cache!r}, counts={self.partition.counts})"
