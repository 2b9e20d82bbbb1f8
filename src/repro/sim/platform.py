"""Hardware construction: one fresh platform instance per run.

MBPTA's measurement protocol requires a *fresh randomisation* per run:
new RIIs for every random-placement cache (so addresses land in new
sets) and new PRNG streams for replacement, arbitration and EFL.  A
:func:`build_platform` call materialises one such instance from a
(config, scenario, run-seed) triple; campaigns call it once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import OperationMode
from repro.core.efl import EFLController
from repro.errors import ConfigurationError
from repro.mem.cache import Cache
from repro.mem.partition import PartitionedLLC, WayPartition
from repro.mem.bus import SharedBus
from repro.mem.mainmemory import MainMemory
from repro.mem.memctrl import AnalysableMemoryController
from repro.mem.placement import make_placement
from repro.mem.replacement import make_replacement
from repro.sim.config import Scenario, SystemConfig
from repro.utils.rng import MultiplyWithCarry, SplitMix64

_RII_BITS = 32


@dataclass
class Platform:
    """All hardware instances of one simulated run."""

    config: SystemConfig
    scenario: Scenario
    il1s: List[Cache]
    dl1s: List[Cache]
    llc: Cache
    #: The CP way partition of ``llc``; ``None`` when fully shared.
    llc_partition: Optional[PartitionedLLC]
    bus: SharedBus
    memory: MainMemory
    memctrl: AnalysableMemoryController
    efl: Optional[EFLController]

    @property
    def mode(self) -> OperationMode:
        """Operation mode of this run (from the scenario)."""
        return self.scenario.mode


def _build_cache(
    config: SystemConfig,
    geometry,
    name: str,
    seeds: SplitMix64,
    write_back: bool = True,
) -> Cache:
    """Construct one cache with the configured policy pair."""
    rii = seeds.next_u64() & ((1 << _RII_BITS) - 1)
    placement = make_placement(config.placement, geometry.num_sets, rii)
    rng = MultiplyWithCarry(seeds.next_u64())
    replacement = make_replacement(config.replacement, rng)
    return Cache(geometry, placement, replacement, name=name, write_back=write_back)


def build_platform(
    config: SystemConfig,
    scenario: Scenario,
    seed: int,
    analysed_core: int = 0,
) -> Platform:
    """Materialise the hardware for one run.

    Every random-placement cache receives a fresh RII derived from
    ``seed`` and every PRNG a fresh stream, implementing the paper's
    per-run re-randomisation (a new RII is generated for each of the
    300–1,000 analysis runs, §3.3).
    """
    seeds = SplitMix64(seed)
    il1s = [
        _build_cache(config, config.l1_geometry, f"IL1[{c}]", seeds)
        for c in range(config.num_cores)
    ]
    dl1s = [
        _build_cache(
            config,
            config.l1_geometry,
            f"DL1[{c}]",
            seeds,
            write_back=config.dl1_write_back,
        )
        for c in range(config.num_cores)
    ]
    llc = _build_cache(config, config.llc_geometry, "LLC", seeds)

    if scenario.mechanism == "cp":
        counts = scenario.ways_per_core
        if len(counts) != config.num_cores:
            raise ConfigurationError(
                f"CP scenario gives {len(counts)} per-core way counts for a "
                f"{config.num_cores}-core system"
            )
        if scenario.mode is OperationMode.ANALYSIS:
            # Isolation analysis: only the analysed core runs, so only
            # its partition is materialised.  This is what the paper's
            # CP-w analysis means — the task under analysis owns w of
            # the LLC's ways, whoever ends up owning the rest later.
            ways = counts[analysed_core]
            if ways > config.llc_ways:
                raise ConfigurationError(
                    f"CP partition of {ways} ways exceeds the LLC's "
                    f"{config.llc_ways}"
                )
            partition = WayPartition({analysed_core: tuple(range(ways))})
        else:
            if sum(counts) > config.llc_ways:
                raise ConfigurationError(
                    f"CP partition {counts} exceeds the LLC's "
                    f"{config.llc_ways} ways"
                )
            partition = WayPartition.from_counts(counts, config.llc_ways)
        llc_partition = PartitionedLLC(llc, partition)
    else:
        llc_partition = None

    bus = SharedBus(
        config.num_cores, config.bus_latency, MultiplyWithCarry(seeds.next_u64())
    )
    memory = MainMemory(config.memory_latency)
    memctrl = AnalysableMemoryController(config.num_cores, memory)

    efl = None
    if scenario.mechanism == "efl":
        efl = EFLController(
            llc,
            [scenario.efl_config()] * config.num_cores,
            mode=scenario.mode,
            analysed_core=analysed_core,
            seed=seeds.next_u64(),
        )

    return Platform(
        config=config,
        scenario=scenario,
        il1s=il1s,
        dl1s=dl1s,
        llc=llc,
        llc_partition=llc_partition,
        bus=bus,
        memory=memory,
        memctrl=memctrl,
        efl=efl,
    )
