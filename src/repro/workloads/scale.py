"""Experiment scale presets: proportionally shrunk platforms.

The paper's campaign (EEMBC benchmarks of millions of instructions,
up to 1,000 runs per estimate, 1,024 workloads) ran on a fast native
simulator.  A pure-Python reproduction must scale down — but naive
trace shortening distorts the physics: cold-start misses stop being
amortised and EFL's analysis-time eviction delays swamp the
steady-state behaviour where its advantage over cache partitioning
lives.

The honest scaling, implemented here, shrinks *everything that has
units of bytes or per-run cycles* by one factor ``s`` while keeping
every dimensionless quantity fixed:

* cache sizes scale by ``s`` (same line size, same associativities,
  sets scale by ``s`` — so footprint/capacity load factors and
  lines-per-set statistics are unchanged);
* kernel footprints scale by ``s`` (via ``trace_scale``), iteration
  *counts* (sweeps) stay constant — so the cold/steady-state balance
  is unchanged;
* MID values do **not** scale: MID is a hardware design parameter in
  cycles, and no latency (memory, LLC, bus) scales either.  This keeps
  the two quantities that drive the EFL-versus-CP comparison
  scale-invariant: the probability that a cached line is killed by
  forced co-runner evictions before its reuse
  (``3 * reuse_interval_cycles / (MID * llc_frames)`` — both the
  interval and the frame count scale by ``s``, cancelling), and the
  EFL self-stall per miss (a pure cycles-vs-cycles comparison).

``REPRO_SCALE=paper`` selects the unscaled platform (the paper's 4KB
L1s / 64KB LLC and MID in {250, 500, 1000}), for a long unattended
campaign.  EXPERIMENTS.md records which preset produced each number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError

#: The MID values the paper studies, at full platform scale.
PAPER_MIDS = (250, 500, 1000)


@dataclass(frozen=True)
class ExperimentScale:
    """All scale knobs of a reproduction campaign.

    Attributes
    ----------
    name:
        Preset label recorded in reports.
    platform_factor:
        The shrink factor ``s`` relative to the paper's platform.
    trace_scale:
        Multiplier on each kernel's footprint (and footprint-coupled
        step counts); equals ``platform_factor`` in every preset.
    l1_size, llc_size:
        Scaled cache sizes in bytes (associativities and the 16B line
        are fixed, so set counts scale with ``s``).
    mid_options:
        The MID values to sweep (the paper's 250/500/1000 at every
        preset — MID does not scale, see the module docstring).
    analysis_runs:
        Runs per (benchmark, scenario) pWCET estimate (paper: <= 1000).
    workload_count:
        Number of random 4-benchmark workloads for Figure 4
        (paper: 1024).
    deployment_reps:
        Co-running repetitions per workload when measuring average IPC.
    block_size:
        Block size of the block-maxima Gumbel fit, scaled with the run
        count so every preset yields enough blocks.
    """

    name: str
    platform_factor: float
    trace_scale: float
    l1_size: int
    llc_size: int
    mid_options: Tuple[int, ...]
    analysis_runs: int
    workload_count: int
    deployment_reps: int
    block_size: int

    def __post_init__(self) -> None:
        if self.trace_scale <= 0 or self.platform_factor <= 0:
            raise ConfigurationError("scale factors must be positive")
        if self.analysis_runs < 2 * self.block_size:
            raise ConfigurationError(
                f"{self.analysis_runs} runs cannot form two blocks of "
                f"{self.block_size}"
            )
        if self.workload_count <= 0 or self.deployment_reps <= 0:
            raise ConfigurationError("workload_count/deployment_reps must be positive")
        if not self.mid_options or any(m <= 0 for m in self.mid_options):
            raise ConfigurationError("mid_options must be positive")

    def system_config(self, **overrides):
        """The scaled platform as a :class:`~repro.sim.config.SystemConfig`.

        Everything except the cache sizes keeps the paper's values
        (latencies are per-event, so they need no scaling).  Keyword
        overrides pass through (e.g. ``replacement="lru"`` for
        ablations).
        """
        from repro.sim.config import SystemConfig

        params = dict(l1_size=self.l1_size, llc_size=self.llc_size)
        params.update(overrides)
        return SystemConfig(**params)

    def paper_mid_label(self, mid: int) -> str:
        """Map one of this scale's MID options to the paper's label.

        >>> ExperimentScale.default().paper_mid_label(250)
        'EFL250'
        """
        try:
            index = self.mid_options.index(mid)
        except ValueError:
            raise ConfigurationError(
                f"{mid} is not one of this scale's MID options {self.mid_options}"
            ) from None
        return f"EFL{PAPER_MIDS[index]}"

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """Smoke-test scale (1/16 platform): seconds, indicative only."""
        return cls("tiny", platform_factor=0.0625, trace_scale=0.0625,
                   l1_size=256, llc_size=4096, mid_options=PAPER_MIDS,
                   analysis_runs=40, workload_count=8, deployment_reps=1,
                   block_size=8)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Example/demo scale (1/8 platform).

        Figure 3 takes about 17 s (perfbench ``fig3-quick`` on a 2-CPU
        x86 host, Python 3.11).
        """
        return cls("quick", platform_factor=0.125, trace_scale=0.125,
                   l1_size=512, llc_size=8192, mid_options=PAPER_MIDS,
                   analysis_runs=80, workload_count=24, deployment_reps=1,
                   block_size=10)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Benchmark-harness scale (1/4 platform).

        On a 2-CPU x86 host (Python 3.11), perfbench measures about
        10 s for the E1 table (``iid-default``) and about 10 s for
        Figure 4's 128 deployment co-runs once its campaigns are
        journalled (``fig4-deploy-default``).
        """
        return cls("default", platform_factor=0.25, trace_scale=0.25,
                   l1_size=1024, llc_size=16384, mid_options=PAPER_MIDS,
                   analysis_runs=240, workload_count=64, deployment_reps=1,
                   block_size=20)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's platform and campaign sizes.

        Not benchmarked.  Traces are 4x longer and campaigns have
        about 4x the runs of ``default``, and Figure 4 co-runs 48x as
        many workload repetitions; extrapolating the ``default`` times
        gives roughly 10 minutes for Figure 3 and 45 for Figure 4.
        """
        return cls("paper", platform_factor=1.0, trace_scale=1.0,
                   l1_size=4096, llc_size=65536, mid_options=PAPER_MIDS,
                   analysis_runs=1000, workload_count=1024, deployment_reps=3,
                   block_size=25)

    @classmethod
    def from_name(cls, name: str) -> "ExperimentScale":
        """Look a preset up by name."""
        presets = {
            "tiny": cls.tiny,
            "quick": cls.quick,
            "default": cls.default,
            "paper": cls.paper,
        }
        try:
            return presets[name]()
        except KeyError:
            raise ConfigurationError(
                f"unknown scale {name!r}; choose from {sorted(presets)}"
            ) from None

    @classmethod
    def from_env(cls, fallback: str = "default") -> "ExperimentScale":
        """Read the ``REPRO_SCALE`` environment variable (or fallback)."""
        return cls.from_name(os.environ.get("REPRO_SCALE", fallback))
