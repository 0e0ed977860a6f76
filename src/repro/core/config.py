"""HyGCN accelerator configuration (Table 6 defaults).

The default values reproduce the evaluated configuration: 32 SIMD16 cores in
the Aggregation Engine, 8 systolic modules of 4x128 PEs in the Combination
Engine, 1 GHz clock, the five on-chip buffers (128 KB Input, 2 MB Edge, 2 MB
Weight, 4 MB Output, 16 MB Aggregation) and a 256 GB/s HBM 1.0 stack.  The
ablation switches (sparsity elimination, pipeline mode, memory coordination)
default to the fully optimised design; the optimisation-analysis benchmarks
flip them off one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hw.dram import HBMConfig
from ..hw.energy import EnergyParams

__all__ = ["HyGCNConfig", "PipelineMode"]

KIB = 1024
MIB = 1024 * 1024


class PipelineMode:
    """Inter-engine pipeline modes (Section 4.5.1)."""

    NONE = "none"          # phase-by-phase, intermediate results spill to DRAM
    LATENCY = "latency"    # independent systolic modules, immediate processing
    ENERGY = "energy"      # cooperative systolic modules, burst processing

    ALL = (NONE, LATENCY, ENERGY)


@dataclass(frozen=True)
class HyGCNConfig:
    """Structural and policy parameters of the accelerator."""

    # --- Aggregation Engine ------------------------------------------------
    num_simd_cores: int = 32
    simd_width: int = 16
    # --- Combination Engine ------------------------------------------------
    num_systolic_modules: int = 8
    systolic_rows: int = 4
    systolic_cols: int = 128
    # --- On-chip buffers (bytes) --------------------------------------------
    input_buffer_bytes: int = 128 * KIB
    edge_buffer_bytes: int = 2 * MIB
    weight_buffer_bytes: int = 2 * MIB
    output_buffer_bytes: int = 4 * MIB
    aggregation_buffer_bytes: int = 16 * MIB
    # --- Datapath ------------------------------------------------------------
    bytes_per_value: int = 4        # 32-bit fixed point
    clock_ghz: float = 1.0
    # --- Policies / ablation switches ---------------------------------------
    enable_sparsity_elimination: bool = True
    pipeline_mode: str = PipelineMode.LATENCY
    enable_memory_coordination: bool = True
    # --- Memory & energy sub-configs ----------------------------------------
    hbm: HBMConfig = field(default_factory=HBMConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self) -> None:
        if self.pipeline_mode not in PipelineMode.ALL:
            raise ValueError(
                f"pipeline_mode must be one of {PipelineMode.ALL}, got {self.pipeline_mode!r}"
            )
        for name in ("num_simd_cores", "simd_width", "num_systolic_modules",
                     "systolic_rows", "systolic_cols", "input_buffer_bytes",
                     "edge_buffer_bytes", "weight_buffer_bytes",
                     "output_buffer_bytes", "aggregation_buffer_bytes",
                     "bytes_per_value"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def total_simd_lanes(self) -> int:
        """Peak element-wise aggregation operations per cycle (lanes).

        ``num_simd_cores * simd_width``: the Aggregation Engine's compute
        roof.  An aggregation task of ``E`` edges over feature length ``F``
        needs at least ``E * F / total_simd_lanes`` cycles of SIMD time --
        the phase is only *compute*-bound when that exceeds its DRAM time,
        which on the default balance it rarely is (aggregation is the
        memory-bound phase; shape presets that widen this are buying
        headroom, not throughput, unless bandwidth grows too).
        """
        return self.num_simd_cores * self.simd_width

    @property
    def pes_per_module(self) -> int:
        """MAC units in one systolic module (``rows * cols``).

        ``systolic_cols`` is also the output-feature tile width: layers
        whose output length is below ``cols`` leave columns idle, so a
        module's *effective* PEs can be smaller than this peak.
        """
        return self.systolic_rows * self.systolic_cols

    @property
    def total_pes(self) -> int:
        """Peak MACs per cycle across all systolic modules.

        The Combination Engine's compute roof: a layer of ``V`` vertices,
        input length ``F`` and output length ``H`` needs at least
        ``V * F * H / total_pes`` cycles.  Because every sampled vertex of
        a fused serving batch is combined, wide/deep neighbourhoods are
        what makes a batch MAC-dense -- the regime the ``comb_heavy``
        shape preset (:mod:`repro.serving.hetero`) doubles this for.
        """
        return self.num_systolic_modules * self.pes_per_module

    @property
    def aggregation_chunk_bytes(self) -> int:
        """Capacity (bytes) of one ping-pong chunk of the Aggregation Buffer.

        The buffer is split in two so the Combination Engine drains one
        chunk while the Aggregation Engine fills the other; a chunk bounds
        how many destination vertices' partial results stay on chip, which
        is exactly what :meth:`interval_size` converts to vertices.
        """
        return self.aggregation_buffer_bytes // 2

    @property
    def input_working_bytes(self) -> int:
        """Usable Input Buffer bytes per shard (double buffered).

        Half the physical buffer: the other half prefetches the next
        shard's source-vertex features.  Bounds how many source vertices'
        features are resident per shard (:meth:`shard_height`) -- the
        knob that controls how often the irregular aggregation phase
        re-streams features from DRAM.
        """
        return self.input_buffer_bytes // 2

    # ------------------------------------------------------------------ #
    # Workload-dependent tiling
    # ------------------------------------------------------------------ #
    def interval_size(self, feature_length: int) -> int:
        """Destination vertices per interval (count, not bytes).

        One interval's partial aggregation results -- ``feature_length``
        values of ``bytes_per_value`` each per destination vertex -- must
        fit one Aggregation Buffer chunk, so longer features mean fewer
        vertices per interval and more intervals per layer.
        """
        per_vertex = max(1, feature_length) * self.bytes_per_value
        return max(1, self.aggregation_chunk_bytes // per_vertex)

    def shard_height(self, feature_length: int) -> int:
        """Source vertices per shard (count, not bytes).

        One shard's source-vertex features must fit the Input Buffer
        working set; graphs taller than this are processed in multiple
        shards per interval, each re-walking its edge slice.
        """
        per_vertex = max(1, feature_length) * self.bytes_per_value
        return max(1, self.input_working_bytes // per_vertex)

    def with_overrides(self, **kwargs) -> "HyGCNConfig":
        """Return a copy with selected fields replaced (ablation helper)."""
        return replace(self, **kwargs)
