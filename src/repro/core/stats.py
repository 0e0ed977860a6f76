"""Simulation result containers.

A :class:`LayerReport` captures everything the evaluation section plots for a
single GCN layer execution on HyGCN: cycle counts per engine, DRAM traffic per
stream, bandwidth utilisation, energy breakdown, average vertex latency and
the effect of sparsity elimination.  A :class:`SimulationReport` aggregates
the layer reports of a whole model run and offers the derived metrics
(execution time, total energy, speedups against a baseline measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hw.dram import DRAMStats, HBMConfig
from ..hw.energy import EnergyBreakdown

__all__ = ["LayerReport", "SimulationReport"]

_DEFAULT_PEAK_BYTES_PER_CYCLE = HBMConfig().peak_bandwidth_bytes_per_cycle


def _utilization(dram_bytes: int, peak_bytes_per_cycle: int, cycles: int) -> float:
    """Moved bytes over what peak bandwidth could move in ``cycles``, capped at 1."""
    if cycles == 0:
        return 0.0
    return min(1.0, dram_bytes / (peak_bytes_per_cycle * cycles))


@dataclass
class LayerReport:
    """Metrics of one layer (one :class:`LayerWorkload`) on the accelerator."""

    name: str
    total_cycles: int
    aggregation_cycles: int
    combination_cycles: int
    num_vertices: int
    num_edges: int
    simd_ops: int
    macs: int
    dram_stats: DRAMStats
    dram_bytes_by_stream: Dict[str, int]
    energy: EnergyBreakdown
    avg_vertex_latency_cycles: float
    sparsity_reduction: float
    loaded_feature_rows: int
    baseline_feature_rows: int
    num_intervals: int
    buffer_overflows: int = 0
    #: peak bandwidth of the simulated chip's HBM stack
    peak_bytes_per_cycle: int = _DEFAULT_PEAK_BYTES_PER_CYCLE

    @property
    def dram_bytes(self) -> int:
        return self.dram_stats.bytes_transferred

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of peak HBM bandwidth used over the layer's execution time."""
        return _utilization(self.dram_bytes, self.peak_bytes_per_cycle, self.total_cycles)


@dataclass
class SimulationReport:
    """Aggregate result of running a whole model (all layers) on HyGCN."""

    model_name: str
    dataset_name: str
    layers: List[LayerReport] = field(default_factory=list)
    clock_ghz: float = 1.0
    #: peak bandwidth of the simulated chip's HBM stack
    peak_bytes_per_cycle: int = _DEFAULT_PEAK_BYTES_PER_CYCLE

    # ------------------------------------------------------------------ #
    # Totals
    # ------------------------------------------------------------------ #
    @property
    def total_cycles(self) -> int:
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def execution_time_s(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def aggregation_cycles(self) -> int:
        return sum(layer.aggregation_cycles for layer in self.layers)

    @property
    def combination_cycles(self) -> int:
        return sum(layer.combination_cycles for layer in self.layers)

    @property
    def total_dram_bytes(self) -> int:
        return sum(layer.dram_bytes for layer in self.layers)

    @property
    def dram_stats(self) -> DRAMStats:
        stats = DRAMStats()
        for layer in self.layers:
            stats = stats.merge(layer.dram_stats)
        return stats

    @property
    def energy(self) -> EnergyBreakdown:
        breakdown = EnergyBreakdown()
        for layer in self.layers:
            breakdown = breakdown.merge(layer.energy)
        return breakdown

    @property
    def total_energy_j(self) -> float:
        return self.energy.total_joules

    @property
    def avg_vertex_latency_cycles(self) -> float:
        if not self.layers:
            return 0.0
        return sum(l.avg_vertex_latency_cycles for l in self.layers) / len(self.layers)

    @property
    def bandwidth_utilization(self) -> float:
        """DRAM bandwidth utilisation over the whole execution."""
        return _utilization(self.total_dram_bytes, self.peak_bytes_per_cycle,
                            self.total_cycles)

    @property
    def avg_sparsity_reduction(self) -> float:
        if not self.layers:
            return 0.0
        return sum(l.sparsity_reduction for l in self.layers) / len(self.layers)

    def dram_bytes_by_stream(self) -> Dict[str, int]:
        """Total DRAM bytes per logical stream across layers."""
        totals: Dict[str, int] = {}
        for layer in self.layers:
            for stream, value in layer.dram_bytes_by_stream.items():
                totals[stream] = totals.get(stream, 0) + value
        return totals

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def speedup_over(self, other_time_s: float) -> float:
        """Speedup of this run versus a baseline execution time in seconds."""
        if self.execution_time_s == 0:
            return float("inf")
        return other_time_s / self.execution_time_s

    def energy_ratio_to(self, other_energy_j: float) -> float:
        """This run's energy as a fraction of a baseline's energy."""
        if other_energy_j == 0:
            return float("inf")
        return self.total_energy_j / other_energy_j

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by the benchmark harness tables."""
        return {
            "model": self.model_name,
            "dataset": self.dataset_name,
            "cycles": self.total_cycles,
            "time_s": self.execution_time_s,
            "energy_j": self.total_energy_j,
            "dram_mb": self.total_dram_bytes / (1 << 20),
            "bandwidth_utilization": self.bandwidth_utilization,
            "avg_vertex_latency_cycles": self.avg_vertex_latency_cycles,
        }
