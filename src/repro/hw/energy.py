"""Energy model for the accelerator and the off-chip memory.

Energy is accumulated bottom-up from event counts: MAC operations in the
systolic arrays, SIMD ALU operations in the Aggregation Engine, per-byte
accesses to each on-chip eDRAM buffer and per-bit HBM traffic (7 pJ/bit as in
Section 5.1).  A static (leakage + clock) component proportional to execution
time is added from the synthesized power figure (Table 7: 6.7 W total).

The absolute per-event energies are engineering estimates for a 12 nm process
(the paper does not publish them); what the evaluation reproduces is the
*structure* of the energy -- which engine dominates on which dataset (Fig. 12)
and the orders-of-magnitude gap to CPU/GPU (Fig. 11) -- and that structure is
set by the event counts, not the absolute picojoule constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..counters import Summable

__all__ = ["EnergyParams", "EnergyBreakdown", "EnergyModel"]


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energy constants in picojoules (12 nm class estimates)."""

    #: one 32-bit fixed-point multiply-accumulate in a systolic PE
    mac_pj: float = 0.6
    #: one 32-bit SIMD ALU operation (add/max/min/compare) in the Aggregation Engine
    simd_op_pj: float = 0.4
    #: one byte read or written in an on-chip eDRAM buffer
    buffer_pj_per_byte: float = 0.15
    #: one byte moved over the HBM interface (7 pJ/bit => 56 pJ/byte)
    dram_pj_per_byte: float = 56.0
    #: static power of the whole accelerator in watts (used for leakage energy)
    static_power_w: float = 0.67
    #: accelerator clock frequency in Hz (1 GHz, Section 5.1)
    clock_hz: float = 1e9

    def static_energy_pj(self, cycles: int) -> float:
        """Leakage/clock energy for ``cycles`` of execution."""
        seconds = cycles / self.clock_hz
        return self.static_power_w * seconds * 1e12


@dataclass
class EnergyBreakdown(Summable):
    """Energy per architectural component, in picojoules (:meth:`merge`
    sums two breakdowns, e.g. across layers)."""

    aggregation_compute_pj: float = 0.0
    aggregation_buffers_pj: float = 0.0
    combination_compute_pj: float = 0.0
    combination_buffers_pj: float = 0.0
    coordinator_buffers_pj: float = 0.0
    dram_pj: float = 0.0
    static_pj: float = 0.0

    @property
    def aggregation_engine_pj(self) -> float:
        return self.aggregation_compute_pj + self.aggregation_buffers_pj

    @property
    def combination_engine_pj(self) -> float:
        return self.combination_compute_pj + self.combination_buffers_pj

    @property
    def on_chip_pj(self) -> float:
        return (self.aggregation_engine_pj + self.combination_engine_pj
                + self.coordinator_buffers_pj + self.static_pj)

    @property
    def total_pj(self) -> float:
        return self.on_chip_pj + self.dram_pj

    @property
    def total_joules(self) -> float:
        return self.total_pj * 1e-12

    def engine_shares(self) -> Dict[str, float]:
        """Fractional on-chip+DRAM energy per engine (the Fig. 12 breakdown)."""
        total = self.total_pj or 1.0
        return {
            "aggregation_engine": (self.aggregation_engine_pj + self.dram_pj * 0.0) / total,
            "combination_engine": self.combination_engine_pj / total,
            "coordinator": self.coordinator_buffers_pj / total,
            "dram": self.dram_pj / total,
            "static": self.static_pj / total,
        }


class EnergyModel:
    """Turns event counts into an :class:`EnergyBreakdown`."""

    def __init__(self, params: Optional[EnergyParams] = None):
        self.params = params or EnergyParams()

    def compute(
        self,
        simd_ops: int,
        macs: int,
        aggregation_buffer_bytes: Mapping[str, int],
        combination_buffer_bytes: Mapping[str, int],
        coordinator_buffer_bytes: int,
        dram_bytes: int,
        cycles: int,
    ) -> EnergyBreakdown:
        """Compute the energy breakdown of one simulation run.

        ``aggregation_buffer_bytes`` / ``combination_buffer_bytes`` map buffer
        names to total bytes accessed (reads + writes); ``coordinator_buffer_bytes``
        is the traffic of the Aggregation (ping-pong) Buffer, which Table 7
        attributes to the Coordinator.
        """
        p = self.params
        agg_buffer_traffic = sum(aggregation_buffer_bytes.values())
        comb_buffer_traffic = sum(combination_buffer_bytes.values())
        return EnergyBreakdown(
            aggregation_compute_pj=simd_ops * p.simd_op_pj,
            aggregation_buffers_pj=agg_buffer_traffic * p.buffer_pj_per_byte,
            combination_compute_pj=macs * p.mac_pj,
            combination_buffers_pj=comb_buffer_traffic * p.buffer_pj_per_byte,
            coordinator_buffers_pj=coordinator_buffer_bytes * p.buffer_pj_per_byte,
            dram_pj=dram_bytes * p.dram_pj_per_byte,
            static_pj=p.static_energy_pj(cycles),
        )
