"""Generic hardware substrate: on-chip buffers, HBM model, energy and area models."""

from .buffer import BufferStats, DoubleBuffer, PingPongBuffer, ScratchpadBuffer
from .dram import DRAMStats, HBMConfig, HBMModel, StreamTransfers
from .energy import EnergyBreakdown, EnergyModel, EnergyParams
from .area import AreaPowerModel, AreaPowerConfig, ModuleBudget, PAPER_TABLE7

__all__ = [
    "BufferStats",
    "DoubleBuffer",
    "PingPongBuffer",
    "ScratchpadBuffer",
    "DRAMStats",
    "HBMConfig",
    "HBMModel",
    "StreamTransfers",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyParams",
    "AreaPowerModel",
    "AreaPowerConfig",
    "ModuleBudget",
    "PAPER_TABLE7",
]
