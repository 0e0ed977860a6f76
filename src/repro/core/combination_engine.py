"""Combination Engine model (Section 4.4).

The engine takes the aggregated feature vectors of one interval from the
Aggregation Buffer and pushes them through the (possibly multi-layer) MLP on
the multi-granular systolic arrays, applying the activation in the Activate
Unit and coalescing the new features in the Output Buffer before they are
written back to DRAM.

Weights are fetched from DRAM into the Weight Buffer once per layer (they are
fully shared between vertices); if the weight matrices exceed the Weight
Buffer they are re-fetched per interval, which the model accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..hw.buffer import ScratchpadBuffer
from ..hw.dram import Transfer
from ..models.layers import LayerWorkload
from .aggregation_engine import IntervalAggregation
from .config import HyGCNConfig, PipelineMode
from .systolic import SystolicArrayModel

__all__ = ["IntervalCombination", "CombinationEngine"]


@dataclass
class IntervalCombination:
    """The Combination Engine's work for one destination interval."""

    interval_index: int
    num_vertices: int
    macs: int
    compute_cycles: int
    weight_dram_bytes: int
    output_dram_bytes: int
    weight_buffer_read_bytes: int
    output_buffer_bytes: int
    activation_ops: int
    dram_transfers: List[Transfer] = field(default_factory=list)


class CombinationEngine:
    """Transaction-level model of the Combination Engine."""

    def __init__(self, config: HyGCNConfig):
        self.config = config
        self.weight_buffer = ScratchpadBuffer("weight_buffer", config.weight_buffer_bytes)
        self.output_buffer = ScratchpadBuffer("output_buffer", config.output_buffer_bytes)
        self.systolic = SystolicArrayModel(
            num_modules=config.num_systolic_modules,
            rows=config.systolic_rows,
            cols=config.systolic_cols,
            bytes_per_value=config.bytes_per_value,
        )

    # ------------------------------------------------------------------ #
    def mlp_weight_bytes(self, workload: LayerWorkload) -> int:
        """Total bytes of the layer's (multi-layer) MLP weights and biases."""
        return workload.combination.mlp.parameter_bytes(self.config.bytes_per_value)

    def weights_fit_on_chip(self, workload: LayerWorkload) -> bool:
        """Whether the whole MLP stays resident in the Weight Buffer."""
        return self.mlp_weight_bytes(workload) <= self.config.weight_buffer_bytes

    # ------------------------------------------------------------------ #
    def process_layer(
        self,
        workload: LayerWorkload,
        aggregation_tasks: Sequence[IntervalAggregation],
        cooperative: bool = None,
    ) -> List[IntervalCombination]:
        """Produce one :class:`IntervalCombination` per destination interval."""
        cfg = self.config
        if cooperative is None:
            cooperative = cfg.pipeline_mode == PipelineMode.ENERGY
        mlp = workload.combination.mlp
        weights_resident = self.weights_fit_on_chip(workload)
        weight_bytes_total = self.mlp_weight_bytes(workload)
        out_bytes_per_vertex = workload.out_feature_length * cfg.bytes_per_value
        tasks: List[IntervalCombination] = []

        for i, agg in enumerate(aggregation_tasks):
            vertices = agg.num_vertices
            # --- systolic compute across all MLP layers ----------------------
            cycles = 0
            macs = 0
            weight_buffer_reads = 0
            for w in mlp.weights:
                cost = self.systolic.layer_cost(vertices, w.shape[0], w.shape[1], cooperative)
                cycles += cost.cycles
                macs += cost.macs
                weight_buffer_reads += cost.weight_buffer_read_bytes
            activation_ops = vertices * workload.out_feature_length

            # --- DRAM traffic -------------------------------------------------
            # Weights: fetched once per layer if resident, else once per interval.
            fetch_weights = (i == 0) or not weights_resident
            weight_dram = weight_bytes_total if fetch_weights else 0
            output_dram = vertices * out_bytes_per_vertex
            transfers = [
                ("weights", 0, weight_dram),
                ("output_features",
                 agg.interval_index * out_bytes_per_vertex * max(vertices, 1),
                 output_dram),
            ]

            # --- on-chip buffer traffic --------------------------------------
            self.weight_buffer.allocate("mlp", min(weight_bytes_total, cfg.weight_buffer_bytes))
            if weight_dram:
                self.weight_buffer.write(weight_dram)
            self.weight_buffer.read(weight_buffer_reads)
            self.output_buffer.write(output_dram)
            self.output_buffer.read(output_dram)

            tasks.append(IntervalCombination(
                interval_index=agg.interval_index,
                num_vertices=vertices,
                macs=macs,
                compute_cycles=cycles,
                weight_dram_bytes=weight_dram,
                output_dram_bytes=output_dram,
                weight_buffer_read_bytes=weight_buffer_reads,
                output_buffer_bytes=2 * output_dram,
                activation_ops=activation_ops,
                dram_transfers=transfers,
            ))
        return tasks
