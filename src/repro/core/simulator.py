"""Top-level HyGCN simulator.

:class:`HyGCNSimulator` stitches the pieces together for every layer of a GCN
model: the Aggregation Engine produces per-interval aggregation transactions,
the Combination Engine produces the matching MVM transactions, the Memory
Access Handler services their DRAM requests (with or without coordination),
and the Coordinator composes engine times according to the pipeline mode.
Event counts feed the energy model, and everything is collected into
:class:`~repro.core.stats.LayerReport` / :class:`~repro.core.stats.SimulationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..graphs.graph import Graph
from ..hw.buffer import BufferStats
from ..hw.dram import DRAMStats, StreamTransfers
from ..hw.energy import EnergyModel
from ..models.base import GCNModel
from ..models.diffpool import DiffPoolModel
from ..models.layers import LayerWorkload
from ..models.model_zoo import workloads_for
from .aggregation_engine import AggregationEngine, IntervalAggregation
from .combination_engine import CombinationEngine, IntervalCombination
from .config import HyGCNConfig, PipelineMode
from .coordinator import Coordinator, IntervalTiming
from .memory_handler import AccessBatchResult, MemoryAccessHandler
from .stats import LayerReport, SimulationReport

__all__ = ["HyGCNSimulator"]

AnyModel = Union[GCNModel, DiffPoolModel]

#: streams owned by each engine, used to attribute DRAM time
_AGGREGATION_STREAMS = ("edges", "input_features")
_COMBINATION_STREAMS = ("weights", "output_features")


class HyGCNSimulator:
    """Phase-accurate, transaction-level simulator of the HyGCN accelerator."""

    def __init__(self, config: Optional[HyGCNConfig] = None):
        self.config = config or HyGCNConfig()
        self.energy_model = EnergyModel(self.config.energy)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run_model(self, model: AnyModel, graph: Graph,
                  dataset_name: Optional[str] = None) -> SimulationReport:
        """Simulate inference of ``model`` on ``graph`` and return the report."""
        workloads = workloads_for(model, graph)
        report = SimulationReport(
            model_name=getattr(model, "name", model.__class__.__name__),
            dataset_name=dataset_name or graph.name,
            clock_ghz=self.config.clock_ghz,
            peak_bytes_per_cycle=self.config.hbm.peak_bandwidth_bytes_per_cycle,
        )
        for workload in workloads:
            report.layers.append(self.run_workload(workload))
        if isinstance(model, DiffPoolModel):
            report.layers.append(self._run_diffpool_matmuls(model, graph))
        return report

    def run_workload(self, workload: LayerWorkload) -> LayerReport:
        """Simulate one GCN layer and return its :class:`LayerReport`."""
        cfg = self.config
        aggregation_engine = AggregationEngine(cfg)
        combination_engine = CombinationEngine(cfg)
        coordinator = Coordinator(cfg)
        memory = MemoryAccessHandler(cfg)

        graph = aggregation_engine.prepare_graph(workload)
        # The hardware follows Algorithm 1 (aggregate, then combine), so the
        # Aggregation Engine always works at the layer's input feature length.
        partition = aggregation_engine.partition(graph, workload.in_feature_length)
        agg_tasks = aggregation_engine.process_layer(workload, graph, partition)
        cooperative = cfg.pipeline_mode == PipelineMode.ENERGY
        comb_tasks = combination_engine.process_layer(workload, agg_tasks, cooperative)
        if cfg.pipeline_mode == PipelineMode.NONE:
            self._add_spill_transfers(workload, agg_tasks, comb_tasks)
        coordinator.record_buffer_traffic(workload, agg_tasks)

        timings, stream_bytes, dram_stats = self._service_memory(
            memory, agg_tasks, comb_tasks)
        layer_timing = coordinator.compose(workload, timings)

        energy = self.energy_model.compute(
            simd_ops=sum(t.simd_ops for t in agg_tasks),
            macs=sum(t.macs for t in comb_tasks),
            aggregation_buffer_bytes={
                "edge_buffer": aggregation_engine.edge_buffer.stats.total_bytes,
                "input_buffer": aggregation_engine.input_buffer.stats.total_bytes,
            },
            combination_buffer_bytes={
                "weight_buffer": combination_engine.weight_buffer.stats.total_bytes,
                "output_buffer": combination_engine.output_buffer.stats.total_bytes,
            },
            coordinator_buffer_bytes=coordinator.aggregation_buffer.stats.total_bytes,
            dram_bytes=dram_stats.bytes_transferred,
            cycles=layer_timing.total_cycles,
        )

        loaded_rows = sum(t.loaded_rows for t in agg_tasks)
        baseline_rows = sum(t.baseline_rows for t in agg_tasks)
        sparsity_reduction = 1.0 - loaded_rows / baseline_rows if baseline_rows else 0.0
        overflow = (aggregation_engine.edge_buffer.stats.overflow_events
                    + aggregation_engine.input_buffer.stats.overflow_events
                    + combination_engine.weight_buffer.stats.overflow_events
                    + combination_engine.output_buffer.stats.overflow_events
                    + coordinator.aggregation_buffer.stats.overflow_events)

        return LayerReport(
            name=workload.name,
            total_cycles=layer_timing.total_cycles,
            aggregation_cycles=layer_timing.aggregation_cycles,
            combination_cycles=layer_timing.combination_cycles,
            num_vertices=graph.num_vertices,
            num_edges=sum(t.num_edges for t in agg_tasks),
            simd_ops=sum(t.simd_ops for t in agg_tasks),
            macs=sum(t.macs for t in comb_tasks),
            dram_stats=dram_stats,
            dram_bytes_by_stream=stream_bytes,
            energy=energy,
            avg_vertex_latency_cycles=layer_timing.avg_vertex_latency_cycles,
            sparsity_reduction=sparsity_reduction,
            loaded_feature_rows=loaded_rows,
            baseline_feature_rows=baseline_rows,
            num_intervals=len(agg_tasks),
            buffer_overflows=overflow,
            peak_bytes_per_cycle=cfg.hbm.peak_bandwidth_bytes_per_cycle,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _service_memory(
        self,
        memory: MemoryAccessHandler,
        agg_tasks: Sequence[IntervalAggregation],
        comb_tasks: Sequence[IntervalCombination],
    ):
        """Service DRAM transfers interval by interval and attribute cycles.

        In the pipelined modes the aggregation transfers of interval ``i``
        arrive concurrently with the combination transfers of interval ``i-1``
        (that is exactly the contention the access coordination addresses); in
        the non-pipelined mode the two engines never overlap, so their batches
        are serviced separately.
        """
        pipelined = self.config.pipeline_mode != PipelineMode.NONE
        num_intervals = len(agg_tasks)
        agg_dram = [0] * num_intervals
        comb_dram = [0] * num_intervals
        stream_bytes: Dict[str, int] = {}
        total_stats = DRAMStats()

        def service(transfers: List[StreamTransfers]) -> AccessBatchResult:
            nonlocal total_stats
            result = memory.service_batch(transfers)
            total_stats = total_stats.merge(result.stats)
            for stream, num_bytes in result.bytes_by_stream.items():
                stream_bytes[stream] = stream_bytes.get(stream, 0) + num_bytes
            return result

        if pipelined:
            for step in range(num_intervals + 1):
                batch: List[StreamTransfers] = []
                if step < num_intervals:
                    batch.extend(agg_tasks[step].dram_transfers)
                if step > 0:
                    batch.extend(comb_tasks[step - 1].dram_transfers)
                result = service(batch)
                if step < num_intervals:
                    agg_dram[step] += result.cycles_for(_AGGREGATION_STREAMS)
                if step > 0:
                    comb_dram[step - 1] += result.cycles_for(_COMBINATION_STREAMS)
        else:
            for i in range(num_intervals):
                agg_dram[i] = service(agg_tasks[i].dram_transfers).total_cycles
                comb_dram[i] = service(comb_tasks[i].dram_transfers).total_cycles

        timings = [
            IntervalTiming(
                interval_index=agg_tasks[i].interval_index,
                aggregation_cycles=max(agg_tasks[i].compute_cycles, agg_dram[i]),
                combination_cycles=max(comb_tasks[i].compute_cycles, comb_dram[i]),
            )
            for i in range(num_intervals)
        ]
        return timings, stream_bytes, total_stats

    def _add_spill_transfers(
        self,
        workload: LayerWorkload,
        agg_tasks: Sequence[IntervalAggregation],
        comb_tasks: Sequence[IntervalCombination],
    ) -> None:
        """Without the inter-engine pipeline, aggregated features round-trip DRAM."""
        bytes_per_vertex = workload.combination.mlp.input_size * self.config.bytes_per_value
        for agg, comb in zip(agg_tasks, comb_tasks):
            spill = agg.num_vertices * bytes_per_vertex
            address, num_bytes = np.array([agg.interval_index * spill]), np.array([spill])
            agg.dram_transfers.append(("output_features", address, num_bytes))
            comb.dram_transfers.append(("input_features", address, num_bytes))

    def _run_diffpool_matmuls(self, model: DiffPoolModel, graph: Graph) -> LayerReport:
        """Account the three Eq. 8 matrix multiplications on the Combination Engine."""
        cfg = self.config
        from .systolic import SystolicArrayModel

        systolic = SystolicArrayModel(cfg.num_systolic_modules, cfg.systolic_rows,
                                      cfg.systolic_cols, cfg.bytes_per_value)
        cooperative = cfg.pipeline_mode == PipelineMode.ENERGY
        cycles = 0
        macs = 0
        dram_bytes = 0
        for matmul in model.extra_matmuls(graph):
            cost = systolic.layer_cost(matmul.m, matmul.k, matmul.n, cooperative)
            cycles += cost.cycles
            macs += cost.macs
            dram_bytes += (matmul.m * matmul.k + matmul.k * matmul.n
                           + matmul.m * matmul.n) * cfg.bytes_per_value
        dram_cycles = dram_bytes // cfg.hbm.peak_bandwidth_bytes_per_cycle
        total_cycles = max(cycles, dram_cycles)
        stats = DRAMStats(requests=0, bytes_transferred=dram_bytes,
                          busy_cycles=dram_cycles, total_channel_cycles=dram_cycles,
                          energy_pj=dram_bytes * 8 * cfg.hbm.energy_pj_per_bit)
        energy = self.energy_model.compute(
            simd_ops=0, macs=macs,
            aggregation_buffer_bytes={}, combination_buffer_bytes={},
            coordinator_buffer_bytes=0, dram_bytes=dram_bytes, cycles=total_cycles)
        return LayerReport(
            name="diffpool_matmuls",
            total_cycles=total_cycles,
            aggregation_cycles=0,
            combination_cycles=cycles,
            num_vertices=graph.num_vertices,
            num_edges=0,
            simd_ops=0,
            macs=macs,
            dram_stats=stats,
            dram_bytes_by_stream={"weights": dram_bytes},
            energy=energy,
            avg_vertex_latency_cycles=0.0,
            sparsity_reduction=0.0,
            loaded_feature_rows=0,
            baseline_feature_rows=0,
            num_intervals=1,
            peak_bytes_per_cycle=cfg.hbm.peak_bandwidth_bytes_per_cycle,
        )
