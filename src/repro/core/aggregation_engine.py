"""Aggregation Engine model (Section 4.3).

HyGCN groups destination vertices into *intervals* and source vertices into
*shards* (Section 4.3.2, Fig. 5a/b): the interval width is bounded by the
Aggregation Buffer capacity (intermediate results of the whole interval must
stay on chip) and the shard height by the Input Buffer capacity (the source
features of one shard must fit on chip).  The aggregation of an interval then
walks its shards one by one, reusing the loaded source features across all
destination vertices of the interval (Algorithm 2).

As the paper stresses, no explicit preprocessing is required: intervals and
shards are implicit in the CSC layout.  An interval is the arithmetic range
``[start, start + interval_size)`` of destination ids, its edges are one
contiguous slice of the CSC index array, and the shard height is the window
height the Sparsity Eliminator slides over that slice.

The engine processes one destination-vertex interval at a time.  For each
interval it:

1. samples the incoming edges (the Sampler),
2. determines which source-feature rows must be loaded -- every source row
   without optimisation, or only the effectual windows produced by the
   Sparsity Eliminator (window sliding + shrinking),
3. streams edges through the SIMD cores in vertex-disperse mode: the
   element-wise reductions of all vertices are spread over all
   ``num_simd_cores x simd_width`` lanes so no lane idles,
4. accumulates partial results in the Aggregation Buffer.

The output is a list of :class:`IntervalAggregation` transactions carrying the
compute-cycle cost, the DRAM transfers and the buffer traffic of each interval;
the Coordinator composes them with the Combination Engine's transactions.  The
transfers are stream-tagged arrays; the input-feature runs are the Sparsity
Eliminator's ``(starts, stops)`` windows, scaled to bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.sampling import NeighborSampler
from ..hw.buffer import DoubleBuffer
from ..hw.dram import StreamTransfers
from ..models.layers import LayerWorkload
from .config import HyGCNConfig
from .sparsity import SparsityEliminator

__all__ = ["IntervalAggregation", "AggregationEngine"]


@dataclass
class IntervalAggregation:
    """The Aggregation Engine's work for one destination interval."""

    interval_index: int
    num_vertices: int
    num_edges: int
    loaded_rows: int
    baseline_rows: int
    compute_cycles: int
    simd_ops: int
    input_feature_bytes: int
    edge_bytes: int
    aggregation_buffer_bytes: int
    dram_transfers: List[StreamTransfers] = field(default_factory=list)


class AggregationEngine:
    """Transaction-level model of the Aggregation Engine."""

    def __init__(self, config: HyGCNConfig):
        self.config = config
        self.edge_buffer = DoubleBuffer("edge_buffer", config.edge_buffer_bytes)
        self.input_buffer = DoubleBuffer("input_buffer", config.input_buffer_bytes)

    # ------------------------------------------------------------------ #
    def prepare_graph(self, workload: LayerWorkload) -> Graph:
        """Apply the Sampler: materialise the sampled edge structure."""
        sampling = workload.aggregation.sampling
        if sampling is not None and sampling.enabled:
            return NeighborSampler(sampling).sample_graph(workload.graph)
        return workload.graph

    def partition(self, graph: Graph, feature_length: int) -> Tuple[int, int]:
        """``(interval_size, shard_height)`` sized by the on-chip buffer
        capacities and capped at the graph's vertex count."""
        n = graph.num_vertices
        return (min(self.config.interval_size(feature_length), n),
                min(self.config.shard_height(feature_length), n))

    # ------------------------------------------------------------------ #
    def process_layer(
        self,
        workload: LayerWorkload,
        graph: Optional[Graph] = None,
        partition: Optional[Tuple[int, int]] = None,
        feature_length: Optional[int] = None,
    ) -> List[IntervalAggregation]:
        """Produce one :class:`IntervalAggregation` per destination interval.

        HyGCN follows the edge-centric programming model (Algorithm 1):
        aggregation runs before combination and therefore operates at the
        layer's *input* feature length, regardless of the algebraic reordering
        PyG applies on CPU/GPU.  ``feature_length`` can override this for
        what-if studies.
        """
        cfg = self.config
        feature_length = feature_length or workload.in_feature_length
        graph = graph if graph is not None else self.prepare_graph(workload)
        interval_size, shard_height = (partition if partition is not None
                                       else self.partition(graph, feature_length))
        n = graph.num_vertices
        bytes_per_feature_row = feature_length * cfg.bytes_per_value
        bytes_per_edge = 2 * cfg.bytes_per_value
        eliminator = SparsityEliminator(shard_height)
        indptr, indices = graph.csc.indptr, graph.csc.indices
        tasks: List[IntervalAggregation] = []

        for index, start in enumerate(range(0, n, interval_size)):
            stop = min(start + interval_size, n)
            num_vertices = stop - start
            # one interval's edges are one contiguous slice of the CSC
            sources = indices[indptr[start]:indptr[stop]]
            num_edges = int(sources.size)
            baseline_rows = n
            # the input-feature runs: the effectual windows, or one run over
            # all rows (none without edges) when elimination is off
            if cfg.enable_sparsity_elimination:
                report = eliminator.eliminate(sources, n, baseline_rows=baseline_rows)
                first_rows, run_rows = report.starts, report.stops - report.starts
            else:
                first_rows, run_rows = np.array([0]), np.array([baseline_rows if num_edges else 0])
            loaded_rows = int(run_rows.sum())

            # --- compute: vertex-disperse mode keeps every SIMD lane busy ---
            simd_ops = (num_edges + num_vertices) * feature_length
            compute_cycles = int(np.ceil(simd_ops / cfg.total_simd_lanes)) if simd_ops else 0

            # --- DRAM traffic -------------------------------------------------
            input_bytes = loaded_rows * bytes_per_feature_row
            edge_bytes = num_edges * bytes_per_edge
            # the edge array streams sequentially from the CSC structure
            transfers = [("edges", np.array([0]), np.array([edge_bytes])),
                         ("input_features", first_rows * bytes_per_feature_row,
                          run_rows * bytes_per_feature_row)]

            # --- on-chip buffer traffic --------------------------------------
            # the double buffer holds one interval's edges at a time
            self.edge_buffer.allocate("current_interval", min(
                edge_bytes, self.edge_buffer.working_capacity))
            self.edge_buffer.write(edge_bytes)
            self.edge_buffer.read(edge_bytes)
            self.input_buffer.write(input_bytes)
            # each edge reads its source feature vector from the Input Buffer
            self.input_buffer.read(num_edges * bytes_per_feature_row)
            # partial results are read-modified-written per edge, and the final
            # aggregated interval is written once for the Combination Engine
            agg_buffer_bytes = (2 * num_edges + num_vertices) * bytes_per_feature_row

            tasks.append(IntervalAggregation(
                interval_index=index,
                num_vertices=num_vertices,
                num_edges=num_edges,
                loaded_rows=loaded_rows,
                baseline_rows=baseline_rows,
                compute_cycles=compute_cycles,
                simd_ops=simd_ops,
                input_feature_bytes=input_bytes,
                edge_bytes=edge_bytes,
                aggregation_buffer_bytes=agg_buffer_bytes,
                dram_transfers=transfers,
            ))
        return tasks
