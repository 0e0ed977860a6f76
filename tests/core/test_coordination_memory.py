"""Tests for the Coordinator, memory access handler and programming model."""

import numpy as np
import pytest

from repro.core import (
    ACCESS_PRIORITY,
    AggregationEngine,
    CombinationEngine,
    Coordinator,
    EdgeMVMProgram,
    HyGCNConfig,
    IntervalTiming,
    MemoryAccessHandler,
    PipelineMode,
)
from repro.graphs import erdos_renyi_graph
from repro.models import build_gcn, build_graphsage


def gcn_workload(graph, hidden=32):
    return build_gcn(graph.feature_length, hidden_sizes=(hidden,)).workloads(graph)[0]


def serviced_streams(handler, batch):
    """The stream of every request ``handler`` sends to its HBM model, in order."""
    seen = []
    service = handler.hbm.service

    def spy(streams, stream_of, addresses, num_bytes):
        seen.extend(streams[code] for code in stream_of)
        return service(streams, stream_of, addresses, num_bytes)

    handler.hbm.service = spy
    handler.service_batch(batch)
    return seen


class TestMemoryAccessHandler:
    def make_interleaved_batch(self, per_stream=32, chunk=2048):
        return [(stream, i * chunk, chunk)
                for i in range(per_stream) for stream in ACCESS_PRIORITY]

    def test_priority_ordering(self):
        handler = MemoryAccessHandler(HyGCNConfig(enable_memory_coordination=True))
        streams = serviced_streams(handler, self.make_interleaved_batch())
        # all edges come before all input features, etc.
        boundaries = [streams.index(s) for s in ACCESS_PRIORITY]
        assert boundaries == sorted(boundaries)
        for stream in ACCESS_PRIORITY:
            first = streams.index(stream)
            last = len(streams) - 1 - streams[::-1].index(stream)
            assert streams[first:last + 1] == [stream] * (last - first + 1)

    def test_uncoordinated_round_robin(self):
        handler = MemoryAccessHandler(HyGCNConfig(enable_memory_coordination=False))
        # one transfer of two rows per stream, streams listed in reverse
        batch = [(stream, 0, 4096) for stream in reversed(ACCESS_PRIORITY)]
        streams = serviced_streams(handler, batch)
        # one request from each stream per turn, in order of first appearance
        assert streams == 2 * list(reversed(ACCESS_PRIORITY))

    def test_coordination_improves_service_time(self):
        coordinated = MemoryAccessHandler(HyGCNConfig(enable_memory_coordination=True))
        uncoordinated = MemoryAccessHandler(HyGCNConfig(enable_memory_coordination=False))
        batch = self.make_interleaved_batch(per_stream=64)
        res_c = coordinated.service_batch(list(batch))
        res_u = uncoordinated.service_batch(list(batch))
        # coordination exposes channel/bank parallelism: same bytes, fewer cycles
        assert res_c.stats.bytes_transferred == res_u.stats.bytes_transferred
        assert res_c.stats.row_hit_rate >= res_u.stats.row_hit_rate
        assert res_c.total_cycles < res_u.total_cycles

    def test_cycles_attributed_to_streams(self):
        handler = MemoryAccessHandler(HyGCNConfig())
        batch = self.make_interleaved_batch(per_stream=8)
        result = handler.service_batch(batch)
        assert set(result.cycles_by_stream) == set(ACCESS_PRIORITY)
        total_attr = sum(result.cycles_by_stream.values())
        assert total_attr == pytest.approx(result.total_cycles, abs=len(ACCESS_PRIORITY))
        assert result.cycles_for(("edges", "input_features")) <= result.total_cycles

    def test_empty_batch(self):
        handler = MemoryAccessHandler(HyGCNConfig())
        result = handler.service_batch([])
        assert result.total_cycles == 0
        assert result.cycles_by_stream == {}

    def test_open_rows_persist_across_batches(self):
        handler = MemoryAccessHandler(HyGCNConfig())
        first = handler.service_batch([("edges", 0, 8192)])
        again = handler.service_batch([("edges", 0, 8192)])
        assert first.stats.row_hits == 0
        assert again.stats.row_misses == 0


class TestCoordinator:
    def make_timings(self, agg, comb):
        return [IntervalTiming(i, a, c) for i, (a, c) in enumerate(zip(agg, comb))]

    def test_pipeline_overlaps_engines(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        wl = gcn_workload(g)
        coordinator = Coordinator(HyGCNConfig())
        timings = self.make_timings([100, 100, 100], [80, 80, 80])
        pipelined = coordinator.compose(wl, timings, PipelineMode.LATENCY)
        serial = coordinator.compose(wl, timings, PipelineMode.NONE)
        assert pipelined.total_cycles < serial.total_cycles
        assert serial.total_cycles == 300 + 240
        # perfect 2-stage pipeline: a0 + max pairs + c_last
        assert pipelined.total_cycles == 100 + 100 + 100 + 80

    def test_single_interval_pipeline_equals_serial(self):
        g = erdos_renyi_graph(16, 32, feature_length=8, seed=0)
        wl = gcn_workload(g)
        coordinator = Coordinator(HyGCNConfig())
        timings = self.make_timings([50], [20])
        assert coordinator.compose(wl, timings, PipelineMode.LATENCY).total_cycles == 70
        assert coordinator.compose(wl, timings, PipelineMode.NONE).total_cycles == 70

    def test_empty_timings(self):
        g = erdos_renyi_graph(16, 32, feature_length=8, seed=0)
        wl = gcn_workload(g)
        timing = Coordinator(HyGCNConfig()).compose(wl, [], PipelineMode.LATENCY)
        assert timing.total_cycles == 0

    def test_invalid_mode_rejected(self):
        g = erdos_renyi_graph(16, 32, feature_length=8, seed=0)
        wl = gcn_workload(g)
        with pytest.raises(ValueError):
            Coordinator(HyGCNConfig()).compose(wl, [], "bogus")

    def test_latency_mode_lower_vertex_latency_than_energy(self):
        g = erdos_renyi_graph(256, 2048, feature_length=64, seed=0)
        wl = gcn_workload(g, hidden=64)
        coordinator = Coordinator(HyGCNConfig())
        timings = self.make_timings([1000, 1000], [800, 800])
        lat = coordinator.compose(wl, timings, PipelineMode.LATENCY)
        en = coordinator.compose(wl, timings, PipelineMode.ENERGY)
        assert lat.avg_vertex_latency_cycles < en.avg_vertex_latency_cycles

    def test_buffer_traffic_recorded(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        wl = gcn_workload(g)
        cfg = HyGCNConfig()
        agg_tasks = AggregationEngine(cfg).process_layer(wl)
        coordinator = Coordinator(cfg)
        coordinator.record_buffer_traffic(wl, agg_tasks)
        assert coordinator.aggregation_buffer.stats.total_bytes > 0
        assert coordinator.aggregation_buffer.swaps == len(agg_tasks)


class TestEdgeMVMProgram:
    def test_trace_counts_edges_and_vertices(self):
        g = erdos_renyi_graph(32, 128, feature_length=8, seed=0)
        wl = gcn_workload(g)
        trace = EdgeMVMProgram(wl).trace()
        assert trace.edges_processed == g.num_edges
        assert trace.vertices_processed == g.num_vertices
        assert trace.mvms_executed == g.num_vertices
        assert trace.combination_macs == wl.combination_macs()

    def test_trace_respects_sampling(self):
        g = erdos_renyi_graph(64, 1024, feature_length=8, seed=1)
        wl = build_graphsage(g.feature_length, hidden_sizes=(8,),
                             sample_neighbors=2).workloads(g)[0]
        trace = EdgeMVMProgram(wl).trace()
        assert trace.edges_processed < g.num_edges
        assert trace.max_vertex_edges <= 2

    def test_run_matches_layer_forward(self):
        g = erdos_renyi_graph(32, 128, feature_length=8, seed=0)
        model = build_gcn(g.feature_length, hidden_sizes=(8,))
        wl = model.workloads(g)[0]
        program = EdgeMVMProgram(wl)
        np.testing.assert_allclose(program.run(), model.layers[0].forward(g, g.features))

    def test_edge_parallel_batches_cover_all_edges(self):
        g = erdos_renyi_graph(32, 128, feature_length=8, seed=0)
        wl = gcn_workload(g)
        batches = EdgeMVMProgram(wl).edge_parallel_batches(batch_size=16)
        total = sum(len(b) for b in batches)
        assert total == g.num_edges
        assert all(len(b) <= 16 for b in batches)

    def test_edge_parallel_batches_invalid_size(self):
        g = erdos_renyi_graph(8, 16, feature_length=4, seed=0)
        with pytest.raises(ValueError):
            EdgeMVMProgram(gcn_workload(g)).edge_parallel_batches(0)

    def test_avg_vertex_edges(self):
        g = erdos_renyi_graph(32, 128, feature_length=8, seed=0)
        trace = EdgeMVMProgram(gcn_workload(g)).trace()
        assert trace.avg_vertex_edges == pytest.approx(g.num_edges / g.num_vertices)
