"""Tests for the Aggregation Engine, systolic arrays and Combination Engine."""

import numpy as np
import pytest

from repro.core import (
    AggregationEngine,
    CombinationEngine,
    HyGCNConfig,
    SystolicArrayModel,
)
from repro.graphs import community_graph, erdos_renyi_graph, power_law_graph
from repro.models import build_gcn, build_graphsage, build_gin


def gcn_workload(graph, hidden=32, seed=0):
    model = build_gcn(graph.feature_length, hidden_sizes=(hidden,), seed=seed)
    return model.workloads(graph)[0]


def small_config(**overrides):
    """A configuration scaled down so small test graphs span several intervals."""
    defaults = dict(
        input_buffer_bytes=2 * 1024,
        edge_buffer_bytes=32 * 1024,
        aggregation_buffer_bytes=4 * 1024,
        weight_buffer_bytes=256 * 1024,
        output_buffer_bytes=64 * 1024,
    )
    defaults.update(overrides)
    return HyGCNConfig(**defaults)


class TestAggregationEngine:
    def test_edges_conserved_across_intervals(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        engine = AggregationEngine(small_config())
        tasks = engine.process_layer(gcn_workload(g))
        assert sum(t.num_edges for t in tasks) == g.num_edges
        assert sum(t.num_vertices for t in tasks) == g.num_vertices

    def test_multiple_intervals_created_with_small_buffer(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        tasks = AggregationEngine(small_config()).process_layer(gcn_workload(g))
        assert len(tasks) > 1

    def test_sparsity_elimination_reduces_loaded_rows(self):
        g = community_graph(256, 1024, feature_length=16, num_communities=16, seed=1)
        wl = gcn_workload(g)
        with_opt = AggregationEngine(small_config()).process_layer(wl)
        without = AggregationEngine(
            small_config(enable_sparsity_elimination=False)).process_layer(wl)
        assert sum(t.loaded_rows for t in with_opt) < sum(t.loaded_rows for t in without)
        assert sum(t.input_feature_bytes for t in with_opt) < \
            sum(t.input_feature_bytes for t in without)

    def test_baseline_loads_all_rows_per_interval(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        cfg = small_config(enable_sparsity_elimination=False)
        tasks = AggregationEngine(cfg).process_layer(gcn_workload(g))
        for t in tasks:
            if t.num_edges:
                assert t.loaded_rows == g.num_vertices

    def test_compute_cycles_scale_with_lanes(self):
        g = erdos_renyi_graph(64, 512, feature_length=64, seed=0)
        wl = gcn_workload(g)
        few = AggregationEngine(small_config(num_simd_cores=4)).process_layer(wl)
        many = AggregationEngine(small_config(num_simd_cores=32)).process_layer(wl)
        assert sum(t.compute_cycles for t in few) > sum(t.compute_cycles for t in many)

    def test_sampling_reduces_edges(self):
        g = power_law_graph(128, 2048, feature_length=16, seed=2)
        model = build_graphsage(g.feature_length, hidden_sizes=(16,), sample_neighbors=2)
        wl = model.workloads(g)[0]
        engine = AggregationEngine(small_config())
        sampled_graph = engine.prepare_graph(wl)
        tasks = engine.process_layer(wl, graph=sampled_graph)
        assert sum(t.num_edges for t in tasks) < g.num_edges

    def test_dram_requests_use_expected_streams(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        tasks = AggregationEngine(small_config()).process_layer(gcn_workload(g))
        streams = {stream for t in tasks for stream, _, _ in t.dram_transfers}
        assert streams <= {"edges", "input_features"}
        assert "input_features" in streams

    def test_dram_request_bytes_match_declared(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        tasks = AggregationEngine(small_config()).process_layer(gcn_workload(g))
        for t in tasks:
            moved = sum(num_bytes for _, _, num_bytes in t.dram_transfers)
            assert moved == t.input_feature_bytes + t.edge_bytes

    def test_buffer_traffic_recorded(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        engine = AggregationEngine(small_config())
        engine.process_layer(gcn_workload(g))
        assert engine.input_buffer.stats.total_bytes > 0
        assert engine.edge_buffer.stats.total_bytes > 0

    def test_simd_ops_match_edge_and_vertex_counts(self):
        g = erdos_renyi_graph(32, 128, feature_length=8, seed=0)
        wl = gcn_workload(g)
        tasks = AggregationEngine(HyGCNConfig()).process_layer(wl)
        expected = (g.num_edges + g.num_vertices) * wl.in_feature_length
        assert sum(t.simd_ops for t in tasks) == expected


class TestSystolicArrayModel:
    def test_dimensions(self):
        arr = SystolicArrayModel(8, 4, 128)
        assert arr.pes_per_module == 512
        assert arr.total_pes == 4096
        assert arr.small_group_size() == 4
        assert arr.large_group_size() == 32

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SystolicArrayModel(0, 4, 128)

    def test_layer_cost_throughput_bound(self):
        arr = SystolicArrayModel(8, 4, 128)
        cost = arr.layer_cost(1024, 256, 128, cooperative=False)
        assert cost.macs == 1024 * 256 * 128
        assert cost.cycles >= cost.macs // arr.total_pes

    def test_cooperative_reads_fewer_weights(self):
        arr = SystolicArrayModel(8, 4, 128)
        ind = arr.layer_cost(1024, 256, 128, cooperative=False)
        coop = arr.layer_cost(1024, 256, 128, cooperative=True)
        assert coop.weight_buffer_read_bytes < ind.weight_buffer_read_bytes
        # the ratio approaches the number of modules
        assert ind.weight_buffer_read_bytes / coop.weight_buffer_read_bytes \
            == pytest.approx(8, rel=0.1)

    def test_cycles_similar_between_modes(self):
        arr = SystolicArrayModel(8, 4, 128)
        ind = arr.layer_cost(1024, 256, 128, cooperative=False)
        coop = arr.layer_cost(1024, 256, 128, cooperative=True)
        assert abs(ind.cycles - coop.cycles) <= arr.large_group_size() + arr.cols

    def test_group_cost_zero_vertices(self):
        arr = SystolicArrayModel(8, 4, 128)
        assert arr.group_cost(0, 16, 16, cooperative=False).cycles == 0
        assert arr.layer_cost(0, 16, 16, cooperative=True).macs == 0

    def test_cycles_per_vertex(self):
        arr = SystolicArrayModel(8, 4, 128)
        cost = arr.group_cost(32, 128, 128, cooperative=True)
        assert cost.cycles_per_vertex > 0

    def test_fewer_modules_same_total_pes_reads_fewer_weights(self):
        # Fig. 18g: coarser module granularity (same total arrays) reuses
        # weights across more vertices, lowering Weight Buffer traffic.
        fine = SystolicArrayModel(32, 1, 128)
        coarse = SystolicArrayModel(2, 16, 128)
        v, k, n = 2048, 256, 128
        assert coarse.layer_cost(v, k, n, False).weight_buffer_read_bytes < \
            fine.layer_cost(v, k, n, False).weight_buffer_read_bytes


class TestCombinationEngine:
    def make_tasks(self, graph, workload, config=None):
        cfg = config or small_config()
        agg = AggregationEngine(cfg)
        tasks = agg.process_layer(workload)
        return CombinationEngine(cfg), tasks

    def test_macs_match_workload(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        wl = gcn_workload(g, hidden=32)
        engine, agg_tasks = self.make_tasks(g, wl)
        comb = engine.process_layer(wl, agg_tasks)
        assert sum(t.macs for t in comb) == g.num_vertices * 16 * 32

    def test_weights_fetched_once_when_resident(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        wl = gcn_workload(g, hidden=32)
        engine, agg_tasks = self.make_tasks(g, wl)
        comb = engine.process_layer(wl, agg_tasks)
        fetches = [t.weight_dram_bytes for t in comb if t.weight_dram_bytes > 0]
        assert len(fetches) == 1

    def test_weights_refetched_when_not_resident(self):
        g = erdos_renyi_graph(64, 256, feature_length=64, seed=0)
        wl = gcn_workload(g, hidden=64)
        cfg = small_config(weight_buffer_bytes=1024)  # too small for 64x64 floats
        engine, agg_tasks = self.make_tasks(g, wl, cfg)
        comb = engine.process_layer(wl, agg_tasks)
        fetches = [t for t in comb if t.weight_dram_bytes > 0]
        assert len(fetches) == len(comb)

    def test_output_bytes(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        wl = gcn_workload(g, hidden=32)
        engine, agg_tasks = self.make_tasks(g, wl)
        comb = engine.process_layer(wl, agg_tasks)
        assert sum(t.output_dram_bytes for t in comb) == g.num_vertices * 32 * 4

    def test_gin_two_layer_mlp_counted(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        model = build_gin(g.feature_length, hidden_sizes=((32, 32),))
        wl = model.workloads(g)[0]
        engine, agg_tasks = self.make_tasks(g, wl)
        comb = engine.process_layer(wl, agg_tasks)
        assert sum(t.macs for t in comb) == g.num_vertices * (16 * 32 + 32 * 32)

    def test_cooperative_mode_reduces_weight_buffer_reads(self):
        g = erdos_renyi_graph(256, 1024, feature_length=32, seed=0)
        wl = gcn_workload(g, hidden=64)
        engine, agg_tasks = self.make_tasks(g, wl)
        independent = engine.process_layer(wl, agg_tasks, cooperative=False)
        cooperative = engine.process_layer(wl, agg_tasks, cooperative=True)
        assert sum(t.weight_buffer_read_bytes for t in cooperative) < \
            sum(t.weight_buffer_read_bytes for t in independent)

    def test_activation_ops(self):
        g = erdos_renyi_graph(64, 256, feature_length=16, seed=0)
        wl = gcn_workload(g, hidden=32)
        engine, agg_tasks = self.make_tasks(g, wl)
        comb = engine.process_layer(wl, agg_tasks)
        assert sum(t.activation_ops for t in comb) == g.num_vertices * 32
