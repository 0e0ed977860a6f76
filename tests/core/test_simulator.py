"""Integration tests for the top-level HyGCN simulator."""

import pytest

from repro.core import HyGCNConfig, HyGCNSimulator, PipelineMode
from repro.graphs import Graph, community_graph, load_dataset, power_law_graph
from repro.hw import HBMConfig
from repro.models import MODEL_NAMES, build_diffpool, build_gcn, build_model


def small_graph(seed=0):
    return community_graph(256, 2048, feature_length=64, num_communities=16, seed=seed)


def small_config(**overrides):
    defaults = dict(
        input_buffer_bytes=4 * 1024,
        aggregation_buffer_bytes=64 * 1024,
    )
    defaults.update(overrides)
    return HyGCNConfig(**defaults)


class TestRunWorkload:
    def test_report_fields_populated(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        report = HyGCNSimulator(small_config()).run_workload(model.workloads(g)[0])
        assert report.total_cycles > 0
        assert report.aggregation_cycles > 0
        assert report.combination_cycles > 0
        assert report.num_edges == g.num_edges
        assert report.macs == g.num_vertices * 64 * 32
        assert report.dram_bytes > 0
        assert report.energy.total_pj > 0
        assert report.num_intervals >= 1
        assert 0.0 <= report.sparsity_reduction <= 1.0
        assert 0.0 <= report.bandwidth_utilization <= 1.0

    def test_pipeline_reduces_cycles(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        wl = model.workloads(g)[0]
        pipelined = HyGCNSimulator(small_config(pipeline_mode=PipelineMode.LATENCY)) \
            .run_workload(wl)
        serial = HyGCNSimulator(small_config(pipeline_mode=PipelineMode.NONE)) \
            .run_workload(wl)
        assert pipelined.total_cycles < serial.total_cycles

    def test_no_pipeline_spills_to_dram(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        wl = model.workloads(g)[0]
        pipelined = HyGCNSimulator(small_config(pipeline_mode=PipelineMode.LATENCY)) \
            .run_workload(wl)
        serial = HyGCNSimulator(small_config(pipeline_mode=PipelineMode.NONE)) \
            .run_workload(wl)
        assert serial.dram_bytes > pipelined.dram_bytes

    def test_sparsity_elimination_reduces_dram(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        wl = model.workloads(g)[0]
        on = HyGCNSimulator(small_config()).run_workload(wl)
        off = HyGCNSimulator(small_config(enable_sparsity_elimination=False)) \
            .run_workload(wl)
        assert on.dram_bytes < off.dram_bytes
        assert on.total_cycles <= off.total_cycles
        assert on.sparsity_reduction > 0
        assert off.sparsity_reduction == 0.0

    def test_memory_coordination_reduces_cycles(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        wl = model.workloads(g)[0]
        on = HyGCNSimulator(small_config()).run_workload(wl)
        off = HyGCNSimulator(small_config(enable_memory_coordination=False)) \
            .run_workload(wl)
        assert on.total_cycles < off.total_cycles
        # same data is moved either way
        assert on.dram_bytes == off.dram_bytes

    def test_energy_pipeline_lower_energy_higher_latency(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        wl = model.workloads(g)[0]
        lat = HyGCNSimulator(small_config(pipeline_mode=PipelineMode.LATENCY)) \
            .run_workload(wl)
        en = HyGCNSimulator(small_config(pipeline_mode=PipelineMode.ENERGY)) \
            .run_workload(wl)
        assert en.energy.combination_engine_pj < lat.energy.combination_engine_pj
        assert en.avg_vertex_latency_cycles > lat.avg_vertex_latency_cycles

    def test_stream_bytes_accounted(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        report = HyGCNSimulator(small_config()).run_workload(model.workloads(g)[0])
        streams = report.dram_bytes_by_stream
        assert set(streams) >= {"edges", "input_features", "weights", "output_features"}
        assert sum(streams.values()) == report.dram_bytes


class TestRunModel:
    @pytest.mark.parametrize("sparsity", [True, False])
    def test_empty_graph_rejected(self, sparsity):
        g = Graph.from_edge_list([], num_vertices=0, feature_length=4)
        model = build_gcn(g.feature_length, hidden_sizes=(8,))
        sim = HyGCNSimulator(small_config(enable_sparsity_elimination=sparsity))
        with pytest.raises(ValueError):
            sim.run_model(model, g)

    def test_all_models_run_on_dataset(self):
        g = load_dataset("IB", seed=0)
        sim = HyGCNSimulator()
        for name in MODEL_NAMES:
            model = build_model(name, input_length=g.feature_length)
            report = sim.run_model(model, g, dataset_name="IB")
            assert report.total_cycles > 0
            assert report.total_energy_j > 0
            assert report.model_name == model.name
            assert report.dataset_name == "IB"

    def test_multi_layer_model_accumulates(self):
        g = small_graph()
        one = build_gcn(g.feature_length, hidden_sizes=(32,))
        two = build_gcn(g.feature_length, hidden_sizes=(32, 32))
        sim = HyGCNSimulator(small_config())
        assert sim.run_model(two, g).total_cycles > sim.run_model(one, g).total_cycles
        assert len(sim.run_model(two, g).layers) == 2

    def test_diffpool_includes_matmul_layer(self):
        g = small_graph()
        model = build_diffpool(g.feature_length, hidden_size=32, num_clusters=16)
        report = HyGCNSimulator(small_config()).run_model(model, g)
        assert report.layers[-1].name == "diffpool_matmuls"
        assert report.layers[-1].macs > 0
        assert len(report.layers) == 3

    def test_summary_keys(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        summary = HyGCNSimulator(small_config()).run_model(model, g).summary()
        assert {"model", "dataset", "cycles", "time_s", "energy_j",
                "dram_mb", "bandwidth_utilization"} <= set(summary)

    def test_speedup_and_energy_ratio_helpers(self):
        g = small_graph()
        model = build_gcn(g.feature_length, hidden_sizes=(32,))
        report = HyGCNSimulator(small_config()).run_model(model, g)
        assert report.speedup_over(report.execution_time_s * 10) == pytest.approx(10.0)
        assert report.energy_ratio_to(report.total_energy_j * 4) == pytest.approx(0.25)

    def test_gin_more_aggregation_heavy_than_gcn(self):
        # GIN aggregates at the full feature length with a two-layer MLP; its
        # total work on the same graph exceeds single-layer GCN's.
        g = small_graph()
        sim = HyGCNSimulator(small_config())
        gcn = sim.run_model(build_model("GCN", input_length=g.feature_length), g)
        gin = sim.run_model(build_model("GIN", input_length=g.feature_length), g)
        assert gin.total_cycles >= gcn.total_cycles

    @pytest.mark.parametrize("model_name", ["GCN", "DFP"])
    def test_bandwidth_utilization_uses_the_simulated_hbm(self, model_name):
        # 16 channels double the peak; the reports must divide by the chip's
        # own 512 B/cycle, not the default stack's 256
        g = small_graph()
        config = small_config(hbm=HBMConfig(num_channels=16))
        model = build_model(model_name, input_length=g.feature_length, hidden_size=32)
        report = HyGCNSimulator(config).run_model(model, g)
        peak = 16 * 32
        assert report.bandwidth_utilization == \
            report.total_dram_bytes / (peak * report.total_cycles)
        for layer in report.layers:
            assert layer.bandwidth_utilization == \
                layer.dram_bytes / (peak * layer.total_cycles)
