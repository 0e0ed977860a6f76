"""No serve builds a CSR: the samplers and the engines read CSC only.

HyGCN's Aggregation Engine reads in-neighbour CSC directly (Section 4.3.2),
and so does every serve: samples and fused batches are built as CSC with
one sort.  :meth:`CSRMatrix.transpose` is the one way a CSR is derived from
a CSC (``Graph.csr``) or a CSC from a CSR (``CSCMatrix.from_csr``), so a
serve that calls it sorts a graph twice.  Both runs below make it raise.
"""

import pytest

from repro.graphs import CSRMatrix, load_dataset
from repro.models.model_zoo import build_model
from repro.serving.fleet import (FleetConfig, ServingSimulator,
                                 clear_probe_cache, run_serving)
from repro.serving.workload import RequestGenerator, WorkloadConfig


@pytest.fixture
def no_transpose(monkeypatch):
    def transpose(self):
        raise AssertionError("a serve built a CSR")

    clear_probe_cache()
    monkeypatch.setattr(CSRMatrix, "transpose", transpose)


def test_fixed_fleet_serve_builds_no_csr(no_transpose):
    graph = load_dataset("IB", seed=0)
    model = build_model("GCN", input_length=graph.feature_length)
    simulator = ServingSimulator(
        graph, model, FleetConfig(num_chips=2, batch_policy="overlap"),
        dataset_name="IB")
    workload = WorkloadConfig(num_requests=120, rate_rps=2000.0,
                              arrival="poisson", popularity_skew=0.8, seed=5)
    requests = RequestGenerator(graph.num_vertices, workload).generate()
    report = simulator.run(requests, rate_rps=2000.0)
    assert report.completed == len(requests)


def test_streaming_serve_builds_no_csr(no_transpose):
    report = run_serving(dataset="IB", num_requests=160, rate_rps=3000.0,
                         seed=6, config=FleetConfig(num_chips=2),
                         update_rate=0.2, update_mix="edge=0.5,vertex=0.5")
    assert report.completed == 160
    assert report.consistency.edge_updates > 0
    assert report.consistency.vertex_updates > 0
