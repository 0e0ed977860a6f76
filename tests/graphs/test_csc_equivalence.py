"""Differential proof that the array sampler core matches the scalar oracle.

:class:`repro.serving.sampler.SubgraphSampler` and
:class:`repro.graphs.sampling.NeighborSampler` run vectorized passes over a
graph's ``colptr``/``row`` arrays.  ``_reference.py`` reads the same
contracts (``docs/core.md``) one vertex at a time.  For the same seed every
observable -- extracted subgraphs, minhash signatures, fused sizes, fused
graphs, sampled graphs -- must be identical, on a graph built from CSC
arrays and on a plain :class:`~repro.graphs.graph.Graph` whose CSC arrays
are derived from its CSR view.  Any divergence in the determinism contract
(phase-stream consumption, first-seen local-id order, canonical CSR form)
fails loudly here rather than as a silent shift in downstream numbers.
"""

import functools
import json

import _reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CSCMatrix,
    DeltaGraph,
    Graph,
    NeighborSampler,
    SamplingConfig,
    community_graph,
    erdos_renyi_graph,
    load_dataset,
    power_law_graph,
)
from repro.models.model_zoo import build_model, clear_workloads_cache
from repro.serving.fleet import FleetConfig, ServingSimulator, clear_probe_cache
from repro.serving.sampler import SubgraphSampler
from repro.serving.workload import RequestGenerator, WorkloadConfig

GENERATORS = {
    "power_law": lambda seed: power_law_graph(500, 5000, 12, skew=1.2,
                                              seed=seed),
    "community": lambda seed: community_graph(400, 3200, 12,
                                              num_communities=8, seed=seed),
    "erdos_renyi": lambda seed: erdos_renyi_graph(300, 2400, 12, seed=seed),
}
LAYOUTS = ("csc", "plain")


def _graph(kind, seed, layout):
    """A generator graph, CSC-built or as its plain-``Graph`` twin."""
    graph = GENERATORS[kind](seed)
    if layout == "plain":
        graph = Graph.from_csr(graph.csr, graph.features, name=graph.name)
    return graph


@functools.lru_cache(maxsize=None)
def _root_pool_graph(kind, layout):
    """A generator graph in one of three layouts; ``delta`` is a
    :class:`DeltaGraph` after edge and vertex inserts, with its sampler
    built before the inserts so it syncs to them."""
    if layout != "delta":
        graph = _graph(kind, 0, layout)
        return graph, lambda seed: SubgraphSampler(graph, seed=seed)
    delta = DeltaGraph(_graph(kind, 0, "csc"))
    samplers = {seed: SubgraphSampler(delta, seed=seed) for seed in range(4)}
    hub = int(np.argmax(np.diff(delta.colptr)))
    # self-loops make a root its own in-neighbour: the one repeat hop 1
    # can see
    for src, dst in ((1, 0), (delta.num_vertices - 1, hub), (7, 3), (hub, 11),
                     (hub, hub), (0, 0)):
        delta.add_edge(src, dst)
    for k in range(3):
        new = delta.add_vertex(delta.features[k])
        delta.add_edge(new, hub)
        if k:  # the first new vertex keeps zero in-degree
            delta.add_edge(k, new)
    return delta, samplers.__getitem__


@st.composite
def _roots(draw, graph):
    """1-40 distinct roots mixing the top in-degree hubs, zero in-degree
    vertices and uniform draws."""
    degrees = np.diff(graph.colptr)
    hubs = np.argsort(-degrees, kind="stable")[:8].tolist()
    sources = np.flatnonzero(degrees == 0)[:8].tolist()
    special = st.sampled_from(hubs + sources)
    anywhere = st.integers(0, graph.num_vertices - 1)
    return draw(st.lists(st.one_of(special, anywhere), min_size=1,
                         max_size=40, unique=True))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(GENERATORS)),
       layout=st.sampled_from(LAYOUTS + ("delta",)),
       num_hops=st.integers(0, 3), fanout=st.integers(1, 16),
       seed=st.integers(0, 3))
def test_extract_fresh_many_matches_reference(data, kind, layout, num_hops,
                                              fanout, seed):
    """Every root of one multi-root call equals the scalar oracle's lone
    extraction: vertex order, CSR structure, width and name."""
    graph, make_sampler = _root_pool_graph(kind, layout)
    roots = data.draw(_roots(graph))
    samples = make_sampler(seed).extract_fresh_many(roots, num_hops, fanout)
    assert len(samples) == len(roots)
    for root, sample in zip(roots, samples):
        vertices, expected = reference.extract(graph, root, num_hops, fanout,
                                               seed)
        assert sample.target_vertex == root
        assert sample.vertex_ids.tolist() == list(vertices)
        assert np.array_equal(sample.graph.csr.indptr, expected.csr.indptr)
        assert np.array_equal(sample.graph.csr.indices, expected.csr.indices)
        assert sample.graph.csr.num_cols == expected.csr.num_cols
        _assert_csc_of(sample.graph, expected.csr)
        assert sample.graph.name == expected.name


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 7),
       calls=st.lists(st.tuples(st.lists(st.integers(0, 59), min_size=1,
                                         max_size=5),
                                st.integers(0, 3), st.integers(1, 4)),
                      min_size=1, max_size=6))
def test_kept_phase_prefixes_match_reference_across_calls(seed, calls):
    """One sampler keeps each target's phase prefix across a sequence of
    calls of mixed shapes (three hops at fanout <= 4 outgrow the shortest
    prefix, so prefixes are re-seeded longer mid-sequence); every root of
    every call still equals the oracle's lone extraction, which seeds its
    own Generator."""
    graph = power_law_graph(60, 600, feature_length=2, seed=seed)
    sampler = SubgraphSampler(graph, seed=seed)
    for roots, num_hops, fanout in calls:
        samples = sampler.extract_fresh_many(roots, num_hops, fanout)
        for root, sample in zip(roots, samples):
            vertices, expected = reference.extract(graph, root, num_hops,
                                                   fanout, seed)
            assert sample.vertex_ids.tolist() == list(vertices)
            assert np.array_equal(sample.graph.csr.indptr,
                                  expected.csr.indptr)
            assert np.array_equal(sample.graph.csr.indices,
                                  expected.csr.indices)
            _assert_csc_of(sample.graph, expected.csr)


@pytest.mark.parametrize("roots", [[-1], [0, -1], [3, 500], [500]])
def test_extract_fresh_many_rejects_out_of_range_roots(roots):
    """numpy indexing would wrap ``-1`` to the last vertex silently."""
    sampler = SubgraphSampler(_graph("power_law", 0, "csc"))
    with pytest.raises(ValueError, match="out of range"):
        sampler.extract_fresh_many(roots)
    with pytest.raises(ValueError, match="out of range"):
        sampler.extract_fresh(roots[-1])


def _assert_csc_of(graph, csr):
    """The engine reads the CSC arrays: pin them bit for bit, since a CSR
    built from them would hide a wrong order inside a column."""
    csc = CSCMatrix.from_csr(csr)
    assert (np.array_equal(graph.colptr, csc.indptr)
            and np.array_equal(graph.row, csc.indices))


def _assert_same_graph(a, b):
    assert np.array_equal(a.csr.indptr, b.csr.indptr)
    assert np.array_equal(a.csr.indices, b.csr.indices)
    _assert_csc_of(a, b.csr)
    assert np.array_equal(a.features, b.features)


def _assert_matches(sample, expected):
    vertices, graph = expected
    assert sample.vertex_ids.tolist() == list(vertices)
    _assert_same_graph(sample.graph, graph)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [0, 3])
def test_extract_and_signature_identical(kind, seed):
    for layout in LAYOUTS:
        graph = _graph(kind, seed, layout)
        for hops, fanout in [(0, 8), (1, 4), (2, 8), (2, 32), (3, 6)]:
            sampler = SubgraphSampler(graph, num_hops=hops, fanout=fanout,
                                      seed=seed)
            for target in range(0, graph.num_vertices, 29):
                expected = reference.extract(graph, target, hops, fanout, seed)
                _assert_matches(sampler.extract(target), expected)
                _assert_matches(sampler.extract_fresh(target), expected)
                assert sampler.signature(target).tolist() == \
                    reference.signature(expected[0], sampler._sig_mult,
                                        sampler._sig_xor)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_fused_size_and_fuse_identical(kind):
    for layout in LAYOUTS:
        graph = _graph(kind, 1, layout)
        sampler = SubgraphSampler(graph, num_hops=2, fanout=8, seed=1)
        targets = list(range(0, graph.num_vertices, 17))
        for batch in (targets[:1], targets[:5], targets[:20]):
            expected = [reference.extract(graph, t, 2, 8, 1) for t in batch]
            shapes = [(t, None, None) for t in batch]
            assert sampler.fused_size(shapes) == reference.fused_size(expected)
            fused = sampler.fuse([sampler.extract(t) for t in batch])
            _assert_same_graph(fused, reference.fuse(graph.features, expected))


def test_fuse_mixed_shape_batches_identical():
    """Degraded (override-shape) samples fuse like the oracle's."""
    shapes = [(5, 1, 4), (5, 2, 8), (40, 3, 2), (77, None, None)]
    for layout in LAYOUTS:
        graph = _graph("power_law", 2, layout)
        sampler = SubgraphSampler(graph, num_hops=2, fanout=8, seed=2)
        expected = [reference.extract(graph, t, h or 2, f or 8, 2)
                    for t, h, f in shapes]
        assert sampler.fused_size(shapes) == reference.fused_size(expected)
        fused = sampler.fuse(
            [sampler.extract(t, num_hops=h, fanout=f) for t, h, f in shapes])
        _assert_same_graph(fused, reference.fuse(graph.features, expected))


@pytest.mark.parametrize("config", [
    SamplingConfig(max_neighbors=4),
    SamplingConfig(sampling_factor=3),
    SamplingConfig(max_neighbors=6, sampling_factor=2),
    SamplingConfig(max_neighbors=4, strategy="strided"),
    SamplingConfig(sampling_factor=2, strategy="strided", seed=5),
])
def test_neighbor_sampler_identical(config):
    for layout in LAYOUTS:
        graph = _graph("power_law", 4, layout)
        sampled = NeighborSampler(config).sample_graph(graph)
        expected = reference.sample_graph(NeighborSampler(config), graph)
        _assert_same_graph(sampled, expected)
        assert sampled.name == expected.name


def test_serve_report_json_identical():
    """A dataset and its plain-``Graph`` twin serve bit-identical reports."""
    payloads = {}
    for layout in LAYOUTS:
        clear_probe_cache()
        clear_workloads_cache()
        load_dataset.cache_clear()
        graph = load_dataset("IB", seed=0)
        if layout == "plain":
            graph = Graph.from_csr(graph.csr, graph.features, name=graph.name)
        model = build_model("GCN", input_length=graph.feature_length)
        simulator = ServingSimulator(
            graph, model, FleetConfig(batch_policy="overlap"),
            dataset_name="IB")
        workload = WorkloadConfig(num_requests=120, rate_rps=50.0,
                                  arrival="poisson", popularity_skew=0.8,
                                  seed=5)
        requests = RequestGenerator(graph.num_vertices, workload).generate()
        report = simulator.run(requests, rate_rps=50.0)
        payloads[layout] = json.dumps(report.to_dict(), sort_keys=True)
    assert payloads["csc"] == payloads["plain"]
