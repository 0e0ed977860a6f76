"""Property-based invariants of the array-native CSC core.

A :class:`~repro.graphs.graph.Graph` is three contiguous arrays with a
handful of structural invariants (``colptr`` monotone and consistent with
``row``, per-column sources canonically sorted, features row-aligned).
Rather than enumerating cases by hand, these tests drive
``Graph.from_edge_list``, its ``Graph.from_csr`` twin and the samplers
with a seeded random corpus of edge lists --
including the degenerate shapes (empty graphs, isolated vertices,
self-loops) that array code tends to get wrong at the boundaries -- and
assert the invariants hold for every member.  ``hypothesis`` generates
the corpus where available; the explicit edge-case tests below run
everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, graphs_equal
from repro.serving.sampler import SubgraphSampler


def _edge_list_graphs(draw_edges, num_vertices, undirected, seed):
    graph = Graph.from_edge_list(draw_edges, num_vertices, feature_length=4,
                                 undirected=undirected, seed=seed)
    return Graph.from_csr(graph.csr, graph.features), graph


@st.composite
def random_graphs(draw):
    num_vertices = draw(st.integers(min_value=1, max_value=40))
    num_edges = draw(st.integers(min_value=0, max_value=120))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=0,
                          max_size=num_edges))
    undirected = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=7))
    return _edge_list_graphs(edges, num_vertices, undirected, seed)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_csc_structural_invariants(pair):
    graph, csc = pair
    colptr, row = csc.colptr, csc.row
    # shape: one offset per vertex plus the terminator, rows cover all edges
    assert colptr.shape == (csc.num_vertices + 1,)
    assert colptr[0] == 0
    assert colptr[-1] == row.shape[0] == csc.num_edges
    assert np.all(np.diff(colptr) >= 0)
    # every source id is a valid vertex, canonically sorted per column
    if row.size:
        assert 0 <= row.min() and row.max() < csc.num_vertices
    for v in range(csc.num_vertices):
        segment = row[colptr[v]:colptr[v + 1]]
        assert np.all(np.diff(segment) > 0)  # sorted, no duplicate edges
        assert np.array_equal(segment, np.sort(graph.in_neighbors(v)))
    # contiguous int64 arrays are the layout contract
    assert colptr.flags["C_CONTIGUOUS"] and row.flags["C_CONTIGUOUS"]
    assert colptr.dtype == np.int64 and row.dtype == np.int64
    assert csc.features.shape[0] == csc.num_vertices


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_csc_round_trip(pair):
    graph, csc = pair
    # a CSR-built graph and its CSC-built twin have the same arrays
    assert graphs_equal(csc, graph)
    assert np.array_equal(csc.csr.indptr, graph.csr.indptr)
    assert np.array_equal(csc.csr.indices, graph.csr.indices)
    assert np.array_equal(csc.colptr, graph.colptr)
    assert np.array_equal(csc.row, graph.row)
    assert csc.features is graph.features  # the twin shares, never copies


@settings(max_examples=30, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8))
def test_sampling_deterministic_per_seed(pair, num_hops, fanout):
    _, csc = pair
    target = csc.num_vertices // 2
    a = SubgraphSampler(csc, num_hops=num_hops, fanout=fanout, seed=11)
    b = SubgraphSampler(csc, num_hops=num_hops, fanout=fanout, seed=11)
    sample_a, sample_b = a.extract(target), b.extract(target)
    assert sample_a.vertex_ids.tolist() == sample_b.vertex_ids.tolist()
    assert np.array_equal(sample_a.graph.csr.indptr,
                          sample_b.graph.csr.indptr)
    assert np.array_equal(sample_a.graph.csr.indices,
                          sample_b.graph.csr.indices)
    assert np.array_equal(a.signature(target), b.signature(target))


def test_sampling_diverges_across_seeds():
    """Different sampler seeds must be able to produce different samples."""
    graph = Graph.from_edge_list([(i, 0) for i in range(1, 64)], 64,
                                 feature_length=4, undirected=False)
    csc = graph
    samples = {
        tuple(SubgraphSampler(csc, num_hops=1, fanout=4, seed=s)
              .extract(0).vertex_ids.tolist())
        for s in range(12)
    }
    assert len(samples) > 1


def test_empty_graph():
    csc = Graph.from_edge_list([], 3, feature_length=4)
    assert csc.num_edges == 0
    assert np.array_equal(csc.colptr, np.zeros(4, dtype=np.int64))
    assert csc.row.size == 0
    sample = SubgraphSampler(csc, num_hops=2, fanout=4).extract(1)
    assert sample.vertex_ids.tolist() == [1]
    assert sample.num_edges == 0


def test_isolated_vertex():
    csc = Graph.from_edge_list([(0, 1)], 3, feature_length=4)
    assert np.diff(csc.colptr)[2] == 0
    assert csc.in_neighbors(2).size == 0
    sample = SubgraphSampler(csc, num_hops=2, fanout=4).extract(2)
    assert sample.vertex_ids.tolist() == [2]


def test_self_loop():
    csc = Graph.from_edge_list([(0, 0), (0, 1)], 2, feature_length=4,
                               undirected=False)
    assert 0 in csc.in_neighbors(0)
    sample = SubgraphSampler(csc, num_hops=3, fanout=4).extract(0)
    # the self-loop must not re-add the target or loop forever
    vertices = sample.vertex_ids.tolist()
    assert vertices[0] == 0
    assert len(set(vertices)) == len(vertices)


def test_single_vertex_graph():
    csc = Graph.from_edge_list([], 1, feature_length=4)
    sample = SubgraphSampler(csc, num_hops=2, fanout=2).extract(0)
    assert sample.vertex_ids.tolist() == [0]
    assert isinstance(csc, Graph)


def test_with_features_stays_csc():
    csc = Graph.from_edge_list([(0, 1), (1, 2)], 3, feature_length=4)
    refit = csc.with_features(np.ones((3, 2)))
    assert isinstance(refit, Graph)
    assert np.array_equal(refit.colptr, csc.colptr)
    assert np.array_equal(refit.row, csc.row)
    assert refit.feature_length == 2
    with pytest.raises(ValueError):
        csc.with_features(np.ones((2, 2)))
