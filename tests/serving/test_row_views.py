"""Row-view subgraphs: the vertex order the feature cache is charged in,
features read through the view, and no pinned snapshots.

Sampled and fused graphs are :class:`repro.graphs.graph.RowViewGraph`
objects: structure plus global ``vertex_ids``, with feature rows gathered
from the sampler's graph only when read.
"""

import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DeltaGraph, power_law_graph
from repro.serving import SubgraphSampler

#: wide enough that fused vertex sets outgrow several set-table resizes
#: and collide in the table (ints hash to themselves)
GRAPH = power_law_graph(3000, 24000, 8, seed=3)


def _sampler():
    return SubgraphSampler(GRAPH, num_hops=2, fanout=8, seed=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=GRAPH.num_vertices - 1),
                min_size=1, max_size=40, unique=True))
def test_fused_first_seen_order_reproduces_the_set_union_order(targets):
    """The serving paths charge the feature cache in the iteration order
    of a Python set built from the fused first-seen order; it must equal
    the order of the per-sample ``set.update`` union it replaced."""
    sampler = _sampler()
    samples = [sampler.extract(t) for t in targets]
    fused = sampler.fuse(samples) if len(samples) > 1 else samples[0].graph
    union = set()
    for sample in samples:
        union.update(tuple(sample.vertex_ids.tolist()))
    assert list(set(fused.vertex_ids.tolist())) == list(union)


def test_features_read_through_the_view():
    sampler = _sampler()
    samples = [sampler.extract(t) for t in (0, 5, 17, 2999)]
    for graph in [s.graph for s in samples] + [sampler.fuse(samples)]:
        features = graph.features
        assert features.shape == (graph.num_vertices, GRAPH.feature_length)
        assert graph.feature_length == GRAPH.feature_length
        for i, v in enumerate(graph.vertex_ids.tolist()):
            assert np.array_equal(features[i], GRAPH.features[v])


def test_memoised_sample_does_not_pin_a_feature_snapshot():
    """A memoised sample reads the live graph and keeps no snapshot alive:
    on a :class:`DeltaGraph` with a pending feature write, every version's
    feature matrix is a fresh array that must die with its version."""
    delta = DeltaGraph(GRAPH)
    delta.write_features(1, np.ones(GRAPH.feature_length))
    sampler = SubgraphSampler(delta, num_hops=2, fanout=8, seed=1)
    sample = sampler.extract(0)
    assert sampler.extract(0) is sample
    sample.graph.features  # a read must not pin the snapshot either
    snapshot = weakref.ref(delta.features)
    vertex = int(sample.vertex_ids[-1])
    delta.write_features(vertex, np.full(GRAPH.feature_length, 7.0))
    delta.features  # re-materialise
    gc.collect()
    assert snapshot() is None
    # the view reads the current rows, not the ones it was sampled with
    assert np.array_equal(sample.graph.features[-1],
                          np.full(GRAPH.feature_length, 7.0))
