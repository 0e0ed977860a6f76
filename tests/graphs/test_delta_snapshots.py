"""Snapshot discipline of :class:`~repro.graphs.delta.DeltaGraph`.

A mutation replaces the arrays it changes and never writes into one it
has handed out: memos (the sampler's cached ``colptr``/``row``, frozen
``with_features`` graphs, the ``csr``/``csc`` caches) hold references to
old versions, and an in-place patch would make a stale memo look fresh.
Structure and features are separate snapshots, each replaced only by the
mutations that change it.
"""

import numpy as np
import pytest

from repro.graphs import DeltaGraph, to_csc
from repro.graphs.generators import power_law_graph
from repro.serving.sampler import SubgraphSampler


def _base():
    return to_csc(power_law_graph(40, 160, feature_length=6, seed=5))


def _absent_edge(delta):
    for dst in range(delta.num_vertices):
        for src in range(delta.num_vertices):
            if not delta.has_edge(src, dst):
                return src, dst
    raise AssertionError("complete graph")


def _mutate(delta, kind):
    if kind == "add_edge":
        assert delta.add_edge(*_absent_edge(delta))
    elif kind == "add_vertex":
        delta.add_vertex(np.full(delta.feature_length, 3.0))
    elif kind == "write_features":
        delta.write_features(0, np.full(delta.feature_length, 5.0))
    else:
        delta.compact()


def _handles(delta):
    """Every array a reader can hold onto, paired with a saved copy."""
    sampler = SubgraphSampler(delta, num_hops=2, fanout=4, seed=2)
    sampler.extract(0)
    frozen = delta.with_features(np.zeros((delta.num_vertices,
                                           delta.feature_length)))
    arrays = {
        "colptr": delta.colptr, "row": delta.row,
        "features": delta.features,
        "csr.indptr": delta.csr.indptr, "csr.indices": delta.csr.indices,
        "csc.indptr": delta.csc.indptr, "csc.indices": delta.csc.indices,
        "with_features.colptr": frozen.colptr,
        "with_features.row": frozen.row,
        "with_features.csr.indices": frozen.csr.indices,
        "sampler._colptr": sampler._colptr, "sampler._row": sampler._row,
    }
    return {name: (array, array.copy()) for name, array in arrays.items()}


@pytest.mark.parametrize("kind", ["add_edge", "add_vertex",
                                  "write_features", "compact"])
def test_handed_out_arrays_never_change(kind):
    base = _base()
    delta = DeltaGraph(base)
    # pending deltas of every kind, so the handed-out arrays are the
    # overlay's own (not the base graph's) and compact has work to do
    delta.add_edge(*_absent_edge(delta))
    delta.add_vertex(np.ones(delta.feature_length))
    delta.write_features(1, np.full(delta.feature_length, 2.0))
    saved_base = [base.colptr.copy(), base.row.copy(),
                  base.features.copy()]
    handles = _handles(delta)
    for _ in range(3):
        _mutate(delta, kind)
    for name, (array, saved) in handles.items():
        assert np.array_equal(array, saved), name
    for array, saved in zip((base.colptr, base.row, base.features),
                            saved_base):
        assert np.array_equal(array, saved)


def test_feature_write_keeps_the_structure_snapshot():
    delta = DeltaGraph(_base())
    delta.add_edge(*_absent_edge(delta))
    colptr, row, csc = delta.colptr, delta.row, delta.csc
    features = delta.features
    delta.write_features(3, np.full(delta.feature_length, 4.0))
    assert delta.colptr is colptr and delta.row is row and delta.csc is csc
    assert delta.features is not features
    assert np.array_equal(delta.features[3], np.full(delta.feature_length,
                                                     4.0))


def test_edge_insert_keeps_the_feature_snapshot():
    delta = DeltaGraph(_base())
    delta.write_features(3, np.full(delta.feature_length, 4.0))
    features, colptr, row = delta.features, delta.colptr, delta.row
    src, dst = _absent_edge(delta)
    assert delta.add_edge(src, dst)
    assert delta.features is features
    assert delta.colptr is not colptr and delta.row is not row
    assert delta.has_edge(src, dst) and delta.num_edges == row.size + 1


def test_feature_versions_track_writes_and_new_vertices():
    """The gathered versions equal the per-vertex probe, over a vertex
    range that grows; a version read out never changes afterwards."""
    delta = DeltaGraph(_base())
    before = delta.feature_versions(np.arange(delta.num_vertices))
    assert not before.any()
    delta.write_features(3, np.full(delta.feature_length, 5.0))
    assert delta.add_edge(*_absent_edge(delta))
    new = delta.add_vertex(np.full(delta.feature_length, 3.0))
    ids = np.arange(delta.num_vertices)
    versions = delta.feature_versions(ids)
    assert versions.tolist() == [delta.feature_version(v) for v in ids]
    assert versions[3] == 1 and versions[new] == 3
    assert np.count_nonzero(versions) == 2 and not before.any()
