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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DeltaGraph
from repro.graphs.generators import power_law_graph
from repro.serving.sampler import SubgraphSampler


def _base():
    return power_law_graph(40, 160, feature_length=6, seed=5)


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


# one mutation per entry: (kind, a, b) with a and b folded into range on
# use; ``a`` stays small, so a feature write often lands on a vertex the
# script added (the base graph has 40)
_OPS = st.lists(
    st.tuples(st.sampled_from(("edge", "feature", "vertex", "compact")),
              st.integers(min_value=0, max_value=47),
              st.integers(min_value=0, max_value=10 ** 6)),
    min_size=1, max_size=30)


def _apply(delta, op):
    """Apply one op; returns the vertices it dirtied, in log order."""
    kind, a, b = op
    n = delta.num_vertices
    if kind == "edge":
        return [b % n] if delta.add_edge(a % n, b % n) else []
    if kind == "feature":
        delta.write_features(a % n, np.full(delta.feature_length, float(b)))
        return [a % n]
    if kind == "vertex":
        new = delta.add_vertex(np.full(delta.feature_length, float(b)))
        return [new] + ([a % n] if delta.add_edge(new, a % n) else [])
    delta.compact()
    return []


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_dirty_since_matches_the_log_comprehension(ops):
    """``dirty_since`` equals the set comprehension over a ``(version,
    vertex)`` log, for every version from before the base to past the
    current one, and ``mutation_versions`` holds each vertex's last
    version in that log."""
    delta = DeltaGraph(_base(), compact_every=4)
    log = []
    for op in ops:
        before = delta.version
        dirtied = _apply(delta, op)
        log.extend(zip(range(before + 1, delta.version + 1), dirtied))
        assert delta.version == before + len(dirtied)
    for version in range(-1, delta.version + 2):
        expected = np.array(sorted({v for ver, v in log if ver > version}),
                            dtype=np.int64)
        got = delta.dirty_since(version)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), version
    last = {}
    for ver, v in log:
        last[v] = ver
    ids = np.arange(delta.num_vertices)
    assert delta.mutation_versions(ids).tolist() == [last.get(v, 0)
                                                      for v in ids]


class _PendingCount:
    """The pending-mutation count by its definition: inserted edges,
    vertices added since the last compaction and distinct writes to older
    vertices, with auto-compaction after each mutation."""

    def __init__(self, num_vertices, compact_every):
        self.n = self.compacted_n = num_vertices
        self.compact_every = compact_every
        self.edges, self.writes, self.compactions = 0, set(), 0

    @property
    def pending(self):
        return self.edges + self.n - self.compacted_n + len(self.writes)

    def mutated(self):
        if self.compact_every and self.pending >= self.compact_every:
            self.compact()

    def compact(self):
        self.edges, self.writes, self.compacted_n = 0, set(), self.n
        self.compactions += 1

    def apply(self, op, dirtied):
        kind, a, _ = op
        if kind == "edge" and dirtied:
            self.edges += 1
            self.mutated()
        elif kind == "feature":
            if a % self.n < self.compacted_n:
                self.writes.add(a % self.n)
            self.mutated()
        elif kind == "vertex":
            self.n += 1
            self.mutated()
            self.edges += 1
            self.mutated()
        elif kind == "compact":
            self.compact()


@settings(max_examples=60, deadline=None)
@given(_OPS, st.sampled_from((0, 1, 3, 8)))
def test_compaction_folds_features_on_read(ops, compact_every):
    """A graph whose features are read only at the end folds its rows
    then; its twin reads ``features`` after every op.  Versions,
    compaction counts and pending-mutation counts agree with each other
    and with the count's definition at every step, and both final
    matrices equal the rows written."""
    lazy = DeltaGraph(_base(), compact_every=compact_every)
    eager = DeltaGraph(_base(), compact_every=compact_every)
    count = _PendingCount(lazy.num_vertices, compact_every)
    expected = _base().features.copy()
    for op in ops:
        kind, a, b = op
        n = lazy.num_vertices
        dirtied = _apply(lazy, op)
        assert _apply(eager, op) == dirtied
        eager.features
        count.apply(op, dirtied)
        if kind == "feature":
            expected[a % n] = float(b)
        elif kind == "vertex":
            expected = np.vstack([expected,
                                  np.full((1, lazy.feature_length),
                                          float(b))])
        assert lazy.version == eager.version
        assert lazy.compactions == eager.compactions == count.compactions
        assert lazy.pending_mutations == eager.pending_mutations \
            == count.pending
    assert np.array_equal(lazy.features, expected)
    assert np.array_equal(eager.features, expected)
