"""Differential test: array fusion against the per-sample loop.

:meth:`repro.serving.SubgraphSampler.fuse` maps every sample's edges onto
the fused local ids in a few passes over the samples' concatenated
``(vertex_ids, indptr, indices)``; ``fused_size`` counts the union in one
first-seen pass.  ``_fuse_reference.py`` walks the samples one at a time.
Over random batches of 2-40 samples -- overlapping neighbourhoods around a
few hubs, edgeless and single-vertex samples (zero hops, isolated
vertices), memo hits mixed with blocks fresh from one multi-root
extraction, and a :class:`~repro.graphs.DeltaGraph` that grew after its
sampler was built -- the fused vertex ids, CSR arrays and column count
must match exactly, and so must the fused and naive sizes.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from _fuse_reference import reference_fuse, reference_fused_size
from repro.graphs import CSCMatrix, DeltaGraph, power_law_graph
from repro.serving import SubgraphSampler

NUM_VERTICES = 160
#: new vertices the grown graph gains; the first stays isolated
NEW_VERTICES = 4


@functools.lru_cache(maxsize=None)
def _base():
    return power_law_graph(NUM_VERTICES, 1400, 4, skew=1.3, seed=5)


def _sampler(grown: bool):
    """A sampler on the static graph, or on a :class:`DeltaGraph` that gains
    vertices and edges after the sampler (and its scratch table) exist."""
    if not grown:
        return SubgraphSampler(_base(), seed=3)
    delta = DeltaGraph(_base())
    sampler = SubgraphSampler(delta, seed=3)
    hub = int(np.argmax(np.diff(delta.colptr)))
    for k in range(NEW_VERTICES):
        new = delta.add_vertex(delta.features[k])
        if k:
            delta.add_edge(new, hub)
            delta.add_edge(hub, new)
            delta.add_edge(k, new)
    return sampler


#: per-request sample shapes: default, zero hops (a single-vertex,
#: edgeless sample), and narrower or shallower overrides
SHAPES = st.tuples(st.sampled_from((None, 0, 1, 2)),
                   st.sampled_from((None, 1, 3)))


@st.composite
def batches(draw):
    grown = draw(st.booleans())
    num_vertices = NUM_VERTICES + (NEW_VERTICES if grown else 0)
    # a few low ids are the power-law hubs, so neighbourhoods overlap
    target = st.one_of(st.integers(0, 12), st.integers(0, num_vertices - 1))
    shapes = draw(st.lists(st.tuples(target, SHAPES), min_size=2, max_size=40))
    warm = draw(st.lists(st.booleans(), min_size=len(shapes),
                         max_size=len(shapes)))
    return grown, [(t, hops, fan) for t, (hops, fan) in shapes], warm


@settings(max_examples=150, deadline=None)
@given(batches())
def test_fuse_matches_per_sample_loop(batch):
    grown, shapes, warm = batch
    sampler = _sampler(grown)
    # memo hits for the warmed shapes; the rest come fresh, as blocks of
    # one multi-root extraction
    sampler.extract_many([s for s, w in zip(shapes, warm) if w])
    samples = sampler.extract_many(list(dict.fromkeys(shapes)))
    fused = sampler.fuse(samples, name="fused")
    vertex_ids, csr = reference_fuse(samples)
    np.testing.assert_array_equal(fused.vertex_ids, vertex_ids)
    np.testing.assert_array_equal(fused.csr.indptr, csr.indptr)
    np.testing.assert_array_equal(fused.csr.indices, csr.indices)
    assert fused.csr.num_cols == csr.num_cols == vertex_ids.size
    # the engine reads the CSC arrays: a CSR built from them would hide a
    # wrong order inside a column
    csc = CSCMatrix.from_csr(csr)
    assert (np.array_equal(fused.colptr, csc.indptr)
            and np.array_equal(fused.row, csc.indices))
    assert sampler.fused_size(shapes) == \
        reference_fused_size(sampler.extract_many(shapes))
