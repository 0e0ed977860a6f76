"""The streaming result index and per-batch result registration.

A completed batch registers its results with one
:meth:`~repro.serving.streaming.StreamState.register_results` call into an
array index of ``(vertex, key)`` codes
(:class:`~repro.serving.streaming._ResultIndex`).  Both are checked
against the per-request registration and dict-of-sets index they
replaced, kept in ``tests/serving/_streaming_reference.py``:

* the index alone, under hypothesis scripts of adds over a growing vertex
  range, pops and clears, with tails short enough to merge many times;
* whole stream states on twin graphs, under scripts of batch
  registrations (duplicates included), edge, feature and vertex updates
  and result hits, for each invalidation policy: drops, metas, stale
  counts and the index contents must agree;
* the spurious drop the never-pruned index makes: a re-registered result
  is still dropped by a mutation of a vertex only its older sample held.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DeltaGraph
from repro.graphs.generators import power_law_graph
from repro.serving.cache import LRUCache
from repro.serving.sampler import SubgraphSampler
from repro.serving.stats import ConsistencyStats
from repro.serving.streaming import (StreamState, UpdateEvent, UpdateStream,
                                     _ResultIndex)

from _streaming_reference import ReferenceResultIndex, ReferenceStreamState


# --------------------------------------------------------------------------- #
# The index alone
# --------------------------------------------------------------------------- #
_INDEX_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"),
              st.dictionaries(st.integers(0, 10 ** 6),
                              st.lists(st.integers(0, 10 ** 6), min_size=1,
                                       max_size=6, unique=True),
                              min_size=1, max_size=4)),
    st.tuples(st.just("pop"),
              st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3)),
    st.tuples(st.just("grow"), st.integers(1, 8)),
    st.tuples(st.just("clear"), st.none())),
    max_size=40)


@settings(max_examples=150, deadline=None)
@given(_INDEX_OPS, st.integers(1, 8))
def test_index_matches_the_dict_of_sets(ops, min_tail):
    """Any script of adds (a vertex range that grows, keys logged again
    under old and new vertices), pops and clears, with tails short enough
    to merge many times."""
    index, reference = _ResultIndex(), ReferenceResultIndex()
    index.MIN_TAIL = min_tail
    n = 5
    for kind, arg in ops:
        if kind == "add":
            samples = {}
            for key, vertices in arg.items():
                # a sample holds distinct vertices
                samples[key % n] = np.unique(
                    np.array(vertices, dtype=np.int64) % n)
            index.add(samples)
            reference.add(samples)
        elif kind == "pop":
            vertices = [v % n for v in arg]
            assert index.pop(vertices) == reference.pop(vertices)
        elif kind == "grow":
            n += arg
        else:
            index.clear()
            reference.clear()
    for v in range(n):
        assert index.pop([v]) == reference.pop([v]), v


def test_merge_drops_popped_and_repeated_codes():
    """Re-logging the same pairs leaves one code per pair after a merge;
    popped codes leave at the merge too, and a later pop misses them."""
    index = _ResultIndex()
    index.MIN_TAIL = 8
    samples = {key: np.arange(10, dtype=np.int64) for key in range(3)}
    for _ in range(50):
        index.add(samples)
    assert index._codes.size + index._tail_size <= 2 * 30
    assert index.pop([4, 7]) == [0, 1, 2]
    index.add({5: np.arange(4, dtype=np.int64)})
    for _ in range(20):
        index.add({1: np.arange(2, dtype=np.int64)})
    assert not index._popped.any()
    assert index.pop([4]) == []
    assert index.pop([1]) == [0, 1, 2, 5]
    assert index.pop([9]) == [0, 1, 2]


# --------------------------------------------------------------------------- #
# Whole stream states: batched registration vs the per-request oracle
# --------------------------------------------------------------------------- #
def _twin_states(policy, seed, memo_size, cache_size):
    base = power_law_graph(24, 90, feature_length=4, seed=seed)
    states = []
    for cls in (StreamState, ReferenceStreamState):
        graph = DeltaGraph(base, compact_every=5)
        sampler = SubgraphSampler(graph, num_hops=2, fanout=3, seed=seed,
                                  memo_size=memo_size)
        states.append(cls(graph, sampler,
                          UpdateStream(events=(), policy=policy),
                          ConsistencyStats(policy=policy),
                          result_cache=LRUCache(cache_size)))
    return states


def _event(update_id, kind, a, b, n):
    if kind == "edge":
        return UpdateEvent(update_id, kind, 0.0, src=a % n, dst=b % n)
    if kind == "feature":
        return UpdateEvent(update_id, kind, 0.0, src=a % n, feature_seed=b)
    return UpdateEvent(update_id, kind, 0.0, dst=a % n, feature_seed=b)


def _assert_states_agree(state, reference):
    assert state.stats.as_dict() == reference.stats.as_dict()
    assert state.result_cache.keys() == reference.result_cache.keys()
    assert state._result_meta.keys() == reference._result_meta.keys()
    for key, meta in state._result_meta.items():
        want = reference._result_meta[key]
        assert (meta.version, meta.time_s) == (want.version, want.time_s)
        assert np.array_equal(meta.vertices, want.vertices)
    assert state.sampler._memo.keys() == reference.sampler._memo.keys()
    assert state.sampler._memo.stats == reference.sampler._memo.stats


_STREAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("batch"),
              st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6)),
    st.tuples(st.sampled_from(("edge", "feature", "vertex")),
              st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))),
    st.tuples(st.just("hit"), st.integers(0, 10 ** 6))),
    min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("targeted", "flush", "none")), st.integers(0, 5),
       st.sampled_from((4, 64)), st.sampled_from((3, 64)), _STREAM_OPS)
def test_batched_registration_matches_per_request(policy, seed, memo_size,
                                                  cache_size, ops):
    state, reference = _twin_states(policy, seed, memo_size, cache_size)
    for step, (kind, arg) in enumerate(ops):
        now = float(step)
        n = state.graph.num_vertices
        if kind == "batch":
            targets = [t % n for t in arg]
            for twin in (state, reference):
                for target in targets:
                    twin.result_cache.put(target, now)
                twin.register_results(targets, now)
        elif kind == "hit":
            target = arg % n
            if target in state.result_cache:
                state.on_result_hit(target, now)
                reference.on_result_hit(target, now)
        else:
            event = _event(step, kind, *arg, n)
            assert state.apply(now, event) == reference.apply(now, event)
        _assert_states_agree(state, reference)
    n = state.graph.num_vertices
    for v in range(n):
        assert state._results.pop([v]) == reference._results.pop([v]), v


def _absent_edge_dropping_a_vertex(graph, sampler):
    """``(target, src, lost)``: inserting ``src -> target`` moves the
    strided selection so that ``lost`` leaves ``target``'s sample."""
    for target in range(graph.num_vertices):
        before = set(sampler.extract_fresh(target).vertex_ids.tolist())
        for src in range(graph.num_vertices):
            if src == target or graph.has_edge(src, target):
                continue
            trial = DeltaGraph(graph)
            trial.add_edge(src, target)
            after = SubgraphSampler(trial, num_hops=1, fanout=2, seed=1) \
                .extract_fresh(target).vertex_ids.tolist()
            lost = sorted(before - set(after))
            if lost:
                return target, src, lost[0]
    raise AssertionError("no insertion changes a strided selection")


@pytest.mark.parametrize("cls", [StreamState, ReferenceStreamState])
def test_index_is_never_pruned_so_a_stale_pair_drops_a_result(cls):
    """A result re-registered with a sample that lost vertex ``lost`` is
    still dropped when ``lost`` mutates: the key stays logged under every
    vertex of every sample it was registered with.  The reference and
    the array index drop it alike."""
    base = power_law_graph(30, 150, feature_length=4, seed=2)
    graph = DeltaGraph(base)
    sampler = SubgraphSampler(graph, num_hops=1, fanout=2, seed=1)
    target, src, lost = _absent_edge_dropping_a_vertex(graph, sampler)
    stats = ConsistencyStats(policy="targeted")
    state = cls(graph, sampler, UpdateStream(events=(), policy="targeted"),
                stats, result_cache=LRUCache(8))
    state.result_cache.put(target, 0.0)
    state.register_results([target], 0.0)
    # the edge dirties the target itself: its result is dropped (1) ...
    state.apply(1.0, UpdateEvent(0, "edge", 1.0, src=src, dst=target))
    assert target not in state.result_cache
    # ... and its fresh result no longer samples ``lost`` ...
    state.result_cache.put(target, 2.0)
    state.register_results([target], 2.0)
    assert lost not in sampler.extract(target).vertex_ids.tolist()
    # ... yet a write to ``lost`` drops it again (2)
    state.apply(3.0, UpdateEvent(1, "feature", 3.0, src=lost, feature_seed=5))
    assert target not in state.result_cache
    assert stats.invalidations["result"] == 2
