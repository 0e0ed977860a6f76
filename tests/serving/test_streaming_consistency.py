"""Differential consistency suite for streaming graph updates.

:class:`~repro.graphs.delta.DeltaGraph` claims its lazily materialised
snapshot is bit-for-bit the arrays a :class:`~repro.graphs.graph.Graph`
rebuilt from scratch at the same version would carry -- before *and* after
compaction -- and :class:`~repro.serving.streaming.StreamState` claims its
targeted invalidation keeps every derived cache coherent while queries are
in flight.  This suite proves both claims differentially:

* a plain-Python **reference oracle** replays the same mutation history
  into sets/lists and rebuilds a canonical CSC graph from scratch; the
  delta graph's arrays must equal the rebuild exactly, for
  hypothesis-generated random interleavings of edge inserts, feature
  writes, vertex inserts and compactions;
* a memoising :class:`~repro.serving.sampler.SubgraphSampler` riding the
  mutating graph (``targeted`` invalidation) must produce bit-identical
  samples, minhash signatures, fused graphs and ``fused_size`` counts to a
  cold sampler on the from-scratch rebuild -- i.e. invalidation is
  provably indistinguishable from never having cached at all;
* per-cache **kill tests**: for each of the five derived caches (result
  cache, per-chip feature caches, sampler sample/signature memos, halo
  caches, shard-plan ownership) invalidation ``"none"`` must produce a
  counted stale serve and ``"targeted"`` must not -- each invalidation
  path is load-bearing, not decorative;
* end-to-end: a mutating :func:`~repro.serving.fleet.run_serving` run
  under ``targeted`` serves zero stale results, is bit-for-bit
  deterministic, and every non-degraded served result matches a fresh
  recomputation at its service-time graph version.

Regression tests for the two latent cache-keying bugs the streaming work
surfaced (the identity-only ``workloads_for`` memo key and the
version-blind probe-cache key) live at the bottom.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (CSCMatrix, DeltaGraph, Graph, graphs_equal,
                          load_dataset)
from repro.graphs.generators import power_law_graph
from repro.serving.cache import FeatureCache, LRUCache, charge_features
from repro.serving.fleet import FleetConfig, run_serving
from repro.serving.sampler import SubgraphSampler
from repro.serving.sharding import ShardingConfig
from repro.serving.stats import ConsistencyStats
from repro.serving.streaming import (StreamState, UpdateEvent, UpdateStream,
                                     feature_row, generate_update_stream)
from repro.serving.workload import Request


# --------------------------------------------------------------------------- #
# Reference oracle: the same mutation history, replayed from scratch
# --------------------------------------------------------------------------- #
class ReferenceGraph:
    """Plain-Python twin of a mutation history; rebuilds canonical CSC.

    Deliberately shares no code with :class:`DeltaGraph`: edges live in a
    set, features in a list of rows, and :meth:`build` assembles the
    canonical arrays (per-column ascending sources, contiguous features)
    the slow way.  Any representational shortcut the delta overlay takes
    must still land on exactly these arrays.
    """

    def __init__(self, base: Graph):
        self.edges = set()
        for dst in range(base.num_vertices):
            for src in base.row[base.colptr[dst]:base.colptr[dst + 1]]:
                self.edges.add((int(src), int(dst)))
        self.features = [base.features[v].copy()
                         for v in range(base.num_vertices)]

    def add_edge(self, src, dst):
        self.last_edge = (int(src), int(dst))
        self.edges.add(self.last_edge)

    def add_vertex(self, row):
        self.features.append(np.asarray(row, dtype=np.float64).copy())
        return len(self.features) - 1

    def write_features(self, vertex, row):
        self.features[int(vertex)] = np.asarray(row, dtype=np.float64).copy()

    def build(self) -> Graph:
        n = len(self.features)
        columns = [[] for _ in range(n)]
        for src, dst in self.edges:
            columns[dst].append(src)
        colptr = np.zeros(n + 1, dtype=np.int64)
        rows = []
        for dst in range(n):
            sources = sorted(columns[dst])
            colptr[dst + 1] = colptr[dst] + len(sources)
            rows.extend(sources)
        return Graph(CSCMatrix(colptr, np.asarray(rows, dtype=np.int64), n),
                     np.vstack(self.features), name="rebuilt")


def _apply_op(delta: DeltaGraph, ref: ReferenceGraph, op, rng):
    """Apply one (kind, a, b) op to both sides; returns False for no-ops."""
    kind, a, b = op
    n = delta.num_vertices
    if kind == "edge":
        src, dst = a % n, b % n
        applied = delta.add_edge(src, dst)
        ref.add_edge(src, dst)
        return applied
    if kind == "feature":
        vertex = a % n
        row = feature_row(delta.feature_length, b)
        delta.write_features(vertex, row)
        ref.write_features(vertex, row)
        return True
    if kind == "vertex":
        row = feature_row(delta.feature_length, b)
        new = delta.add_vertex(row)
        assert ref.add_vertex(row) == new
        dst = a % n
        delta.add_edge(new, dst)
        ref.add_edge(new, dst)
        return True
    assert kind == "compact"
    delta.compact()
    return True


def _assert_samplers_agree(delta: DeltaGraph, rebuilt: Graph,
                           live: SubgraphSampler, targets):
    """The memoising sampler on the mutating graph must be bit-identical
    to a cold sampler on the from-scratch rebuild.

    Sample graphs are row views that read the live graph's features, so
    a memoised sample's features cannot go stale and the feature check
    below cannot catch a stale memo entry.  Staleness shows in the
    ``vertex_ids`` and CSR checks, and in the feature-cache version
    stamps (``on_feature_hit``)."""
    cold = SubgraphSampler(rebuilt, num_hops=live.num_hops,
                           fanout=live.fanout, seed=live.seed)
    assert np.array_equal(delta.colptr, rebuilt.colptr)
    assert np.array_equal(delta.row, rebuilt.row)
    assert np.array_equal(delta.features, rebuilt.features)
    assert graphs_equal(delta, rebuilt)
    samples_live, samples_cold = [], []
    for target in targets:
        a = live.extract(target)
        b = cold.extract(target)
        assert np.array_equal(a.vertex_ids, b.vertex_ids)
        assert np.array_equal(a.graph.csr.indptr, b.graph.csr.indptr)
        assert np.array_equal(a.graph.csr.indices, b.graph.csr.indices)
        assert np.array_equal(a.graph.features, b.graph.features)
        assert np.array_equal(live.signature(target), cold.signature(target))
        samples_live.append(a)
        samples_cold.append(b)
    shapes = [(t, None, None) for t in targets]
    assert live.fused_size(shapes) == cold.fused_size(shapes)
    fused_live = live.fuse(samples_live)
    fused_cold = cold.fuse(samples_cold)
    assert graphs_equal(fused_live, fused_cold)


def _assert_has_edge_agrees(delta: DeltaGraph, ref: ReferenceGraph, op,
                            probe):
    """``has_edge`` matches the reference edge set on the pair an edge or
    vertex op just inserted, and on one random absent pair."""
    if op[0] in ("edge", "vertex"):
        assert delta.has_edge(*ref.last_edge)
    n = delta.num_vertices
    for _ in range(8 * n):
        pair = (int(probe.integers(0, n)), int(probe.integers(0, n)))
        if pair not in ref.edges:
            assert not delta.has_edge(*pair)
            return


@st.composite
def mutation_scripts(draw):
    seed = draw(st.integers(min_value=0, max_value=31))
    num_vertices = draw(st.integers(min_value=4, max_value=24))
    num_edges = draw(st.integers(min_value=4, max_value=60))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(("edge", "feature", "vertex", "compact")),
                  st.integers(min_value=0, max_value=2 ** 31 - 1),
                  st.integers(min_value=0, max_value=2 ** 31 - 1)),
        min_size=1, max_size=24))
    compact_every = draw(st.sampled_from((0, 3, 64)))
    return seed, num_vertices, num_edges, ops, compact_every


@settings(max_examples=40, deadline=None)
@given(mutation_scripts())
def test_random_interleavings_match_from_scratch_rebuild(script):
    """Tentpole property: under any interleaving of mutations, queries and
    compactions, the delta overlay and a targeted-invalidation sampler are
    bit-for-bit indistinguishable from rebuilding everything from scratch."""
    seed, num_vertices, num_edges, ops, compact_every = script
    base = power_law_graph(num_vertices, num_edges, feature_length=4,
                           seed=seed)
    delta = DeltaGraph(base, compact_every=compact_every)
    ref = ReferenceGraph(base)
    live = SubgraphSampler(delta, num_hops=2, fanout=4, seed=seed)
    rng = np.random.default_rng(seed)
    probe = np.random.default_rng((seed, 1))
    # warm the memo so invalidation has something to keep honest
    for target in range(0, delta.num_vertices, 3):
        live.extract(target)
        live.signature(target)
    for i, op in enumerate(ops):
        version_before = delta.version
        applied = _apply_op(delta, ref, op, rng)
        if op[0] == "edge" and not applied:
            assert delta.version == version_before  # duplicate: full no-op
        _assert_has_edge_agrees(delta, ref, op, probe)
        # differential check at every step for the touched neighbourhood,
        # full sweep at the end (keeps the example cheap but airtight)
        targets = [int(rng.integers(0, delta.num_vertices)) for _ in range(3)]
        _assert_samplers_agree(delta, ref.build(), live, targets)
    version = delta.version
    delta.compact()
    assert delta.version == version  # compaction is not a mutation
    _assert_samplers_agree(delta, ref.build(), live,
                           list(range(delta.num_vertices)))


def test_compaction_is_invisible_mid_stream():
    """Auto-compaction (compact_every) at arbitrary points must never be
    observable through the sampler -- same arrays, same samples, same
    version trajectory as the never-compacting twin."""
    base = power_law_graph(30, 90, feature_length=4, seed=7)
    eager = DeltaGraph(base, compact_every=2)
    never = DeltaGraph(base, compact_every=0)
    rng = np.random.default_rng(11)
    for _ in range(40):
        kind = rng.choice(["edge", "feature", "vertex"])
        if kind == "edge":
            src = int(rng.integers(0, eager.num_vertices))
            dst = int(rng.integers(0, eager.num_vertices))
            assert eager.add_edge(src, dst) == never.add_edge(src, dst)
        elif kind == "feature":
            vertex = int(rng.integers(0, eager.num_vertices))
            row = feature_row(4, int(rng.integers(0, 2 ** 31 - 1)))
            eager.write_features(vertex, row)
            never.write_features(vertex, row)
        else:
            row = feature_row(4, int(rng.integers(0, 2 ** 31 - 1)))
            assert eager.add_vertex(row) == never.add_vertex(row)
        assert eager.version == never.version
        assert np.array_equal(eager.colptr, never.colptr)
        assert np.array_equal(eager.row, never.row)
        assert np.array_equal(eager.features, never.features)
    assert eager.compactions > 0 and never.compactions == 0


# --------------------------------------------------------------------------- #
# Per-cache kill tests: every invalidation path is load-bearing
# --------------------------------------------------------------------------- #
class _FakeChip:
    def __init__(self, capacity=64):
        self.feature_cache = FeatureCache(capacity)


def _stream_state(policy, *, with_result_cache=True, chips=0, seed=3):
    base = power_law_graph(24, 80, feature_length=4, seed=seed)
    delta = DeltaGraph(base)
    sampler = SubgraphSampler(delta, num_hops=2, fanout=4, seed=seed)
    stream = UpdateStream(events=(), policy=policy)
    stats = ConsistencyStats(policy=policy)
    state = StreamState(
        delta, sampler, stream, stats,
        result_cache=LRUCache(64) if with_result_cache else None,
        chips=[_FakeChip() for _ in range(chips)])
    return delta, sampler, state, stats


def _edge_event(update_id, src, dst):
    return UpdateEvent(update_id=update_id, kind="edge", arrival_time_s=0.0,
                       src=src, dst=dst)


def _feature_event(update_id, vertex, feature_seed=9):
    return UpdateEvent(update_id=update_id, kind="feature",
                       arrival_time_s=0.0, src=vertex,
                       feature_seed=feature_seed)


@pytest.mark.parametrize("policy", ["none", "targeted"])
def test_result_cache_kill(policy):
    """A cached result whose sampled neighbourhood mutates is a stale serve
    under ``none`` and an invalidated entry under ``targeted``."""
    delta, sampler, state, stats = _stream_state(policy)
    target = 0
    sample = sampler.extract(target)
    state.result_cache.put(target, object())
    state.register_results([target], now=0.0)
    # mutate a vertex inside the cached result's dependency set
    dirty = int(sample.vertex_ids[-1])
    state.apply(1.0, _feature_event(0, dirty))
    state.on_result_hit(target, now=2.0)
    if policy == "none":
        assert stats.stale_results == 1
        assert stats.stale_beyond_budget == 1
        assert stats.invalidations["result"] == 0
    else:
        assert stats.stale_results == 0
        assert stats.stale_beyond_budget == 0
        assert stats.invalidations["result"] == 1
        assert state.result_cache.peek(target) is None


@pytest.mark.parametrize("policy", ["none", "targeted"])
def test_feature_cache_kill(policy):
    """A per-chip feature-cache entry outlives a feature write under
    ``none`` (stale stamp on hit) and is dropped under ``targeted``."""
    delta, sampler, state, stats = _stream_state(policy, chips=2)
    vertex = np.array([5])
    for chip in state.chips:
        assert charge_features(chip.feature_cache, vertex,
                               stream=state) == 0
    state.apply(1.0, _feature_event(0, 5))
    if policy == "none":
        assert state.chips[0].feature_cache.peek(None, 5) \
            < delta.feature_version(5)
        assert charge_features(state.chips[0].feature_cache, vertex,
                               stream=state, now=2.0) == 1
        assert stats.stale_features == 1
        assert stats.invalidations["feature"] == 0
    else:
        assert all(chip.feature_cache.peek(None, 5) is None
                   for chip in state.chips)
        assert stats.invalidations["feature"] == 2
        assert stats.stale_features == 0


@pytest.mark.parametrize("policy", ["none", "targeted"])
def test_sampler_memo_kill(policy):
    """A memoised sample whose neighbourhood gains an edge disagrees with a
    fresh extraction under ``none`` (check_batch counts it) and is
    re-extracted identically under ``targeted``."""
    delta, sampler, state, stats = _stream_state(policy,
                                                 with_result_cache=False)
    target = 0
    sampler.extract(target)
    sampler.signature(target)
    # insert an in-edge on the target itself: its 1-hop list must change
    fresh_src = next(v for v in range(delta.num_vertices)
                     if not delta.has_edge(v, target))
    state.apply(1.0, _edge_event(0, fresh_src, target))

    class _Batch:
        requests = [Request(request_id=0, target_vertex=target,
                            arrival_time_s=1.5)]

    state.check_batch(_Batch, now=1.5)
    memo = sampler.extract(target)
    fresh = sampler.extract_fresh(target)
    if policy == "none":
        assert stats.stale_samples == 1
        assert not np.array_equal(memo.vertex_ids, fresh.vertex_ids)
        assert sampler.invalidated_samples == 0
    else:
        assert stats.stale_samples == 0 and stats.stale_signatures == 0
        assert np.array_equal(memo.vertex_ids, fresh.vertex_ids)
        assert sampler.invalidated_samples >= 1  # the memo entry was dropped
        assert np.array_equal(sampler.signature(target),
                              sampler.signature_fresh(target))


def _sequential_check_batch(state, batch):
    """The per-shape check ``check_batch`` batches: memo version, memo
    fetch and fresh extraction one distinct non-degraded shape at a time."""
    sampler, seen = state.sampler, set()
    for request in batch.requests:
        shape = (request.target_vertex, request.degrade_hops,
                 request.degrade_fanout)
        if request.degrade_level > 0 or shape in seen:
            continue
        seen.add(shape)
        state.stats.checks += 1
        version = sampler.memo_version(*shape)
        memo = sampler.extract(shape[0], num_hops=shape[1], fanout=shape[2])
        fresh = sampler.extract_fresh(*shape)
        lag = state.graph.version - (version or 0)
        if not np.array_equal(memo.vertex_ids, fresh.vertex_ids):
            state._count_stale(lag, 0.0, "stale_samples")
            continue
        key = (shape[0],
               sampler.num_hops if shape[1] is None else shape[1],
               sampler.fanout if shape[2] is None else shape[2])
        if key in sampler._sig_memo and not np.array_equal(
                sampler.signature(*shape), sampler.signature_fresh(*shape)):
            state._count_stale(lag, 0.0, "stale_signatures")


@pytest.mark.parametrize("policy", ["none", "targeted"])
def test_check_batch_mixes_stale_fresh_and_degraded(policy):
    """One batch holding a stale memoised sample (twice), a fresh memoised
    one, an unmemoised one and degraded requests: ``check_batch`` counts
    what the per-shape check counts and leaves the same memo state."""
    twins = [_stream_state(policy, with_result_cache=False)
             for _ in range(2)]
    delta = twins[0][0]
    stale = 0
    for _, sampler, _, _ in twins:
        sampler.extract(stale)
        sampler.signature(stale)
    fresh_src = next(v for v in range(delta.num_vertices)
                     if not delta.has_edge(v, stale))
    before = {v: twins[0][1].extract_fresh(v).vertex_ids
              for v in range(1, delta.num_vertices)}
    for _, _, state, _ in twins:
        state.apply(1.0, _edge_event(0, fresh_src, stale))
    fresh = next(v for v, ids in before.items() if np.array_equal(
        ids, twins[0][1].extract_fresh(v).vertex_ids))
    unmemoised = next(v for v in before if v != fresh)
    for _, sampler, _, _ in twins:
        sampler.extract(fresh)
        sampler.signature(fresh)

    class _Batch:
        requests = [
            Request(0, stale, 1.5),
            Request(1, fresh, 1.5),
            Request(2, stale, 1.5, degrade_level=1, degrade_hops=1,
                    degrade_fanout=2),
            Request(3, unmemoised, 1.5),
            Request(4, stale, 1.5),
            Request(5, unmemoised, 1.5, degrade_level=2, degrade_hops=0,
                    degrade_fanout=1),
        ]

    twins[0][2].check_batch(_Batch, now=1.5)
    _sequential_check_batch(twins[1][2], _Batch)
    (_, batched, _, stats), (_, sequential, _, expected) = twins
    assert stats == expected
    assert stats.checks == 3
    assert stats.stale_samples == (1 if policy == "none" else 0)
    assert stats.stale_signatures == 0
    for memo in ("_memo", "_sig_memo"):
        a, b = getattr(batched, memo), getattr(sequential, memo)
        assert a.keys() == b.keys()
        assert a.stats == b.stats
    assert batched._registered == sequential._registered


def test_check_batch_trusts_current_samples_but_not_older_signatures():
    """Under ``none``, a sample re-extracted at the current version after
    its memo entry was evicted is its own recomputation (no fresh
    extraction runs), but the signature memoised before the update is
    still checked against it and counted stale, as the per-shape check
    counts it."""
    twins = [_stream_state("none", with_result_cache=False)
             for _ in range(2)]
    delta = twins[0][0]
    target = 0
    fresh_src = next(v for v in range(delta.num_vertices)
                     if not delta.has_edge(v, target))
    for _, sampler, state, _ in twins:
        sampler._memo.capacity = 2
        sampler.signature(target)
        state.apply(1.0, _edge_event(0, fresh_src, target))
        for other in (1, 2):  # evict the sample, keep the signature
            sampler.extract(other)
        sampler.extract(target)  # re-extracted at the current version
        assert sampler.memo_version(target, None, None) == delta.version

    class _Batch:
        requests = [Request(0, target, 1.5)]

    (_, batched, state, stats), (_, _, reference, expected) = twins
    calls = []
    extract_fresh_many = batched.extract_fresh_many
    batched.extract_fresh_many = lambda *a: calls.append(a) \
        or extract_fresh_many(*a)
    state.check_batch(_Batch, now=1.5)
    _sequential_check_batch(reference, _Batch)
    assert calls == []
    assert stats == expected
    assert stats.stale_samples == 0 and stats.stale_signatures == 1


@pytest.mark.parametrize("policy", ["none", "targeted"])
def test_halo_cache_kill(policy):
    """Sharded execution: a ghost-feature halo entry outlives a feature
    write under ``none`` and is invalidated under ``targeted``."""
    report = run_serving(
        dataset="IB", num_requests=96, rate_rps=2000.0, seed=4,
        config=FleetConfig(
            num_chips=2, cache_size=0,
            sharding=ShardingConfig(num_shards=2, partitioner="hash",
                                    seed=4)),
        update_rate=0.5, update_mix="feature=1.0", invalidation=policy)
    consistency = report.consistency
    assert consistency is not None
    if policy == "none":
        assert consistency.stale_halo > 0
        assert consistency.invalidations["halo"] == 0
    else:
        assert consistency.stale_halo == 0
        assert consistency.invalidations["halo"] > 0


@pytest.mark.parametrize("policy", ["none", "targeted"])
def test_shard_plan_kill(policy):
    """A streaming vertex insert lands outside the frozen shard plan: under
    ``targeted`` ownership is extended eagerly (counted as a shard_plan
    invalidation, zero misses); under ``none`` the executor discovers the
    hole lazily and counts a shard-plan miss."""
    report = run_serving(
        dataset="IB", num_requests=96, rate_rps=2000.0, seed=4,
        config=FleetConfig(
            num_chips=2, cache_size=0,
            sharding=ShardingConfig(num_shards=2, partitioner="hash",
                                    seed=4)),
        update_rate=0.5, update_mix="vertex=1.0", invalidation=policy)
    consistency = report.consistency
    assert consistency is not None
    assert consistency.vertex_updates > 0
    if policy == "none":
        assert consistency.shard_plan_misses > 0
        assert consistency.invalidations["shard_plan"] == 0
    else:
        assert consistency.shard_plan_misses == 0
        assert consistency.invalidations["shard_plan"] \
            == consistency.vertex_updates


# --------------------------------------------------------------------------- #
# End-to-end: served results stay consistent while the graph mutates
# --------------------------------------------------------------------------- #
def _mutating_run(invalidation, seed=6, **kwargs):
    return run_serving(dataset="IB", num_requests=160, rate_rps=3000.0,
                       seed=seed, config=FleetConfig(num_chips=2),
                       update_rate=0.2, invalidation=invalidation, **kwargs)


def test_targeted_run_serves_zero_stale_results():
    report = _mutating_run("targeted")
    consistency = report.consistency
    assert consistency is not None
    assert consistency.updates_applied > 0
    assert consistency.checks > 0
    assert consistency.stale_serves == 0
    assert consistency.stale_beyond_budget == 0
    assert consistency.final_version > 0


def test_none_run_counts_stale_serves():
    """The kill switch: with invalidation off the same run must detect
    staleness -- proving the consistency tracker itself works."""
    report = _mutating_run("none")
    consistency = report.consistency
    assert consistency is not None
    assert consistency.stale_serves > 0
    assert consistency.stale_beyond_budget > 0
    assert consistency.total_invalidations == 0


def test_flush_run_serves_zero_stale_results():
    report = _mutating_run("flush")
    consistency = report.consistency
    assert consistency is not None
    assert consistency.stale_serves == 0
    assert consistency.total_invalidations > 0


def test_mutating_run_is_deterministic():
    """Two identical mutating runs must agree bit-for-bit, including every
    consistency counter (run-to-run nondeterminism here would make the
    whole differential story unfalsifiable)."""
    a = _mutating_run("targeted")
    b = _mutating_run("targeted")
    assert a.to_dict() == b.to_dict()


def test_static_run_report_is_untouched_by_streaming_plumbing():
    """updates=None runs carry no consistency block and match a pre-streaming
    run exactly (the duck-typed hook must be invisible when unarmed)."""
    report = run_serving(dataset="IB", num_requests=64, rate_rps=1000.0,
                         seed=6, config=FleetConfig(num_chips=2))
    assert report.consistency is None
    assert "consistency" not in report.to_dict()


# --------------------------------------------------------------------------- #
# Regression: the two latent cache-keying bugs streaming surfaced
# --------------------------------------------------------------------------- #
def test_workloads_for_keys_on_graph_version():
    """Bug #1: the workloads memo keyed on id(graph) only, so a mutating
    DeltaGraph (stable identity, changing structure) was served the stale
    flattening forever."""
    from repro.models.model_zoo import build_model, workloads_for

    base = load_dataset("IB", seed=0, scale_factor=16)
    delta = DeltaGraph(base)
    model = build_model("GCN", input_length=delta.feature_length)
    before = workloads_for(model, delta)
    # unmutated: the memo serves the same flattening objects back
    assert workloads_for(model, delta)[0] is before[0]
    # mutated: the stable identity must no longer satisfy the memo
    delta.add_vertex(feature_row(delta.feature_length, 1))
    after = workloads_for(model, delta)
    assert after[0] is not before[0]
    assert after[0].graph.num_vertices == delta.num_vertices
    # and the new version memoises in its own right
    assert workloads_for(model, delta)[0] is after[0]


def test_probe_cache_keys_on_graph_version():
    """Bug #2: the calibration probe memo keyed on the graph's identity but
    not its version, so recalibrating after mutations replayed the stale
    service time."""
    from repro.core import HyGCNConfig
    from repro.serving.fleet import _PROBE_CACHE, probe_batch_service_time_s
    from repro.models.model_zoo import build_model

    base = load_dataset("IB", seed=0, scale_factor=16)
    delta = DeltaGraph(base)
    sampler = SubgraphSampler(delta, num_hops=1, fanout=4, seed=0)
    model = build_model("GCN", input_length=delta.feature_length)
    keys_before = set(_PROBE_CACHE.keys())
    probe_batch_service_time_s(HyGCNConfig(), sampler, model, "IB", 8,
                               delta.num_vertices, 0)
    first_keys = set(_PROBE_CACHE.keys()) - keys_before
    delta.add_edge(0, 1)
    probe_batch_service_time_s(HyGCNConfig(), sampler, model, "IB", 8,
                               delta.num_vertices, 0)
    second_keys = set(_PROBE_CACHE.keys()) - keys_before - first_keys
    # a mutated graph must probe under a fresh key, not reuse the stale one
    assert first_keys and second_keys


def test_probe_leaves_no_memo_residue_on_mutable_samplers():
    """Probe hygiene: on a mutating run the calibration probe must not leave
    entries in the run sampler's memo -- a cold vs. warm process-wide probe
    cache would otherwise change the run's invalidation accounting."""
    from repro.core import HyGCNConfig
    from repro.serving.fleet import clear_probe_cache, \
        probe_batch_service_time_s
    from repro.models.model_zoo import build_model

    base = load_dataset("IB", seed=0, scale_factor=16)
    delta = DeltaGraph(base)
    sampler = SubgraphSampler(delta, num_hops=2, fanout=4, seed=0)
    model = build_model("GCN", input_length=delta.feature_length)
    clear_probe_cache()
    probe_batch_service_time_s(HyGCNConfig(), sampler, model, "IB", 8,
                               delta.num_vertices, 0)
    assert len(sampler._memo) == 0
    assert len(sampler._sig_memo) == 0
    assert sampler._vertex_keys == {}
