"""The sampler memo: batched fetches replay sequential ``extract`` calls, and
eviction prunes the invalidation index.

:meth:`~repro.serving.sampler.SubgraphSampler.extract_many` (behind
``fused_size`` and ``fuse_requests``) peeks the memo, extracts the absent
shapes together, then replays the get/put sequence of one ``extract`` call
per shape.  A twin sampler fed the same shapes one ``extract`` at a time
must end in the same memo state -- hit/miss/insertion/eviction counters,
recency order, the invalidation index (``_registered``, ``_vertex_keys``)
and the drop counters -- including when a put inside the batch evicts a key
that was present at the peek.

:meth:`~repro.serving.sampler.SubgraphSampler.warm_signatures` signs many
targets in one pass and puts them in the signature memo; each must equal
the per-target ``signature_fresh`` bit for bit, and a mutable graph's
memo is never warmed.  Its twin
:meth:`~repro.serving.sampler.SubgraphSampler.warm_samples` does the same
for the sample memo: each warmed sample must equal ``extract_fresh`` bit
for bit, and a serve that warms must export the JSON of one that does
not.
"""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DeltaGraph, load_dataset
from repro.models.model_zoo import build_model, clear_workloads_cache
from repro.serving import (
    FleetConfig,
    MultiTenantSimulator,
    RequestGenerator,
    ServingSimulator,
    ShardingConfig,
    TenantConfig,
    WorkloadConfig,
)
from repro.serving.batching import resolve_signature_hops
from repro.serving.fleet import clear_probe_cache, run_serving
from repro.serving.hetero import fleet_spec_for_mix
from repro.serving.sampler import SubgraphSampler
from repro.serving.workload import merge_tenant_streams

_POOL = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
_SHAPE = st.tuples(st.sampled_from(_POOL), st.sampled_from((None, 0, 1, 2)),
                   st.sampled_from((None, 2, 8)))


def _memo_state(sampler):
    """Everything the memo and its invalidation bookkeeping hold."""
    return {
        "samples": (sampler._memo.stats.as_dict(), sampler._memo.keys()),
        "signatures": (sampler._sig_memo.stats.as_dict(),
                       sampler._sig_memo.keys()),
        "registered": dict(sampler._registered),
        "vertex_keys": {v: set(keys)
                        for v, keys in sampler._vertex_keys.items()},
        "dropped": (sampler.invalidated_samples,
                    sampler.invalidated_signatures),
    }


def _twins(memo_size, policy="targeted"):
    """Two identical samplers on one shared mutating graph."""
    delta = DeltaGraph(load_dataset("IB", seed=0))
    twins = []
    for _ in range(2):
        sampler = SubgraphSampler(delta, num_hops=2, fanout=8, seed=0,
                                  memo_size=memo_size)
        sampler.invalidation = policy
        twins.append(sampler)
    return delta, twins


def _assert_same_sample(sample, want):
    """Bit for bit: ids, CSR arrays, their dtypes and read-only flags."""
    assert sample.target_vertex == want.target_vertex
    for got, ref in ((sample.vertex_ids, want.vertex_ids),
                     (sample.graph.csr.indptr, want.graph.csr.indptr),
                     (sample.graph.csr.indices, want.graph.csr.indices)):
        assert got.dtype == ref.dtype
        assert got.flags.writeable == ref.flags.writeable
        assert np.array_equal(got, ref)
    assert not sample.vertex_ids.flags.writeable


def _assert_same_samples(batched, sequential):
    assert len(batched) == len(sequential)
    for a, b in zip(batched, sequential):
        _assert_same_sample(a, b)


@settings(max_examples=40, deadline=None)
@given(memo_size=st.integers(1, 6),
       policy=st.sampled_from(("targeted", "flush", "none")),
       rounds=st.lists(st.tuples(
           st.lists(_SHAPE, max_size=10),
           st.lists(st.sampled_from(_POOL), max_size=3),
           st.lists(st.tuples(st.integers(0, 2646), st.sampled_from(_POOL)),
                    max_size=2)),
           min_size=1, max_size=4))
def test_extract_many_leaves_the_sequential_memo_state(memo_size, policy,
                                                        rounds):
    """Duplicate shapes, mixed degrade shapes, a memo smaller than the
    batch, signatures outliving their samples and edge inserts between
    rounds: the batched twin's memo state never departs from the
    sequential twin's."""
    delta, (batched, sequential) = _twins(memo_size, policy)
    for shapes, signed, edges in rounds:
        # extract_many syncs on entry even for no shapes, as fused_size
        # always did; sync the sequential twin at the same point
        sequential._sync()
        _assert_same_samples(batched.extract_many(shapes),
                             [sequential.extract(*s) for s in shapes])
        for target in signed:
            assert np.array_equal(batched.signature(target),
                                  sequential.signature(target))
        assert _memo_state(batched) == _memo_state(sequential)
        for target in _POOL:
            assert batched.memo_version(target, None, None) == \
                sequential.memo_version(target, None, None)
        # the index covers exactly the keys some memo still holds
        held = set(batched._memo.keys()) | set(batched._sig_memo.keys())
        assert set(batched._registered) == held
        if policy == "none":
            assert all(keys <= held
                       for keys in batched._vertex_keys.values())
        for src, dst in edges:
            delta.add_edge(src, dst)


def test_put_inside_the_batch_evicts_a_key_present_at_the_peek():
    """Memo of 2 holding A (LRU) and B; fetching [C, A, B] evicts A on C's
    put, so A misses after all.  Under ``none`` A's entry is stale by then:
    the batch must re-extract it, as the sequential miss does, not hand
    back the sample it saw at the peek."""
    delta, (batched, sequential) = _twins(memo_size=2, policy="none")
    for sampler in (batched, sequential):
        sampler.extract(1)
        sampler.extract(2)
    stale = batched._memo.peek((1, 2, 8))
    delta.add_edge(next(v for v in range(delta.num_vertices)
                        if not delta.has_edge(v, 1)), 1)
    shapes = [(3, None, None), (1, None, None), (2, None, None)]
    samples = batched.extract_many(shapes)
    _assert_same_samples(samples, [sequential.extract(*s) for s in shapes])
    assert not np.array_equal(samples[1].vertex_ids, stale.vertex_ids)
    assert _memo_state(batched) == _memo_state(sequential)
    assert batched._memo.stats.as_dict()["misses"] == 2 + 3
    assert batched._memo.keys() == [(1, 2, 8), (2, 2, 8)]


@pytest.mark.parametrize("memo_size", [0, 1, 3, 64])
def test_fused_size_and_fuse_requests_match_sequential_extracts(memo_size):
    """``fused_size`` gets one shape per request (duplicates included);
    ``fuse_requests`` fetches each distinct shape once."""
    _, (batched, sequential) = _twins(memo_size)
    shapes = [(5, None, None), (8, 1, 2), (5, None, None), (13, 2, 8),
              (5, 1, 2), (8, 1, 2), (21, None, 2)]
    samples = [sequential.extract(*s) for s in shapes]
    naive = sum(s.num_vertices for s in samples)
    union = np.unique(np.concatenate([s.vertex_ids for s in samples]))
    assert batched.fused_size(shapes) == (union.size, naive)
    assert _memo_state(batched) == _memo_state(sequential)
    requests = [SimpleNamespace(target_vertex=t, degrade_hops=h,
                                degrade_fanout=f) for t, h, f in shapes]
    fused, fused_naive, distinct = batched.fuse_requests(requests, "b")
    expected = sequential.fuse(
        [sequential.extract(*s) for s in dict.fromkeys(shapes)], name="b")
    assert (fused_naive, distinct) == (naive, 5)
    assert np.array_equal(fused.vertex_ids, expected.vertex_ids)
    assert np.array_equal(fused.csr.indices, expected.csr.indices)
    assert _memo_state(batched) == _memo_state(sequential)


def test_eviction_prunes_the_invalidation_index():
    """Ten extracts through a memo of 4 used to leave 10 versions and 269
    vertex references to evicted keys, and ``memo_version`` answered 0
    for an evicted key instead of ``None``."""
    sampler = SubgraphSampler(DeltaGraph(load_dataset("IB")), memo_size=4)
    for target in range(10):
        sampler.extract(target)
    live = set(sampler._memo.keys())
    assert live == {(t, 2, 8) for t in (6, 7, 8, 9)}
    assert set(sampler._registered) == live
    assert all(keys <= live for keys in sampler._vertex_keys.values())
    assert sampler.memo_version(0, None, None) is None
    assert sampler.memo_version(9, None, None) == 0
    for key in live:
        for v in sampler._memo.peek(key).vertex_ids.tolist():
            assert key in sampler._vertex_keys[v]


def test_signature_outliving_its_sample_stays_invalidatable():
    """An evicted sample whose signature is still memoised keeps its
    vertices indexed, so a mutation inside it still drops the signature."""
    delta = DeltaGraph(load_dataset("IB"))
    sampler = SubgraphSampler(delta, memo_size=2)
    sampler.signature(0)
    sampler.extract(1)
    sampler.extract(2)
    key = (0, 2, 8)
    assert key not in sampler._memo and key in sampler._sig_memo
    assert key in sampler._registered
    assert sampler.memo_version(0, None, None) is None
    inside = int(sampler.extract_fresh(0).vertex_ids[-1])
    src = next(v for v in range(delta.num_vertices)
               if not delta.has_edge(v, inside))
    delta.add_edge(src, inside)
    sampler.extract_many([])  # syncs: targeted invalidation runs
    assert key not in sampler._sig_memo
    assert sampler.invalidated_signatures == 1
    assert key not in sampler._registered


#: IB vertices with no in-neighbours, and its largest in-degree hub (1,388)
_SOURCES = (8, 10, 52, 61)
_HUB = 1932


#: Target lists and shapes both warm-ups are checked on
_WARM_CASES = [
    pytest.param(_SOURCES, None, None, id="no-in-neighbours"),
    pytest.param((0, _HUB, 17, 8), 0, None, id="zero-hops"),
    pytest.param((_HUB, 0, 5, 100, 8), None, 2, id="fanout-override"),
    pytest.param((_HUB, 3, 8, 5), resolve_signature_hops(2, 2), None,
                 id="overlap-k-2"),
    pytest.param((5, _HUB, 5, 8, _HUB, 5), 1, None, id="duplicates"),
]
_RANDOM_TARGETS = st.lists(st.sampled_from((*_POOL, *_SOURCES, _HUB)),
                           max_size=12)


@pytest.mark.parametrize("targets,num_hops,fanout", _WARM_CASES)
def test_warmed_signatures_equal_per_target_signature_fresh(
        targets, num_hops, fanout):
    graph = load_dataset("IB", seed=0)
    sampler = SubgraphSampler(graph, num_hops=2, fanout=8, seed=0)
    reference = SubgraphSampler(graph, num_hops=2, fanout=8, seed=0)
    distinct = list(dict.fromkeys(targets))
    assert sampler.warm_signatures(targets, num_hops, fanout) == len(distinct)
    hops, fan = sampler._shape(num_hops, fanout)
    # first-occurrence order, and the sample memo is left alone
    assert sampler._sig_memo.keys() == [(t, hops, fan) for t in distinct]
    assert len(sampler._memo) == 0
    for target in distinct:
        sig = sampler._sig_memo.peek((target, hops, fan))
        want = reference.signature_fresh(target, num_hops, fanout)
        assert sig.dtype == want.dtype == np.uint64
        assert not sig.flags.writeable
        assert np.array_equal(sig, want)
        assert sampler.signature(target, num_hops, fanout) is sig
    assert sampler._sig_memo.stats.misses == 0


@settings(max_examples=30, deadline=None)
@given(targets=_RANDOM_TARGETS,
       num_hops=st.sampled_from((None, 0, 1, 2, 3)),
       fanout=st.sampled_from((None, 1, 2, 8)))
def test_warmed_signatures_match_on_random_target_lists(targets, num_hops,
                                                        fanout):
    graph = load_dataset("IB", seed=0)
    sampler = SubgraphSampler(graph, seed=3)
    sampler.warm_signatures(targets, num_hops, fanout)
    hops, fan = sampler._shape(num_hops, fanout)
    for target in dict.fromkeys(targets):
        assert np.array_equal(sampler._sig_memo.peek((target, hops, fan)),
                              sampler.signature_fresh(target, hops, fan))


def test_warming_fills_only_the_free_room():
    """Warming never evicts: a memo of 3 already holding one signature
    takes the first two absent targets, then nothing."""
    sampler = SubgraphSampler(load_dataset("IB", seed=0), memo_size=3)
    sampler.signature(5)
    assert sampler.warm_signatures([5, 8, 13, 21, 34]) == 2
    assert sampler._sig_memo.keys() == [(5, 2, 8), (8, 2, 8), (13, 2, 8)]
    assert sampler.warm_signatures([55]) == 0
    assert sampler._sig_memo.stats.evictions == 0


def test_a_mutable_graph_is_not_warmed():
    """On a DeltaGraph the memo state reaches the consistency stats, so a
    warmed sampler must end where the per-arrival one does."""
    targets = [5, 8, 5, 13, 21, 8, 144]
    _, (warmed, per_arrival) = _twins(memo_size=64)
    assert warmed.warm_signatures(targets) == 0
    assert warmed.warm_samples(targets) == 0
    assert _memo_state(warmed) == _memo_state(per_arrival)
    for sampler in (warmed, per_arrival):
        for target in targets:
            sampler.signature(target)
            sampler.extract(target, 1, 2)
    assert _memo_state(warmed) == _memo_state(per_arrival)


@pytest.mark.parametrize("targets,num_hops,fanout", _WARM_CASES)
def test_warmed_samples_equal_per_target_extract_fresh(targets, num_hops,
                                                       fanout):
    graph = load_dataset("IB", seed=0)
    sampler = SubgraphSampler(graph, num_hops=2, fanout=8, seed=0)
    reference = SubgraphSampler(graph, num_hops=2, fanout=8, seed=0)
    distinct = list(dict.fromkeys(targets))
    assert sampler.warm_samples(targets, num_hops, fanout) == len(distinct)
    hops, fan = sampler._shape(num_hops, fanout)
    # first-occurrence order, and the signature memo is left alone
    assert sampler._memo.keys() == [(t, hops, fan) for t in distinct]
    assert len(sampler._sig_memo) == 0
    for target in distinct:
        sample = sampler._memo.peek((target, hops, fan))
        _assert_same_sample(
            sample, reference.extract_fresh(target, num_hops, fanout))
        assert sampler.extract(target, num_hops, fanout) is sample
    assert sampler._memo.stats.misses == 0


@settings(max_examples=30, deadline=None)
@given(targets=_RANDOM_TARGETS,
       num_hops=st.sampled_from((None, 0, 1, 2, 3)),
       fanout=st.sampled_from((None, 1, 2, 8)))
def test_warmed_samples_match_on_random_target_lists(targets, num_hops,
                                                     fanout):
    graph = load_dataset("IB", seed=0)
    sampler = SubgraphSampler(graph, seed=3)
    sampler.warm_samples(targets, num_hops, fanout)
    hops, fan = sampler._shape(num_hops, fanout)
    for target in dict.fromkeys(targets):
        _assert_same_sample(sampler._memo.peek((target, hops, fan)),
                            sampler.extract_fresh(target, hops, fan))


def test_warming_samples_fills_only_the_free_room():
    """A sample memo of 3 already holding one sample takes the first two
    absent targets, then nothing; no put evicts."""
    sampler = SubgraphSampler(load_dataset("IB", seed=0), memo_size=3)
    sampler.extract(5)
    assert sampler.warm_samples([5, 8, 13, 21, 34]) == 2
    assert sampler._memo.keys() == [(5, 2, 8), (8, 2, 8), (13, 2, 8)]
    assert sampler.warm_samples([55]) == 0
    assert sampler._memo.stats.evictions == 0
    assert len(sampler._sig_memo) == 0


def _ib_simulator(fleet, num_requests=300):
    """A single-tenant (push) IB simulator and its calibrated stream."""
    graph = load_dataset("IB", seed=fleet.seed)
    model = build_model("GCN", input_length=graph.feature_length)
    simulator = ServingSimulator(graph, model, fleet, dataset_name="IB")
    rate = simulator.calibrate_rate(0.9)
    requests = RequestGenerator(graph.num_vertices, WorkloadConfig(
        num_requests=num_requests, rate_rps=rate, popularity_skew=1.2,
        seed=0)).generate()
    return simulator, requests, rate


@pytest.mark.parametrize("batch_policy", ["overlap", "continuous"])
def test_an_overlap_serve_signs_its_targets_before_the_loop(batch_policy):
    simulator, requests, rate = _ib_simulator(
        FleetConfig(num_chips=2, batch_policy=batch_policy))
    simulator.run(requests, rate)
    stats = simulator.runtime.sampler._sig_memo.stats
    assert stats.insertions == len({r.target_vertex for r in requests})
    assert stats.misses == 0 < stats.hits


def test_a_push_serve_extracts_its_targets_before_the_loop():
    """Push dispatch, timeout batching: every arrival's sample is a memo
    hit."""
    simulator, requests, rate = _ib_simulator(
        FleetConfig(num_chips=2, batch_policy="timeout"))
    stats = simulator.runtime.sampler._memo.stats
    misses = stats.misses
    simulator.run(requests, rate)
    assert stats.misses == misses
    assert stats.insertions >= len({r.target_vertex for r in requests})
    assert stats.evictions == 0 < stats.hits


def test_a_pull_serve_extracts_every_tenants_targets_before_the_loop():
    """Pull (WFQ) dispatch, two tenants on immutable graphs: pricing and
    service read only memo hits once the run starts."""
    simulator = MultiTenantSimulator(
        [TenantConfig(name="ib", dataset="IB", num_requests=200,
                      batch_policy="continuous"),
         TenantConfig(name="cr", dataset="CR", num_requests=200)],
        FleetConfig(num_chips=2))
    rates = simulator.calibrate_rates(0.9)
    requests = merge_tenant_streams(simulator.tenant_streams(rates))
    memos = [rt.sampler._memo for rt in simulator.runtimes.values()]
    misses = [memo.stats.misses for memo in memos]
    simulator.run(requests, rates)
    assert [memo.stats.misses for memo in memos] == misses
    assert all(memo.stats.evictions == 0 < memo.stats.hits for memo in memos)


def _digest(report):
    """sha256 of the report's full JSON, records included."""
    return hashlib.sha256(json.dumps(
        report.to_dict(include_records=True), sort_keys=True).encode()
    ).hexdigest()


def _small_memo_serve():
    """A continuous IB serve whose distinct targets outnumber a 64-entry
    sample memo, so warming fills it and later misses evict."""
    simulator, requests, rate = _ib_simulator(
        FleetConfig(num_chips=2, batch_policy="continuous"),
        num_requests=400)
    simulator.runtime.sampler._memo.capacity = 64
    assert len({r.target_vertex for r in requests}) > 64
    return simulator.run(requests, rate)


@pytest.mark.parametrize("serve", [
    pytest.param(_small_memo_serve, id="small-memo"),
    pytest.param(lambda: run_serving(
        dataset="IB", num_requests=300, popularity_skew=1.2,
        config=FleetConfig(num_chips=2, sharding=ShardingConfig(
            num_shards=2, partitioner="hash", halo_cache_mb=0.25))),
        id="sharded"),
    pytest.param(lambda: run_serving(
        dataset="IB", num_requests=300, utilization_target=1.2,
        config=FleetConfig(fleet_spec=fleet_spec_for_mix("mixed", 5),
                           dispatch="shape-aware", max_batch_size=16,
                           cache_size=0)),
        id="heterogeneous"),
])
def test_warming_samples_leaves_the_report_unchanged(serve, monkeypatch):
    """The same serve with the sample warm-up a no-op exports the same
    JSON, byte for byte."""
    def cold_serve():
        clear_probe_cache()
        clear_workloads_cache()
        return _digest(serve())

    warmed = cold_serve()
    monkeypatch.setattr(SubgraphSampler, "warm_samples",
                        lambda self, *args, **kwargs: 0)
    assert cold_serve() == warmed


def test_a_continuous_serve_extracts_in_at_most_two_calls(monkeypatch):
    """One call signs the run's targets and one extracts them: a batch
    that extracts its own misses would add a call per batch."""
    simulator, requests, rate = _ib_simulator(
        FleetConfig(num_chips=2, batch_policy="continuous"))
    calls = []
    extract_fresh_many = SubgraphSampler.extract_fresh_many

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return extract_fresh_many(self, *args, **kwargs)

    monkeypatch.setattr(SubgraphSampler, "extract_fresh_many", counted)
    report = simulator.run(requests, rate)
    assert report.completed == len(requests)
    assert len(calls) <= 2
