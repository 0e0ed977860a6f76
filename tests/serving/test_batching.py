"""Batch formation: overlap signatures, grouping, continuous joins, budgets.

Covers the :mod:`repro.serving.batching` subsystem end to end -- signature
determinism, greedy overlap grouping (including the FIFO-degradation
contract on zero-overlap workloads), the continuous-join lifecycle with its
join-window and staleness budgets, the one-clock formation-timestamp
invariant, the fused-size WFQ cost model, and the simulation-level
acceptance criteria: on a skewed-popularity workload the ``overlap`` policy
beats ``fifo`` on both p99 latency and chip-seconds, and ``continuous``
never violates its budgets.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from _fake_fleet import fake_runtime, fake_scaler
from repro.graphs.graph import Graph
from repro.serving import (
    ALL_BATCH_POLICIES,
    BATCH_POLICIES,
    Batch,
    ContinuousBatcher,
    FIFOBatcher,
    FleetConfig,
    OverlapBatcher,
    Request,
    SIGNATURE_HASHES,
    SubgraphSampler,
    TimeoutBatcher,
    WFQScheduler,
    build_batch_policy,
    clear_probe_cache,
    estimate_jaccard,
    run_serving,
)
from repro.serving.control import ControlConfig
from repro.serving.fleet import ServingSimulator
from repro.graphs.datasets import load_dataset
from repro.models.model_zoo import build_model


def _req(i, t, target=None):
    return Request(request_id=i, target_vertex=target if target is not None
                   else i, arrival_time_s=t)


def _sig_fn(mapping):
    """Signature function from an explicit target -> vector mapping."""
    def signature(request):
        return np.asarray(mapping[request.target_vertex], dtype=np.uint64)
    return signature


def _distinct_sigs(num, length=SIGNATURE_HASHES):
    """Pairwise fully-distinct signatures for targets 0..num-1."""
    return {v: np.full(length, 1000 + v, dtype=np.uint64)
            for v in range(num)}


def _cluster_graph():
    """Two 5-vertex star clusters joined to nothing: targets in the same
    cluster share their hub neighbourhood, across clusters nothing."""
    edges = []
    for hub, leaves in ((0, range(1, 5)), (5, range(6, 10))):
        for leaf in leaves:
            edges.append((hub, leaf))
    return Graph.from_edge_list(edges, num_vertices=10, feature_length=4,
                                undirected=True, name="clusters")


# --------------------------------------------------------------------------- #
# Signatures
# --------------------------------------------------------------------------- #
class TestSignatures:
    def test_deterministic_across_samplers(self):
        graph = _cluster_graph()
        a = SubgraphSampler(graph, num_hops=1, fanout=8, seed=3)
        b = SubgraphSampler(graph, num_hops=1, fanout=8, seed=3)
        assert np.array_equal(a.signature(1), b.signature(1))

    def test_identical_targets_identical_signatures(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=1, fanout=8)
        assert estimate_jaccard(sampler.signature(2),
                                sampler.signature(2)) == 1.0

    def test_same_cluster_overlaps_more_than_cross_cluster(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=2, fanout=8)
        same = estimate_jaccard(sampler.signature(1), sampler.signature(2))
        cross = estimate_jaccard(sampler.signature(1), sampler.signature(6))
        assert same > cross

    def test_signature_is_read_only_and_sized(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=1, fanout=8)
        sig = sampler.signature(0)
        assert sig.shape == (SIGNATURE_HASHES,)
        with pytest.raises(ValueError):
            sig[0] = 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_jaccard(np.zeros(4, dtype=np.uint64),
                             np.zeros(8, dtype=np.uint64))
        with pytest.raises(ValueError):
            estimate_jaccard(np.zeros((3, 4), dtype=np.uint64),
                             np.zeros(8, dtype=np.uint64))

    def test_stacks_broadcast_to_per_pair_estimates(self):
        rng = np.random.default_rng(0)
        stack = rng.integers(0, 3, (5, 16)).astype(np.uint64)
        one = estimate_jaccard(stack[0], stack[1])
        assert type(one) is float
        sims = estimate_jaccard(stack, stack[1])
        assert sims.shape == (5,)
        # exactly the per-pair fraction of equal components
        assert sims.tolist() == [float(np.mean(s == stack[1]))
                                 for s in stack]
        pairs = estimate_jaccard(stack[:4], stack[1:])
        assert pairs.tolist() == [estimate_jaccard(a, b)
                                  for a, b in zip(stack[:4], stack[1:])]


# --------------------------------------------------------------------------- #
# Fused-size cost model and union fusion
# --------------------------------------------------------------------------- #
class TestFusion:
    def test_fused_size_dedups_shared_vertices(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=1, fanout=8)
        # leaves 1 and 2 both sample hub 0: union is {1, 2, 0}
        fused, naive = sampler.fused_size([(1, None, None), (2, None, None)])
        assert fused == 3
        assert naive == 4

    def test_fused_size_counts_duplicate_requests_naively(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=1, fanout=8)
        fused, naive = sampler.fused_size([(1, None, None), (1, None, None)])
        assert fused == 2        # the one sample's {1, 0}
        assert naive == 4        # both requests would stream it standalone

    def test_fuse_builds_the_union_graph(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=1, fanout=8)
        samples = [sampler.extract(1), sampler.extract(2)]
        fused = sampler.fuse(samples)
        assert fused.num_vertices == 3
        # each 1-hop sample carries one in-edge (hub -> leaf); the shared
        # hub vertex is deduped but both leaves keep their own edge
        assert fused.num_edges == 2
        assert fused.memoize_workloads is False

    def test_fuse_disjoint_is_a_disjoint_union(self):
        sampler = SubgraphSampler(_cluster_graph(), num_hops=1, fanout=8)
        samples = [sampler.extract(1), sampler.extract(6)]
        fused = sampler.fuse(samples)
        assert fused.num_vertices == 4
        assert fused.num_edges == samples[0].num_edges + samples[1].num_edges


# --------------------------------------------------------------------------- #
# Overlap formation
# --------------------------------------------------------------------------- #
class TestOverlapBatcher:
    def _drive(self, batcher, num=12, spacing=0.1):
        """Feed an arrival stream, firing due timers; returns emitted batches."""
        emitted = []
        for i in range(num):
            t = spacing * i
            while True:        # fire every deadline that passed before t
                deadline = batcher.next_deadline(t)
                if deadline is None or deadline > t:
                    break
                batch = batcher.flush_due(deadline)
                if batch is not None:
                    emitted.append(batch)
            assert batcher.try_join(_req(i, t), t) is None
            batch = batcher.add(_req(i, t), t)
            if batch is not None:
                emitted.append(batch)
        emitted.extend(batcher.drain(spacing * num))
        return emitted

    def test_zero_overlap_degrades_to_fifo_grouping(self):
        """Disjoint signatures: overlap selects in arrival order, so batch
        *membership* is exactly FIFO's (formation under cap-driven load
        waits on the larger formation pool, so only timing may differ)."""
        sigs = _distinct_sigs(40)
        fifo = self._drive(FIFOBatcher(max_batch_size=4, timeout_s=0.5))
        over = self._drive(OverlapBatcher(max_batch_size=4, timeout_s=0.5,
                                          signature_fn=_sig_fn(sigs)))
        assert [[r.request_id for r in b.requests] for b in fifo] \
            == [[r.request_id for r in b.requests] for b in over]

    def test_zero_overlap_timeout_driven_is_bitwise_fifo(self):
        """When the timeout (not a size cap) drives formation, a disjoint
        workload gets byte-identical batches -- membership and clocks."""
        sigs = _distinct_sigs(40)
        fifo = self._drive(FIFOBatcher(max_batch_size=8, timeout_s=0.35))
        over = self._drive(OverlapBatcher(max_batch_size=8, timeout_s=0.35,
                                          signature_fn=_sig_fn(sigs)))
        assert len(fifo) > 1
        assert [[r.request_id for r in b.requests] for b in fifo] \
            == [[r.request_id for r in b.requests] for b in over]
        assert [b.created_time_s for b in fifo] \
            == [b.created_time_s for b in over]

    def test_groups_duplicates_ahead_of_arrival_order(self):
        sigs = _distinct_sigs(10)
        batcher = OverlapBatcher(max_batch_size=2, timeout_s=10.0,
                                 signature_fn=_sig_fn(sigs))
        # arrival order: 0, 1, 0-again; the group anchored on the first
        # request picks its duplicate over the earlier-arriving target 1
        batcher.add(_req(0, 0.0, target=0), 0.0)
        batcher.add(_req(1, 0.1, target=1), 0.1)
        batcher.add(_req(2, 0.2, target=0), 0.2)
        batch = batcher.flush(0.3)
        assert [r.request_id for r in batch.requests] == [0, 2]
        leftover = batcher.flush(0.4)
        assert [r.request_id for r in leftover.requests] == [1]

    def test_min_overlap_yields_single_request_batches_when_disjoint(self):
        sigs = _distinct_sigs(8)
        batcher = OverlapBatcher(max_batch_size=4, timeout_s=10.0,
                                 signature_fn=_sig_fn(sigs),
                                 min_overlap=0.5)
        for i in range(4):
            batcher.add(_req(i, 0.01 * i), 0.01 * i)
        batches = batcher.drain(1.0)
        assert [b.size for b in batches] == [1, 1, 1, 1]

    def test_pool_overflow_forces_a_flush(self):
        sigs = _distinct_sigs(64)
        batcher = OverlapBatcher(max_batch_size=2, timeout_s=10.0,
                                 signature_fn=_sig_fn(sigs), pool_factor=2)
        batches = []
        for i in range(9):
            batch = batcher.add(_req(i, 0.01 * i), 0.01 * i)
            if batch is not None:
                batches.append(batch)
        # pool cap is 4: overflow flushes emit max-size groups
        assert len(batches) >= 2
        assert all(b.size == 2 for b in batches)
        assert batcher.pending_count < 4

    def test_deadline_tracks_oldest_pending(self):
        sigs = _distinct_sigs(10)
        batcher = OverlapBatcher(max_batch_size=1, timeout_s=0.5,
                                 signature_fn=_sig_fn(sigs))
        batcher.add(_req(0, 1.0, target=0), 1.0)
        batcher.add(_req(1, 1.2, target=1), 1.2)
        assert batcher.next_deadline(1.2) == pytest.approx(1.5)
        batch = batcher.flush(1.5)  # singleton group anchored on request 0
        assert [r.request_id for r in batch.requests] == [0]
        # the leftover's own arrival now defines the deadline
        assert batcher.next_deadline(1.5) == pytest.approx(1.7)

    def test_mixed_signature_widths_rejected(self):
        """A pool of one width refuses a signature of another -- even a
        width-1 one that would silently broadcast across a row."""
        sigs = {0: np.zeros(4, dtype=np.uint64),
                1: np.zeros(1, dtype=np.uint64)}
        batcher = OverlapBatcher(max_batch_size=4, timeout_s=10.0,
                                 signature_fn=_sig_fn(sigs))
        batcher.add(_req(0, 0.0), 0.0)
        with pytest.raises(ValueError):
            batcher.add(_req(1, 0.1), 0.1)
            batcher.flush(0.2)

    def test_requires_signature_fn(self):
        with pytest.raises(ValueError):
            OverlapBatcher(signature_fn=None)
        with pytest.raises(ValueError):
            build_batch_policy("overlap")


# --------------------------------------------------------------------------- #
# Continuous joins
# --------------------------------------------------------------------------- #
class TestContinuousBatcher:
    def _batcher(self, **kwargs):
        defaults = dict(max_batch_size=4, timeout_s=0.5,
                        signature_fn=_sig_fn(_distinct_sigs(32)),
                        join_window_s=1.0, staleness_s=2.0)
        defaults.update(kwargs)
        return ContinuousBatcher(**defaults)

    def test_late_arrival_joins_open_batch(self):
        batcher = self._batcher()
        batcher.add(_req(0, 0.0), 0.0)
        batch = batcher.flush(0.1)
        assert batch.size == 1
        joined = batcher.try_join(_req(1, 0.2), 0.2)
        assert joined is batch
        assert batch.size == 2
        assert batch.late_joins == 1
        assert batcher.late_joins == 1
        assert batch.created_time_s == 0.1   # joins never restamp formation

    def test_join_window_boundary_inclusive(self):
        batcher = self._batcher(join_window_s=1.0)
        batcher.add(_req(0, 0.0), 0.0)
        batch = batcher.flush(0.0)
        # exactly at the boundary: accepted
        assert batcher.try_join(_req(1, 1.0), 1.0) is batch
        # just beyond: the batch has expired
        assert batcher.try_join(_req(2, 1.0001), 1.0001) is None
        assert batcher.open_batches == 0

    def test_staleness_budget_blocks_joins(self):
        batcher = self._batcher(join_window_s=10.0, staleness_s=0.5)
        batcher.add(_req(0, 0.0), 0.0)
        batch = batcher.flush(0.2)
        # oldest member at exactly the budget: accepted
        assert batcher.try_join(_req(1, 0.5), 0.5) is batch
        # past the budget: sealed for joins (and counted as a reject)
        assert batcher.try_join(_req(2, 0.6), 0.6) is None
        assert batcher.late_join_rejects == 1

    def test_service_start_seals_the_batch(self):
        batcher = self._batcher()
        batcher.add(_req(0, 0.0), 0.0)
        batch = batcher.flush(0.1)
        batcher.on_service_start(batch)
        assert batcher.try_join(_req(1, 0.2), 0.2) is None

    def test_full_batch_takes_no_joins(self):
        batcher = self._batcher(max_batch_size=1)
        batcher.add(_req(0, 0.0), 0.0)
        batch = batcher.flush(0.1)
        assert batch.size == 1
        assert batcher.try_join(_req(1, 0.2), 0.2) is None

    def test_min_overlap_binds_joins_too(self):
        """A batch formed under a purity floor never refills with
        non-overlapping strangers."""
        batcher = self._batcher(min_overlap=0.5)
        batcher.add(_req(0, 0.0, target=0), 0.0)
        batch = batcher.flush(0.1)
        assert batch.size == 1
        # disjoint signature: below the floor, no join
        assert batcher.try_join(_req(1, 0.2, target=9), 0.2) is None
        # identical target: similarity 1.0, joins
        assert batcher.try_join(_req(2, 0.3, target=0), 0.3) is batch

    def test_join_prefers_highest_similarity(self):
        sigs = _distinct_sigs(32)
        batcher = self._batcher(signature_fn=_sig_fn(sigs))
        batcher.add(_req(0, 0.0, target=0), 0.0)
        first = batcher.flush(0.0)
        batcher.add(_req(1, 0.1, target=7), 0.1)
        second = batcher.flush(0.1)
        joined = batcher.try_join(_req(2, 0.2, target=7), 0.2)
        assert joined is second
        assert first.size == 1

    def test_join_log_records_budgets(self):
        batcher = self._batcher(join_window_s=1.0, staleness_s=2.0)
        batcher.add(_req(0, 0.0), 0.0)
        batcher.flush(0.25)
        batcher.try_join(_req(1, 0.75), 0.75)
        (event,) = batcher.join_log
        assert event.batch_age_s == pytest.approx(0.5)
        assert event.oldest_wait_s == pytest.approx(0.75)

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            self._batcher(join_window_s=0.0)
        with pytest.raises(ValueError):
            self._batcher(staleness_s=0.0)


# --------------------------------------------------------------------------- #
# One-clock formation timestamps (regression)
# --------------------------------------------------------------------------- #
class TestFormationClock:
    @pytest.mark.parametrize("make", [
        lambda: TimeoutBatcher(max_batch_size=8, timeout_s=0.5),
        lambda: OverlapBatcher(max_batch_size=8, timeout_s=0.5,
                               signature_fn=_sig_fn(_distinct_sigs(8))),
        lambda: ContinuousBatcher(max_batch_size=8, timeout_s=0.5,
                                  signature_fn=_sig_fn(_distinct_sigs(8)),
                                  join_window_s=1.0, staleness_s=2.0),
    ])
    def test_late_firing_timer_stamps_event_loop_clock(self, make):
        """A timeout flush must carry the flush-event clock, not the enqueue
        clock (request arrival) and not the armed deadline."""
        batcher = make()
        batcher.add(_req(0, 1.0), 1.0)
        assert batcher.next_deadline(1.0) == pytest.approx(1.5)
        # the event loop was busy: the timer fires late, at t=1.73
        batch = batcher.flush_due(1.73)
        assert batch is not None
        assert batch.created_time_s == pytest.approx(1.73)

    def test_size_cap_stamps_the_completing_arrival(self):
        batcher = TimeoutBatcher(max_batch_size=2, timeout_s=100.0)
        batcher.add(_req(0, 0.0), 0.0)
        batch = batcher.add(_req(1, 0.3), 0.3)
        assert batch.created_time_s == pytest.approx(0.3)


# --------------------------------------------------------------------------- #
# Registry / config plumbing
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builds_every_policy(self):
        sig = _sig_fn(_distinct_sigs(4))
        for policy in ALL_BATCH_POLICIES:
            batcher = build_batch_policy(policy, signature_fn=sig)
            assert batcher.policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_batch_policy("nearest-neighbour")

    def test_fleet_config_accepts_formation_policies(self):
        for policy in BATCH_POLICIES:
            assert FleetConfig(batch_policy=policy).batch_policy == policy

    def test_fleet_config_validates_overlap_knobs(self):
        with pytest.raises(ValueError):
            FleetConfig(min_overlap=1.5)
        with pytest.raises(ValueError):
            FleetConfig(join_window_s=0.0)
        with pytest.raises(ValueError):
            FleetConfig(staleness_s=-1.0)
        with pytest.raises(ValueError):
            FleetConfig(overlap_k=-1)
        with pytest.raises(ValueError):
            FleetConfig(pool_factor=0)

    def test_signature_hops_resolution(self):
        assert FleetConfig(num_hops=2).signature_hops == 1
        assert FleetConfig(num_hops=2, overlap_k=5).signature_hops == 2
        assert FleetConfig(num_hops=0).signature_hops == 0

    def test_wfq_reprice_updates_queued_batch(self):
        scheduler = WFQScheduler({"a": 1.0}, quantum_s=1.0)
        batch = Batch(batch_id=7, requests=[_req(0, 0.0)], created_time_s=0.0)
        scheduler.enqueue("a", batch, 1.0)
        assert scheduler.reprice("a", 7, 3.0) is True
        name, released, cost = scheduler.next_batch()
        assert (name, released.batch_id, cost) == ("a", 7, 3.0)
        assert scheduler.reprice("a", 7, 1.0) is False  # already released

    def test_admit_damps_degradation_by_overlap(self):
        """With high measured overlap the ladder's savings shrink, so a
        request that a zero-overlap fleet would degrade gets shed."""
        config = ControlConfig(admission=True, degrade=True,
                               admission_rate_rps=1e9,
                               admission_slo_margin=1.0)

        def admit(overlap_ratio):
            runtime = fake_runtime(slo_s=1.0, cost_per_request_s=1.6,
                                   overlap_ewma=overlap_ratio,
                                   overlap_aware=True)
            scaler = fake_scaler(config, [SimpleNamespace(schedulable=True)],
                                 runtime)
            return scaler.admit(runtime, _req(0, 0.0), 0.0)
        # no backlog, service 1.6: full fidelity misses the 1.0 budget;
        # level-1 (cost_scale ~0.6) fits it -- unless overlap damping is
        # applied
        undamped = admit(0.0)
        assert undamped is not None and undamped.degrade_level == 1
        assert admit(0.9) is None


# --------------------------------------------------------------------------- #
# Simulation-level acceptance
# --------------------------------------------------------------------------- #
#: Saturated, cache-free, Zipf-skewed single-tenant scenario: the fleet is
#: the bottleneck, so formation quality shows up in both the tail and the
#: chip-seconds bill.
_ACCEPT = dict(dataset="IB", model_name="GCN", num_requests=400,
               popularity_skew=1.2, utilization_target=3.0, seed=0)
_FLEET = dict(num_chips=2, max_batch_size=8, cache_size=0)


def _accept_run(policy, **overrides):
    clear_probe_cache()
    config = FleetConfig(batch_policy=policy, **_FLEET)
    return run_serving(config=config, **{**_ACCEPT, **overrides})


class TestAcceptance:
    def test_overlap_beats_fifo_on_p99_and_chip_seconds(self):
        fifo = _accept_run("fifo")
        overlap = _accept_run("overlap")
        assert fifo.completed == overlap.completed == 400
        assert overlap.batching.overlap_ratio > fifo.batching.overlap_ratio
        assert overlap.p99_latency_s < fifo.p99_latency_s
        assert overlap.chip_seconds_s < fifo.chip_seconds_s

    def test_continuous_joins_within_budgets(self):
        """Short timeout flushes underfilled batches; continuous tops them
        up with late joins -- every one inside both budgets -- and beats
        FIFO in the same regime."""
        clear_probe_cache()
        graph = load_dataset("IB", seed=0)
        model = build_model("GCN", input_length=graph.feature_length)
        config = FleetConfig(batch_policy="continuous", num_chips=2,
                             max_batch_size=32, batch_timeout_s=5e-7,
                             cache_size=0)
        sim = ServingSimulator(graph, model, config, dataset_name="IB")
        rate = sim.calibrate_rate(1.2)
        from repro.serving import RequestGenerator, WorkloadConfig
        workload = WorkloadConfig(num_requests=400, rate_rps=rate,
                                  popularity_skew=1.2, seed=0)
        requests = RequestGenerator(graph.num_vertices, workload).generate()
        report = sim.run(requests, rate_rps=rate)
        assert report.batching.late_joins > 0
        log = sim.batcher.join_log
        assert len(log) == report.batching.late_joins
        for event in log:
            assert event.batch_age_s <= sim.join_window_s + 1e-12
            assert event.oldest_wait_s <= sim.staleness_s + 1e-12

        fifo_config = dataclasses.replace(config, batch_policy="fifo")
        clear_probe_cache()
        fifo = ServingSimulator(graph, model, fifo_config,
                                dataset_name="IB").run(requests,
                                                       rate_rps=rate)
        assert report.p99_latency_s < fifo.p99_latency_s
        assert report.chip_seconds_s < fifo.chip_seconds_s

    def test_overlap_grouping_is_deterministic(self):
        first = _accept_run("overlap")
        second = _accept_run("overlap")
        assert [r.request_id for r in first.records] \
            == [r.request_id for r in second.records]
        assert [r.latency_s for r in first.records] \
            == [r.latency_s for r in second.records]
        assert first.batching.as_dict() == second.batching.as_dict()

    def test_overlap_ratio_reported_for_every_policy(self):
        report = _accept_run("fifo")
        assert report.batching is not None
        assert 0.0 < report.batching.overlap_ratio < 1.0
        payload = report.to_dict(include_records=False)
        assert payload["batching"]["policy"] == "fifo"

    def test_single_request_batches_under_overlap_min_overlap(self):
        """A zero-skew workload with a similarity floor serves correctly
        from (mostly) singleton batches."""
        clear_probe_cache()
        config = FleetConfig(batch_policy="overlap", min_overlap=0.99,
                             **_FLEET)
        report = run_serving(config=config,
                             **{**_ACCEPT, "popularity_skew": 0.0,
                                "num_requests": 60,
                                "utilization_target": 0.5})
        assert report.completed == 60
        assert report.batching.mean_batch_size < 2.0
