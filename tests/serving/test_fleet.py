"""Fleet event loop: conservation, dispatch policies, caching, SLO stats."""

import pytest

from repro.graphs import load_dataset
from repro.models import build_model
from repro.core import HyGCNConfig
from repro.serving import (
    Batch,
    Chip,
    FleetConfig,
    Request,
    RequestGenerator,
    ServingSimulator,
    SubgraphSampler,
    WorkloadConfig,
    run_serving,
)
from repro.serving.fleet import fused_batch_service_time_s

NUM_REQUESTS = 200


@pytest.fixture(scope="module")
def graph():
    return load_dataset("IB", seed=0)


@pytest.fixture(scope="module")
def model(graph):
    return build_model("GCN", input_length=graph.feature_length)


def _serve(graph, model, num_requests=NUM_REQUESTS, rate_rps=2e6, **overrides):
    config = FleetConfig(**overrides)
    simulator = ServingSimulator(graph, model, config, dataset_name="IB")
    workload = WorkloadConfig(num_requests=num_requests, rate_rps=rate_rps, seed=0)
    requests = RequestGenerator(graph.num_vertices, workload).generate()
    return simulator.run(requests, rate_rps=rate_rps)


class TestConservation:
    @pytest.mark.parametrize("dispatch", ["round-robin", "least-loaded", "locality"])
    @pytest.mark.parametrize("batch_policy", ["size", "timeout", "slo"])
    def test_every_request_completes_exactly_once(self, graph, model,
                                                  dispatch, batch_policy):
        report = _serve(graph, model, dispatch=dispatch, batch_policy=batch_policy,
                        num_requests=64)
        assert report.completed == 64
        assert len({r.request_id for r in report.records}) == 64
        served = sum(c.requests_served for c in report.chips)
        cache_hits = sum(1 for r in report.records if r.cache_hit)
        assert served + cache_hits == 64

    def test_latencies_are_causal(self, graph, model):
        report = _serve(graph, model)
        for record in report.records:
            assert record.completion_time_s >= record.service_start_s \
                >= record.dispatch_time_s >= record.arrival_time_s


class TestFeatureCachePutOrder:
    """A batch puts its vertices in the fused graph's first-seen order."""

    @staticmethod
    def _lru(order, capacity, keys):
        # recency list of an LRU after touching ``keys`` in order
        for key in keys:
            if key in order:
                order.remove(key)
            order.append(key)
        return order[-capacity:]

    def test_lru_order_under_cache_pressure(self, graph, model):
        capacity = 40
        chip = Chip(0, HyGCNConfig(), feature_cache_size=capacity)
        sampler = SubgraphSampler(graph, num_hops=2, fanout=8, seed=0)
        expected = []
        for batch_id, targets in enumerate(((3, 17, 250), (17, 600, 3))):
            batch = Batch(batch_id, [Request(i, t, 0.0)
                                     for i, t in enumerate(targets)], 0.0)
            fused_batch_service_time_s(chip, sampler, model, batch, "IB",
                                       reuse_discount=0.5)
            fused, _, _ = sampler.fuse_requests(batch.requests, "check")
            put_order = fused.vertex_ids.tolist()
            # the working set of one batch overflows the cache
            assert len(put_order) > capacity
            expected = self._lru(expected, capacity, put_order)
            assert chip.feature_cache.keys() == expected
        assert chip.feature_cache.stats.evictions > 0


class TestDispatchPolicies:
    def test_round_robin_spreads_batches_evenly(self, graph, model):
        report = _serve(graph, model, dispatch="round-robin", num_chips=4)
        batches = [c.batches_served for c in report.chips]
        assert max(batches) - min(batches) <= 1

    def test_policies_produce_different_load_profiles(self, graph, model):
        splits = {}
        for dispatch in ("round-robin", "least-loaded", "locality"):
            report = _serve(graph, model, dispatch=dispatch, num_chips=4)
            splits[dispatch] = tuple(c.requests_served for c in report.chips)
        assert len(set(splits.values())) >= 2

    def test_utilization_bounded(self, graph, model):
        report = _serve(graph, model)
        span = report.makespan_s
        assert span > 0
        for chip in report.chips:
            assert 0.0 <= chip.utilization(span) <= 1.0


class TestResultCache:
    def test_cache_short_circuits_repeat_requests(self, graph, model):
        cached = _serve(graph, model, cache_size=4096)
        hits = [r for r in cached.records if r.cache_hit]
        assert cached.cache.hit_rate > 0
        assert len(hits) == cached.cache.hits
        # cache hits complete at (near) zero latency
        assert all(r.latency_s <= 1e-5 for r in hits)

    def test_disabled_cache_never_hits(self, graph, model):
        report = _serve(graph, model, cache_size=0)
        assert report.cache.hit_rate == 0.0
        assert all(not r.cache_hit for r in report.records)

    def test_cache_reduces_chip_work(self, graph, model):
        cached = _serve(graph, model, cache_size=4096)
        uncached = _serve(graph, model, cache_size=0)
        assert sum(c.requests_served for c in cached.chips) \
            < sum(c.requests_served for c in uncached.chips)


class TestReporting:
    def test_percentiles_ordered_and_slo_consistent(self, graph, model):
        report = _serve(graph, model)
        assert report.p50_latency_s <= report.p95_latency_s <= report.p99_latency_s \
            <= report.max_latency_s
        violations = sum(1 for lat in report.latencies_s if lat > report.slo_s)
        assert violations == report.slo_violations

    def test_summary_has_required_fields(self, graph, model):
        summary = _serve(graph, model).summary()
        for field in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps",
                      "slo_violation_pct", "cache_hit_rate_pct"):
            assert field in summary

    def test_empty_request_stream(self, graph, model):
        simulator = ServingSimulator(graph, model, FleetConfig())
        report = simulator.run([])
        assert report.completed == 0
        assert report.throughput_rps == 0.0
        assert report.makespan_s == 0.0


class TestRunServing:
    def test_end_to_end_with_calibrated_rate(self):
        report = run_serving(dataset="IB", model_name="GCN", num_requests=128,
                             config=FleetConfig(num_chips=2), seed=0)
        assert report.completed == 128
        assert report.rate_rps > 0
        assert report.throughput_rps > 0

    def test_deterministic_under_seed(self):
        a = run_serving(dataset="IB", model_name="GCN", num_requests=64, seed=0)
        b = run_serving(dataset="IB", model_name="GCN", num_requests=64, seed=0)
        assert a.summary() == b.summary()

    def test_invalid_fleet_configs_rejected(self):
        with pytest.raises(ValueError):
            FleetConfig(num_chips=0)
        with pytest.raises(ValueError):
            FleetConfig(dispatch="random")
        with pytest.raises(ValueError):
            FleetConfig(batch_policy="bogus")
        with pytest.raises(ValueError):
            FleetConfig(reuse_discount=1.5)
        with pytest.raises(ValueError):
            FleetConfig(slo_s=-1.0)
