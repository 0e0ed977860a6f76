"""Tests for multi-tenant serving: WFQ fairness, SLO accounting, determinism."""

import json
from dataclasses import replace

import pytest

from repro.serving import (
    FleetConfig,
    Request,
    RequestGenerator,
    TenantConfig,
    WFQScheduler,
    load_tenant_specs,
    merge_tenant_streams,
    run_multi_tenant,
    split_tenant_stream,
    WorkloadConfig,
)
from repro.serving.batcher import Batch
from repro.__main__ import main

NUM_REQUESTS = 160


def saturating_tenant(name, weight, **overrides):
    """A cheap tenant whose whole stream arrives at ~t=0 (full backlog)."""
    spec = dict(name=name, model="GCN", dataset="IB", weight=weight,
                num_requests=NUM_REQUESTS, rate_rps=1e9, num_hops=1,
                fanout=4, batch_policy="size", max_batch_size=16,
                cache_size=0)
    spec.update(overrides)
    return TenantConfig(**spec)


def run_pair(w_a, w_b, include_solo=False, **overrides):
    tenants = [saturating_tenant("a", w_a, **overrides),
               saturating_tenant("b", w_b, **overrides)]
    return run_multi_tenant(tenants, FleetConfig(num_chips=2),
                            include_isolation_baseline=include_solo)


# --------------------------------------------------------------------------- #
# WFQ scheduler unit behaviour
# --------------------------------------------------------------------------- #
class TestWFQScheduler:
    def _batch(self, i, tenant):
        return Batch(batch_id=i, requests=[], created_time_s=0.0, tenant=tenant)

    def test_equal_weights_alternate_equal_costs(self):
        sched = WFQScheduler({"a": 1.0, "b": 1.0}, quantum_s=1.0)
        for i in range(4):
            sched.enqueue("a", self._batch(i, "a"), 1.0)
            sched.enqueue("b", self._batch(i, "b"), 1.0)
        order = [sched.next_batch()[0] for _ in range(8)]
        assert order.count("a") == order.count("b") == 4
        # never more than one consecutive release for the same tenant
        assert all(x != y for x, y in zip(order, order[1:]))

    def test_weighted_service_proportional_to_cost(self):
        sched = WFQScheduler({"a": 2.0, "b": 1.0}, quantum_s=0.5)
        for i in range(30):
            sched.enqueue("a", self._batch(i, "a"), 1.0)
            sched.enqueue("b", self._batch(i, "b"), 1.0)
        cost = {"a": 0.0, "b": 0.0}
        for _ in range(15):
            name, _, c = sched.next_batch()
            cost[name] += c
        assert cost["a"] == pytest.approx(2 * cost["b"], rel=0.2)

    def test_drained_queue_forfeits_deficit(self):
        sched = WFQScheduler({"a": 1.0, "b": 1.0}, quantum_s=10.0)
        sched.enqueue("a", self._batch(0, "a"), 1.0)
        assert sched.next_batch()[0] == "a"
        assert sched.next_batch() is None
        # "a" must not have banked the unused 9s of deficit
        sched.enqueue("a", self._batch(1, "a"), 5.0)
        sched.enqueue("b", self._batch(1, "b"), 5.0)
        released = {sched.next_batch()[0], sched.next_batch()[0]}
        assert released == {"a", "b"}

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WFQScheduler({}, quantum_s=1.0)
        with pytest.raises(ValueError):
            WFQScheduler({"a": 0.0}, quantum_s=1.0)
        with pytest.raises(ValueError):
            WFQScheduler({"a": 1.0}, quantum_s=0.0)
        sched = WFQScheduler({"a": 1.0}, quantum_s=1.0)
        with pytest.raises(KeyError):
            sched.enqueue("ghost", self._batch(0, "ghost"), 1.0)

    # ------------------------------------------------------------------ #
    # Edge cases: starvation, empty queues, tiny quanta
    # ------------------------------------------------------------------ #
    def test_near_zero_weight_tenant_never_starves(self):
        # the featherweight accumulates deficit over rotations; DRR
        # guarantees it is eventually served, just at its tiny share
        sched = WFQScheduler({"heavy": 1.0, "light": 1e-4},
                             quantum_s=10.0)
        for i in range(50):
            sched.enqueue("heavy", self._batch(i, "heavy"), 1.0)
        sched.enqueue("light", self._batch(0, "light"), 1e-3)
        released = [sched.next_batch()[0] for _ in range(51)]
        assert released.count("light") == 1
        assert released.count("heavy") == 50

    def test_draining_a_tenant_with_an_empty_queue_is_harmless(self):
        # visiting an empty queue forfeits its deficit and advances; the
        # tenant can re-enter later without having banked any credit
        sched = WFQScheduler({"a": 1.0, "b": 1.0, "c": 1.0}, quantum_s=5.0)
        sched.enqueue("b", self._batch(0, "b"), 1.0)
        assert sched.next_batch()[0] == "b"      # a's empty queue was skipped
        assert sched.next_batch() is None        # everyone drained
        assert sched.pending_batches == 0
        # after draining, a and c hold no hidden deficit advantage
        sched.enqueue("a", self._batch(1, "a"), 4.0)
        sched.enqueue("c", self._batch(1, "c"), 4.0)
        first, second = sched.next_batch()[0], sched.next_batch()[0]
        assert {first, second} == {"a", "c"}
        assert sched.next_batch() is None

    def test_quantum_smaller_than_cheapest_batch_still_progresses(self):
        # a batch costing 100 quanta needs many credit rounds but must
        # release eventually, and weights still shape the release ratio
        sched = WFQScheduler({"a": 2.0, "b": 1.0}, quantum_s=0.01)
        for i in range(12):
            sched.enqueue("a", self._batch(i, "a"), 1.0)
            sched.enqueue("b", self._batch(i, "b"), 1.0)
        released = [sched.next_batch()[0] for _ in range(9)]
        assert released.count("a") == pytest.approx(
            2 * released.count("b"), abs=1)
        # drain completely: every enqueued batch comes out exactly once
        remaining = []
        while True:
            nxt = sched.next_batch()
            if nxt is None:
                break
            remaining.append(nxt)
        assert len(released) + len(remaining) == 24

    def test_backlog_view_tracks_enqueue_and_release(self):
        sched = WFQScheduler({"a": 1.0, "b": 1.0}, quantum_s=1.0)
        assert sched.backlog("a") == 0
        sched.enqueue("a", self._batch(0, "a"), 1.0)
        sched.enqueue("a", self._batch(1, "a"), 1.0)
        assert sched.backlog("a") == 2 and sched.backlog("b") == 0
        sched.next_batch()
        assert sched.backlog("a") == 1


# --------------------------------------------------------------------------- #
# Stream merging
# --------------------------------------------------------------------------- #
class TestMergeTenantStreams:
    def test_merge_tags_sorts_and_renumbers(self):
        streams = {
            "a": [Request(0, 5, 0.3), Request(1, 6, 0.1)],
            "b": [Request(0, 7, 0.2)],
        }
        merged = merge_tenant_streams(streams)
        assert [r.tenant for r in merged] == ["a", "b", "a"]
        assert [r.request_id for r in merged] == [0, 1, 2]
        assert [r.arrival_time_s for r in merged] == [0.1, 0.2, 0.3]
        back = split_tenant_stream(merged)
        assert len(back["a"]) == 2 and len(back["b"]) == 1

    def test_merge_breaks_arrival_ties_by_tenant_then_id(self):
        streams = {
            "b": [Request(1, 9, 0.5), Request(0, 8, 0.5)],
            "a": [Request(3, 7, 0.5), Request(2, 6, 0.7)],
        }
        merged = merge_tenant_streams(streams)
        assert [(r.tenant, r.target_vertex) for r in merged] == \
            [("a", 7), ("b", 8), ("b", 9), ("a", 6)]
        assert [r.request_id for r in merged] == [0, 1, 2, 3]

    def test_merge_rejects_empty_tenant_name(self):
        with pytest.raises(ValueError):
            merge_tenant_streams({"": [Request(0, 1, 0.0)]})

    def test_merge_equals_replace_on_two_large_streams(self):
        """Two 6,000-request streams (CR and IB sized, skew 1.2, colliding
        ids, one stamped with degradation fields) merge to exactly what
        re-tagging each request with ``dataclasses.replace`` gives."""
        streams = {}
        for name, vertices, rate in (("cr", 2708, 5e5), ("ib", 2647, 2.5e5)):
            cfg = WorkloadConfig(num_requests=6000, rate_rps=rate,
                                 popularity_skew=1.2, seed=len(name))
            streams[name] = RequestGenerator(vertices, cfg).generate()
        streams["ib"] = [replace(r, degrade_level=1, degrade_hops=1,
                                 degrade_fanout=2) if r.request_id % 7 == 0
                         else r for r in streams["ib"]]
        tagged = sorted(((r.arrival_time_s, name, r.request_id, r)
                         for name, stream in streams.items()
                         for r in stream), key=lambda t: t[:3])
        expected = [replace(r, tenant=name, request_id=i)
                    for i, (_, name, _, r) in enumerate(tagged)]
        assert merge_tenant_streams(streams) == expected


# --------------------------------------------------------------------------- #
# End-to-end fairness (the WFQ contract)
# --------------------------------------------------------------------------- #
class TestFairness:
    def test_equal_weights_equal_service_under_saturation(self):
        report = run_pair(1.0, 1.0)
        share_a = report.service_share("a")
        share_b = report.service_share("b")
        assert share_a + share_b == pytest.approx(1.0)
        # within 10% of the configured 50/50 split
        assert abs(share_a - 0.5) <= 0.05

    def test_two_to_one_weights_two_to_one_service(self):
        report = run_pair(2.0, 1.0)
        share_a = report.service_share("a")
        assert abs(share_a - 2.0 / 3.0) <= 0.1 * (2.0 / 3.0)
        assert abs(report.service_share("b") - 1.0 / 3.0) <= 0.1 * (1.0 / 3.0)

    def test_every_request_completes_exactly_once(self):
        report = run_pair(3.0, 1.0)
        assert report.completed == 2 * NUM_REQUESTS
        for name in report.tenants:
            records = report.reports[name].records
            assert len(records) == NUM_REQUESTS
            assert len({r.request_id for r in records}) == NUM_REQUESTS
            assert all(r.tenant == name for r in records)

    def test_heavier_weight_never_gets_less(self):
        report = run_pair(4.0, 1.0)
        assert report.service_share("a") > report.service_share("b")


# --------------------------------------------------------------------------- #
# Per-tenant SLO accounting and isolation metrics
# --------------------------------------------------------------------------- #
class TestSLOAndIsolation:
    def test_per_tenant_slo_is_independent(self):
        tenants = [
            saturating_tenant("strict", 1.0, slo_s=1e-9),
            saturating_tenant("relaxed", 1.0, slo_s=10.0),
        ]
        report = run_multi_tenant(tenants, FleetConfig(num_chips=2),
                                  include_isolation_baseline=False)
        assert report.reports["strict"].slo_violation_rate == 1.0
        assert report.reports["relaxed"].slo_violation_rate == 0.0

    def test_isolation_baseline_reports_inflation(self):
        report = run_pair(1.0, 1.0, include_solo=True,
                          num_requests=96)
        for name in report.tenants:
            assert report.solo[name].completed == 96
            inflation = report.p99_inflation(name)
            assert inflation is not None and inflation > 0
        rows = report.isolation_table()
        assert {row["tenant"] for row in rows} == {"a", "b"}
        assert all(row["p99_inflation_x"] is not None for row in rows)

    def test_without_baseline_inflation_is_none(self):
        report = run_pair(1.0, 1.0, num_requests=64)
        assert report.p99_inflation("a") is None
        assert all(row["solo_p99_ms"] is None
                   for row in report.isolation_table())


# --------------------------------------------------------------------------- #
# Rate calibration
# --------------------------------------------------------------------------- #
class TestRateCalibration:
    def _sim(self, *tenants):
        from repro.serving.tenancy import MultiTenantSimulator
        return MultiTenantSimulator(list(tenants), FleetConfig(num_chips=2))

    def test_calibrated_tenants_share_one_window(self):
        sim = self._sim(saturating_tenant("a", 1.0, rate_rps=None,
                                          num_requests=100),
                        saturating_tenant("b", 1.0, rate_rps=None,
                                          num_requests=400))
        rates = sim.calibrate_rates(utilization_target=0.8)
        # same window => rates proportional to request counts
        assert rates["b"] == pytest.approx(4 * rates["a"])

    def test_explicit_rates_pass_through_and_shrink_the_budget(self):
        explicit = saturating_tenant("a", 1.0, rate_rps=123.0)
        sim = self._sim(explicit, saturating_tenant("b", 1.0, rate_rps=None))
        rates = sim.calibrate_rates(utilization_target=0.8)
        assert rates["a"] == 123.0
        assert rates["b"] > 0
        # a tiny extra explicit load must yield a slightly later window
        # (lower calibrated rate) than no explicit load at all
        alone = self._sim(saturating_tenant("b", 1.0, rate_rps=None))
        assert rates["b"] < alone.calibrate_rates(0.8)["b"]

    def test_explicit_overload_leaves_no_budget(self):
        sim = self._sim(saturating_tenant("a", 1.0, rate_rps=1e9),
                        saturating_tenant("b", 1.0, rate_rps=None))
        with pytest.raises(ValueError, match="explicit-rate"):
            sim.calibrate_rates(utilization_target=0.8)


# --------------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        first = run_pair(2.0, 1.0, num_requests=96)
        second = run_pair(2.0, 1.0, num_requests=96)
        for name in first.tenants:
            a, b = first.reports[name], second.reports[name]
            assert [r.completion_time_s for r in a.records] \
                == [r.completion_time_s for r in b.records]
            assert a.p99_latency_s == b.p99_latency_s
        assert first.busy_s == second.busy_s
        assert first.contended_busy_s == second.contended_busy_s

    def test_fleet_seed_changes_traffic(self):
        tenants = [saturating_tenant("a", 1.0, num_requests=64,
                                     rate_rps=None)]
        r0 = run_multi_tenant(tenants, FleetConfig(num_chips=2, seed=0),
                              include_isolation_baseline=False)
        r1 = run_multi_tenant(tenants, FleetConfig(num_chips=2, seed=1),
                              include_isolation_baseline=False)
        lat0 = [r.latency_s for r in r0.reports["a"].records]
        lat1 = [r.latency_s for r in r1.reports["a"].records]
        assert lat0 != lat1


# --------------------------------------------------------------------------- #
# Spec parsing and validation
# --------------------------------------------------------------------------- #
class TestTenantSpecs:
    def test_load_from_json_file(self, tmp_path):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({"tenants": [
            {"name": "x", "model": "gcn", "dataset": "ib", "weight": 2},
            {"name": "y"},
        ]}))
        tenants = load_tenant_specs(str(spec))
        assert [t.name for t in tenants] == ["x", "y"]
        assert tenants[0].model == "GCN" and tenants[0].dataset == "IB"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            load_tenant_specs([{"name": "x", "wieght": 2}])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            load_tenant_specs([{"name": "x"}, {"name": "x"}])

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TenantConfig(name="")
        with pytest.raises(ValueError):
            TenantConfig(name="x", weight=0)
        with pytest.raises(ValueError):
            TenantConfig(name="x", arrival="trace")
        with pytest.raises(ValueError):
            TenantConfig(name="x", slo_s=-1)


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestServeTenantsCommand:
    def _spec_file(self, tmp_path):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({"tenants": [
            {"name": "a", "dataset": "IB", "weight": 2, "num_requests": 64,
             "num_hops": 1, "fanout": 4, "max_batch_size": 16},
            {"name": "b", "dataset": "IB", "weight": 1, "num_requests": 64,
             "num_hops": 1, "fanout": 4, "max_batch_size": 16},
        ]}))
        return str(spec)

    def test_serve_tenants_reports_fairness_and_isolation(self, tmp_path,
                                                          capsys):
        assert main(["serve", "--tenants", self._spec_file(tmp_path),
                     "--chips", "2"]) == 0
        out = capsys.readouterr().out
        for needle in ("multi-tenant serving", "wfq-drr", "p99_ms",
                       "slo_violation_pct", "WFQ fairness",
                       "contended_share_pct", "p99_inflation_x",
                       "per-chip utilization"):
            assert needle in out

    def test_no_isolation_skips_baselines(self, tmp_path, capsys):
        assert main(["serve", "--tenants", self._spec_file(tmp_path),
                     "--chips", "2", "--no-isolation"]) == 0
        out = capsys.readouterr().out
        assert "WFQ fairness" in out
        assert "p99_inflation_x" not in out

    def test_missing_spec_file_fails(self, tmp_path, capsys):
        assert main(["serve", "--tenants", str(tmp_path / "nope.json")]) == 2
        assert "cannot load tenant spec" in capsys.readouterr().err

    def test_invalid_spec_fails(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps([{"name": "x", "typo_key": 1}]))
        assert main(["serve", "--tenants", str(spec)]) == 2
        assert "unknown keys" in capsys.readouterr().err
