"""Tests for heterogeneous fleets (repro.serving.hetero).

Covers the ISSUE-5 satellite checklist: all-cold buckets fall back to
least-loaded deterministically, a draining chip is never scored, a
single-shape FleetSpec is bit-for-bit identical to the homogeneous fleet,
JSON spec validation errors are actionable -- plus the acceptance
criterion: on a mixed two-tenant workload over a 50/50
agg-heavy/comb-heavy fleet, shape-aware dispatch beats least-loaded on
p99 latency AND total (busy) chip-seconds, bit-for-bit deterministically.
"""

import json

import pytest

from repro.core.config import HyGCNConfig
from repro.serving import (
    SCALE_SHAPE_POLICIES,
    SHAPE_MIXES,
    SHAPE_PRESETS,
    BatchProfile,
    ControlConfig,
    FleetConfig,
    FleetSpec,
    ShapeChooser,
    ShapeScorer,
    ShapeSpec,
    TenantConfig,
    clear_probe_cache,
    fleet_spec_for_mix,
    load_fleet_spec,
    run_multi_tenant,
    run_serving,
    shape_cost,
    shape_hw,
    shape_table,
)
from repro.serving.batcher import Batch
from repro.serving.fleet import (
    Chip,
    ServingSimulator,
    _LeastLoadedDispatch,
    _ShapeAwareDispatch,
)
from repro.serving.workload import Request
from repro.graphs.datasets import load_dataset
from repro.models.model_zoo import build_model

MIXED_SPEC = FleetSpec(shapes=(ShapeSpec(preset="agg_heavy", count=2),
                               ShapeSpec(preset="comb_heavy", count=2)))


@pytest.fixture(autouse=True)
def _fresh_probe_cache():
    clear_probe_cache()
    yield
    clear_probe_cache()


def _request(i, vertex=0, t=0.0):
    return Request(request_id=i, target_vertex=vertex, arrival_time_s=t)


def _batch(requests, batch_id=0):
    return Batch(batch_id=batch_id, requests=requests, created_time_s=0.0)


# --------------------------------------------------------------------------- #
# Presets and specs
# --------------------------------------------------------------------------- #
class TestShapePresets:
    def test_presets_are_valid_configs(self):
        for name, hw in SHAPE_PRESETS.items():
            assert isinstance(hw, HyGCNConfig)
            assert shape_hw(name) is hw

    def test_balanced_is_the_table6_default(self):
        assert SHAPE_PRESETS["balanced"] == HyGCNConfig()

    def test_presets_trade_resources(self):
        agg, comb = SHAPE_PRESETS["agg_heavy"], SHAPE_PRESETS["comb_heavy"]
        assert agg.total_simd_lanes > comb.total_simd_lanes
        assert agg.hbm.num_channels > comb.hbm.num_channels
        assert comb.total_pes > agg.total_pes
        assert comb.weight_buffer_bytes > agg.weight_buffer_bytes

    def test_unknown_preset_is_actionable(self):
        with pytest.raises(ValueError, match="agg_heavy"):
            shape_hw("agg_hevy")

    def test_shape_table_and_cost(self):
        rows = shape_table()
        assert {r["shape"] for r in rows} == set(SHAPE_PRESETS)
        assert all(shape_cost(hw) > 0 for hw in SHAPE_PRESETS.values())


class TestFleetSpec:
    def test_roster_layout_is_spec_order(self):
        roster = MIXED_SPEC.roster()
        assert [shape for shape, _ in roster] == \
            ["agg_heavy", "agg_heavy", "comb_heavy", "comb_heavy"]
        assert MIXED_SPEC.num_chips == 4

    def test_overrides_and_names(self):
        spec = FleetSpec(shapes=(
            ShapeSpec(preset="balanced", count=1, name="fat",
                      overrides={"num_systolic_modules": 12}),))
        (name, hw), = spec.roster()
        assert name == "fat"
        assert hw.num_systolic_modules == 12

    def test_fleet_config_derives_num_chips(self):
        cfg = FleetConfig(num_chips=9, fleet_spec=MIXED_SPEC)
        assert cfg.num_chips == 4
        assert cfg.heterogeneous
        assert not FleetConfig().heterogeneous

    def test_mixes(self):
        assert sorted(SHAPE_MIXES) == ["agg-heavy", "balanced",
                                       "comb-heavy", "mixed"]
        spec = fleet_spec_for_mix("mixed", 4)
        counts = {s.shape_name: s.count for s in spec.shapes}
        assert counts == {"agg_heavy": 2, "comb_heavy": 2}
        spec5 = fleet_spec_for_mix("mixed", 5)
        counts5 = {s.shape_name: s.count for s in spec5.shapes}
        assert counts5 == {"agg_heavy": 2, "comb_heavy": 2, "balanced": 1}
        with pytest.raises(ValueError, match="mixed"):
            fleet_spec_for_mix("half-and-half", 4)


class TestLoadFleetSpec:
    def test_loads_dict_list_and_file(self, tmp_path):
        payload = {"shapes": [{"preset": "agg_heavy", "count": 4}]}
        from_dict = load_fleet_spec(payload)
        from_list = load_fleet_spec(payload["shapes"])
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(payload))
        from_file = load_fleet_spec(str(path))
        assert from_dict == from_list == from_file
        assert from_file.num_chips == 4

    @pytest.mark.parametrize("payload, fragment", [
        ({"nope": []}, "'shapes' list"),
        ({"shapes": "agg_heavy"}, "list of shape entries"),
        ([{"preset": "agg_hevy"}], "choose from"),
        ([{"preset": "balanced", "count": 0}], "count must be >= 1"),
        ([{"preset": "balanced", "chips": 4}], "unknown keys"),
        ([{"count": 2}], "missing 'preset'"),
        ([42], "not an object"),
        ([{"preset": "balanced", "overrides": {"hbm": {}}}],
         "unknown HyGCNConfig override"),
        ([{"preset": "balanced"}, {"preset": "balanced"}],
         "names must be unique"),
    ])
    def test_validation_errors_are_actionable(self, payload, fragment):
        with pytest.raises(ValueError, match=fragment):
            load_fleet_spec(payload)

    def test_broken_json_file_is_actionable(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_fleet_spec(str(path))


# --------------------------------------------------------------------------- #
# Profiles and the scorer
# --------------------------------------------------------------------------- #
class TestBatchProfile:
    def test_phase_tiers(self):
        comb = BatchProfile(est_fused_vertices=24, est_naive_vertices=30,
                            batch_size=8, feature_length=3703)
        agg = BatchProfile(est_fused_vertices=328, est_naive_vertices=500,
                           batch_size=8, feature_length=136)
        mixed = BatchProfile(est_fused_vertices=240, est_naive_vertices=300,
                             batch_size=8, feature_length=1433)
        assert comb.bucket.startswith("comb|")
        assert agg.bucket.startswith("agg|")
        assert mixed.bucket.startswith("mixed|")

    def test_overlap_tiers(self):
        lo = BatchProfile(10, 12, 4, 100)
        hi = BatchProfile(5, 12, 4, 100)
        assert lo.bucket.endswith("ov-lo")
        assert hi.bucket.endswith("ov-hi")
        assert hi.overlap_est > 0.5


class TestShapeScorer:
    def test_cold_then_seed_then_observe(self):
        scorer = ShapeScorer(alpha=0.5)
        assert scorer.rate("a", "b1") is None
        assert not scorer.warm(["a"], "b1")
        scorer.seed("a", "b1", 2.0)
        assert scorer.rate("a", "b1") == 2.0
        scorer.seed("a", "b1", 99.0)  # seeds never clobber
        assert scorer.rate("a", "b1") == 2.0
        scorer.observe("a", "b1", 4.0)
        assert scorer.rate("a", "b1") == pytest.approx(3.0)
        assert scorer.warm(["a"], "b1")

    def test_dominant_bucket_tie_breaks_lexicographically(self):
        scorer = ShapeScorer()
        assert scorer.dominant_bucket() is None
        scorer.note_demand("zz")
        scorer.note_demand("aa")
        assert scorer.dominant_bucket() == "aa"  # tie at 1 each
        scorer.note_demand("zz")
        assert scorer.dominant_bucket() == "zz"

    def test_rate_or_default_falls_back_to_shape_mean(self):
        scorer = ShapeScorer()
        assert scorer.rate_or_default("a", "cold") == 0.0
        scorer.seed("a", "b1", 2.0)
        scorer.seed("a", "b2", 4.0)
        assert scorer.rate_or_default("a", "cold") == pytest.approx(3.0)
        assert scorer.rate_or_default("a", "b1") == 2.0


class TestShapeChooser:
    SHAPES = {"agg_heavy": SHAPE_PRESETS["agg_heavy"],
              "comb_heavy": SHAPE_PRESETS["comb_heavy"]}

    def _scorer(self, rates):
        scorer = ShapeScorer()
        scorer.note_demand("b")
        for shape, rate in rates.items():
            scorer.seed(shape, "b", rate)
        return scorer

    def test_registry(self):
        assert SCALE_SHAPE_POLICIES == ("cheapest-adequate",
                                        "bottleneck-phase")
        with pytest.raises(ValueError, match="cheapest-adequate"):
            ShapeChooser("grow-randomly", self.SHAPES)

    def test_cold_chooses_cheapest(self):
        cheapest = min(self.SHAPES,
                       key=lambda s: (shape_cost(self.SHAPES[s]), s))
        for policy in SCALE_SHAPE_POLICIES:
            assert ShapeChooser(policy, self.SHAPES).shape_to_add() == cheapest

    def test_bottleneck_phase_attacks_the_bottleneck(self):
        chooser = ShapeChooser(
            "bottleneck-phase", self.SHAPES,
            scorers=[self._scorer({"agg_heavy": 1.0, "comb_heavy": 3.0})])
        assert chooser.shape_to_add() == "agg_heavy"

    def test_cheapest_adequate_prefers_lean_when_close(self):
        cheapest = min(self.SHAPES,
                       key=lambda s: (shape_cost(self.SHAPES[s]), s))
        close = ShapeChooser(
            "cheapest-adequate", self.SHAPES,
            scorers=[self._scorer({"agg_heavy": 1.0, "comb_heavy": 1.4})])
        assert close.shape_to_add() == cheapest
        far = ShapeChooser(
            "cheapest-adequate", self.SHAPES,
            scorers=[self._scorer({"agg_heavy": 1.0, "comb_heavy": 9.0})])
        assert far.shape_to_add() == "agg_heavy"

    def test_retire_victim_prefers_worst_rated_shape(self):
        chooser = ShapeChooser(
            "cheapest-adequate", self.SHAPES,
            scorers=[self._scorer({"agg_heavy": 1.0, "comb_heavy": 3.0})])
        chips = [Chip(0, self.SHAPES["agg_heavy"], 0, shape="agg_heavy"),
                 Chip(1, self.SHAPES["comb_heavy"], 0, shape="comb_heavy")]
        assert chooser.retire_victim(chips).shape == "comb_heavy"

    def test_control_config_validates_scale_shape(self):
        with pytest.raises(ValueError, match="scale_shape"):
            ControlConfig(autoscale="threshold", scale_shape="random")


# --------------------------------------------------------------------------- #
# Shape-aware dispatch
# --------------------------------------------------------------------------- #
class TestShapeAwareDispatch:
    def _chips(self):
        return [Chip(i, SHAPE_PRESETS["agg_heavy" if i < 2 else "comb_heavy"],
                     0, shape="agg_heavy" if i < 2 else "comb_heavy")
                for i in range(4)]

    def _profile_fn(self, fused=10):
        return lambda b: BatchProfile(est_fused_vertices=fused,
                                      est_naive_vertices=2 * fused,
                                      batch_size=b.size, feature_length=100)

    def test_all_cold_falls_back_to_least_loaded_deterministically(self):
        dispatch = _ShapeAwareDispatch(ShapeScorer(), self._profile_fn())
        chips = self._chips()
        chips[0].queue.append((_batch([_request(9)], batch_id=9), 0.0))
        batch = _batch([_request(0)])
        for _ in range(3):  # repeated calls: same answer, no learning
            assert dispatch.select(chips, batch) is \
                _LeastLoadedDispatch().select(chips, batch)
        assert (dispatch.stats.fallback_batches,
                dispatch.stats.scored_batches) == (3, 0)

    def test_partially_warm_bucket_still_falls_back(self):
        scorer = ShapeScorer()
        dispatch = _ShapeAwareDispatch(scorer, self._profile_fn())
        chips = self._chips()
        batch = _batch([_request(0)])
        bucket = self._profile_fn()(batch).bucket
        scorer.seed("agg_heavy", bucket, 1e-6)  # comb_heavy stays cold
        dispatch.select(chips, batch)
        assert (dispatch.stats.fallback_batches,
                dispatch.stats.scored_batches) == (1, 0)

    def test_warm_bucket_routes_to_fastest_shape(self):
        scorer = ShapeScorer()
        dispatch = _ShapeAwareDispatch(scorer, self._profile_fn())
        chips = self._chips()
        batch = _batch([_request(0)])
        bucket = self._profile_fn()(batch).bucket
        scorer.seed("agg_heavy", bucket, 3e-6)
        scorer.seed("comb_heavy", bucket, 1e-6)
        chosen = dispatch.select(chips, batch)
        assert chosen.shape == "comb_heavy" and chosen.chip_id == 2
        assert dispatch.stats.scored_batches == 1
        # backlog steers the next identical batch to the other comb chip
        chosen.queue.append((batch, 0.0))
        assert dispatch.select(chips, _batch([_request(1)],
                                             batch_id=1)).chip_id == 3

    def test_est_restamps_queued_batch_whose_profile_was_invalidated(self):
        """A continuous late join resets a queued batch's profile; the
        backlog predictor must re-profile it, not count it as free."""
        scorer = ShapeScorer()
        dispatch = _ShapeAwareDispatch(scorer, self._profile_fn())
        chips = self._chips()
        batch = _batch([_request(0)])
        bucket = self._profile_fn()(batch).bucket
        scorer.seed("agg_heavy", bucket, 1e-6)
        scorer.seed("comb_heavy", bucket, 1e-6)
        queued = _batch([_request(9)], batch_id=9)
        queued.profile = None  # as after ContinuousBatcher.try_join
        chips[0].queue.append((queued, 0.0))
        dispatch.select(chips, batch)
        assert queued.profile is not None  # re-stamped, backlog counted

    def test_oblivious_dispatch_still_feeds_the_demand_signal(self):
        """Shape-oblivious runs on a mixed fleet must count demand, or
        the autoscaler's ShapeChooser would never see a dominant bucket."""
        graph = load_dataset("IB", seed=0)
        model = build_model("GCN", input_length=graph.feature_length)
        cfg = FleetConfig(fleet_spec=MIXED_SPEC, dispatch="round-robin",
                          cache_size=0, seed=0)
        sim = ServingSimulator(graph, model, cfg, dataset_name="IB")
        rate = sim.calibrate_rate(1.0)
        from repro.serving.workload import RequestGenerator, WorkloadConfig
        requests = RequestGenerator(graph.num_vertices, WorkloadConfig(
            num_requests=64, rate_rps=rate, seed=0)).generate()
        sim.run(requests, rate_rps=rate)
        assert sim.scorer.dominant_bucket() is not None

    def test_draining_chip_is_never_scored(self):
        """The event loop only offers schedulable chips to dispatch."""
        graph = load_dataset("CR", seed=0)
        model = build_model("GCN", input_length=graph.feature_length)
        cfg = FleetConfig(fleet_spec=MIXED_SPEC, dispatch="shape-aware",
                          cache_size=0, seed=0)
        sim = ServingSimulator(graph, model, cfg, dataset_name="CR")
        sim.chips[0].state = "draining"
        rate = sim.calibrate_rate(1.0)
        from repro.serving.workload import RequestGenerator, WorkloadConfig
        requests = RequestGenerator(graph.num_vertices, WorkloadConfig(
            num_requests=80, rate_rps=rate, seed=0)).generate()
        report = sim.run(requests, rate_rps=rate)
        assert report.completed == 80
        assert report.chips[0].batches_served == 0
        assert sum(c.batches_served for c in report.chips) > 0
        assert all(r.chip_id != 0 for r in report.records if r.chip_id >= 0)


# --------------------------------------------------------------------------- #
# End-to-end: homogeneous equivalence, elasticity, acceptance
# --------------------------------------------------------------------------- #
class TestSingleShapeEquivalence:
    def test_balanced_spec_is_bit_for_bit_homogeneous(self):
        """A balanced x4 FleetSpec must reproduce today's homogeneous fleet
        exactly -- same records, same chips, same JSON."""
        plain = run_serving(dataset="CR", num_requests=80, seed=0)
        clear_probe_cache()
        spec = FleetSpec(shapes=(ShapeSpec(preset="balanced", count=4),))
        specced = run_serving(dataset="CR", num_requests=80, seed=0,
                              config=FleetConfig(fleet_spec=spec))
        assert specced.hetero is None
        assert json.dumps(plain.to_dict(), default=float, sort_keys=True) \
            == json.dumps(specced.to_dict(), default=float, sort_keys=True)


class TestElasticHetero:
    def test_autoscaled_mixed_fleet_commissions_spec_shapes(self):
        # a twitchy threshold scaler, so the short ramp provokes scale-ups
        control = ControlConfig(autoscale="threshold", min_chips=2,
                                max_chips=8,
                                policy_params={"patience": 1,
                                               "up_delay_fraction": 0.1,
                                               "down_delay_fraction": 0.05},
                                scale_shape="bottleneck-phase")
        report = run_serving(dataset="CR", num_requests=400, seed=0,
                             arrival="ramp", utilization_target=3.0,
                             config=FleetConfig(fleet_spec=MIXED_SPEC,
                                                dispatch="shape-aware",
                                                max_batch_size=8,
                                                cache_size=0),
                             control=control)
        assert report.control is not None and report.hetero is not None
        assert report.control.scale_ups > 0
        spec_shapes = set(MIXED_SPEC.distinct_shapes())
        assert {c.shape for c in report.chips} <= spec_shapes
        assert set(report.hetero.shape_counts) <= spec_shapes


def _acceptance_tenants(n=120):
    return [
        TenantConfig(name="sampler", dataset="CR", num_hops=2, fanout=16,
                     num_requests=n, max_batch_size=8, cache_size=0,
                     popularity_skew=1.0),
        TenantConfig(name="features", dataset="CS", num_hops=1, fanout=2,
                     num_requests=n, max_batch_size=8, cache_size=0,
                     popularity_skew=1.0),
    ]


def _acceptance_run(dispatch):
    clear_probe_cache()
    fleet = FleetConfig(fleet_spec=MIXED_SPEC, dispatch=dispatch, seed=0)
    return run_multi_tenant(_acceptance_tenants(), fleet,
                            utilization_target=1.2,
                            include_isolation_baseline=False)


class TestAcceptance:
    """ISSUE-5 acceptance: mixed workload, 50/50 agg/comb fleet."""

    def test_shape_aware_beats_least_loaded_on_p99_and_chip_seconds(self):
        baseline = _acceptance_run("least-loaded")
        aware = _acceptance_run("shape-aware")
        for name in ("sampler", "features"):
            assert aware.reports[name].p99_latency_s \
                < baseline.reports[name].p99_latency_s
        assert aware.total_busy_s < baseline.total_busy_s
        # the scorer actually routed (not just fell back), and the routing
        # recovered most of the baseline's mis-dispatched chip time
        assert aware.hetero.scored_batches > aware.hetero.fallback_batches
        assert aware.hetero.misdispatch_s < baseline.hetero.misdispatch_s

    def test_reports_are_bit_for_bit_deterministic(self):
        first = _acceptance_run("shape-aware")
        second = _acceptance_run("shape-aware")
        assert json.dumps(first.to_dict(), default=float, sort_keys=True) \
            == json.dumps(second.to_dict(), default=float, sort_keys=True)

    def test_per_shape_tables_cover_the_roster(self):
        report = _acceptance_run("shape-aware")
        rows = report.shape_table()
        assert {r["shape"] for r in rows} == {"agg_heavy", "comb_heavy"}
        assert sum(r["chips"] for r in rows) == 4
        shares = [r["service_share_pct"] for r in rows]
        assert sum(shares) == pytest.approx(100.0, abs=0.1)
        payload = report.to_dict(include_records=False)
        assert payload["hetero"]["dispatch_policy"] == "shape-aware"
        assert payload["chips"][0]["shape"] == "agg_heavy"
