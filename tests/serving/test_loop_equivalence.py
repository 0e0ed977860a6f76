"""Single- and multi-tenant serving run one event loop.

:class:`~repro.serving.fleet.ServingSimulator` is a one-tenant front end of
the same loop :class:`~repro.serving.tenancy.MultiTenantSimulator` drives;
the only behaviour that differs is *when a formed batch is bound to a
chip*.  The single-tenant front end **pushes** it onto a chip's private
queue as it forms; the multi-tenant one keeps it in the WFQ stage until a
chip frees up and **pulls** it.  These tests pin that finding:

* whenever binding time cannot matter -- one chip, or a fleet loaded
  lightly enough that least-loaded always finds an idle chip -- the two
  front ends produce identical records, provided the tenant is pinned to
  the fleet seed;
* an unpinned tenant derives its own seed, so its graph, probe and SLO
  differ (which, not the loop, is why a hand-mirrored config disagrees);
* under overload the two first differ on a batch that queued behind a
  busy chip: push waits for the chip it was bound to, pull takes
  whichever chip frees first;
* an empty request stream still runs the loop in both, so a stream of
  updates alone is applied alike.
"""

from dataclasses import replace

import pytest

from repro.graphs.datasets import load_dataset
from repro.models.model_zoo import build_model
from repro.serving import (
    ALL_BATCH_POLICIES,
    ControlConfig,
    FleetConfig,
    MultiTenantSimulator,
    RequestGenerator,
    ServingSimulator,
    TenantConfig,
    UpdateStream,
    WorkloadConfig,
)
from repro.serving.streaming import UpdateEvent
from repro.serving.workload import merge_tenant_streams

DATASET = "CR"
NUM_REQUESTS = 500


def _record_key(record):
    """Every record field except the tenant tag."""
    return (record.request_id, record.target_vertex, record.arrival_time_s,
            record.dispatch_time_s, record.service_start_s,
            record.completion_time_s, record.cache_hit, record.chip_id,
            record.batch_id, record.degrade_level)


def _push_and_pull(num_chips, batch_policy, dispatch, utilization):
    """The same CR stream through both front ends: (push, pull) reports."""
    fleet = FleetConfig(num_chips=num_chips, dispatch=dispatch,
                        batch_policy=batch_policy)
    graph = load_dataset(DATASET, seed=fleet.seed)
    model = build_model("GCN", input_length=graph.feature_length)
    single = ServingSimulator(graph, model, fleet, dataset_name=DATASET)
    rate = single.calibrate_rate(utilization)
    requests = RequestGenerator(graph.num_vertices, WorkloadConfig(
        num_requests=NUM_REQUESTS, rate_rps=rate, seed=0)).generate()
    push = single.run(requests, rate)
    tenant = TenantConfig(name="t", dataset=DATASET, batch_policy=batch_policy,
                          seed=fleet.seed)
    multi = MultiTenantSimulator([tenant], fleet)
    pull = multi.run(merge_tenant_streams({"t": requests}), {"t": rate})
    return push, pull.reports["t"]


@pytest.mark.parametrize("num_chips,batch_policy,dispatch", [
    *[(1, policy, "round-robin") for policy in ALL_BATCH_POLICIES],
    *[(chips, policy, "least-loaded") for chips in (2, 4)
      for policy in ("size", "timeout", "continuous")],
])
def test_one_tenant_front_ends_agree_record_for_record(num_chips,
                                                       batch_policy, dispatch):
    push, pull = _push_and_pull(num_chips, batch_policy, dispatch, 0.7)
    assert push.completed == pull.completed == NUM_REQUESTS
    assert [_record_key(r) for r in push.records] \
        == [_record_key(r) for r in pull.records]
    assert push.slo_s == pull.slo_s


def test_unpinned_tenant_derives_its_own_seed_and_slo():
    fleet = FleetConfig(num_chips=1)
    graph = load_dataset(DATASET, seed=fleet.seed)
    model = build_model("GCN", input_length=graph.feature_length)
    single = ServingSimulator(graph, model, fleet, dataset_name=DATASET)
    unpinned = MultiTenantSimulator([TenantConfig(name="t", dataset=DATASET)],
                                    fleet).runtimes["t"]
    pinned = MultiTenantSimulator(
        [TenantConfig(name="t", dataset=DATASET, seed=fleet.seed)],
        fleet).runtimes["t"]
    assert unpinned.seed == fleet.seed + 101
    assert unpinned.slo_s != single.slo_s
    assert pinned.slo_s == single.slo_s


def test_overload_first_divergence_is_a_batch_queued_behind_a_busy_chip():
    push, pull = _push_and_pull(2, "continuous", "least-loaded", 1.5)
    by_id = {r.request_id: r for r in pull.records}
    diverged = [r for r in sorted(push.records, key=lambda r: r.request_id)
                if _record_key(r) != _record_key(by_id[r.request_id])]
    assert diverged, "push and pull never diverged under overload"
    first_push = diverged[0]
    first_pull = by_id[first_push.request_id]
    assert first_push.request_id > 0
    # formed at the same instant, but push bound it to a chip that was busy
    assert first_push.dispatch_time_s == first_pull.dispatch_time_s
    assert first_push.service_start_s > first_push.dispatch_time_s
    # ... while pull handed it to the chip that freed up first
    assert first_pull.chip_id != first_push.chip_id
    assert first_pull.service_start_s < first_push.service_start_s


def _update_only(dispatch):
    """Two hand-built IB updates and no requests through both front ends
    (the tenant pinned to the fleet seed): (push, pull) reports."""
    fleet = FleetConfig(num_chips=1, dispatch=dispatch)
    events = [UpdateEvent(0, "edge", 1e-6, src=1, dst=2),
              UpdateEvent(1, "feature", 3e-6, src=5, feature_seed=7)]
    graph = load_dataset("IB", seed=fleet.seed)
    model = build_model("GCN", input_length=graph.feature_length)
    push = ServingSimulator(graph, model, fleet, dataset_name="IB",
                            updates=UpdateStream(events=events)).run([])
    tenant = TenantConfig(name="t", dataset="IB",
                          batch_policy=fleet.batch_policy, seed=fleet.seed)
    pull = MultiTenantSimulator(
        [tenant], fleet, updates=UpdateStream(
            events=[replace(e, tenant="t") for e in events])).run([])
    return push, pull


def test_update_only_stream_is_applied_alike_by_both_front_ends():
    # a shape-tracking fleet has both runtimes sample the probe targets,
    # so the sampler memos the updates invalidate are the same
    push, pull = _update_only("shape-aware")
    assert push.completed == pull.completed == 0
    assert push.consistency.updates_offered == 2
    assert pull.consistency.updates_offered == 2
    assert push.consistency.as_dict() == pull.consistency.as_dict()


def test_update_only_stream_differs_only_by_the_priced_sample_memo():
    # on a shape-oblivious fleet only the pull runtime samples the probe
    # targets (to price WFQ batches), so only its updates invalidate them
    push, pull = _update_only("round-robin")
    a, b = push.consistency.as_dict(), pull.consistency.as_dict()
    assert a["updates_applied"] == b["updates_applied"] == 2
    assert {k for k in a if a[k] != b[k]} \
        == {"invalidations", "total_invalidations"}
    assert {k for k, v in a["invalidations"].items()
            if v != b["invalidations"][k]} == {"sample"}
    assert a["invalidations"]["sample"] == 0 < b["invalidations"]["sample"]


def test_elastic_run_outside_the_band_reports_one_chip_count():
    # num_chips=1 below min_chips=2: the run starts on the clamped fleet,
    # and the slice, its wrapper and the one-tenant front end all say so
    fleet = FleetConfig(num_chips=1)
    control = ControlConfig(autoscale="threshold", min_chips=2, max_chips=4)
    graph = load_dataset("IB", seed=fleet.seed)
    model = build_model("GCN", input_length=graph.feature_length)
    single = ServingSimulator(graph, model, fleet, dataset_name="IB",
                              control=control)
    rate = single.calibrate_rate(0.7)
    requests = RequestGenerator(graph.num_vertices, WorkloadConfig(
        num_requests=200, rate_rps=rate, seed=0)).generate()
    push = single.run(requests, rate)
    tenant = TenantConfig(name="t", dataset="IB", seed=fleet.seed)
    multi = MultiTenantSimulator([tenant], fleet, control=control).run(
        merge_tenant_streams({"t": requests}), {"t": rate})
    assert push.num_chips == multi.num_chips == multi.reports["t"].num_chips \
        == 2
