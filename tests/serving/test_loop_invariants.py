"""Run-wide invariants of the fleet's event loop, fuzzed over its options.

Every serve -- single- or multi-tenant, fixed or admission-controlled,
static or streaming -- must conserve requests (completed + shed =
offered), order every record's lifecycle (arrival <= dispatch <= start <=
completion) and never keep a chip busier than the run was long.  The laws
are the ones the repo benchmark gates each repetition on
(:func:`perfbench.harness.check_report`).  Chip time is conserved too:
the chips that start batches are busy for exactly the service time of
the batches they served, completion minus service start summed over
distinct batches, and on a multi-tenant run the tenants' contended
service, total service and weight shares each sum to one.  Formed
batches must also stay whole: none outgrows ``max_batch_size`` (late
joins included) or is split across chips or service starts.  An observed
run (span/metrics hub plus request capture) must report exactly what an
unobserved rerun reports, capture every offered request and update, and
count every completion and cache hit once.  Hypothesis drives the laws
over small runs of every option the loop branches on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perfbench.harness import check_report, tenant_reports
from repro.serving import (
    ALL_BATCH_POLICIES,
    DISPATCH_POLICIES,
    ControlConfig,
    FleetConfig,
    Instrumentation,
    TenantConfig,
    TraceWriter,
    run_multi_tenant,
    run_serving,
)
from repro.serving.hetero import fleet_spec_for_mix
from repro.serving.sharding import ShardingConfig

NUM_REQUESTS = 48
MAX_BATCH_SIZE = 8


def _busy_and_service(report):
    """``(busy, service, starters)`` of a served report: the ids of the
    chips that started batches, their total ``busy_s``, and the sum over
    distinct ``(tenant, batch_id)`` of completion minus service start."""
    batches = {}
    for rep in tenant_reports(report):
        for r in rep.records:
            if r.batch_id >= 0:
                batches[(r.tenant, r.batch_id)] = \
                    (r.completion_time_s - r.service_start_s, r.chip_id)
    starters = {chip_id for _, chip_id in batches.values()}
    busy = sum(report.chips[i].busy_s for i in starters)
    return busy, sum(s for s, _ in batches.values()), starters


def _assert_busy_time_conserved(report):
    busy, service, _ = _busy_and_service(report)
    assert busy == pytest.approx(service, rel=1e-9, abs=0.0)
    for chip in report.chips:
        assert chip.busy_s <= report.makespan_s


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(num_chips=st.integers(1, 4),
       batch_policy=st.sampled_from(ALL_BATCH_POLICIES),
       dispatch=st.sampled_from(DISPATCH_POLICIES),
       cache_size=st.sampled_from([0, 4096]),
       admission=st.booleans(),
       update_rate=st.sampled_from([0.0, 0.05]),
       num_tenants=st.sampled_from([1, 2]),
       min_overlap=st.sampled_from([0.0, 0.25]),
       seed=st.integers(0, 3),
       observed=st.booleans())
def test_every_serve_conserves_and_orders_requests(
        num_chips, batch_policy, dispatch, cache_size, admission, update_rate,
        num_tenants, min_overlap, seed, observed):
    fleet = FleetConfig(num_chips=num_chips, dispatch=dispatch,
                        batch_policy=batch_policy, cache_size=cache_size,
                        max_batch_size=MAX_BATCH_SIZE,
                        min_overlap=min_overlap, seed=seed)
    control = ControlConfig(admission=True) if admission else None
    tenants = [TenantConfig(name=name, dataset="IB", weight=weight,
                            num_requests=NUM_REQUESTS,
                            batch_policy=batch_policy,
                            max_batch_size=MAX_BATCH_SIZE,
                            cache_size=cache_size, popularity_skew=1.2)
               for name, weight in (("a", 2.0), ("b", 1.0))]

    def serve(observe=None, capture=None):
        if num_tenants == 1:
            return run_serving(dataset="IB", num_requests=NUM_REQUESTS,
                               config=fleet, utilization_target=1.2,
                               popularity_skew=1.2, seed=seed,
                               control=control, update_rate=update_rate,
                               observe=observe, capture=capture)
        return run_multi_tenant(tenants, fleet, utilization_target=1.2,
                                include_isolation_baseline=False,
                                control=control, update_rate=update_rate,
                                observe=observe, capture=capture)

    offered = num_tenants * NUM_REQUESTS
    if observed:
        observe, capture = Instrumentation(), TraceWriter()
        report = serve(observe, capture)
        assert report.to_dict() == serve().to_dict()
        assert capture.num_recorded == offered
        if update_rate:
            assert len(capture.updates) == report.consistency.updates_offered
        counted = sum(m.value for m in observe.registry.collect()
                      if m.name in ("repro_requests_completed_total",
                                    "repro_cache_hits_total"))
        assert counted == report.completed
    else:
        report = serve()
    assert check_report(report, offered) == []
    _assert_busy_time_conserved(report)
    batches = {}
    for rep in tenant_reports(report):
        for r in rep.records:
            assert r.arrival_time_s <= r.dispatch_time_s <= r.service_start_s
            if r.batch_id >= 0:
                batches.setdefault((r.tenant, r.batch_id), []).append(r)
    for members in batches.values():
        assert len(members) <= MAX_BATCH_SIZE
        assert len({r.chip_id for r in members}) == 1
        assert len({r.service_start_s for r in members}) == 1


#: Loaded runs through the loop's elastic, streaming, heterogeneous and
#: multi-tenant paths.
BUSY_RUNS = {
    "elastic_streaming": lambda: run_serving(
        dataset="IB", num_requests=1024, utilization_target=2.0,
        config=FleetConfig(num_chips=2, batch_policy="continuous",
                           min_overlap=0.25),
        control=ControlConfig(autoscale="threshold", max_chips=4,
                              admission=True, degrade=True),
        update_rate=0.05),
    "mixed_shape_aware": lambda: run_serving(
        dataset="CR", num_requests=800, utilization_target=1.2,
        config=FleetConfig(fleet_spec=fleet_spec_for_mix("mixed", 5),
                           dispatch="shape-aware", max_batch_size=16,
                           cache_size=0), seed=3),
    "two_tenant_streaming": lambda: run_multi_tenant(
        [TenantConfig(name="a", dataset="IB", weight=2.0, num_requests=400),
         TenantConfig(name="b", dataset="CR", num_requests=300)],
        FleetConfig(num_chips=2), update_rate=0.05,
        include_isolation_baseline=False),
}


@pytest.mark.parametrize("name", sorted(BUSY_RUNS))
def test_chip_busy_time_is_the_service_time_of_its_batches(name):
    report = BUSY_RUNS[name]()
    _, _, starters = _busy_and_service(report)
    assert len(starters) > 1
    _assert_busy_time_conserved(report)


def test_a_sharded_group_conserves_busy_time_on_its_leader():
    """Only the group leader starts batches; the members are busy with
    the sub-batches they compute, so the whole group is busier than the
    batches' service time."""
    report = run_serving(
        dataset="IB", num_requests=400,
        config=FleetConfig(num_chips=2,
                           sharding=ShardingConfig(num_shards=2)))
    busy, service, starters = _busy_and_service(report)
    assert starters == {0}
    _assert_busy_time_conserved(report)
    member = report.chips[1].busy_s
    assert 0 < member <= report.makespan_s
    assert busy + member > service


def test_wfq_shares_sum_to_one():
    """The fairness table's three shares each split the whole: contended
    service, total service and configured weight."""
    report = run_multi_tenant(
        [TenantConfig(name="a", dataset="IB", weight=2.0, num_requests=400),
         TenantConfig(name="b", dataset="CR", num_requests=300)],
        FleetConfig(num_chips=2), include_isolation_baseline=False)
    for share in (lambda name: report.service_share(name, contended=True),
                  lambda name: report.service_share(name, contended=False),
                  report.weight_share):
        shares = [share(name) for name in report.tenants]
        assert len(shares) == 2 and all(s > 0 for s in shares)
        assert sum(shares) == pytest.approx(1.0, rel=1e-12, abs=0.0)
