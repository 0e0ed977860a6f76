"""Run-wide invariants of the fleet's event loop, fuzzed over its options.

Every serve -- single- or multi-tenant, fixed or admission-controlled,
static or streaming -- must conserve requests (completed + shed =
offered), order every record's lifecycle (arrival <= dispatch <= start <=
completion) and never keep a chip busier than the run was long.  The laws
are the ones the repo benchmark gates each repetition on
(:func:`perfbench.harness.check_report`).  Formed batches must also stay
whole: none outgrows ``max_batch_size`` (late joins included) or is split
across chips or service starts.  An observed run (span/metrics hub plus
request capture) must report exactly what an unobserved rerun reports,
capture every offered request and update, and count every completion and
cache hit once.  Hypothesis drives the laws over small runs of every
option the loop branches on.
"""

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

NUM_REQUESTS = 48
MAX_BATCH_SIZE = 8


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
