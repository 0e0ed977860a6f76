"""Run-wide invariants of the fleet's event loop, fuzzed over its options.

Every serve -- single- or multi-tenant, fixed or admission-controlled,
static or streaming -- must conserve requests (completed + shed =
offered), order every record's lifecycle (arrival <= dispatch <= start <=
completion) and never keep a chip busier than the run was long.  The laws
are the ones the repo benchmark gates each repetition on
(:func:`perfbench.harness.check_report`); here hypothesis drives them over
small runs of every option the loop branches on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perfbench.harness import check_report, tenant_reports
from repro.serving import (
    ALL_BATCH_POLICIES,
    DISPATCH_POLICIES,
    ControlConfig,
    FleetConfig,
    TenantConfig,
    run_multi_tenant,
    run_serving,
)

NUM_REQUESTS = 48


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(num_chips=st.integers(1, 4),
       batch_policy=st.sampled_from(ALL_BATCH_POLICIES),
       dispatch=st.sampled_from(DISPATCH_POLICIES),
       cache_size=st.sampled_from([0, 4096]),
       admission=st.booleans(),
       update_rate=st.sampled_from([0.0, 0.05]),
       num_tenants=st.sampled_from([1, 2]),
       seed=st.integers(0, 3))
def test_every_serve_conserves_and_orders_requests(
        num_chips, batch_policy, dispatch, cache_size, admission, update_rate,
        num_tenants, seed):
    fleet = FleetConfig(num_chips=num_chips, dispatch=dispatch,
                        batch_policy=batch_policy, cache_size=cache_size,
                        max_batch_size=8, seed=seed)
    control = ControlConfig(admission=True) if admission else None
    if num_tenants == 1:
        report = run_serving(dataset="IB", num_requests=NUM_REQUESTS,
                             config=fleet, utilization_target=1.2,
                             popularity_skew=1.2, seed=seed, control=control,
                             update_rate=update_rate)
    else:
        tenants = [TenantConfig(name=name, dataset="IB", weight=weight,
                                num_requests=NUM_REQUESTS,
                                batch_policy=batch_policy,
                                max_batch_size=8, cache_size=cache_size,
                                popularity_skew=1.2)
                   for name, weight in (("a", 2.0), ("b", 1.0))]
        report = run_multi_tenant(tenants, fleet, utilization_target=1.2,
                                  include_isolation_baseline=False,
                                  control=control, update_rate=update_rate)
    assert check_report(report, num_tenants * NUM_REQUESTS) == []
    for rep in tenant_reports(report):
        for r in rep.records:
            assert r.arrival_time_s <= r.dispatch_time_s <= r.service_start_s
