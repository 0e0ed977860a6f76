"""Heterogeneity benchmark: homogeneous vs. mixed fleet vs. oracle dispatch.

One table on identical seeded zipf traffic (see ``docs/heterogeneity.md``):
a two-tenant mixed workload -- a high-fanout sampling tenant (MAC-dense
batches) and a feature-heavy combination tenant (streaming-bound batches)
-- served by

1. a **homogeneous** fleet of four ``balanced`` chips;
2. a **mixed** 50/50 ``agg_heavy``/``comb_heavy`` fleet under
   shape-oblivious (least-loaded) dispatch -- the mis-dispatch cost of
   heterogeneity without routing;
3. the same mixed fleet under **shape-aware** dispatch;
4. the **oracle** estimate: shape-aware's busy chip-seconds minus its
   residual mis-dispatch time (the lower bound a perfect router priced by
   the learned per-shape rates would reach; latency columns are n/a).

The assertions pin the heterogeneity acceptance criterion: on the mixed
fleet, ``shape-aware`` beats ``least-loaded`` on every tenant's p99 *and*
on total busy chip-seconds.

``REPRO_BENCH_SMOKE=1`` shrinks the streams for the CI smoke job.  Set
``REPRO_BENCH_JSON=PATH`` to also dump every report as JSON (the same
``to_dict()`` payload as ``python -m repro serve --json``), so harnesses
never scrape the tables.
"""

import os

from repro.analysis import print_table
from repro.serving import (
    FleetConfig,
    TenantConfig,
    clear_probe_cache,
    fleet_spec_for_mix,
    run_multi_tenant,
)
from _bench import dump_reports

#: Requests per tenant.  120 is the floor, smoke included: shorter
#: streams form so few batches per profile bucket that the comparison
#: collapses into ties (both dispatchers serve the same handful of
#: placements).
NUM_REQUESTS = 120 if os.environ.get("REPRO_BENCH_SMOKE") else 160
SKEW = 1.2
UTILIZATION = 1.2

TENANTS = [
    TenantConfig(name="sampler", dataset="CR", num_hops=2, fanout=16,
                 num_requests=NUM_REQUESTS, max_batch_size=8, cache_size=0,
                 popularity_skew=SKEW),
    TenantConfig(name="features", dataset="CS", num_hops=1, fanout=2,
                 num_requests=NUM_REQUESTS, max_batch_size=8, cache_size=0,
                 popularity_skew=SKEW),
]

FLEETS = {
    "homogeneous": ("balanced", "least-loaded"),
    "mixed/least-loaded": ("mixed", "least-loaded"),
    "mixed/shape-aware": ("mixed", "shape-aware"),
}


def _serve(mix, dispatch):
    clear_probe_cache()
    fleet = FleetConfig(fleet_spec=fleet_spec_for_mix(mix, 4),
                        dispatch=dispatch, seed=0)
    return run_multi_tenant(TENANTS, fleet, utilization_target=UTILIZATION,
                            include_isolation_baseline=False)


def _row(label, report):
    return {
        "fleet": label,
        "completed": report.completed,
        "sampler_p99_us": round(
            report.reports["sampler"].p99_latency_s * 1e6, 2),
        "features_p99_us": round(
            report.reports["features"].p99_latency_s * 1e6, 2),
        "busy_chip_seconds_us": round(report.total_busy_s * 1e6, 2),
        "misdispatch_us": round(report.hetero.misdispatch_s * 1e6, 2)
        if report.hetero else 0.0,
        "scored_pct": round(100.0 * report.hetero.scored_fraction, 1)
        if report.hetero else 0.0,
    }


def _oracle_row(aware):
    """Perfect-routing lower bound, priced from the learned rates."""
    return {
        "fleet": "mixed/oracle (est.)",
        "completed": aware.completed,
        "sampler_p99_us": None,
        "features_p99_us": None,
        "busy_chip_seconds_us": round(
            (aware.total_busy_s - aware.hetero.misdispatch_s) * 1e6, 2),
        "misdispatch_us": 0.0,
        "scored_pct": None,
    }


def test_shape_aware_beats_least_loaded_on_mixed_fleet(benchmark):
    reports = benchmark.pedantic(
        lambda: {label: _serve(mix, dispatch)
                 for label, (mix, dispatch) in FLEETS.items()},
        rounds=1, iterations=1,
    )
    rows = [_row(label, rep) for label, rep in reports.items()]
    rows.append(_oracle_row(reports["mixed/shape-aware"]))
    print_table(rows, title=f"heterogeneous fleets: two-tenant zipf-{SKEW} "
                            f"workload, {NUM_REQUESTS} requests/tenant")
    dump_reports("hetero", reports)
    oblivious = reports["mixed/least-loaded"]
    aware = reports["mixed/shape-aware"]
    assert all(rep.completed == 2 * NUM_REQUESTS for rep in reports.values())
    # the acceptance headline: routing by shape wins the tail and the
    # chip-seconds bill on the identical mixed fleet and traffic -- no
    # tenant pays for the other's win
    for tenant in ("sampler", "features"):
        assert aware.reports[tenant].p99_latency_s \
            <= oblivious.reports[tenant].p99_latency_s
    assert max(r.p99_latency_s for r in aware.reports.values()) \
        < max(r.p99_latency_s for r in oblivious.reports.values())
    assert aware.total_busy_s < oblivious.total_busy_s
    # routing actually happened, and it recovered mis-dispatched time
    assert aware.hetero.scored_fraction > 0.5
    assert aware.hetero.misdispatch_s < oblivious.hetero.misdispatch_s
