"""Streaming-update benchmark: invalidation policies under live traffic.

Two tables on identical seeded zipf traffic and an *identical memoised
update stream* (see ``docs/streaming.md``):

1. **policy comparison** -- the same mutating workload (5 % update mix)
   served under ``targeted`` / ``flush`` / ``none`` invalidation next to a
   static-graph baseline, pinning the subsystem's acceptance criterion:
   ``targeted`` must beat ``flush`` on BOTH served p99 and result-cache
   hit rate with zero stale-beyond-budget serves, while ``none`` must
   show stale serves on the very same stream (the checks have teeth);
2. **update-rate scaling** -- ``targeted`` at growing update rates,
   showing invalidation work scale with churn while the zero-staleness
   contract holds at every point.

``REPRO_BENCH_SMOKE=1`` shrinks the stream for the CI smoke job.  Set
``REPRO_BENCH_JSON=PATH`` to also dump every report as JSON (the same
``to_dict()`` payload as ``python -m repro serve --json``), so harnesses
never scrape the tables.
"""

import os

from repro.analysis import print_table
from repro.models.model_zoo import clear_workloads_cache
from repro.serving import FleetConfig, clear_probe_cache, run_serving
from _bench import dump_reports

DATASET = "IB"
MODEL = "GCN"
NUM_REQUESTS = 192 if os.environ.get("REPRO_BENCH_SMOKE") else 512
SKEW = 1.2
UPDATE_RATE = 0.05  # updates per offered request: the 5 % mix
UPDATE_MIX = "edge=0.6,feature=0.3,vertex=0.1"
RATES = (0.05, 0.2, 0.5)


def _serve(invalidation=None, update_rate=UPDATE_RATE):
    clear_probe_cache()
    clear_workloads_cache()
    # continuous batching: requests join in-flight batches, so every
    # result-cache miss adds real load instead of merely filling a
    # size-capped batch faster -- the honest setting for pricing what an
    # invalidation policy's cache damage costs the tail
    config = FleetConfig(num_chips=2, cache_size=256,
                         batch_policy="continuous", seed=0)
    kwargs = {}
    if invalidation is not None:
        kwargs.update(update_rate=update_rate, update_mix=UPDATE_MIX,
                      invalidation=invalidation, staleness_budget=0)
    return run_serving(dataset=DATASET, model_name=MODEL,
                       num_requests=NUM_REQUESTS, popularity_skew=SKEW,
                       config=config, seed=0, utilization_target=0.8,
                       **kwargs)


def _row(tag, report):
    row = {
        "config": tag,
        "completed": report.completed,
        "p50_us": round(report.p50_latency_s * 1e6, 2),
        "p99_us": round(report.p99_latency_s * 1e6, 2),
        "result_hit_rate_pct": round(100 * report.cache.hit_rate, 2),
    }
    stats = report.consistency
    if stats is not None:
        row.update({
            "updates": stats.updates_applied,
            "invalidated": stats.total_invalidations,
            "stale_serves": stats.stale_serves,
            "beyond_budget": stats.stale_beyond_budget,
        })
        if stats.p99_inflation is not None:
            row["p99_inflation_x"] = round(stats.p99_inflation, 3)
    return row


def test_invalidation_policy_comparison(benchmark):
    def _sweep():
        reports = {policy: _serve(policy)
                   for policy in ("targeted", "flush", "none")}
        reports["static"] = _serve()
        return reports

    reports = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    baseline = reports["static"].p99_latency_s
    for name in ("targeted", "flush", "none"):
        reports[name].consistency.baseline_p99_s = baseline
    print_table([_row(tag, rep) for tag, rep in reports.items()],
                title=f"invalidation policy comparison (zipf {SKEW}, "
                      f"{NUM_REQUESTS} requests, {UPDATE_RATE:.0%} updates)")
    dump_reports("policies", reports)
    assert all(rep.completed == NUM_REQUESTS for rep in reports.values())
    targeted, flush, none = (reports[k] for k in ("targeted", "flush",
                                                  "none"))
    # all three policies applied the identical memoised stream
    applied = {rep.consistency.updates_applied
               for rep in (targeted, flush, none)}
    assert len(applied) == 1
    # coherent policies serve nothing stale, at budget 0
    for rep in (targeted, flush):
        assert rep.consistency.stale_serves == 0
        assert rep.consistency.stale_beyond_budget == 0
    # `none` invalidates nothing (its stale serves are pinned under real
    # churn in test_update_rate_scaling -- at a 5 % mix the handful of
    # uniform-random updates may miss every cached neighbourhood)
    assert none.consistency.total_invalidations == 0
    # the headline: surgical invalidation wins the tail AND keeps the
    # result cache warm, against flush-on-any-update, on identical traffic
    assert targeted.p99_latency_s < flush.p99_latency_s
    assert targeted.cache.hit_rate > flush.cache.hit_rate
    assert targeted.consistency.total_invalidations \
        < flush.consistency.total_invalidations


def test_update_rate_scaling(benchmark):
    def _sweep():
        reports = {f"rate={rate}": _serve("targeted", rate)
                   for rate in RATES}
        reports[f"none@{RATES[-1]}"] = _serve("none", RATES[-1])
        return reports

    reports = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_table([_row(tag, rep) for tag, rep in reports.items()],
                title=f"targeted invalidation vs. update rate (zipf {SKEW}, "
                      f"{NUM_REQUESTS} requests)")
    dump_reports("rates", reports)
    assert all(rep.completed == NUM_REQUESTS for rep in reports.values())
    stats = [reports[f"rate={rate}"].consistency for rate in RATES]
    # more churn, more updates applied, more invalidation work...
    assert stats[0].updates_applied < stats[-1].updates_applied
    assert stats[0].total_invalidations <= stats[-1].total_invalidations
    # ...and never a stale serve at any rate
    assert all(s.stale_serves == 0 and s.stale_beyond_budget == 0
               for s in stats)
    # the identical high-churn stream served WITHOUT invalidation goes
    # stale -- the proof the differential checks (and therefore every
    # zero above) have teeth
    unguarded = reports[f"none@{RATES[-1]}"].consistency
    assert unguarded.updates_applied == stats[-1].updates_applied
    assert unguarded.stale_serves > 0
