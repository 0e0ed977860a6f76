"""Serving benchmark: batching and dispatch policies under identical traffic.

Not a paper figure -- this exercises the online-serving subsystem the way the
evaluation harness exercises the offline figures: one table comparing the
three dispatch policies and one comparing the three batching policies, on the
same seeded request stream.  The assertions pin the invariants the serving
simulation must uphold (request conservation, bounded utilisation, policies
actually behaving differently).

``REPRO_BENCH_SMOKE=1`` shrinks the stream for the CI smoke job;
``REPRO_BENCH_JSON=path`` appends one JSON line per comparison with the
full machine-readable reports, which CI uploads as ``BENCH_serving.json``.
"""

import os

from repro.analysis import print_table
from repro.serving import (
    BATCHING_POLICIES,
    DISPATCH_POLICIES,
    FleetConfig,
    run_serving,
)
from _bench import dump_reports

DATASET = "IB"
MODEL = "GCN"
NUM_REQUESTS = 256 if os.environ.get("REPRO_BENCH_SMOKE") else 512
NUM_CHIPS = 4


def _serve(dispatch="round-robin", batch_policy="timeout"):
    config = FleetConfig(num_chips=NUM_CHIPS, dispatch=dispatch,
                         batch_policy=batch_policy)
    return run_serving(dataset=DATASET, model_name=MODEL,
                       num_requests=NUM_REQUESTS, config=config, seed=0)


def _row(label_key, label, report):
    return {
        label_key: label,
        "p50_us": round(report.p50_latency_s * 1e6, 2),
        "p95_us": round(report.p95_latency_s * 1e6, 2),
        "p99_us": round(report.p99_latency_s * 1e6, 2),
        "throughput_rps": round(report.throughput_rps, 0),
        "slo_violation_pct": round(100 * report.slo_violation_rate, 2),
        "cache_hit_rate_pct": round(100 * report.cache.hit_rate, 2),
    }


def test_dispatch_policies(benchmark):
    reports = benchmark.pedantic(
        lambda: {d: _serve(dispatch=d) for d in DISPATCH_POLICIES},
        rounds=1, iterations=1,
    )
    print_table([_row("dispatch", d, r) for d, r in reports.items()],
                title="serving: dispatch-policy comparison")
    dump_reports("dispatch", reports)
    splits = {}
    for dispatch, report in reports.items():
        # every request completes exactly once
        assert report.completed == NUM_REQUESTS
        assert len({r.request_id for r in report.records}) == NUM_REQUESTS
        served = sum(c.requests_served for c in report.chips)
        hits = sum(1 for r in report.records if r.cache_hit)
        assert served + hits == NUM_REQUESTS
        span = report.makespan_s
        assert all(0.0 <= c.utilization(span) <= 1.0 for c in report.chips)
        splits[dispatch] = tuple(c.requests_served for c in report.chips)
    # at least two policies distribute load differently on identical traffic
    assert len(set(splits.values())) >= 2


def test_batching_policies(benchmark):
    reports = benchmark.pedantic(
        lambda: {b: _serve(batch_policy=b) for b in BATCHING_POLICIES},
        rounds=1, iterations=1,
    )
    print_table([_row("batching", b, r) for b, r in reports.items()],
                title="serving: batching-policy comparison")
    dump_reports("batching", reports)
    for report in reports.values():
        assert report.completed == NUM_REQUESTS
        assert report.p50_latency_s <= report.p95_latency_s <= report.p99_latency_s
