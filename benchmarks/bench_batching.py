"""Batching benchmark: FIFO vs. overlap vs. continuous on a Zipf workload.

Two tables on identical seeded traffic (see ``docs/batching.md``):

1. a **saturated** fleet with the adaptive timeout -- the regime where
   overlap-aware formation shrinks the fused subgraphs and therefore both
   the tail latency and the chip-seconds bill;
2. a **short-timeout** fleet that flushes underfilled batches -- the regime
   where continuous batching earns its keep by topping formed batches up
   with late joins.

The assertions pin the acceptance criteria of the batching subsystem:
``overlap`` beats ``fifo`` on p99 *and* chip-seconds under skewed
popularity, and ``continuous`` takes joins without ever violating its
join-window/staleness budgets.

``REPRO_BENCH_SMOKE=1`` shrinks the stream for the CI smoke job.  Set
``REPRO_BENCH_JSON=PATH`` to also dump every report as JSON (the same
``to_dict()`` payload as ``python -m repro serve --json``), so harnesses
never scrape the tables.
"""

import os

from repro.analysis import print_table
from repro.graphs.datasets import load_dataset
from repro.models.model_zoo import build_model
from repro.serving import (
    BATCH_POLICIES,
    FleetConfig,
    RequestGenerator,
    ServingSimulator,
    WorkloadConfig,
    clear_probe_cache,
)
from _bench import dump_reports

DATASET = "IB"
MODEL = "GCN"
#: 384 is the floor, smoke included: shorter streams stay arrival-bound
#: (the makespan never becomes service-bound), and the saturated
#: comparison needs a service-bound makespan for formation quality to
#: show up in chip-seconds.
NUM_REQUESTS = 384 if os.environ.get("REPRO_BENCH_SMOKE") else 512
SKEW = 1.2

#: Cache-free so formation quality, not result caching, drives the numbers.
SATURATED = FleetConfig(num_chips=2, max_batch_size=8, cache_size=0)
SHORT_TIMEOUT = FleetConfig(num_chips=2, max_batch_size=32,
                            batch_timeout_s=5e-7, cache_size=0)


def _serve(policy, base, utilization):
    clear_probe_cache()
    graph = load_dataset(DATASET, seed=0)
    model = build_model(MODEL, input_length=graph.feature_length)
    import dataclasses
    config = dataclasses.replace(base, batch_policy=policy)
    sim = ServingSimulator(graph, model, config, dataset_name=DATASET)
    rate = sim.calibrate_rate(utilization)
    workload = WorkloadConfig(num_requests=NUM_REQUESTS, rate_rps=rate,
                              popularity_skew=SKEW, seed=0)
    requests = RequestGenerator(graph.num_vertices, workload).generate()
    report = sim.run(requests, rate_rps=rate)
    return sim, report


def _row(policy, report):
    b = report.batching
    return {
        "policy": policy,
        "completed": report.completed,
        "p99_us": round(report.p99_latency_s * 1e6, 2),
        "chip_seconds_us": round(report.chip_seconds_s * 1e6, 2),
        "mean_batch": round(b.mean_batch_size, 2),
        "overlap_ratio_pct": round(100 * b.overlap_ratio, 2),
        "dedup_saved_vertices": b.dedup_saved_vertices,
        "late_joins": b.late_joins,
    }


def test_overlap_beats_fifo_when_saturated(benchmark):
    reports = benchmark.pedantic(
        lambda: {p: _serve(p, SATURATED, utilization=3.0)
                 for p in BATCH_POLICIES},
        rounds=1, iterations=1,
    )
    print_table([_row(p, rep) for p, (_, rep) in reports.items()],
                title=f"batch formation, saturated fleet "
                      f"(zipf {SKEW}, {NUM_REQUESTS} requests)")
    dump_reports("saturated", {p: r for p, (_, r) in reports.items()})
    fifo = reports["fifo"][1]
    overlap = reports["overlap"][1]
    assert all(rep.completed == NUM_REQUESTS for _, rep in reports.values())
    # the headline: grouping by neighbourhood overlap shrinks the fused
    # subgraphs enough to win the tail *and* the chip-seconds bill
    assert overlap.batching.overlap_ratio > fifo.batching.overlap_ratio
    assert overlap.p99_latency_s < fifo.p99_latency_s
    assert overlap.chip_seconds_s < fifo.chip_seconds_s


def test_continuous_fills_underfilled_batches(benchmark):
    reports = benchmark.pedantic(
        lambda: {p: _serve(p, SHORT_TIMEOUT, utilization=1.2)
                 for p in BATCH_POLICIES},
        rounds=1, iterations=1,
    )
    print_table([_row(p, rep) for p, (_, rep) in reports.items()],
                title="batch formation, short-timeout fleet "
                      "(underfilled batches)")
    dump_reports("short-timeout",
                 {p: r for p, (_, r) in reports.items()})
    fifo = reports["fifo"][1]
    sim, continuous = reports["continuous"]
    assert continuous.batching.late_joins > 0
    # every join stayed inside both budgets
    for event in sim.batcher.join_log:
        assert event.batch_age_s <= sim.join_window_s + 1e-12
        assert event.oldest_wait_s <= sim.staleness_s + 1e-12
    # fewer, fuller batches -> better tail and fewer chip-seconds
    assert continuous.batching.mean_batch_size > fifo.batching.mean_batch_size
    assert continuous.p99_latency_s < fifo.p99_latency_s
    assert continuous.chip_seconds_s < fifo.chip_seconds_s
