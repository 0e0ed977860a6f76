"""Sharding benchmark: shard-count scaling and hash vs. locality.

Two tables on identical seeded zipf traffic (see ``docs/sharding.md``):

1. **shard scaling** -- the same stream served by 1/2/4-shard chip groups
   under the ``locality`` partitioner, showing how the per-shard compute
   shrinks while halo exchange and the gather barrier grow;
2. **partitioner comparison** -- ``hash`` vs. ``locality`` on a 4-shard
   group, pinning the subsystem's acceptance criterion: the greedy
   edge-cut minimiser must beat the locality-oblivious baseline on BOTH
   edge-cut and served p99.

``REPRO_BENCH_SMOKE=1`` shrinks the stream for the CI smoke job.  Set
``REPRO_BENCH_JSON=PATH`` to also dump every report as JSON (the same
``to_dict()`` payload as ``python -m repro serve --json``), so harnesses
never scrape the tables.
"""

import os

from repro.analysis import print_table
from repro.serving import (
    FleetConfig,
    ShardingConfig,
    clear_probe_cache,
    clear_shard_plan_cache,
    run_serving,
)
from _bench import dump_reports

DATASET = "IB"
MODEL = "GCN"
NUM_REQUESTS = 256 if os.environ.get("REPRO_BENCH_SMOKE") else 512
SKEW = 1.2
SHARD_COUNTS = (1, 2, 4)


def _serve(num_shards, partitioner):
    clear_probe_cache()
    clear_shard_plan_cache()
    sharding = ShardingConfig(num_shards=num_shards, partitioner=partitioner)
    config = FleetConfig(num_chips=num_shards, sharding=sharding,
                         cache_size=0, seed=0)
    return run_serving(dataset=DATASET, model_name=MODEL,
                       num_requests=NUM_REQUESTS, popularity_skew=SKEW,
                       config=config, seed=0, utilization_target=0.7)


def _row(tag, report):
    stats = report.sharding
    return {
        "config": tag,
        "completed": report.completed,
        "p50_us": round(report.p50_latency_s * 1e6, 2),
        "p99_us": round(report.p99_latency_s * 1e6, 2),
        "edge_cut_pct": round(100 * stats.edge_cut_fraction, 2),
        "halo_moved_kb": round(stats.halo_bytes_moved / 1024, 1),
        "halo_hit_rate_pct": round(100 * stats.halo_hit_rate, 2),
        "load_imbalance": round(stats.load_imbalance, 3),
    }


def test_shard_scaling(benchmark):
    reports = benchmark.pedantic(
        lambda: {f"{n}-shard": _serve(n, "locality") for n in SHARD_COUNTS},
        rounds=1, iterations=1,
    )
    print_table([_row(tag, rep) for tag, rep in reports.items()],
                title=f"shard scaling, locality partitioner "
                      f"(zipf {SKEW}, {NUM_REQUESTS} requests)")
    dump_reports("scaling", reports)
    assert all(rep.completed == NUM_REQUESTS for rep in reports.values())
    # a 1-shard group bypasses the exchange model entirely
    one = reports["1-shard"].sharding
    assert one.halo_bytes_moved == 0.0 and one.edge_cut == 0
    # wider groups cross more edges and move more halo bytes
    assert reports["4-shard"].sharding.edge_cut \
        > reports["2-shard"].sharding.edge_cut
    assert reports["4-shard"].sharding.halo_bytes_moved \
        > reports["2-shard"].sharding.halo_bytes_moved


def test_locality_beats_hash(benchmark):
    reports = benchmark.pedantic(
        lambda: {name: _serve(4, name) for name in ("hash", "locality")},
        rounds=1, iterations=1,
    )
    print_table([_row(tag, rep) for tag, rep in reports.items()],
                title=f"partitioner comparison, 4-shard group "
                      f"(zipf {SKEW}, {NUM_REQUESTS} requests)")
    dump_reports("partitioners", reports)
    hash_report = reports["hash"]
    locality_report = reports["locality"]
    # the headline: clustering neighbours on one chip wins the cut AND
    # the served tail under identical traffic
    assert locality_report.sharding.edge_cut < hash_report.sharding.edge_cut
    assert locality_report.sharding.halo_bytes_moved \
        < hash_report.sharding.halo_bytes_moved
    assert locality_report.p99_latency_s < hash_report.p99_latency_s
