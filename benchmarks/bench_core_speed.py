"""Core-speed benchmark: array-native CSC sampler core vs the object core.

Not a paper figure -- this gates the refactor that rebuilt ``repro.graphs``
around the contiguous :class:`~repro.graphs.csc.CSCGraph` layout: the two
sampler cores are **bit-for-bit equivalent** (``tests/graphs/
test_csc_equivalence.py`` proves it differentially), so the only thing left
to demonstrate is speed.  Three metrics on a zipf-degree synthetic graph:

* ``extract`` -- cold k-hop subgraph extractions (memo defeated);
* ``fuse`` -- ``fused_size`` + ``fuse`` of a warm batch of samples, the
  overlap-aware batching hot loop;
* ``sampler+fuse`` -- the end-to-end batch-assembly pipeline the serving
  simulator runs per dispatch: extract every target, price the batch with
  ``fused_size``, materialise the fused graph.

The assertions are the acceptance gate: the CSC core must deliver >= 10x
``sampler+fuse`` and ``fuse`` throughput over the object core (extract
alone is gated at >= 3x -- its tail is the canonical-CSR sort both cores
share).  Ratios are measured in-process on identical seeded target sets,
so machine noise largely cancels.

``REPRO_BENCH_SMOKE=1`` shrinks the graph for the CI smoke job;
``REPRO_BENCH_JSON=path`` appends one JSON line with the machine-readable
numbers, which CI uploads as ``BENCH_core_speed.json``.
"""

import os
import time

import numpy as np

from repro.analysis import print_table
from repro.graphs import from_csc, power_law_graph
from repro.serving.sampler import SubgraphSampler
from repro.serving.cache import LRUCache
from _bench import dump_json

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_VERTICES = 8_000 if SMOKE else 50_000
NUM_EDGES = 240_000 if SMOKE else 1_500_000
FEATURE_LENGTH = 16
SKEW = 1.2
NUM_HOPS = 3
FANOUT = 32
BATCH = 16 if SMOKE else 32
REPEATS = 2 if SMOKE else 3
SEED = 3

MIN_PIPELINE_SPEEDUP = 10.0
MIN_FUSE_SPEEDUP = 10.0
MIN_EXTRACT_SPEEDUP = 3.0


def _graphs():
    csc = power_law_graph(NUM_VERTICES, NUM_EDGES, FEATURE_LENGTH,
                          skew=SKEW, seed=1)
    obj = from_csc(csc)
    obj.csc  # pre-build the transpose so it is not timed
    return csc, obj


def _targets(size, seed=7):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, NUM_VERTICES, size=size)]


def _time_extract(graph, targets):
    """Seconds for one cold pass over ``targets`` (best of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        sampler = SubgraphSampler(graph, num_hops=NUM_HOPS, fanout=FANOUT,
                                  seed=SEED, memo_size=1)
        start = time.perf_counter()
        for target in targets:
            sampler._memo = LRUCache(1)  # defeat the memo: every hit is cold
            sampler.extract(target)
        best = min(best, time.perf_counter() - start)
    return best


def _time_fuse(graph, targets):
    """Seconds for one ``fused_size`` + ``fuse`` of a warm sample batch."""
    sampler = SubgraphSampler(graph, num_hops=NUM_HOPS, fanout=FANOUT,
                              seed=SEED)
    samples = [sampler.extract(t) for t in targets]
    shapes = [(t, None, None) for t in targets]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        sampler.fused_size(shapes)
        sampler.fuse(samples)
        best = min(best, time.perf_counter() - start)
    return best


def _time_pipeline(graph, targets):
    """Seconds for one full batch assembly: extract all, price, fuse."""
    best = float("inf")
    for _ in range(REPEATS):
        sampler = SubgraphSampler(graph, num_hops=NUM_HOPS, fanout=FANOUT,
                                  seed=SEED)
        start = time.perf_counter()
        samples = [sampler.extract(t) for t in targets]
        sampler.fused_size([(t, None, None) for t in targets])
        sampler.fuse(samples)
        best = min(best, time.perf_counter() - start)
    return best


def test_core_speed(benchmark):
    csc, obj = _graphs()
    targets = _targets(BATCH)

    def measure():
        rows = []
        for metric, timer, unit in (
            ("extract", _time_extract, len(targets)),
            ("fuse", _time_fuse, 1),
            ("sampler+fuse", _time_pipeline, 1),
        ):
            t_obj = timer(obj, targets)
            t_csc = timer(csc, targets)
            rows.append({
                "metric": metric,
                "object_per_s": round(unit / t_obj, 1),
                "csc_per_s": round(unit / t_csc, 1),
                "speedup": round(t_obj / t_csc, 2),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(rows, title=(
        f"core speed: CSC vs object "
        f"(V={NUM_VERTICES}, E={NUM_EDGES}, hops={NUM_HOPS}, "
        f"fanout={FANOUT}, batch={BATCH})"))
    dump_json("core_speed", {
        "graph": {"num_vertices": NUM_VERTICES, "num_edges": NUM_EDGES,
                  "feature_length": FEATURE_LENGTH, "skew": SKEW},
        "shape": {"num_hops": NUM_HOPS, "fanout": FANOUT, "batch": BATCH},
        "rows": rows,
    })
    speedups = {row["metric"]: row["speedup"] for row in rows}
    # the acceptance gate for the array-native core refactor
    assert speedups["sampler+fuse"] >= MIN_PIPELINE_SPEEDUP, speedups
    assert speedups["fuse"] >= MIN_FUSE_SPEEDUP, speedups
    assert speedups["extract"] >= MIN_EXTRACT_SPEEDUP, speedups
