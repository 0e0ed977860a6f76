"""The benchmark's workloads, one measured repetition, and its checks.

Each workload is composed from the public ``repro.serving`` API the way
:func:`repro.serving.run_serving` / :func:`repro.serving.run_multi_tenant`
compose it, but split at the point where serving starts, so that set-up
(dataset build, model, simulator construction, probe calibration, request
and update generation) and the serve itself are timed apart.

The seed drives the offered traffic only (arrivals, targets, updates);
datasets, sampler phases and probes keep the fleet's default seed 0, so
every seed serves the same graphs on the same calibrated fleet, and traffic
seed 0 is exactly what the two entry points build with default seeds.  Host
time is the simulator's wall clock; simulated time is what the modelled
HyGCN chips would take.  Every repetition starts cold: the dataset
``lru_cache`` and the probe, workloads, shard-plan and update-stream memos
are cleared first.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs import datasets
from repro.models import model_zoo
from repro.serving import (
    FleetConfig,
    MultiTenantSimulator,
    RequestGenerator,
    ServingSimulator,
    TenantConfig,
    UpdateStream,
    WorkloadConfig,
    clear_probe_cache,
    clear_shard_plan_cache,
    clear_update_stream_cache,
)
from repro.serving import streaming, workload as workload_module

from .tracer import LAYERS, Tracer

#: Every workload loads its fleet to this share of probe-calibrated capacity.
UTILIZATION = 0.7
NUM_CHIPS = 4

#: The dataset memo itself; kept before any tracer can wrap the name, so
#: its ``cache_clear`` is always reachable.
_LOAD_DATASET = datasets.load_dataset


def cold_start() -> None:
    """Drop every process-wide memo the serving stack keeps, then collect."""
    _LOAD_DATASET.cache_clear()
    clear_probe_cache()
    model_zoo.clear_workloads_cache()
    clear_shard_plan_cache()
    clear_update_stream_cache()
    gc.collect()


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """A named, seeded job: ``setup(seed, scale)`` returns what to serve."""

    name: str
    requests: Tuple[int, ...]
    setup: Callable[[int, float], "Job"]

    def offered(self, scale: float = 1.0) -> int:
        return sum(_scaled(n, scale) for n in self.requests)


@dataclass
class Job:
    """A constructed simulator plus the stream it is about to serve."""

    simulator: object
    requests: list
    rate: object
    updates: int = 0


def _scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _single_tenant(dataset: str, num_requests: int, skew: float,
                   batch_policy: str) -> Callable[[int, float], Job]:
    def setup(seed: int, scale: float) -> Job:
        graph = datasets.load_dataset(dataset)
        model = model_zoo.build_model("GCN", input_length=graph.feature_length)
        config = FleetConfig(num_chips=NUM_CHIPS, dispatch="round-robin",
                             batch_policy=batch_policy, cache_size=0)
        simulator = ServingSimulator(graph, model, config,
                                     dataset_name=dataset)
        rate = simulator.calibrate_rate(UTILIZATION)
        workload = WorkloadConfig(num_requests=_scaled(num_requests, scale),
                                  rate_rps=rate, popularity_skew=skew,
                                  seed=seed)
        requests = RequestGenerator(graph.num_vertices, workload).generate()
        return Job(simulator, requests, rate)
    return setup


_MT_TENANTS = (
    TenantConfig(name="cr", dataset="CR", weight=2.0, num_requests=6000,
                 popularity_skew=1.2),
    TenantConfig(name="ib", dataset="IB", weight=1.0, num_requests=6000,
                 popularity_skew=1.2),
)
_MT_UPDATE_RATE = 0.05


def _mt_stream(seed: int, scale: float) -> Job:
    tenants = [replace(t, num_requests=_scaled(t.num_requests, scale))
               for t in _MT_TENANTS]
    updates = UpdateStream(events=(), policy="targeted")
    simulator = MultiTenantSimulator(
        tenants, FleetConfig(num_chips=NUM_CHIPS), updates=updates)
    rates = simulator.calibrate_rates(UTILIZATION)
    # each tenant's traffic and updates as run_multi_tenant generates them,
    # with the benchmark seed added to the tenant's own seed
    streams, merged = {}, []
    for name in simulator.tenant_names:
        runtime = simulator.runtimes[name]
        cfg = runtime.config
        traffic_seed = runtime.seed + seed
        streams[name] = RequestGenerator(
            runtime.graph.num_vertices,
            WorkloadConfig(num_requests=cfg.num_requests, rate_rps=rates[name],
                           popularity_skew=cfg.popularity_skew,
                           seed=traffic_seed)).generate()
        merged.extend(streaming.generate_update_stream(
            runtime.graph.num_vertices,
            num_updates=int(round(_MT_UPDATE_RATE * cfg.num_requests)),
            rate_ups=_MT_UPDATE_RATE * rates[name], seed=traffic_seed,
            tenant=name))
    requests = workload_module.merge_tenant_streams(streams)
    merged.sort(key=lambda e: (e.arrival_time_s, e.tenant))
    updates.events = [replace(e, update_id=i) for i, e in enumerate(merged)]
    return Job(simulator, requests, rates, updates=len(merged))


#: Why each workload exists is recorded in ``BENCHMARK.json``: ``cr-miss``
#: is dominated by the cycle model and sampler, ``ib-overlap`` by overlap
#: batch formation, and ``mt-stream`` is the only run through tenancy and
#: streaming updates.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("cr-miss", (20000,), _single_tenant("CR", 20000, 0.8, "timeout")),
    Workload("ib-overlap", (8000,),
             _single_tenant("IB", 8000, 1.2, "continuous")),
    Workload("mt-stream", (6000, 6000), _mt_stream),
)}


# --------------------------------------------------------------------------- #
# Serving-batch recorder (simulated energy and DRAM, probes excluded)
# --------------------------------------------------------------------------- #
@dataclass
class ChipTotals:
    """Sums over the cycle-model reports of the batches the fleet served."""

    batches: int = 0
    energy_j: float = 0.0
    cycles: int = 0
    dram_requests: int = 0
    dram_bytes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    peak_bytes_per_cycle: int = 0

    @property
    def row_hit_rate(self) -> float:
        return _ratio(self.row_hits, self.row_hits + self.row_misses)

    @property
    def bw_util(self) -> float:
        """Bytes moved over what peak bandwidth could move in those cycles."""
        return _ratio(self.dram_bytes, self.peak_bytes_per_cycle * self.cycles)


def record_chips(chips: Sequence, totals: ChipTotals) -> None:
    """Fold every report the serving chips' simulators return into ``totals``.

    Only the fleet's own chips are hooked (per instance), so the probe
    batches, which run on a throwaway chip, are never counted.
    """
    for chip in chips:
        simulator = chip.simulator
        run_model = simulator.run_model
        totals.peak_bytes_per_cycle = \
            simulator.config.hbm.peak_bandwidth_bytes_per_cycle

        def recorded(*args, _run_model=run_model, **kwargs):
            report = _run_model(*args, **kwargs)
            stats = report.dram_stats
            totals.batches += 1
            totals.energy_j += report.total_energy_j
            totals.cycles += report.total_cycles
            totals.dram_requests += stats.requests
            totals.dram_bytes += stats.bytes_transferred
            totals.row_hits += stats.row_hits
            totals.row_misses += stats.row_misses
            return report
        simulator.run_model = recorded


# --------------------------------------------------------------------------- #
# One repetition
# --------------------------------------------------------------------------- #
def export(report) -> str:
    """The report as canonical JSON (what ``serve --json`` would write)."""
    return json.dumps(report.to_dict(include_records=True), sort_keys=True,
                      separators=(",", ":"))


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Rep:
    """Host timings, simulated outcome and checks of one repetition.

    The report itself is not kept: a run holds many repetitions, and its
    peak memory should not depend on how many fitted in its time.
    """

    setup_s: float
    serve_s: float
    wall_s: float
    offered: int
    completed: int
    updates: int
    fingerprint: str
    latencies_s: np.ndarray
    chip_totals: ChipTotals
    counters: Dict[str, int]
    tracer: Optional[Tracer] = None
    problems: List[str] = field(default_factory=list)

    @property
    def req_per_s(self) -> float:
        return self.completed / self.serve_s

    @property
    def failed(self) -> int:
        """Requests not completed; every request, when a check failed."""
        return self.offered if self.problems else self.offered - self.completed


def run_once(workload: Workload, seed: int, scale: float = 1.0,
             traced: bool = False) -> Rep:
    """Set up, serve and export ``workload`` once, from a cold start."""
    clock = time.perf_counter
    cold_start()
    tracer = Tracer(clock) if traced else None
    with tracer or contextlib.nullcontext():
        export_fn = tracer.wrap("report", export) if tracer else export
        start = clock()
        job = workload.setup(seed, scale)
        totals = ChipTotals()
        record_chips(job.simulator.chips, totals)
        served = clock()
        report = job.simulator.run(job.requests, job.rate)
        done = clock()
        text = export_fn(report)
        end = clock()
    offered = len(job.requests)
    return Rep(setup_s=served - start, serve_s=done - served,
               wall_s=end - start, offered=offered,
               completed=report.completed, updates=job.updates,
               fingerprint=fingerprint(text),
               latencies_s=np.concatenate(
                   [r.latencies_s for r in tenant_reports(report)]),
               chip_totals=totals, counters=report_counters(report),
               tracer=tracer, problems=check_report(report, offered))


def tenant_reports(report) -> list:
    """The per-tenant slices of a multi-tenant report, else ``[report]``."""
    reports = getattr(report, "reports", None)
    return list(reports.values()) if reports is not None else [report]


def report_counters(report) -> Dict[str, int]:
    """The simulated counters the per-layer metrics need, pooled over tenants."""
    slices = tenant_reports(report)
    batching = [s.batching for s in slices if s.batching is not None]
    return {
        "fused_vertices": sum(b.fused_vertices for b in batching),
        "naive_vertices": sum(b.naive_vertices for b in batching),
        "result_hits": sum(s.cache.hits for s in slices),
        "result_lookups": sum(s.cache.lookups for s in slices),
        "feature_hits": sum(c.feature_hits for c in report.chips),
        "feature_lookups": sum(c.feature_lookups for c in report.chips),
        "invalidations": report.consistency.total_invalidations
        if report.consistency is not None else 0,
    }


# --------------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------------- #
def check_report(report, offered: int) -> List[str]:
    """Conservation and ordering laws every serve must satisfy.

    Returns one message per violated law (empty when the report holds).
    """
    problems = []
    shed = report.control.total_shed if report.control is not None else 0
    if report.completed + shed != offered:
        problems.append(f"completed {report.completed} + shed {shed} != "
                        f"offered {offered}")
    disordered = sum(
        1 for rep in tenant_reports(report) for r in rep.records
        if not r.arrival_time_s <= r.service_start_s <= r.completion_time_s)
    if disordered:
        problems.append(f"{disordered} records break arrival <= start <= "
                        f"completion")
    makespan = report.makespan_s
    for chip in report.chips:
        if chip.busy_s > makespan * (1 + 1e-12):
            problems.append(f"chip {chip.chip_id} busy {chip.busy_s!r} s > "
                            f"makespan {makespan!r} s")
    return problems


# --------------------------------------------------------------------------- #
# Metrics: ``name -> (value, unit)``
# --------------------------------------------------------------------------- #
#: Layers whose call count (``<layer>.calls``) is reported.
LAYER_CALLS = ("sampler.extract", "sampler.signature", "sampler.fused_size",
               "sampler.fuse", "batcher", "memory", "cache")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(by_stream: Dict[int, List[Rep]],
               peak_rss_mb: float) -> Dict[str, Tuple]:
    """End-to-end metrics from ``{stream seed: [untraced Rep, ...]}``.

    Host times are medians over every repetition; the simulated metrics
    pool the streams (each stream's repetitions are bit-identical).
    ``peak_rss_mb`` is the process's peak once every stream has run.
    """
    median = statistics.median
    reps = [rep for stream in by_stream.values() for rep in stream]
    firsts = [stream[0] for stream in by_stream.values()]
    latencies = np.concatenate([rep.latencies_s for rep in firsts])
    return {
        "req_per_s": (median(r.req_per_s for r in reps), "1/s"),
        "setup_s": (median(r.setup_s for r in reps), "s"),
        "wall_s": (median(r.wall_s for r in reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_mean_us": (float(latencies.mean()) * 1e6, "us"),
        "sim_p99_us": (float(np.percentile(latencies, 99)) * 1e6, "us"),
        "sim_j_per_req": (
            _ratio(sum(r.chip_totals.energy_j for r in firsts),
                   sum(r.completed for r in firsts)), "J"),
    }


def per_layer(pairs: List[Tuple[Rep, Rep]]) -> Dict[str, Tuple]:
    """Per-layer metrics from ``[(untraced Rep, traced Rep), ...]``.

    Each layer's self time is reported as its share of the traced wall
    (``<layer>.self_frac``; seconds = share x ``trace.wall_s``): a share
    is comparable across hosts whose speed drifts, and a layer a workload
    never enters reads 0 as a share rather than as a time.  Shares and
    walls are medians over the traced repetitions; counts and simulated
    ratios come from the first traced repetition.
    """
    median = statistics.median
    traced = [t for _, t in pairs]
    first = traced[0]
    totals = first.chip_totals
    counters = first.counters
    metrics = {"trace.wall_s": (median(r.wall_s for r in traced), "s")}
    metrics.update({f"{layer}.self_frac": (
        median(r.tracer.self_s[layer] / r.wall_s for r in traced), "ratio")
        for layer in LAYERS})
    metrics.update({f"{layer}.calls": (first.tracer.calls[layer], "count")
                    for layer in LAYER_CALLS})
    metrics.update({
        "batcher.overlap_ratio": (
            1.0 - _ratio(counters["fused_vertices"],
                         counters["naive_vertices"])
            if counters["naive_vertices"] else 0.0, "ratio"),
        "simulator.batches": (totals.batches, "count"),
        "memory.dram_requests": (totals.dram_requests, "count"),
        "memory.row_hit_rate": (totals.row_hit_rate, "ratio"),
        "memory.bw_util": (totals.bw_util, "ratio"),
        "cache.result_hit_rate": (
            _ratio(counters["result_hits"], counters["result_lookups"]),
            "ratio"),
        "cache.feature_hit_rate": (
            _ratio(counters["feature_hits"], counters["feature_lookups"]),
            "ratio"),
        "streaming.invalidations": (counters["invalidations"], "count"),
        "attributed_frac": (
            median(r.tracer.attributed_s / r.wall_s for r in traced),
            "ratio"),
        "trace_overhead_frac": (
            median(t.wall_s / u.wall_s for u, t in pairs) - 1.0, "ratio"),
    })
    return metrics
