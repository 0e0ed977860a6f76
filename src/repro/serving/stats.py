"""Serving-level metrics: latency percentiles, throughput, SLO accounting.

The per-request records produced by the fleet's event loop are aggregated into
a :class:`ServingReport`, the serving-side analogue of
:class:`~repro.core.stats.SimulationReport`: tail-latency percentiles,
sustained throughput, per-chip utilisation, queue pressure and SLO-violation
counts, plus table helpers for the CLI / benchmark harness.

For multi-tenant runs (:mod:`repro.serving.tenancy`) the records carry a
``tenant`` tag and roll up into a :class:`MultiTenantReport`: one
:class:`ServingReport` slice per tenant plus the isolation metrics the fleet
owes its tenants -- weighted-fair-queueing service shares (measured while all
tenants were contending) against the configured weights, per-tenant SLO
violation rates, and cross-tenant p99 inflation versus each tenant running
alone on the same fleet.

Elastic runs (:mod:`repro.serving.control`) additionally attach a
:class:`ControlStats` block: the autoscaling timeline (every add / warm-up /
drain / retire event plus a per-interval observation trace), the provisioned
chip-seconds the run consumed (the cost side of the
chip-seconds-vs-violations-avoided trade), and per-tenant admission
accounting (admitted / shed / degraded-by-level breakdowns).

Batch-formation accounting lives in :class:`BatchingStats` (one per report,
per tenant in multi-tenant runs): batches formed, the fused vs. naive
vertex totals behind the measured **overlap ratio** and dedup savings, and
the late-join counters of continuous batching (see
:mod:`repro.serving.batching` and ``docs/batching.md``).

Both report classes serialize to plain JSON-compatible dicts via
``to_dict()``, which is what ``python -m repro serve --json`` emits so that
benchmark harnesses never scrape the human-formatted tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .cache import CacheStats

__all__ = ["percentile", "chip_utilization_rows", "shape_utilization_rows",
           "RequestRecord", "ChipStats", "ServingReport", "MultiTenantReport",
           "ScaleEvent", "ControlSample", "AdmissionStats", "ControlStats",
           "BatchingStats", "HeteroStats", "ShardingStats",
           "ConsistencyStats"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for an empty input."""
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class RequestRecord:
    """Lifecycle timestamps of one completed request.

    Cache hits never touch a chip: their ``chip_id``/``batch_id`` are -1 and
    dispatch/start coincide with completion.  ``tenant`` is empty for
    single-tenant serving.
    """

    request_id: int
    target_vertex: int
    arrival_time_s: float
    dispatch_time_s: float
    service_start_s: float
    completion_time_s: float
    cache_hit: bool = False
    chip_id: int = -1
    batch_id: int = -1
    tenant: str = ""
    #: > 0 when the control plane served this request at reduced sampling
    #: fidelity (see :mod:`repro.serving.control`); 0 is full fidelity.
    degrade_level: int = 0

    @property
    def latency_s(self) -> float:
        return self.completion_time_s - self.arrival_time_s

    @property
    def batching_wait_s(self) -> float:
        """Time spent waiting for the batch to form."""
        return self.dispatch_time_s - self.arrival_time_s

    @property
    def queue_wait_s(self) -> float:
        """Time the formed batch waited in a chip queue."""
        return self.service_start_s - self.dispatch_time_s


@dataclass
class ChipStats:
    """Aggregate accounting of one simulated accelerator instance.

    ``provisioned_s`` is filled by elastic runs: the chip-seconds this chip
    was held (from commissioning through retirement or end of run, including
    warm-up during which it served nothing).  ``None`` means the chip existed
    for the whole run (every fixed-fleet chip).

    ``shape`` names the chip's hardware shape
    (:data:`~repro.serving.hetero.SHAPE_PRESETS`); homogeneous fleets run
    entirely on ``"balanced"`` chips.
    """

    chip_id: int
    shape: str = "balanced"
    busy_s: float = 0.0
    batches_served: int = 0
    requests_served: int = 0
    vertices_simulated: int = 0
    feature_lookups: int = 0
    feature_hits: int = 0
    provisioned_s: Optional[float] = None

    @property
    def feature_reuse_rate(self) -> float:
        """Fraction of batch vertices already resident in the chip's feature cache."""
        return self.feature_hits / self.feature_lookups if self.feature_lookups else 0.0

    def utilization(self, makespan_s: float) -> float:
        """Busy fraction of the chip over its provisioned window (the whole
        serving window for fixed-fleet chips)."""
        span = self.provisioned_s if self.provisioned_s is not None else makespan_s
        return min(1.0, self.busy_s / span) if span > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "chip_id": self.chip_id,
            "shape": self.shape,
            "busy_s": self.busy_s,
            "batches_served": self.batches_served,
            "requests_served": self.requests_served,
            "vertices_simulated": self.vertices_simulated,
            "feature_lookups": self.feature_lookups,
            "feature_hits": self.feature_hits,
            "provisioned_s": self.provisioned_s,
        }


def chip_utilization_rows(chips: Sequence["ChipStats"],
                          span_s: float) -> List[Dict[str, object]]:
    """One table row per chip: load share, busy time, utilisation, reuse.

    Shared by the single-tenant and multi-tenant reports so the two views
    cannot drift apart.  The ``shape`` column only appears on
    heterogeneous fleets, so homogeneous tables keep their layout.
    """
    hetero = len({c.shape for c in chips}) > 1
    rows = []
    for c in chips:
        row: Dict[str, object] = {"chip": c.chip_id}
        if hetero:
            row["shape"] = c.shape
        row.update({
            "batches": c.batches_served,
            "requests": c.requests_served,
            "vertices": c.vertices_simulated,
            "busy_ms": round(c.busy_s * 1e3, 4),
            "utilization_pct": round(100.0 * c.utilization(span_s), 2),
            "feature_reuse_pct": round(100.0 * c.feature_reuse_rate, 2),
        })
        rows.append(row)
    return rows


def shape_utilization_rows(chips: Sequence["ChipStats"],
                           span_s: float) -> List[Dict[str, object]]:
    """One table row per chip *shape*: roster size, load, service share.

    ``service_share_pct`` is the fraction of the fleet's total busy
    chip-seconds this shape absorbed; ``utilization_pct`` is its busy time
    over its provisioned time (chip count x span for fixed-fleet chips).
    Shared by both reports' ``shape_table()``.
    """
    by_shape: Dict[str, List[ChipStats]] = {}
    for c in chips:
        by_shape.setdefault(c.shape, []).append(c)
    total_busy = sum(c.busy_s for c in chips)
    rows = []
    for shape in sorted(by_shape):
        members = by_shape[shape]
        busy = sum(c.busy_s for c in members)
        provisioned = sum(c.provisioned_s if c.provisioned_s is not None
                          else span_s for c in members)
        rows.append({
            "shape": shape,
            "chips": len(members),
            "batches": sum(c.batches_served for c in members),
            "requests": sum(c.requests_served for c in members),
            "busy_ms": round(busy * 1e3, 4),
            "service_share_pct": round(100.0 * busy / total_busy, 2)
            if total_busy > 0 else 0.0,
            "utilization_pct": round(100.0 * busy / provisioned, 2)
            if provisioned > 0 else 0.0,
        })
    return rows


# --------------------------------------------------------------------------- #
# Batch-formation accounting (overlap-aware / continuous batching)
# --------------------------------------------------------------------------- #
@dataclass
class BatchingStats:
    """Aggregate batch-formation accounting of one serving run.

    ``naive_vertices`` sums every batched request's *standalone* sampled
    neighbourhood size (what an overlap-oblivious fleet would stream);
    ``fused_vertices`` sums the deduped fused-subgraph sizes the chips
    actually executed.  Their gap is the dedup saving, and
    ``overlap_ratio`` (``1 - fused/naive``) is the headline metric of the
    overlap-aware formation policies -- FIFO runs report it too (duplicate
    targets inside a batch dedup under every policy), which is what makes
    policy comparisons honest.  ``late_joins`` / ``late_join_rejects``
    count continuous-batching join attempts (always zero elsewhere).
    Cache-hit requests never reach a batch and are invisible here.
    """

    policy: str = "fifo"
    batches: int = 0
    batched_requests: int = 0
    fused_vertices: int = 0
    naive_vertices: int = 0
    late_joins: int = 0
    late_join_rejects: int = 0

    def observe_batch(self, batch) -> None:
        """Fold one served batch in (duck-typed serving ``Batch``)."""
        self.batches += 1
        self.batched_requests += batch.size
        self.fused_vertices += batch.fused_vertices
        self.naive_vertices += batch.naive_vertices
        self.late_joins += batch.late_joins

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def overlap_ratio(self) -> float:
        """Fraction of naive neighbourhood vertices the fusion eliminated."""
        if self.naive_vertices == 0:
            return 0.0
        return 1.0 - self.fused_vertices / self.naive_vertices

    @property
    def dedup_saved_vertices(self) -> int:
        return self.naive_vertices - self.fused_vertices

    def summary(self) -> Dict[str, object]:
        """One table row for the CLI's batch-formation section."""
        return {
            "policy": self.policy,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "overlap_ratio_pct": round(100.0 * self.overlap_ratio, 2),
            "dedup_saved_vertices": self.dedup_saved_vertices,
            "late_joins": self.late_joins,
            "late_join_rejects": self.late_join_rejects,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "mean_batch_size": self.mean_batch_size,
            "fused_vertices": self.fused_vertices,
            "naive_vertices": self.naive_vertices,
            "overlap_ratio": self.overlap_ratio,
            "dedup_saved_vertices": self.dedup_saved_vertices,
            "late_joins": self.late_joins,
            "late_join_rejects": self.late_join_rejects,
        }


# --------------------------------------------------------------------------- #
# Sharded-execution accounting (multi-chip groups, repro.serving.sharding)
# --------------------------------------------------------------------------- #
@dataclass
class ShardingStats:
    """Aggregate sharded-execution accounting of one serving run.

    Attached to a report only when the fleet runs as a chip group
    (``FleetConfig.sharding`` armed -- see :mod:`repro.serving.sharding`
    and ``docs/sharding.md``).  The plan-derived fields (``edge_cut`` /
    ``num_edges`` / ``halo_vertices`` / ``size_imbalance``) are folded in
    once per shard plan via :meth:`fold_plan` -- multi-tenant runs fold one
    plan per tenant, so the edge-cut fraction is the traffic-blended cut
    over every partitioned dataset.

    The halo counters distinguish traffic *moved* (cache-missing ghost
    features paying DRAM + interconnect) from traffic *saved* (ghosts
    served from a warm halo cache); ``load_imbalance`` is the max-over-mean
    of per-shard busy seconds, the measured analogue of the plan's static
    ``size_imbalance``.  The latency percentiles are stamped from the
    report's records at finalisation so the sharded tail is readable from
    this one block.
    """

    num_shards: int
    partitioner: str
    edge_cut: int = 0
    num_edges: int = 0
    halo_vertices: int = 0
    size_imbalance: float = 0.0
    sharded_batches: int = 0
    sub_batches: int = 0
    halo_lookups: int = 0
    halo_hits: int = 0
    halo_bytes_moved: float = 0.0
    halo_bytes_saved: float = 0.0
    exchange_s: float = 0.0
    gather_s: float = 0.0
    shard_busy_s: List[float] = field(default_factory=list)
    shard_requests: List[int] = field(default_factory=list)
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0

    def finalize(self, latencies: Sequence[float]) -> None:
        """Stamp the run's latency percentiles (end of run)."""
        self.p50_s = percentile(latencies, 50)
        self.p95_s = percentile(latencies, 95)
        self.p99_s = percentile(latencies, 99)

    def fold_plan(self, plan) -> None:
        """Fold one :class:`~repro.graphs.partition.ShardPlan`'s static
        stats in (idempotence is the caller's concern: once per plan)."""
        self.edge_cut += plan.edge_cut
        self.num_edges += plan.num_edges
        self.halo_vertices += plan.halo_vertices
        self.size_imbalance = max(self.size_imbalance, plan.size_imbalance)

    @property
    def edge_cut_fraction(self) -> float:
        """Fraction of directed edges crossing shard boundaries."""
        return self.edge_cut / self.num_edges if self.num_edges else 0.0

    @property
    def halo_hit_rate(self) -> float:
        """Fraction of ghost-feature lookups served by the halo caches."""
        return self.halo_hits / self.halo_lookups if self.halo_lookups else 0.0

    @property
    def load_imbalance(self) -> float:
        """Busiest shard's sub-batch seconds over the mean (1.0 = balanced)."""
        busy = [b for b in self.shard_busy_s]
        if not busy or sum(busy) == 0:
            return 0.0
        return max(busy) / (sum(busy) / len(busy))

    def summary(self) -> Dict[str, object]:
        """One table row for the CLI's sharded-execution section."""
        return {
            "partitioner": self.partitioner,
            "shards": self.num_shards,
            "edge_cut_pct": round(100.0 * self.edge_cut_fraction, 2),
            "halo_moved_kb": round(self.halo_bytes_moved / 1024.0, 1),
            "halo_saved_kb": round(self.halo_bytes_saved / 1024.0, 1),
            "halo_hit_rate_pct": round(100.0 * self.halo_hit_rate, 2),
            "load_imbalance": round(self.load_imbalance, 3),
            "p50_ms": round(self.p50_s * 1e3, 4),
            "p95_ms": round(self.p95_s * 1e3, 4),
            "p99_ms": round(self.p99_s * 1e3, 4),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "partitioner": self.partitioner,
            "edge_cut": self.edge_cut,
            "num_edges": self.num_edges,
            "edge_cut_fraction": self.edge_cut_fraction,
            "halo_vertices": self.halo_vertices,
            "size_imbalance": self.size_imbalance,
            "sharded_batches": self.sharded_batches,
            "sub_batches": self.sub_batches,
            "halo_lookups": self.halo_lookups,
            "halo_hits": self.halo_hits,
            "halo_hit_rate": self.halo_hit_rate,
            "halo_bytes_moved": self.halo_bytes_moved,
            "halo_bytes_saved": self.halo_bytes_saved,
            "exchange_s": self.exchange_s,
            "gather_s": self.gather_s,
            "shard_busy_s": list(self.shard_busy_s),
            "shard_requests": list(self.shard_requests),
            "load_imbalance": self.load_imbalance,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
        }


# --------------------------------------------------------------------------- #
# Streaming-update accounting (mutating graphs, repro.serving.streaming)
# --------------------------------------------------------------------------- #
def _empty_invalidations() -> Dict[str, int]:
    return {"result": 0, "feature": 0, "halo": 0, "sample": 0,
            "signature": 0, "shard_plan": 0}


@dataclass
class ConsistencyStats:
    """Streaming-update and differential-consistency accounting of one run.

    Attached to a report only when the run served a mutating graph
    (``updates=`` armed -- see :mod:`repro.serving.streaming` and
    ``docs/streaming.md``); static runs carry no block, so their JSON
    exports stay byte-identical to pre-streaming builds.

    ``invalidations`` counts derived-state entries dropped per cache by the
    invalidation policy; the ``stale_*`` counters record served results
    whose cached derived state *disagreed with a fresh recomputation at
    service time* (only possible under ``--invalidation none``, whose whole
    point is to prove each invalidation path load-bearing).  Staleness is
    measured in both graph versions and simulated seconds;
    ``stale_beyond_budget`` counts violations older than the configured
    version budget -- the "no stale result beyond budget" contract is
    ``stale_beyond_budget == 0``.

    ``baseline_p99_s`` is filled by harnesses that also ran a static-graph
    baseline; ``p99_inflation`` then prices what invalidation churn cost
    the tail.
    """

    policy: str = "targeted"
    budget_versions: int = 0
    updates_offered: int = 0
    edge_updates: int = 0
    feature_updates: int = 0
    vertex_updates: int = 0
    noop_updates: int = 0
    final_version: int = 0
    compactions: int = 0
    invalidations: Dict[str, int] = field(default_factory=_empty_invalidations)
    checks: int = 0
    stale_results: int = 0
    stale_features: int = 0
    stale_halo: int = 0
    stale_samples: int = 0
    stale_signatures: int = 0
    shard_plan_misses: int = 0
    stale_version_lag_sum: int = 0
    stale_version_lag_max: int = 0
    stale_seconds_sum: float = 0.0
    stale_seconds_max: float = 0.0
    stale_beyond_budget: int = 0
    p99_s: float = 0.0
    baseline_p99_s: Optional[float] = None

    @property
    def updates_applied(self) -> int:
        return self.edge_updates + self.feature_updates + self.vertex_updates

    @property
    def stale_serves(self) -> int:
        """Total served results backed by any stale derived state."""
        return (self.stale_results + self.stale_features + self.stale_halo
                + self.stale_samples + self.stale_signatures)

    @property
    def total_invalidations(self) -> int:
        return sum(self.invalidations.values())

    @property
    def mean_stale_version_lag(self) -> float:
        return self.stale_version_lag_sum / self.stale_serves \
            if self.stale_serves else 0.0

    @property
    def p99_inflation(self) -> Optional[float]:
        """Mutating-run p99 over the static baseline's (None w/o baseline)."""
        if self.baseline_p99_s is None or self.baseline_p99_s <= 0:
            return None
        return self.p99_s / self.baseline_p99_s

    def summary(self) -> Dict[str, object]:
        """One table row for the CLI's streaming section."""
        row: Dict[str, object] = {
            "invalidation": self.policy,
            "updates": self.updates_applied,
            "final_version": self.final_version,
            "compactions": self.compactions,
            "invalidated": self.total_invalidations,
            "checks": self.checks,
            "stale_serves": self.stale_serves,
            "stale_beyond_budget": self.stale_beyond_budget,
        }
        inflation = self.p99_inflation
        if inflation is not None:
            row["p99_inflation_x"] = round(inflation, 3)
        return row

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "budget_versions": self.budget_versions,
            "updates_offered": self.updates_offered,
            "updates_applied": self.updates_applied,
            "edge_updates": self.edge_updates,
            "feature_updates": self.feature_updates,
            "vertex_updates": self.vertex_updates,
            "noop_updates": self.noop_updates,
            "final_version": self.final_version,
            "compactions": self.compactions,
            "invalidations": dict(self.invalidations),
            "total_invalidations": self.total_invalidations,
            "checks": self.checks,
            "stale_results": self.stale_results,
            "stale_features": self.stale_features,
            "stale_halo": self.stale_halo,
            "stale_samples": self.stale_samples,
            "stale_signatures": self.stale_signatures,
            "shard_plan_misses": self.shard_plan_misses,
            "stale_serves": self.stale_serves,
            "stale_version_lag_sum": self.stale_version_lag_sum,
            "stale_version_lag_max": self.stale_version_lag_max,
            "mean_stale_version_lag": self.mean_stale_version_lag,
            "stale_seconds_sum": self.stale_seconds_sum,
            "stale_seconds_max": self.stale_seconds_max,
            "stale_beyond_budget": self.stale_beyond_budget,
            "p99_s": self.p99_s,
            "baseline_p99_s": self.baseline_p99_s,
            "p99_inflation": self.p99_inflation,
        }


# --------------------------------------------------------------------------- #
# Heterogeneous-fleet accounting (chip shapes, shape-aware dispatch)
# --------------------------------------------------------------------------- #
@dataclass
class HeteroStats:
    """Shape-aware dispatch accounting of one heterogeneous serving run.

    Attached to a report only when the run had something shape-shaped to
    account: more than one distinct chip shape in the roster, or the
    ``shape-aware`` dispatch policy (which scores even a homogeneous
    fleet).  ``scored_batches`` counts dispatches ranked by the learned
    per-(shape, bucket) rates; ``fallback_batches`` counts dispatches that
    fell back to least-loaded because some candidate shape was still cold
    for the batch's profile bucket.

    ``misdispatch_s`` is the **time lost vs. the oracle-best shape**: for
    every served batch, the measured service time minus the best service
    time any shape in the roster was estimated to deliver (that shape's
    learned rate times the batch's measured fused size), clamped at zero
    and summed.  A perfectly-routed fleet reports ~0; a mixed fleet under
    shape-oblivious dispatch reports the chip-seconds a shape-aware policy
    could have saved.  It is an estimate -- the oracle is priced from the
    same EWMA rates the dispatcher learns -- which is what makes it cheap
    enough to compute on every batch.

    ``rates`` is the final ``"shape|bucket" -> seconds-per-fused-vertex``
    snapshot of the scorer (single-tenant) or the union over tenants'
    scorers keyed ``"tenant/shape|bucket"`` (multi-tenant).
    """

    shape_counts: Dict[str, int] = field(default_factory=dict)
    dispatch_policy: str = ""
    scored_batches: int = 0
    fallback_batches: int = 0
    misdispatch_s: float = 0.0
    rates: Dict[str, float] = field(default_factory=dict)

    def finalize(self, chip_shapes: Sequence[str], scorers: Dict) -> None:
        """Count the roster's chips per shape and snapshot each tenant's
        learned rates (``scorers``: tenant -> ShapeScorer); end of run."""
        for shape in chip_shapes:
            self.shape_counts[shape] = self.shape_counts.get(shape, 0) + 1
        for name, scorer in scorers.items():
            prefix = f"{name}/" if name else ""
            self.rates.update({prefix + key: rate for key, rate
                               in scorer.snapshot().items()})

    @property
    def scored_fraction(self) -> float:
        total = self.scored_batches + self.fallback_batches
        return self.scored_batches / total if total else 0.0

    def summary(self) -> Dict[str, object]:
        """One table row for the CLI's heterogeneity section."""
        return {
            "dispatch": self.dispatch_policy,
            "shapes": " ".join(f"{name}x{count}" for name, count
                               in sorted(self.shape_counts.items())),
            "scored_batches": self.scored_batches,
            "fallback_batches": self.fallback_batches,
            "scored_pct": round(100.0 * self.scored_fraction, 2),
            "misdispatch_ms": round(self.misdispatch_s * 1e3, 4),
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "shape_counts": dict(sorted(self.shape_counts.items())),
            "dispatch_policy": self.dispatch_policy,
            "scored_batches": self.scored_batches,
            "fallback_batches": self.fallback_batches,
            "scored_fraction": self.scored_fraction,
            "misdispatch_s": self.misdispatch_s,
            "rates_s_per_vertex": dict(sorted(self.rates.items())),
        }


# --------------------------------------------------------------------------- #
# Control-plane accounting (autoscaling, admission, degradation)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScaleEvent:
    """One fleet-shape change: a chip was added, warmed up, drained or retired.

    ``active``/``warming``/``draining`` are the fleet composition *after* the
    event, so the timeline is replayable without extra state.
    """

    time_s: float
    action: str  # "add" | "ready" | "drain" | "retire"
    chip_id: int
    active: int
    warming: int
    draining: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_s": self.time_s,
            "action": self.action,
            "chip_id": self.chip_id,
            "active": self.active,
            "warming": self.warming,
            "draining": self.draining,
        }


@dataclass(frozen=True)
class ControlSample:
    """One control-interval observation plus the policy's sizing decision."""

    time_s: float
    active: int
    warming: int
    draining: int
    desired_chips: int
    queue_depth: int
    arrival_rate_rps: float
    utilization: float
    est_queue_delay_s: float
    violations: int
    shed: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_s": self.time_s,
            "active": self.active,
            "warming": self.warming,
            "draining": self.draining,
            "desired_chips": self.desired_chips,
            "queue_depth": self.queue_depth,
            "arrival_rate_rps": self.arrival_rate_rps,
            "utilization": self.utilization,
            "est_queue_delay_s": self.est_queue_delay_s,
            "violations": self.violations,
            "shed": self.shed,
        }


@dataclass
class AdmissionStats:
    """Per-tenant admission-control outcome counters.

    ``offered`` counts requests that reached the admission gate (result-cache
    hits are answered before the gate and never appear here).  ``admitted``
    includes degraded admissions; ``degraded`` maps ladder level to count.
    """

    tenant: str = ""
    offered: int = 0
    admitted: int = 0
    shed_rate_limited: int = 0
    shed_overload: int = 0
    degraded: Dict[int, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        return self.shed_rate_limited + self.shed_overload

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded.values())

    @property
    def degraded_rate(self) -> float:
        return self.degraded_total / self.admitted if self.admitted else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed_rate_limited": self.shed_rate_limited,
            "shed_overload": self.shed_overload,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "degraded": {str(k): v for k, v in sorted(self.degraded.items())},
            "degraded_total": self.degraded_total,
        }


@dataclass
class ControlStats:
    """Everything the elastic control plane did during one run.

    The cost/benefit headline is ``chip_seconds_s`` (provisioned chip time,
    including warm-up) against the SLO violations and sheds the run recorded:
    an autoscaler earns its keep when it beats a fixed ``min_chips`` fleet on
    violations while holding fewer chip-seconds than a fixed ``max_chips``
    fleet.
    """

    policy: str
    min_chips: int
    max_chips: int
    control_interval_s: float
    warmup_s: float
    initial_chips: int
    final_chips: int = 0
    chip_seconds_s: float = 0.0
    warmup_chip_seconds_s: float = 0.0
    timeline: List[ScaleEvent] = field(default_factory=list)
    samples: List[ControlSample] = field(default_factory=list)
    admission: Dict[str, AdmissionStats] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.timeline if e.action == "add")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.timeline if e.action == "retire")

    @property
    def peak_chips(self) -> int:
        peak = self.initial_chips
        for e in self.timeline:
            peak = max(peak, e.active + e.warming)
        for s in self.samples:
            peak = max(peak, s.active + s.warming)
        return peak

    @property
    def total_shed(self) -> int:
        return sum(a.shed for a in self.admission.values())

    @property
    def total_degraded(self) -> int:
        return sum(a.degraded_total for a in self.admission.values())

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "chips_min_max": f"{self.min_chips}..{self.max_chips}",
            "initial_chips": self.initial_chips,
            "peak_chips": self.peak_chips,
            "final_chips": self.final_chips,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "chip_seconds_ms": round(self.chip_seconds_s * 1e3, 4),
            "warmup_chip_seconds_ms": round(self.warmup_chip_seconds_s * 1e3, 4),
            "shed": self.total_shed,
            "degraded": self.total_degraded,
        }

    def scaling_table(self) -> List[Dict[str, object]]:
        """One row per control interval: observation plus sizing decision."""
        return [
            {
                "t_ms": round(s.time_s * 1e3, 3),
                "active": s.active,
                "warming": s.warming,
                "draining": s.draining,
                "desired": s.desired_chips,
                "queue_depth": s.queue_depth,
                "arrival_rps": round(s.arrival_rate_rps, 1),
                "util_pct": round(100.0 * s.utilization, 1),
                "est_delay_ms": round(s.est_queue_delay_s * 1e3, 4),
                "violations": s.violations,
                "shed": s.shed,
            }
            for s in self.samples
        ]

    def admission_table(self) -> List[Dict[str, object]]:
        """One row per tenant: offered / admitted / shed / degraded."""
        rows = []
        for name in sorted(self.admission):
            a = self.admission[name]
            rows.append({
                "tenant": a.tenant or "-",
                "offered": a.offered,
                "admitted": a.admitted,
                "shed_rate_limited": a.shed_rate_limited,
                "shed_overload": a.shed_overload,
                "shed_pct": round(100.0 * a.shed_rate, 2),
                "degraded": a.degraded_total,
                "degraded_pct": round(100.0 * a.degraded_rate, 2),
            })
        return rows

    def timeline_text(self, width: int = 24) -> str:
        """ASCII fleet-size timeline: one line per control interval.

        ``#`` columns are active chips, ``~`` warming, ``-`` draining; the
        trailing numbers are queue depth and estimated queue delay.  This is
        the "plot" the docs and CLI show -- good enough to eyeball a ramp
        without a plotting stack.
        """
        lines = []
        for s in self.samples:
            bar = "#" * s.active + "~" * s.warming + "-" * s.draining
            lines.append(f"t={s.time_s * 1e3:9.3f}ms |{bar:<{width}}| "
                         f"chips={s.active}+{s.warming} queue={s.queue_depth:4d} "
                         f"delay={s.est_queue_delay_s * 1e3:8.3f}ms")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "min_chips": self.min_chips,
            "max_chips": self.max_chips,
            "control_interval_s": self.control_interval_s,
            "warmup_s": self.warmup_s,
            "initial_chips": self.initial_chips,
            "final_chips": self.final_chips,
            "peak_chips": self.peak_chips,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "chip_seconds_s": self.chip_seconds_s,
            "warmup_chip_seconds_s": self.warmup_chip_seconds_s,
            "timeline": [e.as_dict() for e in self.timeline],
            "samples": [s.as_dict() for s in self.samples],
            "admission": {name: a.as_dict()
                          for name, a in sorted(self.admission.items())},
        }


class _FleetTotals:
    """Members both report kinds derive alike from their ``completed``,
    ``makespan_s``, ``num_chips``, ``chips`` and ``control``."""

    @property
    def throughput_rps(self) -> float:
        span = self.makespan_s
        return self.completed / span if span > 0 else 0.0

    @property
    def chip_seconds_s(self) -> float:
        """Provisioned chip-seconds: control-plane accounting when present,
        ``num_chips * makespan`` for a fixed fleet."""
        if self.control is not None:
            return self.control.chip_seconds_s
        return self.num_chips * self.makespan_s

    @property
    def total_busy_s(self) -> float:
        """Chip-seconds actually *consumed* (sum of per-chip busy time).

        The counterpart of :attr:`chip_seconds_s` (the provisioned bill):
        dispatch quality moves this one even when the makespan is pinned by
        the arrival tail, which is why the heterogeneity acceptance runs
        compare on it.
        """
        return sum(c.busy_s for c in self.chips)

    def per_chip_table(self) -> List[Dict[str, object]]:
        """One row per chip: load share, busy time and utilisation."""
        return chip_utilization_rows(self.chips, self.makespan_s)

    def shape_table(self) -> List[Dict[str, object]]:
        """One row per chip shape: roster, load and service share
        (see :func:`shape_utilization_rows`; empty for an empty roster)."""
        return shape_utilization_rows(self.chips, self.makespan_s)


@dataclass
class ServingReport(_FleetTotals):
    """Everything the serving evaluation reports for one traffic run."""

    model_name: str
    dataset_name: str
    num_chips: int
    batch_policy: str
    dispatch_policy: str
    rate_rps: float
    slo_s: float
    records: List[RequestRecord] = field(default_factory=list)
    chips: List[ChipStats] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)
    avg_in_flight: float = 0.0
    max_queue_depth: int = 0
    control: Optional[ControlStats] = None
    batching: Optional[BatchingStats] = None
    hetero: Optional[HeteroStats] = None
    sharding: Optional[ShardingStats] = None
    #: Streaming-update accounting; ``None`` on static runs, and -- unlike
    #: the blocks above -- *absent* from ``to_dict()`` when ``None``, so
    #: pre-streaming golden exports stay byte-identical.
    consistency: Optional[ConsistencyStats] = None
    _latencies: np.ndarray = field(default=None, init=False, repr=False,
                                   compare=False)

    # ------------------------------------------------------------------ #
    # Derived latency / throughput metrics
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def latencies_s(self) -> np.ndarray:
        """Per-request latencies; computed once per records length (summary(),
        the percentile properties and the SLO counters all re-read this)."""
        if self._latencies is None or self._latencies.size != len(self.records):
            self._latencies = np.asarray([r.latency_s for r in self.records],
                                         dtype=np.float64)
        return self._latencies

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion."""
        if not self.records:
            return 0.0
        start = min(r.arrival_time_s for r in self.records)
        end = max(r.completion_time_s for r in self.records)
        return end - start

    @property
    def p50_latency_s(self) -> float:
        return percentile(self.latencies_s, 50)

    @property
    def p95_latency_s(self) -> float:
        return percentile(self.latencies_s, 95)

    @property
    def p99_latency_s(self) -> float:
        return percentile(self.latencies_s, 99)

    @property
    def mean_latency_s(self) -> float:
        lats = self.latencies_s
        return float(lats.mean()) if lats.size else 0.0

    @property
    def max_latency_s(self) -> float:
        lats = self.latencies_s
        return float(lats.max()) if lats.size else 0.0

    # ------------------------------------------------------------------ #
    # SLO accounting
    # ------------------------------------------------------------------ #
    @property
    def slo_violations(self) -> int:
        return int(np.count_nonzero(self.latencies_s > self.slo_s))

    @property
    def slo_violation_rate(self) -> float:
        return self.slo_violations / self.completed if self.completed else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of completed requests served inside the SLO (the load
        harness's pass/fail axis; 1.0 for an empty run)."""
        return 1.0 - self.slo_violation_rate

    # ------------------------------------------------------------------ #
    # Degradation accounting (elastic runs)
    # ------------------------------------------------------------------ #
    @property
    def degraded_requests(self) -> int:
        """Completed requests served at reduced sampling fidelity."""
        return sum(1 for r in self.records if r.degrade_level > 0)

    @property
    def degraded_rate(self) -> float:
        return self.degraded_requests / self.completed if self.completed else 0.0

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """One-row overview (latencies in milliseconds of simulated time)."""
        return {
            "model": self.model_name,
            "dataset": self.dataset_name,
            "chips": self.num_chips,
            "batching": self.batch_policy,
            "dispatch": self.dispatch_policy,
            "completed": self.completed,
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_latency_s * 1e3, 4),
            "p95_ms": round(self.p95_latency_s * 1e3, 4),
            "p99_ms": round(self.p99_latency_s * 1e3, 4),
            "slo_violation_pct": round(100.0 * self.slo_violation_rate, 2),
            "cache_hit_rate_pct": round(100.0 * self.cache.hit_rate, 2),
        }

    def latency_breakdown(self) -> Dict[str, float]:
        """Mean per-request time split: batching wait, queue wait, service."""
        misses = [r for r in self.records if not r.cache_hit]
        if not misses:
            return {"batching_wait_ms": 0.0, "queue_wait_ms": 0.0, "service_ms": 0.0}
        batching = float(np.mean([r.batching_wait_s for r in misses]))
        queue = float(np.mean([r.queue_wait_s for r in misses]))
        service = float(np.mean([r.completion_time_s - r.service_start_s
                                 for r in misses]))
        return {
            "batching_wait_ms": round(batching * 1e3, 4),
            "queue_wait_ms": round(queue * 1e3, 4),
            "service_ms": round(service * 1e3, 4),
        }

    # ------------------------------------------------------------------ #
    # Machine-readable export
    # ------------------------------------------------------------------ #
    def to_dict(self, include_records: bool = True) -> Dict[str, object]:
        """JSON-compatible dict of the full report (``serve --json``)."""
        payload: Dict[str, object] = {
            "kind": "serving_report",
            "model": self.model_name,
            "dataset": self.dataset_name,
            "num_chips": self.num_chips,
            "batch_policy": self.batch_policy,
            "dispatch_policy": self.dispatch_policy,
            "rate_rps": self.rate_rps,
            "slo_s": self.slo_s,
            "completed": self.completed,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "latency_s": {
                "p50": self.p50_latency_s,
                "p95": self.p95_latency_s,
                "p99": self.p99_latency_s,
                "mean": self.mean_latency_s,
                "max": self.max_latency_s,
            },
            "latency_breakdown_ms": self.latency_breakdown(),
            "slo_violations": self.slo_violations,
            "slo_violation_rate": self.slo_violation_rate,
            "degraded_requests": self.degraded_requests,
            "degraded_rate": self.degraded_rate,
            "chip_seconds_s": self.chip_seconds_s,
            "total_busy_s": self.total_busy_s,
            "avg_in_flight": self.avg_in_flight,
            "max_queue_depth": self.max_queue_depth,
            "cache": self.cache.as_dict(),
            "chips": [c.as_dict() for c in self.chips],
            "control": self.control.to_dict() if self.control else None,
            "batching": self.batching.as_dict() if self.batching else None,
            "hetero": self.hetero.as_dict() if self.hetero else None,
            "sharding": self.sharding.as_dict() if self.sharding else None,
        }
        if self.consistency is not None:
            payload["consistency"] = self.consistency.as_dict()
        if include_records:
            payload["records"] = [
                {
                    "request_id": r.request_id,
                    "target_vertex": r.target_vertex,
                    "arrival_time_s": r.arrival_time_s,
                    "dispatch_time_s": r.dispatch_time_s,
                    "service_start_s": r.service_start_s,
                    "completion_time_s": r.completion_time_s,
                    "latency_s": r.latency_s,
                    "cache_hit": r.cache_hit,
                    "chip_id": r.chip_id,
                    "batch_id": r.batch_id,
                    "tenant": r.tenant,
                    "degrade_level": r.degrade_level,
                }
                for r in self.records
            ]
        return payload


@dataclass
class MultiTenantReport(_FleetTotals):
    """Per-tenant slices plus the fairness / isolation metrics of one run.

    ``reports`` maps each tenant to a :class:`ServingReport` restricted to its
    own requests (so all the latency / SLO machinery applies per tenant).

    Fairness accounting distinguishes two views of chip time:

    * ``busy_s``           -- total simulated chip-seconds each tenant received;
    * ``contended_busy_s`` -- chip-seconds received from batches dispatched
      while *every* tenant still had work outstanding.  WFQ only promises
      weight-proportional service during contention (an idle tenant's unused
      share is redistributed), so fairness is judged on this view.

    ``solo`` holds the same tenants' reports from isolation baseline runs
    (each tenant alone on an identical fleet, identical traffic), which feed
    the cross-tenant p99-inflation metric.
    """

    num_chips: int
    tenants: List[str]
    weights: Dict[str, float]
    reports: Dict[str, "ServingReport"]
    busy_s: Dict[str, float] = field(default_factory=dict)
    contended_busy_s: Dict[str, float] = field(default_factory=dict)
    chips: List[ChipStats] = field(default_factory=list)
    solo: Dict[str, "ServingReport"] = field(default_factory=dict)
    scheduler: str = "wfq-drr"
    avg_in_flight: float = 0.0
    max_backlog_batches: int = 0
    control: Optional[ControlStats] = None
    hetero: Optional[HeteroStats] = None
    sharding: Optional[ShardingStats] = None
    #: Streaming-update accounting aggregated over every tenant's stream
    #: (absent from ``to_dict()`` when ``None`` -- see ServingReport).
    consistency: Optional[ConsistencyStats] = None

    # ------------------------------------------------------------------ #
    # Aggregates over all tenants
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.reports.values())

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion across every tenant."""
        records = [r for rep in self.reports.values() for r in rep.records]
        if not records:
            return 0.0
        return max(r.completion_time_s for r in records) \
            - min(r.arrival_time_s for r in records)

    # ------------------------------------------------------------------ #
    # Fairness: configured weight shares vs. measured service shares
    # ------------------------------------------------------------------ #
    def weight_share(self, tenant: str) -> float:
        total = sum(self.weights.values())
        return self.weights[tenant] / total if total > 0 else 0.0

    def service_share(self, tenant: str, contended: bool = True) -> float:
        """Fraction of (contended) chip-seconds this tenant received."""
        pool = self.contended_busy_s if contended else self.busy_s
        total = sum(pool.values())
        return pool.get(tenant, 0.0) / total if total > 0 else 0.0

    def fairness_table(self) -> List[Dict[str, object]]:
        """One row per tenant: configured vs. measured service share."""
        rows = []
        for name in self.tenants:
            want = self.weight_share(name)
            got = self.service_share(name, contended=True)
            rows.append({
                "tenant": name,
                "weight": self.weights[name],
                "weight_share_pct": round(100.0 * want, 2),
                "contended_share_pct": round(100.0 * got, 2),
                "total_share_pct": round(
                    100.0 * self.service_share(name, contended=False), 2),
                "share_error_pct": round(100.0 * abs(got - want), 2),
            })
        return rows

    # ------------------------------------------------------------------ #
    # Isolation: shared-fleet tails vs. running-alone tails
    # ------------------------------------------------------------------ #
    def p99_inflation(self, tenant: str) -> Optional[float]:
        """Shared-fleet p99 over run-alone p99 (``None`` without a baseline)."""
        solo = self.solo.get(tenant)
        if solo is None or solo.p99_latency_s <= 0:
            return None
        return self.reports[tenant].p99_latency_s / solo.p99_latency_s

    def isolation_table(self) -> List[Dict[str, object]]:
        """One row per tenant: shared vs. solo tail latency and SLO rates."""
        rows = []
        for name in self.tenants:
            shared = self.reports[name]
            solo = self.solo.get(name)
            inflation = self.p99_inflation(name)
            rows.append({
                "tenant": name,
                "shared_p99_ms": round(shared.p99_latency_s * 1e3, 4),
                "solo_p99_ms": round(solo.p99_latency_s * 1e3, 4)
                if solo else None,
                "p99_inflation_x": round(inflation, 3)
                if inflation is not None else None,
                "shared_slo_violation_pct": round(
                    100.0 * shared.slo_violation_rate, 2),
                "solo_slo_violation_pct": round(
                    100.0 * solo.slo_violation_rate, 2) if solo else None,
            })
        return rows

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def summary_table(self) -> List[Dict[str, object]]:
        """One row per tenant: traffic, latency percentiles, SLO, cache."""
        rows = []
        for name in self.tenants:
            rep = self.reports[name]
            rows.append({
                "tenant": name,
                "model": rep.model_name,
                "dataset": rep.dataset_name,
                "weight": self.weights[name],
                "rate_rps": round(rep.rate_rps, 1),
                "completed": rep.completed,
                "p50_ms": round(rep.p50_latency_s * 1e3, 4),
                "p95_ms": round(rep.p95_latency_s * 1e3, 4),
                "p99_ms": round(rep.p99_latency_s * 1e3, 4),
                "slo_ms": round(rep.slo_s * 1e3, 4),
                "slo_violation_pct": round(100.0 * rep.slo_violation_rate, 2),
                "cache_hit_rate_pct": round(100.0 * rep.cache.hit_rate, 2),
            })
        return rows

    def batching_table(self) -> List[Dict[str, object]]:
        """One row per tenant: formation policy, overlap ratio, late joins.

        Rows come from the per-tenant slices' :class:`BatchingStats`;
        tenants whose slice carries none (e.g. deserialised reports) are
        skipped.
        """
        rows = []
        for name in self.tenants:
            stats = self.reports[name].batching
            if stats is None:
                continue
            rows.append({"tenant": name, **stats.summary()})
        return rows

    # ------------------------------------------------------------------ #
    # Machine-readable export
    # ------------------------------------------------------------------ #
    def to_dict(self, include_records: bool = True) -> Dict[str, object]:
        """JSON-compatible dict of the full report (``serve --json``)."""
        payload: Dict[str, object] = {
            "kind": "multi_tenant_report",
            "num_chips": self.num_chips,
            "scheduler": self.scheduler,
            "tenants": list(self.tenants),
            "weights": dict(self.weights),
            "completed": self.completed,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "chip_seconds_s": self.chip_seconds_s,
            "total_busy_s": self.total_busy_s,
            "avg_in_flight": self.avg_in_flight,
            "max_backlog_batches": self.max_backlog_batches,
            "busy_s": dict(self.busy_s),
            "contended_busy_s": dict(self.contended_busy_s),
            "fairness": self.fairness_table(),
            "isolation": self.isolation_table(),
            "chips": [c.as_dict() for c in self.chips],
            "control": self.control.to_dict() if self.control else None,
            "hetero": self.hetero.as_dict() if self.hetero else None,
            "sharding": self.sharding.as_dict() if self.sharding else None,
            "reports": {name: rep.to_dict(include_records=include_records)
                        for name, rep in self.reports.items()},
            "solo": {name: rep.to_dict(include_records=False)
                     for name, rep in self.solo.items()},
        }
        if self.consistency is not None:
            payload["consistency"] = self.consistency.as_dict()
        return payload
