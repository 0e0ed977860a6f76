"""Sharded execution of one request across a multi-chip group.

The paper's Fig. 18 scales HyGCN by partitioning the graph over several
chips (Section 4.3.2's interval/shard tiling applied across dies).  This
module takes that story online: a *chip group* of ``num_shards`` chips
holds one dataset partitioned by vertex ownership
(:class:`~repro.graphs.partition.ShardPlan`), and every served batch is
split into per-shard **sub-batches** that execute concurrently on their
owning chips:

1. the sampler splits a batch's requests by the owner of their target
   vertex; each shard's sub-batch fuses (deduped union) and runs through
   the owning chip's ``Chip.execute``, the step an unsharded batch takes;
2. fused sub-batch vertices owned by *other* shards are **ghosts**: their
   features travel as modelled halo-exchange traffic -- a DRAM read at the
   owner plus a transfer over the :class:`InterconnectConfig` link
   (parameterised like :class:`repro.hw.dram.HBMConfig`: bandwidth in
   GB/s == bytes/ns, a per-message latency, a message payload size);
3. each chip keeps a **halo cache** (a
   :class:`~repro.serving.cache.FeatureCache` over ghost vertex ids,
   charged by :func:`~repro.serving.cache.charge_halo`) so hot ghost
   features are exchanged once while warm, with hit/byte accounting in
   :class:`~repro.serving.stats.ShardingStats`;
4. the batch completes at a **gather barrier**: max over shards of
   (exchange + compute), plus one gather transfer returning the non-leader
   shards' target outputs to the group leader (chip 0, the only
   schedulable chip of a sharded fleet).

Partitioners live behind the :data:`PARTITIONERS` registry (``hash``
baseline vs. ``locality`` greedy edge-cut minimiser, both in
:mod:`repro.graphs.partition`); plans are memoised process-wide in
:data:`_SHARD_PLAN_CACHE` (cleared by :func:`clear_shard_plan_cache`, the
test-isolation hook mirroring ``clear_probe_cache``).

A one-shard plan is a degenerate group: the fleet bypasses this module's
arithmetic entirely and the report is bit-for-bit identical to an
unsharded run (asserted in ``tests/serving/test_sharding.py``).  See
``docs/sharding.md`` for the cost model with a worked example.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.partition import (
    ShardPlan,
    build_shard_plan,
    hash_owner,
    hash_partition,
    locality_partition,
)
from .cache import FeatureCache, charge_halo
from .stats import ShardingStats

__all__ = [
    "PARTITIONERS",
    "InterconnectConfig",
    "ShardingConfig",
    "ShardExecutor",
    "ShardTiming",
    "shard_plan_for",
    "clear_shard_plan_cache",
]

logger = logging.getLogger("repro.serving.sharding")

#: Partitioner registry: name -> ``(graph, num_shards, seed) -> owner`` array.
#: ``hash`` is the locality-oblivious baseline; ``locality`` the LDG greedy
#: edge-cut minimiser the acceptance experiment measures against it.
PARTITIONERS = {
    "hash": hash_partition,
    "locality": locality_partition,
}


@dataclass(frozen=True)
class InterconnectConfig:
    """Chip-to-chip link model (the halo-exchange fabric).

    Parameterised like :class:`~repro.hw.dram.HBMConfig`: bandwidth is in
    GB/s, which equals bytes per nanosecond, so transfer time in ns is
    simply ``bytes / link_gbps``.  A transfer additionally pays
    ``latency_ns`` per message of up to ``message_bytes`` payload --
    small exchanges are latency-bound, large ones bandwidth-bound.
    """

    #: per-link bandwidth in GB/s (bytes/ns); PCIe-5 x16-ish by default,
    #: an order of magnitude under the 256 GB/s on-board HBM so crossing
    #: the cut is visibly more expensive than staying home.
    link_gbps: float = 24.0
    #: per-message latency in nanoseconds (serialisation + hop).
    latency_ns: float = 600.0
    #: maximum payload per message in bytes.
    message_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.link_gbps <= 0:
            raise ValueError("link_gbps must be positive")
        if self.latency_ns < 0:
            raise ValueError("latency_ns must be >= 0")
        if self.message_bytes < 1:
            raise ValueError("message_bytes must be >= 1")

    def transfer_time_s(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` over one link (0 bytes is free)."""
        if num_bytes <= 0:
            return 0.0
        messages = -(-int(num_bytes) // self.message_bytes)
        return (messages * self.latency_ns + num_bytes / self.link_gbps) * 1e-9


@dataclass(frozen=True)
class ShardingConfig:
    """Arming/tuning knobs of sharded execution (``--shards`` et al.).

    ``num_shards`` must equal the fleet's chip count (one shard per chip);
    ``halo_cache_mb`` sizes each chip's ghost-feature LRU in mebibytes
    (0 disables it); ``seed`` feeds the partitioner (only ``hash`` consumes
    it) and keys the plan memo.
    """

    num_shards: int
    partitioner: str = "locality"
    halo_cache_mb: float = 4.0
    interconnect: InterconnectConfig = InterconnectConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(
                f"partitioner must be one of {sorted(PARTITIONERS)}, "
                f"got {self.partitioner!r}")
        if self.halo_cache_mb < 0:
            raise ValueError("halo_cache_mb must be >= 0")


#: Shard-plan memo keyed on (graph identity, structure fingerprint, shards,
#: partitioner, seed).  Partitioning is pure preprocessing -- repeated runs
#: (benchmark sweeps, hash-vs-locality comparisons, per-tenant plans over a
#: shared dataset) pay for each plan once.  ``clear_shard_plan_cache`` is
#: the test-isolation hook (see ``tests/conftest.py``).
_SHARD_PLAN_CACHE: Dict[Tuple, ShardPlan] = {}


def clear_shard_plan_cache() -> None:
    """Drop all memoised shard plans (test isolation hook)."""
    _SHARD_PLAN_CACHE.clear()


def shard_plan_for(graph: Graph, config: ShardingConfig) -> ShardPlan:
    """The (memoised) :class:`ShardPlan` of ``graph`` under ``config``.

    The key includes ``id(graph)`` *and* the structural fingerprint
    (name, vertex and edge counts), so a recycled object id for a
    different graph cannot alias a stale plan.
    """
    key = (id(graph), graph.name, graph.num_vertices, graph.num_edges,
           config.num_shards, config.partitioner, config.seed)
    plan = _SHARD_PLAN_CACHE.get(key)
    if plan is None:
        owner = PARTITIONERS[config.partitioner](
            graph, config.num_shards, config.seed)
        plan = build_shard_plan(graph, owner,
                                partitioner=config.partitioner,
                                seed=config.seed)
        _SHARD_PLAN_CACHE[key] = plan
        logger.info(
            "partitioned %s into %d shards (%s): edge-cut %d/%d (%.1f%%), "
            "%d halo vertices", graph.name, plan.num_shards,
            plan.partitioner, plan.edge_cut, plan.num_edges,
            100.0 * plan.edge_cut_fraction, plan.halo_vertices)
    return plan


@dataclass(frozen=True)
class ShardTiming:
    """Cost breakdown of one shard's sub-batch (one span pair in traces)."""

    shard: int
    chip_id: int
    requests: int
    fused_vertices: int
    ghost_vertices: int
    halo_hits: int
    halo_misses: int
    exchange_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        return self.exchange_s + self.compute_s


class ShardExecutor:
    """Drives one batch across the chip group and accounts the exchange.

    One executor per (run, tenant): it owns the plan and the sampler/model
    binding, while ``stats`` and the per-chip ``halo_caches`` are fleet-wide
    and shared across tenants (each tenant's ghosts live in the ``tenant``
    namespace, as its feature-cache lines do).

    The executor never touches the event loop: the fleet calls
    :meth:`service_time_s` exactly where the unsharded path calls
    :func:`~repro.serving.fleet.fused_batch_service_time_s`, and everything
    else (dispatch, queues, completions) happens on the group leader.
    """

    def __init__(self, plan: ShardPlan, chips: Sequence, sampler, model,
                 dataset_name: str, config: ShardingConfig,
                 feature_bytes: int, stats: ShardingStats,
                 halo_caches: List[FeatureCache],
                 tenant: Optional[str] = None):
        if len(chips) < plan.num_shards:
            raise ValueError(
                f"chip group of {len(chips)} cannot host {plan.num_shards} "
                f"shards (need one chip per shard)")
        self.plan = plan
        self.chips = list(chips)[:plan.num_shards]
        self.sampler = sampler
        self.model = model
        self.dataset_name = dataset_name
        self.config = config
        #: bytes of one vertex's feature vector (feature_length * itemsize).
        self.feature_bytes = int(feature_bytes)
        self.stats = stats
        if not self.stats.shard_busy_s:
            self.stats.shard_busy_s = [0.0] * plan.num_shards
            self.stats.shard_requests = [0] * plan.num_shards
        self.stats.fold_plan(plan)
        self.halo_caches = halo_caches
        self.tenant = tenant
        #: armed by :class:`~repro.serving.streaming.StreamState` on
        #: mutating runs; ``None`` keeps the static fast path untouched.
        self.stream = None
        #: ownership array, possibly longer than ``plan.owner`` once
        #: streaming vertex inserts extend it (the plan stays frozen).
        self._owner = plan.owner

    # ------------------------------------------------------------------ #
    # Streaming-update hooks (called by StreamState; no-ops otherwise)
    # ------------------------------------------------------------------ #
    def extend_owner(self, vertex: int) -> int:
        """Assign ``vertex`` (and any gap below it) an owner by the hash
        rule -- exactly the shard a from-scratch :func:`hash_partition`
        repartition would pick, so targeted maintenance is consistent."""
        if vertex >= self._owner.size:
            new_ids = np.arange(self._owner.size, vertex + 1,
                                dtype=np.uint64)
            extension = hash_owner(new_ids, self.plan.num_shards,
                                   self.config.seed)
            self._owner = np.concatenate([self._owner, extension])
        return int(self._owner[vertex])

    def _owner_for(self, union: np.ndarray) -> np.ndarray:
        """Ownership lookup guarding against vertices the plan predates.

        Under the ``none`` invalidation policy new vertices are *not*
        assigned owners eagerly; the lazy extension here keeps the run
        from crashing and each occurrence counts as a shard-plan miss.
        """
        if union.size and int(union.max()) >= self._owner.size:
            missing = int(union.max()) + 1 - self._owner.size
            self.extend_owner(int(union.max()))
            if self.stream is not None:
                self.stream.note_shard_plan_miss(missing)
        return self._owner

    # ------------------------------------------------------------------ #
    def _halo_exchange_s(self, shard: int, ghosts: np.ndarray,
                         hbm_gbps: float,
                         now: float = 0.0) -> Tuple[float, int, int]:
        """Exchange time for ``ghosts`` arriving at ``shard``.

        Misses cost a DRAM read at the owner (``bytes / hbm_gbps`` ns) plus
        the interconnect transfer; hits are served from the halo cache for
        free.  Returns ``(seconds, hits, misses)``.  On mutating runs a
        line holds the ghost's feature version at insertion time, which is
        what lets a stale ghost served under the ``none`` policy count as
        ``stale_halo``.
        """
        hits = charge_halo(self.halo_caches[shard], ghosts, self.tenant,
                           self.stream, now)
        misses = ghosts.size - hits
        moved = misses * self.feature_bytes
        dram_s = moved / hbm_gbps * 1e-9 if moved else 0.0
        return dram_s + self.config.interconnect.transfer_time_s(moved), \
            hits, misses

    def service_time_s(self, batch, reuse_discount: float,
                       now: float = 0.0) -> float:
        """Simulated group service time of ``batch`` (the gather barrier).

        Splits the batch by target ownership, runs every shard's fused
        sub-batch on its chip, prices the halo exchange each sub-batch
        needs, and returns ``max_s(exchange_s + compute_s) + gather_s``.
        Stamps the batch exactly like the unsharded path
        (``fused_vertices`` / ``naive_vertices`` / ``overlap_ratio`` /
        ``phase_cycles``, summed over shards) plus ``shard_timings`` for
        the observability layer's sub-batch spans.
        """
        plan = self.plan
        targets = np.asarray([r.target_vertex for r in batch.requests],
                             dtype=np.int64)
        owner = self._owner_for(targets)
        groups: Dict[int, List] = {}
        for request in batch.requests:
            groups.setdefault(int(owner[request.target_vertex]),
                              []).append(request)
        prefix = f"{batch.tenant}-" if batch.tenant else ""
        timings: List[ShardTiming] = []
        phase_cycles: Dict[str, int] = {}
        fused_total = naive_total = 0
        for shard in sorted(groups):
            requests = groups[shard]
            chip = self.chips[shard]
            fused, naive, distinct = self.sampler.fuse_requests(
                requests, name=f"{prefix}batch{batch.batch_id}s{shard}")
            union = fused.vertex_ids if distinct == 1 else \
                np.unique(fused.vertex_ids)
            owner = self._owner_for(union)
            ghosts = union[owner[union] != shard]
            exchange_s, hits, misses = self._halo_exchange_s(
                shard, ghosts, chip.hw.hbm.peak_bandwidth_gbps, now=now)
            # the union is put in ascending order (a lone sample: its own)
            compute_s, phases = chip.execute(
                self.model, fused, union, self.dataset_name, reuse_discount,
                self.tenant, self.stream, now)
            phase_cycles = {phase: phase_cycles.get(phase, 0) + cycles
                            for phase, cycles in phases.items()}
            timings.append(ShardTiming(
                shard=shard, chip_id=chip.chip_id, requests=len(requests),
                fused_vertices=fused.num_vertices,
                ghost_vertices=int(ghosts.size),
                halo_hits=hits, halo_misses=misses,
                exchange_s=exchange_s, compute_s=compute_s))
            fused_total += fused.num_vertices
            naive_total += naive
        batch.fused_vertices = fused_total
        batch.naive_vertices = naive_total
        batch.overlap_ratio = 1.0 - fused_total / naive_total \
            if naive_total else 0.0
        batch.phase_cycles = phase_cycles
        batch.shard_timings = timings
        # the gather barrier: non-leader shards return their targets'
        # output features to the group leader over the interconnect
        gather_bytes = sum(t.requests for t in timings if t.shard != 0) \
            * self.feature_bytes
        gather_s = self.config.interconnect.transfer_time_s(gather_bytes)
        service_s = max(t.total_s for t in timings) + gather_s
        stats = self.stats
        stats.sharded_batches += 1
        stats.sub_batches += len(timings)
        stats.gather_s += gather_s
        for t in timings:
            stats.halo_lookups += t.ghost_vertices
            stats.halo_hits += t.halo_hits
            stats.halo_bytes_moved += t.halo_misses * self.feature_bytes
            stats.halo_bytes_saved += t.halo_hits * self.feature_bytes
            stats.exchange_s += t.exchange_s
            stats.shard_busy_s[t.shard] += t.total_s
            stats.shard_requests[t.shard] += t.requests
            # member chips do real work off the leader's clock: account
            # their busy time manually (the leader's own busy_s is the
            # full barrier time, added by the event loop)
            if t.shard != 0:
                self.chips[t.shard].stats.busy_s += t.total_s
                self.chips[t.shard].stats.batches_served += 1
                self.chips[t.shard].stats.requests_served += t.requests
        return service_s
