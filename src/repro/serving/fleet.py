"""Multi-accelerator fleet simulation driven by a discrete-event clock.

The fleet is ``num_chips`` independent :class:`~repro.core.simulator.HyGCNSimulator`
instances.  One event loop (:class:`_FleetSimulator`) serves both front
ends: :class:`ServingSimulator` runs one anonymous tenant, and
:class:`~repro.serving.tenancy.MultiTenantSimulator` runs several.  Each
tenant's sampler, batcher, result cache and probe-derived time scales live
in a :class:`TenantRuntime`.  The loop advances a simulated clock over
three main event kinds:

* ``arrival``    -- a request enters: either answered by its tenant's result
  cache, late-joined into a formed-but-unstarted batch (``continuous``
  formation, :mod:`repro.serving.batching`) or handed to the tenant's
  batcher (which may emit a batch immediately on its size cap);
* ``flush``      -- a batching-policy deadline fired (timeout / SLO budget);
  formation policies may emit an overlap group and keep the rest pending,
  so the loop re-arms the flush timer after every emission;
* ``completion`` -- a chip finished a batch: its requests complete, the
  result cache is populated, and the chip takes its next batch.

Above the loop, one run body (:meth:`_FleetSimulator._run`) serves the
stream -- an empty one too, so updates alone are applied -- cuts one
report slice per tenant and closes the stats.  The two front ends differ
only in how they wrap the slices and in *when a formed batch is bound to
a chip*, which a small dispatch stage decides:

* **push** (:class:`ServingSimulator`) -- a dispatch policy binds the batch
  to a chip the moment it forms, onto that chip's private FIFO;
* **pull** (multi-tenant) -- batches wait in the :class:`WFQScheduler`
  and a chip takes the next one in fair-share order when it frees up.

A batch's *service time* is the simulated execution time reported by
:class:`~repro.core.stats.SimulationReport` for the **deduped fused
subgraph** of the batch (shared neighbourhood vertices are streamed and
aggregated once -- see
:meth:`~repro.serving.sampler.SubgraphSampler.fuse`), discounted by
per-chip feature reuse: each chip keeps an LRU of the vertex features it
recently streamed, modelling the DRAM traffic a warm chip avoids when
consecutive batches overlap (which is what the locality-aware dispatch
policy tries to maximise, and what the overlap-aware formation policies
in :mod:`repro.serving.batching` maximise *within* a batch).

Dispatch policies:

* ``round-robin``  -- cycle through the chips (oblivious, perfectly fair);
* ``least-loaded`` -- pick the chip with the fewest outstanding requests;
* ``locality``     -- route by the batch's majority vertex partition, trading
  load balance for feature-cache reuse;
* ``shape-aware``  -- heterogeneous fleets (:mod:`repro.serving.hetero`):
  rank schedulable chips by predicted finish time, where each chip's
  predicted service is its shape's learned seconds-per-fused-vertex for
  the batch's profile bucket; falls back to least-loaded while any
  candidate shape is still cold for that bucket.

:class:`WFQScheduler` is the pull stage's weighted fair queueing: deficit
round-robin over per-tenant backlog queues, with each batch's cost being
its estimated fused service time, so chip-time (not batch count) is what
gets shared in proportion to tenant weights.

With a :class:`~repro.serving.control.ControlConfig` armed the fleet becomes
*elastic*: one :class:`FleetScaler` is the run's control plane.  Chips move
through a warming -> active -> draining -> retired lifecycle under its
autoscaling decisions, arrivals pass its admission/degradation gate before
batching, and the report carries its scaling timeline plus chip-seconds
accounting.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from collections import deque

import numpy as np
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.config import HyGCNConfig
from ..core.simulator import HyGCNSimulator
from ..graphs.datasets import load_dataset
from ..graphs.delta import DeltaGraph
from ..graphs.graph import Graph
from ..models.model_zoo import build_model
from .batcher import Batch
from .batching import (
    ALL_BATCH_POLICIES,
    build_batch_policy,
    make_signature_fn,
    resolve_signature_hops,
)
from .cache import FeatureCache, LRUCache, charge_features
from .control import (
    AdmissionDecision,
    AutoscalePolicy,
    ControlConfig,
    ControlObservation,
    DegradeLevel,
    TokenBucket,
    build_autoscale_policy,
    default_degradation_ladder,
)
from .hetero import (
    DEFAULT_SHAPE,
    BatchProfile,
    FleetSpec,
    ShapeChooser,
    ShapeScorer,
    account_batch_service,
    make_profile_fn,
)
from .sampler import SubgraphSampler
from .sharding import ShardExecutor, ShardingConfig, shard_plan_for
from .stats import (
    AdmissionStats,
    BatchingStats,
    ChipStats,
    ConsistencyStats,
    ControlSample,
    ControlStats,
    HeteroStats,
    RequestRecord,
    ScaleEvent,
    ServingReport,
    ShardingStats,
    percentile,
)
from .streaming import StreamState, UpdateStream, generate_update_stream, \
    parse_update_mix
from .workload import Request, RequestGenerator, WorkloadConfig, trace_arrival_times

__all__ = [
    "DISPATCH_POLICIES",
    "FleetConfig",
    "Chip",
    "ServingSimulator",
    "TenantRuntime",
    "WFQScheduler",
    "run_serving",
    "clear_probe_cache",
    "probe_targets",
]

#: Dispatch-policy names accepted by the CLI and :class:`FleetConfig`.
DISPATCH_POLICIES = ("round-robin", "least-loaded", "locality", "shape-aware")

_ARRIVAL, _FLUSH, _COMPLETION, _CONTROL, _CHIP_READY, _METRICS, _UPDATE = \
    0, 1, 2, 3, 4, 5, 6

logger = logging.getLogger("repro.serving.fleet")

#: EWMA weight of the running cost/overlap estimates (per request for the
#: control plane, per fused vertex for the WFQ stage's batch prices).
_COST_EWMA_ALPHA = 0.3

#: Adaptive defaults, as multiples of the probe-batch service time: a batch
#: may wait about two service times before a timeout flush, and the latency
#: SLO is ten service times (queueing + batching headroom over raw service).
_TIMEOUT_SERVICE_MULTIPLE = 2.0
_SLO_SERVICE_MULTIPLE = 10.0
#: The control loop observes every couple of batches; a commissioned chip
#: warms up for a few batch times before it serves (weight streaming,
#: cache fill).
_CONTROL_INTERVAL_SERVICE_MULTIPLE = 2.0
_WARMUP_SERVICE_MULTIPLE = 4.0
#: Auto-sized token buckets refill at this multiple of the tenant's share of
#: fleet capacity: the bucket is the *coarse* gate (sustained gross overload),
#: while the SLO-budget check does the precision shedding/degrading, so the
#: contract is set above nominal capacity to let bursts through.
_ADMISSION_AUTO_HEADROOM = 1.5
#: Simulated latency of a request answered from the result cache.
_CACHE_HIT_LATENCY_S = 1e-6


@dataclass(frozen=True)
class FleetConfig:
    """Structural and policy parameters of the serving deployment.

    ``batch_timeout_s`` and ``slo_s`` default to ``None``, meaning the
    simulator derives them from a probe batch's service time so the policies
    stay meaningful across datasets whose per-batch cost varies by orders of
    magnitude; pass explicit values to pin them.

    ``batch_policy`` accepts the flush-trigger trio (``size`` / ``timeout``
    / ``slo``) and the formation trio (``fifo`` / ``overlap`` /
    ``continuous``, see :mod:`repro.serving.batching`).  The overlap knobs
    only matter for the formation policies: ``overlap_k`` is the hop depth
    of the neighbourhood signatures (``None`` = 1, capped to ``num_hops``),
    ``min_overlap`` the similarity floor for growing a group (0 disables),
    ``pool_factor`` sizes the formation pool (``pool_factor *
    max_batch_size`` pending requests before a forced flush), and
    ``join_window_s`` / ``staleness_s`` are the continuous-batching
    budgets (``None`` = adaptive: the batch timeout, and half the SLO).

    ``fleet_spec`` makes the fleet *heterogeneous*
    (:mod:`repro.serving.hetero`): each chip takes the shape the spec's
    roster assigns it, and ``num_chips`` is derived from the spec (the
    configured value is overridden).  Without a spec every chip runs
    ``hw``.  The ``shape-aware`` dispatch policy works on either -- on a
    homogeneous fleet it degenerates to backlog comparison.

    ``sharding`` turns the fleet into a *chip group* executing every batch
    across all chips (:mod:`repro.serving.sharding`): the dataset is
    partitioned one shard per chip, so ``num_chips`` must equal
    ``sharding.num_shards``; chip 0 is the group leader (the only
    schedulable chip) and the rest serve sub-batches off its clock.
    Incompatible with the elastic control plane (a group cannot grow or
    shrink mid-run).
    """

    num_chips: int = 4
    dispatch: str = "round-robin"
    batch_policy: str = "size"
    max_batch_size: int = 32
    batch_timeout_s: Optional[float] = None
    slo_s: Optional[float] = None
    cache_size: int = 4096
    num_hops: int = 2
    fanout: int = 8
    feature_cache_size: int = 8192
    reuse_discount: float = 0.35
    overlap_k: Optional[int] = None
    min_overlap: float = 0.0
    pool_factor: int = 4
    join_window_s: Optional[float] = None
    staleness_s: Optional[float] = None
    seed: int = 0
    hw: HyGCNConfig = field(default_factory=HyGCNConfig)
    fleet_spec: Optional[FleetSpec] = None
    sharding: Optional[ShardingConfig] = None

    def __post_init__(self) -> None:
        if self.fleet_spec is not None:
            # the spec's roster *is* the fleet: its size wins
            object.__setattr__(self, "num_chips", self.fleet_spec.num_chips)
        if self.num_chips < 1:
            raise ValueError("num_chips must be >= 1")
        if self.dispatch not in DISPATCH_POLICIES:
            raise ValueError(f"dispatch must be one of {DISPATCH_POLICIES}, "
                             f"got {self.dispatch!r}")
        if self.batch_policy not in ALL_BATCH_POLICIES:
            raise ValueError(f"batch_policy must be one of {ALL_BATCH_POLICIES}, "
                             f"got {self.batch_policy!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.num_hops < 0:
            raise ValueError("num_hops must be >= 0")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if not 0 <= self.reuse_discount < 1:
            raise ValueError("reuse_discount must be in [0, 1)")
        if self.cache_size < 0 or self.feature_cache_size < 0:
            raise ValueError("cache sizes must be >= 0")
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive when set")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive when set")
        if self.overlap_k is not None and self.overlap_k < 0:
            raise ValueError("overlap_k must be >= 0 when set")
        if not 0.0 <= self.min_overlap <= 1.0:
            raise ValueError("min_overlap must be in [0, 1]")
        if self.pool_factor < 1:
            raise ValueError("pool_factor must be >= 1")
        if self.join_window_s is not None and self.join_window_s <= 0:
            raise ValueError("join_window_s must be positive when set")
        if self.staleness_s is not None and self.staleness_s <= 0:
            raise ValueError("staleness_s must be positive when set")
        if self.sharding is not None \
                and self.sharding.num_shards != self.num_chips:
            raise ValueError(
                f"sharded execution needs one chip per shard: "
                f"num_chips={self.num_chips} but "
                f"sharding.num_shards={self.sharding.num_shards}")

    @property
    def signature_hops(self) -> int:
        """Resolved signature depth (see
        :func:`repro.serving.batching.resolve_signature_hops`)."""
        return resolve_signature_hops(self.overlap_k, self.num_hops)

    # ------------------------------------------------------------------ #
    # Chip shapes (heterogeneous fleets, repro.serving.hetero)
    # ------------------------------------------------------------------ #
    @property
    def base_shape(self) -> str:
        """Shape label of homogeneous chips: ``balanced`` when ``hw`` is the
        Table 6 default, ``custom`` for a hand-built config."""
        return DEFAULT_SHAPE if self.hw == HyGCNConfig() else "custom"

    def chip_roster(self) -> List[Tuple[str, HyGCNConfig]]:
        """One ``(shape name, hw config)`` per chip, in chip-id order."""
        if self.fleet_spec is not None:
            return self.fleet_spec.roster()
        return [(self.base_shape, self.hw)] * self.num_chips

    def distinct_shapes(self) -> Dict[str, HyGCNConfig]:
        """Shape name -> hw config, in roster order (deterministic)."""
        if self.fleet_spec is not None:
            return self.fleet_spec.distinct_shapes()
        return {self.base_shape: self.hw}

    @property
    def heterogeneous(self) -> bool:
        """True when the roster mixes more than one chip shape."""
        return len(self.distinct_shapes()) > 1


class Chip:
    """One simulated HyGCN instance: FIFO queue, busy state, feature cache.

    Elastic runs drive a chip through a lifecycle: ``warming`` (commissioned,
    consuming chip-seconds, serving nothing) -> ``active`` (schedulable) ->
    ``draining`` (finishes outstanding work, accepts no new batches) ->
    ``retired``.  Fixed-fleet chips stay ``active`` for the whole run.
    """

    def __init__(self, chip_id: int, hw: HyGCNConfig, feature_cache_size: int,
                 shape: str = DEFAULT_SHAPE):
        self.chip_id = chip_id
        self.hw = hw
        self.shape = shape
        self.simulator = HyGCNSimulator(hw)
        #: push dispatch only: ``(batch, tenant runtime)`` awaiting service
        self.queue: Deque[Tuple[Batch, "TenantRuntime"]] = deque()
        self.current: Optional[Batch] = None
        self.feature_cache = FeatureCache(feature_cache_size)
        self.stats = ChipStats(chip_id=chip_id, shape=shape)
        self.state = "active"
        self.added_s = 0.0
        self.ready_s = 0.0
        self.retired_s: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.current is not None

    @property
    def schedulable(self) -> bool:
        """True while the chip accepts new batches."""
        return self.state == "active"

    @property
    def outstanding_requests(self) -> int:
        queued = sum(batch.size for batch, _ in self.queue)
        return queued + (self.current.size if self.current else 0)

    def execute(self, model, fused, put_order: np.ndarray, dataset_name: str,
                reuse_discount: float, tenant: Optional[str] = None,
                stream=None, now: float = 0.0):
        """Run ``fused`` on this chip; returns ``(service_s, phase_cycles)``.

        The one execution step of an unsharded batch and of a shard's
        sub-batch: the cycle model, then the feature-cache charge of the
        fused vertices in ``put_order`` (in ``tenant``'s namespace), then
        the reuse discount -- the hit fraction shortens the simulated time
        by up to ``reuse_discount``, as warm features skip their DRAM
        stream -- and the chip's accounting.  ``phase_cycles`` is the cycle
        model's phase breakdown, which the batch's trace span carries (see
        :mod:`repro.serving.observe`).
        """
        report = self.simulator.run_model(model, fused,
                                          dataset_name=dataset_name)
        hits = charge_features(self.feature_cache, put_order, tenant, stream,
                               now)
        lookups = put_order.size
        self.stats.vertices_simulated += fused.num_vertices
        self.stats.feature_lookups += lookups
        self.stats.feature_hits += hits
        reuse_fraction = hits / lookups if lookups else 0.0
        return report.execution_time_s \
            * (1.0 - reuse_discount * reuse_fraction), {
                "total": report.total_cycles,
                "aggregation": report.aggregation_cycles,
                "combination": report.combination_cycles,
                "dram_busy": report.dram_stats.busy_cycles,
            }


class _RoundRobinDispatch:
    """Cycle through the schedulable chips in call order.

    Oblivious and perfectly fair in *batch count* (not chip time).  The
    rotation counter advances over whatever chip list the event loop passes
    (draining/retired chips are already filtered out), so on an elastic
    fleet the cycle simply re-wraps over the surviving roster.
    Deterministic: the counter is the only state.
    """

    def __init__(self) -> None:
        self._next = 0

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        chip = chips[self._next % len(chips)]
        self._next += 1
        return chip


class _LeastLoadedDispatch:
    """Pick the schedulable chip with the fewest outstanding *requests*.

    Outstanding = queued + in service, counted in requests (not batches,
    not estimated seconds), so a chip holding one giant batch looks as
    loaded as one holding many small ones.  Ties break on the lowest chip
    id, which is what makes the policy bit-for-bit deterministic and what
    the shape-aware policy's cold-bucket fallback inherits.
    """

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        return min(chips, key=lambda c: (c.outstanding_requests, c.chip_id))


class _LocalityDispatch:
    """Route each batch to the home chip of its majority vertex partition.

    Vertices are striped into ``num_chips`` contiguous partitions of the
    base graph's id space; each batch votes with its requests' target
    vertices and goes to the partition winner's chip (ties break on the
    lower partition id).  Trades load balance for per-chip feature-cache
    reuse.  On an elastic fleet the partition map is frozen at the initial
    fleet size and out-of-range homes clamp to the last chip.
    """

    def __init__(self, num_vertices: int, num_chips: int):
        self._partition_size = max(1, -(-num_vertices // num_chips))

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        votes: Dict[int, int] = {}
        for request in batch.requests:
            home = min(request.target_vertex // self._partition_size, len(chips) - 1)
            votes[home] = votes.get(home, 0) + 1
        winner = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        return chips[winner]


class _ShapeAwareDispatch:
    """Route each batch to the chip shape that serves its profile fastest.

    Every candidate chip is scored with a predicted finish time::

        backlog(chip) + rate(chip.shape, bucket) * est_fused_vertices

    where ``bucket`` is the batch's :class:`~repro.serving.hetero.\
    BatchProfile` bucket, ``rate`` the scorer's learned seconds per fused
    vertex and ``backlog`` the same prediction summed over the chip's
    queued and in-service batches (their stamped profiles).  The minimum
    wins; ties break on outstanding requests then chip id, so a
    homogeneous fleet (all rates equal) degenerates to exactly
    least-loaded.

    While *any* candidate shape is still cold for the bucket (no probe
    seed, no observation) the whole decision falls back to least-loaded --
    scoring a partial roster would systematically favour the warmed-up
    shapes regardless of fit.  Both paths are counted into ``stats``, the
    run's :class:`~repro.serving.stats.HeteroStats`.
    Deterministic: profiles and rates are seeded-sampler / event-order
    state, and every tie-break is total.
    """

    def __init__(self, scorer: ShapeScorer, profile_fn):
        self.scorer = scorer
        self._profile_fn = profile_fn
        self._fallback = _LeastLoadedDispatch()
        self.stats = HeteroStats()

    def _est_s(self, chip: Chip, batch: Batch) -> float:
        """Predicted service seconds of ``batch`` on ``chip``.

        A queued batch can lose its stamp mid-queue (a continuous late
        join invalidates it); re-profile the current membership rather
        than undercounting the backlog of exactly the chips holding the
        freshest, largest batches.
        """
        profile = batch.profile
        if profile is None:
            profile = batch.profile = self._profile_fn(batch)
        return self.scorer.rate_or_default(chip.shape, profile.bucket) \
            * profile.est_fused_vertices

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        if batch.profile is None:
            batch.profile = self._profile_fn(batch)
        bucket = batch.profile.bucket
        self.scorer.note_demand(bucket)
        shapes = sorted({c.shape for c in chips})
        if not self.scorer.warm(shapes, bucket):
            self.stats.fallback_batches += 1
            return self._fallback.select(chips, batch)
        self.stats.scored_batches += 1

        def predicted_finish_s(chip: Chip) -> float:
            backlog = sum(self._est_s(chip, queued) for queued, _ in chip.queue)
            if chip.current is not None:
                backlog += self._est_s(chip, chip.current)
            return backlog + self.scorer.rate(chip.shape, bucket) \
                * batch.profile.est_fused_vertices

        return min(chips, key=lambda c: (predicted_finish_s(c),
                                         c.outstanding_requests, c.chip_id))


def _build_dispatch(policy: str, num_vertices: int, num_chips: int,
                    scorer: Optional[ShapeScorer] = None,
                    profile_fn=None):
    if policy == "round-robin":
        return _RoundRobinDispatch()
    if policy == "least-loaded":
        return _LeastLoadedDispatch()
    if policy == "locality":
        return _LocalityDispatch(num_vertices, num_chips)
    if policy == "shape-aware":
        if scorer is None or profile_fn is None:
            raise ValueError("shape-aware dispatch needs a ShapeScorer and "
                             "a profile function")
        return _ShapeAwareDispatch(scorer, profile_fn)
    raise ValueError(f"unknown dispatch policy {policy!r}; "
                     f"choose from {DISPATCH_POLICIES}")


# --------------------------------------------------------------------------- #
# Shared service-time model (single- and multi-tenant paths)
# --------------------------------------------------------------------------- #
def fused_batch_service_time_s(chip: Chip, sampler, model, batch: Batch,
                               dataset_name: str, reuse_discount: float,
                               tenant: Optional[str] = None,
                               stream=None, now: float = 0.0) -> float:
    """Simulated execution time of the fused subgraph batch on ``chip``.

    Requests for the same target (and sampling shape) within a batch share
    one subgraph, and distinct samples fuse into the **deduped union**
    (:meth:`~repro.serving.sampler.SubgraphSampler.fuse`): a vertex sampled
    by several members is streamed and aggregated once, which is the work
    reduction the overlap-aware formation policies exist to maximise.  The
    batch is stamped with ``fused_vertices`` / ``naive_vertices`` /
    ``overlap_ratio`` so the cost models and :class:`BatchingStats` see the
    measured dedup, not an estimate.

    The fused graph runs through :meth:`Chip.execute`, whose feature-cache
    hit fraction further discounts the simulated time by up to
    ``reuse_discount``.  The put order is the fused graph's vertex ids,
    which are distinct and in first-seen order over the batch's samples.
    ``tenant`` names the feature-cache namespace -- multi-tenant serving
    passes the tenant's name so numerically-aliasing vertex ids from
    different tenants' graphs never share cache entries.

    Degraded requests (control-plane ladder) carry per-request hop/fanout
    overrides; subgraph *sharing* requires both the target and the sampling
    shape to match, so a degraded and a full-fidelity request for the same
    vertex contribute two distinct samples -- whose union still dedups the
    neighbourhood they have in common.
    """
    prefix = f"{batch.tenant}-" if batch.tenant else ""
    fused, naive_vertices, _ = sampler.fuse_requests(
        batch.requests, name=f"{prefix}batch{batch.batch_id}")
    batch.fused_vertices = fused.num_vertices
    batch.naive_vertices = naive_vertices
    batch.overlap_ratio = 1.0 - fused.num_vertices / naive_vertices \
        if naive_vertices else 0.0
    service_s, batch.phase_cycles = chip.execute(
        model, fused, fused.vertex_ids, dataset_name, reuse_discount, tenant,
        stream, now)
    return service_s


#: Probe-service memo, keyed on everything that determines the probe result:
#: hardware config, model, dataset, batch shape, sampling shape and seed.
#: Multi-tenant startup probes once per tenant and every scale-up event would
#: otherwise re-run the probe for its adaptive warm-up; the memo makes those
#: lookups free.  ``clear_probe_cache`` is the test hook.
_PROBE_CACHE: Dict[Tuple, float] = {}


def clear_probe_cache() -> None:
    """Drop all memoised probe-batch service times (test isolation hook)."""
    _PROBE_CACHE.clear()


def probe_targets(num_vertices: int, max_batch_size: int,
                  seed: int) -> np.ndarray:
    """The distinct uniformly-drawn target vertices of the probe batch.

    Shared by :func:`probe_batch_service_time_s` and the tenancy layer's
    fused-size cost seeding so both always describe the *same* probe batch.
    """
    num = min(max_batch_size, num_vertices)
    rng = np.random.default_rng(seed)
    return rng.choice(num_vertices, size=num, replace=False)


def probe_batch_service_time_s(hw: HyGCNConfig, sampler, model,
                               dataset_name: str, max_batch_size: int,
                               num_vertices: int, seed: int) -> float:
    """Service time of one full batch of distinct uniformly-drawn targets.

    The probe calibrates arrival rates and resolves the adaptive timeout /
    SLO defaults.  It runs on throwaway state -- a cold chip and a
    memo-less copy of ``sampler`` (same graph, shape and seed, so the same
    samples) -- so it never perturbs the fleet's caches, accounting or the
    run sampler's memos, and a probe-memo hit leaves the run exactly as a
    probe that executes.  Results are memoised on
    (hw, model, dataset, batch shape, sampling shape, seed) -- the probe is
    deterministic in exactly those inputs -- so repeated startups and
    scale-up events pay for it once per configuration.
    """
    num = min(max_batch_size, num_vertices)
    # the graph version belongs in the key: a mutating graph changes the
    # probe batch's neighbourhoods under a stable (dataset, shape) tuple,
    # which silently served stale probe times before streaming landed
    key = (repr(hw), getattr(model, "name", model.__class__.__name__),
           dataset_name, num, num_vertices,
           sampler.num_hops, sampler.fanout, seed,
           getattr(sampler.graph, "version", None))
    cached = _PROBE_CACHE.get(key)
    if cached is not None:
        return cached
    targets = probe_targets(num_vertices, max_batch_size, seed)
    probe = Batch(batch_id=-1, requests=[
        Request(request_id=-1 - i, target_vertex=int(t), arrival_time_s=0.0)
        for i, t in enumerate(targets)], created_time_s=0.0)
    probe_sampler = SubgraphSampler(sampler.graph, num_hops=sampler.num_hops,
                                    fanout=sampler.fanout, seed=sampler.seed,
                                    memo_size=0)
    service_s = fused_batch_service_time_s(
        Chip(-1, hw, feature_cache_size=0), probe_sampler, model, probe,
        dataset_name=dataset_name, reuse_discount=0.0)
    _PROBE_CACHE[key] = service_s
    return service_s


class FleetScaler:
    """The elastic control plane of one run.

    Built only on elastic runs, from the :class:`ControlConfig` and the
    runtimes' probe-calibrated time scales, it owns the autoscaling policy,
    each tenant's token bucket and degradation ladder, the
    :class:`ControlStats` it fills, and all it observes: the admission
    backlog, the interval's counters, the busy-time snapshot and the
    per-request cost EWMA.  The loop calls it at arrivals, cache misses
    (:meth:`admit`), service starts, completions and the ``_CONTROL`` /
    ``_CHIP_READY`` events, which the scaler pushes itself.  Scale-downs
    drain the victim the dispatch stage picks; on a heterogeneous fleet a
    :class:`~repro.serving.hetero.ShapeChooser` picks the shape each
    scale-up adds and each scale-down drains.
    """

    def __init__(self, config: ControlConfig, fleet: FleetConfig,
                 chips: List[Chip], runtimes: Sequence[TenantRuntime],
                 shapes: Dict[str, HyGCNConfig], push, drain_victim,
                 t0: float, observe=None):
        self.config = config
        self.chips = chips
        self._fleet = fleet
        self._runtimes = runtimes
        self._shapes = shapes
        self._push = push           # (time_s, kind, payload) -> None
        self._observe = observe     # the loop's Instrumentation, or None
        # fleet-wide per-request cost EWMA for the sizing policies
        self._cost_per_request_s = float(np.mean(
            [rt.cost_per_request_s for rt in runtimes]))
        self.policy: Optional[AutoscalePolicy] = None
        if config.autoscale is not None:
            self.policy = build_autoscale_policy(config.autoscale,
                                                 config.policy_params)
        probe_service_s = min(rt.probe_service_s for rt in runtimes)
        self.control_interval_s = config.control_interval_s \
            if config.control_interval_s is not None \
            else _CONTROL_INTERVAL_SERVICE_MULTIPLE * probe_service_s
        self.warmup_s = config.warmup_s if config.warmup_s is not None \
            else _WARMUP_SERVICE_MULTIPLE * probe_service_s
        # bucket auto-sizing targets the biggest fleet the run can hold:
        # the autoscaler's ceiling when armed, else the fixed fleet size
        ceiling_chips = config.max_chips if config.autoscale is not None \
            else len(chips)
        total_weight = sum(rt.weight for rt in runtimes)
        self._buckets: Dict[str, TokenBucket] = {}
        self._ladders: Dict[str, List[DegradeLevel]] = {}
        for rt in runtimes:
            share = rt.weight / total_weight
            if config.admission:
                if config.admission_rate_rps is not None:
                    rate = config.admission_rate_rps * share
                else:
                    # each tenant's own probe-measured request capacity
                    capacity = rt.probe_batch_size \
                        / max(rt.probe_service_s, 1e-12)
                    rate = capacity * ceiling_chips * share \
                        * _ADMISSION_AUTO_HEADROOM
                self._buckets[rt.name] = TokenBucket(
                    max(rate, 1e-9), config.admission_burst)
            if config.degrade:
                self._ladders[rt.name] = default_degradation_ladder(
                    rt.config.num_hops, rt.config.fanout,
                    config.max_degrade_level)
        self.stats = ControlStats(
            policy=self.policy.name if self.policy else "fixed",
            min_chips=config.min_chips,
            max_chips=config.max_chips,
            control_interval_s=self.control_interval_s,
            warmup_s=self.warmup_s,
            initial_chips=len(chips),
            admission={rt.name: AdmissionStats(tenant=rt.name)
                       for rt in runtimes},
        )
        self._shape_chooser: Optional[ShapeChooser] = None
        self._drain_victim = drain_victim    # (active chips) -> Chip
        if len(shapes) > 1:
            self._shape_chooser = ShapeChooser(
                config.scale_shape, shapes,
                scorers=[rt.shape_scorer for rt in runtimes
                         if rt.shape_scorer is not None])
            # heterogeneous scale-downs drain the shape the demand needs least
            self._drain_victim = self._shape_chooser.retire_victim
        self._backlog_cost_s = 0.0
        self._request_cost_s: Dict[int, float] = {}
        self._arrivals = self._completions = 0
        self._violations = self._shed = 0
        self._busy_snapshot_s = 0.0
        push(t0 + self.control_interval_s, _CONTROL, None)

    def counts(self) -> Tuple[int, int, int]:
        """(active, warming, draining) sizes of the current roster."""
        active = warming = draining = 0
        for chip in self.chips:
            if chip.state == "active":
                active += 1
            elif chip.state == "warming":
                warming += 1
            elif chip.state == "draining":
                draining += 1
        return active, warming, draining

    def on_arrival(self) -> None:
        self._arrivals += 1

    def admit(self, rt: TenantRuntime, request: Request,
              now: float) -> Optional[Request]:
        """Gate a cache-missing arrival: the request to batch (degraded
        when over its SLO budget), or ``None`` when it is shed.

        Order of checks: the tenant's token bucket (rate policing, never
        degradable -- a tenant over its contracted rate is shed outright),
        then the SLO-budget test on the backlog's queueing-delay estimate
        plus the request's full-fidelity cost, resolved by the cheapest
        ladder rung that fits when degradation is armed.  Over budget with
        no rung fitting, admission control sheds; degradation alone never
        sheds and serves the bottom rung instead.

        Under the overlap-aware formation policies the tenant's measured
        fused-subgraph dedup ratio *damps* each rung's savings: the
        fraction of a neighbourhood already shared with co-batched
        requests was never going to be paid for again, so a rung's
        effective scale is ``overlap + (1 - overlap) * cost_scale``.
        Without the damping an overlap-aware fleet would over-promise
        degradation savings and admit requests it then serves late.
        """
        acct = self.stats.admission[rt.name]
        acct.offered += 1
        schedulable = sum(1 for c in self.chips if c.schedulable)
        delay_s = self._backlog_cost_s / max(1, schedulable)
        service_s = rt.cost_per_request_s
        budget_s = rt.slo_s * self.config.admission_slo_margin
        overlap = min(max(rt.overlap_ewma, 0.0), 1.0) \
            if rt.overlap_aware else 0.0
        ladder = self._ladders.get(rt.name, ())
        bucket = self._buckets.get(rt.name)

        def effective_scale(rung: DegradeLevel) -> float:
            return overlap + (1.0 - overlap) * rung.cost_scale

        rung: Optional[DegradeLevel] = None
        if bucket is not None and not bucket.try_acquire(now):
            acct.shed_rate_limited += 1
            decision = AdmissionDecision(admitted=False, reason="rate-limited")
        elif delay_s + service_s <= budget_s:
            decision = AdmissionDecision(admitted=True)
        else:
            # over budget: the first rung whose cost fits, cheapest
            # acceptable fidelity first
            rung = next((r for r in ladder if delay_s + effective_scale(r)
                         * service_s <= budget_s), None)
            if rung is None and ladder and not self.config.admission:
                rung = ladder[-1]   # degradation alone never sheds
            if rung is not None:
                acct.degraded[rung.level] = acct.degraded.get(rung.level, 0) + 1
                decision = AdmissionDecision(
                    admitted=True, level=rung.level, num_hops=rung.num_hops,
                    fanout=rung.fanout, cost_scale=effective_scale(rung),
                    reason="degraded")
            elif self.config.admission:
                acct.shed_overload += 1
                decision = AdmissionDecision(admitted=False, reason="overload")
            else:
                decision = AdmissionDecision(admitted=True)
        if decision.reason != "admitted":
            logger.debug("admit %s t=%.6f: %s", rt.name or "<default>",
                         now, decision.reason)
        if self._observe is not None:
            self._observe.on_admission(now, rt.name, decision)
        if not decision.admitted:
            self._shed += 1
            return None
        acct.admitted += 1
        if rung is not None:
            request = replace(request, degrade_level=rung.level,
                              degrade_hops=rung.num_hops,
                              degrade_fanout=rung.fanout)
        cost = rt.cost_per_request_s * decision.cost_scale
        self._request_cost_s[request.request_id] = cost
        self._backlog_cost_s += cost
        return request

    def on_start(self, batch: Batch, service_s: float) -> None:
        a = _COST_EWMA_ALPHA
        self._cost_per_request_s = a * (service_s / batch.size) \
            + (1 - a) * self._cost_per_request_s

    def on_complete(self, chip: Chip, batch: Batch, slo_s: float,
                    now: float) -> None:
        """Count ``batch``'s completions, release its backlog and retire
        ``chip`` if it was draining and has nothing left to serve."""
        for request in batch.requests:
            self._completions += 1
            if now - request.arrival_time_s > slo_s:
                self._violations += 1
            self._backlog_cost_s -= self._request_cost_s.pop(
                request.request_id, 0.0)
        if chip.state == "draining" and not chip.queue:
            self.retire(chip, now)

    def tick(self, now: float, queue_depth: int, rearm: bool) -> None:
        """One control interval: observe, ask the policy for a fleet size
        (active + warming) clamped into the band, record the sample,
        resize, reset the interval's counters and (while the run goes on)
        re-arm."""
        active, warming, draining = self.counts()
        busy_total_s = sum(c.stats.busy_s for c in self.chips)
        interval_s = self.control_interval_s
        utilization = (busy_total_s - self._busy_snapshot_s) \
            / (interval_s * max(1, active))
        obs = ControlObservation(
            now_s=now,
            interval_s=interval_s,
            active_chips=active,
            warming_chips=warming,
            draining_chips=draining,
            queue_depth=queue_depth,
            backlog_cost_s=self._backlog_cost_s,
            arrivals=self._arrivals,
            completions=self._completions,
            violations=self._violations,
            shed=self._shed,
            utilization=min(1.0, utilization),
            cost_per_request_s=self._cost_per_request_s,
            # the tightest tenant SLO anchors the fleet delay signal
            slo_s=min(rt.slo_s for rt in self._runtimes),
        )
        target = active + warming
        # without an autoscaler the fleet size is fixed and never clamped
        if self.policy is not None:
            target = max(self.config.min_chips, min(
                self.config.max_chips,
                self.policy.desired_chips(obs, target)))
        self.stats.samples.append(ControlSample(
            time_s=now,
            active=active,
            warming=warming,
            draining=draining,
            desired_chips=target,
            queue_depth=queue_depth,
            arrival_rate_rps=obs.arrival_rate_rps,
            utilization=obs.utilization,
            est_queue_delay_s=obs.est_queue_delay_s,
            violations=self._violations,
            shed=self._shed,
        ))
        self.scale_to(target, now)
        self._busy_snapshot_s = busy_total_s
        self._arrivals = self._completions = 0
        self._violations = self._shed = 0
        if rearm:
            self._push(now + interval_s, _CONTROL, None)

    def finalize(self, end_s: float) -> ControlStats:
        """Close the chip-seconds books over the full roster, retired
        chips included."""
        total = 0.0
        warmup_total = 0.0
        for chip in self.chips:
            retired = chip.retired_s if chip.retired_s is not None else end_s
            provisioned = max(0.0, retired - chip.added_s)
            chip.stats.provisioned_s = provisioned
            total += provisioned
            warmup_total += max(0.0, min(chip.ready_s, retired) - chip.added_s)
        self.stats.chip_seconds_s = total
        self.stats.warmup_chip_seconds_s = warmup_total
        self.stats.final_chips = sum(
            1 for c in self.chips if c.state in ("active", "warming"))
        return self.stats

    def _record(self, now: float, action: str, chip: Chip) -> None:
        """Append one fleet-shape change to the timeline."""
        active, warming, draining = self.counts()
        self.stats.timeline.append(ScaleEvent(
            time_s=now, action=action, chip_id=chip.chip_id,
            active=active, warming=warming, draining=draining))
        logger.debug("scale %s chip=%d t=%.6f (active=%d warming=%d "
                     "draining=%d)", action, chip.chip_id, now, active,
                     warming, draining)
        if self._observe is not None:
            self._observe.on_scale_event(now, action, chip.chip_id,
                                         active, warming, draining)

    def retire(self, chip: Chip, now: float) -> None:
        chip.state = "retired"
        chip.retired_s = now
        self._record(now, "retire", chip)

    def mark_ready(self, chip: Chip, now: float) -> bool:
        """Flip a warming chip to active (False if it was retired meanwhile)."""
        if chip.state != "warming":
            return False
        chip.state = "active"
        self._record(now, "ready", chip)
        return True

    def scale_to(self, target: int, now: float) -> None:
        """Add warming chips / drain victims until committed capacity
        (active + warming) meets ``target``."""
        committed = sum(1 for c in self.chips
                        if c.state in ("active", "warming"))
        while committed < target:
            if self._shape_chooser is not None:
                shape = self._shape_chooser.shape_to_add()
                hw = self._shapes[shape]
            else:
                shape, hw = self._fleet.base_shape, self._fleet.hw
            # chips are never removed from the roster, so ids stay dense
            chip = Chip(len(self.chips), hw, self._fleet.feature_cache_size,
                        shape=shape)
            chip.added_s = now
            chip.ready_s = now + self.warmup_s
            if self.warmup_s > 0:
                chip.state = "warming"
                self._push(chip.ready_s, _CHIP_READY, chip)
            else:
                chip.state = "active"
            self.chips.append(chip)
            self._record(now, "add", chip)
            committed += 1
        while committed > target:
            warming_chips = [c for c in self.chips if c.state == "warming"]
            if warming_chips:
                # cancelling a warm-up is free: the chip never served
                self.retire(max(warming_chips, key=lambda c: c.chip_id), now)
            else:
                actives = [c for c in self.chips if c.state == "active"]
                if len(actives) <= 1:
                    break  # never drain the last serving chip
                victim = self._drain_victim(actives)
                victim.state = "draining"
                self._record(now, "drain", victim)
                if not victim.busy and not victim.queue:
                    self.retire(victim, now)
            committed -= 1


class WFQScheduler:
    """Weighted fair queueing over per-tenant batch queues (deficit round-robin).

    Each tenant owns a FIFO of ``(batch, cost_s)`` entries, where ``cost_s``
    is the caller's estimate of the batch's fused service time.  The scheduler
    visits tenants in a fixed rotation; on arriving at a tenant it credits the
    tenant's *deficit counter* with ``quantum_s * weight`` once, then releases
    head batches while their cost fits the deficit.  A tenant whose queue
    drains forfeits its remaining deficit (the textbook DRR rule that stops an
    idle tenant hoarding credit), so over any contended interval each tenant's
    released service time converges to its weight share regardless of how its
    batch sizes compare to the other tenants'.

    The scheduler is release-order only: it does not know about chips.  The
    multi-tenant event loop calls :meth:`next_batch` once per free chip and
    stops pulling when the fleet is saturated, which keeps the DRR state
    consistent no matter how many chips drain it.
    """

    def __init__(self, weights: Dict[str, float], quantum_s: float):
        if not weights:
            raise ValueError("WFQScheduler needs at least one tenant")
        if any(w <= 0 for w in weights.values()):
            raise ValueError("tenant weights must be positive")
        if quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        self._order = list(weights)
        self._weights = dict(weights)
        self._quantum_s = float(quantum_s)
        self._queues: Dict[str, Deque[Tuple[Batch, float]]] = {
            name: deque() for name in self._order}
        self._deficit_s: Dict[str, float] = {name: 0.0 for name in self._order}
        self._cursor = 0
        self._credited = False  # has the tenant under the cursor been credited

    # ------------------------------------------------------------------ #
    @property
    def pending_batches(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def backlog(self, tenant: str) -> int:
        """Number of formed-but-undispatched batches queued for ``tenant``."""
        return len(self._queues[tenant])

    def enqueue(self, tenant: str, batch: Batch, cost_s: float) -> None:
        """Admit a formed batch into ``tenant``'s dispatch queue."""
        if tenant not in self._queues:
            raise KeyError(f"unknown tenant {tenant!r}")
        self._queues[tenant].append((batch, max(float(cost_s), 1e-12)))

    def reprice(self, tenant: str, batch_id: int, cost_s: float) -> bool:
        """Update the stored cost of a still-queued batch (late joins).

        Continuous batching grows a batch *after* it was enqueued; without
        repricing, the DRR deficit would bill the tenant the pre-join
        estimate while the chips do post-join work.  Returns ``False`` when
        the batch already left the queue (its cost was already charged).
        """
        if tenant not in self._queues:
            raise KeyError(f"unknown tenant {tenant!r}")
        queue = self._queues[tenant]
        for i, (batch, _) in enumerate(queue):
            if batch.batch_id == batch_id:
                queue[i] = (batch, max(float(cost_s), 1e-12))
                return True
        return False

    def next_batch(self) -> Optional[Tuple[str, Batch, float]]:
        """Release the next ``(tenant, batch, cost_s)`` in DRR order.

        Returns ``None`` when every queue is empty.  Each call releases at
        most one batch; the cursor only advances off a tenant once its head
        batch no longer fits the deficit (or its queue drains), so a burst of
        calls services tenants in contiguous weight-proportional runs.
        """
        if self.pending_batches == 0:
            return None
        # Each full rotation credits every non-empty queue, so the loop is
        # bounded by max_cost / (quantum * min_weight) rotations.
        while True:
            name = self._order[self._cursor]
            queue = self._queues[name]
            if not queue:
                self._deficit_s[name] = 0.0
                self._advance()
                continue
            if not self._credited:
                self._deficit_s[name] += self._quantum_s * self._weights[name]
                self._credited = True
            batch, cost_s = queue[0]
            if cost_s <= self._deficit_s[name]:
                queue.popleft()
                self._deficit_s[name] -= cost_s
                if not queue:
                    self._deficit_s[name] = 0.0
                    self._advance()
                return name, batch, cost_s
            self._advance()

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)
        self._credited = False


class TenantRuntime:
    """Everything one tenant owns at run time: graph, model, sampler,
    batcher, result cache, probe-calibrated time scales, cost models and
    accounting.

    The single-tenant front end (:class:`ServingSimulator`) runs one
    anonymous runtime (``name=""``) whose ``config`` is the
    :class:`FleetConfig` itself; multi-tenant serving
    (:class:`~repro.serving.tenancy.MultiTenantSimulator`) runs one per
    :class:`~repro.serving.tenancy.TenantConfig`.  Both configs carry the
    per-tenant knobs read here (``num_hops``, ``fanout``, ``batch_policy``,
    ``max_batch_size``, ``batch_timeout_s``, ``slo_s``, ``cache_size``);
    the overlap and continuous-batching knobs are fleet-level.

    ``priced`` arms the WFQ batch-cost model, which prices a batch by its
    **deduped fused size**
    (:meth:`~repro.serving.sampler.SubgraphSampler.fused_size`) times an
    EWMA of observed service seconds per fused vertex, seeded from the
    probe batch -- so a batch of heavily-overlapping requests is billed
    for the union it actually executes, and an overlap-aware tenant cannot
    be overcharged (nor cheat) relative to a FIFO tenant.  Only the pull
    dispatch stage prices batches; seeding the model samples the probe
    targets, so push-dispatched runs leave it off.
    """

    def __init__(self, name: str, config, fleet: FleetConfig, graph: Graph,
                 model, dataset_name: str, seed: int, priced: bool = True):
        self.name = name
        self.config = config
        self.seed = seed
        self.graph = graph
        self.model = model
        self.dataset_name = dataset_name
        self.weight = getattr(config, "weight", 1.0)
        #: The name the tenant's report slice carries: the spec's model
        #: name, else the model's own (a FleetConfig names no model).
        self.model_name = getattr(config, "model", None) \
            or getattr(model, "name", model.__class__.__name__)
        self._fleet = fleet
        self.sampler = SubgraphSampler(graph, num_hops=config.num_hops,
                                       fanout=config.fanout, seed=seed)
        self.result_cache = LRUCache(config.cache_size)
        #: Probe-batch service time per chip shape (memoised globally).
        self.probe_by_shape: Dict[str, float] = {
            shape: probe_batch_service_time_s(
                hw, self.sampler, model, dataset_name, config.max_batch_size,
                graph.num_vertices, seed)
            for shape, hw in fleet.distinct_shapes().items()}
        # the slowest shape's probe: adaptive SLOs and timeouts must hold
        # wherever a batch lands (a homogeneous fleet has a single probe)
        self.probe_service_s = max(self.probe_by_shape.values())
        self.probe_batch_size = min(config.max_batch_size, graph.num_vertices)
        self.slo_s = config.slo_s if config.slo_s is not None \
            else _SLO_SERVICE_MULTIPLE * self.probe_service_s
        self.batch_timeout_s = config.batch_timeout_s \
            if config.batch_timeout_s is not None \
            else _TIMEOUT_SERVICE_MULTIPLE * self.probe_service_s
        self.join_window_s = fleet.join_window_s \
            if fleet.join_window_s is not None else self.batch_timeout_s
        self.staleness_s = fleet.staleness_s \
            if fleet.staleness_s is not None else 0.5 * self.slo_s
        self.overlap_aware = config.batch_policy in ("overlap", "continuous")
        self._cost_per_vertex_seed_s: Optional[float] = None
        #: Per-(shape, bucket) service-rate model, seeded from the
        #: per-shape probes (``None`` unless the fleet tracks shapes).
        #: Rates are model/dataset-specific, so tenants never share one.
        self.shape_scorer: Optional[ShapeScorer] = None
        self.profile_fn = None
        track_shapes = fleet.heterogeneous or fleet.dispatch == "shape-aware"
        if priced or track_shapes:
            probe_fused, probe_naive = self.sampler.fused_size(
                (int(t), config.num_hops, config.fanout)
                for t in probe_targets(graph.num_vertices,
                                       config.max_batch_size, seed))
            if priced:
                self._cost_per_vertex_seed_s = \
                    self.probe_service_s / max(probe_fused, 1)
            if track_shapes:
                self.profile_fn = make_profile_fn(self.sampler,
                                                  graph.feature_length)
                self.shape_scorer = ShapeScorer()
                bucket = BatchProfile(
                    est_fused_vertices=probe_fused,
                    est_naive_vertices=probe_naive,
                    batch_size=self.probe_batch_size,
                    feature_length=graph.feature_length).bucket
                for shape, probe_s in self.probe_by_shape.items():
                    self.shape_scorer.seed(shape, bucket,
                                           probe_s / max(probe_fused, 1))
        #: Bound by the fleet: the sharded-execution driver and the
        #: streaming applier, or ``None`` when those are off.
        self.shard_executor: Optional[ShardExecutor] = None
        self.stream: Optional[StreamState] = None
        self.reset()

    def reset(self) -> None:
        """Start a run: fresh batcher, batching stats, cost EWMAs and
        accounting.  The sampler memo, result cache and shape rates
        persist across runs."""
        cfg = self.config
        fleet = self._fleet
        self.batcher = build_batch_policy(
            cfg.batch_policy, max_batch_size=cfg.max_batch_size,
            timeout_s=self.batch_timeout_s, slo_s=self.slo_s,
            signature_fn=make_signature_fn(
                self.sampler, cfg.num_hops, cfg.fanout,
                overlap_k=fleet.overlap_k) if self.overlap_aware else None,
            min_overlap=fleet.min_overlap, pool_factor=fleet.pool_factor,
            join_window_s=self.join_window_s, staleness_s=self.staleness_s,
            tenant=self.name)
        self.batching = BatchingStats(policy=cfg.batch_policy)
        self.overlap_ewma = 0.0
        # admission-control cost: EWMA of service seconds per request
        # (duplicates included -- backlog accounting is per request)
        self.cost_per_request_s = self.probe_service_s / self.probe_batch_size
        self.cost_per_vertex_s = self._cost_per_vertex_seed_s
        self.busy_s = 0.0
        self.contended_busy_s = 0.0
        self.arrivals_left = 0
        self.queued_batches = 0  # batches waiting in the WFQ stage
        self.scheduled_flush: Optional[float] = None

    def service_time_s(self, chip: Chip, batch: Batch, now: float) -> float:
        """Simulated execution time of ``batch`` on ``chip`` (see
        :func:`fused_batch_service_time_s`).

        On a sharded fleet (>1 shard) the batch executes across the whole
        chip group instead (:meth:`ShardExecutor.service_time_s`); a
        one-shard group takes the single-chip path verbatim, which is what
        makes its report bit-for-bit identical to an unsharded run.
        """
        # differential consistency check before any cache is charged:
        # observation only, so it cannot change simulated timings
        if self.stream is not None:
            self.stream.check_batch(batch, now)
        reuse_discount = self._fleet.reuse_discount
        if self.shard_executor is not None \
                and self.shard_executor.plan.num_shards > 1:
            return self.shard_executor.service_time_s(
                batch, reuse_discount=reuse_discount, now=now)
        return fused_batch_service_time_s(
            chip, self.sampler, self.model, batch,
            dataset_name=self.dataset_name, reuse_discount=reuse_discount,
            tenant=self.name or None, stream=self.stream, now=now)

    def result_hit(self, target: int, now: float) -> bool:
        """Whether ``target``'s answer is in the result cache.  On a
        mutating graph a hit is also checked for staleness."""
        if self.result_cache.get(target) is None:
            return False
        if self.stream is not None:
            self.stream.on_result_hit(target, now)
        return True

    def cache_results(self, batch: Batch, now: float) -> None:
        """Put a completed batch's answers in the result cache and, on a
        mutating graph, register what each one depends on."""
        # degraded answers are lower fidelity: keep them out of the result
        # cache so later hits never silently inherit the loss
        cached = [r.target_vertex for r in batch.requests
                  if r.degrade_level == 0]
        for target in cached:
            self.result_cache.put(target, now)
        if self.stream is not None:
            self.stream.register_results(cached, now)

    def estimate_cost_s(self, batch: Batch) -> float:
        """Estimated fused service time: EWMA seconds/vertex x fused size.

        The fused size is the deduped union of the batch members' sampled
        neighbourhoods (memoised lookups, no graph built), so overlapping
        batches are priced at the work they will actually do.
        """
        fused, _ = self.sampler.fused_size(
            (r.target_vertex, r.degrade_hops, r.degrade_fanout)
            for r in batch.requests)
        return self.cost_per_vertex_s * max(fused, 1)

    def observe_service(self, batch: Batch, service_s: float) -> None:
        """Fold a measured batch service into the batcher, the batching
        stats and the cost EWMAs.

        ``batch.fused_vertices`` was stamped by the service model just
        before this call, so the per-vertex EWMA tracks the measured fused
        size, not a re-estimate.
        """
        self.batcher.observe_service_time(service_s)
        self.batching.observe_batch(batch)
        a = _COST_EWMA_ALPHA
        if self.cost_per_vertex_s is not None and batch.fused_vertices > 0:
            self.cost_per_vertex_s = a * (service_s / batch.fused_vertices) \
                + (1 - a) * self.cost_per_vertex_s
        self.overlap_ewma = a * batch.overlap_ratio \
            + (1 - a) * self.overlap_ewma
        self.cost_per_request_s = a * (service_s / batch.size) \
            + (1 - a) * self.cost_per_request_s

    @property
    def demanding(self) -> bool:
        """True while the tenant still has work that wants chip time."""
        return (self.arrivals_left > 0 or self.batcher.pending_count > 0
                or self.queued_batches > 0)


# --------------------------------------------------------------------------- #
# Dispatch stages: when a formed batch is bound to a chip
# --------------------------------------------------------------------------- #
class _PushStage:
    """Bind each batch to a chip the moment it forms (single-tenant serving).

    A :data:`DISPATCH_POLICIES` policy picks among the schedulable chips,
    the batch joins that chip's private FIFO and starts at once if the chip
    is idle.  A chip that frees up serves its own queue (a draining chip
    finishes it before retiring).  ``peak_backlog`` is the deepest chip
    queue seen, in requests.
    """

    def __init__(self, policy, chips: List[Chip]):
        self.policy = policy
        self.chips = chips
        #: the event loop's ``(chip, runtime, batch, now) -> service_s``
        self.start = None
        self.peak_backlog = 0
        #: shape-aware dispatchers (they count bucket demand as they
        #: select, and their dispatches into :class:`HeteroStats`)
        self.shape_aware = [policy] \
            if isinstance(policy, _ShapeAwareDispatch) else []

    def submit(self, rt: TenantRuntime, batch: Batch, now: float) -> None:
        chip = self.policy.select([c for c in self.chips if c.schedulable],
                                  batch)
        chip.queue.append((batch, rt))
        self.peak_backlog = max(self.peak_backlog,
                                sum(b.size for b, _ in chip.queue))
        if not chip.busy:
            self._start_next(chip, now)

    def pump(self, now: float, freed: Optional[Chip] = None) -> None:
        if freed is not None and freed.queue:
            self._start_next(freed, now)

    def _start_next(self, chip: Chip, now: float) -> None:
        batch, rt = chip.queue.popleft()
        self.start(chip, rt, batch, now)

    def on_join(self, rt: TenantRuntime, batch: Batch) -> None:
        """A late join deepened some chip's queue in place."""
        depth = max((sum(b.size for b, _ in c.queue) for c in self.chips),
                    default=0)
        self.peak_backlog = max(self.peak_backlog, depth)

    def in_flight_batches(self) -> int:
        return sum(len(c.queue) + (1 if c.busy else 0) for c in self.chips)

    def drain_victim(self, actives: List[Chip]) -> Chip:
        # the emptiest queue, so the least work gets stranded
        return min(actives, key=lambda c: (c.outstanding_requests, -c.chip_id))


class _PullStage:
    """Free chips pull the next batch from the WFQ stage (multi-tenant).

    Formed batches wait per tenant in the deficit-round-robin
    :class:`WFQScheduler`, priced at their estimated fused service time;
    whenever a chip is idle it takes the next batch in fair-share order.
    Shape-oblivious fleets take the first idle chip in chip-id order (with
    zero outstanding work everywhere this *is* least-loaded);
    ``shape_aware`` places the batch with a per-tenant
    :class:`_ShapeAwareDispatch` over the idle chips -- no backlog there,
    so it scores pure service time under the tenant's learned rates, and
    falls back to first-idle while any candidate shape is cold.
    ``peak_backlog`` counts WFQ-queued batches.
    """

    def __init__(self, scheduler: WFQScheduler, chips: List[Chip],
                 runtimes: Dict[str, TenantRuntime], shape_aware: bool):
        self.scheduler = scheduler
        self.chips = chips
        self.runtimes = runtimes
        #: the event loop's ``(chip, runtime, batch, now) -> service_s``
        self.start = None
        self.peak_backlog = 0
        self._placers = {
            name: _ShapeAwareDispatch(rt.shape_scorer, rt.profile_fn)
            for name, rt in runtimes.items()} if shape_aware else {}
        self.shape_aware = list(self._placers.values())

    def submit(self, rt: TenantRuntime, batch: Batch, now: float) -> None:
        self.scheduler.enqueue(rt.name, batch, rt.estimate_cost_s(batch))
        rt.queued_batches += 1
        self.peak_backlog = max(self.peak_backlog,
                                self.scheduler.pending_batches)

    def pump(self, now: float, freed: Optional[Chip] = None) -> None:
        """Release WFQ batches onto idle chips until one side runs dry."""
        scheduler = self.scheduler
        while scheduler.pending_batches:
            idle = [c for c in self.chips if c.schedulable and not c.busy]
            if not idle:
                return
            # WFQ promises weight shares only while every tenant contends
            contended = all(rt.demanding for rt in self.runtimes.values())
            name, batch, _ = scheduler.next_batch()
            rt = self.runtimes[name]
            rt.queued_batches -= 1
            placer = self._placers.get(name)
            chip = placer.select(idle, batch) if placer is not None \
                else idle[0]
            service_s = self.start(chip, rt, batch, now)
            if contended:
                rt.contended_busy_s += service_s

    def on_join(self, rt: TenantRuntime, batch: Batch) -> None:
        """Reprice a still-queued batch so DRR bills the post-join size."""
        self.scheduler.reprice(rt.name, batch.batch_id,
                               rt.estimate_cost_s(batch))

    def in_flight_batches(self) -> int:
        return self.scheduler.pending_batches \
            + sum(1 for c in self.chips if c.busy)

    def drain_victim(self, actives: List[Chip]) -> Chip:
        # chips hold no private queues here, so prefer an idle chip,
        # newest first
        idle = [c for c in actives if not c.busy]
        return max(idle or actives, key=lambda c: c.chip_id)


class _Served(NamedTuple):
    """What one pass of the event loop hands back to the run body."""

    records: List[RequestRecord]
    span_s: float
    avg_in_flight: float
    control: Optional[ControlStats]


# --------------------------------------------------------------------------- #
# The event loop
# --------------------------------------------------------------------------- #
class _FleetSimulator:
    """The chip fleet and the one discrete-event loop that serves it.

    Subclassed by the two front ends, which differ only in how many tenant
    runtimes they build, which dispatch stage they hand :meth:`_run` (the
    loop, then the report slices, then :meth:`_finalize`) and how they
    wrap its slices: :class:`ServingSimulator` pushes and returns its one
    slice, :class:`~repro.serving.tenancy.MultiTenantSimulator` pulls and
    wraps them in a :class:`~repro.serving.stats.MultiTenantReport`.

    :meth:`_serve` is the event loop alone.  It consults one object per
    optional subsystem: the observability hub, each
    :class:`TenantRuntime`, and the :class:`FleetScaler` it builds when a
    :class:`~repro.serving.control.ControlConfig` arms any lever (an
    *elastic* run, whose initial fleet is ``num_chips`` clamped into the
    autoscaler's band; fixed runs build none).  :meth:`_gauges` builds the
    metric scrapes and :meth:`_finalize` closes the stats after the loop.
    """

    def __init__(self, fleet: FleetConfig, runtimes: Dict[str, TenantRuntime],
                 control: Optional[ControlConfig], observe, updates):
        self.fleet = fleet
        self.runtimes = runtimes
        #: Observability hub (:class:`repro.serving.observe.Instrumentation`)
        #: or ``None``.  :meth:`_serve` (with the :class:`FleetScaler` it
        #: builds) is the only caller of its hooks: batchers, the control
        #: plane and stream state return what happened and the loop
        #: reports it, so an uninstrumented run executes no observability
        #: code.
        self.observe = observe
        #: Streaming-update hook (:class:`repro.serving.streaming.UpdateStream`)
        #: or ``None``; the front ends serve every graph through
        #: :func:`_served_graph`, a mutable
        #: :class:`~repro.graphs.delta.DeltaGraph` when it is armed.
        #: ``updates.events`` may still be empty at construction (the
        #: end-to-end drivers fill them once arrival rates are calibrated);
        #: they are read when a run starts.
        self.updates = updates
        self.control_config = control if control is not None and control.active \
            else None
        initial_chips = fleet.num_chips
        if self.control_config is not None \
                and self.control_config.autoscale is not None:
            # only the autoscaler's band constrains the fleet; admission/
            # degrade-only control leaves the configured size untouched
            initial_chips = max(self.control_config.min_chips,
                                min(self.control_config.max_chips,
                                    initial_chips))
        roster = fleet.chip_roster()
        # a min-chips band wider than the spec cycles the roster
        self.chips = [Chip(i, roster[i % len(roster)][1],
                           fleet.feature_cache_size,
                           shape=roster[i % len(roster)][0])
                      for i in range(initial_chips)]
        self._shapes = fleet.distinct_shapes()
        # shape tracking: a mixed roster always accounts shapes; the
        # shape-aware policy additionally scores with them (and works on a
        # homogeneous fleet, where it degenerates to least-loaded)
        self._track_shapes = fleet.heterogeneous \
            or fleet.dispatch == "shape-aware"
        #: Sharded-execution stats (``None`` on an unsharded fleet).  Every
        #: tenant's executor folds into this one object, because the chip
        #: group is shared fleet state.
        self.sharding_stats: Optional[ShardingStats] = None
        if fleet.sharding is not None:
            if self.control_config is not None:
                raise ValueError(
                    "sharded execution cannot be combined with the elastic "
                    "control plane (a chip group cannot scale mid-run)")
            sharding = fleet.sharding
            # the group leader (chip 0) is the only schedulable chip; the
            # members execute sub-batches off the leader's clock
            for chip in self.chips[1:]:
                chip.state = "member"
            self.sharding_stats = ShardingStats(
                num_shards=sharding.num_shards,
                partitioner=sharding.partitioner)
            # one halo-cache list for the whole fleet, in the feature
            # caches' tenant namespaces; capacity is sized by the largest
            # feature vector so no tenant over-fits it
            feature_bytes = {
                name: rt.graph.feature_length * rt.graph.features.dtype.itemsize
                for name, rt in runtimes.items()}
            capacity = int(sharding.halo_cache_mb * (1 << 20)
                           / max(max(feature_bytes.values()), 1))
            halo_caches = [FeatureCache(capacity)
                           for _ in range(sharding.num_shards)]
            for name, rt in runtimes.items():
                rt.shard_executor = ShardExecutor(
                    shard_plan_for(rt.graph, sharding), self.chips,
                    rt.sampler, rt.model, rt.dataset_name, sharding,
                    feature_bytes=feature_bytes[name],
                    stats=self.sharding_stats, halo_caches=halo_caches,
                    tenant=name or None)
        #: Consistency stats of a mutating run (``None`` when static); every
        #: tenant serves its own graph, so each gets its own
        #: :class:`~repro.serving.streaming.StreamState`, but they all fold
        #: into this one object.
        self.consistency: Optional[ConsistencyStats] = None
        if updates is not None:
            self.consistency = ConsistencyStats(
                policy=updates.policy,
                budget_versions=updates.staleness_budget_versions)
            for rt in runtimes.values():
                rt.stream = StreamState(
                    rt.graph, rt.sampler, updates, self.consistency,
                    tenant=rt.name or None, result_cache=rt.result_cache,
                    chips=self.chips, shard_executor=rt.shard_executor)

    def _runtime_of(self, tagged) -> TenantRuntime:
        """The runtime that serves a request or update: its tenant's, or
        the single-tenant front end's anonymous one, which takes any tag."""
        rt = self.runtimes.get(tagged.tenant) or self.runtimes.get("")
        if rt is None:
            raise ValueError(f"{type(tagged).__name__} tagged with unknown "
                             f"tenant {tagged.tenant!r}")
        return rt

    def _scrape_interval_s(self) -> float:
        """Simulated seconds between metric scrapes (0.0 when unscraped):
        the hub's pinned interval, else ``METRICS_PROBE_MULTIPLE`` probe
        batches of the fastest tenant."""
        observe = self.observe
        if observe is None or not observe.metrics_enabled:
            return 0.0
        from .observe import METRICS_PROBE_MULTIPLE
        return observe.metrics_interval_s or METRICS_PROBE_MULTIPLE * min(
            rt.probe_service_s for rt in self.runtimes.values())

    def _gauges(self, now: float, t0: float, in_flight: int, stage) -> Dict:
        """One metric scrape's gauges at ``now`` (the run began at ``t0``)."""
        runtimes = self.runtimes
        gauges: Dict = {
            "repro_queue_depth": sum(rt.batcher.pending_count
                                     for rt in runtimes.values()),
            "repro_in_flight_requests": in_flight,
            "repro_in_flight_batches": stage.in_flight_batches(),
        }
        if "" in runtimes:
            gauges["repro_overlap_ratio_ewma"] = runtimes[""].overlap_ewma
        else:
            for name, rt in runtimes.items():
                labels = (("tenant", name),)
                gauges[("repro_tenant_queue_depth", labels)] = \
                    rt.batcher.pending_count
                gauges[("repro_overlap_ratio_ewma", labels)] = rt.overlap_ewma
        shard_stats = self.sharding_stats
        if shard_stats is not None:
            gauges["repro_halo_hit_rate"] = shard_stats.halo_hit_rate
            gauges["repro_halo_bytes_moved"] = shard_stats.halo_bytes_moved
            gauges["repro_shard_load_imbalance"] = shard_stats.load_imbalance
        elapsed = now - t0
        if elapsed > 0:
            for shape in self._shapes:
                members = [c for c in self.chips if c.shape == shape]
                busy = sum(c.stats.busy_s for c in members)
                gauges[("repro_busy_fraction", (("shape", shape),))] = \
                    busy / (elapsed * len(members)) if members else 0.0
        return gauges

    def _run(self, requests: Sequence[Request], stage,
             hetero: Optional[HeteroStats], rates: Dict[str, float],
             dispatch_policy: str, num_chips: int, wrap):
        """Serve ``requests`` (sorted by arrival) through ``stage`` and
        return ``wrap(slices)`` with the fleet-wide blocks attached.

        ``slices`` maps each tenant to its :class:`ServingReport` slice: its
        own records, result cache and batching stats, at ``rates[tenant]``
        (0.0 when absent) under ``dispatch_policy`` on ``num_chips`` chips.
        """
        served = self._serve(requests, stage, hetero)
        logger.info("served %d requests for %d tenant(s) on %d chips in "
                    "%.6f s simulated", len(requests), len(self.runtimes),
                    len(self.chips), served.span_s)
        slices = {name: ServingReport(
            model_name=rt.model_name, dataset_name=rt.dataset_name,
            num_chips=num_chips, batch_policy=rt.config.batch_policy,
            dispatch_policy=dispatch_policy, rate_rps=rates.get(name, 0.0),
            slo_s=rt.slo_s,
            records=[r for r in served.records if r.tenant == name],
            cache=rt.result_cache.stats, batching=rt.batching,
        ) for name, rt in self.runtimes.items()}
        report = wrap(slices)
        self._finalize(report, served, hetero, np.concatenate(
            [s.latencies_s for s in slices.values()]))
        return report

    def _finalize(self, report, served: _Served,
                  hetero: Optional[HeteroStats],
                  latencies: np.ndarray) -> None:
        """Close the run's stats after its loop and attach the fleet-wide
        blocks to ``report``; ``latencies`` are all its records' latencies
        (in any order: only their percentiles are read)."""
        for rt in self.runtimes.values():
            rt.batching.late_join_rejects = rt.batcher.late_join_rejects
        if hetero is not None:
            hetero.finalize(
                [chip.shape for chip in self.chips],
                {name: rt.shape_scorer for name, rt in self.runtimes.items()})
        if self.sharding_stats is not None:
            self.sharding_stats.finalize(latencies)
        if self.consistency is not None:
            for rt in self.runtimes.values():
                rt.stream.finalize()
            self.consistency.p99_s = percentile(latencies, 99)
        report.avg_in_flight = served.avg_in_flight
        report.chips = [chip.stats for chip in self.chips]
        report.hetero = hetero
        report.control = served.control
        report.sharding = self.sharding_stats
        report.consistency = self.consistency

    def _serve(self, requests: Sequence[Request], stage,
               hetero: Optional[HeteroStats]) -> _Served:
        """Serve ``requests`` (sorted by arrival) through ``stage``."""
        chips = self.chips
        runtimes = self.runtimes
        observe = self.observe
        runtime_of = self._runtime_of
        for rt in runtimes.values():
            rt.reset()
        for dispatcher in stage.shape_aware:
            # counts are per run; the scorer's learned rates persist
            dispatcher.stats = hetero

        events: List[Tuple[float, int, int, object]] = []
        order = itertools.count()  # FIFO tie-break among equal timestamps

        def push(time_s: float, kind: int, payload: object) -> None:
            heapq.heappush(events, (time_s, next(order), kind, payload))

        # each request's runtime is resolved once, here: the arrival event
        # carries it, and the per-runtime targets feed the warm-ups
        targets: Dict[TenantRuntime, List[int]] = {
            rt: [] for rt in runtimes.values()}
        for request in requests:
            rt = runtime_of(request)
            rt.arrivals_left += 1
            targets[rt].append(request.target_vertex)
            push(request.arrival_time_s, _ARRIVAL, (request, rt))
        for rt, rt_targets in targets.items():
            # sign and extract the run's targets in one pass each
            if rt.overlap_aware:
                rt.sampler.warm_signatures(
                    rt_targets, resolve_signature_hops(self.fleet.overlap_k,
                                                       rt.config.num_hops),
                    rt.config.fanout)
            rt.sampler.warm_samples(rt_targets, rt.config.num_hops,
                                    rt.config.fanout)
        if self.updates is not None:
            # updates enter the same heap; requests pushed first, so a
            # request at the identical timestamp wins the tie (a query
            # races an update: the query is served, then the graph moves)
            for event in self.updates.events:
                runtime_of(event)
                push(event.arrival_time_s, _UPDATE, event)

        records: List[RequestRecord] = []
        # (tenant, batch_id) -> when the batch formed / started service
        dispatched_at: Dict[Tuple[str, int], float] = {}
        started_at: Dict[Tuple[str, int], float] = {}
        # time-weighted in-flight integral for the avg queue-pressure metric
        in_flight = 0
        t0 = requests[0].arrival_time_s if requests else 0.0
        last_t = t0
        in_flight_area = 0.0
        for chip in chips:
            chip.added_s = t0
            chip.ready_s = t0

        # elastic runs only: the scaler owns every piece of control state
        scaler: Optional[FleetScaler] = None
        if self.control_config is not None and requests:
            scaler = FleetScaler(self.control_config, self.fleet, chips,
                                 list(runtimes.values()), self._shapes, push,
                                 stage.drain_victim, t0, observe=observe)

        metrics_interval_s = self._scrape_interval_s() if requests else 0.0
        if metrics_interval_s:
            push(t0 + metrics_interval_s, _METRICS, None)

        def schedule_flush(rt: TenantRuntime, now: float) -> None:
            deadline = rt.batcher.next_deadline(now)
            if deadline is not None and deadline != rt.scheduled_flush:
                push(max(deadline, now), _FLUSH, rt)
                rt.scheduled_flush = deadline

        def submit(rt: TenantRuntime, batch: Batch, now: float) -> None:
            if observe is not None:
                observe.on_batch_formed(now, batch)
            dispatched_at[(rt.name, batch.batch_id)] = now
            stage.submit(rt, batch, now)

        def start(chip: Chip, rt: TenantRuntime, batch: Batch,
                  now: float) -> float:
            # seal before costing: a batch being served can take no joins,
            # and the service time must cover its final membership
            rt.batcher.on_service_start(batch)
            chip.current = batch
            started_at[(rt.name, batch.batch_id)] = now
            service_s = rt.service_time_s(chip, batch, now)
            if hetero is not None:
                account_batch_service(
                    rt.shape_scorer, hetero, batch, rt.profile_fn,
                    chip.shape, service_s,
                    {c.shape for c in chips if c.state == "active"},
                    note_demand=not stage.shape_aware)
            rt.observe_service(batch, service_s)
            if scaler is not None:
                scaler.on_start(batch, service_s)
            chip.stats.busy_s += service_s
            rt.busy_s += service_s
            push(now + service_s, _COMPLETION, chip)
            # the service observation may have tightened an SLO-aware
            # deadline for requests already pending -- re-arm the timer
            schedule_flush(rt, now)
            return service_s

        stage.start = start
        pump = stage.pump

        def running() -> bool:  # periodic events re-arm while true
            return in_flight > 0 or any(rt.arrivals_left > 0
                                        for rt in runtimes.values())

        def complete(chip: Chip, now: float) -> None:
            nonlocal in_flight
            batch = chip.current
            rt = runtimes[batch.tenant]
            chip.current = None
            chip.stats.batches_served += 1
            chip.stats.requests_served += batch.size
            key = (rt.name, batch.batch_id)
            dispatched = dispatched_at.pop(key)
            started = started_at.pop(key)
            for request in batch.requests:
                records.append(RequestRecord(
                    request_id=request.request_id,
                    target_vertex=request.target_vertex,
                    arrival_time_s=request.arrival_time_s,
                    # a late-joined request entered after the batch was
                    # dispatched: its batching wait ends at its own arrival
                    dispatch_time_s=max(dispatched, request.arrival_time_s),
                    service_start_s=started,
                    completion_time_s=now,
                    cache_hit=False,
                    chip_id=chip.chip_id,
                    batch_id=batch.batch_id,
                    tenant=rt.name,
                    degrade_level=request.degrade_level,
                ))
            in_flight -= batch.size
            rt.cache_results(batch, now)
            if observe is not None:
                observe.on_batch_complete(now, chip, batch, dispatched,
                                          started)
            if scaler is not None:
                scaler.on_complete(chip, batch, rt.slo_s, now)
            pump(now, chip)

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == _METRICS:
                # handled before the in-flight integral update so the
                # float accounting (and hence the report) stays bit-for-bit
                # identical to an uninstrumented run
                observe.scrape(now, self._gauges(now, t0, in_flight, stage))
                if running():
                    push(now + metrics_interval_s, _METRICS, None)
                continue
            in_flight_area += in_flight * (now - last_t)
            last_t = now
            if kind == _ARRIVAL:
                request, rt = payload
                rt.arrivals_left -= 1
                if scaler is not None:
                    scaler.on_arrival()
                if rt.result_hit(request.target_vertex, now):
                    done = now + _CACHE_HIT_LATENCY_S
                    records.append(RequestRecord(
                        request_id=request.request_id,
                        target_vertex=request.target_vertex,
                        arrival_time_s=request.arrival_time_s,
                        dispatch_time_s=done,
                        service_start_s=done,
                        completion_time_s=done,
                        cache_hit=True,
                        tenant=rt.name,
                    ))
                    if observe is not None:
                        observe.on_cache_hit(now, request, done,
                                             tenant=rt.name)
                else:
                    if scaler is not None:
                        request = scaler.admit(rt, request, now)
                    if request is not None:  # not shed
                        in_flight += 1
                        # continuous batching: a formed-but-unstarted batch
                        # may absorb the request outright (its completion
                        # will cover it); otherwise accumulate as usual
                        joined = rt.batcher.try_join(request, now)
                        if joined is not None:
                            if observe is not None:
                                observe.on_late_join(now, joined, request)
                            stage.on_join(rt, joined)
                        else:
                            batch = rt.batcher.add(request, now)
                            if batch is not None:
                                submit(rt, batch, now)
                                pump(now)
                            # re-arm in every case: formation policies can
                            # emit a subset and leave a deadline pending
                            schedule_flush(rt, now)
                if rt.arrivals_left == 0 and rt.batcher.pending_count \
                        and rt.batcher.next_deadline(now) is None:
                    # end of this tenant's stream under a pure size cap:
                    # drain the remainder
                    for leftover in rt.batcher.drain(now):
                        submit(rt, leftover, now)
                    pump(now)
            elif kind == _FLUSH:
                rt = payload
                rt.scheduled_flush = None
                batch = rt.batcher.flush_due(now)
                if batch is not None:
                    submit(rt, batch, now)
                    pump(now)
                schedule_flush(rt, now)
            elif kind == _COMPLETION:
                complete(payload, now)
            elif kind == _UPDATE:
                invalidated = runtime_of(payload).stream.apply(now, payload)
                if observe is not None:
                    observe.on_update(now, payload, invalidated)
            elif kind == _CONTROL:
                scaler.tick(now, in_flight, running())
            else:  # _CHIP_READY
                if scaler.mark_ready(payload, now):
                    pump(now)

        if metrics_interval_s:
            # closing scrape (outside the loop, so it cannot perturb the
            # integral): even a run shorter than the interval gets >= 1 row
            observe.scrape(last_t, self._gauges(last_t, t0, in_flight, stage))
        span_s = last_t - t0
        return _Served(
            records=records, span_s=span_s,
            avg_in_flight=in_flight_area / span_s if span_s > 0 else 0.0,
            control=scaler.finalize(last_t) if scaler is not None else None)


class ServingSimulator(_FleetSimulator):
    """Discrete-event simulation of online inference over a chip fleet.

    The one-tenant front end of the fleet's event loop: a single anonymous
    :class:`TenantRuntime` serves ``graph`` with ``model``, and formed
    batches are *pushed* onto per-chip queues by the configured
    :data:`DISPATCH_POLICIES` policy.  See :class:`_FleetSimulator` for the
    elastic control plane.
    """

    def __init__(self, graph: Graph, model, config: Optional[FleetConfig] = None,
                 dataset_name: Optional[str] = None,
                 control: Optional[ControlConfig] = None,
                 observe=None, updates=None):
        cfg = config or FleetConfig()
        graph = _served_graph(graph, updates)
        runtime = TenantRuntime("", cfg, cfg, graph, model,
                                dataset_name or graph.name, cfg.seed,
                                priced=False)
        super().__init__(cfg, {"": runtime}, control, observe, updates)
        self.config = cfg
        #: The one tenant's run-time state (sampler, caches, time scales).
        self.runtime = runtime
        #: The per-(shape, bucket) service-rate model (None when untracked).
        self.scorer = runtime.shape_scorer
        self.probe_service_time_s = runtime.probe_service_s
        self.slo_s = runtime.slo_s
        self.join_window_s = runtime.join_window_s
        self.staleness_s = runtime.staleness_s
        self._dispatch = _build_dispatch(
            cfg.dispatch, graph.num_vertices, len(self.chips),
            scorer=runtime.shape_scorer, profile_fn=runtime.profile_fn)

    @property
    def batcher(self):
        """The batcher of the current (or most recent) run; tests replay
        ``ContinuousBatcher.join_log`` through it to prove the late-join
        budgets held."""
        return self.runtime.batcher

    def calibrate_rate(self, utilization_target: float = 0.7) -> float:
        """Arrival rate that loads the fleet to ``utilization_target``.

        A probe batch of ``max_batch_size`` distinct uniformly-drawn targets is
        simulated once per chip shape; the fleet's aggregate request
        throughput at full utilisation sums each chip's
        ``max_batch_size / service_time`` over the configured roster (which
        for a homogeneous fleet is the familiar
        ``num_chips * max_batch_size / service_time``).  Targets above 1
        deliberately overload the fleet (a queueing-study regime).
        """
        if not 0 < utilization_target:
            raise ValueError("utilization_target must be positive")
        rt = self.runtime
        capacity_rps = sum(
            rt.probe_batch_size / max(rt.probe_by_shape[shape], 1e-12)
            for shape, _ in self.config.chip_roster())
        return utilization_target * capacity_rps

    def run(self, requests: Sequence[Request],
            rate_rps: float = 0.0) -> ServingReport:
        """Serve ``requests`` (sorted by arrival) and return the report."""
        cfg = self.config
        stage = _PushStage(self._dispatch, self.chips)
        hetero = HeteroStats(dispatch_policy=cfg.dispatch) \
            if self._track_shapes else None
        report = self._run(requests, stage, hetero, {"": rate_rps},
                           cfg.dispatch, len(self.chips),
                           wrap=lambda slices: slices[""])
        report.max_queue_depth = stage.peak_backlog
        return report


# --------------------------------------------------------------------------- #
# End-to-end drivers' shared streaming/capture plumbing
# --------------------------------------------------------------------------- #
def _served_graph(graph: Graph, updates) -> Graph:
    """The graph a tenant serves: on a mutating run, a
    :class:`~repro.graphs.delta.DeltaGraph` overlay, so inserts never touch
    the shared memoised base graph."""
    if updates is None or isinstance(graph, DeltaGraph):
        return graph
    return DeltaGraph(graph, compact_every=updates.compact_every)


def _update_events(sources: Sequence[Tuple[Graph, int, float, int, str]],
                   update_rate: float, update_mix: Optional[str]) -> List:
    """Fresh update events, ``update_rate`` per request, for each
    ``(graph, num_requests, rate_rps, seed, tenant)`` source, merged by
    ``(arrival, tenant)`` and numbered 0..n-1 in that order (the offered
    sequence, like request ids; one untagged source keeps its ids)."""
    mix = parse_update_mix(update_mix) if update_mix else None
    merged: List = []
    for graph, num_requests, rate_rps, seed, tenant in sources:
        merged.extend(generate_update_stream(
            graph.num_vertices,
            num_updates=int(round(update_rate * num_requests)),
            rate_ups=update_rate * rate_rps, mix=mix, seed=seed,
            tenant=tenant))
    merged.sort(key=lambda e: (e.arrival_time_s, e.tenant))
    return [replace(e, update_id=i) for i, e in enumerate(merged)]


#: Capture-metadata keys describing the offered update process.
_UPDATE_PROVENANCE = ("update_rate", "update_mix", "invalidation",
                      "staleness_budget")


def _arm_update_stream(updates, update_rate: float, replay,
                      invalidation: str, staleness_budget: int):
    """``(updates, fill)``: the update stream a run arms, and whether its
    events are still to be generated.

    The stream object must exist before the simulator (it wraps the
    graphs and rebinds the caches), but generated events need the resolved
    arrival rates -- so a run function creates it empty here and generates
    ``updates.events`` after calibration (``fill``).  A replayed trace
    that carries updates arms the stream with the capturing run's events
    and policy, which are part of what made its report.
    """
    if update_rate < 0:
        raise ValueError("update_rate must be >= 0")
    if updates is not None:
        return updates, False
    replayed = replay is not None and replay.num_updates > 0
    if not (update_rate > 0 or replayed):
        return None, False
    if replayed:
        invalidation = replay.meta.get("invalidation", invalidation)
        staleness_budget = int(replay.meta.get("staleness_budget",
                                               staleness_budget))
    events = replay.to_update_events() if replayed else ()
    return UpdateStream(events=events, policy=invalidation,
                        staleness_budget_versions=staleness_budget), \
        not replayed


def _stamp_capture(capture, meta: Dict, updates, update_rate: float,
                  update_mix: Optional[str], replay,
                  requests: Sequence[Request],
                  provenance: Tuple[str, ...] = _UPDATE_PROVENANCE) -> None:
    """Record the offered ``requests`` and ``updates.events`` into
    ``capture`` in the order the event loop pops them, ``(arrival_time_s,
    push order)``: a stable sort by arrival time.  Stamp what ``serve
    --replay`` / ``trace-stats`` need into ``capture.meta``.

    Re-capturing a replay keeps the original workload's ``provenance``
    keys (the offered process, not the replay mechanism), so the new trace
    file is byte-identical to the one replayed.
    """
    capture.requests = sorted(requests, key=lambda r: r.arrival_time_s)
    capture.updates = sorted(updates.events if updates is not None else (),
                             key=lambda e: e.arrival_time_s)
    capture.meta.update(meta)
    if updates is not None:
        capture.meta.update({
            "update_rate": update_rate,
            "invalidation": updates.policy,
            "staleness_budget": updates.staleness_budget_versions,
        })
        if update_mix:
            capture.meta["update_mix"] = update_mix
    if replay is not None:
        for key in provenance:
            if key in replay.meta:
                capture.meta[key] = replay.meta[key]


def run_serving(
    dataset: str = "CR",
    model_name: str = "GCN",
    num_requests: int = 1000,
    rate_rps: Optional[float] = None,
    arrival: str = "poisson",
    popularity_skew: float = 0.8,
    config: Optional[FleetConfig] = None,
    trace: Optional[Sequence[float]] = None,
    utilization_target: float = 0.7,
    seed: int = 0,
    control: Optional[ControlConfig] = None,
    peak_factor: float = 4.0,
    observe=None,
    capture=None,
    replay=None,
    update_rate: float = 0.0,
    update_mix: Optional[str] = None,
    invalidation: str = "targeted",
    staleness_budget: int = 0,
    updates=None,
) -> ServingReport:
    """End-to-end convenience: dataset -> traffic -> fleet -> report.

    When ``rate_rps`` is ``None`` the arrival rate is calibrated to load the
    fleet to ``utilization_target`` of its measured batch throughput, so the
    run exhibits realistic queueing on any dataset/model/hardware combination.
    For trace replay the timestamps fix the rate, so no calibration runs and
    the reported rate is the trace's own mean arrival rate.

    ``control`` arms the elastic control plane (see
    :mod:`repro.serving.control`); calibration still sizes the rate against
    the *configured* ``num_chips``, so an autoscaled run is comparable to the
    fixed fleet it elasticised.  ``peak_factor`` only matters for the ramp
    arrival process.  ``observe`` threads an
    :class:`~repro.serving.observe.Instrumentation` hub through the run
    (span traces + metrics); instrumenting never changes the report.

    ``capture`` is a :class:`~repro.serving.trace.TraceWriter` that records
    the offered requests and updates, and the workload/sampling parameters
    a replay needs in ``capture.meta``, before serving begins; capturing
    never changes the report.  ``replay`` takes a
    :class:`~repro.serving.trace.RequestTrace` and serves its exact request
    stream instead of generating one -- with the same ``config``/``seed``
    the replayed report is bit-for-bit identical to the captured run's.
    """
    config = config or FleetConfig()
    updates, fill_update_events = _arm_update_stream(
        updates, update_rate, replay, invalidation, staleness_budget)
    graph = load_dataset(dataset, seed=seed)
    model = build_model(model_name, input_length=graph.feature_length)
    simulator = ServingSimulator(graph, model, config, dataset_name=dataset,
                                 control=control, observe=observe,
                                 updates=updates)
    if replay is not None:
        if replay.multi_tenant:
            raise ValueError(
                f"trace was captured from a multi-tenant run (tenants: "
                f"{', '.join(replay.tenant_names)}); replay it through "
                f"run_multi_tenant / `serve --tenants ... --replay`")
        arrival = "trace"
        num_requests = replay.num_requests
        if rate_rps is None:
            # the capturing run stamped its resolved rate so the replayed
            # report's rate_rps field matches bit-for-bit; fall back to the
            # trace's own mean arrival rate for hand-built traces
            stamped = replay.meta.get("rate_rps")
            rate_rps = float(stamped) if stamped is not None \
                else (replay.mean_rate_rps or 1.0)
        trace = replay
    if arrival == "trace":
        if rate_rps is None:
            times = trace_arrival_times(trace or [], num_requests)
            span = float(times[-1] - times[0]) if times.size > 1 else 0.0
            # N arrivals span N-1 inter-arrival gaps
            rate_rps = (times.size - 1) / span if span > 0 \
                else float(max(1, times.size))
    elif rate_rps is None:
        rate_rps = simulator.calibrate_rate(utilization_target)
    if fill_update_events:
        updates.events = _update_events(
            [(graph, num_requests, rate_rps, seed, "")],
            update_rate, update_mix)
    workload = WorkloadConfig(num_requests=num_requests, rate_rps=rate_rps,
                              arrival=arrival, popularity_skew=popularity_skew,
                              peak_factor=peak_factor, seed=seed)
    requests = RequestGenerator(graph.num_vertices, workload).generate(trace)
    if capture is not None:
        _stamp_capture(capture, {
            "kind": "serve", "dataset": dataset, "model": model_name,
            "num_hops": config.num_hops, "fanout": config.fanout,
            "seed": seed, "popularity_skew": popularity_skew,
            "arrival": arrival, "rate_rps": rate_rps,
            "num_chips": config.num_chips,
            "slo_s": simulator.slo_s,
        }, updates, update_rate, update_mix, replay, requests,
            provenance=("arrival", "popularity_skew", "seed")
            + _UPDATE_PROVENANCE)
    return simulator.run(requests, rate_rps=rate_rps)
