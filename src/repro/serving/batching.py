"""Batch *formation* policies: FIFO, overlap-aware, and continuous batching.

The flush-trigger batchers in :mod:`repro.serving.batcher` decide *when* a
batch leaves the queue; this module decides *which* requests ride together.
That distinction matters because HyGCN's hybrid architecture wins exactly
when the fused graph handed to the aggregation engine is dense and
reuse-heavy: co-batching requests whose sampled k-hop neighbourhoods
intersect shrinks the deduped fused subgraph
(:meth:`~repro.serving.sampler.SubgraphSampler.fuse`), so every member
request's share of the aggregation work drops.  Three policies, registered
in :data:`BATCH_POLICIES`:

* ``fifo`` -- arrival-order formation with a timeout flush.  Functionally
  the classic ``timeout`` batcher; it exists as an explicitly named
  baseline so ``overlap`` / ``continuous`` runs have a like-for-like
  comparison point.
* ``overlap`` -- greedy signature-driven grouping.  Pending requests carry
  minhash signatures of their sampled neighbourhoods
  (:meth:`~repro.serving.sampler.SubgraphSampler.signature`); each flush
  anchors a group on the **oldest** pending request (so the timeout bound
  still holds per request) and greedily adds the pending request with the
  highest estimated Jaccard similarity to the group's running union
  signature -- a set-cover-style heuristic that concentrates overlapping
  neighbourhoods into the same dispatch.  Requests that overlap nothing
  are taken in arrival order, so a zero-overlap workload degrades to
  *exactly* the FIFO batches.
* ``continuous`` -- overlap formation plus **late joins**: a formed batch
  stays *open* while it waits for a chip, and a late-arriving request may
  join it instead of waiting for a fresh batch, bounded by two budgets --
  the **join window** (``join_window_s`` after formation) and the
  **staleness budget** (``staleness_s``: the batch's oldest member must
  not have waited longer than this when the join is admitted, so SLOs
  hold).  A batch is sealed the moment a chip starts serving it
  (:meth:`~repro.serving.batcher.Batcher.on_service_start`).

All times are seconds of simulated time.  Formation draws no randomness of
its own -- signatures come from the seeded sampler and ties break on
``(arrival, request_id)`` -- so grouping is bit-for-bit deterministic under
a fixed seed.  See ``docs/batching.md`` for the full lifecycle, cost model
and tuning guidance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional

import numpy as np

from .batcher import (
    BATCHING_POLICIES,
    Batch,
    Batcher,
    TimeoutBatcher,
    build_batcher,
)
from .sampler import estimate_jaccard
from .workload import Request

__all__ = [
    "BATCH_POLICIES",
    "ALL_BATCH_POLICIES",
    "FIFOBatcher",
    "OverlapBatcher",
    "ContinuousBatcher",
    "LateJoin",
    "build_batch_policy",
    "make_signature_fn",
    "resolve_signature_hops",
]

#: Formation-policy names accepted by the CLI and :func:`build_batch_policy`.
BATCH_POLICIES = ("fifo", "overlap", "continuous")

#: Everything ``--batch-policy`` accepts: flush triggers + formation policies.
ALL_BATCH_POLICIES = BATCHING_POLICIES + BATCH_POLICIES

_EPS = 1e-12

#: ``request -> uint64 minhash signature`` of its sampled neighbourhood.
SignatureFn = Callable[[Request], np.ndarray]


def resolve_signature_hops(overlap_k: Optional[int], num_hops: int) -> int:
    """Resolved signature depth: ``overlap_k`` (default 1) capped to the
    serving hop depth.

    The single source of the signature-depth rule -- the CLI's
    ``--overlap-k``, :attr:`FleetConfig.signature_hops` and every tenant's
    signature function resolve through here, so single- and multi-tenant
    runs can never drift onto different depths.  One hop is
    the default: direct neighbourhoods predict fused-subgraph shrinkage
    well and keep signatures cheap.
    """
    return min(1 if overlap_k is None else overlap_k, num_hops)


def make_signature_fn(sampler, num_hops: int, fanout: int,
                      overlap_k: Optional[int] = None) -> SignatureFn:
    """``request -> minhash signature`` bound to ``sampler``.

    Signatures honour per-request degrade overrides (a degraded request is
    grouped by the neighbourhood it will actually sample) at the depth
    :func:`resolve_signature_hops` resolves from ``overlap_k``.  Each
    :class:`~repro.serving.fleet.TenantRuntime` binds one.
    """
    sig_hops = resolve_signature_hops(overlap_k, num_hops)

    def signature(request: Request) -> np.ndarray:
        hops = num_hops if request.degrade_hops is None \
            else request.degrade_hops
        fan = fanout if request.degrade_fanout is None \
            else request.degrade_fanout
        return sampler.signature(request.target_vertex,
                                 num_hops=min(sig_hops, hops), fanout=fan)
    return signature


@dataclass(frozen=True)
class LateJoin:
    """Audit record of one admitted late join (continuous batching).

    ``batch_age_s`` is how long after formation the join landed (must be
    within the join window); ``oldest_wait_s`` is how long the batch's
    oldest member had been waiting at that moment (must be within the
    staleness budget).  The acceptance tests replay this log to prove the
    budgets were never violated.
    """

    time_s: float
    batch_id: int
    batch_age_s: float
    oldest_wait_s: float


class FIFOBatcher(TimeoutBatcher):
    """Arrival-order formation with a timeout flush (the named baseline).

    Identical batches to ``timeout``; only the policy label differs, so
    reports and benchmarks can name the formation baseline explicitly.
    """

    def __init__(self, max_batch_size: int = 32, timeout_s: float = 5e-4,
                 tenant: str = ""):
        super().__init__(max_batch_size=max_batch_size, timeout_s=timeout_s,
                         tenant=tenant)
        self.policy = "fifo"


class OverlapBatcher(Batcher):
    """Greedy overlap-aware formation over minhash neighbourhood signatures.

    Every pending request carries the signature ``signature_fn`` computed on
    arrival (one memoised sampler lookup).  :meth:`flush` emits **one**
    group of at most ``max_batch_size`` requests: the oldest pending
    request anchors the group, then the candidate with the highest
    estimated Jaccard similarity against the group's union signature is
    added greedily (the union minhash is the elementwise minimum).  Ties --
    including the all-zero-similarity case of a disjoint workload -- break
    on arrival order, which is what makes zero-overlap formation reproduce
    FIFO batches exactly.  ``min_overlap`` (0 disables) stops growth when
    the best candidate's similarity falls below the threshold, trading
    batch size for purity; disjoint workloads then see single-request
    batches.

    Grouping only has room to work when the candidate pool is larger than
    one batch, so formation policies do **not** flush at the batch size
    cap: pending requests accumulate in a *formation pool* of up to
    ``pool_factor * max_batch_size`` requests (forced flush beyond that),
    and every flush emits one group of at most ``max_batch_size``.  The
    flush deadline stays timeout-style on the oldest pending request, so
    no request waits more than ``timeout_s`` to be formed no matter how
    poorly it overlaps -- under light, timeout-driven load the pool never
    fills and formation behaves exactly like FIFO.  Deterministic:
    signatures are seeded-sampler outputs, selection is
    argmax-with-first-tie over a stable order.
    """

    def __init__(self, max_batch_size: int = 32, timeout_s: float = 5e-4,
                 signature_fn: Optional[SignatureFn] = None,
                 min_overlap: float = 0.0, pool_factor: int = 4,
                 tenant: str = "", policy: str = "overlap"):
        super().__init__(max_batch_size=max_batch_size, policy=policy,
                         tenant=tenant)
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if not 0.0 <= min_overlap <= 1.0:
            raise ValueError("min_overlap must be in [0, 1]")
        if pool_factor < 1:
            raise ValueError("pool_factor must be >= 1")
        if signature_fn is None:
            raise ValueError(f"the {policy!r} policy needs a signature_fn")
        self.timeout_s = float(timeout_s)
        self.min_overlap = float(min_overlap)
        self.pool_size = int(pool_factor) * self.max_batch_size
        self._signature_fn = signature_fn
        #: pending signatures, row ``i`` parallel to ``_pending[i]``;
        #: allocated on the first arrival, whose signature fixes the width
        self._pool: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def add(self, request: Request, now: float) -> Optional[Batch]:
        """Pool ``request``; emits a group only when the pool overflows."""
        sig = self._signature_fn(request)
        if self._pool is None:
            # add flushes at pool_size, so the pool never holds more rows
            self._pool = np.empty((self.pool_size, sig.shape[-1]),
                                  dtype=np.uint64)
        elif sig.shape != self._pool.shape[1:]:
            raise ValueError("signatures must have the same length")
        self._pool[len(self._pending)] = sig
        self._pending.append(request)
        if len(self._pending) >= self.pool_size:
            return self.flush(now)
        return None

    def next_deadline(self, now: float) -> Optional[float]:
        if not self._pending:
            return None
        return self._pending[0].arrival_time_s + self.timeout_s

    def flush(self, now: float) -> Optional[Batch]:
        """Form and emit one overlap group; leftovers stay pending.

        Callers must re-arm the flush timer after every emission (the
        leftover's oldest request defines a fresh deadline) -- both event
        loops do.  The batch is stamped with ``now``, the event-loop clock.
        """
        if not self._pending:
            return None
        chosen, union_sig, keep = self._form_group()
        requests = [self._pending[i] for i in chosen]
        left = len(self._pending) - len(chosen)
        self._pool[:left] = self._pool[:len(self._pending)][keep]
        self._pending = list(compress(self._pending, keep.tolist()))
        batch = Batch(batch_id=self._next_batch_id, requests=requests,
                      created_time_s=now, tenant=self.tenant)
        self._next_batch_id += 1
        self._register(batch, union_sig)
        return batch

    # ------------------------------------------------------------------ #
    def _form_group(self):
        """Indices of the next group (selection order), its union minhash
        signature, and the mask of pending rows it leaves behind.

        ``_pending`` is in arrival order (nondecreasing time), so row 0 is
        the oldest request and anchors the group.  Every pool row keeps an
        integer count of its components equal to the union's (taken rows
        hold -1), so ``argmax`` -- the first max, hence the oldest of tied
        candidates -- only ever picks a pending one, and ``count / width``
        is the float :func:`estimate_jaccard` gives.  A union update
        recounts only the components it changed: each row gains its
        matches against the new values and loses those against the old.
        """
        pool = self._pool[:len(self._pending)]
        width = pool.shape[1]
        union_sig = pool[0].copy()
        counts = (pool == union_sig).sum(axis=1)
        counts[0] = -1
        chosen = [0]                        # selection order, anchor first
        for _ in range(min(len(pool), self.max_batch_size) - 1):
            best = int(counts.argmax())
            if counts[best] / width < self.min_overlap:
                break
            chosen.append(best)
            row = pool[best]
            changed = (row < union_sig).nonzero()[0]
            if changed.size:
                # one row per changed component, a column of the pool
                columns = pool.T[changed]
                new = row[changed]
                counts += (columns == new[:, None]).sum(axis=0) \
                    - (columns == union_sig[changed, None]).sum(axis=0)
                union_sig[changed] = new
                counts[chosen] = -1
            else:
                counts[best] = -1
        keep = np.ones(len(pool), dtype=bool)
        keep[chosen] = False
        return chosen, union_sig, keep

    def _register(self, batch: Batch, union_sig: np.ndarray) -> None:
        """Hook for :class:`ContinuousBatcher` to keep the batch open."""


class ContinuousBatcher(OverlapBatcher):
    """Overlap formation plus late joins into formed-but-unstarted batches.

    A batch emitted by :meth:`flush` stays *open* until a chip starts
    serving it or its join window expires.  On every admitted cache-missing
    arrival the event loop offers the request via :meth:`try_join` before
    falling back to normal accumulation; the request joins the eligible
    open batch with the highest signature similarity.  ``min_overlap``
    binds joins exactly as it binds group growth, so a batch formed under
    a purity floor never refills with non-overlapping strangers.
    Eligibility (all checked at the event-loop clock ``now``):

    * the batch has spare capacity (``size < max_batch_size``);
    * ``now <= created_time_s + join_window_s`` (boundary inclusive);
    * ``now - oldest_arrival_s <= staleness_s`` -- the staleness budget:
      a join may grow the service time of requests already in the batch,
      so batches whose oldest member has already waited long are sealed
      to protect its SLO.

    Every admitted join is appended to :attr:`join_log` (a
    :class:`LateJoin` per event) so tests and reports can prove the
    budgets held.  Joins never rewrite ``created_time_s``.
    """

    def __init__(self, max_batch_size: int = 32, timeout_s: float = 5e-4,
                 signature_fn: Optional[SignatureFn] = None,
                 min_overlap: float = 0.0, pool_factor: int = 4,
                 join_window_s: float = 5e-4,
                 staleness_s: float = 1e-3, tenant: str = ""):
        super().__init__(max_batch_size=max_batch_size, timeout_s=timeout_s,
                         signature_fn=signature_fn, min_overlap=min_overlap,
                         pool_factor=pool_factor, tenant=tenant,
                         policy="continuous")
        if join_window_s <= 0:
            raise ValueError("join_window_s must be positive")
        if staleness_s <= 0:
            raise ValueError("staleness_s must be positive")
        self.join_window_s = float(join_window_s)
        self.staleness_s = float(staleness_s)
        self._open: Dict[int, List] = {}    # batch_id -> [batch, union_sig]
        self.join_log: List[LateJoin] = []

    # ------------------------------------------------------------------ #
    def try_join(self, request: Request, now: float) -> Optional[Batch]:
        self._expire(now)
        eligible = [entry for entry in self._open.values()
                    if entry[0].size < self.max_batch_size
                    and now - entry[0].oldest_arrival_s
                    <= self.staleness_s + _EPS]
        best_entry = None
        if eligible:
            sig = self._signature_fn(request)
            sims = estimate_jaccard(np.stack([u for _, u in eligible]), sig)
            best = int(np.argmax(sims))  # first max: oldest batch on ties
            # the purity floor binds joins exactly like group growth: a
            # batch formation kept pure must not refill with strangers
            if sims[best] >= self.min_overlap:
                best_entry = eligible[best]
        if best_entry is None:
            if self._open:
                self.late_join_rejects += 1
            return None
        batch, union_sig = best_entry
        batch.requests.append(request)
        batch.late_joins += 1
        # the join changed the batch's membership: any stamped demand
        # profile (shape-aware dispatch) is stale now, force a re-stamp
        batch.profile = None
        self.late_joins += 1
        best_entry[1] = np.minimum(union_sig, sig)
        self.join_log.append(LateJoin(
            time_s=now, batch_id=batch.batch_id,
            batch_age_s=now - batch.created_time_s,
            oldest_wait_s=now - batch.oldest_arrival_s))
        return batch

    def on_service_start(self, batch: Batch) -> None:
        self._open.pop(batch.batch_id, None)

    @property
    def open_batches(self) -> int:
        """Formed-but-unsealed batches currently accepting joins."""
        return len(self._open)

    # ------------------------------------------------------------------ #
    def _register(self, batch: Batch, union_sig: np.ndarray) -> None:
        self._open[batch.batch_id] = [batch, union_sig]

    def _expire(self, now: float) -> None:
        expired = [bid for bid, (batch, _) in self._open.items()
                   if now - batch.created_time_s > self.join_window_s + _EPS]
        for bid in expired:
            del self._open[bid]


def build_batch_policy(policy: str, max_batch_size: int = 32,
                       timeout_s: float = 5e-4, slo_s: float = 2e-3,
                       signature_fn: Optional[SignatureFn] = None,
                       min_overlap: float = 0.0, pool_factor: int = 4,
                       join_window_s: Optional[float] = None,
                       staleness_s: Optional[float] = None,
                       tenant: str = "") -> Batcher:
    """Construct the batcher named by ``policy`` -- any of the six.

    The flush-trigger trio (:data:`~repro.serving.batcher.BATCHING_POLICIES`)
    delegates to :func:`~repro.serving.batcher.build_batcher`; the formation
    trio (:data:`BATCH_POLICIES`) is built here.  ``overlap`` and
    ``continuous`` require ``signature_fn``.  ``join_window_s`` defaults to
    ``timeout_s`` (a batch accepts joins for about as long as it was
    allowed to form) and ``staleness_s`` to half of ``slo_s`` (joins stop
    while the oldest member still has half its budget for queueing and
    service); all times in seconds.
    """
    if policy in BATCHING_POLICIES:
        return build_batcher(policy, max_batch_size=max_batch_size,
                             timeout_s=timeout_s, slo_s=slo_s, tenant=tenant)
    if policy == "fifo":
        return FIFOBatcher(max_batch_size=max_batch_size, timeout_s=timeout_s,
                           tenant=tenant)
    if policy == "overlap":
        return OverlapBatcher(max_batch_size=max_batch_size,
                              timeout_s=timeout_s, signature_fn=signature_fn,
                              min_overlap=min_overlap,
                              pool_factor=pool_factor, tenant=tenant)
    if policy == "continuous":
        return ContinuousBatcher(
            max_batch_size=max_batch_size, timeout_s=timeout_s,
            signature_fn=signature_fn, min_overlap=min_overlap,
            pool_factor=pool_factor,
            join_window_s=join_window_s if join_window_s is not None
            else timeout_s,
            staleness_s=staleness_s if staleness_s is not None
            else 0.5 * slo_s,
            tenant=tenant)
    raise ValueError(f"unknown batch policy {policy!r}; "
                     f"choose from {ALL_BATCH_POLICIES}")
