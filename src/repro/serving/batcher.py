"""Dynamic request batching: flush triggers and the base batcher contract.

Batching amortises the accelerator's per-dispatch overhead (weight streaming,
pipeline fill) across many requests, at the cost of queueing delay for the
requests that arrive first.  Batching has two orthogonal axes:

* **when to flush** (this module) -- ``size`` flushes only when
  ``max_batch_size`` requests are waiting (maximum throughput, unbounded
  tail latency under light load); ``timeout`` additionally flushes when the
  oldest waiting request has been queued for ``timeout_s`` (bounds the
  batching delay); ``slo`` flushes when the oldest request's remaining
  latency budget drops below a safety multiple of the estimated service
  time, where the estimate is an EWMA of service times observed by the
  fleet (adapts the batching delay to how fast the chips currently are);
* **what to co-batch** (:mod:`repro.serving.batching`) -- the *formation*
  policies behind the :data:`repro.serving.batching.BATCH_POLICIES`
  registry (``fifo`` / ``overlap`` / ``continuous``) decide *which* pending
  requests ride together, grouping requests whose sampled neighbourhoods
  overlap so the fused subgraph shrinks, and optionally letting late
  arrivals join an already-formed batch.

All times are **seconds of simulated time** (the CLI exposes milliseconds
and converts).  The batchers are passive and draw no randomness, so batch
formation is deterministic given the request stream: the discrete-event
loops in :mod:`repro.serving.fleet` / :mod:`repro.serving.tenancy` call
:meth:`Batcher.add` on every arrival, ask :meth:`Batcher.next_deadline`
when to schedule a timer, call :meth:`Batcher.flush_due` when that timer
fires, and :meth:`Batcher.drain` at end of stream.

One-clock invariant: ``Batch.created_time_s`` is always stamped from the
``now`` argument of the call that formed the batch -- the *event-loop*
clock -- never from a request's enqueue time or a precomputed deadline.  A
timer that fires late (e.g. superseded by an earlier SLO deadline and
popped afterwards) therefore stamps the time the flush actually happened,
which is what the latency breakdown in :mod:`repro.serving.stats` charges
as batching wait.  ``tests/serving/test_batching.py`` pins this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .workload import Request

__all__ = [
    "BATCHING_POLICIES",
    "Batch",
    "Batcher",
    "SizeCappedBatcher",
    "TimeoutBatcher",
    "SLOAwareBatcher",
    "build_batcher",
]

#: Flush-trigger policy names accepted by the CLI and :func:`build_batcher`.
#: The batch *formation* policies (``fifo`` / ``overlap`` / ``continuous``)
#: live in :data:`repro.serving.batching.BATCH_POLICIES`.
BATCHING_POLICIES = ("size", "timeout", "slo")

_EPS = 1e-12


@dataclass
class Batch:
    """A group of requests fused into one accelerator dispatch.

    Batches never mix tenants: multi-tenant serving runs one batcher per
    tenant, so ``tenant`` is simply stamped from the owning batcher (empty in
    single-tenant serving).

    ``created_time_s`` is the event-loop clock at formation (seconds of
    simulated time); late joins admitted by the ``continuous`` policy
    append to ``requests`` and bump ``late_joins`` but never rewrite the
    formation timestamp.  ``fused_vertices`` / ``naive_vertices`` /
    ``overlap_ratio`` are stamped by the fleet's service-time model when
    the batch starts service: the deduped fused-subgraph vertex count, the
    sum of every member request's standalone neighbourhood size, and
    ``1 - fused/naive`` (the fraction of neighbourhood work the fusion
    eliminated).

    ``profile`` is the demand stamp of heterogeneous fleets: a
    :class:`~repro.serving.hetero.BatchProfile` estimated *before* service
    (shape-aware dispatch scores chip shapes with it).  It describes the
    batch's current membership, so the ``continuous`` policy resets it to
    ``None`` on every admitted late join and the dispatcher re-stamps
    lazily.  Homogeneous shape-oblivious runs leave it ``None`` throughout.

    ``phase_cycles`` is the cycle-model phase breakdown (aggregation vs.
    combination vs. DRAM-busy cycles) of the batch's fused-subgraph
    simulation, stamped by the service-time model when the batch starts
    service.  ``shard_timings`` is the per-shard
    :class:`~repro.serving.sharding.ShardTiming` list a chip group stamps
    instead (``None`` on an unsharded fleet).  Both are plain data: the
    event loop hands the finished batch to the observability hub
    (:mod:`repro.serving.observe`), which turns them into trace spans.
    """

    batch_id: int
    requests: List[Request]
    created_time_s: float
    tenant: str = ""
    late_joins: int = 0
    fused_vertices: int = 0
    naive_vertices: int = 0
    overlap_ratio: float = 0.0
    profile: Optional[object] = None
    phase_cycles: Optional[Dict[str, int]] = None
    shard_timings: Optional[List[object]] = None

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def oldest_arrival_s(self) -> float:
        return min(r.arrival_time_s for r in self.requests)


@dataclass
class Batcher:
    """Base class: size-capped accumulation plus a policy-defined deadline.

    Subclasses override :meth:`next_deadline` (flush triggers) and/or
    :meth:`flush` (formation policies, :mod:`repro.serving.batching`).  The
    base class keeps ``_pending`` in arrival order (the event loop feeds it
    arrivals in nondecreasing time), which every deadline policy relies on.
    ``late_joins`` / ``late_join_rejects`` stay zero except under the
    ``continuous`` formation policy.
    """

    max_batch_size: int = 32
    policy: str = "size"
    tenant: str = ""
    late_joins: int = field(default=0, repr=False)
    late_join_rejects: int = field(default=0, repr=False)
    _pending: List[Request] = field(default_factory=list, repr=False)
    _next_batch_id: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")

    # ------------------------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def add(self, request: Request, now: float) -> Optional[Batch]:
        """Queue ``request``; returns a batch when the size cap is reached.

        ``now`` is the event-loop clock (seconds); it stamps the batch when
        the size cap fires, so a cap-triggered batch is formed at the
        arrival that completed it.
        """
        self._pending.append(request)
        if len(self._pending) >= self.max_batch_size:
            return self.flush(now)
        return None

    def flush(self, now: float) -> Optional[Batch]:
        """Unconditionally emit pending requests as one batch (or ``None``).

        The base policy emits *all* pending requests in arrival order;
        formation policies may emit a subset and keep the rest pending (so
        callers must re-arm the flush timer after every emission).  The
        batch is stamped with ``now``, the event-loop clock.
        """
        if not self._pending:
            return None
        batch = Batch(batch_id=self._next_batch_id, requests=self._pending,
                      created_time_s=now, tenant=self.tenant)
        self._next_batch_id += 1
        self._pending = []
        return batch

    def flush_due(self, now: float) -> Optional[Batch]:
        """Emit a batch if the policy deadline has been reached.

        Late-firing timers are fine: the emitted batch carries ``now`` (the
        event-loop clock at the actual flush), not the deadline that armed
        the timer and not any request's enqueue time.
        """
        deadline = self.next_deadline(now)
        if deadline is not None and now >= deadline - _EPS:
            return self.flush(now)
        return None

    def drain(self, now: float) -> List[Batch]:
        """Emit *everything* still pending (end of stream).

        The base policy returns at most one batch; formation policies that
        emit bounded groups per flush return several.  Always empties the
        pending queue.
        """
        batches: List[Batch] = []
        while True:
            batch = self.flush(now)
            if batch is None:
                return batches
            batches.append(batch)

    def next_deadline(self, now: float) -> Optional[float]:
        """Absolute time at which the pending requests must be flushed.

        ``None`` means the policy never flushes on time alone (pure size cap).
        """
        return None

    def try_join(self, request: Request, now: float) -> Optional[Batch]:
        """Admit ``request`` into an already-formed batch, if the policy can.

        Returns the joined batch (its ``requests`` now include ``request``)
        or ``None`` when the policy does not support late joins (every
        policy except ``continuous``) or no open batch is eligible.  The
        event loop calls this *before* :meth:`add` on every admitted
        cache-missing arrival.
        """
        return None

    def on_service_start(self, batch: Batch) -> None:
        """Seal ``batch``: a chip started serving it, no more late joins."""

    def observe_service_time(self, service_s: float) -> None:
        """Feedback hook: the fleet reports each batch's service time.

        ``service_s`` is seconds of simulated time; only the ``slo`` policy
        consumes it (its flush deadline tracks an EWMA of these).
        """


class SizeCappedBatcher(Batcher):
    """Flush only on the size cap (the event loop drains leftovers at EOS).

    Deterministic: batches are the arrival-order prefix groups of the
    request stream, independent of wall-clock time.
    """

    def __init__(self, max_batch_size: int = 32, tenant: str = ""):
        super().__init__(max_batch_size=max_batch_size, policy="size",
                         tenant=tenant)


class TimeoutBatcher(Batcher):
    """Flush on the size cap or when the oldest request ages past ``timeout_s``.

    ``timeout_s`` is seconds of simulated time; the fleet defaults it
    adaptively to a multiple of the probe-batch service time (see
    :mod:`repro.serving.fleet`).  The deadline tracks the oldest *pending*
    request, so every request leaves the queue within ``timeout_s`` of its
    arrival even when formation policies emit subsets.
    """

    def __init__(self, max_batch_size: int = 32, timeout_s: float = 5e-4,
                 tenant: str = ""):
        super().__init__(max_batch_size=max_batch_size, policy="timeout",
                         tenant=tenant)
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = float(timeout_s)

    def next_deadline(self, now: float) -> Optional[float]:
        if not self._pending:
            return None
        return self._pending[0].arrival_time_s + self.timeout_s


class SLOAwareBatcher(Batcher):
    """Flush so the oldest request can still meet its latency SLO.

    The deadline leaves ``safety_factor`` times the estimated service time as
    headroom inside the ``slo_s`` budget (both in seconds of simulated
    time).  Before any feedback arrives the estimate defaults to a quarter
    of the SLO.  The EWMA only consumes service times the fleet reports via
    :meth:`observe_service_time`, so batch formation stays deterministic
    for a deterministic simulation -- but note the estimate *does* reflect
    feature-cache reuse on the chips: warm chips shorten service times,
    which loosens the flush deadline.
    """

    def __init__(self, max_batch_size: int = 32, slo_s: float = 2e-3,
                 safety_factor: float = 1.5, ewma_alpha: float = 0.3,
                 tenant: str = ""):
        super().__init__(max_batch_size=max_batch_size, policy="slo",
                         tenant=tenant)
        if slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.slo_s = float(slo_s)
        self.safety_factor = float(safety_factor)
        self.ewma_alpha = float(ewma_alpha)
        self._service_estimate_s: Optional[float] = None

    @property
    def service_estimate_s(self) -> float:
        if self._service_estimate_s is None:
            return self.slo_s / 4.0
        return self._service_estimate_s

    def observe_service_time(self, service_s: float) -> None:
        if self._service_estimate_s is None:
            self._service_estimate_s = service_s
        else:
            a = self.ewma_alpha
            self._service_estimate_s = a * service_s + (1 - a) * self._service_estimate_s

    def next_deadline(self, now: float) -> Optional[float]:
        if not self._pending:
            return None
        budget = max(0.0, self.slo_s - self.safety_factor * self.service_estimate_s)
        return self._pending[0].arrival_time_s + budget


def build_batcher(policy: str, max_batch_size: int = 32, timeout_s: float = 5e-4,
                  slo_s: float = 2e-3, tenant: str = "") -> Batcher:
    """Construct the flush-trigger batcher named by ``policy``.

    Only the :data:`BATCHING_POLICIES` trio lives here; the formation
    policies (``fifo`` / ``overlap`` / ``continuous``) are built by
    :func:`repro.serving.batching.build_batch_policy`, which falls back to
    this function for the trio.  ``timeout_s`` / ``slo_s`` are seconds.
    """
    if policy == "size":
        return SizeCappedBatcher(max_batch_size=max_batch_size, tenant=tenant)
    if policy == "timeout":
        return TimeoutBatcher(max_batch_size=max_batch_size, timeout_s=timeout_s,
                              tenant=tenant)
    if policy == "slo":
        return SLOAwareBatcher(max_batch_size=max_batch_size, slo_s=slo_s,
                               tenant=tenant)
    raise ValueError(f"unknown batching policy {policy!r}; "
                     f"choose from {BATCHING_POLICIES}")
