"""Streaming graph updates under live serving traffic.

The production graphs the paper's serving story targets (fraud, recsys,
knowledge graphs) mutate continuously while queries are in flight.  This
module supplies everything the event loop needs to serve such a workload
*consistently*:

* :class:`UpdateEvent` -- one graph mutation with its own arrival time,
  fully self-describing (feature rows are a deterministic function of the
  recorded ``feature_seed``) so a captured trace replays bit-for-bit;
* :func:`generate_update_stream` -- a seeded Poisson update process with a
  configurable kind mix (see :func:`parse_update_mix`), memoised
  process-wide so policy-comparison sweeps replay the identical stream;
* :class:`UpdateStream` -- the duck-typed ``updates=`` opt-in object both
  event loop accepts (``updates=None`` keeps existing runs untouched);
* :class:`StreamState` -- the per-run applier / invalidator / consistency
  tracker.  It owns the *invalidation matrix*: which of the five derived
  caches (result cache, per-chip feature caches, sampler sample/signature
  memos, halo caches, shard-plan ownership) each update kind must touch,
  per :data:`INVALIDATION_POLICIES` policy.  Under ``"none"`` nothing is
  invalidated and the tracker counts every stale serve instead -- the
  differential consistency suite's kill switch.

Consistency is checked differentially: extraction is deterministic per
``(seed, target, hops, fanout)``, so a memoised sample that differs from a
memo-bypassing recomputation (:meth:`SubgraphSampler.extract_fresh_many`) at
service time *is* a stale serve, not randomness.  See ``docs/streaming.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.delta import DeltaGraph
from .stats import ConsistencyStats

__all__ = ["UPDATE_KINDS", "INVALIDATION_POLICIES", "UpdateEvent",
           "UpdateStream", "StreamState", "parse_update_mix",
           "feature_row", "generate_update_stream",
           "clear_update_stream_cache"]

#: The mutation kinds an update stream can carry: an in-edge insertion, a
#: feature-row overwrite, or a new vertex (attached by one in-edge so the
#: insertion perturbs an existing neighbourhood).
UPDATE_KINDS = ("edge", "feature", "vertex")

#: Cache-invalidation policies for mutating runs: ``targeted`` drops exactly
#: the derived-state entries an update made stale, ``flush`` clears every
#: cache on any update, ``none`` keeps stale entries (the consistency
#: tracker counts the violations -- the kill-test baseline).
INVALIDATION_POLICIES = ("targeted", "flush", "none")


@dataclass(frozen=True)
class UpdateEvent:
    """One graph mutation offered to a serving run at ``arrival_time_s``.

    Self-describing for replay: a ``feature``/``vertex`` event's feature
    row is :func:`feature_row` of the recorded ``feature_seed``, never
    stored inline, so the trace codec stays columnar and fixed-width.

    Field use per kind:

    * ``edge``:    insert in-edge ``src -> dst`` (``feature_seed`` unused);
    * ``feature``: overwrite vertex ``src``'s feature row (``dst`` unused);
    * ``vertex``:  append a new vertex with features from ``feature_seed``
      and insert the in-edge ``new -> dst`` (``src`` unused; the new id is
      whatever the graph assigns, deterministic under replay).
    """

    update_id: int
    kind: str
    arrival_time_s: float
    src: int = -1
    dst: int = -1
    feature_seed: int = 0
    tenant: str = ""

    def __post_init__(self):
        if self.kind not in UPDATE_KINDS:
            raise ValueError(f"unknown update kind {self.kind!r}; "
                             f"choose from {UPDATE_KINDS}")


def feature_row(feature_length: int, feature_seed: int) -> np.ndarray:
    """The deterministic feature row of one ``feature``/``vertex`` event."""
    rng = np.random.default_rng((0xFEA7, int(feature_seed)))
    return rng.random(int(feature_length), dtype=np.float64)


def parse_update_mix(spec: str) -> Dict[str, float]:
    """Parse ``"edge=0.8,feature=0.15,vertex=0.05"`` into a normalised mix.

    Kinds may be omitted (weight 0); weights must be non-negative with a
    positive sum.  The CLI's ``--update-mix`` parser.
    """
    weights = {kind: 0.0 for kind in UPDATE_KINDS}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed update-mix entry {part!r} "
                             f"(expected kind=weight)")
        kind, _, raw = part.partition("=")
        kind = kind.strip()
        if kind not in UPDATE_KINDS:
            raise ValueError(f"unknown update kind {kind!r}; "
                             f"choose from {UPDATE_KINDS}")
        weight = float(raw)
        if weight < 0:
            raise ValueError(f"update-mix weight for {kind!r} must be >= 0")
        weights[kind] = weight
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("update mix must have a positive total weight")
    return {kind: weight / total for kind, weight in weights.items()}


#: Update-stream memo: policy sweeps (the benchmark, the acceptance tests)
#: re-request the identical stream for every invalidation policy; memoising
#: makes those replays free *and* guarantees they compare the same events.
#: ``clear_update_stream_cache`` is the test-isolation hook wired into
#: ``tests/conftest.py``.
_UPDATE_STREAM_CACHE: "OrderedDict[Tuple, Tuple[UpdateEvent, ...]]" = \
    OrderedDict()
_UPDATE_STREAM_CACHE_SIZE = 32


def clear_update_stream_cache() -> None:
    """Drop all memoised update streams (test isolation hook)."""
    _UPDATE_STREAM_CACHE.clear()


def generate_update_stream(num_vertices: int, num_updates: int,
                           rate_ups: float, mix: Optional[Dict[str, float]]
                           = None, seed: int = 0, start_s: float = 0.0,
                           tenant: str = "") -> Tuple[UpdateEvent, ...]:
    """A seeded Poisson stream of ``num_updates`` :class:`UpdateEvent`\\ s.

    Arrivals are exponential gaps at ``rate_ups`` updates per second from
    ``start_s``; kinds are drawn from ``mix`` (default: edge-heavy
    ``0.7/0.2/0.1``).  Vertex draws track the growing vertex count, so a
    later event can reference a vertex an earlier event inserted --
    exactly what replay reproduces, because the stream depends only on the
    arguments.  Results are memoised (see :func:`clear_update_stream_cache`).
    """
    if num_updates < 0:
        raise ValueError("num_updates must be >= 0")
    if num_updates and rate_ups <= 0:
        raise ValueError("rate_ups must be positive")
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    mix = dict(mix) if mix else {"edge": 0.7, "feature": 0.2, "vertex": 0.1}
    total = sum(mix.values())
    mix = {k: mix.get(k, 0.0) / total for k in UPDATE_KINDS}
    key = (num_vertices, num_updates, float(rate_ups),
           tuple(mix[k] for k in UPDATE_KINDS), int(seed), float(start_s),
           tenant)
    cached = _UPDATE_STREAM_CACHE.get(key)
    if cached is not None:
        _UPDATE_STREAM_CACHE.move_to_end(key)
        return cached
    rng = np.random.default_rng((seed, 0x57DA7E))
    times = start_s + np.cumsum(rng.exponential(1.0 / rate_ups,
                                                size=num_updates)) \
        if num_updates else np.empty(0)
    thresholds = np.cumsum([mix[k] for k in UPDATE_KINDS])
    events: List[UpdateEvent] = []
    current = num_vertices
    for i in range(num_updates):
        draw = rng.random()
        kind = UPDATE_KINDS[int(np.searchsorted(thresholds,
                                                min(draw, thresholds[-1])))]
        src = dst = -1
        feature_seed = 0
        if kind == "edge":
            src = int(rng.integers(0, current))
            dst = int(rng.integers(0, current))
        elif kind == "feature":
            src = int(rng.integers(0, current))
            feature_seed = int(rng.integers(0, 2 ** 31 - 1))
        else:  # vertex
            dst = int(rng.integers(0, current))
            feature_seed = int(rng.integers(0, 2 ** 31 - 1))
            current += 1
        events.append(UpdateEvent(update_id=i, kind=kind,
                                  arrival_time_s=float(times[i]),
                                  src=src, dst=dst,
                                  feature_seed=feature_seed, tenant=tenant))
    stream = tuple(events)
    _UPDATE_STREAM_CACHE[key] = stream
    if len(_UPDATE_STREAM_CACHE) > _UPDATE_STREAM_CACHE_SIZE:
        _UPDATE_STREAM_CACHE.popitem(last=False)
    return stream


@dataclass
class UpdateStream:
    """The ``updates=`` opt-in handed to a simulator (duck-typed hook).

    ``events`` interleave with query arrivals in the event loop;
    ``policy`` picks the invalidation strategy;
    ``staleness_budget_versions`` is the number of graph versions a served
    result may lag before it counts as *beyond budget* (0 = any staleness
    violates); ``compact_every`` bounds the delta log
    (:class:`~repro.graphs.delta.DeltaGraph` auto-compaction).
    """

    events: Sequence[UpdateEvent] = ()
    policy: str = "targeted"
    staleness_budget_versions: int = 0
    compact_every: int = 64

    def __post_init__(self):
        if self.policy not in INVALIDATION_POLICIES:
            raise ValueError(f"unknown invalidation policy {self.policy!r}; "
                             f"choose from {INVALIDATION_POLICIES}")
        if self.staleness_budget_versions < 0:
            raise ValueError("staleness_budget_versions must be >= 0")

    def for_tenant(self, tenant: str) -> "UpdateStream":
        """The slice of this stream addressed to ``tenant``."""
        return UpdateStream(
            events=[e for e in self.events if e.tenant == tenant],
            policy=self.policy,
            staleness_budget_versions=self.staleness_budget_versions,
            compact_every=self.compact_every)


@dataclass
class _ResultMeta:
    version: int
    time_s: float
    vertices: np.ndarray


class _ResultIndex:
    """Which result-cache keys each vertex's mutation must drop.

    Holds one ``vertex << 32 | key`` code per vertex of each registered
    result's sample: a sorted array of distinct codes with a mask of the
    popped ones, plus an unsorted tail of the codes logged since the last
    merge.  :meth:`add` appends a batch's codes to the tail in one pass;
    :meth:`pop` returns the distinct keys logged under any of the given
    vertices and drops their codes, as popping each vertex's entry of a
    vertex -> set-of-keys dict would.  Nothing else prunes a code: a key
    stays logged under every vertex of every sample it was registered
    with, also after its result left the cache (the semantics the
    streaming pins were taken at).  A tail longer than a quarter of the
    sorted codes (and than :attr:`MIN_TAIL`) is merged into them, dropping
    popped and repeated codes, so the index holds the distinct live pairs
    plus a bounded tail.
    """

    #: shortest tail worth a merge
    MIN_TAIL = 1024

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._codes = np.empty(0, dtype=np.int64)
        self._popped = np.empty(0, dtype=bool)
        self._tail: List[np.ndarray] = []
        self._tail_size = 0

    def add(self, samples: Dict[int, np.ndarray]) -> None:
        """Log each key under every vertex of its sample's ``vertex_ids``
        (ids below 2**31)."""
        arrays = list(samples.values())
        codes = (np.concatenate(arrays) << 32) \
            | np.repeat(list(samples), [vertices.size for vertices in arrays])
        self._tail.append(codes)
        self._tail_size += codes.size
        if self._tail_size > max(self.MIN_TAIL, self._codes.size // 4):
            self._merge()

    def pop(self, vertices: Sequence[int]) -> List[int]:
        """The distinct keys logged under any of ``vertices``, ascending;
        their codes are dropped."""
        found = []
        for v in vertices:
            lo, hi = self._codes.searchsorted((v << 32, (v + 1) << 32))
            if lo < hi:
                found.append(self._codes[lo:hi][~self._popped[lo:hi]])
                self._popped[lo:hi] = True
        if self._tail:
            tail = self._tail[0] if len(self._tail) == 1 \
                else np.concatenate(self._tail)
            self._tail = [tail]
            tail_vertices = tail >> 32
            hit = tail_vertices == vertices[0]
            for v in vertices[1:]:
                hit |= tail_vertices == v
            if hit.any():
                found.append(tail[hit])
                self._tail = [tail[~hit]]
                self._tail_size = self._tail[0].size
        if not found:
            return []
        return sorted(set((np.concatenate(found) & 0xFFFFFFFF).tolist()))

    def _merge(self) -> None:
        """Fold the tail into the sorted codes, dropping popped and repeated
        codes: two sorted runs, merged by one stable (run-aware) sort."""
        codes = np.concatenate((self._codes[~self._popped],
                                np.sort(np.concatenate(self._tail))))
        codes.sort(kind="stable")
        distinct = np.empty(codes.size, dtype=bool)
        distinct[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
        self._codes = codes[distinct]
        self._popped = np.zeros(self._codes.size, dtype=bool)
        self._tail = []
        self._tail_size = 0


class StreamState:
    """Per-run update applier, cache invalidator and consistency tracker.

    One instance per (graph, sampler, result cache) -- the single-tenant
    loop has one; the multi-tenant loop has one per tenant (each tenant
    serves its own graph), all folding into one shared
    :class:`~repro.serving.stats.ConsistencyStats`.

    ``chips`` is the live chip roster (the same list object the scaler
    mutates, so elastic fleets stay covered); ``tenant`` is the namespace
    of this graph's lines in the chip-local caches (``None`` for the
    anonymous single tenant).
    """

    def __init__(self, graph: DeltaGraph, sampler, stream: UpdateStream,
                 stats: ConsistencyStats, *, tenant: Optional[str] = None,
                 result_cache=None, chips=None, shard_executor=None):
        self.graph = graph
        self.sampler = sampler
        self.stream = stream
        self.stats = stats
        self.tenant = tenant
        self.result_cache = result_cache
        self.chips = chips if chips is not None else []
        self.shard_executor = shard_executor
        sampler.invalidation = stream.policy
        # vertex -> result-cache keys whose cached answer sampled it
        self._results = _ResultIndex()
        self._result_meta: Dict[int, _ResultMeta] = {}
        self._last_mutation_s: Dict[int, float] = {}
        if shard_executor is not None:
            shard_executor.stream = self

    @property
    def policy(self) -> str:
        return self.stream.policy

    @property
    def budget_versions(self) -> int:
        return self.stream.staleness_budget_versions

    # ------------------------------------------------------------------ #
    # Update application (the event loop's _UPDATE handler)
    # ------------------------------------------------------------------ #
    def apply(self, now: float, event: UpdateEvent) -> int:
        """Apply one update, run the invalidation matrix, return the number
        of derived-state entries invalidated."""
        stats = self.stats
        graph = self.graph
        dirty: List[int] = []
        feature_writes: List[int] = []
        if event.kind == "edge":
            if graph.add_edge(event.src, event.dst):
                stats.edge_updates += 1
                dirty.append(int(event.dst))
            else:
                stats.noop_updates += 1
        elif event.kind == "feature":
            graph.write_features(
                event.src, feature_row(graph.feature_length,
                                       event.feature_seed))
            stats.feature_updates += 1
            dirty.append(int(event.src))
            feature_writes.append(int(event.src))
        else:  # vertex
            vertex = graph.add_vertex(feature_row(graph.feature_length,
                                                  event.feature_seed))
            graph.add_edge(vertex, event.dst)
            stats.vertex_updates += 1
            dirty.extend([vertex, int(event.dst)])
            if self.shard_executor is not None and self.policy != "none":
                self.shard_executor.extend_owner(vertex)
                stats.invalidations["shard_plan"] += 1
        stats.updates_offered += 1
        for v in dirty:
            self._last_mutation_s[v] = now
        return self._invalidate(dirty, feature_writes)

    def _invalidate(self, dirty: List[int],
                    feature_writes: List[int]) -> int:
        stats = self.stats
        count = 0
        if self.policy == "flush" and dirty:
            if self.result_cache is not None:
                dropped = len(self.result_cache)
                self.result_cache.clear()
                stats.invalidations["result"] += dropped
                count += dropped
            self._results.clear()
            self._result_meta.clear()
            for kind, cache in self._chip_caches():
                dropped = len(cache)
                cache.clear()
                stats.invalidations[kind] += dropped
                count += dropped
            # the sampler flushes lazily at its next call; force it now so
            # the drop counters land on this update
            before = self.sampler.invalidated_samples \
                + self.sampler.invalidated_signatures
            self.sampler._sync()
            count += (self.sampler.invalidated_samples
                      + self.sampler.invalidated_signatures) - before
        elif self.policy == "targeted" and dirty:
            if self.result_cache is not None:
                for key in self._results.pop(dirty):
                    if self.result_cache.invalidate(key):
                        stats.invalidations["result"] += 1
                        count += 1
                    self._result_meta.pop(key, None)
            caches = self._chip_caches()
            for v in feature_writes:
                for kind, cache in caches:
                    if cache.invalidate(self.tenant, v):
                        stats.invalidations[kind] += 1
                        count += 1
            before = self.sampler.invalidated_samples \
                + self.sampler.invalidated_signatures
            self.sampler._sync()
            count += (self.sampler.invalidated_samples
                      + self.sampler.invalidated_signatures) - before
        return count

    def _chip_caches(self) -> List[Tuple[str, object]]:
        """``(kind, cache)`` of every chip-local cache holding feature
        lines: each chip's feature cache, then each halo cache."""
        caches = [("feature", chip.feature_cache) for chip in self.chips]
        if self.shard_executor is not None:
            caches += [("halo", cache)
                       for cache in self.shard_executor.halo_caches]
        return caches

    def finalize(self) -> None:
        """Fold this state's counters into the stats (end of run).

        Accumulating (not assigning): the multi-tenant loop folds one
        StreamState per tenant into a single shared ConsistencyStats.
        """
        self.stats.invalidations["sample"] += self.sampler.invalidated_samples
        self.stats.invalidations["signature"] += \
            self.sampler.invalidated_signatures
        self.stats.final_version = max(self.stats.final_version,
                                       self.graph.version)
        self.stats.compactions += self.graph.compactions

    # ------------------------------------------------------------------ #
    # Consistency tracking (observation only; never changes timings)
    # ------------------------------------------------------------------ #
    def register_results(self, targets: Sequence[int], now: float) -> None:
        """Record the dependency sets of a completed batch's results, just
        inserted into the result cache: ``targets`` holds one entry per
        non-degraded request, in batch order.

        One :meth:`~repro.serving.sampler.SubgraphSampler.extract_many`
        call leaves the sampler memo as per-request ``extract`` calls
        would, and each distinct target's sample is logged in the result
        index in one pass.
        """
        if self.result_cache is None or not targets:
            return
        samples = self.sampler.extract_many(
            [(target, None, None) for target in targets])
        latest = {target: sample.vertex_ids
                  for target, sample in zip(targets, samples)}
        version = self.graph.version
        for target, vertices in latest.items():
            self._result_meta[target] = _ResultMeta(
                version=version, time_s=now, vertices=vertices)
        self._results.add(latest)

    def _count_stale(self, lag_versions: int, lag_seconds: float,
                     counter: str) -> None:
        stats = self.stats
        setattr(stats, counter, getattr(stats, counter) + 1)
        stats.stale_version_lag_sum += lag_versions
        stats.stale_version_lag_max = max(stats.stale_version_lag_max,
                                          lag_versions)
        stats.stale_seconds_sum += lag_seconds
        stats.stale_seconds_max = max(stats.stale_seconds_max, lag_seconds)
        if lag_versions > self.budget_versions:
            stats.stale_beyond_budget += 1

    def on_result_hit(self, target: int, now: float) -> None:
        """Consistency probe on a result-cache hit: is the cached answer's
        dependency neighbourhood unchanged since it was computed?"""
        meta = self._result_meta.get(target)
        self.stats.checks += 1
        if meta is None:
            return
        if (self.graph.mutation_versions(meta.vertices)
                > meta.version).any():
            self._count_stale(self.graph.version - meta.version,
                              now - meta.time_s, "stale_results")

    def check_batch(self, batch, now: float) -> None:
        """Differential check at service start: every non-degraded request's
        memoised sample (and signature, when one is memoised) must equal a
        memo-bypassing recomputation at the current graph version.

        The batch's distinct shapes are fetched from the memo with one
        :meth:`~repro.serving.sampler.SubgraphSampler.extract_many` call.
        A memo entry extracted at the current graph version is its own
        recomputation, since extraction is deterministic per ``(seed,
        target, hops, fanout)`` and graph version; the older entries are
        recomputed with one ``extract_fresh_shapes`` call.  A sample's
        fresh signature is minhashed from its recomputation.
        """
        sampler = self.sampler
        shapes = list(dict.fromkeys(
            (r.target_vertex, r.degrade_hops, r.degrade_fanout)
            for r in batch.requests if r.degrade_level == 0))
        if not shapes:
            return
        self.stats.checks += len(shapes)
        # read before the memo fetch; a version is used only on a hit of an
        # entry older than this call, which that fetch leaves in place
        versions = [sampler.memo_version(*shape) for shape in shapes]
        memos = sampler.extract_many(shapes)
        current = self.graph.version
        fresh = iter(sampler.extract_fresh_shapes(
            [shape for shape, version in zip(shapes, versions)
             if version != current]))
        for shape, version, memo in zip(shapes, versions, memos):
            recomputed = memo if version == current else next(fresh)
            lag = current - (version or 0)
            if not np.array_equal(memo.vertex_ids, recomputed.vertex_ids):
                self._count_stale(lag, 0.0, "stale_samples")
                continue
            target, hops, fan = shape
            if (target, sampler.num_hops if hops is None else hops,
                    sampler.fanout if fan is None else fan) \
                    in sampler._sig_memo:
                memo_sig = sampler.signature(target, num_hops=hops,
                                             fanout=fan)
                if not np.array_equal(memo_sig,
                                      sampler._signature_of(recomputed)):
                    self._count_stale(lag, 0.0, "stale_signatures")

    def on_feature_hit(self, vertex: int, stamp: int, now: float,
                       counter: str = "stale_features") -> None:
        """Consistency probe on a cache hit on a line holding feature
        version ``stamp``; a halo-cache hit counts as ``"stale_halo"``.
        The feature-cache charge compares versions in one array pass and
        calls this only for the stale hits."""
        current = self.graph.feature_version(vertex)
        if stamp < current:
            self._count_stale(current - stamp,
                              now - self._last_mutation_s.get(vertex, now),
                              counter)

    def note_shard_plan_miss(self, count: int = 1) -> None:
        self.stats.shard_plan_misses += count
