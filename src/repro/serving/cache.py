"""Caches with hit-rate accounting for the serving stack.

Production GNN serving deployments put small caches in front of the
accelerator fleet: a *result* cache that answers repeat requests for
recently-inferred vertices without touching a chip, and chip-local caches
of vertex features.  The result cache (like the sampler memos) is the
key-at-a-time :class:`LRUCache`.  Both chip-local caches -- each chip's
*feature* cache and, on a sharded fleet, its *halo* cache of ghost
features -- are :class:`FeatureCache` stamp arrays, which charge a whole
batch of vertex ids in a few array passes: :func:`charge_features` charges a
batch's feature reads and :func:`charge_halo` a shard's ghosts.  A line
is addressed by ``(tenant, vertex)``, with ``tenant=None`` for the
anonymous single tenant.  All caches keep :class:`CacheStats` counters,
which feed the hit-rate columns of the serving report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..counters import CounterBlock

__all__ = ["CacheStats", "FeatureCache", "LRUCache", "charge_features",
           "charge_halo"]


@dataclass
class CacheStats(CounterBlock):
    """Counters accumulated over the lifetime of one cache."""

    DERIVED = ("hit_rate",)

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """A fixed-capacity least-recently-used cache.

    ``capacity`` counts entries, not bytes; a capacity of zero disables the
    cache entirely (every ``get`` misses, every ``put`` is dropped), which the
    CLI uses for ``--cache-size 0`` ablations.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership probe that does not touch recency or the counters."""
        return key in self._entries

    def get(self, key: Hashable, default: Optional[object] = None) -> Optional[object]:
        """Look up ``key``, refreshing its recency and counting hit/miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return default

    def put(self, key: Hashable,
            value: object) -> Optional[Tuple[Hashable, object]]:
        """Insert or refresh ``key``; evicts the least-recently-used entry.

        Returns the evicted ``(key, value)`` pair, or ``None`` when nothing
        was evicted.
        """
        if self.capacity == 0:
            return None
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return None
        self._entries[key] = value
        self.stats.insertions += 1
        if len(self._entries) > self.capacity:
            self.stats.evictions += 1
            return self._entries.popitem(last=False)
        return None

    def peek(self, key: Hashable, default: Optional[object] = None) -> Optional[object]:
        """Read ``key`` without touching recency or the hit/miss counters."""
        return self._entries.get(key, default)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry if present; returns whether anything was dropped.

        The streaming layer's targeted invalidation hook: neither a hit nor
        a miss nor an eviction is counted (the entry is not aged out by
        pressure, it is revoked by an update), so invalidation never
        perturbs the hit-rate accounting.
        """
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def keys(self):
        """Snapshot of the cached keys, LRU-first (read-only convenience)."""
        return list(self._entries.keys())

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self._entries.clear()


class FeatureCache:
    """A chip's fixed-capacity LRU feature cache, kept as stamp arrays.

    Lines live in per-tenant namespaces over vertex ids, so ids aliasing
    across tenants' graphs never share a line; every method names a line
    by ``(tenant, vertex)``, with ``tenant=None`` for the anonymous single
    tenant (:meth:`keys` lists ``v`` for it and ``(tenant, v)`` for the
    others).  Each namespace holds an ``int64`` stamp array and value
    array, grown on demand as a mutating graph adds vertices; a line is
    resident while its stamp is positive.  One clock, shared by every
    namespace, stamps each put, so the least recently used line is the
    resident one with the smallest stamp.

    :meth:`charge` has the semantics of a ``get`` per key followed by a
    ``put`` per key on an :class:`LRUCache` of the same capacity: the same
    hits, counters, resident lines and recency order.  A capacity of zero
    disables the cache.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._stamps: Dict[Optional[str], np.ndarray] = {}
        self._values: Dict[Optional[str], np.ndarray] = {}
        self._clock = 0
        self._resident = 0

    def __len__(self) -> int:
        return self._resident

    def _arrays(self, tenant: Optional[str],
                size: int) -> Tuple[np.ndarray, np.ndarray]:
        """``tenant``'s stamp and value arrays, covering ids below ``size``."""
        stamps = self._stamps.get(tenant)
        if stamps is None or stamps.size < size:
            old = 0 if stamps is None else stamps.size
            for arrays in (self._stamps, self._values):
                grown = np.zeros(max(size, 2 * old), dtype=np.int64)
                if old:
                    grown[:old] = arrays[tenant]
                arrays[tenant] = grown
        return self._stamps[tenant], self._values[tenant]

    def lookup(self, tenant: Optional[str],
               vertex_ids) -> Tuple[np.ndarray, np.ndarray]:
        """Positions of the resident ``vertex_ids`` and their values.

        Touches neither recency nor the counters.
        """
        ids = np.asarray(vertex_ids, dtype=np.int64)
        if not self.capacity or not ids.size:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        stamps, stored = self._arrays(tenant, int(ids.max()) + 1)
        positions = np.flatnonzero(stamps[ids])
        return positions, stored[ids[positions]]

    def charge(self, tenant: Optional[str], vertex_ids,
               values) -> Tuple[np.ndarray, np.ndarray]:
        """Look up every vertex, then put every ``(vertex, value)`` pair.

        ``vertex_ids`` are distinct and in put order; ``values`` is one
        ``int64`` per vertex, or one for all.  Every lookup precedes every
        put, and each insertion evicts the least recently used line as it
        goes.  Returns the positions of the hits in ``vertex_ids`` and the
        values the lookups found there.
        """
        ids = np.asarray(vertex_ids, dtype=np.int64)
        n = ids.size
        positions, found = self.lookup(tenant, ids)
        hits = positions.size
        misses = n - hits
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        capacity = self.capacity
        if not capacity or not n:
            return positions, found
        stamps, stored = self._stamps[tenant], self._values[tenant]
        values = np.broadcast_to(np.asarray(values, dtype=np.int64), n)
        if n <= capacity:
            # every batch line's new stamp is larger than any other line's,
            # so the excess evicts only lines outside the batch
            stamps[ids] = np.arange(self._clock + 1, self._clock + n + 1)
            stored[ids] = values
            self._clock += n
            stats.insertions += misses
            self._resident += misses
            excess = self._resident - capacity
            if excess > 0:
                self._evict(excess)
            return positions, found
        # The batch overflows the cache and evicts its own earlier keys:
        # the lines outside the batch go first, then the hits not yet put
        # (in key order), then the batch's own puts.  A hit that an
        # eviction reaches before its put is inserted again.
        hit = positions.tolist()
        outside = self._resident - hits
        size, front, insertions = self._resident, 0, misses
        for i in range(n):
            if front < hits and hit[front] == i:
                front += 1
                continue
            size += 1
            if size > capacity:
                size -= 1
                if outside:
                    outside -= 1
                elif front < hits:
                    front += 1
                    insertions += 1
        stats.insertions += insertions
        stats.evictions += self._resident + insertions - capacity
        for line_stamps in self._stamps.values():
            line_stamps.fill(0)
        kept = ids[n - capacity:]
        stamps[kept] = np.arange(self._clock + 1, self._clock + capacity + 1)
        stored[kept] = values[n - capacity:]
        self._clock += capacity
        self._resident = capacity
        return positions, found

    def _evict(self, excess: int) -> None:
        """Drop the ``excess`` least recently used lines."""
        ages = np.concatenate([stamps[stamps > 0]
                               for stamps in self._stamps.values()])
        cutoff = np.partition(ages, excess - 1)[excess - 1]
        for stamps in self._stamps.values():
            stamps[stamps <= cutoff] = 0
        self.stats.evictions += excess
        self._resident -= excess

    def _holds(self, tenant: Optional[str], vertex: int) -> bool:
        stamps = self._stamps.get(tenant)
        return stamps is not None and 0 <= vertex < stamps.size \
            and bool(stamps[vertex])

    def peek(self, tenant: Optional[str], vertex: int,
             default: Optional[int] = None) -> Optional[int]:
        """Read a line's value without touching recency or the counters."""
        if not self._holds(tenant, vertex):
            return default
        return int(self._values[tenant][vertex])

    def invalidate(self, tenant: Optional[str], vertex: int) -> bool:
        """Drop one line if resident; returns whether anything was dropped.

        Like :meth:`LRUCache.invalidate`, no counter moves.
        """
        if not self._holds(tenant, vertex):
            return False
        self._stamps[tenant][vertex] = 0
        self._resident -= 1
        return True

    def keys(self) -> List[Hashable]:
        """Snapshot of the resident keys, LRU-first."""
        lines = []
        for tenant, stamps in self._stamps.items():
            ids = np.flatnonzero(stamps)
            keys = ids.tolist() if tenant is None \
                else [(tenant, v) for v in ids.tolist()]
            lines.extend(zip(stamps[ids].tolist(), keys))
        lines.sort(key=itemgetter(0))
        return [key for _, key in lines]

    def clear(self) -> None:
        """Drop every line (the counters are kept)."""
        for stamps in self._stamps.values():
            stamps.fill(0)
        self._resident = 0


def _versions(stream, vertex_ids: np.ndarray) -> np.ndarray:
    """Current feature version of each vertex (0 on unstreamed runs)."""
    if stream is None:
        return np.zeros(vertex_ids.size, dtype=np.int64)
    return stream.graph.feature_versions(vertex_ids)


def _report_stale(stream, vertex_ids: np.ndarray, positions: np.ndarray,
                  found: np.ndarray, versions: np.ndarray, now: float,
                  counter: str) -> None:
    """Count each hit at ``positions`` whose line is older than its
    vertex's current version as a stale serve."""
    if stream is None:
        return
    for i in np.flatnonzero(found < versions[positions]).tolist():
        stream.on_feature_hit(int(vertex_ids[positions[i]]), int(found[i]),
                              now, counter)


def charge_features(cache: FeatureCache, vertex_ids: np.ndarray,
                    tenant: Optional[str] = None, stream=None,
                    now: float = 0.0) -> int:
    """Charge one batch's feature reads to a chip cache; returns the hits.

    ``vertex_ids`` (distinct global ids, in put order) are cached in
    ``tenant``'s namespace.  Streaming runs store each line's feature
    version and report a hit on a line older than its vertex's current
    version as a stale serve; other runs store 0.
    """
    versions = _versions(stream, vertex_ids)
    positions, found = cache.charge(tenant, vertex_ids, versions)
    _report_stale(stream, vertex_ids, positions, found, versions, now,
                  "stale_features")
    return positions.size


def charge_halo(cache: FeatureCache, ghosts: np.ndarray,
                tenant: Optional[str] = None, stream=None,
                now: float = 0.0) -> int:
    """Charge one shard's ghost reads to its halo cache; returns the hits.

    Unlike a feature charge, a hit is only refreshed: every hit is touched
    (in ghost order) before any miss is stored, and it keeps the version
    it was stored with, so a stale halo line stays stale until it is
    evicted or invalidated.  The misses are then stored, in ghost order,
    with their current version.  One :meth:`FeatureCache.charge` over the
    hits followed by the misses does exactly that.
    """
    positions, found = cache.lookup(tenant, ghosts)
    missed = np.ones(ghosts.size, dtype=bool)
    missed[positions] = False
    versions = _versions(stream, ghosts)
    cache.charge(tenant, np.concatenate([ghosts[positions], ghosts[missed]]),
                 np.concatenate([found, versions[missed]]))
    _report_stale(stream, ghosts, positions, found, versions, now,
                  "stale_halo")
    return positions.size
