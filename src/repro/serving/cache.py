"""LRU caches with hit-rate accounting for the serving stack.

Production GNN serving deployments put small caches in front of the
accelerator fleet: a *result* cache that answers repeat requests for
recently-inferred vertices without touching a chip, and per-chip *feature*
caches that model on-chip reuse of vertex features across consecutive
batches.  Both roles are served by the same :class:`LRUCache` here; the
:class:`CacheStats` counters feed the hit-rate column of the serving report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["CacheStats", "LRUCache", "charge_features"]


@dataclass
class CacheStats:
    """Counters accumulated over the lifetime of one cache."""

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

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


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

    def charge(self, keys: Sequence[Hashable],
               values: Iterable[object]) -> List[Tuple[int, object]]:
        """``get`` every key, then ``put`` every ``(key, value)`` pair.

        One call with the same counters and final state as those per-key
        calls: every lookup precedes every put, and each insertion evicts
        as it goes.  Returns ``(position, value)`` of each hit, in key
        order, with the value the lookup found.
        """
        entries, stats = self._entries, self.stats
        hits = [(i, entries[k]) for i, k in enumerate(keys) if k in entries]
        for i, _ in hits:
            entries.move_to_end(keys[i])
        stats.hits += len(hits)
        stats.misses += len(keys) - len(hits)
        if self.capacity:
            for key, value in zip(keys, values):
                if key in entries:
                    entries.move_to_end(key)
                else:
                    stats.insertions += 1
                    if len(entries) >= self.capacity:
                        entries.popitem(last=False)
                        stats.evictions += 1
                entries[key] = value
        return hits

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


def charge_features(cache: LRUCache, vertices: List[int], key=None,
                    stream=None, now: float = 0.0) -> int:
    """Charge one batch's feature reads to a chip cache; returns the hits.

    ``vertices`` (global ids, in put order) are cached under ``key(v)``, or
    ``v`` without a ``key``.  Streaming runs store each line's feature
    version and check every hit against it; other runs store ``True``.
    """
    keys = vertices if key is None else [key(v) for v in vertices]
    if stream is None:
        return len(cache.charge(keys, repeat(True)))
    version = stream.graph.feature_version
    found = cache.charge(keys, [version(v) for v in vertices])
    for i, stamp in found:
        stream.on_feature_hit(vertices[i], stamp, now)
    return len(found)
