"""Per-key cache charges: the differential oracles for
:meth:`repro.serving.FeatureCache.charge` and
:func:`repro.serving.cache.charge_halo`.

:func:`reference_charge` is the feature-cache accounting as the serving
paths wrote it before the batched call: one ``get`` per key, counting the
hits, then one ``put`` per ``(key, value)`` pair, on an OrderedDict-backed
:class:`LRUCache`.  :class:`ReferenceFeatureCache` wraps that loop in the
``FeatureCache`` interface, so ``test_feature_charge.py`` can run both on
the same script and, end to end, serve a whole run with every chip's cache
swapped for it.  :func:`reference_halo_charge` is the sharded path's
per-ghost halo-cache loop, kept verbatim.
"""

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import LRUCache


def line_key(tenant: Optional[str], vertex: int) -> Hashable:
    """The LRU key of a line: ``vertex`` alone for the anonymous tenant."""
    return vertex if tenant is None else (tenant, vertex)


def reference_charge(cache: LRUCache, keys: Sequence[Hashable],
                     values: Iterable[object]) -> List[Tuple[int, object]]:
    """``get`` every key, then ``put`` every pair; ``(position, value)``
    of each hit in key order (cached values are never ``None``)."""
    hits = []
    for i, key in enumerate(keys):
        value = cache.get(key)
        if value is not None:
            hits.append((i, value))
    for key, value in zip(keys, values):
        cache.put(key, value)
    return hits


class ReferenceFeatureCache:
    """The :class:`~repro.serving.FeatureCache` interface over an
    :class:`LRUCache` charged key by key with :func:`reference_charge`."""

    def __init__(self, capacity: int):
        self._lru = LRUCache(capacity)
        self.capacity = self._lru.capacity
        self.stats = self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def charge(self, tenant: Optional[str], vertex_ids,
               values) -> Tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(vertex_ids, dtype=np.int64).tolist()
        keys = ids if tenant is None else [(tenant, v) for v in ids]
        values = np.broadcast_to(np.asarray(values, dtype=np.int64),
                                 len(ids)).tolist()
        hits = reference_charge(self._lru, keys, values)
        return (np.array([i for i, _ in hits], dtype=np.int64),
                np.array([value for _, value in hits], dtype=np.int64))

    def peek(self, tenant: Optional[str], vertex: int, default=None):
        return self._lru.peek(line_key(tenant, vertex), default)

    def invalidate(self, tenant: Optional[str], vertex: int) -> bool:
        return self._lru.invalidate(line_key(tenant, vertex))

    def keys(self) -> List[Hashable]:
        return self._lru.keys()

    def clear(self) -> None:
        self._lru.clear()


def reference_halo_charge(cache: LRUCache, ghosts: np.ndarray,
                          tenant: Optional[str] = None, stream=None,
                          now: float = 0.0) -> int:
    """``get`` every ghost (a stale hit is reported to ``stream``), then
    ``put`` every miss with its current feature version; returns the
    hits.  Unstreamed runs store ``True``."""
    key = (lambda v: (tenant, v)) if tenant else (lambda v: v)
    misses = []
    for v in ghosts.tolist():
        stamp = cache.get(key(v))
        if stamp is None:
            misses.append(v)
        elif stream is not None:
            stream.on_feature_hit(v, stamp, now, "stale_halo")
    for v in misses:
        cache.put(key(v), True if stream is None
                  else stream.graph.feature_version(v))
    return ghosts.size - len(misses)
