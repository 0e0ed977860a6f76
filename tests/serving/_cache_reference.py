"""Per-key feature-cache charge: the differential oracle for
:meth:`repro.serving.FeatureCache.charge`.

This is the feature-cache accounting as the serving paths wrote it before
the batched call: one ``get`` per key, counting the hits, then one ``put``
per ``(key, value)`` pair, on an OrderedDict-backed :class:`LRUCache`.
:class:`ReferenceFeatureCache` wraps that loop in the ``FeatureCache``
interface, so ``test_feature_charge.py`` can run both on the same script
and, end to end, serve a whole run with every chip's cache swapped for it.
"""

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import LRUCache


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

    def peek(self, key: Hashable, default=None):
        return self._lru.peek(key, default)

    def invalidate(self, key: Hashable) -> bool:
        return self._lru.invalidate(key)

    def keys(self) -> List[Hashable]:
        return self._lru.keys()

    def clear(self) -> None:
        self._lru.clear()
