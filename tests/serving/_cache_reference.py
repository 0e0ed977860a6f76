"""Per-key feature-cache charge: the differential oracle for
:meth:`repro.serving.LRUCache.charge`.

This is the feature-cache accounting as the serving paths wrote it before
the batched call: one ``get`` per key, counting the hits, then one ``put``
per ``(key, value)`` pair.  ``test_feature_charge.py`` runs both on fresh
caches and checks they agree on every counter and on the LRU order.
"""

from typing import Hashable, Iterable, List, Sequence, Tuple

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
