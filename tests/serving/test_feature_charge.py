"""Differential test: the batched feature-cache charge against the per-key
loop it replaced (``_cache_reference.py``).

Hypothesis feeds the same random sequence of key batches to
:meth:`repro.serving.LRUCache.charge` and to the oracle, each on its own
fresh cache.  Capacities run from 0 (a disabled cache) through 1 to well
below the batch size, so evictions inside one batch are common.  Keys are
plain ints (single-tenant serving) or ``(tenant, vertex)`` tuples
(multi-tenant serving), drawn from a small alphabet so batches repeat
keys across and within batches.
"""

from itertools import repeat

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _cache_reference import reference_charge
from repro.serving import LRUCache

VERTICES = st.integers(min_value=0, max_value=11)
TENANT_KEYS = st.tuples(st.sampled_from(("cr", "ib")), VERTICES)
#: cached values: the unstreamed ``True`` or a feature-version stamp
#: (0 included: a stamp is a hit whatever its truth value)
VALUES = st.one_of(st.just(True), st.integers(min_value=0, max_value=3))


@st.composite
def charge_scripts(draw):
    keys = draw(st.sampled_from((VERTICES, TENANT_KEYS)))
    batches = draw(st.lists(
        st.lists(st.tuples(keys, VALUES), max_size=20), min_size=1,
        max_size=6))
    return batches


def _state(cache: LRUCache):
    stats = cache.stats
    return (stats.hits, stats.misses, stats.insertions, stats.evictions,
            cache.keys(), [cache.peek(k) for k in cache.keys()])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=8), charge_scripts())
@example(0, [[(1, True), (2, True)], [(1, True)]])
@example(1, [[(1, True), (2, True), (1, 0)], [(2, 1), (3, True)]])
@example(3, [[(v, True) for v in range(8)], [(v, 1) for v in range(6, 0, -1)]])
@example(2, [[(("cr", 1), 0), (("ib", 1), 1), (("cr", 2), 2)],
             [(("ib", 1), 3), (("cr", 1), True)]])
def test_charge_matches_per_key_loop(capacity, batches):
    batched, oracle = LRUCache(capacity), LRUCache(capacity)
    for batch in batches:
        keys = [key for key, _ in batch]
        values = [value for _, value in batch]
        assert batched.charge(keys, values) == \
            reference_charge(oracle, keys, values)
        assert _state(batched) == _state(oracle)


def test_charge_accepts_an_unsized_value_stream():
    """Unstreamed callers pass ``itertools.repeat(True)`` as the values."""
    batched, oracle = LRUCache(2), LRUCache(2)
    for keys in ([1, 2, 3], [3, 4], [1, 3]):
        assert batched.charge(keys, repeat(True)) == \
            reference_charge(oracle, keys, [True] * len(keys))
        assert _state(batched) == _state(oracle)
