"""Differential tests: the stamp-array :class:`FeatureCache` against the
per-key OrderedDict loops it replaced (``_cache_reference.py``).

Hypothesis feeds the same random script to a ``FeatureCache`` and to the
oracle, each on its own fresh cache.  A script interleaves batch charges
(distinct vertex ids, as the serving paths pass them) with single-key
invalidations and whole-cache clears, and widens the vertex-id range part
way through, so the stamp arrays grow under resident lines.  Keys are
plain ids (single-tenant serving) or ``(tenant, vertex)`` pairs
(multi-tenant serving), mixed in one cache.  Capacities run from 0 (a
disabled cache) through 1 to well below the batch size, so batches that
evict their own earlier keys are common.

The halo charge (:func:`~repro.serving.cache.charge_halo`) is scripted
the same way against the sharded path's old per-ghost loop, with feature
writes between charges so that hits on stale lines occur.

The end-to-end tests serve whole runs with a 64-line feature cache, small
enough that every chip evicts, once on ``FeatureCache`` and once with each
chip's cache swapped for the oracle, and compare the report JSON.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _cache_reference import ReferenceFeatureCache, reference_halo_charge
from repro.graphs import load_dataset
from repro.models.model_zoo import clear_workloads_cache
from repro.serving import FeatureCache, FleetConfig, TenantConfig
from repro.serving import fleet as fleet_module
from repro.serving.cache import charge_halo
from repro.serving.fleet import clear_probe_cache, run_serving
from repro.serving.streaming import clear_update_stream_cache
from repro.serving.tenancy import run_multi_tenant

#: the tenant namespaces one script draws from (``None``: plain-id keys)
TENANT_SETS = ((None,), ("cr", "ib"), (None, "cr"))
#: vertex-id bounds before and after the script's growth step
SMALL, LARGE = 12, 40


@st.composite
def scripts(draw):
    tenants = draw(st.sampled_from(TENANT_SETS))
    grow_at = draw(st.integers(min_value=0, max_value=8))
    ops = []
    for step in range(draw(st.integers(min_value=1, max_value=8))):
        bound = SMALL if step < grow_at else LARGE
        vertices = st.integers(min_value=0, max_value=bound - 1)
        tenant = draw(st.sampled_from(tenants))
        kind = draw(st.sampled_from(("charge",) * 4 + ("invalidate", "clear")))
        if kind == "charge":
            ids = draw(st.lists(vertices, unique=True, max_size=20))
            values = draw(st.lists(st.integers(min_value=0, max_value=3),
                                   min_size=len(ids), max_size=len(ids)))
            ops.append(("charge", tenant, ids, values))
        elif kind == "invalidate":
            ops.append(("invalidate", tenant, draw(vertices)))
        else:
            ops.append(("clear",))
    return ops


def _line(key):
    """``(tenant, vertex)`` of a key as ``keys()`` lists it."""
    return key if isinstance(key, tuple) else (None, key)


def _state(cache, probes, values=True):
    """Counters, resident keys (LRU-first) and values, and the values at
    the ``(tenant, vertex)`` probes."""
    stats = cache.stats
    keys = cache.keys()
    state = (stats.hits, stats.misses, stats.insertions, stats.evictions,
             len(cache), keys)
    if not values:
        return state
    return state + ([cache.peek(*_line(k)) for k in keys],
                    [cache.peek(*line, "absent") for line in probes])


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=8), scripts())
@example(0, [("charge", None, [1, 2], [0, 0]), ("charge", None, [1], [1])])
@example(1, [("charge", None, [1, 2], [0, 1]),
             ("charge", None, [2, 3], [1, 0])])
# both hits are evicted by the batch's own misses before their puts
@example(2, [("charge", None, [1, 2], [0, 0]),
             ("charge", None, [3, 4, 1, 2], [1, 1, 1, 1])])
@example(3, [("charge", None, list(range(8)), [0] * 8),
             ("charge", None, list(range(6, 0, -1)), [1] * 6)])
@example(3, [("charge", "cr", [1, 2], [0, 1]),
             ("charge", "ib", [1, 30], [2, 3]),
             ("invalidate", "cr", 2),
             ("charge", "cr", [2, 1, 39], [3, 3, 3]),
             ("clear",),
             ("charge", "ib", [30, 5], [1, 2])])
def test_charge_matches_per_key_loop(capacity, script):
    cache, oracle = FeatureCache(capacity), ReferenceFeatureCache(capacity)
    for op in script:
        if op[0] == "charge":
            _, tenant, ids, values = op
            got = cache.charge(tenant, np.array(ids, dtype=np.int64), values)
            want = oracle.charge(tenant, ids, values)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            probes = [(tenant, v) for v in ids]
        elif op[0] == "invalidate":
            line = op[1:]
            assert cache.invalidate(*line) == oracle.invalidate(*line)
            probes = [line]
        else:
            cache.clear()
            oracle.clear()
            probes = []
        assert _state(cache, probes) == _state(oracle, probes)


def test_charge_broadcasts_one_value():
    """Unstreamed callers store one value for the whole batch."""
    cache, oracle = FeatureCache(2), ReferenceFeatureCache(2)
    for ids in ([1, 2, 3], [3, 4], [1, 3]):
        got, want = cache.charge(None, ids, 0), oracle.charge(None, ids, 0)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        probes = [(None, v) for v in ids]
        assert _state(cache, probes) == _state(oracle, probes)


def test_capacity_must_be_non_negative():
    with pytest.raises(ValueError):
        FeatureCache(-1)


# --------------------------------------------------------------------------- #
# The halo charge: refresh every hit, then store the misses
# --------------------------------------------------------------------------- #
class _Versions:
    """A stream stand-in: per-vertex feature versions, and the stale hits
    it is told of (``StreamState.on_feature_hit`` counts only those)."""

    def __init__(self):
        self.graph = self
        self.versions = np.zeros(LARGE, dtype=np.int64)
        self.stale = []

    def feature_versions(self, ids):
        return self.versions[ids]

    def feature_version(self, vertex):
        return int(self.versions[vertex])

    def on_feature_hit(self, vertex, stamp, now, counter="stale_features"):
        if stamp < self.feature_version(vertex):
            self.stale.append((vertex, stamp, now, counter))


@st.composite
def halo_scripts(draw):
    tenants = draw(st.sampled_from(TENANT_SETS))
    vertices = st.integers(min_value=0, max_value=LARGE - 1)
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        tenant = draw(st.sampled_from(tenants))
        kind = draw(st.sampled_from(("charge",) * 4
                                    + ("write", "invalidate", "clear")))
        if kind == "charge":
            ops.append(("charge", tenant,
                        draw(st.lists(vertices, unique=True, max_size=20))))
        elif kind == "write":
            ops.append(("write", draw(st.lists(vertices, unique=True,
                                               min_size=1, max_size=8))))
        elif kind == "invalidate":
            ops.append(("invalidate", tenant, draw(vertices)))
        else:
            ops.append(("clear",))
    return ops


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.booleans(), halo_scripts())
# a hit is refreshed before the miss is stored: 2 outlives 1
@example(2, False, [("charge", None, [1, 2]), ("charge", None, [3, 2])])
# a hit keeps the version it was stored with, and is served stale again
@example(2, True, [("charge", "cr", [1, 2]), ("write", [1]),
                   ("charge", "cr", [2, 1]), ("charge", "cr", [1])])
# the misses overflow the cache and evict the refreshed hits
@example(3, True, [("charge", None, [5, 6, 7]), ("write", [6]),
                   ("charge", None, [1, 6, 2, 3, 4])])
def test_halo_charge_matches_per_ghost_loop(capacity, streamed, script):
    cache, oracle = FeatureCache(capacity), ReferenceFeatureCache(capacity)
    ours, theirs = (_Versions(), _Versions()) if streamed else (None, None)
    for step, op in enumerate(script):
        probes = []
        if op[0] == "charge":
            _, tenant, ids = op
            ghosts = np.array(ids, dtype=np.int64)
            assert charge_halo(cache, ghosts, tenant, ours, float(step)) \
                == reference_halo_charge(oracle._lru, ghosts, tenant, theirs,
                                         float(step))
            probes = [(tenant, v) for v in ids]
        elif op[0] == "write":
            for stream in (ours, theirs):
                if stream is not None:
                    stream.versions[op[1]] += 1
        elif op[0] == "invalidate":
            assert cache.invalidate(*op[1:]) == oracle.invalidate(*op[1:])
        else:
            cache.clear()
            oracle.clear()
        # unstreamed lines hold 0 here and True in the old loop
        assert _state(cache, probes, streamed) \
            == _state(oracle, probes, streamed)
        if streamed:
            assert ours.stale == theirs.stale


# --------------------------------------------------------------------------- #
# End to end: whole runs under cache pressure, stamp arrays vs the oracle
# --------------------------------------------------------------------------- #
#: no result cache, so every request reaches a chip; one-hop fanout-8
#: samples of up to 20 targets put batches on both sides of 64 lines
FLEET = dict(num_chips=2, feature_cache_size=64, cache_size=0, num_hops=1,
             fanout=8, max_batch_size=20, seed=1)


def _serve_json(monkeypatch, cache_cls, run):
    """Report of ``run()`` with every chip's feature cache a ``cache_cls``,
    plus the total evictions over those caches."""
    caches = []

    class Recording(cache_cls):
        def __init__(self, capacity):
            super().__init__(capacity)
            caches.append(self)

    for clear in (clear_probe_cache, clear_workloads_cache,
                  clear_update_stream_cache, load_dataset.cache_clear):
        clear()
    with monkeypatch.context() as patch:
        patch.setattr(fleet_module, "FeatureCache", Recording)
        report = run()
    return report.to_dict(), sum(cache.stats.evictions for cache in caches)


def _assert_same_report(monkeypatch, run) -> dict:
    stamped, stamped_evictions = _serve_json(monkeypatch, FeatureCache, run)
    oracle, oracle_evictions = _serve_json(monkeypatch,
                                           ReferenceFeatureCache, run)
    assert stamped_evictions == oracle_evictions > 0
    assert json.dumps(stamped, sort_keys=True, default=float) \
        == json.dumps(oracle, sort_keys=True, default=float)
    return stamped


def test_single_tenant_run_under_eviction_matches_oracle(monkeypatch):
    _assert_same_report(monkeypatch, lambda: run_serving(
        dataset="CR", num_requests=600, popularity_skew=1.2,
        config=FleetConfig(**FLEET), seed=3))


@pytest.mark.parametrize("invalidation", ["targeted", "none"])
def test_streaming_two_tenant_run_under_eviction_matches_oracle(
        monkeypatch, invalidation):
    """Feature-heavy updates: ``targeted`` invalidates resident lines and
    ``none`` serves stale ones, both under eviction."""
    shape = dict(num_requests=150, max_batch_size=16, cache_size=0,
                 popularity_skew=1.4)
    tenants = [TenantConfig(name="cr", dataset="CR", weight=2.0, num_hops=2,
                            fanout=3, **shape),
               TenantConfig(name="ib", dataset="IB", num_hops=1, fanout=4,
                            **shape)]
    report = _assert_same_report(monkeypatch, lambda: run_multi_tenant(
        tenants, FleetConfig(num_chips=2, feature_cache_size=64, seed=1),
        include_isolation_baseline=False, update_rate=0.5,
        update_mix="edge=0.2,feature=0.6,vertex=0.2",
        invalidation=invalidation, utilization_target=1.0))
    consistency = report["consistency"]
    if invalidation == "targeted":
        assert consistency["invalidations"]["feature"] > 0
    else:
        assert consistency["stale_features"] > 0
