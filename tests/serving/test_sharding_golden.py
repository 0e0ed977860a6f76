"""Golden fixtures for sharded runs under halo-cache pressure.

The other goldens never evict a halo line, so the halo caches' LRU order
and the way a shard's ghosts are charged go unpinned there.  These
scenarios do evict, on every chip that holds ghosts, with a 64-line
feature cache on each chip as well:

* CR, 4 shards, ``hash``, 4 MB halo caches (evictions on chips 1 and 2);
* IB, 4 shards, ``hash`` and ``locality``, 0.25 MB;
* IB, 4 shards, ``hash``, 0.25 MB, a 0.1 update rate under each
  invalidation policy (``none`` serves stale halo lines);
* two tenants (CR and IB) on a 2-shard group, 0.25 MB.

Each scenario pins the sha256 of its full report JSON and, for a readable
diff, the report without its per-request records.  When a change
*intentionally* alters these numbers, regenerate with::

    PYTHONPATH=src python tests/serving/test_sharding_golden.py

and commit the diff alongside the change that explains it.
"""

import hashlib
import json
import os

import pytest

from repro.graphs import load_dataset
from repro.models.model_zoo import clear_workloads_cache
from repro.serving import FleetConfig, TenantConfig
from repro.serving import sharding as sharding_module
from repro.serving.fleet import clear_probe_cache, run_serving
from repro.serving.sharding import ShardingConfig, clear_shard_plan_cache
from repro.serving.streaming import clear_update_stream_cache
from repro.serving.tenancy import run_multi_tenant

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "sharding_pressure_reports.json")

NUM_REQUESTS = 512
SKEW = 1.2


def _fleet(shards, partitioner, halo_mb):
    return FleetConfig(num_chips=shards, feature_cache_size=64,
                       sharding=ShardingConfig(num_shards=shards,
                                               partitioner=partitioner,
                                               halo_cache_mb=halo_mb))


def _single(dataset, partitioner, halo_mb, **streaming):
    return lambda: run_serving(
        dataset=dataset, num_requests=NUM_REQUESTS, popularity_skew=SKEW,
        config=_fleet(4, partitioner, halo_mb), **streaming)


def _two_tenants():
    shape = dict(num_requests=NUM_REQUESTS // 2, popularity_skew=SKEW)
    return run_multi_tenant(
        [TenantConfig(name="cr", dataset="CR", weight=2.0, **shape),
         TenantConfig(name="ib", dataset="IB", **shape)],
        _fleet(2, "hash", 0.25), include_isolation_baseline=False)


SCENARIOS = {
    "cr_hash_4mb": _single("CR", "hash", 4.0),
    "ib_hash_025mb": _single("IB", "hash", 0.25),
    "ib_locality_025mb": _single("IB", "locality", 0.25),
    **{f"ib_hash_025mb_updates_{policy}": _single(
        "IB", "hash", 0.25, update_rate=0.1, invalidation=policy)
       for policy in ("none", "targeted", "flush")},
    "two_tenants_2shards": _two_tenants,
}


def _without_records(value):
    if isinstance(value, dict):
        return {key: _without_records(item) for key, item in value.items()
                if key != "records"}
    if isinstance(value, list):
        return [_without_records(item) for item in value]
    return value


def _pin(name):
    """``{"sha256", "summary"}`` of one scenario's report."""
    for clear in (clear_probe_cache, clear_workloads_cache,
                  clear_update_stream_cache, clear_shard_plan_cache,
                  load_dataset.cache_clear):
        clear()
    report = SCENARIOS[name]().to_dict()
    payload = json.dumps(report, sort_keys=True, default=float)
    return {"sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "summary": json.loads(json.dumps(_without_records(report),
                                             default=float))}


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sharded_run_matches_golden_fixture(golden, name):
    pin = _pin(name)
    assert pin["summary"] == golden[name]["summary"]
    assert pin["sha256"] == golden[name]["sha256"], (
        "sharded report diverged from the committed fixture; if the change "
        "is intentional, regenerate via "
        "`PYTHONPATH=src python tests/serving/test_sharding_golden.py`")


@pytest.mark.parametrize("name", ["cr_hash_4mb", "ib_hash_025mb",
                                  "two_tenants_2shards"])
def test_scenarios_evict_halo_lines(monkeypatch, name):
    """The fixtures are only worth pinning while they evict halo lines."""
    executors = []
    init = sharding_module.ShardExecutor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        executors.append(self)

    monkeypatch.setattr(sharding_module.ShardExecutor, "__init__",
                        recording_init)
    _pin(name)
    evictions = [cache.stats.evictions
                 for cache in executors[-1].halo_caches]
    assert sum(1 for n in evictions if n > 0) >= 2


if __name__ == "__main__":
    pins = {name: _pin(name) for name in sorted(SCENARIOS)}
    with open(FIXTURE, "w") as handle:
        json.dump(pins, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {FIXTURE} ({len(pins)} scenarios)")
