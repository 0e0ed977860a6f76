"""Counter blocks declare their fields once: export and merge derive from them.

Every block's ``as_dict()`` holds exactly its dataclass fields, then its
named derived values; the lists and dicts in an export are copies; and every
summable block's ``merge`` is the field-wise sum.
"""

import copy
from dataclasses import asdict, fields, is_dataclass

import pytest

from repro.counters import CounterBlock
from repro.hw import BufferStats, DRAMStats, EnergyBreakdown
from repro.serving.cache import CacheStats
from repro.serving.loadtest import LoadPoint
from repro.serving.stats import (
    AdmissionStats,
    BatchingStats,
    ChipStats,
    ConsistencyStats,
    ControlSample,
    ControlStats,
    HeteroStats,
    RequestRecord,
    ScaleEvent,
    ServingReport,
    ShardingStats,
)


def _admission(tenant):
    return AdmissionStats(tenant=tenant, offered=10, admitted=8,
                          shed_rate_limited=1, shed_overload=1,
                          degraded={2: 1, 1: 3})


def _scale_event():
    return ScaleEvent(time_s=0.1, action="add", chip_id=2, active=2,
                      warming=1, draining=0)


def _control_sample():
    return ControlSample(time_s=0.2, active=2, warming=1, draining=0,
                         desired_chips=3, queue_depth=7, arrival_rate_rps=1e4,
                         utilization=0.8, est_queue_delay_s=1e-4,
                         violations=1, shed=2)


#: One populated instance per exported counter block (a factory, so every
#: test gets a fresh one).
BLOCKS = {
    "ChipStats": lambda: ChipStats(
        chip_id=3, shape="big", busy_s=1.5, batches_served=2,
        requests_served=9, vertices_simulated=40, feature_lookups=10,
        feature_hits=4, provisioned_s=2.0),
    "BatchingStats": lambda: BatchingStats(
        policy="overlap", batches=3, batched_requests=12, fused_vertices=50,
        naive_vertices=80, late_joins=2, late_join_rejects=1),
    "ShardingStats": lambda: ShardingStats(
        num_shards=2, partitioner="locality", edge_cut=5, num_edges=40,
        halo_vertices=3, size_imbalance=1.2, sharded_batches=4,
        sub_batches=8, halo_lookups=10, halo_hits=6, halo_bytes_moved=512.0,
        halo_bytes_saved=256.0, exchange_s=1e-6, gather_s=2e-6,
        shard_busy_s=[1.0, 3.0], shard_requests=[5, 7], p50_s=1e-3,
        p95_s=2e-3, p99_s=3e-3),
    "ConsistencyStats": lambda: ConsistencyStats(
        policy="flush", budget_versions=1, updates_offered=6, edge_updates=2,
        feature_updates=1, vertex_updates=1, noop_updates=2, final_version=4,
        compactions=1, invalidations={"result": 3, "feature": 2}, checks=7,
        stale_results=1, stale_features=1, stale_version_lag_sum=3,
        stale_version_lag_max=2, stale_seconds_sum=0.5,
        stale_seconds_max=0.3, stale_beyond_budget=1, p99_s=2e-3,
        baseline_p99_s=1e-3),
    "HeteroStats": lambda: HeteroStats(
        shape_counts={"small": 2, "big": 1}, dispatch_policy="shape-aware",
        scored_batches=5, fallback_batches=1, misdispatch_s=1e-4,
        rates_s_per_vertex={"big|0": 1e-9, "small|0": 3e-9}),
    "ScaleEvent": _scale_event,
    "ControlSample": _control_sample,
    "AdmissionStats": lambda: _admission("a"),
    "ControlStats": lambda: ControlStats(
        policy="threshold", min_chips=1, max_chips=4, control_interval_s=1e-3,
        warmup_s=2e-3, initial_chips=1, final_chips=2, chip_seconds_s=0.01,
        warmup_chip_seconds_s=0.002, timeline=[_scale_event()],
        samples=[_control_sample()],
        admission={"b": _admission("b"), "a": _admission("a")}),
    "CacheStats": lambda: CacheStats(hits=3, misses=2, insertions=2,
                                     evictions=1),
    "LoadPoint": lambda: LoadPoint(
        rate_rps=1e4, attainment=0.99, p50_s=1e-3, p95_s=2e-3, p99_s=3e-3,
        throughput_rps=9e3, completed=100, offered=100),
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_export_is_the_fields_then_the_derived_values(name):
    block = BLOCKS[name]()
    assert isinstance(block, CounterBlock)
    exported = block.as_dict()
    field_names = [f.name for f in fields(block)]
    assert list(exported) == field_names + list(block.DERIVED)
    for key in block.DERIVED:
        assert exported[key] == getattr(block, key)
    for key in field_names:
        value = getattr(block, key)
        if not isinstance(value, (list, dict)):
            assert exported[key] == value


def _mutate(value):
    """Append to every list and add a key to every dict, recursively."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _mutate(item)
        value["mutated"] = -1
    elif isinstance(value, list):
        for item in value:
            _mutate(item)
        value.append(-1)


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_mutating_the_export_leaves_the_block_unchanged(name):
    block = BLOCKS[name]()
    before = copy.deepcopy(block)
    exported = block.as_dict()
    _mutate(exported)
    assert block == before
    assert block.as_dict() == before.as_dict()


def test_admission_degraded_exports_sorted_string_keys():
    exported = _admission("a").as_dict()["degraded"]
    assert list(exported.items()) == [("1", 3), ("2", 1)]


def test_control_admission_exports_each_tenant_block_sorted():
    control = BLOCKS["ControlStats"]()
    exported = control.as_dict()
    assert list(exported["admission"]) == ["a", "b"]
    assert exported["admission"]["b"] == control.admission["b"].as_dict()
    assert exported["timeline"] == [control.timeline[0].as_dict()]
    assert exported["samples"] == [control.samples[0].as_dict()]


def test_record_export_is_its_fields_then_latency():
    record = RequestRecord(request_id=1, target_vertex=7, arrival_time_s=1.0,
                           dispatch_time_s=1.5, service_start_s=2.0,
                           completion_time_s=3.0, chip_id=0, batch_id=4)
    report = ServingReport(model_name="GCN", dataset_name="IB", num_chips=1,
                           batch_policy="size", dispatch_policy="round-robin",
                           rate_rps=1.0, slo_s=1.0, records=[record])
    exported = report.to_dict()["records"]
    assert exported == [dict(asdict(record), latency_s=2.0)]
    assert list(exported[0]) == [f.name for f in fields(record)] + ["latency_s"]


@pytest.mark.parametrize("cls", [DRAMStats, EnergyBreakdown, BufferStats],
                         ids=lambda cls: cls.__name__)
def test_merge_is_the_field_wise_sum(cls):
    assert is_dataclass(cls)
    names = [f.name for f in fields(cls)]
    a = cls(**{name: type(getattr(cls(), name))(i + 1)
               for i, name in enumerate(names)})
    b = cls(**{name: type(getattr(cls(), name))(10 * (i + 1))
               for i, name in enumerate(names)})
    merged = a.merge(b)
    assert type(merged) is cls
    assert asdict(merged) == {name: getattr(a, name) + getattr(b, name)
                              for name in names}
    assert asdict(a) == {name: type(getattr(cls(), name))(i + 1)
                         for i, name in enumerate(names)}
