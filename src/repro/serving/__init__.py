"""Online inference serving on a fleet of HyGCN accelerators.

The serving subsystem turns the single-shot simulator into an online-serving
scenario: a stream of per-target-vertex requests (:mod:`repro.serving.workload`)
is expanded into k-hop subgraphs (:mod:`repro.serving.sampler`), fused into
batches -- flush triggers in :mod:`repro.serving.batcher`, overlap-aware and
continuous batch *formation* in :mod:`repro.serving.batching` --
short-circuited by a result cache
(:mod:`repro.serving.cache`) and dispatched across simulated chips whose
service times drive a discrete-event clock (:mod:`repro.serving.fleet`);
latency/throughput/SLO metrics land in :mod:`repro.serving.stats`.
:mod:`repro.serving.tenancy` layers multi-tenancy on top: several tenants
(model + dataset + traffic + SLO) share one fleet behind a weighted-fair
deficit-round-robin scheduler, with fairness and cross-tenant isolation
metrics in the report.  :mod:`repro.serving.hetero` opens the hardware
axis: fleets may mix HyGCN chip *shapes* (aggregation-heavy,
combination-heavy, balanced) described by a :class:`FleetSpec`, with
``shape-aware`` dispatch routing each batch to the shape that serves its
profile fastest and the control plane choosing which shape to scale.
:mod:`repro.serving.sharding` opens the *dataset* axis: one graph
partitioned across the whole fleet (``hash``/``locality`` behind the
:data:`PARTITIONERS` registry), every batch split into per-shard
sub-batches that execute concurrently with modelled halo-exchange
traffic and per-chip halo caches.  :mod:`repro.serving.trace` makes the
offered request stream a first-class artifact -- capture
(:class:`TraceWriter`), a versioned compact on-disk codec, bit-for-bit
replay and workload characterisation -- and
:mod:`repro.serving.loadtest` drives the simulator open-loop to the SLO
knee (max sustainable RPS), the repo's measured capacity trajectory.
"""

from .batcher import (
    BATCHING_POLICIES,
    Batch,
    Batcher,
    SizeCappedBatcher,
    SLOAwareBatcher,
    TimeoutBatcher,
)
from .batching import (
    ALL_BATCH_POLICIES,
    BATCH_POLICIES,
    ContinuousBatcher,
    FIFOBatcher,
    LateJoin,
    OverlapBatcher,
    build_batch_policy,
    make_signature_fn,
    resolve_signature_hops,
)
from .cache import CacheStats, FeatureCache, LRUCache
from .control import (
    AUTOSCALE_POLICIES,
    AutoscalePolicy,
    ControlConfig,
    ControlObservation,
    DegradeLevel,
    EWMAPolicy,
    PIDPolicy,
    ThresholdPolicy,
    TokenBucket,
    build_autoscale_policy,
    default_degradation_ladder,
)
from .fleet import (
    DISPATCH_POLICIES,
    Chip,
    FleetConfig,
    ServingSimulator,
    WFQScheduler,
    clear_probe_cache,
    probe_targets,
    run_serving,
)
from .loadtest import (
    KneeResult,
    LoadPoint,
    LoadTestConfig,
    LoadTestReport,
    find_knee,
    run_loadtest,
)
from .hetero import (
    SCALE_SHAPE_POLICIES,
    SHAPE_MIXES,
    SHAPE_PRESETS,
    BatchProfile,
    FleetSpec,
    ShapeChooser,
    ShapeScorer,
    ShapeSpec,
    fleet_spec_for_mix,
    load_fleet_spec,
    make_profile_fn,
    shape_cost,
    shape_hw,
    shape_table,
)
from .observe import (
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    format_trace_report,
    load_trace,
    trace_report,
    validate_trace,
)
from .sampler import (
    SIGNATURE_HASHES,
    SubgraphSample,
    SubgraphSampler,
    estimate_jaccard,
)
from .sharding import (
    PARTITIONERS,
    InterconnectConfig,
    ShardExecutor,
    ShardingConfig,
    ShardTiming,
    clear_shard_plan_cache,
    shard_plan_for,
)
from .stats import (
    AdmissionStats,
    BatchingStats,
    ChipStats,
    ConsistencyStats,
    ControlStats,
    HeteroStats,
    MultiTenantReport,
    RequestRecord,
    ServingReport,
    ShardingStats,
    percentile,
)
from .streaming import (
    INVALIDATION_POLICIES,
    UPDATE_KINDS,
    StreamState,
    UpdateEvent,
    UpdateStream,
    clear_update_stream_cache,
    generate_update_stream,
    parse_update_mix,
)
from .trace import (
    TRACE_VERSION,
    TRACE_VERSION_UPDATES,
    RequestTrace,
    TraceFormatError,
    TraceWriter,
    format_trace_stats,
    load_request_trace,
    save_request_trace,
    trace_stats,
)
from .tenancy import (
    MultiTenantSimulator,
    TenantConfig,
    TenantRuntime,
    load_tenant_specs,
    run_multi_tenant,
)
from .workload import (
    ARRIVAL_PROCESSES,
    Request,
    RequestGenerator,
    WorkloadConfig,
    bursty_arrival_times,
    merge_tenant_streams,
    poisson_arrival_times,
    ramp_arrival_times,
    split_tenant_stream,
    trace_arrival_times,
)

__all__ = [
    "ALL_BATCH_POLICIES",
    "ARRIVAL_PROCESSES",
    "AUTOSCALE_POLICIES",
    "BATCHING_POLICIES",
    "BATCH_POLICIES",
    "DISPATCH_POLICIES",
    "INVALIDATION_POLICIES",
    "PARTITIONERS",
    "SCALE_SHAPE_POLICIES",
    "SHAPE_MIXES",
    "SHAPE_PRESETS",
    "SIGNATURE_HASHES",
    "TRACE_VERSION",
    "TRACE_VERSION_UPDATES",
    "UPDATE_KINDS",
    "AdmissionStats",
    "AutoscalePolicy",
    "Batch",
    "Batcher",
    "BatchProfile",
    "BatchingStats",
    "CacheStats",
    "Chip",
    "ChipStats",
    "ConsistencyStats",
    "ContinuousBatcher",
    "Counter",
    "FIFOBatcher",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "InterconnectConfig",
    "LateJoin",
    "MetricsRegistry",
    "OverlapBatcher",
    "ControlConfig",
    "ControlObservation",
    "ControlStats",
    "DegradeLevel",
    "EWMAPolicy",
    "FeatureCache",
    "FleetConfig",
    "FleetSpec",
    "HeteroStats",
    "KneeResult",
    "LoadPoint",
    "LoadTestConfig",
    "LoadTestReport",
    "LRUCache",
    "MultiTenantReport",
    "MultiTenantSimulator",
    "PIDPolicy",
    "Request",
    "RequestGenerator",
    "RequestRecord",
    "RequestTrace",
    "ServingReport",
    "ServingSimulator",
    "ShapeChooser",
    "ShapeScorer",
    "ShapeSpec",
    "ShardExecutor",
    "ShardTiming",
    "ShardingConfig",
    "ShardingStats",
    "SizeCappedBatcher",
    "SLOAwareBatcher",
    "StreamState",
    "SubgraphSample",
    "SubgraphSampler",
    "TenantConfig",
    "TenantRuntime",
    "ThresholdPolicy",
    "TimeoutBatcher",
    "TokenBucket",
    "TraceFormatError",
    "TraceWriter",
    "UpdateEvent",
    "UpdateStream",
    "WFQScheduler",
    "WorkloadConfig",
    "build_autoscale_policy",
    "build_batch_policy",
    "bursty_arrival_times",
    "clear_probe_cache",
    "clear_shard_plan_cache",
    "clear_update_stream_cache",
    "default_degradation_ladder",
    "estimate_jaccard",
    "find_knee",
    "fleet_spec_for_mix",
    "generate_update_stream",
    "parse_update_mix",
    "format_trace_report",
    "format_trace_stats",
    "load_fleet_spec",
    "load_request_trace",
    "load_tenant_specs",
    "load_trace",
    "save_request_trace",
    "trace_report",
    "trace_stats",
    "validate_trace",
    "make_profile_fn",
    "make_signature_fn",
    "merge_tenant_streams",
    "percentile",
    "shape_cost",
    "shape_hw",
    "shape_table",
    "resolve_signature_hops",
    "poisson_arrival_times",
    "probe_targets",
    "ramp_arrival_times",
    "run_loadtest",
    "run_multi_tenant",
    "run_serving",
    "shard_plan_for",
    "split_tenant_stream",
    "trace_arrival_times",
]
