"""Multi-tenant serving: several models/datasets share one accelerator fleet.

This module turns the single-stream fleet of :mod:`repro.serving.fleet` into
a shared deployment.  Each :class:`TenantConfig` binds a model from the model
zoo, a dataset/graph, an arrival process and a latency SLO; all tenants'
request streams are merged onto one simulated clock and compete for the same
chips.  Three mechanisms keep the sharing honest:

* **per-tenant batch formation** -- every tenant owns its own batcher
  (:mod:`repro.serving.batcher`) and result cache, so batches never mix
  graphs and one tenant's batching policy cannot delay another's flushes;
* **weighted fair queueing** -- formed batches are admitted into per-tenant
  dispatch queues drained by the deficit-round-robin
  :class:`~repro.serving.fleet.WFQScheduler`, with batch cost = estimated
  fused-batch service time priced on the batch's **deduped fused size**
  (a per-tenant EWMA of seconds per fused vertex, seeded by a probe
  batch, re-priced when continuous batching admits a late join), so chip
  *time* is shared in proportion to the configured weights and a tenant
  running an overlap-aware formation policy
  (:mod:`repro.serving.batching`) is billed for the union its batches
  actually execute;
* **isolation metrics** -- the run rolls up into a
  :class:`~repro.serving.stats.MultiTenantReport` with per-tenant latency
  percentiles and SLO-violation rates, measured contended service shares vs.
  weights, and cross-tenant p99 inflation against each tenant running alone
  on an identical fleet.

:class:`MultiTenantSimulator` keeps only the WFQ pull stage and its
report wrapper: the event loop and the run body (empty and update-only
streams included) are the single-tenant front end's.

Key entry points: :func:`run_multi_tenant` (spec list -> report),
:func:`load_tenant_specs` (JSON file -> specs, used by
``python -m repro serve --tenants``) and :class:`MultiTenantSimulator` for
programmatic control.  Everything is deterministic under the fleet seed.

Arming a :class:`~repro.serving.control.ControlConfig` makes the shared
fleet elastic: the control plane autoscales the chip pool (warm-up on the
way up, drain-before-remove on the way down), polices each tenant with a
token bucket sized to its weight share, and sheds or degrades requests
whose queueing-delay estimate has already blown the tenant's SLO budget.

A :class:`~repro.serving.fleet.FleetConfig` carrying a
:class:`~repro.serving.hetero.FleetSpec` makes the shared fleet
*heterogeneous*: chips carry different HyGCN shapes, every tenant learns
its own per-(shape, profile-bucket) service rates (service cost is
model/dataset-specific, so scorers are never shared), and under
``dispatch="shape-aware"`` each WFQ-released batch is placed on the idle
chip whose shape serves that tenant's batch profile fastest.  Elastic
heterogeneous runs additionally choose *which shape* to add or retire
(:class:`~repro.serving.hetero.ShapeChooser`), and the report gains
per-shape utilization/service-share plus the mis-dispatch metric
(:class:`~repro.serving.stats.HeteroStats`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..graphs.datasets import DATASETS, load_dataset
from ..models.model_zoo import MODEL_NAMES, build_model
from .control import ControlConfig
from .fleet import (
    FleetConfig,
    TenantRuntime,
    WFQScheduler,
    _arm_update_stream,
    _FleetSimulator,
    _PullStage,
    _served_graph,
    _stamp_capture,
    _update_events,
    _validate_tenant_knobs,
    probe_batch_service_time_s,  # noqa: F401 -- kept importable from here
)
from .stats import HeteroStats, MultiTenantReport, ServingReport
from .streaming import generate_update_stream  # noqa: F401 -- kept importable
from .workload import (
    Request,
    RequestGenerator,
    WorkloadConfig,
    merge_tenant_streams,
    split_tenant_stream,
)

__all__ = [
    "TenantConfig",
    "TenantRuntime",
    "MultiTenantSimulator",
    "load_tenant_specs",
    "run_multi_tenant",
]


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's binding of model, graph, traffic, SLO and fair share.

    ``weight`` is the tenant's WFQ share: under contention a tenant receives
    ``weight / sum(weights)`` of the fleet's chip-seconds.  ``rate_rps=None``
    spreads the tenant's requests over a window shared with the other
    calibrated tenants, sized so the fleet runs at the run's utilisation
    target (see :meth:`MultiTenantSimulator.calibrate_rates`); ``slo_s=None``
    and
    ``batch_timeout_s=None`` derive adaptive values from a probe batch, like
    the single-tenant fleet does.  ``seed=None`` derives a per-tenant seed
    from the fleet seed (``fleet.seed + 101 * (index + 1)``), keeping whole
    multi-tenant runs reproducible; a tenant pinned to ``fleet.seed`` serves
    the same graph, probe and SLO as :func:`~repro.serving.fleet.run_serving`.

    ``batch_policy`` accepts the flush triggers (``size``/``timeout``/
    ``slo``) *and* the formation policies (``fifo``/``overlap``/
    ``continuous``, :mod:`repro.serving.batching`); each tenant forms its
    own batches, so tenants can mix policies.  The overlap tuning knobs
    (``overlap_k``, ``min_overlap``, ``pool_factor``, ``join_window_s``,
    ``staleness_s``) are fleet-level
    (:class:`~repro.serving.fleet.FleetConfig`) and apply to every tenant
    that opts into an overlap-aware policy.
    """

    name: str
    model: str = "GCN"
    dataset: str = "CR"
    weight: float = 1.0
    num_requests: int = 500
    rate_rps: Optional[float] = None
    arrival: str = "poisson"
    popularity_skew: float = 0.8
    burst_factor: float = 5.0
    on_fraction: float = 0.1
    peak_factor: float = 4.0
    ramp_fraction: float = 0.25
    peak_fraction: float = 0.2
    num_hops: int = 2
    fanout: int = 8
    batch_policy: str = "timeout"
    max_batch_size: int = 32
    batch_timeout_s: Optional[float] = None
    slo_s: Optional[float] = None
    cache_size: int = 4096
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        object.__setattr__(self, "model", str(self.model).upper())
        object.__setattr__(self, "dataset", str(self.dataset).upper())
        if self.model not in MODEL_NAMES:
            raise ValueError(f"model must be one of {MODEL_NAMES}, "
                             f"got {self.model!r}")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {sorted(DATASETS)}, "
                             f"got {self.dataset!r}")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive when set")
        if self.arrival not in ("poisson", "bursty", "ramp"):
            raise ValueError(
                "per-tenant arrival must be 'poisson', 'bursty' or 'ramp' "
                "(to replay a captured multi-tenant run, pass the whole "
                "trace: `serve --tenants ... --replay trace.bin`)")
        _validate_tenant_knobs(self)


def load_tenant_specs(source: Union[str, Sequence[Mapping], Mapping]
                      ) -> List[TenantConfig]:
    """Parse tenant specs from a JSON file path, a list of dicts, or a dict.

    The JSON shape is either a bare list of tenant objects or
    ``{"tenants": [...]}``; object keys mirror :class:`TenantConfig` fields
    (``slo_s`` in seconds).  Unknown keys are rejected so a typo in a spec
    fails loudly instead of silently falling back to a default.
    """
    if isinstance(source, str):
        with open(source) as handle:
            data = json.load(handle)
    else:
        data = source
    if isinstance(data, Mapping):
        if "tenants" not in data:
            raise ValueError("tenant spec object must have a 'tenants' list")
        data = data["tenants"]
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise ValueError("tenant spec must be a list of tenant objects")
    known = {f.name for f in fields(TenantConfig)}
    specs: List[TenantConfig] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, Mapping):
            raise ValueError(f"tenant #{i} is not an object")
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"tenant #{i} has unknown keys {sorted(unknown)}; "
                             f"valid keys are {sorted(known)}")
        try:
            specs.append(TenantConfig(**entry))
        except TypeError as exc:  # e.g. a string where a number belongs
            raise ValueError(f"tenant #{i} is malformed: {exc}") from exc
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    if not specs:
        raise ValueError("tenant spec must name at least one tenant")
    return specs


class MultiTenantSimulator(_FleetSimulator):
    """Discrete-event simulation of tenants sharing one chip fleet via WFQ.

    The multi-tenant front end of the fleet's event loop
    (:class:`~repro.serving.fleet.ServingSimulator` is the one-tenant
    front end): one :class:`~repro.serving.fleet.TenantRuntime` per tenant,
    and the deficit-round-robin :class:`~repro.serving.fleet.WFQScheduler`
    between batch formation and the chips.  Chips hold no private queues;
    every time a chip frees up it *pulls* the next batch in fair-share
    order.
    """

    def __init__(self, tenants: Sequence[TenantConfig],
                 fleet: Optional[FleetConfig] = None,
                 control: Optional[ControlConfig] = None,
                 observe=None, updates=None):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        fleet = fleet or FleetConfig()
        runtimes: Dict[str, TenantRuntime] = {}
        for i, tenant in enumerate(tenants):
            # an unseeded tenant derives its seed from the fleet seed, which
            # keeps whole multi-tenant runs reproducible
            seed = tenant.seed if tenant.seed is not None \
                else fleet.seed + 101 * (i + 1)
            # a mutating run: every tenant serves its own delta overlay
            graph = _served_graph(load_dataset(tenant.dataset, seed=seed),
                                  updates)
            model = build_model(tenant.model,
                                input_length=graph.feature_length)
            runtimes[tenant.name] = TenantRuntime(
                tenant.name, tenant, fleet, graph, model, tenant.dataset, seed)
        super().__init__(fleet, runtimes, control, observe, updates)
        self.tenant_names = names
        quantum_s = 0.5 * min(rt.probe_service_s for rt in runtimes.values())
        self.scheduler = WFQScheduler(
            {t.name: t.weight for t in tenants}, quantum_s=max(quantum_s, 1e-12))

    # ------------------------------------------------------------------ #
    # Traffic
    # ------------------------------------------------------------------ #
    def calibrate_rates(self, utilization_target: float = 0.7
                        ) -> Dict[str, float]:
        """Resolve every tenant's arrival rate (explicit or calibrated).

        Calibrated tenants (``rate_rps=None``) all spread their requests over
        one shared arrival window, sized so the fleet's aggregate offered
        chip-time (each calibrated tenant's request count times its
        probe-measured per-request cost, on top of whatever load the
        explicit-rate tenants already offer) equals ``utilization_target`` of
        fleet capacity.  Sharing one window keeps the calibrated tenants
        contending for the whole run -- weights decide who wins that
        contention, not who arrives when.  Raises when the explicit-rate
        tenants alone already offer the whole target (the calibrated tenants
        would have no budget left).
        """
        if not 0 < utilization_target:
            raise ValueError("utilization_target must be positive")

        def cost_per_request_s(rt: TenantRuntime) -> float:
            return rt.probe_service_s / rt.probe_batch_size

        rates: Dict[str, float] = {
            name: rt.config.rate_rps for name, rt in self.runtimes.items()
            if rt.config.rate_rps is not None}
        calibrated = [rt for rt in self.runtimes.values()
                      if rt.config.rate_rps is None]
        if not calibrated:
            return rates
        # chip-seconds per second the explicit-rate tenants already claim
        explicit_load = sum(rates[rt.name] * cost_per_request_s(rt)
                            for rt in self.runtimes.values()
                            if rt.config.rate_rps is not None)
        budget = utilization_target * self.fleet.num_chips - explicit_load
        if budget <= 0:
            raise ValueError(
                f"explicit-rate tenants already offer "
                f"{explicit_load / self.fleet.num_chips:.2f}x fleet capacity, "
                f">= the utilization target {utilization_target:g}; raise the "
                f"target or give every tenant an explicit rate_rps")
        demand_s = sum(rt.config.num_requests * cost_per_request_s(rt)
                       for rt in calibrated)
        window_s = demand_s / budget
        for rt in calibrated:
            rates[rt.name] = max(rt.config.num_requests, 1) \
                / max(window_s, 1e-12)
        return rates

    def tenant_streams(self, rates: Mapping[str, float]
                       ) -> Dict[str, List[Request]]:
        """Generate each tenant's (untagged) request stream at its rate."""
        streams: Dict[str, List[Request]] = {}
        for name, rt in self.runtimes.items():
            cfg = rt.config
            workload = WorkloadConfig(
                num_requests=cfg.num_requests, rate_rps=rates[name],
                arrival=cfg.arrival, popularity_skew=cfg.popularity_skew,
                burst_factor=cfg.burst_factor, on_fraction=cfg.on_fraction,
                peak_factor=cfg.peak_factor, ramp_fraction=cfg.ramp_fraction,
                peak_fraction=cfg.peak_fraction, seed=rt.seed)
            streams[name] = RequestGenerator(rt.graph.num_vertices,
                                             workload).generate()
        return streams

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request],
            rates: Optional[Mapping[str, float]] = None) -> MultiTenantReport:
        """Serve a merged, tenant-tagged stream and return the shared report."""
        fleet = self.fleet
        runtimes = self.runtimes
        stage = _PullStage(self.scheduler, self.chips, runtimes,
                           shape_aware=fleet.dispatch == "shape-aware")
        hetero = HeteroStats(
            dispatch_policy="shape-aware" if stage.shape_aware
            else "wfq-first-idle") if self._track_shapes else None
        num_chips = len(self.chips)  # before an elastic run grows the list

        def wrap(slices: Dict[str, ServingReport]) -> MultiTenantReport:
            return MultiTenantReport(
                num_chips=num_chips,
                tenants=list(self.tenant_names),
                weights={n: rt.weight for n, rt in runtimes.items()},
                reports=slices,
                busy_s={n: rt.busy_s for n, rt in runtimes.items()},
                contended_busy_s={n: rt.contended_busy_s
                                  for n, rt in runtimes.items()},
                max_backlog_batches=stage.peak_backlog)

        return self._run(requests, stage, hetero, rates or {}, "wfq-drr",
                         num_chips, wrap)


def run_multi_tenant(
    tenants: Sequence[TenantConfig],
    fleet: Optional[FleetConfig] = None,
    utilization_target: float = 0.7,
    include_isolation_baseline: bool = True,
    control: Optional[ControlConfig] = None,
    observe=None,
    capture=None,
    replay=None,
    update_rate: float = 0.0,
    update_mix: Optional[str] = None,
    invalidation: str = "targeted",
    staleness_budget: int = 0,
    updates=None,
) -> MultiTenantReport:
    """End-to-end multi-tenant run: specs -> shared fleet -> report.

    Rates are resolved once (explicit or calibrated to each tenant's weight
    share of fleet capacity) and reused for the shared run *and* the optional
    isolation baselines, so every tenant sees byte-identical traffic alone
    and shared -- which is what makes the p99-inflation metric meaningful.
    Baselines re-simulate each tenant alone on an identical fresh fleet; skip
    them (``include_isolation_baseline=False``) when only fairness matters.

    ``control`` arms the elastic control plane for the *shared* run only: the
    isolation baselines stay fixed-fleet, so p99 inflation keeps comparing
    against the uncontrolled contract the tenant was promised.  ``observe``
    likewise instruments only the shared run -- the solo baselines would
    otherwise emit duplicate spans for the same request ids.

    ``capture`` is a :class:`~repro.serving.trace.TraceWriter` that records
    the *shared* run's offered stream (tenant-tagged requests and updates,
    plus the resolved per-tenant rates in ``capture.meta``); ``replay`` takes a multi-tenant
    :class:`~repro.serving.trace.RequestTrace` and serves its exact merged
    stream against the same tenant specs -- calibration is skipped (rates
    come from the capture's metadata) and the isolation baselines replay
    each tenant's slice of the stream, so the whole report reproduces the
    captured run bit-for-bit.
    """
    fleet = fleet or FleetConfig()
    # streaming updates: the same deferred fill as run_serving, with one
    # source per tenant once the per-tenant rates are resolved
    updates, fill_update_events = _arm_update_stream(
        updates, update_rate, replay, invalidation, staleness_budget)
    shared = MultiTenantSimulator(tenants, fleet, control=control,
                                  observe=observe, updates=updates)
    if replay is not None:
        requests, rates = _replay_stream(replay, shared)
        streams = split_tenant_stream(requests)
    else:
        rates = shared.calibrate_rates(utilization_target)
        streams = shared.tenant_streams(rates)
        requests = merge_tenant_streams(streams)
    if fill_update_events:
        updates.events = _update_events(
            [(rt.graph, rt.config.num_requests, rates[name], rt.seed, name)
             for name, rt in shared.runtimes.items()],
            update_rate, update_mix)
    if capture is not None:
        _stamp_capture(capture, {
            "kind": "serve-tenants", "fleet_seed": fleet.seed,
            "num_chips": fleet.num_chips,
            "rates": {name: rates[name] for name in shared.tenant_names},
            "tenants": [{
                "name": t.name, "dataset": t.dataset, "model": t.model,
                "num_hops": t.num_hops, "fanout": t.fanout,
                "popularity_skew": t.popularity_skew,
                "seed": shared.runtimes[t.name].seed,
                "slo_s": shared.runtimes[t.name].slo_s,
            } for t in tenants],
        }, updates, update_rate, update_mix, replay, requests)
    report = shared.run(requests, rates)
    if include_isolation_baseline:
        for tenant in tenants:
            # pin the seed the shared run derived for this tenant, so the
            # solo baseline sees the identical graph, sampler, probe and SLO
            pinned = replace(tenant,
                             seed=shared.runtimes[tenant.name].seed)
            # a mutating run's baseline replays the tenant's own slice of
            # the update stream, so solo and shared serve the same graph
            # history (p99 inflation compares like with like)
            solo_sim = MultiTenantSimulator(
                [pinned], fleet,
                updates=updates.for_tenant(tenant.name)
                if updates is not None else None)
            # under replay `streams` holds the shared stream's per-tenant
            # slices; re-merging renumbers them 0..n-1 in the same order the
            # generator emitted, so solo traffic matches the captured run's
            solo_stream = merge_tenant_streams(
                {tenant.name: streams.get(tenant.name, [])})
            solo = solo_sim.run(solo_stream, {tenant.name: rates[tenant.name]})
            report.solo[tenant.name] = solo.reports[tenant.name]
    return report


def _replay_stream(replay, shared: MultiTenantSimulator):
    """Validate a captured multi-tenant trace against the tenant specs and
    return its merged stream plus the per-tenant rates to report."""
    if not replay.multi_tenant:
        raise ValueError(
            "trace was captured from a single-tenant run; replay it with "
            "`serve --replay` (no --tenants)")
    unknown = [n for n in replay.tenant_names if n not in shared.runtimes]
    if unknown:
        raise ValueError(
            f"trace tenants {unknown} not in the tenant spec "
            f"(spec has: {', '.join(shared.tenant_names)})")
    requests = replay.to_requests()
    for r in requests:
        limit = shared.runtimes[r.tenant].graph.num_vertices
        if not 0 <= r.target_vertex < limit:
            raise ValueError(
                f"trace targets vertex {r.target_vertex} for tenant "
                f"{r.tenant!r}, outside its graph's {limit} vertices (was "
                f"the trace captured against a different spec?)")
    stamped = replay.meta.get("rates") or {}
    rates: Dict[str, float] = {}
    for name in shared.tenant_names:
        if name in stamped:
            rates[name] = float(stamped[name])
        else:
            # hand-built trace: report each tenant's own mean arrival rate
            times = [r.arrival_time_s for r in requests if r.tenant == name]
            span = times[-1] - times[0] if len(times) > 1 else 0.0
            rates[name] = (len(times) - 1) / span if span > 0 else 0.0
    return requests, rates
