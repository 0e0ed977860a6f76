"""Observability for serving runs: span traces, metrics, trace analysis.

The serving subsystem's end-of-run report (:mod:`repro.serving.stats`)
answers *what happened on average*; this module answers *where one request
spent its time* and *how fleet state evolved mid-run*.  Three pieces:

* :class:`Instrumentation` -- the hub whose lifecycle hooks the fleet's
  event loop (:mod:`repro.serving.fleet`, single- and multi-tenant alike)
  fires.  The loop is the sole emitter: batchers, the control plane and
  the streaming state hold no reference to the hub; they return what
  happened and the loop reports it.  It is **opt-in**: the loop holds
  ``observe = None`` by default, so an uninstrumented run executes no
  observability code at all.  All timestamps are **seconds of simulated
  time** (the discrete-event clock), never wall time -- instrumenting a
  run does not perturb it, and the acceptance tests pin that a traced
  run's report is bit-for-bit identical to an untraced run's.

* Span tracing.  Hooks record batch formation, late joins, admission
  control, scaling and batch completion; at completion the hub emits
  Chrome trace-event JSON `complete events`_ ("ph": "X") onto three
  process tracks -- ``control`` (pid 0: instants and fleet-size counters),
  ``fleet`` (pid 1: one thread per chip, batch service spans carrying the
  cycle-model phase breakdown stamped on :attr:`Batch.phase_cycles`), and
  ``requests`` (pid 2: one thread per request, with its
  batching / queue / service phase spans).  The per-request spans are cut
  from the same four timestamps the :class:`RequestRecord` is built from,
  so their durations sum to the recorded end-to-end latency exactly.
  :meth:`Instrumentation.write_trace` writes a file Perfetto and
  ``chrome://tracing`` open directly.

* Metrics.  A :class:`MetricsRegistry` of Counter / Gauge / Histogram
  (fixed buckets) instruments.  Counters are bumped by the hooks
  (admission drops, scale events, late joins, ...); gauges are sampled by
  the event loop at a configurable simulated-time interval
  (``--metrics-interval-ms``) via :meth:`Instrumentation.scrape`, which
  appends one row to a JSONL time series.
  :meth:`Instrumentation.write_metrics` writes the JSONL plus a
  Prometheus-style text exposition next to it.

:func:`load_trace` / :func:`validate_trace` / :func:`trace_report` /
:func:`format_trace_report` are the analysis half: they read a trace file
back and compute the critical-path breakdown behind the
``repro trace-report`` subcommand.

.. _complete events:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import bisect
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .stats import percentile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "format_trace_report",
    "load_trace",
    "trace_report",
    "validate_trace",
]

logger = logging.getLogger("repro.serving.observe")

#: Trace process ids: one per track family (see module docstring).
PID_CONTROL, PID_FLEET, PID_REQUESTS = 0, 1, 2

#: Seconds -> trace-event microseconds (the unit Chrome/Perfetto expect).
_US = 1e6

#: Default latency-histogram bucket bounds in seconds: geometric 1us..10s,
#: wide enough for every dataset the simulator ships (probe-batch service
#: times span microseconds to milliseconds).
DEFAULT_BUCKETS_S = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 1.0, 10.0,
)

#: Default metrics-scrape interval as a multiple of the probe-batch
#: service time -- the fleet's natural time scale (cf. the adaptive
#: timeout / SLO multiples in :mod:`repro.serving.fleet`).
METRICS_PROBE_MULTIPLE = 2.0

#: Event phases the validator accepts (the subset the hub emits).
_KNOWN_PHASES = {"X", "i", "I", "C", "M"}

#: The per-request phase names, in lifecycle order (used to order report
#: rows and span trees deterministically).
_PHASE_ORDER = ("cache", "batching", "queue", "service")


# --------------------------------------------------------------------------- #
# Metrics instruments
# --------------------------------------------------------------------------- #
@dataclass
class Counter:
    """Monotonically increasing count (requests completed, sheds, ...)."""

    name: str
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self):
        return self.value


@dataclass
class Gauge:
    """Point-in-time level (queue depth, busy fraction, ...)."""

    name: str
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    value: float = 0.0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self):
        return self.value


@dataclass
class Histogram:
    """Fixed-bucket histogram (request latency, batch service time).

    ``buckets`` are the upper bounds in ascending order; observations
    land in the first bucket whose bound is ``>= value``, with an implicit
    ``+Inf`` overflow bucket, Prometheus-style.  ``counts`` is per-bucket
    (not cumulative); the exposition renders the cumulative form.
    """

    name: str
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS_S
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        self.buckets = tuple(sorted(self.buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self):
        return {"count": self.count, "sum": self.sum}


class MetricsRegistry:
    """Named Counter / Gauge / Histogram instruments, get-or-create.

    Instruments are keyed on ``(name, labels)``; re-requesting the same key
    returns the same object, so hooks can stay stateless.  ``labels`` is a
    plain dict (e.g. ``{"shape": "agg_heavy"}``) canonicalised to a sorted
    tuple internally.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple], object] = {}

    @staticmethod
    def _key(name: str, labels: Optional[Dict[str, str]]):
        return name, tuple(sorted((labels or {}).items()))

    def _get(self, cls, name, help, labels, **kwargs):
        key = self._key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, help=help, labels=key[1], **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS_S) -> Histogram:
        return self._get(Histogram, name, help, labels,
                         buckets=tuple(buckets))

    # ------------------------------------------------------------------ #
    def collect(self) -> List[object]:
        """Every instrument, in stable (name, labels) order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def scrape_row(self, now_s: float) -> Dict[str, object]:
        """One JSONL time-series row: ``t_s`` plus every metric's value."""
        row: Dict[str, object] = {"t_s": now_s}
        metrics: Dict[str, object] = {}
        for metric in self.collect():
            label_str = "{%s}" % ",".join(
                f'{k}="{v}"' for k, v in metric.labels) \
                if metric.labels else ""
            metrics[metric.name + label_str] = metric.snapshot()
        row["metrics"] = metrics
        return row

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the current instrument values."""
        lines: List[str] = []
        seen_headers = set()
        for metric in self.collect():
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            label_str = ",".join(f'{k}="{v}"' for k, v in metric.labels)
            if metric.kind == "histogram":
                cumulative = 0
                for bound, bucket_count in zip(metric.buckets, metric.counts):
                    cumulative += bucket_count
                    le = ('%s,le="%g"' % (label_str, bound)).lstrip(",")
                    lines.append(f"{metric.name}_bucket{{{le}}} {cumulative}")
                le = ('%s,le="+Inf"' % label_str).lstrip(",")
                lines.append(f"{metric.name}_bucket{{{le}}} {metric.count}")
                suffix = f"{{{label_str}}}" if label_str else ""
                lines.append(f"{metric.name}_sum{suffix} {metric.sum}")
                lines.append(f"{metric.name}_count{suffix} {metric.count}")
            else:
                suffix = f"{{{label_str}}}" if label_str else ""
                lines.append(f"{metric.name}{suffix} {metric.value}")
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# The instrumentation hub
# --------------------------------------------------------------------------- #
class Instrumentation:
    """Collects spans and metrics from the serving event loop.

    Construct one and pass it as the ``observe`` argument of
    :class:`~repro.serving.fleet.ServingSimulator` /
    :func:`~repro.serving.fleet.run_serving` (or their multi-tenant
    counterparts).  ``trace`` / ``metrics`` switch the two halves
    independently -- the CLI arms whichever of ``--trace-out`` /
    ``--metrics-out`` was given.  ``metrics_interval_s`` pins the gauge
    scrape interval in simulated seconds; ``None`` lets the event loop
    derive it from the probe-batch service time
    (:data:`METRICS_PROBE_MULTIPLE`).

    Every hook takes the event-loop clock ``now`` first.  Hooks never
    mutate simulator state and never consume randomness, which is what
    keeps a traced run bit-for-bit identical to an untraced one.
    """

    def __init__(self, trace: bool = True, metrics: bool = True,
                 metrics_interval_s: Optional[float] = None):
        if metrics_interval_s is not None and metrics_interval_s <= 0:
            raise ValueError("metrics_interval_s must be positive")
        self.trace_enabled = bool(trace)
        self.metrics_enabled = bool(metrics)
        self.metrics_interval_s = metrics_interval_s
        self.events: List[Dict] = []
        self.registry = MetricsRegistry()
        self.samples: List[Dict] = []
        self._named_threads: set = set()
        if self.trace_enabled:
            for pid, name in ((PID_CONTROL, "control"),
                              (PID_FLEET, "fleet"),
                              (PID_REQUESTS, "requests")):
                self.events.append({"ph": "M", "name": "process_name",
                                    "pid": pid, "tid": 0,
                                    "args": {"name": name}})

    # -- low-level emitters -------------------------------------------- #
    def _span(self, name: str, cat: str, start_s: float, end_s: float,
              pid: int, tid: int, args: Optional[Dict] = None) -> None:
        self.events.append({
            "ph": "X", "name": name, "cat": cat,
            "ts": start_s * _US, "dur": max(0.0, end_s - start_s) * _US,
            "pid": pid, "tid": tid, "args": args or {},
        })

    def _instant(self, name: str, now: float,
                 args: Optional[Dict] = None) -> None:
        self.events.append({
            "ph": "i", "name": name, "cat": "control", "s": "g",
            "ts": now * _US, "pid": PID_CONTROL, "tid": 0,
            "args": args or {},
        })

    def _name_thread(self, pid: int, tid: int, name: str) -> None:
        if (pid, tid) in self._named_threads:
            return
        self._named_threads.add((pid, tid))
        self.events.append({"ph": "M", "name": "thread_name",
                            "pid": pid, "tid": tid, "args": {"name": name}})

    # -- lifecycle hooks (called by the event loop) -------------------- #
    def on_batch_formed(self, now: float, batch) -> None:
        """A formed batch was submitted to the dispatch stage."""
        self.registry.counter(
            "repro_batches_formed_total",
            "Batches emitted by the batch-formation policies").inc()
        if self.trace_enabled:
            self._instant("batch formed", now, {
                "batch_id": batch.batch_id, "size": batch.size,
                "tenant": batch.tenant})

    def on_late_join(self, now: float, batch, request) -> None:
        """Continuous batching admitted a late join into an open batch."""
        self.registry.counter(
            "repro_late_joins_total",
            "Requests late-joined into formed-but-unstarted batches").inc()
        if self.trace_enabled:
            self._instant("late join", now, {
                "batch_id": batch.batch_id,
                "request_id": request.request_id,
                "batch_age_s": now - batch.created_time_s})

    def on_admission(self, now: float, tenant: str, decision) -> None:
        """The control plane gated an arrival; records sheds and degrades
        (plain admissions leave no trace)."""
        if not decision.admitted:
            self.registry.counter(
                "repro_admission_shed_total",
                "Arrivals rejected by the admission gate",
                labels={"tenant": tenant} if tenant else None).inc()
            if self.trace_enabled:
                self._instant("shed", now, {"tenant": tenant,
                                            "reason": decision.reason})
        elif decision.level > 0:
            self.registry.counter(
                "repro_admission_degraded_total",
                "Arrivals admitted at reduced sampling fidelity",
                labels={"tenant": tenant} if tenant else None).inc()
            if self.trace_enabled:
                self._instant("degrade", now, {"tenant": tenant,
                                               "level": decision.level})

    def on_scale_event(self, now: float, action: str, chip_id: int,
                       active: int, warming: int, draining: int) -> None:
        """The fleet scaler recorded a lifecycle action (add/ready/...)."""
        self.registry.counter(
            "repro_scale_events_total",
            "Chip lifecycle actions recorded by the control plane",
            labels={"action": action}).inc()
        if self.trace_enabled:
            self._instant(f"scale: {action}", now, {
                "chip_id": chip_id, "active": active,
                "warming": warming, "draining": draining})
            self.events.append({
                "ph": "C", "name": "fleet size", "ts": now * _US,
                "pid": PID_CONTROL, "tid": 0,
                "args": {"active": active, "warming": warming,
                         "draining": draining}})

    def on_cache_hit(self, now: float, request, done_s: float,
                     tenant: str = "") -> None:
        """An arrival was answered straight from the result cache."""
        tenant_labels = {"tenant": tenant} if tenant else None
        self.registry.counter(
            "repro_cache_hits_total",
            "Requests answered by the result cache",
            labels=tenant_labels).inc()
        self.registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency",
            labels=tenant_labels).observe(done_s - request.arrival_time_s)
        if self.trace_enabled:
            self._span("cache", "request", request.arrival_time_s, done_s,
                       PID_REQUESTS, request.request_id,
                       {"tenant": tenant} if tenant else None)

    def on_batch_complete(self, now: float, chip, batch,
                          dispatched_s: float, started_s: float) -> None:
        """A chip finished serving ``batch``; emit its span tree.

        Called from the loop's completion handler with the same
        ``dispatched`` / ``started`` timestamps the
        :class:`~repro.serving.stats.RequestRecord` is built from, so the
        per-request phase spans (batching -> queue -> service) sum to the
        recorded latency exactly.  A batch served by a chip group also
        gets one halo-exchange and one sub-batch span per shard, read from
        ``batch.shard_timings``.
        """
        registry = self.registry
        tenant = batch.tenant
        timings = batch.shard_timings or ()
        tenant_labels = {"tenant": tenant} if tenant else None
        registry.counter("repro_requests_completed_total",
                         "Requests served to completion",
                         labels=tenant_labels).inc(batch.size)
        registry.counter("repro_batches_completed_total",
                         "Batches that finished service on a chip").inc()
        registry.histogram("repro_batch_service_seconds",
                           "Per-batch fused service time").observe(
                               now - started_s)
        latency_hist = registry.histogram(
            "repro_request_latency_seconds", "End-to-end request latency",
            labels=tenant_labels)
        for request in batch.requests:
            latency_hist.observe(now - request.arrival_time_s)
        if timings:
            registry.counter(
                "repro_shard_sub_batches_total",
                "Per-shard sub-batches executed").inc(len(timings))
            registry.counter(
                "repro_halo_misses_total",
                "Ghost-feature lookups that missed the halo cache").inc(
                    sum(t.halo_misses for t in timings))
            registry.counter(
                "repro_halo_hits_total",
                "Ghost-feature lookups served from a halo cache").inc(
                    sum(t.halo_hits for t in timings))
        if not self.trace_enabled:
            return
        chip_id = getattr(chip, "chip_id", chip)
        shape = getattr(chip, "shape", "")
        self._name_thread(PID_FLEET, chip_id,
                          f"chip {chip_id}" + (f" ({shape})" if shape else ""))
        args = {
            "batch_id": batch.batch_id, "size": batch.size,
            "tenant": tenant,
            "late_joins": batch.late_joins,
            "overlap_ratio": batch.overlap_ratio,
            "fused_vertices": batch.fused_vertices,
            "naive_vertices": batch.naive_vertices,
        }
        if batch.phase_cycles:
            args.update({f"{k}_cycles": v
                         for k, v in batch.phase_cycles.items()})
        self._span(f"batch {batch.batch_id} [n={batch.size}]", "batch",
                   started_s, now, PID_FLEET, chip_id, args)
        for request in batch.requests:
            # identical clamping to the RequestRecord: a late joiner's
            # batching wait ends at its own arrival
            dispatch_s = max(dispatched_s, request.arrival_time_s)
            common = {"batch_id": batch.batch_id, "chip_id": chip_id}
            if tenant:
                common["tenant"] = tenant
            tid = request.request_id
            self._span("batching", "request", request.arrival_time_s,
                       dispatch_s, PID_REQUESTS, tid, dict(common))
            self._span("queue", "request", dispatch_s, started_s,
                       PID_REQUESTS, tid, dict(common))
            self._span("service", "request", started_s, now,
                       PID_REQUESTS, tid, dict(common))
        for t in timings:
            self._name_thread(PID_FLEET, t.chip_id, f"chip {t.chip_id}")
            args = {
                "batch_id": batch.batch_id, "shard": t.shard,
                "requests": t.requests,
                "fused_vertices": t.fused_vertices,
                "ghost_vertices": t.ghost_vertices,
                "halo_hits": t.halo_hits, "halo_misses": t.halo_misses,
            }
            boundary_s = started_s + t.exchange_s
            if t.exchange_s > 0.0:
                self._span(f"halo exchange s{t.shard}", "shard",
                           started_s, boundary_s, PID_FLEET, t.chip_id,
                           dict(args))
            self._span(f"sub-batch s{t.shard}", "shard", boundary_s,
                       boundary_s + t.compute_s, PID_FLEET, t.chip_id,
                       dict(args))

    def on_update(self, now: float, event, invalidated: int) -> None:
        """A streaming graph update was applied by the event loop.

        ``invalidated`` is the number of cache entries the update dropped
        across every cache layer.  Purely an observer — it must never
        mutate simulation state, so a traced mutating run stays
        bit-for-bit identical to an untraced one.
        """
        tenant = getattr(event, "tenant", "")
        tenant_labels = {"tenant": tenant} if tenant else None
        self.registry.counter(
            "repro_graph_updates_total",
            "Streaming graph updates applied",
            labels=tenant_labels).inc()
        self.registry.counter(
            "repro_cache_invalidations_total",
            "Cache entries dropped by streaming updates",
            labels=tenant_labels).inc(invalidated)
        if self.trace_enabled:
            self._instant(f"update {event.kind}", now, {
                "update_id": event.update_id, "kind": event.kind,
                "src": event.src, "dst": event.dst,
                "invalidated": invalidated,
            })

    # -- metrics scraping ---------------------------------------------- #
    def scrape(self, now: float, gauges: Dict[str, float]) -> None:
        """Record one time-series sample from the loop's gauge snapshot.

        ``gauges`` maps metric names (optionally ``name{label="v"}``-free;
        per-shape gauges pass a ``(name, labels)`` tuple key) to values;
        the row captures those plus every counter/histogram's running
        state.
        """
        for key, value in gauges.items():
            if isinstance(key, tuple):
                name, labels = key
                self.registry.gauge(name, labels=dict(labels)).set(value)
            else:
                self.registry.gauge(key).set(value)
        self.samples.append(self.registry.scrape_row(now))

    # -- export --------------------------------------------------------- #
    def trace_payload(self) -> Dict:
        """The Chrome trace-event JSON object for the collected spans."""
        return {"traceEvents": self.events, "displayTimeUnit": "ns"}

    def write_trace(self, path: str) -> None:
        """Write the collected spans as a Chrome trace-event JSON file."""
        with open(path, "w") as fh:
            json.dump(self.trace_payload(), fh)
        logger.info("wrote trace with %d events to %s",
                    len(self.events), path)

    def write_metrics(self, path: str) -> str:
        """Write the JSONL time series to ``path`` plus a Prometheus text
        exposition sibling (same stem, ``.prom``); returns the sibling
        path."""
        with open(path, "w") as fh:
            for row in self.samples:
                fh.write(json.dumps(row) + "\n")
        prom_path = os.path.splitext(path)[0] + ".prom"
        with open(prom_path, "w") as fh:
            fh.write(self.registry.to_prometheus())
        logger.info("wrote %d metric samples to %s (exposition: %s)",
                    len(self.samples), path, prom_path)
        return prom_path


# --------------------------------------------------------------------------- #
# Trace analysis (the `repro trace-report` subcommand)
# --------------------------------------------------------------------------- #
def load_trace(path: str) -> List[Dict]:
    """Read a Chrome trace-event file; accepts both JSON container forms
    (the ``{"traceEvents": [...]}`` object this module writes, or a bare
    event array)."""
    with open(path, "rb") as check:
        if check.read(2) == b"\x1f\x8b":
            raise ValueError(
                f"{path}: gzip-framed binary file -- this looks like a "
                f"request trace (serve --trace-capture); use `repro "
                f"trace-stats` or `serve --replay`, span traces come from "
                f"`serve --trace-out`")
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError(f"{path}: no traceEvents array")
        return events
    if isinstance(payload, list):
        return payload
    raise ValueError(f"{path}: not a Chrome trace-event file")


def validate_trace(events: Sequence[Dict]) -> List[str]:
    """Schema-check ``events`` against the Chrome trace-event format.

    Returns a list of human-readable problems (empty when the trace is
    valid): every event needs a known ``ph``; complete events ("X") need
    ``name``/``ts``/``dur``/``pid``/``tid`` with numeric non-negative
    times; instants need ``name``/``ts``; counters need numeric ``args``.
    """
    problems = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph != "M" and not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {i} ({ph}): missing numeric ts")
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i} ({ph}): missing name")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} (X): missing or negative dur")
            for fld in ("pid", "tid"):
                if not isinstance(event.get(fld), int):
                    problems.append(f"event {i} (X): missing integer {fld}")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) for v in args.values()):
                problems.append(f"event {i} (C): args must be numeric")
    return problems


def trace_report(events: Sequence[Dict], top_k: int = 5) -> Dict:
    """Critical-path breakdown of a serving trace.

    Groups the per-request phase spans (cat ``request``) by request id and
    returns per-phase p50/p99/total time plus the ``top_k`` slowest
    requests with their span trees: ``{"requests", "phases", "slowest"}``.
    Time values are seconds of simulated time (converted back from the
    trace's microseconds).
    """
    by_request: Dict[int, List[Dict]] = {}
    for event in events:
        if event.get("ph") == "X" and event.get("cat") == "request":
            by_request.setdefault(event["tid"], []).append(event)
    phase_durs: Dict[str, List[float]] = {}
    totals: List[Tuple[float, int]] = []
    for tid, spans in by_request.items():
        total = 0.0
        for span in spans:
            dur_s = span["dur"] / _US
            phase_durs.setdefault(span["name"], []).append(dur_s)
            total += dur_s
        totals.append((total, tid))
    phases = {}
    order = {name: i for i, name in enumerate(_PHASE_ORDER)}
    for name in sorted(phase_durs, key=lambda n: order.get(n, len(order))):
        durs = phase_durs[name]
        phases[name] = {
            "count": len(durs),
            "p50_s": percentile(durs, 50.0),
            "p99_s": percentile(durs, 99.0),
            "total_s": sum(durs),
        }
    totals.sort(key=lambda t: (-t[0], t[1]))
    slowest = []
    for total, tid in totals[:max(0, top_k)]:
        spans = sorted(by_request[tid],
                       key=lambda s: (s["ts"], order.get(s["name"], 99)))
        slowest.append({
            "request_id": tid,
            "latency_s": total,
            "spans": [{"name": s["name"], "start_s": s["ts"] / _US,
                       "dur_s": s["dur"] / _US, "args": s.get("args", {})}
                      for s in spans],
        })
    return {"requests": len(by_request), "phases": phases,
            "slowest": slowest}


def format_trace_report(report: Dict) -> str:
    """Render :func:`trace_report` output as the CLI's text summary."""
    lines = [f"trace report: {report['requests']} requests"]
    if report["phases"]:
        lines.append("")
        lines.append(f"{'phase':<10} {'count':>7} {'p50_us':>10} "
                     f"{'p99_us':>10} {'total_ms':>10}")
        for name, row in report["phases"].items():
            lines.append(f"{name:<10} {row['count']:>7} "
                         f"{row['p50_s'] * 1e6:>10.2f} "
                         f"{row['p99_s'] * 1e6:>10.2f} "
                         f"{row['total_s'] * 1e3:>10.3f}")
    if report["slowest"]:
        lines.append("")
        lines.append(f"top {len(report['slowest'])} slowest requests:")
        for entry in report["slowest"]:
            extra = ""
            for span in entry["spans"]:
                args = span["args"]
                if "batch_id" in args:
                    extra = (f" (batch {args['batch_id']}, "
                             f"chip {args.get('chip_id', '?')})")
                    break
            lines.append(f"  req {entry['request_id']}: "
                         f"{entry['latency_s'] * 1e6:.2f} us{extra}")
            for span in entry["spans"]:
                start, dur = span["start_s"] * 1e6, span["dur_s"] * 1e6
                lines.append(f"    {span['name']:<10} "
                             f"[{start:.2f} .. {start + dur:.2f}] "
                             f"{dur:.2f} us")
    return "\n".join(lines)
