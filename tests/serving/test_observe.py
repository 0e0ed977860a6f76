"""Tests for the observability layer: spans, metrics, trace-report.

The headline invariants, straight from the design contract of
:mod:`repro.serving.observe`:

* observation never perturbs the simulation -- a traced run reports
  bit-for-bit the same numbers as an untraced one with the same seed,
  including under the control plane and multi-tenant scheduling;
* span accounting is conservative -- a request's phase spans tile its
  end-to-end latency exactly;
* the exported trace validates against the Chrome trace-event shape the
  viewers expect.

Plus unit coverage of the metrics registry and the CLI surface
(``--trace-out`` / ``--metrics-out`` / ``trace-report``).
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.serving import (
    ControlConfig,
    Counter,
    FleetConfig,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    ShardingConfig,
    TenantConfig,
    TraceWriter,
    format_trace_report,
    load_trace,
    run_multi_tenant,
    run_serving,
    trace_report,
    validate_trace,
)

DATASET = "IB"
FAST = dict(dataset=DATASET, num_requests=96, seed=0)
FC = FleetConfig(num_chips=2, batch_policy="continuous", cache_size=512)


def _traced_pair(**kwargs):
    observe = Instrumentation()
    traced = run_serving(observe=observe, **kwargs)
    untraced = run_serving(**kwargs)
    return observe, traced, untraced


# --------------------------------------------------------------------------- #
# Observation never perturbs the simulation
# --------------------------------------------------------------------------- #
class TestNonPerturbation:
    def test_traced_equals_untraced(self):
        _, traced, untraced = _traced_pair(config=FC, **FAST)
        assert traced.to_dict() == untraced.to_dict()

    def test_traced_equals_untraced_with_control_plane(self):
        control = ControlConfig(autoscale="threshold", min_chips=1,
                                max_chips=4, admission=True, degrade=True)
        config = FleetConfig(num_chips=1, cache_size=0)
        kwargs = dict(dataset=DATASET, num_requests=128, arrival="ramp",
                      peak_factor=6.0, utilization_target=2.0,
                      config=config, control=control, seed=0)
        _, traced, untraced = _traced_pair(**kwargs)
        assert traced.to_dict() == untraced.to_dict()

    def test_traced_equals_untraced_multi_tenant(self):
        tenants = [
            TenantConfig(name="a", dataset=DATASET, num_requests=48,
                         weight=2.0, seed=0),
            TenantConfig(name="b", dataset=DATASET, num_requests=48,
                         weight=1.0, seed=1),
        ]
        fleet = FleetConfig(num_chips=2)
        observe = Instrumentation()
        traced = run_multi_tenant(tenants, fleet, observe=observe,
                                  include_isolation_baseline=False)
        untraced = run_multi_tenant(tenants, fleet,
                                    include_isolation_baseline=False)
        assert traced.to_dict() == untraced.to_dict()
        tids = [e["tid"] for e in observe.events
                if e.get("cat") == "request" and e.get("ph") == "X"]
        assert len(set(tids)) == 96  # globally unique request ids

    def test_metrics_scrapes_leave_report_unchanged(self):
        observe = Instrumentation(trace=False, metrics=True,
                                  metrics_interval_s=1e-6)
        traced = run_serving(observe=observe, config=FC, **FAST)
        untraced = run_serving(config=FC, **FAST)
        assert traced.to_dict() == untraced.to_dict()
        assert len(observe.samples) >= 2


# --------------------------------------------------------------------------- #
# Span accounting
# --------------------------------------------------------------------------- #
class TestSpans:
    @pytest.fixture(scope="class")
    def run(self):
        observe = Instrumentation()
        report = run_serving(observe=observe, config=FC, **FAST)
        return observe, report

    def test_trace_validates(self, run):
        observe, _ = run
        assert validate_trace(observe.events) == []

    def test_spans_tile_each_request_latency(self, run):
        observe, report = run
        spans = {}
        for event in observe.events:
            if event.get("cat") == "request" and event["ph"] == "X":
                spans.setdefault(event["tid"], []).append(event)
        for record in report.records:
            phases = spans[record.request_id]
            total = sum(e["dur"] for e in phases) / 1e6
            latency = record.completion_time_s - record.arrival_time_s
            assert total == pytest.approx(latency, abs=1e-12)
            # spans are contiguous: each starts where the previous ended
            phases = sorted(phases, key=lambda e: e["ts"])
            for prev, nxt in zip(phases, phases[1:]):
                assert prev["ts"] + prev["dur"] == pytest.approx(
                    nxt["ts"], abs=1e-6)

    def test_cache_hits_get_a_cache_span(self):
        observe = Instrumentation()
        report = run_serving(observe=observe, config=FC, dataset=DATASET,
                             num_requests=256, popularity_skew=1.2, seed=0)
        hits = {r.request_id for r in report.records if r.cache_hit}
        assert hits  # the skewed stream produces repeats
        cache_spans = {e["tid"] for e in observe.events
                       if e.get("cat") == "request" and e["ph"] == "X"
                       and e["name"] == "cache"}
        assert cache_spans == hits

    def test_batch_spans_carry_cycle_breakdown(self, run):
        observe, _ = run
        batch_spans = [e for e in observe.events
                       if e.get("cat") == "batch" and e["ph"] == "X"]
        assert batch_spans
        for event in batch_spans:
            args = event["args"]
            assert args["total_cycles"] > 0
            assert args["aggregation_cycles"] > 0
            assert args["combination_cycles"] > 0
            assert args["dram_busy_cycles"] >= 0

    def test_late_joins_emit_instants(self):
        observe = Instrumentation()
        report = run_serving(observe=observe, config=FC, **FAST)
        joins = [e for e in observe.events
                 if e["ph"] == "i" and e["name"].startswith("late join")]
        assert len(joins) == report.batching.late_joins

    def test_scale_and_shed_hooks_fire(self):
        # 1.5x one-chip capacity on a ramp: the threshold scaler must grow
        # the fleet and the token bucket must shed (cf. test_control.py)
        control = ControlConfig(autoscale="threshold", min_chips=1,
                                max_chips=6, admission=True)
        config = FleetConfig(num_chips=1, num_hops=1, fanout=4,
                             max_batch_size=16, cache_size=0,
                             reuse_discount=0.0)
        observe = Instrumentation()
        report = run_serving(observe=observe, dataset=DATASET,
                             num_requests=300, arrival="ramp",
                             peak_factor=6.0, utilization_target=1.5,
                             config=config, control=control, seed=0)
        instants = [e["name"] for e in observe.events if e["ph"] == "i"]
        scale = [n for n in instants if n.startswith("scale:")]
        shed = [n for n in instants if n == "shed"]
        assert len(scale) == len(report.control.timeline)
        assert len(shed) == report.control.admission[""].shed
        assert scale and shed

    def test_validate_trace_flags_broken_events(self):
        events = [{"ph": "X", "name": "ok", "ts": 0.0, "dur": -1.0,
                   "pid": 0, "tid": 0},
                  {"ph": "Z", "name": "bogus phase"},
                  {"name": "no phase at all"}]
        problems = validate_trace(events)
        assert len(problems) == 3


# --------------------------------------------------------------------------- #
# Raw observer output pins
# --------------------------------------------------------------------------- #
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _observed_outputs(tmp_path, run):
    """sha256 of the four raw outputs of one observed, captured run."""
    observe, capture = Instrumentation(), TraceWriter()
    run(observe, capture)
    path = tmp_path / "capture.bin"
    capture.write(str(path))
    digests = {
        "trace": _sha256(json.dumps(observe.trace_payload()).encode()),
        "scrape": _sha256(json.dumps(observe.samples).encode()),
        "prometheus": _sha256(observe.registry.to_prometheus().encode()),
        "capture": _sha256(path.read_bytes()),
    }
    return observe, digests


def _event_names(observe):
    return {e["name"] for e in observe.events}


class TestRawOutputPins:
    """Byte-level pins of what the hooks emit, in the order they emit it.

    ``trace_report`` aggregates spans per request, so it cannot see hook
    order, the control-track instants or the metric rows; these digests
    can.  Each run also asserts that the hooks it pins actually fired.
    """

    def test_loaded_elastic_streaming_run(self, tmp_path):
        def run(observe, capture):
            run_serving(
                dataset=DATASET, num_requests=1024, utilization_target=2.0,
                config=FleetConfig(num_chips=2, batch_policy="continuous",
                                   min_overlap=0.25),
                control=ControlConfig(autoscale="threshold", max_chips=4,
                                      admission=True, degrade=True),
                update_rate=0.05, seed=0, observe=observe, capture=capture)

        observe, digests = _observed_outputs(tmp_path, run)
        names = _event_names(observe)
        for name in ("batch formed", "late join", "shed", "degrade",
                     "cache", "fleet size"):
            assert name in names
        assert any(n.startswith("scale: ") for n in names)
        assert any(n.startswith("update ") for n in names)
        assert any(e.get("cat") == "batch" for e in observe.events)
        assert digests == {
            "trace": "f60ba566a222b8acf89f882e622ba193"
                     "82a538abd5b3ee788292314d8c968cba",
            "scrape": "2614c8416fcc29c46ba4d3a060bc0ad0"
                      "4df7332cb995fa7d894ae02c476c33f2",
            "prometheus": "92b2e5ca10a95501510c817bce5457f0"
                          "1cff014ac2a5b39ec077bb28dad6c293",
            "capture": "5b727b5669212bb71f6b83a99522e67e"
                       "0531a811d22ab60a40271bd042c997f0",
        }

    def test_sharded_multi_tenant_streaming_run(self, tmp_path):
        tenants = [TenantConfig(name="a", dataset=DATASET, num_requests=256,
                                seed=0),
                   TenantConfig(name="b", dataset=DATASET, num_requests=256,
                                seed=1)]

        def run(observe, capture):
            run_multi_tenant(
                tenants, FleetConfig(num_chips=2,
                                     sharding=ShardingConfig(num_shards=2)),
                update_rate=0.05, include_isolation_baseline=False,
                observe=observe, capture=capture)

        observe, digests = _observed_outputs(tmp_path, run)
        names = _event_names(observe)
        assert any(n.startswith("halo exchange s") for n in names)
        assert any(n.startswith("sub-batch s") for n in names)
        assert any(n.startswith("update ") for n in names)
        assert "repro_shard_sub_batches_total" in \
            observe.registry.to_prometheus()
        assert digests == {
            "trace": "3912a469877d53ec477f33bd4760c4c6"
                     "58b177aef6d784f28eb6cb6892126e6d",
            "scrape": "3e9df009ef2195a568e532cba44c5ed6"
                      "e5c7d20166db4cab56e69b6faf0cf502",
            "prometheus": "d920f2056f3688a4a45370d4c4c124e7"
                          "c73352640f98bc755becf5ddc1db67c7",
            "capture": "bd14a6cdd588d3bec1942ff2baa7a464"
                       "b87a035380fbe1330526df56f81460c1",
        }


# --------------------------------------------------------------------------- #
# Metrics registry units
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("repro_total").inc()
        reg.counter("repro_total").inc(2.0)
        reg.gauge("repro_depth").set(7.0)
        values = {m.name: m.value for m in reg.collect()}
        assert values["repro_total"] == 3.0
        assert values["repro_depth"] == 7.0
        with pytest.raises(ValueError):
            reg.counter("repro_total").inc(-1.0)

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_x", labels={"shape": "a"}).inc()
        reg.counter("repro_x", labels={"shape": "b"}).inc(4.0)
        series = {m.labels: m.value for m in reg.collect()}
        assert series[(("shape", "a"),)] == 1.0
        assert series[(("shape", "b"),)] == 4.0

    def test_histogram_buckets_and_prometheus_text(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)
        text = reg.to_prometheus()
        assert '# TYPE repro_lat_seconds histogram' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert 'repro_lat_seconds_count 3' in text

    def test_scrape_rows_snapshot_the_clock(self):
        reg = MetricsRegistry()
        reg.counter("repro_c").inc()
        row = reg.scrape_row(0.5)
        assert row["t_s"] == 0.5
        assert row["metrics"]["repro_c"] == 1.0


# --------------------------------------------------------------------------- #
# CLI and files
# --------------------------------------------------------------------------- #
SERVE_FAST = ["serve", "--dataset", "IB", "--model", "gcn",
              "--requests", "64", "--chips", "2"]


class TestObservabilityCLI:
    def test_trace_out_then_trace_report(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(SERVE_FAST + ["--trace-out", str(trace)]) == 0
        assert "wrote trace:" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert main(["trace-report", str(trace), "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace report: 64 requests" in out
        assert "p50_us" in out
        assert "top 2 slowest requests:" in out

    def test_metrics_out_writes_jsonl_and_prom(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main(SERVE_FAST + ["--metrics-out", str(metrics),
                                  "--metrics-interval-ms", "0.001"]) == 0
        assert "wrote metrics:" in capsys.readouterr().out
        rows = [json.loads(line) for line in
                metrics.read_text().splitlines()]
        assert len(rows) >= 2
        assert all("t_s" in row and "metrics" in row for row in rows)
        prom = (tmp_path / "m.prom").read_text()
        assert "# TYPE repro_requests_completed_total counter" in prom

    def test_metrics_interval_requires_metrics_out(self, capsys):
        code = main(SERVE_FAST + ["--metrics-interval-ms", "5"])
        assert code == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"ph": "Z"}]))
        assert main(["trace-report", str(bad)]) == 2
        assert "invalid trace event" in capsys.readouterr().err
        assert main(["trace-report", str(tmp_path / "missing.json")]) == 2

    def test_format_trace_report_round_trips_written_trace(self, tmp_path):
        observe = Instrumentation()
        run_serving(observe=observe, config=FC, **FAST)
        path = tmp_path / "t.json"
        observe.write_trace(str(path))
        events = load_trace(str(path))
        text = format_trace_report(trace_report(events))
        assert "trace report: 96 requests" in text


def test_traced_serving_example_runs(tmp_path, capsys):
    path = Path(__file__).resolve().parent.parent.parent \
        / "examples" / "traced_serving.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    module.main(num_requests=96, out_dir=str(tmp_path))
    out = capsys.readouterr().out
    assert "trace report: 96 requests" in out
    assert "traced run identical to untraced run: True" in out
    assert (tmp_path / "serve_trace.json").exists()
    assert (tmp_path / "serve_metrics.jsonl").exists()
    assert (tmp_path / "serve_metrics.prom").exists()
