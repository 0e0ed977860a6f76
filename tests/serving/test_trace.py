"""Request-trace codec, capture hooks and bit-for-bit replay.

Three layers of guarantees:

1. **Codec properties** (hypothesis): save/load round-trips any request
   stream -- every arrival process, multi-tenant tags, degradation
   stamps, the empty trace -- and the loader rejects every corruption
   mode (truncation, payload bit-flips, bad magic, version drift,
   unsorted or out-of-range columns) with :class:`TraceFormatError`.
2. **Capture semantics**: the run functions record exactly the offered
   stream, in the order the event loop serves it (ties included),
   capturing never perturbs the report, and re-capturing a replay writes
   a byte-identical trace file.
3. **Replay contract** (the PR's acceptance criterion): a run captured
   with ``--trace-capture`` and replayed with ``--replay`` produces a
   bit-for-bit identical report, single- and multi-tenant, through the
   library API and the CLI alike.
"""

import gzip
import json
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.serving import (
    ARRIVAL_PROCESSES,
    FleetConfig,
    Request,
    RequestGenerator,
    RequestTrace,
    TenantConfig,
    TraceFormatError,
    TraceWriter,
    WorkloadConfig,
    clear_probe_cache,
    load_request_trace,
    run_multi_tenant,
    run_serving,
    save_request_trace,
    trace_stats,
)
from repro.serving.fleet import TenantRuntime
from repro.serving.streaming import StreamState, UpdateEvent
from repro.serving.trace import TRACE_MAGIC, TRACE_VERSION


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def request_streams(draw):
    """Arbitrary valid request streams: sorted arrivals, optional tenant
    tags, optional degradation stamps."""
    n = draw(st.integers(min_value=0, max_value=32))
    multi = draw(st.booleans())
    tenant_pool = ("alpha", "beta", "gamma") if multi else ("",)
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e-3, allow_nan=False,
                  allow_infinity=False),
        min_size=n, max_size=n))
    times = np.concatenate([[0.0], np.cumsum(gaps)])[:n]
    requests = []
    for i in range(n):
        degraded = draw(st.booleans())
        requests.append(Request(
            request_id=i,
            target_vertex=draw(st.integers(min_value=0, max_value=100_000)),
            arrival_time_s=float(times[i]),
            tenant=draw(st.sampled_from(tenant_pool)),
            degrade_level=draw(st.integers(min_value=1, max_value=3))
            if degraded else 0,
            degrade_hops=draw(st.integers(min_value=0, max_value=4))
            if degraded else None,
            degrade_fanout=draw(st.integers(min_value=1, max_value=64))
            if degraded else None,
        ))
    return requests


# --------------------------------------------------------------------------- #
# Codec round-trip properties
# --------------------------------------------------------------------------- #
class TestCodecRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(requests=request_streams())
    def test_round_trip_identity(self, requests, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("trace") / "t.bin")
        meta = {"kind": "test", "rate_rps": 123.5, "nested": {"a": [1, 2]}}
        save_request_trace(path, RequestTrace.from_requests(requests, meta))
        loaded = load_request_trace(path)
        assert loaded.to_requests() == list(requests)
        assert loaded.meta == meta
        assert loaded.num_requests == len(requests)

    @pytest.mark.parametrize("arrival", [a for a in ARRIVAL_PROCESSES
                                         if a != "trace"])
    def test_round_trips_every_arrival_process(self, arrival, tmp_path):
        cfg = WorkloadConfig(num_requests=100, rate_rps=5e3, arrival=arrival,
                             popularity_skew=1.1, seed=9)
        requests = RequestGenerator(2_000, cfg).generate()
        path = str(tmp_path / "t.bin")
        save_request_trace(path, RequestTrace.from_requests(requests))
        assert load_request_trace(path).to_requests() == requests

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        save_request_trace(path, RequestTrace.from_requests([]))
        loaded = load_request_trace(path)
        assert loaded.num_requests == 0
        assert loaded.to_requests() == []
        assert loaded.duration_s == 0.0
        assert loaded.mean_rate_rps == 0.0
        assert not loaded.multi_tenant

    def test_save_is_deterministic(self, tmp_path):
        requests = RequestGenerator(
            500, WorkloadConfig(num_requests=50, rate_rps=1e3)).generate()
        trace = RequestTrace.from_requests(requests, {"seed": 1})
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_request_trace(a, trace)
        save_request_trace(b, trace)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_tenant_properties(self, tmp_path):
        requests = [
            Request(0, 1, 0.0, tenant="beta"),
            Request(1, 2, 1e-4, tenant="alpha"),
        ]
        path = str(tmp_path / "mt.bin")
        save_request_trace(path, RequestTrace.from_requests(requests))
        loaded = load_request_trace(path)
        assert loaded.multi_tenant
        assert loaded.tenant_names == ("alpha", "beta")


# --------------------------------------------------------------------------- #
# Malformed files
# --------------------------------------------------------------------------- #
def _valid_trace_bytes(tmp_path, n=20):
    requests = RequestGenerator(
        300, WorkloadConfig(num_requests=n, rate_rps=1e3)).generate()
    path = str(tmp_path / "valid.bin")
    save_request_trace(path, RequestTrace.from_requests(requests))
    with open(path, "rb") as handle:
        return path, handle.read()


class TestMalformedFiles:
    def test_truncation_detected(self, tmp_path):
        path, raw = _valid_trace_bytes(tmp_path)
        for cut in (10, len(raw) // 2, len(raw) - 3):
            clipped = str(tmp_path / f"cut{cut}.bin")
            with open(clipped, "wb") as handle:
                handle.write(raw[:cut])
            with pytest.raises(TraceFormatError):
                load_request_trace(clipped)

    def test_payload_corruption_detected_by_crc(self, tmp_path):
        path, raw = _valid_trace_bytes(tmp_path)
        frame = bytearray(gzip.decompress(raw))
        # flip one payload byte past the header, then re-frame cleanly:
        # gzip's own CRC passes, the header CRC must catch it
        frame[-5] ^= 0xFF
        evil = str(tmp_path / "corrupt.bin")
        with open(evil, "wb") as handle:
            handle.write(gzip.compress(bytes(frame)))
        with pytest.raises(TraceFormatError, match="CRC"):
            load_request_trace(evil)

    def test_version_mismatch_rejected(self, tmp_path):
        path, raw = _valid_trace_bytes(tmp_path)
        frame = bytearray(gzip.decompress(raw))
        offset = len(TRACE_MAGIC)
        frame[offset:offset + 2] = np.uint16(TRACE_VERSION + 1).tobytes()
        evil = str(tmp_path / "future.bin")
        with open(evil, "wb") as handle:
            handle.write(gzip.compress(bytes(frame)))
        with pytest.raises(TraceFormatError, match="version"):
            load_request_trace(evil)

    def test_bad_magic_rejected(self, tmp_path):
        evil = str(tmp_path / "magic.bin")
        with open(evil, "wb") as handle:
            handle.write(gzip.compress(b"NOTATRCE" + b"\x00" * 32))
        with pytest.raises(TraceFormatError, match="magic"):
            load_request_trace(evil)

    def test_json_span_trace_gets_pointed_hint(self, tmp_path):
        evil = str(tmp_path / "spans.json")
        with open(evil, "w") as handle:
            json.dump({"traceEvents": []}, handle)
        with pytest.raises(TraceFormatError, match="trace-report"):
            load_request_trace(evil)

    def test_random_bytes_rejected(self, tmp_path):
        evil = str(tmp_path / "noise.bin")
        with open(evil, "wb") as handle:
            handle.write(b"\x00\x01\x02\x03 definitely not a trace")
        with pytest.raises(TraceFormatError):
            load_request_trace(evil)

    def test_unsorted_arrivals_rejected(self, tmp_path):
        requests = [Request(0, 1, 2.0), Request(1, 2, 1.0)]
        trace = RequestTrace.from_requests(requests)
        path = str(tmp_path / "unsorted.bin")
        save_request_trace(path, trace)  # writer stores columns verbatim
        with pytest.raises(TraceFormatError, match="sorted"):
            load_request_trace(path)

    def test_out_of_range_tenant_index_rejected(self, tmp_path):
        trace = RequestTrace.from_requests([Request(0, 1, 0.0)])
        trace.columns["tenant"][0] = 7
        path = str(tmp_path / "tenantidx.bin")
        save_request_trace(path, trace)
        with pytest.raises(TraceFormatError, match="tenant"):
            load_request_trace(path)


# --------------------------------------------------------------------------- #
# Capture semantics + bit-for-bit replay (the acceptance criterion)
# --------------------------------------------------------------------------- #
def _report_json(report):
    return json.dumps(report.to_dict(), sort_keys=True, default=float)


class TestCaptureReplay:
    DATASET = "IB"
    CONFIG = dict(num_chips=2, cache_size=64)

    def test_capturing_never_changes_the_report(self):
        clear_probe_cache()
        plain = run_serving(dataset=self.DATASET, num_requests=64,
                            config=FleetConfig(**self.CONFIG), seed=3)
        clear_probe_cache()
        captured = run_serving(dataset=self.DATASET, num_requests=64,
                               config=FleetConfig(**self.CONFIG), seed=3,
                               capture=TraceWriter())
        assert _report_json(plain) == _report_json(captured)

    def test_capture_records_the_offered_stream(self):
        capture = TraceWriter()
        clear_probe_cache()
        run_serving(dataset=self.DATASET, num_requests=48,
                    config=FleetConfig(**self.CONFIG), seed=3,
                    capture=capture)
        assert capture.num_recorded == 48
        times = [r.arrival_time_s for r in capture.requests]
        assert times == sorted(times)
        assert capture.meta["dataset"] == self.DATASET
        assert capture.meta["rate_rps"] > 0

    def test_single_tenant_replay_is_bit_for_bit(self, tmp_path):
        capture = TraceWriter()
        clear_probe_cache()
        original = run_serving(dataset=self.DATASET, num_requests=64,
                               config=FleetConfig(**self.CONFIG), seed=5,
                               capture=capture)
        path = str(tmp_path / "cap.bin")
        capture.write(path)
        clear_probe_cache()
        replayed = run_serving(dataset=self.DATASET, num_requests=1,
                               config=FleetConfig(**self.CONFIG), seed=5,
                               replay=load_request_trace(path))
        assert _report_json(original) == _report_json(replayed)

    def test_replay_recapture_writes_identical_trace(self, tmp_path):
        capture = TraceWriter()
        clear_probe_cache()
        run_serving(dataset=self.DATASET, num_requests=48,
                    config=FleetConfig(**self.CONFIG), seed=5,
                    capture=capture)
        first = str(tmp_path / "first.bin")
        capture.write(first)
        recapture = TraceWriter()
        clear_probe_cache()
        run_serving(dataset=self.DATASET, num_requests=48,
                    config=FleetConfig(**self.CONFIG), seed=5,
                    replay=load_request_trace(first), capture=recapture)
        second = str(tmp_path / "second.bin")
        recapture.write(second)
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_tied_arrivals_are_captured_in_the_order_they_are_served(
            self, tmp_path, monkeypatch):
        """Duplicate arrival times, and updates at a request's timestamp.

        The event loop pops by (arrival time, push order), requests pushed
        before updates.  The capture must be the offered stream in that
        order, the order the loop actually served it in, and re-capturing
        its replay must write the same bytes.
        """
        times = [0.0, 2e-6, 2e-6, 2e-6, 5e-6, 5e-6, 9e-6, 9e-6]
        requests = [Request(i, 10 + 7 * i, t) for i, t in enumerate(times)]
        updates = [UpdateEvent(0, "edge", 2e-6, src=1, dst=2),
                   UpdateEvent(1, "feature", 5e-6, src=40, feature_seed=3),
                   UpdateEvent(2, "edge", 5e-6, src=3, dst=4)]
        hand_built = str(tmp_path / "tied.bin")
        save_request_trace(hand_built, RequestTrace.from_requests(
            requests, meta={"rate_rps": 1e6}, updates=updates))

        served = []
        result_hit, apply = TenantRuntime.result_hit, StreamState.apply

        def logged_hit(rt, target, now):
            served.append(("request", target))
            return result_hit(rt, target, now)

        def logged_apply(state, now, event):
            served.append(("update", event.update_id))
            return apply(state, now, event)

        monkeypatch.setattr(TenantRuntime, "result_hit", logged_hit)
        monkeypatch.setattr(StreamState, "apply", logged_apply)

        def replay(path):
            capture = TraceWriter()
            clear_probe_cache()
            run_serving(dataset=self.DATASET, config=FleetConfig(**self.CONFIG),
                        seed=1, replay=load_request_trace(path),
                        capture=capture)
            return capture

        capture = replay(hand_built)
        assert capture.requests == requests
        assert capture.updates == updates
        # at a tied timestamp every request is served before any update
        by_time = sorted(
            [(r.arrival_time_s, 0, i, ("request", r.target_vertex))
             for i, r in enumerate(requests)]
            + [(e.arrival_time_s, 1, i, ("update", e.update_id))
               for i, e in enumerate(updates)])
        assert served == [item for *_, item in by_time]

        first, second = str(tmp_path / "first.bin"), str(tmp_path / "second.bin")
        capture.write(first)
        replay(first).write(second)
        assert open(first, "rb").read() == open(second, "rb").read()

    UPDATES = [UpdateEvent(0, "edge", 1e-6, src=1, dst=2),
               UpdateEvent(1, "feature", 3e-6, src=5, feature_seed=7)]

    def test_update_only_trace_replays_every_update(self, tmp_path):
        """A trace of two updates and no requests: the replay applies both,
        and re-capturing it writes the same bytes."""
        hand_built = str(tmp_path / "updates.bin")
        save_request_trace(hand_built, RequestTrace.from_requests(
            [], updates=self.UPDATES))

        def replay(path):
            capture = TraceWriter()
            clear_probe_cache()
            report = run_serving(dataset=self.DATASET,
                                 config=FleetConfig(**self.CONFIG),
                                 replay=load_request_trace(path),
                                 capture=capture)
            return report, capture

        report, capture = replay(hand_built)
        assert report.completed == 0
        assert report.consistency.updates_offered == 2
        assert report.consistency.updates_applied == 2
        assert capture.updates == self.UPDATES
        first, second = str(tmp_path / "first.bin"), str(tmp_path / "second.bin")
        capture.write(first)
        replay(first)[1].write(second)
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_update_tags_alone_make_a_trace_multi_tenant(self, tmp_path,
                                                         monkeypatch):
        tagged = RequestTrace.from_requests([], updates=[
            replace(self.UPDATES[0], tenant="a"),
            replace(self.UPDATES[1], tenant="b")])
        assert tagged.multi_tenant
        assert tagged.tenant_names == ("a", "b")
        with pytest.raises(ValueError, match="multi-tenant"):
            run_serving(dataset=self.DATASET, replay=tagged)

        applied = []
        apply = StreamState.apply

        def logged_apply(state, now, event):
            applied.append((state.tenant, event.tenant, event.update_id))
            return apply(state, now, event)

        monkeypatch.setattr(StreamState, "apply", logged_apply)
        report = run_multi_tenant(
            [TenantConfig(name="a", dataset="IB", num_requests=0),
             TenantConfig(name="b", dataset="IB", num_requests=0)],
            FleetConfig(num_chips=1), replay=tagged,
            include_isolation_baseline=False)
        assert applied == [("a", "a", 0), ("b", "b", 1)]
        assert report.consistency.updates_applied == 2

    def test_untagged_update_only_trace_stays_single_tenant(self, tmp_path,
                                                            capsys):
        path = str(tmp_path / "updates.bin")
        save_request_trace(path, RequestTrace.from_requests(
            [], updates=self.UPDATES))
        trace = load_request_trace(path)
        assert not trace.multi_tenant
        assert trace.tenant_names == ()
        assert main(["trace-stats", path]) == 0
        assert "0 requests" in capsys.readouterr().out

    def test_replay_of_degraded_run_reproduces_control_decisions(
            self, tmp_path):
        from repro.serving import ControlConfig
        control = ControlConfig(admission=True, degrade=True,
                                admission_rate_rps=200.0)
        capture = TraceWriter()
        clear_probe_cache()
        original = run_serving(dataset=self.DATASET, num_requests=96,
                               config=FleetConfig(**self.CONFIG), seed=2,
                               control=control, capture=capture)
        path = str(tmp_path / "deg.bin")
        capture.write(path)
        clear_probe_cache()
        replayed = run_serving(dataset=self.DATASET, num_requests=1,
                               config=FleetConfig(**self.CONFIG), seed=2,
                               control=control,
                               replay=load_request_trace(path))
        assert _report_json(original) == _report_json(replayed)

    def test_multi_tenant_replay_is_bit_for_bit(self, tmp_path):
        tenants = [
            TenantConfig(name="alpha", dataset="IB", num_requests=40),
            TenantConfig(name="beta", dataset="IB", model="GIN",
                         num_requests=24, arrival="bursty"),
        ]
        fleet = FleetConfig(num_chips=2, seed=4)
        capture = TraceWriter()
        clear_probe_cache()
        original = run_multi_tenant(tenants, fleet, capture=capture)
        path = str(tmp_path / "mt.bin")
        trace = capture.write(path)
        assert trace.tenant_names == ("alpha", "beta")
        clear_probe_cache()
        replayed = run_multi_tenant(tenants, fleet,
                                    replay=load_request_trace(path))
        assert _report_json(original) == _report_json(replayed)

    def test_replay_rejects_wrong_tenancy_mode(self, tmp_path):
        single = RequestTrace.from_requests(
            [Request(0, 1, 0.0)], meta={"rate_rps": 10.0})
        multi = RequestTrace.from_requests([Request(0, 1, 0.0, tenant="a")])
        with pytest.raises(ValueError, match="multi-tenant"):
            run_serving(dataset=self.DATASET, replay=multi)
        with pytest.raises(ValueError, match="single-tenant"):
            run_multi_tenant([TenantConfig(name="a", dataset="IB",
                                           num_requests=4)],
                             FleetConfig(num_chips=1), replay=single,
                             include_isolation_baseline=False)

    def test_replay_rejects_unknown_tenants_and_foreign_targets(self):
        foreign = RequestTrace.from_requests(
            [Request(0, 999_999, 0.0, tenant="alpha")])
        with pytest.raises(ValueError, match="not in the tenant spec"):
            run_multi_tenant([TenantConfig(name="beta", dataset="IB",
                                           num_requests=4)],
                             FleetConfig(num_chips=1), replay=foreign,
                             include_isolation_baseline=False)
        single_foreign = RequestTrace.from_requests(
            [Request(0, 999_999, 0.0)], meta={"rate_rps": 10.0})
        with pytest.raises(ValueError, match="outside this graph"):
            run_serving(dataset=self.DATASET, replay=single_foreign)


# --------------------------------------------------------------------------- #
# trace-stats analysis
# --------------------------------------------------------------------------- #
class TestTraceStats:
    def test_uniform_arrivals_score_unbursty(self):
        requests = [Request(i, i % 7, i * 1e-3) for i in range(200)]
        stats = trace_stats(RequestTrace.from_requests(requests),
                            include_overlap=False)
        assert stats["arrivals"]["cv2_interarrival"] == pytest.approx(0.0)
        assert stats["arrivals"]["index_of_dispersion"] < 0.5

    def test_burst_scores_overdispersed(self):
        # two tight bursts separated by a long silence
        times = [i * 1e-6 for i in range(100)] \
            + [1.0 + i * 1e-6 for i in range(100)]
        requests = [Request(i, 0, t) for i, t in enumerate(times)]
        stats = trace_stats(RequestTrace.from_requests(requests),
                            include_overlap=False)
        assert stats["arrivals"]["index_of_dispersion"] > 5.0

    def test_zipf_fit_recovers_exponent(self):
        # exact zipf-1 counts: target r appears 240/r times
        requests = []
        i = 0
        for rank in range(1, 9):
            for _ in range(240 // rank):
                requests.append(Request(i, rank, i * 1e-4))
                i += 1
        stats = trace_stats(RequestTrace.from_requests(requests),
                            include_overlap=False)
        assert stats["popularity"]["zipf_exponent"] == pytest.approx(
            1.0, abs=0.05)
        assert stats["popularity"]["zipf_r2"] > 0.99

    def test_overlap_histogram_counts_scored_pairs(self):
        requests = RequestGenerator(
            2_000, WorkloadConfig(num_requests=80, rate_rps=1e3,
                                  popularity_skew=1.2, seed=2)).generate()
        trace = RequestTrace.from_requests(
            requests, meta={"dataset": "IB", "num_hops": 2, "fanout": 8,
                            "seed": 0})
        stats = trace_stats(trace, max_targets=16, max_pairs=64)
        overlap = stats["overlap"]
        assert overlap is not None
        assert overlap["signature_targets"] == 16
        assert sum(c for _, _, c in overlap["histogram"]) == overlap["pairs"]
        # deterministic: same trace, same histogram
        again = trace_stats(trace, max_targets=16, max_pairs=64)
        assert again["overlap"] == overlap

    def test_empty_trace_stats(self):
        stats = trace_stats(RequestTrace.from_requests([]),
                            include_overlap=False)
        assert stats["num_requests"] == 0
        assert stats["popularity"]["unique_targets"] == 0

    def test_degraded_requests_counted(self):
        requests = [Request(0, 1, 0.0),
                    Request(1, 2, 1e-4, degrade_level=2, degrade_hops=1,
                            degrade_fanout=4)]
        stats = trace_stats(RequestTrace.from_requests(requests),
                            include_overlap=False)
        assert stats["degraded"]["requests"] == 1
        assert stats["degraded"]["rate"] == pytest.approx(0.5)


# --------------------------------------------------------------------------- #
# CLI flows
# --------------------------------------------------------------------------- #
SERVE_FAST = ["serve", "--dataset", "IB", "--requests", "48", "--chips", "2"]


class TestTraceCLI:
    def test_capture_then_replay_bit_for_bit(self, tmp_path, capsys):
        trace = str(tmp_path / "cap.bin")
        first, second = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        assert main(SERVE_FAST + ["--trace-capture", trace,
                                  "--json", first]) == 0
        assert "wrote request trace" in capsys.readouterr().out
        assert main(["serve", "--dataset", "IB", "--chips", "2",
                     "--replay", trace, "--json", second]) == 0
        with open(first) as a, open(second) as b:
            assert json.load(a) == json.load(b)

    def test_trace_stats_runs_on_capture(self, tmp_path, capsys):
        trace = str(tmp_path / "cap.bin")
        assert main(SERVE_FAST + ["--trace-capture", trace]) == 0
        capsys.readouterr()
        assert main(["trace-stats", trace]) == 0
        out = capsys.readouterr().out
        for needle in ("request trace: 48 requests", "burstiness",
                       "zipf exponent", "overlap potential"):
            assert needle in out

    def test_trace_stats_json_output(self, tmp_path, capsys):
        trace = str(tmp_path / "cap.bin")
        assert main(SERVE_FAST + ["--trace-capture", trace]) == 0
        capsys.readouterr()
        assert main(["trace-stats", trace, "--no-overlap",
                     "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_requests"] == 48
        assert payload["overlap"] is None

    def test_replay_conflicts_exit_2(self, tmp_path, capsys):
        trace = str(tmp_path / "cap.bin")
        assert main(SERVE_FAST + ["--trace-capture", trace]) == 0
        capsys.readouterr()
        assert main(["serve", "--replay", trace,
                     "--arrival", "trace"]) == 2
        assert "--arrival trace" in capsys.readouterr().err
        assert main(["serve", "--replay", trace,
                     "--trace-file", trace]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_replay_of_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x1f\x8b not actually gzip")
        assert main(["serve", "--replay", str(bad)]) == 2
        assert "error: cannot read request trace" in capsys.readouterr().err
        assert main(["trace-stats", str(bad)]) == 2
        assert "error: cannot read request trace" in capsys.readouterr().err

    def test_multi_tenant_cli_replay_bit_for_bit(self, tmp_path, capsys):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({"tenants": [
            {"name": "alpha", "dataset": "IB", "num_requests": 32},
            {"name": "beta", "dataset": "IB", "model": "GIN",
             "num_requests": 16},
        ]}))
        trace = str(tmp_path / "mt.bin")
        first, second = str(tmp_path / "1.json"), str(tmp_path / "2.json")
        base = ["serve", "--tenants", str(spec), "--chips", "2"]
        assert main(base + ["--trace-capture", trace, "--json", first]) == 0
        capsys.readouterr()
        assert main(base + ["--replay", trace, "--json", second]) == 0
        with open(first) as a, open(second) as b:
            assert json.load(a) == json.load(b)
        # replaying a multi-tenant capture without the spec is an error
        assert main(["serve", "--dataset", "IB", "--replay", trace]) == 2
        assert "--tenants" in capsys.readouterr().err
