"""Tests of the benchmark itself: timers, the fingerprint gate, smoke runs."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, run
from perfbench.tracer import LAYERS, Tracer
from repro.serving import FleetConfig, run_multi_tenant, run_serving

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
SMOKE = 0.02


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


class _Clock:
    """Advances one tick per reading, so every span has a known length."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_exclusive_timers_sum_to_enclosing_wall():
    clock = _Clock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock())
    middle = tracer.wrap("middle", lambda: [leaf(), clock(), leaf()])
    outer = tracer.wrap("outer", lambda: [clock(), middle(), leaf()])
    outer()
    # the outer span runs from the first clock reading to the last
    wall = clock.now - 1.0
    assert sum(tracer.self_s.values()) == wall == 14.0
    assert [tracer.calls[n] for n in ("leaf", "middle", "outer")] == [3, 1, 1]
    assert [tracer.self_s[n] for n in ("leaf", "middle", "outer")] \
        == [6.0, 4.0, 4.0]


def test_tracer_restores_every_entry_point():
    import importlib
    before = {}
    for points in LAYERS.values():
        for module, attribute in points:
            owner = importlib.import_module(module)
            for part in attribute.split("."):
                owner = getattr(owner, part)
            before[(module, attribute)] = owner
    with Tracer():
        pass
    for (module, attribute), original in before.items():
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert owner is original, f"{module}.{attribute} left wrapped"


def test_failed_install_restores_what_it_wrapped(monkeypatch):
    from perfbench import tracer
    from repro.serving.cache import LRUCache
    original = LRUCache.get
    monkeypatch.setitem(tracer.LAYERS, "gone", (
        ("repro.serving.cache", "LRUCache.get"),
        ("repro.serving.cache", "renamed_away")))
    with pytest.raises(AttributeError):
        Tracer().install()
    assert LRUCache.get is original


def test_changed_report_is_a_fingerprint_mismatch(capsys, tmp_path,
                                                  monkeypatch):
    job = harness.WORKLOADS["ib-overlap"].setup(0, SMOKE)
    report = job.simulator.run(job.requests, job.rate)
    served = harness.fingerprint(harness.export(report))
    record = report.records[0]
    report.records[0] = replace(
        record, completion_time_s=record.completion_time_s + 1e-12)
    assert harness.fingerprint(harness.export(report)) != served

    pins = tmp_path / "pinned.json"
    pins.write_text(json.dumps({"ib-overlap": {
        run.pin_key(seed, SMOKE): served
        for seed in range(run.STREAMS)}}))
    monkeypatch.setattr(run, "PINNED", pins)
    result = _result(capsys, "--workload", "ib-overlap", "--seconds", "0",
                     "--scale", str(SMOKE))
    # stream 0 matches its pin; streams 1-3 serve other traffic
    assert not result["correct"]
    assert result["failed"] == result["attempted"] * 3 // 4


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_run_is_correct_and_complete(capsys, workload):
    result = _result(capsys, "--workload", workload, "--seconds", "0",
                     "--scale", str(SMOKE))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.STREAMS \
        * harness.WORKLOADS[workload].offered(SMOKE)
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][name]["value"] > 0 for name in names)


def test_smoke_traced_run_reports_every_layer(capsys):
    result = _result(capsys, "--workload", "mt-stream", "--seconds", "0",
                     "--scale", str(SMOKE), "--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert 0.5 < metrics["attributed_frac"]["value"] <= 1.0
    assert metrics["streaming.self_frac"]["value"] > 0


def test_workloads_match_the_public_entry_points():
    """At seed 0 each workload is what run_serving / run_multi_tenant build."""
    cr = harness.run_once(harness.WORKLOADS["cr-miss"], 0, SMOKE)
    harness.cold_start()
    expected = run_serving(
        "CR", num_requests=cr.offered, popularity_skew=0.8,
        config=FleetConfig(num_chips=4, batch_policy="timeout", cache_size=0))
    assert harness.fingerprint(harness.export(expected)) == cr.fingerprint

    mt = harness.run_once(harness.WORKLOADS["mt-stream"], 0, SMOKE)
    harness.cold_start()
    tenants = [replace(t, num_requests=harness._scaled(t.num_requests, SMOKE))
               for t in harness._MT_TENANTS]
    expected = run_multi_tenant(
        tenants, FleetConfig(num_chips=4), include_isolation_baseline=False,
        update_rate=0.05, invalidation="targeted")
    assert harness.fingerprint(harness.export(expected)) == mt.fingerprint
