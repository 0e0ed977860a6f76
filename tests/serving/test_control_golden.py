"""Golden fixtures for elastic runs (the control plane armed).

The other goldens serve fixed fleets, so nothing else pins an elastic
report: the scaling timeline, the control samples, the admission and
degradation counters, and every record of a run the control plane
shaped.  These scenarios cover each sizing policy and the admission /
degradation gate:

* ``threshold`` on a ramp: IB, 1,500 requests, 2 chips, up to 6;
* ``pid`` on a ramp: CR, 1,500 requests, 2 chips, least-loaded, up to 6;
* ``ewma`` on a ramp with no warm-up, so scale-ups serve at once: CR,
  1,500 requests, 2 chips, up to 6;
* ``ewma`` and ``threshold`` with admission and degradation on a loaded,
  continuously batched, streaming IB run (the ``threshold`` one is the CI
  "Traced serve" step's observed run);
* two tenants (IB and CR) on a ``mixed`` two-chip heterogeneous fleet
  with ``shape-aware`` dispatch, ``threshold`` and admission;
* the same two tenants on a fixed two-chip fleet whose admission rate is
  pinned, so each token bucket gets its weight share of that rate;
* degradation alone on a fixed, overloaded IB fleet: no autoscaler, and
  the requests no rung fits are served at the bottom rung, never shed.

Each scenario pins the sha256 of its full report JSON and, for a readable
diff, the report without its per-request records.  When a change
*intentionally* alters these numbers, regenerate with::

    PYTHONPATH=src python tests/serving/test_control_golden.py

and commit the diff alongside the change that explains it.
"""

import hashlib
import json
import os

import pytest

from repro.graphs import load_dataset
from repro.models.model_zoo import clear_workloads_cache
from repro.serving import FleetConfig, TenantConfig
from repro.serving.control import ControlConfig
from repro.serving.fleet import clear_probe_cache, run_serving
from repro.serving.hetero import fleet_spec_for_mix
from repro.serving.streaming import clear_update_stream_cache
from repro.serving.tenancy import run_multi_tenant

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "control_reports.json")


def _ramp(dataset, utilization, autoscale, seed, warmup_s=None, **fleet):
    return lambda: run_serving(
        dataset=dataset, num_requests=1500, arrival="ramp",
        utilization_target=utilization,
        config=FleetConfig(num_chips=2, **fleet),
        control=ControlConfig(autoscale=autoscale, max_chips=6,
                              warmup_s=warmup_s), seed=seed)


def _loaded_streaming(autoscale):
    """The CI "Traced serve" step's observed run, under ``autoscale``."""
    return lambda: run_serving(
        dataset="IB", num_requests=1024, utilization_target=2.0,
        config=FleetConfig(num_chips=2, batch_policy="continuous",
                           min_overlap=0.25),
        control=ControlConfig(autoscale=autoscale, max_chips=4,
                              admission=True, degrade=True),
        update_rate=0.05)


def _two_tenants(fleet, control):
    return lambda: run_multi_tenant(
        [TenantConfig(name="ib", dataset="IB", weight=2.0, num_requests=600),
         TenantConfig(name="cr", dataset="CR", num_requests=400)],
        fleet, utilization_target=1.6, control=control,
        include_isolation_baseline=False)


def _degrade_only():
    return run_serving(
        dataset="IB", num_requests=1024, utilization_target=8.0,
        config=FleetConfig(num_chips=2, cache_size=0),
        control=ControlConfig(degrade=True))


SCENARIOS = {
    "ib_threshold_ramp": _ramp("IB", 1.5, "threshold", 1),
    "cr_pid_ramp": _ramp("CR", 1.2, "pid", 2, dispatch="least-loaded"),
    "ib_ewma_streaming": _loaded_streaming("ewma"),
    "ib_threshold_streaming": _loaded_streaming("threshold"),
    "two_tenants_mixed": _two_tenants(
        FleetConfig(fleet_spec=fleet_spec_for_mix("mixed", 2),
                    dispatch="shape-aware"),
        ControlConfig(autoscale="threshold", max_chips=5, admission=True)),
    # the pinned rate is about 0.8x the two tenants' offered rate
    "two_tenants_pinned_rate": _two_tenants(
        FleetConfig(num_chips=2),
        ControlConfig(admission=True, admission_rate_rps=3.0e6)),
    "cr_ewma_no_warmup": _ramp("CR", 1.2, "ewma", 3, warmup_s=0.0),
    "ib_degrade_only": _degrade_only,
}

#: (scale-ups, scale-downs, shed, degraded) of each scenario
COUNTS = {
    "ib_threshold_ramp": (0, 1, 0, 0),
    "cr_pid_ramp": (3, 1, 0, 0),
    "ib_ewma_streaming": (2, 3, 189, 64),
    "ib_threshold_streaming": (2, 1, 311, 113),
    "two_tenants_mixed": (1, 1, 50, 0),
    "two_tenants_pinned_rate": (0, 0, 208, 0),
    "cr_ewma_no_warmup": (2, 3, 0, 0),
    "ib_degrade_only": (0, 0, 0, 303),
}


def _without_records(value):
    if isinstance(value, dict):
        return {key: _without_records(item) for key, item in value.items()
                if key != "records"}
    if isinstance(value, list):
        return [_without_records(item) for item in value]
    return value


def _report(name):
    for clear in (clear_probe_cache, clear_workloads_cache,
                  clear_update_stream_cache, load_dataset.cache_clear):
        clear()
    return SCENARIOS[name]()


def _pin(report):
    """``{"sha256", "summary"}`` of one scenario's report."""
    payload = report.to_dict(include_records=True)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True,
                                       default=float).encode()).hexdigest()
    return {"sha256": digest,
            "summary": json.loads(json.dumps(_without_records(payload),
                                             default=float))}


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reports():
    return {name: _report(name) for name in sorted(SCENARIOS)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_elastic_run_matches_golden_fixture(golden, reports, name):
    pin = _pin(reports[name])
    assert pin["summary"] == golden[name]["summary"]
    assert pin["sha256"] == golden[name]["sha256"], (
        "elastic report diverged from the committed fixture; if the change "
        "is intentional, regenerate via "
        "`PYTHONPATH=src python tests/serving/test_control_golden.py`")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_elastic_run_counts(reports, name):
    control = reports[name].control
    assert (control.scale_ups, control.scale_downs, control.total_shed,
            control.total_degraded) == COUNTS[name]


def test_a_draining_chip_retires_at_a_completion(reports):
    """The fixtures are only worth pinning while one of them retires a chip
    that drained while busy: scale-downs retire a warming or idle victim at
    once, so a draining chip retired later was retired by its last
    completion."""
    late = []
    for report in reports.values():
        drained_at = {}
        for event in report.control.timeline:
            if event.action == "drain":
                drained_at[event.chip_id] = event.time_s
            elif event.action == "retire" and event.chip_id in drained_at \
                    and event.time_s > drained_at[event.chip_id]:
                late.append(event)
    assert late


def test_fixed_fleet_and_eager_fixtures_reach_their_branches(reports):
    """The pinned-rate, no-warm-up and degrade-only scenarios each exist
    for one control branch no other scenario reaches."""
    pinned = reports["two_tenants_pinned_rate"].control
    assert all(acct.shed_rate_limited > 0
               for acct in pinned.admission.values())
    eager = reports["cr_ewma_no_warmup"].control
    assert eager.scale_ups > 0
    assert not any(event.action == "ready" for event in eager.timeline)
    degrade_only = reports["ib_degrade_only"].control
    assert degrade_only.policy == "fixed"
    assert degrade_only.admission[""].degraded[2] > 0


if __name__ == "__main__":
    pins = {name: _pin(_report(name)) for name in sorted(SCENARIOS)}
    with open(FIXTURE, "w") as handle:
        json.dump(pins, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {FIXTURE} ({len(pins)} scenarios)")
