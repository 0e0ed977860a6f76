"""Golden fixtures for single-tenant heterogeneous runs.

The other goldens either serve one chip shape or put the mixed fleet
behind the multi-tenant pull stage, so nothing else pins the push stage's
shape accounting: the shape-aware dispatcher's scored / fallback counts,
``misdispatch_s``, the learned rates and the per-shape
``repro_busy_fraction`` gauges of a fleet with more than one shape.  The
scenarios serve CR, 800 requests, on a fixed five-chip ``mixed`` fleet
(two ``agg_heavy``, two ``comb_heavy``, one ``balanced``):

* ``shape-aware`` dispatch, which scores most batches and falls back on a
  few cold ones;
* ``least-loaded`` dispatch, where every batch is accounted but none is
  scored;
* ``shape-aware`` again, served twice by one simulator and pinned on the
  second run, so counters that leak across runs show up.

Each scenario pins the sha256 of its full report JSON and, for a readable
diff, the report without its per-request records.  The observed
``shape-aware`` run also pins the sha256 of its metric scrape rows.  When
a change *intentionally* alters these numbers, regenerate with::

    PYTHONPATH=src python tests/serving/test_hetero_golden.py

and commit the diff alongside the change that explains it.
"""

import hashlib
import json
import os

import pytest

from repro.graphs import load_dataset
from repro.models.model_zoo import build_model, clear_workloads_cache
from repro.serving import FleetConfig, Instrumentation
from repro.serving.fleet import ServingSimulator, clear_probe_cache, run_serving
from repro.serving.hetero import fleet_spec_for_mix
from repro.serving.workload import RequestGenerator, WorkloadConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "hetero_reports.json")
DATASET = "CR"
NUM_REQUESTS = 800
SEED = 3


def _config(dispatch):
    return FleetConfig(fleet_spec=fleet_spec_for_mix("mixed", 5),
                       dispatch=dispatch, max_batch_size=16, cache_size=0)


def _mixed(dispatch, observe=None):
    return run_serving(dataset=DATASET, num_requests=NUM_REQUESTS,
                       utilization_target=1.2, config=_config(dispatch),
                       seed=SEED, observe=observe)


def _second_run():
    """The same stream served twice by one simulator; the second report."""
    graph = load_dataset(DATASET, seed=SEED)
    model = build_model("GCN", input_length=graph.feature_length)
    simulator = ServingSimulator(graph, model, _config("shape-aware"),
                                 dataset_name=DATASET)
    rate = simulator.calibrate_rate(1.2)
    requests = RequestGenerator(graph.num_vertices, WorkloadConfig(
        num_requests=NUM_REQUESTS, rate_rps=rate, seed=SEED)).generate()
    simulator.run(requests, rate_rps=rate)
    return simulator.run(requests, rate_rps=rate)


SCENARIOS = {
    "cr_mixed_shape_aware": lambda: _mixed("shape-aware"),
    "cr_mixed_least_loaded": lambda: _mixed("least-loaded"),
    "cr_mixed_shape_aware_second_run": _second_run,
}


def _clear():
    for clear in (clear_probe_cache, clear_workloads_cache,
                  load_dataset.cache_clear):
        clear()


def _without_records(value):
    if isinstance(value, dict):
        return {key: _without_records(item) for key, item in value.items()
                if key != "records"}
    if isinstance(value, list):
        return [_without_records(item) for item in value]
    return value


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     default=float).encode()).hexdigest()


def _pin(report):
    """``{"sha256", "summary"}`` of one scenario's report."""
    payload = report.to_dict(include_records=True)
    return {"sha256": _sha256(payload),
            "summary": json.loads(json.dumps(_without_records(payload),
                                             default=float))}


def _observed():
    """``(report, scrape rows)`` of the observed shape-aware run."""
    _clear()
    observe = Instrumentation()
    report = _mixed("shape-aware", observe=observe)
    return report, observe.samples


def _pins():
    pins = {}
    for name in sorted(SCENARIOS):
        _clear()
        pins[name] = _pin(SCENARIOS[name]())
    _, samples = _observed()
    pins["scrape_sha256"] = _sha256(samples)
    return pins


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in sorted(SCENARIOS):
        _clear()
        out[name] = SCENARIOS[name]()
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hetero_run_matches_golden_fixture(golden, reports, name):
    pin = _pin(reports[name])
    assert pin["summary"] == golden[name]["summary"]
    assert pin["sha256"] == golden[name]["sha256"], (
        "heterogeneous report diverged from the committed fixture; if the "
        "change is intentional, regenerate via "
        "`PYTHONPATH=src python tests/serving/test_hetero_golden.py`")


def test_fixtures_exercise_the_shape_accounting(reports):
    aware = reports["cr_mixed_shape_aware"].hetero
    oblivious = reports["cr_mixed_least_loaded"].hetero
    assert aware.scored_batches > 0 and aware.fallback_batches > 0
    assert oblivious.scored_batches == oblivious.fallback_batches == 0
    for hetero in (aware, oblivious):
        assert len(hetero.shape_counts) == 3
        assert hetero.misdispatch_s > 0
        assert hetero.rates
    # the second run counts only its own dispatches
    second = reports["cr_mixed_shape_aware_second_run"]
    batches = {r.batch_id for r in second.records if r.batch_id >= 0}
    assert second.hetero.scored_batches + second.hetero.fallback_batches \
        == len(batches)


def test_observed_run_scrapes_every_shape(golden, reports):
    report, samples = _observed()
    assert json.dumps(report.to_dict(include_records=True), sort_keys=True,
                      default=float) \
        == json.dumps(reports["cr_mixed_shape_aware"].to_dict(
            include_records=True), sort_keys=True, default=float)
    shapes = {key for row in samples for key in row["metrics"]
              if key.startswith("repro_busy_fraction{")}
    assert len(shapes) == 3
    assert _sha256(samples) == golden["scrape_sha256"]


if __name__ == "__main__":
    pins = _pins()
    with open(FIXTURE, "w") as handle:
        json.dump(pins, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(f"wrote {FIXTURE} ({len(pins) - 1} scenarios and a scrape digest)")
