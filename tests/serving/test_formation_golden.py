"""Golden fixtures for overlap-aware formation under load.

``test_golden_fixtures.py`` pins an overlap run at 40 rps, where every
batch holds one request: it never exercises greedy grouping or late
joins.  These two fixtures pin loaded ``continuous`` runs (IB, 512
requests, 2 chips, 0.7 utilisation) that do:

* ``min_overlap=0`` fills batches greedily (mean batch ~31, overlap
  ratio ~0.42);
* ``min_overlap=0.25`` stops growth at the purity floor and admits late
  joins into open batches (66 joins, 243 rejects).

Both reports carry every request record, so any change to which requests
ride together -- the greedy pick order, tie breaking, the floor test or
late-join selection -- fails here explicitly.  When a change
*intentionally* alters formation, regenerate with::

    PYTHONPATH=src python tests/serving/test_formation_golden.py

and commit the diff alongside the change that explains it.
"""

import json
import os

import pytest

from repro.graphs import load_dataset
from repro.models.model_zoo import clear_workloads_cache
from repro.serving.fleet import FleetConfig, clear_probe_cache, run_serving

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

DATASET = "IB"
NUM_REQUESTS = 512
NUM_CHIPS = 2
SEED = 0
#: fixture file per purity floor
FIXTURES = {
    0.0: os.path.join(FIXTURE_DIR, "formation_report_ib_overlap0.json"),
    0.25: os.path.join(FIXTURE_DIR, "formation_report_ib_overlap25.json"),
}


def _report_json(min_overlap):
    """One loaded continuous-batching run -> serve report JSON."""
    clear_probe_cache()
    clear_workloads_cache()
    load_dataset.cache_clear()
    report = run_serving(dataset=DATASET, num_requests=NUM_REQUESTS,
                         config=FleetConfig(num_chips=NUM_CHIPS,
                                            batch_policy="continuous",
                                            min_overlap=min_overlap),
                         utilization_target=0.7, seed=SEED)
    return json.dumps(report.to_dict(), sort_keys=True, indent=2,
                      default=float)


@pytest.mark.parametrize("min_overlap", sorted(FIXTURES))
def test_loaded_formation_matches_golden_fixture(min_overlap):
    with open(FIXTURES[min_overlap]) as handle:
        expected = handle.read()
    assert _report_json(min_overlap) == expected.rstrip("\n"), (
        "loaded continuous-batching report diverged from the committed "
        "fixture; if the change is intentional, regenerate via "
        "`PYTHONPATH=src python tests/serving/test_formation_golden.py`"
    )


def test_fixtures_exercise_grouping_and_late_joins():
    """The fixtures are only worth pinning while they run the paths the
    low-load golden misses: multi-request groups and late joins."""
    with open(FIXTURES[0.0]) as handle:
        filled = json.load(handle)["batching"]
    with open(FIXTURES[0.25]) as handle:
        floored = json.load(handle)["batching"]
    assert filled["mean_batch_size"] > 16
    assert filled["overlap_ratio"] > 0.3
    assert floored["late_joins"] > 0
    assert floored["late_join_rejects"] > 0


if __name__ == "__main__":
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for min_overlap, path in sorted(FIXTURES.items()):
        payload = _report_json(min_overlap)
        with open(path, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {path} ({len(payload)} bytes)")
