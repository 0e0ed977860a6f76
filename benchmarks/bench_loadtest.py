"""Open-loop load benchmark: knee RPS per chip count (``BENCH_loadtest.json``).

One table: the SLO knee -- max offered RPS with SLO attainment >= the
target -- found by bracket-and-bisect for a 1/2/4-chip fleet on identical
seeded zipf traffic (see ``docs/loadtest.md``).  The acceptance criteria
pinned here are the subsystem's contract:

* every sweep *brackets* its knee (finds a failing rate, so the knee is
  a crossing, not a lower bound), and
* knee RPS is monotone non-decreasing in chip count, strictly rising
  from 1 to 4 chips -- more chips can only add capacity.

``REPRO_BENCH_SMOKE=1`` loosens the bisection tolerance for the CI smoke
job.  Set ``REPRO_BENCH_JSON=PATH`` to also dump the full knee/p99-vs-rate
trajectory as JSON (the same payload as ``python -m repro loadtest``), so
harnesses never scrape the table.
"""

import os

from repro.analysis import print_table
from repro.serving import LoadTestConfig, run_loadtest
from repro.serving.loadtest import _monotone_knees
from _bench import dump_json

DATASET = "IB"
MODEL = "GCN"
CHIP_COUNTS = (1, 2, 4)
# requests are per chip (each sweep serves requests x chips), so every
# chip count faces the same per-chip pressure and brackets a real knee
NUM_REQUESTS = 768
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
REL_TOL = 0.25 if SMOKE else 0.1
MAX_BISECTIONS = 4 if SMOKE else 12


def test_knee_scaling(benchmark):
    config = LoadTestConfig(
        dataset=DATASET, model_name=MODEL, num_requests=NUM_REQUESTS,
        chip_counts=CHIP_COUNTS, rel_tol=REL_TOL,
        max_bisections=MAX_BISECTIONS, seed=0)
    report = benchmark.pedantic(lambda: run_loadtest(config),
                                rounds=1, iterations=1)
    print_table(report.summary_rows(),
                title=f"SLO knee vs chip count ({MODEL} on {DATASET}, "
                      f"{NUM_REQUESTS} requests/chip, attainment >= "
                      f"{config.slo_target:g})")
    dump_json("loadtest", report.to_dict())
    # every measurement completed its whole stream (open-loop, no shedding)
    for sweep in report.sweeps:
        for point in sweep["points"]:
            assert point["completed"] == point["offered"] \
                == sweep["num_requests"]
    # each sweep found a failing rate: the knee is a crossing, not a bound
    assert all(sweep["bracketed"] for sweep in report.sweeps)
    # the headline: capacity never shrinks with chips, and genuinely grows
    # across the 1 -> 4 span
    assert _monotone_knees(report.sweeps)
    knees = report.knees
    assert knees[max(CHIP_COUNTS)] > knees[min(CHIP_COUNTS)]
