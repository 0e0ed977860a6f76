#!/usr/bin/env python
"""Append rows of the repo benchmark to the committed perf trajectory.

    python3 tools/bench_row.py [--runs 5] CHECKOUT [CHECKOUT ...]
    python3 tools/bench_row.py --check

Each ``CHECKOUT`` is a directory holding a checkout of this repository, for
example a clone of the parent commit and ``.``.  For each workload the
unchanged ``perfbench/run.py`` of every checkout runs ``--runs`` times
(at least :data:`MIN_RUNS`) for its own default run length, the checkouts
taking turns and the first of them rotating from round to round, so host
drift falls on all of them alike.
One traced run per checkout and workload (``--seconds 0 --trace 1``)
then gives the per-layer self-time split.  One row per checkout, in the
order given, is appended to ``BENCH_perfbench.json`` at the repo root.

A row holds the checkout's ``git_sha`` (and whether its tree was dirty),
``nproc`` and, per workload, the median and quartiles of ``req_per_s``
over the runs with every run's value, the medians of ``wall_s``,
``setup_s`` and ``peak_rss_mb``, the simulated metrics, whether every run
was correct, and the traced ``<layer>.self_frac`` shares and
``<layer>.calls`` counts.

``--check`` validates ``BENCH_perfbench.json`` against that schema, and
that every row comes from a clean tree with no failed operation; it needs
only the standard library and exits 0 with an ``OK`` line, 1 with a list
of problems.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perfbench.json"
WORKLOADS = ("cr-miss", "ib-overlap", "mt-stream")
#: Fewest timed runs per workload a row may rest on.
MIN_RUNS = 5
#: Host seconds of one timed run: ``perfbench/run.py``'s default, which
#: the timed runs leave in force.
RUN_SECONDS = 25.0
MEDIANS = ("wall_s", "setup_s", "peak_rss_mb")
SIMULATED = ("sim_mean_us", "sim_p99_us", "sim_j_per_req")


def run_perfbench(checkout: Path, workload: str, trace: bool = False) -> dict:
    """One ``perfbench/run.py`` run: its result line plus provenance.

    A timed run keeps the benchmark's run length; a traced run is one
    traced pass over the streams (``--seconds 0 --trace 1``).
    """
    extra = ["--seconds", "0", "--trace", "1"] if trace else []
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *extra],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = next(
        json.loads(line.split(" ", 1)[1]) for line in lines
        if line.startswith("provenance "))
    shown = "trace.wall_s" if trace else "req_per_s"
    print(f"  {checkout}  {workload}  trace={trace}  "
          f"correct={result['correct']}  "
          f"{shown}={result['metrics'][shown]['value']:.6g}", flush=True)
    return result


def summarise(runs: list, traced: dict) -> dict:
    """One workload's entry of a row."""
    def values(name):
        return [r["metrics"][name]["value"] for r in runs]
    rates = values("req_per_s")
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    entry = {"req_per_s": {"median": median, "q1": q1, "q3": q3,
                           "iqr": q3 - q1, "runs": rates}}
    entry.update({name: statistics.median(values(name)) for name in MEDIANS})
    entry.update({name: runs[0]["metrics"][name]["value"]
                  for name in SIMULATED})
    entry["correct"] = all(r["correct"] for r in runs + [traced])
    entry["failed"] = sum(r["failed"] for r in runs + [traced])
    layer = traced["metrics"]
    entry["self_frac"] = {name[:-len(".self_frac")]: m["value"]
                          for name, m in layer.items()
                          if name.endswith(".self_frac")}
    entry["calls"] = {name[:-len(".calls")]: m["value"]
                      for name, m in layer.items() if name.endswith(".calls")}
    return entry


def measure(checkouts: list, runs: int) -> list:
    """Rows for ``checkouts``, measured in alternating rounds."""
    timed = {(c, w): [] for c in checkouts for w in WORKLOADS}
    traced = {}
    for workload in WORKLOADS:
        for i in range(runs):
            k = i % len(checkouts)
            for checkout in checkouts[k:] + checkouts[:k]:
                timed[checkout, workload].append(
                    run_perfbench(checkout, workload))
        for checkout in checkouts:
            traced[checkout, workload] = run_perfbench(
                checkout, workload, trace=True)
    rows = []
    for checkout in checkouts:
        first = timed[checkout, WORKLOADS[0]][0]["provenance"]
        rows.append({
            "git_sha": first["git_sha"], "dirty": first["dirty"],
            "nproc": first["nproc"], "python": first["python"],
            "numpy": first["numpy"],
            "date": datetime.date.today().isoformat(),
            "runs": runs, "run_seconds": RUN_SECONDS,
            "workloads": {w: summarise(timed[checkout, w],
                                       traced[checkout, w])
                          for w in WORKLOADS},
        })
    return rows


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check(path: Path) -> list:
    """Schema problems of the trajectory file (empty when it is valid)."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not rows:
        return [f"{path}: expected an object with a non-empty 'rows' list"]
    problems = []
    for n, row in enumerate(rows):
        where = f"row {n}"
        sha = row.get("git_sha")
        if not (isinstance(sha, str) and len(sha) == 40
                and all(c in "0123456789abcdef" for c in sha)):
            problems.append(f"{where}: git_sha {sha!r} is not a full sha")
        if row.get("dirty") is not False:
            problems.append(f"{where}: measured on a dirty or unknown tree")
        if not isinstance(row.get("nproc"), int):
            problems.append(f"{where}: nproc missing")
        workloads = row.get("workloads", {})
        for workload in WORKLOADS:
            entry = workloads.get(workload)
            at = f"{where} {workload}"
            if not isinstance(entry, dict):
                problems.append(f"{at}: missing")
                continue
            rate = entry.get("req_per_s", {})
            rates = rate.get("runs", [])
            if len(rates) < MIN_RUNS or not all(map(_number, rates)):
                problems.append(f"{at}: req_per_s needs >= {MIN_RUNS} runs")
            if not all(_number(rate.get(k))
                       for k in ("median", "q1", "q3", "iqr")) \
                    or not rate["q1"] <= rate["median"] <= rate["q3"]:
                problems.append(f"{at}: req_per_s median/quartiles invalid")
            for name in MEDIANS + SIMULATED:
                if not _number(entry.get(name)):
                    problems.append(f"{at}: {name} missing")
            shares = entry.get("self_frac")
            if not isinstance(shares, dict) or not shares or not all(
                    _number(v) and 0 <= v <= 1 for v in shares.values()):
                problems.append(f"{at}: self_frac must map layers to [0, 1]")
            if entry.get("correct") is not True:
                problems.append(f"{at}: a run was not correct")
            if entry.get("failed") != 0:
                problems.append(f"{at}: operations failed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path)
    parser.add_argument("--runs", type=int, default=MIN_RUNS)
    parser.add_argument("--check", action="store_true",
                        help="validate the trajectory file and exit")
    args = parser.parse_args(argv)
    if args.check:
        if args.checkouts:
            parser.error("--check takes no checkouts")
        problems = check(TRAJECTORY)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if not problems:
            rows = json.loads(TRAJECTORY.read_text())["rows"]
            print(f"OK: {TRAJECTORY.name} holds {len(rows)} valid rows")
        return 1 if problems else 0
    if not args.checkouts:
        parser.error("give at least one checkout to measure")
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be >= {MIN_RUNS}")
    rows = measure([c.resolve() for c in args.checkouts], args.runs)
    data = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() \
        else {"rows": []}
    data["rows"].extend(rows)
    TRAJECTORY.write_text(json.dumps(data, indent=1) + "\n")
    print(f"appended {len(rows)} rows to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
