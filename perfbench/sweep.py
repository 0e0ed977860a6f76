"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py [--workloads cr-miss,ib-overlap,mt-stream]
                               [--seeds 0-9] [--seconds 25] [--trace 0]
                               [--out perfbench/baseline.json] [--pin]

Runs ``run.py`` once per (workload, seed), one process at a time, and for
every metric prints the median, the quartiles and the spread -- the
distance between the first and third quartile as a share of the median --
next to the bound ``BENCHMARK.json`` fixes for it.  ``--out`` writes every
result row (with its provenance) and the summary as JSON; ``--pin`` records
each stream's report fingerprint in ``pinned.json`` so later runs of that
workload and seed check against it.

The committed ``baseline.json`` came from ``--seeds 0-9 --pin --out
perfbench/baseline.json`` and ``baseline_trace.json`` from ``--trace 1
--seeds 0-2 --out perfbench/baseline_trace.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec: str):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process: its provenance and result lines, parsed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    provenance = json.loads(lines[-2].partition(" ")[2])
    return {"provenance": provenance, "result": json.loads(lines[-1])}


def summarise(rows, bounds) -> dict:
    """Per metric: median, quartiles, spread and (when bounded) the bound."""
    summary = {}
    for name in rows[0]["result"]["metrics"]:
        values = [row["result"]["metrics"][name]["value"] for row in rows]
        q1, median, q3 = statistics.quantiles(values, n=4)
        entry = {"median": median, "q1": q1, "q3": q3,
                 "unit": rows[0]["result"]["metrics"][name]["unit"],
                 "spread": (q3 - q1) / median if median else None}
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="cr-miss,ib-overlap,mt-stream")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    output = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    pins_path = HERE / "pinned.json"
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    for workload in args.workloads.split(","):
        rows = []
        for seed in _seeds(args.seeds):
            row = run_one(workload, seed, seconds, args.trace)
            result = row["result"]
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
            rows.append(row)
            if args.pin:
                pins.setdefault(workload, {}).update(
                    row["provenance"]["fingerprints"])
        summary = summarise(rows, bounds) if len(rows) > 1 else {}
        for name, entry in summary.items():
            bound = entry.get("bound")
            flag = "" if bound is None or entry["spread"] is None \
                else ("  > bound/3" if entry["spread"] > bound / 3 else "  ok")
            spread = "n/a" if entry["spread"] is None \
                else f"{entry['spread']:.4f}"
            print(f"  {name:<30} median {entry['median']:.6g} "
                  f"[{entry['q1']:.6g}, {entry['q3']:.6g}] "
                  f"spread {spread}"
                  + (f" bound {bound}{flag}" if bound is not None else ""))
        output["workloads"][workload] = {"rows": rows, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(output, indent=1, sort_keys=True)
                            + "\n")
    if args.pin:
        pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
