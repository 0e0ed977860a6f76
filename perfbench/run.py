"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cr-miss [--seed 0] [--seconds 25]
                             [--trace 0|1] [--scale 1.0]

A run serves :data:`STREAMS` independent traffic streams of the workload,
seeded ``seed * STREAMS + i``: with zipf-skewed popularity, which vertices
are hot depends on the stream's seed, and one stream alone would make the
figures move with the seed more than with the code.  Streams are served in
turn, each repetition from a cold start, until every stream has run once
and ``--seconds`` of host time have passed.

Every metric is printed by name with its unit.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Host times are medians over the
repetitions; simulated metrics pool the streams.  A traced run serves each
stream untraced and then traced, so the tracing overhead is measured on the
same input in the same process.  ``--scale`` shrinks every request count
(smoke tests).

Each repetition's report fingerprint must equal the one ``pinned.json``
holds for its workload and stream or, when none is pinned, that of the
stream's first repetition.  A repetition that fails this or any check of
:func:`harness.check_report`, or raises, counts all its requests as failed.

Exit status is 0 after a result is printed, 1 when some stream never
completed, and 2 when the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "pinned.json"

#: Traffic streams per run (see the module docstring).
STREAMS = 4


def _git_state():
    """``(sha, dirty)`` of the checkout, or ``("unknown", None)``."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha, bool(status.strip())


def pin_key(seed: int, scale: float) -> str:
    """Key of a stream's fingerprint in ``pinned.json``."""
    return str(seed) if scale == 1 else f"{seed}@{scale:g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    workload = harness.WORKLOADS[args.workload]
    seeds = [args.seed * STREAMS + i for i in range(STREAMS)]
    pins = json.loads(PINNED.read_text()).get(args.workload, {}) \
        if PINNED.exists() else {}

    by_stream = {seed: [] for seed in seeds}
    pairs = []
    expected_by_stream = {}
    attempted = failed = 0
    problems = []
    deadline = time.perf_counter() + args.seconds
    for turn in itertools.count():
        seed = seeds[turn % STREAMS]
        served = []
        for traced in (False, True)[:1 + args.trace]:
            try:
                rep = harness.run_once(workload, seed, args.scale, traced)
            except Exception:  # one broken repetition must not end the run
                traceback.print_exc(file=sys.stderr)
                attempted += workload.offered(args.scale)
                failed += workload.offered(args.scale)
                problems.append(f"a repetition of stream {seed} raised")
                continue
            pinned = pins.get(pin_key(seed, args.scale))
            expected = expected_by_stream.setdefault(
                seed, pinned or rep.fingerprint)
            if rep.fingerprint != expected:
                rep.problems.append(
                    f"stream {seed}: report fingerprint "
                    f"{rep.fingerprint[:16]} != "
                    f"{'pinned' if pinned else 'first repetition'} "
                    f"{expected[:16]}")
            attempted += rep.offered
            failed += rep.failed
            problems.extend(rep.problems)
            served.append(rep)
        if len(served) == 1 + args.trace:
            by_stream[seed].append(served[0])
            if args.trace:
                pairs.append(tuple(served))
        if turn + 1 == STREAMS:
            # later repetitions only add allocator creep, and how many fit
            # in the run depends on the host's speed
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if turn + 1 >= STREAMS and time.perf_counter() >= deadline:
            break
    if not all(by_stream.values()):
        print("error: some stream never completed", file=sys.stderr)
        return 1

    metrics = harness.per_layer(pairs) if args.trace \
        else harness.end_to_end(by_stream, peak_rss_mb)
    print(f"workload {args.workload}  seed {args.seed}  streams {seeds}  "
          f"repetitions {[len(reps) for reps in by_stream.values()]}"
          f"{'  (each untraced + traced)' if args.trace else ''}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print(f"  {'failed_frac':<{width}}  {failed / attempted:>14.6g}  ratio")
    for problem in dict.fromkeys(problems):
        print(f"  check failed: {problem}")
    sha, dirty = _git_state()
    firsts = [reps[0] for reps in by_stream.values()]
    print("provenance " + json.dumps({
        "git_sha": sha, "dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "workload": args.workload,
        "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "requests": [rep.offered for rep in firsts],
        "updates": [rep.updates for rep in firsts],
        "fingerprints": {str(seed): reps[0].fingerprint
                         for seed, reps in by_stream.items()},
        "pinned": [seed for seed in seeds
                   if pin_key(seed, args.scale) in pins],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
