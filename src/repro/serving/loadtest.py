"""Open-loop load harness: sweep arrival rate to the SLO knee.

``repro loadtest`` (and :mod:`benchmarks.bench_loadtest`) answer the
capacity question the closed-form calibration in
:meth:`~repro.serving.fleet.ServingSimulator.calibrate_rate` only
approximates: *what is the maximum offered RPS at which this serving
configuration still attains its SLO?*  The harness drives the simulator
open-loop -- arrivals are a fixed-rate Poisson process that does not slow
down when the fleet falls behind, the standard methodology for capacity
measurement -- and bisects the rate axis to the **knee**: the highest
rate whose SLO attainment (fraction of completed requests inside the
SLO) still meets the target.

:func:`find_knee` is a pure bracket-and-bisect routine over any
``measure(rate) -> LoadPoint`` callable, so its convergence logic is
unit-testable on synthetic monotone curves with no simulator in the
loop.  :func:`run_loadtest` wires it to :func:`~repro.serving.fleet
.run_serving` across a chip-count sweep and renders the
``BENCH_loadtest.json`` trajectory (knee per chip count plus every
measured rate/attainment/latency point -- the p99-vs-rate curve).

SLO note: the adaptive SLO (``slo_s=None``) derives from a single-chip
probe batch, so it is *identical across chip counts* -- knees measured
on a 1/2/4-chip sweep are directly comparable, and more chips can only
move the knee up.  Pin ``slo_ms`` to measure against an explicit target
instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..counters import CounterBlock
from ..graphs.datasets import load_dataset
from ..models.model_zoo import build_model
from .fleet import FleetConfig, ServingSimulator, clear_probe_cache, run_serving
from .stats import ServingReport

__all__ = [
    "KneeResult",
    "LoadPoint",
    "LoadTestConfig",
    "LoadTestReport",
    "find_knee",
    "run_loadtest",
]


@dataclass(frozen=True)
class LoadPoint(CounterBlock):
    """One measured point on the rate axis."""

    rate_rps: float
    attainment: float          # fraction of completed requests inside SLO
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    throughput_rps: float = 0.0
    completed: int = 0
    offered: int = 0

    def meets(self, slo_target: float) -> bool:
        return self.attainment >= slo_target

    @classmethod
    def from_report(cls, rate_rps: float,
                    report: ServingReport) -> "LoadPoint":
        return cls(
            rate_rps=float(rate_rps),
            attainment=report.slo_attainment,
            p50_s=report.p50_latency_s,
            p95_s=report.p95_latency_s,
            p99_s=report.p99_latency_s,
            throughput_rps=report.throughput_rps,
            completed=report.completed,
            offered=len(report.records),
        )


@dataclass(frozen=True)
class KneeResult:
    """Outcome of one :func:`find_knee` search.

    ``knee_rps`` is the highest measured rate meeting the target (0.0
    when even the starting rate fails).  ``bracketed`` is False when the
    doubling phase exhausted ``max_doublings`` without finding a failing
    rate -- the configuration absorbed everything thrown at it, and the
    knee is a lower bound, not a crossing.
    """

    knee_rps: float
    bracketed: bool
    iterations: int
    points: Tuple[LoadPoint, ...] = ()

    @property
    def knee_point(self) -> Optional[LoadPoint]:
        for point in self.points:
            if point.rate_rps == self.knee_rps:
                return point
        return None


def find_knee(measure: Callable[[float], LoadPoint], slo_target: float,
              lo_rps: float, *, hi_rps: Optional[float] = None,
              max_doublings: int = 6, rel_tol: float = 0.1,
              max_bisections: int = 16) -> KneeResult:
    """Bracket and bisect ``measure`` to the SLO knee.

    Phase 1 (bracket): starting from ``lo_rps`` (or the given
    ``hi_rps``), double the rate until a measurement misses
    ``slo_target``.  Phase 2 (bisect): shrink the [pass, fail] bracket
    until its width is within ``rel_tol`` of the passing edge.  The knee
    is the highest rate actually *measured* as passing -- never an
    unmeasured interpolation.  Assumes attainment is (noisily) monotone
    non-increasing in rate, which open-loop serving satisfies.
    """
    if lo_rps <= 0:
        raise ValueError("lo_rps must be positive")
    if not 0 < slo_target <= 1:
        raise ValueError("slo_target must be in (0, 1]")
    points: List[LoadPoint] = []

    def probe(rate: float) -> LoadPoint:
        point = measure(rate)
        points.append(point)
        return point

    low = probe(lo_rps)
    if not low.meets(slo_target):
        # even the floor fails: no sustainable rate in this bracket
        return KneeResult(knee_rps=0.0, bracketed=True,
                          iterations=len(points), points=tuple(points))
    good, bad = lo_rps, None
    if hi_rps is not None and hi_rps > lo_rps:
        point = probe(hi_rps)
        if point.meets(slo_target):
            good = hi_rps
        else:
            bad = hi_rps
    while bad is None:
        if len(points) - 1 >= max_doublings + (1 if hi_rps else 0):
            # saturated: never found a failing rate
            return KneeResult(knee_rps=good, bracketed=False,
                              iterations=len(points), points=tuple(points))
        rate = good * 2.0
        point = probe(rate)
        if point.meets(slo_target):
            good = rate
        else:
            bad = rate
    bisections = 0
    while (bad - good) > rel_tol * good and bisections < max_bisections:
        mid = 0.5 * (good + bad)
        point = probe(mid)
        if point.meets(slo_target):
            good = mid
        else:
            bad = mid
        bisections += 1
    return KneeResult(knee_rps=good, bracketed=True,
                      iterations=len(points), points=tuple(points))


# --------------------------------------------------------------------------- #
# Simulator-backed sweep
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoadTestConfig:
    """One ``repro loadtest`` sweep: a serve configuration x chip counts.

    ``slo_target`` is the required SLO attainment at the knee (0.99 =
    "99% of completed requests inside the SLO").  ``start_utilization``
    seeds the bracket: the first probed rate is the calibrated rate at
    that utilisation, which passes comfortably on any sane
    configuration.  The fleet template defaults to ``cache_size=0`` so
    the knee measures chip capacity, not result-cache hit luck; pass an
    explicit ``fleet`` to override.
    """

    dataset: str = "IB"
    model_name: str = "GCN"
    #: Requests *per chip*: each sweep serves ``num_requests * num_chips``
    #: so every chip count faces the same per-chip pressure and a finite
    #: run can actually out-queue the SLO (with a fixed total, wider
    #: fleets could absorb the whole stream at any rate and the knee
    #: would be unbounded).  768/chip gives the worst-case backlog
    #: comfortable headroom past the adaptive SLO on every dataset.
    num_requests: int = 768
    chip_counts: Tuple[int, ...] = (1, 2, 4)
    slo_target: float = 0.99
    popularity_skew: float = 0.8
    seed: int = 0
    rel_tol: float = 0.1
    max_doublings: int = 6
    max_bisections: int = 16
    start_utilization: float = 0.4
    fleet: FleetConfig = field(
        default_factory=lambda: FleetConfig(cache_size=0))

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        if not self.chip_counts or \
                any(c <= 0 for c in self.chip_counts):
            raise ValueError("chip_counts must be positive")
        if not 0 < self.slo_target <= 1:
            raise ValueError("slo_target must be in (0, 1]")
        if not 0 < self.start_utilization:
            raise ValueError("start_utilization must be positive")


@dataclass
class LoadTestReport:
    """The ``BENCH_loadtest.json`` payload: knee trajectory per chip count."""

    config: LoadTestConfig
    sweeps: List[Dict[str, object]] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def knees(self) -> Dict[int, float]:
        return {int(s["num_chips"]): float(s["knee_rps"])
                for s in self.sweeps}

    def to_dict(self) -> Dict[str, object]:
        cfg = self.config
        return {
            "kind": "loadtest",
            "dataset": cfg.dataset,
            "model": cfg.model_name,
            "num_requests": cfg.num_requests,
            "slo_target": cfg.slo_target,
            "popularity_skew": cfg.popularity_skew,
            "seed": cfg.seed,
            "rel_tol": cfg.rel_tol,
            "batch_policy": cfg.fleet.batch_policy,
            "max_batch_size": cfg.fleet.max_batch_size,
            "slo_s": cfg.fleet.slo_s,
            "wall_time_s": self.wall_time_s,
            "sweeps": self.sweeps,
        }

    def summary_rows(self) -> List[Dict[str, object]]:
        """One table row per chip count (for ``repro.analysis.print_table``)."""
        rows = []
        for sweep in self.sweeps:
            knee = sweep.get("knee_point") or {}
            rows.append({
                "chips": sweep["num_chips"],
                "knee_rps": round(float(sweep["knee_rps"]), 1),
                "bracketed": sweep["bracketed"],
                "runs": sweep["iterations"],
                "attainment_pct": round(
                    100 * float(knee.get("attainment", 0.0)), 2),
                "p99_ms_at_knee": round(
                    1e3 * float(knee.get("p99_s", 0.0)), 3),
                "slo_ms": round(1e3 * float(sweep["slo_s"]), 3),
            })
        return rows


def run_loadtest(config: Optional[LoadTestConfig] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> LoadTestReport:
    """Run the knee search for every chip count in ``config.chip_counts``.

    Every measurement is an independent deterministic
    :func:`~repro.serving.fleet.run_serving` run (Poisson arrivals,
    shared seed) at a fixed offered rate; the probe cache is cleared
    before each so wall-clock comparisons stay honest.  ``progress`` (if
    given) receives one line per measurement.
    """
    config = config or LoadTestConfig()
    report = LoadTestReport(config=config)
    started = time.perf_counter()
    for num_chips in config.chip_counts:
        fleet = replace(config.fleet, num_chips=num_chips)
        sweep_requests = config.num_requests * num_chips
        slo_s: List[float] = []

        def measure(rate: float, fleet: FleetConfig = fleet,
                    sweep_requests: int = sweep_requests) -> LoadPoint:
            clear_probe_cache()
            served = run_serving(
                dataset=config.dataset, model_name=config.model_name,
                num_requests=sweep_requests, rate_rps=rate,
                arrival="poisson", popularity_skew=config.popularity_skew,
                config=fleet, seed=config.seed)
            slo_s.append(served.slo_s)
            point = LoadPoint.from_report(rate, served)
            if progress is not None:
                progress(f"  {config.dataset}/{config.model_name} "
                         f"x{num_chips}: {rate:.1f} rps -> "
                         f"attainment {100 * point.attainment:.2f}%, "
                         f"p99 {1e3 * point.p99_s:.3f} ms")
            return point

        # Seed the bracket from the closed-form capacity estimate at a
        # conservative utilisation -- one probe run, reused via the cache.
        clear_probe_cache()
        graph = load_dataset(config.dataset, seed=config.seed)
        model = build_model(config.model_name,
                            input_length=graph.feature_length)
        simulator = ServingSimulator(graph, model, fleet,
                                     dataset_name=config.dataset)
        lo_rps = simulator.calibrate_rate(config.start_utilization)
        result = find_knee(measure, config.slo_target, lo_rps,
                           rel_tol=config.rel_tol,
                           max_doublings=config.max_doublings,
                           max_bisections=config.max_bisections)
        knee_point = result.knee_point
        report.sweeps.append({
            "num_chips": int(num_chips),
            "num_requests": sweep_requests,
            "knee_rps": result.knee_rps,
            "bracketed": result.bracketed,
            "iterations": result.iterations,
            "slo_s": slo_s[0] if slo_s else 0.0,
            "knee_point": knee_point.as_dict() if knee_point else None,
            "points": [p.as_dict() for p in result.points],
        })
    report.wall_time_s = time.perf_counter() - started
    return report


def _monotone_knees(sweeps: Sequence[Dict[str, object]]) -> bool:
    """True when knee RPS never decreases with chip count (the sweep's
    acceptance criterion -- more chips can only add capacity)."""
    ordered = sorted(sweeps, key=lambda s: int(s["num_chips"]))
    knees = [float(s["knee_rps"]) for s in ordered]
    return all(b >= a for a, b in zip(knees, knees[1:]))
