"""Request traffic generators for the serving simulation.

A serving workload is a stream of per-target-vertex inference requests.  Three
arrival processes are provided:

* ``poisson`` -- memoryless arrivals at a fixed mean rate, the standard
  open-loop load model;
* ``bursty``  -- a two-state Markov-modulated Poisson process that alternates
  between an ON phase (``burst_factor`` times the mean rate) and a quiet OFF
  phase, calibrated so the long-run rate still equals ``rate_rps``;
* ``ramp``    -- a deterministic burst-ramp profile (quiet baseline, linear
  climb to ``peak_factor`` times the baseline, peak plateau, ramp back down),
  the canonical workload for exercising the elastic control plane in
  :mod:`repro.serving.control`: the climb forces scale-up decisions and the
  descent forces drain-before-remove scale-in;
* ``trace``   -- replay of an explicit timestamp list (e.g. captured from a
  production front-end log).

Target vertices are drawn with a Zipf-like popularity skew: real recommendation
and social-graph traffic concentrates on hub entities, which is exactly what
makes the result cache in :mod:`repro.serving.cache` earn its keep.
All generators are deterministic under ``seed``.

For multi-tenant serving (:mod:`repro.serving.tenancy`) each tenant generates
its own stream against its own graph; :func:`merge_tenant_streams` interleaves
the per-tenant streams into one time-sorted sequence with globally unique
request ids and a ``tenant`` tag on every request.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ARRIVAL_PROCESSES",
    "Request",
    "WorkloadConfig",
    "RequestGenerator",
    "poisson_arrival_times",
    "bursty_arrival_times",
    "ramp_arrival_times",
    "trace_arrival_times",
    "merge_tenant_streams",
    "split_tenant_stream",
]

#: Arrival-process names accepted by the CLI and :class:`WorkloadConfig`.
ARRIVAL_PROCESSES = ("poisson", "bursty", "ramp", "trace")


@dataclass(frozen=True)
class Request:
    """One inference request: embed ``target_vertex`` arriving at a given time.

    ``tenant`` is empty for single-tenant serving; multi-tenant streams tag
    every request with the owning tenant's name (``target_vertex`` is then an
    id in *that tenant's* graph).

    ``degrade_level``/``degrade_hops``/``degrade_fanout`` are stamped by the
    control plane's degradation ladder (:mod:`repro.serving.control`) when an
    overloaded fleet serves the request at reduced sampling fidelity instead
    of shedding it; generators always emit full-fidelity requests
    (``degrade_level == 0``, overrides ``None``).
    """

    request_id: int
    target_vertex: int
    arrival_time_s: float
    tenant: str = ""
    degrade_level: int = 0
    degrade_hops: Optional[int] = None
    degrade_fanout: Optional[int] = None


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the request stream.

    ``popularity_skew`` is the Zipf exponent of the target-vertex distribution
    (0 = uniform).  ``burst_factor`` and ``on_fraction`` only matter for the
    bursty process; the OFF-phase rate is derived so the long-run mean rate
    stays ``rate_rps``, which requires ``burst_factor < 1 / on_fraction``.
    ``peak_factor``, ``ramp_fraction`` and ``peak_fraction`` only matter for
    the ramp process: the peak plateau runs at ``peak_factor`` times the quiet
    baseline, with the baseline derived so the long-run mean stays
    ``rate_rps``.
    """

    num_requests: int = 1000
    rate_rps: float = 10_000.0
    arrival: str = "poisson"
    popularity_skew: float = 0.8
    burst_factor: float = 5.0
    on_fraction: float = 0.1
    peak_factor: float = 4.0
    ramp_fraction: float = 0.25
    peak_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_PROCESSES}, got {self.arrival!r}")
        if self.popularity_skew < 0:
            raise ValueError("popularity_skew must be >= 0")
        if not 0 < self.on_fraction < 1:
            raise ValueError("on_fraction must be in (0, 1)")
        if self.arrival == "bursty" and self.burst_factor * self.on_fraction >= 1.0:
            raise ValueError("burst_factor must be < 1 / on_fraction to keep the "
                             "long-run rate equal to rate_rps")
        if self.peak_factor < 1:
            raise ValueError("peak_factor must be >= 1")
        if self.ramp_fraction <= 0 or self.peak_fraction <= 0 \
                or 2 * self.ramp_fraction + self.peak_fraction >= 1.0:
            raise ValueError("ramp_fraction and peak_fraction must be positive "
                             "with 2*ramp_fraction + peak_fraction < 1")


def poisson_arrival_times(num_requests: int, rate_rps: float, seed: int = 0) -> np.ndarray:
    """Cumulative arrival times of a Poisson process with mean rate ``rate_rps``."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    return np.cumsum(gaps)


def bursty_arrival_times(
    num_requests: int,
    rate_rps: float,
    seed: int = 0,
    burst_factor: float = 5.0,
    on_fraction: float = 0.1,
    num_cycles: int = 10,
) -> np.ndarray:
    """Arrival times of a two-state (ON/OFF) Markov-modulated Poisson process.

    The ON phase runs at ``burst_factor * rate_rps``; the OFF-phase rate is
    chosen so the time-averaged rate equals ``rate_rps``.  Phase durations are
    exponential with means sized so roughly ``num_cycles`` ON/OFF cycles fit
    into the expected stream duration.
    """
    if burst_factor * on_fraction >= 1.0:
        raise ValueError("burst_factor must be < 1 / on_fraction")
    rng = np.random.default_rng(seed)
    on_rate = rate_rps * burst_factor
    off_rate = rate_rps * (1.0 - burst_factor * on_fraction) / (1.0 - on_fraction)
    expected_duration = num_requests / rate_rps
    cycle_s = expected_duration / max(1, num_cycles)
    mean_on_s = cycle_s * on_fraction
    mean_off_s = cycle_s * (1.0 - on_fraction)

    times: List[float] = []
    now = 0.0
    on_phase = True
    while len(times) < num_requests:
        phase_len = rng.exponential(mean_on_s if on_phase else mean_off_s)
        rate = on_rate if on_phase else off_rate
        t = now
        while len(times) < num_requests:
            t += rng.exponential(1.0 / rate)
            if t > now + phase_len:
                break
            times.append(t)
        now += phase_len
        on_phase = not on_phase
    return np.asarray(times[:num_requests])


def ramp_arrival_times(
    num_requests: int,
    rate_rps: float,
    seed: int = 0,
    peak_factor: float = 4.0,
    ramp_fraction: float = 0.25,
    peak_fraction: float = 0.2,
) -> np.ndarray:
    """Arrival times of an inhomogeneous Poisson process with a burst-ramp.

    The rate profile over the expected stream duration ``T`` is symmetric:
    a quiet baseline plateau, a linear ramp up over ``ramp_fraction * T``, a
    peak plateau of ``peak_fraction * T`` at ``peak_factor`` times the
    baseline, a linear ramp down, and a quiet tail.  The baseline rate is
    derived so the time-averaged rate equals ``rate_rps``.  Arrivals are
    drawn by time-rescaling a unit-rate Poisson process through the inverse
    integrated rate, so the stream is deterministic under ``seed``.
    """
    if peak_factor < 1:
        raise ValueError("peak_factor must be >= 1")
    if ramp_fraction <= 0 or peak_fraction <= 0 \
            or 2 * ramp_fraction + peak_fraction >= 1.0:
        raise ValueError("need 2*ramp_fraction + peak_fraction < 1 with both "
                         "fractions positive")
    if num_requests == 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    duration_s = num_requests / rate_rps
    quiet_fraction = (1.0 - 2 * ramp_fraction - peak_fraction) / 2.0
    # mean(lambda) = lo * (2q + r*(1+pf) + p*pf) must equal rate_rps
    mean_multiple = (2 * quiet_fraction + ramp_fraction * (1.0 + peak_factor)
                     + peak_fraction * peak_factor)
    rate_lo = rate_rps / mean_multiple
    rate_hi = peak_factor * rate_lo
    bounds = np.cumsum([0.0, quiet_fraction, ramp_fraction, peak_fraction,
                        ramp_fraction, quiet_fraction]) * duration_s
    grid = np.linspace(0.0, duration_s, 4096)
    profile = np.piecewise(
        grid,
        [grid < bounds[1],
         (grid >= bounds[1]) & (grid < bounds[2]),
         (grid >= bounds[2]) & (grid < bounds[3]),
         (grid >= bounds[3]) & (grid < bounds[4]),
         grid >= bounds[4]],
        [rate_lo,
         lambda t: rate_lo + (rate_hi - rate_lo)
         * (t - bounds[1]) / (bounds[2] - bounds[1]),
         rate_hi,
         lambda t: rate_hi - (rate_hi - rate_lo)
         * (t - bounds[3]) / (bounds[4] - bounds[3]),
         rate_lo])
    # integrated rate on the grid; invert it to map unit-rate event counts
    # back onto the clock (time-rescaling theorem)
    steps = np.diff(grid)
    integrated = np.concatenate(
        [[0.0], np.cumsum(0.5 * (profile[1:] + profile[:-1]) * steps)])
    unit_times = np.cumsum(rng.exponential(1.0, size=num_requests))
    times = np.interp(unit_times, integrated, grid)
    # events past the profile window continue at the baseline rate
    overflow = unit_times > integrated[-1]
    if overflow.any():
        times[overflow] = duration_s \
            + (unit_times[overflow] - integrated[-1]) / rate_lo
    return times


def trace_arrival_times(trace: Sequence[float], num_requests: Optional[int] = None) -> np.ndarray:
    """Validate and normalise an explicit timestamp trace for replay.

    Timestamps are sorted, shifted so the first arrival is at t=0, and
    truncated to ``num_requests`` when given.
    """
    times = np.sort(np.asarray(list(trace), dtype=np.float64))
    if times.size and times[0] < 0:
        raise ValueError("trace timestamps must be non-negative")
    if times.size:
        times = times - times[0]
    if num_requests is not None:
        times = times[:num_requests]
    return times


class RequestGenerator:
    """Deterministic (seeded) generator of one serving request stream."""

    def __init__(self, num_vertices: int, config: WorkloadConfig):
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        self.num_vertices = int(num_vertices)
        self.config = config

    # ------------------------------------------------------------------ #
    def arrival_times(self, trace: Optional[Sequence[float]] = None) -> np.ndarray:
        """Arrival timestamps according to the configured process."""
        cfg = self.config
        if cfg.arrival == "trace":
            if trace is None:
                raise ValueError("arrival='trace' requires an explicit trace")
            times = trace_arrival_times(trace, cfg.num_requests)
            if times.size < cfg.num_requests:
                raise ValueError(
                    f"trace has {times.size} timestamps but num_requests is "
                    f"{cfg.num_requests}")
            return times
        if cfg.arrival == "bursty":
            return bursty_arrival_times(cfg.num_requests, cfg.rate_rps, seed=cfg.seed,
                                        burst_factor=cfg.burst_factor,
                                        on_fraction=cfg.on_fraction)
        if cfg.arrival == "ramp":
            return ramp_arrival_times(cfg.num_requests, cfg.rate_rps, seed=cfg.seed,
                                      peak_factor=cfg.peak_factor,
                                      ramp_fraction=cfg.ramp_fraction,
                                      peak_fraction=cfg.peak_fraction)
        return poisson_arrival_times(cfg.num_requests, cfg.rate_rps, seed=cfg.seed)

    def target_vertices(self) -> np.ndarray:
        """Per-request target vertices drawn from the skewed popularity law.

        The popularity ranking is a seeded permutation of the vertex ids so the
        hot set is not simply the lowest ids (which would alias with the
        locality dispatch partitioning).
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        if cfg.popularity_skew == 0:
            return rng.integers(0, self.num_vertices, size=cfg.num_requests)
        ranks = np.arange(1, self.num_vertices + 1, dtype=np.float64)
        weights = ranks ** -cfg.popularity_skew
        weights /= weights.sum()
        rank_draws = rng.choice(self.num_vertices, size=cfg.num_requests, p=weights)
        rank_to_vertex = rng.permutation(self.num_vertices)
        return rank_to_vertex[rank_draws]

    def generate(self, trace: Optional[Sequence[float]] = None) -> List[Request]:
        """Materialise the request stream, sorted by arrival time.

        ``trace`` is either a plain timestamp sequence (the classic
        ``arrival='trace'`` path: targets still come from the popularity
        law) or a full request trace -- any object with a
        ``to_requests()`` method, i.e. a
        :class:`~repro.serving.trace.RequestTrace` -- in which case the
        captured stream is replayed verbatim: per-request targets, tenant
        tags and degradation stamps included, after validating it against
        this generator's configuration.
        """
        if trace is not None and hasattr(trace, "to_requests"):
            return self._replay_requests(trace)
        times = self.arrival_times(trace)
        targets = self.target_vertices()
        return [
            Request(request_id=i, target_vertex=int(targets[i]),
                    arrival_time_s=float(times[i]))
            for i in range(self.config.num_requests)
        ]

    def _replay_requests(self, trace) -> List[Request]:
        """Validate and materialise a captured request trace for replay."""
        cfg = self.config
        if cfg.arrival != "trace":
            raise ValueError(
                f"replaying a request trace requires arrival='trace', "
                f"got {cfg.arrival!r}")
        requests: List[Request] = trace.to_requests()
        if len(requests) != cfg.num_requests:
            raise ValueError(
                f"trace has {len(requests)} requests but num_requests is "
                f"{cfg.num_requests}")
        for r in requests:
            if not 0 <= r.target_vertex < self.num_vertices:
                raise ValueError(
                    f"trace targets vertex {r.target_vertex}, outside this "
                    f"graph's {self.num_vertices} vertices (was the trace "
                    f"captured on a different dataset?)")
        return requests


def merge_tenant_streams(
        streams: Mapping[str, Sequence[Request]]) -> List[Request]:
    """Interleave per-tenant request streams into one time-sorted stream.

    Every request is re-tagged with its tenant's name and re-numbered so
    request ids are globally unique across tenants.  Ties in arrival time
    break by tenant name then original id, keeping the merge deterministic
    regardless of dict insertion order.
    """
    tagged: List[Tuple[float, str, int, Request]] = []
    for name, stream in streams.items():
        if not name:
            raise ValueError("tenant names must be non-empty")
        tagged.extend((r.arrival_time_s, name, r.request_id, r)
                      for r in stream)
    tagged.sort(key=itemgetter(0, 1, 2))
    # built directly, fields in declaration order: a third of the cost of
    # dataclasses.replace, which the tenants' 10^4-request streams notice
    return [Request(i, r.target_vertex, r.arrival_time_s, name,
                    r.degrade_level, r.degrade_hops, r.degrade_fanout)
            for i, (_, name, _, r) in enumerate(tagged)]


def split_tenant_stream(requests: Sequence[Request]) -> Dict[str, List[Request]]:
    """Group a merged stream back into per-tenant lists (arrival order kept)."""
    by_tenant: Dict[str, List[Request]] = {}
    for r in requests:
        by_tenant.setdefault(r.tenant, []).append(r)
    return by_tenant
