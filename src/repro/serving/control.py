"""Elastic control plane: autoscaling, admission control, graceful degradation.

The serving fleet (:mod:`repro.serving.fleet`, :mod:`repro.serving.tenancy`)
is a data plane: it batches, schedules and simulates.  The control plane
watches it at a fixed *control interval* and acts through three levers:

* **Autoscaling** -- grow or shrink the chip fleet between
  ``min_chips``/``max_chips`` under a pluggable policy
  (:data:`AUTOSCALE_POLICIES`): ``threshold`` (hysteresis on queueing delay
  with scale-down patience), ``pid`` (a PID controller on the queue-delay
  error against a setpoint fraction of the SLO) and ``ewma`` (predictive --
  an EWMA of the observed arrival rate sized against per-chip capacity).
  A freshly added chip *warms up* for ``warmup_s`` during which it consumes
  chip-seconds but serves nothing (weight streaming, cache fill); scale-in
  *drains* a chip -- it finishes its outstanding work and only then retires.
* **Admission control** -- a per-tenant :class:`TokenBucket` polices the
  offered rate, and reactive shedding rejects requests whose queueing-delay
  estimate already exceeds the SLO budget, so the fleet spends chip time on
  requests that can still meet their deadline.
* **Graceful degradation** -- instead of shedding, an overloaded fleet can
  serve a request at reduced sampling fidelity: the
  :func:`default_degradation_ladder` derives successively cheaper
  (hops, fanout) rungs from the tenant's configured sampling shape, and the
  first rung whose estimated cost fits the remaining SLO budget is stamped
  onto the request.  Degraded records are tagged so the quality loss is
  reported, never hidden.  Under the overlap-aware batch-formation
  policies (:mod:`repro.serving.batching`) the ladder's expected savings
  are damped by the fleet's measured overlap ratio -- work shared with
  co-batched neighbours cannot be saved twice (see
  :meth:`~repro.serving.fleet.FleetScaler.admit`).

This module holds the pure parts -- the configuration, the sizing policies,
the token bucket and the degradation ladder -- which tests drive
standalone.  The one object that applies them to a run is
:class:`~repro.serving.fleet.FleetScaler`: it adds and drains chips and
pushes its own control events, so it lives beside the event loop.
Everything is deterministic -- nothing here draws randomness -- so elastic
runs reproduce bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from .hetero import SCALE_SHAPE_POLICIES

__all__ = [
    "AUTOSCALE_POLICIES",
    "AutoscalePolicy",
    "ThresholdPolicy",
    "PIDPolicy",
    "EWMAPolicy",
    "build_autoscale_policy",
    "TokenBucket",
    "DegradeLevel",
    "default_degradation_ladder",
    "ControlConfig",
    "ControlObservation",
    "AdmissionDecision",
]

#: Autoscaling-policy names accepted by the CLI and :func:`build_autoscale_policy`.
AUTOSCALE_POLICIES = ("threshold", "pid", "ewma")


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ControlConfig:
    """Which levers are armed and how they are parameterised.

    ``autoscale=None`` pins the fleet size (admission/degradation can still be
    armed).  ``control_interval_s``/``warmup_s`` default to adaptive values
    derived from a probe batch's service time, like the data-plane timeout and
    SLO defaults, so the control loop stays meaningful across datasets whose
    batch cost varies by orders of magnitude.  ``admission_rate_rps=None``
    auto-sizes each tenant's token bucket to its weight share of the largest
    fleet the run can hold (the ``max_chips`` ceiling when autoscaling, the
    fixed fleet size otherwise) times a burst-headroom multiple -- the bucket
    polices sustained gross overload while the SLO-budget check does the
    precision shedding.  ``policy_params`` overrides the chosen policy's
    constructor defaults (e.g. ``{"patience": 1}`` for a twitchier threshold
    scaler).

    ``scale_shape`` only matters on heterogeneous fleets
    (:mod:`repro.serving.hetero`): it picks *which* chip shape a scale-up
    commissions and which a scale-down drains first --
    ``cheapest-adequate`` (the leanest shape whose learned rate for the
    dominant demand is close enough to the best) or ``bottleneck-phase``
    (the best-rated shape for the dominant demand, whatever it costs).
    Homogeneous fleets have one shape and ignore it.
    """

    autoscale: Optional[str] = None
    min_chips: int = 1
    max_chips: int = 8
    control_interval_s: Optional[float] = None
    warmup_s: Optional[float] = None
    policy_params: Mapping[str, float] = field(default_factory=dict)
    admission: bool = False
    admission_rate_rps: Optional[float] = None
    admission_burst: float = 32.0
    #: Fraction of the SLO the delay estimate may fill before a request is
    #: shed/degraded; < 1 leaves headroom for estimation error.
    admission_slo_margin: float = 0.85
    degrade: bool = False
    max_degrade_level: int = 2
    scale_shape: str = "cheapest-adequate"

    def __post_init__(self) -> None:
        if self.scale_shape not in SCALE_SHAPE_POLICIES:
            raise ValueError(f"scale_shape must be one of "
                             f"{SCALE_SHAPE_POLICIES}, "
                             f"got {self.scale_shape!r}")
        if self.autoscale is not None and self.autoscale not in AUTOSCALE_POLICIES:
            raise ValueError(f"autoscale must be one of {AUTOSCALE_POLICIES} "
                             f"or None, got {self.autoscale!r}")
        if self.min_chips < 1:
            raise ValueError("min_chips must be >= 1")
        if self.max_chips < self.min_chips:
            raise ValueError("max_chips must be >= min_chips")
        if self.control_interval_s is not None and self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be positive when set")
        if self.warmup_s is not None and self.warmup_s < 0:
            raise ValueError("warmup_s must be >= 0 when set")
        if self.admission_rate_rps is not None and self.admission_rate_rps <= 0:
            raise ValueError("admission_rate_rps must be positive when set")
        if self.admission_burst < 1:
            raise ValueError("admission_burst must be >= 1")
        if self.admission_slo_margin <= 0:
            raise ValueError("admission_slo_margin must be positive")
        if self.max_degrade_level < 1:
            raise ValueError("max_degrade_level must be >= 1")

    @property
    def active(self) -> bool:
        """True when any lever is armed (the loop skips all hooks otherwise)."""
        return self.autoscale is not None or self.admission or self.degrade


# --------------------------------------------------------------------------- #
# Observations and decisions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ControlObservation:
    """What the data plane saw over the last control interval."""

    now_s: float
    interval_s: float
    active_chips: int
    warming_chips: int
    draining_chips: int
    queue_depth: int          # admitted-but-incomplete requests right now
    backlog_cost_s: float     # estimated chip-seconds of that outstanding work
    arrivals: int             # offered this interval (before admission)
    completions: int
    violations: int           # completions over the SLO this interval
    shed: int
    utilization: float        # busy fraction of the active chips
    cost_per_request_s: float  # EWMA chip-seconds per completed request
    slo_s: float

    @property
    def arrival_rate_rps(self) -> float:
        return self.arrivals / self.interval_s if self.interval_s > 0 else 0.0

    @property
    def est_queue_delay_s(self) -> float:
        """Backlog drain time across the currently serving chips."""
        return self.backlog_cost_s / max(1, self.active_chips)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``cost_scale`` is the estimated service-cost multiplier of the granted
    fidelity (1.0 full fidelity); the data plane uses it for backlog
    accounting.  ``num_hops``/``fanout`` are ``None`` unless degraded.
    """

    admitted: bool
    level: int = 0
    num_hops: Optional[int] = None
    fanout: Optional[int] = None
    cost_scale: float = 1.0
    reason: str = "admitted"


# --------------------------------------------------------------------------- #
# Autoscaling policies
# --------------------------------------------------------------------------- #
class AutoscalePolicy:
    """Base policy: map an observation to a desired fleet size.

    ``desired_chips`` receives ``current`` = active + warming (committed
    capacity); the scaler clamps the answer into ``[min_chips, max_chips]``.
    Policies are stateful (hysteresis counters, integrators, EWMAs) and are
    constructed fresh for every run, which keeps elastic runs deterministic.
    """

    name = "fixed"

    def desired_chips(self, obs: ControlObservation, current: int) -> int:
        return current


class ThresholdPolicy(AutoscalePolicy):
    """Hysteresis on the queue-delay fraction of the SLO.

    Scale up by ``step`` after ``patience`` consecutive intervals with the
    delay estimate above ``up_delay_fraction`` of the SLO; scale down by one
    after ``patience`` consecutive intervals with the delay below
    ``down_delay_fraction`` *and* utilization below ``down_utilization``.
    The dead band between the thresholds is what stops flapping.
    """

    name = "threshold"

    def __init__(self, up_delay_fraction: float = 0.5,
                 down_delay_fraction: float = 0.1,
                 down_utilization: float = 0.6,
                 patience: int = 2, step: int = 1):
        if not 0 < down_delay_fraction < up_delay_fraction:
            raise ValueError("need 0 < down_delay_fraction < up_delay_fraction")
        if patience < 1 or step < 1:
            raise ValueError("patience and step must be >= 1")
        self.up_delay_fraction = float(up_delay_fraction)
        self.down_delay_fraction = float(down_delay_fraction)
        self.down_utilization = float(down_utilization)
        self.patience = int(patience)
        self.step = int(step)
        self._over = 0
        self._under = 0

    def desired_chips(self, obs: ControlObservation, current: int) -> int:
        delay_fraction = obs.est_queue_delay_s / obs.slo_s if obs.slo_s > 0 else 0.0
        if delay_fraction > self.up_delay_fraction:
            self._over += 1
            self._under = 0
        elif delay_fraction < self.down_delay_fraction \
                and obs.utilization < self.down_utilization:
            self._under += 1
            self._over = 0
        else:
            self._over = self._under = 0
        if self._over >= self.patience:
            self._over = 0
            return current + self.step
        if self._under >= self.patience:
            self._under = 0
            return current - 1
        return current


class PIDPolicy(AutoscalePolicy):
    """PID controller on the queue delay, normalised by the SLO.

    The error is ``delay/slo - setpoint_fraction``; the output is a chip
    delta clamped to ``±max_step`` per interval.  The integral term is
    clamped (anti-windup) so a long overload does not bank unbounded
    scale-down pressure afterwards.
    """

    name = "pid"

    def __init__(self, setpoint_fraction: float = 0.25, kp: float = 2.0,
                 ki: float = 0.5, kd: float = 0.5, max_step: int = 2,
                 integral_limit: float = 4.0):
        if setpoint_fraction <= 0:
            raise ValueError("setpoint_fraction must be positive")
        if max_step < 1:
            raise ValueError("max_step must be >= 1")
        self.setpoint_fraction = float(setpoint_fraction)
        self.kp, self.ki, self.kd = float(kp), float(ki), float(kd)
        self.max_step = int(max_step)
        self.integral_limit = float(integral_limit)
        self._integral = 0.0
        self._prev_error: Optional[float] = None

    def desired_chips(self, obs: ControlObservation, current: int) -> int:
        delay_fraction = obs.est_queue_delay_s / obs.slo_s if obs.slo_s > 0 else 0.0
        error = delay_fraction - self.setpoint_fraction
        self._integral = max(-self.integral_limit,
                             min(self.integral_limit, self._integral + error))
        derivative = 0.0 if self._prev_error is None else error - self._prev_error
        self._prev_error = error
        output = self.kp * error + self.ki * self._integral + self.kd * derivative
        delta = int(round(max(-self.max_step, min(self.max_step, output))))
        return current + delta


class EWMAPolicy(AutoscalePolicy):
    """Predictive sizing from an EWMA of the offered arrival rate.

    Desired chips = predicted rate x chip-seconds per request /
    ``target_utilization`` (+ ``headroom_chips``).  Unlike the reactive
    policies it scales *before* the backlog builds, at the price of trusting
    the cost estimate.
    """

    name = "ewma"

    def __init__(self, alpha: float = 0.5, target_utilization: float = 0.7,
                 headroom_chips: int = 0):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if target_utilization <= 0:
            raise ValueError("target_utilization must be positive")
        if headroom_chips < 0:
            raise ValueError("headroom_chips must be >= 0")
        self.alpha = float(alpha)
        self.target_utilization = float(target_utilization)
        self.headroom_chips = int(headroom_chips)
        self._rate: Optional[float] = None

    def desired_chips(self, obs: ControlObservation, current: int) -> int:
        rate = obs.arrival_rate_rps
        self._rate = rate if self._rate is None \
            else self.alpha * rate + (1 - self.alpha) * self._rate
        demand_chips = self._rate * obs.cost_per_request_s / self.target_utilization
        return max(1, math.ceil(demand_chips)) + self.headroom_chips


_POLICY_CLASSES = {
    "threshold": ThresholdPolicy,
    "pid": PIDPolicy,
    "ewma": EWMAPolicy,
}


def build_autoscale_policy(name: str,
                           params: Optional[Mapping[str, float]] = None
                           ) -> AutoscalePolicy:
    """Construct the autoscaling policy ``name`` with ``params`` overrides."""
    if name not in _POLICY_CLASSES:
        raise ValueError(f"unknown autoscale policy {name!r}; "
                         f"choose from {AUTOSCALE_POLICIES}")
    try:
        return _POLICY_CLASSES[name](**dict(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for autoscale policy {name!r}: "
                         f"{exc}") from exc


# --------------------------------------------------------------------------- #
# Admission control primitives
# --------------------------------------------------------------------------- #
class TokenBucket:
    """Classic token-bucket rate limiter on the simulated clock.

    Refills continuously at ``rate_rps`` up to ``burst`` tokens; each admitted
    request spends one token.  The first call anchors the clock, so buckets
    start full no matter when the tenant's traffic begins.
    """

    def __init__(self, rate_rps: float, burst: float = 32.0):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_rps = float(rate_rps)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_s: Optional[float] = None

    def try_acquire(self, now_s: float) -> bool:
        """Spend one token if available; refill according to elapsed time."""
        if self._last_s is None:
            self._last_s = now_s
        elif now_s > self._last_s:
            self._tokens = min(self.burst, self._tokens
                               + (now_s - self._last_s) * self.rate_rps)
            self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class DegradeLevel:
    """One rung of the degradation ladder: a cheaper sampling shape.

    ``cost_scale`` is the estimated service-cost ratio against full fidelity,
    derived from the expected neighbourhood sizes.
    """

    level: int
    num_hops: int
    fanout: int
    cost_scale: float


def _neighborhood_size(num_hops: int, fanout: int) -> float:
    """Expected vertex count of a fanout-capped ``num_hops`` neighbourhood."""
    return float(sum(fanout ** k for k in range(num_hops + 1)))


def default_degradation_ladder(num_hops: int, fanout: int,
                               max_levels: int = 2) -> List[DegradeLevel]:
    """Successively cheaper (hops, fanout) rungs below the configured shape.

    Each rung halves the fanout; once the fanout reaches 1 the ladder drops a
    hop instead.  The ladder stops early when no cheaper shape exists (e.g.
    ``num_hops=0``), so a degraded request always still answers *something*
    about its target's neighbourhood.
    """
    ladder: List[DegradeLevel] = []
    base = _neighborhood_size(num_hops, fanout)
    hops, fan = num_hops, fanout
    for level in range(1, max_levels + 1):
        if fan > 1:
            fan = max(1, fan // 2)
        elif hops > 1:
            hops -= 1
        else:
            break
        ladder.append(DegradeLevel(
            level=level, num_hops=hops, fanout=fan,
            cost_scale=_neighborhood_size(hops, fan) / base))
    return ladder
