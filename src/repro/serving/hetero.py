"""Heterogeneous fleets: mixed HyGCN chip shapes with shape-aware dispatch.

HyGCN's central design question (the paper's Table 6 is one answer) is how
to split a chip's silicon between the irregular, memory-bound **aggregation**
phase and the regular, MAC-bound **combination** phase.  A serving fleet does
not have to commit to one answer: this module lets every chip carry a
different :class:`~repro.core.config.HyGCNConfig` *shape* and teaches the
dispatchers which shape suits which batch.

Three building blocks:

* **Shape presets** (:data:`SHAPE_PRESETS`) -- named
  :class:`~repro.core.config.HyGCNConfig` variants.  ``agg_heavy``
  provisions the memory system the aggregation phase is bound by (double
  the HBM channels, wide SIMD, big input/edge/aggregation buffers) at the
  price of a quarter of the systolic modules; ``comb_heavy`` doubles the
  systolic modules and the weight/output buffers behind the combination
  phase's MVMs at the price of SIMD width and aggregation-side buffering;
  ``balanced`` is the paper's Table 6 configuration.  A
  :class:`FleetSpec` composes presets into a fleet roster (inline, via
  :func:`fleet_spec_for_mix`, or from a JSON file via
  :func:`load_fleet_spec`).

* **Batch profiles** (:class:`BatchProfile`) -- a cheap, deterministic
  summary of what a batch will ask of a chip, computed from the sampler's
  memoised :meth:`~repro.serving.sampler.SubgraphSampler.fused_size`
  (no graph is built): the estimated deduped fused-vertex count, the
  estimated overlap ratio, and the tenant's feature length.  Profiles
  discretise into a small set of **buckets** (:meth:`BatchProfile.bucket`)
  so per-shape service rates can be learned per workload regime instead of
  per batch.

* **Shape scoring** (:class:`ShapeScorer`) -- an EWMA of *measured* service
  seconds per fused vertex, keyed ``(chip shape, profile bucket)`` and
  seeded from the per-shape probe batches the fleet already runs.  The
  ``shape-aware`` dispatch policy ranks schedulable chips by
  ``backlog + rate(shape, bucket) * est_fused_vertices`` and falls back to
  least-loaded whenever any candidate shape is still *cold* for the
  batch's bucket (no seed, no observation yet), so an unlearned regime is
  never routed on a guess.

Autoscaling composes with all of it: :class:`ShapeChooser` picks *which*
shape an elastic fleet should add (or retire first) under one of the
:data:`SCALE_SHAPE_POLICIES` -- ``cheapest-adequate`` (the lowest
silicon-cost shape whose learned rate for the currently dominant demand
bucket is within an adequacy factor of the best shape's) or
``bottleneck-phase`` (always the shape with the best rate for the dominant
bucket, i.e. attack the bottleneck regardless of cost).

Everything here is deterministic: presets are fixed configs, profiles come
from the seeded sampler's memos, the scorer folds in measured service times
in event order, and every tie breaks on names or chip ids.  See
``docs/heterogeneity.md`` for the scoring formula, a worked example and the
JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.config import HyGCNConfig
from ..hw.dram import HBMConfig

__all__ = [
    "SHAPE_PRESETS",
    "SHAPE_MIXES",
    "SCALE_SHAPE_POLICIES",
    "DEFAULT_SHAPE",
    "ShapeSpec",
    "FleetSpec",
    "load_fleet_spec",
    "fleet_spec_for_mix",
    "shape_hw",
    "shape_cost",
    "shape_table",
    "BatchProfile",
    "make_profile_fn",
    "account_batch_service",
    "ShapeScorer",
    "ShapeChooser",
]

KIB = 1024
MIB = 1024 * 1024

#: The shape every homogeneous fleet implicitly runs (the paper's Table 6).
DEFAULT_SHAPE = "balanced"


def _build_presets() -> Dict[str, HyGCNConfig]:
    """The three named chip shapes.

    The presets deliberately trade resources instead of stacking them, so a
    mixed fleet has real routing decisions to make:

    * ``balanced`` -- the evaluated Table 6 configuration, competent at
      everything and best at nothing in particular.
    * ``agg_heavy`` -- double the HBM channels (512 GB/s), 1024 SIMD lanes
      and 4x the input/edge/aggregation buffers feed the irregular
      neighbourhood streaming that bounds the aggregation phase; only 4
      systolic modules and halved weight/output buffers remain for the
      combination phase.  Fastest when a batch's cost is dominated by
      feature/weight streaming (shallow neighbourhoods over long-feature
      graphs), slowest when it is MAC-dense.
    * ``comb_heavy`` -- 16 systolic modules (8192 PEs) plus doubled
      weight/output buffers attack the combination phase's MVMs; SIMD
      width and the aggregation-side buffers are halved and the HBM stack
      stays at the baseline 256 GB/s.  Fastest on MAC-dense batches (wide
      or deep sampled neighbourhoods, where every sampled vertex must be
      combined), no help when the batch is bandwidth-bound.
    """
    return {
        "balanced": HyGCNConfig(),
        "agg_heavy": HyGCNConfig(
            num_simd_cores=64, simd_width=16,
            num_systolic_modules=4,
            input_buffer_bytes=512 * KIB,
            edge_buffer_bytes=8 * MIB,
            aggregation_buffer_bytes=32 * MIB,
            weight_buffer_bytes=1 * MIB,
            output_buffer_bytes=2 * MIB,
            hbm=HBMConfig(num_channels=16),
        ),
        "comb_heavy": HyGCNConfig(
            num_simd_cores=16, simd_width=16,
            num_systolic_modules=16,
            input_buffer_bytes=64 * KIB,
            edge_buffer_bytes=1 * MIB,
            aggregation_buffer_bytes=8 * MIB,
            weight_buffer_bytes=4 * MIB,
            output_buffer_bytes=8 * MIB,
        ),
    }


#: Chip-shape presets accepted by :class:`FleetSpec` and the CLI.
SHAPE_PRESETS: Dict[str, HyGCNConfig] = _build_presets()

#: ``--shape-mix`` presets: fraction of the fleet per shape.  ``mixed`` is
#: the 50/50 agg/comb split the heterogeneity acceptance runs use; odd chip
#: counts round the remainder onto a ``balanced`` chip.
SHAPE_MIXES: Dict[str, Tuple[Tuple[str, float], ...]] = {
    "balanced": (("balanced", 1.0),),
    "agg-heavy": (("agg_heavy", 1.0),),
    "comb-heavy": (("comb_heavy", 1.0),),
    "mixed": (("agg_heavy", 0.5), ("comb_heavy", 0.5)),
}

#: Scale-up shape-choice policies accepted by
#: :class:`~repro.serving.control.ControlConfig` and the CLI.
SCALE_SHAPE_POLICIES = ("cheapest-adequate", "bottleneck-phase")


def shape_hw(name: str) -> HyGCNConfig:
    """The :class:`HyGCNConfig` of preset ``name`` (actionable on typos)."""
    try:
        return SHAPE_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown chip-shape preset {name!r}; "
                         f"choose from {sorted(SHAPE_PRESETS)}") from None


def shape_cost(hw: HyGCNConfig) -> float:
    """Relative silicon-cost proxy of one chip shape (arbitrary units).

    Weighs the resources the presets trade against each other: systolic
    PEs, SIMD lanes (a lane is several PEs' worth of datapath plus its
    operand bandwidth), on-chip SRAM capacity and HBM channels.  Only the
    *ordering* matters -- ``cheapest-adequate`` autoscaling uses it to
    prefer the leaner of two shapes that serve the demand equally well.
    """
    sram_kib = (hw.input_buffer_bytes + hw.edge_buffer_bytes
                + hw.weight_buffer_bytes + hw.output_buffer_bytes
                + hw.aggregation_buffer_bytes) / KIB
    return (hw.total_pes + 4.0 * hw.total_simd_lanes + 0.25 * sram_kib
            + 512.0 * hw.hbm.num_channels)


def shape_table() -> List[Dict[str, object]]:
    """One row per preset: the parameters a shape actually changes."""
    rows = []
    for name, hw in SHAPE_PRESETS.items():
        rows.append({
            "shape": name,
            "simd_lanes": hw.total_simd_lanes,
            "systolic_modules": hw.num_systolic_modules,
            "pes": hw.total_pes,
            "edge_buffer_mb": round(hw.edge_buffer_bytes / MIB, 2),
            "weight_buffer_mb": round(hw.weight_buffer_bytes / MIB, 2),
            "hbm_gbps": hw.hbm.peak_bandwidth_gbps,
            "rel_cost": round(shape_cost(hw) / shape_cost(SHAPE_PRESETS["balanced"]), 2),
        })
    return rows


# --------------------------------------------------------------------------- #
# Fleet composition
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShapeSpec:
    """``count`` chips of one shape.

    ``preset`` names a :data:`SHAPE_PRESETS` entry; ``overrides`` (flat
    :class:`HyGCNConfig` field -> value) lets a spec tweak a preset, in
    which case ``name`` should distinguish the tweaked shape (it defaults
    to the preset name and keys the scorer's learned rates).
    """

    preset: str
    count: int = 1
    name: Optional[str] = None
    overrides: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if self.preset not in SHAPE_PRESETS:
            raise ValueError(f"unknown chip-shape preset {self.preset!r}; "
                             f"choose from {sorted(SHAPE_PRESETS)}")
        if self.count < 1:
            raise ValueError(f"shape {self.preset!r}: count must be >= 1, "
                             f"got {self.count}")
        if self.overrides:
            valid = {f.name for f in fields(HyGCNConfig)} - {"hbm", "energy"}
            unknown = set(self.overrides) - valid
            if unknown:
                raise ValueError(
                    f"shape {self.shape_name!r}: unknown HyGCNConfig override "
                    f"keys {sorted(unknown)}; valid keys are {sorted(valid)} "
                    f"(nested hbm/energy configs cannot be overridden here)")

    @property
    def shape_name(self) -> str:
        return self.name if self.name else self.preset

    def build_hw(self) -> HyGCNConfig:
        hw = SHAPE_PRESETS[self.preset]
        if self.overrides:
            hw = hw.with_overrides(**dict(self.overrides))
        return hw


@dataclass(frozen=True)
class FleetSpec:
    """The shape roster of one heterogeneous fleet.

    Chips are laid out in spec order (all of entry 0, then entry 1, ...),
    so chip ids map deterministically onto shapes.  A single-entry
    ``balanced`` spec is behaviourally identical to a homogeneous fleet of
    the same size (the bit-for-bit test in ``tests/serving/test_hetero.py``
    pins this).
    """

    shapes: Tuple[ShapeSpec, ...]

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError("fleet spec must name at least one shape entry")
        names = [s.shape_name for s in self.shapes]
        if len(set(names)) != len(names):
            raise ValueError(f"fleet spec shape names must be unique, got "
                             f"{names}; give tweaked presets a 'name'")

    @property
    def num_chips(self) -> int:
        return sum(s.count for s in self.shapes)

    def roster(self) -> List[Tuple[str, HyGCNConfig]]:
        """One ``(shape name, hw config)`` entry per chip, in chip-id order."""
        out: List[Tuple[str, HyGCNConfig]] = []
        for spec in self.shapes:
            hw = spec.build_hw()
            out.extend((spec.shape_name, hw) for _ in range(spec.count))
        return out

    def distinct_shapes(self) -> Dict[str, HyGCNConfig]:
        """Shape name -> hw config, in spec order (deterministic)."""
        return {s.shape_name: s.build_hw() for s in self.shapes}

    def to_dict(self) -> Dict[str, object]:
        return {"shapes": [
            {k: v for k, v in (
                ("preset", s.preset), ("count", s.count), ("name", s.name),
                ("overrides", dict(s.overrides) if s.overrides else None),
            ) if v is not None}
            for s in self.shapes]}


def load_fleet_spec(source: Union[str, Mapping, Sequence]) -> FleetSpec:
    """Parse a fleet spec from a JSON file path, a dict, or a list.

    The JSON shape is ``{"shapes": [{"preset": "agg_heavy", "count": 4},
    ...]}`` or a bare list of those entries; entry keys mirror
    :class:`ShapeSpec`.  Unknown keys and unknown presets are rejected with
    the valid alternatives listed, so a typo fails loudly.
    """
    if isinstance(source, str):
        try:
            with open(source) as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fleet spec {source!r} is not valid JSON: "
                             f"{exc}") from exc
    else:
        data = source
    if isinstance(data, Mapping):
        if "shapes" not in data:
            raise ValueError("fleet spec object must have a 'shapes' list, "
                             "e.g. {\"shapes\": [{\"preset\": \"agg_heavy\", "
                             "\"count\": 4}]}")
        data = data["shapes"]
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise ValueError("fleet spec must be a list of shape entries "
                         "(or an object with a 'shapes' list)")
    known = {f.name for f in fields(ShapeSpec)}
    specs: List[ShapeSpec] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, Mapping):
            raise ValueError(f"fleet spec shape #{i} is not an object")
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"fleet spec shape #{i} has unknown keys "
                             f"{sorted(unknown)}; valid keys are "
                             f"{sorted(known)}")
        if "preset" not in entry:
            raise ValueError(f"fleet spec shape #{i} is missing 'preset'; "
                             f"choose from {sorted(SHAPE_PRESETS)}")
        try:
            specs.append(ShapeSpec(**entry))
        except TypeError as exc:  # e.g. a string where a number belongs
            raise ValueError(f"fleet spec shape #{i} is malformed: "
                             f"{exc}") from exc
    return FleetSpec(shapes=tuple(specs))


def fleet_spec_for_mix(mix: str, num_chips: int) -> FleetSpec:
    """Resolve a :data:`SHAPE_MIXES` preset to a sized :class:`FleetSpec`.

    Fractions are apportioned largest-remainder-free: each shape gets
    ``floor(fraction * num_chips)`` chips and any remainder lands on one
    extra ``balanced`` chip, so a ``mixed`` fleet of 5 is 2+2+1.
    """
    if mix not in SHAPE_MIXES:
        raise ValueError(f"unknown shape mix {mix!r}; "
                         f"choose from {sorted(SHAPE_MIXES)}")
    if num_chips < 1:
        raise ValueError("num_chips must be >= 1")
    counts: Dict[str, int] = {}
    assigned = 0
    for shape, fraction in SHAPE_MIXES[mix]:
        count = int(fraction * num_chips)
        if count > 0:
            counts[shape] = counts.get(shape, 0) + count
            assigned += count
    if assigned < num_chips:
        counts["balanced"] = counts.get("balanced", 0) + (num_chips - assigned)
    return FleetSpec(shapes=tuple(ShapeSpec(preset=name, count=count)
                                  for name, count in counts.items()))


# --------------------------------------------------------------------------- #
# Batch profiles
# --------------------------------------------------------------------------- #
#: Tier edges of the aggregation/combination intensity ratio: below the
#: first edge a batch is combination-stream/MAC bound per neighbourhood
#: vertex ("comb"), above the second its cost is dominated by irregular
#: neighbourhood streaming ("agg").
_RATIO_TIERS = (0.01, 0.1)
#: Overlap tier edge: above this the fused graph is mostly shared work.
_OVERLAP_TIER = 0.5


@dataclass(frozen=True)
class BatchProfile:
    """Cheap summary of one batch's demand, used to pick a chip shape.

    All fields are *estimates* from the sampler's memoised
    :meth:`~repro.serving.sampler.SubgraphSampler.fused_size` -- dictionary
    lookups, no graph construction -- so profiling a batch costs
    microseconds of host time and is bit-for-bit deterministic under the
    sampler seed.
    """

    est_fused_vertices: int
    est_naive_vertices: int
    batch_size: int
    feature_length: int

    @property
    def overlap_est(self) -> float:
        """Estimated fused-dedup ratio (``1 - fused/naive``)."""
        if self.est_naive_vertices <= 0:
            return 0.0
        return 1.0 - self.est_fused_vertices / self.est_naive_vertices

    @property
    def neighbourhood_per_request(self) -> float:
        """Distinct fused neighbourhood vertices each member request adds."""
        if self.batch_size <= 0:
            return 0.0
        return self.est_fused_vertices / self.batch_size

    @property
    def agg_comb_ratio(self) -> float:
        """Irregular-vs-regular intensity: neighbourhood breadth per unit of
        feature length.

        High values mean wide/deep sampled neighbourhoods over short
        features (the per-vertex MVM and feature-streaming work is small
        next to the neighbourhood fan-in); low values mean shallow
        neighbourhoods over long features (weight/feature streaming and
        MACs dominate).  Dimensionless; only the tier it lands in matters.
        """
        return self.neighbourhood_per_request / max(1, self.feature_length)

    @property
    def bucket(self) -> str:
        """Discretised profile: ``{comb,mixed,agg}`` tier x overlap tier.

        Six buckets total -- coarse on purpose, so per-(shape, bucket)
        rates warm up after a handful of batches instead of fragmenting
        across a fine grid.
        """
        ratio = self.agg_comb_ratio
        if ratio < _RATIO_TIERS[0]:
            phase = "comb"
        elif ratio < _RATIO_TIERS[1]:
            phase = "mixed"
        else:
            phase = "agg"
        overlap = "hi" if self.overlap_est >= _OVERLAP_TIER else "lo"
        return f"{phase}|ov-{overlap}"


def make_profile_fn(sampler, feature_length: int):
    """``batch -> BatchProfile`` bound to ``sampler``.

    Honours per-request degrade overrides (a degraded request is profiled
    at the shape it will actually sample), exactly like the service-time
    model does.  Each :class:`~repro.serving.fleet.TenantRuntime` that
    tracks shapes binds one.
    """
    def profile(batch) -> BatchProfile:
        fused, naive = sampler.fused_size(
            (r.target_vertex, r.degrade_hops, r.degrade_fanout)
            for r in batch.requests)
        return BatchProfile(est_fused_vertices=fused,
                            est_naive_vertices=naive,
                            batch_size=batch.size,
                            feature_length=feature_length)
    return profile


# --------------------------------------------------------------------------- #
# Shape scoring
# --------------------------------------------------------------------------- #
class ShapeScorer:
    """EWMA of measured service seconds per fused vertex, per (shape, bucket).

    ``seed`` primes a key from the per-shape probe batch (the existing
    probe machinery, run once per distinct shape); ``observe`` folds in
    every measured batch service.  A ``(shape, bucket)`` with neither is
    *cold* (:meth:`rate` returns ``None``) and the dispatcher falls back to
    least-loaded for that batch -- a batch served under the fallback still
    feeds ``observe``, so buckets warm up from real traffic.

    The scorer also counts how often each bucket was demanded
    (:meth:`note_demand`), which is the demand signal the autoscaler's
    :class:`ShapeChooser` keys its shape decisions on.  Deterministic: all
    state is folded in event order and ties break lexicographically.
    """

    def __init__(self, alpha: float = 0.3):
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self._rates: Dict[Tuple[str, str], float] = {}
        self._demand: Dict[str, int] = {}

    def seed(self, shape: str, bucket: str, rate_s_per_vertex: float) -> None:
        """Prime ``(shape, bucket)`` with a probe-measured rate (no-op if a
        rate is already known -- observations must never be clobbered)."""
        self._rates.setdefault((shape, bucket), float(rate_s_per_vertex))

    def observe(self, shape: str, bucket: str,
                rate_s_per_vertex: float) -> None:
        """Fold one measured batch rate into the ``(shape, bucket)`` EWMA."""
        key = (shape, bucket)
        old = self._rates.get(key)
        if old is None:
            self._rates[key] = float(rate_s_per_vertex)
        else:
            self._rates[key] = self.alpha * float(rate_s_per_vertex) \
                + (1 - self.alpha) * old

    def note_demand(self, bucket: str) -> None:
        """Count one dispatched batch against ``bucket`` (demand signal)."""
        self._demand[bucket] = self._demand.get(bucket, 0) + 1

    def rate(self, shape: str, bucket: str) -> Optional[float]:
        """Learned seconds per fused vertex, or ``None`` while cold."""
        return self._rates.get((shape, bucket))

    def rate_or_default(self, shape: str, bucket: str) -> float:
        """Rate with a cold fallback: the mean of the shape's known rates
        (0.0 if the shape is entirely cold).  Used only for backlog
        estimation, never to decide warm-vs-cold routing."""
        rate = self._rates.get((shape, bucket))
        if rate is not None:
            return rate
        known = [r for (s, _), r in self._rates.items() if s == shape]
        return sum(known) / len(known) if known else 0.0

    def warm(self, shapes: Sequence[str], bucket: str) -> bool:
        """True when every shape in ``shapes`` has a rate for ``bucket``."""
        return all((s, bucket) in self._rates for s in shapes)

    def dominant_bucket(self) -> Optional[str]:
        """The most-demanded bucket so far (ties break lexicographically)."""
        if not self._demand:
            return None
        return min(self._demand, key=lambda b: (-self._demand[b], b))

    def snapshot(self) -> Dict[str, float]:
        """``"shape|bucket" -> rate`` view for reports (sorted, stable)."""
        return {f"{shape}|{bucket}": rate
                for (shape, bucket), rate in sorted(self._rates.items())}


def account_batch_service(scorer: ShapeScorer, stats, batch, profile_fn,
                          chip_shape: str, service_s: float,
                          active_shapes, note_demand: bool) -> None:
    """Fold one measured batch service into the shape books.

    The event loop calls this right after simulating a batch's service
    time: stamp the batch's profile if missing, count demand
    (``note_demand=True`` under shape-*oblivious* dispatch — the
    shape-aware dispatcher already counted it at selection time), charge
    ``stats.misdispatch_s`` with the time lost versus the oracle-best
    shape among ``active_shapes`` (priced from the rates the dispatcher
    had *before* this observation), then feed the measured rate into the
    scorer's EWMA.  ``stats`` is a
    :class:`~repro.serving.stats.HeteroStats` (duck-typed).
    """
    if batch.profile is None:
        batch.profile = profile_fn(batch)
    bucket = batch.profile.bucket
    if note_demand:
        scorer.note_demand(bucket)
    fused = max(batch.fused_vertices, 1)
    oracle_rates = [r for r in (scorer.rate(shape, bucket)
                                for shape in sorted(active_shapes))
                    if r is not None]
    if oracle_rates:
        stats.misdispatch_s += max(0.0, service_s - min(oracle_rates) * fused)
    scorer.observe(chip_shape, bucket, service_s / fused)


# --------------------------------------------------------------------------- #
# Autoscaling shape choice
# --------------------------------------------------------------------------- #
class ShapeChooser:
    """Decides *which* shape an elastic heterogeneous fleet adds or retires.

    ``policy`` is one of :data:`SCALE_SHAPE_POLICIES`:

    * ``cheapest-adequate`` -- among the spec's shapes, take the lowest
      :func:`shape_cost` shape whose learned rate for the dominant demand
      bucket is within ``adequacy`` of the best shape's rate.  While any
      candidate is cold the chooser cannot judge adequacy and simply takes
      the cheapest shape.
    * ``bottleneck-phase`` -- take the shape with the best (lowest) rate
      for the dominant demand bucket, whatever it costs; cold candidates
      fall back to the cheapest shape.

    Retirement mirrors addition: :meth:`retire_victim` prefers draining a
    chip of the *worst*-rated shape for the dominant bucket (the shape the
    current demand needs least), tie-broken on the emptiest queue so the
    least work gets stranded.  ``scorers`` is one or more
    :class:`ShapeScorer` views of demand -- the single-tenant loop passes
    its one scorer, the multi-tenant loop passes every tenant's (rates are
    averaged over the scorers that know the shape).
    """

    def __init__(self, policy: str, shapes: Mapping[str, HyGCNConfig],
                 scorers: Sequence[ShapeScorer] = (),
                 adequacy: float = 1.5):
        if policy not in SCALE_SHAPE_POLICIES:
            raise ValueError(f"unknown scale-shape policy {policy!r}; "
                             f"choose from {SCALE_SHAPE_POLICIES}")
        if not shapes:
            raise ValueError("ShapeChooser needs at least one shape")
        if adequacy < 1.0:
            raise ValueError("adequacy must be >= 1")
        self.policy = policy
        self.shapes = dict(shapes)
        self.scorers = list(scorers)
        self.adequacy = float(adequacy)

    # ------------------------------------------------------------------ #
    def _demand_rates(self) -> Dict[str, float]:
        """Shape -> mean learned rate for the dominant demand bucket(s).

        Each scorer votes with its own dominant bucket (per-tenant demand
        differs); a shape's rate is the mean over the scorers that know it.
        Shapes no scorer knows are absent (cold).
        """
        votes: Dict[str, List[float]] = {}
        for scorer in self.scorers:
            bucket = scorer.dominant_bucket()
            if bucket is None:
                continue
            for shape in self.shapes:
                rate = scorer.rate(shape, bucket)
                if rate is not None:
                    votes.setdefault(shape, []).append(rate)
        return {shape: sum(r) / len(r) for shape, r in votes.items()}

    def _cheapest(self) -> str:
        return min(self.shapes,
                   key=lambda s: (shape_cost(self.shapes[s]), s))

    def shape_to_add(self) -> str:
        """The shape the next scale-up should commission."""
        rates = self._demand_rates()
        if len(rates) < len(self.shapes):
            # some candidate is cold for the demand: cost is the only
            # defensible signal
            return self._cheapest()
        if self.policy == "bottleneck-phase":
            return min(self.shapes, key=lambda s: (rates[s], s))
        best = min(rates.values())
        adequate = [s for s in self.shapes if rates[s] <= self.adequacy * best]
        return min(adequate, key=lambda s: (shape_cost(self.shapes[s]), s))

    def retire_victim(self, actives: Sequence) -> object:
        """The active chip a scale-down should drain first.

        ``actives`` are duck-typed chips (``shape``, ``outstanding_requests``,
        ``chip_id``).  Falls back to pure emptiest-queue while rates are
        cold.
        """
        rates = self._demand_rates()

        def key(chip):
            # unknown-rate shapes sort *before* known ones (-inf surplus):
            # retiring a shape we cannot judge is safer than retiring the
            # one shape the demand provably needs
            rate = rates.get(chip.shape)
            suited = -rate if rate is not None else float("-inf")
            return (suited, chip.outstanding_requests, -chip.chip_id)

        return min(actives, key=key)
