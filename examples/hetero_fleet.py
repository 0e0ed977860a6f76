"""Heterogeneous fleets: mixed chip shapes with shape-aware dispatch.

This script walks through `repro.serving.hetero` in four steps:

1. print the chip-shape presets and what each one provisions,
2. build a mixed two-tenant workload (a high-fanout sampling tenant whose
   batches are MAC-dense, and a feature-heavy tenant whose batches are
   streaming-bound),
3. serve it on a homogeneous fleet, on a 50/50 agg/comb fleet with
   shape-oblivious dispatch, and on the same mixed fleet with
   ``shape-aware`` dispatch, on identical traffic,
4. print per-shape utilization and the mis-dispatch accounting of the
   winning run.

Run it with ``python examples/hetero_fleet.py``.  The JSON spec next to
this script (``fleet.json``) describes the same mixed fleet for the CLI:
``python -m repro serve --fleet-spec examples/fleet.json --dispatch
shape-aware``.
"""

from repro.analysis import print_table
from repro.serving import (
    FleetConfig,
    TenantConfig,
    clear_probe_cache,
    fleet_spec_for_mix,
    run_multi_tenant,
    shape_table,
)


def tenants(num_requests: int = 160):
    """A mixed workload: one MAC-dense tenant, one streaming-bound tenant."""
    return [
        TenantConfig(name="sampler", dataset="CR", num_hops=2, fanout=16,
                     num_requests=num_requests, max_batch_size=8,
                     cache_size=0, popularity_skew=1.2),
        TenantConfig(name="features", dataset="CS", num_hops=1, fanout=2,
                     num_requests=num_requests, max_batch_size=8,
                     cache_size=0, popularity_skew=1.2),
    ]


def serve(mix: str, dispatch: str, num_requests: int):
    """One shared-fleet run; only the fleet composition / dispatch vary."""
    clear_probe_cache()
    fleet = FleetConfig(fleet_spec=fleet_spec_for_mix(mix, 4),
                        dispatch=dispatch, seed=0)
    return run_multi_tenant(tenants(num_requests), fleet,
                            utilization_target=1.2,
                            include_isolation_baseline=False)


def main(num_requests: int = 160) -> None:
    # ---- 1. the shapes on offer -------------------------------------- #
    print_table(shape_table(), title="chip-shape presets (docs/heterogeneity.md)")

    # ---- 2 + 3. three fleets, identical traffic ----------------------- #
    runs = {
        "balanced x4": serve("balanced", "least-loaded", num_requests),
        "mixed, least-loaded": serve("mixed", "least-loaded", num_requests),
        "mixed, shape-aware": serve("mixed", "shape-aware", num_requests),
    }
    print_table(
        [{
            "fleet": label,
            "sampler_p99_us": round(
                rep.reports["sampler"].p99_latency_s * 1e6, 2),
            "features_p99_us": round(
                rep.reports["features"].p99_latency_s * 1e6, 2),
            "busy_chip_seconds_us": round(rep.total_busy_s * 1e6, 2),
            "misdispatch_us": round(rep.hetero.misdispatch_s * 1e6, 2)
            if rep.hetero else 0.0,
        } for label, rep in runs.items()],
        title="same traffic, three fleets: routing by shape wins both "
              "tails and the chip-seconds bill")

    # ---- 4. where the winning run spent its chip time ----------------- #
    aware = runs["mixed, shape-aware"]
    print_table(aware.shape_table(), title="shape-aware run: per-shape utilization")
    print_table([aware.hetero.summary()],
                title="shape-aware run: dispatch accounting")
    print("learned seconds-per-fused-vertex (tenant/shape|bucket):")
    for key, rate in sorted(aware.hetero.rates_s_per_vertex.items()):
        print(f"  {key:40s} {rate * 1e9:8.2f} ns/vertex")


if __name__ == "__main__":
    main()
