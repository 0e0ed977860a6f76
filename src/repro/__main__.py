"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the common workflows without writing a script:

* ``simulate`` -- run one model on one dataset on the HyGCN simulator and
  print the report (optionally comparing against the CPU/GPU baselines);
* ``serve``    -- replay request traffic against a fleet of simulated HyGCN
  chips with batching, dispatch and caching, and print the latency /
  throughput / SLO report; with ``--tenants spec.json`` the fleet is shared
  by several tenants behind a weighted-fair-queueing scheduler and the
  report adds fairness and cross-tenant isolation tables; ``--autoscale`` /
  ``--admission`` / ``--degrade`` arm the elastic control plane;
  ``--fleet-spec`` / ``--shape-mix`` mix HyGCN chip shapes in one fleet
  and ``--dispatch shape-aware`` routes each batch to the shape that
  serves it fastest; ``--trace-out`` records per-request spans as Chrome
  trace-event JSON and ``--metrics-out`` scrapes a metrics registry on the
  simulated clock (docs/observability.md); ``--trace-capture`` records the
  offered request stream into a compact binary trace and ``--replay``
  serves a captured trace back, reproducing the original report
  bit-for-bit (docs/loadtest.md); ``--json`` emits the full
  machine-readable report;
* ``trace-report`` -- summarize a trace written by ``serve --trace-out``:
  per-phase p50/p99 time-in-phase and the slowest requests' span trees;
* ``trace-stats`` -- characterise a request trace written by
  ``serve --trace-capture``: arrival burstiness, Zipf popularity fit,
  per-tenant shares and the overlap-potential histogram;
* ``loadtest`` -- sweep arrival rate to the SLO knee (max sustainable
  RPS) per chip count and write the ``BENCH_loadtest.json`` trajectory;
* ``sweep``    -- run one of the named ablation/scalability sweeps;
* ``info``     -- print the dataset registry (Table 4), the model zoo
  (Table 5) and the default accelerator configuration (Table 6/7 view).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional, Sequence

from .analysis import (
    memory_coordination_sweep,
    pipeline_mode_sweep,
    print_table,
    sampling_factor_sweep,
    sparsity_elimination_sweep,
    stacked_optimization_ablation,
    systolic_module_sweep,
    aggregation_buffer_sweep,
)
from .baselines import PyGCPUModel, PyGGPUModel
from .core import HyGCNConfig, HyGCNSimulator, PipelineMode
from .graphs import DATASETS, dataset_table, load_dataset
from .hw import AreaPowerModel
from .models import MODEL_NAMES, build_model, model_table
from .serving import (
    ALL_BATCH_POLICIES,
    ARRIVAL_PROCESSES,
    AUTOSCALE_POLICIES,
    DISPATCH_POLICIES,
    INVALIDATION_POLICIES,
    PARTITIONERS,
    SCALE_SHAPE_POLICIES,
    SHAPE_MIXES,
    ControlConfig,
    FleetConfig,
    Instrumentation,
    InterconnectConfig,
    LoadTestConfig,
    ShardingConfig,
    TraceWriter,
    fleet_spec_for_mix,
    format_trace_report,
    format_trace_stats,
    load_fleet_spec,
    load_request_trace,
    load_tenant_specs,
    load_trace,
    run_loadtest,
    run_multi_tenant,
    run_serving,
    trace_report,
    trace_stats,
    validate_trace,
)

_LOG_LEVELS = ("debug", "info", "warning", "error")

_SWEEPS = {
    "sparsity": sparsity_elimination_sweep,
    "pipeline": pipeline_mode_sweep,
    "memory": memory_coordination_sweep,
    "sampling": sampling_factor_sweep,
    "buffer": aggregation_buffer_sweep,
    "systolic": systolic_module_sweep,
    "ablation": None,  # handled separately (per-dataset signature differs)
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyGCN reproduction: simulate GCN workloads on the hybrid accelerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one model on one dataset")
    simulate.add_argument("--model", choices=MODEL_NAMES, default="GCN")
    simulate.add_argument("--dataset", choices=sorted(DATASETS), default="CR")
    simulate.add_argument("--pipeline", choices=PipelineMode.ALL,
                          default=PipelineMode.LATENCY)
    simulate.add_argument("--no-sparsity", action="store_true",
                          help="disable window sliding/shrinking")
    simulate.add_argument("--no-coordination", action="store_true",
                          help="disable memory access coordination")
    simulate.add_argument("--compare", action="store_true",
                          help="also run the PyG-CPU / PyG-GPU baseline models")
    simulate.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="serve request traffic on a fleet of simulated chips")
    serve.add_argument("--model", type=str.upper, choices=MODEL_NAMES, default="GCN")
    serve.add_argument("--dataset", type=str.upper, choices=sorted(DATASETS),
                       default="CR")
    serve.add_argument("--chips", type=int, default=4,
                       help="number of accelerator instances in the fleet")
    serve.add_argument("--requests", type=int, default=1000,
                       help="number of inference requests to replay")
    serve.add_argument("--rate", type=float, default=None,
                       help="mean arrival rate in requests/s of simulated time "
                            "(default: calibrated to --utilization of capacity)")
    serve.add_argument("--utilization", type=float, default=0.7,
                       help="target fleet load when --rate is not given")
    serve.add_argument("--arrival", choices=ARRIVAL_PROCESSES, default="poisson")
    serve.add_argument("--trace-file", default=None,
                       help="file with one arrival timestamp (seconds) per line, "
                            "required for --arrival trace")
    serve.add_argument("--skew", type=float, default=0.8,
                       help="Zipf exponent of target-vertex popularity (0 = uniform)")
    serve.add_argument("--batch-policy", choices=ALL_BATCH_POLICIES,
                       default="timeout",
                       help="flush trigger (size/timeout/slo) or formation "
                            "policy (fifo/overlap/continuous, see "
                            "docs/batching.md)")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--batch-timeout-ms", type=float, default=None,
                       help="timeout-flush budget (default: adaptive)")
    batching = serve.add_argument_group(
        "overlap-aware batching",
        "tuning for the overlap/continuous formation policies "
        "(see docs/batching.md); these flags error unless --batch-policy "
        "is overlap or continuous (--tenants mode: any tenant may opt in, "
        "so they always apply there)")
    batching.add_argument("--overlap-k", type=int, default=None,
                          help="hop depth of the neighbourhood signatures "
                               "(default 1, capped to --hops)")
    batching.add_argument("--min-overlap", type=float, default=None,
                          help="similarity floor for growing an overlap "
                               "group; 0 always fills batches (default 0)")
    batching.add_argument("--join-window-ms", type=float, default=None,
                          help="continuous: late-join window after batch "
                               "formation (default: adaptive, the batch "
                               "timeout)")
    batching.add_argument("--staleness-ms", type=float, default=None,
                          help="continuous: max wait of a batch's oldest "
                               "request before joins stop (default: "
                               "adaptive, half the SLO)")
    serve.add_argument("--dispatch", choices=DISPATCH_POLICIES,
                       default="round-robin",
                       help="chip-selection policy; shape-aware routes each "
                            "batch to the chip shape that serves its "
                            "profile fastest (docs/heterogeneity.md)")
    hetero = serve.add_argument_group(
        "heterogeneous fleet",
        "mix HyGCN chip shapes in one fleet (see docs/heterogeneity.md); "
        "--fleet-spec and --shape-mix are mutually exclusive, and either "
        "works for single- and multi-tenant serving alike")
    hetero.add_argument("--fleet-spec", default=None, metavar="SPEC.JSON",
                        help="JSON fleet spec, e.g. {\"shapes\": [{\"preset\""
                             ": \"agg_heavy\", \"count\": 4}]}; overrides "
                             "--chips with the spec's roster size")
    hetero.add_argument("--shape-mix", choices=sorted(SHAPE_MIXES),
                        default=None,
                        help="named shape mix sized to --chips "
                             "(mixed = 50/50 agg_heavy/comb_heavy)")
    sharding = serve.add_argument_group(
        "sharded execution",
        "partition the dataset across the whole fleet and serve every "
        "request on the resulting chip group (see docs/sharding.md); "
        "--shards arms it (overriding --chips with the group size) and "
        "the remaining flags tune an armed group and error without one; "
        "incompatible with the elastic control plane")
    sharding.add_argument("--shards", type=int, default=None,
                          help="number of graph shards = chips in the "
                               "group (1 reproduces the unsharded report "
                               "bit-for-bit)")
    sharding.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                          default=None,
                          help="dataset partitioner (default locality, "
                               "the greedy edge-cut minimiser)")
    sharding.add_argument("--halo-cache-mb", type=float, default=None,
                          help="per-chip ghost-feature cache in MiB "
                               "(default 4; 0 disables it)")
    sharding.add_argument("--interconnect-gbps", type=float, default=None,
                          help="chip-to-chip link bandwidth in GB/s for "
                               "halo exchange and gather (default 24)")
    serve.add_argument("--hops", type=int, default=2,
                       help="k-hop neighbourhood depth per request")
    serve.add_argument("--fanout", type=int, default=8,
                       help="max sampled in-neighbours per hop")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="result-cache entries (0 disables the cache)")
    serve.add_argument("--slo-ms", type=float, default=None,
                       help="latency SLO in milliseconds (default: adaptive)")
    serve.add_argument("--tenants", default=None, metavar="SPEC.JSON",
                       help="multi-tenant mode: JSON spec binding each tenant "
                            "to a model, dataset, arrival process, WFQ weight "
                            "and SLO (per-stream flags above are then ignored; "
                            "--chips/--utilization/--seed still apply)")
    serve.add_argument("--no-isolation", action="store_true",
                       help="multi-tenant mode: skip the run-alone baselines "
                            "(faster, but no cross-tenant p99 inflation)")
    control = serve.add_argument_group(
        "elastic control plane",
        "autoscaling / admission control / graceful degradation for "
        "single- and multi-tenant serving alike (see docs/control.md). "
        "--autoscale, --admission/--admission-rate and --degrade arm the "
        "control plane; the remaining flags tune an armed plane and error "
        "without one")
    control.add_argument("--autoscale", choices=AUTOSCALE_POLICIES,
                         default=None,
                         help="grow/shrink the fleet under this policy")
    control.add_argument("--min-chips", type=int, default=1,
                         help="autoscaler floor (default 1)")
    control.add_argument("--max-chips", type=int, default=None,
                         help="autoscaler ceiling (default: 2x --chips)")
    control.add_argument("--control-interval-ms", type=float, default=None,
                         help="control-loop observation interval "
                              "(default: adaptive, ~2 probe-batch times)")
    control.add_argument("--warmup-ms", type=float, default=None,
                         help="per-added-chip warm-up during which it serves "
                              "nothing (default: adaptive)")
    control.add_argument("--admission", action="store_true",
                         help="token-bucket rate policing + shedding of "
                              "requests whose delay estimate blows the SLO")
    control.add_argument("--admission-rate", type=float, default=None,
                         help="token-bucket refill rate in req/s (default: "
                              "auto-sized to the largest fleet the run can "
                              "hold, with burst headroom)")
    control.add_argument("--degrade", action="store_true",
                         help="serve over-budget requests at reduced "
                              "sampling fidelity instead of shedding them")
    control.add_argument("--scale-shape", choices=SCALE_SHAPE_POLICIES,
                         default=None,
                         help="which chip shape heterogeneous scale-ups "
                              "commission (default cheapest-adequate; only "
                              "meaningful with --autoscale on a mixed fleet)")
    observe = serve.add_argument_group(
        "observability",
        "request span tracing and metrics scraping on the simulated clock "
        "(see docs/observability.md); instrumentation never perturbs the "
        "simulation -- a traced run reports bit-for-bit the same numbers "
        "as an untraced one")
    observe.add_argument("--trace-out", default=None, metavar="TRACE.JSON",
                         help="write per-request spans, batch spans with "
                              "cycle-model phase breakdowns and control-plane "
                              "instants as Chrome trace-event JSON (open in "
                              "https://ui.perfetto.dev or feed to "
                              "`repro trace-report`)")
    observe.add_argument("--metrics-out", default=None, metavar="METRICS.JSONL",
                         help="scrape queue depth, in-flight batches, overlap "
                              "ratio, per-shape busy fraction and control "
                              "counters into JSONL rows, plus a final "
                              "Prometheus text snapshot next to it (.prom)")
    observe.add_argument("--metrics-interval-ms", type=float, default=None,
                         help="simulated-time scrape interval (default: "
                              "adaptive, ~2 probe-batch times); errors "
                              "without --metrics-out")
    observe.add_argument("--log-level", choices=_LOG_LEVELS, default=None,
                         help="emit stdlib-logging diagnostics from the "
                              "serving/control paths to stderr at this level")
    capture = serve.add_argument_group(
        "request-trace capture / replay",
        "record the offered request stream into a compact binary trace, "
        "or serve a captured trace back (see docs/loadtest.md); replaying "
        "a capture under the same configuration reproduces the original "
        "report bit-for-bit, single- and multi-tenant alike")
    capture.add_argument("--trace-capture", default=None, metavar="TRACE.BIN",
                         help="record every offered request (arrival time, "
                              "target vertex, tenant, degradation stamps) "
                              "plus the workload metadata a replay needs; "
                              "characterise the file with "
                              "`repro trace-stats`")
    capture.add_argument("--replay", default=None, metavar="TRACE.BIN",
                         help="serve a trace captured with --trace-capture "
                              "instead of generating traffic (--requests/"
                              "--rate/--arrival/--skew are then taken from "
                              "the trace; multi-tenant traces also need the "
                              "capturing run's --tenants spec)")
    streaming = serve.add_argument_group(
        "streaming graph updates",
        "interleave live graph mutations (edge inserts, feature writes, "
        "vertex inserts) with the request stream and invalidate the "
        "derived-state caches they touch (see docs/streaming.md); "
        "--update-rate arms it, the remaining flags tune an armed stream "
        "and error without one; a capture records the update stream too, "
        "so --replay reproduces mutating runs bit-for-bit")
    streaming.add_argument("--update-rate", type=float, default=None,
                           help="graph updates offered per request (0.05 = "
                                "a 5%% update mix); the stream runs at this "
                                "fraction of the request rate")
    streaming.add_argument("--update-mix", default=None,
                           metavar="KIND=W,...",
                           help="update-kind weights, e.g. "
                                "edge=0.8,feature=0.15,vertex=0.05 "
                                "(default: that mix); omitted kinds get 0")
    streaming.add_argument("--invalidation",
                           choices=INVALIDATION_POLICIES, default=None,
                           help="cache-invalidation policy: targeted drops "
                                "only entries the update touches (default), "
                                "flush drops everything on every update, "
                                "none disables invalidation and counts the "
                                "stale serves that result")
    streaming.add_argument("--staleness-budget", type=int, default=None,
                           metavar="VERSIONS",
                           help="tolerated staleness in graph versions for "
                                "the stale_beyond_budget counter (default 0: "
                                "any stale serve is a violation)")
    serve.add_argument("--json", default=None, metavar="PATH",
                       help="also serialize the full report as JSON to PATH "
                            "('-' writes JSON to stdout instead of tables)")
    serve.add_argument("--seed", type=int, default=0)

    tracerep = sub.add_parser(
        "trace-report",
        help="summarize a trace written by serve --trace-out")
    tracerep.add_argument("trace", metavar="TRACE.JSON",
                          help="Chrome trace-event JSON file produced by "
                               "`repro serve --trace-out`")
    tracerep.add_argument("--top-k", type=int, default=5,
                          help="number of slowest requests to detail "
                               "(default 5)")

    tracestats = sub.add_parser(
        "trace-stats",
        help="characterise a request trace written by serve --trace-capture")
    tracestats.add_argument("trace", metavar="TRACE.BIN",
                            help="binary request trace produced by "
                                 "`repro serve --trace-capture`")
    tracestats.add_argument("--top-k", type=int, default=8,
                            help="most-popular targets to list (default 8)")
    tracestats.add_argument("--windows", type=int, default=20,
                            help="count windows for the index-of-dispersion "
                                 "burstiness estimate (default 20)")
    tracestats.add_argument("--max-targets", type=int, default=64,
                            help="most-popular targets to compute minhash "
                                 "signatures for in the overlap histogram "
                                 "(default 64)")
    tracestats.add_argument("--max-pairs", type=int, default=256,
                            help="popularity-weighted target pairs scored "
                                 "for the overlap histogram (default 256)")
    tracestats.add_argument("--no-overlap", action="store_true",
                            help="skip the overlap-potential histogram "
                                 "(no dataset load)")
    tracestats.add_argument("--json", default=None, metavar="PATH",
                            help="also serialize the statistics as JSON to "
                                 "PATH ('-' writes JSON to stdout instead "
                                 "of text)")

    loadtest = sub.add_parser(
        "loadtest",
        help="sweep arrival rate to the SLO knee per chip count")
    loadtest.add_argument("--model", type=str.upper, choices=MODEL_NAMES,
                          default="GCN")
    loadtest.add_argument("--dataset", type=str.upper,
                          choices=sorted(DATASETS), default="IB")
    loadtest.add_argument("--chips", type=int, nargs="+", default=[1, 2, 4],
                          help="chip counts to sweep (default: 1 2 4)")
    loadtest.add_argument("--requests", type=int, default=768,
                          help="requests per chip per measurement; each "
                               "sweep serves requests x chips so every "
                               "chip count faces the same per-chip "
                               "pressure (default 768)")
    loadtest.add_argument("--slo-target", type=float, default=0.99,
                          help="required SLO attainment at the knee "
                               "(default 0.99)")
    loadtest.add_argument("--slo-ms", type=float, default=None,
                          help="latency SLO in milliseconds (default: "
                               "adaptive; the adaptive SLO derives from a "
                               "chip-count-independent probe, so knees "
                               "stay comparable across the sweep)")
    loadtest.add_argument("--batch-policy", choices=ALL_BATCH_POLICIES,
                          default="size",
                          help="flush trigger or formation policy "
                               "(default size, see docs/batching.md)")
    loadtest.add_argument("--max-batch", type=int, default=32)
    loadtest.add_argument("--dispatch", choices=DISPATCH_POLICIES,
                          default="round-robin")
    loadtest.add_argument("--hops", type=int, default=2,
                          help="k-hop neighbourhood depth per request")
    loadtest.add_argument("--fanout", type=int, default=8,
                          help="max sampled in-neighbours per hop")
    loadtest.add_argument("--skew", type=float, default=0.8,
                          help="Zipf exponent of target popularity")
    loadtest.add_argument("--cache-size", type=int, default=0,
                          help="result-cache entries (default 0: the knee "
                               "measures chip capacity, not cache luck)")
    loadtest.add_argument("--rel-tol", type=float, default=0.1,
                          help="stop bisecting when the bracket is within "
                               "this fraction of the knee (default 0.1)")
    loadtest.add_argument("--start-utilization", type=float, default=0.4,
                          help="utilisation seeding the first probed rate "
                               "(default 0.4)")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--json", default="BENCH_loadtest.json",
                          metavar="PATH",
                          help="knee/p99-vs-rate trajectory output "
                               "(default BENCH_loadtest.json; '-' writes "
                               "JSON to stdout instead of tables)")

    sweep = sub.add_parser("sweep", help="run an ablation / scalability sweep")
    sweep.add_argument("name", choices=sorted(_SWEEPS))
    sweep.add_argument("--datasets", nargs="+", default=["CR", "CS", "PB"],
                       choices=sorted(DATASETS))

    sub.add_parser("info", help="print datasets, models and the default configuration")
    return parser


def _run_simulate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, seed=args.seed)
    model = build_model(args.model, input_length=graph.feature_length)
    config = HyGCNConfig(
        pipeline_mode=args.pipeline,
        enable_sparsity_elimination=not args.no_sparsity,
        enable_memory_coordination=not args.no_coordination,
    )
    report = HyGCNSimulator(config).run_model(model, graph, dataset_name=args.dataset)
    print_table([report.summary()], title=f"HyGCN: {args.model} on {args.dataset}")
    print_table(
        [{"layer": layer.name, "cycles": layer.total_cycles,
          "aggregation_cycles": layer.aggregation_cycles,
          "combination_cycles": layer.combination_cycles,
          "dram_mb": round(layer.dram_bytes / (1 << 20), 2),
          "sparsity_reduction_pct": round(100 * layer.sparsity_reduction, 1)}
         for layer in report.layers],
        title="per-layer breakdown",
    )
    if args.compare:
        cpu = PyGCPUModel().run(model, graph, dataset_name=args.dataset)
        gpu = PyGGPUModel().run(model, graph, dataset_name=args.dataset,
                                full_scale_spec=DATASETS[args.dataset])
        rows = [cpu.summary(), gpu.summary(),
                {"platform": "HyGCN", "model": args.model, "dataset": args.dataset,
                 "time_s": report.execution_time_s, "energy_j": report.total_energy_j,
                 "dram_mb": report.total_dram_bytes / (1 << 20),
                 "bandwidth_utilization": report.bandwidth_utilization}]
        print_table(rows, title="platform comparison",
                    columns=["platform", "time_s", "energy_j", "dram_mb",
                             "bandwidth_utilization"])
    return 0


def _control_config_from_args(args: argparse.Namespace
                              ) -> Optional[ControlConfig]:
    """Build a ControlConfig when an arming flag is set.

    Raises ValueError (-> `error: ...`, exit 2) when tuning flags are given
    without an arming flag, instead of silently dropping them.
    """
    if args.autoscale is None and not args.admission \
            and args.admission_rate is None and not args.degrade:
        tuning = [flag for flag, given in (
            ("--min-chips", args.min_chips != 1),
            ("--max-chips", args.max_chips is not None),
            ("--control-interval-ms", args.control_interval_ms is not None),
            ("--warmup-ms", args.warmup_ms is not None),
            ("--scale-shape", args.scale_shape is not None),
        ) if given]
        if tuning:
            raise ValueError(
                f"{', '.join(tuning)} tune the control plane but nothing "
                f"arms it; add --autoscale, --admission/--admission-rate "
                f"or --degrade")
        return None
    max_chips = args.max_chips if args.max_chips is not None \
        else max(2 * args.chips, args.min_chips)
    return ControlConfig(
        autoscale=args.autoscale,
        min_chips=args.min_chips,
        max_chips=max_chips,
        control_interval_s=None if args.control_interval_ms is None
        else args.control_interval_ms * 1e-3,
        warmup_s=None if args.warmup_ms is None else args.warmup_ms * 1e-3,
        admission=args.admission or args.admission_rate is not None,
        admission_rate_rps=args.admission_rate,
        degrade=args.degrade,
        scale_shape=args.scale_shape if args.scale_shape is not None
        else "cheapest-adequate",
    )


def _sharding_config_from_args(args: argparse.Namespace
                               ) -> Optional[ShardingConfig]:
    """Build a ShardingConfig when --shards arms sharded execution.

    Raises ValueError (-> `error: ...`, exit 2) when tuning flags are given
    without the arming flag, mirroring the control-plane idiom.
    """
    if args.shards is None:
        tuning = [flag for flag, given in (
            ("--partitioner", args.partitioner is not None),
            ("--halo-cache-mb", args.halo_cache_mb is not None),
            ("--interconnect-gbps", args.interconnect_gbps is not None),
        ) if given]
        if tuning:
            raise ValueError(
                f"{', '.join(tuning)} tune sharded execution but nothing "
                f"arms it; add --shards N")
        return None
    interconnect = InterconnectConfig() if args.interconnect_gbps is None \
        else InterconnectConfig(link_gbps=args.interconnect_gbps)
    overrides = {}
    if args.partitioner is not None:
        overrides["partitioner"] = args.partitioner
    if args.halo_cache_mb is not None:
        overrides["halo_cache_mb"] = args.halo_cache_mb
    return ShardingConfig(num_shards=args.shards, interconnect=interconnect,
                          seed=args.seed, **overrides)


def _streaming_overrides(args: argparse.Namespace) -> dict:
    """run_serving / run_multi_tenant kwargs from the streaming-update flags.

    ``--update-rate`` arms the update stream; the tuning flags error without
    it (mirroring the sharding idiom).  ``--replay`` needs no flags at all --
    a mutating capture carries its update stream, invalidation policy and
    staleness budget, and restores them itself.
    """
    if args.update_rate is None:
        tuning = [flag for flag, given in (
            ("--update-mix", args.update_mix is not None),
            ("--invalidation", args.invalidation is not None),
            ("--staleness-budget", args.staleness_budget is not None),
        ) if given]
        if tuning:
            hint = ("--replay restores the capturing run's update stream "
                    "and policy by itself" if args.replay is not None
                    else "add --update-rate R")
            raise ValueError(
                f"{', '.join(tuning)} tune streaming graph updates but "
                f"nothing arms them; {hint}")
        return {}
    overrides: dict = {"update_rate": args.update_rate}
    if args.update_mix is not None:
        overrides["update_mix"] = args.update_mix
    if args.invalidation is not None:
        overrides["invalidation"] = args.invalidation
    if args.staleness_budget is not None:
        overrides["staleness_budget"] = args.staleness_budget
    return overrides


def _fleet_spec_from_args(args: argparse.Namespace):
    """Resolve --fleet-spec / --shape-mix into a FleetSpec (or None).

    Raises ValueError (-> `error: ...`, exit 2) on conflicting or broken
    specs so the CLI fails loudly with the valid alternatives listed.
    """
    if args.fleet_spec is not None and args.shape_mix is not None:
        raise ValueError("--fleet-spec and --shape-mix both describe the "
                         "fleet's shapes; give exactly one")
    if args.fleet_spec is not None:
        try:
            return load_fleet_spec(args.fleet_spec)
        except OSError as exc:
            raise ValueError(f"cannot read fleet spec "
                            f"{args.fleet_spec!r}: {exc}") from exc
    if args.shape_mix is not None:
        return fleet_spec_for_mix(args.shape_mix, args.chips)
    return None


def _batching_overrides(args: argparse.Namespace,
                        tenants_mode: bool) -> dict:
    """FleetConfig overrides from the overlap-batching flags.

    In single-tenant mode the flags error unless ``--batch-policy`` is one
    of the overlap-aware formation policies (mirroring how control-plane
    tuning flags error without an arming flag); in ``--tenants`` mode any
    tenant may opt in via its spec, so the flags always apply.
    """
    given = [flag for flag, value in (
        ("--overlap-k", args.overlap_k),
        ("--min-overlap", args.min_overlap),
        ("--join-window-ms", args.join_window_ms),
        ("--staleness-ms", args.staleness_ms),
    ) if value is not None]
    if not tenants_mode and args.batch_policy not in ("overlap", "continuous"):
        if given:
            raise ValueError(
                f"{', '.join(given)} only tune overlap-aware batching but "
                f"--batch-policy is {args.batch_policy!r}; use "
                f"--batch-policy overlap or continuous")
        return {}
    if not tenants_mode and args.batch_policy == "overlap":
        joiners = [f for f in given if f in ("--join-window-ms",
                                             "--staleness-ms")]
        if joiners:
            raise ValueError(
                f"{', '.join(joiners)} only apply under continuous "
                f"batching; use --batch-policy continuous")
    overrides = {}
    if args.overlap_k is not None:
        overrides["overlap_k"] = args.overlap_k
    if args.min_overlap is not None:
        overrides["min_overlap"] = args.min_overlap
    if args.join_window_ms is not None:
        overrides["join_window_s"] = args.join_window_ms * 1e-3
    if args.staleness_ms is not None:
        overrides["staleness_s"] = args.staleness_ms * 1e-3
    return overrides


def _instrumentation_from_args(args: argparse.Namespace
                               ) -> Optional[Instrumentation]:
    """Build the Instrumentation hub when --trace-out / --metrics-out ask.

    Raises ValueError (-> `error: ...`, exit 2) when --metrics-interval-ms
    is given without --metrics-out, mirroring how control-plane tuning
    flags error without an arming flag.
    """
    if args.metrics_interval_ms is not None and args.metrics_out is None:
        raise ValueError("--metrics-interval-ms tunes the metrics scrape "
                         "but nothing records it; add --metrics-out")
    if args.trace_out is None and args.metrics_out is None:
        return None
    return Instrumentation(
        trace=args.trace_out is not None,
        metrics=args.metrics_out is not None,
        metrics_interval_s=None if args.metrics_interval_ms is None
        else args.metrics_interval_ms * 1e-3,
    )


def _write_observability(observe: Optional[Instrumentation],
                         args: argparse.Namespace) -> None:
    """Flush --trace-out / --metrics-out files after a serve run."""
    if observe is None:
        return
    # keep stdout pure JSON under --json -
    out = sys.stderr if args.json == "-" else sys.stdout
    if args.trace_out is not None:
        observe.write_trace(args.trace_out)
        print(f"wrote trace: {args.trace_out} ({len(observe.events)} events; "
              f"open in https://ui.perfetto.dev or run "
              f"`repro trace-report {args.trace_out}`)", file=out)
    if args.metrics_out is not None:
        prom_path = observe.write_metrics(args.metrics_out)
        print(f"wrote metrics: {args.metrics_out} (JSONL scrapes) and "
              f"{prom_path} (Prometheus text)", file=out)


def _write_capture(capture: Optional[TraceWriter],
                   args: argparse.Namespace) -> None:
    """Flush --trace-capture after a serve run (both tenancy modes)."""
    if capture is None:
        return
    # keep stdout pure JSON under --json -
    out = sys.stderr if args.json == "-" else sys.stdout
    trace = capture.write(args.trace_capture)
    print(f"wrote request trace: {args.trace_capture} "
          f"({trace.num_requests} requests; replay with "
          f"`repro serve --replay {args.trace_capture}`, characterise with "
          f"`repro trace-stats {args.trace_capture}`)", file=out)


def _emit_json(report, args: argparse.Namespace) -> None:
    """Write the report's to_dict() to --json PATH ('-' = stdout)."""
    payload = report.to_dict()
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
    else:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=float)


def _print_fleet_tables(report, batching_rows, batching_title: str) -> None:
    """The tables both serve modes print, in order, between their own
    summary tables and their traffic summary."""
    print_table(report.per_chip_table(), title="per-chip utilization")
    if report.hetero is not None:
        print_table(report.shape_table(),
                    title="per-shape utilization (docs/heterogeneity.md)")
        print_table([report.hetero.summary()], title="shape-aware dispatch")
    if batching_rows:
        print_table(batching_rows, title=batching_title)
    if report.sharding is not None:
        print_table([report.sharding.summary()],
                    title="sharded execution (docs/sharding.md)")
    if report.consistency is not None:
        print_table([report.consistency.summary()],
                    title="streaming graph updates (docs/streaming.md)")
    control = report.control
    if control is not None:
        print_table([control.summary()], title="control plane: summary")
        if control.samples:
            print_table(control.scaling_table(),
                        title="control plane: scaling timeline")
            print("fleet-size timeline")
            print(control.timeline_text())
            print()
        if control.admission:
            print_table(control.admission_table(),
                        title="control plane: admission / degradation")


def _print_tenant_tables(report, tenants, args: argparse.Namespace) -> None:
    """``serve --tenants``: per-tenant summary, fairness, isolation, the
    fleet tables and the traffic summary."""
    names = ", ".join(f"{t.name} (w={t.weight:g})" for t in tenants)
    print_table(report.summary_table(),
                title=f"multi-tenant serving on {report.num_chips} chips "
                      f"({report.scheduler}): {names}")
    print_table(report.fairness_table(),
                title="WFQ fairness: configured vs. measured service shares")
    if not args.no_isolation:
        print_table(report.isolation_table(),
                    title="isolation: shared fleet vs. running alone")
    _print_fleet_tables(report, report.batching_table(),
                        "batch formation per tenant (docs/batching.md)")
    print_table([{
        "completed": report.completed,
        "throughput_rps": round(report.throughput_rps, 1),
        "avg_in_flight_requests": round(report.avg_in_flight, 2),
        "max_backlog_batches": report.max_backlog_batches,
    }], title="traffic summary")


def _print_serving_tables(report, args: argparse.Namespace) -> None:
    """``serve``: summary, latency profile, the fleet tables and the
    traffic summary."""
    title = (f"serving: {args.model} on {args.dataset}, "
             f"{report.num_chips} chips, "
             f"{args.batch_policy} batching, {args.dispatch} dispatch")
    print_table([report.summary()], title=title)
    print_table([{
        "p50_ms": round(report.p50_latency_s * 1e3, 4),
        "p95_ms": round(report.p95_latency_s * 1e3, 4),
        "p99_ms": round(report.p99_latency_s * 1e3, 4),
        "mean_ms": round(report.mean_latency_s * 1e3, 4),
        "max_ms": round(report.max_latency_s * 1e3, 4),
        "slo_ms": round(report.slo_s * 1e3, 4),
        "slo_violations": report.slo_violations,
        **report.latency_breakdown(),
    }], title="latency profile (simulated time)")
    _print_fleet_tables(report, [report.batching.summary()],
                        "batch formation (docs/batching.md)")
    print_table([{
        "arrival_rate_rps": round(report.rate_rps, 1),
        "throughput_rps": round(report.throughput_rps, 1),
        "cache_hit_rate_pct": round(100.0 * report.cache.hit_rate, 2),
        "avg_in_flight_requests": round(report.avg_in_flight, 2),
        "max_queue_depth": report.max_queue_depth,
    }], title="traffic summary")


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: one tenant, or ``--tenants`` sharing the fleet under WFQ."""
    if args.log_level is not None:
        logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                            stream=sys.stderr, force=True)
    replay = None
    if args.replay is not None:
        if args.arrival == "trace":
            print("error: --replay already carries arrival timestamps; "
                  "drop --arrival trace (that path replays bare timestamp "
                  "files via --trace-file)", file=sys.stderr)
            return 2
        if args.trace_file is not None:
            print("error: --trace-file feeds --arrival trace, not --replay; "
                  "give exactly one replay source", file=sys.stderr)
            return 2
        try:
            replay = load_request_trace(args.replay)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read request trace {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 2
    tenants = trace = None
    if args.tenants is not None:
        try:
            tenants = load_tenant_specs(args.tenants)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load tenant spec {args.tenants!r}: {exc}",
                  file=sys.stderr)
            return 2
    elif args.arrival == "trace":
        if args.trace_file is None:
            print("error: --arrival trace requires --trace-file", file=sys.stderr)
            return 2
        try:
            with open(args.trace_file) as handle:
                trace = [float(line) for line in handle if line.strip()]
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace file {args.trace_file!r}: {exc}",
                  file=sys.stderr)
            return 2
    capture = TraceWriter() if args.trace_capture is not None else None
    try:
        control = _control_config_from_args(args)
        observe = _instrumentation_from_args(args)
        sharding = _sharding_config_from_args(args)
        # per-tenant knobs live in the tenant specs under --tenants
        tenant_knobs = {} if tenants is not None else dict(
            batch_policy=args.batch_policy,
            max_batch_size=args.max_batch,
            batch_timeout_s=None if args.batch_timeout_ms is None
            else args.batch_timeout_ms * 1e-3,
            slo_s=None if args.slo_ms is None else args.slo_ms * 1e-3,
            cache_size=args.cache_size,
            num_hops=args.hops,
            fanout=args.fanout)
        config = FleetConfig(
            num_chips=args.shards if sharding is not None else args.chips,
            fleet_spec=_fleet_spec_from_args(args),
            sharding=sharding,
            dispatch=args.dispatch,
            seed=args.seed,
            **tenant_knobs,
            **_batching_overrides(args, tenants_mode=tenants is not None),
        )
        common = dict(control=control, observe=observe, capture=capture,
                      replay=replay, **_streaming_overrides(args))
        if tenants is not None:
            report = run_multi_tenant(
                tenants, config, utilization_target=args.utilization,
                include_isolation_baseline=not args.no_isolation, **common)
        else:
            report = run_serving(
                dataset=args.dataset, model_name=args.model,
                num_requests=args.requests, rate_rps=args.rate,
                arrival=args.arrival, popularity_skew=args.skew,
                config=config, trace=trace,
                utilization_target=args.utilization, seed=args.seed,
                **common)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_observability(observe, args)
    _write_capture(capture, args)
    if args.json == "-":
        _emit_json(report, args)
        return 0
    if tenants is not None:
        _print_tenant_tables(report, tenants, args)
    else:
        _print_serving_tables(report, args)
    if args.json is not None:
        _emit_json(report, args)
    return 0


def _run_trace_report(args: argparse.Namespace) -> int:
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    problems = validate_trace(events)
    if problems:
        for problem in problems:
            print(f"error: invalid trace event: {problem}", file=sys.stderr)
        return 2
    print(format_trace_report(trace_report(events, top_k=args.top_k)))
    return 0


def _run_trace_stats(args: argparse.Namespace) -> int:
    try:
        trace = load_request_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read request trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    try:
        stats = trace_stats(trace, windows=args.windows, top_k=args.top_k,
                            max_targets=args.max_targets,
                            max_pairs=args.max_pairs,
                            include_overlap=not args.no_overlap)
    except (KeyError, ValueError) as exc:
        print(f"error: cannot characterise {args.trace!r}: {exc} "
              f"(corrupt capture metadata? --no-overlap skips the section "
              f"that needs it)", file=sys.stderr)
        return 2
    if args.json == "-":
        json.dump(stats, sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
        return 0
    print(format_trace_stats(stats))
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(stats, handle, indent=2, default=float)
    return 0


def _run_loadtest(args: argparse.Namespace) -> int:
    try:
        fleet = FleetConfig(
            batch_policy=args.batch_policy,
            max_batch_size=args.max_batch,
            dispatch=args.dispatch,
            num_hops=args.hops,
            fanout=args.fanout,
            cache_size=args.cache_size,
            slo_s=None if args.slo_ms is None else args.slo_ms * 1e-3,
            seed=args.seed,
        )
        config = LoadTestConfig(
            dataset=args.dataset, model_name=args.model,
            num_requests=args.requests, chip_counts=tuple(args.chips),
            slo_target=args.slo_target, popularity_skew=args.skew,
            seed=args.seed, rel_tol=args.rel_tol,
            start_utilization=args.start_utilization, fleet=fleet)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # keep stdout pure JSON under --json -
    out = sys.stderr if args.json == "-" else sys.stdout
    report = run_loadtest(config, progress=lambda line: print(line, file=out))
    if args.json == "-":
        json.dump(report.to_dict(), sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
        return 0
    print_table(report.summary_rows(),
                title=f"loadtest: {args.model} on {args.dataset}, knee = max "
                      f"RPS with SLO attainment >= {args.slo_target:g}")
    with open(args.json, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, default=float)
    print(f"wrote knee trajectory: {args.json} "
          f"({sum(len(s['points']) for s in report.sweeps)} measurements "
          f"in {report.wall_time_s:.1f}s)")
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if args.name == "ablation":
        rows: List[dict] = []
        for dataset in args.datasets:
            rows.extend(stacked_optimization_ablation(dataset=dataset))
        print_table(rows, title="cumulative optimisation ablation")
        return 0
    sweep_fn = _SWEEPS[args.name]
    rows = sweep_fn(datasets=tuple(args.datasets))
    print_table(rows, title=f"{args.name} sweep")
    return 0


def _run_info() -> int:
    print_table(dataset_table(), title="Table 4: datasets")
    print_table(model_table(), title="Table 5: models")
    config = HyGCNConfig()
    print_table([{
        "simd_cores": config.num_simd_cores,
        "simd_width": config.simd_width,
        "systolic_modules": config.num_systolic_modules,
        "module_shape": f"{config.systolic_rows}x{config.systolic_cols}",
        "aggregation_buffer_mb": config.aggregation_buffer_bytes >> 20,
        "hbm_bandwidth_gbps": config.hbm.peak_bandwidth_gbps,
    }], title="Table 6: default HyGCN configuration")
    print_table(AreaPowerModel().breakdown_table(), title="Table 7: area/power breakdown")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "trace-report":
        return _run_trace_report(args)
    if args.command == "trace-stats":
        return _run_trace_stats(args)
    if args.command == "loadtest":
        return _run_loadtest(args)
    if args.command == "sweep":
        return _run_sweep(args)
    return _run_info()


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
