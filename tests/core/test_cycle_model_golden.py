"""Golden fixture for the cycle model across its ablation switches.

The serving goldens and the perfbench pins only run the default chip
(coordinated DRAM access, latency pipeline, 8 HBM channels).  This fixture
pins every layer report of a grid of small runs that also takes the
uncoordinated address map and round-robin order, the no-pipeline spill
path, the energy pipeline, sparsity elimination off and 16-channel HBM:

    coordination {on, off} x pipeline {none, latency, energy}
        x sparsity {on, off} x HBM {8 channels, 16 channels}

each over GCN, GSC, GIN and DFP.  The 16-channel stack also charges a
fractional 7.3 pJ/bit, so the DRAM energy pins its summation order.  The
buffers are shrunk so every layer splits into several intervals and
several effectual windows, and some weights overflow the Weight Buffer
and are re-fetched per interval.

Bandwidth utilisation is left out: it is derived from the pinned bytes
and cycles.  When a change *intentionally* alters the numbers, regenerate
with::

    PYTHONPATH=src python tests/core/test_cycle_model_golden.py

and commit the diff alongside the change that explains it.
"""

import dataclasses
import itertools
import json
import os

from repro.core import HyGCNConfig, HyGCNSimulator, PipelineMode
from repro.graphs import community_graph, power_law_graph
from repro.hw import HBMConfig
from repro.models import build_model

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "cycle_model_reports.json")

HBM_STACKS = {
    "hbm8": HBMConfig(),
    "hbm16": HBMConfig(num_channels=16, energy_pj_per_bit=7.3),
}


def _configs():
    for coordinated, mode, sparsity, hbm in itertools.product(
            (True, False), PipelineMode.ALL, (True, False), HBM_STACKS):
        name = (f"{'coord' if coordinated else 'rr'}-{mode}-"
                f"{'sparse' if sparsity else 'dense'}-{hbm}")
        yield name, HyGCNConfig(
            input_buffer_bytes=8 * 1024,
            aggregation_buffer_bytes=16 * 1024,
            weight_buffer_bytes=32 * 1024,
            enable_memory_coordination=coordinated,
            pipeline_mode=mode,
            enable_sparsity_elimination=sparsity,
            hbm=HBM_STACKS[hbm],
        )


def _runs():
    community = community_graph(240, 1600, feature_length=48,
                                num_communities=6, seed=3)
    skewed = power_law_graph(200, 1400, feature_length=40, seed=4)
    return [
        ("GCN", community, build_model("GCN", 48, hidden_size=32)),
        ("GSC", skewed, build_model("GSC", 40, hidden_size=32)),
        ("GIN", community, build_model("GIN", 48, hidden_size=64)),
        ("DFP", skewed, build_model("DFP", 40, hidden_size=16)),
    ]


def _layer(layer):
    return {
        "name": layer.name,
        "total_cycles": layer.total_cycles,
        "aggregation_cycles": layer.aggregation_cycles,
        "combination_cycles": layer.combination_cycles,
        "num_intervals": layer.num_intervals,
        "loaded_feature_rows": layer.loaded_feature_rows,
        "dram_stats": dataclasses.asdict(layer.dram_stats),
        "dram_bytes_by_stream": layer.dram_bytes_by_stream,
        "energy": dataclasses.asdict(layer.energy),
        "avg_vertex_latency_cycles": layer.avg_vertex_latency_cycles,
    }


def _build_payload():
    runs = _runs()
    payload = {}
    for name, config in _configs():
        simulator = HyGCNSimulator(config)
        for model_name, graph, model in runs:
            report = simulator.run_model(model, graph)
            payload[f"{name}/{model_name}"] = [_layer(l) for l in report.layers]
    return json.dumps(payload, sort_keys=True, indent=1)


def test_cycle_model_reports_match_golden_fixture():
    with open(FIXTURE) as handle:
        expected = handle.read()
    assert _build_payload() == expected.rstrip("\n"), (
        "cycle-model layer reports diverged from the committed fixture; if "
        "the change is intentional, regenerate via "
        "`PYTHONPATH=src python tests/core/test_cycle_model_golden.py`"
    )


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    text = _build_payload()
    with open(FIXTURE, "w") as handle:
        handle.write(text + "\n")
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
