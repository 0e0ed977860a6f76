"""Smoke tests: the example scripts run end to end on the public API."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    """Import an example script as a module without executing ``main``."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert {"quickstart.py", "citation_classification.py",
            "recommendation_inference.py", "design_space_exploration.py",
            "online_serving.py", "multi_tenant_serving.py",
            "elastic_serving.py", "hetero_fleet.py", "sharded_serving.py",
            "traced_serving.py"} <= names
    assert (EXAMPLES_DIR / "tenants.json").exists()
    assert (EXAMPLES_DIR / "fleet.json").exists()


def test_multi_tenant_example_runs(capsys):
    module = load_example("multi_tenant_serving.py")
    module.main(num_requests=48)
    out = capsys.readouterr().out
    assert "WFQ fairness" in out
    assert "cross-tenant isolation" in out


def test_elastic_serving_example_runs(capsys):
    module = load_example("elastic_serving.py")
    module.main(num_requests=400)
    out = capsys.readouterr().out
    assert "SLO violations vs. chip-seconds" in out
    assert "fleet-size timeline" in out
    assert "what each gate does to the tail" in out


def test_hetero_fleet_example_runs(capsys):
    module = load_example("hetero_fleet.py")
    module.main(num_requests=96)
    out = capsys.readouterr().out
    assert "chip-shape presets" in out
    assert "per-shape utilization" in out
    assert "seconds-per-fused-vertex" in out


def test_sharded_serving_example_runs(capsys, tmp_path):
    module = load_example("sharded_serving.py")
    module.main(out_dir=str(tmp_path))
    out = capsys.readouterr().out
    assert "locality beats hash on both edge-cut and p99" in out
    assert "--shards 1 identical to the unsharded report: True" in out


def test_traced_serving_example_runs(capsys, tmp_path):
    module = load_example("traced_serving.py")
    module.main(num_requests=96, out_dir=str(tmp_path))
    out = capsys.readouterr().out
    assert "trace report: 96 requests" in out
    assert "traced run identical to untraced run: True" in out
    assert (tmp_path / "serve_trace.json").exists()
    assert (tmp_path / "serve_metrics.jsonl").exists()


def test_online_serving_example_runs(capsys):
    module = load_example("online_serving.py")
    module.main(num_requests=96)
    out = capsys.readouterr().out
    assert "served 96 requests on 4 chips" in out
    assert "dispatch-policy comparison (identical traffic)" in out
    assert "result-cache effect" in out


def test_quickstart_runs(capsys):
    module = load_example("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "HyGCN" in out
    assert "speedup over PyG-CPU" in out


def test_recommendation_example_helpers():
    module = load_example("recommendation_inference.py")
    graph = module.build_interaction_graph(num_entities=256, interactions=2048,
                                           embedding_length=32, seed=1)
    assert graph.num_vertices == 256
    assert graph.feature_length == 32
    # skewed: the hubs carry a disproportionate share of interactions
    degrees = graph.degrees()
    assert degrees.max() > 4 * degrees.mean()


def test_citation_example_prediction_head():
    module = load_example("citation_classification.py")
    import numpy as np
    predictions = module.predict_classes(np.random.default_rng(0).standard_normal((50, 16)),
                                         num_classes=7)
    assert predictions.shape == (50,)
    assert set(predictions.tolist()) <= set(range(7))


def test_design_space_example_candidates():
    module = load_example("design_space_exploration.py")
    configs = module.candidate_configs()
    assert len(configs) == len(module.DESIGN_POINTS)
    # the paper's Table 6 configuration is one of the candidates
    assert any(c.num_simd_cores == 32 and c.num_systolic_modules == 8
               and c.aggregation_buffer_bytes == 16 << 20 for c in configs)


def test_design_space_example_runs_on_small_mix():
    from repro.analysis import WorkloadMix, explore, pareto_front
    module = load_example("design_space_exploration.py")
    quick_mix = WorkloadMix(name="quick", entries=(("GCN", "IB"),))
    points = explore(module.candidate_configs()[:2], quick_mix)
    assert len(points) == 2
    assert all(p.time_ms > 0 and p.power_w > 0 for p in points)
    assert len(pareto_front(points)) >= 1
