"""Smoke tests for ``python -m repro serve`` and the serving example."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"
SERVE_FAST = ["serve", "--dataset", "IB", "--model", "gcn",
              "--requests", "64", "--chips", "2"]


class TestServeCommand:
    def test_serve_prints_slo_report(self, capsys):
        assert main(SERVE_FAST) == 0
        out = capsys.readouterr().out
        for needle in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps",
                       "per-chip utilization", "cache_hit_rate_pct",
                       "slo_violation", "utilization_pct"):
            assert needle in out

    def test_serve_accepts_lowercase_dataset_and_model(self, capsys):
        assert main(["serve", "--dataset", "ib", "--model", "gcn",
                     "--requests", "32", "--chips", "2"]) == 0
        assert "GCN on IB" in capsys.readouterr().out

    def test_dispatch_policies_report_different_utilization(self, capsys):
        outputs = {}
        for dispatch in ("round-robin", "least-loaded"):
            assert main(SERVE_FAST + ["--dispatch", dispatch,
                                      "--requests", "128"]) == 0
            out = capsys.readouterr().out
            table = out.split("per-chip utilization")[1].split("traffic summary")[0]
            outputs[dispatch] = table
        assert outputs["round-robin"] != outputs["least-loaded"]

    def test_batch_policies_selectable(self, capsys):
        for policy in ("size", "timeout", "slo"):
            assert main(SERVE_FAST + ["--batch-policy", policy]) == 0
            assert policy in capsys.readouterr().out

    def test_trace_replay_from_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"{i * 1e-5}\n" for i in range(64)))
        assert main(SERVE_FAST + ["--arrival", "trace",
                                  "--trace-file", str(trace)]) == 0
        assert "throughput_rps" in capsys.readouterr().out

    def test_trace_without_file_fails(self, capsys):
        assert main(SERVE_FAST + ["--arrival", "trace"]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_shape_mix_serve_prints_shape_tables(self, capsys):
        assert main(SERVE_FAST + ["--shape-mix", "mixed",
                                  "--dispatch", "shape-aware"]) == 0
        out = capsys.readouterr().out
        for needle in ("per-shape utilization", "shape-aware dispatch",
                       "agg_heavy", "comb_heavy", "misdispatch_ms"):
            assert needle in out

    def test_fleet_spec_file_overrides_chips(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"shapes": [{"preset": "balanced", "count": 3}]}')
        assert main(SERVE_FAST + ["--fleet-spec", str(spec)]) == 0
        assert "3 chips" in capsys.readouterr().out

    def test_fleet_spec_and_shape_mix_conflict(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"shapes": [{"preset": "balanced"}]}')
        assert main(SERVE_FAST + ["--fleet-spec", str(spec),
                                  "--shape-mix", "mixed"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_broken_fleet_spec_is_actionable(self, tmp_path, capsys):
        spec = tmp_path / "fleet.json"
        spec.write_text('{"shapes": [{"preset": "agg_hevy"}]}')
        assert main(SERVE_FAST + ["--fleet-spec", str(spec)]) == 2
        assert "agg_heavy" in capsys.readouterr().err

    def test_scale_shape_without_arming_flag_errors(self, capsys):
        assert main(SERVE_FAST + ["--scale-shape", "bottleneck-phase"]) == 2
        assert "--scale-shape" in capsys.readouterr().err

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(SERVE_FAST + ["--dispatch", "random"])


class TestServeStdoutPins:
    """sha256 of the complete stdout of three ``serve`` runs.

    Between them the runs print every table block of both modes: the
    single-tenant head, per-chip, per-shape, shape-aware dispatch, batch
    formation, sharding, streaming, all three control blocks and the
    traffic summary, and the multi-tenant summary, fairness, isolation and
    per-tenant batch formation tables.
    """

    RUNS = {
        # elastic, heterogeneous, streaming, continuous batching
        "elastic": (["serve", "--dataset", "IB", "--requests", "400",
                     "--chips", "2", "--hops", "1", "--fanout", "4",
                     "--shape-mix", "mixed", "--dispatch", "shape-aware",
                     "--batch-policy", "continuous", "--arrival", "ramp",
                     "--utilization", "1.5", "--autoscale", "threshold",
                     "--max-chips", "4", "--admission", "--degrade",
                     "--update-rate", "0.05"],
                    "bcbb812d8396801f6f96b38aec25e658"
                    "1318defd2e4991f3b0416727ca891a60"),
        "sharded": (["serve", "--dataset", "IB", "--requests", "256",
                     "--chips", "2", "--shards", "2", "--update-rate", "0.05"],
                    "c26230e3c4b619b6b0f7be0aa33dcb97"
                    "3a288d5cef3263ad6b3c4710ace48ea8"),
        "tenants": (["serve", "--tenants", str(EXAMPLES / "tenants.json"),
                     "--chips", "2", "--shape-mix", "mixed",
                     "--update-rate", "0.05", "--autoscale", "threshold",
                     "--max-chips", "4"],
                    "d494af8b6d7e0d66cbf3c0aee26750fb"
                    "3c5c4458f6f501ce76b9185db5517735"),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_stdout_digest(self, name):
        argv, digest = self.RUNS[name]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_online_serving_example_runs(capsys):
    path = EXAMPLES / "online_serving.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    module.main(num_requests=96)
    out = capsys.readouterr().out
    assert "dispatch-policy comparison" in out
    assert "result-cache effect" in out
