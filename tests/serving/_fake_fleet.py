"""Duck-typed stand-ins for what :class:`~repro.serving.fleet.FleetScaler`
reads from a run, so a test can drive the scaler's admission gate and
chip-second books without an event loop."""

from types import SimpleNamespace

from repro.serving import FleetConfig
from repro.serving.fleet import FleetScaler


def fake_runtime(slo_s=1.0, cost_per_request_s=0.01, overlap_ewma=0.0,
                 overlap_aware=False):
    """The fields of one anonymous tenant's ``TenantRuntime`` the scaler
    reads: SLO, weight, sampling shape, probe scales and overlap EWMA."""
    return SimpleNamespace(
        name="", slo_s=slo_s, weight=1.0,
        config=SimpleNamespace(num_hops=2, fanout=8),
        probe_batch_size=1, probe_service_s=0.01,
        cost_per_request_s=cost_per_request_s,
        overlap_ewma=overlap_ewma, overlap_aware=overlap_aware,
        shape_scorer=None)


def fake_scaler(config, chips, runtime):
    """A scaler over ``chips`` serving ``runtime``; the control events it
    pushes are dropped."""
    return FleetScaler(config, FleetConfig(), chips, [runtime], shapes={},
                       push=lambda *event: None, drain_victim=None, t0=0.0)
