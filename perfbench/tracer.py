"""Exclusive (self-time) host timers wrapped around the simulator's layers.

A :class:`Tracer` replaces each layer's public entry point -- a method on a
class or a function at every module that imported it -- with a timed
wrapper, and puts the originals back on :meth:`Tracer.uninstall`.  Timing
is exclusive through nesting: a wrapped call's elapsed time is charged to
its own layer minus the elapsed time of the wrapped calls it made, so the
self times of all layers never sum to more than the enclosing wall.

Nothing in ``src/`` is edited; the wrappers exist only while a traced
repetition runs, so untraced repetitions run without timers.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: Layer name -> the entry points charged to it, as ``(module, attribute)``
#: pairs.  ``attribute`` is ``Class.method`` for methods; a plain name is a
#: module-level function and is replaced at *that* module, so a function
#: imported into several modules is listed once per importer.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "datasets": (
        ("repro.graphs.datasets", "load_dataset"),
        ("repro.serving.fleet", "load_dataset"),
        ("repro.serving.tenancy", "load_dataset"),
    ),
    "model_zoo": (
        ("repro.models.model_zoo", "build_model"),
        ("repro.serving.fleet", "build_model"),
        ("repro.serving.tenancy", "build_model"),
        ("repro.core.simulator", "workloads_for"),
    ),
    "workload": (
        ("repro.serving.workload", "RequestGenerator.generate"),
        ("repro.serving.workload", "merge_tenant_streams"),
        ("repro.serving.streaming", "generate_update_stream"),
        ("repro.serving.fleet", "generate_update_stream"),
        ("repro.serving.tenancy", "generate_update_stream"),
    ),
    "calibrate": (
        ("repro.serving.fleet", "ServingSimulator.calibrate_rate"),
        ("repro.serving.tenancy", "MultiTenantSimulator.calibrate_rates"),
        ("repro.serving.fleet", "probe_batch_service_time_s"),
        ("repro.serving.tenancy", "probe_batch_service_time_s"),
    ),
    "sampler.extract": (
        ("repro.serving.sampler", "SubgraphSampler.extract"),),
    "sampler.signature": (
        ("repro.serving.sampler", "SubgraphSampler.signature"),),
    "sampler.fused_size": (
        ("repro.serving.sampler", "SubgraphSampler.fused_size"),),
    "sampler.fuse": (
        ("repro.serving.sampler", "SubgraphSampler.fuse"),),
    "batcher": tuple(
        (module, f"{cls}.{method}")
        for module, classes in (
            ("repro.serving.batcher", ("Batcher", "SizeCappedBatcher",
                                       "TimeoutBatcher", "SLOAwareBatcher")),
            ("repro.serving.batching", ("FIFOBatcher", "OverlapBatcher",
                                        "ContinuousBatcher")))
        for cls in classes
        for method in ("add", "flush", "flush_due", "drain", "try_join")),
    "simulator": (
        ("repro.core.simulator", "HyGCNSimulator.run_model"),),
    "aggregation.partition": (
        ("repro.core.aggregation_engine", "AggregationEngine.partition"),),
    "aggregation.process": (
        ("repro.core.aggregation_engine", "AggregationEngine.prepare_graph"),
        ("repro.core.aggregation_engine", "AggregationEngine.process_layer"),
    ),
    "combination": (
        ("repro.core.combination_engine", "CombinationEngine.process_layer"),),
    "memory": (
        ("repro.core.memory_handler", "MemoryAccessHandler.service_batch"),),
    "coordinator": (
        ("repro.core.coordinator", "Coordinator.record_buffer_traffic"),
        ("repro.core.coordinator", "Coordinator.compose"),
    ),
    "energy": (
        ("repro.hw.energy", "EnergyModel.compute"),),
    "cache": tuple(
        ("repro.serving.cache", f"LRUCache.{method}")
        for method in ("get", "put", "invalidate")),
    "streaming": (
        ("repro.serving.streaming", "StreamState.apply"),
        ("repro.serving.streaming", "StreamState.check_batch"),
    ),
    "loop": (
        ("repro.serving.fleet", "ServingSimulator.run"),
        ("repro.serving.tenancy", "MultiTenantSimulator.run"),
    ),
    "report": (
        ("repro.serving.stats", "ServingReport.to_dict"),
        ("repro.serving.stats", "MultiTenantReport.to_dict"),
    ),
}


class Tracer:
    """Per-layer exclusive self time and call counts.

    ``self_s[layer]`` is host seconds spent in the layer's entry points
    minus the time of wrapped calls nested inside them; ``calls[layer]``
    counts every call into those entry points, nested ones included.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        #: one ``[child_elapsed_s]`` cell per active wrapped call
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed exclusively and charged to ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = self.clock
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - cell[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
        return timed

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`LAYERS` (undo: :meth:`uninstall`).

        All or nothing: an entry point that no longer exists restores the
        ones already wrapped before the error propagates.
        """
        try:
            for layer, points in LAYERS.items():
                for module_name, attribute in points:
                    owner = importlib.import_module(module_name)
                    if "." in attribute:
                        cls_name, attribute = attribute.split(".")
                        owner = getattr(owner, cls_name)
                        if attribute not in vars(owner):
                            continue  # inherited: its definer is wrapped
                    original = getattr(owner, attribute)
                    self._saved.append((owner, attribute, original))
                    setattr(owner, attribute, self.wrap(layer, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every original entry point, newest first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def attributed_s(self) -> float:
        """Host seconds charged to some layer."""
        return sum(self.self_s.values())
