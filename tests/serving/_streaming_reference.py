"""Scalar oracle for the streaming result index and result registration.

This is the per-request registration :class:`~repro.serving.streaming.
StreamState` used before a completed batch registered its results in one
call, kept verbatim in spirit: one memoised ``extract`` per non-degraded
request and one Python set insert per ``(vertex, target)`` pair into a
vertex -> set-of-targets dict, popped vertex by vertex on a targeted
invalidation.  ``tests/serving/test_result_index.py`` drives it against
the array index and the batched registration.
"""

from typing import Dict, List, Sequence, Set

from repro.serving.streaming import StreamState, _ResultMeta


class ReferenceResultIndex:
    """The dict-of-sets vertex -> result-key index, with the array index's
    interface (``add``/``pop``/``clear``)."""

    def __init__(self):
        self.by_vertex: Dict[int, Set[int]] = {}

    def add(self, samples) -> None:
        for key, vertices in samples.items():
            for v in vertices.tolist():
                self.by_vertex.setdefault(v, set()).add(key)

    def pop(self, vertices: Sequence[int]) -> List[int]:
        popped: Set[int] = set()
        for v in vertices:
            popped |= self.by_vertex.pop(int(v), set())
        return sorted(popped)

    def clear(self) -> None:
        self.by_vertex.clear()


class ReferenceStreamState(StreamState):
    """A :class:`StreamState` that registers results one request at a time
    into a :class:`ReferenceResultIndex`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._results = ReferenceResultIndex()

    def register_results(self, targets: Sequence[int], now: float) -> None:
        for target in targets:
            self.register_result(target, now)

    def register_result(self, target: int, now: float) -> None:
        if self.result_cache is None:
            return
        vertices = self.sampler.extract(target).vertex_ids
        self._result_meta[target] = _ResultMeta(
            version=self.graph.version, time_s=now, vertices=vertices)
        for v in vertices.tolist():
            self._results.by_vertex.setdefault(v, set()).add(target)
