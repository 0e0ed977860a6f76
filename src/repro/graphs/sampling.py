"""Neighbour sampling (the paper's ``Sample`` function, Eq. 2).

GraphSage samples a fixed number of neighbours per vertex; the scalability
study in Section 5.4 instead sweeps a *sampling factor* ``f`` so that only
``1/f`` of each vertex's edges are kept.  Both styles are provided here, plus
a helper that materialises the sampled graph so the rest of the stack (the
partitioner, the engines, the baselines) can stay sampling-agnostic.

The Sampler hardware unit supports two index sources (Section 4.2): uniform
random selection generated at runtime, and a predefined interval-strided
selection read from memory.  ``strategy`` selects between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .graph import CSCMatrix, Graph

__all__ = ["SamplingConfig", "NeighborSampler", "sample_graph"]


@dataclass(frozen=True)
class SamplingConfig:
    """Configuration of the neighbour sampler.

    Exactly one of ``max_neighbors`` (GraphSage-style fixed fan-in) or
    ``sampling_factor`` (keep ``1/factor`` of the edges, Section 5.4) should
    be meaningful; ``sampling_factor=1`` and ``max_neighbors=None`` means no
    sampling.
    """

    max_neighbors: Optional[int] = None
    sampling_factor: int = 1
    strategy: str = "uniform"  # "uniform" (runtime random) or "strided" (predefined)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sampling_factor < 1:
            raise ValueError("sampling_factor must be >= 1")
        if self.max_neighbors is not None and self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1 when set")
        if self.strategy not in ("uniform", "strided"):
            raise ValueError("strategy must be 'uniform' or 'strided'")

    @property
    def enabled(self) -> bool:
        """Whether any sampling is applied at all."""
        return self.max_neighbors is not None or self.sampling_factor > 1


class NeighborSampler:
    """Samples each vertex's neighbour list according to a :class:`SamplingConfig`."""

    def __init__(self, config: SamplingConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def sample_neighbors(self, neighbors: np.ndarray) -> np.ndarray:
        """Return the sampled subset of one vertex's neighbour array."""
        cfg = self.config
        if not cfg.enabled or len(neighbors) == 0:
            return neighbors
        keep = len(neighbors)
        if cfg.sampling_factor > 1:
            keep = max(1, len(neighbors) // cfg.sampling_factor)
        if cfg.max_neighbors is not None:
            keep = min(keep, cfg.max_neighbors)
        if keep >= len(neighbors):
            return neighbors
        if cfg.strategy == "uniform":
            idx = self._rng.choice(len(neighbors), size=keep, replace=False)
            idx.sort()
        else:
            # Predefined interval-strided indices, as when sampling indices are
            # precomputed and streamed from off-chip memory.
            idx = np.linspace(0, len(neighbors) - 1, num=keep).astype(np.int64)
            idx = np.unique(idx)
        return neighbors[idx]

    def sample_graph(self, graph: Graph) -> Graph:
        """Materialise the sampled graph (structure only; features are shared).

        The sampled adjacency is directed from the surviving in-neighbours to
        each destination vertex, mirroring how the hardware Sampler filters the
        edge list of each aggregating vertex.  Runs over the graph's
        ``colptr``/``row`` arrays: every fully kept in-neighbour list is
        gathered in one vectorized shot, and :meth:`sample_neighbors` runs
        only for the vertices whose kept count is below their in-degree, in
        ascending vertex order -- exactly the vertices whose selection draws
        from the shared RNG.  The sampled CSC is built with one sort on the
        (destination, source) key.
        """
        cfg = self.config
        if not cfg.enabled:
            return graph
        colptr, row = graph.colptr, graph.row
        num_vertices = graph.num_vertices
        degs = np.diff(colptr)
        keep = degs
        if cfg.sampling_factor > 1:
            keep = np.maximum(1, degs // cfg.sampling_factor)
        if cfg.max_neighbors is not None:
            keep = np.minimum(keep, cfg.max_neighbors)
        capped = keep < degs
        full_counts = np.where(capped, 0, degs)
        excl = np.zeros(num_vertices, dtype=np.int64)
        if num_vertices:
            excl[1:] = np.cumsum(full_counts[:-1])
        rel = np.arange(int(full_counts.sum())) - np.repeat(excl, full_counts)
        src_parts = [row[np.repeat(colptr[:-1], full_counts) + rel]]
        dst_parts = [np.repeat(np.arange(num_vertices), full_counts)]
        for v in np.nonzero(capped)[0]:
            kept = self.sample_neighbors(row[colptr[v]:colptr[v + 1]])
            src_parts.append(kept)
            dst_parts.append(np.full(len(kept), v, dtype=np.int64))
        csc = CSCMatrix.from_arrays(np.concatenate(src_parts),
                                    np.concatenate(dst_parts), num_vertices,
                                    deduplicate=False)
        return Graph(csc, graph.features, name=f"{graph.name}[sampled]")

    def sampled_degree_map(self, graph: Graph) -> Dict[int, int]:
        """Per-vertex sampled in-degree without materialising the graph."""
        return {
            v: len(self.sample_neighbors(graph.in_neighbors(v)))
            for v in range(graph.num_vertices)
        }


def sample_graph(graph: Graph, config: SamplingConfig) -> Graph:
    """Convenience wrapper: sample ``graph`` according to ``config``."""
    return NeighborSampler(config).sample_graph(graph)
