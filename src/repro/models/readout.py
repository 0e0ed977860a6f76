"""Readout and pooling operations (Eq. 3, Eq. 7 and the Pool discussion).

The paper treats Readout as "an extreme Aggregation": a virtual vertex
connected to every vertex of the graph, whose aggregation produces the
graph-level representation h_G, executable on the Aggregation Engine.  This
module provides both the functional readout operators and the virtual-vertex
construction so the accelerator simulator can account for readout the same
way the hardware would.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..graphs.graph import CSRMatrix, Graph

__all__ = [
    "readout_sum",
    "readout_mean",
    "readout_max",
    "readout_concat",
    "add_readout_vertex",
]


def readout_sum(features: np.ndarray) -> np.ndarray:
    """Sum readout (the default Readout of Eq. 3)."""
    return np.asarray(features, dtype=np.float64).sum(axis=0)


def readout_mean(features: np.ndarray) -> np.ndarray:
    """Mean readout."""
    return np.asarray(features, dtype=np.float64).mean(axis=0)


def readout_max(features: np.ndarray) -> np.ndarray:
    """Element-wise max readout."""
    return np.asarray(features, dtype=np.float64).max(axis=0)


def readout_concat(per_layer_features: Sequence[np.ndarray],
                   reducer=readout_sum) -> np.ndarray:
    """GIN's Readout (Eq. 7): concatenate the per-layer reduced representations."""
    if not per_layer_features:
        raise ValueError("readout_concat needs at least one layer's features")
    return np.concatenate([reducer(h) for h in per_layer_features])


def add_readout_vertex(graph: Graph) -> Graph:
    """Append a virtual vertex connected to every existing vertex.

    The returned graph has ``num_vertices + 1`` vertices; the last vertex's
    in-neighbours are all original vertices, so aggregating it on the
    Aggregation Engine computes the graph-level sum/mean/max -- exactly how
    the paper maps Readout onto the hardware (Section 4.1).  The virtual
    vertex's own feature vector is zero so it does not perturb the reduction.
    """
    n = graph.num_vertices
    edges: List[tuple] = []
    for src in range(n):
        for dst in graph.neighbors(src):
            edges.append((src, int(dst)))
        edges.append((src, n))          # every vertex feeds the readout vertex
    csr = CSRMatrix.from_edges(edges, n + 1, deduplicate=False)
    features = np.vstack([graph.features, np.zeros((1, graph.feature_length))])
    return Graph.from_csr(csr, features, name=f"{graph.name}[readout]")
