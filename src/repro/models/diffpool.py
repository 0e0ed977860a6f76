"""DiffPool (Ying et al.), Eq. 8 of the paper.

DiffPool transforms a graph into a smaller, coarser graph:

* ``C = softmax(GCN_pool(A, X))`` -- the soft cluster assignment matrix,
* ``Z = GCN_embedding(A, X)`` -- the new vertex embeddings,
* ``X' = C^T Z`` and ``A' = C^T A C`` -- the pooled feature and adjacency
  matrices.

The paper maps DiffPool onto HyGCN by running the two internal GCNs on the two
engines and executing the extra matrix multiplications on the Combination
engine and the transposes on the Aggregation engine; here we provide the
functional model plus a workload description exposing those three matrix
multiplications so the hardware models can account for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..graphs.graph import CSRMatrix, Graph
from .base import GCNModel
from .gcn import build_gcn
from .layers import softmax

__all__ = ["DiffPoolModel", "build_diffpool"]


@dataclass
class DiffPoolMatMul:
    """One of the dense matrix multiplications Eq. 8 introduces.

    Dimensions are recorded so hardware models can count MACs:
    the product is ``(m x k) @ (k x n)``.
    """

    name: str
    m: int
    k: int
    n: int

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n


class DiffPoolModel:
    """Hierarchical pooling built from two internal GCNs (Eq. 8)."""

    def __init__(self, pool_gcn: GCNModel, embed_gcn: GCNModel, num_clusters: int,
                 name: str = "DiffPool"):
        self.name = name
        self.pool_gcn = pool_gcn
        self.embed_gcn = embed_gcn
        self.num_clusters = int(num_clusters)

    # ------------------------------------------------------------------ #
    def forward(self, graph: Graph) -> Tuple[Graph, np.ndarray, np.ndarray]:
        """Run one DiffPool transformation.

        Returns the pooled graph, the assignment matrix ``C`` and the new
        feature matrix ``X'``.
        """
        assignment_logits = self.pool_gcn.forward(graph)
        # GCN_pool determines the number of output vertices (clusters): keep
        # only the first ``num_clusters`` columns of its output.
        if assignment_logits.shape[1] < self.num_clusters:
            raise ValueError(
                "pool GCN output width must be >= num_clusters "
                f"({assignment_logits.shape[1]} < {self.num_clusters})"
            )
        assignment = softmax(assignment_logits[:, : self.num_clusters], axis=1)
        embeddings = self.embed_gcn.forward(graph)
        pooled_features = assignment.T @ embeddings
        dense_adj = graph.adjacency_dense()
        pooled_adj = assignment.T @ dense_adj @ assignment
        pooled_graph = _graph_from_dense(pooled_adj, pooled_features,
                                         name=f"{graph.name}[pooled]")
        return pooled_graph, assignment, pooled_features

    # ------------------------------------------------------------------ #
    def workloads(self, graph: Graph) -> list:
        """Workloads of the two internal GCNs (for the hardware models)."""
        return self.pool_gcn.workloads(graph) + self.embed_gcn.workloads(graph)

    def extra_matmuls(self, graph: Graph) -> List[DiffPoolMatMul]:
        """The three dense matrix products of Eq. 8 beyond the internal GCNs."""
        n = graph.num_vertices
        c = self.num_clusters
        z = self.embed_gcn.layers[-1].output_size
        return [
            DiffPoolMatMul("CT_Z", c, n, z),
            DiffPoolMatMul("CT_A", c, n, n),
            DiffPoolMatMul("CTA_C", c, n, c),
        ]

    def total_aggregation_ops(self, graph: Graph) -> int:
        """Aggregation operations of both internal GCNs."""
        return (self.pool_gcn.total_aggregation_ops(graph)
                + self.embed_gcn.total_aggregation_ops(graph))

    def total_combination_macs(self, graph: Graph) -> int:
        """Combination MACs of both internal GCNs plus the Eq. 8 matmuls."""
        gcn_macs = (self.pool_gcn.total_combination_macs(graph)
                    + self.embed_gcn.total_combination_macs(graph))
        extra = sum(m.macs for m in self.extra_matmuls(graph))
        return gcn_macs + extra


def _graph_from_dense(adjacency: np.ndarray, features: np.ndarray, name: str,
                      threshold: float = 1e-9) -> Graph:
    """Build a Graph from a dense (possibly weighted) adjacency matrix."""
    n = adjacency.shape[0]
    edges = [(int(i), int(j)) for i in range(n) for j in range(n)
             if i != j and abs(adjacency[i, j]) > threshold]
    if not edges and n > 1:
        edges = [(0, 1)]
    csr = CSRMatrix.from_edges(edges, n) if edges else \
        CSRMatrix.from_edges([], max(n, 1))
    return Graph.from_csr(csr, features, name=name)


def build_diffpool(
    input_length: int,
    hidden_size: int = 128,
    num_clusters: int = 64,
    reducer: str = "min",
    seed: int = 0,
    name: str = "DiffPool",
) -> DiffPoolModel:
    """Construct the Table 5 DiffPool instance.

    Both internal GCNs use a single ``|a_v|–128`` layer with ``Min``
    aggregation; ``num_clusters`` bounds the pooled graph size.
    """
    pool_gcn = build_gcn(input_length, hidden_sizes=(hidden_size,), seed=seed,
                         name=f"{name}_pool")
    embed_gcn = build_gcn(input_length, hidden_sizes=(hidden_size,), seed=seed + 100,
                          name=f"{name}_embedding")
    # Table 5 specifies Min aggregation for both internal GCNs.
    for model in (pool_gcn, embed_gcn):
        for layer in model.layers:
            layer.aggregation.reducer = reducer
    num_clusters = min(num_clusters, hidden_size)
    return DiffPoolModel(pool_gcn, embed_gcn, num_clusters=num_clusters, name=name)
