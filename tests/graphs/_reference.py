"""Scalar reference samplers: the differential oracle for the array core.

Each function here is a direct, per-vertex reading of a contract in
``docs/core.md`` -- dicts for local ids, Python lists for edges, one
neighbour list at a time -- with none of the array core's scatter/gather
machinery.  ``tests/graphs/test_csc_equivalence.py`` checks that
:class:`repro.serving.sampler.SubgraphSampler` and
:class:`repro.graphs.sampling.NeighborSampler` reproduce these outputs bit
for bit.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.graphs import CSRMatrix, Graph

_MASK64 = (1 << 64) - 1

#: ``(vertices, subgraph)``: global ids in local-id order, and the subgraph
Sample = Tuple[Tuple[int, ...], Graph]


def extract(graph: Graph, target: int, num_hops: int, fanout: int,
            seed: int) -> Sample:
    """k-hop in-neighbourhood of ``target`` under random-phase strided
    selection.

    An over-fanout vertex of in-degree ``d`` keeps positions
    ``floor((u + j) * d / fanout)``, ``j = 0..fanout-1``, with one phase
    ``u`` per over-fanout frontier vertex drawn from
    ``default_rng((seed, target))`` in frontier order; local ids follow
    first-seen order; edges run source -> destination in local ids.
    """
    rng = None
    local_of = {target: 0}
    order: List[int] = [target]
    edges: List[Tuple[int, int]] = []
    frontier = [target]
    for _ in range(num_hops):
        lists = [graph.in_neighbors(v) for v in frontier]
        num_over = sum(1 for n in lists if len(n) > fanout)
        if num_over:
            if rng is None:
                rng = np.random.default_rng((seed, target))
            phases = iter(rng.random(num_over))
        next_frontier: List[int] = []
        for v, neighbors in zip(frontier, lists):
            if len(neighbors) > fanout:
                step = len(neighbors) / fanout
                neighbors = neighbors[(next(phases) * step + np.arange(fanout)
                                       * step).astype(np.int64)]
            for u in neighbors.tolist():
                if u not in local_of:
                    local_of[u] = len(order)
                    order.append(u)
                    next_frontier.append(u)
                edges.append((local_of[u], local_of[v]))
        frontier = next_frontier
        if not frontier:
            break
    csr = CSRMatrix.from_edges(edges, len(order))
    features = graph.features[np.asarray(order, dtype=np.int64)]
    return tuple(order), Graph.from_csr(csr, features, name=f"{graph.name}[v{target}]")


def signature(vertices: Sequence[int], mult: np.ndarray,
              xor: np.ndarray) -> List[int]:
    """Minhash ``min_v ((v + 1) * mult_j mod 2^64) ^ xor_j`` per hash ``j``."""
    return [min((((v + 1) * int(m)) & _MASK64) ^ int(x) for v in vertices)
            for m, x in zip(mult, xor)]


def fused_size(samples: Sequence[Sample]) -> Tuple[int, int]:
    """``(deduped union size, summed per-sample sizes)``."""
    union = set()
    for vertices, _ in samples:
        union.update(vertices)
    return len(union), sum(len(vertices) for vertices, _ in samples)


def fuse(features: np.ndarray, samples: Sequence[Sample]) -> Graph:
    """Deduped union of ``samples``: local ids in first-seen order over the
    samples, the edge set the union of theirs, features sliced once."""
    local_of = {}
    order: List[int] = []
    for vertices, _ in samples:
        for gv in vertices:
            if gv not in local_of:
                local_of[gv] = len(order)
                order.append(gv)
    edges = []
    for vertices, sub in samples:
        for v_local in range(sub.num_vertices):
            for u in sub.neighbors(v_local).tolist():
                edges.append((local_of[vertices[v_local]],
                              local_of[vertices[u]]))
    csr = CSRMatrix.from_edges(edges, len(order))
    return Graph.from_csr(csr, features[np.asarray(order, dtype=np.int64)])


def sample_graph(sampler, graph: Graph) -> Graph:
    """Per-vertex ``NeighborSampler.sample_graph``: every vertex's
    in-neighbour list through ``sampler.sample_neighbors``, in vertex order."""
    if not sampler.config.enabled:
        return graph
    edges = []
    for v in range(graph.num_vertices):
        kept = sampler.sample_neighbors(graph.in_neighbors(v))
        edges.extend((int(u), v) for u in kept)
    csr = CSRMatrix.from_edges(edges, graph.num_vertices, deduplicate=False)
    return Graph.from_csr(csr, graph.features, name=f"{graph.name}[sampled]")
