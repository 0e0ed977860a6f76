"""Synthetic graph generators.

The paper evaluates on six public datasets (Table 4).  Those datasets are not
redistributable inside this repository, so we generate synthetic graphs whose
first-order statistics -- vertex count, edge count (hence average degree),
degree skew and feature vector length -- match the published numbers.  The
accelerator's behaviour depends on exactly these properties: the sparsity
pattern drives the window sliding/shrinking results, the degree distribution
drives the aggregation workload, and the feature length drives both DRAM
traffic and MVM compute.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import Graph

__all__ = [
    "erdos_renyi_graph",
    "power_law_graph",
    "community_graph",
    "grid_graph",
    "star_graph",
]


def _features(num_vertices: int, feature_length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a dense feature matrix; values are irrelevant to timing/energy."""
    return rng.standard_normal((num_vertices, feature_length))


def erdos_renyi_graph(
    num_vertices: int,
    num_edges: int,
    feature_length: int,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> Graph:
    """Generate a uniform random (Erdos-Renyi style) undirected graph.

    ``num_edges`` counts *directed* edges after symmetrisation, matching the
    edge counts reported in Table 4 (which count both directions).
    """
    if num_vertices <= 1:
        raise ValueError("num_vertices must be > 1")
    rng = np.random.default_rng(seed)
    target_undirected = max(1, num_edges // 2)
    src = rng.integers(0, num_vertices, size=target_undirected * 2)
    dst = rng.integers(0, num_vertices, size=target_undirected * 2)
    mask = src != dst
    pairs = np.stack([src[mask], dst[mask]], axis=1)[:target_undirected]
    edges = [(int(u), int(v)) for u, v in pairs]
    return Graph.from_edge_list(
        edges, num_vertices,
        features=_features(num_vertices, feature_length, rng),
        undirected=True, name=name,
    )


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    feature_length: int,
    skew: float = 1.2,
    seed: int = 0,
    name: str = "power-law",
) -> Graph:
    """Generate a graph with a power-law (scale-free-like) degree distribution.

    Real GCN datasets such as Reddit and COLLAB are heavily skewed; the skew is
    what makes the aggregation workload irregular, so benchmarks that depend on
    irregularity use this generator.  ``skew`` is the Zipf-like exponent:
    larger values concentrate edges on fewer hub vertices.
    """
    if num_vertices <= 1:
        raise ValueError("num_vertices must be > 1")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    target_undirected = max(1, num_edges // 2)
    # Draw endpoints proportionally to the power-law weights so hub vertices
    # accumulate high degree.  Skewed sampling produces many duplicate pairs,
    # so keep topping up until the unique-pair count approaches the target
    # (dense graphs such as COLLAB need several rounds).
    keys = np.empty(0, dtype=np.int64)
    for _ in range(12):
        remaining = target_undirected - len(keys)
        if remaining <= 0:
            break
        draw = max(remaining * 2, 1024)
        src = rng.choice(num_vertices, size=draw, p=weights)
        dst = rng.choice(num_vertices, size=draw, p=weights)
        mask = src != dst
        src, dst = src[mask], dst[mask]
        # Canonicalise undirected pairs so (u, v) and (v, u) deduplicate.  With
        # u < v < n the fused key u * n + v sorts like the (u, v) pair itself.
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        keys = np.unique(np.concatenate([keys, lo * num_vertices + hi]))
    if len(keys) > target_undirected:
        keep = rng.choice(len(keys), size=target_undirected, replace=False)
        keys = keys[keep]
    unique_pairs = np.stack([keys // num_vertices, keys % num_vertices], axis=1)
    if len(unique_pairs) == 0:
        unique_pairs = np.array([[0, 1]], dtype=np.int64)
    # Random vertex relabelling so hubs are not clustered at low indices,
    # which would make the interval/shard sparsity artificially regular.
    perm = rng.permutation(num_vertices)
    relabelled = perm[unique_pairs]
    return Graph.from_edge_list(
        relabelled, num_vertices,
        features=_features(num_vertices, feature_length, rng),
        undirected=True, name=name,
    )


def community_graph(
    num_vertices: int,
    num_edges: int,
    feature_length: int,
    num_communities: int = 8,
    intra_fraction: float = 0.85,
    seed: int = 0,
    name: str = "community",
) -> Graph:
    """Generate a stochastic-block-model-like graph with dense communities.

    Citation networks (Cora, Citeseer, Pubmed) have strong community structure
    *and* the crawl order that assigns vertex ids tends to keep community
    members close together in id space.  Communities are therefore laid out as
    contiguous id blocks: that id locality is what gives the interval-shard
    partitioning its reuse and the window sliding/shrinking its skippable runs
    of empty source rows.  ``intra_fraction`` controls how many edges stay
    inside a community.
    """
    if num_communities < 1:
        raise ValueError("num_communities must be >= 1")
    rng = np.random.default_rng(seed)
    # contiguous id blocks, with mildly uneven sizes
    boundaries = np.sort(rng.choice(
        np.arange(1, num_vertices), size=min(num_communities - 1, num_vertices - 1),
        replace=False)) if num_communities > 1 else np.array([], dtype=np.int64)
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [num_vertices]])
    community_members = [np.arange(lo, hi) for lo, hi in zip(starts, stops)]
    community_members = [m for m in community_members if len(m) > 1]
    target_undirected = max(1, num_edges // 2)
    edges = []
    for _ in range(target_undirected):
        if community_members and rng.random() < intra_fraction:
            members = community_members[rng.integers(len(community_members))]
            u, v = rng.choice(members, size=2, replace=False)
        else:
            u, v = rng.integers(0, num_vertices, size=2)
        if u != v:
            edges.append((int(u), int(v)))
    if not edges:
        edges = [(0, 1)]
    return Graph.from_edge_list(
        edges, num_vertices,
        features=_features(num_vertices, feature_length, rng),
        undirected=True, name=name,
    )


def grid_graph(side: int, feature_length: int, seed: int = 0, name: str = "grid") -> Graph:
    """Generate a 2-D grid graph (regular degree, used for edge-case tests)."""
    if side < 2:
        raise ValueError("side must be >= 2")
    num_vertices = side * side
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    rng = np.random.default_rng(seed)
    return Graph.from_edge_list(
        edges, num_vertices,
        features=_features(num_vertices, feature_length, rng),
        undirected=True, name=name,
    )


def star_graph(num_leaves: int, feature_length: int, seed: int = 0, name: str = "star") -> Graph:
    """Generate a star graph: one hub connected to every leaf.

    An extreme-skew corner case for the aggregation engine and the readout
    formulation ("an additional single vertex that connects all vertices").
    """
    if num_leaves < 1:
        raise ValueError("num_leaves must be >= 1")
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    rng = np.random.default_rng(seed)
    return Graph.from_edge_list(
        edges, num_leaves + 1,
        features=_features(num_leaves + 1, feature_length, rng),
        undirected=True, name=name,
    )
