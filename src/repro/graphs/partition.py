"""Dataset partitioners behind multi-chip serving.

These back :mod:`repro.serving.sharding` (the Fig. 18 scalability story
taken online): :func:`hash_partition` / :func:`locality_partition` assign
every vertex an owning shard, and :func:`build_shard_plan` derives the
:class:`ShardPlan` -- per-shard ownership, ghost/halo vertex sets and
edge-cut statistics -- from any ownership array with pure CSC array
arithmetic (one ``repeat`` + one comparison over the edge list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .graph import Graph

__all__ = ["ShardPlan", "build_shard_plan",
           "hash_owner", "hash_partition", "locality_partition"]


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """Vertex ownership of one graph across a group of ``num_shards`` chips.

    ``owner[v]`` is the shard that holds vertex ``v``'s features in its
    chip's on-board memory; ``halo[s]`` is shard ``s``'s **ghost set** --
    the sorted vertex ids that are sources of in-edges into ``s``-owned
    destinations but are owned elsewhere, i.e. exactly the features shard
    ``s`` must fetch over the interconnect when a neighbourhood it
    aggregates crosses the cut.  ``edge_cut`` counts the directed edges
    whose endpoints live on different shards; minimising it is the whole
    point of the ``locality`` partitioner.

    The plan is static data derived once per (graph, partitioner, shards,
    seed); :mod:`repro.serving.sharding` memoises it across runs.
    """

    num_shards: int
    partitioner: str
    seed: int
    owner: np.ndarray = field(repr=False)
    halo: Tuple[np.ndarray, ...] = field(repr=False)
    shard_sizes: np.ndarray = field(repr=False)
    edge_cut: int = 0
    num_edges: int = 0

    @property
    def num_vertices(self) -> int:
        return int(self.owner.shape[0])

    @property
    def edge_cut_fraction(self) -> float:
        """Fraction of directed edges crossing shard boundaries."""
        return self.edge_cut / self.num_edges if self.num_edges else 0.0

    @property
    def halo_vertices(self) -> int:
        """Total ghost-set size summed over shards."""
        return int(sum(h.size for h in self.halo))

    @property
    def size_imbalance(self) -> float:
        """Largest shard's owned-vertex count over the mean (1.0 = balanced)."""
        if self.num_shards == 0 or self.num_vertices == 0:
            return 0.0
        mean = self.num_vertices / self.num_shards
        return float(self.shard_sizes.max()) / mean if mean else 0.0

    def owned(self, shard: int) -> np.ndarray:
        """Sorted vertex ids owned by ``shard``."""
        return np.flatnonzero(self.owner == shard)


def build_shard_plan(graph: Graph, owner: np.ndarray, *,
                     partitioner: str = "", seed: int = 0) -> ShardPlan:
    """Derive the :class:`ShardPlan` for an ownership array over ``graph``.

    ``owner`` must assign every vertex exactly one shard id in
    ``[0, max(owner) + 1)``; the number of shards is ``owner.max() + 1``
    unless the array is empty (one shard).  Edge-cut and the per-shard halo
    sets come straight from the CSC arrays: with ``dst_owner`` the owner of
    each edge's destination (``repeat`` of ``owner`` by in-degree) and
    ``src_owner = owner[indices]``, the cut edges are
    ``src_owner != dst_owner`` and shard ``s``'s halo is the unique sources
    of cut edges with ``dst_owner == s``.
    """
    owner = np.ascontiguousarray(owner, dtype=np.int64)
    if owner.shape != (graph.num_vertices,):
        raise ValueError(
            f"owner must have shape ({graph.num_vertices},), got {owner.shape}")
    num_shards = int(owner.max()) + 1 if owner.size else 1
    if owner.size and owner.min() < 0:
        raise ValueError("owner shard ids must be >= 0")
    csc = graph.csc
    indptr = np.asarray(csc.indptr)
    indices = np.asarray(csc.indices)
    if owner.size:
        dst_owner = np.repeat(owner, np.diff(indptr))
        src_owner = owner[indices]
        cut = src_owner != dst_owner
        edge_cut = int(np.count_nonzero(cut))
        halo = tuple(np.unique(indices[cut & (dst_owner == s)])
                     for s in range(num_shards))
        shard_sizes = np.bincount(owner, minlength=num_shards).astype(np.int64)
    else:
        edge_cut = 0
        halo = tuple(np.empty(0, dtype=np.int64) for _ in range(num_shards))
        shard_sizes = np.zeros(num_shards, dtype=np.int64)
    return ShardPlan(num_shards=num_shards, partitioner=partitioner, seed=seed,
                     owner=owner, halo=halo, shard_sizes=shard_sizes,
                     edge_cut=edge_cut, num_edges=int(indices.shape[0]))


def hash_owner(ids: np.ndarray, num_shards: int, seed: int = 0) -> np.ndarray:
    """Splitmix64 ownership of arbitrary vertex ids (the hash rule itself).

    Factored out of :func:`hash_partition` so streaming runs can assign
    newly inserted vertices the exact owner a from-scratch repartition
    would: the rule is a pure function of ``(id, num_shards, seed)``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    ids = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = ids + np.uint64(seed & 0xFFFFFFFFFFFFFFFF) \
            * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(num_shards)).astype(np.int64)


def hash_partition(graph: Graph, num_shards: int, seed: int = 0) -> np.ndarray:
    """Seeded multiplicative-hash ownership (the baseline partitioner).

    Every vertex id is mixed through a splitmix64-style avalanche keyed by
    ``seed`` and reduced modulo ``num_shards``, so ownership is uniform,
    seed-dependent and completely locality-oblivious -- the edge-cut of a
    random assignment, which is what ``locality`` is measured against.
    """
    return hash_owner(np.arange(graph.num_vertices, dtype=np.uint64),
                      num_shards, seed)


def locality_partition(graph: Graph, num_shards: int, seed: int = 0) -> np.ndarray:
    """Greedy streaming edge-cut minimiser (LDG, the METIS-style heuristic).

    Vertices are visited in descending total-degree order (hubs first, ties
    on the lower id) and each is placed on the shard maximising::

        |already-placed neighbours on s| * (1 - size(s) / capacity)

    with ``capacity = ceil(V / num_shards)`` -- the linear penalty is what
    keeps shard sizes balanced while neighbours cluster (Stanton & Kliot's
    linear deterministic greedy).  A vertex with no placed neighbours (or
    only zero scores) takes the emptiest shard, lowest id first.  The
    result is deterministic for any ``seed`` (the parameter exists for
    registry uniformity; the greedy consumes no randomness).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = graph.num_vertices
    if num_shards == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    csc = graph.csc
    csr = graph.csr
    in_ptr, in_idx = np.asarray(csc.indptr), np.asarray(csc.indices)
    out_ptr, out_idx = np.asarray(csr.indptr), np.asarray(csr.indices)
    degree = np.diff(in_ptr) + np.diff(out_ptr)
    order = np.argsort(-degree, kind="stable")
    capacity = -(-n // num_shards)
    owner = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_shards, dtype=np.int64)
    for v in order:
        neighbours = np.concatenate((in_idx[in_ptr[v]:in_ptr[v + 1]],
                                     out_idx[out_ptr[v]:out_ptr[v + 1]]))
        placed = owner[neighbours]
        placed = placed[placed >= 0]
        open_shards = sizes < capacity
        best = -1
        if placed.size:
            counts = np.bincount(placed, minlength=num_shards)
            score = counts * (1.0 - sizes / capacity)
            score[~open_shards] = -1.0
            best = int(np.argmax(score))
            if score[best] <= 0.0:
                best = -1
        if best < 0:
            # no placed neighbours anywhere open: emptiest open shard wins
            masked = np.where(open_shards, sizes, n + 1)
            best = int(np.argmin(masked))
        owner[v] = best
        sizes[best] += 1
    return owner
