"""Per-request k-hop subgraph extraction, neighbourhood signatures, fusion.

Each serving request asks for the embedding of one target vertex, but a GCN
layer needs the k-hop in-neighbourhood of that vertex to compute it.  The
:class:`SubgraphSampler` extracts that neighbourhood as a small standalone
:class:`~repro.graphs.graph.RowViewGraph` (local structure plus global
``vertex_ids``; feature rows stay in the base graph until read) so the rest
of the stack -- the batcher, the fleet, the HyGCN simulator, which reads
only ``feature_length`` -- can treat a request like any other workload graph.

The per-hop fan-out cap mirrors GraphSage-style sampled serving: at most
``fanout`` in-neighbours of each frontier vertex are expanded.  Extraction is
deterministic per ``(seed, target, num_hops, fanout)`` regardless of request
order -- the control plane's degradation ladder passes per-call hop/fanout
overrides, and each override shape is memoised under its own key -- which
keeps the result-cache semantics honest, and an internal LRU memo avoids
re-extracting hot vertices.

**Determinism contract (random-phase strided selection).**  Over-fanout
selection uses the HyGCN Sampler unit's interval-strided index mode
(Section 4.2) with a seeded random phase: an over-fanout vertex of
in-degree ``d`` keeps the neighbours at positions
``floor((u + j) * d / fanout)`` for ``j = 0..fanout-1``, where ``u`` is one
uniform phase drawn per over-fanout vertex.  Positions are strictly
increasing (``d / fanout > 1``), so exactly ``fanout`` distinct neighbours
survive and every neighbour's inclusion probability is ``fanout / d`` --
a classic systematic sample.  The phase stream is
``rng = default_rng((seed, target))`` (constructed lazily on the first hop
that needs it) drawing ``rng.random(n)`` per hop, ``n`` = that hop's
over-fanout frontier-vertex count in frontier order; under-fanout vertices
keep their full lists and never consume entropy.  One phase per vertex --
not one draw per candidate edge -- keeps selection O(fanout) even at the
1e4-degree hubs of power-law graphs, and the whole hop vectorizes into a
handful of array ops; any implementation consuming the same phase stream
reproduces the selection bit for bit, which is what lets the scalar
reference in ``tests/graphs/_reference.py`` check this module
differentially.

On top of extraction, this module provides the two primitives the
overlap-aware batching subsystem (:mod:`repro.serving.batching`) is built on:

* :meth:`SubgraphSampler.signature` -- a fixed-length **minhash signature**
  of a target's sampled neighbourhood.  Two signatures estimate the Jaccard
  similarity of the underlying neighbourhood vertex sets by the fraction of
  equal components, so the batcher can group overlapping requests without
  materialising unions;
* :meth:`SubgraphSampler.fuse` / :meth:`SubgraphSampler.fused_size` -- the
  **deduped union** of several samples: shared vertices appear once (their
  features are streamed once) and the edge set is the union, which is the
  fused graph one accelerator dispatch actually executes.  ``fused_size``
  is the cheap cost-model view (vertex counts only, no graph built) that
  the WFQ scheduler uses to price batches.

All of it is deterministic under the sampler ``seed`` and memoised in
bounded LRUs (``memo_size`` entries each for samples and signatures).

**Array core.**  Extraction, ``fused_size`` and ``fuse`` run on the base
graph's in-neighbour CSC arrays (:attr:`~repro.graphs.graph.Graph.colptr` /
:attr:`~repro.graphs.graph.Graph.row`, which every graph provides):
frontier expansion is ``colptr``/``row`` slicing, local-id assignment and
dedup are sort-free scatter/gather passes over index arrays, and edge lists
are assembled as contiguous arrays instead of Python tuples.
``tests/graphs/test_csc_equivalence.py`` checks every output bit for bit
against the scalar reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graphs.graph import CSRMatrix, Graph, RowViewGraph
from .cache import LRUCache

__all__ = ["SubgraphSample", "SubgraphSampler", "estimate_jaccard",
           "SIGNATURE_HASHES"]

#: Components per minhash signature.  16 one-permutation minhashes keep the
#: similarity estimate's standard error around 1/sqrt(16) = 0.25, plenty to
#: rank co-batching candidates, at 128 bytes per signature.
SIGNATURE_HASHES = 16

_NO_EDGES = np.empty(0, dtype=np.int64)
_NO_EDGES.setflags(write=False)


def estimate_jaccard(sig_a: np.ndarray,
                     sig_b: np.ndarray) -> Union[float, np.ndarray]:
    """Estimated Jaccard similarity of minhash signatures.

    The estimator is the fraction of equal components; the signatures must
    come from the same :class:`SubgraphSampler` (same seeded hash family).
    Two signatures give a ``float``.  Either argument may also be a stack
    of signatures (components on the last axis): leading axes broadcast
    and the result is a ``float64`` array, one similarity per pair, equal
    to what the pairs would give one at a time.
    """
    width = sig_a.shape[-1]
    if sig_b.shape[-1] != width:
        raise ValueError("signatures must have the same length")
    sims = np.count_nonzero(sig_a == sig_b, axis=-1) / width
    return float(sims) if sims.ndim == 0 else sims


@dataclass(frozen=True, eq=False)
class SubgraphSample:
    """The materialised neighbourhood of one target vertex.

    ``vertex_ids[i]`` is the *global* id (in the base graph) of local vertex
    ``i``; the target is always local vertex 0.  Samples are immutable and
    shared via the sampler's memo, so callers must never mutate ``graph``.
    """

    target_vertex: int
    graph: RowViewGraph

    @property
    def vertex_ids(self) -> np.ndarray:
        """Global vertex ids, a read-only ``int64`` array."""
        return self.graph.vertex_ids

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


class SubgraphSampler:
    """Extracts capped k-hop in-neighbourhood subgraphs from a base graph.

    ``num_hops`` / ``fanout`` are the default sampling shape; every public
    method accepts per-call overrides (used by the degradation ladder) and
    memoises each ``(target, hops, fanout)`` shape under its own key, so
    degraded and full-fidelity samples never alias in the memo.
    """

    def __init__(self, graph: Graph, num_hops: int = 2, fanout: int = 8,
                 seed: int = 0, memo_size: int = 2048):
        self.num_hops, self.fanout = self._shape(num_hops, fanout)
        self.graph = graph
        self.seed = int(seed)
        self._memo = LRUCache(memo_size)
        self._sig_memo = LRUCache(memo_size)
        #: Memo policy on a mutating graph (one with a ``version``
        #: attribute, i.e. a :class:`~repro.graphs.delta.DeltaGraph`):
        #: ``"targeted"`` drops exactly the memo entries whose sample
        #: contains a dirty vertex, ``"flush"`` clears both memos on any
        #: version change, ``"none"`` keeps stale entries (the serving
        #: loop's consistency tracker counts the resulting violations).
        self.invalidation = "targeted"
        #: graph version the cached arrays/memos were last synced against;
        #: ``None`` on immutable graphs, where _sync is a cheap no-op.
        self._graph_version = getattr(graph, "version", None)
        self._mutable = self._graph_version is not None
        # reverse index for targeted invalidation: global vertex id -> memo
        # keys whose cached sample contains it (only maintained on mutable
        # graphs; static runs pay nothing)
        self._vertex_keys: Dict[int, Set[Tuple]] = {}
        # graph version each live memo entry was computed at, and lifetime
        # drop counters (the consistency tracker folds these into
        # ConsistencyStats at the end of a run)
        self._key_versions: Dict[Tuple, int] = {}
        self.invalidated_samples = 0
        self.invalidated_signatures = 0
        self._colptr = graph.colptr
        self._row = graph.row
        # global id -> local id scratch table, -1 = unseen; reset to -1 for
        # exactly the touched entries after every extraction, so each
        # extract pays O(subgraph), not O(graph)
        self._local_lut = np.full(graph.num_vertices, -1, dtype=np.int64)
        # first-occurrence scratch for _first_seen; never reset -- every
        # query overwrites the entries it reads before reading them
        self._pos_lut = np.empty(graph.num_vertices, dtype=np.int64)
        # Seeded universal-hash family for the minhash signatures: odd 64-bit
        # multipliers (bijective mod 2^64) plus xor masks, fixed per sampler
        # seed so signatures are comparable across the whole run.
        rng = np.random.default_rng((self.seed, 0x51697A7A))
        self._sig_mult = (rng.integers(1, 2 ** 62, size=SIGNATURE_HASHES,
                                       dtype=np.uint64) << np.uint64(1)) \
            | np.uint64(1)
        self._sig_xor = rng.integers(0, 2 ** 62, size=SIGNATURE_HASHES,
                                     dtype=np.uint64)

    # ------------------------------------------------------------------ #
    # Streaming-graph synchronisation
    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        """Catch up with a mutated base graph (no-op on immutable graphs).

        Called at every public entry point.  Refreshes the cached
        ``colptr``/``row`` references and grows the scratch LUTs when the
        graph gained vertices -- this structural part always runs, so the
        sampler never crashes on a grown graph -- then applies the memo
        :attr:`invalidation` policy to the entries the mutations made
        stale.
        """
        if not self._mutable:
            return
        version = self.graph.version
        if version == self._graph_version:
            return
        synced_from = self._graph_version
        self._graph_version = version
        self._colptr = self.graph.colptr
        self._row = self.graph.row
        n = self.graph.num_vertices
        if n > self._local_lut.size:
            grown = np.full(n, -1, dtype=np.int64)
            grown[:self._local_lut.size] = self._local_lut
            self._local_lut = grown
            self._pos_lut = np.empty(n, dtype=np.int64)
        if self.invalidation == "flush":
            self._flush_memos()
        elif self.invalidation == "targeted":
            dirty = getattr(self.graph, "dirty_since", None)
            if dirty is None:
                # a mutable graph without change tracking: flush is the
                # only sound fallback
                self._flush_memos()
            else:
                self.invalidate_vertices(dirty(synced_from))

    def _flush_memos(self) -> None:
        self.invalidated_samples += len(self._memo)
        self.invalidated_signatures += len(self._sig_memo)
        self._memo.clear()
        self._sig_memo.clear()
        self._vertex_keys.clear()
        self._key_versions.clear()

    def invalidate_vertices(self, vertices: Iterable[int]) -> int:
        """Drop every memoised sample/signature containing ``vertices``.

        Returns the number of sample-memo entries dropped.  Uses the
        reverse vertex->keys index maintained on insertion, so the cost is
        proportional to the affected entries, not the memo size.
        """
        keys: Set[Tuple] = set()
        for v in np.asarray(vertices, dtype=np.int64).tolist():
            keys |= self._vertex_keys.pop(int(v), set())
        dropped = 0
        for key in keys:
            if self._memo.invalidate(key):
                dropped += 1
            if self._sig_memo.invalidate(key):
                self.invalidated_signatures += 1
            self._key_versions.pop(key, None)
        self.invalidated_samples += dropped
        return dropped

    def _register_sample(self, key: Tuple, sample: "SubgraphSample") -> None:
        """Index ``key`` under every vertex of ``sample`` (mutable graphs)."""
        for v in sample.vertex_ids.tolist():
            self._vertex_keys.setdefault(int(v), set()).add(key)
        self._key_versions[key] = self._graph_version

    def forget(self, keys: Iterable[Tuple]) -> None:
        """Silently drop memo entries: no invalidation counting, no cache
        counter perturbation.

        Probe hygiene for mutating runs: the calibration probe shares the
        run's sampler, and any memo entries it left behind would make the
        run's invalidation accounting depend on whether the process-wide
        probe memo hit (run-to-run nondeterminism).  Static runs never need
        this -- their memo state does not feed any reported number.
        """
        for key in keys:
            sample = self._memo.peek(key)
            if sample is not None and self._mutable:
                for v in sample.vertex_ids.tolist():
                    entry = self._vertex_keys.get(int(v))
                    if entry is not None:
                        entry.discard(key)
                        if not entry:
                            del self._vertex_keys[int(v)]
            self._memo.invalidate(key)
            self._sig_memo.invalidate(key)
            self._key_versions.pop(key, None)

    def memo_version(self, target_vertex: int, num_hops: Optional[int],
                     fanout: Optional[int]) -> Optional[int]:
        """Graph version the live memo entry for this shape was computed at
        (``None`` when nothing is memoised -- immutable graphs track no
        versions, so this is a mutable-graph-only probe)."""
        return self._key_versions.get(
            (target_vertex, *self._shape(num_hops, fanout)))

    def _shape(self, num_hops: Optional[int],
               fanout: Optional[int]) -> Tuple[int, int]:
        """Resolve a per-call ``(num_hops, fanout)`` override against the
        sampler defaults (``None`` = default) and validate it."""
        hops = self.num_hops if num_hops is None else int(num_hops)
        fan = self.fanout if fanout is None else int(fanout)
        if hops < 0:
            raise ValueError("num_hops must be >= 0")
        if fan < 1:
            raise ValueError("fanout must be >= 1")
        return hops, fan

    def _first_seen(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of the first occurrence of each value in ``values``.

        Sort-free O(n) dedup: scattering positions in *reverse* makes the
        earliest index win, so an element is a first occurrence exactly
        when the scratch table still holds its own index.  Stale scratch
        entries are harmless -- only entries in ``values`` are read, and
        those were all just written.
        """
        pos = self._pos_lut
        pos[values[::-1]] = np.arange(values.size - 1, -1, -1)
        return pos[values] == np.arange(values.size)

    def extract(self, target_vertex: int, num_hops: Optional[int] = None,
                fanout: Optional[int] = None) -> SubgraphSample:
        """Return the (memoised) k-hop subgraph rooted at ``target_vertex``.

        ``num_hops``/``fanout`` override the sampler defaults for this call --
        the control plane's degradation ladder uses them to serve overload
        traffic from a shallower/narrower neighbourhood.  Overridden
        extractions are memoised under their own ``(target, hops, fanout)``
        key, so degraded and full-fidelity samples never alias.  Extraction
        is deterministic per ``(seed, target, hops, fanout)``: the RNG is
        re-seeded per target, so the memo (and the result cache built on
        top of it) can never observe request-order-dependent samples.
        """
        self._sync()
        key = (target_vertex, *self._shape(num_hops, fanout))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        sample = self.extract_fresh(*key)
        self._memo.put(key, sample)
        if self._mutable:
            self._register_sample(key, sample)
        return sample

    def extract_fresh(self, target_vertex: int,
                      num_hops: Optional[int] = None,
                      fanout: Optional[int] = None) -> SubgraphSample:
        """Memo-bypassing extraction: always recomputes from the current
        graph arrays and never reads, writes or counts against the memo.

        This is the consistency tracker's reference computation -- compare
        it against :meth:`extract` to detect a stale memo entry surviving
        an update (extraction is deterministic per ``(seed, target, hops,
        fanout)``, so any difference is staleness, not randomness).

        The extraction itself runs over ``colptr``/``row`` slices, one hop
        at a time: it consumes the per-hop phase stream of the module-level
        determinism contract (one uniform per over-fanout frontier vertex;
        under-fanout vertices never touch the RNG), and new vertices take
        local ids in first-seen order over the concatenated per-hop
        neighbour stream.
        """
        self._sync()
        if not 0 <= target_vertex < self.graph.num_vertices:
            raise ValueError(f"target vertex {target_vertex} out of range")
        num_hops, fanout = self._shape(num_hops, fanout)
        # Seeding a Generator costs ~25us and consumes no entropy, so it is
        # constructed lazily on the first hop that draws; the key stream is
        # identical to eager construction.
        rng = None
        colptr, row = self._colptr, self._row
        lut = self._local_lut
        lut[target_vertex] = 0
        order_parts = [np.array([target_vertex], dtype=np.int64)]
        num_local = 1
        # edge sources / destinations, local ids (the empty leading part
        # keeps a subgraph without edges on the same CSR build)
        rows_parts: List[np.ndarray] = [_NO_EDGES]
        cols_parts: List[np.ndarray] = [_NO_EDGES]
        frontier = order_parts[0]
        frontier_base = 0  # frontier local ids are always consecutive
        for _ in range(num_hops):
            starts = colptr[frontier]
            degs = colptr[frontier + 1] - starts
            counts = np.minimum(degs, fanout)
            seg_end = np.cumsum(counts)
            total = int(seg_end[-1])
            if total == 0:
                break
            seg_start = seg_end - counts
            over = np.nonzero(degs > fanout)[0]
            if over.size == 0:
                # every frontier vertex keeps its full list: the segment
                # layout equals the slice layout, so one gather suffices --
                # position j of segment i reads row[starts[i] + j]
                rel = np.arange(total) - np.repeat(seg_start, counts)
                neigh = row[np.repeat(starts, counts) + rel]
            else:
                full = np.nonzero(degs <= fanout)[0]
                neigh = np.empty(total, dtype=np.int64)
                if full.size:
                    f_counts = counts[full]
                    f_end = np.cumsum(f_counts)
                    rel = np.arange(int(f_end[-1])) - np.repeat(
                        f_end - f_counts, f_counts)
                    neigh[np.repeat(seg_start[full], f_counts) + rel] = \
                        row[np.repeat(starts[full], f_counts) + rel]
                if rng is None:
                    rng = np.random.default_rng((self.seed, target_vertex))
                # random-phase strided selection, whole hop at once:
                # positions floor((u + j) * d / fanout) per over-fanout vertex
                u = rng.random(over.size)
                step = degs[over] / fanout
                offs = (u[:, None] * step[:, None]
                        + np.arange(fanout)[None, :] * step[:, None]
                        ).astype(np.int64)
                pos = (seg_start[over][:, None] + np.arange(fanout)).ravel()
                neigh[pos] = row[(starts[over][:, None] + offs).ravel()]
            dst_local = np.repeat(
                np.arange(frontier_base, frontier_base + frontier.size),
                counts)
            src_local = lut[neigh]
            unseen = src_local < 0
            fresh = neigh[unseen]
            if fresh.size:
                new_globals = fresh[self._first_seen(fresh)]
                lut[new_globals] = num_local + np.arange(new_globals.size)
                # patch only the previously-unseen entries instead of
                # re-gathering lut over the whole hop
                src_local[unseen] = lut[fresh]
                frontier_base = num_local
                num_local += new_globals.size
                order_parts.append(new_globals)
                frontier = new_globals
            else:
                frontier = np.empty(0, dtype=np.int64)
            rows_parts.append(src_local)
            cols_parts.append(dst_local)
            if frontier.size == 0:
                break
        order = np.concatenate(order_parts) if len(order_parts) > 1 \
            else order_parts[0]
        lut[order] = -1  # reset only the touched scratch entries
        csr = CSRMatrix.from_arrays(np.concatenate(rows_parts),
                                    np.concatenate(cols_parts), num_local)
        order.setflags(write=False)
        graph = RowViewGraph(csr, self.graph, order,
                             name=f"{self.graph.name}[v{target_vertex}]")
        return SubgraphSample(target_vertex=target_vertex, graph=graph)

    def signature_fresh(self, target_vertex: int,
                        num_hops: Optional[int] = None,
                        fanout: Optional[int] = None) -> np.ndarray:
        """Memo-bypassing :meth:`signature` (the tracker's reference)."""
        sample = self.extract_fresh(target_vertex, num_hops=num_hops,
                                    fanout=fanout)
        return self._signature_of(sample)

    def _signature_of(self, sample: "SubgraphSample") -> np.ndarray:
        """Minhash the vertex set of one sample."""
        vertices = sample.vertex_ids.astype(np.uint64)
        # h_j(v) = ((v + 1) * mult_j) ^ xor_j over Z_2^64; the signature is
        # the per-hash minimum over the neighbourhood's vertex set.
        hashed = ((vertices[:, None] + np.uint64(1))
                  * self._sig_mult[None, :]) ^ self._sig_xor[None, :]
        sig = hashed.min(axis=0)
        sig.setflags(write=False)
        return sig

    # ------------------------------------------------------------------ #
    # Neighbourhood signatures (overlap-aware batching)
    # ------------------------------------------------------------------ #
    def signature(self, target_vertex: int, num_hops: Optional[int] = None,
                  fanout: Optional[int] = None) -> np.ndarray:
        """Minhash signature of the sampled neighbourhood of ``target_vertex``.

        Returns a read-only ``uint64`` vector of :data:`SIGNATURE_HASHES`
        components; compare two with :func:`estimate_jaccard`.  The
        signature summarises the *same* sampled neighbourhood that
        :meth:`extract` would fuse (default shape, or the given override
        shape -- typically a shallower ``num_hops`` than the serving shape,
        the CLI's ``--overlap-k``), so similar signatures genuinely predict
        fused-subgraph shrinkage.  Deterministic per ``(seed, target, hops,
        fanout)`` and memoised in its own LRU; identical targets always get
        bit-identical signatures, which is what routes duplicate hot
        requests into the same batch.
        """
        self._sync()
        key = (target_vertex, *self._shape(num_hops, fanout))
        cached = self._sig_memo.get(key)
        if cached is not None:
            return cached
        sig = self._signature_of(self.extract(*key))
        self._sig_memo.put(key, sig)
        return sig

    # ------------------------------------------------------------------ #
    # Fused-subgraph dedup (cost model + execution model)
    # ------------------------------------------------------------------ #
    def fused_size(self, shapes: Iterable[Tuple[int, Optional[int],
                                                Optional[int]]]
                   ) -> Tuple[int, int]:
        """``(fused_vertices, naive_vertices)`` of a batch of sample shapes.

        ``shapes`` is one ``(target, num_hops, fanout)`` entry per *request*
        (``None`` components mean the sampler default).  ``naive_vertices``
        counts every request's standalone neighbourhood size -- duplicates
        included, which is what a batcher oblivious to overlap would stream
        -- while ``fused_vertices`` is the deduped union the fused dispatch
        actually touches.  This is the cost-model view of :meth:`fuse`
        (counts only, no graph built); the WFQ scheduler prices batches
        with it.  Uses the extraction memo, so pricing a batch of hot
        targets costs dictionary lookups, not re-extraction.
        """
        self._sync()
        arrays: List[np.ndarray] = []
        naive = 0
        for target, hops, fan in shapes:
            sample = self.extract(target, num_hops=hops, fanout=fan)
            naive += sample.num_vertices
            arrays.append(sample.vertex_ids)
        if not arrays:
            return 0, 0
        return int(self._first_seen(np.concatenate(arrays)).sum()), naive

    def fuse_requests(self, requests: Sequence, name: str
                      ) -> Tuple[RowViewGraph, int, int]:
        """``(graph, naive_vertices, distinct_samples)`` of a batch.

        Requests with the same ``target_vertex``, ``degrade_hops`` and
        ``degrade_fanout`` share one sample; more than one distinct sample
        is fused as ``name``.  ``naive_vertices`` counts every request's.
        """
        shapes = [(r.target_vertex, r.degrade_hops, r.degrade_fanout)
                  for r in requests]
        by_shape = {s: self.extract(*s) for s in dict.fromkeys(shapes)}
        naive = sum(by_shape[s].num_vertices for s in shapes)
        samples = list(by_shape.values())
        graph = samples[0].graph if len(samples) == 1 \
            else self.fuse(samples, name=name)
        return graph, naive, len(samples)

    def fuse(self, samples: Sequence[SubgraphSample],
             name: str = "fused") -> RowViewGraph:
        """Deduped union of ``samples`` as one standalone fused graph.

        Vertices shared between neighbourhoods appear **once** in the fused
        row view's ``vertex_ids`` (their features are streamed once) and the
        edge set is the union of the samples' edge sets on the shared local
        id space -- the fused subgraph HyGCN's aggregation engine benefits
        from when co-batched neighbourhoods intersect.  Local ids follow
        first-seen order over ``samples`` (deterministic for a deterministic
        sample order).  The fused graph sets ``memoize_workloads = False``:
        fusions are unique per dispatch, so a workload-memo entry would only
        push out entries of single-sample graphs, which repeat.
        """
        if not samples:
            raise ValueError("fuse requires at least one sample")
        self._sync()
        concat = np.concatenate([s.vertex_ids for s in samples])
        order = concat[self._first_seen(concat)]
        lut = self._local_lut
        lut[order] = np.arange(order.size)
        rows_parts: List[np.ndarray] = [_NO_EDGES]
        cols_parts: List[np.ndarray] = [_NO_EDGES]
        for sample in samples:
            csr = sample.graph.csr
            if csr.nnz == 0:
                continue
            vid = sample.vertex_ids
            # sample-local (v -> u) out-edges mapped to fused local ids
            v_global = vid[np.repeat(np.arange(csr.num_rows),
                                     np.diff(csr.indptr))]
            u_global = vid[csr.indices]
            rows_parts.append(lut[v_global])
            cols_parts.append(lut[u_global])
        lut[order] = -1  # reset only the touched scratch entries
        csr = CSRMatrix.from_arrays(np.concatenate(rows_parts),
                                    np.concatenate(cols_parts), order.size)
        order.setflags(write=False)
        fused = RowViewGraph(csr, self.graph, order, name=name)
        fused.memoize_workloads = False
        return fused
