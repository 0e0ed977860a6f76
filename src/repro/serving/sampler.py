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
a classic systematic sample.  Each target owns one phase stream, its
**phase prefix**: the values ``default_rng((seed, target)).random(k)``
returns, for any ``k``.  An extraction rooted at ``target`` reads that
prefix in order -- hop by hop, each hop's over-fanout frontier vertices in
frontier order -- whatever its shape; under-fanout vertices keep their
full lists and read no phase.  PCG64 doubles are one output each, so
``random(a)`` followed by ``random(b)`` equals ``random(a + b)``: a prefix
drawn once and extended by re-seeding and drawing longer is the same
stream, and the sampler keeps each target's prefix instead of seeding a
Generator per root per call.  One phase per vertex -- not one draw per
candidate edge -- keeps selection O(fanout) even at the 1e4-degree hubs of
power-law graphs, and the whole hop vectorizes into a handful of array
ops; any implementation consuming the same phase stream
reproduces the selection bit for bit, which is what lets the scalar
reference in ``tests/graphs/_reference.py`` check this module
differentially.

On top of extraction, this module provides the two primitives the
overlap-aware batching subsystem (:mod:`repro.serving.batching`) is built on:

* :meth:`SubgraphSampler.signature` -- a fixed-length **minhash signature**
  of a target's sampled neighbourhood.  Two signatures estimate the Jaccard
  similarity of the underlying neighbourhood vertex sets by the fraction of
  equal components, so the batcher can group overlapping requests without
  materialising unions.  :meth:`SubgraphSampler.warm_signatures` is its
  batched path: the serve signs a run's distinct targets before its event
  loop in one :meth:`SubgraphSampler.extract_fresh_many` call, one hash of
  the concatenated vertex ids and one ``np.minimum.reduceat``, filling the
  signature memo the arrivals then read (immutable graphs only, never
  past the memo's free room).  :meth:`SubgraphSampler.warm_samples` is
  its sample-memo twin under the same guards: one call extracts a run's
  distinct targets at the serving shape, so batches find their samples
  memoised.  On the benchmark's ib-overlap workload one serve makes 2
  ``extract_fresh_many`` calls instead of 218 and no sample-memo miss
  instead of 1,036;
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
:attr:`~repro.graphs.graph.Graph.row`, which every graph provides).  One
multi-root core, :meth:`SubgraphSampler.extract_fresh_many`, extracts every
root of a call in one pass per hop, as HyGCN's Sampler treats a batch of
vertices as one unit of work: frontier expansion is ``colptr``/``row``
slicing over all roots at once, local ids come from one stable grouping of
fused ``root * num_vertices + v`` keys per hop (hop 1 needs none), and one
block-diagonal CSC built for the whole call (one sort on the (destination,
source) key) is sliced into the per-root samples.  A lone extraction is
the one-root call of the same core.  The batch call sites --
``fuse_requests``, ``fused_size`` and the streaming consistency check --
fetch their memo misses through
:meth:`SubgraphSampler.extract_many`, which replays the memo traffic of
sequential :meth:`SubgraphSampler.extract` calls exactly.  ``fuse`` and
``fused_size`` have no per-sample loop either: they work on the samples'
concatenated ``(vertex_ids, colptr, row)``.  No serve builds a CSR.
``tests/graphs/test_csc_equivalence.py`` checks every output bit for bit
against the scalar reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graphs.graph import CSCMatrix, Graph, RowViewGraph
from .cache import LRUCache

__all__ = ["SubgraphSample", "SubgraphSampler", "estimate_jaccard",
           "SIGNATURE_HASHES"]

#: Components per minhash signature.  16 one-permutation minhashes keep the
#: similarity estimate's standard error around 1/sqrt(16) = 0.25, plenty to
#: rank co-batching candidates, at 128 bytes per signature.
SIGNATURE_HASHES = 16

#: Shortest phase prefix drawn per target: covers a default two-hop
#: extraction (one root phase plus at most ``fanout`` = 8 hop-1 phases), so
#: a target is seeded once however many shapes and calls read it.
_MIN_PHASES = 16

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
    sims = (sig_a == sig_b).sum(axis=-1) / width
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
        # target -> its phase prefix (module docstring); one short array
        # per distinct target that ever had an over-fanout vertex, valid
        # across graph versions since phases depend on (seed, target) only
        self._phase_prefix: Dict[int, np.ndarray] = {}
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
        # every key held by either memo, with the graph version its sample
        # was computed at and the vertices it is indexed under (a signature
        # outliving its sample keeps the sample's vertices); pruned when a
        # key leaves both memos.  The lifetime drop counters below are
        # folded into ConsistencyStats at the end of a run.
        self._registered: Dict[Tuple, Tuple[int, List[int]]] = {}
        self.invalidated_samples = 0
        self.invalidated_signatures = 0
        self._colptr = graph.colptr
        self._row = graph.row
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
        ``colptr``/``row`` references and grows the scratch LUT when the
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
        if n > self._pos_lut.size:
            self._pos_lut = np.empty(n, dtype=np.int64)
        if self.invalidation == "flush":
            self._flush_memos()
        elif self.invalidation == "targeted":
            self.invalidate_vertices(self.graph.dirty_since(synced_from))

    def _flush_memos(self) -> None:
        self.invalidated_samples += len(self._memo)
        self.invalidated_signatures += len(self._sig_memo)
        self._memo.clear()
        self._sig_memo.clear()
        self._vertex_keys.clear()
        self._registered.clear()

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
            self._registered.pop(key, None)
        self.invalidated_samples += dropped
        return dropped

    def _memo_put(self, key: Tuple, sample: "SubgraphSample") -> None:
        """Memoise a freshly extracted sample; on a mutable graph, index
        it for invalidation and prune the entry the put evicted."""
        evicted = self._memo.put(key, sample)
        if not self._mutable:
            return
        if key in self._memo:  # a zero-capacity memo drops every put
            vertices = sample.vertex_ids.tolist()
            for v in vertices:
                self._vertex_keys.setdefault(v, set()).add(key)
            held = self._registered.get(key)
            if held is not None:
                vertices = sorted(set(held[1]).union(vertices))
            self._registered[key] = (self._graph_version, vertices)
        if evicted is not None:
            self._release(evicted[0])

    def _release(self, key: Tuple) -> None:
        """Drop the invalidation index of ``key`` once neither memo holds
        it."""
        if key in self._memo or key in self._sig_memo:
            return
        held = self._registered.pop(key, None)
        if held is None:
            return
        for v in held[1]:
            entry = self._vertex_keys.get(v)
            if entry is not None:
                entry.discard(key)
                if not entry:
                    del self._vertex_keys[v]

    def memo_version(self, target_vertex: int, num_hops: Optional[int],
                     fanout: Optional[int]) -> Optional[int]:
        """Graph version the live memo entry for this shape was computed at
        (``None`` when nothing is memoised -- immutable graphs track no
        versions, so this is a mutable-graph-only probe)."""
        key = (target_vertex, *self._shape(num_hops, fanout))
        held = self._registered.get(key)
        return held[0] if held is not None and key in self._memo else None

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
        when the scratch table still holds its own index; the table keeps
        every value's first index until the next call.  Stale scratch
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
        self._memo_put(key, sample)
        return sample

    def extract_many(self, shapes: Iterable[Tuple[int, Optional[int],
                                                   Optional[int]]]
                     ) -> List[SubgraphSample]:
        """:meth:`extract` of every ``(target, num_hops, fanout)`` shape, in
        order (``None`` components mean the sampler default).

        Leaves the memo as the sequential ``extract`` calls would: the same
        gets and puts in the same order, hence the same counters, recency,
        evictions and invalidation index.  The shapes absent from the memo
        at entry are extracted together (:meth:`extract_fresh_shapes`).
        """
        self._sync()
        keys = [(target, *self._shape(hops, fan))
                for target, hops, fan in shapes]
        absent = [key for key in dict.fromkeys(keys) if key not in self._memo]
        fresh = dict(zip(absent, self.extract_fresh_shapes(absent)))
        samples = []
        for key in keys:
            sample = self._memo.get(key)
            if sample is None:
                sample = fresh.get(key)
                if sample is None:  # evicted by one of this call's puts
                    sample = self.extract_fresh(*key)
                self._memo_put(key, sample)
            samples.append(sample)
        return samples

    def extract_fresh(self, target_vertex: int,
                      num_hops: Optional[int] = None,
                      fanout: Optional[int] = None) -> SubgraphSample:
        """Memo-bypassing extraction: always recomputes from the current
        graph arrays and never reads, writes or counts against the memo.

        This is the consistency tracker's reference computation -- compare
        it against :meth:`extract` to detect a stale memo entry surviving
        an update (extraction is deterministic per ``(seed, target, hops,
        fanout)``, so any difference is staleness, not randomness).  It is
        the one-root call of :meth:`extract_fresh_many`.
        """
        return self.extract_fresh_many((target_vertex,), num_hops, fanout)[0]

    def extract_fresh_shapes(self, shapes: Sequence[Tuple[int, Optional[int],
                                                         Optional[int]]]
                             ) -> List[SubgraphSample]:
        """Memo-bypassing extraction of every ``(target, num_hops, fanout)``
        shape, in order: one :meth:`extract_fresh_many` call per distinct
        ``(num_hops, fanout)``."""
        groups: Dict[Tuple, List[int]] = {}
        for i, (_, hops, fan) in enumerate(shapes):
            groups.setdefault((hops, fan), []).append(i)
        samples: List[Optional[SubgraphSample]] = [None] * len(shapes)
        for (hops, fan), positions in groups.items():
            extracted = self.extract_fresh_many(
                [shapes[i][0] for i in positions], hops, fan)
            for i, sample in zip(positions, extracted):
                samples[i] = sample
        return samples

    def extract_fresh_many(self, targets: Sequence[int],
                           num_hops: Optional[int] = None,
                           fanout: Optional[int] = None
                           ) -> List[SubgraphSample]:
        """Memo-bypassing extraction of every root in ``targets`` at once.

        Returns one sample per root, in ``targets`` order, each identical
        to what a lone extraction of that root gives.  All roots expand in
        one pass per hop over fused ``root * num_vertices + v`` keys
        (``root`` is the position in ``targets``):

        * each root reads its target's phase prefix in its frontier
          order, as the module-level determinism contract requires;
        * vertices are numbered in discovery order over the whole call, and
          a root's vertices are discovered in its first-seen order over its
          concatenated per-hop neighbour stream.  Hop 1 needs no grouping:
          an in-list holds no duplicates (the CSC is deduplicated), so the
          only possible repeat is the root itself.  Each later hop finds
          every key's first occurrence with one stable argsort of the seen
          keys followed by the hop's keys;
        * a stable sort by root turns discovery order into one
          block-diagonal CSC for the whole call, sliced into the per-root
          subgraphs.
        """
        self._sync()
        num_hops, fanout = self._shape(num_hops, fanout)
        n = self.graph.num_vertices
        for target in targets:
            if not 0 <= target < n:
                raise ValueError(f"target vertex {target} out of range")
        num_roots = len(targets)
        if num_roots == 0:
            return []
        colptr, row = self._colptr, self._row
        # phases each root has read from its target's prefix so far
        used = [0] * num_roots
        # the frontier's global ids, owning roots (ascending) and discovery
        # ids; root r is discovered r-th
        frontier = roots = np.array(targets, dtype=np.int64)
        f_root = f_id = np.arange(num_roots)
        count = num_roots
        # every vertex as (global id, root) in discovery order, every edge
        # as (source, destination) discovery ids, one part per hop (the
        # empty leading edge part keeps an edgeless call on the same build)
        v_parts, vr_parts = [roots], [f_root]
        src_parts: List[np.ndarray] = [_NO_EDGES]
        dst_parts: List[np.ndarray] = [_NO_EDGES]
        # fused keys of the discovered vertices, kept while a hop follows
        key_parts: List[np.ndarray] = []
        for hop in range(num_hops):
            starts = colptr[frontier]
            degs = colptr[frontier + 1] - starts
            counts = np.minimum(degs, fanout)
            seg_end = counts.cumsum()
            total = int(seg_end[-1])
            if total == 0:
                break
            seg_start = seg_end - counts
            over = (degs > fanout).nonzero()[0]
            if over.size == 0:
                # every frontier vertex keeps its full list: the segment
                # layout equals the slice layout, so one gather suffices --
                # position j of segment i reads row[starts[i] + j]
                neigh = row[np.arange(total)
                            + (starts - seg_start).repeat(counts)]
            else:
                full = (degs <= fanout).nonzero()[0]
                neigh = np.empty(total, dtype=np.int64)
                if full.size:
                    f_counts = counts[full]
                    f_end = f_counts.cumsum()
                    f_start = f_end - f_counts
                    rel = np.arange(int(f_end[-1]))
                    neigh[rel + (seg_start[full] - f_start).repeat(f_counts)] \
                        = row[rel + (starts[full] - f_start).repeat(f_counts)]
                # random-phase strided selection, whole hop at once:
                # positions floor((u + j) * d / fanout) per over-fanout vertex
                u = self._phases(used, targets, f_root[over])
                step = degs[over] / fanout
                offs = (u[:, None] * step[:, None]
                        + np.arange(fanout)[None, :] * step[:, None]
                        ).astype(np.int64)
                pos = (seg_start[over][:, None] + np.arange(fanout)).ravel()
                neigh[pos] = row[(starts[over][:, None] + offs).ravel()]
            stream_root = f_root.repeat(counts)
            dst_parts.append(f_id.repeat(counts))
            if hop == 0:
                is_first = neigh != roots.repeat(counts)
                src = np.where(is_first, is_first.cumsum() + (count - 1),
                               stream_root)
            else:
                # stable grouping of the seen keys followed by this hop's:
                # a group's leader is the key's earliest occurrence (a seen
                # vertex's discovery id is its position), and a stream
                # element leading its own group is a new vertex
                keys = np.concatenate((*key_parts, stream_root * n + neigh))
                order = keys.argsort(kind="stable")
                grouped = keys[order]
                head = np.empty(keys.size, dtype=bool)
                head[0] = True
                np.not_equal(grouped[1:], grouped[:-1], out=head[1:])
                lead = order[head][grouped[head].searchsorted(keys[count:])]
                is_first = lead == np.arange(count, keys.size)
                ids = np.arange(keys.size)
                ids[count:] = is_first.cumsum() + (count - 1)
                src = ids[lead]
            src_parts.append(src)
            frontier = neigh[is_first]
            if frontier.size == 0:
                break
            f_root = stream_root[is_first]
            f_id = np.arange(count, count + frontier.size)
            count += frontier.size
            v_parts.append(frontier)
            vr_parts.append(f_root)
            if hop + 1 < num_hops:
                if hop == 0:
                    key_parts.append(vr_parts[0] * n + roots)
                key_parts.append(f_root * n + frontier)
        vertex_ids = np.concatenate(v_parts)
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        if num_roots == 1:
            ends = [count]
        else:
            # discovery order -> block order: the stable sort by root keeps
            # each root's vertices in its own discovery order
            vertex_root = np.concatenate(vr_parts)
            perm = vertex_root.argsort(kind="stable")
            vertex_ids = vertex_ids[perm]
            block_id = np.empty(count, dtype=np.int64)
            block_id[perm] = np.arange(count)
            src, dst = block_id[src], block_id[dst]
            ends = np.bincount(vertex_root, minlength=num_roots) \
                .cumsum().tolist()
        vertex_ids.setflags(write=False)
        # edges are unique by construction: each vertex is a frontier vertex
        # once, and its kept in-neighbours are distinct
        csc = CSCMatrix.from_arrays(src, dst, count, deduplicate=False)
        name = self.graph.name
        samples = []
        start = 0
        for target, stop in zip(targets, ends):
            graph = RowViewGraph(
                csc if num_roots == 1 else csc.block(start, stop),
                self.graph, vertex_ids[start:stop],
                name=f"{name}[v{target}]")
            samples.append(SubgraphSample(target_vertex=target, graph=graph))
            start = stop
        return samples

    def _phases(self, used: List[int], targets: Sequence[int],
                over_roots: np.ndarray) -> np.ndarray:
        """One hop's phases: every root in ``over_roots`` (ascending, one
        entry per over-fanout frontier vertex) reads its count from its
        target's phase prefix, past the ``used[root]`` phases its earlier
        hops read.  A prefix too short for the read is re-seeded and drawn
        at least twice as long (exact: see the module docstring)."""
        if over_roots[0] == over_roots[-1]:
            bounds = [0, over_roots.size]
        else:
            bounds = [0, *((over_roots[1:] != over_roots[:-1]).nonzero()[0]
                           + 1).tolist(), over_roots.size]
        prefixes = self._phase_prefix
        draws = []
        for lo, hi in zip(bounds, bounds[1:]):
            root = int(over_roots[lo])
            target = targets[root]
            start = used[root]
            stop = used[root] = start + hi - lo
            prefix = prefixes.get(target)
            if prefix is None or prefix.size < stop:
                size = max(stop, _MIN_PHASES,
                           0 if prefix is None else 2 * prefix.size)
                prefix = prefixes[target] = np.random.default_rng(
                    (self.seed, target)).random(size)
                prefix.setflags(write=False)
            draws.append(prefix[start:stop])
        return draws[0] if len(draws) == 1 else np.concatenate(draws)

    def signature_fresh(self, target_vertex: int,
                        num_hops: Optional[int] = None,
                        fanout: Optional[int] = None) -> np.ndarray:
        """Memo-bypassing :meth:`signature` (the tracker's reference)."""
        sample = self.extract_fresh(target_vertex, num_hops=num_hops,
                                    fanout=fanout)
        return self._signature_of(sample)

    def _hash(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Every vertex under every hash: ``h_j(v) = ((v + 1) * mult_j) ^
        xor_j`` over Z_2^64, one row per vertex."""
        vertices = vertex_ids.astype(np.uint64)
        return ((vertices[:, None] + np.uint64(1))
                * self._sig_mult[None, :]) ^ self._sig_xor[None, :]

    def _signature_of(self, sample: "SubgraphSample") -> np.ndarray:
        """Minhash the vertex set of one sample: the per-hash minimum over
        the neighbourhood's vertex set."""
        sig = self._hash(sample.vertex_ids).min(axis=0)
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
        evicted = self._sig_memo.put(key, sig)
        if evicted is not None and self._mutable:
            self._release(evicted[0])
        return sig

    def warm_signatures(self, targets: Iterable[int],
                        num_hops: Optional[int] = None,
                        fanout: Optional[int] = None) -> int:
        """Sign many targets together into the signature memo; returns how
        many signatures it put.

        The distinct ``targets`` the memo lacks are put in first-occurrence
        order, each under the key :meth:`signature` reads and bit-identical
        to what it would compute: one :meth:`extract_fresh_many` call
        extracts them all, their concatenated vertex ids are hashed once
        and ``np.minimum.reduceat`` takes each sample's minimum.  Warming
        only saves work, so it never changes what a run computes:
        on a mutable graph it puts nothing (memo state reaches the
        consistency stats there), and it puts at most the memo's free
        room, so no put evicts.  The sample memo is left alone.
        """
        hops, fan, absent = self._warm_targets(self._sig_memo, targets,
                                               num_hops, fanout)
        if not absent:
            return 0
        samples = self.extract_fresh_many(absent, hops, fan)
        sizes = np.array([sample.num_vertices for sample in samples])
        sigs = np.minimum.reduceat(
            self._hash(np.concatenate([s.vertex_ids for s in samples])),
            sizes.cumsum() - sizes, axis=0)
        sigs.setflags(write=False)  # its rows, the memo's values, too
        for target, sig in zip(absent, sigs):
            self._sig_memo.put((target, hops, fan), sig)
        return len(absent)

    def warm_samples(self, targets: Iterable[int],
                     num_hops: Optional[int] = None,
                     fanout: Optional[int] = None) -> int:
        """Extract many targets together into the sample memo; returns how
        many samples it put.

        The sample-memo twin of :meth:`warm_signatures`, under the same
        guards: the distinct ``targets`` the memo lacks, in
        first-occurrence order and at most the memo's free room, are
        extracted by one :meth:`extract_fresh_many` call and put under the
        key :meth:`extract` reads, each identical to what a lone
        extraction gives.  A mutable graph is never warmed, and the
        signature memo is left alone.
        """
        hops, fan, absent = self._warm_targets(self._memo, targets,
                                               num_hops, fanout)
        if not absent:
            return 0
        for target, sample in zip(absent,
                                  self.extract_fresh_many(absent, hops, fan)):
            self._memo.put((target, hops, fan), sample)
        return len(absent)

    def _warm_targets(self, memo: LRUCache, targets: Iterable[int],
                      num_hops: Optional[int], fanout: Optional[int]
                      ) -> Tuple[int, int, List[int]]:
        """``(hops, fanout, absent)`` for a warm-up of ``memo``: the
        distinct ``targets`` it lacks at the resolved shape, in
        first-occurrence order, cut to its free room so that no warm-up
        put evicts.  ``absent`` is empty on a mutable graph, whose memo
        state reaches the consistency stats."""
        if self._mutable:
            return 0, 0, []
        hops, fan = self._shape(num_hops, fanout)
        room = memo.capacity - len(memo)
        absent = [t for t in dict.fromkeys(targets)
                  if (t, hops, fan) not in memo][:room]
        return hops, fan, absent

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
        with it.  Fetches through :meth:`extract_many`, so pricing a batch
        of hot targets costs dictionary lookups, and its misses are
        extracted in one multi-root pass.
        """
        samples = self.extract_many(shapes)
        if not samples:
            return 0, 0
        vertex_ids = np.concatenate([sample.vertex_ids for sample in samples])
        return int(self._first_seen(vertex_ids).sum()), int(vertex_ids.size)

    def fuse_requests(self, requests: Sequence, name: str
                      ) -> Tuple[RowViewGraph, int, int]:
        """``(graph, naive_vertices, distinct_samples)`` of a batch.

        Requests with the same ``target_vertex``, ``degrade_hops`` and
        ``degrade_fanout`` share one sample; more than one distinct sample
        is fused as ``name``.  ``naive_vertices`` counts every request's.
        """
        shapes = [(r.target_vertex, r.degrade_hops, r.degrade_fanout)
                  for r in requests]
        distinct = list(dict.fromkeys(shapes))
        by_shape = dict(zip(distinct, self.extract_many(distinct)))
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
        sample order).  The samples' CSCs are stacked, not walked: every
        edge is mapped in a few passes over their concatenated arrays, and
        one sort on the (destination, source) key builds the fused CSC.  The
        fused graph sets ``memoize_workloads = False``: fusions are unique
        per dispatch, so a workload-memo entry would only push out entries
        of single-sample graphs, which repeat.
        """
        if not samples:
            raise ValueError("fuse requires at least one sample")
        self._sync()
        # the samples' arrays, each concatenated once: position p of
        # ``vertex_ids`` is column p of the stacked sample CSCs
        cscs = [sample.graph.csc for sample in samples]
        vertex_ids = np.concatenate([sample.vertex_ids for sample in samples])
        first = self._first_seen(vertex_ids)
        order = vertex_ids[first]
        # fused local id of every stacked column: the rank of its vertex's
        # first occurrence among all first occurrences
        local = (first.cumsum() - 1)[self._pos_lut[vertex_ids]]
        colptr = np.concatenate([csc.indptr for csc in cscs])
        num_cols = np.array([csc.num_cols for csc in cscs])
        # sample i's colptr ends at ends[i]; its last entry is its edge count
        ends = np.cumsum(num_cols + 1)
        # in-degrees: the diffs across sample junctions belong to no column
        degrees = np.delete(np.diff(colptr), ends[:-1] - 1)
        # row indices are sample-local columns: shift each by the first
        # stacked column of its sample
        first_col = np.cumsum(num_cols) - num_cols
        rows = np.concatenate([csc.indices for csc in cscs]) \
            + first_col.repeat(colptr[ends - 1])
        csc = CSCMatrix.from_arrays(local[rows], local.repeat(degrees),
                                    order.size)
        order.setflags(write=False)
        fused = RowViewGraph(csc, self.graph, order, name=name)
        fused.memoize_workloads = False
        return fused
