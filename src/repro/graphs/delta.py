"""Streaming mutation overlay on the CSC graph layout.

:class:`DeltaGraph` makes a :class:`~repro.graphs.graph.Graph` mutable
without giving up the flat ``colptr``/``row`` layout the samplers run on.
The base arrays are treated as immutable (dataset graphs are memoised and
shared across runs -- see :func:`repro.graphs.datasets.load_dataset`).
Structure and features are kept apart, each touched only by the mutations
that change it:

* **edge insertions** -- an in-edge ``src -> dst`` is patched into fresh
  ``colptr``/``row`` arrays at its sorted slot in ``dst``'s column (the
  CSC column orientation), so the structure is always current;
* **vertex insertions** -- an empty column appended to ``colptr`` plus a
  new feature row past the base vertex range (new vertices start
  isolated; edges referencing them arrive as ordinary edge insertions);
* **feature writes** -- per-vertex feature-row overrides.

Every applied mutation bumps the monotonically increasing :attr:`version`
and stamps the affected vertex with it, which consumers (the serving
sampler's memo invalidation, the consistency tracker) query with
:meth:`dirty_since` and :meth:`mutation_versions`.

The arrays read back are bit-for-bit those of a
:class:`~repro.graphs.graph.Graph` rebuilt from scratch at the same
version: sources ascend within each column, as every CSC construction
sorts them.  The inherited out-neighbour CSR view is built on read, like
any graph's, and dropped by every structural mutation.  Feature
rows written or created since the last read of ``features`` wait in a
per-vertex row log (one row per vertex, the latest); the next read folds
them into a fresh matrix, which becomes the one the following read
returns.  The serving path never reads the matrix (it charges feature
*lines* by id and version), so a streaming run never copies it.  The
samplers run unmodified on a mutating graph and agree with a cold
rebuild (``tests/serving/test_streaming_consistency.py``).  A mutation
never writes into an array already handed out: it replaces the array, so
a reader's reference keeps describing the version it was taken at.

:meth:`compact` ends a pending window: it resets
:attr:`pending_mutations` and counts one compaction, and it moves no data
(the version is unchanged: compaction is a representation change, not a
mutation).  ``compact_every`` auto-compacts after that many pending
mutations.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

import numpy as np

from .graph import CSCMatrix, Graph

__all__ = ["DeltaGraph"]


class DeltaGraph(Graph):
    """A mutable overlay on a base :class:`~repro.graphs.graph.Graph`.

    Parameters
    ----------
    base:
        The graph to overlay; its ``colptr``/``row``/``features`` arrays
        become the overlay's starting arrays and are never written to.
    compact_every:
        Auto-compact after this many pending (uncompacted) mutations;
        ``0`` disables auto-compaction (call :meth:`compact` manually).
    """

    #: mutating content under a stable object id would silently satisfy the
    #: identity-keyed workload memo; the version-aware key in
    #: :func:`repro.models.model_zoo.workloads_for` handles that, but the
    #: flag keeps pre-version consumers honest too.
    memoize_workloads = True

    def __init__(self, base: Graph, compact_every: int = 0):
        if compact_every < 0:
            raise ValueError("compact_every must be >= 0")
        self.name = base.name
        self.compact_every = int(compact_every)
        #: monotonically increasing mutation counter (0 == the base graph).
        self.version = 0
        #: number of :meth:`compact` promotions performed so far.
        self.compactions = 0
        # the live structure: replaced (never written into) by each edge or
        # vertex insertion, so an array once handed out stays valid
        self._colptr = base.colptr
        self._row = base.row
        # the feature matrix as of the last fold, plus every row written or
        # created since (vertex -> its latest row); a read folds the log
        self._features = base.features
        self._feature_rows: Dict[int, np.ndarray] = {}
        # the pending-mutation count since the last compaction: inserted
        # edges, vertices added past ``_compacted_vertices`` and distinct
        # writes to vertices below it
        self._pending_edges = 0
        self._compacted_vertices = self.num_vertices
        self._pending_writes: Set[int] = set()
        #: version of the last mutation per vertex, 0 for a vertex never
        #: mutated; grows with the vertex count
        self._mutation_versions = np.zeros(self.num_vertices, dtype=np.int64)
        #: version of the last feature write (or creation) per vertex, 0
        #: for a vertex that still carries its base features; grows with
        #: the vertex count
        self._feature_versions = np.zeros(self.num_vertices, dtype=np.int64)
        self._csr = None
        self._csc_cache: Optional[CSCMatrix] = None

    # ------------------------------------------------------------------ #
    # Mutation API
    # ------------------------------------------------------------------ #
    def add_edge(self, src: int, dst: int) -> bool:
        """Insert the in-edge ``src -> dst``.

        Returns ``False`` (a no-op, no version bump) when the edge already
        exists -- the canonical CSC layout is deduplicated, so a duplicate
        insert must not change the arrays.
        """
        src, dst = int(src), int(dst)
        n = self.num_vertices
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) outside the "
                             f"{n}-vertex graph")
        found, at = self._locate(src, dst)
        if found:
            return False
        self._row = np.insert(self._row, at, src)
        colptr = self._colptr.copy()
        colptr[dst + 1:] += 1
        self._colptr = colptr
        self._pending_edges += 1
        self._mutated(dst, structure=True)
        return True

    def add_vertex(self, features: np.ndarray) -> int:
        """Append a new (initially isolated) vertex; returns its id."""
        row = np.ascontiguousarray(features, dtype=np.float64).reshape(-1)
        if row.size != self.feature_length:
            raise ValueError(
                f"feature row of length {row.size} does not match the "
                f"graph's feature length {self.feature_length}")
        vertex = self.num_vertices
        self._colptr = np.append(self._colptr, self._colptr[-1])
        self._feature_rows[vertex] = row
        self._mutation_versions = np.append(self._mutation_versions, 0)
        self._mutated(vertex, structure=True)
        self._feature_versions = np.append(self._feature_versions,
                                           self.version)
        return vertex

    def write_features(self, vertex: int, features: np.ndarray) -> None:
        """Overwrite one vertex's feature row."""
        vertex = int(vertex)
        if not 0 <= vertex < self.num_vertices:
            raise ValueError(f"vertex {vertex} outside the "
                             f"{self.num_vertices}-vertex graph")
        row = np.ascontiguousarray(features, dtype=np.float64).reshape(-1)
        if row.size != self.feature_length:
            raise ValueError(
                f"feature row of length {row.size} does not match the "
                f"graph's feature length {self.feature_length}")
        self._feature_rows[vertex] = row
        if vertex < self._compacted_vertices:
            self._pending_writes.add(vertex)
        self._mutated(vertex, structure=False)
        self._feature_versions[vertex] = self.version

    def compact(self) -> None:
        """End the pending window: :attr:`pending_mutations` restarts at 0
        and :attr:`compactions` counts one more.

        A representation change only: the version and the mutation and
        feature-version stamps are untouched, so consumers cannot tell a
        compacted graph from an uncompacted one (asserted by the
        differential suite).  No feature row moves here; the next read of
        :attr:`features` folds the row log, compacted or not.
        """
        self._pending_edges = 0
        self._compacted_vertices = self.num_vertices
        self._pending_writes = set()
        self.compactions += 1

    # ------------------------------------------------------------------ #
    # Change tracking
    # ------------------------------------------------------------------ #
    def dirty_since(self, version: int) -> np.ndarray:
        """Vertices whose in-neighbourhood or features changed after
        ``version`` (ascending, deduplicated)."""
        return np.flatnonzero(self._mutation_versions > max(int(version), 0))

    def mutation_versions(self, vertices: np.ndarray) -> np.ndarray:
        """Version of the last mutation of each of ``vertices`` (0 = never
        mutated), in one gather."""
        return self._mutation_versions[vertices]

    def feature_version(self, vertex: int) -> int:
        """Version of the last feature write to ``vertex`` (0 = base)."""
        return int(self._feature_versions[vertex])

    def feature_versions(self, vertices: np.ndarray) -> np.ndarray:
        """:meth:`feature_version` of each of ``vertices``, in one gather."""
        return self._feature_versions[vertices]

    @property
    def pending_mutations(self) -> int:
        """Mutations applied since the last compaction."""
        return (self._pending_edges
                + self.num_vertices - self._compacted_vertices
                + len(self._pending_writes))

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the in-edge ``src -> dst`` exists."""
        return self._locate(int(src), int(dst))[0]

    def _locate(self, src: int, dst: int) -> Tuple[bool, int]:
        """Whether ``src`` is in ``dst``'s column, and its sorted slot in
        ``row`` (where an insert keeps the column ascending)."""
        start = int(self._colptr[dst])
        column = self._row[start:int(self._colptr[dst + 1])]
        i = int(np.searchsorted(column, src))
        return i < column.size and int(column[i]) == src, start + i

    def _mutated(self, vertex: int, structure: bool) -> None:
        self.version += 1
        self._mutation_versions[vertex] = self.version
        if structure:
            self._csr = None
            self._csc_cache = None
        if self.compact_every and self.pending_mutations >= self.compact_every:
            self.compact()

    # ------------------------------------------------------------------ #
    # Graph surface
    # ------------------------------------------------------------------ #
    @property
    def colptr(self) -> np.ndarray:
        return self._colptr

    @property
    def row(self) -> np.ndarray:
        return self._row

    @property
    def features(self) -> np.ndarray:
        """The feature matrix at this version: a fresh array per version
        with feature writes or new vertices, folded on first read."""
        if self._feature_rows:
            folded = self._features.shape[0]
            features = np.empty((self.num_vertices, self.feature_length),
                                dtype=np.float64)
            features[:folded] = self._features
            for vertex, row in self._feature_rows.items():
                features[vertex] = row
            self._features = features
            self._feature_rows = {}
        return self._features

    @property
    def num_vertices(self) -> int:
        return self._colptr.size - 1

    @property
    def num_edges(self) -> int:
        return int(self._row.size)

    @property
    def feature_length(self) -> int:
        return int(self._features.shape[1])

    @property
    def csc(self) -> CSCMatrix:
        if self._csc_cache is None:
            self._csc_cache = CSCMatrix(self._colptr, self._row,
                                        self.num_vertices)
        return self._csc_cache

    def in_neighbors(self, v: int) -> np.ndarray:
        return self._row[self._colptr[v]:self._colptr[v + 1]]

    def with_features(self, features: np.ndarray,
                      name: Optional[str] = None) -> Graph:
        """Frozen snapshot structure with a different feature matrix."""
        return Graph(self.csc, features, name=name or self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, version={self.version}, "
            f"pending={self.pending_mutations})"
        )
