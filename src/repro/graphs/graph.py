"""Core graph data structures used throughout the HyGCN reproduction.

The accelerator consumes graphs in compressed sparse column (CSC) format --
the paper's interval/shard partitioning (Section 4.3.2) is defined directly on
the CSC layout -- so :class:`Graph` stores its in-neighbour CSC adjacency
(:attr:`Graph.colptr` / :attr:`Graph.row`, the arrays the samplers and the
engines run on; see ``docs/core.md``) plus the per-vertex feature matrix
``X`` that GCN layers operate on.  The out-neighbour CSR view is built on
first read, for the few readers that walk out-edges (the locality
partitioner, graph export, the readout construction).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CSRMatrix", "CSCMatrix", "Graph", "RowViewGraph", "graphs_equal"]


class CSRMatrix:
    """A minimal compressed-sparse-row adjacency structure.

    Row ``v`` of the matrix stores the *outgoing* neighbours of vertex ``v``.
    Only the structure (indptr/indices) is stored; GCN adjacency matrices are
    binary so no value array is needed.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_cols: int):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= num_cols):
            raise ValueError("column indices out of range")
        self.indptr = indptr
        self.indices = indices
        self.num_rows = len(indptr) - 1
        self.num_cols = int(num_cols)

    @property
    def nnz(self) -> int:
        """Number of stored edges."""
        return int(len(self.indices))

    def row(self, i: int) -> np.ndarray:
        """Return the column indices of row ``i``."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        """Return the number of non-zeros in row ``i``."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        """Return the per-row non-zero counts."""
        return np.diff(self.indptr)

    def block(self, start: int, stop: int) -> "CSRMatrix":
        """The diagonal block of rows and columns ``[start, stop)``.

        Trusted like :meth:`from_arrays`: the caller guarantees that those
        rows hold no column outside the block (a block-diagonal matrix).
        """
        lo, hi = self.indptr[start], self.indptr[stop]
        block = CSRMatrix.__new__(CSRMatrix)
        block.indptr = self.indptr[start:stop + 1] - lo
        block.indices = self.indices[lo:hi] - start
        block.num_rows = block.num_cols = stop - start
        return block

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense binary array (small graphs only)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.int8)
        for i in range(self.num_rows):
            dense[i, self.row(i)] = 1
        return dense

    def transpose(self) -> "CSRMatrix":
        """Return the transposed structure (rows become columns)."""
        rows = np.arange(self.num_rows).repeat(self.indptr[1:] - self.indptr[:-1])
        return CSRMatrix.from_arrays(self.indices, rows, self.num_cols,
                                     self.num_rows, deduplicate=False)

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        num_rows: int,
        num_cols: Optional[int] = None,
        deduplicate: bool = True,
    ) -> "CSRMatrix":
        """Trusted vectorized constructor from parallel ``rows``/``cols`` arrays.

        Produces exactly the structure :meth:`from_edges` would for the same
        edge multiset (same lexicographic canonical order, same optional
        dedup), but skips the per-call bounds validation -- callers (the
        array-native sampler cores) guarantee ``0 <= rows < num_rows`` and
        ``0 <= cols < num_cols`` by construction.  The canonical
        ``(row, col)`` sort runs on the fused key ``row * num_cols + col``
        (one unstable single-key sort, roughly twice as fast as the
        two-pass stable ``lexsort``, and order-equivalent because the key
        map is a strictly monotone bijection); ``lexsort`` remains as the
        fallback for matrices wide enough to overflow the fused key.
        """
        num_cols = num_rows if num_cols is None else num_cols
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if num_cols and num_rows <= (2 ** 62) // num_cols:
            key = rows * num_cols + cols
            key.sort()
            if deduplicate and len(key):
                keep = np.ones(len(key), dtype=bool)
                keep[1:] = key[1:] != key[:-1]
                key = key[keep]
            rows = key // num_cols
            cols = key - rows * num_cols
        else:
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            if deduplicate and len(rows):
                keep = np.ones(len(rows), dtype=bool)
                keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
                rows, cols = rows[keep], cols[keep]
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        if len(rows):
            np.add.accumulate(np.bincount(rows + 1, minlength=num_rows + 1),
                              out=indptr)
        self = cls.__new__(cls)
        self.indptr = indptr
        self.indices = cols
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        return self

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        num_rows: int,
        num_cols: Optional[int] = None,
        deduplicate: bool = True,
    ) -> "CSRMatrix":
        """Build a CSR structure from an iterable of ``(row, col)`` pairs."""
        num_cols = num_rows if num_cols is None else num_cols
        if isinstance(edges, np.ndarray):
            edge_array = np.asarray(edges, dtype=np.int64)
        else:
            edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            return cls(np.zeros(num_rows + 1, dtype=np.int64),
                       np.empty(0, dtype=np.int64), num_cols)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be (row, col) pairs")
        rows, cols = edge_array[:, 0], edge_array[:, 1]
        if rows.min() < 0 or rows.max() >= num_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= num_cols:
            raise ValueError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if deduplicate:
            keep = np.ones(len(rows), dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            rows, cols = rows[keep], cols[keep]
        counts = np.zeros(num_rows + 1, dtype=np.int64)
        np.add.at(counts, rows + 1, 1)
        indptr = np.cumsum(counts)
        return cls(indptr, cols, num_cols)


class CSCMatrix:
    """Compressed-sparse-column view: column ``v`` stores the in-neighbours of ``v``.

    This is the input format HyGCN consumes directly (Section 4.3.2): no
    explicit preprocessing is needed to derive vertex intervals and edge
    shards because columns are already grouped by destination vertex.
    Stored as the CSR of the transposed structure.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_rows: int):
        self._csr = CSRMatrix(indptr, indices, num_rows)

    @classmethod
    def _of(cls, transposed: CSRMatrix) -> "CSCMatrix":
        """Trusted wrap of the CSR of the transposed structure."""
        self = cls.__new__(cls)
        self._csr = transposed
        return self

    @property
    def indptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def num_cols(self) -> int:
        return self._csr.num_rows

    @property
    def num_rows(self) -> int:
        return self._csr.num_cols

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def column(self, v: int) -> np.ndarray:
        """Return the in-neighbour (source row) indices of column ``v``."""
        return self._csr.row(v)

    def in_degree(self, v: int) -> int:
        """Return the number of in-neighbours of vertex ``v``."""
        return self._csr.degree(v)

    def in_degrees(self) -> np.ndarray:
        """Return the in-degree of every vertex."""
        return self._csr.degrees()

    def block(self, start: int, stop: int) -> "CSCMatrix":
        """The diagonal block of rows and columns ``[start, stop)``
        (trusted like :meth:`CSRMatrix.block`)."""
        return CSCMatrix._of(self._csr.block(start, stop))

    def to_dense(self) -> np.ndarray:
        """Dense ``(num_rows, num_cols)`` adjacency with ``A[src, dst] = 1``."""
        return self._csr.to_dense().T

    def to_csr(self) -> CSRMatrix:
        """The out-neighbour CSR of the same structure (one transpose)."""
        return self._csr.transpose()

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSCMatrix":
        """Derive the CSC view of a CSR adjacency (transpose of structure)."""
        return cls._of(csr.transpose())

    @classmethod
    def from_arrays(cls, rows: np.ndarray, cols: np.ndarray, num_rows: int,
                    num_cols: Optional[int] = None,
                    deduplicate: bool = True) -> "CSCMatrix":
        """Trusted constructor from parallel source ``rows`` / destination
        ``cols`` arrays: one sort on the (destination, source) key, as
        :meth:`CSRMatrix.from_arrays` sorts on (row, column)."""
        num_cols = num_rows if num_cols is None else num_cols
        return cls._of(CSRMatrix.from_arrays(cols, rows, num_cols, num_rows,
                                             deduplicate=deduplicate))


class Graph:
    """An attributed graph: in-neighbour CSC adjacency plus a feature matrix.

    Parameters
    ----------
    csc:
        In-neighbour adjacency: column ``v`` holds the sources of ``v``'s
        in-edges.  For the undirected graphs used in the paper the
        structure is symmetric, so columns double as out-neighbour lists.
    features:
        ``(num_vertices, feature_length)`` float matrix ``X``.
    name:
        Optional dataset name for reporting.
    """

    def __init__(self, csc: CSCMatrix, features: np.ndarray, name: str = "graph"):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if features.shape[0] != csc.num_cols:
            raise ValueError(
                f"feature rows ({features.shape[0]}) do not match vertex count "
                f"({csc.num_cols})"
            )
        self.csc = csc
        self.features = features
        self.name = name
        self._csr: Optional[CSRMatrix] = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_csr(cls, csr: CSRMatrix, features: np.ndarray,
                 name: str = "graph") -> "Graph":
        """Build a graph from its out-neighbour CSR adjacency (kept as the
        graph's CSR view)."""
        graph = cls(CSCMatrix.from_csr(csr), features, name=name)
        graph._csr = csr
        return graph

    @classmethod
    def from_edge_list(
        cls,
        edges: Sequence[Tuple[int, int]],
        num_vertices: int,
        features: Optional[np.ndarray] = None,
        feature_length: int = 16,
        undirected: bool = True,
        name: str = "graph",
        seed: int = 0,
    ) -> "Graph":
        """Build a graph from an edge list, optionally symmetrising it."""
        edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if undirected and edge_array.size:
            edge_array = np.vstack([edge_array, edge_array[:, ::-1]])
        # (dst, src) pairs: the CSR of the transposed structure is the CSC
        csc = CSCMatrix._of(CSRMatrix.from_edges(edge_array[:, ::-1],
                                                 num_vertices))
        if features is None:
            rng = np.random.default_rng(seed)
            features = rng.standard_normal((num_vertices, feature_length))
        return cls(csc, features, name=name)

    # ------------------------------------------------------------------ #
    # Views and basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return self.csc.num_cols

    @property
    def num_edges(self) -> int:
        return self.csc.nnz

    @property
    def feature_length(self) -> int:
        return int(self.features.shape[1])

    @property
    def csr(self) -> CSRMatrix:
        """Out-neighbour CSR view, built on first read."""
        if self._csr is None:
            self._csr = self.csc.to_csr()
        return self._csr

    @property
    def colptr(self) -> np.ndarray:
        """In-neighbour CSC offsets: ``row[colptr[v]:colptr[v + 1]]`` are the
        sources of ``v``'s in-edges (``int64[V + 1]``)."""
        return self.csc.indptr

    @property
    def row(self) -> np.ndarray:
        """Source vertex of every in-edge, grouped by destination
        (``int64[E]``, ascending within each column)."""
        return self.csc.indices

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbours of vertex ``v`` (== in-neighbours for undirected graphs)."""
        return self.csr.row(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbours of vertex ``v``."""
        return self.csc.column(v)

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return self.csr.degree(v)

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return self.csr.degrees()

    def with_features(self, features: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Return a new graph sharing this structure but with different features."""
        return Graph(self.csc, features, name=name or self.name)

    def adjacency_dense(self) -> np.ndarray:
        """Dense adjacency matrix ``A`` with ``A[u, v] = 1`` for edge (u, v)."""
        return self.csr.to_dense().astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"vertices={self.num_vertices}, "
            f"edges={self.num_edges}, feature_length={self.feature_length})"
        )


class RowViewGraph(Graph):
    """A graph over ``base`` vertices ``vertex_ids`` that holds no features.

    Local vertex ``i`` is ``base`` vertex ``vertex_ids[i]``; ``features``
    gathers those rows from ``base`` on every read, so a view of a mutating
    graph reads its current rows.  A view keeps ``base``, never its feature
    array: a mutating graph's array is a snapshot per version.
    """

    def __init__(self, csc: CSCMatrix, base: Graph, vertex_ids: np.ndarray,
                 name: str = "graph"):
        if len(vertex_ids) != csc.num_cols:
            raise ValueError(f"vertex ids ({len(vertex_ids)}) do not match "
                             f"vertex count ({csc.num_cols})")
        self.csc, self.base, self.vertex_ids = csc, base, vertex_ids
        self.name = name
        self._csr: Optional[CSRMatrix] = None

    @property
    def features(self) -> np.ndarray:
        return self.base.features[self.vertex_ids]

    @property
    def feature_length(self) -> int:
        return self.base.feature_length


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural + feature equality: the same CSC arrays and the same
    feature matrix, however either graph was built.  This is the equality
    the round-trip property tests and the differential suite assert."""
    return (
        a.num_vertices == b.num_vertices
        and np.array_equal(a.colptr, b.colptr)
        and np.array_equal(a.row, b.row)
        and a.features.shape == b.features.shape
        and np.array_equal(a.features, b.features)
    )
