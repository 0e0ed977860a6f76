"""Graph persistence.

Experiments that sweep many configurations over the same synthetic dataset
should not regenerate it every time; this module saves/loads :class:`Graph`
objects as compressed ``.npz`` archives (structure + features) and exports the
adjacency as an edge-list text file for interoperability with external graph
tools.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .graph import CSRMatrix, Graph

__all__ = ["save_graph", "load_graph", "export_edge_list", "import_edge_list"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_graph(graph: Graph, path: PathLike) -> Path:
    """Serialise ``graph`` (structure, features, name) to a ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    metadata = json.dumps({
        "version": _FORMAT_VERSION,
        "name": graph.name,
        "num_vertices": graph.num_vertices,
    })
    np.savez_compressed(
        path,
        indptr=graph.csr.indptr,
        indices=graph.csr.indices,
        features=graph.features,
        metadata=np.frombuffer(metadata.encode("utf-8"), dtype=np.uint8),
    )
    # np.savez appends .npz if missing; normalise the returned path
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_graph(path: PathLike) -> Graph:
    """Load a graph previously written by :func:`save_graph`."""
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as archive:
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        if metadata.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported graph archive version: {metadata.get('version')}")
        csr = CSRMatrix(archive["indptr"], archive["indices"],
                        num_cols=metadata["num_vertices"])
        return Graph.from_csr(csr, archive["features"], name=metadata["name"])


def export_edge_list(graph: Graph, path: PathLike, header: bool = True) -> Path:
    """Write the adjacency as a whitespace-separated ``src dst`` text file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                         f"{graph.num_edges} edges\n")
        for src in range(graph.num_vertices):
            for dst in graph.neighbors(src):
                handle.write(f"{src} {int(dst)}\n")
    return path


def import_edge_list(path: PathLike, num_vertices: int = None,
                     feature_length: int = 16, undirected: bool = False,
                     name: str = None, seed: int = 0) -> Graph:
    """Read an edge-list text file (``src dst`` per line, ``#`` comments)."""
    path = Path(path)
    edges = []
    max_vertex = -1
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            src_str, dst_str = line.split()[:2]
            src, dst = int(src_str), int(dst_str)
            edges.append((src, dst))
            max_vertex = max(max_vertex, src, dst)
    if num_vertices is None:
        num_vertices = max_vertex + 1
    return Graph.from_edge_list(
        edges, num_vertices, feature_length=feature_length,
        undirected=undirected, name=name or path.stem, seed=seed,
    )
