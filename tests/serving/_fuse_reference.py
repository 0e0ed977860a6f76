"""Per-sample reference fusion: the differential oracle for
:meth:`repro.serving.SubgraphSampler.fuse` / ``fused_size``.

This is the loop ``fuse`` ran before it worked on the samples' concatenated
arrays: fused local ids in first-seen order over the samples, then one
``np.repeat(np.arange(...), np.diff(indptr))`` per sample to map its
out-edges onto them.  ``tests/serving/test_fuse_equivalence.py`` checks the
array path against it.
"""

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.graphs.graph import CSRMatrix


def reference_fuse(samples: Sequence) -> Tuple[np.ndarray, CSRMatrix]:
    """``(vertex_ids, csr)`` of the deduped union of ``samples``."""
    local: Dict[int, int] = {}
    for sample in samples:
        for v in sample.vertex_ids.tolist():
            local.setdefault(v, len(local))
    order = np.fromiter(local, dtype=np.int64, count=len(local))
    rows_parts = [np.empty(0, dtype=np.int64)]
    cols_parts = [np.empty(0, dtype=np.int64)]
    for sample in samples:
        csr = sample.graph.csr
        if csr.nnz == 0:
            continue
        vid = sample.vertex_ids
        v_global = vid[np.repeat(np.arange(csr.num_rows), np.diff(csr.indptr))]
        u_global = vid[csr.indices]
        rows_parts.append(np.array([local[v] for v in v_global.tolist()],
                                   dtype=np.int64))
        cols_parts.append(np.array([local[u] for u in u_global.tolist()],
                                   dtype=np.int64))
    csr = CSRMatrix.from_arrays(np.concatenate(rows_parts),
                                np.concatenate(cols_parts), order.size)
    return order, csr


def reference_fused_size(samples: Sequence) -> Tuple[int, int]:
    """``(fused_vertices, naive_vertices)`` of ``samples``."""
    if not samples:
        return 0, 0
    union = set()
    for sample in samples:
        union.update(sample.vertex_ids.tolist())
    return len(union), sum(sample.num_vertices for sample in samples)
