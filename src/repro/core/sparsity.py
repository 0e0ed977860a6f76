"""Data-aware sparsity elimination: window sliding and shrinking.

Section 4.3.3 / Fig. 5(c)(d) / Algorithm 4 of the paper.  For one destination
interval, the adjacency column block is scanned top-to-bottom with a window of
``shard_height`` source rows:

* **sliding** -- the window slides downward until an edge appears in its top
  row; everything it skipped over contains no edges and is never loaded;
* **shrinking** -- the bottom row of the stopped window moves upward until it
  meets an edge, trimming trailing empty rows.

The recorded *effectual windows* are the only source-feature ranges the
Aggregation Engine loads from DRAM.  Without elimination the engine loads
every source row for every interval.

Windows are ``(starts, stops)`` arrays, found in a few array passes: a row
bitmap gives the ascending effectual rows, one ``searchsorted`` gives each
the first row its window does not cover, the greedy walk follows those
indices, and shrinking is one gather of every window's last covered row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["SparsityReport", "SparsityEliminator"]


@dataclass
class SparsityReport:
    """Outcome of sparsity elimination for one destination interval: window
    ``i`` loads source rows ``[starts[i], stops[i])``, in ascending order."""

    starts: np.ndarray
    stops: np.ndarray
    total_rows: int          # rows the baseline (no elimination) would load
    effectual_rows: int      # rows with at least one edge

    @property
    def loaded_rows(self) -> int:
        """Rows actually loaded after sliding + shrinking."""
        return int((self.stops - self.starts).sum())

    @property
    def eliminated_rows(self) -> int:
        return self.total_rows - self.loaded_rows

    @property
    def sparsity_reduction(self) -> float:
        """Fraction of baseline row loads removed (the Fig. 15c metric)."""
        if self.total_rows == 0:
            return 0.0
        return self.eliminated_rows / self.total_rows

    @property
    def residual_waste(self) -> int:
        """Loaded rows that carry no edge (sparsity that shrinking cannot remove)."""
        return self.loaded_rows - self.effectual_rows


class SparsityEliminator:
    """Implements window sliding/shrinking over one interval's source rows."""

    def __init__(self, window_height: int):
        if window_height < 1:
            raise ValueError("window_height must be >= 1")
        self.window_height = window_height

    # ------------------------------------------------------------------ #
    def windows_for_rows(self, effectual_rows: Sequence[int], num_rows: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, stops)`` of the effectual windows over the rows holding edges.

        ``effectual_rows`` are the source-vertex rows with at least one edge
        into the current interval (duplicates allowed); ``num_rows`` is the
        total number of source rows (graph vertices).
        """
        report = self.eliminate(effectual_rows, num_rows)
        return report.starts, report.stops

    def eliminate(self, source_rows: Sequence[int], num_rows: int,
                  baseline_rows: int = None) -> SparsityReport:
        """Run elimination for one interval.

        Parameters
        ----------
        source_rows:
            Source-vertex ids of every edge landing in the interval (duplicates
            allowed; they are collapsed internally).
        num_rows:
            Total number of source rows in the graph.
        baseline_rows:
            Rows the unoptimised design would load for this interval; defaults
            to ``num_rows`` (i.e. the whole feature matrix, interval by
            interval, per Algorithm 2).
        """
        source_rows = np.asarray(source_rows, dtype=np.int64)
        if source_rows.size and (source_rows.min() < 0
                                 or source_rows.max() >= num_rows):
            raise ValueError("effectual rows out of range")
        # the ascending effectual rows: the set bits of a row bitmap
        present = np.zeros(num_rows, dtype=bool)
        present[source_rows] = True
        rows = present.nonzero()[0]
        # Sliding: a window slid onto row i covers the rows below
        # rows[i] + height, so the next window slides onto rows[past[i]]
        # (a window clamped at num_rows covers every row left).
        past = rows.searchsorted(rows + self.window_height)
        jumps, tops, i = past.tolist(), [], 0
        while i < len(jumps):
            tops.append(i)
            i = jumps[i]
        return SparsityReport(
            starts=rows[tops],
            # Shrinking: each window's bottom moves up to the last row it covers.
            stops=rows[past[tops] - 1] + 1,
            total_rows=num_rows if baseline_rows is None else baseline_rows,
            effectual_rows=int(rows.size),
        )
