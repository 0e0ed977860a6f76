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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["EffectualWindow", "SparsityReport", "SparsityEliminator"]


@dataclass(frozen=True)
class EffectualWindow:
    """A contiguous source-row range ``[start, stop)`` that must be loaded."""

    start: int
    stop: int

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError("window must contain at least one row")


@dataclass
class SparsityReport:
    """Outcome of sparsity elimination for one destination interval."""

    windows: List[EffectualWindow]
    total_rows: int          # rows the baseline (no elimination) would load
    effectual_rows: int      # rows with at least one edge

    @property
    def loaded_rows(self) -> int:
        """Rows actually loaded after sliding + shrinking."""
        return sum(w.num_rows for w in self.windows)

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
    def windows_for_rows(self, effectual_rows: Sequence[int], num_rows: int) -> List[EffectualWindow]:
        """Compute effectual windows from the sorted set of rows holding edges.

        ``effectual_rows`` are the source-vertex rows with at least one edge
        into the current interval; ``num_rows`` is the total number of source
        rows (graph vertices).
        """
        rows = np.unique(np.asarray(effectual_rows, dtype=np.int64))
        if rows.size and (rows[0] < 0 or rows[-1] >= num_rows):
            raise ValueError("effectual rows out of range")
        windows: List[EffectualWindow] = []
        i = 0
        height = self.window_height
        while i < len(rows):
            # Sliding: the window's top row lands on the next effectual row.
            win_start = int(rows[i])
            win_end_excl = min(win_start + height, num_rows)
            # All effectual rows covered by this (pre-shrink) window; the next
            # window's search starts below its pre-shrink bottom row.
            j = int(np.searchsorted(rows, win_end_excl, side="left"))
            covered_last = int(rows[j - 1])
            # Shrinking: pull the bottom up to the last effectual row.
            windows.append(EffectualWindow(win_start, covered_last + 1))
            i = j
        return windows

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
        rows = np.unique(np.asarray(source_rows, dtype=np.int64)) if len(source_rows) \
            else np.empty(0, dtype=np.int64)
        windows = self.windows_for_rows(rows, num_rows) if rows.size else []
        return SparsityReport(
            windows=windows,
            total_rows=num_rows if baseline_rows is None else baseline_rows,
            effectual_rows=int(rows.size),
        )
