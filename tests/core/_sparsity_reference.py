"""Scalar reference window walk: the differential oracle for the array
Sparsity Eliminator.

This is the per-window object path :mod:`repro.core.sparsity` used before
windows became ``(starts, stops)`` arrays: the window slides to the next
effectual row, one ``searchsorted`` finds the rows it covers, and shrinking
pulls its bottom up to the last of them, one :class:`EffectualWindow` at a
time.  ``tests/core/test_sparsity_equivalence.py`` checks
:class:`repro.core.SparsityEliminator` against it.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


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
class ReferenceReport:
    windows: List[EffectualWindow]
    total_rows: int
    effectual_rows: int

    @property
    def loaded_rows(self) -> int:
        return sum(w.num_rows for w in self.windows)

    @property
    def residual_waste(self) -> int:
        return self.loaded_rows - self.effectual_rows


def windows_for_rows(height: int, effectual_rows: Sequence[int],
                     num_rows: int) -> List[EffectualWindow]:
    rows = np.unique(np.asarray(effectual_rows, dtype=np.int64))
    if rows.size and (rows[0] < 0 or rows[-1] >= num_rows):
        raise ValueError("effectual rows out of range")
    windows: List[EffectualWindow] = []
    i = 0
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


def eliminate(height: int, source_rows: Sequence[int], num_rows: int,
              baseline_rows: int = None) -> ReferenceReport:
    rows = np.unique(np.asarray(source_rows, dtype=np.int64)) if len(source_rows) \
        else np.empty(0, dtype=np.int64)
    windows = windows_for_rows(height, rows, num_rows) if rows.size else []
    return ReferenceReport(
        windows=windows,
        total_rows=num_rows if baseline_rows is None else baseline_rows,
        effectual_rows=int(rows.size),
    )
