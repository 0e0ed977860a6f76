"""Differential test: the array Sparsity Eliminator against the window loop.

:class:`repro.core.SparsityEliminator` finds every window's successor with
one ``searchsorted``, walks them as Python ints and shrinks all windows in
one gather.  ``_sparsity_reference.py`` slides and shrinks one
``EffectualWindow`` at a time.  Over random row sets -- duplicates, empty
input, window heights from 1 to past ``num_rows``, rows crowding the last
row so windows clamp at ``num_rows``, and rows out of range -- the window
bounds and every report metric must match exactly, and both must reject
the same inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _sparsity_reference as reference
from repro.core import SparsityEliminator


@st.composite
def row_sets(draw):
    """``(rows, num_rows, height)``; rows may repeat, crowd the last row
    or (rarely) fall outside ``[0, num_rows)``."""
    num_rows = draw(st.integers(1, 120))
    in_range = st.integers(0, num_rows - 1)
    tail = st.integers(max(0, num_rows - 4), num_rows - 1)
    outside = st.one_of(st.integers(-3, -1), st.integers(num_rows, num_rows + 3))
    row = st.one_of(in_range, tail) if draw(st.integers(0, 9)) else \
        st.one_of(in_range, outside)
    rows = draw(st.lists(row, max_size=80))
    height = draw(st.integers(1, num_rows + 5))
    return rows, num_rows, height


def _windows(starts, stops):
    return list(zip(starts.tolist(), stops.tolist()))


@settings(max_examples=400, deadline=None)
@given(row_sets())
@example(([], 10, 3))
@example(([5, 5, 5], 10, 1))
@example(([0, 9], 10, 10))
@example(([8, 9, 9], 10, 4))
@example(([3, 10], 10, 2))
@example(([-1], 10, 2))
def test_eliminate_matches_window_loop(case):
    rows, num_rows, height = case
    eliminator = SparsityEliminator(height)
    try:
        want = reference.eliminate(height, rows, num_rows)
    except ValueError:
        with pytest.raises(ValueError):
            eliminator.eliminate(rows, num_rows)
        with pytest.raises(ValueError):
            eliminator.windows_for_rows(rows, num_rows)
        return
    got = eliminator.eliminate(rows, num_rows)
    assert _windows(got.starts, got.stops) == \
        [(w.start, w.stop) for w in want.windows]
    assert got.loaded_rows == want.loaded_rows
    assert got.effectual_rows == want.effectual_rows
    assert got.residual_waste == want.residual_waste
    assert got.total_rows == want.total_rows
    starts, stops = eliminator.windows_for_rows(rows, num_rows)
    assert starts.dtype == stops.dtype == np.int64
    assert _windows(starts, stops) == \
        [(w.start, w.stop) for w in reference.windows_for_rows(height, rows, num_rows)]
