"""Differential test: the array DRAM path against the per-request oracle.

:class:`repro.core.memory_handler.MemoryAccessHandler` splits transfers
with :meth:`repro.hw.HBMModel.split`, orders them with one sort and
services them as arrays.  ``_dram_reference.py`` does the same work one
:class:`MemoryRequest` at a time.  Over random batches of transfers --
streams in random order, unaligned addresses, empty and multi-row sizes,
several batches on one handler so open rows and stream regions carry over
-- every ``DRAMStats`` field, energy included, and the per-stream cycle and
byte attribution must match exactly.  The handler takes each run of
consecutive same-stream transfers as one stream-tagged array entry, so a
stream may tag several entries of one batch; the oracle takes the
transfers one by one.
"""

from itertools import groupby

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import HyGCNConfig, MemoryAccessHandler
from repro.core.memory_handler import ACCESS_PRIORITY
from repro.hw import HBMConfig

from _dram_reference import ReferenceHandler

ROW = HBMConfig().row_buffer_bytes
#: the four buffer streams plus one outside the priority list
STREAMS = ACCESS_PRIORITY + ("spill",)


@st.composite
def transfer_batch(draw):
    """1-4 streams in random order, each transfer 0 to 3 rows long."""
    streams = draw(st.permutations(STREAMS))[:draw(st.integers(1, 4))]
    return draw(st.lists(
        st.tuples(st.sampled_from(streams), st.integers(0, 400 * ROW),
                  st.one_of(st.just(0), st.integers(1, 3 * ROW))),
        max_size=12))


def stream_entries(batch):
    """Consecutive same-stream transfers as one ``(stream, addresses,
    num_bytes)`` array entry each."""
    entries = []
    for stream, run in groupby(batch, key=lambda t: t[0]):
        run = list(run)
        entries.append((stream, np.array([t[1] for t in run], dtype=np.int64),
                        np.array([t[2] for t in run], dtype=np.int64)))
    return entries


@settings(max_examples=200, deadline=None)
@given(
    coordinated=st.booleans(),
    num_channels=st.sampled_from([8, 16]),
    energy_pj_per_bit=st.sampled_from([7.0, 7.3]),
    batches=st.lists(transfer_batch(), min_size=1, max_size=4),
)
def test_service_batch_matches_reference(coordinated, num_channels,
                                         energy_pj_per_bit, batches):
    hbm = HBMConfig(num_channels=num_channels, energy_pj_per_bit=energy_pj_per_bit)
    handler = MemoryAccessHandler(
        HyGCNConfig(hbm=hbm, enable_memory_coordination=coordinated))
    reference = ReferenceHandler(hbm, coordinated)
    for batch in batches:
        got = handler.service_batch(stream_entries(batch))
        want = reference.service_batch(batch)
        assert got.stats == want.stats  # == on every field, energy_pj too
        assert got.cycles_by_stream == want.cycles_by_stream
        assert got.bytes_by_stream == want.bytes_by_stream
