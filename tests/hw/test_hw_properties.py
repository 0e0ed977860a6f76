"""Property-based tests for the hardware substrate (buffers and HBM model)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import HBMConfig, HBMModel, ScratchpadBuffer


def serve(hbm, stream, addresses, sizes):
    """Service requests of one stream in the order given."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return hbm.service([stream], np.zeros(sizes.size, dtype=np.int64),
                       np.asarray(addresses, dtype=np.int64), sizes)


class TestBufferProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.text(min_size=1, max_size=6),
                              st.integers(0, 4096)),
                    min_size=1, max_size=30))
    def test_allocate_free_conservation(self, allocations):
        buffer = ScratchpadBuffer("test", 64 * 1024)
        for region, size in allocations:
            buffer.allocate(region, size)
        # used bytes equals the sum of the *latest* allocation per region
        latest = {}
        for region, size in allocations:
            latest[region] = size
        assert buffer.used_bytes == sum(latest.values())
        for region in latest:
            buffer.free(region)
        assert buffer.used_bytes == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=50))
    def test_traffic_accounting_is_additive(self, chunks):
        buffer = ScratchpadBuffer("test", 1024)
        for chunk in chunks:
            buffer.read(chunk)
            buffer.write(chunk)
        assert buffer.stats.bytes_read == sum(chunks)
        assert buffer.stats.bytes_written == sum(chunks)
        assert buffer.stats.total_accesses == 2 * len(chunks)


class TestHBMProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 8192), min_size=1, max_size=60),
        stream=st.sampled_from(["edges", "input_features", "weights"]),
    )
    def test_service_conserves_bytes_and_counts(self, sizes, stream):
        hbm = HBMModel()
        stats = serve(hbm, stream, np.arange(len(sizes)) * 4096, sizes)
        assert stats.requests == len(sizes)
        assert stats.bytes_transferred == sum(sizes)
        assert stats.row_hits + stats.row_misses == len(sizes)
        assert stats.busy_cycles > 0
        assert stats.energy_pj == pytest.approx(sum(sizes) * 8 * 7.0)

    @settings(max_examples=30, deadline=None)
    @given(total=st.integers(256, 1 << 18))
    def test_busy_cycles_bounded_by_bandwidth(self, total):
        # the critical-path busy time can never beat the per-channel bandwidth
        hbm = HBMModel()
        _, addresses, sizes = hbm.split([0], [total])
        stats = serve(hbm, "edges", addresses, sizes)
        cfg = hbm.config
        min_cycles = total / cfg.peak_bandwidth_bytes_per_cycle
        assert stats.busy_cycles >= min_cycles * 0.5  # channels overlap, latency adds
        assert stats.bandwidth_utilization(cfg) <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(chunk=st.sampled_from([64, 256, 2048]), count=st.integers(1, 64))
    def test_interleaved_map_never_slower_than_naive(self, chunk, count):
        addresses, sizes = np.arange(count) * chunk, [chunk] * count
        interleaved = serve(HBMModel(HBMConfig(), interleave_low_bits=True),
                            "edges", addresses, sizes)
        naive = serve(HBMModel(HBMConfig(), interleave_low_bits=False),
                      "edges", addresses, sizes)
        assert interleaved.busy_cycles <= naive.busy_cycles
