"""Tests for the HBM DRAM model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hw import DRAMStats, HBMConfig, HBMModel


def serve(hbm, stream, addresses, sizes):
    """Service requests of one stream in the order given."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return hbm.service([stream], np.zeros(sizes.size, dtype=np.int64),
                       np.asarray(addresses, dtype=np.int64), sizes)


def serve_transfer(hbm, stream, total_bytes):
    """Service one contiguous transfer of ``total_bytes`` from address 0."""
    _, addresses, sizes = hbm.split([0], [total_bytes])
    return serve(hbm, stream, addresses, sizes)


def accesses(total_bytes, stride, granularity=64):
    """``granularity``-byte accesses ``stride`` bytes apart covering ``total_bytes``."""
    count = total_bytes // granularity
    return np.arange(count) * stride, [granularity] * count


class TestHBMConfig:
    def test_peak_bandwidth_matches_table6(self):
        cfg = HBMConfig()
        # 8 channels x 32 B/cycle at 1 GHz = 256 GB/s
        assert cfg.peak_bandwidth_bytes_per_cycle == 256
        assert cfg.peak_bandwidth_gbps == 256

    def test_split_cuts_transfers_at_row_buffer_size(self):
        hbm = HBMModel()
        row = hbm.config.row_buffer_bytes
        transfer, addresses, sizes = hbm.split([100, 7, 0], [2 * row + 5, 0, row])
        assert transfer.tolist() == [0, 0, 0, 2]
        assert addresses.tolist() == [100, 100 + row, 100 + 2 * row, 0]
        assert sizes.tolist() == [row, row, 5, row]


class TestRowBufferBehaviour:
    def test_sequential_accesses_hit_row_buffer(self):
        hbm = HBMModel()
        stats = serve(hbm, "input_features", *accesses(8192, stride=64))
        assert stats.row_hit_rate > 0.9

    def test_random_accesses_miss_row_buffer(self):
        hbm = HBMModel()
        stride = hbm.config.row_buffer_bytes
        stats = serve(hbm, "input_features", *accesses(8192, stride=stride))
        assert stats.row_hit_rate == 0.0

    def test_row_misses_cost_more_cycles(self):
        cfg = HBMConfig()
        seq = serve(HBMModel(cfg), "x", *accesses(1 << 16, stride=64))
        rnd = serve(HBMModel(cfg), "x", *accesses(1 << 16, stride=cfg.row_buffer_bytes))
        assert rnd.busy_cycles > seq.busy_cycles
        assert rnd.bytes_transferred == seq.bytes_transferred

    def test_same_row_repeat_hits(self):
        hbm = HBMModel()
        stats = serve(hbm, "weights", [0] * 10, [64] * 10)
        assert stats.row_misses == 1
        assert stats.row_hits == 9


class TestParallelismAndUtilization:
    def test_interleaving_spreads_channels(self):
        cfg = HBMConfig()
        interleaved = HBMModel(cfg, interleave_low_bits=True)
        naive = HBMModel(cfg, interleave_low_bits=False)
        # A large sequential stream: interleaved map spreads across channels so
        # the critical-path busy time is lower.
        s1 = serve(interleaved, "edges", *accesses(1 << 20, stride=64))
        s2 = serve(naive, "edges", *accesses(1 << 20, stride=64))
        assert s1.busy_cycles < s2.busy_cycles

    def test_bandwidth_utilization_bounds(self):
        hbm = HBMModel()
        stats = serve_transfer(hbm, "edges", 1 << 18)
        util = stats.bandwidth_utilization(hbm.config)
        assert 0.0 < util <= 1.0

    def test_utilization_lower_over_longer_elapsed_time(self):
        hbm = HBMModel()
        stats = serve_transfer(hbm, "edges", 1 << 16)
        tight = stats.bandwidth_utilization(hbm.config)
        slack = stats.bandwidth_utilization(hbm.config,
                                            elapsed_cycles=stats.busy_cycles * 10)
        assert slack < tight

    def test_empty_request_list(self):
        stats = serve_transfer(HBMModel(), "edges", 0)
        assert stats.requests == 0
        assert stats.busy_cycles == 0
        assert stats.bandwidth_utilization(HBMConfig()) == 0.0


class TestEnergyAndStats:
    def test_energy_is_7pj_per_bit(self):
        hbm = HBMModel()
        stats = serve(hbm, "edges", [0], [100])
        assert stats.energy_pj == pytest.approx(100 * 8 * 7.0)

    def test_stats_merge(self):
        a = DRAMStats(requests=1, bytes_transferred=64, row_hits=1, busy_cycles=10,
                      total_channel_cycles=10, energy_pj=5.0)
        b = DRAMStats(requests=2, bytes_transferred=128, row_misses=2, busy_cycles=20,
                      total_channel_cycles=30, energy_pj=7.0)
        m = a.merge(b)
        assert m.requests == 3
        assert m.bytes_transferred == 192
        assert m.busy_cycles == 30
        assert m.energy_pj == 12.0

    def test_reset_closes_rows(self):
        hbm = HBMModel()
        serve(hbm, "edges", [0], [64])
        hbm.reset()
        stats = serve(hbm, "edges", [0], [64])
        assert stats.row_misses == 1

    def test_streams_do_not_alias(self):
        hbm = HBMModel()
        serve(hbm, "edges", [0], [64])
        stats = serve(hbm, "weights", [0], [64])
        # different stream at the same offset must not get a spurious row hit
        assert stats.row_misses == 1

    @settings(max_examples=20, deadline=None)
    @given(total=st.integers(64, 1 << 16))
    def test_property_bytes_conserved(self, total):
        stats = serve_transfer(HBMModel(), "edges", total)
        assert stats.bytes_transferred == total
