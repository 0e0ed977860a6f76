"""Simplified High Bandwidth Memory (HBM) model.

The paper integrates Ramulator to simulate an HBM 1.0 stack (256 GB/s,
Table 6) and charges 7 pJ/bit per access (Section 5.1).  This module provides
the stand-in: a transaction-level DRAM model with channels, banks and open-row
(row-buffer) state.  It is deliberately simple -- fixed row activate/precharge
/CAS latencies, per-channel data buses, no refresh -- but it preserves the two
effects the evaluation depends on:

* row-buffer locality: consecutive requests to the same row are much cheaper,
  which is what the priority-based access coordination (Section 4.5.2 /
  Fig. 17) improves;
* channel/bank-level parallelism: the coordinator remaps addresses so the low
  bits select channel and bank, letting independent streams proceed in
  parallel.

The engines hand over *transfers* -- contiguous runs such as one edge
array or one effectual feature window -- as stream-tagged arrays
(:data:`StreamTransfers`: one stream name, one address array, one byte
array).  :meth:`HBMModel.split` is the only place transfers are cut into
row-buffer-sized requests, and :meth:`HBMModel.service` services a whole
ordered batch of requests as arrays.  Each stream owns a disjoint address
region, numbered in order of first service.  The coordinated map takes
channel and bank from the low bits of the row-buffer block; the naive map
of the no-coordination ablation pins each stream to one channel.  Open
rows persist across :meth:`~HBMModel.service` calls, so one model carries
the row-buffer state of a whole layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["HBMConfig", "DRAMStats", "HBMModel", "StreamTransfers"]


@dataclass(frozen=True)
class HBMConfig:
    """Timing/geometry parameters of the HBM stack (in accelerator cycles @ 1 GHz)."""

    num_channels: int = 8
    banks_per_channel: int = 16
    row_buffer_bytes: int = 2048
    #: data bus width per channel in bytes transferred per accelerator cycle;
    #: 8 channels x 32 B/cycle = 256 GB/s at 1 GHz, matching Table 6.
    channel_bytes_per_cycle: int = 32
    #: row activate latency (tRCD) in cycles
    activate_cycles: int = 14
    #: precharge latency (tRP) in cycles
    precharge_cycles: int = 14
    #: column access latency (tCAS) in cycles
    cas_cycles: int = 14
    #: energy per bit moved across the HBM interface (picojoules)
    energy_pj_per_bit: float = 7.0

    @property
    def peak_bandwidth_bytes_per_cycle(self) -> int:
        """Aggregate peak bandwidth across all channels."""
        return self.num_channels * self.channel_bytes_per_cycle

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak bandwidth in GB/s assuming a 1 GHz accelerator clock."""
        return self.peak_bandwidth_bytes_per_cycle  # bytes/ns == GB/s


@dataclass
class DRAMStats:
    """Aggregate statistics over a sequence of serviced requests."""

    requests: int = 0
    bytes_transferred: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_cycles: int = 0          # max over channels (critical path)
    total_channel_cycles: int = 0  # sum over channels (for utilisation)
    energy_pj: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def bandwidth_utilization(self, config: HBMConfig,
                              elapsed_cycles: Optional[int] = None) -> float:
        """Achieved fraction of peak bandwidth over ``elapsed_cycles``.

        If ``elapsed_cycles`` is omitted the DRAM busy time is used, i.e. the
        utilisation *while transferring*.
        """
        cycles = elapsed_cycles if elapsed_cycles else self.busy_cycles
        if not cycles:
            return 0.0
        peak = config.peak_bandwidth_bytes_per_cycle * cycles
        return min(1.0, self.bytes_transferred / peak)

    def merge(self, other: "DRAMStats") -> "DRAMStats":
        """Combine stats from two phases executed back to back."""
        return DRAMStats(
            requests=self.requests + other.requests,
            bytes_transferred=self.bytes_transferred + other.bytes_transferred,
            row_hits=self.row_hits + other.row_hits,
            row_misses=self.row_misses + other.row_misses,
            busy_cycles=self.busy_cycles + other.busy_cycles,
            total_channel_cycles=self.total_channel_cycles + other.total_channel_cycles,
            energy_pj=self.energy_pj + other.energy_pj,
        )


#: Contiguous off-chip transfers of one stream: ``(stream, byte addresses,
#: num_bytes)``, two parallel ``int64`` arrays with one entry per transfer.
#: ``stream`` names the buffer's logical data stream (``edges``,
#: ``input_features``, ``weights``, ``output_features``); the addresses lie
#: in that stream's own flat space.
StreamTransfers = Tuple[str, np.ndarray, np.ndarray]


class HBMModel:
    """Transaction-level HBM stack with open-row policy.

    Requests are serviced in the order given, each mapped to a (channel, bank,
    row) triple.  Channels operate in parallel: the model accumulates busy
    cycles per channel and reports the maximum as the critical-path DRAM time.
    """

    def __init__(self, config: Optional[HBMConfig] = None,
                 interleave_low_bits: bool = True):
        self.config = config or HBMConfig()
        #: when True, consecutive row-buffer-sized blocks rotate across
        #: channels/banks (the coordinator's low-bit remapping); when False,
        #: each stream is confined to a channel subset, modelling the naive
        #: address map used in the no-coordination ablation.
        self.interleave_low_bits = interleave_low_bits
        channels, banks = self.config.num_channels, self.config.banks_per_channel
        #: open row per bank, indexed by ``channel * banks_per_channel + bank``
        self._open_rows = np.full(channels * banks, -1, dtype=np.int64)
        #: coordinated map: ``block % (channels * banks)`` -> bank index, the
        #: low bits picking the channel and the bits above them the bank
        low = np.arange(channels * banks)
        self._bank_of_low = low % channels * banks + low // channels
        #: bank index dtype: a stable sort of 8- or 16-bit keys is a radix sort
        self._bank_key = np.min_scalar_type(channels * banks - 1)
        #: stream -> region index, in order of first service; distinct
        #: streams get distinct high-order address regions so rows from
        #: different streams never alias.
        self._stream_regions = {}

    # ------------------------------------------------------------------ #
    def split(self, addresses: Sequence[int], num_bytes: Sequence[int]
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cut contiguous transfers into row-buffer-sized requests.

        Returns ``(transfer, address, num_bytes)`` arrays with one entry per
        request, in transfer order; ``transfer`` indexes the transfer each
        request belongs to.  An empty transfer yields no request.
        """
        granularity = self.config.row_buffer_bytes
        addresses = np.asarray(addresses, dtype=np.int64)
        num_bytes = np.asarray(num_bytes, dtype=np.int64)
        counts = -(-np.maximum(num_bytes, 0) // granularity)
        transfer = np.repeat(np.arange(num_bytes.size), counts)
        offset = (np.arange(transfer.size)
                  - (np.cumsum(counts) - counts)[transfer]) * granularity
        return (transfer, addresses[transfer] + offset,
                np.minimum(granularity, num_bytes[transfer] - offset))

    def service(self, streams: Sequence[str], stream_of: np.ndarray,
                addresses: np.ndarray, num_bytes: np.ndarray) -> DRAMStats:
        """Service requests in the order given and return the aggregate statistics.

        Request ``i`` belongs to stream ``streams[stream_of[i]]`` and moves
        ``num_bytes[i]`` bytes from ``addresses[i]``.  ``streams`` lists the
        batch's streams in order of first service, so new streams take their
        address regions in that order.
        """
        cfg = self.config
        count = int(num_bytes.size)
        if not count:
            return DRAMStats()
        for stream in streams:
            self._stream_regions.setdefault(stream, len(self._stream_regions))
        regions = np.array([self._stream_regions[s] for s in streams],
                           dtype=np.int64)
        # 1 TiB per stream keeps regions disjoint for any realistic input.
        block = ((regions[stream_of] << 40) + addresses) // cfg.row_buffer_bytes
        banks = cfg.banks_per_channel
        if self.interleave_low_bits:
            row, low = np.divmod(block, cfg.num_channels * banks)
            bank_of = self._bank_of_low[low]
        else:
            # Naive map: the stream id picks the channel, so concurrent streams
            # collide on a few channels and banks see frequent row conflicts.
            row, bank = np.divmod(block, banks)
            bank_of = (regions % cfg.num_channels * banks)[stream_of] + bank

        # A request hits when its row is the one its bank has open: the row
        # of the bank's previous request, or for the bank's first request the
        # row left open by earlier calls.  Group requests by bank, keeping
        # service order within each bank.
        order = bank_of.astype(self._bank_key).argsort(kind="stable")
        bank_of = bank_of[order]
        row = row[order]
        starts = np.empty(count, dtype=bool)
        starts[0] = True
        np.not_equal(bank_of[1:], bank_of[:-1], out=starts[1:])
        previous = np.empty(count, dtype=np.int64)
        previous[1:] = row[:-1]
        previous[starts] = self._open_rows[bank_of[starts]]
        hit = row == previous
        # after the batch each bank holds the row of its last request open
        ends = np.empty(count, dtype=bool)
        ends[:-1] = starts[1:]
        ends[-1] = True
        self._open_rows[bank_of[ends]] = row[ends]

        transfer = -(-num_bytes[order] // cfg.channel_bytes_per_cycle)
        latency = cfg.cas_cycles + transfer + np.where(
            hit, 0, cfg.precharge_cycles + cfg.activate_cycles)
        # float sums of int64 latencies are exact far below 2**53
        channel_busy = np.bincount(bank_of, weights=latency,
                                   minlength=self._open_rows.size) \
            .reshape(cfg.num_channels, banks).sum(axis=1).astype(np.int64)
        hits = int(np.count_nonzero(hit))
        return DRAMStats(
            requests=count,
            bytes_transferred=int(num_bytes.sum()),
            row_hits=hits,
            row_misses=count - hits,
            busy_cycles=int(channel_busy.max()),
            total_channel_cycles=int(channel_busy.sum()),
            # a sequential sum in service order, as a per-request loop adds it
            energy_pj=float(np.cumsum(num_bytes * 8 * cfg.energy_pj_per_bit)[-1]),
        )

    def reset(self) -> None:
        """Close all rows (e.g. between independent experiments)."""
        self._open_rows.fill(-1)
