"""Scalar reference DRAM path: the differential oracle for the array model.

This is the per-request object path the cycle model used before transfers:
each transfer is cut into :class:`MemoryRequest` objects, a batch is ordered
by a key-lambda sort (coordinated) or a queue-popping round robin
(uncoordinated), and every request walks the open-row table one at a time.
``tests/hw/test_dram_equivalence.py`` checks that
:class:`repro.core.memory_handler.MemoryAccessHandler` reproduces it bit
for bit, energy included.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.memory_handler import ACCESS_PRIORITY, AccessBatchResult
from repro.hw import DRAMStats, HBMConfig


@dataclass
class MemoryRequest:
    """One off-chip access issued by a buffer's fill/drain engine."""

    stream: str
    address: int
    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
        if self.address < 0:
            raise ValueError("address must be non-negative")


def chunk_requests(stream: str, base_address: int, total_bytes: int,
                   granularity: int) -> List[MemoryRequest]:
    """Split a contiguous transfer into row-buffer-sized DRAM requests."""
    requests = []
    offset = 0
    while offset < total_bytes:
        chunk = min(granularity, total_bytes - offset)
        requests.append(MemoryRequest(stream, base_address + offset, chunk))
        offset += chunk
    return requests


class ReferenceHBM:
    """Transaction-level HBM stack with open-row policy, one request at a time."""

    def __init__(self, config: HBMConfig, interleave_low_bits: bool = True):
        self.config = config
        self.interleave_low_bits = interleave_low_bits
        self._open_rows = [
            [-1] * config.banks_per_channel for _ in range(config.num_channels)
        ]
        self._stream_regions = {}

    def _stream_base(self, stream: str) -> int:
        if stream not in self._stream_regions:
            self._stream_regions[stream] = len(self._stream_regions) * (1 << 40)
        return self._stream_regions[stream]

    def _map_address(self, request: MemoryRequest) -> tuple:
        cfg = self.config
        address = self._stream_base(request.stream) + request.address
        block = address // cfg.row_buffer_bytes
        if self.interleave_low_bits:
            channel = block % cfg.num_channels
            bank = (block // cfg.num_channels) % cfg.banks_per_channel
            row = block // (cfg.num_channels * cfg.banks_per_channel)
        else:
            stream_index = list(self._stream_regions).index(request.stream)
            channel = stream_index % cfg.num_channels
            bank = block % cfg.banks_per_channel
            row = block // cfg.banks_per_channel
        return channel, bank, row

    def service(self, requests: Sequence[MemoryRequest]) -> DRAMStats:
        cfg = self.config
        stats = DRAMStats()
        channel_busy = [0] * cfg.num_channels
        for request in requests:
            channel, bank, row = self._map_address(request)
            open_row = self._open_rows[channel][bank]
            transfer = -(-request.num_bytes // cfg.channel_bytes_per_cycle)
            if open_row == row:
                latency = cfg.cas_cycles + transfer
                stats.row_hits += 1
            else:
                latency = (cfg.precharge_cycles + cfg.activate_cycles
                           + cfg.cas_cycles + transfer)
                stats.row_misses += 1
                self._open_rows[channel][bank] = row
            channel_busy[channel] += latency
            stats.requests += 1
            stats.bytes_transferred += request.num_bytes
            stats.energy_pj += request.num_bytes * 8 * cfg.energy_pj_per_bit
        stats.busy_cycles = max(channel_busy) if channel_busy else 0
        stats.total_channel_cycles = sum(channel_busy)
        return stats


class ReferenceHandler:
    """The memory access handler over :class:`MemoryRequest` objects."""

    def __init__(self, hbm: HBMConfig, coordinated: bool):
        self.coordinated = coordinated
        self.hbm = ReferenceHBM(hbm, interleave_low_bits=coordinated)

    def _order_requests(self, requests: Sequence[MemoryRequest]) -> List[MemoryRequest]:
        if self.coordinated:
            rank = {stream: i for i, stream in enumerate(ACCESS_PRIORITY)}
            return sorted(requests, key=lambda r: rank.get(r.stream, len(rank)))
        by_stream: Dict[str, List[MemoryRequest]] = {}
        for request in requests:
            by_stream.setdefault(request.stream, []).append(request)
        ordered: List[MemoryRequest] = []
        queues = list(by_stream.values())
        index = 0
        while any(queues):
            queue = queues[index % len(queues)]
            if queue:
                ordered.append(queue.pop(0))
            index += 1
        return ordered

    def service_batch(self, transfers) -> AccessBatchResult:
        """Chunk ``(stream, address, num_bytes)`` transfers, order, service."""
        requests = [
            request
            for stream, address, num_bytes in transfers
            for request in chunk_requests(stream, address, num_bytes,
                                          self.hbm.config.row_buffer_bytes)
        ]
        if not requests:
            return AccessBatchResult(DRAMStats(), {}, {})
        ordered = self._order_requests(requests)
        stats = self.hbm.service(ordered)
        bytes_by_stream: Dict[str, int] = {}
        for request in ordered:
            bytes_by_stream[request.stream] = bytes_by_stream.get(request.stream, 0) \
                + request.num_bytes
        total_bytes = sum(bytes_by_stream.values()) or 1
        cycles_by_stream = {
            stream: int(round(stats.busy_cycles * b / total_bytes))
            for stream, b in bytes_by_stream.items()
        }
        return AccessBatchResult(stats, cycles_by_stream, bytes_by_stream)
