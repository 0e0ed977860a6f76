"""Off-chip memory access handler and coordination (Section 4.5.2, Fig. 9).

Four buffers compete for the single HBM stack: the Edge and Input buffers of
the Aggregation Engine and the Weight and Output buffers of the Combination
Engine.  Their fill/drain traffic arrives concurrently; handled naively the
interleaving destroys DRAM row-buffer locality and confines each stream to a
few banks.

The engines hand the handler *transfers*, contiguous ``(stream, address,
num_bytes)`` runs; :class:`~repro.hw.dram.HBMModel` alone splits them into
row-buffer-sized requests.  The coordinated handler orders a batch of
concurrent requests by the fixed priority ``edges > input features >
weights > output features`` (one stable sort), so same-stream requests
issue back to back and restore row-buffer hits, and the HBM model maps the
low address bits to channel and bank, exposing channel- and bank-level
parallelism.  The uncoordinated handler -- the ablation baseline of
Fig. 17 -- round-robins one request per stream at a time, streams in order
of first appearance, over a naive per-stream channel map.  One handler
serves one layer, so open rows and stream regions persist across its
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..hw.dram import DRAMStats, HBMModel, Transfer
from .config import HyGCNConfig

__all__ = ["AccessBatchResult", "MemoryAccessHandler", "ACCESS_PRIORITY"]

#: Fixed stream priority (Section 4.5.2).
ACCESS_PRIORITY: Tuple[str, ...] = (
    "edges", "input_features", "weights", "output_features",
)
_RANK = {stream: i for i, stream in enumerate(ACCESS_PRIORITY)}


@dataclass
class AccessBatchResult:
    """DRAM outcome of one concurrent request batch (one interval step)."""

    stats: DRAMStats
    cycles_by_stream: Dict[str, int]
    #: bytes moved per stream, streams in order of first appearance
    bytes_by_stream: Dict[str, int]

    @property
    def total_cycles(self) -> int:
        return self.stats.busy_cycles

    def cycles_for(self, streams: Sequence[str]) -> int:
        """DRAM cycles attributable to the given streams."""
        return sum(self.cycles_by_stream.get(s, 0) for s in streams)


class MemoryAccessHandler:
    """Services transfer batches with or without access coordination."""

    def __init__(self, config: HyGCNConfig):
        self.config = config
        self.coordinated = config.enable_memory_coordination
        self.hbm = HBMModel(config.hbm, interleave_low_bits=self.coordinated)

    def service_batch(self, transfers: Sequence[Transfer]) -> AccessBatchResult:
        """Service one batch of concurrent transfers and attribute cycles per stream."""
        transfers = [t for t in transfers if t[2] > 0]
        bytes_by_stream: Dict[str, int] = {}
        for stream, _, num_bytes in transfers:
            bytes_by_stream[stream] = bytes_by_stream.get(stream, 0) + num_bytes
        if not transfers:
            return AccessBatchResult(DRAMStats(), {}, {})
        streams = list(bytes_by_stream)
        if self.coordinated:
            # Code streams by priority rank, so one stable sort on the code
            # issues same-stream requests back to back.
            streams.sort(key=lambda s: _RANK.get(s, len(_RANK)))
        code = {stream: i for i, stream in enumerate(streams)}
        transfer, addresses, sizes = self.hbm.split(
            [t[1] for t in transfers], [t[2] for t in transfers])
        stream_of = np.array([code[t[0]] for t in transfers])[transfer]
        if self.coordinated:
            order = np.argsort(stream_of, kind="stable")
        else:
            # Round robin: every stream's n-th request before any (n+1)-th,
            # streams in order of first appearance (their codes).
            grouped = np.argsort(stream_of, kind="stable")
            counts = np.bincount(stream_of)
            turn = np.empty_like(stream_of)
            turn[grouped] = (np.arange(stream_of.size)
                             - np.repeat(np.cumsum(counts) - counts, counts))
            order = np.lexsort((stream_of, turn))
        stats = self.hbm.service(streams, stream_of[order], addresses[order],
                                 sizes[order])
        # Attribute the busy time to streams proportionally to bytes moved:
        # the row-hit benefit of coordination is shared by all streams.
        total_bytes = sum(bytes_by_stream.values())
        cycles_by_stream = {
            stream: int(round(stats.busy_cycles * b / total_bytes))
            for stream, b in bytes_by_stream.items()
        }
        return AccessBatchResult(stats, cycles_by_stream, bytes_by_stream)
