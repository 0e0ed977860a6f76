"""On-chip scratchpad (eDRAM) buffer models.

HyGCN uses five explicitly managed buffers (Table 6): the Edge Buffer (2 MB),
Input Buffer (128 KB), Aggregation Buffer (16 MB), Weight Buffer (2 MB) and
Output Buffer (4 MB).  The Edge and Input buffers are double-buffered to hide
DRAM latency, the Aggregation Buffer is split into ping-pong halves to decouple
the two engines, and every buffer tracks its read/write traffic so the energy
model can charge per-access energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..counters import Summable

__all__ = ["BufferStats", "ScratchpadBuffer", "DoubleBuffer", "PingPongBuffer"]

KIB = 1024
MIB = 1024 * 1024


@dataclass
class BufferStats(Summable):
    """Access counters for one on-chip buffer (:meth:`merge` sums two)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    overflow_events: int = 0

    @property
    def total_accesses(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


class ScratchpadBuffer:
    """A software-managed on-chip buffer with capacity and traffic accounting.

    The simulator does not model individual addresses inside a buffer -- it
    allocates logical *regions* (a shard's source features, an interval's
    partial results, a weight tile) and records the traffic of reading/writing
    them.  Capacity violations are not fatal: they are counted as overflow
    events (meaning the real hardware would have had to tile the data further)
    so misconfigured experiments remain observable instead of crashing.
    """

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        self.stats = BufferStats()
        self._regions: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Region management
    # ------------------------------------------------------------------ #
    def allocate(self, region: str, num_bytes: int) -> bool:
        """Reserve ``num_bytes`` for ``region``; returns False on overflow."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self.free(region)
        fits = self.used_bytes + num_bytes <= self.capacity_bytes
        if not fits:
            self.stats.overflow_events += 1
        self._regions[region] = num_bytes
        self.used_bytes += num_bytes
        return fits

    def free(self, region: str) -> None:
        """Release a region if it exists."""
        if region in self._regions:
            self.used_bytes -= self._regions.pop(region)

    def clear(self) -> None:
        """Release every region (counters are preserved)."""
        self._regions.clear()
        self.used_bytes = 0

    def region_bytes(self, region: str) -> int:
        """Size of an allocated region (0 if absent)."""
        return self._regions.get(region, 0)

    @property
    def occupancy(self) -> float:
        """Fraction of the capacity currently allocated (can exceed 1 on overflow)."""
        return self.used_bytes / self.capacity_bytes

    @property
    def free_bytes(self) -> int:
        return max(0, self.capacity_bytes - self.used_bytes)

    # ------------------------------------------------------------------ #
    # Traffic accounting
    # ------------------------------------------------------------------ #
    def read(self, num_bytes: int, accesses: int = 1) -> None:
        """Record ``accesses`` read operations totalling ``num_bytes``."""
        self.stats.reads += accesses
        self.stats.bytes_read += int(num_bytes)

    def write(self, num_bytes: int, accesses: int = 1) -> None:
        """Record ``accesses`` write operations totalling ``num_bytes``."""
        self.stats.writes += accesses
        self.stats.bytes_written += int(num_bytes)

    def reset_stats(self) -> None:
        self.stats = BufferStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScratchpadBuffer({self.name!r}, capacity={self.capacity_bytes}B, "
                f"used={self.used_bytes}B)")


class DoubleBuffer(ScratchpadBuffer):
    """A double-buffered scratchpad: half the capacity is usable per phase.

    The Edge and Input buffers use double buffering so the next shard's data
    can be prefetched while the current shard is being consumed; the usable
    working-set per shard is therefore half the physical capacity.
    """

    def __init__(self, name: str, capacity_bytes: int):
        super().__init__(name, capacity_bytes)

    @property
    def working_capacity(self) -> int:
        """Bytes available to the currently processed shard."""
        return self.capacity_bytes // 2

    def fits_working_set(self, num_bytes: int) -> bool:
        """Whether one shard's working set fits in a single half."""
        return num_bytes <= self.working_capacity


class PingPongBuffer(ScratchpadBuffer):
    """The Aggregation Buffer: two chunks written/read by different engines.

    While the Aggregation Engine fills one chunk with aggregated features, the
    Combination Engine drains the other; ``swap`` flips the roles.  Each chunk
    is half the physical capacity (Section 4.5.1).
    """

    def __init__(self, name: str, capacity_bytes: int):
        super().__init__(name, capacity_bytes)
        self.active_chunk = 0
        self.swaps = 0

    @property
    def chunk_capacity(self) -> int:
        """Capacity of one ping-pong chunk."""
        return self.capacity_bytes // 2

    def swap(self) -> int:
        """Flip which chunk is written by the Aggregation Engine."""
        self.active_chunk ^= 1
        self.swaps += 1
        return self.active_chunk

    def fits_chunk(self, num_bytes: int) -> bool:
        """Whether an interval's aggregation results fit in one chunk."""
        return num_bytes <= self.chunk_capacity
