"""Per-frame token hash tables with backup and overflow buffers.

The accelerator keeps two hash tables (current and next frame).  Each entry
stores the token's likelihood and backpointer address plus a link pointer;
all tokens form a single linked list the State Issuer walks next frame
(paper, Section III-B).

Collisions (distinct states mapping to one entry) chain through an on-chip
backup buffer -- each chained hop costs an extra cycle.  When the backup
buffer is exhausted the chain spills to the Overflow Buffer in main memory
and every further access to those entries pays a DRAM round trip
("Overflows significantly increase the latency ... but extremely rare for
common hash table sizes").
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.accel.config import HashConfig
from repro.accel.memory import MemoryController, Region
from repro.accel.stats import HashStats

#: Knuth's multiplicative hashing constant; shared with the trace replayer
#: so both models place states in identical buckets.
HASH_MULTIPLIER = 2654435761

#: Bytes per Overflow Buffer entry in main memory (state id, likelihood,
#: backpointer address, next pointer -- same 24-byte record as on chip).
OVERFLOW_ENTRY_BYTES = 24


class TokenHashTable:
    """Timing model of one per-frame hash table.

    Functional token storage lives in the simulator (a Python dict keyed by
    state); this class models *where* each state's entry physically sits
    (direct entry, backup chain position, or overflow) and what each access
    costs in cycles.
    """

    def __init__(
        self,
        config: HashConfig,
        memory: MemoryController,
        stats: HashStats = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.stats = stats if stats is not None else HashStats()
        self._chain_pos: Dict[int, int] = {}
        self._bucket_len: Dict[int, int] = {}
        self._backup_used = 0

    def clear(self) -> None:
        """Start a new frame: all entries are released."""
        self._chain_pos.clear()
        self._bucket_len.clear()
        self._backup_used = 0

    @property
    def occupancy(self) -> int:
        return len(self._chain_pos)

    def _bucket(self, state: int) -> int:
        # Multiplicative hashing spreads sequential state ids.
        return (state * HASH_MULTIPLIER) % self.config.num_entries

    def access(self, time: int, state: int) -> Tuple[int, int]:
        """Look up or insert the token of ``state`` at cycle ``time``.

        Returns ``(done_time, cycles)``.  The first state to claim a bucket
        costs one cycle; each chained predecessor adds a cycle; chain
        positions beyond the backup-buffer capacity live in main memory.
        """
        if self.config.perfect:
            self.stats.requests += 1
            self.stats.total_cycles += 1
            return time + 1, 1

        bucket = self._bucket(state)
        pos = self._chain_pos.get(state)
        if pos is None:
            pos = self._bucket_len.get(bucket, 0)
            self._bucket_len[bucket] = pos + 1
            self._chain_pos[state] = pos
            if pos > 0:
                self._backup_used += 1
                self.stats.collisions += 1

        cycles = 1 + pos
        done = time + cycles
        if pos > 0 and self._backup_used > self.config.backup_entries:
            # The chain spilled to the Overflow Buffer in main memory.
            self.stats.overflows += 1
            done = self.memory.request(
                time, Region.OVERFLOW, OVERFLOW_ENTRY_BYTES
            )
            cycles = done - time

        self.stats.requests += 1
        self.stats.total_cycles += cycles
        return done, cycles

    def read_cost(self, time: int, state: int) -> Tuple[int, bool]:
        """Cost of the State Issuer reading this token next frame.

        Walking the global linked list is one cycle per token; entries that
        overflowed to memory pay the DRAM latency again.  Returns
        ``(done_time, spilled)``: ``spilled`` marks a read that went to the
        Overflow Buffer in main memory.
        """
        if self.config.perfect:
            return time + 1, False
        pos = self._chain_pos.get(state, 0)
        if pos > 0 and self._backup_used > self.config.backup_entries:
            done = self.memory.request(
                time, Region.OVERFLOW, OVERFLOW_ENTRY_BYTES
            )
            return done, True
        return time + 1, False
