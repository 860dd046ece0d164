"""Set-associative cache model with LRU replacement.

Functional and timed: each access updates the tag store and returns when
the data is available.  A hit costs one cycle; a miss costs a memory
transaction (the caller decides how much of that latency is exposed --
the prefetching architecture of Section IV-A overlaps it with useful work).

Following the paper's prefetch design, tags are updated immediately at
request time ("the arc's address is looked up in the cache tags, and in
case of a miss the tags are updated immediately"), so a later access to the
same line is a hit even while the fill is in flight; the returned data time
still honours the fill completion.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from repro.accel.config import CacheConfig
from repro.accel.memory import MemoryController
from repro.accel.stats import CacheStats


class Cache:
    """One cache (State, Arc or Token) in front of main memory."""

    HIT_LATENCY = 1

    def __init__(
        self,
        config: CacheConfig,
        memory: MemoryController,
        region: str,
        stats: CacheStats = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.region = region
        self.stats = stats if stats is not None else CacheStats()
        self._num_sets = config.num_sets
        self._line = config.line_bytes
        # Per set: OrderedDict mapping tag -> (dirty, fill_time); LRU order.
        self._sets: List["OrderedDict[int, Tuple[bool, int]]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    def access(self, time: int, addr: int, write: bool = False) -> Tuple[int, bool]:
        """Look up ``addr`` at cycle ``time``.

        Returns ``(data_time, hit)`` -- the cycle the data is available and
        whether the access hit.  Writes allocate and mark the line dirty;
        dirty evictions post a write-back to memory.
        """
        self.stats.accesses += 1
        if self.config.perfect:
            return time + self.HIT_LATENCY, True

        line_id = addr // self._line
        set_idx = line_id % self._num_sets
        ways = self._sets[set_idx]

        if line_id in ways:
            dirty, fill_time = ways.pop(line_id)
            ways[line_id] = (dirty or write, fill_time)
            return max(time + self.HIT_LATENCY, fill_time), True

        # Miss: evict LRU if the set is full.
        self.stats.misses += 1
        if len(ways) >= self.config.assoc:
            _victim, (victim_dirty, _t) = ways.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
                self.memory.write_nonblocking(time, self.region, self._line)

        fill_time = self.memory.request(time, self.region, self._line)
        ways[line_id] = (write, fill_time)
        return fill_time, False

    def flush_dirty(self, time: int) -> int:
        """Write back every dirty line (end of decode); returns count."""
        count = 0
        for ways in self._sets:
            for line_id, (dirty, _fill) in list(ways.items()):
                if dirty:
                    self.memory.write_nonblocking(time, self.region, self._line)
                    ways[line_id] = (False, 0)
                    count += 1
                    self.stats.writebacks += 1
        return count
