"""Main memory and memory controller model.

A fixed-latency DRAM (Table I / Section V: 50 cycles at 600 MHz) behind a
memory controller with a bounded number of in-flight requests (32); issue
spacing is not modelled (see :class:`MemoryController`).  Every request
is tagged with the data region it touches (states / arcs / tokens /
overflow) so the simulator can report the traffic breakdown of Figure 13.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.accel.stats import MemoryTraffic


class Region:
    """Off-chip data regions (Figure 13's traffic categories)."""

    STATES = "states"
    ARCS = "arcs"
    TOKENS = "tokens"
    OVERFLOW = "overflow"


class MemoryController:
    """Timestamp-algebra model of the DRAM interface.

    ``request`` returns the completion cycle of a memory transaction:
    the fixed access latency (Table I / Section V: 50 cycles) plus a
    queueing term when the requesting unit clusters more transactions into
    a latency window than the controller can keep in flight.

    The model is deliberately latency-centric: the paper establishes that
    the accelerator "processes arcs sequentially, [so] performance is
    mainly affected by memory latency and not memory bandwidth"
    (Section VI).  Requests from the different issuers carry their own
    issue timestamps and are *not* serialised against each other -- each
    issuer's concurrency is already bounded by its in-flight window
    (8 states / 8-64 arcs / 32 tokens), which keeps total outstanding
    requests within the controller's 32.  Bandwidth is fully accounted in
    ``traffic`` for the Figure 13 analysis.
    """

    def __init__(
        self,
        latency_cycles: int = 50,
        max_inflight: int = 32,
        traffic: MemoryTraffic = None,
    ) -> None:
        self.latency = latency_cycles
        self.max_inflight = max_inflight
        self.traffic = traffic if traffic is not None else MemoryTraffic()
        self.requests = 0
        # Recent issue timestamps, for the queueing estimate.  Kept small;
        # order-insensitive within the latency window.
        self._recent: Deque[int] = deque(maxlen=max_inflight)

    def request(
        self, time: int, region: str, nbytes: int, write: bool = False
    ) -> int:
        """Schedule a transaction; returns its completion cycle."""
        time = int(time)
        # Queueing: if max_inflight requests were issued within one latency
        # window of this one, this request waits for the oldest to retire.
        issue = time
        if len(self._recent) == self._recent.maxlen:
            oldest = self._recent[0]
            if oldest + self.latency > time:
                issue = oldest + self.latency
        self._recent.append(issue)

        self.requests += 1
        self.traffic.add(region, nbytes, write)
        return issue + self.latency

    def write_nonblocking(self, time: int, region: str, nbytes: int) -> None:
        """Posted write: consumes bandwidth but nobody waits on it."""
        self.traffic.add(region, nbytes, write=True)
        self.requests += 1
