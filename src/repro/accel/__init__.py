"""Cycle-accurate simulator of the Viterbi-search accelerator.

This package is the paper's primary contribution: the five-stage pipeline of
Figure 3 (State Issuer, Arc Issuer, Acoustic-Likelihood Issuer, Likelihood
Evaluation, Token Issuer) with its State/Arc/Token caches, dual token hash
tables (with backup and overflow buffers), memory controller, and the two
memory-system techniques of Section IV:

* the decoupled access/execute **prefetching architecture** for the Arc
  cache (Request FIFO + Arc FIFO + Reorder Buffer), and
* the **bandwidth-saving direct state lookup** (states sorted by arc count,
  comparator bank + offset table in the State Issuer).

The simulator *functionally decodes* -- its word output is checked against
the reference software decoder -- while accounting cycles at transaction
level: stalls arise only from cache misses and hash collisions, matching
the paper's characterisation of the design.
"""

from repro.accel.config import AcceleratorConfig, CacheConfig, HashConfig
from repro.accel.stats import MemoryTraffic, SimStats
from repro.accel.memory import MemoryController, Region
from repro.accel.cache import Cache
from repro.accel.hashtable import TokenHashTable
from repro.accel.prefetch import PrefetchConfig
from repro.accel.replay import TraceReplayer
from repro.accel.simulator import AcceleratorResult, AcceleratorSimulator
from repro.accel.trace import DecodeTrace, TraceRecorder, derive_sorted_trace

__all__ = [
    "AcceleratorConfig",
    "CacheConfig",
    "HashConfig",
    "MemoryTraffic",
    "SimStats",
    "MemoryController",
    "Region",
    "Cache",
    "TokenHashTable",
    "PrefetchConfig",
    "AcceleratorResult",
    "AcceleratorSimulator",
    "DecodeTrace",
    "TraceRecorder",
    "TraceReplayer",
    "derive_sorted_trace",
]
