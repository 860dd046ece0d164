"""Property-based tests for the cache model against a reference LRU, and
for the replayer's timing-free outcome pass against the cache model."""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.accel import Cache, MemoryController, Region
from repro.accel.config import CacheConfig
from repro.accel.replay import MISS, lru_outcomes


class ReferenceLru:
    """An independent, dead-simple LRU model (line-granular)."""

    def __init__(self, num_sets: int, assoc: int, line: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.line = line
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, addr: int) -> bool:
        line_id = addr // self.line
        ways = self.sets[line_id % self.num_sets]
        if line_id in ways:
            ways.move_to_end(line_id)
            return True
        if len(ways) >= self.assoc:
            ways.popitem(last=False)
        ways[line_id] = True
        return False


addresses = st.lists(
    st.integers(0, 4095).map(lambda x: x * 16), min_size=1, max_size=300
)


@settings(max_examples=60, deadline=None)
@given(addresses)
def test_hit_miss_sequence_matches_reference(addrs):
    config = CacheConfig(size_bytes=2048, assoc=2)  # 16 sets
    cache = Cache(config, MemoryController(), Region.ARCS)
    ref = ReferenceLru(config.num_sets, config.assoc, config.line_bytes)

    time = 0
    for addr in addrs:
        time += 1
        _done, hit = cache.access(time, addr)
        assert hit == ref.access(addr), f"divergence at address {addr:#x}"


@settings(max_examples=30, deadline=None)
@given(addresses)
def test_miss_count_invariant_under_timing(addrs):
    """Hits and misses depend only on the address stream, not on timing."""
    config = CacheConfig(size_bytes=1024, assoc=4)

    def run(time_step):
        cache = Cache(config, MemoryController(), Region.ARCS)
        time = 0
        for addr in addrs:
            time += time_step
            cache.access(time, addr)
        return cache.stats.misses

    assert run(1) == run(100)


@settings(max_examples=30, deadline=None)
@given(addresses)
def test_fully_associative_upper_bounds_hits(addrs):
    """More associativity (same capacity) can reduce conflict misses for
    these short streams without pathological LRU interactions."""
    direct = CacheConfig(size_bytes=1024, assoc=1)
    cache = Cache(direct, MemoryController(), Region.ARCS)
    time = 0
    for addr in addrs:
        time += 1
        cache.access(time, addr)
    # Sanity rather than theory (Belady anomalies exist for LRU only
    # across capacities, not associativity at fixed capacity with LRU
    # stack property): the model never produces more misses than accesses
    # nor fewer than distinct lines.
    distinct_lines = len({a // 64 for a in addrs})
    assert distinct_lines <= cache.stats.misses <= len(addrs)


@settings(max_examples=30, deadline=None)
@given(addresses, st.integers(1, 3))
def test_lru_stack_property(addrs, shift):
    """Doubling associativity at fixed set count never adds misses (LRU
    inclusion property per set)."""
    small = CacheConfig(size_bytes=1024, assoc=2)       # 8 sets
    big = CacheConfig(size_bytes=2048, assoc=4)         # 8 sets, deeper ways

    def misses(config):
        cache = Cache(config, MemoryController(), Region.ARCS)
        for t, addr in enumerate(addrs):
            cache.access(t, addr)
        return cache.stats.misses

    assert misses(big) <= misses(small)


# ----------------------------------------------------------------------
# The replayer's outcome pass (repro.accel.replay.lru_outcomes) against
# the timed cache model: same hits, same filling misses, same write-backs.
# ----------------------------------------------------------------------
#: (num_sets, assoc): direct-mapped, 2- and 4-way, one set, and more ways
#: than the streams below have distinct lines (nothing is ever evicted).
GEOMETRIES = [(8, 1), (4, 2), (4, 4), (1, 3), (2, 64)]

line_streams = st.lists(st.integers(0, 40), min_size=0, max_size=250)
time_steps = st.lists(st.integers(1, 400), min_size=250, max_size=250)


#: Streams that reach both of lru_outcomes' shortcuts: long runs of one
#: line (only a run's head is simulated), and lines drawn from a pool that
#: gives every set of the geometry exactly ``assoc`` lines -- plus, when
#: ``spill`` is set, one more line that forces evictions in set 0.
runs = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 30)), min_size=0, max_size=25
).map(lambda pairs: [line for line, n in pairs for _ in range(n)][:250])


@st.composite
def full_set_streams(draw):
    num_sets, assoc = draw(st.sampled_from(GEOMETRIES))
    pool = [way * num_sets + index
            for index in range(num_sets) for way in range(assoc)]
    if draw(st.booleans()):
        pool.append(assoc * num_sets)  # spill: set 0 gets assoc + 1 lines
    lines = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=250))
    if draw(st.booleans()):
        lines = pool + lines  # every set filled to exactly assoc first
    return lines[:250], (num_sets, assoc)


def check_against_timed_cache(lines, steps, geometry):
    num_sets, assoc = geometry
    config = CacheConfig(size_bytes=num_sets * assoc * 64, assoc=assoc)
    assert config.num_sets == num_sets
    # A DRAM so slow that no fill ever lands: a hit then returns the fill
    # time of the miss that brought its line in, which names that miss.
    memory = MemoryController(latency_cycles=10**9, max_inflight=len(lines) + 1)
    cache = Cache(config, memory, Region.TOKENS)

    outcome = lru_outcomes(np.array(lines, dtype=np.int64), num_sets, assoc)
    assert len(outcome.src) == len(lines)

    fills = []  # completion time of each miss, in miss order
    time = 0
    for line, step, src in zip(lines, steps, outcome.src.tolist()):
        time += step  # arbitrary, strictly increasing issue times
        done, hit = cache.access(time, line * 64, write=True)
        assert hit == (src != MISS)
        if hit:
            assert done == fills[src], "hit waits on a different miss's fill"
        else:
            fills.append(done)

    assert outcome.misses == len(fills) == cache.stats.misses
    # Every line was written, so each eviction wrote one back and the
    # end-of-decode flush writes back whatever is still resident.
    assert outcome.evictions == cache.stats.writebacks
    assert outcome.resident == cache.flush_dirty(time)


def check_against_reference_lru(lines, geometry):
    num_sets, assoc = geometry
    ref = ReferenceLru(num_sets, assoc, line=1)
    outcome = lru_outcomes(np.array(lines, dtype=np.int64), num_sets, assoc)
    assert [src != MISS for src in outcome.src.tolist()] == [
        ref.access(line) for line in lines
    ]
    assert outcome.resident == sum(len(ways) for ways in ref.sets)


@settings(max_examples=60, deadline=None)
@given(line_streams, time_steps, st.sampled_from(GEOMETRIES))
def test_outcome_pass_matches_timed_cache(lines, steps, geometry):
    check_against_timed_cache(lines, steps, geometry)


@settings(max_examples=30, deadline=None)
@given(line_streams, st.sampled_from(GEOMETRIES))
def test_outcome_pass_matches_reference_lru(lines, geometry):
    check_against_reference_lru(lines, geometry)


@settings(max_examples=60, deadline=None)
@given(runs, time_steps, st.sampled_from(GEOMETRIES))
def test_long_same_line_runs_match_timed_cache_and_reference(
    lines, steps, geometry
):
    check_against_timed_cache(lines, steps, geometry)
    check_against_reference_lru(lines, geometry)


@settings(max_examples=60, deadline=None)
@given(full_set_streams(), time_steps)
def test_sets_filled_to_their_ways_match_timed_cache_and_reference(
    stream, steps
):
    lines, geometry = stream
    check_against_timed_cache(lines, steps, geometry)
    check_against_reference_lru(lines, geometry)
