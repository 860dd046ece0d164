"""Accelerator configuration (paper, Table I).

Default values reproduce Table I exactly:

====================================  =====================================
Technology                            28 nm
Frequency                             600 MHz
State Cache                           512 KB, 4-way, 64 bytes/line
Arc Cache                             1 MB, 4-way, 64 bytes/line
Token Cache                           512 KB, 2-way, 64 bytes/line
Acoustic Likelihood Buffer            64 KB
Hash Table                            768 KB, 32K entries
Memory Controller                     32 in-flight requests
State Issuer                          8 in-flight states
Arc Issuer                            8 in-flight arcs
Token Issuer                          32 in-flight tokens
Acoustic Likelihood Issuer            1 in-flight arc
Likelihood Evaluation Unit            4 fp adders, 2 fp comparators
====================================  =====================================

DRAM latency follows the paper's CACTI model: 50 cycles (83 ns at 600 MHz).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """One set-associative cache (LRU replacement)."""

    #: Total data capacity, in bytes.
    size_bytes: int
    #: Ways per set (1 = direct-mapped).
    assoc: int
    #: Line (fill granularity) size, in bytes.
    line_bytes: int = 64
    #: Idealisation switch: every access hits in one cycle (Section IV's
    #: "perfect cache" experiments).
    perfect: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache parameters must be positive")
        num_lines, rem = divmod(self.size_bytes, self.line_bytes)
        if rem:
            raise ConfigError("cache size must be a multiple of the line size")
        if num_lines % self.assoc:
            raise ConfigError("cache lines must divide evenly into ways")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class HashConfig:
    """One per-frame token hash table.

    Table I: 32K entries, 768 KB total storage (24 bytes/entry: state id,
    likelihood, backpointer address, next pointer).
    """

    #: Direct-mapped entries per table (Table I: 32K).
    num_entries: int = 32 * 1024
    #: Storage per entry, in bytes (state id, likelihood, backpointer
    #: address, next pointer).
    entry_bytes: int = 24
    #: On-chip backup-buffer entries for collision chains; chains beyond
    #: this spill to the Overflow Buffer in main memory.
    backup_entries: int = 8 * 1024
    #: Idealisation switch: every access takes one cycle, no collisions.
    perfect: bool = False

    def __post_init__(self) -> None:
        if self.num_entries <= 0:
            raise ConfigError("hash table needs at least one entry")
        if self.entry_bytes <= 0:
            raise ConfigError("hash entry_bytes must be positive")
        if self.backup_entries < 0:
            raise ConfigError("backup_entries must be >= 0")

    @property
    def size_bytes(self) -> int:
        return self.num_entries * self.entry_bytes


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full accelerator configuration with Table I defaults.

    Every field is range-validated at construction; invalid values raise
    :class:`~repro.common.errors.ConfigError` rather than producing a
    simulator that silently misbehaves.
    """

    #: Pipeline clock, in Hz (Table I: 600 MHz).
    frequency_hz: float = 600e6
    #: Process node, in nanometres (feeds the area/power model).
    technology_nm: int = 28

    state_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 4)
    )
    arc_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 4)
    )
    token_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 2)
    )
    #: Double-buffered Acoustic Likelihood Buffer capacity, in bytes; two
    #: frames of float32 scores must fit.
    acoustic_buffer_bytes: int = 64 * 1024
    hash_table: HashConfig = field(default_factory=HashConfig)

    #: Fixed DRAM access latency, in cycles (CACTI model: 83 ns at 600 MHz).
    mem_latency_cycles: int = 50
    #: Memory-controller in-flight request window, in requests.
    mem_max_inflight: int = 32

    #: In-flight operations per issuer, in transactions (Table I).
    state_issuer_inflight: int = 8
    arc_issuer_inflight: int = 8
    token_issuer_inflight: int = 32
    acoustic_issuer_inflight: int = 1

    #: Likelihood Evaluation Unit resources, in functional units.
    fp_adders: int = 4
    fp_comparators: int = 2

    #: Section IV-A -- decoupled access/execute prefetching for the Arc cache.
    prefetch_enabled: bool = False
    #: Request FIFO / Arc FIFO / Reorder Buffer depth, in entries.
    prefetch_fifo_entries: int = 64

    #: Section IV-B -- direct arc-index computation from sorted state layout.
    state_direct_enabled: bool = False
    #: Comparator count N: largest out-degree served without a state fetch.
    state_direct_max_arcs: int = 16

    #: Extra per-frame fixed overhead (hash swap, control), in cycles.
    frame_overhead_cycles: int = 16

    #: Windowed-traceback design axis: frames between traceback-buffer
    #: commits.  Every window the backpointer records written since the
    #: last commit are re-read and the still-live chain records rewritten
    #: compacted (the software protocol of
    #: :mod:`repro.decoder.traceback`), pricing the buffer's DRAM traffic
    #: and stall cycles instead of assuming free unbounded history.
    #: 0 (the default) models the historical append-only buffer: no
    #: commit traffic, no timing change.
    traceback_window_frames: int = 0
    #: Cycles charged per traceback record touched during a commit
    #: (read of a window record or rewrite of a retained one).
    traceback_cycles_per_record: int = 1

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if self.technology_nm <= 0:
            raise ConfigError("technology node must be positive")
        if self.acoustic_buffer_bytes <= 0:
            raise ConfigError(
                "the Acoustic Likelihood Buffer needs a positive capacity"
            )
        if self.mem_latency_cycles < 1:
            raise ConfigError("memory latency must be >= 1 cycle")
        if self.mem_max_inflight < 1:
            raise ConfigError(
                "the memory controller needs >= 1 in-flight request"
            )
        if min(
            self.state_issuer_inflight,
            self.arc_issuer_inflight,
            self.token_issuer_inflight,
            self.acoustic_issuer_inflight,
        ) < 1:
            raise ConfigError("issuer in-flight limits must be >= 1")
        if min(self.fp_adders, self.fp_comparators) < 1:
            raise ConfigError(
                "the Likelihood Evaluation Unit needs >= 1 adder and "
                ">= 1 comparator"
            )
        if self.prefetch_fifo_entries < 1:
            raise ConfigError("prefetch FIFO needs at least one entry")
        if self.state_direct_max_arcs < 1:
            raise ConfigError(
                "state_direct_max_arcs (the Section IV-B comparator "
                "count N) must be >= 1"
            )
        if self.frame_overhead_cycles < 0:
            raise ConfigError("frame overhead must be >= 0 cycles")
        if self.traceback_window_frames < 0:
            raise ConfigError("traceback_window_frames must be >= 0")
        if self.traceback_cycles_per_record < 0:
            raise ConfigError("traceback_cycles_per_record must be >= 0")

    @property
    def arc_issue_window(self) -> int:
        """How far arc fetches may run ahead of arc consumption.

        Without prefetching the Arc Issuer tracks at most 8 in-flight arcs;
        the prefetching architecture decouples fetch from consume through
        the 64-entry Arc FIFO / Reorder Buffer.
        """
        if self.prefetch_enabled:
            return self.prefetch_fifo_entries
        return self.arc_issuer_inflight

    def scaled(self, factor: float) -> "AcceleratorConfig":
        """Scale all on-chip capacities by ``factor`` (for scaled datasets)."""
        if factor <= 0:
            raise ConfigError("scale factor must be positive")

        def scale_cache(c: CacheConfig) -> CacheConfig:
            lines = max(int(c.size_bytes * factor) // c.line_bytes, c.assoc)
            lines -= lines % c.assoc
            return replace(c, size_bytes=max(lines, c.assoc) * c.line_bytes)

        return replace(
            self,
            state_cache=scale_cache(self.state_cache),
            arc_cache=scale_cache(self.arc_cache),
            token_cache=scale_cache(self.token_cache),
            hash_table=replace(
                self.hash_table,
                num_entries=max(int(self.hash_table.num_entries * factor), 64),
                backup_entries=max(
                    int(self.hash_table.backup_entries * factor), 16
                ),
            ),
        )
