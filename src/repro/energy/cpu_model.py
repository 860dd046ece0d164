"""CPU timing and power model (the Kaldi software decoder baseline).

The paper measures Kaldi's decoder on an Intel i7-6700K (Table II) with
RAPL for energy.  The analytical substitute charges per-operation costs to
the operation counts of our reference software decoder:

* arc processing is the dominant cost and is memory-bound: following the
  paper's workload (~25k arcs per frame; decode time 0.298 s per second of
  speech -- 16.7x slower than the final accelerator), the CPU sustains
  ~11M arcs/s, i.e. ~90 ns (~380 cycles at 4.2 GHz) per arc, dominated
  by cache misses on the sparse WFST working set;
* token reads/writes and per-frame bookkeeping add smaller terms;
* DNN inference runs at an effective 55 GFLOP/s (AVX2), which puts the
  DNN/search split at the paper's Figure 1 ratio (27% / 73%).

Average package power while decoding is the paper's measured 32.2 W.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.decoder.result import SearchStats


@dataclass(frozen=True)
class CpuSpec:
    """CPU hardware parameters (paper, Table II)."""

    name: str = "Intel Core i7 6700K"
    num_cores: int = 4
    frequency_hz: float = 4.2e9
    technology_nm: int = 14
    l1_kb: int = 64
    l2_kb_per_core: int = 256
    l3_mb: int = 8
    avg_power_w: float = 32.2


INTEL_I7_6700K = CpuSpec()


@dataclass(frozen=True)
class CpuTimingModel:
    """Operation-cost model of the software Viterbi decoder on the CPU."""

    spec: CpuSpec = INTEL_I7_6700K
    arc_process_s: float = 90e-9
    epsilon_arc_s: float = 90e-9
    token_write_s: float = 19e-9
    token_read_s: float = 7.6e-9
    frame_overhead_s: float = 11.4e-6
    effective_gflops: float = 55.0

    def search_seconds(self, stats: SearchStats) -> float:
        """Viterbi-search time for one decoded utterance."""
        return (
            stats.arcs_processed * self.arc_process_s
            + stats.epsilon_arcs_processed * self.epsilon_arc_s
            + stats.total_token_writes * self.token_write_s
            + sum(stats.active_tokens_per_frame) * self.token_read_s
            + stats.frames * self.frame_overhead_s
        )

    def search_energy_j(self, stats: SearchStats) -> float:
        return self.search_seconds(stats) * self.spec.avg_power_w

    def dnn_seconds(self, flops: float) -> float:
        """Time to evaluate ``flops`` of DNN work on the CPU."""
        if flops < 0:
            raise ConfigError("flops must be non-negative")
        return flops / (self.effective_gflops * 1e9)
