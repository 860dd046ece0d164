"""Cross-platform experiment harness.

Runs the same workload through every platform the paper compares --
CPU (software decoder + timing model), GPU (data-parallel decoder + timing
model) and the four accelerator configurations (ASIC, ASIC+State, ASIC+Arc,
ASIC+State&Arc) -- and assembles the results the evaluation figures need.
The functional search runs once per utterance: the accelerator variants
are one :class:`~repro.explore.runner.SweepRunner` sweep, which records the
decode trace in its trace cache and prices it by replay, and the CPU
platform reads its statistics off that same recording, so adding
configurations costs replays, not searches.

Workloads come in two flavours:

* :func:`repro.datasets.generate_task` tasks -- full ASR pipelines with
  ground truth (used by the correctness-oriented experiments);
* :func:`make_memory_workload` -- large synthetic Kaldi-like graphs with
  random acoustic scores, exercising the memory system at a realistic
  dataset-to-cache ratio (used by the performance/energy figures; caches
  are scaled with the graph so miss ratios land in the paper's regime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.common.rng import make_rng
from repro.acoustic.scorer import AcousticScores
from repro.accel.config import AcceleratorConfig
from repro.accel.stats import SimStats
from repro.datasets.synthetic_graph import SyntheticGraphConfig
from repro.decoder.kernel import DecoderConfig
from repro.decoder.result import SearchStats
from repro.energy.cpu_model import CpuTimingModel
from repro.explore.grid import apply_overrides
from repro.explore.runner import SweepRunner
from repro.gpu.decoder import GpuViterbiDecoder, GpuWorkload
from repro.gpu.model import GpuTimingModel
from repro.wfst.layout import CompiledWfst

_EPS_COLUMN_SCORE = -1.0e9


@dataclass
class MemoryWorkload:
    """A graph plus score matrices, ready to decode on every platform."""

    graph: CompiledWfst
    scores: List[AcousticScores]
    beam: float
    num_phones: int
    max_active: int = 0

    @property
    def total_frames(self) -> int:
        return sum(s.num_frames for s in self.scores)

    @property
    def speech_seconds(self) -> float:
        return self.total_frames * 0.01


def make_memory_workload(
    num_states: int = 50_000,
    num_utterances: int = 2,
    frames_per_utterance: int = 50,
    num_phones: int = 40,
    beam: float = 8.0,
    max_active: int = 4000,
    score_separation: float = 2.0,
    score_noise: float = 1.0,
    seed: int = 0,
    graph_config: Optional[SyntheticGraphConfig] = None,
    graph: Optional[CompiledWfst] = None,
    graph_cache: Optional["GraphCache"] = None,
) -> MemoryWorkload:
    """Build a memory-system workload on a Kaldi-like synthetic graph.

    Scores follow the hybrid-DNN texture: each frame has a hidden "true"
    phone scoring near zero while every other phone scores around
    ``-score_separation`` with ``score_noise`` jitter.  Paths tracking the
    hidden sequence stay near the beam's best while a broad, sparsely
    distributed cloud of competitors survives within the beam -- the
    active-set behaviour the paper's memory-system study depends on.  The
    active set size is controlled by ``beam`` / ``score_separation`` /
    ``score_noise`` and stays stable across utterance lengths (unlike
    i.i.d. random scores, which are critically unstable).

    The graph comes from the staged graph compiler
    (:func:`repro.graph.compile_graph` on a synthetic recipe); pass
    ``graph_cache`` to share compiled graphs across workloads and runs,
    or ``graph`` to decode a pre-compiled graph directly (``num_phones``
    is then derived from its input labels).
    """
    from repro.graph import GraphRecipe, compile_graph

    if graph is None:
        if graph_config is None:
            graph_config = SyntheticGraphConfig(
                num_states=num_states, num_phones=num_phones, seed=seed
            )
        artifact = compile_graph(
            GraphRecipe.synthetic_graph(graph_config), cache=graph_cache
        )
        graph = artifact.graph
        num_phones = graph_config.num_phones
    else:
        num_phones = int(graph.arc_ilabel.max())

    rng = make_rng(seed, "memory-workload-scores")
    scores = []
    for _ in range(num_utterances):
        frames = frames_per_utterance
        matrix = rng.normal(
            -score_separation,
            score_noise,
            size=(frames, num_phones + 1),
        )
        true_phones = rng.integers(1, num_phones + 1, size=frames)
        matrix[np.arange(frames), true_phones] = rng.normal(
            -0.2, 0.2, size=frames
        )
        matrix[:, 0] = _EPS_COLUMN_SCORE
        matrix[:, 1:] = np.minimum(matrix[:, 1:], -1e-3)
        scores.append(AcousticScores(matrix))
    return MemoryWorkload(graph, scores, beam, num_phones, max_active)


@dataclass
class PlatformRun:
    """One platform's decode of the workload's speech (a row of Figs. 9-14)."""

    name: str
    decode_seconds: float
    energy_j: float
    speech_seconds: float
    search: SearchStats
    sim_stats: Optional[SimStats] = None

    @property
    def decode_time_per_speech_second(self) -> float:
        """The paper's Figure 9 metric."""
        if self.speech_seconds == 0:
            return 0.0
        return self.decode_seconds / self.speech_seconds

    @property
    def energy_per_speech_second(self) -> float:
        """The paper's Figure 14 y-axis."""
        if self.speech_seconds == 0:
            return 0.0
        return self.energy_j / self.speech_seconds

    @property
    def avg_power_w(self) -> float:
        """The paper's Figure 12 metric."""
        if self.decode_seconds == 0:
            return 0.0
        return self.energy_j / self.decode_seconds

    @property
    def realtime(self) -> bool:
        """Real-time speech recognition: decode faster than the speech."""
        return self.decode_seconds < self.speech_seconds


@dataclass
class ComparisonResult:
    """Every platform's run over one workload, and the paper's comparisons."""

    runs: Dict[str, PlatformRun]
    speech_seconds: float

    def speedup_vs(self, baseline: str) -> Dict[str, float]:
        """Figure 10: speedup of every platform over ``baseline``."""
        base = self.runs[baseline].decode_seconds
        return {name: base / r.decode_seconds for name, r in self.runs.items()}

    def energy_reduction_vs(self, baseline: str) -> Dict[str, float]:
        """Figure 11: energy reduction of every platform vs ``baseline``."""
        base = self.runs[baseline].energy_j
        return {name: base / r.energy_j for name, r in self.runs.items()}

    def rows(self) -> List[Dict[str, Any]]:
        """Tabular view for the CLI and the benchmark harness."""
        return [
            {
                "platform": r.name,
                "decode_s_per_speech_s": r.decode_time_per_speech_second,
                "energy_j_per_speech_s": r.energy_per_speech_second,
                "avg_power_w": r.avg_power_w,
                "realtime": r.realtime,
            }
            for r in self.runs.values()
        ]


#: The four accelerator configurations of the evaluation (Figure 9), each
#: as what it changes in the base design.
ASIC_VARIANTS: Dict[str, Dict[str, Any]] = {
    "ASIC": {},
    "ASIC+State": {"state_direct_enabled": True},
    "ASIC+Arc": {"prefetch_enabled": True},
    "ASIC+State&Arc": {"prefetch_enabled": True, "state_direct_enabled": True},
}


def accelerator_configs(
    base: AcceleratorConfig,
) -> Dict[str, AcceleratorConfig]:
    """The paper's four accelerator variants from a base configuration."""
    return {
        name: apply_overrides(base, overrides)
        for name, overrides in ASIC_VARIANTS.items()
    }


def run_platform_comparison(
    runner: SweepRunner,
    cpu_model: CpuTimingModel = CpuTimingModel(),
    gpu_model: GpuTimingModel = GpuTimingModel(),
) -> ComparisonResult:
    """Decode the runner's workload on all six platforms of Figs. 9-14.

    The four accelerator variants are one :meth:`SweepRunner.run` over
    :data:`ASIC_VARIANTS`, priced from the runner's base configuration
    with its energy model.  The CPU platform times the same recorded
    search, utterance by utterance, so the comparison records one search
    in the runner's trace cache (a hit when another sweep of the workload
    recorded it first).  The GPU platform runs its own data-parallel
    decoder.
    """
    workload = runner.workload
    sweep = runner.run(list(ASIC_VARIANTS.values()), labels=list(ASIC_VARIANTS))
    speech = sweep.speech_seconds
    runs: Dict[str, PlatformRun] = {}

    traces = runner.trace_cache.get(
        workload.graph, workload.scores,
        config=DecoderConfig(beam=workload.beam, max_active=workload.max_active),
    )
    seconds = sum(cpu_model.search_seconds(t.search) for t in traces)
    runs["CPU"] = PlatformRun(
        "CPU", seconds, seconds * cpu_model.spec.avg_power_w, speech,
        SearchStats.merge([t.search for t in traces]),
    )

    gpu_decoder = GpuViterbiDecoder(
        workload.graph, beam=workload.beam, max_active=workload.max_active
    )
    total_work = GpuWorkload()
    gpu_stats: List[SearchStats] = []
    for s in workload.scores:
        decode, work = gpu_decoder.decode(s)
        gpu_stats.append(decode.stats)
        _accumulate_gpu_work(total_work, work)
    seconds = gpu_model.search_seconds(total_work)
    runs["GPU"] = PlatformRun(
        "GPU", seconds, seconds * gpu_model.spec.avg_power_w, speech,
        SearchStats.merge(gpu_stats),
    )

    for point in sweep.points:
        runs[point.label] = PlatformRun(
            point.label, point.seconds, point.energy_j, speech, point.search,
            sim_stats=point.stats,
        )
    return ComparisonResult(runs, speech)


def _accumulate_gpu_work(total: GpuWorkload, work: GpuWorkload) -> None:
    total.frames += work.frames
    total.kernel_launches += work.kernel_launches
    total.arcs_expanded += work.arcs_expanded
    total.epsilon_arcs_expanded += work.epsilon_arcs_expanded
    total.atomic_updates += work.atomic_updates
    total.tokens_compacted += work.tokens_compacted
    total.epsilon_iterations += work.epsilon_iterations
