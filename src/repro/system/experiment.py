"""Cross-platform experiment harness.

Runs the same workload through every platform the paper compares --
CPU (software decoder + timing model), GPU (data-parallel decoder + timing
model) and the four accelerator configurations (ASIC, ASIC+State, ASIC+Arc,
ASIC+State&Arc) -- and assembles the results the evaluation figures need.
The functional search runs once per utterance: the CPU platform reads its
statistics off the recorded decode trace, the accelerator variants price
that trace by replay (:mod:`repro.accel.replay`) and the sorted-layout
variants price it relabelled (:func:`repro.accel.trace.derive_sorted_trace`),
so adding configurations costs replays, not searches.

Workloads come in two flavours:

* :func:`repro.datasets.generate_task` tasks -- full ASR pipelines with
  ground truth (used by the correctness-oriented experiments);
* :func:`make_memory_workload` -- large synthetic Kaldi-like graphs with
  random acoustic scores, exercising the memory system at a realistic
  dataset-to-cache ratio (used by the performance/energy figures; caches
  are scaled with the graph so miss ratios land in the paper's regime).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.acoustic.scorer import AcousticScores
from repro.accel.config import AcceleratorConfig
from repro.accel.replay import TraceReplayer
from repro.accel.simulator import AcceleratorResult
from repro.accel.stats import SimStats
from repro.accel.trace import DecodeTrace, TraceRecorder, derive_sorted_trace
from repro.datasets.synthetic_graph import SyntheticGraphConfig
from repro.decoder.result import SearchStats
from repro.energy.components import AcceleratorEnergyModel
from repro.energy.cpu_model import CpuTimingModel
from repro.energy.report import EnergyReport, PlatformResult
from repro.gpu.decoder import GpuViterbiDecoder, GpuWorkload
from repro.gpu.model import GpuTimingModel
from repro.wfst.layout import CompiledWfst
from repro.wfst.sorted_layout import SortedWfst, sort_states_by_arc_count

_EPS_COLUMN_SCORE = -1.0e9


@dataclass
class MemoryWorkload:
    """A graph plus score matrices, ready to decode on every platform."""

    graph: CompiledWfst
    sorted_graph: SortedWfst
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
    sorted_graph = sort_states_by_arc_count(graph)

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
    return MemoryWorkload(
        graph, sorted_graph, scores, beam, num_phones, max_active
    )


@dataclass
class PlatformRun:
    """Aggregated outcome of one platform over a workload."""

    name: str
    decode_seconds: float
    energy_j: float
    search: SearchStats
    sim_stats: Optional[SimStats] = None


@dataclass
class ComparisonResult:
    """All platform runs over one workload."""

    runs: Dict[str, PlatformRun] = field(default_factory=dict)
    speech_seconds: float = 0.0

    def report(self) -> EnergyReport:
        return EnergyReport(
            [
                PlatformResult(
                    name=r.name,
                    decode_seconds=r.decode_seconds,
                    energy_j=r.energy_j,
                    speech_seconds=self.speech_seconds,
                )
                for r in self.runs.values()
            ]
        )


#: The four accelerator configurations of the evaluation (Figure 9).
ASIC_CONFIG_NAMES = ("ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc")

#: Every platform :func:`run_platform_comparison` can run.
PLATFORM_NAMES = ("CPU", "GPU", *ASIC_CONFIG_NAMES)


def accelerator_configs(
    base: AcceleratorConfig,
) -> Dict[str, AcceleratorConfig]:
    """The paper's four accelerator variants from a base configuration."""
    return {
        "ASIC": base,
        "ASIC+State": base.with_state_direct(),
        "ASIC+Arc": base.with_prefetch(),
        "ASIC+State&Arc": base.with_both(),
    }


def run_platform_comparison(
    workload: MemoryWorkload,
    base_config: AcceleratorConfig = AcceleratorConfig(),
    cpu_model: CpuTimingModel = CpuTimingModel(),
    gpu_model: GpuTimingModel = GpuTimingModel(),
    energy_model: AcceleratorEnergyModel = AcceleratorEnergyModel(),
    include: Optional[List[str]] = None,
) -> ComparisonResult:
    """Decode the workload on every platform and collect times/energies.

    Args:
        include: restrict to a subset of :data:`PLATFORM_NAMES` (default:
            all six).

    Raises:
        ConfigError: ``include`` names a platform that does not exist.
    """
    wanted = include or list(PLATFORM_NAMES)
    unknown = [name for name in wanted if name not in PLATFORM_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown platform(s) {unknown}; choose from "
            f"{list(PLATFORM_NAMES)}"
        )
    result = ComparisonResult(speech_seconds=workload.speech_seconds)

    # The CPU platform and every accelerator variant share one recorded
    # scalar search per utterance.
    traces: List[DecodeTrace] = []
    if any(name != "GPU" for name in wanted):
        recorder = TraceRecorder(
            workload.graph, beam=workload.beam, max_active=workload.max_active
        )
        traces = [recorder.record(s) for s in workload.scores]

    if "CPU" in wanted:
        seconds = sum(cpu_model.search_seconds(t.search) for t in traces)
        result.runs["CPU"] = PlatformRun(
            "CPU", seconds, seconds * cpu_model.spec.avg_power_w,
            SearchStats.merge([t.search for t in traces]),
        )

    if "GPU" in wanted:
        gpu_decoder = GpuViterbiDecoder(
            workload.graph,
            beam=workload.beam,
            max_active=workload.max_active,
        )
        total_work = GpuWorkload()
        gpu_stats: List[SearchStats] = []
        for s in workload.scores:
            decode, work = gpu_decoder.decode(s)
            gpu_stats.append(decode.stats)
            _accumulate_gpu_work(total_work, work)
        seconds = gpu_model.search_seconds(total_work)
        result.runs["GPU"] = PlatformRun(
            "GPU",
            seconds,
            seconds * gpu_model.spec.avg_power_w,
            SearchStats.merge(gpu_stats),
        )

    # The accelerator variants differ only in timing: each re-prices the
    # traces, relabelled onto the Section IV-B sorted layout for the
    # variants that walk it.
    sorted_traces = [
        derive_sorted_trace(t, workload.graph, workload.sorted_graph)
        for t in traces
    ]
    for name, config in accelerator_configs(base_config).items():
        if name not in wanted:
            continue
        direct = config.state_direct_enabled
        replayer = TraceReplayer(
            workload.graph,
            config,
            sorted_graph=workload.sorted_graph if direct else None,
        )
        sim_results: List[AcceleratorResult] = [
            replayer.replay(t) for t in (sorted_traces if direct else traces)
        ]
        stats = SimStats.merge([r.stats for r in sim_results])
        seconds = stats.seconds(config.frequency_hz)
        energy = sum(
            energy_model.energy(config, r.stats).total_j for r in sim_results
        )
        result.runs[name] = PlatformRun(
            name,
            seconds,
            energy,
            SearchStats.merge([r.search for r in sim_results]),
            sim_stats=stats,
        )

    return result


def _accumulate_gpu_work(total: GpuWorkload, work: GpuWorkload) -> None:
    total.frames += work.frames
    total.kernel_launches += work.kernel_launches
    total.arcs_expanded += work.arcs_expanded
    total.epsilon_arcs_expanded += work.epsilon_arcs_expanded
    total.atomic_updates += work.atomic_updates
    total.tokens_compacted += work.tokens_compacted
    total.epsilon_iterations += work.epsilon_iterations
