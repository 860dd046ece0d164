"""Cross-platform experiment harness.

Runs the same workload through every platform the paper compares --
CPU (software decoder + timing model), GPU (data-parallel decoder + timing
model) and the four accelerator configurations (ASIC, ASIC+State, ASIC+Arc,
ASIC+State&Arc) -- and assembles the results the evaluation figures need.
The accelerator variants share one recorded decode trace per graph layout
and are priced by replay (:mod:`repro.accel.replay`), so adding
configurations costs replays, not full simulations.

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
from repro.accel.trace import DecodeTrace, TraceRecorder
from repro.datasets.synthetic_graph import SyntheticGraphConfig
from repro.decoder.result import SearchStats
from repro.decoder.viterbi import DecoderConfig, ViterbiDecoder
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
    check_consistency: bool = True,
) -> ComparisonResult:
    """Decode the workload on every platform and collect times/energies.

    Args:
        include: restrict to a subset of platform names (default: all six).
        check_consistency: assert that the accelerator configurations find
            paths of the same likelihood as the software reference.
    """
    wanted = include or ["CPU", "GPU", *ASIC_CONFIG_NAMES]
    result = ComparisonResult(speech_seconds=workload.speech_seconds)

    ref_results = None
    if "CPU" in wanted or check_consistency:
        decoder = ViterbiDecoder(
            workload.graph,
            DecoderConfig(
                beam=workload.beam, max_active=workload.max_active
            ),
        )
        ref_results = [decoder.decode(s) for s in workload.scores]

    if "CPU" in wanted:
        merged = _merge_search_stats([r.stats for r in ref_results])
        seconds = sum(cpu_model.search_seconds(r.stats) for r in ref_results)
        result.runs["CPU"] = PlatformRun(
            "CPU", seconds, seconds * cpu_model.spec.avg_power_w, merged
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
            _merge_search_stats(gpu_stats),
        )

    # The accelerator variants differ only in timing, so the functional
    # search runs once per graph layout (baseline + Section IV-B sorted)
    # and each configuration re-prices the recorded trace.
    traces_by_layout: Dict[bool, List[DecodeTrace]] = {}
    for name, config in accelerator_configs(base_config).items():
        if name not in wanted:
            continue
        sorted_layout = config.state_direct_enabled
        traces = traces_by_layout.get(sorted_layout)
        if traces is None:
            trace_graph = (
                workload.sorted_graph.graph if sorted_layout
                else workload.graph
            )
            recorder = TraceRecorder(
                trace_graph, beam=workload.beam,
                max_active=workload.max_active,
            )
            traces = [recorder.record(s) for s in workload.scores]
            traces_by_layout[sorted_layout] = traces
        replayer = TraceReplayer(
            workload.graph,
            config,
            sorted_graph=(workload.sorted_graph if sorted_layout else None),
        )
        sim_results: List[AcceleratorResult] = [
            replayer.replay(t) for t in traces
        ]
        if check_consistency and ref_results is not None:
            for ref, got in zip(ref_results, sim_results):
                if abs(ref.log_likelihood - got.log_likelihood) > 1e-6:
                    raise ConfigError(
                        f"{name} diverged from the reference decoder: "
                        f"{got.log_likelihood} != {ref.log_likelihood}"
                    )
        stats = _merge_sim_stats([r.stats for r in sim_results])
        seconds = stats.seconds(config.frequency_hz)
        energy = sum(
            energy_model.energy(config, r.stats).total_j for r in sim_results
        )
        result.runs[name] = PlatformRun(
            name,
            seconds,
            energy,
            _merge_search_stats([r.search for r in sim_results]),
            sim_stats=stats,
        )

    return result


def _merge_search_stats(stats_list: List[SearchStats]) -> SearchStats:
    return SearchStats.merge(stats_list)


def _merge_sim_stats(stats_list: List[SimStats]) -> SimStats:
    return SimStats.merge(stats_list)


def _accumulate_gpu_work(total: GpuWorkload, work: GpuWorkload) -> None:
    total.frames += work.frames
    total.kernel_launches += work.kernel_launches
    total.arcs_expanded += work.arcs_expanded
    total.epsilon_arcs_expanded += work.epsilon_arcs_expanded
    total.atomic_updates += work.atomic_updates
    total.tokens_compacted += work.tokens_compacted
    total.epsilon_iterations += work.epsilon_iterations
