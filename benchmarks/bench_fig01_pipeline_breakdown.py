"""Figure 1: execution-time split between the DNN and the Viterbi search.

Paper: the Viterbi search takes 73% of ASR execution time on the CPU and
86% on the GPU, which motivates accelerating the search rather than the
DNN.

The split is a function of workload scale: the paper's decoder touches
~25k arcs per frame of its 125k-word graph while its DNN is a ~3.5k-senone
hybrid model.  We therefore evaluate our CPU/GPU timing models at the
paper's published per-frame work profile, and also report the split on
our (smaller) standard workload for reference.
"""

from benchmarks.common import PAPER_DNN, format_table, report
from repro.decoder.result import SearchStats
from repro.energy import CpuTimingModel
from repro.gpu import GpuDnnModel, GpuTimingModel
from repro.gpu.decoder import GpuWorkload
from repro.gpu.model import dnn_flops_per_frame

PAPER_CPU_SEARCH_PCT = 73.0
PAPER_GPU_SEARCH_PCT = 86.0

#: The paper's per-frame search profile: ~25k arcs accessed per frame
#: (Section IV-A), ~10k active tokens, 11.5% epsilon arcs.
PAPER_FRAMES = 100
PAPER_ARCS_PER_FRAME = 25_000
PAPER_TOKENS_PER_FRAME = 10_000


def _paper_scale_split():
    flops = dnn_flops_per_frame(**PAPER_DNN) * PAPER_FRAMES

    eps = int(0.115 * PAPER_ARCS_PER_FRAME * PAPER_FRAMES)
    non_eps = PAPER_ARCS_PER_FRAME * PAPER_FRAMES - eps
    stats = SearchStats(
        frames=PAPER_FRAMES,
        arcs_processed=non_eps,
        epsilon_arcs_processed=eps,
        tokens_created=PAPER_TOKENS_PER_FRAME * PAPER_FRAMES,
        active_tokens_per_frame=[PAPER_TOKENS_PER_FRAME] * PAPER_FRAMES,
    )
    cpu = CpuTimingModel()
    cpu_search = cpu.search_seconds(stats)
    cpu_dnn = cpu.dnn_seconds(flops)

    work = GpuWorkload(
        frames=PAPER_FRAMES,
        kernel_launches=6 * PAPER_FRAMES,
        arcs_expanded=non_eps,
        epsilon_arcs_expanded=eps,
        atomic_updates=non_eps + eps,
        tokens_compacted=PAPER_TOKENS_PER_FRAME * PAPER_FRAMES,
    )
    gpu_search = GpuTimingModel().search_seconds(work)
    gpu_dnn = GpuDnnModel().seconds(flops)

    return (
        100.0 * cpu_search / (cpu_search + cpu_dnn),
        100.0 * gpu_search / (gpu_search + gpu_dnn),
    )


def _measured_split(comparison):
    frames = comparison.speech_seconds * 100.0
    flops = dnn_flops_per_frame(**PAPER_DNN) * frames
    cpu_search = comparison.runs["CPU"].decode_seconds
    gpu_search = comparison.runs["GPU"].decode_seconds
    cpu_dnn = CpuTimingModel().dnn_seconds(flops)
    gpu_dnn = GpuDnnModel().seconds(flops)
    return (
        100.0 * cpu_search / (cpu_search + cpu_dnn),
        100.0 * gpu_search / (gpu_search + gpu_dnn),
    )


def compute(comparison):
    return _paper_scale_split(), _measured_split(comparison)


def test_fig01_pipeline_breakdown(std_comparison):
    (cpu_pct, gpu_pct), (cpu_small, gpu_small) = compute(std_comparison)
    text = format_table(
        "Figure 1 -- Viterbi search share of ASR execution time",
        ["platform", "paper (%)", "model @ paper scale (%)",
         "model @ bench scale (%)"],
        [
            ["CPU", PAPER_CPU_SEARCH_PCT, cpu_pct, cpu_small],
            ["GPU", PAPER_GPU_SEARCH_PCT, gpu_pct, gpu_small],
        ],
    )
    report("fig01_pipeline_breakdown", text)
    # Shape: at paper scale the search dominates on both platforms, more
    # so on the GPU (the DNN parallelises well, the search does not).
    assert cpu_pct > 55.0
    assert gpu_pct > cpu_pct
