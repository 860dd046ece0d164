#!/usr/bin/env python
"""Streaming voice assistant: latency of the hybrid pipeline in real time.

The paper's deployment story (Section III-A): frames arrive continuously,
the GPU evaluates the DNN batch by batch while the accelerator searches
the previous batch, with scores DMA'd into the double-buffered Acoustic
Likelihood Buffer.  This example measures the accelerator's per-frame
search time on a live workload, then feeds it to the pipeline's event
timeline to answer the deployment question: how long after you stop
speaking does the transcript arrive, and does the pipeline keep up
indefinitely?

Run:  python examples/streaming_assistant.py
"""

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.datasets import SyntheticGraphConfig
from repro.gpu import GpuDnnModel
from repro.gpu.model import dnn_flops_per_frame
from repro.system import (
    PipelineConfig,
    StageCost,
    keeps_up,
    make_memory_workload,
    score_transfer,
    simulate_stream,
)
from repro.system.experiment import accelerator_configs

DNN = dict(input_dim=440, hidden_dims=(2048,) * 6, num_classes=3500)


def measure_search_seconds_per_frame() -> float:
    """Simulate the accelerator on a live workload; return s/frame."""
    workload = make_memory_workload(
        num_utterances=1,
        frames_per_utterance=20,
        beam=8.0,
        max_active=2000,
        seed=77,
        graph_config=SyntheticGraphConfig(
            num_states=60_000, num_phones=50, seed=77
        ),
    )
    config = accelerator_configs(AcceleratorConfig())["ASIC+State&Arc"]
    sim = AcceleratorSimulator(
        workload.graph,
        config,
        beam=workload.beam,
        max_active=workload.max_active,
    )
    result = sim.decode(workload.scores[0])
    seconds = result.stats.seconds(config.frequency_hz)
    return seconds / result.stats.frames


def main() -> None:
    print("Measuring the accelerator's per-frame search time ...")
    search_s = measure_search_seconds_per_frame()
    dnn_s = GpuDnnModel().seconds(dnn_flops_per_frame(**DNN))
    print(f"  search {search_s * 1e6:.1f} us/frame, "
          f"DNN {dnn_s * 1e6:.1f} us/frame (GPU)")

    print("\nStreaming 60 s of speech through the pipeline:")
    for batch_frames in (10, 25, 50, 100):
        config = PipelineConfig(
            batch_frames=batch_frames,
            dnn=StageCost(per_session_s=dnn_s),
            transfer=score_transfer(DNN["num_classes"]),
            search=StageCost(per_session_s=search_s),
        )
        rep = simulate_stream(config, 6000)
        print(f"  batch {batch_frames:3d} frames: mean latency "
              f"{rep.mean_latency_s * 1e3:7.2f} ms, max "
              f"{rep.max_latency_s * 1e3:7.2f} ms, "
              f"keeps up: {keeps_up(config, 1)}")

    print("\nSmaller batches cut response latency; all sizes sustain "
          "real time because both stages run far faster than speech.")


if __name__ == "__main__":
    main()
