#!/usr/bin/env python
"""Batch serving: decode many users at once with the vectorized engine.

The ROADMAP's north star is serving heavy multi-user traffic.  This
example shows the software route there: the ``BatchDecoder`` advances
every utterance's token frontier in lockstep with numpy array sweeps over
the shared compiled graph, instead of per-token dict operations.  It

1. decodes a multi-utterance task with both engines, checks they agree
   word for word, and reports the measured frames/second;
2. feeds the measured per-frame costs into the batched stream simulator
   to answer the serving question: how many concurrent real-time users
   does each engine sustain, and at what latency?

Run:  python examples/batch_serving.py
"""

import time

from repro.datasets import TaskConfig, generate_task
from repro.decoder import BatchDecoder, DecoderConfig, ViterbiDecoder
from repro.system import (
    BatchedStreamConfig,
    max_realtime_streams,
    simulate_batched_stream,
)

BEAM = 10.0
NUM_UTTERANCES = 6


def measure_engines():
    """Decode one task with both engines; return (fps_ref, fps_batch)."""
    task = generate_task(
        TaskConfig(vocab_size=150, corpus_sentences=700,
                   num_utterances=NUM_UTTERANCES, seed=23)
    )
    scores = [u.scores for u in task.utterances]
    frames = sum(u.num_frames for u in task.utterances)
    config = DecoderConfig(beam=BEAM)

    reference = ViterbiDecoder(task.graph, config)
    t0 = time.perf_counter()
    ref_results = [reference.decode(s) for s in scores]
    ref_fps = frames / (time.perf_counter() - t0)

    batch = BatchDecoder(task.graph, config)
    batch.decode_batch(scores)  # warm the flat layout
    t0 = time.perf_counter()
    batch_results = batch.decode_batch(scores)
    batch_fps = frames / (time.perf_counter() - t0)

    agree = all(
        r.words == b.words for r, b in zip(ref_results, batch_results)
    )
    if not agree:
        raise RuntimeError("engines disagree -- this is a bug")
    print(f"Decoded {NUM_UTTERANCES} utterances ({frames} frames), "
          f"word-identical output:")
    print(f"  reference engine: {ref_fps:8.0f} frames/s")
    print(f"  batch engine:     {batch_fps:8.0f} frames/s "
          f"({batch_fps / ref_fps:.1f}x)")
    return ref_fps, batch_fps


def serving_capacity(ref_fps: float, batch_fps: float) -> None:
    """How many real-time users does each engine's speed sustain?"""
    print("\nServing capacity (10 ms frames, shared engine, batched GPU):")
    for name, fps, efficiency in (
        ("reference", ref_fps, 1.0),   # scalar: every stream pays full price
        ("batch", batch_fps, 0.25),    # vectorized: extra streams amortize
    ):
        config = BatchedStreamConfig(
            search_seconds_per_frame=1.0 / fps,
            search_batch_efficiency=efficiency,
        )
        streams = max_realtime_streams(config)
        print(f"  {name:9s}: up to {streams:4d} concurrent real-time streams")
        if streams:
            rep = simulate_batched_stream(
                3000,
                BatchedStreamConfig(
                    num_streams=streams,
                    search_seconds_per_frame=1.0 / fps,
                    search_batch_efficiency=efficiency,
                ),
            )
            print(f"             at {streams} streams: mean latency "
                  f"{rep.mean_latency_s * 1e3:.1f} ms, "
                  f"keeps up: {rep.keeps_up}")


def main() -> None:
    ref_fps, batch_fps = measure_engines()
    serving_capacity(ref_fps, batch_fps)
    print("\nThe vectorized engine turns the software decoder from a "
          "single-user curiosity into a multi-user serving tier.")


if __name__ == "__main__":
    main()
