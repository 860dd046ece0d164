#!/usr/bin/env python
"""Batch serving: decode many users at once with the vectorized engine.

The ROADMAP's north star is serving heavy multi-user traffic.  This
example shows the software route there: the ``BatchDecoder`` advances
every utterance's token frontier in lockstep with numpy array sweeps over
the shared compiled graph, instead of per-token dict operations.  It

1. decodes a multi-utterance task with both engines, checks they agree
   word for word, and reports the measured frames/second;
2. measures what each engine's search stage costs per frame slot at
   ``n`` concurrent streams: it times 4 and 16 copies of one utterance
   and fits ``fixed_s + per_session_s * n`` through the two points;
3. feeds the fitted search cost, the GPU model's DNN cost and the score
   transfer into the pipeline model to answer the serving question: how
   many concurrent real-time users does each engine sustain, and at what
   latency?

Run:  python examples/batch_serving.py
"""

import time

from repro.datasets import TaskConfig, generate_task
from repro.decoder import BatchDecoder, DecoderConfig, ViterbiDecoder
from repro.gpu import GpuDnnModel
from repro.gpu.model import dnn_flops_per_frame
from repro.system import (
    PipelineConfig,
    StageCost,
    max_realtime_streams,
    score_transfer,
    simulate_stream,
)

BEAM = 10.0
NUM_UTTERANCES = 6
DNN = dict(input_dim=440, hidden_dims=(2048,) * 6, num_classes=3500)
FIT_COPIES = (4, 16)


def check_engines(task, reference, batch) -> None:
    """Decode the task with both engines and check they agree."""
    scores = [u.scores for u in task.utterances]
    frames = sum(u.num_frames for u in task.utterances)

    t0 = time.perf_counter()
    ref_results = [reference.decode(s) for s in scores]
    ref_fps = frames / (time.perf_counter() - t0)

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


def seconds_per_slot(decode_many, scores, copies: int) -> float:
    """Wall seconds per frame slot to decode ``copies`` copies at once,
    best of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        decode_many([scores] * copies)
        best = min(best, time.perf_counter() - t0)
    return best / scores.num_frames


def fit_search_cost(name: str, decode_many, scores) -> StageCost:
    """The line through two timed runs, checked inside and outside them."""
    lo, hi = FIT_COPIES
    at_lo, at_hi = (seconds_per_slot(decode_many, scores, n) for n in FIT_COPIES)
    per_session = max(0.0, (at_hi - at_lo) / (hi - lo))
    # Timing noise can tip a near-zero intercept below 0; costs cannot be.
    cost = StageCost(max(0.0, at_lo - per_session * lo), per_session)
    print(f"  {name:9s}: {cost.fixed_s * 1e6:5.0f} + "
          f"{cost.per_session_s * 1e6:5.1f} n us per frame slot")
    for copies in (8, 1):
        measured = seconds_per_slot(decode_many, scores, copies)
        print(f"             n = {copies:2d}: predicted "
              f"{cost.seconds(copies) * 1e6:5.0f} us, measured "
              f"{measured * 1e6:5.0f} us")
    return cost


def serving_capacity(search_costs) -> None:
    """How many real-time users does each engine's cost sustain?"""
    dnn = StageCost(per_session_s=GpuDnnModel().seconds(
        dnn_flops_per_frame(**DNN)))
    transfer = score_transfer(DNN["num_classes"])
    print("\nServing capacity (10 ms frames, shared engine, batched GPU):")
    for name, search in search_costs.items():
        config = PipelineConfig(dnn=dnn, transfer=transfer, search=search)
        streams = max_realtime_streams(config)
        print(f"  {name:9s}: up to {streams:4d} concurrent real-time streams")
        if streams:
            rep = simulate_stream(config, 3000, streams)
            print(f"             at {streams} streams: mean latency "
                  f"{rep.mean_latency_s * 1e3:.1f} ms")


def main() -> None:
    task = generate_task(
        TaskConfig(vocab_size=150, corpus_sentences=700,
                   num_utterances=NUM_UTTERANCES, seed=23)
    )
    config = DecoderConfig(beam=BEAM)
    reference = ViterbiDecoder(task.graph, config)
    batch = BatchDecoder(task.graph, config)
    check_engines(task, reference, batch)

    scores = task.utterances[0].scores
    print(f"\nSearch cost per frame slot, fitted on {FIT_COPIES[0]} and "
          f"{FIT_COPIES[1]} copies of a {scores.num_frames}-frame utterance:")
    engines = {
        "reference": lambda many: [reference.decode(s) for s in many],
        "batch": batch.decode_batch,
    }
    search_costs = {
        name: fit_search_cost(name, decode_many, scores)
        for name, decode_many in engines.items()
    }
    serving_capacity(search_costs)
    print(f"\nThe search line holds only where it was fitted, between "
          f"{FIT_COPIES[0]} and {FIT_COPIES[1]} streams; a capacity past "
          f"{FIT_COPIES[1]} extrapolates it.")


if __name__ == "__main__":
    main()
