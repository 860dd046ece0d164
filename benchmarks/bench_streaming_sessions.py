"""Benchmark: continuous-batching server vs sequential streaming sessions.

Streams the same workload through :class:`StreamingServer` two ways:

* **sequential** -- one live session at a time, chunks pushed and swept
  in order (what a naive per-user serving loop would do);
* **concurrent** -- all sessions live at once, every sweep advancing the
  whole fleet through the fused multi-session engine.

Both paths must agree word for word and bit for bit on path scores with
one-shot ``BatchDecoder.decode_batch`` (streaming is lossless), and the
concurrent server must sustain a higher aggregate frames/s than the
sequential runs -- the continuous-batching win the paper's batched GPU
pipeline is built around.  CI's bench-smoke job runs the quick shape
(``-k quick``), nightly the full one.
"""

import time

import pytest

from benchmarks.common import GRAPH_CACHE, format_table, report, write_json
from repro.datasets import SyntheticGraphConfig
from repro.decoder import BatchDecoder, DecoderConfig
from repro.system import StreamingServer, make_memory_workload

#: Serving-regime workload: production-style tightly pruned search (a few
#: hundred live tokens per stream).  The fused sweep's win comes from
#: amortizing per-frame dispatch overhead across sessions, so it is
#: largest when frontiers are modest; with thousands of tokens per stream
#: the array compute dominates and batching turns neutral.
FULL_SHAPE = dict(num_states=8_000, utterances=8, frames=40,
                  max_active=300, chunk_frames=10)
#: Tiny workload for the CI smoke gate: small frontiers, where the fused
#: sweep's dispatch amortization shows most clearly.
QUICK_SHAPE = dict(num_states=2_000, utterances=8, frames=16,
                   max_active=100, chunk_frames=5)

#: The concurrent server must beat sequential serving by at least this
#: factor on aggregate frames/s.  Measured headroom is ~1.4x (full) and
#: ~1.8x (quick); the gate sits low so a noisy shared CI runner cannot
#: flake it while still catching any regression to not-faster.
SPEEDUP_TARGET = 1.05


def _best_of(rounds: int, func):
    """Best wall-clock of ``rounds`` runs (robust to noisy CI runners)."""
    best_seconds, result = None, None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - t0
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result


def run_streaming_sessions(quick: bool = False, seed: int = 7) -> dict:
    """Measure both serving shapes on one workload; returns the payload."""
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    workload = make_memory_workload(
        num_utterances=shape["utterances"],
        frames_per_utterance=shape["frames"],
        beam=8.0,
        max_active=shape["max_active"],
        seed=seed,
        graph_config=SyntheticGraphConfig(
            num_states=shape["num_states"], num_phones=50, seed=seed
        ),
        graph_cache=GRAPH_CACHE,
    )
    config = DecoderConfig(beam=workload.beam, max_active=workload.max_active)
    chunk_frames = shape["chunk_frames"]
    oneshot = BatchDecoder(workload.graph, config).decode_batch(workload.scores)

    def sequential():
        server = StreamingServer(workload.graph, config)
        results = []
        for scores in workload.scores:
            results.extend(
                server.decode_streaming([scores], chunk_frames=chunk_frames)
            )
        return results, server

    def concurrent():
        server = StreamingServer(workload.graph, config)
        results = server.decode_streaming(
            workload.scores, chunk_frames=chunk_frames
        )
        return results, server

    sequential()  # warm the flat layout and allocator
    concurrent()
    rounds = 3 if quick else 2
    seq_seconds, (seq_results, _) = _best_of(rounds, sequential)
    conc_seconds, (conc_results, conc_server) = _best_of(rounds, concurrent)

    for name, results in (("sequential", seq_results),
                          ("concurrent", conc_results)):
        mismatches = [
            i
            for i, (r, s) in enumerate(zip(oneshot, results))
            if r.words != s.words or r.log_likelihood != s.log_likelihood
        ]
        if mismatches:
            raise AssertionError(
                f"{name} streaming diverged from one-shot decoding on "
                f"utterances {mismatches}"
            )

    frames = workload.total_frames
    seq_fps = frames / seq_seconds
    conc_fps = frames / conc_seconds
    return {
        "workload": {**shape, "beam": workload.beam, "seed": seed,
                     "quick": quick},
        "total_frames": frames,
        "sequential_seconds": seq_seconds,
        "concurrent_seconds": conc_seconds,
        "sequential_frames_per_second": seq_fps,
        "concurrent_frames_per_second": conc_fps,
        "speedup": conc_fps / seq_fps,
        "mean_occupancy": conc_server.stats.mean_occupancy,
        "sweeps": conc_server.stats.sweeps,
        "words_match": True,
        "speedup_target": SPEEDUP_TARGET,
    }


def _report(result: dict) -> None:
    name = (
        "streaming_sessions_quick"
        if result["workload"]["quick"]
        else "streaming_sessions"
    )
    rows = [
        ["sequential sessions", result["total_frames"],
         result["sequential_seconds"],
         result["sequential_frames_per_second"]],
        ["concurrent (continuous batching)", result["total_frames"],
         result["concurrent_seconds"],
         result["concurrent_frames_per_second"]],
    ]
    text = format_table(
        f"Streaming session serving -- {result['workload']['utterances']} "
        f"sessions, speedup {result['speedup']:.2f}x "
        f"(target >= {result['speedup_target']:.2f}x), mean occupancy "
        f"{result['mean_occupancy']:.1f}, output identical to one-shot",
        ["serving mode", "frames", "seconds", "frames/s"],
        rows,
    )
    report(name, text)
    write_json(name, result)


def test_streaming_sessions():
    result = run_streaming_sessions()
    _report(result)
    assert result["words_match"]
    assert result["speedup"] >= SPEEDUP_TARGET


@pytest.mark.parametrize("quick", [True])
def test_streaming_sessions_quick(quick):
    """The CI smoke-gate shape: tiny graph, still lossless, still faster."""
    result = run_streaming_sessions(quick=quick)
    _report(result)
    assert result["words_match"]
    assert result["speedup"] >= SPEEDUP_TARGET
