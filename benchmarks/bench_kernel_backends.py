"""Benchmark: compiled kernel backend vs the portable numpy backend.

The fused multi-session frame sweep -- prune, CSR arc gather, float64
score accumulation, segment-max merge, epsilon closure -- runs on a
pluggable array backend (:mod:`repro.decoder.backends`).  This bench
decodes the same ragged utterance fleet through :class:`BatchDecoder`
(which drives every frame through the fused sweep) once per importable
backend and gates the compiled one:

* **correctness is absolute** -- words, bit-exact path scores and every
  order-independent counter must match the numpy backend, here on the
  bench fleet and exhaustively in ``tests/test_backend_equivalence.py``;
* **throughput is core-aware** -- with >= 2 usable cores the numba
  backend's ``prange`` expansion must reach ``SPEEDUP_TARGET`` (2x) the
  numpy frames/s; on a single-core runner parallel speedup is
  physically impossible, so the gate degrades to ``SINGLE_CORE_FLOOR``
  (0.9x: JIT dispatch overhead must not regress the sweep).

Without the ``[compiled]`` extra the bench records the numpy baseline
and passes trivially -- the portable path is the product there, and the
``compiled-backend`` CI job is where the speedup gate actually bites.
"""

import time

import pytest

from benchmarks.common import GRAPH_CACHE, format_table, report, write_json
from repro.common.cpu import usable_cpus
from repro.datasets import SyntheticGraphConfig
from repro.decoder import BatchDecoder, DecoderConfig, numba_available
from repro.system import make_memory_workload

#: Serving-regime fleet: wide frontiers keep the sweep in the regime
#: where the arc expansion dominates and parallelism can pay.
FULL_SHAPE = dict(num_states=50_000, num_phones=50, utterances=16,
                  frames=30, max_active=2_000, rounds=3)
#: CI smoke shape: seconds, not minutes, including the JIT warmup.
QUICK_SHAPE = dict(num_states=8_000, num_phones=50, utterances=8,
                   frames=16, max_active=600, rounds=2)

#: With >= 2 usable cores the compiled sweep must beat numpy by this.
SPEEDUP_TARGET = 2.0
#: Single-core floor: compiled dispatch must not collapse throughput.
SINGLE_CORE_FLOOR = 0.9


def _summary(result):
    """Everything two backends must agree on, per utterance."""
    return (
        result.words,
        result.log_likelihood,
        result.reached_final,
        result.stats.tokens_pruned,
        result.stats.states_expanded,
        result.stats.arcs_processed,
        result.stats.tokens_created,
        tuple(result.stats.active_tokens_per_frame),
    )


def _time_fleet(decoder, fleet, rounds):
    """Best-of-N wall time for one full fused-sweep decode of the fleet."""
    best_seconds, results = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        batch = decoder.decode_batch(fleet)
        seconds = time.perf_counter() - t0
        if seconds < best_seconds:
            best_seconds, results = seconds, batch
    return best_seconds, results


def run_kernel_backends(quick: bool = False, seed: int = 7) -> dict:
    """Decode one fleet per backend; returns the comparison payload."""
    shape = QUICK_SHAPE if quick else FULL_SHAPE
    workload = make_memory_workload(
        num_utterances=shape["utterances"],
        frames_per_utterance=shape["frames"],
        beam=8.0,
        max_active=shape["max_active"],
        seed=seed,
        graph_config=SyntheticGraphConfig(
            num_states=shape["num_states"],
            num_phones=shape["num_phones"],
            seed=seed,
        ),
        graph_cache=GRAPH_CACHE,
    )
    # Ragged fleet: drop trailing frames from every other utterance so
    # the fused sweep sheds sessions mid-run, as live serving does.
    from repro.acoustic.scorer import AcousticScores
    fleet = [
        AcousticScores(scores.matrix[: scores.num_frames - (i % 2) * 3])
        for i, scores in enumerate(workload.scores)
    ]
    total_frames = sum(s.num_frames for s in fleet)
    config = dict(beam=workload.beam, max_active=workload.max_active)

    base = BatchDecoder(workload.graph, DecoderConfig(backend="numpy", **config))
    base.decode_batch(fleet)  # warm the flat layout and allocator
    numpy_seconds, numpy_results = _time_fleet(base, fleet, shape["rounds"])
    numpy_fps = total_frames / numpy_seconds

    cores = usable_cpus()
    payload = {
        "workload": {**shape, "beam": workload.beam, "seed": seed,
                     "quick": quick},
        "total_frames": total_frames,
        "usable_cores": cores,
        "numba_available": numba_available(),
        "numpy_seconds": numpy_seconds,
        "numpy_frames_per_second": numpy_fps,
        "fused_frames_per_second": numpy_fps,
        "words_match": True,
    }
    if not numba_available():
        return payload

    compiled = BatchDecoder(
        workload.graph, DecoderConfig(backend="numba", **config)
    )
    assert compiled.backend_name == "numba"
    compiled.decode_batch(fleet)  # JIT compile outside the timed window
    numba_seconds, numba_results = _time_fleet(compiled, fleet, shape["rounds"])
    numba_fps = total_frames / numba_seconds

    mismatches = [
        i for i, (ref, jit) in enumerate(zip(numpy_results, numba_results))
        if _summary(jit) != _summary(ref)
    ]
    if mismatches:
        raise AssertionError(
            f"numba backend diverged from numpy on utterances {mismatches}"
        )

    target = SPEEDUP_TARGET if cores >= 2 else SINGLE_CORE_FLOOR
    payload.update({
        "numba_seconds": numba_seconds,
        "numba_frames_per_second": numba_fps,
        "fused_frames_per_second": numba_fps,
        "speedup": numba_fps / numpy_fps,
        "speedup_target": target,
        "parallel_gate": cores >= 2,
    })
    return payload


def _report(result: dict) -> None:
    name = (
        "kernel_backends_quick" if result["workload"]["quick"]
        else "kernel_backends"
    )
    rows = [
        ["numpy", result["total_frames"], result["numpy_seconds"],
         result["numpy_frames_per_second"]],
    ]
    if result["numba_available"]:
        rows.append(
            ["numba", result["total_frames"], result["numba_seconds"],
             result["numba_frames_per_second"]],
        )
        gate = "parallel" if result["parallel_gate"] else "single-core floor"
        headline = (
            f"Kernel backends -- fused sweep over {result['total_frames']} "
            f"frames, numba speedup {result['speedup']:.2f}x (gate >= "
            f"{result['speedup_target']:.2f}x, {gate}, "
            f"{result['usable_cores']} cores), output identical"
        )
    else:
        headline = (
            f"Kernel backends -- numpy only ({result['total_frames']} "
            f"frames; install the [compiled] extra for the numba backend)"
        )
    text = format_table(
        headline, ["backend", "frames", "seconds", "frames/s"], rows
    )
    report(name, text)
    write_json(name, result)


def _gate(result: dict) -> None:
    assert result["words_match"]
    if result["numba_available"]:
        assert result["speedup"] >= result["speedup_target"], (
            f"compiled-backend speedup {result['speedup']:.2f}x below the "
            f"{result['speedup_target']:.2f}x gate"
        )


def test_kernel_backends():
    result = run_kernel_backends()
    _report(result)
    _gate(result)


@pytest.mark.parametrize("quick", [True])
def test_kernel_backends_quick(quick):
    result = run_kernel_backends(quick=quick)
    _report(result)
    _gate(result)
