"""``accel_sweep``: one recorded decode re-priced over the cache grid.

An operation is one priced configuration: a ``SweepRunner.run`` of a
single grid point.  Every round starts from an empty ``TraceCache`` and
records the decode trace into it first -- recording is part of what a
sweep costs.  Host time is what the simulator takes to run;
simulated time is what the modelled accelerator would take, and repeats
exactly for equal seeds.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.decoder.kernel import DecoderConfig
from repro.explore import ParameterGrid, SweepRunner, TraceCache
from repro.explore.grid import apply_overrides
from repro.explore.runner import SweepWorkload
from repro.system import make_memory_workload
from repro.wfst.sorted_layout import sort_states_by_arc_count

from benchmarks.e2e.metrics import blank_layers
from benchmarks.e2e.stats import faster_half_mean, percentile
from benchmarks.e2e.tracing import NullTracer, Tracer
from benchmarks.e2e.workloads import (
    ACCEL_GRID,
    Workload,
    build_program,
    repeat_set_up,
)

#: Grid points checked against the monolithic simulator (first and last).
ORACLE_POINTS = (0, -1)


def set_up(workload: Workload) -> Tuple[Any, Any, Dict[str, float]]:
    """Compile the graph and lay it out for the accelerator."""
    program = build_program(workload, run_dir="")
    t0 = time.perf_counter()
    sorted_graph = sort_states_by_arc_count(program.graph)
    program.timings["explore.layout_s"] = time.perf_counter() - t0
    return program.graph, sorted_graph, program.timings


def price_grid(
    sweep: SweepWorkload, points: Sequence[Dict[str, Any]], tracer: Any
) -> Tuple[List[Any], List[float], float]:
    """One round: record the decode into a fresh trace cache, then price
    every point against it.  Returns ``(sweep points, per-point host
    seconds, recording seconds)``."""
    cache = TraceCache()
    t0 = time.perf_counter()
    # The same search configuration SweepRunner derives for a fixed-beam
    # point, so its run() below finds the trace instead of re-recording.
    search = DecoderConfig(beam=sweep.beam, max_active=sweep.max_active)
    tracer.call(
        "accel.trace.record",
        lambda: cache.get(sweep.graph, sweep.scores, config=search),
    )
    record_s = time.perf_counter() - t0
    runner = SweepRunner(sweep, trace_cache=cache, processes=1)
    priced: List[Any] = []
    seconds: List[float] = []
    for point in points:
        t0 = time.perf_counter()
        result = tracer.call("explore.run", runner.run, [point])
        seconds.append(time.perf_counter() - t0)
        priced.append(result.points[0])
    if cache.recordings != 1:
        raise RuntimeError(
            f"accel_sweep: {cache.recordings} recordings in one round; the "
            f"runner no longer shares the harness's trace key"
        )
    return priced, seconds, record_s


def run(
    workload: Workload, seed: int, seconds: float, traced: bool, one_setup: bool,
    log: Callable[[str], None],
) -> Dict[str, Any]:
    built: List[Tuple[Any, Any, Dict[str, float]]] = []

    def once_more(index: int) -> float:
        t0 = time.perf_counter()
        built[:] = [set_up(workload)]
        return time.perf_counter() - t0

    setup_seconds = repeat_set_up(once_more, one_setup)
    graph, sorted_graph, timings = built[0]

    generated = make_memory_workload(
        num_utterances=workload.utterances,
        frames_per_utterance=workload.frames,
        beam=workload.beam,
        max_active=workload.max_active,
        seed=seed,
        graph=graph,
    )
    sweep = SweepWorkload(
        graph=graph, scores=generated.scores, beam=workload.beam,
        max_active=workload.max_active, sorted_graph=sorted_graph,
    )
    points = ParameterGrid(list(ACCEL_GRID)).points()
    frames = sum(s.num_frames for s in generated.scores)
    tracer: Any = Tracer() if traced else NullTracer()

    rounds: List[Tuple[List[Any], List[float], float]] = []
    spent = 0.0
    while spent < seconds:
        rounds.append(price_grid(sweep, points, tracer))
        spent += rounds[-1][2] + sum(rounds[-1][1])

    # Oracles: the replayed cycles equal the monolithic simulator's on
    # two grid points, and every round priced every point identically.
    first = rounds[0][0]
    failed = 0
    for index in ORACLE_POINTS:
        config = apply_overrides(AcceleratorConfig(), points[index])
        simulator = AcceleratorSimulator(
            graph, config, beam=workload.beam, max_active=workload.max_active
        )
        results = [
            tracer.call("accel.simulate", simulator.decode, s) for s in generated.scores
        ]
        cycles = sum(r.stats.cycles for r in results)
        words = tuple(tuple(r.words) for r in results)
        if cycles != first[index].cycles or words != tuple(
            tuple(w) for w in first[index].words
        ):
            log(f"accel_sweep: point {index} replays {first[index].cycles} cycles, "
                f"the simulator says {cycles}")
            failed += 1
    signature = [(p.cycles, p.energy_j, p.stats.traffic.total_bytes()) for p in first]
    for priced, _, _ in rounds[1:]:
        if [(p.cycles, p.energy_j, p.stats.traffic.total_bytes()) for p in priced] != signature:
            log("accel_sweep: two rounds of the same inputs priced differently")
            failed += len(points)

    latencies = [s for _, per_point, _ in rounds for s in per_point]
    attempted = len(latencies)
    # What one operation -- the recording, each grid point -- costs the
    # host: the mean of the faster half of its timings over the rounds.
    record_s = faster_half_mean([r for _, _, r in rounds], faster="lower")
    replay_s = sum(
        faster_half_mean([per_point[k] for _, per_point, _ in rounds], faster="lower")
        for k in range(len(points))
    )
    configs_per_s = len(points) / (record_s + replay_s)
    log(f"accel_sweep: {attempted} configurations priced in {len(rounds)} round(s), "
        f"{failed} failed")
    if not traced:
        return {
            "attempted": attempted, "failed": failed, "valid": True,
            "metrics": {
                # Simulated speech frames priced per host second.
                "frames_per_s": configs_per_s * frames,
                "setup_s": statistics.median(setup_seconds),
            },
        }

    base = SweepRunner(sweep, trace_cache=TraceCache(), processes=1).run([{}]).points[0]
    speech_s = 0.01 * frames
    replay = replay_s / len(points)
    arcs = base.stats.arcs_processed + base.stats.epsilon_arcs_processed
    layers = blank_layers()
    layers.update({k: v for k, v in timings.items() if k in layers})
    layers.update({
        "graph.states": float(graph.num_states),
        "graph.arcs": float(graph.num_arcs),
        # Configuration handed over -> its priced point returned.
        "final_lag_samples": float(attempted),
        "final_lag_p50_ms": 1e3 * percentile(latencies, 50.0),
        "final_lag_p90_ms": 1e3 * percentile(latencies, 90.0),
        "accel.trace.record_s": record_s,
        "accel.trace.arcs": float(arcs),
        "accel.replay.s_per_config": replay,
        "accel.replay.events_per_s": arcs / replay,
        "explore.points": float(len(points)),
        "sim_configs_per_s": configs_per_s,
        "sim_decode_ms_per_speech_s": 1e3 * base.decode_s_per_speech_s,
        "sim_energy_mj_per_speech_s": 1e3 * base.energy_j / speech_s,
        "accel.sim.cycles": float(base.cycles),
        "accel.sim.arc_miss_ratio": base.stats.arc_cache.miss_ratio,
        "accel.sim.state_miss_ratio": base.stats.state_cache.miss_ratio,
        "accel.sim.token_miss_ratio": base.stats.token_cache.miss_ratio,
        "accel.sim.hash_cycles_per_request": base.stats.hash.avg_cycles_per_request,
        "accel.sim.dram_bytes": float(base.stats.traffic.total_bytes()),
        "accel.sim.avg_power_w": base.avg_power_w,
        "trace.spans": float(len(tracer)),
    })
    if base.config != AcceleratorConfig():
        raise RuntimeError("accel_sweep: the empty override is not the Table I configuration")
    return {"attempted": attempted, "failed": failed, "valid": True,
            "metrics": layers, "tracer": tracer}
