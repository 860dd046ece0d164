"""One workload, start to finish, inside the child process: set-up
(timed, repeated), generated inputs and their oracle, the untraced timed
region that gives the end-to-end metrics, and -- with ``traced`` -- the
separate pass that gives the per-layer metrics and the layer table."""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.acoustic.batch_scorer import BatchScorer
from repro.decoder.traceback import TokenTrace
from repro.decoder.wer import word_error_rate
from repro.system import ServingTier, StreamingServer, TierConfig

from benchmarks.e2e import accel
from benchmarks.e2e.drivers import (
    Outcome,
    TierDoor,
    build_schedule,
    final_lags,
    rounds_for,
    server_closed_round,
    tier_closed_loop,
    tier_paced_run,
)
from benchmarks.e2e.metrics import UNAVAILABLE, blank_layers
from benchmarks.e2e.stats import (
    faster_half_mean,
    order_matched_lags,
    percentile,
    sliced_rates,
    summarize_lags,
)
from benchmarks.e2e.tracing import (
    BACKEND_OPS,
    NullTracer,
    TimingBackend,
    Tracer,
    format_layer_table,
    layer_table,
    wrap_method,
)
from benchmarks.e2e.workloads import (
    BY_NAME,
    NUM_WORKERS,
    Frontend,
    Program,
    Utterance,
    Workload,
    build_program,
    generate_inputs,
    repeat_set_up,
    time_mmap_load,
)

WARM_ROWS = 30
#: A paced run whose generator pushed a tenth of its chunks more than one
#: frame (10 ms) after they were due measured the generator, not the tier.
LATE_P90_LIMIT_MS = 10.0
#: The layer table has to account for this share of the traced wall.
RESIDUAL_LIMIT = 0.10

#: Which layer-table row each span's self time is reported under.
LAYERS = {
    "frontend.mfcc": "frontend",
    "frontend.norm_splice": "frontend",
    "acoustic.score": "acoustic",
    "server.open": "server",
    "server.push": "server",
    "server.close": "server",
    "server.step": "server",
    "kernel.sweep": "decoder.kernel self",
    "traceback.commit": "decoder.traceback",
    "server.partial": "decoder.traceback",
    "kernel.finalize": "decoder.traceback",
    "server.result": "result",
    **{f"backend.{op}": f"decoder.backend {op}" for op in BACKEND_OPS},
}


def stat(obj: Any, name: str) -> float:
    """A statistic the program returns, or ``UNAVAILABLE`` when the field
    was renamed or removed -- never a crash."""
    value = getattr(obj, name, None)
    return float(value) if isinstance(value, (int, float)) else UNAVAILABLE


def peak_rss_mb() -> float:
    """This process's high-water mark plus its largest waited-for child's."""
    own = 0.0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = float(line.split()[1]) / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + children


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Stack:
    """A built program plus the serving stack started over it."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.tier: Optional[ServingTier] = None
        self.server: Optional[StreamingServer] = None
        self.timings: Dict[str, float] = dict(program.timings)

    def start(self) -> None:
        workload = self.program.workload
        t0 = time.perf_counter()
        if workload.stack == "tier":
            self.tier = ServingTier(
                search_config=self.program.config,
                # The queue bound is admission policy, not under test: no
                # push of these workloads may be shed.
                tier_config=TierConfig(num_workers=NUM_WORKERS, queue_depth=1 << 16),
                graph_dir=self.program.graph_dir,
                scorer=self.program.scorer,
            )
            self.timings["tier.start_s"] = time.perf_counter() - t0
        else:
            self.server = StreamingServer(self.program.graph, self.program.config)

    def warm_up(self, inputs: Sequence[Utterance]) -> None:
        """A few truncated sessions through every worker: map the graph,
        build the layout, create the rings, heat the allocator."""
        workload = self.program.workload
        short = [
            dataclasses.replace(u, matrix=u.matrix[:WARM_ROWS]) for u in inputs
        ]
        sessions = min(workload.round_ops, max(2 * NUM_WORKERS, workload.in_flight))
        if self.tier is not None:
            door = TierDoor(self.tier, NullTracer(), workload.mode)
            out = tier_closed_loop(
                door, workload, short, None, NullTracer(), sessions=sessions
            )
        else:
            warm = dataclasses.replace(workload, round_ops=sessions, partials=False)
            out = server_closed_round(self.server, warm, short, NullTracer())
        if out.timed_out or any(r is None or not r.ok for r in out.records):
            raise RuntimeError(f"{workload.name}: warm-up sessions failed")

    def stop(self) -> None:
        if self.tier is not None:
            t0 = time.perf_counter()
            self.tier.shutdown()
            self.timings["tier.shutdown_s"] = time.perf_counter() - t0
        if self.program.graph_dir is not None:
            shutil.rmtree(self.program.graph_dir, ignore_errors=True)


def set_up(
    workload: Workload, seed: int, run_dir: str, once: bool
) -> Tuple[Stack, List[Utterance], List[float]]:
    """Build and start the stack, several times unless ``once``; the last
    one stays up.

    ``setup_s`` covers graph compile, model build, mmap materialise,
    stack construction (fork, graph load) and warm-up.  Generating the
    inputs and decoding them with the oracle is the benchmark's own work
    and is left out.
    """
    stacks: List[Stack] = []
    inputs: List[Utterance] = []

    def once_more(index: int) -> float:
        if stacks:
            stacks.pop().stop()
        t0 = time.perf_counter()
        stack = Stack(build_program(workload, run_dir, tag=str(index)))
        built = time.perf_counter() - t0
        if not inputs:
            inputs.extend(generate_inputs(stack.program, seed))
        t0 = time.perf_counter()
        try:
            stack.start()
            stack.warm_up(inputs)
        except BaseException:
            stack.stop()
            raise
        stacks.append(stack)
        return built + time.perf_counter() - t0

    seconds = repeat_set_up(once_more, once)
    return stacks[0], inputs, seconds


# ----------------------------------------------------------------------
# Verification against the oracle
# ----------------------------------------------------------------------
def passed(record: Any, utterance: Utterance) -> bool:
    """Words and likelihood equal the one-shot decode of the same scores."""
    if record is None or not record.ok:
        return False
    result = record.result
    return (
        tuple(result.words) == utterance.words
        and float(result.log_likelihood) == utterance.log_likelihood
    )


def verified_frames(out: Outcome, inputs: Sequence[Utterance]) -> Tuple[int, int]:
    """``(frames of sessions that passed, sessions that failed)``."""
    frames = failed = 0
    for index, record in zip(out.utterance, out.records):
        if passed(record, inputs[index]):
            frames += inputs[index].frames
        else:
            failed += 1
    return frames, failed


def spoken_wer(inputs: Sequence[Utterance]) -> float:
    spoken = [u for u in inputs if u.spoken]
    if not spoken:
        return 0.0
    return statistics.fmean(word_error_rate(u.spoken, u.words) for u in spoken)


# ----------------------------------------------------------------------
# The timed region
# ----------------------------------------------------------------------
def drive(
    stack: Stack,
    inputs: Sequence[Utterance],
    seed: int,
    seconds: float,
    tracer: Any,
) -> List[Outcome]:
    """The workload's timed region on its own stack."""
    workload = stack.program.workload
    if stack.tier is None:
        return rounds_for(
            seconds,
            lambda: server_closed_round(stack.server, workload, inputs, tracer),
        )
    door = TierDoor(stack.tier, tracer, workload.mode)
    if workload.loop == "paced":
        schedule = build_schedule(
            seed, [u.frames for u in inputs], workload.streams, seconds,
            workload.chunk_frames,
        )
        return [tier_paced_run(door, schedule, inputs)]
    frontend = Frontend() if workload.source == "audio" else None
    return [
        tier_closed_loop(door, workload, inputs, frontend, tracer, seconds=seconds)
    ]


def end_to_end(
    workload: Workload,
    outcomes: Sequence[Outcome],
    inputs: Sequence[Utterance],
) -> Tuple[float, int, int, List[float]]:
    """``(frames_per_s, attempted, failed, final lags)``."""
    rates: List[float] = []
    lags: List[float] = []
    attempted = failed = 0
    for out in outcomes:
        frames, bad = verified_frames(out, inputs)
        attempted += len(out.records)
        failed += bad
        these = final_lags(out)
        lags.extend(these)
        wall = out.wall_s
        slices: List[float] = []
        if workload.loop == "paced" and these:
            # The measured cohort's makespan: window opening -> its last
            # record.  Equal to the offered load while the tier keeps up.
            ends = sorted(e for e, s in zip(out.eos, out.session) if out.measured[s])
            wall = max(e + lag for e, lag in zip(ends, these)) - out.window_start
        elif out.steady is not None:
            # The k-th record to arrive is credited with the frames of the
            # k-th session to end (see ``final_lags``), if that one passed.
            ended = sorted(zip(out.eos, out.session))
            credit = [
                inputs[out.utterance[s]].frames
                if passed(out.records[s], inputs[out.utterance[s]]) else 0
                for _, s in ended
            ]
            slices = sliced_rates(sorted(out.arrivals), credit, *out.steady)
        rates.extend(slices or [frames / wall])
    return faster_half_mean(rates), attempted, failed, lags


# ----------------------------------------------------------------------
# In-process replay, untraced and traced (kernel attribution)
# ----------------------------------------------------------------------
def install_spans(server: StreamingServer, tracer: Tracer) -> Tuple[TimingBackend, Callable[[], None]]:
    """Set the timing proxy on ``decoder.kernel.backend`` and wrap the
    kernel's sweep/finalize entry points and ``TokenTrace.commit``."""
    kernel = server.decoder.kernel
    proxy = TimingBackend(kernel.backend, tracer)
    kernel.backend = proxy
    restores = [
        wrap_method(kernel, "fused_step", tracer, "kernel.sweep"),
        wrap_method(kernel, "step_frame", tracer, "kernel.sweep"),
        wrap_method(kernel, "finalize", tracer, "kernel.finalize"),
        wrap_method(TokenTrace, "commit", tracer, "traceback.commit"),
    ]

    def restore() -> None:
        for undo in restores:
            undo()
        kernel.backend = proxy._inner

    return proxy, restore


def replay_round(
    program: Program, inputs: Sequence[Utterance], tracer: Any, server: StreamingServer
) -> Outcome:
    """One round of the workload's sessions through an in-process server:
    frontend -> ``BatchScorer.score_chunks`` on each pass's chunk batch ->
    ``push``/``step``."""
    workload = program.workload
    frontend = Frontend() if workload.source == "audio" else None
    scorer = BatchScorer(program.scorer) if program.scorer is not None else None
    with tracer.span("round"):
        return server_closed_round(
            server, workload, inputs, tracer, scorer=scorer, frontend=frontend
        )


def replay_in_process(
    program: Program, inputs: Sequence[Utterance], seconds: float,
    layers: Dict[str, float],
) -> Tuple[Tracer, str, int]:
    """Untraced rounds (``server.inproc_frames_per_s``), then traced
    rounds with the proxies installed; fills the decoder/server/trace
    rows of ``layers``.  Returns the tracer, the layer table and the
    number of sessions that did not match the oracle."""
    workload = program.workload
    failed = 0

    def measure(tracer: Any, server: StreamingServer) -> List[Outcome]:
        return rounds_for(
            seconds / 2, lambda: replay_round(program, inputs, tracer, server)
        )

    plain = measure(NullTracer(), StreamingServer(program.graph, program.config))
    server = StreamingServer(program.graph, program.config)
    tracer = Tracer()
    proxy, restore = install_spans(server, tracer)
    try:
        traced = measure(tracer, server)
    finally:
        restore()
    rates = []
    for out in plain:
        frames, bad = verified_frames(out, inputs)
        failed += bad
        rates.append(frames / out.wall_s)
    for out in traced:
        failed += verified_frames(out, inputs)[1]
    plain_wall = faster_half_mean([o.wall_s for o in plain], faster="lower")
    traced_wall = faster_half_mean([o.wall_s for o in traced], faster="lower")
    layers["server.inproc_frames_per_s"] = faster_half_mean(rates)
    layers["trace.overhead_share"] = traced_wall / plain_wall - 1.0

    # Counts come from the first traced round alone: fixed work, so they
    # repeat exactly for equal seeds however many rounds the clock allowed.
    rounds = len(traced)
    totals = tracer.totals()

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1] / rounds

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2] / rounds

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0] / rounds

    first = [r for r in traced[0].records if r is not None and r.ok]
    search = [r.result.stats for r in first]
    frames = sum(s.frames for s in search)
    active = sum(sum(s.active_tokens_per_frame) for s in search)
    layers.update({
        "decoder.sweeps": calls("kernel.sweep"),
        "decoder.frames": float(frames),
        "decoder.sweep_s": inclusive("kernel.sweep"),
        "decoder.kernel_self_s": own("kernel.sweep"),
        "decoder.occupancy_mean": stat(server.stats, "mean_occupancy"),
        "decoder.active_tokens_mean": active / frames if frames else 0.0,
        "decoder.arcs_processed": float(sum(s.arcs_processed for s in search)),
        "decoder.eps_arcs_processed": float(sum(s.epsilon_arcs_processed for s in search)),
        "decoder.tokens_created": float(sum(s.tokens_created for s in search)),
        "decoder.tokens_pruned": float(sum(s.tokens_pruned for s in search)),
        "decoder.backend.rows_gathered": proxy.rows_gathered / rounds,
        "decoder.traceback.commit_s": inclusive("traceback.commit"),
        "decoder.traceback.commits": calls("traceback.commit"),
        "decoder.traceback.peak_bytes": max(
            (stat(r.stats, "trace_peak_bytes") for r in first), default=0.0
        ),
        "decoder.traceback.committed_frames": float(
            sum(stat(r.stats, "committed_frames") for r in first)
        ),
        "decoder.partial_s": inclusive("server.partial"),
        "decoder.partial_calls": calls("server.partial"),
        "decoder.finalize_s": inclusive("kernel.finalize")
        - tracer.inclusive_under("kernel.finalize", "server.partial") / rounds,
        "server.push_s": inclusive("server.push"),
        "server.step_self_s": own("server.step"),
        "server.result_s": inclusive("server.result"),
        "server.queue_wait_mean_ms": 1e3 * statistics.fmean(
            stat(r.stats, "mean_wait_s") for r in first
        ) if first else 0.0,
        "server.queue_wait_max_ms": 1e3 * max(
            (stat(r.stats, "max_wait_s") for r in first), default=0.0
        ),
    })
    for op in BACKEND_OPS:
        layers[f"decoder.backend.{op}_s"] = inclusive(f"backend.{op}")
        layers[f"decoder.backend.{op}_calls"] = calls(f"backend.{op}")
    if workload.stack == "server":
        # In-process workloads run their frontend (none) and scoring
        # (none) here; the tier workloads report theirs from the tier pass.
        layers["acoustic.busy_s"] = inclusive("acoustic.score")
    rows, wall, residual = layer_table(tracer, "round", LAYERS)
    layers["trace.residual_share"] = residual
    return tracer, format_layer_table(rows, wall, residual), failed


# ----------------------------------------------------------------------
# Per-layer rows read from the tier pass
# ----------------------------------------------------------------------
def tier_layers(
    stack: Stack,
    tracer: Tracer,
    outcomes: Sequence[Outcome],
    inputs: Sequence[Utterance],
    layers: Dict[str, float],
) -> None:
    """Driver-side call spans plus the stats the tier returned; call
    after ``stack.stop()`` so the workers' ``ServerStats`` are in."""
    tier = stack.tier
    totals = tracer.totals()
    wall = sum(o.wall_s for o in outcomes)

    def inclusive(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    for call in ("open", "push", "close", "poll", "result"):
        layers[f"tier.{call}_s"] = inclusive(f"tier.{call}")
    pushes = totals.get("tier.push", (0, 0.0, 0.0))[0]
    layers["tier.push_us_per_call"] = 1e6 * inclusive("tier.push") / pushes if pushes else 0.0
    layers["frontend.mfcc_s"] = inclusive("frontend.mfcc")
    layers["frontend.norm_splice_s"] = inclusive("frontend.norm_splice")
    layers["frontend.busy_s"] = layers["frontend.mfcc_s"] + layers["frontend.norm_splice_s"]
    if layers["frontend.busy_s"]:
        layers["frontend.frames"] = float(
            sum(inputs[i].frames for o in outcomes for i in o.utterance)
        )

    stats = tier.stats
    layers["acoustic.frames"] = stat(stats, "scored_frames")
    layers["acoustic.busy_s"] = stat(stats, "score_seconds")
    layers["acoustic.batches"] = stat(stats, "score_batches")
    if layers["acoustic.batches"] > 0:
        layers["acoustic.rows_per_batch"] = layers["acoustic.frames"] / layers["acoustic.batches"]
        layers["acoustic.us_per_frame"] = 1e6 * layers["acoustic.busy_s"] / layers["acoustic.frames"]
    layers["tier.ipc_bytes_per_frame"] = stat(stats, "ipc_bytes_per_frame")
    layers["tier.descriptors"] = stat(stats, "descriptors_shipped")
    layers["tier.ring_stalls"] = stat(stats, "ring_stalls")
    layers["tier.pushes_shed"] = stat(stats, "pushes_shed")
    layers["tier.sessions_rejected"] = stat(stats, "sessions_rejected")
    layers["tier.tail_stranded"] = float(sum(o.stranded for o in outcomes))

    workers = [w for w in getattr(tier, "worker_stats", []) if w is not None]
    busy = sum(stat(w, "busy_seconds") for w in workers)
    sweeps = sum(stat(w, "sweeps") for w in workers)
    decoded = sum(stat(w, "frames_decoded") for w in workers)
    if workers and wall > 0:
        layers["tier.worker_busy_share"] = 100.0 * busy / (len(workers) * wall)
        layers["tier.worker_occupancy_mean"] = decoded / sweeps if sweeps > 0 else 0.0
    else:
        layers["tier.worker_busy_share"] = UNAVAILABLE
        layers["tier.worker_occupancy_mean"] = UNAVAILABLE

    records = [r for o in outcomes for r in o.records if r is not None]
    waits = [stat(r.stats, "mean_wait_s") for r in records]
    if waits:
        layers["tier.queue_wait_p50_ms"] = 1e3 * percentile(waits, 50.0)
    # The worker stamps ``finalized_s`` with the same monotonic clock the
    # driver reads, so arrival minus finalize is the record's way back.
    finalized = [
        r.stats.finalized_s for r in records
        if isinstance(getattr(r.stats, "finalized_s", None), float)
    ]
    arrivals = [a for o in outcomes for a in o.arrivals]
    returns = order_matched_lags(finalized, arrivals) if finalized else []
    if returns and outcomes[0].measured is None:
        layers["tier.record_return_p50_ms"] = 1e3 * percentile(returns, 50.0)
    else:
        # Paced runs collect only the measured sessions' records, so the
        # two sorted lists do not describe the same sessions.
        layers["tier.record_return_p50_ms"] = UNAVAILABLE
    layers["tier.start_s"] = stack.timings.get("tier.start_s", 0.0)
    layers["tier.shutdown_s"] = stack.timings.get("tier.shutdown_s", 0.0)


def generator_layers(outcomes: Sequence[Outcome], lags: Sequence[float],
                     layers: Dict[str, float]) -> None:
    late = [x for o in outcomes for x in o.late]
    layers["gen.busy_s"] = sum(o.gen_busy_s for o in outcomes)
    if late:
        layers["gen.late_p50_ms"] = 1e3 * percentile(late, 50.0)
        layers["gen.late_p90_ms"] = 1e3 * percentile(late, 90.0)
        layers["gen.late_max_ms"] = 1e3 * max(late)
    summary = summarize_lags(lags)
    layers["final_lag_samples"] = float(summary["count"])
    layers["final_lag_p50_ms"] = summary["p50_ms"]
    layers["final_lag_p90_ms"] = summary["p90_ms"]
    layers["final_lag_hi_percentile"] = summary["hi_q"]
    layers["final_lag_hi_ms"] = summary["hi_ms"]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(
    name: str, seed: int, seconds: float, traced: bool, run_dir: str,
    smoke: bool = False, log: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """Run one workload; returns the result object of the contract plus
    human-readable notes."""
    workload = BY_NAME[name].smoke() if smoke else BY_NAME[name]
    if workload.stack == "accel":
        result = accel.run(workload, seed, seconds, traced, smoke or traced, log)
        if not traced:
            result["metrics"]["peak_rss_mb"] = peak_rss_mb()
        return result

    stack, inputs, setup_seconds = set_up(workload, seed, run_dir, smoke or traced)
    program = stack.program
    tracer: Any = Tracer() if traced else NullTracer()
    try:
        # What every worker and the front door paid at start.
        mmap_load_s = time_mmap_load(program) if traced else 0.0
        outcomes = drive(stack, inputs, seed, seconds, tracer)
    finally:
        stack.stop()
    frames_per_s, attempted, failed, lags = end_to_end(workload, outcomes, inputs)
    if program.scorer is not None:
        log(f"{name}: WER against the spoken words {spoken_wer(inputs):.3f} "
            f"over {len(inputs)} utterances")
    log(f"{name}: {attempted} sessions attempted, {failed} failed, "
        f"{len(outcomes)} timed region(s), {len(lags)} lag samples")

    layers = blank_layers()
    generator_layers(outcomes, lags, layers)
    valid = layers["gen.late_p90_ms"] <= LATE_P90_LIMIT_MS
    if not valid:
        log(f"{name}: INVALID run: the generator's p90 lateness is "
            f"{layers['gen.late_p90_ms']:.2f} ms (limit {LATE_P90_LIMIT_MS:g})")
    if not traced:
        values = {
            "frames_per_s": frames_per_s,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_seconds),
        }
        return {"attempted": attempted, "failed": failed, "metrics": values,
                "valid": valid}

    layers.update({k: v for k, v in stack.timings.items() if k in layers})
    layers["graph.states"] = stat(program.graph, "num_states")
    layers["graph.arcs"] = stat(program.graph, "num_arcs")
    spans = 0
    if stack.tier is not None:
        layers["graph.mmap_load_s"] = mmap_load_s
        tier_layers(stack, tracer, outcomes, inputs, layers)
        spans += len(tracer)
        tracer.write(os.path.join(run_dir, f"{name}.tier.trace.json"))
    replay_tracer, table, replay_failed = replay_in_process(
        program, inputs, seconds / 2 if stack.tier is not None else seconds, layers
    )
    failed += replay_failed
    spans += len(replay_tracer)
    replay_tracer.write(os.path.join(run_dir, f"{name}.trace.json"))
    layers["trace.spans"] = float(spans)
    if stack.tier is not None:
        layers["tier.vs_inproc_ratio"] = (
            frames_per_s / layers["server.inproc_frames_per_s"]
        )
    log(f"{name}: layer table of the traced in-process pass "
        f"(self time = span minus children)\n{table}")
    if abs(layers["trace.residual_share"]) > RESIDUAL_LIMIT:
        valid = False
        log(f"{name}: INVALID run: the layer table leaves "
            f"{layers['trace.residual_share']:.1%} of the wall unexplained "
            f"(limit {RESIDUAL_LIMIT:.0%})")
    return {"attempted": attempted, "failed": failed, "metrics": layers,
            "valid": valid}
