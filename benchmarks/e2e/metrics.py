"""Every metric the benchmark reports: name, unit, which way is better.

``BENCHMARK.json`` lists exactly these (``tests/test_e2e_contract.py``
keeps the two in step).  Every workload reports every metric: a layer a
workload does not exercise reads 0, and a statistic the program no
longer exposes under the name the harness knows reads ``UNAVAILABLE``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.e2e.tracing import BACKEND_OPS

UNAVAILABLE = -1.0

Metric = Tuple[str, str, str]  #: (name, unit, better)

#: Allowed worsening of the parent's median before a change is rejected.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("frames_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
)


def _per_layer() -> List[Metric]:
    lo, hi = "lower", "higher"
    rows: List[Metric] = [
        # generator (validity, not a target)
        ("gen.busy_s", "s", lo),
        ("gen.late_p50_ms", "ms", lo),
        ("gen.late_p90_ms", "ms", lo),
        ("gen.late_max_ms", "ms", lo),
        # latency: no run length this benchmark can afford holds it to a
        # bound on a shared two-core machine (README, "Demoted metrics")
        ("final_lag_samples", "count", hi),
        ("final_lag_p50_ms", "ms", lo),
        ("final_lag_p90_ms", "ms", lo),
        ("final_lag_hi_percentile", "%", hi),
        ("final_lag_hi_ms", "ms", lo),
        # frontend
        ("frontend.frames", "count", hi),
        ("frontend.busy_s", "s", lo),
        ("frontend.mfcc_s", "s", lo),
        ("frontend.norm_splice_s", "s", lo),
        # acoustic
        ("acoustic.frames", "count", hi),
        ("acoustic.busy_s", "s", lo),
        ("acoustic.batches", "count", lo),
        ("acoustic.rows_per_batch", "count", hi),
        ("acoustic.us_per_frame", "us", lo),
        # decoder.kernel
        ("decoder.sweeps", "count", lo),
        ("decoder.frames", "count", hi),
        ("decoder.sweep_s", "s", lo),
        ("decoder.kernel_self_s", "s", lo),
        ("decoder.occupancy_mean", "count", hi),
        ("decoder.active_tokens_mean", "count", lo),
        ("decoder.arcs_processed", "count", lo),
        ("decoder.eps_arcs_processed", "count", lo),
        ("decoder.tokens_created", "count", lo),
        ("decoder.tokens_pruned", "count", lo),
    ]
    # decoder.backend
    for op in BACKEND_OPS:
        rows.append((f"decoder.backend.{op}_s", "s", lo))
        rows.append((f"decoder.backend.{op}_calls", "count", lo))
    rows += [
        ("decoder.backend.rows_gathered", "count", lo),
        # decoder.traceback
        ("decoder.traceback.commit_s", "s", lo),
        ("decoder.traceback.commits", "count", lo),
        ("decoder.traceback.peak_bytes", "B", lo),
        ("decoder.traceback.committed_frames", "count", hi),
        ("decoder.partial_s", "s", lo),
        ("decoder.partial_calls", "count", lo),
        ("decoder.finalize_s", "s", lo),
        # system.server
        ("server.push_s", "s", lo),
        ("server.step_self_s", "s", lo),
        ("server.result_s", "s", lo),
        ("server.queue_wait_mean_ms", "ms", lo),
        ("server.queue_wait_max_ms", "ms", lo),
        ("server.inproc_frames_per_s", "1/s", hi),
        # system.tier
        ("tier.open_s", "s", lo),
        ("tier.push_s", "s", lo),
        ("tier.push_us_per_call", "us", lo),
        ("tier.close_s", "s", lo),
        ("tier.poll_s", "s", lo),
        ("tier.result_s", "s", lo),
        ("tier.ipc_bytes_per_frame", "B", lo),
        ("tier.descriptors", "count", lo),
        ("tier.ring_stalls", "count", lo),
        ("tier.pushes_shed", "count", lo),
        ("tier.sessions_rejected", "count", lo),
        ("tier.worker_busy_share", "%", hi),
        ("tier.worker_occupancy_mean", "count", hi),
        ("tier.queue_wait_p50_ms", "ms", lo),
        ("tier.record_return_p50_ms", "ms", lo),
        ("tier.tail_stranded", "count", lo),
        ("tier.vs_inproc_ratio", "ratio", hi),
        ("tier.start_s", "s", lo),
        ("tier.shutdown_s", "s", lo),
        # graph / wfst / model
        ("graph.compile_s", "s", lo),
        ("graph.states", "count", lo),
        ("graph.arcs", "count", lo),
        ("graph.mmap_save_s", "s", lo),
        ("graph.mmap_load_s", "s", lo),
        ("model.train_s", "s", lo),
        # accel / explore, host time
        ("accel.trace.record_s", "s", lo),
        ("accel.trace.arcs", "count", lo),
        ("accel.replay.s_per_config", "s", lo),
        ("accel.replay.events_per_s", "1/s", hi),
        ("explore.layout_s", "s", lo),
        ("explore.points", "count", hi),
        ("sim_configs_per_s", "1/s", hi),
        # accel, simulated: exact, must repeat for equal seeds
        ("sim_decode_ms_per_speech_s", "ms", lo),
        ("sim_energy_mj_per_speech_s", "mJ", lo),
        ("accel.sim.cycles", "count", lo),
        ("accel.sim.arc_miss_ratio", "ratio", lo),
        ("accel.sim.state_miss_ratio", "ratio", lo),
        ("accel.sim.token_miss_ratio", "ratio", lo),
        ("accel.sim.hash_cycles_per_request", "count", lo),
        ("accel.sim.dram_bytes", "B", lo),
        ("accel.sim.avg_power_w", "W", lo),
        # trace
        ("trace.spans", "count", lo),
        ("trace.residual_share", "ratio", lo),
        ("trace.overhead_share", "ratio", lo),
    ]
    return rows


PER_LAYER: Tuple[Metric, ...] = tuple(_per_layer())
UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}
UNITS.update({name: unit for name, unit, _, _ in END_TO_END})


def blank_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: the layer did no work."""
    return {name: 0.0 for name, _, _ in PER_LAYER}


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
