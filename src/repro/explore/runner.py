"""The shared design-space sweep runner.

``SweepRunner`` turns a workload plus a parameter grid into priced design
points: it records the functional decode trace once per (beam, pruning
strategy) on the baseline graph via
:class:`~repro.explore.cache.TraceCache`, replays it under every
configuration with :class:`~repro.accel.replay.TraceReplayer` (optionally
fanned out across worker processes; a Section IV-B configuration's
replayer relabels the trace onto its sorted layout), applies the energy
model, and returns rows ready for tables, JSON and CSV artifacts.

This is the engine behind the ``bench_fig*`` / ``bench_ablation_*``
parameter sweeps, the six-platform comparison of Figs. 9-14
(:func:`repro.system.experiment.run_platform_comparison`, whose four
accelerator rows are one :meth:`SweepRunner.run`),
``examples/design_space.py`` and ``repro sweep``; a
multi-point sweep costs one search, one LRU outcome pass per distinct
cache geometry and one cheap timing pass per distinct cache behaviour
(``SweepResult.timing_passes``) instead of one full simulation per point
(the ``accel_sweep`` workload of ``benchmarks/e2e`` measures how fast;
``tests/test_explore.py`` holds a sweep to ten independent simulator
runs, cycle for cycle).
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.cpu import release_free_heap, usable_cpus
from repro.common.errors import ConfigError
from repro.accel.config import AcceleratorConfig
from repro.accel.replay import TraceReplayer, timing_passes
from repro.accel.stats import SimStats
from repro.accel.trace import DecodeTrace
from repro.acoustic.scorer import AcousticScores
from repro.decoder.kernel import DecoderConfig
from repro.decoder.result import SearchStats
from repro.energy.components import AcceleratorEnergyModel
from repro.explore.cache import TraceCache
from repro.explore.grid import ParameterGrid, apply_overrides, describe_point
from repro.wfst.layout import CompiledWfst
from repro.wfst.sorted_layout import SortedWfst


@dataclass
class SweepWorkload:
    """The minimal workload contract the sweep runner needs.

    :class:`repro.system.experiment.MemoryWorkload` satisfies it directly;
    :meth:`from_task` adapts a ground-truth
    :class:`~repro.datasets.task.Task`.
    """

    graph: CompiledWfst
    scores: List[AcousticScores]
    beam: float
    max_active: int = 0
    #: Unread: a configuration's sorted layout comes from ``graph``.
    sorted_graph: Optional[SortedWfst] = None
    #: Workload-level pruning strategy defaults (overridable per sweep
    #: point via the "pruning" / "target_active" grid axes).
    pruning: str = "beam"
    target_active: int = 0

    @classmethod
    def from_task(
        cls, task, beam: float, max_active: int = 0
    ) -> "SweepWorkload":
        return cls(
            graph=task.graph,
            scores=[u.scores for u in task.utterances],
            beam=beam,
            max_active=max_active,
        )


@dataclass
class SweepPoint:
    """One priced configuration of a sweep."""

    label: str
    overrides: Dict[str, Any]
    config: AcceleratorConfig
    beam: float
    cycles: int                 #: total cycles over all utterances
    seconds: float              #: wall-clock at ``config.frequency_hz``
    decode_s_per_speech_s: float  #: the paper's headline metric
    energy_j: float
    avg_power_w: float
    stats: SimStats             #: merged cycle-level statistics
    search: SearchStats         #: merged functional statistics
    words: Tuple[Tuple[int, ...], ...]  #: decoded words per utterance
    log_likelihoods: Tuple[float, ...]  #: best-path score per utterance

    def row(self) -> Dict[str, Any]:
        """Flatten the point into one artifact row."""
        s = self.stats
        return {
            "label": self.label,
            "overrides": dict(self.overrides),
            "beam": self.beam,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "decode_s_per_speech_s": self.decode_s_per_speech_s,
            "energy_j": self.energy_j,
            "avg_power_w": self.avg_power_w,
            "state_miss_ratio": s.state_cache.miss_ratio,
            "arc_miss_ratio": s.arc_cache.miss_ratio,
            "token_miss_ratio": s.token_cache.miss_ratio,
            "hash_cycles_per_request": s.hash.avg_cycles_per_request,
            "hash_collisions": s.hash.collisions,
            "hash_overflows": s.hash.overflows,
            "dram_bytes": s.traffic.total_bytes(),
            "arcs_processed": s.arcs_processed,
            "epsilon_arcs_processed": s.epsilon_arcs_processed,
            "states_fetched": s.states_fetched,
            "states_direct": s.states_direct,
            "frames": s.frames,
            "mean_active_tokens": self.search.mean_active_tokens,
        }


@dataclass
class SweepResult:
    """All priced points of one sweep plus provenance."""

    points: List[SweepPoint]
    speech_seconds: float
    elapsed_seconds: float
    trace_recordings: int  #: functional searches run (vs. cache hits)
    trace_cache_hits: int
    #: Timing passes run, over every trace and worker process: points
    #: whose caches behave identically on a trace share one.
    timing_passes: int
    processes: int

    def __len__(self) -> int:
        return len(self.points)

    def point(self, label: str) -> SweepPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise ConfigError(f"no sweep point labelled {label!r}")

    def rows(self) -> List[Dict[str, Any]]:
        return [p.row() for p in self.points]

    def to_json(self, path: str) -> str:
        """Write the machine-readable artifact; returns the path."""
        payload = {
            "speech_seconds": self.speech_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "trace_recordings": self.trace_recordings,
            "trace_cache_hits": self.trace_cache_hits,
            "timing_passes": self.timing_passes,
            "processes": self.processes,
            "points": self.rows(),
        }
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def to_csv(self, path: str) -> str:
        """Write one CSV row per point; returns the path."""
        rows = self.rows()
        for row in rows:
            row["overrides"] = " ".join(
                f"{k}={v}" for k, v in row["overrides"].items()
            )
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", newline="") as fh:
            if not rows:
                return path
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return path


# ----------------------------------------------------------------------
# Worker-process plumbing.  The parent publishes the (large, numpy-backed)
# graph and traces in a module global before forking, so children inherit
# them via copy-on-write instead of pickling.
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {}


def _evaluate(
    graph: CompiledWfst,
    config: AcceleratorConfig,
    traces: Sequence[DecodeTrace],
    energy_model: AcceleratorEnergyModel,
) -> Tuple[SimStats, SearchStats, float, int]:
    """Price one point; also returns the timing passes this ran (0 when
    every trace had already been timed under an equivalent point)."""
    passes = -sum(timing_passes(t) for t in traces)
    replayer = TraceReplayer(graph, config)
    results = [replayer.replay(t) for t in traces]
    passes += sum(timing_passes(t) for t in traces)
    stats = SimStats.merge([r.stats for r in results])
    search = SearchStats.merge([r.search for r in results])
    energy = sum(
        energy_model.energy(config, r.stats).total_j for r in results
    )
    return stats, search, energy, passes


def _worker_evaluate(task):
    index, config, search_key = task
    return index, _evaluate(
        _WORKER_STATE["graph"], config, _WORKER_STATE["traces"][search_key],
        _WORKER_STATE["energy_model"],
    )


class SweepRunner:
    """Price a parameter grid against one workload, trace-once/replay-many.

    Args:
        workload: anything exposing ``graph`` / ``scores`` / ``beam`` /
            ``max_active`` -- see :class:`SweepWorkload`.
        base_config: configuration every point starts from (Table I by
            default).
        energy_model: prices energy/power per point.
        trace_cache: shared in-memory trace store, so several runners
            over one workload record its trace once.  A fresh one otherwise.
        processes: worker processes for the replay fan-out.  ``None``
            auto-sizes to the cores this process may use
            (:func:`repro.common.cpu.usable_cpus`); values <= 1 run
            serially.  Fork is required for the fan-out (the default on
            Linux); other start methods fall back to serial execution.
    """

    def __init__(
        self,
        workload,
        base_config: Optional[AcceleratorConfig] = None,
        energy_model: Optional[AcceleratorEnergyModel] = None,
        trace_cache: Optional[TraceCache] = None,
        processes: Optional[int] = 1,
    ) -> None:
        self.workload = workload
        self.base_config = base_config or AcceleratorConfig()
        self.energy_model = energy_model or AcceleratorEnergyModel()
        self.trace_cache = trace_cache or TraceCache()
        self.processes = processes

    # ------------------------------------------------------------------
    def run(
        self,
        grid: Union[ParameterGrid, Sequence[Dict[str, Any]]],
        labels: Optional[Sequence[str]] = None,
    ) -> SweepResult:
        """Price every point of ``grid`` (a grid or explicit override list)."""
        t_start = time.perf_counter()
        if isinstance(grid, ParameterGrid):
            points = grid.points()
        else:
            points = [dict(p) for p in grid]
        if not points:
            raise ConfigError("a sweep needs at least one point")
        if labels is None:
            labels = [describe_point(p) for p in points]
        elif len(labels) != len(points):
            raise ConfigError("labels and grid points must align")

        workload = self.workload
        max_active = getattr(workload, "max_active", 0)
        rec_before = self.trace_cache.recordings
        hits_before = self.trace_cache.hits

        # Resolve each point to (config, search key).  Each search is
        # recorded once, on the baseline graph; a point's replayer walks
        # the layout its configuration asks for.
        plans = []
        traces: Dict[Tuple, List[DecodeTrace]] = {}
        for overrides in points:
            config = apply_overrides(self.base_config, overrides)
            beam = float(overrides.get("beam", workload.beam))
            if beam <= 0:
                raise ConfigError("beam must be positive")
            pruning = str(
                overrides.get("pruning", getattr(workload, "pruning", "beam"))
            )
            target_active = int(
                overrides.get(
                    "target_active", getattr(workload, "target_active", 0)
                )
            )
            if pruning != "adaptive":
                # target_active cannot change a fixed-beam search; keep
                # the trace key strategy-normalized so grid points that
                # differ only in the ignored axis share one recording.
                target_active = 0
            search_key = (beam, pruning, target_active)
            if search_key not in traces:
                traces[search_key] = self.trace_cache.get(
                    workload.graph, workload.scores,
                    config=DecoderConfig(
                        beam=beam, max_active=max_active,
                        pruning=pruning, target_active=target_active,
                    ),
                )
            plans.append((config, search_key))

        outcomes = self._execute(plans, traces)

        speech_seconds = 0.01 * sum(
            t.num_frames for t in next(iter(traces.values()))
        )
        result_points = []
        for i, (overrides, label) in enumerate(zip(points, labels)):
            config, search_key = plans[i]
            stats, search, energy, _passes = outcomes[i]
            seconds = stats.seconds(config.frequency_hz)
            result_points.append(
                SweepPoint(
                    label=label,
                    overrides=overrides,
                    config=config,
                    beam=float(overrides.get("beam", workload.beam)),
                    cycles=stats.cycles,
                    seconds=seconds,
                    decode_s_per_speech_s=stats.decode_time_per_speech_second(
                        config.frequency_hz
                    ),
                    energy_j=energy,
                    avg_power_w=energy / seconds if seconds else 0.0,
                    stats=stats,
                    search=search,
                    words=tuple(t.words for t in traces[search_key]),
                    log_likelihoods=tuple(
                        t.log_likelihood for t in traces[search_key]
                    ),
                )
            )
        return SweepResult(
            points=result_points,
            speech_seconds=speech_seconds,
            elapsed_seconds=time.perf_counter() - t_start,
            trace_recordings=self.trace_cache.recordings - rec_before,
            trace_cache_hits=self.trace_cache.hits - hits_before,
            timing_passes=sum(outcome[3] for outcome in outcomes),
            processes=self._effective_processes(len(points)),
        )

    # ------------------------------------------------------------------
    def _effective_processes(self, num_points: int) -> int:
        procs = self.processes
        if procs is None:
            procs = usable_cpus()
        procs = min(procs, num_points)
        if procs > 1 and "fork" not in multiprocessing.get_all_start_methods():
            procs = 1
        return max(procs, 1)

    def _execute(self, plans, traces):
        procs = self._effective_processes(len(plans))
        if procs <= 1:
            return [
                _evaluate(
                    self.workload.graph, config, traces[search_key],
                    self.energy_model,
                )
                for config, search_key in plans
            ]

        # Fork-based fan-out: publish the heavy shared state, fork, and
        # collect per-point summaries.
        global _WORKER_STATE
        _WORKER_STATE = {
            "graph": self.workload.graph,
            "traces": traces,
            "energy_model": self.energy_model,
        }
        tasks = [
            (i, config, search_key)
            for i, (config, search_key) in enumerate(plans)
        ]
        outcomes: List[Optional[Tuple[SimStats, SearchStats, float, int]]]
        outcomes = [None] * len(plans)
        release_free_heap()
        ctx = multiprocessing.get_context("fork")
        try:
            with ctx.Pool(processes=procs) as pool:
                for index, outcome in pool.imap_unordered(
                    _worker_evaluate, tasks
                ):
                    outcomes[index] = outcome
        finally:
            _WORKER_STATE = {}
        return outcomes
