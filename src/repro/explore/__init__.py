"""Design-space exploration over the accelerator configuration (paper,
Section IV and Figures 4-14).

The paper's evaluation is a sweep: hold the workload fixed, vary the
hardware -- cache capacities (Figure 4), hash sizing (Figure 5), prefetch
depth, comparator count, memory latency -- and re-price the same beam
search under each point.  This package makes that a first-class, shared
operation instead of a copy-pasted loop per figure:

* :class:`~repro.explore.grid.ParameterGrid` -- declarative parameter
  grids over dotted :class:`~repro.accel.config.AcceleratorConfig` field
  paths (``"arc_cache.size_bytes"``, ``"state_direct_max_arcs"``), plus
  the workload-level ``"beam"`` / ``"pruning"`` / ``"target_active"`` axes;
* :class:`~repro.explore.cache.TraceCache` -- records each workload's
  functional :class:`~repro.accel.trace.DecodeTrace` once per graph
  and search configuration, in memory (content-addressed, so a changed
  workload can never replay a stale trace);
* :class:`~repro.explore.runner.SweepRunner` -- prices every grid point
  with a :class:`~repro.accel.replay.TraceReplayer` (optionally fanned
  out across processes) and returns :class:`~repro.explore.runner.SweepResult`
  rows with cycles, miss ratios, hash behaviour, DRAM traffic, energy and
  power, exportable as JSON/CSV artifacts.

The figure/ablation benchmarks, ``examples/design_space.py`` and the
``repro sweep`` CLI subcommand are all built on this runner.
"""

from repro.explore.grid import ParameterGrid, apply_overrides, parse_sweep_value
from repro.explore.cache import TraceCache, workload_fingerprint
from repro.explore.runner import (
    SweepPoint,
    SweepResult,
    SweepRunner,
    SweepWorkload,
)

__all__ = [
    "ParameterGrid",
    "apply_overrides",
    "parse_sweep_value",
    "TraceCache",
    "workload_fingerprint",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepWorkload",
]
