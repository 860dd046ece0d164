"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper and emits a
"paper vs measured" report: printed to stdout and written to
``benchmarks/results/<name>.txt``.  Absolute numbers are not expected to
match (the substrate is a scaled synthetic workload on a Python simulator);
the reproduction target is the *shape* -- orderings, rough factors,
crossovers and saturation points.  README's "Reproduce the paper's
figures" section maps each figure and table to its benchmark.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.accel import AcceleratorConfig
from repro.datasets import SyntheticGraphConfig
from repro.explore import SweepRunner, TraceCache
from repro.graph import GraphCache
from repro.system import MemoryWorkload, make_memory_workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: One in-memory trace store for the whole benchmark session: every sweep
#: over the same (workload, layout, beam) reuses a single functional search.
_TRACE_CACHE = TraceCache()

#: One graph-artifact store for the whole benchmark session: every bench
#: sharing a recipe (workload shape + seed) reuses a single compile.  Set
#: ``REPRO_GRAPH_CACHE`` to a directory to persist artifacts across runs
#: (CI does, via actions/cache on the bench-smoke job).
GRAPH_CACHE = GraphCache(os.environ.get("REPRO_GRAPH_CACHE") or None)

#: The paper's four accelerator configurations plus the two baselines.
PLATFORM_ORDER = ("CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc")

#: Paper-scale DNN used for the pipeline-level experiments (Kaldi-era
#: hybrid model: 440-dim spliced MFCC input, 6x2048 hidden, ~3.5k senones).
PAPER_DNN = dict(input_dim=440, hidden_dims=(2048,) * 6, num_classes=3500)


def standard_workload(seed: int = 3) -> MemoryWorkload:
    """The default evaluation workload (used by Figures 9-14).

    A 100k-state Kaldi-like graph (states 0.8 MB, arcs 4.1 MB -- both well
    beyond the Table I caches) with a ~2.5k-token active set: the same
    dataset-to-cache regime as the paper's 13.7M-state graph against the
    Table I capacities.
    """
    return make_memory_workload(
        num_utterances=1,
        frames_per_utterance=25,
        beam=8.0,
        max_active=2500,
        score_separation=2.0,
        score_noise=1.0,
        seed=seed,
        graph_config=SyntheticGraphConfig(
            num_states=100_000, num_phones=50, seed=seed
        ),
        graph_cache=GRAPH_CACHE,
    )


def sweep_workload(seed: int = 5) -> MemoryWorkload:
    """A smaller workload for parameter sweeps (Figures 4 and 5)."""
    return make_memory_workload(
        num_utterances=1,
        frames_per_utterance=15,
        beam=8.0,
        max_active=1200,
        score_separation=2.0,
        score_noise=1.0,
        seed=seed,
        graph_config=SyntheticGraphConfig(
            num_states=20_000, num_phones=50, seed=seed
        ),
        graph_cache=GRAPH_CACHE,
    )


def base_config() -> AcceleratorConfig:
    """Table I configuration."""
    return AcceleratorConfig()


def sweep_runner(
    workload,
    base: Optional[AcceleratorConfig] = None,
) -> SweepRunner:
    """The shared design-space runner every parameter-sweep bench uses.

    Serial: figure benches are small once traces are cached.
    """
    return SweepRunner(
        workload,
        base_config=base or base_config(),
        trace_cache=_TRACE_CACHE,
        processes=1,
    )


def format_table(title: str, header: Sequence[str], rows: List[Sequence]) -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(header)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def report(name: str, text: str) -> None:
    """Print a figure report and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as fh:
        fh.write(text + "\n")


def write_json(name: str, payload: Dict) -> str:
    """Persist machine-readable results (the CI benchmark artifact)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)
