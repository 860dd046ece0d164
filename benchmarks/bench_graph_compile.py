"""Gate: a warm artifact-cache load beats a cold graph compile >= 5x.

The paper compiles its decoding WFST offline and the accelerator only ever
walks the packed binary (Section III).  The staged graph compiler
(:mod:`repro.graph`) makes that split real in this repo: a recipe compiles
once -- lexicon, grammar, composition, epsilon pass, arcsort, pack -- and
every later consumer maps the content-addressed cache entry (an mmap
layout directory, :mod:`repro.wfst.io`) from disk.  This bench times both
paths on the same recipe, asserts the loaded graph is **bit-identical**
to the freshly compiled one, and gates the warm load at >= 5x the cold
compile.  The warm load reads ``meta.json`` and maps six ``.npy`` files
without touching their pages (~0.6 ms), so it is far above the gate
(measured: ~600-1000x).
"""

import shutil
import tempfile
import time

from benchmarks.common import format_table, report, write_json
from repro.graph import GraphCache, GraphRecipe

SPEEDUP_TARGET = 5.0

RECIPE = GraphRecipe.composed(vocab_size=400, corpus_sentences=2000, seed=19)


def run_graph_compile() -> dict:
    directory = tempfile.mkdtemp(prefix="repro-graph-bench-")
    try:
        # Cold: pipeline execution plus the write of the cache entry.
        cold_cache = GraphCache(directory)
        t0 = time.perf_counter()
        cold = cold_cache.get(RECIPE)
        cold_seconds = time.perf_counter() - t0

        # Warm: a fresh cache instance (empty memory) hitting the entry.
        # The load takes ~1 ms, where timer noise dominates: take the
        # best of a few rounds.
        warm_seconds = float("inf")
        for _ in range(3):
            warm_cache = GraphCache(directory)
            t0 = time.perf_counter()
            warm = warm_cache.get(RECIPE)
            warm_seconds = min(warm_seconds, time.perf_counter() - t0)

        # Compare every packed array (the loaded graph's *stamped*
        # fingerprint would trivially equal the stored one, so recompute
        # the warm graph's identity from its arrays).
        warm.graph._fingerprint = None
        bit_identical = bool(
            warm.graph.start == cold.graph.start
            and warm.graph.fingerprint() == cold.graph.fingerprint()
            and (warm.graph.states_packed == cold.graph.states_packed).all()
            and (warm.graph.arc_dest == cold.graph.arc_dest).all()
            and (warm.graph.arc_weight == cold.graph.arc_weight).all()
            and (warm.graph.arc_ilabel == cold.graph.arc_ilabel).all()
            and (warm.graph.arc_olabel == cold.graph.arc_olabel).all()
            and (warm.graph.final_weights == cold.graph.final_weights).all()
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "recipe": RECIPE.describe(),
        "fingerprint": RECIPE.fingerprint(),
        "states": cold.graph.num_states,
        "arcs": cold.graph.num_arcs,
        "passes": [p.name for p in cold.passes],
        "cold_compile_seconds": round(cold_seconds, 4),
        "warm_load_seconds": round(warm_seconds, 5),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "target": SPEEDUP_TARGET,
        "bit_identical": bit_identical,
    }


def _report(payload: dict) -> None:
    text = format_table(
        f"Graph compile -- cold pipeline vs warm artifact-cache load "
        f"({payload['recipe']}: {payload['states']} states / "
        f"{payload['arcs']} arcs)",
        ["metric", "value"],
        [
            ["cold compile (s)", payload["cold_compile_seconds"]],
            ["warm cache load (s)", payload["warm_load_seconds"]],
            ["speedup (x)", payload["speedup"]],
            ["gate (x)", payload["target"]],
            ["bit-identical", payload["bit_identical"]],
        ],
    )
    report("graph_compile", text)
    write_json("graph_compile", payload)


def test_graph_compile():
    payload = run_graph_compile()
    _report(payload)
    assert payload["bit_identical"]
    assert payload["speedup"] >= SPEEDUP_TARGET, (
        f"warm load {payload['speedup']:.2f}x below the "
        f"{SPEEDUP_TARGET:.0f}x gate"
    )
