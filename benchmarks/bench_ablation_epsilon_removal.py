"""Ablation: epsilon arcs vs an epsilon-free graph.

The paper keeps epsilon arcs (11.5% of Kaldi's graph) because removal
blows the graph up; each epsilon arc costs the accelerator a second
intra-frame pipeline pass (Section III-B).  This ablation folds the
output-free epsilon arcs of a composed task graph and measures both sides
of the trade: graph size against epsilon-pass work and cycles.  Each
graph is a distinct *workload* (removal changes the search), so the
shared runner prices one single-point sweep per graph.
"""

import dataclasses

import pytest

from benchmarks.common import GRAPH_CACHE, format_table, report, sweep_runner
from repro.datasets import TaskConfig, generate_task
from repro.explore import SweepWorkload
from repro.graph import GraphRecipe, compile_graph


@pytest.fixture(scope="module")
def task():
    return generate_task(
        TaskConfig(vocab_size=150, corpus_sentences=700, num_utterances=3,
                   seed=41)
    )


def run(task):
    original = task.graph
    # Same recipe, epsilon-removal pass switched on: both graphs come from
    # the one compiler pipeline.
    epsfree_config = dataclasses.replace(task.config, remove_epsilons=True)
    epsfree = compile_graph(
        GraphRecipe.from_task_config(epsfree_config), cache=GRAPH_CACHE
    ).graph

    rows = []
    likelihoods = {}
    for name, graph in [("with epsilons", original),
                        ("epsilon-free", epsfree)]:
        workload = SweepWorkload(
            graph=graph,
            scores=[u.scores for u in task.utterances],
            beam=16.0,
        )
        point = sweep_runner(workload).run([{}], labels=[name]).points[0]
        likelihoods[name] = list(point.log_likelihoods)
        rows.append(
            [name, graph.num_states, graph.num_arcs,
             f"{100 * graph.epsilon_fraction():.1f}%",
             point.stats.arcs_processed,
             point.stats.epsilon_arcs_processed,
             point.cycles]
        )
    return rows, likelihoods


def test_ablation_epsilon_removal(task):
    rows, likelihoods = run(task)
    text = format_table(
        "Ablation -- epsilon arcs vs epsilon-free graph "
        "(paper keeps 11.5% epsilon arcs)",
        ["graph", "states", "arcs", "eps", "emit arcs", "eps arcs", "cycles"],
        rows,
    )
    report("ablation_epsilon_removal", text)

    by_name = {r[0]: r for r in rows}
    # Removal eliminates the epsilon-pass work entirely...
    assert by_name["epsilon-free"][5] == 0
    # ...at the price of a larger arc array (folding duplicates arcs).
    assert by_name["epsilon-free"][2] >= by_name["with epsilons"][2]
    # Decoding results are unchanged.
    for a, b in zip(likelihoods["with epsilons"], likelihoods["epsilon-free"]):
        assert b == pytest.approx(a, abs=1e-6)
