"""Weighted finite-state transducer (WFST) toolkit.

This subpackage is the recognition-network substrate of the reproduction:
a from-scratch WFST library covering what the paper's decoding graphs need --
construction, composition, connection, and the two packed memory layouts the
accelerator reads (baseline and arc-count-sorted, paper Sections III and
IV-B).

Labels follow ASR convention: input labels are phoneme ids, output labels are
word ids, and label ``0`` (EPSILON) marks an epsilon transition.
"""

from repro.wfst.fst import Arc, Fst, EPSILON
from repro.wfst.semiring import LogProbSemiring, TropicalSemiring
from repro.wfst.ops import compose, connect, arcsort, check_epsilon_acyclic
from repro.wfst.layout import (
    ARC_BYTES,
    STATE_BYTES,
    CompiledWfst,
    FlatLayout,
    StateRecord,
)
from repro.wfst.sorted_layout import SortedWfst, sort_states_by_arc_count
from repro.wfst.io import load_graph_meta, load_graph_mmap, save_graph_mmap
from repro.wfst.shortest import best_complete_path_score, shortest_distance
from repro.wfst.epsilon_removal import count_epsilon_arcs, remove_epsilons

__all__ = [
    "Arc",
    "Fst",
    "EPSILON",
    "LogProbSemiring",
    "TropicalSemiring",
    "compose",
    "connect",
    "arcsort",
    "check_epsilon_acyclic",
    "CompiledWfst",
    "FlatLayout",
    "StateRecord",
    "ARC_BYTES",
    "STATE_BYTES",
    "SortedWfst",
    "sort_states_by_arc_count",
    "save_graph_mmap",
    "load_graph_mmap",
    "load_graph_meta",
    "best_complete_path_score",
    "shortest_distance",
    "count_epsilon_arcs",
    "remove_epsilons",
]
