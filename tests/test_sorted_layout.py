"""Tests for the arc-count-sorted layout (Section IV-B)."""

import hashlib

import numpy as np
import pytest

from repro.common.errors import GraphError
from repro.datasets import SyntheticGraphConfig, generate_kaldi_like_graph
from repro.wfst import sort_states_by_arc_count


@pytest.fixture(scope="module")
def graph():
    return generate_kaldi_like_graph(
        SyntheticGraphConfig(num_states=2000, num_phones=20, seed=5)
    )


@pytest.fixture(scope="module")
def sorted_graph(graph):
    return sort_states_by_arc_count(graph, max_direct_arcs=16)


class TestSorting:
    def test_degrees_ascend_in_sorted_region(self, sorted_graph):
        g = sorted_graph.graph
        end = sorted_graph.tables.boundaries[-1]
        degrees = [g.out_degree(s) for s in range(end)]
        assert degrees == sorted(degrees)
        assert all(1 <= d <= 16 for d in degrees)

    def test_rest_have_large_or_zero_degree(self, sorted_graph):
        g = sorted_graph.graph
        end = sorted_graph.tables.boundaries[-1]
        for s in range(end, g.num_states):
            d = g.out_degree(s)
            assert d == 0 or d > 16

    def test_permutation_is_bijective(self, sorted_graph, graph):
        perm = np.sort(sorted_graph.old_to_new)
        assert (perm == np.arange(graph.num_states)).all()

    def test_invalid_max_arcs_rejected(self, graph):
        with pytest.raises(GraphError):
            sort_states_by_arc_count(graph, max_direct_arcs=0)


class TestDirectLookup:
    def test_matches_state_records_for_all_sorted_states(self, sorted_graph):
        """The comparator bank must agree with the 64-bit state record."""
        g = sorted_graph.graph
        end = sorted_graph.tables.boundaries[-1]
        for s in range(end):
            direct = sorted_graph.direct_lookup(s)
            assert direct is not None
            record = g.state_record(s)
            assert direct.first_arc == record.first_arc
            assert direct.num_arcs == record.num_arcs

    def test_indirect_states_return_none(self, sorted_graph):
        g = sorted_graph.graph
        end = sorted_graph.tables.boundaries[-1]
        for s in range(end, g.num_states):
            assert sorted_graph.direct_lookup(s) is None

    def test_covered_fraction_is_high(self, sorted_graph):
        """Paper: >95% of states are directly addressable with N = 16."""
        assert sorted_graph.covered_state_fraction() > 0.9


class TestSemanticEquivalence:
    def test_arc_multiset_preserved(self, graph, sorted_graph):
        """Sorting permutes states but preserves the transition structure."""
        g = sorted_graph.graph
        o2n = sorted_graph.old_to_new

        def arc_set(graph_, mapper):
            out = set()
            for s in range(graph_.num_states):
                first, n_non_eps, n_eps = graph_.arc_range(s)
                for a in range(first, first + n_non_eps + n_eps):
                    out.add(
                        (
                            mapper(s),
                            mapper(int(graph_.arc_dest[a])),
                            int(graph_.arc_ilabel[a]),
                            int(graph_.arc_olabel[a]),
                            float(np.float32(graph_.arc_weight[a])),
                        )
                    )
            return out

        original = arc_set(graph, lambda s: int(o2n[s]))
        permuted = arc_set(g, lambda s: s)
        assert original == permuted

    def test_final_weights_preserved(self, graph, sorted_graph):
        o2n = sorted_graph.old_to_new
        for s in range(graph.num_states):
            assert sorted_graph.graph.final_weights[o2n[s]] == pytest.approx(
                graph.final_weights[s]
            )

    def test_start_remapped(self, graph, sorted_graph):
        assert sorted_graph.graph.start == int(
            sorted_graph.old_to_new[graph.start]
        )


# ----------------------------------------------------------------------
# Byte-identity of the array-built graph set-up
# ----------------------------------------------------------------------
#: ``generate_kaldi_like_graph`` + ``sort_states_by_arc_count`` used to
#: walk every state in Python; these values were recorded from those
#: loops (PR 13's tree) and pin the array versions to the same bytes.
#: Per case: generator config, graph / sorted-graph fingerprints,
#: remapped start, sha256 of ``old_to_new``, comparator boundaries and
#: the offset table for k = 1..16.
RECORDED_LAYOUTS = {
    # Degree groups 6, 14, 15 and 16 are empty, and the last state's
    # epsilon arc is rewritten into a non-epsilon self arc.
    "empty_groups_and_last_state_self_arc": (
        dict(num_states=300, seed=0, epsilon_fraction=0.3, num_phones=20,
             num_words=50),
        "9cc059c8cf3e67cda981080ed90a0bb9",
        "7967fc4ae252127745d3e4f7c5d3d260",
        268,
        "a05aaf5ef28f20da9aad095ba4cc5b3f",
        (214, 262, 268, 273, 280, 280, 281, 285, 286, 287, 288, 291, 292,
         292, 292, 292),
        (0, -214, -476, -744, -1017, -1297, -1577, -1858, -2143, -2429,
         -2716, -3004, -3295, -3587, -3879, -4171),
    ),
    # Every state is directly addressable: groups 4..16 are empty and
    # begin past the last state, at the arc count.
    "all_states_direct": (
        dict(num_states=150, seed=5, mean_arcs_per_state=1.6,
             max_arcs_per_state=3, num_phones=10, num_words=30),
        "3693d32b3893b34ca9765e4a3488db8f",
        "eb92b681ff683cc69aa48c26876db123",
        89,
        "e80b28212f27189be928edaae2353c74",
        (89, 126) + (150,) * 14,
        (0, -89, -215, -365, -515, -665, -815, -965, -1115, -1265, -1415,
         -1565, -1715, -1865, -2015, -2165),
    ),
    # The graph benchmarks/e2e's accel_sweep builds in set-up.
    "accel_sweep_20k": (
        dict(num_states=20000, num_phones=50, seed=16),
        "28515db63967d769235da0cf5ebdf3cd",
        "64ef302ad2d769bbcbc1271adf22399d",
        0,
        "5c30118bb70bb31b3be345fb1bcfb495",
        (13781, 16664, 17846, 18452, 18791, 19049, 19236, 19352, 19433,
         19496, 19550, 19597, 19631, 19658, 19691, 19713),
        (0, -13781, -30445, -48291, -66743, -85534, -104583, -123819,
         -143171, -162604, -182100, -201650, -221247, -240878, -260536,
         -280227),
    ),
}


@pytest.mark.parametrize("case", sorted(RECORDED_LAYOUTS))
def test_set_up_reproduces_the_recorded_bytes(case):
    (config, graph_fp, sorted_fp, start, perm_sha,
     boundaries, offsets) = RECORDED_LAYOUTS[case]
    graph = generate_kaldi_like_graph(SyntheticGraphConfig(**config))
    assert graph.fingerprint() == graph_fp
    layout = sort_states_by_arc_count(graph)
    assert layout.graph.fingerprint() == sorted_fp
    assert layout.graph.start == start
    assert layout.old_to_new.dtype == np.int64
    assert hashlib.sha256(
        layout.old_to_new.tobytes()
    ).hexdigest()[:32] == perm_sha
    tables = layout.tables
    assert tables.max_direct_arcs == 16
    assert tables.boundaries == boundaries
    assert tables.group_start == dict(
        zip(range(1, 17), (0,) + boundaries[:-1])
    )
    assert tables.offsets == dict(zip(range(1, 17), offsets))
    for table in (tables.boundaries, tables.group_start.values(),
                  tables.offsets.values()):
        assert all(type(v) is int for v in table)


def test_last_state_self_arc_case_is_what_it_says():
    config = RECORDED_LAYOUTS["empty_groups_and_last_state_self_arc"][0]
    graph = generate_kaldi_like_graph(SyntheticGraphConfig(**config))
    last = graph.num_states - 1
    first, n_non_eps, n_eps = graph.arc_range(last)
    assert (n_non_eps, n_eps) == (0, 1)
    assert (int(graph.arc_dest[first]), int(graph.arc_ilabel[first])) == (last, 1)
