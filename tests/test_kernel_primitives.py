"""Properties of the kernel's array ops and sort-free primitives.

The fast versions live in the package; the naive versions they must
agree with live here (the ``test_sag.py`` idiom: the plain reference is
the test's, not the program's):

* ``segment_best`` against the stable two-key ``np.lexsort`` body it
  replaced -- the tie contract: per key the best score, and among
  equal scores (``+0.0 == -0.0``) the earliest candidate position;
* ``_top_cap_mask`` against a stable descending ``np.argsort``;
* ``_insert_sorted`` against one ``np.insert`` per array;
* ``csr_gather`` against a per-block ``range`` loop;
* ``expand_frame``, ``expand_closure`` and ``expand_fused`` against one
  Python loop over every row's arc block, scores summed as
  ``(token + arc_weight) + acoustic`` and compared bit for bit;
* ``trace_reachable`` against a walk up each live chain that stops at
  the first marked record.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decoder import resolve_backend
from repro.decoder.backends.numpy_backend import csr_gather
from repro.decoder.traceback import TRACE_FIELD_DTYPE
from repro.decoder.kernel import _insert_sorted, _top_cap_mask

#: Few distinct values, signed zeros included: ties everywhere.
TIED_SCORES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.25])
SCORES = st.one_of(TIED_SCORES, st.floats(-1e6, 1e6, allow_nan=False))


# ----------------------------------------------------------------------
# The naive versions
# ----------------------------------------------------------------------
def lexsort_segment_best(dest, score):
    """The kernel's merge as it was: a stable sort on (key, -score)."""
    order = np.lexsort((-score, dest))
    sorted_dest = dest[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    first[1:] = sorted_dest[1:] != sorted_dest[:-1]
    return sorted_dest[first], order[first]


def argsort_top_cap(scores, cap):
    mask = np.zeros(scores.size, dtype=bool)
    mask[np.argsort(-scores, kind="stable")[:cap]] = True
    return mask


# ----------------------------------------------------------------------
# segment_best
# ----------------------------------------------------------------------
@st.composite
def candidates(draw, max_key=12):
    n = draw(st.integers(1, 60))
    keys = draw(st.lists(st.integers(0, max_key), min_size=n, max_size=n))
    scores = draw(st.lists(SCORES, min_size=n, max_size=n))
    return np.array(keys, dtype=np.int64), np.array(scores, dtype=np.float64)


@pytest.fixture(scope="module", params=["numpy"])
def backend(request):
    return resolve_backend(request.param)


class TestSegmentBest:
    @settings(max_examples=300, deadline=None)
    @given(candidates())
    def test_matches_the_lexsort_merge(self, backend, data):
        keys, scores = data
        uniq, winners = backend.segment_best(keys, scores)
        want_uniq, want_winners = lexsort_segment_best(keys, scores)
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(winners, want_winners)
        assert uniq.dtype == np.int64 and winners.dtype == np.int64

    @settings(max_examples=100, deadline=None)
    @given(candidates(max_key=3), st.integers(40, 61))
    def test_keys_too_wide_to_pack_with_a_position(self, backend, data, shift):
        # (key << bits) | position no longer fits 63 bits: the numpy
        # backend takes its stable-argsort branch, same answer.  Keys
        # stay non-negative, as segment_best requires: 3 << 61 is the
        # widest key this draws, while 2 << 62 would wrap to -2**63.
        keys, scores = data
        keys = keys << shift
        uniq, winners = backend.segment_best(keys, scores)
        want_uniq, want_winners = lexsort_segment_best(keys, scores)
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(winners, want_winners)

    def test_pack_guard_boundary(self, backend):
        # Four candidates take two position bits: 2**61 - 1 is the widest
        # key that still packs, 2**61 the narrowest that does not.
        scores = np.array([1.0, 2.0, 2.0, 0.5])
        for top in ((1 << 61) - 1, 1 << 61):
            keys = np.array([top, 7, 7, top], dtype=np.int64)
            uniq, winners = backend.segment_best(keys, scores)
            assert uniq.tolist() == [7, top]
            assert winners.tolist() == [1, 0]

    def test_single_candidate(self, backend):
        uniq, winners = backend.segment_best(
            np.array([5], dtype=np.int64), np.array([-3.0])
        )
        assert uniq.tolist() == [5] and winners.tolist() == [0]

    def test_all_equal_scores_keep_the_earliest(self, backend):
        keys = np.array([3, 1, 3, 1, 1, 3], dtype=np.int64)
        uniq, winners = backend.segment_best(keys, np.zeros(6))
        assert uniq.tolist() == [1, 3] and winners.tolist() == [1, 0]

    def test_signed_zeros_tie(self, backend):
        keys = np.array([2, 2, 2, 9, 9], dtype=np.int64)
        scores = np.array([-1.0, -0.0, 0.0, 0.0, -0.0])
        _, winners = backend.segment_best(keys, scores)
        assert winners.tolist() == [1, 3]

    def test_best_is_last_of_a_long_run(self, backend):
        keys = np.zeros(50, dtype=np.int64)
        scores = np.arange(50, dtype=np.float64)
        uniq, winners = backend.segment_best(keys, scores)
        assert uniq.tolist() == [0] and winners.tolist() == [49]


# ----------------------------------------------------------------------
# _top_cap_mask
# ----------------------------------------------------------------------
@st.composite
def capped(draw):
    n = draw(st.integers(2, 60))
    scores = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    return scores, draw(st.integers(1, n - 1))


class TestTopCapMask:
    @settings(max_examples=300, deadline=None)
    @given(capped())
    def test_matches_a_stable_descending_sort(self, data):
        scores, cap = data
        mask = _top_cap_mask(scores, cap)
        np.testing.assert_array_equal(mask, argsort_top_cap(scores, cap))
        assert np.count_nonzero(mask) == cap

    def test_ties_straddling_the_cut_keep_the_earliest(self):
        scores = np.array([1.0, 5.0, 1.0, 1.0, 7.0, 1.0])
        # Two above the tie; of the four tied tokens the first two stay.
        assert _top_cap_mask(scores, 4).tolist() == [
            True, True, True, False, True, False
        ]

    def test_all_equal(self):
        assert _top_cap_mask(np.full(5, -3.0), 2).tolist() == [
            True, True, False, False, False
        ]

    def test_signed_zeros_are_one_value(self):
        scores = np.array([-0.0, 0.0, -0.0, 0.0])
        assert _top_cap_mask(scores, 3).tolist() == [True, True, True, False]


# ----------------------------------------------------------------------
# _insert_sorted
# ----------------------------------------------------------------------
@st.composite
def insertion(draw):
    size = draw(st.integers(0, 30))
    k = draw(st.integers(0, 20))
    pos = sorted(draw(st.lists(st.integers(0, size), min_size=k, max_size=k)))
    return size, np.array(pos, dtype=np.int64)


class TestInsertSorted:
    @settings(max_examples=300, deadline=None)
    @given(insertion())
    def test_matches_np_insert_per_array(self, data):
        size, pos = data
        arrays = (
            np.arange(size, dtype=np.int64) * 10,
            np.linspace(-1.0, 1.0, size),
            np.arange(size, dtype=np.int64) + 1000,
        )
        values = (
            np.arange(pos.size, dtype=np.int64) * 10 + 5,
            np.linspace(2.0, 3.0, pos.size),
            np.arange(pos.size, dtype=np.int64) + 2000,
        )
        merged = _insert_sorted(pos, arrays, values)
        assert len(merged) == 3
        for got, array, value in zip(merged, arrays, values):
            want = np.insert(array, pos, value)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    def test_repeated_slots_keep_value_order(self):
        (got,) = _insert_sorted(
            np.array([1, 1, 3], dtype=np.int64),
            (np.array([10, 20, 30], dtype=np.int64),),
            (np.array([11, 12, 31], dtype=np.int64),),
        )
        assert got.tolist() == [10, 11, 12, 20, 30, 31]


# ----------------------------------------------------------------------
# csr_gather
# ----------------------------------------------------------------------
class TestCsrGather:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 6)),
            min_size=0, max_size=25,
        )
    )
    def test_matches_a_loop_over_blocks(self, blocks):
        first = np.array([f for f, _ in blocks], dtype=np.int64)
        counts = np.array([c for _, c in blocks], dtype=np.int64)
        arcs, rows = csr_gather(first, counts)
        want_arcs = [a for f, c in blocks for a in range(f, f + c)]
        want_rows = [i for i, (_, c) in enumerate(blocks) for _ in range(c)]
        assert arcs.tolist() == want_arcs
        assert rows.tolist() == want_rows
        assert arcs.dtype == np.int64 and rows.dtype == np.int64


# ----------------------------------------------------------------------
# expand_frame / expand_closure / expand_fused
# ----------------------------------------------------------------------
#: Mixed magnitudes, so a sum associated any other way rounds differently.
WEIGHTS = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, 0.5, -0.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def expansions(draw, max_segments=1):
    """Arc columns, a frontier of arc blocks (empty ones and frontiers
    with no arcs included) and the score rows the frontier reads."""
    num_arcs = draw(st.integers(0, 24))
    width = draw(st.integers(1, 5))
    arc_dest = np.array(
        draw(st.lists(st.integers(0, 40), min_size=num_arcs,
                      max_size=num_arcs)), dtype=np.int64)
    arc_weight = np.array(
        draw(st.lists(WEIGHTS, min_size=num_arcs, max_size=num_arcs)),
        dtype=np.float64)
    arc_ilabel = np.array(
        draw(st.lists(st.integers(0, width - 1), min_size=num_arcs,
                      max_size=num_arcs)), dtype=np.int64)
    blocks = []
    for _ in range(draw(st.integers(0, 8))):
        lo = draw(st.integers(0, num_arcs))
        blocks.append((lo, draw(st.integers(0, num_arcs - lo))))
    rows = len(blocks)
    first = np.array([f for f, _ in blocks], dtype=np.int64)
    counts = np.array([c for _, c in blocks], dtype=np.int64)
    scores = np.array(
        draw(st.lists(WEIGHTS, min_size=rows, max_size=rows)),
        dtype=np.float64)
    segments = draw(st.integers(1, max_segments))
    seg = np.array(
        draw(st.lists(st.integers(0, segments - 1), min_size=rows,
                      max_size=rows)), dtype=np.int64)
    stack = np.array(
        draw(st.lists(WEIGHTS, min_size=segments * width,
                      max_size=segments * width)),
        dtype=np.float64).reshape(segments, width)
    return dict(first=first, counts=counts, scores=scores, seg=seg,
                arc_dest=arc_dest, arc_weight=arc_weight,
                arc_ilabel=arc_ilabel, frame_stack=stack)


def loop_expand(case, acoustic):
    """One Python loop over every row's arc block.  ``acoustic(row,
    arc)`` is the row's acoustic term, or None for an epsilon pass."""
    arc_idx, src, dest, cand = [], [], [], []
    for row, (lo, n) in enumerate(zip(case["first"], case["counts"])):
        for arc in range(lo, lo + n):
            score = case["scores"][row] + case["arc_weight"][arc]
            extra = acoustic(row, arc)
            arc_idx.append(arc)
            src.append(row)
            dest.append(case["arc_dest"][arc])
            cand.append(score if extra is None else score + extra)
    return arc_idx, src, dest, cand


def assert_expansion(got, want):
    arc_idx, src, dest, cand = got
    assert arc_idx.tolist() == want[0]
    assert src.tolist() == want[1]
    assert dest.tolist() == want[2]
    assert cand.dtype == np.float64
    # Bit for bit: signed zeros and last-place rounding both count.
    np.testing.assert_array_equal(
        cand.view(np.uint64), np.array(want[3], dtype=np.float64).view(np.uint64)
    )


class TestExpand:
    @settings(max_examples=100, deadline=None)
    @given(expansions())
    def test_expand_frame_matches_a_loop(self, backend, case):
        row = case["frame_stack"][0]
        got = backend.expand_frame(
            case["first"], case["counts"], case["scores"], case["arc_dest"],
            case["arc_weight"], case["arc_ilabel"], row,
        )
        want = loop_expand(case, lambda r, a: row[case["arc_ilabel"][a]])
        assert_expansion(got, want)

    @settings(max_examples=100, deadline=None)
    @given(expansions())
    def test_expand_closure_matches_a_loop(self, backend, case):
        got = backend.expand_closure(
            case["first"], case["counts"], case["scores"], case["arc_dest"],
            case["arc_weight"],
        )
        assert_expansion(got, loop_expand(case, lambda r, a: None))

    @settings(max_examples=100, deadline=None)
    @given(expansions(max_segments=3))
    def test_expand_fused_matches_a_loop(self, backend, case):
        stack, seg = case["frame_stack"], case["seg"]
        got = backend.expand_fused(
            case["first"], case["counts"], case["scores"], seg,
            case["arc_dest"], case["arc_weight"], case["arc_ilabel"], stack,
        )
        want = loop_expand(
            case, lambda r, a: stack[seg[r], case["arc_ilabel"][a]]
        )
        assert_expansion(got, want)

    def test_sum_associates_token_and_arc_first(self, backend):
        # (1e16 + 1) + 1 == 1e16, but 1e16 + (1 + 1) == 1e16 + 2.
        one = np.array([0], dtype=np.int64)
        _, _, _, cand = backend.expand_frame(
            one, np.array([1], dtype=np.int64), np.array([1e16]),
            one, np.array([1.0]), one, np.array([1.0]),
        )
        assert cand.tolist() == [1e16]

    def test_frontier_without_arcs(self, backend):
        zero = np.zeros(3, dtype=np.int64)
        got = backend.expand_fused(
            zero, zero, np.zeros(3), zero, np.array([5], dtype=np.int64),
            np.array([0.5]), zero[:1], np.zeros((1, 2)),
        )
        assert [a.size for a in got] == [0, 0, 0, 0]
        assert got[3].dtype == np.float64


# ----------------------------------------------------------------------
# trace_reachable
# ----------------------------------------------------------------------
@st.composite
def traces(draw):
    """A trace whose records point at earlier ones (-1: a root), an
    anchor and the live backpointers."""
    size = draw(st.integers(1, 40))
    prev = [draw(st.integers(-1, k - 1)) for k in range(size)]
    anchor = draw(st.integers(0, size - 1))
    bps = draw(st.lists(st.integers(0, size - 1), max_size=12))
    return (np.array(prev, dtype=TRACE_FIELD_DTYPE), size,
            np.array(bps, dtype=np.int64), anchor)


def walk_reachable(prev, size, bps, anchor):
    """Each live chain, walked until it meets a marked record."""
    keep = [False] * size
    keep[anchor] = True
    for record in bps:
        while record >= 0 and not keep[record]:
            keep[record] = True
            record = prev[record]
    return keep


class TestTraceReachable:
    @settings(max_examples=200, deadline=None)
    @given(traces())
    def test_matches_a_walk_up_each_chain(self, backend, trace):
        keep = backend.trace_reachable(*trace)
        assert keep.dtype == bool
        assert keep.tolist() == walk_reachable(*trace)

    def test_anchor_stops_the_walk(self, backend):
        # 0 <- 1 <- 2 <- 3 and 1 <- 4: with 2 pre-marked, the chain from
        # 3 stops there, so only 4's walk reaches 1 and 0.
        prev = np.array([-1, 0, 1, 2, 1], dtype=TRACE_FIELD_DTYPE)
        keep = backend.trace_reachable(prev, 5, np.array([3]), 2)
        assert keep.tolist() == [False, False, True, True, False]
        keep = backend.trace_reachable(prev, 5, np.array([3, 4]), 2)
        assert keep.tolist() == [True, True, True, True, True]
