"""Tests for the packed binary WFST layout."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import GraphError
from repro.wfst import ARC_BYTES, STATE_BYTES, CompiledWfst, EPSILON, Fst
from repro.wfst.layout import StateRecord


def small_compiled():
    fst = Fst()
    s0, s1, s2 = fst.add_states(3)
    fst.set_start(s0)
    fst.add_arc(s0, 1, 5, -0.5, s1)
    fst.add_arc(s0, EPSILON, 0, -0.1, s2)
    fst.add_arc(s0, 2, 0, -0.7, s1)
    fst.add_arc(s1, 3, 0, -0.2, s2)
    fst.set_final(s2, -0.05)
    return CompiledWfst.from_fst(fst)


class TestStatePacking:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**16 - 1),
        st.integers(0, 2**16 - 1),
    )
    def test_round_trip(self, first, non_eps, eps):
        rec = StateRecord(first, non_eps, eps)
        assert CompiledWfst.unpack_state(CompiledWfst.pack_state(rec)) == rec

    def test_fits_64_bits(self):
        packed = CompiledWfst.pack_state(
            StateRecord(2**32 - 1, 2**16 - 1, 2**16 - 1)
        )
        assert 0 <= packed < 2**64

    def test_overflow_rejected(self):
        with pytest.raises(GraphError):
            CompiledWfst.pack_state(StateRecord(2**32, 0, 0))
        with pytest.raises(GraphError):
            CompiledWfst.pack_state(StateRecord(0, 2**16, 0))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**16 - 1),
                st.integers(0, 2**16 - 1),
            ),
            max_size=8,
        )
    )
    def test_whole_columns_pack_like_single_records(self, records):
        columns = [
            np.array([r[i] for r in records], dtype=np.int64) for i in range(3)
        ]
        packed = CompiledWfst.pack_states(*columns)
        assert packed.dtype == np.uint64
        assert packed.tolist() == [
            CompiledWfst.pack_state(StateRecord(*r)) for r in records
        ]
        for column, unpacked in zip(columns, CompiledWfst.unpack_states(packed)):
            assert unpacked.dtype == np.int64
            np.testing.assert_array_equal(unpacked, column)

    @pytest.mark.parametrize(
        "bad", [(2**32, 0, 0), (-1, 0, 0), (0, 2**16, 0), (0, 0, 2**16), (0, 0, -1)]
    )
    def test_whole_columns_reject_what_single_records_reject(self, bad):
        columns = [np.array([0, value], dtype=np.int64) for value in bad]
        with pytest.raises(GraphError):
            CompiledWfst.pack_states(*columns)
        with pytest.raises(GraphError):
            CompiledWfst.pack_state(StateRecord(*bad))


class TestArcPacking:
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, dest, weight, ilabel, olabel):
        raw = CompiledWfst.pack_arc(dest, weight, ilabel, olabel)
        assert len(raw) == ARC_BYTES
        d, w, i, o = CompiledWfst.unpack_arc(raw)
        assert (d, i, o) == (dest, ilabel, olabel)
        assert w == pytest.approx(np.float32(weight), nan_ok=True)

    def test_wrong_size_rejected(self):
        with pytest.raises(GraphError):
            CompiledWfst.unpack_arc(b"\x00" * 8)


class TestCompiledLayout:
    def test_counts(self):
        g = small_compiled()
        assert g.num_states == 3
        assert g.num_arcs == 4

    def test_non_epsilon_arcs_stored_first(self):
        g = small_compiled()
        first, n_non_eps, n_eps = g.arc_range(0)
        assert (n_non_eps, n_eps) == (2, 1)
        labels = g.arc_ilabel[first : first + 3]
        assert labels[0] != EPSILON and labels[1] != EPSILON
        assert labels[2] == EPSILON

    def test_arcs_contiguous_per_state(self):
        g = small_compiled()
        f0, n0, e0 = g.arc_range(0)
        f1, _n1, _e1 = g.arc_range(1)
        assert f1 == f0 + n0 + e0

    def test_addresses(self):
        g = small_compiled()
        assert g.state_address(2, base=1000) == 1000 + 2 * STATE_BYTES
        assert g.arc_address(3, base=64) == 64 + 3 * ARC_BYTES

    def test_sizes(self):
        g = small_compiled()
        assert g.states_size_bytes == 3 * STATE_BYTES
        assert g.arcs_size_bytes == 4 * ARC_BYTES
        assert g.total_size_bytes == g.states_size_bytes + g.arcs_size_bytes

    def test_final_states(self):
        g = small_compiled()
        assert g.final_states() == [2]
        assert g.final_weight(2) == pytest.approx(-0.05)
        assert not g.is_final(0)

    def test_epsilon_fraction(self):
        g = small_compiled()
        assert g.epsilon_fraction() == pytest.approx(0.25)

    def test_paper_arc_record_is_128_bits(self):
        assert ARC_BYTES * 8 == 128

    def test_paper_state_record_is_64_bits(self):
        assert STATE_BYTES * 8 == 64


class TestFlatLayout:
    def test_matches_packed_records(self):
        g = small_compiled()
        flat = g.flat()
        for s in range(g.num_states):
            first, n_non_eps, n_eps = g.arc_range(s)
            assert flat.first_arc[s] == first
            assert flat.num_non_eps[s] == n_non_eps
            assert flat.num_eps[s] == n_eps
            assert flat.eps_first[s] == first + n_non_eps
            assert flat.out_degree[s] == g.out_degree(s)

    def test_arc_columns_match(self):
        g = small_compiled()
        flat = g.flat()
        assert np.array_equal(flat.arc_dest, g.arc_dest)
        assert np.array_equal(flat.arc_ilabel, g.arc_ilabel)
        assert np.array_equal(flat.arc_olabel, g.arc_olabel)
        # float32 -> float64 widening is exact.
        assert np.array_equal(
            flat.arc_weight64, g.arc_weight.astype(np.float64)
        )
        assert flat.arc_weight64.dtype == np.float64
        assert flat.arc_dest.dtype == np.int64

    def test_cached_and_shared(self):
        g = small_compiled()
        assert g.flat() is g.flat()

    def test_arrays_read_only(self):
        g = small_compiled()
        flat = g.flat()
        with pytest.raises(ValueError):
            flat.first_arc[0] = 1
        with pytest.raises(ValueError):
            flat.arc_weight64[0] = 0.0
        with pytest.raises(ValueError):
            flat.final_weights[0] = 0.0
        # The flat view must not alias the graph's own (mutable) array.
        assert flat.final_weights is not g.final_weights

    def test_sizes(self):
        g = small_compiled()
        flat = g.flat()
        assert flat.num_states == g.num_states
        assert flat.num_arcs == g.num_arcs
