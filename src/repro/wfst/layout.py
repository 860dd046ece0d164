"""Packed binary memory layout of a decoding graph.

This mirrors the layout the accelerator reads from main memory (paper,
Section III, following Choi et al. [2]):

* **States array** -- one 64-bit record per state: index of the first
  outgoing arc (32 bits), number of non-epsilon arcs (16 bits), number of
  epsilon arcs (16 bits).
* **Arcs array** -- one 128-bit record per arc: destination state id,
  transition weight, input label (phoneme id) and output label (word id),
  32 bits each.  All outgoing arcs of a state are contiguous, non-epsilon
  arcs first.

The simulator computes DRAM addresses from these records, so the layout is
kept byte-exact: :data:`STATE_BYTES` = 8 and :data:`ARC_BYTES` = 16.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import GraphError
from repro.common.logmath import LOG_ZERO
from repro.wfst.fst import EPSILON, Fst
from repro.wfst.ops import arc_sort_key

#: Bytes per packed state record (paper: 64-bit structure).
STATE_BYTES: int = 8
#: Bytes per packed arc record (paper: 128 bits).
ARC_BYTES: int = 16

_MAX_U16 = (1 << 16) - 1
_MAX_U32 = (1 << 32) - 1


@dataclass(frozen=True)
class StateRecord:
    """Unpacked view of one 64-bit state record."""

    first_arc: int
    num_non_eps: int
    num_eps: int

    @property
    def num_arcs(self) -> int:
        return self.num_non_eps + self.num_eps


@dataclass(frozen=True)
class FlatLayout:
    """Structure-of-Arrays view of a compiled graph for vectorized decoding.

    The packed 64-bit state records are great for modelling the hardware but
    force per-state Python unpacking in the software decoders.  This view
    unpacks them once into parallel CSR-style arrays so a whole frontier of
    active states can be expanded with numpy gathers:

    * ``first_arc[s]`` / ``num_non_eps[s]`` / ``num_eps[s]`` -- the CSR
      offsets of state ``s``'s contiguous arc block (non-epsilon arcs first,
      exactly as stored in the packed layout);
    * ``eps_first[s]`` -- ``first_arc[s] + num_non_eps[s]``, the start of the
      epsilon sub-block;
    * ``arc_dest`` / ``arc_ilabel`` / ``arc_olabel`` -- the arc columns
      widened to ``int64`` so they can index numpy arrays directly;
    * ``arc_weight64`` -- arc weights widened ``float32 -> float64``, making
      vectorized score accumulation bit-identical to the scalar decoder's
      ``float(arc_weight[a])`` arithmetic.

    All arrays are read-only views shared by every decoder on the graph,
    and all are guaranteed **C-contiguous**: each state's arc block is a
    dense ``[first_arc, first_arc + out_degree)`` slice of the arc
    columns (non-epsilon arcs first), so the kernel's array ops
    (:mod:`repro.decoder.backends`) can walk ``arc_dest`` /
    ``arc_ilabel`` / ``arc_olabel`` / ``arc_weight64`` with unit-stride
    loads and no per-call copies.
    """

    first_arc: np.ndarray
    num_non_eps: np.ndarray
    num_eps: np.ndarray
    eps_first: np.ndarray
    out_degree: np.ndarray
    arc_dest: np.ndarray
    arc_ilabel: np.ndarray
    arc_olabel: np.ndarray
    arc_weight64: np.ndarray
    final_weights: np.ndarray

    @property
    def num_states(self) -> int:
        return len(self.first_arc)

    @property
    def num_arcs(self) -> int:
        return len(self.arc_dest)

    @classmethod
    def from_compiled(cls, graph: "CompiledWfst") -> "FlatLayout":
        """Unpack a compiled graph's state records into SoA form."""
        first_arc, num_non_eps, num_eps = CompiledWfst.unpack_states(
            graph.states_packed
        )
        arrays = dict(
            first_arc=first_arc,
            num_non_eps=num_non_eps,
            num_eps=num_eps,
            eps_first=first_arc + num_non_eps,
            out_degree=num_non_eps + num_eps,
            arc_dest=graph.arc_dest.astype(np.int64),
            arc_ilabel=graph.arc_ilabel.astype(np.int64),
            arc_olabel=graph.arc_olabel.astype(np.int64),
            arc_weight64=graph.arc_weight.astype(np.float64),
            final_weights=graph.final_weights.copy(),
        )
        # The contiguity guarantee the kernel's array ops rely on:
        # astype()/copy() already produce C-order arrays, but make it an
        # invariant of the view, not an accident of construction (the
        # source arrays may be mmap-backed or sliced).
        arrays = {
            name: np.ascontiguousarray(arr) for name, arr in arrays.items()
        }
        for arr in arrays.values():
            arr.setflags(write=False)
        return cls(**arrays)


class CompiledWfst:
    """Immutable, array-backed decoding graph.

    Arc attributes are stored as parallel numpy arrays for fast access from
    the decoders; :meth:`pack_state` / :meth:`unpack_state` and
    :meth:`pack_arc` / :meth:`unpack_arc` demonstrate the bit-exact hardware
    encoding and are exercised by the test suite.
    """

    def __init__(
        self,
        start: int,
        states_packed: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
        arc_ilabel: np.ndarray,
        arc_olabel: np.ndarray,
        final_weights: np.ndarray,
    ) -> None:
        self.start = int(start)
        self.states_packed = states_packed
        self.arc_dest = arc_dest
        self.arc_weight = arc_weight
        self.arc_ilabel = arc_ilabel
        self.arc_olabel = arc_olabel
        self.final_weights = final_weights
        self._flat: Optional[FlatLayout] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fst(cls, fst: Fst, arcsort: bool = True) -> "CompiledWfst":
        """Freeze a mutable FST into the packed layout without mutating it.

        With ``arcsort=True`` (the default) each state's arcs are packed in
        the canonical sorted order (non-epsilon first, then by input
        label -- see :func:`repro.wfst.ops.arc_sort_key`).  With
        ``arcsort=False`` arcs keep their construction order, only
        partitioned so non-epsilon arcs come first (the layout's hard
        requirement).
        """
        n_states = fst.num_states
        n_arcs = fst.num_arcs
        if n_states > _MAX_U32 or n_arcs > _MAX_U32:
            raise GraphError("graph exceeds 32-bit index space")

        states_packed = np.zeros(n_states, dtype=np.uint64)
        arc_dest = np.zeros(n_arcs, dtype=np.uint32)
        arc_weight = np.zeros(n_arcs, dtype=np.float32)
        arc_ilabel = np.zeros(n_arcs, dtype=np.uint32)
        arc_olabel = np.zeros(n_arcs, dtype=np.uint32)
        final_weights = np.full(n_states, LOG_ZERO, dtype=np.float64)

        cursor = 0
        for s in fst.states():
            arcs = fst.arcs(s)
            if arcsort:
                arcs = sorted(arcs, key=arc_sort_key)
            non_eps = [a for a in arcs if not a.is_epsilon]
            eps = [a for a in arcs if a.is_epsilon]
            if len(non_eps) > _MAX_U16 or len(eps) > _MAX_U16:
                raise GraphError(f"state {s} exceeds 16-bit arc counts")
            states_packed[s] = cls.pack_state(
                StateRecord(cursor, len(non_eps), len(eps))
            )
            for arc in non_eps + eps:
                arc_dest[cursor] = arc.dest
                arc_weight[cursor] = arc.weight
                arc_ilabel[cursor] = arc.ilabel
                arc_olabel[cursor] = arc.olabel
                cursor += 1
            final_weights[s] = fst.final_weight(s)

        return cls(
            fst.start,
            states_packed,
            arc_dest,
            arc_weight,
            arc_ilabel,
            arc_olabel,
            final_weights,
        )

    def to_fst(self) -> Fst:
        """Rebuild a mutable :class:`Fst` from the packed layout.

        The inverse of :meth:`from_fst` (up to arc order, which is already
        canonical in the packed form): used to re-enter the graph-op world,
        e.g. to run epsilon removal on an already-compiled graph.
        """
        fst = Fst()
        fst.add_states(self.num_states)
        fst.set_start(self.start)
        for s in range(self.num_states):
            first, n_non_eps, n_eps = self.arc_range(s)
            for a in range(first, first + n_non_eps + n_eps):
                fst.add_arc(
                    s,
                    int(self.arc_ilabel[a]),
                    int(self.arc_olabel[a]),
                    float(self.arc_weight[a]),
                    int(self.arc_dest[a]),
                )
            if self.is_final(s):
                fst.set_final(s, self.final_weight(s))
        return fst

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content fingerprint of the packed layout (32 hex chars).

        Covers every packed array plus the start state, so two graphs share
        a fingerprint iff they are bit-identical in memory.  Computed once
        and cached on the instance; the on-disk layout
        (:mod:`repro.wfst.io`) persists it in ``meta.json`` so cache-hit
        loads skip the hash as well.  This is the single graph identity the
        trace/replay layer and the sweep caches key on.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(struct.pack("<q", self.start))
            for arr in (
                self.states_packed,
                self.arc_dest,
                self.arc_weight,
                self.arc_ilabel,
                self.arc_olabel,
                self.final_weights,
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            self._fingerprint = h.hexdigest()[:32]
        return self._fingerprint

    # ------------------------------------------------------------------
    # Bit-exact packing
    # ------------------------------------------------------------------
    @staticmethod
    def pack_state(record: StateRecord) -> int:
        """Pack a state record into its 64-bit hardware encoding."""
        if not 0 <= record.first_arc <= _MAX_U32:
            raise GraphError(f"first_arc out of range: {record.first_arc}")
        if not 0 <= record.num_non_eps <= _MAX_U16:
            raise GraphError(f"num_non_eps out of range: {record.num_non_eps}")
        if not 0 <= record.num_eps <= _MAX_U16:
            raise GraphError(f"num_eps out of range: {record.num_eps}")
        return (
            record.first_arc
            | (record.num_non_eps << 32)
            | (record.num_eps << 48)
        )

    @staticmethod
    def unpack_state(packed: int) -> StateRecord:
        """Unpack a 64-bit state record."""
        packed = int(packed)
        return StateRecord(
            first_arc=packed & _MAX_U32,
            num_non_eps=(packed >> 32) & _MAX_U16,
            num_eps=(packed >> 48) & _MAX_U16,
        )

    @staticmethod
    def pack_states(
        first_arc: np.ndarray, num_non_eps: np.ndarray, num_eps: np.ndarray
    ) -> np.ndarray:
        """:meth:`pack_state` for whole int64 columns, same range checks."""
        for name, column, limit in (
            ("first_arc", first_arc, _MAX_U32),
            ("num_non_eps", num_non_eps, _MAX_U16),
            ("num_eps", num_eps, _MAX_U16),
        ):
            if column.size and not 0 <= column.min() <= column.max() <= limit:
                raise GraphError(f"{name} out of range")
        return (
            first_arc.astype(np.uint64)
            | (num_non_eps.astype(np.uint64) << np.uint64(32))
            | (num_eps.astype(np.uint64) << np.uint64(48))
        )

    @staticmethod
    def unpack_states(
        packed: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`unpack_state` for a whole states array, as int64
        ``(first_arc, num_non_eps, num_eps)`` columns."""
        first_arc = (packed & np.uint64(_MAX_U32)).astype(np.int64)
        num_non_eps = (
            (packed >> np.uint64(32)) & np.uint64(_MAX_U16)
        ).astype(np.int64)
        num_eps = (packed >> np.uint64(48)).astype(np.int64)
        return first_arc, num_non_eps, num_eps

    @staticmethod
    def pack_arc(dest: int, weight: float, ilabel: int, olabel: int) -> bytes:
        """Pack one arc into its 128-bit hardware encoding."""
        buf = np.zeros(1, dtype=[("d", "<u4"), ("w", "<f4"), ("i", "<u4"), ("o", "<u4")])
        buf[0] = (dest, weight, ilabel, olabel)
        return buf.tobytes()

    @staticmethod
    def unpack_arc(raw: bytes) -> Tuple[int, float, int, int]:
        """Unpack one 128-bit arc record."""
        if len(raw) != ARC_BYTES:
            raise GraphError(f"arc record must be {ARC_BYTES} bytes")
        buf = np.frombuffer(
            raw, dtype=[("d", "<u4"), ("w", "<f4"), ("i", "<u4"), ("o", "<u4")]
        )[0]
        return int(buf["d"]), float(buf["w"]), int(buf["i"]), int(buf["o"])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.states_packed)

    @property
    def num_arcs(self) -> int:
        return len(self.arc_dest)

    @property
    def states_size_bytes(self) -> int:
        return self.num_states * STATE_BYTES

    @property
    def arcs_size_bytes(self) -> int:
        return self.num_arcs * ARC_BYTES

    @property
    def total_size_bytes(self) -> int:
        return self.states_size_bytes + self.arcs_size_bytes

    def flat(self) -> FlatLayout:
        """The Structure-of-Arrays view, built lazily and cached."""
        if self._flat is None:
            self._flat = FlatLayout.from_compiled(self)
        return self._flat

    def state_record(self, state: int) -> StateRecord:
        """The unpacked 64-bit record for ``state``."""
        return self.unpack_state(self.states_packed[state])

    def out_degree(self, state: int) -> int:
        rec = self.state_record(state)
        return rec.num_arcs

    def arc_range(self, state: int) -> Tuple[int, int, int]:
        """``(first_arc, num_non_eps, num_eps)`` for ``state``."""
        rec = self.state_record(state)
        return rec.first_arc, rec.num_non_eps, rec.num_eps

    def final_weight(self, state: int) -> float:
        return float(self.final_weights[state])

    def is_final(self, state: int) -> bool:
        return self.final_weights[state] > LOG_ZERO / 2

    def final_states(self) -> List[int]:
        return [int(s) for s in np.nonzero(self.final_weights > LOG_ZERO / 2)[0]]

    # Address map (used by the accelerator memory model) ----------------
    def state_address(self, state: int, base: int = 0) -> int:
        """Byte address of the packed record of ``state``."""
        return base + state * STATE_BYTES

    def arc_address(self, arc_index: int, base: int = 0) -> int:
        """Byte address of the packed record of arc ``arc_index``."""
        return base + arc_index * ARC_BYTES

    def epsilon_fraction(self) -> float:
        """Fraction of arcs that are epsilon (Kaldi's graph: 11.5%)."""
        if self.num_arcs == 0:
            return 0.0
        return float(np.count_nonzero(self.arc_ilabel == EPSILON)) / self.num_arcs
