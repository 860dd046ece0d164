"""Arc-count-sorted WFST layout (paper, Section IV-B).

The bandwidth-saving technique re-orders states so that all states with at
most N outgoing arcs come first, grouped and sorted by arc count.  Inside the
group of states with exactly ``k`` arcs, arc records are laid out densely, so
the first-arc index of a state is a linear function of its state index:

    ``arc_index = state_index * k + offset[k]``

The hardware realises this with N parallel comparators against the running
group boundaries (S1, S1+S2, ...) plus a 16-entry offset table, and thereby
skips the state fetch entirely for those states.  States with more than N
arcs keep the indirect 64-bit state record.

:class:`SortedWfst` produces the re-ordered :class:`CompiledWfst` together
with the comparator/offset metadata, and :meth:`SortedWfst.direct_lookup`
models the comparator bank: it returns the arc range without touching the
states array whenever the state is in the sorted region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.errors import GraphError
from repro.wfst.layout import CompiledWfst, StateRecord

#: Paper's operating point: direct arc computation for states with <= 16 arcs.
DEFAULT_MAX_DIRECT_ARCS: int = 16


@dataclass(frozen=True)
class DirectLookupTables:
    """Comparator boundaries and offset table for the State Issuer.

    Attributes:
        max_direct_arcs: N, the largest out-degree handled directly.
        boundaries: cumulative state-count boundaries; ``boundaries[k-1]`` is
            the index of the first state with more than ``k`` arcs among the
            sorted groups (the values S1, S1+S2, ... fed to the comparators).
        group_start: first state index of each group ``k`` (1-based key).
        offsets: per-group additive term so that
            ``arc = state * k + offsets[k]``.
    """

    max_direct_arcs: int
    boundaries: Tuple[int, ...]
    group_start: Dict[int, int]
    offsets: Dict[int, int]


class SortedWfst:
    """A decoding graph in the bandwidth-optimised sorted layout."""

    def __init__(
        self,
        graph: CompiledWfst,
        tables: DirectLookupTables,
        old_to_new: np.ndarray,
    ) -> None:
        self.graph = graph
        self.tables = tables
        self.old_to_new = old_to_new

    @property
    def max_direct_arcs(self) -> int:
        return self.tables.max_direct_arcs

    def direct_lookup(self, state: int) -> Optional[StateRecord]:
        """Model the comparator bank of the modified State Issuer.

        Returns the state record computed arithmetically when ``state`` lies
        in the sorted region (out-degree <= N), or ``None`` when the
        indirect state fetch is required.  The returned record's epsilon
        split is not known without reading the arcs, so ``num_non_eps``
        carries the total count and ``num_eps`` is zero; the Arc Issuer
        discovers epsilon arcs from the arc records themselves (ilabel 0).
        """
        boundaries = self.tables.boundaries
        if not boundaries or state >= boundaries[-1]:
            return None
        # The comparator bank: find the first boundary exceeding the index.
        for k, bound in enumerate(boundaries, start=1):
            if state < bound:
                first_arc = state * k + self.tables.offsets[k]
                return StateRecord(first_arc, k, 0)
        return None

    def covered_state_fraction(self) -> float:
        """Static fraction of states whose arc index is directly computable."""
        if self.graph.num_states == 0:
            return 0.0
        if not self.tables.boundaries:
            return 0.0
        return self.tables.boundaries[-1] / self.graph.num_states


def sort_states_by_arc_count(
    graph: CompiledWfst,
    max_direct_arcs: int = DEFAULT_MAX_DIRECT_ARCS,
) -> SortedWfst:
    """Re-order a compiled graph into the sorted layout.

    States with out-degree in ``1..max_direct_arcs`` are moved to the front,
    grouped by out-degree ascending; remaining states (including out-degree
    zero, which needs no arc lookup but would corrupt the dense grouping)
    follow in original order.
    """
    if max_direct_arcs < 1:
        raise GraphError("max_direct_arcs must be >= 1")

    n = graph.num_states
    first_arc, num_non_eps, num_eps = CompiledWfst.unpack_states(
        graph.states_packed
    )
    degrees = num_non_eps + num_eps

    # A stable sort on the group key keeps every group, and the rest, in
    # original state order.
    direct = (degrees >= 1) & (degrees <= max_direct_arcs)
    group = np.where(direct, degrees, max_direct_arcs + 1)
    new_order = np.argsort(group, kind="stable")
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[new_order] = np.arange(n, dtype=np.int64)
    sizes = np.bincount(group, minlength=max_direct_arcs + 2)[
        1 : max_direct_arcs + 1
    ]
    boundaries = np.cumsum(sizes)
    group_start = boundaries - sizes

    # Rebuild arc arrays in the new state order; arcs of one state stay
    # contiguous and in their original relative order.
    counts = degrees[new_order]
    new_first = np.cumsum(counts) - counts
    n_arcs = int(counts.sum())
    arc_order = np.repeat(first_arc[new_order] - new_first, counts) + np.arange(
        n_arcs, dtype=np.int64
    )
    arc_dest = old_to_new[graph.arc_dest[arc_order].astype(np.int64)].astype(
        np.uint32
    )
    arc_weight = graph.arc_weight[arc_order].astype(np.float32, copy=False)
    arc_ilabel = graph.arc_ilabel[arc_order].astype(np.uint32, copy=False)
    arc_olabel = graph.arc_olabel[arc_order].astype(np.uint32, copy=False)
    states_packed = CompiledWfst.pack_states(
        new_first, num_non_eps[new_order], num_eps[new_order]
    )
    final_weights = graph.final_weights[new_order].astype(np.float64, copy=False)

    # Derive the offset table: within group k the states are dense, so the
    # first arc of the group anchors the linear map.  An empty group is
    # anchored where it would begin (past the last state: at the arc
    # count), keeping the map consistent with its neighbours.
    ks = np.arange(1, max_direct_arcs + 1, dtype=np.int64)
    offsets = np.append(new_first, n_arcs)[group_start] - group_start * ks

    sorted_graph = CompiledWfst(
        start=int(old_to_new[graph.start]),
        states_packed=states_packed,
        arc_dest=arc_dest,
        arc_weight=arc_weight,
        arc_ilabel=arc_ilabel,
        arc_olabel=arc_olabel,
        final_weights=final_weights,
    )
    keys = ks.tolist()
    tables = DirectLookupTables(
        max_direct_arcs=max_direct_arcs,
        boundaries=tuple(boundaries.tolist()),
        group_start=dict(zip(keys, group_start.tolist())),
        offsets=dict(zip(keys, offsets.tolist())),
    )
    return SortedWfst(sorted_graph, tables, old_to_new)
