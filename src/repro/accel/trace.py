"""Decode event traces: record the functional search once, re-time it many
times (paper, Sections III-V).

:class:`DecodeTrace` / :class:`TraceRecorder` are the trace-once /
replay-many machinery behind the design-space sweeps.  The paper's
evaluation (Figures 4-14) varies only *timing* parameters -- cache
geometry, prefetch depth, hash sizing, DRAM latency -- under which the
beam search itself is invariant.  :class:`TraceRecorder` runs the
functional search exactly once and records every event the timing model
consumes as compact numpy arrays:

- the State Issuer's per-frame token walk (hash reads),
- the surviving tokens issued per frame (state fetches),
- every non-epsilon arc fetch with its destination and whether the
  relaxation improved the destination token (backpointer write),
- every epsilon-closure visit with the worklist provenance needed to
  reconstruct when the State Issuer saw each discovered token.

Since the kernel refactor the search itself is the shared
:class:`repro.decoder.kernel.ReferenceKernel` -- the scalar discipline
whose event order is bit-for-bit the hardware model's -- and the
recording is a :class:`~repro.decoder.kernel.KernelObserver`
(:class:`_TraceObserver`) subscribed to it.  Any search-semantics
change (a new pruning strategy, say) lands in the kernel once and the
recorder, the software decoders and the simulator all follow.

:class:`repro.accel.replay.TraceReplayer` re-prices such a trace under
any :class:`~repro.accel.config.AcceleratorConfig`, cycle-identical to
the monolithic :class:`~repro.accel.simulator.AcceleratorSimulator`
(asserted in ``tests/test_trace_replay.py``).  Traces are tied to a
graph *layout*: configurations using the Section IV-B sorted layout
replay a sorted-layout trace, which :func:`derive_sorted_trace`
relabels from the baseline trace without searching again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import DecodeError, SimulationError
from repro.acoustic.scorer import AcousticScores
from repro.decoder.kernel import (
    ClosureEvent,
    DecoderConfig,
    ExpandEvent,
    KernelObserver,
    PruneEvent,
    ReferenceKernel,
)
from repro.decoder.result import SearchStats
from repro.wfst.layout import CompiledWfst
from repro.wfst.sorted_layout import SortedWfst

def layout_fingerprint(graph: CompiledWfst) -> int:
    """The 64-bit layout key of a graph, for trace headers.

    Distinguishes layouts with equal state/arc counts -- in particular a
    graph from its Section IV-B sorted permutation -- so a trace is never
    replayed against the wrong address map.  Derived from the shared
    content fingerprint (computed once per graph and persisted by the
    graph compiler's artifact cache), so the trace layer, the sweep caches
    and the artifact store all agree on one graph identity.
    """
    return int(graph.fingerprint()[:16], 16)


# ----------------------------------------------------------------------
# The recorded functional event trace
# ----------------------------------------------------------------------
@dataclass
class DecodeTrace:
    """Every timing-relevant event of one functional beam-search decode.

    Array groups use CSR-style offsets.  With ``F`` frames there are
    ``F + 1`` epsilon passes: pass 0 is the initial closure from the start
    state, pass ``f + 1`` is the closure inside frame ``f``.

    Attributes:
        num_frames: frames decoded.
        frame_bytes: on-chip footprint of one frame of scores, in bytes
            (for the Acoustic Likelihood Buffer capacity check).
        num_states / num_arcs / layout_key: identity of the graph layout
            the trace was recorded on (guards against replaying on the
            wrong layout; see :func:`layout_fingerprint`).
        words / log_likelihood / reached_final: the decode's result.
        search: functional search statistics (timing-independent).
        read_states: state id of every token the State Issuer walks, frame
            by frame (``read_offsets`` delimits frames).
        emit_states: surviving state issued per frame, post pruning, in
            issue order; ``emit_first`` / ``emit_n`` give its contiguous
            non-epsilon arc block and ``emit_read_idx`` its position in the
            frame's token walk (``emit_offsets`` delimits frames).
        emit_arc_idx / emit_arc_dest / emit_improved: one entry per
            non-epsilon arc processed, in issue order: arc index (for the
            DRAM address), destination state (for the hash access) and
            whether the relaxation won (a backpointer write).
            ``emit_arc_offsets`` delimits frames.
        eps_states: state visited by the epsilon worklist, pass by pass;
            ``eps_first`` / ``eps_n`` give its epsilon arc block.
        eps_src: provenance of each visit: index (within the pass's arc
            stream) of the epsilon arc whose relaxation enqueued it, or -1
            for a pass seed.  ``eps_offsets`` delimits passes.
        eps_arc_idx / eps_arc_dest / eps_improved: one entry per epsilon
            arc processed (``eps_arc_offsets`` delimits passes).
    """

    num_frames: int
    frame_bytes: int
    num_states: int
    num_arcs: int
    layout_key: int

    words: Tuple[int, ...]
    log_likelihood: float
    reached_final: bool
    search: SearchStats

    read_states: np.ndarray
    read_offsets: np.ndarray
    emit_states: np.ndarray
    emit_first: np.ndarray
    emit_n: np.ndarray
    emit_read_idx: np.ndarray
    emit_offsets: np.ndarray
    emit_arc_idx: np.ndarray
    emit_arc_dest: np.ndarray
    emit_improved: np.ndarray
    emit_arc_offsets: np.ndarray
    eps_states: np.ndarray
    eps_first: np.ndarray
    eps_n: np.ndarray
    eps_src: np.ndarray
    eps_offsets: np.ndarray
    eps_arc_idx: np.ndarray
    eps_arc_dest: np.ndarray
    eps_improved: np.ndarray
    eps_arc_offsets: np.ndarray

    #: What :class:`repro.accel.replay.TraceReplayer` derives from this
    #: trace, each entry keyed by every parameter it depends on (REP003).
    #: Scratch state of this object: never compared or copied.
    _replay_memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    _ARRAYS = (
        "read_states", "read_offsets",
        "emit_states", "emit_first", "emit_n", "emit_read_idx",
        "emit_offsets",
        "emit_arc_idx", "emit_arc_dest", "emit_improved", "emit_arc_offsets",
        "eps_states", "eps_first", "eps_n", "eps_src", "eps_offsets",
        "eps_arc_idx", "eps_arc_dest", "eps_improved", "eps_arc_offsets",
    )

    @property
    def nbytes(self) -> int:
        """Total storage of the event arrays, in bytes."""
        return sum(getattr(self, name).nbytes for name in self._ARRAYS)


@dataclass
class _TraceBuilder:
    """Accumulates event lists during recording; frozen into numpy at the end."""

    read_states: List[int] = field(default_factory=list)
    read_offsets: List[int] = field(default_factory=lambda: [0])
    emit_states: List[int] = field(default_factory=list)
    emit_first: List[int] = field(default_factory=list)
    emit_n: List[int] = field(default_factory=list)
    emit_read_idx: List[int] = field(default_factory=list)
    emit_offsets: List[int] = field(default_factory=lambda: [0])
    emit_arc_idx: List[int] = field(default_factory=list)
    emit_arc_dest: List[int] = field(default_factory=list)
    emit_improved: List[bool] = field(default_factory=list)
    emit_arc_offsets: List[int] = field(default_factory=lambda: [0])
    eps_states: List[int] = field(default_factory=list)
    eps_first: List[int] = field(default_factory=list)
    eps_n: List[int] = field(default_factory=list)
    eps_src: List[int] = field(default_factory=list)
    eps_offsets: List[int] = field(default_factory=lambda: [0])
    eps_arc_idx: List[int] = field(default_factory=list)
    eps_arc_dest: List[int] = field(default_factory=list)
    eps_improved: List[bool] = field(default_factory=list)
    eps_arc_offsets: List[int] = field(default_factory=lambda: [0])


class _TraceObserver(KernelObserver):
    """Kernel observer that captures the hardware event stream.

    Subscribed to the reference discipline, whose events arrive in the
    exact order the accelerator consumes them: one prune event per frame
    (the token walk), one expand event per frame (state issues + arc
    fetches with backpointer-write flags) and one closure event per
    epsilon pass (FIFO worklist visits with provenance).
    """

    def __init__(self) -> None:
        self.builder = _TraceBuilder()

    def on_prune(self, event: PruneEvent) -> None:
        b = self.builder
        b.read_states.extend(event.walk_states)
        b.read_offsets.append(len(b.read_states))

    def on_expand(self, event: ExpandEvent) -> None:
        b = self.builder
        b.emit_states.extend(event.states)
        b.emit_first.extend(event.first)
        b.emit_n.extend(event.n_arcs)
        b.emit_read_idx.extend(event.read_idx)
        b.emit_offsets.append(len(b.emit_states))
        b.emit_arc_idx.extend(event.arc_idx)
        b.emit_arc_dest.extend(event.arc_dest)
        b.emit_improved.extend(event.improved)
        b.emit_arc_offsets.append(len(b.emit_arc_idx))

    def on_closure(self, event: ClosureEvent) -> None:
        b = self.builder
        b.eps_states.extend(event.states)
        b.eps_first.extend(event.first)
        b.eps_n.extend(event.n_arcs)
        b.eps_src.extend(event.src)
        b.eps_offsets.append(len(b.eps_states))
        b.eps_arc_idx.extend(event.arc_idx)
        b.eps_arc_dest.extend(event.arc_dest)
        b.eps_improved.extend(event.improved)
        b.eps_arc_offsets.append(len(b.eps_arc_idx))


class TraceRecorder:
    """One-shot functional pass of the accelerator's beam search.

    Runs the shared :class:`~repro.decoder.kernel.ReferenceKernel` --
    the same search as :class:`~repro.accel.simulator.AcceleratorSimulator`
    (token iteration order, pruning, relaxation arithmetic, FIFO epsilon
    worklist) with all timing machinery stripped out -- and records the
    event stream a :class:`~repro.accel.replay.TraceReplayer` needs, via
    the kernel observer protocol.

    The recorder walks whatever graph it is given.  A Section IV-B
    sorted-layout trace is the baseline trace relabelled
    (:func:`derive_sorted_trace`); recording one on ``sorted_wfst.graph``
    is the oracle that relabelling is tested against.

    Args:
        graph: compiled graph layout to search.
        beam: beam width in log-likelihood units (must be positive).
        max_active: histogram-pruning cap on tokens per frame (0 = off).
        config: full search configuration; overrides ``beam`` /
            ``max_active`` and selects the pruning strategy.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        beam: float = 12.0,
        max_active: int = 0,
        config: Optional[DecoderConfig] = None,
    ) -> None:
        self.config = config or DecoderConfig(beam=beam, max_active=max_active)
        self.graph = graph
        self._layout_key = layout_fingerprint(graph)
        self._kernel = ReferenceKernel(graph, self.config)

    # ------------------------------------------------------------------
    def record(self, scores: AcousticScores) -> DecodeTrace:
        """Search one utterance and return its event trace."""
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        observer = _TraceObserver()
        result = self._kernel.decode(scores, observers=(observer,))
        out = observer.builder
        return DecodeTrace(
            num_frames=scores.num_frames,
            frame_bytes=scores.frame_bytes_on_chip,
            num_states=self.graph.num_states,
            num_arcs=self.graph.num_arcs,
            layout_key=self._layout_key,
            words=result.words,
            log_likelihood=result.log_likelihood,
            reached_final=result.reached_final,
            search=result.stats,
            read_states=np.asarray(out.read_states, dtype=np.int64),
            read_offsets=np.asarray(out.read_offsets, dtype=np.int64),
            emit_states=np.asarray(out.emit_states, dtype=np.int64),
            emit_first=np.asarray(out.emit_first, dtype=np.int64),
            emit_n=np.asarray(out.emit_n, dtype=np.int64),
            emit_read_idx=np.asarray(out.emit_read_idx, dtype=np.int64),
            emit_offsets=np.asarray(out.emit_offsets, dtype=np.int64),
            emit_arc_idx=np.asarray(out.emit_arc_idx, dtype=np.int64),
            emit_arc_dest=np.asarray(out.emit_arc_dest, dtype=np.int64),
            emit_improved=np.asarray(out.emit_improved, dtype=np.bool_),
            emit_arc_offsets=np.asarray(out.emit_arc_offsets, dtype=np.int64),
            eps_states=np.asarray(out.eps_states, dtype=np.int64),
            eps_first=np.asarray(out.eps_first, dtype=np.int64),
            eps_n=np.asarray(out.eps_n, dtype=np.int64),
            eps_src=np.asarray(out.eps_src, dtype=np.int64),
            eps_offsets=np.asarray(out.eps_offsets, dtype=np.int64),
            eps_arc_idx=np.asarray(out.eps_arc_idx, dtype=np.int64),
            eps_arc_dest=np.asarray(out.eps_arc_dest, dtype=np.int64),
            eps_improved=np.asarray(out.eps_improved, dtype=np.bool_),
            eps_arc_offsets=np.asarray(out.eps_arc_offsets, dtype=np.int64),
        )



def derive_sorted_trace(
    trace: DecodeTrace, graph: CompiledWfst, sorted_graph: SortedWfst
) -> DecodeTrace:
    """``trace`` (recorded on ``graph``) relabelled onto a Section IV-B
    sorted layout of ``graph``, with no second search.

    :func:`~repro.wfst.sorted_layout.sort_states_by_arc_count` relabels
    states stably and keeps each state's arcs contiguous and in order, and
    the search walks tokens in insertion order, never in id order.  So
    state ids map through ``old_to_new`` and each arc keeps its offset
    from its owner's first arc (not from its non-epsilon or epsilon
    block).  ``tests/test_trace_replay.py`` holds the result equal to
    :class:`TraceRecorder` on ``sorted_graph.graph``.  Raises
    :class:`SimulationError` for a trace of another layout.
    """
    if trace.layout_key != layout_fingerprint(graph):
        raise SimulationError(
            "trace/layout mismatch: only a trace recorded on the baseline "
            "graph can be relabelled onto its sorted layout"
        )
    old_to_new = sorted_graph.old_to_new
    old_first = CompiledWfst.unpack_states(graph.states_packed)[0]
    new_first = CompiledWfst.unpack_states(sorted_graph.graph.states_packed)[0]
    shift = new_first[old_to_new] - old_first  # how far each state's arcs move
    emit_owners = np.repeat(trace.emit_states, trace.emit_n)
    eps_owners = np.repeat(trace.eps_states, trace.eps_n)
    return replace(
        trace,
        num_states=sorted_graph.graph.num_states,
        num_arcs=sorted_graph.graph.num_arcs,
        layout_key=layout_fingerprint(sorted_graph.graph),
        read_states=old_to_new[trace.read_states],
        emit_states=old_to_new[trace.emit_states],
        emit_first=trace.emit_first + shift[trace.emit_states],
        emit_arc_idx=trace.emit_arc_idx + shift[emit_owners],
        emit_arc_dest=old_to_new[trace.emit_arc_dest],
        eps_states=old_to_new[trace.eps_states],
        eps_first=trace.eps_first + shift[trace.eps_states],
        eps_arc_idx=trace.eps_arc_idx + shift[eps_owners],
        eps_arc_dest=old_to_new[trace.eps_arc_dest],
    )
