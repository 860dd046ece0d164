"""The one frame-recurrence kernel under every decode engine.

Every engine in this repository -- the scalar reference decoder, the
vectorized batch engine, streaming sessions, the GPU workload model and
the accelerator trace recorder -- runs the same algorithm: the WFST
token-passing beam search of the paper's Section II.  Per 10 ms frame
the recurrence is

    prune -> non-epsilon expand -> destination merge -> epsilon closure

This module is the single home of that recurrence.  It provides two
*disciplines* over one shared configuration, pruning-strategy layer and
observer protocol:

* :class:`SearchKernel` -- the vectorized discipline.  One
  :meth:`~SearchKernel.step_frame` advances a :class:`Frontier` by one
  frame as flat numpy sweeps over the
  :class:`~repro.wfst.layout.FlatLayout` Structure-of-Arrays graph view
  (bulk CSR arc gather, fused score accumulation, segment-max merge,
  round-based epsilon closure).  :meth:`~SearchKernel.fused_step`
  advances many frontiers in a single combined sweep (the continuous
  batching fast path).  ``BatchDecoder``, ``DecodeSession`` and
  ``GpuViterbiDecoder`` all run on it.

* :class:`ReferenceKernel` -- the scalar oracle discipline.  A dict-based
  token walk that reproduces the *exact* event order of the hardware
  model in :class:`repro.accel.simulator.AcceleratorSimulator`: tokens
  are walked in insertion order, relaxations are first-wins on ties, and
  the epsilon closure is a FIFO worklist with re-visits on improvement.
  ``ViterbiDecoder`` and ``repro.accel.trace.TraceRecorder`` run on it --
  the recorder as a :class:`KernelObserver` -- which is what keeps trace
  replay cycle-identical to the monolithic simulator.

Both disciplines compute the same fixpoint per frame, so word output,
path likelihoods and every order-independent counter (``tokens_pruned``,
``states_expanded``, ``arcs_processed``, ``tokens_created``,
``active_tokens_per_frame``) agree across all engines; only the
order-dependent ``tokens_updated`` / ``epsilon_arcs_processed`` counters
are discipline approximations in the vectorized kernel.

Kernel backend
--------------
The vectorized discipline's pure-array inner loops (CSR arc gather,
fused gather+score expansion, segment-best merge, the traceback's
reachability mark) are the six ops of
:class:`~repro.decoder.backends.KernelBackend`, implemented once in
numpy.  ``SearchKernel.backend`` holds them and is assignable, so a
forwarding object (a timing proxy) can wrap them.  All pruning, merge
policy, trace and observer logic stays in this module.

Pruning strategies
------------------
Pruning is a pluggable per-utterance strategy created from
:class:`DecoderConfig` (one fresh instance per decode; see
:meth:`DecoderConfig.make_pruner`):

* ``pruning="beam"`` -- the classic fixed beam: a token survives if its
  likelihood is within ``beam`` of the frame's best.  With
  ``max_active > 0`` a histogram cap keeps only the best ``max_active``
  survivors (this beam+cap combination is the paper's operating point).
* ``pruning="adaptive"`` -- the executable version of the paper's Fig. 9
  beam ablation axis: the beam widens/narrows multiplicatively every
  frame to hold the *post-beam* survivor count near ``target_active``,
  clamped to ``[min_beam, max_beam]``.  The adaptation signal is the
  survivor count before the histogram cap, so the feedback is identical
  in every engine and the fused multi-session sweep.

Observer protocol
-----------------
Engines that need more than the decode result subscribe a
:class:`KernelObserver` instead of forking the recurrence: the kernel
emits :class:`PruneEvent` / :class:`ExpandEvent` / :class:`ClosureEvent`
payloads in issue order.  The GPU model derives kernel-launch/atomic
work counts and the accelerator trace recorder captures the full
hardware event stream this way; an event carries only the fields those
two read.  Event construction is skipped entirely when no observers are
attached.

Emptied-beam policy (shared by every engine)
--------------------------------------------
* If the frontier is empty at the *start* of a frame -- which can only
  happen when the previous frame's survivors had no outgoing non-epsilon
  arcs -- the kernel raises :class:`~repro.common.errors.DecodeError`
  (``"beam emptied the search at frame F"``).  There is no silent
  fallback mid-utterance: an empty frontier means the graph cannot
  consume the remaining audio.
* At *finalize*, if no live token is in a final state, every engine
  falls back to the best live token and reports
  ``reached_final=False`` rather than raising.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.common.logmath import LOG_ZERO
from repro.acoustic.scorer import AcousticScores
from repro.decoder.backends import KernelBackend, resolve_backend
from repro.decoder.result import DecodeResult, SearchStats
from repro.decoder.traceback import TRACE_FIELD_DTYPE, TokenTrace
from repro.wfst.layout import CompiledWfst, FlatLayout

#: Pruning strategies selectable through :class:`DecoderConfig`.
PRUNING_STRATEGIES = ("beam", "adaptive")


# ----------------------------------------------------------------------
# Configuration and pruning strategies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecoderConfig:
    """Search parameters shared by every decode engine.

    Attributes:
        beam: log-likelihood pruning window below the frame's best token
            (the initial window under ``pruning="adaptive"``).
        max_active: hard cap on surviving tokens per frame (histogram
            pruning); 0 disables the cap.
        pruning: ``"beam"`` (fixed window) or ``"adaptive"`` (the window
            tracks ``target_active``); see the module docstring.
        target_active: adaptive-beam target for the post-beam survivor
            count per frame (required > 0 when ``pruning="adaptive"``).
        min_beam / max_beam: clamp range of the adaptive window.
            ``max_beam=0`` defaults to ``4 * beam``.
        adapt_rate: exponent of the multiplicative update
            ``beam *= (target_active / survivors) ** adapt_rate``;
            in (0, 1], higher reacts faster.
        commit_interval: frames between committed-prefix commits of the
            streaming traceback buffer (see
            :mod:`repro.decoder.traceback`): every ``commit_interval``
            frames a session emits the words all live hypotheses agree
            on and garbage-collects unreachable trace records, bounding
            peak trace memory by the window instead of the utterance.
            0 (the default) keeps the historical append-only behaviour.
            Word output is identical either way; only partial-latency
            and memory change.
    """

    beam: float = 12.0
    max_active: int = 0
    pruning: str = "beam"
    target_active: int = 0
    min_beam: float = 1.0
    max_beam: float = 0.0
    adapt_rate: float = 0.5
    commit_interval: int = 0

    def __post_init__(self) -> None:
        if self.beam <= 0:
            raise ConfigError("beam must be positive")
        if self.commit_interval < 0:
            raise ConfigError("commit_interval must be >= 0")
        if self.max_active < 0:
            raise ConfigError("max_active must be >= 0")
        if self.pruning not in PRUNING_STRATEGIES:
            raise ConfigError(
                f"unknown pruning strategy {self.pruning!r} "
                f"(choose from {PRUNING_STRATEGIES})"
            )
        if self.target_active < 0:
            raise ConfigError("target_active must be >= 0")
        if self.pruning == "adaptive":
            if self.target_active == 0:
                raise ConfigError(
                    "adaptive pruning requires target_active > 0"
                )
            if self.min_beam <= 0:
                raise ConfigError("min_beam must be positive")
            if self.min_beam > self.beam:
                raise ConfigError("min_beam must not exceed beam")
            if self.resolved_max_beam < self.beam:
                raise ConfigError("max_beam must be >= beam (or 0 for auto)")
            if not 0 < self.adapt_rate <= 1:
                raise ConfigError("adapt_rate must be in (0, 1]")

    @property
    def resolved_max_beam(self) -> float:
        """The adaptive clamp ceiling (``max_beam`` or ``4 * beam``)."""
        return self.max_beam if self.max_beam > 0 else 4.0 * self.beam

    def make_pruner(self) -> "PruningStrategy":
        """A fresh per-utterance pruning strategy instance."""
        if self.pruning == "adaptive":
            return AdaptiveBeamPruning(self)
        return FixedBeamPruning(self)


class PruningStrategy:
    """Per-utterance pruning state driving one decode.

    The kernel calls, once per frame and in this order:

    1. :meth:`threshold` with the frame's best token score -- tokens with
       ``score >= threshold`` survive the beam;
    2. :meth:`cap` -- if positive and the survivors exceed it, only the
       best ``cap`` tokens are kept (histogram pruning);
    3. :meth:`observe` with the *post-beam, pre-cap* survivor count --
       the adaptation feedback.

    All arithmetic runs on plain Python floats so every engine (scalar,
    vectorized, fused multi-session) prunes bit-identically.
    """

    def threshold(self, best: float) -> float:
        raise NotImplementedError

    def cap(self) -> int:
        raise NotImplementedError

    def observe(self, survivors: int) -> None:
        raise NotImplementedError

    @property
    def current_beam(self) -> float:
        raise NotImplementedError


class FixedBeamPruning(PruningStrategy):
    """Fixed beam window with an optional histogram cap."""

    def __init__(self, config: DecoderConfig) -> None:
        self._beam = float(config.beam)
        self._cap = int(config.max_active)

    def threshold(self, best: float) -> float:
        return best - self._beam

    def cap(self) -> int:
        return self._cap

    def observe(self, survivors: int) -> None:  # fixed window: no feedback
        pass

    @property
    def current_beam(self) -> float:
        return self._beam


class AdaptiveBeamPruning(PruningStrategy):
    """Beam window that tracks a target active-token count.

    After each frame's beam pruning the window is scaled by
    ``(target_active / survivors) ** adapt_rate`` and clamped to
    ``[min_beam, max_beam]``: too many survivors narrow the beam, too few
    widen it.  The update uses the pre-cap survivor count, so composing
    with ``max_active`` does not saturate the feedback signal.
    """

    def __init__(self, config: DecoderConfig) -> None:
        self._beam = float(config.beam)
        self._cap = int(config.max_active)
        self._target = int(config.target_active)
        self._min = float(config.min_beam)
        self._max = float(config.resolved_max_beam)
        self._rate = float(config.adapt_rate)

    def threshold(self, best: float) -> float:
        return best - self._beam

    def cap(self) -> int:
        return self._cap

    def observe(self, survivors: int) -> None:
        ratio = self._target / max(survivors, 1)
        beam = self._beam * ratio ** self._rate
        self._beam = min(max(beam, self._min), self._max)

    @property
    def current_beam(self) -> float:
        return self._beam


# ----------------------------------------------------------------------
# Observer protocol
# ----------------------------------------------------------------------
@dataclass
class PruneEvent:
    """One frame's pruning, in token-walk order.

    ``walk_states`` is the full pre-prune token walk (the State Issuer's
    hash-table read order in the reference discipline; ascending state
    order in the vectorized discipline).  ``survivor_states`` gives the
    post-prune tokens in issue order.
    """

    frame: int
    walk_states: Sequence[int]
    survivor_states: Sequence[int]
    threshold: float
    beam_pruned: int
    cap_pruned: int


@dataclass
class ExpandEvent:
    """One frame's non-epsilon expansion, in issue order.

    Per survivor: ``states`` / ``first`` / ``n_arcs`` / ``read_idx`` (the
    contiguous arc block and walk position).  Per arc: ``arc_idx`` /
    ``arc_dest`` plus, in the reference discipline only, ``improved``
    (exact running relaxation-won flags -- the backpointer-write stream).
    """

    frame: int
    states: Sequence[int]
    first: Sequence[int]
    n_arcs: Sequence[int]
    read_idx: Sequence[int]
    arc_idx: Sequence[int]
    arc_dest: Sequence[int]
    improved: Optional[Sequence[bool]] = None


@dataclass
class ClosureEvent:
    """One epsilon-closure pass (reference) or round (vectorized).

    A decode's first closure is the initial one from the start state;
    each frame then closes once.  The reference discipline emits exactly
    one event per pass covering the whole FIFO worklist, with ``src``
    provenance (index of the epsilon arc event that enqueued each visit,
    -1 for seeds); the vectorized discipline emits one event per
    relaxation round with ``src=None``.  ``improved`` flags are exact in
    the reference discipline and measured against the pre-round token
    scores in the vectorized one.
    """

    states: Sequence[int]
    first: Sequence[int]
    n_arcs: Sequence[int]
    src: Optional[Sequence[int]]
    arc_idx: Sequence[int]
    arc_dest: Sequence[int]
    improved: Sequence[bool]


class KernelObserver:
    """Base observer: subclass and override what you need.

    Events arrive in issue order: per frame one :meth:`on_prune`, one
    :meth:`on_expand` (even when the frontier has no non-epsilon arcs)
    and one or more :meth:`on_closure` (one per pass in the reference
    discipline -- always emitted, possibly empty -- or one per non-empty
    round in the vectorized discipline, where a pass with no epsilon
    work emits nothing).
    """

    def on_prune(self, event: PruneEvent) -> None:
        pass

    def on_expand(self, event: ExpandEvent) -> None:
        pass

    def on_closure(self, event: ClosureEvent) -> None:
        pass


# ----------------------------------------------------------------------
# Array helpers of the vectorized discipline (solo and fused sweeps)
# ----------------------------------------------------------------------
def _top_cap_mask(scores: np.ndarray, cap: int) -> np.ndarray:
    """Mask of the ``cap`` best of ``scores`` (``0 < cap < scores.size``).

    Histogram pruning as a selection, not a sort: everything above the
    cap-th best score survives, and of the tokens equal to it the
    earliest -- what a stable descending sort would keep.
    """
    cut = scores.size - cap
    kth = np.partition(scores, cut)[cut]
    mask = scores > kth
    ties = np.flatnonzero(scores == kth)
    mask[ties[: cap - np.count_nonzero(mask)]] = True
    return mask


def _insert_sorted(
    pos: np.ndarray,
    arrays: Tuple[np.ndarray, ...],
    values: Tuple[np.ndarray, ...],
) -> Tuple[np.ndarray, ...]:
    """``np.insert(a, pos, v)`` for parallel arrays sharing ascending ``pos``.

    The slots the new items land in are computed once and every array is
    scattered through them.
    """
    total = arrays[0].size + pos.size
    slots = pos + np.arange(pos.size, dtype=np.int64)
    old = np.ones(total, dtype=bool)
    old[slots] = False
    merged = []
    for array, value in zip(arrays, values):
        out = np.empty(total, dtype=array.dtype)
        out[slots] = value
        out[old] = array
        merged.append(out)
    return tuple(merged)


# ----------------------------------------------------------------------
# Frontier: one utterance's live search state
# ----------------------------------------------------------------------
@dataclass
class Frontier:
    """Per-utterance search state between frames.

    ``states`` is kept sorted ascending; ``scores`` / ``bps`` are parallel
    to it.  The invariant makes the epsilon-closure merges a sorted-array
    merge instead of a hash probe.  ``num_frames`` counts the frames
    consumed so far (sessions grow it one push at a time).  Each frontier
    owns its pruning-strategy state and observer list.
    """

    states: np.ndarray
    scores: np.ndarray
    bps: np.ndarray
    trace: TokenTrace
    stats: SearchStats
    num_frames: int
    pruner: PruningStrategy
    observers: Tuple[KernelObserver, ...] = ()


def _set_empty(frontier: Frontier) -> None:
    frontier.states = np.empty(0, dtype=np.int64)
    frontier.scores = np.empty(0, dtype=np.float64)
    frontier.bps = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# The vectorized discipline
# ----------------------------------------------------------------------
class SearchKernel:
    """Vectorized frame recurrence over the SoA graph view.

    One kernel instance is shared by every frontier on a graph (the flat
    layout and config are immutable); per-utterance state lives in the
    :class:`Frontier`.
    """

    def __init__(
        self, graph: CompiledWfst, config: DecoderConfig = DecoderConfig()
    ) -> None:
        self.graph = graph
        self.config = config
        self.flat: FlatLayout = graph.flat()
        # Every word a decode records must fit the trace's 32-bit field.
        max_word = int(np.iinfo(TRACE_FIELD_DTYPE).max)
        top = int(self.flat.arc_olabel.max()) if self.flat.num_arcs else 0
        if top > max_word:
            raise ConfigError(
                f"graph output label {top} does not fit the token trace's "
                f"32-bit word field (max {max_word})"
            )
        #: The array ops running the inner sweeps (see
        #: repro.decoder.backends); assignable, e.g. to a timing proxy.
        self.backend: KernelBackend = resolve_backend()
        #: Shortest score row that every arc's ilabel can index safely.
        self.min_score_width: int = (
            int(self.flat.arc_ilabel.max()) + 1 if self.flat.num_arcs else 1
        )

    # ------------------------------------------------------------------
    def init_frontier(
        self, observers: Sequence[KernelObserver] = ()
    ) -> Frontier:
        """A fresh frontier at the start state, epsilon closure applied."""
        trace = TokenTrace(
            commit_interval=self.config.commit_interval, backend=self.backend
        )
        root = trace.append_bulk(
            np.array([-1], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        frontier = Frontier(
            states=np.array([self.graph.start], dtype=np.int64),
            scores=np.array([0.0], dtype=np.float64),
            bps=root,
            trace=trace,
            stats=SearchStats(),
            num_frames=0,
            pruner=self.config.make_pruner(),
            observers=tuple(observers),
        )
        self._closure(frontier)
        return frontier

    def step_frame(
        self, frontier: Frontier, frame: int, frame_scores: np.ndarray
    ) -> None:
        """One frame of the recurrence: prune, expand, merge, closure."""
        flat = self.flat
        stats = frontier.stats
        observers = frontier.observers
        if frontier.states.size == 0:
            raise DecodeError(f"beam emptied the search at frame {frame}")

        # Beam pruning: one mask against the strategy's threshold.
        pruner = frontier.pruner
        threshold = pruner.threshold(float(frontier.scores.max()))
        keep = frontier.scores >= threshold
        n_keep = int(np.count_nonzero(keep))
        beam_pruned = frontier.states.size - n_keep
        stats.tokens_pruned += beam_pruned
        states = frontier.states[keep]
        scores = frontier.scores[keep]
        bps = frontier.bps[keep]

        # Histogram pruning: the cap best by score, earliest on ties.
        cap = pruner.cap()
        cap_pruned = 0
        order = None
        if cap and n_keep > cap:
            order = np.flatnonzero(_top_cap_mask(scores, cap))
            cap_pruned = n_keep - cap
            stats.tokens_pruned += cap_pruned
            states = states[order]
            scores = scores[order]
            bps = bps[order]
        pruner.observe(n_keep)

        if observers:
            read_idx = np.nonzero(keep)[0]
            if order is not None:
                read_idx = read_idx[order]
            event = PruneEvent(
                frame=frame,
                walk_states=frontier.states,
                survivor_states=states,
                threshold=threshold,
                beam_pruned=beam_pruned,
                cap_pruned=cap_pruned,
            )
            for observer in observers:
                observer.on_prune(event)

        stats.active_tokens_per_frame.append(states.size)
        stats.states_expanded += states.size
        stats.count_degrees(flat.out_degree[states])

        # Fused gather + score accumulation over every surviving state's
        # non-epsilon arc block.
        first = flat.first_arc[states]
        n_arcs = flat.num_non_eps[states]
        arc_idx, src, dest, new_scores = self.backend.expand_frame(
            first, n_arcs, scores,
            flat.arc_dest, flat.arc_weight64, flat.arc_ilabel, frame_scores,
        )
        stats.arcs_processed += arc_idx.size

        if observers:
            event = ExpandEvent(
                frame=frame,
                states=states,
                first=first,
                n_arcs=n_arcs,
                read_idx=read_idx,
                arc_idx=arc_idx,
                arc_dest=dest,
            )
            for observer in observers:
                observer.on_expand(event)

        if arc_idx.size == 0:
            # No outgoing non-epsilon arcs anywhere: the next frame starts
            # with an empty frontier (and raises, per the emptied-beam
            # policy in the module docstring).
            _set_empty(frontier)
            return

        # Segment-max merge: best incoming arc per destination token.
        next_states, winners = self.backend.segment_best(dest, new_scores)
        trace_idx = frontier.trace.append_bulk(
            bps[src[winners]], flat.arc_olabel[arc_idx[winners]]
        )
        stats.tokens_created += next_states.size

        frontier.states = next_states
        frontier.scores = new_scores[winners]
        frontier.bps = trace_idx
        self._closure(frontier)

    def _closure(self, frontier: Frontier) -> None:
        """Relax epsilon arcs to fixpoint, a whole frontier per round."""
        flat = self.flat
        stats = frontier.stats
        observers = frontier.observers
        if frontier.states.size == 0:
            return
        # (states, scores, bps) of tokens whose score improved last round.
        active = (frontier.states, frontier.scores, frontier.bps)
        while active[0].size:
            states, scores, bps = active
            eps_first = flat.eps_first[states]
            n_eps = flat.num_eps[states]
            arc_idx, src, dest, cand_scores = self.backend.expand_closure(
                eps_first, n_eps, scores, flat.arc_dest, flat.arc_weight64
            )
            if arc_idx.size == 0:
                break
            stats.epsilon_arcs_processed += arc_idx.size

            if observers:
                # Per-arc improvement vs the pre-round token scores (the
                # GPU model's atomic-update semantics).
                pos = np.searchsorted(frontier.states, dest)
                pos_c = np.minimum(pos, frontier.states.size - 1)
                exists = (pos < frontier.states.size) & (
                    frontier.states[pos_c] == dest
                )
                existing = np.where(
                    exists, frontier.scores[pos_c], np.float64(LOG_ZERO)
                )
                event = ClosureEvent(
                    states=states,
                    first=eps_first,
                    n_arcs=n_eps,
                    src=None,
                    arc_idx=arc_idx,
                    arc_dest=dest,
                    improved=cand_scores > existing,
                )
                for observer in observers:
                    observer.on_closure(event)

            uniq, winners = self.backend.segment_best(dest, cand_scores)
            cand_scores = cand_scores[winners]
            cand_prev = bps[src[winners]]
            cand_word = flat.arc_olabel[arc_idx[winners]]

            # Merge candidates into the sorted token arrays: a candidate
            # wins if its state is new or strictly better (ties keep the
            # existing token, like the reference discipline).
            pos = np.searchsorted(frontier.states, uniq)
            pos_clipped = np.minimum(pos, frontier.states.size - 1)
            exists = (pos < frontier.states.size) & (
                frontier.states[pos_clipped] == uniq
            )
            improves = exists & (cand_scores > frontier.scores[pos_clipped])
            is_new = ~exists
            accepted = improves | is_new
            if not accepted.any():
                break

            trace_idx = frontier.trace.append_bulk(
                cand_prev[accepted], cand_word[accepted]
            )
            acc_rows = np.nonzero(accepted)[0]
            imp_in_acc = improves[acc_rows]
            new_in_acc = is_new[acc_rows]
            stats.tokens_created += int(np.count_nonzero(new_in_acc))
            stats.tokens_updated += int(np.count_nonzero(imp_in_acc))

            # In-place update of improved existing tokens ...
            upd = pos[improves]
            frontier.scores[upd] = cand_scores[improves]
            frontier.bps[upd] = trace_idx[imp_in_acc]
            # ... and sorted insertion of brand-new ones.
            frontier.states, frontier.scores, frontier.bps = _insert_sorted(
                pos[is_new],
                (frontier.states, frontier.scores, frontier.bps),
                (uniq[is_new], cand_scores[is_new], trace_idx[new_in_acc]),
            )

            active = (uniq[accepted], cand_scores[accepted], trace_idx)

    def finalize(self, frontier: Frontier) -> DecodeResult:
        """Pick the best (preferably final) token and backtrack.

        Falls back to the best live token (``reached_final=False``) when
        no token is in a final state -- the shared emptied-beam policy.
        """
        if frontier.states.size == 0:
            raise DecodeError("no active tokens at the end of the utterance")

        finals = self.flat.final_weights[frontier.states]
        final_mask = finals > LOG_ZERO / 2
        if final_mask.any():
            totals = frontier.scores[final_mask] + finals[final_mask]
            i = int(np.argmax(totals))
            score = float(totals[i])
            bp = int(frontier.bps[final_mask][i])
            reached_final = True
        else:
            i = int(np.argmax(frontier.scores))
            score = float(frontier.scores[i])
            bp = int(frontier.bps[i])
            reached_final = False

        # Full hypothesis = stable committed prefix + tail backtrack.
        # With commit_interval=0 the committed prefix is empty and this
        # is the historical full-path walk.
        committed = frontier.trace.committed
        words = committed + tuple(frontier.trace.backtrack(bp))
        return DecodeResult(
            words=words,
            log_likelihood=score,
            reached_final=reached_final,
            stats=frontier.stats,
            committed_len=len(committed),
        )

    # ------------------------------------------------------------------
    # Fused multi-frontier sweep (the continuous-batching fast path)
    # ------------------------------------------------------------------
    def fused_step(
        self, frontiers: List[Frontier], frame_stack: np.ndarray
    ) -> None:
        """One frame of the recurrence for every frontier, fully fused.

        Mirrors :meth:`step_frame` stage by stage over the session-major
        concatenation of all frontiers, keyed by ``session * num_states +
        state`` so sessions never mix; bit-identical per frontier to
        stepping each alone.  Callers guarantee non-empty frontiers and
        uniform score widths; observers are not supported on this path.
        """
        config = self.config
        flat = self.flat
        n = len(frontiers)
        num_states = flat.num_states

        sizes = [f.states.size for f in frontiers]
        counts = np.array(sizes, dtype=np.int64)
        starts = np.cumsum(counts) - counts
        states = np.concatenate([f.states for f in frontiers])
        scores = np.concatenate([f.scores for f in frontiers])
        bps = np.concatenate([f.bps for f in frontiers])
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)

        # Beam pruning, per session (every count is > 0, checked by the
        # caller).  Each frontier's strategy supplies its own threshold.
        best = np.maximum.reduceat(scores, starts)
        thresholds = np.array(
            [
                frontier.pruner.threshold(b)
                for frontier, b in zip(frontiers, best.tolist())
            ],
            dtype=np.float64,
        )
        keep = scores >= thresholds[seg]
        after_beam = np.add.reduceat(keep, starts, dtype=np.int64).tolist()

        # Histogram pruning: per session over the cap, the cap best by
        # score (earliest on ties).  The cap is a config constant,
        # identical across strategies/sessions.
        cap = config.max_active
        kept = after_beam
        if cap and max(after_beam) > cap:
            kept = [min(k, cap) for k in after_beam]
            for lo, size, k in zip(starts.tolist(), sizes, after_beam):
                if k > cap:
                    own = lo + np.flatnonzero(keep[lo: lo + size])
                    keep[own[~_top_cap_mask(scores[own], cap)]] = False
        alive = np.flatnonzero(keep)
        states, scores, bps = states[alive], scores[alive], bps[alive]
        seg = np.repeat(np.arange(n, dtype=np.int64), kept)

        degrees = flat.out_degree[states]
        lo = 0
        for frontier, before, beam_kept, k in zip(
            frontiers, sizes, after_beam, kept
        ):
            stats = frontier.stats
            stats.tokens_pruned += before - k
            frontier.pruner.observe(beam_kept)
            stats.active_tokens_per_frame.append(k)
            stats.states_expanded += k
            stats.count_degrees(degrees[lo: lo + k])
            lo += k

        # Fused gather + score accumulation across every session's
        # surviving states at once (one row space spans all sessions).
        arc_idx, src, dest, new_scores = self.backend.expand_fused(
            flat.first_arc[states], flat.num_non_eps[states], scores, seg,
            flat.arc_dest, flat.arc_weight64, flat.arc_ilabel, frame_stack,
        )
        arc_seg = seg[src]
        arc_counts = np.bincount(arc_seg, minlength=n).tolist()
        for frontier, c in zip(frontiers, arc_counts):
            frontier.stats.arcs_processed += c
        if arc_idx.size == 0:
            for frontier in frontiers:
                _set_empty(frontier)
            return

        # Segment-max merge on the combined (session, state) key; the
        # winners stay one session-major array through the closure.
        uniq, winners = self.backend.segment_best(
            arc_seg * num_states + dest, new_scores
        )
        win_seg = arc_seg[winners]
        prev = bps[src[winners]]
        words = flat.arc_olabel[arc_idx[winners]]
        new_bps = []
        lo = 0
        for frontier, c in zip(
            frontiers, np.bincount(win_seg, minlength=n).tolist()
        ):
            if c:
                new_bps.append(
                    frontier.trace.append_bulk(prev[lo: lo + c], words[lo: lo + c])
                )
                frontier.stats.tokens_created += c
                lo += c
        self._fused_closure(
            frontiers, uniq, win_seg, new_scores[winners], np.concatenate(new_bps)
        )

    def _fused_closure(
        self,
        frontiers: List[Frontier],
        f_comb: np.ndarray,
        act_seg: np.ndarray,
        f_scores: np.ndarray,
        f_bps: np.ndarray,
    ) -> None:
        """Epsilon closure to fixpoint over every frontier in lockstep rounds.

        ``f_comb`` holds the live tokens' ``session * num_states + state``
        keys (of sessions ``act_seg``), globally ascending because
        sessions are concatenated in order; the closed token set is
        handed back to the frontiers at the end.
        """
        flat = self.flat
        n = len(frontiers)
        num_states = flat.num_states

        act_comb, act_scores, act_bps = f_comb, f_scores, f_bps
        while act_comb.size:
            act_states = act_comb - act_seg * num_states
            arc_idx, src, dest, cand = self.backend.expand_closure(
                flat.eps_first[act_states], flat.num_eps[act_states],
                act_scores, flat.arc_dest, flat.arc_weight64,
            )
            if arc_idx.size == 0:
                break
            arc_seg = act_seg[src]
            eps_counts = np.bincount(arc_seg, minlength=n).tolist()
            for frontier, c in zip(frontiers, eps_counts):
                frontier.stats.epsilon_arcs_processed += c

            uniq, winners = self.backend.segment_best(
                arc_seg * num_states + dest, cand
            )
            cand_scores = cand[winners]
            cand_seg = arc_seg[winners]

            pos = np.searchsorted(f_comb, uniq)
            pos_clipped = np.minimum(pos, f_comb.size - 1)
            exists = (pos < f_comb.size) & (f_comb[pos_clipped] == uniq)
            improves = exists & (cand_scores > f_scores[pos_clipped])
            is_new = ~exists
            accepted = improves | is_new
            acc_rows = np.flatnonzero(accepted)
            if acc_rows.size == 0:
                break

            # Trace records go to each session's own trace, in key order.
            acc_win = winners[acc_rows]
            acc_prev = act_bps[src[acc_win]]
            acc_word = flat.arc_olabel[arc_idx[acc_win]]
            acc_seg = cand_seg[acc_rows]
            imp_in_acc = improves[acc_rows]
            new_in_acc = ~imp_in_acc
            created = np.bincount(acc_seg[new_in_acc], minlength=n).tolist()
            updated = np.bincount(acc_seg[imp_in_acc], minlength=n).tolist()
            trace_idx = []
            lo = 0
            for frontier, c_new, c_upd in zip(frontiers, created, updated):
                hi = lo + c_new + c_upd
                if hi > lo:
                    trace_idx.append(
                        frontier.trace.append_bulk(acc_prev[lo:hi], acc_word[lo:hi])
                    )
                    frontier.stats.tokens_created += c_new
                    frontier.stats.tokens_updated += c_upd
                    lo = hi
            act_bps = np.concatenate(trace_idx)
            act_comb = uniq[acc_rows]
            act_seg = acc_seg
            act_scores = cand_scores[acc_rows]

            upd = pos[improves]
            f_scores[upd] = act_scores[imp_in_acc]
            f_bps[upd] = act_bps[imp_in_acc]
            f_comb, f_scores, f_bps = _insert_sorted(
                pos[is_new],
                (f_comb, f_scores, f_bps),
                (act_comb[new_in_acc], act_scores[new_in_acc], act_bps[new_in_acc]),
            )

        bounds = np.searchsorted(
            f_comb, np.arange(n + 1, dtype=np.int64) * num_states
        ).tolist()
        for i, frontier in enumerate(frontiers):
            lo, hi = bounds[i], bounds[i + 1]
            frontier.states = f_comb[lo:hi] - i * num_states
            frontier.scores = f_scores[lo:hi]
            frontier.bps = f_bps[lo:hi]


# ----------------------------------------------------------------------
# The reference (scalar oracle) discipline
# ----------------------------------------------------------------------
class ReferenceKernel:
    """Scalar token-passing discipline with exact hardware event order.

    Reproduces, token for token, the functional search of
    :class:`repro.accel.simulator.AcceleratorSimulator`: tokens walk in
    hash-insertion (dict) order, relaxations are first-wins on ties, and
    the epsilon closure is a FIFO worklist that re-visits tokens whose
    score improves.  ``ViterbiDecoder`` is a thin wrapper over
    :meth:`decode`; the accelerator's ``TraceRecorder`` subscribes a
    :class:`KernelObserver` to capture the full event stream.

    Arrays are pre-converted to plain Python lists once per kernel:
    scalar list indexing is ~5x faster than numpy scalar indexing and
    this discipline is all scalar indexing.
    """

    def __init__(
        self, graph: CompiledWfst, config: DecoderConfig = DecoderConfig()
    ) -> None:
        self.graph = graph
        self.config = config
        flat = graph.flat()
        self._first = flat.first_arc.tolist()
        self._n_non_eps = flat.num_non_eps.tolist()
        self._n_eps = flat.num_eps.tolist()
        self._dest = flat.arc_dest.tolist()
        self._weight = flat.arc_weight64.tolist()
        self._ilabel = flat.arc_ilabel.tolist()
        self._olabel = flat.arc_olabel.tolist()
        self._final = flat.final_weights.tolist()
        self._out_degree = flat.out_degree

    # ------------------------------------------------------------------
    def decode(
        self,
        scores: AcousticScores,
        observers: Sequence[KernelObserver] = (),
    ) -> DecodeResult:
        """Decode one utterance; returns the best word sequence."""
        if scores.num_frames == 0:
            raise DecodeError("no frames to decode")
        num_frames = scores.num_frames
        observers = tuple(observers)
        pruner = self.config.make_pruner()
        search = SearchStats(frames=num_frames)

        # Backpointer trace (one record per token write).
        trace_prev: List[int] = [-1]
        trace_word: List[int] = [0]
        # Live tokens: state -> (score, backpointer index).
        tokens: Dict[int, Tuple[float, int]] = {self.graph.start: (0.0, 0)}

        self._eps_pass(tokens, list(tokens.keys()), search, observers,
                       trace_prev, trace_word)

        matrix = scores.matrix
        for frame in range(num_frames):
            frame_scores = matrix[frame].tolist()
            if not tokens:
                raise DecodeError(f"beam emptied the search at frame {frame}")
            best = max(score for score, _ in tokens.values())
            threshold = pruner.threshold(best)

            walk_states: List[int] = []
            survivors: List[Tuple[int, float, int, int]] = []
            idx = 0
            beam_pruned = 0
            if observers:
                for state, (score, bp) in tokens.items():
                    walk_states.append(state)
                    if score >= threshold:
                        survivors.append((state, score, bp, idx))
                    else:
                        beam_pruned += 1
                    idx += 1
            else:
                for state, (score, bp) in tokens.items():
                    if score >= threshold:
                        survivors.append((state, score, bp, idx))
                    else:
                        beam_pruned += 1
                    idx += 1
            search.tokens_pruned += beam_pruned
            n_after_beam = len(survivors)
            cap = pruner.cap()
            cap_pruned = 0
            if cap and n_after_beam > cap:
                survivors.sort(key=lambda item: item[1], reverse=True)
                cap_pruned = n_after_beam - cap
                search.tokens_pruned += cap_pruned
                survivors = survivors[:cap]
            pruner.observe(n_after_beam)

            if observers:
                event = PruneEvent(
                    frame=frame,
                    walk_states=walk_states,
                    survivor_states=[s for s, _, _, _ in survivors],
                    threshold=threshold,
                    beam_pruned=beam_pruned,
                    cap_pruned=cap_pruned,
                )
                for observer in observers:
                    observer.on_prune(event)

            next_tokens: Dict[int, Tuple[float, int]] = {}
            search.active_tokens_per_frame.append(len(survivors))

            self._emit_pass(frame, survivors, next_tokens, frame_scores,
                            search, observers, trace_prev, trace_word)
            self._eps_pass(next_tokens, list(next_tokens.keys()), search,
                           observers, trace_prev, trace_word)
            tokens = next_tokens

        return self._finalize(tokens, search, trace_prev, trace_word)

    # ------------------------------------------------------------------
    def _emit_pass(
        self,
        frame: int,
        survivors: List[Tuple[int, float, int, int]],
        next_tokens: Dict[int, Tuple[float, int]],
        frame_scores: List[float],
        search: SearchStats,
        observers: Tuple[KernelObserver, ...],
        trace_prev: List[int],
        trace_word: List[int],
    ) -> None:
        first_l = self._first
        n_non_l = self._n_non_eps
        dest_l = self._dest
        weight_l = self._weight
        ilabel_l = self._ilabel
        olabel_l = self._olabel
        tokens_get = next_tokens.get
        search.states_expanded += len(survivors)
        search.count_degrees(
            self._out_degree[[state for state, _, _, _ in survivors]]
        )

        record = bool(observers)
        emit_states: List[int] = []
        emit_first: List[int] = []
        emit_n: List[int] = []
        emit_read_idx: List[int] = []
        arc_idx_out: List[int] = []
        arc_dest_out: List[int] = []
        improved_out: List[bool] = []

        for state, score, bp, ridx in survivors:
            first = first_l[state]
            n_non_eps = n_non_l[state]
            if record:
                emit_states.append(state)
                emit_first.append(first)
                emit_n.append(n_non_eps)
                emit_read_idx.append(ridx)

            for a in range(first, first + n_non_eps):
                dest = dest_l[a]
                if record:
                    arc_idx_out.append(a)
                    arc_dest_out.append(dest)
                search.arcs_processed += 1
                new_score = score + weight_l[a] + frame_scores[ilabel_l[a]]
                existing = tokens_get(dest)
                if existing is not None and existing[0] >= new_score:
                    if record:
                        improved_out.append(False)
                    continue
                trace_prev.append(bp)
                trace_word.append(olabel_l[a])
                if existing is None:
                    search.tokens_created += 1
                else:
                    search.tokens_updated += 1
                next_tokens[dest] = (new_score, len(trace_prev) - 1)
                if record:
                    improved_out.append(True)

        if record:
            event = ExpandEvent(
                frame=frame,
                states=emit_states,
                first=emit_first,
                n_arcs=emit_n,
                read_idx=emit_read_idx,
                arc_idx=arc_idx_out,
                arc_dest=arc_dest_out,
                improved=improved_out,
            )
            for observer in observers:
                observer.on_expand(event)

    def _eps_pass(
        self,
        tokens: Dict[int, Tuple[float, int]],
        seeds: List[int],
        search: SearchStats,
        observers: Tuple[KernelObserver, ...],
        trace_prev: List[int],
        trace_word: List[int],
    ) -> None:
        first_l = self._first
        n_non_l = self._n_non_eps
        n_eps_l = self._n_eps
        dest_l = self._dest
        weight_l = self._weight
        olabel_l = self._olabel
        tokens_get = tokens.get

        record = bool(observers)
        eps_states: List[int] = []
        eps_first_out: List[int] = []
        eps_n: List[int] = []
        eps_src: List[int] = []
        arc_idx_out: List[int] = []
        arc_dest_out: List[int] = []
        improved_out: List[bool] = []

        worklist: Deque[Tuple[int, int]] = deque((s, -1) for s in seeds)
        arc_event = 0
        while worklist:
            state, src = worklist.popleft()
            score, bp = tokens[state]
            n_eps = n_eps_l[state]
            if n_eps == 0:
                continue
            eps_first = first_l[state] + n_non_l[state]
            if record:
                eps_states.append(state)
                eps_first_out.append(eps_first)
                eps_n.append(n_eps)
                eps_src.append(src)
            for a in range(eps_first, eps_first + n_eps):
                dest = dest_l[a]
                if record:
                    arc_idx_out.append(a)
                    arc_dest_out.append(dest)
                search.epsilon_arcs_processed += 1
                new_score = score + weight_l[a]
                existing = tokens_get(dest)
                if existing is not None and existing[0] >= new_score:
                    if record:
                        improved_out.append(False)
                    arc_event += 1
                    continue
                trace_prev.append(bp)
                trace_word.append(olabel_l[a])
                if existing is None:
                    search.tokens_created += 1
                else:
                    search.tokens_updated += 1
                tokens[dest] = (new_score, len(trace_prev) - 1)
                if record:
                    improved_out.append(True)
                worklist.append((dest, arc_event))
                arc_event += 1

        if record:
            event = ClosureEvent(
                states=eps_states,
                first=eps_first_out,
                n_arcs=eps_n,
                src=eps_src,
                arc_idx=arc_idx_out,
                arc_dest=arc_dest_out,
                improved=improved_out,
            )
            for observer in observers:
                observer.on_closure(event)

    def _finalize(
        self,
        tokens: Dict[int, Tuple[float, int]],
        search: SearchStats,
        trace_prev: List[int],
        trace_word: List[int],
    ) -> DecodeResult:
        """Best (preferably final) token; shared fallback policy."""
        if not tokens:
            raise DecodeError("no active tokens at the end of the utterance")
        final_l = self._final
        best: Optional[Tuple[float, int]] = None
        for state, (score, bp) in tokens.items():
            final_weight = final_l[state]
            if final_weight <= LOG_ZERO / 2:
                continue
            total = score + final_weight
            if best is None or total > best[0]:
                best = (total, bp)
        reached_final = best is not None
        if best is None:
            # No final token survived: fall back to the best live token.
            state = max(tokens, key=lambda s: tokens[s][0])
            best = tokens[state]

        score, bp = best
        words: List[int] = []
        index = bp
        while index >= 0:
            if trace_word[index] != 0:
                words.append(trace_word[index])
            index = trace_prev[index]
        words.reverse()
        return DecodeResult(
            words=tuple(words),
            log_likelihood=score,
            reached_final=reached_final,
            stats=search,
        )
