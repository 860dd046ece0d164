"""Decode results and search statistics.

:class:`SearchStats` holds the *functional* counters of one Section II
Viterbi beam search -- tokens, arcs, pruning, per-frame active set and
the Figure 7 out-degree histogram.  They are timing-independent: the CPU/GPU
timing models price them, and the accelerator simulator and trace
replayer cross-check against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Sequence, Tuple

import numpy as np


class _PrefixView(Sequence):
    """Immutable length-pinned view of an append-only list.

    ``SearchStats.active_tokens_per_frame`` only ever grows, so pinning
    today's length over the live list is a true point-in-time snapshot
    at O(1) cost -- the cheap alternative to an O(T) copy on every
    streaming partial.
    """

    __slots__ = ("_data", "_length")

    def __init__(self, data: List[int], length: int) -> None:
        self._data = data
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._data[: self._length][index])
        n = self._length
        if index < 0:
            index += n
        if not 0 <= index < n:
            # The Sequence protocol requires IndexError here (for-loop
            # and unpacking termination), not a ReproError subclass.
            raise IndexError(  # repro-lint: disable=REP002
                "prefix view index out of range"
            )
        return self._data[index]

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield self._data[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, _PrefixView)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"_PrefixView({list(self)!r})"


def _add_counts(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``total`` with ``counts`` added in place, grown to fit if shorter."""
    if counts.size > total.size:
        total = np.concatenate(
            [total, np.zeros(counts.size - total.size, dtype=np.int64)]
        )
    total[: counts.size] += counts
    return total


@dataclass
class SearchStats:
    """Operation counts gathered during one decode.

    These counters drive the CPU timing model and the Figure 7 histogram;
    the accelerator simulator gathers its own cycle-level statistics but
    shares these functional counters for cross-checking.
    """

    frames: int = 0
    tokens_pruned: int = 0
    states_expanded: int = 0
    arcs_processed: int = 0
    epsilon_arcs_processed: int = 0
    tokens_created: int = 0
    tokens_updated: int = 0
    #: ``degree_histogram[d]`` counts the dynamically fetched states of
    #: out-degree ``d`` (Figure 7's data); as long as the largest degree
    #: seen, so bounded by the graph and not by the decode length.
    degree_histogram: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: active tokens at the start of each frame.
    active_tokens_per_frame: List[int] = field(default_factory=list)

    @property
    def total_token_writes(self) -> int:
        return self.tokens_created + self.tokens_updated

    @property
    def mean_active_tokens(self) -> float:
        if not self.active_tokens_per_frame:
            return 0.0
        return sum(self.active_tokens_per_frame) / len(
            self.active_tokens_per_frame
        )

    def count_degrees(self, degrees: np.ndarray) -> None:
        """Add one batch of fetched states' out-degrees to the histogram."""
        self.degree_histogram = _add_counts(
            self.degree_histogram, np.bincount(degrees)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchStats):
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        return np.array_equal(
            mine.pop("degree_histogram"), theirs.pop("degree_histogram")
        ) and mine == theirs

    def snapshot(self) -> "SearchStats":
        """A detached point-in-time copy, O(1) in the decode length.

        Scalar counters are copied by the dataclass ``replace`` and the
        degree histogram (as long as the largest out-degree) by value;
        the per-frame list -- which only ever grows -- is wrapped in a
        length-pinned :class:`_PrefixView` instead of being deep-copied,
        so streaming ``partial()`` calls stay cheap no matter how long
        the session has run.
        """
        return replace(
            self,
            degree_histogram=self.degree_histogram.copy(),
            active_tokens_per_frame=_PrefixView(
                self.active_tokens_per_frame, len(self.active_tokens_per_frame)
            ),
        )

    @classmethod
    def merge(cls, stats_list) -> "SearchStats":
        """Aggregate the counters of several decodes (e.g. a test set)."""
        merged = cls()
        for s in stats_list:
            merged.frames += s.frames
            merged.tokens_pruned += s.tokens_pruned
            merged.states_expanded += s.states_expanded
            merged.arcs_processed += s.arcs_processed
            merged.epsilon_arcs_processed += s.epsilon_arcs_processed
            merged.tokens_created += s.tokens_created
            merged.tokens_updated += s.tokens_updated
            merged.degree_histogram = _add_counts(
                merged.degree_histogram, s.degree_histogram
            )
            merged.active_tokens_per_frame.extend(s.active_tokens_per_frame)
        return merged


@dataclass(frozen=True)
class DecodeResult:
    """Output of one utterance decode (or one streaming partial).

    Attributes:
        words: best-path word ids in spoken order.
        log_likelihood: score of the best complete path.
        reached_final: True when the best token was in a final state
            (otherwise the decoder fell back to the best live token).
        stats: functional operation counts.
        committed_len: length of the stable prefix of ``words`` -- words
            the committed-prefix protocol has already emitted and will
            never retract (see :mod:`repro.decoder.traceback`).  0 for
            offline decodes and sessions running append-only
            (``commit_interval=0``).
    """

    words: Tuple[int, ...]
    log_likelihood: float
    reached_final: bool
    stats: SearchStats
    committed_len: int = 0

    @property
    def committed(self) -> Tuple[int, ...]:
        """The stable (never-retracted) prefix of :attr:`words`."""
        return self.words[: self.committed_len]

    @property
    def tail(self) -> Tuple[int, ...]:
        """The still-revisable suffix of :attr:`words` beyond the
        committed prefix -- the part a later partial may rewrite."""
        return self.words[self.committed_len:]
