"""Trace caching for design-space sweeps.

Recording a :class:`~repro.accel.trace.DecodeTrace` costs one functional
beam search; every replay after that is cheap.  :class:`TraceCache` keeps
traces keyed by a *content fingerprint* of everything the search depends
on -- the graph layout, the acoustic score matrices and the search
configuration -- so

* within a sweep, all configurations sharing a search configuration reuse
  one recording (sorted-layout points relabel it, see
  :func:`repro.accel.trace.derive_sorted_trace`);
* invalidation is automatic: any change to the workload or layout changes
  the key.

Traces live in memory only, so none outlives the process -- or the code
-- that recorded it.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Sequence

from repro.acoustic.scorer import AcousticScores
from repro.accel.trace import DecodeTrace, TraceRecorder
from repro.decoder.kernel import DecoderConfig
from repro.wfst.layout import CompiledWfst


def workload_fingerprint(
    graph: CompiledWfst,
    scores: Sequence[AcousticScores],
    *,
    config: DecoderConfig,
) -> str:
    """Content hash of one (layout, scores, search-parameters) workload.

    Every field of the search configuration that can change the
    functional event stream -- beam, cap, pruning strategy and its
    adaptation parameters -- feeds the key, so a sweep point with a
    different strategy never addresses another point's trace.
    """
    # Adaptive-only parameters are zeroed for the fixed-beam strategy:
    # they cannot change its search, and keying on them would fragment
    # the cache into duplicate recordings of identical searches.
    adaptive = config.pruning == "adaptive"
    h = hashlib.sha256()
    h.update(graph.fingerprint().encode())
    h.update(struct.pack(
        "<dQdddd",
        config.beam, config.max_active,
        float(config.target_active) if adaptive else 0.0,
        config.min_beam if adaptive else 0.0,
        config.resolved_max_beam if adaptive else 0.0,
        config.adapt_rate if adaptive else 0.0,
    ))
    h.update(config.pruning.encode())
    for s in scores:
        matrix = s.matrix
        h.update(struct.pack("<QQ", *matrix.shape))
        h.update(matrix.tobytes())
    return h.hexdigest()[:32]


class TraceCache:
    """In-memory store of recorded decode traces, keyed by
    :func:`workload_fingerprint`."""

    def __init__(self) -> None:
        self._memory: Dict[str, List[DecodeTrace]] = {}
        self.recordings = 0  #: functional searches actually run
        self.hits = 0        #: lookups satisfied without re-searching

    def get(
        self,
        graph: CompiledWfst,
        scores: Sequence[AcousticScores],
        *,
        config: DecoderConfig,
    ) -> List[DecodeTrace]:
        """Traces for every utterance of the workload, recording on miss."""
        key = workload_fingerprint(graph, scores, config=config)
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        recorder = TraceRecorder(graph, config=config)
        traces = [recorder.record(s) for s in scores]
        self.recordings += 1
        self._memory[key] = traces
        return traces
