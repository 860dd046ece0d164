"""Trace caching for design-space sweeps.

Recording a :class:`~repro.accel.trace.DecodeTrace` costs one functional
beam search; every replay after that is cheap.  :class:`TraceCache` keeps
traces keyed by a *content fingerprint* of everything the search depends
on -- the graph layout, the acoustic score matrices and the search
configuration -- so

* within a sweep, all configurations sharing a search configuration reuse
  one recording (sorted-layout points relabel it, see
  :func:`repro.accel.trace.derive_sorted_trace`);
* across processes/runs, an optional on-disk cache directory makes the
  recording a one-time cost per workload;
* invalidation is automatic: any change to the workload or layout changes
  the key, and stale files are simply never addressed again (the
  directory can be deleted at any time; traces also embed a format
  version, so archives from an incompatible schema are re-recorded rather
  than misread).
"""

from __future__ import annotations

import hashlib
import os
import struct
import zipfile
from typing import Dict, List, Optional, Sequence

from repro.common.errors import SimulationError
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
    """In-memory (and optionally on-disk) store of recorded decode traces.

    Args:
        directory: optional directory for persistent ``.npz`` trace files.
            Created on first write.  ``None`` keeps traces in memory only.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
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

        traces = self._load_from_disk(key, len(scores))
        if traces is not None:
            self.hits += 1
        else:
            recorder = TraceRecorder(graph, config=config)
            traces = [recorder.record(s) for s in scores]
            self.recordings += 1
            self._store_to_disk(key, traces)
        self._memory[key] = traces
        return traces

    # ------------------------------------------------------------------
    def _path(self, key: str, index: int) -> str:
        return os.path.join(self.directory, f"{key}.utt{index}.npz")

    def _load_from_disk(
        self, key: str, count: int
    ) -> Optional[List[DecodeTrace]]:
        if self.directory is None:
            return None
        traces = []
        for i in range(count):
            path = self._path(key, i)
            if not os.path.exists(path):
                return None
            try:
                traces.append(DecodeTrace.load(path))
            except (SimulationError, OSError, KeyError, ValueError,
                    zipfile.BadZipFile, EOFError):
                # Stale format or a torn write (np.load raises BadZipFile
                # for a truncated archive): fall back to re-recording.
                return None
        return traces

    def _store_to_disk(self, key: str, traces: List[DecodeTrace]) -> None:
        if self.directory is None:
            return
        os.makedirs(self.directory, exist_ok=True)
        for i, trace in enumerate(traces):
            trace.save(self._path(key, i))
