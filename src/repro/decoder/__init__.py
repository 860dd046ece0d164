"""Software decode engines: Viterbi beam search over a compiled WFST.

This is the algorithm of the paper's Section II, in the token-passing style
of Kaldi's decoder: per 10 ms frame, prune active tokens against the beam,
expand non-epsilon arcs with the frame's acoustic scores, then traverse
epsilon arcs without consuming input, and finally backtrack from the best
token.  One shared frame-recurrence kernel (:mod:`repro.decoder.kernel`)
implements that recurrence for every engine: the scalar reference
(``ViterbiDecoder``, the oracle), the vectorized batch engine, streaming
sessions -- plus the GPU model and the accelerator trace recorder in
their own packages.  Pruning strategies (fixed beam, histogram cap,
adaptive beam) and instrumentation observers plug into the kernel rather
than into individual engines.
"""

from repro.decoder.backends import (
    KERNEL_BACKENDS,
    KernelBackend,
    numba_available,
    resolve_backend,
)
from repro.decoder.kernel import (
    AdaptiveBeamPruning,
    ClosureEvent,
    DecoderConfig,
    ExpandEvent,
    FixedBeamPruning,
    Frontier,
    KernelObserver,
    PRUNING_STRATEGIES,
    PruneEvent,
    PruningStrategy,
    ReferenceKernel,
    SearchKernel,
)
from repro.decoder.viterbi import ViterbiDecoder
from repro.decoder.batch import BatchDecoder
from repro.decoder.session import DecodeSession, advance_sessions
from repro.decoder.result import DecodeResult, SearchStats
from repro.decoder.wer import word_error_rate, levenshtein

__all__ = [
    "AdaptiveBeamPruning",
    "BatchDecoder",
    "ClosureEvent",
    "DecodeResult",
    "DecodeSession",
    "DecoderConfig",
    "ExpandEvent",
    "FixedBeamPruning",
    "Frontier",
    "KERNEL_BACKENDS",
    "KernelBackend",
    "KernelObserver",
    "PRUNING_STRATEGIES",
    "PruneEvent",
    "PruningStrategy",
    "ReferenceKernel",
    "SearchKernel",
    "SearchStats",
    "ViterbiDecoder",
    "advance_sessions",
    "levenshtein",
    "numba_available",
    "resolve_backend",
    "word_error_rate",
]
