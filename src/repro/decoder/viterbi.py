"""Token-passing Viterbi beam search (the software reference / oracle).

Implements the dynamic-programming recurrence of the paper's Equation 1 in
log space with beam pruning.  Since the kernel refactor this module is a
thin wrapper: the actual recurrence lives in
:class:`repro.decoder.kernel.ReferenceKernel`, the scalar discipline of
the shared frame-recurrence kernel, which reproduces the accelerator
simulator's exact event order (dict-order token walks, first-wins
relaxation, FIFO epsilon worklist).  ``ViterbiDecoder`` is kept as the
oracle every other engine -- batch, sessions, lattice, GPU, accelerator
-- is tested against.
"""

from __future__ import annotations

from repro.acoustic.scorer import AcousticScores
from repro.decoder.kernel import DecoderConfig, ReferenceKernel
from repro.decoder.result import DecodeResult
from repro.wfst.layout import CompiledWfst

__all__ = ["DecoderConfig", "ViterbiDecoder"]


class ViterbiDecoder:
    """Reference beam-search decoder over a compiled graph.

    A thin oracle wrapper over the shared kernel's scalar discipline;
    see :mod:`repro.decoder.kernel` for the recurrence, the pruning
    strategies and the emptied-beam policy.
    """

    def __init__(
        self,
        graph: CompiledWfst,
        config: DecoderConfig = DecoderConfig(),
    ) -> None:
        self.graph = graph
        self.config = config
        self._kernel = ReferenceKernel(graph, config)

    @property
    def kernel(self) -> ReferenceKernel:
        """The underlying scalar reference kernel."""
        return self._kernel

    def decode(self, scores: AcousticScores) -> DecodeResult:
        """Decode one utterance; returns the best word sequence."""
        return self._kernel.decode(scores)
