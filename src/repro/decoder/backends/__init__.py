"""The kernel's array ops: one search recurrence, one numpy backend.

The hot prune -> expand -> merge -> closure frame sweep of
:class:`repro.decoder.kernel.SearchKernel` bottoms out in six pure array
operations -- the CSR arc gather, the fused gather+score expansions, the
segment-best destination merge and the traceback's reachability mark.
This package names them in the :class:`KernelBackend` protocol and
implements them once, in numpy
(:mod:`repro.decoder.backends.numpy_backend`).  All pruning strategy
state, merge policy, trace bookkeeping, counters and observer events
stay in the shared kernel.

The protocol is a seam, not a registry: a kernel's ``backend`` attribute
is assignable, so an object that forwards each op (a timing proxy, say)
can stand in without forking the recurrence.  The ops are checked
against naive loops in ``tests/test_kernel_primitives.py`` and, through
whole decodes, against the scalar
:class:`~repro.decoder.kernel.ReferenceKernel` oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError

#: Backend names :func:`resolve_backend` accepts; both name the numpy
#: backend.
KERNEL_BACKENDS: Tuple[str, ...] = ("auto", "numpy")


class KernelBackend:
    """The pure-array inner operations of one kernel implementation.

    Every method is a deterministic pure function of its array inputs.
    Float64 score arithmetic associates as
    ``(token_score + arc_weight) + acoustic_score``, which is what keeps
    word output, path likelihoods and counters equal to the scalar
    :class:`~repro.decoder.kernel.ReferenceKernel`'s.

    ``first[i]`` / ``counts[i]`` always describe state ``i``'s contiguous
    CSR arc block in the :class:`~repro.wfst.layout.FlatLayout` arrays
    (a contiguity the layout guarantees).
    """

    name: str = "abstract"

    def csr_gather(
        self, first: np.ndarray, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten CSR arc blocks into ``(arc_indices, source_rows)``."""
        raise NotImplementedError

    def segment_best(
        self, keys: np.ndarray, scores: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per unique key, the position of its best-scoring candidate.

        Returns ``(unique_keys_sorted, winner_positions)``; ties keep
        the earliest candidate in input order (first-wins, mirroring the
        reference discipline's relaxation).  ``keys`` must be non-empty.
        """
        raise NotImplementedError

    def expand_frame(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
        arc_ilabel: np.ndarray,
        frame_scores: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused gather + non-epsilon score accumulation for one frontier.

        Returns ``(arc_idx, src, dest, cand_scores)`` where
        ``cand_scores[k] = (scores[src[k]] + arc_weight[arc_idx[k]])
        + frame_scores[arc_ilabel[arc_idx[k]]]``.
        """
        raise NotImplementedError

    def expand_closure(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused gather + epsilon score accumulation (no acoustic term).

        Returns ``(arc_idx, src, dest, cand_scores)`` with
        ``cand_scores[k] = scores[src[k]] + arc_weight[arc_idx[k]]``.
        """
        raise NotImplementedError

    def expand_fused(
        self,
        first: np.ndarray,
        counts: np.ndarray,
        scores: np.ndarray,
        seg: np.ndarray,
        arc_dest: np.ndarray,
        arc_weight: np.ndarray,
        arc_ilabel: np.ndarray,
        frame_stack: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Multi-session expansion: row ``i`` reads ``frame_stack[seg[i]]``.

        Returns ``(arc_idx, src, dest, cand_scores)`` with
        ``cand_scores[k] = (scores[src[k]] + arc_weight[arc_idx[k]])
        + frame_stack[seg[src[k]], arc_ilabel[arc_idx[k]]]``.
        """
        raise NotImplementedError

    def trace_reachable(
        self, prev: np.ndarray, size: int, bps: np.ndarray, anchor: int
    ) -> np.ndarray:
        """Keep-mask over ``prev[:size]``: records reachable from ``bps``.

        The traceback compaction's mark phase: follow predecessor links
        from every live backpointer, stopping at already-marked records
        (``anchor`` is pre-marked; every live chain passes through it).
        The mask decides which trace records survive a commit.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
_NUMPY_BACKEND: Optional[KernelBackend] = None


def numba_available() -> bool:
    """Always False: the numpy backend is the only one."""
    return False


def resolve_backend(name: str = "auto") -> KernelBackend:
    """The numpy backend, for ``"auto"`` or ``"numpy"``.

    Any other name, ``"numba"`` included, raises :class:`ConfigError`.
    """
    global _NUMPY_BACKEND
    if name not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r} (choose from {KERNEL_BACKENDS})"
        )
    if _NUMPY_BACKEND is None:
        from repro.decoder.backends.numpy_backend import NumpyBackend

        _NUMPY_BACKEND = NumpyBackend()
    return _NUMPY_BACKEND


__all__ = [
    "KERNEL_BACKENDS",
    "KernelBackend",
    "numba_available",
    "resolve_backend",
]
