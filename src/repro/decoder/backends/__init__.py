"""Kernel backend dispatch: one search recurrence, pluggable array engines.

The hot prune -> expand -> merge -> closure frame sweep of
:class:`repro.decoder.kernel.SearchKernel` bottoms out in a handful of
pure array operations -- the CSR arc gather, the fused gather+score
expansion and the segment-best destination merge.  This package extracts
those operations behind the :class:`KernelBackend` protocol so a
compiled implementation can replace them without forking the recurrence:
all pruning strategy state, merge policy, trace bookkeeping, counters
and observer events stay in the shared kernel, which is what makes the
cross-backend identity guarantee hold *by construction* (and lets the
differential suite in ``tests/test_backend_equivalence.py`` verify it).

Backends
--------
* ``numpy`` -- the portable default, and the definition of the
  bit-level contract: :mod:`repro.decoder.backends.numpy_backend`.
* ``numba`` -- optional (``pip install repro-asr[compiled]``);
  ``@njit(parallel=True, nogil=True)`` kernels with chunked parallelism
  over the gathered arc rows, spanning every session of a fused sweep.
  See :mod:`repro.decoder.backends.numba_backend`.

Selection
---------
``DecoderConfig.backend`` names a backend (``"numpy"`` / ``"numba"``) or
``"auto"`` (the default), which consults the :data:`BACKEND_ENV_VAR`
environment variable and falls back to numpy.  Requesting ``numba``
where it is not importable emits a typed :class:`BackendFallbackWarning`
and uses numpy -- selection never crashes a decode, because every
backend computes bit-identical results and the choice is purely a speed
knob.
"""

from __future__ import annotations

import os
import warnings
from typing import Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError

#: Backend names accepted by ``DecoderConfig.backend``, the
#: ``REPRO_KERNEL_BACKEND`` environment variable and the CLI's
#: ``--kernel-backend`` flag.
KERNEL_BACKENDS: Tuple[str, ...] = ("auto", "numpy", "numba")

#: Environment variable consulted when the configured backend is "auto".
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


class BackendFallbackWarning(UserWarning):
    """A requested compiled backend is unavailable; numpy is used instead."""


class KernelBackend:
    """The pure-array inner operations of one kernel implementation.

    Every method is a deterministic pure function of its array inputs,
    and every backend must produce **bit-identical** outputs for the
    same inputs -- including float64 score arithmetic, which must
    associate as ``(token_score + arc_weight) + acoustic_score`` -- so
    that word output, path likelihoods, every order-independent counter
    and every observer event stream agree across backends.

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
        The mask is a pure function of its inputs and must be
        bit-identical across backends -- it decides which trace records
        survive a commit, so a divergent mask would desynchronize
        renumbered backpointers between numpy and numba decodes.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
_NUMPY_BACKEND: Optional[KernelBackend] = None
_NUMBA_BACKEND: Optional[KernelBackend] = None
_NUMBA_IMPORT_ERROR: Optional[str] = None


def _numpy_backend() -> KernelBackend:
    global _NUMPY_BACKEND
    if _NUMPY_BACKEND is None:
        from repro.decoder.backends.numpy_backend import NumpyBackend

        _NUMPY_BACKEND = NumpyBackend()
    return _NUMPY_BACKEND


def _numba_backend() -> Optional[KernelBackend]:
    global _NUMBA_BACKEND, _NUMBA_IMPORT_ERROR
    if _NUMBA_BACKEND is None and _NUMBA_IMPORT_ERROR is None:
        try:
            from repro.decoder.backends.numba_backend import NumbaBackend
        except ImportError as exc:
            _NUMBA_IMPORT_ERROR = str(exc)
        else:
            _NUMBA_BACKEND = NumbaBackend()
    return _NUMBA_BACKEND


def numba_available() -> bool:
    """True when the numba backend can be imported in this environment."""
    return _numba_backend() is not None


def available_backends() -> Tuple[str, ...]:
    """Concrete backend names importable right now (numpy always is)."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    return tuple(names)


def resolve_backend(name: str = "auto") -> KernelBackend:
    """Resolve a backend name to a concrete :class:`KernelBackend`.

    ``"auto"`` consults :data:`BACKEND_ENV_VAR` and defaults to numpy.
    ``"numba"`` falls back to numpy with a typed
    :class:`BackendFallbackWarning` when numba is not importable --
    never a crash, because the backend choice cannot change any decode
    output.  Unknown names raise :class:`ConfigError`.
    """
    if name not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r} (choose from {KERNEL_BACKENDS})"
        )
    if name == "auto":
        # Selection only: every backend computes bit-identical results,
        # so this environment read can change which implementation runs
        # but never what it computes.
        requested = os.environ.get(BACKEND_ENV_VAR, "").strip()  # repro-lint: disable=REP001
        if requested and requested not in KERNEL_BACKENDS:
            raise ConfigError(
                f"{BACKEND_ENV_VAR}={requested!r} is not a known kernel "
                f"backend (choose from {KERNEL_BACKENDS})"
            )
        name = requested if requested and requested != "auto" else "numpy"
    if name == "numba":
        backend = _numba_backend()
        if backend is not None:
            return backend
        warnings.warn(
            BackendFallbackWarning(
                "kernel backend 'numba' requested but numba is not "
                "importable; falling back to the numpy backend (install "
                f"it with `pip install repro-asr[compiled]`): "
                f"{_NUMBA_IMPORT_ERROR}"
            ),
            stacklevel=2,
        )
    return _numpy_backend()


__all__ = [
    "BACKEND_ENV_VAR",
    "BackendFallbackWarning",
    "KERNEL_BACKENDS",
    "KernelBackend",
    "available_backends",
    "numba_available",
    "resolve_backend",
]
