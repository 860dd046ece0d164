"""Serialisation of compiled decoding graphs (the Section III dataset the
accelerator walks, persisted in its packed binary layout).

There is one on-disk format, the **mmap layout**
(:func:`save_graph_mmap` / :func:`load_graph_mmap`): a directory of
uncompressed ``.npy`` files, one per packed array, plus a ``meta.json``
holding the format version, the start state, the graph's content
fingerprint and -- when the writer supplies it -- the compiler provenance
(``recipe`` and per-pass ``passes``; :func:`load_graph_meta` reads it
back).  The arrays are stored unchanged, so a save/load round trip is
bit-exact, and because nothing is compressed every consumer -- the
content-addressed graph cache (:mod:`repro.graph.cache`), the CLI's
``--output`` / ``--graph``, every worker process of the serving tier
(:mod:`repro.system.tier`) -- can ``np.load(..., mmap_mode="r")`` them: the
OS page cache shares one physical copy of the graph across processes.

All entry points accept ``str`` or :class:`pathlib.Path`, and the loaders
raise :class:`~repro.common.errors.GraphError` on a missing or torn layout
or a format-version mismatch, so callers handle one exception type for
every load failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.common.errors import GraphError
from repro.wfst.layout import CompiledWfst

PathLike = Union[str, Path]

#: Version of the mmap directory layout.  Bumped when ``meta.json`` gained
#: the compiler provenance, so that the graph cache recompiles and replaces
#: an entry written without it instead of loading an artifact with no passes.
MMAP_FORMAT_VERSION = 2

_MMAP_META = "meta.json"
_MMAP_ARRAYS = (
    "states_packed",
    "arc_dest",
    "arc_weight",
    "arc_ilabel",
    "arc_olabel",
    "final_weights",
)


def save_graph_mmap(
    graph: CompiledWfst,
    directory: PathLike,
    *,
    fingerprint: Optional[str] = None,
    provenance: Optional[Mapping[str, Any]] = None,
) -> str:
    """Materialise ``graph`` as an mmap layout directory; returns its path.

    Arrays are written as uncompressed ``.npy`` files so they can be
    memory-mapped read-only by any number of processes.  ``provenance``
    (JSON-serialisable; the graph compiler passes ``recipe`` and
    ``passes``) is stored in ``meta.json`` next to the fingerprint.

    A loadable current-version layout of this very graph already at
    ``directory`` is left untouched.  Otherwise the write is atomic (temp
    directory + rename): a crashed or concurrent writer can never leave a
    torn layout at the target path, a concurrent writer of the same graph
    that got there first wins, and a layout of another graph or format
    version (or a torn one) is moved aside and replaced.  Anything else at
    the path is not a layout this function wrote, and is not removed: the
    rename fails with :class:`OSError`.
    """
    directory = os.fspath(directory)
    fingerprint = fingerprint or graph.fingerprint()
    if _holds(directory, fingerprint):
        return directory
    parent = os.path.dirname(os.path.abspath(directory))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{directory}.{os.getpid()}.tmp"
    stale = f"{directory}.{os.getpid()}.stale"
    os.makedirs(tmp, exist_ok=True)
    try:
        for name in _MMAP_ARRAYS:
            np.save(
                os.path.join(tmp, f"{name}.npy"),
                np.ascontiguousarray(getattr(graph, name)),
            )
        meta = {
            **(provenance or {}),
            "version": MMAP_FORMAT_VERSION,
            "start": graph.start,
            "fingerprint": fingerprint,
        }
        with open(os.path.join(tmp, _MMAP_META), "w") as fh:
            json.dump(meta, fh, sort_keys=True)
        if os.path.exists(os.path.join(directory, _MMAP_META)):
            # A layout the shortcut above turned down: another graph or
            # version, or torn.  A racing writer may move it aside first.
            with contextlib.suppress(FileNotFoundError):
                os.rename(directory, stale)
        try:
            os.rename(tmp, directory)
        except OSError:
            if not _holds(directory, fingerprint):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(stale, ignore_errors=True)
    return directory


def _holds(directory: str, fingerprint: str) -> bool:
    """Whether a loadable current-version layout of that graph is there."""
    try:
        return load_graph_mmap(directory).fingerprint() == fingerprint
    except GraphError:
        return False


def load_graph_meta(directory: PathLike) -> Dict[str, Any]:
    """The ``meta.json`` of an mmap layout: ``version``, ``start``,
    ``fingerprint`` and whatever provenance the writer stored.

    Raises:
        GraphError: on a missing layout, an unreadable ``meta.json``, or
            one written by an unsupported format version.
    """
    directory = os.fspath(directory)
    meta_path = os.path.join(directory, _MMAP_META)
    if not os.path.exists(meta_path):
        raise GraphError(f"graph mmap layout not found: {directory!r}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GraphError(f"unreadable mmap layout meta: {exc}") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != MMAP_FORMAT_VERSION:
        raise GraphError(f"unsupported graph mmap layout version {version}")
    return meta


def load_graph_mmap(directory: PathLike) -> CompiledWfst:
    """Load an mmap layout written by :func:`save_graph_mmap`.

    The returned graph's arrays are read-only memory maps: constructing it
    touches no array data, and concurrent loaders share the OS page cache
    instead of each holding a private copy.  The stored content
    fingerprint is stamped on the graph, so it is never recomputed.

    Raises:
        GraphError: on a missing or torn layout, or one written by an
            unsupported format version.
    """
    directory = os.fspath(directory)
    meta = load_graph_meta(directory)
    arrays = {}
    for name in _MMAP_ARRAYS:
        path = os.path.join(directory, f"{name}.npy")
        try:
            arrays[name] = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:  # EOFError: empty file
            raise GraphError(
                f"torn graph mmap layout {directory!r}: {exc}"
            ) from exc
    graph = CompiledWfst(start=int(meta["start"]), **arrays)
    graph._fingerprint = meta.get("fingerprint")
    return graph
