"""Content-addressed artifact cache: compile once, load bit-exact forever.

Every :class:`~repro.graph.recipe.GraphRecipe` fingerprints to a stable
content address (recipe fields + compiler version), and :class:`GraphCache`
stores the compiled artifact under it -- in memory always, and as an mmap
layout directory with the compiler provenance in its ``meta.json``
(:func:`repro.wfst.io.save_graph_mmap`) when a directory is configured.
Properties:

* within a process, every consumer of the same recipe shares one compile;
* across processes/runs, a disk directory makes compilation a one-time
  cost per recipe (``benchmarks/bench_graph_compile.py`` gates the warm
  load at >= 5x a cold compile), and a warm hit hands out read-only
  memory maps of the one on-disk copy, which serving-tier workers map too
  (:meth:`GraphCache.mmap_dir`);
* invalidation is automatic: any recipe or compiler-version change moves
  the address, and stale entries are simply never addressed again (the
  directory can be deleted at any time; layouts additionally embed a
  format version, so an entry from an incompatible schema, like a torn
  one, is re-compiled and replaced rather than misread).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.common.errors import ConfigError, GraphError
from repro.graph.compiler import GraphArtifact, GraphCompiler, PassStats
from repro.graph.recipe import GraphRecipe
from repro.wfst.io import load_graph_meta, load_graph_mmap, save_graph_mmap

#: Default on-disk artifact store of the CLI commands (content-addressed;
#: safe to delete at any time -- see docs/ARCHITECTURE.md).
DEFAULT_GRAPH_CACHE = os.path.join(
    os.path.expanduser("~"), ".cache", "repro-asr", "graphs"
)


class GraphCache:
    """In-memory (and optionally on-disk) store of compiled graph artifacts.

    Args:
        directory: optional directory for persistent entries (one mmap
            layout per recipe).  Created on first write.  ``None`` keeps
            artifacts in memory only.
        compiler: the compiler used on a miss (defaults to a fresh
            :class:`GraphCompiler`).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        compiler: Optional[GraphCompiler] = None,
    ) -> None:
        self.directory = (
            os.path.expanduser(directory) if directory is not None else None
        )
        self.compiler = compiler or GraphCompiler()
        self._memory: Dict[str, GraphArtifact] = {}
        self.compiles = 0  #: pipelines actually executed
        self.hits = 0      #: lookups satisfied without compiling

    def get(self, recipe: GraphRecipe) -> GraphArtifact:
        """The artifact for ``recipe``: memory hit, disk hit, or compile."""
        key = recipe.fingerprint()
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached

        artifact = self._load_from_disk(recipe, key)
        if artifact is not None:
            self.hits += 1
        else:
            artifact = self.compiler.compile(recipe)
            self.compiles += 1
            if self.directory is not None:
                self._store_to_disk(artifact)
        self._memory[key] = artifact
        return artifact

    def mmap_dir(self, recipe: GraphRecipe) -> str:
        """The on-disk entry of ``recipe``'s artifact, an mmap layout every
        serving-tier worker can map (``ServingTier(graph_dir=...)``).

        Compiles or loads the artifact through :meth:`get`, and writes the
        entry again should it have been deleted since.

        Raises:
            ConfigError: for a memory-only cache, which has no entries.
        """
        return self._store_to_disk(self.get(recipe))

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        if self.directory is None:
            raise ConfigError("a memory-only GraphCache has no on-disk entries")
        return os.path.join(self.directory, f"{key}.graph.mmap")

    def _load_from_disk(
        self, recipe: GraphRecipe, key: str
    ) -> Optional[GraphArtifact]:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            graph = load_graph_mmap(path)
            passes = load_graph_meta(path).get("passes", [])
        except GraphError:
            # Absent, torn, or another format version: compile, and let
            # the store replace whatever is there.
            return None
        return GraphArtifact(
            recipe=recipe,
            fingerprint=key,
            graph=graph,
            passes=tuple(PassStats.from_dict(p) for p in passes),
            compile_seconds=0.0,
            source="disk",
        )

    def _store_to_disk(self, artifact: GraphArtifact) -> str:
        return save_graph_mmap(
            artifact.graph,
            self._path(artifact.fingerprint),
            fingerprint=artifact.graph.fingerprint(),
            provenance=artifact.provenance(),
        )


def compile_graph(
    recipe: GraphRecipe, cache: Optional[GraphCache] = None
) -> GraphArtifact:
    """Compile ``recipe``, through ``cache`` when one is supplied.

    The single entry point every graph consumer (tasks, benches, sweeps,
    the CLI) goes through.
    """
    if cache is not None:
        return cache.get(recipe)
    return GraphCompiler().compile(recipe)
