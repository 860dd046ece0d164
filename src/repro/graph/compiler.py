"""The staged graph compiler: recipe in, packed artifact out.

The paper compiles its decoding WFST *offline* into the packed binary
layout the accelerator walks (Section III); this module is that offline
compiler.  A :class:`GraphCompiler` executes a
:class:`~repro.graph.recipe.GraphRecipe` as an explicit pass pipeline --

    lexicon -> grammar -> compose -> epsilon (check or removal)
            -> arcsort -> pack

for composed recipes, or a single ``synthesize`` pass for synthetic ones
-- recording per-pass statistics (states/arcs/epsilon-arcs in and out,
wall time) in :class:`PassStats`.  The result is a :class:`GraphArtifact`:
the packed :class:`~repro.wfst.layout.CompiledWfst` plus provenance, with
the :class:`~repro.wfst.layout.FlatLayout` view derived on demand.

Artifacts are content-addressed by the recipe fingerprint; see
:mod:`repro.graph.cache` for the compile-once / load-bit-exact store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.datasets.corpus import CorpusConfig, generate_corpus
from repro.datasets.synthetic_graph import generate_kaldi_like_graph
from repro.graph.recipe import GraphRecipe
from repro.lexicon.lexicon import Lexicon, generate_lexicon
from repro.lexicon.lexicon_fst import build_lexicon_fst
from repro.lm.grammar_fst import build_grammar_fst
from repro.lm.ngram import NGramModel, train_ngram
from repro.lm.trigram import TrigramModel, build_trigram_fst, train_trigram
from repro.wfst.epsilon_removal import remove_epsilons
from repro.wfst.fst import EPSILON, Fst
from repro.wfst.layout import CompiledWfst, FlatLayout
from repro.wfst.ops import arcsort, check_epsilon_acyclic, compose


@dataclass(frozen=True)
class PassStats:
    """Size and timing bookkeeping of one compiler pass."""

    name: str
    states_in: int
    arcs_in: int
    eps_in: int
    states_out: int
    arcs_out: int
    eps_out: int
    seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "states_in": self.states_in,
            "arcs_in": self.arcs_in,
            "eps_in": self.eps_in,
            "states_out": self.states_out,
            "arcs_out": self.arcs_out,
            "eps_out": self.eps_out,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PassStats":
        return cls(**payload)


def _shape(graph: Union[Fst, CompiledWfst, None]) -> Tuple[int, int, int]:
    """``(states, arcs, epsilon_arcs)`` of either graph representation."""
    if graph is None:
        return (0, 0, 0)
    if isinstance(graph, CompiledWfst):
        eps = int((graph.arc_ilabel == EPSILON).sum())
        return (graph.num_states, graph.num_arcs, eps)
    return (graph.num_states, graph.num_arcs, graph.num_epsilon_arcs())


@dataclass
class GraphArtifact:
    """A compiled decoding graph with its provenance.

    Attributes:
        recipe: the recipe that produced (or addresses) the graph.
        fingerprint: the recipe fingerprint -- the artifact's content
            address in the cache.
        graph: the packed graph.
        passes: per-pass statistics of the compile that built the graph
            (preserved through the on-disk cache).
        compile_seconds: wall time of that compile.
        source: where this instance came from: ``"compiled"``,
            ``"memory"`` (cache hit) or ``"disk"`` (mapped from the
            on-disk cache).
        lexicon / lm / corpus: the intermediate models and training
            corpus of a *fresh* composed compile; ``None`` after a cache
            load (consumers that need them regenerate deterministically
            from the recipe seed).
    """

    recipe: GraphRecipe
    fingerprint: str
    graph: CompiledWfst
    passes: Tuple[PassStats, ...]
    compile_seconds: float
    source: str = "compiled"
    lexicon: Optional[Lexicon] = None
    lm: Optional[Union[NGramModel, TrigramModel]] = None
    corpus: Optional[List[List[int]]] = None

    def flat(self) -> FlatLayout:
        """The Structure-of-Arrays decode view (lazily built, shared)."""
        return self.graph.flat()

    def provenance(self) -> Dict[str, Any]:
        """What :func:`repro.wfst.io.save_graph_mmap` stores in the
        layout's ``meta.json`` next to the graph (JSON-serialisable)."""
        return {
            "recipe": self.recipe.to_dict(),
            "passes": [p.to_dict() for p in self.passes],
        }

    def report(self) -> str:
        """An aligned per-pass table for logs and the CLI."""
        header = ("pass", "states", "arcs", "eps", "ms")
        rows: List[Tuple[str, ...]] = []
        for p in self.passes:
            rows.append((
                p.name,
                f"{p.states_in} -> {p.states_out}",
                f"{p.arcs_in} -> {p.arcs_out}",
                f"{p.eps_in} -> {p.eps_out}",
                f"{p.seconds * 1e3:.1f}",
            ))
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows
            else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append(
            f"artifact {self.fingerprint} "
            f"({self.recipe.describe()}, {self.source}, "
            f"{self.compile_seconds * 1e3:.1f} ms)"
        )
        return "\n".join(lines)


class GraphCompiler:
    """Executes recipes as staged pass pipelines."""

    def compile(self, recipe: GraphRecipe) -> GraphArtifact:
        """Compile ``recipe`` from scratch (no cache involved)."""
        t0 = time.perf_counter()
        passes: List[PassStats] = []

        def run(
            name: str,
            func: Callable[[], Union[Fst, CompiledWfst]],
            before: Union[Fst, CompiledWfst, None],
        ) -> Union[Fst, CompiledWfst]:
            states_in, arcs_in, eps_in = _shape(before)
            t = time.perf_counter()
            result = func()
            seconds = time.perf_counter() - t
            out = result if result is not None else before
            states_out, arcs_out, eps_out = _shape(out)
            passes.append(PassStats(
                name, states_in, arcs_in, eps_in,
                states_out, arcs_out, eps_out, seconds,
            ))
            return out

        lexicon: Optional[Lexicon] = None
        lm: Optional[Union[NGramModel, TrigramModel]] = None
        corpus: Optional[List[List[int]]] = None

        if recipe.kind == "synthetic":
            graph = run(
                "synthesize",
                lambda: generate_kaldi_like_graph(recipe.synthetic),
                None,
            )
        else:
            def build_lexicon() -> Fst:
                nonlocal lexicon
                lexicon = generate_lexicon(
                    recipe.vocab_size, seed=recipe.seed
                )
                return build_lexicon_fst(
                    lexicon, silence_prob=recipe.silence_prob
                )

            def build_grammar() -> Fst:
                nonlocal lm, corpus
                corpus = generate_corpus(CorpusConfig(
                    vocab_size=recipe.vocab_size,
                    num_sentences=recipe.corpus_sentences,
                    seed=recipe.seed,
                ))
                if recipe.lm_order == 3:
                    lm = train_trigram(corpus, recipe.vocab_size)
                    return build_trigram_fst(lm)
                lm = train_ngram(corpus, recipe.vocab_size)
                return build_grammar_fst(lm)

            lexicon_fst = run("lexicon", build_lexicon, None)
            grammar_fst = run("grammar", build_grammar, None)
            composed = run(
                "compose",
                lambda: compose(lexicon_fst, grammar_fst),
                lexicon_fst,
            )
            if recipe.remove_epsilons:
                composed = run(
                    "remove-epsilons",
                    lambda: remove_epsilons(composed),
                    composed,
                )
            else:
                composed = run(
                    "epsilon-check",
                    lambda: check_epsilon_acyclic(composed),
                    composed,
                )
            if recipe.arcsort:
                composed = run(
                    "arcsort", lambda: arcsort(composed), composed
                )
            # Arc order is already final (sorted or intentionally raw), so
            # packing only partitions non-epsilon arcs first.
            graph = run(
                "pack",
                lambda: CompiledWfst.from_fst(composed, arcsort=False),
                composed,
            )

        return GraphArtifact(
            recipe=recipe,
            fingerprint=recipe.fingerprint(),
            graph=graph,
            passes=tuple(passes),
            compile_seconds=time.perf_counter() - t0,
            source="compiled",
            lexicon=lexicon,
            lm=lm,
            corpus=corpus,
        )
