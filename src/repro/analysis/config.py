"""Declarative configuration of the invariant linter.

Everything the rules need to know about *this* repo lives here: which
modules are determinism-critical hot paths, which modules must stay
argument-pure, which dataclasses feed which fingerprint computation, and
which version constants guard which source files.  The configuration is
plain data so tests can point the same rules at fixture mini-trees.

Exemptions are part of the configuration -- visible, justified, reviewed
-- never silent: every ``allow`` entry of a fingerprint pair carries a
written justification, and an empty justification is itself a lint error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple


@dataclass(frozen=True)
class FingerprintSpec:
    """One dataclass whose fields must reach a fingerprint/pricing anchor.

    Attributes:
        cls: ``"relative/path.py::ClassName"`` of the dataclass.
        anchors: where coverage is searched -- either
            ``"relative/path.py::Qualified.name"`` (one function/method)
            or ``"relative/path.py"`` (a whole module); several anchors
            are unioned.
        allow: field -> written justification for fields deliberately
            not reachable from the anchors (e.g. recorded-but-unmodelled
            Table I bookkeeping).  Empty justifications are reported.
    """

    cls: str
    anchors: Tuple[str, ...]
    allow: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class VersionGuardSpec:
    """One version constant guarding a set of fingerprinted sources.

    Any change to the guarded sources without either bumping ``symbol``
    or re-attesting the guard (``tools/run_analysis.py
    --update-version-guard``) is a lint error: it could silently change
    cached-artifact content without moving its content address.
    """

    symbol: str
    module: str  #: file defining ``symbol`` as a module-level int
    guarded: Tuple[str, ...]  #: repo-relative files hashed by the guard


@dataclass(frozen=True)
class AnalysisConfig:
    """Full rule configuration; :meth:`default` matches this repo."""

    scan_paths: Tuple[str, ...] = ("src/repro",)
    #: REP001 scope: the kernel/replay hot paths where any
    #: nondeterminism breaks cross-engine equivalence or trace replay.
    hot_modules: Tuple[str, ...] = (
        "src/repro/decoder/kernel.py",
        "src/repro/decoder/batch.py",
        "src/repro/decoder/session.py",
        "src/repro/decoder/traceback.py",
        "src/repro/decoder/backends/__init__.py",
        "src/repro/decoder/backends/numpy_backend.py",
        "src/repro/accel/trace.py",
        "src/repro/accel/replay.py",
        "src/repro/wfst/layout.py",
        # Batched acoustic scoring must be bitwise batch-stable -- any
        # nondeterminism here breaks the features-vs-scores identity
        # the serving paths promise.
        "src/repro/acoustic/dnn.py",
        "src/repro/acoustic/scorer.py",
        "src/repro/acoustic/batch_scorer.py",
        "src/repro/system/score_ring.py",
    )
    #: REP002: the module defining the error taxonomy; every class
    #: defined there is an allowed raise.
    errors_module: str = "src/repro/common/errors.py"
    #: REP004 scope: modules whose functions must not mutate arguments.
    pure_modules: Tuple[str, ...] = (
        "src/repro/wfst/ops.py",
        "src/repro/graph/compiler.py",
    )
    #: REP005 scope: dataclasses with these name suffixes and a
    #: ``__post_init__``/``validate`` method must check every field.
    validated_class_suffixes: Tuple[str, ...] = ("Config", "Recipe")
    fingerprint_specs: Tuple[FingerprintSpec, ...] = ()
    version_guards: Tuple[VersionGuardSpec, ...] = ()
    #: Committed guard state (symbol -> {version, content_hash}).
    version_guard_path: str = "src/repro/analysis/version_guard.json"

    @staticmethod
    def default() -> "AnalysisConfig":
        return AnalysisConfig(
            fingerprint_specs=(
                # Every recipe field must feed the artifact content
                # address, or equal recipes with different compiled
                # output would collide in the graph cache.
                FingerprintSpec(
                    cls="src/repro/graph/recipe.py::GraphRecipe",
                    anchors=(
                        "src/repro/graph/recipe.py::GraphRecipe.fingerprint",
                        "src/repro/graph/recipe.py::GraphRecipe.to_dict",
                    ),
                ),
                # Every hash-table field must be consumed by the replay
                # pricing (or its memo keys): a field that changes
                # replay behaviour without appearing there poisons the
                # per-config memoization.
                FingerprintSpec(
                    cls="src/repro/accel/config.py::HashConfig",
                    anchors=(
                        "src/repro/accel/replay.py",
                        "src/repro/energy/components.py",
                    ),
                ),
                # Accelerator fields must be consumed somewhere in the
                # pricing surface (replay, simulator, stats/seconds
                # conversion, energy/area models); a field none of them
                # reads is a dead knob that sweeps would silently vary
                # to identical results.
                FingerprintSpec(
                    cls="src/repro/accel/config.py::AcceleratorConfig",
                    anchors=(
                        "src/repro/accel/replay.py",
                        "src/repro/accel/simulator.py",
                        "src/repro/accel/stats.py",
                        "src/repro/energy/components.py",
                        "src/repro/energy/cpu_model.py",
                    ),
                    allow={
                        "fp_adders": (
                            "Table I bookkeeping: the pipeline model "
                            "abstracts the Likelihood Evaluation Unit "
                            "at one arc/cycle, so LEU adder count is "
                            "recorded (reports, docs) but not priced"
                        ),
                        "fp_comparators": (
                            "Table I bookkeeping: LEU comparator count "
                            "recorded but abstracted by the one-arc-"
                            "per-cycle pipeline model"
                        ),
                        "acoustic_issuer_inflight": (
                            "the double-buffered Acoustic Likelihood "
                            "Buffer hides acoustic-fetch latency "
                            "entirely (paper Section III), so the "
                            "issuer depth cannot change any cycle count"
                        ),
                    },
                ),
            ),
            version_guards=(
                VersionGuardSpec(
                    symbol="COMPILER_VERSION",
                    module="src/repro/graph/recipe.py",
                    guarded=(
                        "src/repro/graph/compiler.py",
                        "src/repro/graph/recipe.py",
                        "src/repro/wfst/epsilon_removal.py",
                        "src/repro/wfst/layout.py",
                        "src/repro/wfst/ops.py",
                        "src/repro/lexicon/lexicon.py",
                        "src/repro/lexicon/lexicon_fst.py",
                        "src/repro/lexicon/phones.py",
                        "src/repro/lm/grammar_fst.py",
                        "src/repro/lm/ngram.py",
                        "src/repro/lm/trigram.py",
                        "src/repro/datasets/corpus.py",
                        "src/repro/datasets/synthetic_graph.py",
                    ),
                ),
            ),
        )
