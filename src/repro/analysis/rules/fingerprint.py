"""REP003 -- fingerprint completeness and version-bump guarding.

Two checks protect the content-addressed caches:

1. **Field coverage** -- every field of a fingerprinted dataclass
   (:class:`GraphRecipe`, :class:`AcceleratorConfig`, :class:`HashConfig`)
   must be reachable from its fingerprint/pricing anchors.  A field the
   anchors never read either silently fragments the cache (hashed but
   unused) or, worse, changes behaviour without changing the address
   (used but unhashed).  Reachability follows one level of indirection
   through the dataclass's own properties/methods (``arc_issue_window``
   covers ``prefetch_fifo_entries``), and a call to
   ``dataclasses.asdict``/``astuple``/``fields`` inside a function anchor
   counts as full coverage.

2. **Version guard** -- the committed guard file records, per version
   constant (today only ``COMPILER_VERSION``), the value and a content
   hash of the sources it guards.  If the guarded sources
   change while the constant stays put, the rule fails: either bump the
   constant (output may differ -> cached artifacts must re-address) or
   explicitly re-attest that output is unchanged with
   ``tools/run_analysis.py --update-version-guard``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.analysis.config import (
    AnalysisConfig,
    FingerprintSpec,
    VersionGuardSpec,
)
from repro.analysis.core import (
    Project,
    Rule,
    Violation,
    attribute_names,
    dataclass_fields,
    plain_names,
    self_attribute_reads,
)
from repro.common.errors import AnalysisError

#: Calls that expand every dataclass field inside a function anchor.
_FULL_COVERAGE_CALLS = frozenset({"asdict", "astuple", "fields"})


def compute_guard_state(
    root: Path, specs: Iterable[VersionGuardSpec]
) -> Dict[str, Dict[str, object]]:
    """Current ``symbol -> {version, content_hash}`` for the guard file."""
    state: Dict[str, Dict[str, object]] = {}
    for spec in specs:
        version = _read_version(root, spec)
        if version is None:
            continue
        state[spec.symbol] = {
            "version": version,
            "content_hash": _hash_sources(root, spec.guarded),
        }
    return state


def load_guard_file(path: Path) -> Dict[str, Dict[str, object]]:
    if not path.is_file():
        return {}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise AnalysisError(f"corrupt version guard {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise AnalysisError(f"corrupt version guard {path}: not an object")
    return payload


def _read_version(root: Path, spec: VersionGuardSpec) -> Optional[int]:
    module = root / spec.module
    if not module.is_file():
        return None
    tree = ast.parse(module.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == spec.symbol
            for t in node.targets
        ):
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, int
            ):
                return node.value.value
    return None


def _hash_sources(root: Path, guarded: Tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    for rel in sorted(guarded):
        path = root / rel
        if not path.is_file():
            continue
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:32]


class FingerprintRule(Rule):
    rule_id = "REP003"
    name = "fingerprint-completeness"
    rationale = (
        "content-addressed caches are only sound if every "
        "behaviour-bearing field feeds the address and fingerprinted "
        "sources cannot drift without a version bump"
    )

    def __init__(self, config: AnalysisConfig) -> None:
        self.config = config

    def check(self, project: Project) -> Iterable[Violation]:
        for spec in self.config.fingerprint_specs:
            yield from self._check_spec(project, spec)
        yield from self._check_version_guards(project)

    # ------------------------------------------------------------------
    # Part 1: field coverage
    # ------------------------------------------------------------------
    def _check_spec(
        self, project: Project, spec: FingerprintSpec
    ) -> Iterator[Violation]:
        cls_rel, _, cls_name = spec.cls.partition("::")
        src = project.get(cls_rel)
        if src is None:  # fixture mini-trees omit most of the repo
            return
        cls_node = self._find_class(src.tree, cls_name)
        if cls_node is None:
            yield Violation(
                rule=self.rule_id, path=cls_rel, line=1,
                message=(
                    f"analysis config names dataclass '{cls_name}' which "
                    f"does not exist here; update fingerprint_specs"
                ),
            )
            return

        coverage, full = self._anchor_coverage(project, spec)
        coverage = self._expand_through_members(cls_node, coverage)

        for field_name, _annotation in dataclass_fields(cls_node):
            if field_name.startswith("_"):
                continue
            if field_name in spec.allow:
                if not str(spec.allow[field_name]).strip():
                    yield Violation(
                        rule=self.rule_id, path=cls_rel,
                        line=cls_node.lineno,
                        message=(
                            f"'{cls_name}.{field_name}' is exempted "
                            f"without a written justification; document "
                            f"why it need not reach the fingerprint"
                        ),
                    )
                continue
            if full or field_name in coverage:
                continue
            yield Violation(
                rule=self.rule_id, path=cls_rel, line=cls_node.lineno,
                message=(
                    f"field '{cls_name}.{field_name}' is not reachable "
                    f"from its fingerprint/pricing anchors "
                    f"({', '.join(spec.anchors)}); hash or consume it, "
                    f"or exempt it with a justification in the analysis "
                    f"config"
                ),
            )

    def _anchor_coverage(
        self, project: Project, spec: FingerprintSpec
    ) -> Tuple[Set[str], bool]:
        coverage: Set[str] = set()
        full = False
        for anchor in spec.anchors:
            rel, _, qualname = anchor.partition("::")
            src = project.get(rel)
            if src is None:
                continue
            if not qualname:
                coverage |= attribute_names(src.tree)
                coverage |= plain_names(src.tree)
                continue
            node = self._resolve(src.tree, qualname)
            if node is None:
                continue
            coverage |= attribute_names(node)
            coverage |= plain_names(node)
            for child in ast.walk(node):
                if isinstance(child, ast.Call):
                    func = child.func
                    name = (
                        func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None
                    )
                    if name in _FULL_COVERAGE_CALLS:
                        full = True
        return coverage, full

    @staticmethod
    def _find_class(
        tree: ast.Module, name: str
    ) -> Optional[ast.ClassDef]:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        return None

    @classmethod
    def _resolve(cls, tree: ast.Module, qualname: str) -> Optional[ast.AST]:
        parts = qualname.split(".")
        scope: ast.AST = tree
        for part in parts:
            found = None
            for node in ast.iter_child_nodes(scope):
                if isinstance(
                    node,
                    (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                ) and node.name == part:
                    found = node
                    break
            if found is None:
                return None
            scope = found
        return scope

    @staticmethod
    def _expand_through_members(
        cls_node: ast.ClassDef, coverage: Set[str]
    ) -> Set[str]:
        """Fixpoint: a covered property/method covers the fields it reads
        (``num_sets`` covers ``size_bytes``/``assoc``/``line_bytes``)."""
        member_reads = {
            node.name: self_attribute_reads(node)
            for node in cls_node.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        expanded = set(coverage)
        changed = True
        while changed:
            changed = False
            for member, reads in member_reads.items():
                if member in expanded and not reads <= expanded:
                    expanded |= reads
                    changed = True
        return expanded

    # ------------------------------------------------------------------
    # Part 2: version guard
    # ------------------------------------------------------------------
    def _check_version_guards(self, project: Project) -> Iterator[Violation]:
        recorded = load_guard_file(
            project.root / self.config.version_guard_path
        )
        for spec in self.config.version_guards:
            version = _read_version(project.root, spec)
            module = project.get(spec.module)
            if module is None:
                continue  # fixture mini-tree
            if version is None:
                yield Violation(
                    rule=self.rule_id, path=spec.module, line=1,
                    message=(
                        f"guarded version constant {spec.symbol} not "
                        f"found as a module-level int literal"
                    ),
                )
                continue
            entry = recorded.get(spec.symbol)
            current_hash = _hash_sources(project.root, spec.guarded)
            if entry is None:
                yield Violation(
                    rule=self.rule_id, path=spec.module, line=1,
                    message=(
                        f"version guard for {spec.symbol} is not "
                        f"initialised; run 'python tools/run_analysis.py "
                        f"--update-version-guard'"
                    ),
                )
            elif entry.get("version") != version:
                yield Violation(
                    rule=self.rule_id, path=spec.module, line=1,
                    message=(
                        f"{spec.symbol} was bumped "
                        f"({entry.get('version')} -> {version}); "
                        f"re-attest the guard with 'python "
                        f"tools/run_analysis.py --update-version-guard'"
                    ),
                )
            elif entry.get("content_hash") != current_hash:
                yield Violation(
                    rule=self.rule_id, path=spec.module, line=1,
                    message=(
                        f"sources guarded by {spec.symbol} changed "
                        f"without a version bump; bump {spec.symbol} so "
                        f"cached artifacts re-address, or -- only if the "
                        f"change provably cannot alter output -- "
                        f"re-attest with 'python tools/run_analysis.py "
                        f"--update-version-guard'"
                    ),
                )
