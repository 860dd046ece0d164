"""Core of the invariant linter: source model, rule protocol, suppression.

A :class:`Project` is a lazily-parsed view of the python tree under one
repo root; rules receive the whole project (not one file at a time) so
cross-file invariants -- "every dataclass field reaches its fingerprint
function" -- are first-class.  Violations are plain frozen records.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.errors import AnalysisError

#: Trailing-comment suppression: ``x = set()  # repro-lint: disable=REP001``
#: (comma-separated list of rule ids).
_SUPPRESS = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")
#: Whole-file opt-out, honoured within the first ten lines.
_SKIP_FILE = re.compile(r"#\s*repro-lint:\s*skip-file")


@dataclass(frozen=True)
class Violation:
    """One rule finding."""

    rule: str
    path: str  #: repo-root-relative posix path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class SourceFile:
    """One parsed python source file plus its suppression annotations."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    #: line number -> rule ids disabled on that line
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    skip_all: bool = False

    @classmethod
    def parse(cls, path: Path, rel: str) -> "SourceFile":
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=rel)
        except (OSError, SyntaxError, ValueError) as exc:
            raise AnalysisError(f"cannot parse {rel}: {exc}") from exc
        suppressions: Dict[int, Set[str]] = {}
        skip_all = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if lineno <= 10 and _SKIP_FILE.search(line):
                skip_all = True
            match = _SUPPRESS.search(line)
            if match:
                rules = {
                    token.strip()
                    for token in match.group(1).split(",")
                    if token.strip()
                }
                suppressions.setdefault(lineno, set()).update(rules)
        return cls(
            path=path, rel=rel, text=text, tree=tree,
            suppressions=suppressions, skip_all=skip_all,
        )

    def suppressed(self, violation: Violation) -> bool:
        if self.skip_all:
            return True
        return violation.rule in self.suppressions.get(violation.line, set())


class Project:
    """Lazily-parsed python tree under ``root``, shared by every rule."""

    def __init__(
        self,
        root: Path,
        scan_paths: Sequence[str],
        limit_to: Optional[Sequence[str]] = None,
    ) -> None:
        self.root = Path(root).resolve()
        self.scan_paths = tuple(scan_paths)
        self._cache: Dict[str, Optional[SourceFile]] = {}
        self._limit = (
            None if limit_to is None
            else {self._normalize(p) for p in limit_to}
        )

    def _normalize(self, rel: str) -> str:
        path = Path(rel)
        if path.is_absolute():
            path = path.relative_to(self.root)
        return path.as_posix()

    # ------------------------------------------------------------------
    def get(self, rel: str) -> Optional[SourceFile]:
        """The parsed file at repo-relative ``rel``, or ``None`` if absent.

        Missing files are a legitimate state (rules configured for the
        full repo run unchanged over fixture mini-trees in tests), so
        absence is not an error here; rules decide what absence means.
        """
        rel = self._normalize(rel)
        if rel not in self._cache:
            path = self.root / rel
            self._cache[rel] = (
                SourceFile.parse(path, rel) if path.is_file() else None
            )
        return self._cache[rel]

    def files(self) -> Iterator[SourceFile]:
        """Every ``.py`` file under the scan paths, in sorted order."""
        seen: Set[str] = set()
        for scan in self.scan_paths:
            base = self.root / scan
            if base.is_file():
                candidates = [base]
            elif base.is_dir():
                candidates = sorted(base.rglob("*.py"))
            else:
                continue
            for path in candidates:
                if "__pycache__" in path.parts:
                    continue
                rel = path.relative_to(self.root).as_posix()
                if rel in seen:
                    continue
                seen.add(rel)
                if self._limit is not None and rel not in self._limit:
                    continue
                parsed = self.get(rel)
                if parsed is not None:
                    yield parsed


class Rule:
    """One machine-checked invariant.

    Subclasses set :attr:`rule_id` / :attr:`name` / :attr:`rationale` and
    implement :meth:`check` over the whole project.  The engine applies
    suppression comments afterwards, so rules simply report everything
    they see.
    """

    rule_id: str = "REP000"
    name: str = "abstract"
    rationale: str = ""

    def check(self, project: Project) -> Iterable[Violation]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Small AST helpers shared by several rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def attribute_names(node: ast.AST) -> Set[str]:
    """Every attribute name referenced anywhere under ``node``."""
    return {
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
    }


def plain_names(node: ast.AST) -> Set[str]:
    """Every bare identifier referenced anywhere under ``node``."""
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


def self_attribute_reads(node: ast.AST, owner: str = "self") -> Set[str]:
    """Attribute names accessed on ``owner`` anywhere under ``node``."""
    found: Set[str] = set()
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == owner
        ):
            found.add(child.attr)
    return found


def decorator_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name:
            names.add(name.split(".")[-1])
    return names


def is_dataclass(node: ast.ClassDef) -> bool:
    return "dataclass" in decorator_names(node)


def class_defs(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node


def dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, str]]:
    """``(field_name, annotation_source)`` for each annotated field."""
    fields: List[Tuple[str, str]] = []
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append((stmt.target.id, annotation))
    return fields
