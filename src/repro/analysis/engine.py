"""Rule engine: run rules, apply suppressions, report.

The engine is deliberately small: rules do the reasoning, the engine
handles the bookkeeping every linter needs -- per-line suppression
comments, text/JSON output, and the ``--update-version-guard``
maintenance verb.

Exit codes: 0 clean, 1 violations, 2 the analysis itself failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Project, Rule, Violation
from repro.analysis.rules import default_rules
from repro.analysis.rules.fingerprint import compute_guard_state
from repro.common.errors import AnalysisError


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        summary = (
            f"repro-lint: {len(self.violations)} violation(s) in "
            f"{self.files_checked} file(s)"
        )
        if self.suppressed:
            summary += f", {self.suppressed} suppressed"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "violations": [
                    {
                        "rule": v.rule, "path": v.path,
                        "line": v.line, "message": v.message,
                    }
                    for v in self.violations
                ],
                "suppressed": self.suppressed,
                "files_checked": self.files_checked,
                "rules_run": list(self.rules_run),
            },
            indent=2,
        )


def run_analysis(
    root: Path,
    paths: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> AnalysisReport:
    """Run every rule over the tree at ``root`` and post-process.

    ``paths`` narrows *per-file* rules to the listed files (cross-file
    rules like REP003 still see the whole tree -- a fingerprint hole is
    a project property, not a file property).
    """
    config = config or AnalysisConfig.default()
    rules = list(rules) if rules is not None else default_rules(config)
    project = Project(root, config.scan_paths, limit_to=paths)

    report = AnalysisReport(rules_run=tuple(r.rule_id for r in rules))
    raw: List[Violation] = []
    for rule in rules:
        raw.extend(rule.check(project))

    seen: Set[Tuple[str, str, int, str]] = set()
    for violation in sorted(
        raw, key=lambda v: (v.path, v.line, v.rule, v.message)
    ):
        dedup = (violation.rule, violation.path, violation.line,
                 violation.message)
        if dedup in seen:
            continue
        seen.add(dedup)
        src = project.get(violation.path)
        if src is not None and src.suppressed(violation):
            report.suppressed += 1
            continue
        report.violations.append(violation)

    report.files_checked = sum(1 for _ in project.files())
    return report


def update_version_guard(root: Path, config: AnalysisConfig) -> Path:
    """Recompute and write the committed version-guard state."""
    state = compute_guard_state(Path(root), config.version_guards)
    path = Path(root) / config.version_guard_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(state, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*",
        help="limit per-file rules to these files (default: whole tree)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repository root (default: current directory)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    parser.add_argument(
        "--update-version-guard", action="store_true",
        help=(
            "re-attest the version guard: record current versions and "
            "source hashes (use after bumping a version constant, or "
            "when a guarded change provably cannot alter output)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def run_from_options(options: argparse.Namespace) -> int:
    config = AnalysisConfig.default()
    root = Path(options.root).resolve()

    if options.list_rules:
        for rule in default_rules(config):
            print(f"{rule.rule_id}  {rule.name}: {rule.rationale}")
        return 0

    if options.update_version_guard:
        path = update_version_guard(root, config)
        print(f"repro-lint: wrote {path.relative_to(root)}")

    try:
        report = run_analysis(
            root,
            paths=options.paths or None,
            config=config,
        )
    except AnalysisError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="invariant linter for the repro codebase",
    )
    add_arguments(parser)
    return run_from_options(parser.parse_args(argv))


if __name__ == "__main__":
    # CLI exit status, not a library failure.
    raise SystemExit(main())  # repro-lint: disable=REP002
