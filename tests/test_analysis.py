"""Tests for the invariant linter (repro.analysis).

Each rule is exercised against fixture mini-trees written into tmp_path:
the same rules and configuration that run over the real repo run over a
tree that deliberately seeds one violation, and the engine must exit
non-zero; the cleaned variant must exit zero.  The real tree's own
cleanliness is asserted at the end (that is the CI gate).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis
from repro.analysis.config import FingerprintSpec, VersionGuardSpec
from repro.analysis.engine import main, update_version_guard

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def rules_hit(report):
    return {v.rule for v in report.violations}


@pytest.fixture
def mini(tmp_path):
    """A minimal clean tree the default config accepts."""
    write(tmp_path, "src/repro/common/errors.py", """
        class ReproError(Exception):
            pass

        class ConfigError(ReproError):
            pass
        """)
    return tmp_path


# ----------------------------------------------------------------------
# REP001 determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    HOT = "src/repro/decoder/kernel.py"

    def check(self, root):
        return run_analysis(root, config=AnalysisConfig.default())

    def test_random_import_flagged(self, mini):
        write(mini, self.HOT, "import random\n")
        assert "REP001" in rules_hit(self.check(mini))

    def test_time_import_flagged(self, mini):
        write(mini, self.HOT, "from time import monotonic\n")
        assert "REP001" in rules_hit(self.check(mini))

    def test_numpy_random_attribute_flagged(self, mini):
        write(mini, self.HOT, """
            import numpy as np

            def f():
                return np.random.default_rng(0)
            """)
        assert "REP001" in rules_hit(self.check(mini))

    def test_os_environ_flagged(self, mini):
        write(mini, self.HOT, """
            import os

            def f():
                return os.environ.get("HOME")
            """)
        assert "REP001" in rules_hit(self.check(mini))

    def test_set_iteration_flagged(self, mini):
        write(mini, self.HOT, """
            def f(states):
                live = set(states)
                return [s for s in live]
            """)
        assert "REP001" in rules_hit(self.check(mini))

    def test_sorted_set_iteration_ok(self, mini):
        write(mini, self.HOT, """
            def f(states):
                live = sorted(set(states))
                return [s for s in live]
            """)
        assert "REP001" not in rules_hit(self.check(mini))

    def test_cold_module_not_checked(self, mini):
        write(mini, "src/repro/frontend/other.py", "import random\n")
        assert "REP001" not in rules_hit(self.check(mini))

    def test_suppression_comment(self, mini):
        write(mini, self.HOT, (
            "import random  # repro-lint: disable=REP001\n"
        ))
        report = self.check(mini)
        assert "REP001" not in rules_hit(report)
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# REP002 typed errors
# ----------------------------------------------------------------------
class TestTypedErrors:
    def check(self, root):
        return run_analysis(root, config=AnalysisConfig.default())

    def test_untyped_raise_flagged(self, mini):
        write(mini, "src/repro/mod.py", """
            def f():
                raise ValueError("nope")
            """)
        assert "REP002" in rules_hit(self.check(mini))

    def test_taxonomy_raise_ok(self, mini):
        write(mini, "src/repro/mod.py", """
            from repro.common.errors import ConfigError

            def f():
                raise ConfigError("nope")
            """)
        assert "REP002" not in rules_hit(self.check(mini))

    def test_not_implemented_ok(self, mini):
        write(mini, "src/repro/mod.py", """
            def f():
                raise NotImplementedError
            """)
        assert "REP002" not in rules_hit(self.check(mini))

    def test_bare_except_flagged(self, mini):
        write(mini, "src/repro/mod.py", """
            def f():
                try:
                    return 1
                except:
                    return 0
            """)
        assert "REP002" in rules_hit(self.check(mini))

    def test_broad_except_without_reraise_flagged(self, mini):
        write(mini, "src/repro/mod.py", """
            def f():
                try:
                    return 1
                except Exception:
                    return 0
            """)
        assert "REP002" in rules_hit(self.check(mini))

    def test_broad_except_with_reraise_ok(self, mini):
        write(mini, "src/repro/mod.py", """
            def f(log):
                try:
                    return 1
                except Exception:
                    log("failed")
                    raise
            """)
        assert "REP002" not in rules_hit(self.check(mini))

    def test_nested_function_raise_is_not_a_reraise(self, mini):
        write(mini, "src/repro/mod.py", """
            def f():
                try:
                    return 1
                except Exception:
                    def g():
                        raise
                    return g
            """)
        assert "REP002" in rules_hit(self.check(mini))


# ----------------------------------------------------------------------
# REP003 fingerprint completeness + version guard
# ----------------------------------------------------------------------
class TestFingerprint:
    CLS = "src/repro/pkg/cfg.py"

    def config(self, **kwargs):
        return AnalysisConfig(
            fingerprint_specs=(FingerprintSpec(
                cls=f"{self.CLS}::DemoConfig",
                anchors=(f"{self.CLS}::DemoConfig.fingerprint",),
                **kwargs,
            ),),
        )

    def test_unreachable_field_flagged(self, mini):
        write(mini, self.CLS, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                used: int = 1
                dead_knob: int = 2

                def fingerprint(self):
                    return str(self.used)
            """)
        report = run_analysis(mini, config=self.config())
        assert any(
            v.rule == "REP003" and "dead_knob" in v.message
            for v in report.violations
        )

    def test_property_expansion_covers_field(self, mini):
        write(mini, self.CLS, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                size_bytes: int = 64
                line_bytes: int = 8

                @property
                def num_lines(self):
                    return self.size_bytes // self.line_bytes

                def fingerprint(self):
                    return str(self.num_lines)
            """)
        report = run_analysis(mini, config=self.config())
        assert "REP003" not in rules_hit(report)

    def test_allow_needs_justification(self, mini):
        write(mini, self.CLS, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                used: int = 1
                noted: int = 2

                def fingerprint(self):
                    return str(self.used)
            """)
        justified = run_analysis(
            mini, config=self.config(allow={"noted": "docs-only field"}),
        )
        assert "REP003" not in rules_hit(justified)
        unjustified = run_analysis(
            mini, config=self.config(allow={"noted": ""}),
        )
        assert any(
            "without a written justification" in v.message
            for v in unjustified.violations
        )

    def test_asdict_counts_as_full_coverage(self, mini):
        write(mini, self.CLS, """
            import dataclasses
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                a: int = 1
                b: int = 2

                def fingerprint(self):
                    return str(dataclasses.asdict(self))
            """)
        report = run_analysis(mini, config=self.config())
        assert "REP003" not in rules_hit(report)

    def guard_config(self):
        return AnalysisConfig(
            version_guards=(VersionGuardSpec(
                symbol="FMT_VERSION",
                module="src/repro/pkg/fmt.py",
                guarded=("src/repro/pkg/fmt.py", "src/repro/pkg/impl.py"),
            ),),
        )

    def test_version_guard_catches_drift(self, mini):
        write(mini, "src/repro/pkg/fmt.py", "FMT_VERSION = 1\n")
        write(mini, "src/repro/pkg/impl.py", "X = 1\n")
        config = self.guard_config()

        # Uninitialised guard is itself a violation.
        report = run_analysis(mini, config=config)
        assert any("not initialised" in v.message
                   for v in report.violations)

        update_version_guard(mini, config)
        report = run_analysis(mini, config=config)
        assert "REP003" not in rules_hit(report)

        # Guarded source drifts without a bump -> violation...
        write(mini, "src/repro/pkg/impl.py", "X = 2\n")
        report = run_analysis(mini, config=config)
        assert any("without a version bump" in v.message
                   for v in report.violations)

        # ...and bumping the constant asks for re-attestation.
        write(mini, "src/repro/pkg/fmt.py", "FMT_VERSION = 2\n")
        report = run_analysis(mini, config=config)
        assert any("re-attest" in v.message for v in report.violations)
        update_version_guard(mini, config)
        report = run_analysis(mini, config=config)
        assert "REP003" not in rules_hit(report)


# ----------------------------------------------------------------------
# REP004 argument purity
# ----------------------------------------------------------------------
class TestArgPurity:
    PURE = "src/repro/wfst/ops.py"

    def check(self, root):
        return run_analysis(root, config=AnalysisConfig.default())

    def test_attribute_assignment_flagged(self, mini):
        write(mini, self.PURE, """
            def bad(fst):
                fst.start = 0
                return fst
            """)
        assert "REP004" in rules_hit(self.check(mini))

    def test_subscript_assignment_flagged(self, mini):
        write(mini, self.PURE, """
            def bad(weights):
                weights[0] = 0.0
                return weights
            """)
        assert "REP004" in rules_hit(self.check(mini))

    def test_mutating_method_flagged(self, mini):
        write(mini, self.PURE, """
            def bad(fst, arc):
                fst.add_arc(0, arc)
            """)
        assert "REP004" in rules_hit(self.check(mini))

    def test_closure_mutation_flagged(self, mini):
        write(mini, self.PURE, """
            def outer(fst):
                def inner():
                    fst.states.append(0)
                return inner
            """)
        assert "REP004" in rules_hit(self.check(mini))

    def test_pure_copy_ok(self, mini):
        write(mini, self.PURE, """
            def good(fst):
                out = fst.copy()
                out.start = 0
                out.states.append(1)
                return out
            """)
        assert "REP004" not in rules_hit(self.check(mini))

    def test_local_rebinding_ok(self, mini):
        write(mini, self.PURE, """
            def good(n):
                n = n + 1
                return n
            """)
        assert "REP004" not in rules_hit(self.check(mini))

    def test_self_mutation_ok(self, mini):
        write(mini, self.PURE, """
            class Builder:
                def add(self, x):
                    self.items.append(x)
            """)
        assert "REP004" not in rules_hit(self.check(mini))

    def test_module_outside_scope_not_checked(self, mini):
        write(mini, "src/repro/other.py", """
            def bad(fst):
                fst.start = 0
            """)
        assert "REP004" not in rules_hit(self.check(mini))


# ----------------------------------------------------------------------
# REP005 validation completeness
# ----------------------------------------------------------------------
class TestValidationCompleteness:
    MOD = "src/repro/pkg/cfg.py"

    def check(self, root):
        return run_analysis(root, config=AnalysisConfig.default())

    def test_unchecked_field_flagged(self, mini):
        write(mini, self.MOD, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                checked: int = 1
                unchecked: float = 0.5

                def __post_init__(self):
                    if self.checked < 1:
                        raise ValueError("checked must be >= 1")
            """)
        report = self.check(mini)
        assert any(
            v.rule == "REP005" and "unchecked" in v.message
            for v in report.violations
        )

    def test_fully_checked_ok(self, mini):
        write(mini, self.MOD, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                a: int = 1
                b: float = 0.5

                def __post_init__(self):
                    if self.a < 1 or not 0 <= self.b <= 1:
                        raise ValueError("bad config")
            """)
        assert "REP005" not in rules_hit(self.check(mini))

    def test_bool_and_nested_config_exempt(self, mini):
        write(mini, self.MOD, """
            from dataclasses import dataclass
            from typing import Optional

            @dataclass(frozen=True)
            class InnerConfig:
                n: int = 1

                def __post_init__(self):
                    if self.n < 1:
                        raise ValueError("n")

            @dataclass(frozen=True)
            class DemoConfig:
                n: int = 1
                flag: bool = False
                inner: Optional[InnerConfig] = None

                def __post_init__(self):
                    if self.n < 1:
                        raise ValueError("n")
            """)
        assert "REP005" not in rules_hit(self.check(mini))

    def test_validation_via_property_counts(self, mini):
        write(mini, self.MOD, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                max_beam: int = 0
                fallback: int = 8

                @property
                def resolved_max_beam(self):
                    return self.max_beam or self.fallback

                def __post_init__(self):
                    if self.resolved_max_beam < 1:
                        raise ValueError("beam")
            """)
        assert "REP005" not in rules_hit(self.check(mini))

    def test_dataclass_without_validator_ignored(self, mini):
        write(mini, self.MOD, """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PlainConfig:
                a: int = 1
                b: int = 2
            """)
        assert "REP005" not in rules_hit(self.check(mini))


# ----------------------------------------------------------------------
# Engine behaviour: suppression, CLI exit codes, path narrowing
# ----------------------------------------------------------------------
class TestEngine:
    def test_skip_file_comment(self, mini):
        write(mini, "src/repro/mod.py", """
            # repro-lint: skip-file
            def f():
                raise ValueError("nope")
            """)
        report = run_analysis(mini, config=AnalysisConfig.default())
        assert not report.violations
        assert report.suppressed == 1

    def test_main_exit_codes(self, mini, capsys):
        write(mini, "src/repro/decoder/kernel.py", "import random\n")
        assert main(["--root", str(mini)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        (mini / "src/repro/decoder/kernel.py").write_text("X = 1\n")
        assert main(["--root", str(mini)]) == 0

    def test_main_json_format(self, mini, capsys):
        write(mini, "src/repro/decoder/kernel.py", "import random\n")
        assert main(["--root", str(mini), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"][0]["rule"] == "REP001"
        assert payload["rules_run"] == [
            "REP001", "REP002", "REP003", "REP004", "REP005",
        ]

    def test_paths_narrow_per_file_rules(self, mini):
        write(mini, "src/repro/a.py", """
            def f():
                raise ValueError("a")
            """)
        write(mini, "src/repro/b.py", """
            def f():
                raise ValueError("b")
            """)
        report = run_analysis(mini, paths=["src/repro/a.py"],
                              config=AnalysisConfig.default())
        assert {v.path for v in report.violations} == {"src/repro/a.py"}


# ----------------------------------------------------------------------
# The real tree is the fixture of record: it must be clean.
# ----------------------------------------------------------------------
class TestRealTree:
    def test_repo_is_clean(self):
        report = run_analysis(REPO_ROOT, config=AnalysisConfig.default())
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.ok, f"repro-lint violations:\n{rendered}"

    def test_version_guard_is_current(self):
        # update_version_guard over the committed tree must be a no-op;
        # if this fails, a fingerprinted module changed without the
        # guard being re-attested (CI would also fail repro-lint).
        config = AnalysisConfig.default()
        from repro.analysis.rules.fingerprint import compute_guard_state
        state = compute_guard_state(REPO_ROOT, config.version_guards)
        committed = json.loads(
            (REPO_ROOT / config.version_guard_path).read_text()
        )
        assert state == committed
