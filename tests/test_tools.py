"""Tests for the CI helper tools (tools/perf_report.py, tools/check_docs.py,
benchmarks/run_all.py's command line)."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_report = load_tool("perf_report")
check_docs = load_tool("check_docs")


# ----------------------------------------------------------------------
# perf_report
# ----------------------------------------------------------------------
def trajectory(path: Path, benches) -> str:
    path.write_text(json.dumps({"benches": benches}))
    return str(path)


class TestLoadTrajectory:
    def test_missing_file_is_empty(self, tmp_path):
        assert perf_report.load_trajectory(str(tmp_path / "nope.json")) == {}

    def test_corrupt_file_is_empty(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{torn write")
        assert perf_report.load_trajectory(str(p)) == {}

    def test_missing_benches_key_is_empty(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"other": 1}))
        assert perf_report.load_trajectory(str(p)) == {}

    def test_roundtrip(self, tmp_path):
        benches = {"decode": {"frames_per_second": 100.0}}
        p = trajectory(tmp_path / "t.json", benches)
        assert perf_report.load_trajectory(p) == benches


class TestBuildReport:
    def test_no_baseline_notes_first_run(self):
        lines, warnings = perf_report.build_report(
            {"decode": {"frames_per_second": 100.0}}, {}, 0.2
        )
        assert any("No previous main-branch baseline" in l for l in lines)
        assert not warnings

    def test_regression_beyond_threshold_warns(self):
        lines, warnings = perf_report.build_report(
            {"decode": {"frames_per_second": 70.0}},
            {"decode": {"frames_per_second": 100.0}},
            0.2,
        )
        assert len(warnings) == 1
        assert "regressed" in warnings[0]
        assert any(":warning:" in l for l in lines)

    def test_small_regression_does_not_warn(self):
        _, warnings = perf_report.build_report(
            {"decode": {"frames_per_second": 90.0}},
            {"decode": {"frames_per_second": 100.0}},
            0.2,
        )
        assert not warnings

    def test_improvement_does_not_warn(self):
        lines, warnings = perf_report.build_report(
            {"decode": {"speedup": 3.0}},
            {"decode": {"speedup": 2.0}},
            0.2,
        )
        assert not warnings
        assert any("+50.0%" in l for l in lines)

    def test_bench_only_in_baseline_still_listed(self):
        lines, _ = perf_report.build_report(
            {}, {"gone": {"frames_per_second": 50.0}}, 0.2
        )
        assert any("| gone |" in l for l in lines)


class TestPerfReportMain:
    def test_no_current_trajectory_exits_zero(self, tmp_path, capsys):
        rc = perf_report.main([
            "--current", str(tmp_path / "missing.json"),
            "--baseline", str(tmp_path / "missing2.json"),
        ])
        assert rc == 0
        assert "no current trajectory" in capsys.readouterr().out

    def test_writes_github_step_summary(self, tmp_path, capsys,
                                        monkeypatch):
        current = trajectory(
            tmp_path / "cur.json",
            {"decode": {"frames_per_second": 60.0}},
        )
        baseline = trajectory(
            tmp_path / "base.json",
            {"decode": {"frames_per_second": 100.0}},
        )
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        rc = perf_report.main(["--current", current,
                               "--baseline", baseline])
        assert rc == 0  # warnings never fail the job
        assert "# Perf trajectory" in summary.read_text()
        assert "::warning" in capsys.readouterr().out


# ----------------------------------------------------------------------
# check_docs
# ----------------------------------------------------------------------
def page(root: Path, rel: str, body: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")


class TestMarkdownLinks:
    def test_valid_relative_link_ok(self, tmp_path):
        page(tmp_path, "README.md", "[docs](docs/GUIDE.md)")
        page(tmp_path, "docs/GUIDE.md", "guide")
        assert check_docs.check_markdown_links(str(tmp_path)) == []

    def test_broken_link_reported(self, tmp_path):
        page(tmp_path, "README.md", "[gone](docs/MISSING.md)")
        failures = check_docs.check_markdown_links(str(tmp_path))
        assert failures and "MISSING.md" in failures[0]

    def test_anchor_stripped_before_check(self, tmp_path):
        page(tmp_path, "README.md", "[s](docs/GUIDE.md#section)")
        page(tmp_path, "docs/GUIDE.md", "guide")
        assert check_docs.check_markdown_links(str(tmp_path)) == []

    def test_external_and_pure_anchor_links_skipped(self, tmp_path):
        page(tmp_path, "README.md", """
            [ext](https://example.com/x) [m](mailto:a@b.c) [a](#local)
            """)
        assert check_docs.check_markdown_links(str(tmp_path)) == []

    def test_broken_image_reported(self, tmp_path):
        page(tmp_path, "README.md", "![plot](img/missing.png)")
        failures = check_docs.check_markdown_links(str(tmp_path))
        assert failures and "broken image" in failures[0]

    def test_docs_subdir_relative_base(self, tmp_path):
        page(tmp_path, "docs/A.md", "[b](B.md) [up](../README.md)")
        page(tmp_path, "docs/B.md", "b")
        page(tmp_path, "README.md", "r")
        assert check_docs.check_markdown_links(str(tmp_path)) == []

    def test_main_exit_codes(self, tmp_path):
        page(tmp_path, "README.md", "[gone](MISSING.md)")
        assert check_docs.main(
            ["--root", str(tmp_path), "--skip-pydoc"]
        ) == 1
        page(tmp_path, "README.md", "clean")
        assert check_docs.main(
            ["--root", str(tmp_path), "--skip-pydoc"]
        ) == 0


class TestPydocImportability:
    def test_real_package_renders(self):
        # The full check over the installed package: every repro module
        # must import and carry a docstring (same gate CI runs).
        assert check_docs.check_pydoc_importability() == []

    def test_real_repo_links_resolve(self):
        assert check_docs.check_markdown_links(str(REPO_ROOT)) == []


# ----------------------------------------------------------------------
# benchmarks/run_all.py
# ----------------------------------------------------------------------
class TestRunAllCommandLine:
    def test_help_runs_from_a_fresh_checkout(self, tmp_path):
        """``python benchmarks/run_all.py`` finds ``repro`` by itself: no
        ``PYTHONPATH``, no installed package, any working directory."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" / "run_all.py"),
             "--help"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "--quick" in done.stdout
