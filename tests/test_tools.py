"""Tests for the CI helper tools (tools/perf_report.py, tools/check_docs.py,
tools/bench_record.py, benchmarks/run_all.py's command line)."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
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
bench_record = load_tool("bench_record")


# ----------------------------------------------------------------------
# perf_report
# ----------------------------------------------------------------------
def committed(pr: int) -> dict:
    return json.loads((REPO_ROOT / f"BENCH_{pr}.json").read_text())


def table_rows(lines):
    return [l for l in lines if l.startswith("| ") and "| metric |" not in l]


class TestLoadRecords:
    def test_empty_directory_has_no_records(self, tmp_path):
        assert perf_report.load_records(str(tmp_path)) == ([], [])

    def test_torn_file_is_named_and_skipped(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text("{torn write")
        (tmp_path / "BENCH_4.json").write_text(json.dumps({"pr": 4}))
        records, notes = perf_report.load_records(str(tmp_path))
        assert records == [{"pr": 4}]
        assert len(notes) == 1 and "BENCH_3.json" in notes[0]

    def test_other_json_files_are_not_records(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({"paths": []}))
        (tmp_path / "BENCH_notes.json").write_text("{}")
        assert perf_report.load_records(str(tmp_path)) == ([], [])

    def test_records_come_back_in_pr_order(self, tmp_path):
        for pr in (16, 9, 101):
            (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps({"pr": pr}))
        records, _ = perf_report.load_records(str(tmp_path))
        assert [r["pr"] for r in records] == [9, 16, 101]


class TestRenderRecord:
    def test_heading_names_pr_machine_and_line_counts(self):
        text = "\n".join(perf_report.render(committed(17)))
        assert "## PR 17" in text
        assert "cores 2" in text and "numba not installed" in text
        assert "src 17507 lines, tests 9946 lines, benchmarks 6394 lines" in text
        assert "tier-1 846 passed / 32 skipped" in text

    @pytest.mark.parametrize("pr", [16, 17])
    def test_one_row_per_workload_and_end_to_end_metric(self, pr):
        record = committed(pr)
        rows = table_rows(perf_report.render(record))
        assert len(rows) == 6 * 3
        for workload, metrics in record["end_to_end"].items():
            for metric in metrics:
                assert sum(f"| {workload} | {metric} |" in r for r in rows) == 1

    def test_row_quotes_medians_ratio_and_verdict(self):
        rows = table_rows(perf_report.render(committed(16)))
        assert ("| accel_sweep | frames_per_s | 1,133 | 1,863 | 1.643 "
                "| better |") in rows

    def test_verdict_is_the_recorded_one_not_a_second_judgement(self):
        record = committed(16)
        record["end_to_end"]["accel_sweep"]["frames_per_s"]["verdict"] = (
            "unresolved"
        )
        rows = table_rows(perf_report.render(record))
        assert ("| accel_sweep | frames_per_s | 1,133 | 1,863 | 1.643 "
                "| unresolved |") in rows

    def test_missing_fields_read_as_dashes(self):
        lines = perf_report.render(
            {"pr": 3, "end_to_end": {"w": {"frames_per_s": {"ratio": 1.0}}}}
        )
        assert "## PR 3" in lines
        assert table_rows(lines) == [
            "| w | frames_per_s | -- | -- | 1.000 | -- |"
        ]


# ----------------------------------------------------------------------
# Committed records re-derive from their own pairs
# ----------------------------------------------------------------------
def records_with_pairs():
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"),
                   key=lambda p: int(p.stem.split("_")[1]))
    return [p for p in paths if "pairs" in json.loads(p.read_text())]


def rederive(record):
    """Every pooled and per-set end-to-end row whose verdict or parent
    median differs from what ``bench_record`` makes of the record's
    pairs."""
    pairs = record["pairs"]
    blocks = [("pooled", record["end_to_end"], pairs)]
    for name, block in record.get("end_to_end_by_set", {}).items():
        number = int(name.split("_")[1])
        blocks.append((name, block, [p for p in pairs if p["set"] == number]))
    differences = []
    for name, block, chosen in blocks:
        derived_block = bench_record.end_to_end_block(chosen)
        for workload, rows in block.items():
            for metric, row in rows.items():
                derived = derived_block[workload][metric]
                derived = (derived["verdict"], derived["parent"]["median"])
                recorded = (row["verdict"], row["parent"]["median"])
                if derived != recorded:
                    differences.append(
                        f"{name} {workload} {metric}: recorded {recorded}, "
                        f"pairs give {derived}")
    return differences


class TestRecordsRederive:
    @pytest.mark.parametrize("path", records_with_pairs(),
                             ids=lambda p: p.name)
    def test_verdicts_and_parent_medians_come_from_the_pairs(self, path):
        assert rederive(json.loads(path.read_text())) == []

    def test_one_edited_verdict_is_caught(self):
        record = committed(39)
        row = record["end_to_end_by_set"]["set_2"]["accel_sweep"]["setup_s"]
        assert row["verdict"] == "same"
        row["verdict"] = "better"
        assert rederive(record) == [
            "set_2 accel_sweep setup_s: recorded ('better', "
            f"{row['parent']['median']!r}), pairs give ('same', "
            f"{row['parent']['median']!r})"
        ]

    def test_tool_rebuilds_a_committed_record_byte_equal(self):
        record = committed(42)
        assert json.dumps(bench_record.end_to_end_block(record["pairs"]),
                          indent=1) == json.dumps(record["end_to_end"], indent=1)
        assert json.dumps(bench_record.blocks_by_set(record["pairs"]),
                          indent=1) == json.dumps(record["end_to_end_by_set"],
                                                  indent=1)


# ----------------------------------------------------------------------
# bench_record: the recording loop, with a scripted harness
# ----------------------------------------------------------------------
WORKLOADS = ("audio_paced_tier", "accel_sweep")


def fake_run(tree, seed):
    """A ``run.py --out`` record: the change tree's runs read 10 % less
    ``peak_rss_mb``, every other figure is the parent's."""
    change = tree.endswith("change")
    workloads = {}
    for index, name in enumerate(WORKLOADS):
        rss = 100.0 + seed + index
        workloads[name] = {
            "attempted": 5, "failed": 0, "valid": True, "problems": [],
            "correct": not (change and seed == 3 and index == 1),
            "metrics": {"frames_per_s": 1000.0 + seed,
                        "peak_rss_mb": rss * 0.9 if change else rss,
                        "setup_s": 1.0 + seed / 100},
        }
    return {"descriptor": {"platform": "test", "git_sha": tree,
                           "lines": {"src": 2 if change else 1}, "seed": seed},
            "workloads": workloads}


class TestBenchRecord:
    def record(self, tmp_path, *extra, runner=fake_run):
        calls = []

        def scripted(tree, seed):
            calls.append((Path(tree).name, seed))
            return runner(tree, seed)

        out = tmp_path / "BENCH_9.json"
        assert bench_record.main(
            [str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "9",
             "--out", str(out), *extra], runner=scripted) == 0
        return json.loads(out.read_text()), calls

    def test_pairs_interleave_parent_first_on_odd_seeds(self, tmp_path):
        record, calls = self.record(tmp_path, "--claim",
                                    "audio_paced_tier:peak_rss_mb")
        assert calls[:4] == [("parent", 1), ("change", 1),
                             ("change", 2), ("parent", 2)]
        assert [p["seed"] for p in record["pairs"]] == list(range(1, 11))
        assert [p["first"] for p in record["pairs"]] == ["parent", "change"] * 5
        assert record["end_to_end"] == bench_record.end_to_end_block(
            record["pairs"])
        assert list(record["end_to_end_by_set"]) == ["set_1"]
        row = record["end_to_end"]["audio_paced_tier"]
        assert row["frames_per_s"]["verdict"] == "same"
        assert row["peak_rss_mb"]["verdict"] == "better"
        claim = record["claim"]
        assert claim["change_ahead_in_pairs"] == 10
        assert claim["median_ratio"] == pytest.approx(0.9)
        assert claim["verdict"] == "better"
        assert record["attempted_operations"] == {"parent": 100, "change": 100}
        assert record["invalid_runs"] == [
            "change seed 3 accel_sweep: not correct"]
        assert not record["every_workload_correct_on_every_run"]
        assert record["descriptor"]["lines"] == {"src": 2}
        assert record["descriptor"]["lines_parent"] == {"src": 1}
        assert "seed" not in record["descriptor"]

    def test_second_set_appends_and_repools(self, tmp_path):
        first, _ = self.record(tmp_path)
        first["what"] = "ten pairs"
        (tmp_path / "BENCH_9.json").write_text(json.dumps(first))
        record, calls = self.record(tmp_path, "--second-set", "--held-out")
        assert calls[0] == ("parent", 11)
        assert calls[-2:] == [("change", 2016), ("parent", 2016)]
        assert record["what"] == "ten pairs"  # the author's field is kept
        assert record["pairs"][:10] == first["pairs"]
        assert [p["set"] for p in record["pairs"]] == [1] * 10 + [2] * 10
        assert record["end_to_end"]["accel_sweep"]["setup_s"]["n"] == [20, 20]
        assert list(record["end_to_end_by_set"]) == ["set_1", "set_2"]
        assert "held_out_seed_2016" in record

    def test_an_interrupted_recording_resumes(self, tmp_path):
        def dies_on_seed_4(tree, seed):
            if seed == 4:
                raise KeyboardInterrupt
            return fake_run(tree, seed)

        with pytest.raises(KeyboardInterrupt):
            self.record(tmp_path, runner=dies_on_seed_4)
        record, calls = self.record(tmp_path)
        assert calls[0] == ("change", 4)
        assert [p["seed"] for p in record["pairs"]] == list(range(1, 11))

    def test_second_set_needs_a_record(self, tmp_path):
        with pytest.raises(SystemExit):
            self.record(tmp_path, "--second-set")

    def test_second_set_first_finishes_a_cut_first_set(self, tmp_path):
        def dies_on_seed_4(tree, seed):
            if seed == 4:
                raise KeyboardInterrupt
            return fake_run(tree, seed)

        with pytest.raises(KeyboardInterrupt):
            self.record(tmp_path, runner=dies_on_seed_4)
        record, calls = self.record(tmp_path, "--second-set")
        assert calls[0] == ("change", 4)
        assert [p["seed"] for p in record["pairs"]] == list(range(1, 21))
        assert [p["set"] for p in record["pairs"]] == [1] * 10 + [2] * 10

    @pytest.mark.parametrize("claim", [
        "audio_paced_tier", "audio_paced_tier:peak_rss_mb:x",
        "no_such_workload:peak_rss_mb", "audio_paced_tier:no_such_metric"])
    def test_a_bad_claim_is_refused_before_any_run(self, tmp_path, claim):
        def must_not_run(tree, seed):
            raise AssertionError("ran the harness")

        with pytest.raises(SystemExit) as exited:
            self.record(tmp_path, "--claim", claim, runner=must_not_run)
        assert exited.value.code == 2
        assert not (tmp_path / "BENCH_9.json").exists()


class TestPlatformChange:
    def test_record_on_a_new_platform_is_marked(self):
        text = "\n".join(perf_report.render(committed(25), committed(24)))
        assert "**Platform changed** from Linux-6.18.44-fc-v50" in text
        assert "(PR 24)" in text

    def test_same_platform_and_first_record_are_not(self):
        assert not any("Platform changed" in l
                       for l in perf_report.render(committed(24), committed(21)))
        assert not any("Platform changed" in l for l in perf_report.render(committed(16)))


class TestReadmeTable:
    def test_caption_names_record_pr_and_platform(self):
        lines = perf_report.readme_table(committed(25))
        assert lines[0] == perf_report.TABLE_BEGIN and lines[-1] == perf_report.TABLE_END
        assert "`BENCH_25.json` (PR 25, 10 interleaved" in lines[1]
        assert "Linux-6.18.44-fc-v130-x86_64-with-glibc2.36, 2 cores" in lines[1]

    def test_rows_are_the_change_side_medians(self):
        rows = [l for l in perf_report.readme_table(committed(25)) if l.startswith("| `")]
        assert [r.split("`")[1] for r in rows] == [
            name for name, _ in perf_report.README_WORKLOADS]
        assert rows[0].endswith("| 1,182 | 97 MiB |")  # search_wide_server


class TestPerfReportMain:
    def test_no_records_exits_zero_with_a_note(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert perf_report.main(str(tmp_path)) == 0
        assert "No BENCH_<n>.json record" in capsys.readouterr().out

    def test_writes_github_step_summary(self, tmp_path, capsys,
                                        monkeypatch):
        """The repo's own records, in one go: one section per committed
        file, in the step summary when CI provides one."""
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert perf_report.main() == 0
        text = summary.read_text()
        committed_prs = sorted(
            int(p.stem.split("_")[1]) for p in REPO_ROOT.glob("BENCH_*.json")
        )
        assert {16, 17} <= set(committed_prs)
        assert [l for l in text.splitlines() if l.startswith("## PR ")] == [
            f"## PR {pr}" for pr in committed_prs
        ]
        assert "unreadable" not in text
        assert capsys.readouterr().out == ""


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


class TestRepoPaths:
    def test_missing_path_reported(self, tmp_path):
        page(tmp_path, "README.md", """
            `benchmarks/bench_gone.py` gates it; see also `bench_lost.py`
            and `tests/test_here.py::TestIt::test_case`.
            """)
        page(tmp_path, "tests/test_here.py", "")
        failures = check_docs.check_repo_paths(str(tmp_path))
        assert failures == [
            "README.md: no such file -> bench_lost.py",
            "README.md: no such file -> benchmarks/bench_gone.py",
        ]

    def test_matching_glob_and_bare_bench_name_ok(self, tmp_path):
        page(tmp_path, "docs/GUIDE.md", """
            The `benchmarks/bench_fig*.py` files, `bench_fig01_x.py` first;
            `src/<package>/x.py` and `results/out.json` are not repo paths.
            """)
        page(tmp_path, "benchmarks/bench_fig01_x.py", "")
        assert check_docs.check_repo_paths(str(tmp_path)) == []

    def test_package_paths_resolve_under_src(self, tmp_path):
        page(tmp_path, "docs/ARCHITECTURE.md", """
            | `repro/system/ring.py` | `repro/gpu/*` | `repro/backends/` |
            | `repro/system/gone.py` | `repro/lost/*` | `repro/empty/` |
            """)
        for rel in ("src/repro/system/ring.py", "src/repro/gpu/model.py",
                    "src/repro/backends/numpy.py"):
            page(tmp_path, rel, "")
        assert check_docs.check_repo_paths(str(tmp_path)) == [
            f"docs/ARCHITECTURE.md: no such file -> repro/{gone}"
            for gone in ("empty/", "lost/*", "system/gone.py")
        ]


class TestE2eTable:
    @staticmethod
    def tree(tmp_path):
        """A temp copy of README and the newest record."""
        newest = max(REPO_ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
        shutil.copy(newest, tmp_path)
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        (tmp_path / "README.md").write_text(readme, encoding="utf-8")
        return readme

    def test_repo_readme_is_the_rendering(self, tmp_path):
        self.tree(tmp_path)
        assert check_docs.check_e2e_table(str(tmp_path)) == []

    def test_one_edited_cell_fails_the_check(self, tmp_path):
        readme = self.tree(tmp_path)
        row = next(l for l in readme.splitlines() if l.startswith("| `search_wide_server`"))
        cells = row.split(" | ")
        cells[1] = "9,999"
        (tmp_path / "README.md").write_text(
            readme.replace(row, " | ".join(cells)), encoding="utf-8")
        failures = check_docs.check_e2e_table(str(tmp_path))
        assert len(failures) == 1 and "9,999" in failures[0]
        assert check_docs.main(["--root", str(tmp_path), "--skip-pydoc"]) == 1

    def test_missing_table_fails_and_no_record_skips(self, tmp_path):
        self.tree(tmp_path)
        (tmp_path / "README.md").write_text("no table", encoding="utf-8")
        assert "no e2e table block" in check_docs.check_e2e_table(str(tmp_path))[0]
        for record in tmp_path.glob("BENCH_*.json"):
            record.unlink()
        assert check_docs.check_e2e_table(str(tmp_path)) == []


class TestPydocImportability:
    def test_real_package_renders(self):
        # The full check over the installed package: every repro module
        # must import and carry a docstring (same gate CI runs).
        assert check_docs.check_pydoc_importability() == []

    def test_real_repo_links_resolve(self):
        assert check_docs.check_markdown_links(str(REPO_ROOT)) == []
        assert check_docs.check_repo_paths(str(REPO_ROOT)) == []

    def test_runs_without_pythonpath(self, tmp_path):
        """``python tools/check_docs.py`` finds ``repro`` by itself, as CI's
        docs job runs it: no ``PYTHONPATH``, no installed package."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py"),
             "--root", str(tmp_path)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "modules rendered" in done.stdout


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
        assert "--fast" in done.stdout

    def test_quick_mode_is_gone(self, tmp_path):
        """The second measuring system's entry point is refused by
        argparse (exit 2) instead of silently running the full set."""
        done = subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" / "run_all.py"),
             "--quick"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "unrecognized arguments: --quick" in done.stderr
