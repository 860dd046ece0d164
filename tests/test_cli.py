"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.datasets import SyntheticGraphConfig, generate_kaldi_like_graph
from repro.wfst import load_graph_meta, load_graph_mmap


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_subcommand_answers_help(self, capsys):
        """Walks the parser's own sub-commands, so none can be missed;
        each is also listed in the module docstring."""
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == ["compare", "compile", "decode",
                                       "lint", "serve", "simulate", "sweep"]
        for cmd in sub.choices:
            assert f"``repro {cmd}``" in repro.cli.__doc__
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage: repro " + cmd in capsys.readouterr().out

    def test_simulate_config_choices(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--config", "arc"])
        assert args.config == "arc"
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--config", "nonsense"])


def _served(lines):
    """Per-session ``(session, transcript)`` pairs and the ``mean WER``
    line of a ``repro serve`` run; a session line reads
    "session N: WER w  F frames, mean wait T ms  <transcript>"."""
    transcripts = [(ln.split(",")[0], ln.split(" ms  ")[1])
                   for ln in lines
                   if ln.startswith("session ") and ": WER " in ln]
    return transcripts, [ln for ln in lines if ln.startswith("mean WER")]


class TestCommands:
    def test_decode(self, capsys):
        code = main(["decode", "--vocab", "40", "--utterances", "2",
                     "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean WER" in out
        assert "engine 'reference'" in out

    def test_decode_batch_engine_matches_reference(self, capsys):
        argv = ["decode", "--vocab", "40", "--utterances", "2", "--seed", "4"]
        assert main(argv) == 0
        ref_out = capsys.readouterr().out
        assert main(argv + ["--engine", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert "engine 'batch'" in batch_out
        # Same word output => identical per-utterance WER lines.
        ref_utts = [ln for ln in ref_out.splitlines() if ln.startswith("utt")]
        batch_utts = [ln for ln in batch_out.splitlines()
                      if ln.startswith("utt")]
        assert ref_utts == batch_utts

    def test_decode_engine_choices(self):
        parser = build_parser()
        assert parser.parse_args(["decode"]).engine == "reference"
        assert not parser.parse_args(["decode"]).streaming
        for engine in ("reference", "batch", "gpu"):
            assert parser.parse_args(
                ["decode", "--engine", engine]
            ).engine == engine
        for engine in ("nonsense", "lattice"):
            with pytest.raises(SystemExit):
                parser.parse_args(["decode", "--engine", engine])

    def test_decode_gpu_engine_prints_workload(self, capsys):
        argv = ["decode", "--vocab", "40", "--utterances", "2", "--seed", "4"]
        assert main(argv) == 0
        ref_out = capsys.readouterr().out
        assert main(argv + ["--engine", "gpu"]) == 0
        gpu_out = capsys.readouterr().out
        assert "engine 'gpu'" in gpu_out
        assert "gpu workload:" in gpu_out
        assert "launches" in gpu_out
        ref_utts = [ln for ln in ref_out.splitlines() if ln.startswith("utt")]
        gpu_utts = [ln for ln in gpu_out.splitlines() if ln.startswith("utt")]
        assert ref_utts == gpu_utts

    def test_decode_adaptive_pruning(self, capsys):
        code = main(["decode", "--vocab", "40", "--utterances", "2",
                     "--seed", "4", "--pruning", "adaptive",
                     "--target-active", "50"])
        assert code == 0
        assert "mean WER" in capsys.readouterr().out

    def test_adaptive_requires_target(self, capsys):
        assert main(["decode", "--vocab", "40", "--utterances", "1",
                     "--pruning", "adaptive"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: adaptive pruning requires target_active > 0\n"
        )

    def test_decode_streaming_matches_reference(self, capsys):
        argv = ["decode", "--vocab", "40", "--utterances", "2", "--seed", "4"]
        assert main(argv) == 0
        ref_out = capsys.readouterr().out
        assert main(argv + ["--streaming", "--chunk-frames", "7"]) == 0
        stream_out = capsys.readouterr().out
        assert "engine 'streaming'" in stream_out
        assert "mean occupancy" in stream_out
        ref_utts = [ln for ln in ref_out.splitlines() if ln.startswith("utt")]
        stream_utts = [ln for ln in stream_out.splitlines()
                       if ln.startswith("utt")]
        assert ref_utts == stream_utts

    def test_serve(self, capsys):
        code = main(["serve", "--vocab", "40", "--utterances", "3",
                     "--seed", "4", "--chunk-frames", "5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(" joined -> shard 0 " in ln for ln in lines) == 3
        assert any(ln.startswith("tier: 1 shards served 3 sessions ")
                   for ln in lines)
        assert len(_served(lines)[0]) == 3
        assert "mean WER 0.000" in lines

    def test_serve_rejects_bad_knobs(self, capsys):
        for argv, message in (
            (["serve", "--chunk-frames", "0"], "--chunk-frames must be >= 1"),
            (["serve", "--workers", "0"], "num_workers must be >= 1"),
        ):
            assert main(argv + ["--vocab", "40", "--utterances", "1"]) == 2
            assert capsys.readouterr().err == f"repro: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--states", "2000", "--frames", "4", "--graph-cache",
          "none", "--param", "bogus=1"],
         "unknown sweep parameter 'bogus'"),
        (["compile", "--states", "100", "--remove-epsilons"],
         "--remove-epsilons applies to composed recipes only"),
    ])
    def test_typed_errors_are_one_line_not_a_traceback(
        self, capsys, argv, message
    ):
        """A library error caused by the arguments exits 2 with one
        ``repro: error:`` line on stderr."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro: error: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_every_error_names_one_program(self, capsys):
        """argparse's own errors and the typed library errors name the
        program README and CI invoke, ``repro``."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--no-such-flag"])
        assert exc.value.code == 2
        malformed = capsys.readouterr().err.splitlines()[-1]
        assert main(["sweep", "--param", "bogus=1"]) == 2
        typed = capsys.readouterr().err
        assert malformed.startswith("repro: error: ")
        assert typed.startswith("repro: error: ")

    def test_serve_scores_goes_through_the_tier_at_any_workers(self, capsys):
        """Scores enter the serving stack through the tier at every
        ``--workers``, with the same words at each."""
        argv = ["serve", "--vocab", "40", "--utterances", "3", "--seed", "4",
                "--chunk-frames", "5"]
        served = {}
        for workers in (1, 2):
            assert main(argv + ["--workers", str(workers)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert any(ln.startswith(f"tier: {workers} shards served 3 ")
                       for ln in lines)
            assert not any(ln.startswith("scoring:") for ln in lines)
            served[workers] = _served(lines)
            assert len(served[workers][0]) == 3
        assert served[1] == served[2]

    def test_serve_score_features_goes_through_the_tier_at_any_workers(
        self, capsys
    ):
        """Features enter the serving stack through the tier only: one
        worker (the default) is a DNN stage and one search process."""
        argv = ["serve", "--vocab", "30", "--utterances", "3",
                "--score-features"]
        served = {}
        for workers, extra in ((1, []), (2, ["--workers", "2"])):
            assert main(argv + extra) == 0
            lines = capsys.readouterr().out.splitlines()
            assert any(ln.startswith(f"tier: {workers} shards") for ln in lines)
            joined = [int(ln.split("(")[1].split()[0])
                      for ln in lines if " joined -> shard " in ln]
            assert len(joined) == 3
            scoring = [ln for ln in lines if ln.startswith("scoring:")]
            assert len(scoring) == 1
            assert scoring[0].startswith(f"scoring: {sum(joined)} frames in ")
            served[workers] = _served(lines)
            assert len(served[workers][0]) == 3
        assert served[1] == served[2]

    def test_simulate_all_configs(self, capsys):
        for config in ("base", "state", "arc", "both"):
            code = main(["simulate", "--vocab", "40", "--utterances", "1",
                         "--seed", "4", "--config", config])
            assert code == 0
            out = capsys.readouterr().out
            assert "cycles" in out
            assert f"config '{config}'" in out

    def test_compare_small(self, capsys):
        code = main(["compare", "--states", "3000", "--frames", "8",
                     "--max-active", "200", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ASIC+State&Arc" in out
        assert "vs GPU" in out


class TestCompile:
    def test_compile_composed_prints_pass_report(self, capsys, tmp_path):
        code = main(["compile", "--vocab", "40", "--corpus-sentences",
                     "200", "--seed", "4",
                     "--graph-cache", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("lexicon", "grammar", "compose", "arcsort", "pack"):
            assert name in out
        assert "1 compile(s)" in out

    def test_compile_is_a_cache_hit_second_time(self, capsys, tmp_path):
        argv = ["compile", "--vocab", "40", "--corpus-sentences", "200",
                "--seed", "4", "--graph-cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 hit(s), 0 compile(s)" in out

    def test_compile_synthetic_recipe(self, capsys):
        code = main(["compile", "--states", "2000", "--seed", "3",
                     "--graph-cache", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthesize" in out

    def test_compile_output_feeds_sweep(self, capsys, tmp_path):
        out = str(tmp_path / "graph.mmap")
        assert main(["compile", "--vocab", "40", "--graph-cache", "none",
                     "--output", out]) == 0
        capsys.readouterr()
        assert main(["sweep", "--graph", out, "--frames", "4",
                     "--max-active", "200", "--processes", "1",
                     "--param", "arc_cache.size_bytes=128K,256K",
                     "--graph-cache", "none"]) == 0
        # Both Arc caches hold this decode's working set: one timing pass.
        summary = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(
            r"2 points in \S+s \(1 trace\(s\) recorded, 0 cache hit\(s\), "
            r"1 timing pass\(es\), 1 process\(es\)\)", summary
        ), summary

    def test_sweep_default_grid_is_the_paper_configurations(
        self, capsys, tmp_path
    ):
        assert main(["sweep", "--states", "2000", "--frames", "4",
                     "--max-active", "200", "--processes", "1",
                     "--graph-cache", "none",
                     "--json", str(tmp_path / "sweep.json")]) == 0
        capsys.readouterr()
        points = json.loads((tmp_path / "sweep.json").read_text())["points"]
        assert [(p["label"], p["overrides"]) for p in points] == [
            ("ASIC", {}),
            ("ASIC+State", {"state_direct_enabled": True}),
            ("ASIC+Arc", {"prefetch_enabled": True}),
            ("ASIC+State&Arc",
             {"prefetch_enabled": True, "state_direct_enabled": True}),
        ]

    def test_sweep_keeps_traces_in_memory(self, tmp_path):
        """Traces never reach the disk: a sweep writes nothing under
        ``$HOME``, and every run records its one trace afresh."""
        home = tmp_path / "home"
        home.mkdir()
        src = os.path.dirname(os.path.dirname(repro.__file__))
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "sweep", "--states",
                 "2000", "--frames", "4", "--max-active", "200",
                 "--processes", "1", "--graph-cache", "none"],
                env={**os.environ, "PYTHONPATH": src, "HOME": str(home)},
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert "(1 trace(s) recorded, 0 cache hit(s)," in done.stdout
        assert list(home.rglob("*")) == []

    def test_decode_precompiled_graph_is_word_identical(
        self, capsys, tmp_path
    ):
        artifact = str(tmp_path / "graph.mmap")
        assert main(["compile", "--vocab", "40", "--corpus-sentences",
                     "2000", "--seed", "4", "--graph-cache", "none",
                     "--output", artifact]) == 0
        capsys.readouterr()
        meta = load_graph_meta(artifact)
        assert meta["recipe"]["vocab_size"] == 40
        assert [p["name"] for p in meta["passes"]][-1] == "pack"
        base = ["decode", "--vocab", "40", "--utterances", "2",
                "--seed", "4", "--graph-cache", "none"]
        assert main(base) == 0
        fresh = capsys.readouterr().out
        assert main(base + ["--graph", artifact]) == 0
        cached = capsys.readouterr().out
        fresh_utts = [l for l in fresh.splitlines() if l.startswith("utt")]
        cached_utts = [l for l in cached.splitlines() if l.startswith("utt")]
        assert fresh_utts == cached_utts

    def test_output_written_twice_holds_the_second_graph(self, tmp_path):
        out = str(tmp_path / "graph.mmap")
        for seed in ("3", "4"):
            assert main(["compile", "--states", "300", "--seed", seed,
                         "--graph-cache", "none", "--output", out]) == 0
            assert load_graph_meta(out)["recipe"]["synthetic"]["seed"] == int(seed)
        expected = generate_kaldi_like_graph(
            SyntheticGraphConfig(num_states=300, num_phones=50, seed=4)
        )
        assert load_graph_mmap(out).arc_dest.tobytes() == \
            expected.arc_dest.tobytes()

    def test_decode_trigram_lm_order(self, capsys):
        code = main(["decode", "--vocab", "40", "--utterances", "2",
                     "--seed", "4", "--lm-order", "3",
                     "--graph-cache", "none"])
        assert code == 0
        assert "mean WER" in capsys.readouterr().out


def test_numpy_is_the_only_runtime_dependency():
    """The package, its decoders and the CLI import without networkx
    (the lattice was its one user; ``pyproject.toml`` no longer lists it)."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.decoder, repro.cli; "
         "assert 'networkx' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
