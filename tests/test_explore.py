"""Tests for the design-space sweep subsystem (`repro.explore`)."""

import json
import os

import pytest

from repro.common.errors import ConfigError
from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.acoustic.scorer import AcousticScores
from repro.datasets import SyntheticGraphConfig
from repro.decoder import DecoderConfig
from repro.explore import (
    ParameterGrid,
    SweepRunner,
    TraceCache,
    apply_overrides,
    parse_sweep_value,
    workload_fingerprint,
)
from repro.system import make_memory_workload
from repro.system.experiment import ASIC_VARIANTS


@pytest.fixture(scope="module")
def workload():
    return make_memory_workload(
        num_utterances=2,
        frames_per_utterance=6,
        beam=8.0,
        max_active=120,
        seed=13,
        graph_config=SyntheticGraphConfig(
            num_states=1200, num_phones=25, seed=13
        ),
    )


class TestGrid:
    def test_product_expansion_order(self):
        grid = ParameterGrid(
            [("a", [1, 2]), ("b", [10, 20, 30])]
        )
        assert len(grid) == 6
        points = grid.points()
        assert points[0] == {"a": 1, "b": 10}
        assert points[1] == {"a": 1, "b": 20}
        assert points[-1] == {"a": 2, "b": 30}

    def test_from_specs_and_value_parsing(self):
        grid = ParameterGrid.from_specs(
            ["arc_cache.size_bytes=256K,1M", "prefetch_enabled=true,false"]
        )
        points = grid.points()
        assert points[0]["arc_cache.size_bytes"] == 256 * 1024
        assert points[1]["prefetch_enabled"] is False
        assert parse_sweep_value("2g") == 2 * 1024 ** 3
        assert parse_sweep_value("0.5") == 0.5
        with pytest.raises(ConfigError):
            parse_sweep_value("not-a-number")
        with pytest.raises(ConfigError):
            ParameterGrid.from_specs(["missing-equals"])

    def test_apply_overrides_nested(self):
        base = AcceleratorConfig()
        config = apply_overrides(
            base,
            {
                "arc_cache.size_bytes": 256 * 1024,
                "mem_latency_cycles": 75,
                "hash_table.num_entries": 4096,
                "beam": 6.0,  # workload key: ignored here
            },
        )
        assert config.arc_cache.size_bytes == 256 * 1024
        assert config.mem_latency_cycles == 75
        assert config.hash_table.num_entries == 4096
        assert config.state_cache == base.state_cache

    def test_apply_overrides_rejects_unknown_paths(self):
        base = AcceleratorConfig()
        with pytest.raises(ConfigError):
            apply_overrides(base, {"nonexistent_field": 1})
        with pytest.raises(ConfigError):
            apply_overrides(base, {"arc_cache.bogus": 1})
        with pytest.raises(ConfigError):
            apply_overrides(base, {"mem_latency_cycles.too.deep": 1})


class TestRunner:
    def test_sweep_matches_independent_simulations(self, workload):
        """Ten configurations -- five Arc-cache capacities with and
        without prefetching, the Figure 4 / Section IV-A axes -- priced by
        one cold sweep with the auto-sized process fan-out, against ten
        runs of the monolithic simulator."""
        grid = ParameterGrid(
            [
                ("arc_cache.size_bytes",
                 [kib * 1024 for kib in (4, 16, 64, 256, 1024)]),
                ("prefetch_enabled", [False, True]),
            ]
        )
        result = SweepRunner(
            workload, trace_cache=TraceCache(), processes=None
        ).run(grid)
        assert len(result) == 10
        assert result.trace_recordings == 1  # one layout, one beam
        for point in result.points:
            sim = AcceleratorSimulator(
                workload.graph, point.config, beam=workload.beam,
                max_active=workload.max_active,
            )
            expected = sum(
                sim.decode(s).stats.cycles for s in workload.scores
            )
            assert point.cycles == expected

    def test_state_direct_points_replay_sorted_layout(self, workload):
        points = [
            {"state_direct_enabled": True},
            {"state_direct_enabled": True, "state_direct_max_arcs": 4},
        ]
        result = SweepRunner(workload).run(points)
        for point in result.points:
            sim = AcceleratorSimulator(
                workload.graph, point.config, beam=workload.beam,
                max_active=workload.max_active,
            )
            expected = sum(
                sim.decode(s).stats.cycles for s in workload.scores
            )
            assert point.cycles == expected
        # Two layouts, one search: both relabel the baseline trace.
        assert result.trace_recordings == 1

    def test_the_old_layout_axis_is_an_unknown_path(self, workload):
        """N is the config field ``state_direct_max_arcs``; the layout
        axis that once set it beside the config is gone."""
        with pytest.raises(ConfigError, match="sorted.max_direct_arcs"):
            SweepRunner(workload).run([{"sorted.max_direct_arcs": 4}])

    #: ``(trace_recordings, trace_cache_hits, timing_passes)`` of one
    #: serial sweep on a fresh runner: one search, and every N times its
    #: own relabelled traces (two utterances, one behaviour each), which
    #: ``timing_passes`` counts through the baseline traces they hang on.
    COUNTER_GOLDENS = {
        "n-ablation": (1, 0, 12),
        "asic-variants": (1, 0, 8),
    }

    @pytest.mark.parametrize("grid", sorted(COUNTER_GOLDENS))
    def test_sweep_counters_match_the_golden(self, workload, grid):
        points = {
            "n-ablation": [{}] + [
                {"state_direct_enabled": True, "state_direct_max_arcs": n}
                for n in (2, 4, 8, 16, 32)
            ],
            "asic-variants": list(ASIC_VARIANTS.values()),
        }[grid]
        runner = SweepRunner(workload, trace_cache=TraceCache(), processes=1)
        result = runner.run(points)
        assert (
            result.trace_recordings, result.trace_cache_hits,
            result.timing_passes,
        ) == self.COUNTER_GOLDENS[grid]
        # The relabelled traces live on the cached baseline trace, so a
        # second sweep of the same points times nothing again.
        again = runner.run(points)
        assert (
            again.trace_recordings, again.trace_cache_hits,
            again.timing_passes,
        ) == (0, 1, 0)

    def test_pruning_axis_records_one_trace_per_strategy(self, workload):
        """The adaptive-beam workload axis re-traces per strategy point
        and changes the functional search (the Fig. 9 ablation axis)."""
        runner = SweepRunner(workload)
        result = runner.run([
            {"pruning": "beam"},
            {"pruning": "adaptive", "target_active": 40},
            {"pruning": "adaptive", "target_active": 40,
             "prefetch_enabled": True},
        ])
        # Three points, two distinct strategies -> two recordings (the
        # adaptive points share one trace).
        assert result.trace_recordings == 2
        _fixed, adaptive, _ = result.points
        # The adaptive trace replays like any other: cycles match the
        # monolithic simulator priced on the same functional search.
        from repro.accel import TraceRecorder, TraceReplayer
        from repro.decoder import DecoderConfig

        recorder = TraceRecorder(
            workload.graph,
            config=DecoderConfig(
                beam=workload.beam, max_active=workload.max_active,
                pruning="adaptive", target_active=40,
            ),
        )
        replayer = TraceReplayer(workload.graph, adaptive.config)
        expected = sum(
            replayer.replay(recorder.record(s)).stats.cycles
            for s in workload.scores
        )
        assert adaptive.cycles == expected

    def test_pruning_spec_parses_from_cli_strings(self):
        grid = ParameterGrid.from_specs(
            ["pruning=beam,adaptive", "target_active=200"]
        )
        points = grid.points()
        assert points[0] == {"pruning": "beam", "target_active": 200}
        assert points[1] == {"pruning": "adaptive", "target_active": 200}

    def test_beam_axis_records_one_trace_per_beam(self, workload):
        runner = SweepRunner(workload)
        result = runner.run(
            [{"beam": 4.0}, {"beam": 8.0}, {"beam": 4.0, "prefetch_enabled": True}]
        )
        # Three points but only two distinct beams -> two recordings (the
        # runner reuses in-flight traces within a run).
        assert result.trace_recordings == 2
        narrow, wide = result.points[0], result.points[1]
        assert narrow.search.arcs_processed <= wide.search.arcs_processed
        # A second run over the same runner is pure cache hits.
        again = runner.run([{"beam": 4.0}, {"beam": 8.0}])
        assert again.trace_recordings == 0
        assert again.trace_cache_hits == 2

    def test_multiprocess_matches_serial(self, workload):
        grid = ParameterGrid(
            [("hash_table.num_entries", [512, 2048, 8192, 32768])]
        )
        cache = TraceCache()
        serial = SweepRunner(workload, trace_cache=cache, processes=1).run(grid)
        forked = SweepRunner(workload, trace_cache=cache, processes=2).run(grid)
        assert forked.processes == 2
        for a, b in zip(serial.points, forked.points):
            assert a.cycles == b.cycles
            assert a.stats == b.stats
            assert a.energy_j == b.energy_j

    def test_timing_passes_counted_across_the_fan_out(self, workload):
        """Both Arc caches hold the working set, so each trace times once
        per memory latency: 2 traces x 2 latencies, not 8.  Forked
        children each keep their own memo, so they may repeat a pass, and
        every pass any of them ran is counted."""
        grid = ParameterGrid([
            ("arc_cache.size_bytes", [256 * 1024, 1024 * 1024]),
            ("mem_latency_cycles", [25, 50]),
        ])
        runner = SweepRunner(workload, trace_cache=TraceCache(), processes=1)
        serial = runner.run(grid)
        assert serial.timing_passes == 4
        assert runner.run(grid).timing_passes == 0  # memo already warm
        forked = SweepRunner(
            workload, trace_cache=TraceCache(), processes=2
        ).run(grid)
        assert forked.processes == 2
        assert 4 <= forked.timing_passes <= 8
        for a, b in zip(serial.points, forked.points):
            assert a.stats == b.stats

    def test_auto_sized_fan_out_respects_the_affinity_mask(
        self, workload, monkeypatch
    ):
        """``taskset -c 0`` on a many-core box: one process, not one per
        physical core piled onto the one core the sweep may use."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        result = SweepRunner(workload, processes=None).run(
            ParameterGrid([("mem_latency_cycles", [25, 50])])
        )
        assert result.processes == 1

    def test_artifacts_json_and_csv(self, tmp_path, workload):
        result = SweepRunner(workload).run(
            ParameterGrid([("mem_latency_cycles", [25, 50])])
        )
        json_path = result.to_json(str(tmp_path / "sweep.json"))
        csv_path = result.to_csv(str(tmp_path / "sweep.csv"))
        with open(json_path) as fh:
            payload = json.load(fh)
        assert len(payload["points"]) == 2
        assert payload["points"][0]["cycles"] > 0
        assert payload["speech_seconds"] == pytest.approx(
            result.speech_seconds
        )
        with open(csv_path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 3  # header + 2 points
        assert "cycles" in lines[0]

    def test_labels_and_lookup(self, workload):
        result = SweepRunner(workload).run(
            [{}, {"prefetch_enabled": True}], labels=["base", "prefetch"]
        )
        assert result.point("prefetch").cycles <= result.point("base").cycles
        with pytest.raises(ConfigError):
            result.point("missing")
        with pytest.raises(ConfigError):
            SweepRunner(workload).run([{}], labels=["a", "b"])

    def test_empty_grid_rejected(self, workload):
        with pytest.raises(ConfigError):
            SweepRunner(workload).run([])


def search_config(workload, beam=None, max_active=None):
    return DecoderConfig(
        beam=workload.beam if beam is None else beam,
        max_active=workload.max_active if max_active is None else max_active,
    )


class TestTraceCache:
    def test_workload_change_invalidates_key(self, workload):
        config = search_config(workload)
        fp = workload_fingerprint(workload.graph, workload.scores, config=config)
        assert fp != workload_fingerprint(
            workload.graph, workload.scores,
            config=search_config(workload, beam=workload.beam + 1.0),
        )
        assert fp != workload_fingerprint(
            workload.graph, workload.scores,
            config=search_config(workload, max_active=workload.max_active + 1),
        )
        bumped = [
            AcousticScores(s.matrix + 0.25) for s in workload.scores
        ]
        assert fp != workload_fingerprint(
            workload.graph, bumped, config=config
        )
        assert fp != workload_fingerprint(
            workload.graph.sorted_layout(16).graph, workload.scores,
            config=config,
        )
