"""Tests for the whole-pipeline system model and the experiment harness."""

import pytest

from repro.common.errors import ConfigError
from repro.datasets import SyntheticGraphConfig
from repro.energy.report import EnergyReport, PlatformResult
from repro.system import (
    AsrSystemModel,
    make_memory_workload,
    run_platform_comparison,
)


class TestAsrSystemModel:
    def test_hybrid_throughput_is_bottleneck_stage(self):
        model = AsrSystemModel(batch_frames=100)
        hybrid = model.hybrid_seconds(
            total_frames=1000,
            dnn_seconds_per_frame=2e-4,
            accel_search_seconds_per_frame=1e-4,
        )
        # Every step advances at the DNN's pace; the last search drains.
        assert hybrid == pytest.approx(10 * 100 * 2e-4 + 100 * 1e-4)

    def test_gpu_only_is_sum_of_stages(self):
        model = AsrSystemModel()
        total = model.gpu_only_seconds(500, 1e-4, 3e-4)
        assert total == pytest.approx(500 * 4e-4)

    def test_hybrid_speedup_improves_on_serial(self):
        model = AsrSystemModel(batch_frames=100)
        speedup = model.hybrid_speedup(
            total_frames=2000,
            dnn_seconds_per_frame=1e-4,
            gpu_search_seconds_per_frame=6e-4,
            accel_search_seconds_per_frame=3.5e-4,
        )
        assert speedup > 1.5

    def test_transfer_hidden_by_double_buffer(self):
        model = AsrSystemModel(batch_frames=100, pcie_gbs=12.0)
        slow = model.hybrid_seconds(1000, 2e-4, 1e-4, score_bytes_per_frame=0)
        with_dma = model.hybrid_seconds(
            1000, 2e-4, 1e-4, score_bytes_per_frame=4 * 3500
        )
        # 14 KB per frame over PCIe is far below the DNN stage time.
        assert with_dma == pytest.approx(slow)

    def test_invalid_inputs_rejected(self):
        model = AsrSystemModel()
        with pytest.raises(ConfigError):
            model.hybrid_seconds(0, 1e-4, 1e-4)
        with pytest.raises(ConfigError):
            model.transfer_seconds(-1)


class TestEnergyReport:
    def _report(self):
        return EnergyReport(
            [
                PlatformResult("GPU", decode_seconds=2.0, energy_j=100.0, speech_seconds=10.0),
                PlatformResult("ASIC", decode_seconds=1.0, energy_j=0.5, speech_seconds=10.0),
            ]
        )

    def test_speedup(self):
        rep = self._report()
        assert rep.speedup_vs("GPU")["ASIC"] == pytest.approx(2.0)

    def test_energy_reduction(self):
        rep = self._report()
        assert rep.energy_reduction_vs("GPU")["ASIC"] == pytest.approx(200.0)

    def test_realtime_flag(self):
        rep = self._report()
        rows = {r["platform"]: r for r in rep.rows()}
        assert rows["ASIC"]["realtime"]

    def test_metrics_per_speech_second(self):
        result = PlatformResult("X", 2.0, 100.0, 10.0)
        assert result.decode_time_per_speech_second == pytest.approx(0.2)
        assert result.energy_per_speech_second == pytest.approx(10.0)
        assert result.avg_power_w == pytest.approx(50.0)


class TestExperimentHarness:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_memory_workload(
            num_utterances=1,
            frames_per_utterance=10,
            beam=6.0,
            max_active=300,
            seed=2,
            graph_config=SyntheticGraphConfig(
                num_states=3000, num_phones=50, seed=2
            ),
        )

    def test_all_platforms_present(self, workload):
        cmp = run_platform_comparison(workload)
        assert set(cmp.runs) == {
            "CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc",
        }
        # The CPU and every accelerator variant share one search.
        for name in ("ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc"):
            assert cmp.runs[name].search == cmp.runs["CPU"].search

    def test_subset_selection(self, workload):
        cmp = run_platform_comparison(workload, include=["CPU", "ASIC"])
        assert set(cmp.runs) == {"CPU", "ASIC"}

    def test_unknown_platform_names_are_rejected(self, workload):
        with pytest.raises(ConfigError) as info:
            run_platform_comparison(workload, include=["asic", "CPU", "TPU"])
        message = str(info.value)
        assert "'asic'" in message and "'TPU'" in message
        for name in (
            "CPU", "GPU", "ASIC", "ASIC+State", "ASIC+Arc", "ASIC+State&Arc",
        ):
            assert repr(name) in message

    def test_energies_positive(self, workload):
        cmp = run_platform_comparison(workload, include=["CPU", "GPU", "ASIC"])
        for run in cmp.runs.values():
            assert run.energy_j > 0
            assert run.decode_seconds > 0

    def test_workload_stable_active_set(self, workload):
        cmp = run_platform_comparison(workload, include=["CPU"])
        active = cmp.runs["CPU"].search.active_tokens_per_frame
        assert max(active) <= 300
