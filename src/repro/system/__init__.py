"""Whole-pipeline ASR system models and the cross-platform experiment
harness (the paper's Figure 1 GPU+accelerator system view and the Section
VI evaluation loop over CPU / GPU / four accelerator configurations)."""

from repro.system.pipeline import (
    BatchTiming,
    PipelineConfig,
    StageCost,
    StreamReport,
    hybrid_speedup,
    keeps_up,
    max_realtime_streams,
    score_transfer,
    simulate_stream,
)
from repro.system.server import (
    ServerConfig,
    ServerStats,
    SessionRecord,
    SessionStats,
    StreamingServer,
)
from repro.system.score_ring import ScorePlaneRing, ScorePlaneView
from repro.system.tier import (
    ServingTier,
    TierConfig,
    TierStats,
)
from repro.system.experiment import (
    ComparisonResult,
    MemoryWorkload,
    PlatformRun,
    make_memory_workload,
    run_platform_comparison,
)

__all__ = [
    "ComparisonResult",
    "MemoryWorkload",
    "PlatformRun",
    "make_memory_workload",
    "run_platform_comparison",
    "BatchTiming",
    "PipelineConfig",
    "StageCost",
    "StreamReport",
    "hybrid_speedup",
    "keeps_up",
    "max_realtime_streams",
    "score_transfer",
    "simulate_stream",
    "ServerConfig",
    "ServerStats",
    "SessionRecord",
    "SessionStats",
    "StreamingServer",
    "ScorePlaneRing",
    "ScorePlaneView",
    "ServingTier",
    "TierConfig",
    "TierStats",
]
