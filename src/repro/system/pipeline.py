"""The ASR system of Sec. III-A: GPU DNN and accelerator search, pipelined.

Paper, Sections III-A and VI: input frames are grouped into batches. The
GPU evaluates the DNN on batch *i* while the accelerator searches batch
*i-1*, and the scores reach the accelerator through the double-buffered
Acoustic Likelihood Buffer (ALB). The paper reports 1.87x for this hybrid
system over running both stages one after the other on the GPU.

One event timeline models it (:func:`simulate_stream`). Each stage -- the
DNN on the GPU, the score transfer over the link, the search on the
accelerator -- is a resource with its own free time, and a batch enters a
stage once its input is ready and the stage is free. The transfer sits
where the ALB puts it: after batch *i*'s DNN and before its search, while
the accelerator searches batch *i-1* out of the other half of the double
buffer. So in steady state the transfer is hidden unless the link is the
slowest stage, and it adds exactly one batch's transfer to the fill.

A stage costs ``fixed_s + per_session_s * n`` seconds per frame slot when
``n`` concurrent streams share it: a batch of ``batch_frames`` slots
carries one frame of every stream per slot. Everything else is read off
that: the offline makespan is the last batch's ``search_done_s`` at
``frame_period_s = 0`` (:func:`hybrid_speedup`), and a stream count keeps
up with real time when every stage's cost per slot fits in the frame
period (:func:`keeps_up`, :func:`max_realtime_streams`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro.common.errors import ConfigError

_PCIE_BYTES_PER_S = 12e9
"""Effective PCIe 3.0 x16 bandwidth, the score link between the two stages."""


@dataclass(frozen=True)
class StageCost:
    """Seconds per frame slot of one stage at ``n`` concurrent streams:
    ``fixed_s + per_session_s * n``."""

    fixed_s: float = 0.0
    per_session_s: float = 0.0

    def __post_init__(self) -> None:
        if min(self.fixed_s, self.per_session_s) < 0:
            raise ConfigError("stage costs must be non-negative")

    def seconds(self, streams: int) -> float:
        return self.fixed_s + self.per_session_s * streams


def score_transfer(num_classes: int) -> StageCost:
    """The score link's cost: one float32 score per DNN output class, per
    frame of every stream, over PCIe."""
    if num_classes < 0:
        raise ConfigError("num_classes must be non-negative")
    return StageCost(per_session_s=4 * num_classes / _PCIE_BYTES_PER_S)


@dataclass(frozen=True)
class PipelineConfig:
    """Batching, audio pace and the three stage costs.

    ``frame_period_s`` is the time between two frames of one stream (10 ms
    for speech); 0 means all audio is present at t = 0.
    """

    batch_frames: int = 50
    frame_period_s: float = 0.01
    dnn: StageCost = StageCost()
    transfer: StageCost = StageCost()
    search: StageCost = StageCost()

    def __post_init__(self) -> None:
        if self.batch_frames < 1:
            raise ConfigError("batch_frames must be >= 1")
        if self.frame_period_s < 0:
            raise ConfigError("frame_period_s must be non-negative")
        if not all(isinstance(stage, StageCost) for stage in self.stages):
            raise ConfigError("dnn, transfer and search must be StageCosts")

    @property
    def stages(self) -> Tuple[StageCost, StageCost, StageCost]:
        """The stages in pipeline order: DNN, transfer, search."""
        return (self.dnn, self.transfer, self.search)


@dataclass(frozen=True)
class BatchTiming:
    """Timeline of one batch through the pipeline."""

    batch: int
    audio_complete_s: float
    dnn_done_s: float
    transfer_done_s: float
    search_done_s: float

    @property
    def latency_s(self) -> float:
        """Time from the last frame of the batch being spoken to its
        words being available."""
        return self.search_done_s - self.audio_complete_s


@dataclass
class StreamReport:
    """Result of :func:`simulate_stream`."""

    batches: List[BatchTiming] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        return sum(b.latency_s for b in self.batches) / len(self.batches)

    @property
    def max_latency_s(self) -> float:
        return max(b.latency_s for b in self.batches)

    @property
    def makespan_s(self) -> float:
        """When the last batch's words are out; the offline makespan at
        ``frame_period_s = 0``."""
        return self.batches[-1].search_done_s


def _check_streams(streams: int) -> None:
    if streams < 1:
        raise ConfigError("streams must be >= 1")


def simulate_stream(
    config: PipelineConfig, total_frames: int, streams: int = 1
) -> StreamReport:
    """Run ``total_frames`` frame slots of ``streams`` synchronised streams
    through the pipeline, batch by batch.

    All streams speak at once, so every batch carries one chunk per
    stream and the latency is what each user observes.
    """
    if total_frames < 1:
        raise ConfigError("total_frames must be >= 1")
    _check_streams(streams)
    costs = [stage.seconds(streams) for stage in config.stages]
    free = [0.0] * len(costs)
    full, rem = divmod(total_frames, config.batch_frames)
    chunks = [config.batch_frames] * full + ([rem] if rem else [])

    report = StreamReport()
    for i, frames in enumerate(chunks):
        audio_done = (i * config.batch_frames + frames) * config.frame_period_s
        # Stage k starts the batch once stage k-1 has handed it over and
        # stage k has finished the batch before it.
        ready = audio_done
        for k, cost in enumerate(costs):
            ready = free[k] = max(ready, free[k]) + frames * cost
        report.batches.append(BatchTiming(i, audio_done, *free))
    return report


def hybrid_speedup(
    config: PipelineConfig, total_frames: int, gpu_search_s_per_frame: float
) -> float:
    """The in-text result of Sec. VI (1.87x): GPU-only time over hybrid
    time, for one stream with all audio present.

    GPU-only runs the DNN and then the search on the GPU, frame slot by
    frame slot: the search needs its own batch's scores and both stages
    contend for one device, so nothing overlaps and no score crosses the
    link. The hybrid time is the timeline's makespan at
    ``frame_period_s = 0``.
    """
    if gpu_search_s_per_frame < 0:
        raise ConfigError("gpu_search_s_per_frame must be non-negative")
    offline = simulate_stream(replace(config, frame_period_s=0.0), total_frames)
    gpu_only = total_frames * (config.dnn.seconds(1) + gpu_search_s_per_frame)
    return gpu_only / offline.makespan_s


def keeps_up(config: PipelineConfig, streams: int) -> bool:
    """Whether ``streams`` real-time streams keep pace for ever.

    The exact steady-state test: every stage's cost per frame slot is at
    most ``frame_period_s``. Then every full batch's latency equals the
    first one's; otherwise the slowest stage falls further behind on
    every batch, and so does the latency.
    """
    _check_streams(streams)
    return all(
        stage.seconds(streams) <= config.frame_period_s
        for stage in config.stages
    )


def max_realtime_streams(config: PipelineConfig) -> int:
    """Largest stream count that :func:`keeps_up`; 0 when one stream
    already falls behind.

    Closed form: a stage whose cost grows with the count admits
    ``floor((frame_period_s - fixed_s) / per_session_s)`` streams, and the
    tightest stage bounds the fleet. The floor is then checked against
    :func:`keeps_up`, so float rounding cannot put it off by one. When no
    stage's cost grows with the count there is no largest count, and that
    is a :class:`ConfigError`.
    """
    if not keeps_up(config, 1):
        return 0
    growing = [stage for stage in config.stages if stage.per_session_s > 0]
    if not growing:
        raise ConfigError(
            "no stage has a per-session cost, so every stream count keeps "
            "up: there is no largest one"
        )
    n = max(1, min(
        math.floor((config.frame_period_s - stage.fixed_s) / stage.per_session_s)
        for stage in growing
    ))
    if not keeps_up(config, n):
        return n - 1
    return n + 1 if keeps_up(config, n + 1) else n
