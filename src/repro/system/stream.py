"""Streaming recognition simulation.

The analytical pipeline model (:mod:`repro.system.pipeline`) answers
throughput questions; this module simulates the *latency* behaviour of the
overall ASR system of Section III-A event by event: audio frames arrive in
real time (10 ms apart), the GPU produces acoustic scores batch by batch,
scores DMA into the double-buffered Acoustic Likelihood Buffer, and the
accelerator searches each batch while the GPU computes the next one.

The simulation reports per-batch and end-to-end latencies (time from a
frame being spoken to its batch being decoded), the metric a voice
assistant actually cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class StreamConfig:
    """Streaming setup."""

    batch_frames: int = 50
    frame_period_s: float = 0.01
    dnn_seconds_per_frame: float = 4e-5
    search_seconds_per_frame: float = 3e-5
    transfer_seconds_per_batch: float = 1e-4

    def __post_init__(self) -> None:
        if self.batch_frames < 1:
            raise ConfigError("batch_frames must be >= 1")
        if min(
            self.frame_period_s,
            self.dnn_seconds_per_frame,
            self.search_seconds_per_frame,
            self.transfer_seconds_per_batch,
        ) < 0:
            raise ConfigError("times must be non-negative")


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
    """Result of a streaming simulation."""

    batches: List[BatchTiming] = field(default_factory=list)

    @property
    def mean_latency_s(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.latency_s for b in self.batches) / len(self.batches)

    @property
    def max_latency_s(self) -> float:
        if not self.batches:
            return 0.0
        return max(b.latency_s for b in self.batches)

    @property
    def keeps_up(self) -> bool:
        """True when latency does not grow across the stream (the pipeline
        sustains real time)."""
        if len(self.batches) < 4:
            return True
        half = len(self.batches) // 2
        early = sum(b.latency_s for b in self.batches[:half]) / half
        late = sum(b.latency_s for b in self.batches[half:]) / (
            len(self.batches) - half
        )
        return late <= early * 1.5 + 1e-9


@dataclass(frozen=True)
class BatchedStreamConfig:
    """Multi-user serving setup: one engine advances all streams in lockstep.

    Models the serving shape of :class:`repro.decoder.batch.BatchDecoder`:
    ``num_streams`` concurrent users, every stream's batch searched in one
    vectorized sweep.  The marginal cost of each extra stream is a fraction
    of the single-stream cost (``*_batch_efficiency``; 1.0 = no benefit,
    0.0 = free), the regime measured by
    ``benchmarks/bench_streaming_sessions.py`` (concurrent vs sequential).
    """

    num_streams: int = 8
    batch_frames: int = 50
    frame_period_s: float = 0.01
    dnn_seconds_per_frame: float = 4e-5
    search_seconds_per_frame: float = 3e-5
    transfer_seconds_per_batch: float = 1e-4
    dnn_batch_efficiency: float = 0.5
    search_batch_efficiency: float = 0.25

    def __post_init__(self) -> None:
        if self.num_streams < 1:
            raise ConfigError("num_streams must be >= 1")
        if self.batch_frames < 1:
            raise ConfigError("batch_frames must be >= 1")
        if min(
            self.frame_period_s,
            self.dnn_seconds_per_frame,
            self.search_seconds_per_frame,
            self.transfer_seconds_per_batch,
        ) < 0:
            raise ConfigError("times must be non-negative")
        for eff in (self.dnn_batch_efficiency, self.search_batch_efficiency):
            if not 0.0 <= eff <= 1.0:
                raise ConfigError("batch efficiencies must be in [0, 1]")

    def _cost_factor(self, efficiency: float) -> float:
        """Batched cost relative to a single stream."""
        return 1.0 + efficiency * (self.num_streams - 1)

    @property
    def dnn_seconds_per_batch_frame(self) -> float:
        """GPU seconds per frame slot with all streams batched."""
        return self.dnn_seconds_per_frame * self._cost_factor(
            self.dnn_batch_efficiency
        )

    @property
    def search_seconds_per_batch_frame(self) -> float:
        """Search seconds per frame slot with all streams batched."""
        return self.search_seconds_per_frame * self._cost_factor(
            self.search_batch_efficiency
        )


def simulate_batched_stream(
    total_frames: int, config: BatchedStreamConfig = BatchedStreamConfig()
) -> StreamReport:
    """Simulate ``num_streams`` synchronized real-time streams.

    All streams speak simultaneously, so every batch carries one chunk per
    stream; the reported latency is what each individual user observes.
    Reuses :class:`StreamReport` -- ``keeps_up`` answers whether the shared
    engine sustains this many users in real time.
    """
    single = StreamConfig(
        batch_frames=config.batch_frames,
        frame_period_s=config.frame_period_s,
        dnn_seconds_per_frame=config.dnn_seconds_per_batch_frame,
        search_seconds_per_frame=config.search_seconds_per_batch_frame,
        transfer_seconds_per_batch=config.transfer_seconds_per_batch,
    )
    return simulate_stream(total_frames, single)


def max_realtime_streams(
    config: BatchedStreamConfig = BatchedStreamConfig(),
    limit: int = 4096,
) -> int:
    """Largest stream count the pipeline sustains in real time.

    A stage keeps up when its busy time per batch fits inside the batch's
    audio window, i.e. its per-batch-frame cost stays below
    ``frame_period_s``; the bottleneck stage bounds the fleet.  With both
    batch efficiencies at 0 extra streams are free and no bottleneck ever
    appears, so the answer is unbounded: the search is capped at ``limit``
    and returns it (a floor, not a measured capacity, in that case).
    """
    best = 0
    for n in range(1, limit + 1):
        candidate = replace(config, num_streams=n)
        busiest = max(
            candidate.dnn_seconds_per_batch_frame,
            candidate.search_seconds_per_batch_frame,
        )
        if busiest > config.frame_period_s:
            break
        best = n
    return best


def simulate_stream(
    total_frames: int, config: StreamConfig = StreamConfig()
) -> StreamReport:
    """Simulate a continuous utterance of ``total_frames`` frames."""
    if total_frames < 1:
        raise ConfigError("total_frames must be >= 1")

    report = StreamReport()
    full, rem = divmod(total_frames, config.batch_frames)
    chunks = [config.batch_frames] * full + ([rem] if rem else [])

    gpu_free = 0.0
    accel_free = 0.0
    frames_spoken = 0
    for i, frames in enumerate(chunks):
        frames_spoken += frames
        audio_done = frames_spoken * config.frame_period_s

        # The GPU starts on the batch when its audio is complete and the
        # GPU is free (it computes batches in order).
        dnn_start = max(audio_done, gpu_free)
        dnn_done = dnn_start + frames * config.dnn_seconds_per_frame
        gpu_free = dnn_done

        # Scores DMA to the accelerator's double buffer; the transfer
        # overlaps the accelerator's work on the previous batch.
        transfer_done = dnn_done + config.transfer_seconds_per_batch

        search_start = max(transfer_done, accel_free)
        search_done = search_start + frames * config.search_seconds_per_frame
        accel_free = search_done

        report.batches.append(
            BatchTiming(i, audio_done, dnn_done, transfer_done, search_done)
        )
    return report
