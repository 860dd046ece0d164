"""Double-buffered shared-memory score planes for the serving tier.

The executable analogue of the accelerator's Acoustic Likelihood Buffer
(paper, Section III): score frames live in a ``multiprocessing.shared_memory``
segment holding **two planes** per worker.  The front door writes score
rows into the plane currently being filled and ships only tiny
``(sid, generation, offset, frames)`` descriptors over the pipe; the
worker maps the same segment once and reads the rows **zero-copy** --
exactly the way it already mmaps the compiled graph -- acking a chunk
when its frames have been decoded, which releases the slot.

The writer *flips* to the other plane as soon as every chunk written
there has been acked, and rewinds to its first row; it never flips onto
a plane with unacked chunks (the ALB stall: the GPU may fill plane
``t+1`` only while the Viterbi sweep consumes plane ``t``).  So the rows
a plane touches follow the frames in flight, not ``plane_frames``: while
acks drain plane by plane, a chunk lands at most as deep as the frames
unacked when it is written.  Only when the filling plane runs out of
rows with the other still unacked does ``try_alloc`` return ``None``, so
the caller can drain acks and retry.  A plane as deep as the tier's
backpressure budget does not rule the stall out: acks arrive out of
order, so one slow session's chunk can hold the flip target while the
rest of the budget is free (a 4-frame plane under a 4-frame budget stalls
with 2 frames unacked).  What holds is that every unacked chunk is
buffered on a live worker, which decodes and acks it, so a stall
resolves.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError

_FLOAT64_BYTES = 8


class ScorePlaneRing:
    """Writer side: the front door's pair of score planes for one worker."""

    def __init__(self, plane_frames: int, width: int) -> None:
        if plane_frames < 1 or width < 1:
            raise ConfigError("plane_frames and width must be >= 1")
        self.plane_frames = plane_frames
        self.width = width
        size = 2 * plane_frames * width * _FLOAT64_BYTES
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self._planes: np.ndarray = np.ndarray(
            (2, plane_frames, width), dtype=np.float64, buffer=self._shm.buf
        )
        #: Monotone plane generation; ``generation & 1`` indexes the
        #: plane currently being filled.
        self.generation = 0
        self._fill = 0                      #: next free row of that plane
        self._pending: List[int] = [0, 0]   #: unacked chunks per plane
        self.flips = 0
        self.stalls = 0

    @property
    def name(self) -> str:
        """Segment name the worker attaches by."""
        return self._shm.name

    @property
    def pending_chunks(self) -> int:
        return self._pending[0] + self._pending[1]

    def try_alloc(
        self, frames: int
    ) -> Optional[Tuple[int, int, np.ndarray]]:
        """Reserve ``frames`` rows of the filling plane.

        Returns ``(generation, offset, rows_view)``, flipping planes
        first whenever the other one is fully acked -- or ``None`` when
        the filling plane is full and the other still has unacked
        chunks (the ALB stall; drain acks and retry).
        """
        if frames < 1 or frames > self.plane_frames:
            raise ConfigError(
                f"chunk of {frames} frames does not fit a "
                f"{self.plane_frames}-frame score plane"
            )
        if self._fill and not self._pending[(self.generation + 1) & 1]:
            self.generation += 1
            self._fill = 0
            self.flips += 1
        elif self._fill + frames > self.plane_frames:
            self.stalls += 1
            return None
        plane_index = self.generation & 1
        offset = self._fill
        self._fill += frames
        self._pending[plane_index] += 1
        return (
            self.generation,
            offset,
            self._planes[plane_index, offset: offset + frames],
        )

    def release(self, generation: int) -> None:
        """Ack from the worker: one chunk of ``generation`` is consumed."""
        if generation < 0:
            return  # zero-frame descriptor, nothing was allocated
        index = generation & 1
        if self._pending[index] > 0:
            self._pending[index] -= 1

    def close(self) -> None:
        """Release the mapping and unlink the segment (owner side)."""
        self._planes = None  # type: ignore[assignment]
        try:
            self._shm.close()
            self._shm.unlink()
        except (BufferError, FileNotFoundError, OSError):
            pass


class ScorePlaneView:
    """Reader side: a worker's zero-copy view of its ring segment."""

    def __init__(self, name: str, plane_frames: int, width: int) -> None:
        # Before 3.13 attaching also *registers* the segment with this
        # process's resource tracker, which then unlinks it (or warns
        # about a "leak") when the worker exits -- but the front door
        # owns the segment's lifetime.  There is no track=False until
        # 3.13, so suppress the registration around the attach.
        registered = resource_tracker.register
        resource_tracker.register = lambda *_args: None  # type: ignore[assignment]
        try:
            self._shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = registered
        self.width = width
        self._planes: np.ndarray = np.ndarray(
            (2, plane_frames, width), dtype=np.float64, buffer=self._shm.buf
        )

    def rows(self, generation: int, offset: int, frames: int) -> np.ndarray:
        """The chunk's score rows, read in place from shared memory."""
        return self._planes[generation & 1, offset: offset + frames]

    def close(self) -> None:
        self._planes = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except (BufferError, OSError):
            pass
