"""The load drivers: one driver thread that calls the program's public
functions (through a tracer, so the traced pass sees every call) and
notes when speech ended and when records came back.

Two defects of the tier are stepped around rather than gated (README,
"Two defects the driver steps around"):

* a blocking ``ServingTier.result()`` re-takes the front-door lock every
  50 ms and starves the scoring thread, so the driver never waits in it:
  it advances on ``poll()`` and the finished-session count, and calls
  ``result(sid, 0)`` only once the count says the record is there;
* a worker retires sessions only inside ``step()``, so a ``close`` that
  lands on an idle worker strands its session; the driver counts such
  sessions (``tier.tail_stranded``) and nudges the worker with a filler
  session instead of failing the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ReproError

from benchmarks.e2e.workloads import Frontend, Utterance, Workload

IDLE_SLEEP_S = 0.0005
#: No record and nothing to push for this long: treat the tail as stranded.
STALL_S = 0.25
#: A timed region that runs this long is abandoned; what is unfinished fails.
REGION_DEADLINE_S = 60.0
#: Paced runs keep cool-down traffic flowing this long after the last
#: measured end-of-speech; a measured record later than that is a failure.
PACED_GRACE_S = 0.5
PACED_WARM_S = 1.5
FRAME_S = 0.01

Clock = Callable[[], float]


@dataclass
class Outcome:
    """What one timed region produced.  ``records[k]`` belongs to the
    k-th session opened and is ``None`` when none came back."""

    wall_s: float = 0.0
    utterance: List[int] = field(default_factory=list)
    eos: List[float] = field(default_factory=list)
    session: List[int] = field(default_factory=list)   #: whose ``eos`` entry
    arrivals: List[float] = field(default_factory=list)
    records: List[Any] = field(default_factory=list)
    measured: Optional[List[bool]] = None   #: paced: per session, in the window
    window_start: float = 0.0               #: paced: when the measured window opened
    #: continuous closed loop: first record seen -> last session opened,
    #: the stretch with ``in_flight`` sessions open throughout
    steady: Optional[Tuple[float, float]] = None
    late: List[float] = field(default_factory=list)
    gen_busy_s: float = 0.0
    stranded: int = 0
    timed_out: bool = False


# ----------------------------------------------------------------------
# Tier
# ----------------------------------------------------------------------
class TierDoor:
    """The driver's handle on a ``ServingTier``: every call is a span and
    completion is counted, never awaited."""

    def __init__(self, tier: Any, tracer: Any, mode: str) -> None:
        self.tier = tier
        self.tracer = tracer
        self.mode = mode
        self.opened = 0
        self._push = tier.push if mode == "scores" else tier.push_features

    def open(self) -> int:
        sid = self.tracer.call("tier.open", self.tier.open_session, self.mode)
        self.opened += 1
        return sid

    def push(self, sid: int, chunk: np.ndarray) -> None:
        self.tracer.call("tier.push", self._push, sid, chunk, session=sid)

    def close(self, sid: int) -> None:
        self.tracer.call("tier.close", self.tier.close_input, sid, session=sid)

    def finished(self) -> int:
        """Drain worker replies; sessions whose record has arrived so far."""
        self.tracer.call("tier.poll", self.tier.poll)
        stats = getattr(self.tier, "stats", None)
        done = getattr(stats, "sessions_finished", None)
        failed = getattr(stats, "sessions_failed", None)
        if done is None or failed is None:
            return self.opened - self.tier.live_sessions
        return done + failed

    def collect(self, sid: int) -> Any:
        """The session's record if it has arrived, else ``None``."""
        try:
            return self.tracer.call("tier.result", self.tier.result, sid, 0.0, session=sid)
        except ReproError:
            return None

    def collect_all(self, sids: Sequence[int], complete: bool) -> List[Any]:
        """Records of ``sids``.  When the count did not confirm them all,
        each miss costs a 50 ms wait inside ``result``, so give up after
        a few."""
        records: List[Any] = []
        misses = 0
        for sid in sids:
            record = None
            if complete or misses < 3:
                record = self.collect(sid)
                misses += record is None
            records.append(record)
        return records

    def nudge(self, chunk: np.ndarray) -> int:
        """Make every worker step once more by sending each a one-chunk
        filler session; returns how many fillers were opened."""
        workers = getattr(self.tier, "num_workers", 1)
        seen = set()
        fillers = []
        while len(seen) < workers and len(fillers) < 4 * workers:
            sid = self.open()
            fillers.append(sid)
            seen.add(self.tier.worker_of(sid))
        for sid in fillers:
            self.push(sid, chunk)
            self.close(sid)
        return len(fillers)


def tier_closed_loop(
    door: TierDoor,
    workload: Workload,
    inputs: Sequence[Utterance],
    frontend: Optional[Frontend],
    tracer: Any,
    sessions: Optional[int] = None,
    seconds: Optional[float] = None,
    clock: Clock = time.perf_counter,
) -> Outcome:
    """Keep ``in_flight`` sessions open, each pushed one chunk per pass,
    and open new ones until ``sessions`` have been opened or ``seconds``
    have passed; returns when every record has arrived.

    One long region rather than rounds: each drain leaves the workers
    short of sessions for as long as the last utterance opened happens to
    be, which made the rate depend on the order of the inputs.
    """
    chunk = workload.chunk_frames
    out = Outcome()
    base = door.finished()
    sids: List[int] = []
    pushing: List[List[Any]] = []
    done = fillers = 0
    opening = True
    t_start = last_progress = clock()
    while opening or done < len(sids) + fillers:
        progressed = False
        while opening and len(sids) + fillers - done < workload.in_flight:
            if (sessions is not None and len(sids) >= sessions) or (
                seconds is not None and clock() - t_start >= seconds
            ):
                opening = False
                if out.arrivals:
                    out.steady = (out.arrivals[0], clock())
                break
            index = len(sids) % len(inputs)
            utt = inputs[index]
            sid = door.open()
            if frontend is not None:
                matrix = frontend.features(utt.waveform, tracer)
            else:
                matrix = utt.matrix
            out.utterance.append(index)
            pushing.append([sid, len(sids), matrix, 0])
            sids.append(sid)
        still = []
        for entry in pushing:
            sid, session, matrix, offset = entry
            door.push(sid, matrix[offset: offset + chunk])
            entry[3] = offset + chunk
            if entry[3] >= len(matrix):
                door.close(sid)
                out.eos.append(clock())
                out.session.append(session)
            else:
                still.append(entry)
            progressed = True
        pushing = still
        finished = door.finished() - base
        now = clock()
        if finished > done:
            out.arrivals.extend([now] * (finished - done))
            done = finished
            progressed = True
        if progressed:
            last_progress = now
            continue
        if now - t_start > REGION_DEADLINE_S + (seconds or 0.0):
            out.timed_out = True
            break
        if now - last_progress > STALL_S:
            out.stranded += len(sids) + fillers - done
            fillers += door.nudge(inputs[0].matrix[:chunk])
            last_progress = now
        time.sleep(IDLE_SLEEP_S)
    out.records = door.collect_all(sids, complete=not out.timed_out)
    out.arrivals = out.arrivals[:len(sids)]
    out.wall_s = clock() - t_start
    return out


# ----------------------------------------------------------------------
# Open loop: a seeded schedule, every chunk timed from when it was due
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Schedule:
    """Arrival times and the due time of every chunk, from the seed."""

    arrival: Tuple[float, ...]       #: per session, seconds from start
    utterance: Tuple[int, ...]       #: per session, which input it speaks
    eos: Tuple[float, ...]           #: per session, due time of its last chunk
    measured: Tuple[bool, ...]       #: per session, arrived inside the window
    #: (due, session, first row, end row) sorted by due time
    events: Tuple[Tuple[float, int, int, int], ...]
    window_start: float              #: the measured window opens (after warm-up)
    stop: float                      #: when the driver stops feeding


def build_schedule(
    seed: int,
    frames: Sequence[int],
    streams: int,
    measure_s: float,
    chunk_frames: int,
    warm_s: float = PACED_WARM_S,
) -> Schedule:
    """Arrivals holding ``streams`` concurrent real-time streams on
    average; a pure function of its arguments.

    Arrival times are a Poisson process conditioned on its count: each of
    the three periods (warm-up, measured window, cool-down) gets the
    expected number of arrivals, placed uniformly at random, and the
    utterances are dealt in shuffled rounds.  Every seed therefore offers
    the same load and differs only in how it is bunched.
    """
    rng = np.random.default_rng([seed, 0x5C4ED])
    mean_s = FRAME_S * sum(frames) / len(frames)
    rate = streams / mean_s
    cool_s = FRAME_S * max(frames) + PACED_GRACE_S
    arrival: List[float] = []
    for start, length in (
        (0.0, warm_s), (warm_s, measure_s), (warm_s + measure_s, cool_s)
    ):
        count = int(round(rate * length))
        arrival.extend(sorted(start + length * rng.random(count)))
    utterance: List[int] = []
    while len(utterance) < len(arrival):
        utterance.extend(int(u) for u in rng.permutation(len(frames)))
    del utterance[len(arrival):]
    measured = [warm_s <= a < warm_s + measure_s for a in arrival]
    eos = [a + FRAME_S * frames[u] for a, u in zip(arrival, utterance)]
    last_measured = max((e for e, m in zip(eos, measured) if m), default=warm_s)
    stop = last_measured + PACED_GRACE_S
    events = []
    for session, (a, u) in enumerate(zip(arrival, utterance)):
        for first in range(0, frames[u], chunk_frames):
            end = min(first + chunk_frames, frames[u])
            events.append((a + FRAME_S * end, session, first, end))
    events.sort()
    return Schedule(
        tuple(arrival), tuple(utterance), tuple(eos), tuple(measured),
        tuple(e for e in events if e[0] <= stop), warm_s, stop,
    )


def tier_paced_run(
    door: TierDoor,
    schedule: Schedule,
    inputs: Sequence[Utterance],
    clock: Clock = time.perf_counter,
) -> Outcome:
    """Feed the schedule in real time.  Only sessions that arrive inside
    the measured window are collected; the rest is warm-up and cool-down
    traffic that keeps the workers stepping."""
    out = Outcome(measured=list(schedule.measured))
    base = door.finished()
    sids: Dict[int, int] = {}
    open_now: Dict[int, int] = {}
    events = schedule.events
    done = cursor = 0
    t0 = clock() + 0.02
    out.window_start = t0 + schedule.window_start
    while True:
        now = clock() - t0
        busy_from = clock()
        fed = False
        while cursor < len(events) and events[cursor][0] <= now:
            due, session, first, end = events[cursor]
            cursor += 1
            if first == 0:
                sids[session] = open_now[session] = door.open()
            sid = sids[session]
            door.push(sid, inputs[schedule.utterance[session]].matrix[first:end])
            out.late.append(clock() - t0 - due)
            if due >= schedule.eos[session] - 1e-9:
                door.close(sid)
                del open_now[session]
                out.eos.append(t0 + schedule.eos[session])
                out.session.append(session)
            fed = True
        if fed:
            out.gen_busy_s += clock() - busy_from
        finished = door.finished() - base
        if finished > done:
            out.arrivals.extend([clock()] * (finished - done))
            done = finished
        now = clock() - t0
        if now >= schedule.stop or now > REGION_DEADLINE_S:
            break
        next_due = events[cursor][0] if cursor < len(events) else schedule.stop
        time.sleep(max(0.0, min(IDLE_SLEEP_S, next_due - now)))
    out.wall_s = clock() - t0
    # Cool-down: end the streams still talking and give their records a
    # moment; whatever is closed and still has none is the stranded tail.
    for sid in open_now.values():
        door.close(sid)
    settle = clock() + STALL_S
    while clock() < settle and door.finished() - base < len(sids):
        time.sleep(IDLE_SLEEP_S)
    out.stranded = len(sids) - (door.finished() - base)
    measured = [s for s, m in enumerate(schedule.measured) if m]
    out.utterance = [schedule.utterance[s] for s in measured]
    if all(s in sids for s in measured):
        out.records = door.collect_all(
            [sids[s] for s in measured], complete=out.stranded == 0
        )
    else:  # the deadline cut the schedule short
        out.timed_out = True
        out.records = [None] * len(measured)
    return out


def final_lags(out: Outcome) -> List[float]:
    """Order-matched final lags: the k-th record to arrive is matched
    with the k-th end-of-speech (the tier driver knows how many records
    have arrived, not whose).  Paced runs keep the measured sessions."""
    ends = sorted(zip(out.eos, out.session))
    return [
        arrival - eos
        for (eos, session), arrival in zip(ends, sorted(out.arrivals))
        if out.measured is None or out.measured[session]
    ]


# ----------------------------------------------------------------------
# In-process server
# ----------------------------------------------------------------------
def server_closed_round(
    server: Any,
    workload: Workload,
    inputs: Sequence[Utterance],
    tracer: Any,
    clock: Clock = time.perf_counter,
    scorer: Any = None,
    frontend: Optional[Frontend] = None,
) -> Outcome:
    """``round_ops`` sessions through one ``StreamingServer``,
    ``in_flight`` at a time: push a chunk per session, sweep until the
    buffers drain, poll partials, collect what retired.

    With ``scorer`` (a ``BatchScorer``) the inputs are feature rows and
    each pass scores its chunk batch first -- the tier's scoring thread,
    replayed on the driver thread; with ``frontend`` they are waveforms
    and each session's features are extracted when it opens.
    """
    total = workload.round_ops
    chunk = workload.chunk_frames
    out = Outcome()
    out.records = [None] * total
    sids: List[int] = []
    pushing: List[List[Any]] = []
    waiting: Dict[int, int] = {}
    done = 0
    t_start = clock()
    while done < total:
        while len(sids) < total and len(sids) - done < workload.in_flight:
            index = len(sids) % len(inputs)
            sid = tracer.call("server.open", server.open_session)
            waiting[sid] = len(sids)
            sids.append(sid)
            out.utterance.append(index)
            matrix = inputs[index].matrix
            if frontend is not None:
                matrix = frontend.features(inputs[index].waveform, tracer)
            pushing.append([sid, matrix, 0])
        chunks = [m[o: o + chunk] for _, m, o in pushing]
        if scorer is not None and chunks:
            chunks = tracer.call("acoustic.score", scorer.score_chunks, chunks)
        still = []
        for entry, rows in zip(pushing, chunks):
            sid, matrix, offset = entry
            tracer.call("server.push", server.push, sid, rows, session=sid)
            entry[2] = offset + chunk
            if entry[2] >= len(matrix):
                tracer.call("server.close", server.close_input, sid, session=sid)
                out.eos.append(clock())
                out.session.append(waiting[sid])
            else:
                still.append(entry)
        pushing = still
        while tracer.call("server.step", server.step):
            pass
        if workload.partials:
            for sid, _, _ in pushing:
                tracer.call("server.partial", server.partial, sid, session=sid)
        for sid in [s for s in waiting if not server.is_live(s)]:
            out.records[waiting.pop(sid)] = tracer.call(
                "server.result", server.result, sid, session=sid
            )
            out.arrivals.append(clock())
            done += 1
        if clock() - t_start > REGION_DEADLINE_S:
            out.timed_out = True
            break
    out.wall_s = clock() - t_start
    return out


def rounds_for(seconds: float, run_round: Callable[[], Outcome]) -> List[Outcome]:
    """Repeat a fixed-work round until ``seconds`` of rounds have run."""
    outcomes: List[Outcome] = []
    spent = 0.0
    while spent < seconds:
        outcome = run_round()
        outcomes.append(outcome)
        spent += outcome.wall_s
        if outcome.timed_out:
            break
    return outcomes
