#!/usr/bin/env python
"""Live decode sessions: continuous batching over one vectorized engine.

The paper's accelerator serves a *live* pipeline -- audio arrives 10 ms
at a time and the search runs batch by batch behind the GPU.  This
example drives that traffic shape in software, on the public session
API of one :class:`StreamingServer`:

1. users call in at different times (``open_session`` mid-flight);
2. each pushes small chunks of acoustic scores as they are "spoken"
   (``push``; ``close_input`` after the last one);
3. ``drain`` advances every live session in fused lockstep sweeps, and
   ``partial`` shows each caller's words as they appear;
4. sessions retire the moment their input ends, and the final words are
   checked against one-shot offline decoding -- streaming costs nothing
   in accuracy, by construction.

Run:  python examples/live_sessions.py
"""

from repro.datasets import TaskConfig, generate_task
from repro.decoder import BatchDecoder, DecoderConfig
from repro.system import StreamingServer

BEAM = 12.0
CHUNK_FRAMES = 10  # 100 ms of audio per push
JOIN_EVERY = 4  # rounds between arrivals


def main() -> None:
    task = generate_task(
        TaskConfig(vocab_size=120, corpus_sentences=500, num_utterances=5,
                   seed=33)
    )
    matrices = [u.scores.matrix for u in task.utterances]
    oneshot = BatchDecoder(task.graph, DecoderConfig(beam=BEAM)).decode_batch(
        [u.scores for u in task.utterances]
    )

    server = StreamingServer(task.graph, DecoderConfig(beam=BEAM))
    sids = []  # caller i's session id
    offsets = []  # frames of caller i's audio pushed so far
    last_partial = {}

    print(f"{len(matrices)} callers, {CHUNK_FRAMES}-frame chunks, one "
          f"caller joining every {JOIN_EVERY} rounds\n")
    round_no = 0
    while len(sids) < len(matrices) or server.live_session_ids:
        if round_no % JOIN_EVERY == 0 and len(sids) < len(matrices):
            sids.append(server.open_session())
            offsets.append(0)
            print(f"[round {round_no:3d}] caller {len(sids) - 1} joined "
                  f"({len(matrices[len(sids) - 1])} frames of audio)")
        for i, sid in enumerate(sids):
            if offsets[i] >= len(matrices[i]) or not server.is_live(sid):
                continue  # all spoken, or the beam emptied: error kept
            chunk = matrices[i][offsets[i]: offsets[i] + CHUNK_FRAMES]
            server.push(sid, chunk)
            offsets[i] += len(chunk)
            if offsets[i] >= len(matrices[i]):
                server.close_input(sid)
        server.drain()
        # Report partial hypotheses as new words appear.
        for i, sid in enumerate(sids):
            hypothesis = server.partial(sid) if server.is_live(sid) else None
            if hypothesis is None or hypothesis.words == last_partial.get(i):
                continue
            last_partial[i] = hypothesis.words
            text = " ".join(task.lexicon.word_of(w) for w in hypothesis.words)
            print(f"[round {round_no:3d}] caller {i} so far: \"{text}\"")
        round_no += 1

    print("\nFinal hypotheses (streamed == one-shot offline):")
    for i, sid in enumerate(sids):
        record = server.result(sid)
        assert record.result.words == oneshot[i].words
        assert record.result.log_likelihood == oneshot[i].log_likelihood
        s = record.stats
        print(f"  caller {i}: {s.frames_decoded} frames, "
              f"{s.frames_per_second:6.0f} frames/s, mean wait "
              f"{s.mean_wait_s * 1e3:5.2f} ms  "
              f"\"{' '.join(task.transcript(record.result))}\"")
    stats = server.stats
    print(f"\nServer: {stats.frames_decoded} frames in {stats.sweeps} "
          f"lockstep sweeps (mean occupancy {stats.mean_occupancy:.1f} "
          f"sessions), aggregate {stats.aggregate_frames_per_second:.0f} "
          f"frames/s of engine busy time")
    print("Streaming sessions decode word-identically to offline batches "
          "-- continuous batching is free accuracy-wise.")


if __name__ == "__main__":
    main()
