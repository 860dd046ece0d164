"""Tests for batched in-tier acoustic scoring: the BatchScorer packing
stage, the double-buffered shared-memory score planes, and the
features-mode front door of ServingTier -- the one place features enter
the serving stack.

Correctness anchor: pushing MFCC features and letting the serving layer
score them -- batched across sessions, shipped over shared memory --
produces bitwise the words and path scores of the client scoring its own
chunks and pushing likelihood rows.
"""

import asyncio
import glob
import os
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import cpu
from repro.common.cpu import BlasPool
from repro.common.errors import ConfigError, DecodeError, TierError
from repro.acoustic import AcousticScores, BatchScorer, Dnn, DnnConfig, DnnScorer
from repro.acoustic.scorer import _EPS_COLUMN_SCORE
from repro.decoder import BatchDecoder, DecoderConfig
from repro.system import (
    ScorePlaneRing,
    ScorePlaneView,
    ServingTier,
    StreamingServer,
    TierConfig,
)
from repro.system import tier as tier_module


@pytest.fixture(scope="module")
def tiny_scorer():
    dnn = Dnn(DnnConfig(input_dim=6, hidden_dims=(12,), num_classes=4), seed=1)
    priors = DnnScorer.priors_from_labels(np.arange(4), 4)
    return DnnScorer(dnn, priors, acoustic_scale=0.9)


@pytest.fixture()
def config():
    return DecoderConfig(beam=14.0, max_active=80)


class TestBatchScorer:
    def test_matches_per_chunk_scoring_bitwise(self, tiny_scorer):
        batch = BatchScorer(tiny_scorer)
        rng = np.random.default_rng(4)
        chunks = [rng.normal(size=(n, 6)) for n in (5, 1, 33, 12)]
        planes = batch.score_chunks(chunks)
        for chunk, plane in zip(chunks, planes):
            np.testing.assert_array_equal(
                plane, tiny_scorer.score(chunk).matrix
            )

    def test_zero_frame_chunk(self, tiny_scorer):
        batch = BatchScorer(tiny_scorer)
        planes = batch.score_chunks(
            [np.empty((0, 6)), np.ones((3, 6)), np.empty((0, 6))]
        )
        assert planes[0].shape == (0, batch.width)
        assert planes[2].shape == (0, batch.width)
        np.testing.assert_array_equal(
            planes[1], tiny_scorer.score(np.ones((3, 6))).matrix
        )

    def test_out_buffers_written_in_place(self, tiny_scorer):
        batch = BatchScorer(tiny_scorer)
        chunks = [np.ones((4, 6)), np.zeros((2, 6))]
        out = [np.empty((4, batch.width)), np.empty((2, batch.width))]
        planes = batch.score_chunks(chunks, out=out)
        assert planes[0] is out[0] and planes[1] is out[1]
        np.testing.assert_array_equal(
            out[0], tiny_scorer.score(np.ones((4, 6))).matrix
        )

    def test_float64_planes_from_float32_scoring(self, tiny_scorer):
        """The stacked forward is single precision; what the search
        reads is not.  Ring-slot-like float64 views (and the fresh
        plane) come back float64, column 0 the epsilon score exactly,
        rows bit-equal to ``DnnScorer.score`` whatever dtype the chunk
        arrived in."""
        batch = BatchScorer(tiny_scorer)
        assert batch.dtype == np.float32
        rng = np.random.default_rng(6)
        chunks = [rng.normal(size=(n, 6)) for n in (5, 0, 33, 12)]
        chunks[2] = chunks[2].astype(np.float32)
        ring = np.zeros((64, batch.width))
        views, offset = [], 0
        for chunk in chunks:
            views.append(ring[offset: offset + len(chunk)])
            offset += len(chunk)
        for planes in (batch.score_chunks(chunks, out=views),
                       batch.score_chunks(chunks)):
            for chunk, plane in zip(chunks, planes):
                assert plane.dtype == np.float64
                assert (plane[:, 0] == _EPS_COLUMN_SCORE).all()
                np.testing.assert_array_equal(
                    plane, tiny_scorer.score(chunk).matrix
                )
        np.testing.assert_array_equal(ring[offset:], 0.0)  # nothing past the slots

    def test_float32_scores_within_contract_of_float64_reference(
        self, audio_task, config
    ):
        """The precision contract, against the plain float64 formula on
        the trained master: every likelihood within 1e-3, no frame's
        best phone moved, every utterance the same words."""
        scorer, master = audio_task.scorer, audio_task.dnn
        assert master.dtype == np.float64 and scorer.dnn.dtype == np.float32
        log_priors = scorer.log_priors.astype(np.float64)
        decoder = BatchDecoder(audio_task.task.graph, config)
        for utt in audio_task.task.utterances:
            reference = (
                master.log_posteriors(utt.features) - log_priors
            ) * scorer.acoustic_scale
            rows = scorer.log_likelihood_rows(utt.features)
            assert rows.dtype == np.float32
            assert np.abs(rows - reference).max() < 1e-3
            np.testing.assert_array_equal(
                rows.argmax(axis=1), reference.argmax(axis=1)
            )
            plane = np.full((len(reference), reference.shape[1] + 1),
                            _EPS_COLUMN_SCORE)
            plane[:, 1:] = reference
            assert (
                decoder.decode(utt.scores).words
                == decoder.decode(AcousticScores(plane)).words
            )

    def test_rejects_bad_shapes(self, tiny_scorer):
        batch = BatchScorer(tiny_scorer)
        with pytest.raises(ConfigError):
            batch.score_chunks([np.ones((3, 5))])  # wrong feature width
        with pytest.raises(ConfigError):
            batch.score_chunks([np.ones(6)])  # not 2-D
        with pytest.raises(ConfigError):
            batch.score_chunks(
                [np.ones((3, 6))], out=[np.empty((2, batch.width))]
            )  # out plane too small
        with pytest.raises(ConfigError):
            batch.score_chunks([np.ones((3, 6))], out=[])  # count mismatch


class TestScorePlaneRing:
    def test_round_trip_through_shared_memory(self):
        ring = ScorePlaneRing(plane_frames=10, width=4)
        view = ScorePlaneView(ring.name, 10, 4)
        try:
            generation, offset, slot = ring.try_alloc(6)
            slot[:] = np.arange(24.0).reshape(6, 4)
            np.testing.assert_array_equal(
                view.rows(generation, offset, 6),
                np.arange(24.0).reshape(6, 4),
            )
        finally:
            view.close()
            ring.close()

    def test_flip_and_stall_semantics(self):
        ring = ScorePlaneRing(plane_frames=10, width=2)
        try:
            gen_a, _, _ = ring.try_alloc(6)
            gen_b, offset_b, _ = ring.try_alloc(6)  # flips to plane 1
            assert gen_b == gen_a + 1 and offset_b == 0
            assert ring.flips == 1
            # Next flip targets plane 0, which still has an unacked
            # chunk: the ALB stall.
            assert ring.try_alloc(6) is None
            assert ring.stalls == 1
            ring.release(gen_a)
            gen_c, _, _ = ring.try_alloc(6)
            assert gen_c == gen_b + 1
        finally:
            ring.close()

    def test_out_of_order_acks_stall_a_plane_as_deep_as_the_budget(self):
        """A plane as deep as the backpressure budget does not make the
        flip stall unreachable: a slow chunk left on the flip target
        stalls it with half the budget unacked."""
        budget = 4
        ring = ScorePlaneRing(plane_frames=budget, width=2)
        try:
            slow, _, _ = ring.try_alloc(2)
            fast, _, _ = ring.try_alloc(2)  # plane 1 is free: flips to it
            assert fast == slow + 1
            ring.release(fast)
            # Plane 0 still holds the slow chunk, so this one stays on
            # plane 1 and fills it.
            filler, offset, _ = ring.try_alloc(2)
            assert filler == fast and offset + 2 == budget
            ring.release(filler)
            unacked_frames = 2  # the slow chunk's
            assert unacked_frames + 1 < budget
            assert ring.try_alloc(1) is None  # flipping back stalls
            assert ring.stalls == 1 and ring.pending_chunks == 1
            ring.release(slow)  # the slow chunk decodes: the stall resolves
            assert ring.try_alloc(1) is not None
        finally:
            ring.close()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), budget=st.integers(1, 24))
    def test_touched_rows_follow_the_frames_in_flight(self, data, budget):
        """A long alloc/release stream with at most ``budget`` frames
        unacked, acks draining plane by plane in any order within a
        plane: every chunk ends within the frames in flight, so no
        offset reaches ``2 * budget``.  Flipping only on a full plane
        walked every such stream down to ``plane_frames``."""
        ring = ScorePlaneRing(plane_frames=64 * budget, width=1)
        in_flight = []  # (generation, frames) of every unacked chunk
        try:
            chunks = st.lists(st.integers(1, budget), min_size=50, max_size=200)
            for frames in data.draw(chunks):
                while in_flight and (
                    sum(f for _, f in in_flight) + frames > budget
                    or data.draw(st.booleans())
                ):
                    oldest = min(g for g, _ in in_flight)
                    on_oldest = [
                        i for i, (g, _) in enumerate(in_flight) if g == oldest
                    ]
                    acked = data.draw(st.sampled_from(on_oldest))
                    ring.release(in_flight.pop(acked)[0])
                slot = ring.try_alloc(frames)
                assert slot is not None
                generation, offset, _ = slot
                in_flight.append((generation, frames))
                assert offset + frames <= sum(f for _, f in in_flight) <= budget
        finally:
            ring.close()

    def test_chunk_larger_than_plane_rejected(self):
        ring = ScorePlaneRing(plane_frames=4, width=2)
        try:
            with pytest.raises(ConfigError):
                ring.try_alloc(5)
        finally:
            ring.close()

    def test_release_of_negative_generation_is_noop(self):
        ring = ScorePlaneRing(plane_frames=4, width=2)
        try:
            ring.release(-1)
            assert ring.pending_chunks == 0
        finally:
            ring.close()


class TestServerFeaturesMode:
    def test_features_path_bitwise_matches_scores_path(
        self, audio_task, config
    ):
        """Features in one process: score each round's chunks of every
        session in one ``BatchScorer`` call, push the planes -- the two
        lines ``benchmarks/e2e``'s in-process replay is built on."""
        task = audio_task.task
        base = StreamingServer(task.graph, config).decode_streaming(
            [u.scores for u in task.utterances], chunk_frames=7
        )
        scorer = BatchScorer(audio_task.scorer)
        server = StreamingServer(task.graph, config)
        sids = [server.open_session() for _ in task.utterances]
        longest = max(u.num_frames for u in task.utterances)
        for start in range(0, longest, 7):
            planes = scorer.score_chunks(
                [u.features[start: start + 7] for u in task.utterances]
            )
            for sid, plane in zip(sids, planes):
                server.push(sid, plane)
            server.drain()
        for sid in sids:
            server.close_input(sid)
        server.drain()
        for sid, utt, b in zip(sids, task.utterances, base):
            g = server.result(sid)
            assert g.error is None
            assert g.stats.frames_decoded == utt.num_frames
            assert g.result.words == b.words
            assert g.result.log_likelihood == b.log_likelihood

    def test_server_is_scores_only(self, audio_task, config):
        graph = audio_task.task.graph
        with pytest.raises(TypeError):
            StreamingServer(graph, config, scorer=audio_task.scorer)
        with pytest.raises(TypeError):
            StreamingServer(graph, config).open_session(mode="features")


class TestTierFeaturesMode:
    def test_features_path_bitwise_matches_scores_path(
        self, audio_task, config
    ):
        task = audio_task.task
        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=2),
        ) as tier:
            base = tier.decode_streaming(
                [u.scores for u in task.utterances], chunk_frames=7
            )
        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=2),
            scorer=audio_task.scorer,
        ) as tier:
            got = tier.decode_streaming(
                [u.features for u in task.utterances],
                chunk_frames=7,
                mode="features",
            )
            stats = tier.stats
        for b, g in zip(base, got):
            assert g.words == b.words
            assert g.log_likelihood == b.log_likelihood
        total = sum(u.num_frames for u in task.utterances)
        assert stats.scored_frames == total
        assert stats.frames_shipped == total
        assert stats.score_batches >= 1

    def test_float64_and_float32_features_are_the_same_input(
        self, audio_task, config
    ):
        """``push_features`` casts a chunk once, to the scorer's dtype: a
        float32 copy of a chunk is the same chunk."""
        feats = [u.features for u in audio_task.task.utterances]
        assert all(f.dtype == np.float64 for f in feats)
        with self.tier(audio_task, config) as tier:
            got = tier.decode_streaming(
                feats + [f.astype(np.float32) for f in feats],
                chunk_frames=7, mode="features",
            )
        for wide, narrow in zip(got[:len(feats)], got[len(feats):]):
            assert wide.words == narrow.words and wide.words
            assert wide.log_likelihood == narrow.log_likelihood

    def test_descriptor_transport_is_cheap(self, audio_task, config):
        """The pipe carries descriptors, not score matrices: well under
        the ~328 bytes one pickled float64 score row would cost."""
        task = audio_task.task
        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=2),
            scorer=audio_task.scorer,
        ) as tier:
            tier.decode_streaming(
                [u.features for u in task.utterances],
                chunk_frames=7,
                mode="features",
            )
            stats = tier.stats
        assert stats.descriptors_shipped > 0
        assert 0 < stats.ipc_bytes_per_frame < 64

    def test_small_plane_forces_flips_without_changing_words(
        self, audio_task, config
    ):
        """A deliberately tiny plane exercises flips (and possibly
        stalls) on the live path; output must not change."""
        task = audio_task.task
        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=1, plane_frames=16),
            scorer=audio_task.scorer,
        ) as tier:
            got = tier.decode_streaming(
                [u.features for u in task.utterances],
                chunk_frames=7,
                mode="features",
            )
        for utt, result in zip(task.utterances, got):
            assert result.words is not None

    def test_mode_mismatch_rejected(self, audio_task, config):
        task = audio_task.task
        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=1),
            scorer=audio_task.scorer,
        ) as tier:
            feat_sid = tier.open_session(mode="features")
            score_sid = tier.open_session()
            with pytest.raises(DecodeError):
                tier.push(feat_sid, task.utterances[0].scores.matrix)
            with pytest.raises(DecodeError):
                tier.push_features(score_sid, task.utterances[0].features)
            with pytest.raises(DecodeError):
                tier.push_features(feat_sid, np.ones((3, 3)))  # bad width
            tier.close_input(feat_sid)
            tier.close_input(score_sid)

    def test_features_mode_needs_scorer(self, audio_task, config):
        with ServingTier(
            graph=audio_task.task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=1),
        ) as tier:
            with pytest.raises(ConfigError):
                tier.open_session(mode="features")
            with pytest.raises(DecodeError):
                sid = tier.open_session()
                tier.push_features(sid, np.ones((2, 2)))

    def test_async_features_front_door(self, audio_task, config):
        task = audio_task.task

        async def client(tier, utt):
            sid = await asyncio.to_thread(tier.open_session, mode="features")
            feats = utt.features
            for i in range(0, len(feats), 9):
                await asyncio.to_thread(tier.push_features, sid, feats[i: i + 9])
            await asyncio.to_thread(tier.close_input, sid)
            return await asyncio.to_thread(tier.result, sid, 60)

        async def main(tier):
            return await asyncio.gather(
                *(client(tier, u) for u in task.utterances)
            )

        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=2),
            scorer=audio_task.scorer,
        ) as tier:
            records = asyncio.run(main(tier))
        with ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=2),
        ) as tier:
            base = tier.decode_streaming(
                [u.scores for u in task.utterances], chunk_frames=9
            )
        for expected, record in zip(base, records):
            assert record.ok, record.error
            assert record.result.words == expected.words
            assert record.result.log_likelihood == expected.log_likelihood

    def test_scoring_failure_is_terminal_and_visible(
        self, audio_task, config, monkeypatch
    ):
        """A scorer that raises used to kill the scoring thread silently:
        the batch's sessions never got a record, later pushes were
        accepted into a queue nobody read.  Now every features session
        with unscored frames fails at once, the features door closes
        with a typed error, and scores-mode sessions carry on -- on the
        same shard, through planes small enough that a ring slot or a
        backpressure reservation left behind would stall them."""
        task = audio_task.task
        entered, gate = threading.Event(), threading.Event()

        class ExplodingScorer(BatchScorer):
            def score_chunks(self, chunks, out=None):
                if entered.is_set():  # only the first call fails
                    return super().score_chunks(chunks, out=out)
                entered.set()
                gate.wait(10)
                raise RuntimeError("scorer exploded")

        monkeypatch.setattr(tier_module, "BatchScorer", ExplodingScorer)
        feats = task.utterances[0].features
        tier = ServingTier(
            graph=task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=1, plane_frames=16),
            scorer=audio_task.scorer,
        )

        def live_is_the_unrecorded(expected):
            # live_sessions is the shards' counters, not a scan: hold it
            # to the scan it replaced.
            unrecorded = sum(
                1 for s in tier._sessions.values() if s.record is None
            )
            assert tier.live_sessions == unrecorded == expected

        try:
            live_is_the_unrecorded(0)
            in_batch = tier.open_session(mode="features")
            queued = tier.open_session(mode="features")
            idle = tier.open_session(mode="features")
            scores_sid = tier.open_session()
            live_is_the_unrecorded(4)
            tier.push_features(in_batch, feats[:7])
            assert entered.wait(10)
            # The scoring thread holds in_batch's chunk; this one waits
            # in the queue behind it.
            tier.push_features(queued, feats[:7])
            tier.close_input(queued)
            t0 = time.monotonic()
            gate.set()
            for sid in (in_batch, queued):
                record = tier.result(sid, timeout=10)
                assert not record.ok
                assert "RuntimeError: scorer exploded" in record.error
            assert time.monotonic() - t0 < 1.0
            live_is_the_unrecorded(2)  # idle and scores_sid
            assert tier.stats.sessions_failed == 2

            # The features door is shut, typed, naming the cause ...
            with pytest.raises(TierError, match="RuntimeError: scorer exploded"):
                tier.push_features(idle, feats[:7])
            with pytest.raises(TierError, match="RuntimeError: scorer exploded"):
                tier.open_session(mode="features")
            # ... a session with nothing unscored still retires normally ...
            tier.close_input(idle)
            assert tier.result(idle, timeout=10).session_id == idle
            live_is_the_unrecorded(1)

            # ... and the scores door is not.
            utt = task.utterances[0]
            for start in range(0, utt.num_frames, 7):
                tier.push(scores_sid, utt.scores.matrix[start: start + 7])
            tier.close_input(scores_sid)
            record = tier.result(scores_sid, timeout=10)
            assert record.ok, record.error
            # Nothing the failed batch reserved is left behind (the
            # last ack trails the record by one message).
            shard = tier._workers[0]
            deadline = time.monotonic() + 5.0
            while shard.inflight_frames and time.monotonic() < deadline:
                tier.poll()
            assert shard.inflight_frames == 0
            assert shard.ring.pending_chunks == 0
            live_is_the_unrecorded(0)
        finally:
            gate.set()
            t0 = time.monotonic()
            tier.shutdown()
            assert time.monotonic() - t0 < 5.0

    # -- core budget: the DNN stage's BLAS pool gets the cores the workers
    # leave, max(1, usable_cpus() - num_workers), lowered for as long as
    # a scoring tier is up and never raised.
    @staticmethod
    def tier(audio_task, config, workers=2, scores_only=False):
        return ServingTier(
            graph=audio_task.task.graph,
            search_config=config,
            tier_config=TierConfig(num_workers=workers),
            scorer=None if scores_only else audio_task.scorer,
        )

    @staticmethod
    def assert_matches_scores_path(task, config, got):
        """``got`` equals decoding the task's own scores -- computed
        outside any tier, at the default BLAS pool size."""
        base = StreamingServer(task.graph, config).decode_streaming(
            [u.scores for u in task.utterances], chunk_frames=7
        )
        for b, g in zip(base, got):
            assert g.words == b.words
            assert g.log_likelihood == b.log_likelihood

    @pytest.fixture()
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(tier_module, "usable_cpus", lambda: 2)

    def test_core_budget_real_pool_is_one_thread_while_up(
        self, audio_task, config, two_cores
    ):
        """End to end on the BLAS numpy really runs on: decoded through a
        one-thread pool, equal to scores computed outside the tier at
        the default size."""
        task = audio_task.task
        pool = BlasPool()
        default = pool.threads()
        if default < 2:
            pytest.skip(f"BLAS pool reads {default}: uncontrolled, or "
                        f"already one thread")
        with self.tier(audio_task, config) as tier:
            assert pool.threads() == 1
            assert tier.stats.blas_threads == 1
            got = tier.decode_streaming(
                [u.features for u in task.utterances],
                chunk_frames=7, mode="features",
            )
        assert pool.threads() == default
        self.assert_matches_scores_path(task, config, got)

    def test_core_budget_restored_by_shutdown_and_exit_on_exception(
        self, audio_task, config, two_cores, fake_blas
    ):
        tier = self.tier(audio_task, config)
        assert fake_blas.threads == 1 and tier.stats.blas_threads == 1
        tier.shutdown()
        assert fake_blas.threads == 8
        tier.shutdown()  # idempotent: nothing is restored twice
        assert fake_blas.sets == [1, 8]
        with pytest.raises(RuntimeError, match="caller bug"):
            with self.tier(audio_task, config):
                assert fake_blas.threads == 1
                raise RuntimeError("caller bug")
        assert fake_blas.threads == 8

    def test_core_budget_restored_when_start_up_fails_after_lowering(
        self, audio_task, config, two_cores, fake_blas, monkeypatch, tmp_path
    ):
        def no_processes(method):
            raise OSError("cannot fork")

        monkeypatch.setattr(
            tier_module.multiprocessing, "get_context", no_processes
        )
        # A temp root of its own: directories other processes left in the
        # shared one say nothing about this tier.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(OSError, match="cannot fork"):
            self.tier(audio_task, config)
        assert fake_blas.sets == [1, 8]
        leftovers = glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-tier-graph-*")
        )
        assert leftovers == []

    def test_core_budget_spare_cores_or_no_scorer_never_touch_pool(
        self, audio_task, config, fake_blas, monkeypatch
    ):
        monkeypatch.setattr(tier_module, "usable_cpus", lambda: 64)
        with self.tier(audio_task, config) as tier:
            assert tier.stats.blas_threads == 8
        monkeypatch.setattr(tier_module, "usable_cpus", lambda: 2)
        with self.tier(audio_task, config, scores_only=True) as tier:
            assert tier.stats.blas_threads == 8
        assert fake_blas.sets == []

    @pytest.mark.parametrize("first_down", [0, 1])
    def test_core_budget_two_tiers_shut_down_in_either_order(
        self, audio_task, config, fake_blas, monkeypatch, first_down
    ):
        monkeypatch.setattr(tier_module, "usable_cpus", lambda: 4)
        tiers = [self.tier(audio_task, config, workers=1)]  # 8 -> 3
        assert fake_blas.threads == 3
        tiers.append(self.tier(audio_task, config, workers=3))  # 3 -> 1
        assert fake_blas.threads == 1
        tiers.pop(first_down).shutdown()
        tiers.pop().shutdown()
        assert fake_blas.threads == 8

    def test_core_budget_uncontrolled_blas_still_decodes(
        self, audio_task, config, two_cores, monkeypatch
    ):
        monkeypatch.setattr(cpu, "_find_openblas", lambda: None)
        task = audio_task.task
        with self.tier(audio_task, config) as tier:
            got = tier.decode_streaming(
                [u.features for u in task.utterances],
                chunk_frames=7, mode="features",
            )
            assert tier.stats.blas_threads == 0
        self.assert_matches_scores_path(task, config, got)
