"""Integration tests for the audio-backed task pipeline."""

import hashlib

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.datasets import AudioTaskConfig, generate_audio_task
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate


@pytest.fixture(scope="module")
def audio_task():
    return generate_audio_task(
        AudioTaskConfig(
            vocab_size=20, corpus_sentences=150, num_utterances=3,
            train_utterances=30, epochs=8, seed=2,
        )
    )


class TestAcousticModelQuality:
    def test_frame_accuracy_high(self, audio_task):
        """The synthetic audio must be learnable (else scores are noise)."""
        assert audio_task.frame_accuracy > 0.85

    def test_scores_shape(self, audio_task):
        utt = audio_task.task.utterances[0]
        assert utt.scores.num_phones == audio_task.task.num_phones


class TestBitIdentity:
    def test_trained_model_and_scores_are_pinned(self, audio_task):
        """SHA-256 of the float64 master's weights and biases and of every
        test score matrix, taken before the trainer's momentum update went
        in place: the same IEEE operations in the same order leave every
        bit where it was.  (Pinned with numpy's OpenBLAS on x86-64; another
        BLAS may sum its gemms in another order.)"""
        digest = hashlib.sha256()
        for array in (*audio_task.dnn.weights, *audio_task.dnn.biases,
                      *(u.scores.matrix for u in audio_task.task.utterances)):
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "771ff20285028353d8b3217d833ceeed33d2af95e9f3c8e6cdad3e22ff22217e"
        )


class TestEndToEndDecoding:
    def test_software_decoder_wer(self, audio_task):
        decoder = ViterbiDecoder(
            audio_task.task.graph, DecoderConfig(beam=20.0)
        )
        total = 0.0
        for utt in audio_task.task.utterances:
            result = decoder.decode(utt.scores)
            total += word_error_rate(utt.words, result.words)
        assert total / len(audio_task.task.utterances) < 0.35

    def test_accelerator_matches_reference(self, audio_task):
        """The hardware decodes real-DNN scores identically too."""
        graph = audio_task.task.graph
        ref = ViterbiDecoder(graph, DecoderConfig(beam=20.0))
        sim = AcceleratorSimulator(graph, AcceleratorConfig(), beam=20.0)
        for utt in audio_task.task.utterances:
            assert sim.decode(utt.scores).words == ref.decode(utt.scores).words


class TestConfig:
    def test_deterministic(self):
        cfg = AudioTaskConfig(vocab_size=10, corpus_sentences=60,
                              num_utterances=1, train_utterances=10,
                              epochs=3, seed=5)
        a = generate_audio_task(cfg)
        b = generate_audio_task(cfg)
        assert a.task.utterances[0].words == b.task.utterances[0].words
        assert a.frame_accuracy == b.frame_accuracy

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            AudioTaskConfig(vocab_size=1)
        with pytest.raises(ConfigError):
            AudioTaskConfig(num_utterances=0)
