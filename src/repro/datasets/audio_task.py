"""End-to-end audio tasks: the full paper pipeline as a library call.

Where :func:`repro.datasets.generate_task` short-circuits the acoustic
front end with a synthetic scorer, :func:`generate_audio_task` exercises
every stage of Section II: it synthesises training audio, extracts MFCCs
(with CMVN and splicing), trains the numpy DNN, builds the decoding graph,
and produces test utterances whose score matrices come from the *trained
DNN on synthesised test audio* -- the same inputs the accelerator's
Acoustic Likelihood Buffer would receive from the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.acoustic import Dnn, DnnConfig, DnnScorer, TrainConfig, train_dnn
from repro.datasets.corpus import CorpusConfig, generate_corpus
from repro.datasets.task import AsrTask, TaskConfig, Utterance
from repro.frontend import (
    AudioSynthesizer,
    MfccConfig,
    MfccExtractor,
    cmvn,
    splice,
)
from repro.lexicon import generate_lexicon
from repro.lexicon.lexicon_fst import build_lexicon_fst
from repro.lm.grammar_fst import build_grammar_fst
from repro.lm.ngram import train_ngram
from repro.wfst.layout import CompiledWfst
from repro.wfst.ops import compose


@dataclass(frozen=True)
class AudioTaskConfig:
    """Parameters of an audio-backed ASR task."""

    vocab_size: int = 30
    corpus_sentences: int = 300
    num_utterances: int = 4
    utterance_words: int = 3
    train_utterances: int = 50
    train_phones_per_utterance: int = 12
    mean_frames_per_phone: int = 6
    hidden_dims: Tuple[int, ...] = (128, 128)
    epochs: int = 10
    splice_context: int = 2
    acoustic_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        if self.num_utterances < 1 or self.train_utterances < 1:
            raise ConfigError("utterance counts must be >= 1")
        if self.corpus_sentences < 1:
            raise ConfigError("corpus_sentences must be >= 1")
        if self.utterance_words < 1:
            raise ConfigError("utterance_words must be >= 1")
        if self.train_phones_per_utterance < 1:
            raise ConfigError("train_phones_per_utterance must be >= 1")
        if self.mean_frames_per_phone < 1:
            raise ConfigError("mean_frames_per_phone must be >= 1")
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError("hidden_dims must be positive and non-empty")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.splice_context < 0:
            raise ConfigError("splice_context must be >= 0")
        if self.acoustic_scale <= 0.0:
            raise ConfigError("acoustic_scale must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class AudioTask:
    """An :class:`AsrTask` plus its trained acoustic model."""

    task: AsrTask
    dnn: Dnn
    scorer: DnnScorer
    frame_accuracy: float


def generate_audio_task(config: AudioTaskConfig = AudioTaskConfig()) -> AudioTask:
    """Build a complete audio-backed task deterministically from the seed."""
    lexicon = generate_lexicon(config.vocab_size, seed=config.seed)
    phones = lexicon.phones
    corpus = generate_corpus(
        CorpusConfig(
            vocab_size=config.vocab_size,
            num_sentences=config.corpus_sentences,
            seed=config.seed,
        )
    )
    lm = train_ngram(corpus, config.vocab_size)
    graph = CompiledWfst.from_fst(
        compose(build_lexicon_fst(lexicon), build_grammar_fst(lm))
    )

    synth = AudioSynthesizer(phones, seed=config.seed)
    extractor = MfccExtractor(MfccConfig())

    def features_of(waveform: np.ndarray) -> np.ndarray:
        return splice(
            cmvn(extractor.extract(waveform)), context=config.splice_context
        )

    # ----- train the acoustic model on random phone strings -------------
    x, y = _training_frames(config, synth, features_of, phones.num_phones)
    dnn = Dnn(
        DnnConfig(
            input_dim=x.shape[1],
            hidden_dims=config.hidden_dims,
            num_classes=phones.num_phones,
        ),
        seed=config.seed,
    )
    train_dnn(
        dnn, x, y,
        TrainConfig(epochs=config.epochs, learning_rate=0.08,
                    seed=config.seed),
    )
    frame_accuracy = float((dnn.predict(x) == y).mean())

    priors = DnnScorer.priors_from_labels(y, phones.num_phones)
    scorer = DnnScorer(dnn, priors, acoustic_scale=config.acoustic_scale)

    # ----- synthesise and score the test utterances ---------------------
    test_rng = make_rng(config.seed, "audio-task-test")
    utterances: List[Utterance] = []
    for utt_id in range(config.num_utterances):
        sentence = corpus[int(test_rng.integers(0, len(corpus)))]
        words = tuple(sentence[: config.utterance_words])
        if not words:
            words = (int(test_rng.integers(1, config.vocab_size + 1)),)
        phone_seq: List[int] = []
        for w in words:
            phone_seq.extend(lexicon.pronunciation(w))
        wave, align = synth.synthesize(
            phone_seq, seed=config.seed * 7000 + utt_id,
            mean_frames=config.mean_frames_per_phone,
        )
        feats = features_of(wave)
        scores = scorer.score(feats)
        utterances.append(Utterance(words, align, scores, features=feats))

    task_config = TaskConfig(
        vocab_size=config.vocab_size,
        corpus_sentences=config.corpus_sentences,
        num_utterances=config.num_utterances,
        utterance_words=config.utterance_words,
        seed=config.seed,
    )
    task = AsrTask(task_config, lexicon, lm, graph, utterances)
    return AudioTask(task, dnn, scorer, frame_accuracy)


def _training_frames(
    config: AudioTaskConfig,
    synth: AudioSynthesizer,
    features_of: Callable[[np.ndarray], np.ndarray],
    num_phones: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(features, 0-based labels)`` of the training utterances, stacked.
    The per-utterance pieces die on return, before the net trains.  The
    stacked frames stay live through training and the frame-accuracy
    ``predict``; on top of them a training step holds the velocity, one
    layer's gradient and one batch's activations (``train_dnn``), which
    is where building a task reaches its memory peak."""
    rng = make_rng(config.seed, "audio-task-train")
    train_x: List[np.ndarray] = []
    train_y: List[np.ndarray] = []
    for utt in range(config.train_utterances):
        seq = rng.integers(1, num_phones + 1,
                           size=config.train_phones_per_utterance)
        wave, align = synth.synthesize(
            seq.tolist(), seed=config.seed * 1000 + utt,
            mean_frames=config.mean_frames_per_phone,
        )
        feats = features_of(wave)
        labels = align.frame_labels()[: len(feats)] - 1
        train_x.append(feats[: len(labels)])
        train_y.append(labels)
    return np.vstack(train_x), np.concatenate(train_y)
