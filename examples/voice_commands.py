#!/usr/bin/env python
"""Voice commands: the full pipeline from raw audio to words.

This example exercises every stage the paper's Section II describes, on a
smart-device command task (the mobile use case that motivates the paper):

1. define a small command vocabulary with hand-written pronunciations;
2. synthesise training audio and extract MFCC features;
3. train the DNN acoustic model (numpy MLP);
4. build the decoding graph (lexicon FST ∘ command-grammar FST);
5. synthesise *test* command audio and decode it end-to-end through the
   DNN scorer and the accelerator simulator.

Run:  python examples/voice_commands.py
"""

import numpy as np

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.acoustic import Dnn, DnnConfig, DnnScorer, TrainConfig, train_dnn
from repro.common.rng import make_rng
from repro.decoder import word_error_rate
from repro.frontend import AudioSynthesizer, MfccConfig, MfccExtractor
from repro.lexicon import Lexicon, PhoneSet, build_lexicon_fst
from repro.lm import build_grammar_fst, train_ngram
from repro.system.experiment import accelerator_configs
from repro.wfst import CompiledWfst, compose

#: Command vocabulary with ARPAbet-ish pronunciations.
COMMANDS = {
    "call": ("k", "ao", "l"),
    "open": ("ow", "p", "ah", "n"),
    "play": ("p", "l", "ey"),
    "stop": ("s", "t", "aa", "p"),
    "next": ("n", "eh", "k", "s", "t"),
    "music": ("m", "y", "uw", "z", "ih", "k"),
    "camera": ("k", "ae", "m", "er", "ah"),
    "message": ("m", "eh", "s", "ih", "jh"),
    "weather": ("w", "eh", "dh", "er"),
    "timer": ("t", "ay", "m", "er"),
}

#: Plausible command bigrams for the grammar.
COMMAND_PHRASES = [
    ["open", "camera"], ["open", "music"], ["play", "music"],
    ["stop", "music"], ["next", "music"], ["call", "message"],
    ["open", "message"], ["open", "weather"], ["stop", "timer"],
    ["open", "timer"], ["play", "next"], ["stop"], ["call"],
]


def build_task():
    phones = PhoneSet()
    words = tuple(COMMANDS)
    prons = tuple(
        tuple(phones.id_of(p) for p in COMMANDS[w]) for w in words
    )
    lexicon = Lexicon(phones, words, prons)

    corpus = [
        [lexicon.word_id(w) for w in phrase]
        for phrase in COMMAND_PHRASES * 8
    ]
    lm = train_ngram(corpus, vocab_size=len(words))
    graph = CompiledWfst.from_fst(
        compose(
            build_lexicon_fst(lexicon, silence_prob=0.2, self_loop_prob=0.75),
            build_grammar_fst(lm),
        )
    )
    return lexicon, graph


def train_acoustic_model(phones: PhoneSet, synth, extractor):
    """Train the MLP on synthetic audio covering every phone."""
    rng = make_rng(123, "voice-commands-train")
    features, labels = [], []
    for utt in range(60):
        seq = rng.choice(phones.num_phones, size=12) + 1
        wave, align = synth.synthesize(seq.tolist(), seed=1000 + utt, mean_frames=6)
        feats = extractor.extract(wave)
        frame_labels = align.frame_labels()[: len(feats)]
        features.append(feats[: len(frame_labels)])
        labels.append(frame_labels - 1)  # class ids are 0-based
    x = np.vstack(features)
    y = np.concatenate(labels)

    dnn = Dnn(
        DnnConfig(input_dim=x.shape[1], hidden_dims=(128, 128),
                  num_classes=phones.num_phones),
        seed=0,
    )
    losses = train_dnn(
        dnn, x, y, TrainConfig(epochs=12, learning_rate=0.08, seed=0)
    )
    accuracy = (dnn.predict(x) == y).mean()
    print(f"  DNN: {dnn.num_params} params, final loss {losses[-1]:.3f}, "
          f"frame accuracy {accuracy:.2%}")
    return dnn, y


def main() -> None:
    print("Building command lexicon, grammar and decoding graph ...")
    lexicon, graph = build_task()
    phones = lexicon.phones
    print(f"  graph: {graph.num_states} states, {graph.num_arcs} arcs")

    synth = AudioSynthesizer(phones, seed=5)
    extractor = MfccExtractor(MfccConfig())

    print("Training the acoustic model on synthetic audio ...")
    dnn, train_labels = train_acoustic_model(phones, synth, extractor)
    priors = DnnScorer.priors_from_labels(train_labels, phones.num_phones)
    scorer = DnnScorer(dnn, priors, acoustic_scale=1.0)

    accelerator = AcceleratorSimulator(
        graph,
        accelerator_configs(AcceleratorConfig())["ASIC+State&Arc"],
        beam=20.0,
    )

    print("Decoding spoken commands ...")
    total_wer = 0.0
    tests = [["open", "camera"], ["play", "music"], ["stop", "timer"],
             ["call", "message"], ["open", "weather"]]
    for i, phrase in enumerate(tests):
        phone_seq = []
        for word in phrase:
            phone_seq.append(phones.silence_id)
            phone_seq.extend(lexicon.pronunciation(lexicon.word_id(word)))
        wave, _align = synth.synthesize(phone_seq, seed=500 + i, mean_frames=6)
        scores = scorer.score(extractor.extract(wave))

        result = accelerator.decode(scores)
        hyp = [lexicon.word_of(w) for w in result.words]
        wer = word_error_rate(phrase, hyp)
        total_wer += wer
        print(f"  said: {' '.join(phrase):18s} heard: {' '.join(hyp):18s} "
              f"WER {wer:.2f}  ({result.stats.cycles} cycles)")

    print(f"\nMean command WER: {total_wer / len(tests):.3f}")


if __name__ == "__main__":
    main()
