#!/usr/bin/env python
"""One accelerator, many language models (the paper's flexibility claim).

Section II: "the same ASIC can be used to recognize words in different
languages by using different types of models ... supporting speech
recognition for a different language or adopting more accurate language
models only requires changes to the parameters of the WFST, but not to the
software or hardware implementation."

This example builds three decoding graphs over the same lexicon -- a
unigram, a bigram, and a trigram grammar -- and decodes the same utterances
on the *unchanged* accelerator simulator, comparing graph size, accuracy
and decode cycles.

Run:  python examples/language_flexibility.py
"""

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.datasets import CorpusConfig, TaskConfig, generate_corpus, generate_task
from repro.decoder import word_error_rate
from repro.lexicon import build_lexicon_fst
from repro.lm import (
    build_grammar_fst,
    build_trigram_fst,
    train_ngram,
    train_trigram,
)
from repro.system.experiment import accelerator_configs
from repro.wfst import CompiledWfst, compose
from repro.wfst.fst import Fst


def build_unigram_fst(model):
    """A single-state unigram grammar (the weakest language model)."""
    fst = Fst()
    root = fst.add_state()
    fst.set_start(root)
    fst.set_final(root, model.eos_logprob)
    for word in range(1, model.vocab_size + 1):
        fst.add_arc(root, word, word, model.unigram_logprob[word], root)
    return fst


def main() -> None:
    print("Generating base task (lexicon + corpus + utterances) ...")
    task = generate_task(
        TaskConfig(vocab_size=120, corpus_sentences=800, num_utterances=6,
                   utterance_words=5, seed=31)
    )
    corpus = generate_corpus(
        CorpusConfig(vocab_size=120, num_sentences=800, seed=31)
    )
    lexicon_fst = build_lexicon_fst(task.lexicon)

    bigram = train_ngram(corpus, 120)
    trigram = train_trigram(corpus, 120)
    grammars = {
        "unigram": build_unigram_fst(bigram),
        "bigram": build_grammar_fst(bigram),
        "trigram": build_trigram_fst(trigram),
    }

    config = accelerator_configs(AcceleratorConfig())["ASIC+State&Arc"]
    print(f"\n{'LM':8s} {'states':>8s} {'arcs':>9s} {'eps %':>6s} "
          f"{'WER':>6s} {'cycles':>10s}")
    for name, grammar in grammars.items():
        graph = CompiledWfst.from_fst(compose(lexicon_fst, grammar))
        sim = AcceleratorSimulator(graph, config, beam=16.0)
        total_wer, total_cycles = 0.0, 0
        for utt in task.utterances:
            result = sim.decode(utt.scores)
            total_wer += word_error_rate(utt.words, result.words)
            total_cycles += result.stats.cycles
        print(f"{name:8s} {graph.num_states:8d} {graph.num_arcs:9d} "
              f"{100 * graph.epsilon_fraction():6.1f} "
              f"{total_wer / len(task.utterances):6.2f} {total_cycles:10d}")

    print("\nSame simulator object model, three different recognition "
          "networks: only the WFST parameters changed.")


if __name__ == "__main__":
    main()
