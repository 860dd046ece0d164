#!/usr/bin/env python
"""Quickstart: decode speech on the software decoder and the accelerator.

Generates a complete synthetic ASR task (lexicon -> bigram LM -> composed
L∘G decoding graph -> aligned utterances with acoustic scores), decodes it
with the reference software decoder, then runs the same utterances through
the cycle-accurate accelerator simulator in its fastest configuration
(ASIC+State&Arc) and reports accuracy, cycles and energy.

Run:  python examples/quickstart.py
"""

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.datasets import TaskConfig, generate_task
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate
from repro.energy import AcceleratorEnergyModel
from repro.system.experiment import accelerator_configs

BEAM = 14.0


def main() -> None:
    print("Generating a 300-word synthetic ASR task ...")
    task = generate_task(
        TaskConfig(vocab_size=300, corpus_sentences=1500, num_utterances=5, seed=7)
    )
    graph = task.graph
    print(
        f"  decoding graph: {graph.num_states} states, {graph.num_arcs} arcs "
        f"({graph.total_size_bytes / 1024:.0f} KB, "
        f"{100 * graph.epsilon_fraction():.1f}% epsilon arcs)"
    )

    reference = ViterbiDecoder(graph, DecoderConfig(beam=BEAM))

    # Prefetching plus the Section IV-B sorted layout.
    config = accelerator_configs(AcceleratorConfig())["ASIC+State&Arc"]
    accelerator = AcceleratorSimulator(graph, config, beam=BEAM)
    energy_model = AcceleratorEnergyModel()

    total_wer = 0.0
    total_cycles = 0
    total_energy = 0.0
    total_speech = 0.0
    for i, utt in enumerate(task.utterances):
        ref = reference.decode(utt.scores)
        acc = accelerator.decode(utt.scores)
        assert acc.words == ref.words, "accelerator must match the software decoder"

        wer = word_error_rate(utt.words, acc.words)
        total_wer += wer
        total_cycles += acc.stats.cycles
        total_energy += energy_model.energy(config, acc.stats).total_j
        total_speech += utt.duration_seconds

        hyp = " ".join(task.transcript(acc))
        print(f"  utt {i}: {utt.num_frames} frames, WER {wer:.2f}  ->  {hyp}")

    seconds = total_cycles / config.frequency_hz
    print(f"\nMean WER: {total_wer / len(task.utterances):.3f}")
    print(
        f"Accelerator: {total_cycles} cycles = {seconds * 1e3:.2f} ms for "
        f"{total_speech:.2f} s of speech "
        f"({seconds / total_speech:.4f} s per second of speech -- "
        f"{'real-time' if seconds < total_speech else 'not real-time'})"
    )
    print(f"Energy: {total_energy * 1e3:.3f} mJ "
          f"({total_energy / total_speech * 1e3:.3f} mJ per second of speech)")


if __name__ == "__main__":
    main()
