"""Ablation: beam width vs accuracy, search effort and cycles.

The beam is the knob that trades accuracy for work (Section II's pruning).
This sweep decodes a ground-truth task at several beam widths on the full
accelerator and reports WER, mean active tokens, arcs and cycles -- the
classic operating curve that sits behind every fixed-beam number in the
paper's evaluation.  The beam changes the *search*, so the shared runner
records one trace per beam (its ``"beam"`` workload axis) and prices each
on the ASIC+State&Arc configuration.
"""

import pytest

from benchmarks.common import base_config, format_table, report, sweep_runner
from repro.datasets import TaskConfig, generate_task
from repro.decoder import word_error_rate
from repro.explore import SweepWorkload
from repro.system.experiment import accelerator_configs

BEAMS = (2.0, 4.0, 8.0, 16.0)


@pytest.fixture(scope="module")
def task():
    return generate_task(
        TaskConfig(vocab_size=200, corpus_sentences=900, num_utterances=4,
                   score_separation=3.0, score_noise=1.6, seed=51)
    )


def run(task):
    workload = SweepWorkload.from_task(task, beam=BEAMS[0])
    both = accelerator_configs(base_config())["ASIC+State&Arc"]
    runner = sweep_runner(workload, base=both)
    result = runner.run([{"beam": beam} for beam in BEAMS])

    rows = []
    for beam, point in zip(BEAMS, result.points):
        n = len(task.utterances)
        wer = sum(
            word_error_rate(utt.words, words)
            for utt, words in zip(task.utterances, point.words)
        )
        rows.append(
            [
                beam,
                wer / n,
                point.search.mean_active_tokens,
                point.search.arcs_processed,
                point.cycles,
            ]
        )
    return rows


def test_ablation_beam(task):
    rows = run(task)
    text = format_table(
        "Ablation -- beam width vs accuracy and work",
        ["beam", "WER", "active tokens/frame", "arcs", "cycles"],
        rows,
    )
    report("ablation_beam", text)

    by_beam = {r[0]: r for r in rows}
    # Wider beams do more work...
    assert by_beam[16.0][4] > by_beam[2.0][4]
    assert by_beam[16.0][2] > by_beam[2.0][2]
    # ...and never hurt accuracy.
    assert by_beam[16.0][1] <= by_beam[2.0][1] + 1e-9
    # The task is accurately decodable at a generous beam.
    assert by_beam[16.0][1] < 0.3
