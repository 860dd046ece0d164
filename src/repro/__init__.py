"""repro -- reproduction of "An Ultra Low-Power Hardware Accelerator for
Automatic Speech Recognition" (Yazdani et al., MICRO 2016).

The package builds the paper's entire system in Python:

* a WFST toolkit, lexicon/LM builders and synthetic datasets
  (:mod:`repro.wfst`, :mod:`repro.lexicon`, :mod:`repro.lm`,
  :mod:`repro.datasets`);
* the signal-processing front end and DNN acoustic model
  (:mod:`repro.frontend`, :mod:`repro.acoustic`);
* the software reference decoder and the data-parallel GPU baseline
  (:mod:`repro.decoder`, :mod:`repro.gpu`);
* the cycle-accurate accelerator simulator -- the paper's contribution --
  with the prefetching architecture and the bandwidth-saving state layout
  (:mod:`repro.accel`);
* area/power/energy models and the whole-pipeline system model
  (:mod:`repro.energy`, :mod:`repro.system`);
* the trace-once/replay-many design-space sweep engine behind the
  paper's Figures 4-14 parameter studies (:mod:`repro.explore`);
* the staged graph compiler with its content-addressed artifact cache,
  the single graph-construction path under tasks, benches, sweeps and
  the CLI (:mod:`repro.graph`).

Quickstart::

    from repro.datasets import generate_task, TaskConfig
    from repro.decoder import ViterbiDecoder, DecoderConfig

    task = generate_task(TaskConfig(vocab_size=200))
    decoder = ViterbiDecoder(task.graph, DecoderConfig(beam=14.0))
    result = decoder.decode(task.utterances[0].scores)
"""

__version__ = "1.0.0"

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.datasets import AsrTask, TaskConfig, generate_task
from repro.decoder import DecoderConfig, ViterbiDecoder, word_error_rate
from repro.graph import GraphCache, GraphRecipe, compile_graph
from repro.wfst import CompiledWfst, Fst, sort_states_by_arc_count

__all__ = [
    "__version__",
    "AcceleratorConfig",
    "AcceleratorSimulator",
    "AsrTask",
    "TaskConfig",
    "generate_task",
    "DecoderConfig",
    "ViterbiDecoder",
    "word_error_rate",
    "CompiledWfst",
    "Fst",
    "sort_states_by_arc_count",
    "GraphRecipe",
    "GraphCache",
    "compile_graph",
]
