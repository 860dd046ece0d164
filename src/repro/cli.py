"""Command-line interface.

Seven subcommands cover the common workflows:

* ``repro-asr compile``      -- run the staged graph compiler on a recipe
  (composed lexicon ∘ LM or synthetic Kaldi-like graph), print the
  per-pass report and cache/save the packed artifact.
* ``repro-asr decode``       -- decode a task's utterances on any engine
  of the shared search kernel: ``--engine reference`` (scalar oracle),
  ``batch`` (vectorized) or ``gpu`` (workload summaries);
  ``--streaming`` for chunked live sessions and
  ``--pruning adaptive --target-active N`` for the adaptive-beam
  strategy.
* ``repro-asr serve``        -- serve a task's utterances as concurrent
  chunked sessions through the multi-process tier (``--workers N``
  search processes over one memory-mapped graph) and report p50/p99 SLO
  stats; ``--score-features`` pushes MFCC features through its DNN stage.
* ``repro-asr simulate``     -- decode on the cycle-accurate accelerator
  simulator in any of the paper's four configurations.
* ``repro-asr compare``      -- run the six-platform comparison on a
  memory-system workload and print the Figure 9/10/11 style table.
* ``repro-asr sweep``        -- design-space sweep over accelerator
  parameters (trace-once/replay-many with an on-disk trace cache),
  with JSON/CSV artifacts; the engine behind the paper's Figures 4-5.
* ``repro-asr lint``         -- the invariant linter over the source tree
  (``docs/INVARIANTS.md``).

Run ``python -m repro.cli --help`` for details.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from typing import List, Optional

from repro.accel import AcceleratorConfig, AcceleratorSimulator
from repro.analysis import engine as analysis_engine
from repro.common.errors import ConfigError
from repro.datasets import (
    AudioTaskConfig,
    SyntheticGraphConfig,
    TaskConfig,
    generate_audio_task,
    generate_task,
)
from repro.decoder import (
    BatchDecoder,
    DecoderConfig,
    PRUNING_STRATEGIES,
    ViterbiDecoder,
    word_error_rate,
)
from repro.energy import AcceleratorEnergyModel
from repro.graph import (
    DEFAULT_GRAPH_CACHE,
    GraphCache,
    GraphRecipe,
    compile_graph,
)
from repro.system import (
    ServingTier,
    StreamingServer,
    TierConfig,
    make_memory_workload,
    run_platform_comparison,
)
from repro.system.experiment import ASIC_CONFIG_NAMES, accelerator_configs
from repro.wfst import load_graph_mmap, save_graph_mmap, sort_states_by_arc_count

#: ``--config`` names of the paper's four accelerator configurations, in
#: the order of :data:`~repro.system.experiment.ASIC_CONFIG_NAMES`.
CONFIG_NAMES = ("base", "state", "arc", "both")


def _accel_config(name: str) -> AcceleratorConfig:
    configs = accelerator_configs(AcceleratorConfig())
    return configs[ASIC_CONFIG_NAMES[CONFIG_NAMES.index(name)]]


# Each input is declared once, in one ``_add_*`` helper; a command that
# needs another default passes it in.
def _add_seed_arg(parser: argparse.ArgumentParser, default: int = 0) -> None:
    parser.add_argument("--seed", type=int, default=default,
                        help="seed of everything synthetic: corpus, graph, "
                             "utterances, scores (default %(default)s)")


def _add_recipe_args(parser: argparse.ArgumentParser) -> None:
    """The composed L ∘ G recipe: ``compile`` and every task command."""
    parser.add_argument("--vocab", type=int, default=200,
                        help="vocabulary size (default 200)")
    parser.add_argument("--lm-order", type=int, choices=(2, 3), default=2,
                        dest="lm_order",
                        help="grammar transducer order: 2 = bigram, "
                             "3 = trigram (default 2)")
    _add_seed_arg(parser)


def _add_graph_args(parser: argparse.ArgumentParser,
                    precompiled: bool = True) -> None:
    """``--graph-cache``, and unless ``precompiled`` is off, ``--graph``."""
    if precompiled:
        parser.add_argument("--graph", metavar="DIR",
                            help="use the mmap layout directory 'repro "
                                 "compile --output' wrote instead of building "
                                 "a graph (compiled from the same recipe for "
                                 "a meaningful WER)")
    parser.add_argument("--graph-cache", default=DEFAULT_GRAPH_CACHE,
                        dest="graph_cache", metavar="DIR|none",
                        help=f"on-disk compiled-graph artifact cache "
                             f"(default {DEFAULT_GRAPH_CACHE}; "
                             f"'none' disables)")


def _add_task_args(parser: argparse.ArgumentParser) -> None:
    """A synthetic ASR task (:func:`_build_task`): recipe, utterances,
    beam and graph source."""
    _add_recipe_args(parser)
    parser.add_argument("--utterances", type=int, default=5,
                        help="number of test utterances (default 5)")
    parser.add_argument("--beam", type=float, default=14.0)
    _add_graph_args(parser)


def _add_max_active_arg(parser: argparse.ArgumentParser,
                        default: int = 0) -> None:
    parser.add_argument("--max-active", type=int, default=default,
                        dest="max_active",
                        help="histogram cap on tokens per frame "
                             "(0 disables; default %(default)s)")


def _add_memory_workload_args(parser: argparse.ArgumentParser, states: int,
                              frames: int, max_active: int,
                              seed: int = 0) -> None:
    """The synthetic memory-system workload of ``compare`` and ``sweep``
    (:func:`_memory_workload`)."""
    parser.add_argument("--states", type=int, default=states,
                        help="workload graph states (default %(default)s)")
    parser.add_argument("--frames", type=int, default=frames,
                        help="frames decoded (default %(default)s)")
    _add_max_active_arg(parser, max_active)
    _add_seed_arg(parser, seed)


def _add_streaming_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chunk-frames", type=int, default=10,
                        dest="chunk_frames",
                        help="frames per streamed chunk (default 10)")
    parser.add_argument("--commit-interval", type=int, default=0,
                        dest="commit_interval",
                        help="frames between committed-prefix traceback "
                             "commits: bounds per-session trace memory and "
                             "keeps partial output stable (0 disables, "
                             "default 0)")


def _add_config_arg(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--config", choices=CONFIG_NAMES, default=default,
                        help="accelerator configuration: the paper's ASIC, "
                             "+State, +Arc, or both techniques (default "
                             "%(default)s)")


def _add_pruning_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pruning", choices=PRUNING_STRATEGIES,
                        default="beam",
                        help="pruning strategy: fixed 'beam' window or "
                             "'adaptive' (tracks --target-active tokens "
                             "per frame; default: beam)")
    _add_max_active_arg(parser)
    parser.add_argument("--target-active", type=int, default=0,
                        dest="target_active",
                        help="adaptive-beam target active-token count "
                             "(required with --pruning adaptive)")


def _graph_cache(args: argparse.Namespace) -> GraphCache:
    directory = getattr(args, "graph_cache", "none")
    return GraphCache(None if directory == "none" else directory)


def _precompiled_graph(args: argparse.Namespace):
    """The graph ``--graph`` names, or None: build one."""
    path = getattr(args, "graph", None)
    return load_graph_mmap(path) if path else None


def _build_task(args: argparse.Namespace):
    """The task of ``args``: compiled through the cache, or, with
    ``--graph``, generated around a pre-compiled graph (no compile)."""
    config = TaskConfig(vocab_size=args.vocab, num_utterances=args.utterances,
                        seed=args.seed, lm_order=args.lm_order)
    return generate_task(
        config, graph_cache=_graph_cache(args), graph=_precompiled_graph(args)
    )


def _memory_workload(args: argparse.Namespace):
    synthetic = SyntheticGraphConfig(num_states=args.states, num_phones=50,
                                     seed=args.seed)
    return make_memory_workload(
        num_utterances=1, frames_per_utterance=args.frames, beam=8.0,
        max_active=args.max_active, seed=args.seed, graph_config=synthetic,
        graph=_precompiled_graph(args), graph_cache=_graph_cache(args),
    )


def _decoder_config(args: argparse.Namespace) -> DecoderConfig:
    return DecoderConfig(
        beam=args.beam,
        max_active=getattr(args, "max_active", 0),
        pruning=getattr(args, "pruning", "beam"),
        target_active=getattr(args, "target_active", 0),
        commit_interval=getattr(args, "commit_interval", 0),
    )


def cmd_compile(args: argparse.Namespace) -> int:
    """Run the staged graph compiler and print the per-pass report."""
    if args.states:
        if args.remove_epsilons:
            raise ConfigError(
                "--remove-epsilons applies to composed recipes only "
                "(synthetic graphs are generated pre-packed)"
            )
        if args.no_arcsort:
            raise ConfigError(
                "--no-arcsort applies to composed recipes only"
            )
        recipe = GraphRecipe.synthetic_graph(SyntheticGraphConfig(
            num_states=args.states, num_phones=args.phones, seed=args.seed
        ))
    else:
        recipe = GraphRecipe.composed(
            vocab_size=args.vocab,
            corpus_sentences=args.corpus_sentences,
            lm_order=args.lm_order,
            silence_prob=args.silence_prob,
            seed=args.seed,
            remove_epsilons=args.remove_epsilons,
            arcsort=not args.no_arcsort,
        )
    cache = _graph_cache(args)
    artifact = compile_graph(recipe, cache=cache)
    print(artifact.report())
    graph = artifact.graph
    print(f"graph: {graph.num_states} states / {graph.num_arcs} arcs "
          f"({graph.total_size_bytes / 1024:.0f} KB), "
          f"{100 * graph.epsilon_fraction():.1f}% epsilon")
    if cache.directory is not None:
        print(f"cache: {cache.directory} "
              f"({cache.hits} hit(s), {cache.compiles} compile(s))")
    if args.output:
        save_graph_mmap(graph, args.output, provenance=artifact.provenance())
        print(f"artifact written to {args.output}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from repro.gpu import GpuViterbiDecoder

    task = _build_task(args)
    if args.graph:
        print(f"decoding pre-compiled graph {args.graph} "
              f"({task.graph.num_states} states)")
    config = _decoder_config(args)
    scores = [u.scores for u in task.utterances]
    server = None
    extras: List[List[str]] = [[] for _ in task.utterances]
    t0 = time.perf_counter()
    if args.streaming:
        server = StreamingServer(task.graph, config)
        results = server.decode_streaming(
            scores, chunk_frames=args.chunk_frames
        )
    elif args.engine == "batch":
        decoder = BatchDecoder(task.graph, config)
        results = decoder.decode_batch(scores)
    elif args.engine == "gpu":
        gpu = GpuViterbiDecoder(task.graph, config=config)
        results = []
        for i, utt in enumerate(task.utterances):
            result, work = gpu.decode(utt.scores)
            results.append(result)
            extras[i].append(
                f"  gpu workload: {work.kernel_launches} launches, "
                f"{work.arcs_expanded} arcs + "
                f"{work.epsilon_arcs_expanded} eps arcs expanded, "
                f"{work.atomic_updates} atomics, "
                f"{work.epsilon_iterations} eps iterations"
            )
    else:
        reference = ViterbiDecoder(task.graph, config)
        results = [reference.decode(u.scores) for u in task.utterances]
    elapsed = time.perf_counter() - t0

    total = 0.0
    for i, (utt, result) in enumerate(zip(task.utterances, results)):
        wer = word_error_rate(utt.words, result.words)
        total += wer
        print(f"utt {i}: WER {wer:.2f}  "
              f"({result.stats.arcs_processed} arcs, "
              f"{result.stats.mean_active_tokens:.0f} active tokens/frame)  "
              f"{' '.join(task.transcript(result))}")
        for line in extras[i]:
            print(line)
    frames = sum(u.num_frames for u in task.utterances)
    engine = "streaming" if args.streaming else args.engine
    print(f"engine '{engine}': {frames} frames in "
          f"{elapsed * 1e3:.1f} ms ({frames / elapsed:.0f} frames/s)")
    if server is not None:
        stats = server.stats
        print(f"streaming: {stats.sweeps} sweeps, mean occupancy "
              f"{stats.mean_occupancy:.1f} sessions/sweep, "
              f"{stats.aggregate_frames_per_second:.0f} frames/s of "
              f"engine busy time")
    print(f"mean WER {total / len(task.utterances):.3f}")
    return 0


def _serve_tier(args: argparse.Namespace, task, scorer=None) -> int:
    """Serve the task through the sharded multi-process tier.

    Every session is admitted up front and pushes ``--chunk-frames``
    chunks round by round.  With ``scorer`` (``--score-features``)
    sessions run in features mode: the front door's scoring thread
    batches every live session's MFCC chunks into stacked DNN forwards
    and ships the scored planes to the shards over zero-copy shared
    memory."""
    mode = "features" if scorer is not None else "scores"
    tier_config = TierConfig(num_workers=args.workers,
                             max_batch=args.max_batch)
    tier = ServingTier(graph=task.graph, search_config=_decoder_config(args),
                       tier_config=tier_config, scorer=scorer)
    with tier:
        if mode == "features":
            matrices = [u.features for u in task.utterances]
            push = tier.push_features
        else:
            matrices = [u.scores.matrix for u in task.utterances]
            push = tier.push
        sids = []
        for matrix in matrices:
            sids.append(tier.open_session(mode=mode))
            print(f"session {sids[-1]} joined -> shard "
                  f"{tier.worker_of(sids[-1])} ({len(matrix)} frames)")
        step = args.chunk_frames
        for offset in range(0, max(map(len, matrices), default=0), step):
            for sid, matrix in zip(sids, matrices):
                if offset < len(matrix):
                    push(sid, matrix[offset: offset + step])
                    if offset + step >= len(matrix):
                        tier.close_input(sid)
        records = [tier.result(sid) for sid in sids]
        stats = tier.stats

    wers = []
    for utt, record in zip(task.utterances, records):
        if record.error is not None:
            print(f"session {record.session_id}: FAILED ({record.error})")
            continue
        wers.append(word_error_rate(utt.words, record.result.words))
        print(f"session {record.session_id}: WER {wers[-1]:.2f}  "
              f"{record.stats.frames_decoded} frames, mean wait "
              f"{record.stats.mean_wait_s * 1e3:.2f} ms  "
              f"{' '.join(task.transcript(record.result))}")
    slo = stats.slo()
    blas = (f"{stats.blas_threads} thread(s)" if stats.blas_threads
            else "uncontrolled")
    print(f"tier: {args.workers} shards served {stats.sessions_finished} "
          f"sessions / {stats.frames_decoded} frames, BLAS pool {blas}; "
          f"aggregate {slo['aggregate_frames_per_second']:.0f} frames/s")
    print(f"SLO: session latency p50 "
          f"{slo['p50_session_latency_s'] * 1e3:.1f} ms / p99 "
          f"{slo['p99_session_latency_s'] * 1e3:.1f} ms; frame wait p50 "
          f"{slo['p50_mean_wait_s'] * 1e3:.2f} ms / p99 "
          f"{slo['p99_mean_wait_s'] * 1e3:.2f} ms")
    print(f"traceback: peak trace memory "
          f"{slo['trace_memory_bytes'] / 1024:.1f} KiB/session, "
          f"{slo['committed_frames']:.0f} committed frames "
          f"(commit interval {args.commit_interval})")
    if scorer is not None:
        print(f"scoring: {stats.scored_frames} frames in "
              f"{stats.score_batches} cross-session batches, "
              f"{stats.scored_frames_per_second:.0f} scored frames/s; "
              f"transport {stats.descriptors_shipped} descriptors, "
              f"{stats.ipc_bytes_per_frame:.1f} pipe bytes/frame "
              f"({stats.ring_stalls} plane stalls)")
    if wers:
        print(f"mean WER {sum(wers) / len(wers):.3f}")
    return 0 if len(wers) == len(records) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the task's utterances as concurrent chunked sessions through
    the tier, at any ``--workers``."""
    if args.chunk_frames < 1:
        raise ConfigError("--chunk-frames must be >= 1")
    if not args.score_features:
        return _serve_tier(args, _build_task(args))
    # Features mode needs a trained acoustic model and the MFCCs it was
    # trained on -- the audio-backed task carries both.
    audio = generate_audio_task(
        AudioTaskConfig(
            vocab_size=min(args.vocab, 60),
            num_utterances=args.utterances,
            seed=args.seed,
        )
    )
    print(f"audio task: DNN frame accuracy "
          f"{audio.frame_accuracy:.3f}, score width "
          f"{audio.scorer.dnn.config.num_classes + 1}")
    return _serve_tier(args, audio.task, scorer=audio.scorer)


def cmd_simulate(args: argparse.Namespace) -> int:
    task = _build_task(args)
    config = _accel_config(args.config)
    sorted_graph = (
        sort_states_by_arc_count(
            task.graph, max_direct_arcs=config.state_direct_max_arcs
        )
        if config.state_direct_enabled
        else None
    )
    sim = AcceleratorSimulator(
        task.graph, config, beam=args.beam, sorted_graph=sorted_graph
    )
    energy_model = AcceleratorEnergyModel()
    total_cycles = 0
    total_energy = 0.0
    speech = 0.0
    for i, utt in enumerate(task.utterances):
        result = sim.decode(utt.scores)
        total_cycles += result.stats.cycles
        total_energy += energy_model.energy(config, result.stats).total_j
        speech += utt.duration_seconds
        s = result.stats
        print(f"utt {i}: {s.cycles} cycles | miss state "
              f"{s.state_cache.miss_ratio:.3f} arc {s.arc_cache.miss_ratio:.3f} "
              f"token {s.token_cache.miss_ratio:.3f} | hash "
              f"{s.hash.avg_cycles_per_request:.2f} cyc/req | "
              f"DRAM {s.traffic.total_bytes() / 1024:.0f} KB")
    seconds = total_cycles / config.frequency_hz
    print(f"config '{args.config}': {seconds * 1e3:.3f} ms for {speech:.2f} s "
          f"of speech ({seconds / speech:.5f} s/s), "
          f"{total_energy * 1e3:.3f} mJ")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    comparison = run_platform_comparison(_memory_workload(args))
    report = comparison.report()
    print(f"{'platform':16s} {'decode s/s':>12s} {'power W':>10s} "
          f"{'energy J/s':>12s}")
    for row in report.rows():
        print(f"{row['platform']:16s} {row['decode_s_per_speech_s']:12.5f} "
              f"{row['avg_power_w']:10.3f} {row['energy_j_per_speech_s']:12.5f}")
    speed = report.speedup_vs("GPU")
    energy = report.energy_reduction_vs("GPU")
    print(f"\nvs GPU: speedup {speed['ASIC+State&Arc']:.2f}x, "
          f"energy reduction {energy['ASIC+State&Arc']:.0f}x "
          f"(paper: 1.7x, 287x)")
    return 0


#: Default on-disk trace cache for ``repro sweep`` (content-addressed;
#: safe to delete at any time -- see docs/ARCHITECTURE.md).
DEFAULT_TRACE_CACHE = os.path.join(
    os.path.expanduser("~"), ".cache", "repro-asr", "traces"
)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Design-space sweep via the trace-once/replay-many runner."""
    from repro.explore import ParameterGrid, SweepRunner, TraceCache

    workload = _memory_workload(args)
    if args.param:
        points = ParameterGrid.from_specs(args.param).points()
        labels = None
    else:
        # Default: the paper's four accelerator configurations, each as
        # what it changes in the plain ASIC, applied on top of --config.
        plain = AcceleratorConfig()
        configs = accelerator_configs(plain)
        points = [
            {f.name: getattr(c, f.name) for f in fields(c)
             if getattr(c, f.name) != getattr(plain, f.name)}
            for c in configs.values()
        ]
        labels = list(configs)

    cache_dir = None if args.trace_cache == "none" else args.trace_cache
    runner = SweepRunner(
        workload,
        base_config=_accel_config(args.config),
        trace_cache=TraceCache(cache_dir),
        processes=args.processes,
    )
    result = runner.run(points, labels=labels)

    print(f"{len(result)} points in {result.elapsed_seconds:.2f}s "
          f"({result.trace_recordings} trace(s) recorded, "
          f"{result.trace_cache_hits} cache hit(s), "
          f"{result.timing_passes} timing pass(es), "
          f"{result.processes} process(es))")
    header = (f"{'point':40s} {'cycles':>12s} {'decode s/s':>11s} "
              f"{'arc miss':>9s} {'hash c/r':>9s} {'power mW':>9s} "
              f"{'energy mJ':>10s}")
    print(header)
    print("-" * len(header))
    for p in result.points:
        print(f"{p.label[:40]:40s} {p.cycles:12d} "
              f"{p.decode_s_per_speech_s:11.5f} "
              f"{100 * p.stats.arc_cache.miss_ratio:8.1f}% "
              f"{p.stats.hash.avg_cycles_per_request:9.2f} "
              f"{p.avg_power_w * 1e3:9.0f} {p.energy_j * 1e3:10.3f}")
    if args.json:
        print(f"JSON artifact: {result.to_json(args.json)}")
    if args.csv:
        print(f"CSV artifact: {result.to_csv(args.csv)}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    return analysis_engine.run_from_options(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asr",
        description="MICRO 2016 ASR-accelerator reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compile",
        help="run the staged graph compiler (recipe -> packed artifact)",
    )
    _add_recipe_args(p)
    p.add_argument("--corpus-sentences", type=int, default=2000,
                   dest="corpus_sentences",
                   help="composed recipe: LM training sentences "
                        "(default 2000)")
    p.add_argument("--silence-prob", type=float, default=0.2,
                   dest="silence_prob")
    p.add_argument("--remove-epsilons", action="store_true",
                   dest="remove_epsilons",
                   help="fold output-free epsilon arcs (bigger graph, "
                        "no epsilon pipeline passes)")
    p.add_argument("--no-arcsort", action="store_true", dest="no_arcsort",
                   help="pack arcs in construction order (non-epsilon "
                        "first only)")
    p.add_argument("--states", type=int, default=0,
                   help="compile a synthetic Kaldi-like graph with this "
                        "many states instead of composing L ∘ G")
    p.add_argument("--phones", type=int, default=50,
                   help="synthetic recipe: phone inventory (default 50)")
    _add_graph_args(p, precompiled=False)
    p.add_argument("--output", metavar="DIR",
                   help="write the artifact (mmap layout directory with "
                        "the recipe and pass statistics in its meta.json)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("decode", help="decode with the software decoder")
    _add_task_args(p)
    _add_pruning_args(p)
    p.add_argument("--engine",
                   choices=("reference", "batch", "gpu"),
                   default="reference",
                   help="decode engine: scalar token passing, the "
                        "vectorized batch engine or the GPU workload "
                        "model -- all on the shared search kernel "
                        "(default: reference)")
    p.add_argument("--streaming", action="store_true",
                   help="decode through chunked live sessions on the "
                        "continuous-batching server (word-identical to "
                        "the offline engines)")
    _add_streaming_args(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("serve",
                       help="serve concurrent chunked sessions through the "
                            "multi-process tier")
    _add_task_args(p)
    _add_streaming_args(p)
    p.add_argument("--max-batch", type=int, default=64, dest="max_batch",
                   help="max sessions per lockstep sweep (default 64)")
    p.add_argument("--workers", type=int, default=1,
                   help="search worker processes of the tier, sharing one "
                        "memory-mapped graph (default 1)")
    p.add_argument("--score-features", action="store_true",
                   dest="score_features",
                   help="serve an audio-backed task in features mode: "
                        "sessions push MFCC chunks and the tier's DNN "
                        "stage scores them in cross-session batched "
                        "forwards (bit-identical words to pushing scores)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="decode on the accelerator simulator")
    _add_task_args(p)
    _add_config_arg(p, "both")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="six-platform comparison")
    _add_memory_workload_args(p, states=50_000, frames=20, max_active=2000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "sweep",
        help="design-space sweep over accelerator parameters "
             "(trace-once/replay-many)",
    )
    _add_memory_workload_args(p, states=20_000, frames=15, max_active=1200,
                              seed=5)
    _add_graph_args(p)
    _add_config_arg(p, "base")
    p.add_argument("--param", action="append", metavar="PATH=V1,V2,...",
                   help="sweep dimension over a config field path, e.g. "
                        "'arc_cache.size_bytes=256K,1M' or "
                        "'prefetch_enabled=false,true', or a workload "
                        "axis: 'beam=6,8,10', 'pruning=beam,adaptive', "
                        "'target_active=500,1000' (re-traced per value); "
                        "repeatable (dimensions combine as a cartesian "
                        "product). Default: the paper's four "
                        "configurations on top of --config")
    p.add_argument("--processes", type=int, default=None,
                   help="replay worker processes (default: the cores "
                        "this process may use)")
    p.add_argument("--trace-cache", default=DEFAULT_TRACE_CACHE,
                   metavar="DIR|none",
                   help=f"on-disk trace cache directory (default "
                        f"{DEFAULT_TRACE_CACHE}; 'none' disables)")
    p.add_argument("--json", help="write the sweep result as JSON")
    p.add_argument("--csv", help="write the sweep result as CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "lint",
        help="run the invariant linter (determinism, typed errors, "
             "fingerprint completeness, arg purity, validation "
             "completeness; see docs/INVARIANTS.md)",
    )
    analysis_engine.add_arguments(p)
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
