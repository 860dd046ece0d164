"""Tests for the staged graph compiler and its artifact cache."""

import json
import os
import shutil
import tempfile

import pytest

from repro.common.errors import ConfigError
from repro.datasets import SyntheticGraphConfig, TaskConfig, generate_task
from repro.datasets.synthetic_graph import generate_kaldi_like_graph
from repro.decoder import BatchDecoder, DecoderConfig, ViterbiDecoder
from repro.gpu import GpuViterbiDecoder
from repro.graph import (
    GraphCache,
    GraphCompiler,
    GraphRecipe,
    compile_graph,
)
from repro.system import ServingTier, StreamingServer, TierConfig
from repro.wfst import count_epsilon_arcs, load_graph_meta

RECIPE = GraphRecipe.composed(vocab_size=60, corpus_sentences=300, seed=11)


@pytest.fixture(scope="module")
def artifact():
    return GraphCompiler().compile(RECIPE)


class TestRecipe:
    def test_fingerprint_is_stable(self):
        assert RECIPE.fingerprint() == RECIPE.fingerprint()
        clone = GraphRecipe.composed(
            vocab_size=60, corpus_sentences=300, seed=11
        )
        assert clone.fingerprint() == RECIPE.fingerprint()

    @pytest.mark.parametrize("change", [
        {"vocab_size": 61},
        {"corpus_sentences": 301},
        {"seed": 12},
        {"lm_order": 3},
        {"silence_prob": 0.3},
        {"remove_epsilons": True},
        {"arcsort": False},
    ])
    def test_any_field_changes_the_fingerprint(self, change):
        base = dict(vocab_size=60, corpus_sentences=300, seed=11)
        changed = GraphRecipe.composed(**{**base, **change})
        assert changed.fingerprint() != RECIPE.fingerprint()

    def test_round_trips_through_dict(self):
        for recipe in (
            RECIPE,
            GraphRecipe.synthetic_graph(
                SyntheticGraphConfig(num_states=500, seed=3)
            ),
        ):
            clone = GraphRecipe.from_dict(recipe.to_dict())
            assert clone == recipe
            assert clone.fingerprint() == recipe.fingerprint()

    def test_invalid_recipes_rejected(self):
        with pytest.raises(ConfigError):
            GraphRecipe(kind="nonsense")
        with pytest.raises(ConfigError):
            GraphRecipe(kind="synthetic")  # no synthetic config
        with pytest.raises(ConfigError):
            GraphRecipe.composed(lm_order=4)
        with pytest.raises(ConfigError):
            GraphRecipe.composed(
                synthetic=SyntheticGraphConfig(num_states=10)
            )
        with pytest.raises(ConfigError):
            GraphRecipe(
                kind="synthetic",
                synthetic=SyntheticGraphConfig(num_states=10),
                remove_epsilons=True,
            )

    def test_from_dict_rejects_unknown_fields(self):
        payload = RECIPE.to_dict()
        payload["surprise"] = 1
        with pytest.raises(ConfigError):
            GraphRecipe.from_dict(payload)


class TestPipeline:
    def test_pass_sequence_and_stats(self, artifact):
        names = [p.name for p in artifact.passes]
        assert names == [
            "lexicon", "grammar", "compose", "epsilon-check",
            "arcsort", "pack",
        ]
        compose = artifact.passes[2]
        assert compose.states_out > compose.states_in
        assert compose.arcs_out > 0 and compose.eps_out > 0
        pack = artifact.passes[-1]
        assert pack.states_out == artifact.graph.num_states
        assert pack.arcs_out == artifact.graph.num_arcs
        assert all(p.seconds >= 0 for p in artifact.passes)
        assert "pack" in artifact.report()

    def test_matches_legacy_task_construction(self, artifact, small_task):
        # conftest's small_task uses the same vocab/corpus/seed: the
        # compiler is the one true construction path, so the graphs are
        # bit-identical.
        assert artifact.graph.fingerprint() == small_task.graph.fingerprint()

    def test_remove_epsilons_pass(self):
        recipe = GraphRecipe.composed(
            vocab_size=40, corpus_sentences=200, seed=7,
            remove_epsilons=True,
        )
        art = compile_graph(recipe)
        assert [p.name for p in art.passes] == [
            "lexicon", "grammar", "compose", "remove-epsilons",
            "arcsort", "pack",
        ]
        free, _carrying = count_epsilon_arcs(art.graph.to_fst())
        assert free == 0

    def test_unsorted_pack_keeps_epsilon_partition(self):
        recipe = GraphRecipe.composed(
            vocab_size=40, corpus_sentences=200, seed=7, arcsort=False,
        )
        graph = compile_graph(recipe).graph
        for s in range(graph.num_states):
            first, n_non_eps, n_eps = graph.arc_range(s)
            block = graph.arc_ilabel[first:first + n_non_eps + n_eps]
            assert (block[:n_non_eps] != 0).all()
            assert (block[n_non_eps:] == 0).all()

    def test_synthetic_recipe_matches_direct_generation(self):
        config = SyntheticGraphConfig(num_states=800, num_phones=30, seed=5)
        art = compile_graph(GraphRecipe.synthetic_graph(config))
        direct = generate_kaldi_like_graph(config)
        assert art.graph.fingerprint() == direct.fingerprint()
        assert [p.name for p in art.passes] == ["synthesize"]

    def test_artifact_views(self, artifact):
        assert artifact.flat().num_states == artifact.graph.num_states
        assert artifact.flat() is artifact.graph.flat()  # memoized

    def test_sorted_layout_memoized_per_comparator_count(self, artifact):
        graph = artifact.graph
        layout = graph.sorted_layout(4)
        assert graph.sorted_layout(4) is layout
        assert layout.max_direct_arcs == 4
        assert layout.graph.num_arcs == graph.num_arcs
        wide = graph.sorted_layout(16)
        assert wide is not layout and wide.max_direct_arcs == 16


class TestCache:
    def test_memory_hit_shares_the_artifact(self):
        cache = GraphCache()
        a = cache.get(RECIPE)
        b = cache.get(RECIPE)
        assert a is b
        assert cache.compiles == 1 and cache.hits == 1

    def test_disk_round_trip_is_bit_exact(self, tmp_path):
        warm = GraphCache(str(tmp_path))
        compiled = warm.get(RECIPE)
        fresh = GraphCache(str(tmp_path))
        loaded = fresh.get(RECIPE)
        assert fresh.compiles == 0 and fresh.hits == 1
        assert loaded.source == "disk"
        for name in (
            "states_packed", "arc_dest", "arc_weight",
            "arc_ilabel", "arc_olabel", "final_weights",
        ):
            got = getattr(loaded.graph, name)
            assert got.tobytes() == getattr(compiled.graph, name).tobytes()
            assert not got.flags.writeable  # a map of the one disk copy
        assert loaded.graph.start == compiled.graph.start
        assert [p.to_dict() for p in loaded.passes] == \
            [p.to_dict() for p in compiled.passes]
        # One entry per recipe, holding the provenance and the graph's
        # content fingerprint, which the load stamps instead of hashing.
        entry, = os.listdir(tmp_path)
        meta = load_graph_meta(tmp_path / entry)
        assert meta["recipe"] == RECIPE.to_dict()
        assert meta["fingerprint"] == compiled.graph.fingerprint()
        assert loaded.graph._fingerprint == meta["fingerprint"]

    @pytest.mark.parametrize("corruption", ["garbage", "truncated", "empty"])
    def test_corrupt_bundle_falls_back_to_compile(self, tmp_path, corruption):
        """A damaged entry (the cache's bundle of graph and provenance) is
        compiled once more, replaced, and a hit from then on."""
        cache = GraphCache(str(tmp_path))
        entry = cache.mmap_dir(RECIPE)
        if corruption == "garbage":
            with open(os.path.join(entry, "meta.json"), "wb") as fh:
                fh.write(b"torn write")
        elif corruption == "truncated":
            os.truncate(os.path.join(entry, "arc_dest.npy"), 200)
        else:
            os.truncate(os.path.join(entry, "meta.json"), 0)
        fresh = GraphCache(str(tmp_path))
        artifact = fresh.get(RECIPE)
        assert fresh.compiles == 1
        assert artifact.graph.num_states > 0
        again = GraphCache(str(tmp_path))
        assert again.get(RECIPE).source == "disk" and again.compiles == 0
        assert os.listdir(tmp_path) == [os.path.basename(entry)]

    def test_previous_format_entry_is_recompiled_once(
        self, tmp_path, artifact
    ):
        """A version-1 layout at the content address (no provenance; a
        restored CI cache may hold one) is a miss that gets replaced, not
        one recompiled on every run."""
        entry = GraphCache(str(tmp_path)).mmap_dir(RECIPE)
        meta_path = os.path.join(entry, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        v1 = {k: meta[k] for k in ("start", "fingerprint")}
        with open(meta_path, "w") as fh:
            json.dump({**v1, "version": 1}, fh)
        fresh = GraphCache(str(tmp_path))
        assert fresh.get(RECIPE).source == "compiled"
        assert fresh.compiles == 1
        again = GraphCache(str(tmp_path))
        loaded = again.get(RECIPE)
        assert again.compiles == 0 and loaded.source == "disk"
        assert [p.name for p in loaded.passes] == \
            [p.name for p in artifact.passes]
        assert os.listdir(tmp_path) == [os.path.basename(entry)]

    def test_mmap_dir_is_the_cache_entry(self, tmp_path):
        cache = GraphCache(str(tmp_path))
        cache.get(RECIPE)
        before = os.listdir(tmp_path)
        entry = cache.mmap_dir(RECIPE)
        assert os.listdir(tmp_path) == before == [os.path.basename(entry)]
        # The cache directory may be deleted at any time; the entry a
        # caller is handed exists all the same.
        shutil.rmtree(entry)
        assert cache.mmap_dir(RECIPE) == entry
        assert GraphCache(str(tmp_path)).get(RECIPE).source == "disk"

    def test_memory_only_cache_has_no_mmap_dir(self):
        """... and makes (and leaks) no temporary directory for one."""
        temp_root = tempfile.gettempdir()
        before = set(os.listdir(temp_root))
        with pytest.raises(ConfigError):
            GraphCache().mmap_dir(RECIPE)
        made = set(os.listdir(temp_root)) - before
        assert not [n for n in made if n.startswith("repro-graph-mmap-")]


class TestWorkloadConsumer:
    def test_memory_workload_compiles_through_the_cache(self):
        from repro.system import make_memory_workload

        cache = GraphCache()
        config = SyntheticGraphConfig(num_states=600, num_phones=20, seed=4)
        a = make_memory_workload(
            num_utterances=1, frames_per_utterance=4,
            graph_config=config, graph_cache=cache,
        )
        b = make_memory_workload(
            num_utterances=1, frames_per_utterance=4,
            graph_config=config, graph_cache=cache,
        )
        assert cache.compiles == 1 and cache.hits == 1
        assert a.graph is b.graph

    def test_memory_workload_accepts_precompiled_graph(self):
        from repro.system import make_memory_workload

        config = SyntheticGraphConfig(num_states=600, num_phones=20, seed=4)
        graph = compile_graph(GraphRecipe.synthetic_graph(config)).graph
        workload = make_memory_workload(
            num_utterances=1, frames_per_utterance=4, graph=graph,
        )
        assert workload.graph is graph
        # Score matrices match the graph's phone inventory.
        assert workload.scores[0].matrix.shape[1] ==             int(graph.arc_ilabel.max()) + 1


class TestDecodeIdentity:
    """Acceptance: decoding a cached graph is word-identical to a fresh
    compile across every engine."""

    def test_all_engines_word_identical(self, tmp_path):
        config = TaskConfig(
            vocab_size=60, corpus_sentences=300, num_utterances=3,
            utterance_words=4, seed=11,
        )
        fresh_task = generate_task(config)
        warm = GraphCache(str(tmp_path))
        generate_task(config, graph_cache=warm)  # populates the disk cache
        cached_task = generate_task(config, graph_cache=GraphCache(str(tmp_path)))
        assert cached_task.artifact.source == "disk"

        scores = [u.scores for u in fresh_task.utterances]
        decoder_config = DecoderConfig(beam=14.0)

        def decode_all(graph):
            outputs = {}
            viterbi = ViterbiDecoder(graph, decoder_config)
            outputs["reference"] = [
                viterbi.decode(s).words for s in scores
            ]
            batch = BatchDecoder(graph, decoder_config)
            outputs["batch"] = [
                r.words for r in batch.decode_batch(scores)
            ]
            gpu = GpuViterbiDecoder(graph, config=decoder_config)
            outputs["gpu"] = [gpu.decode(s)[0].words for s in scores]
            server = StreamingServer(graph, decoder_config)
            outputs["streaming"] = [
                r.words
                for r in server.decode_streaming(scores, chunk_frames=7)
            ]
            return outputs

        fresh = decode_all(fresh_task.graph)
        cached = decode_all(cached_task.graph)
        assert fresh == cached

    def test_tier_on_the_cache_entry_decodes_identically(self, tmp_path):
        """Tier workers map the cache's own entry: same words and scores
        as a tier handed the in-memory graph."""
        cache = GraphCache(str(tmp_path))
        task = generate_task(
            TaskConfig(
                vocab_size=60, corpus_sentences=300, num_utterances=3,
                utterance_words=4, seed=11,
            ),
            graph_cache=cache,
        )
        scores = [u.scores for u in task.utterances]
        decoder_config = DecoderConfig(beam=14.0)
        results = []
        for source in (
            {"graph": task.graph},
            {"graph_dir": cache.mmap_dir(task.artifact.recipe)},
        ):
            with ServingTier(
                search_config=decoder_config,
                tier_config=TierConfig(num_workers=2),
                **source,
            ) as tier:
                results.append([
                    (r.words, r.log_likelihood)
                    for r in tier.decode_streaming(scores, chunk_frames=5)
                ])
        assert results[0] == results[1]
        assert len(os.listdir(tmp_path)) == 1

    def test_task_axes_decode(self):
        """The new TaskConfig graph axes produce decodable graphs."""
        for change in (
            {"lm_order": 3},
            {"remove_epsilons": True},
            {"arcsort": False},
        ):
            task = generate_task(TaskConfig(
                vocab_size=40, corpus_sentences=200, num_utterances=2,
                utterance_words=3, seed=9, **change,
            ))
            decoder = ViterbiDecoder(task.graph, DecoderConfig(beam=16.0))
            for utt in task.utterances:
                result = decoder.decode(utt.scores)
                assert result.words  # decoded something
