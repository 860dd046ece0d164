"""Tests for WFST serialisation: the mmap layout directory, the one
on-disk graph format (cache entries, CLI artifacts, the tier's shared
graph)."""

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import GraphError
from repro.datasets import SyntheticGraphConfig, generate_kaldi_like_graph
from repro.wfst import load_graph_meta, load_graph_mmap, save_graph_mmap
from repro.wfst.io import MMAP_FORMAT_VERSION

ARRAYS = (
    "states_packed", "arc_dest", "arc_weight",
    "arc_ilabel", "arc_olabel", "final_weights",
)


def assert_graphs_bit_exact(loaded, graph):
    assert loaded.start == graph.start
    for name in ARRAYS:
        got, want = getattr(loaded, name), getattr(graph, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.fixture(scope="module")
def other_graph():
    return generate_kaldi_like_graph(
        SyntheticGraphConfig(num_states=80, num_phones=8, seed=5)
    )


def rewrite_meta(directory, **changes):
    path = Path(directory) / "meta.json"
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps(meta))


def test_round_trip_is_bit_exact(tmp_path, small_graph):
    path = str(tmp_path / "graph.mmap")
    save_graph_mmap(small_graph, path)
    assert_graphs_bit_exact(load_graph_mmap(path), small_graph)


def test_accepts_pathlib_path(tmp_path, small_graph):
    path = tmp_path / "graph.mmap"
    assert isinstance(path, Path)
    assert save_graph_mmap(small_graph, path) == str(path)
    assert load_graph_mmap(path).num_states == small_graph.num_states
    assert load_graph_meta(path)["start"] == small_graph.start


def test_missing_file_raises_graph_error(tmp_path, small_graph):
    absent = str(tmp_path / "nope.mmap")
    # A file where the layout directory should be, e.g. an archive of the
    # npz formats this one replaced.
    archive = tmp_path / "graph.npz"
    np.savez(archive, start=np.int64(small_graph.start))
    for path in (absent, archive):
        with pytest.raises(GraphError):
            load_graph_mmap(path)
        with pytest.raises(GraphError):
            load_graph_meta(path)


def test_version_mismatch_raises_graph_error(tmp_path, small_graph):
    """A layout of the previous format version (no provenance) is refused,
    not read as an artifact without passes."""
    path = str(tmp_path / "graph.mmap")
    save_graph_mmap(small_graph, path)
    rewrite_meta(path, version=MMAP_FORMAT_VERSION - 1)
    with pytest.raises(GraphError, match="version"):
        load_graph_mmap(path)
    with pytest.raises(GraphError, match="version"):
        load_graph_meta(path)


def _racing_writer(barrier, graph, directory):
    barrier.wait(timeout=30)
    save_graph_mmap(graph, directory)


class TestMmapLayout:
    def test_round_trip_is_bit_exact_and_mapped(self, tmp_path, small_graph):
        directory = str(tmp_path / "g.mmap")
        assert save_graph_mmap(small_graph, directory) == directory
        loaded = load_graph_mmap(directory)
        assert_graphs_bit_exact(loaded, small_graph)
        # The arrays really are memory-mapped, not materialised copies,
        # and nobody can write the shared pages through them.
        for name in ARRAYS:
            array = getattr(loaded, name)
            assert isinstance(array, np.memmap), name
            assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            loaded.arc_weight[0] = 0.0

    def test_save_is_idempotent(self, tmp_path, small_graph):
        directory = str(tmp_path / "g.mmap")
        save_graph_mmap(small_graph, directory)
        before = (tmp_path / "g.mmap" / "meta.json").stat().st_mtime_ns
        save_graph_mmap(small_graph, directory)  # second writer: no-op
        after = (tmp_path / "g.mmap" / "meta.json").stat().st_mtime_ns
        assert before == after

    def test_another_graph_replaces_the_layout(
        self, tmp_path, small_graph, other_graph
    ):
        """'Already there' means this graph: a user-named directory written
        twice holds the second graph, and nothing is left beside it."""
        directory = str(tmp_path / "g.mmap")
        save_graph_mmap(small_graph, directory)
        save_graph_mmap(other_graph, directory)
        assert_graphs_bit_exact(load_graph_mmap(directory), other_graph)
        assert os.listdir(tmp_path) == ["g.mmap"]

    @pytest.mark.parametrize("damage", ["old-version", "missing-array"])
    def test_unloadable_layout_is_replaced(
        self, tmp_path, small_graph, damage
    ):
        directory = tmp_path / "g.mmap"
        save_graph_mmap(small_graph, directory)
        if damage == "old-version":
            rewrite_meta(directory, version=MMAP_FORMAT_VERSION - 1)
        else:
            (directory / "arc_dest.npy").unlink()
        save_graph_mmap(small_graph, directory)
        assert_graphs_bit_exact(load_graph_mmap(directory), small_graph)
        assert os.listdir(tmp_path) == ["g.mmap"]

    def test_a_directory_that_is_no_layout_is_not_removed(
        self, tmp_path, small_graph
    ):
        directory = tmp_path / "work"
        directory.mkdir()
        (directory / "notes.txt").write_text("keep me")
        with pytest.raises(OSError):
            save_graph_mmap(small_graph, directory)
        assert os.listdir(directory) == ["notes.txt"]
        assert os.listdir(tmp_path) == ["work"]

    def test_fingerprint_is_stamped(self, tmp_path, small_graph):
        """The stored fingerprint is handed back, never recomputed."""
        directory = str(tmp_path / "g.mmap")
        save_graph_mmap(small_graph, directory, fingerprint="stamped")
        assert load_graph_mmap(directory).fingerprint() == "stamped"
        # Unstamped writes store the content fingerprint.
        other = str(tmp_path / "h.mmap")
        save_graph_mmap(small_graph, other)
        assert load_graph_meta(other)["fingerprint"] == small_graph.fingerprint()

    def test_provenance_round_trips(self, tmp_path, small_graph):
        directory = tmp_path / "g.mmap"
        passes = [{"name": "pack", "seconds": 0.5}]
        save_graph_mmap(
            small_graph,
            directory,
            provenance={
                "recipe": {"kind": "composed", "seed": 11},
                "passes": passes,
                "version": "not the writer's to set",
            },
        )
        meta = load_graph_meta(directory)
        assert meta["recipe"] == {"kind": "composed", "seed": 11}
        assert meta["passes"] == passes
        assert meta["version"] == MMAP_FORMAT_VERSION
        assert meta["start"] == small_graph.start
        assert meta["fingerprint"] == small_graph.fingerprint()
        assert_graphs_bit_exact(load_graph_mmap(directory), small_graph)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(GraphError):
            load_graph_mmap(tmp_path / "nope.mmap")

    def test_version_mismatch_raises(self, tmp_path, small_graph):
        directory = tmp_path / "g.mmap"
        save_graph_mmap(small_graph, str(directory))
        rewrite_meta(directory, version=999)
        with pytest.raises(GraphError, match="version"):
            load_graph_mmap(directory)

    def test_torn_layout_raises(self, tmp_path, small_graph):
        def missing_array(d):
            (d / "arc_dest.npy").unlink()

        def truncated_array(d):
            data = (d / "arc_weight.npy").read_bytes()
            (d / "arc_weight.npy").write_bytes(data[: len(data) // 2])

        def empty_array(d):
            (d / "final_weights.npy").write_bytes(b"")

        def garbage_meta(d):
            (d / "meta.json").write_bytes(b"torn write")

        def empty_meta(d):
            (d / "meta.json").write_bytes(b"")

        for tear in (missing_array, truncated_array, empty_array,
                     garbage_meta, empty_meta):
            directory = tmp_path / f"{tear.__name__}.mmap"
            save_graph_mmap(small_graph, directory)
            tear(directory)
            with pytest.raises(GraphError):
                load_graph_mmap(directory)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the writers inherit the graph and the barrier by fork",
    )
    def test_racing_writers_leave_one_valid_layout(
        self, tmp_path, small_graph
    ):
        """More writers than cores released at once onto one target: the
        atomic rename lets one win, the others discard their copy."""
        ctx = multiprocessing.get_context("fork")
        directory = str(tmp_path / "g.mmap")
        barrier = ctx.Barrier(4)
        writers = [
            ctx.Process(
                target=_racing_writer, args=(barrier, small_graph, directory)
            )
            for _ in range(4)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert_graphs_bit_exact(load_graph_mmap(directory), small_graph)
        assert os.listdir(tmp_path) == ["g.mmap"]

    def test_cache_mmap_dir_is_content_addressed(self, tmp_path):
        from repro.graph import GraphCache, GraphRecipe

        cache = GraphCache(str(tmp_path / "cache"))
        recipe = GraphRecipe.synthetic_graph(
            SyntheticGraphConfig(num_states=50, num_phones=8, seed=3)
        )
        first = cache.mmap_dir(recipe)
        second = cache.mmap_dir(recipe)  # idempotent, same address
        assert first == second
        assert cache.get(recipe).fingerprint in first
        loaded = load_graph_mmap(first)
        assert_graphs_bit_exact(loaded, cache.get(recipe).graph)
