"""Shared fixtures: small tasks and graphs reused across the test suite."""

import faulthandler
import os

import pytest

from repro.accel import AcceleratorConfig
from repro.common import cpu
from repro.datasets import (
    AudioTaskConfig,
    SyntheticGraphConfig,
    TaskConfig,
    generate_audio_task,
    generate_kaldi_like_graph,
    generate_task,
)

#: Seconds one test may run.  The slowest test takes under 5 s on a quiet
#: two-core box; a tier test that waits on a thread or a worker that
#: will never answer takes for ever.
TEST_DEADLINE_S = 30

_REAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended while pytest configures; inside a test
    # fd 2 is the capture file, which a process that exits on the spot
    # never gets to print.
    config.stash[_REAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_REAL_STDERR])


@pytest.fixture(autouse=True)
def per_test_deadline(request):
    """A hung test prints every thread's stack and fails the run after
    ``TEST_DEADLINE_S`` instead of stalling it for as long as someone
    waits (stdlib only: the watchdog is ``faulthandler``'s C thread, so
    it fires whatever the Python threads are blocked on)."""
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, exit=True, file=request.config.stash[_REAL_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def small_task():
    """A complete ASR task small enough for exhaustive checks."""
    return generate_task(
        TaskConfig(
            vocab_size=60,
            corpus_sentences=300,
            num_utterances=4,
            utterance_words=4,
            seed=11,
        )
    )


@pytest.fixture(scope="session")
def audio_task():
    """A small audio task (MFCC features, a trained DNN scorer, graph) for
    the features path of the serving tier."""
    return generate_audio_task(
        AudioTaskConfig(
            vocab_size=20, corpus_sentences=150, num_utterances=3,
            train_utterances=30, epochs=8, seed=2,
        )
    )


@pytest.fixture(scope="session")
def small_graph(small_task):
    return small_task.graph


@pytest.fixture(scope="session")
def synthetic_graph():
    """A mid-size Kaldi-like random graph for memory-system tests."""
    return generate_kaldi_like_graph(
        SyntheticGraphConfig(num_states=3000, num_phones=30, seed=7)
    )


@pytest.fixture(scope="session")
def table1_config():
    return AcceleratorConfig()


class FakeBlas:
    """Stands in for OpenBLAS's two entry points; records every set."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.sets = []

    def get(self) -> int:
        return self.threads

    def put(self, threads: int) -> None:
        self.sets.append(threads)
        self.threads = threads


@pytest.fixture()
def fake_blas(monkeypatch):
    """Every ``BlasPool`` built during the test drives an 8-thread fake,
    so pool behaviour is testable whatever BLAS numpy runs on."""
    fake = FakeBlas(8)
    monkeypatch.setattr(cpu, "_find_openblas", lambda: (fake.get, fake.put))
    return fake
