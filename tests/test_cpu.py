"""Tests for repro.common.cpu: the one definition of "cores" and the
BLAS pool handle, controlled and uncontrolled."""

import ctypes
import os

import pytest

from repro.common import cpu
from repro.common.cpu import BlasPool, usable_cpus


class TestUsableCpus:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 3

    def test_falls_back_to_the_core_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestBlasPool:
    def test_lower_never_raises_the_pool(self, fake_blas):
        pool = BlasPool()
        assert pool.lower(16) == 0 and pool.lower(8) == 0
        assert fake_blas.sets == []
        assert pool.lower(2) == 8
        assert pool.threads() == 2 and fake_blas.sets == [2]

    def test_restore_never_shrinks_the_pool(self, fake_blas):
        pool = BlasPool()
        pool.restore(0)  # what lower() returns when it changed nothing
        pool.restore(4)
        assert fake_blas.sets == []
        pool.restore(12)
        assert pool.threads() == 12

    @pytest.mark.parametrize("first", ["outer", "inner"])
    def test_overlapping_holders_restore_in_any_order(self, fake_blas, first):
        outer, inner = BlasPool(), BlasPool()
        outer_was = outer.lower(4)
        inner_was = inner.lower(1)
        assert (outer_was, inner_was) == (8, 4)
        if first == "outer":
            outer.restore(outer_was)
            inner.restore(inner_was)
        else:
            inner.restore(inner_was)
            outer.restore(outer_was)
        assert outer.threads() == 8

    def test_real_pool_round_trip(self):
        pool = BlasPool()
        default = pool.threads()
        if default < 2:
            pytest.skip(f"BLAS pool reads {default}: uncontrolled, or "
                        f"already one thread")
        previous = pool.lower(1)
        try:
            assert previous == default
            assert pool.threads() == 1
            assert BlasPool().threads() == 1  # process-wide, not per handle
        finally:
            pool.restore(previous)
        assert pool.threads() == default


class TestUncontrolled:
    def test_every_call_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(cpu, "_find_openblas", lambda: None)
        pool = BlasPool()
        assert pool.threads() == 0
        assert pool.lower(1) == 0
        pool.restore(4)
        assert pool.threads() == 0

    def test_library_that_does_not_load_is_nothing_found(self, monkeypatch):
        def refuse(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert cpu._find_openblas() is None

    def test_library_without_the_entry_points_is_nothing_found(
        self, monkeypatch
    ):
        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        assert cpu._find_openblas() is None
