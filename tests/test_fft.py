"""The worker rule of critnorm._fft: a transform whose grid, the last
three axes, has at least 64^3 points runs on _fft.WORKERS threads, a
smaller one on one, and the count never changes a bit."""

import os

import numpy as np
import pytest
import scipy.fft

from critnorm import _fft, spectral
from critnorm.fields import Grid, ScalarField

DEFAULT_L = 2.0 * np.pi * np.sqrt(2.0)


def spy_workers(monkeypatch):
    """(transform, grid, workers) of every scipy.fft.rfftn and irfftn
    call from now on; workers is None when the call passes none."""
    seen = []
    for name in ("rfftn", "irfftn"):
        def spy(a, *args, _name=name, _real=getattr(scipy.fft, name), **kw):
            grid = tuple(kw["s"]) if _name == "irfftn" else a.shape[-3:]
            seen.append((_name, grid, kw.get("workers")))
            return _real(a, *args, **kw)

        monkeypatch.setattr(scipy.fft, name, spy)
    return seen


def round_trip(x):
    hat = _fft.rfftn(x)
    return hat, _fft.irfftn(hat, x.shape[-3:])


def test_worker_count_is_the_usable_cpus_at_most_two():
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _fft.WORKERS == min(2, usable)


@pytest.mark.parametrize("shape", [(3, 64, 64, 64), (6, 64, 64, 64), (128, 128, 128)])
def test_two_workers_give_the_bits_of_one(monkeypatch, shape):
    x = np.random.default_rng(30).standard_normal(shape)
    monkeypatch.setattr(_fft, "WORKERS", 1)
    hat1, back1 = round_trip(x)
    monkeypatch.setattr(_fft, "WORKERS", 2)
    seen = spy_workers(monkeypatch)
    hat2 = _fft.rfftn(x)
    back2 = _fft.irfftn(hat1, shape[-3:])  # the same input on both counts
    assert [w for _, _, w in seen] == [2, 2]
    assert np.array_equal(hat1, hat2)
    assert np.array_equal(back1, back2)


def test_small_grid_stays_on_one_thread(monkeypatch):
    monkeypatch.setattr(_fft, "WORKERS", 2)
    seen = spy_workers(monkeypatch)
    round_trip(np.ones((3, 32, 32, 32)))
    round_trip(np.ones((64, 64, 32)))  # 2^17 points: below the rule too
    assert [w for _, _, w in seen] == [1] * 4


def test_large_grid_uses_the_worker_count(monkeypatch):
    monkeypatch.setattr(_fft, "WORKERS", 2)
    seen = spy_workers(monkeypatch)
    round_trip(np.ones((3, 64, 64, 64)))
    assert seen == [("rfftn", (64, 64, 64), 2), ("irfftn", (64, 64, 64), 2)]


def test_doubled_grid_of_a_small_field_uses_the_worker_count(monkeypatch):
    g = Grid(32, DEFAULT_L)
    rng = np.random.default_rng(30)
    f, kernel = (ScalarField(g, rng.standard_normal(g.shape)) for _ in range(2))
    monkeypatch.setattr(_fft, "WORKERS", 2)
    seen = spy_workers(monkeypatch)
    spectral.free_convolution(f, kernel)
    assert seen == [("rfftn", (64, 64, 64), 2)] * 2 + [("irfftn", (64, 64, 64), 2)]


def test_one_worker_threads_no_call(monkeypatch):
    g = Grid(32, DEFAULT_L)
    f = ScalarField(g, np.random.default_rng(30).standard_normal(g.shape))
    monkeypatch.setattr(_fft, "WORKERS", 1)
    seen = spy_workers(monkeypatch)
    round_trip(np.ones((3, 32, 32, 32)))
    round_trip(np.ones((3, 64, 64, 64)))
    spectral.free_convolution(f, f)
    assert len(seen) == 7
    assert {w for _, _, w in seen} == {1}
