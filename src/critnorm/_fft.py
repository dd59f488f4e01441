"""Shared FFT entry points: every transform in the package funnels
through this module (tests/test_package.py checks it), so transform
counts and timings can be taken in one place. Both transforms act on the
last three axes, which every caller lays out as the grid; any leading
axes are components.

A grid of at least 64^3 points is transformed on WORKERS threads, a
smaller one on one: pocketfft hands whole 1-D lines to its threads, each
line transformed identically whichever thread takes it, so the bits do
not depend on the count. At 32^3 the threads cost more than they save.
"""

import os

import scipy.fft

# usable CPUs, at most two: the threads of large transforms and of walk_slabs
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


def _workers(grid):
    return WORKERS if grid[-3] * grid[-2] * grid[-1] >= 64**3 else 1


def rfftn(a):
    return scipy.fft.rfftn(a, axes=(-3, -2, -1), workers=_workers(a.shape))


def irfftn(a, s):
    return scipy.fft.irfftn(a, s=s, axes=(-3, -2, -1), workers=_workers(s))
