"""Shared FFT entry points.

Every transform in the package funnels through this module, so transform
counts and timings can be taken in one place. Both transforms act on the
last three axes, which every caller lays out as the grid; any leading
axes are components.
"""

import scipy.fft


def rfftn(a):
    return scipy.fft.rfftn(a, axes=(-3, -2, -1))


def irfftn(a, s):
    return scipy.fft.irfftn(a, s=s, axes=(-3, -2, -1))
