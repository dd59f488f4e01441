"""Shared FFT entry points.

Every transform in the package funnels through this module, so transform
counts and timings can be taken in one place.
"""

import scipy.fft


def rfftn(a, axes=None):
    return scipy.fft.rfftn(a, axes=axes)


def irfftn(a, s, axes=None):
    return scipy.fft.irfftn(a, s=s, axes=axes)
