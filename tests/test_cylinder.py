"""The time quadratures of critnorm.cylinder against scipy.integrate,
which stays the reference implementation here, and on affine samples,
which they integrate exactly; the call-scoped frame spectra that its
off-grid sampling reads, and the one rule by which a ball fits the box."""

import gc
import weakref

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import _fft, cylinder
from critnorm.cylinder import cumulative_simpson, cumulative_trapezoid, trapezoid
from critnorm.fields import SpaceTimeField
from critnorm.norms import BallRegion

@st.composite
def samples(draw, min_size=1):
    """Strictly increasing, unevenly spaced times with 1-40 samples."""
    h = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=min_size - 1, max_size=39))
    x = draw(st.floats(min_value=-100.0, max_value=100.0)) + np.cumsum([0.0] + h)
    y = np.array(draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                  min_size=len(x), max_size=len(x))))
    return x, y


@settings(max_examples=200, deadline=None)
@given(samples())
def test_both_rules_are_scipys_bit_for_bit(xy):
    # one and two samples take scipy's trapezoid fallback in cumulative_simpson
    x, y = xy
    want = scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)
    assert np.array_equal(cumulative_trapezoid(y, x), want)
    want = scipy.integrate.cumulative_simpson(y, x=x, initial=0.0)
    assert np.array_equal(cumulative_simpson(y, x), want)


@settings(max_examples=200, deadline=None)
@given(samples(min_size=2), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_every_rule_integrates_affine_samples_exactly(xy, a, b):
    # a + b t over [x_0, x_m], to 1e-13 of the integral of |a| + |b| max|t|;
    # cumulative_simpson's weights grow with the ratio of neighbouring
    # steps (up to 10^4 here), and so does its round-off. Below the smallest
    # normal float rounding is absolute, up to half the smallest subnormal a
    # step, and a step of up to 10 scales it: the floor allows 100 per sample
    x = xy[0]
    exact = (x[-1] - x[0]) * (a + b * (x[-1] + x[0]) / 2.0)
    tol = (1e-13 * (abs(a) + abs(b) * np.max(np.abs(x))) * (x[-1] - x[0])
           + 100 * len(x) * np.finfo(float).smallest_subnormal)
    h = np.diff(x)
    skew = max(np.max(h[1:] / h[:-1]), np.max(h[:-1] / h[1:])) if len(h) > 1 else 1.0
    y = a + b * x
    assert abs(trapezoid(y, x) - exact) <= tol
    assert abs(cumulative_trapezoid(y, x)[-1] - exact) <= tol
    assert abs(cumulative_simpson(y, x)[-1] - exact) <= tol * skew


@settings(max_examples=50, deadline=None)
@given(samples(min_size=2), st.data())
def test_times_that_do_not_increase_are_rejected(xy, data):
    x, y = xy
    i = data.draw(st.integers(1, len(x) - 1))
    x[i] = x[i - 1] - data.draw(st.sampled_from([0.0, 0.5]))
    for rule in (cumulative_trapezoid, cumulative_simpson):
        with pytest.raises(ValueError, match="strictly increasing"):
            rule(y, x)


def _stored(grid, components, slices=3):
    """A stored run of random frames: scalar for components 0, else vector."""
    rng = np.random.default_rng(7)
    lead = () if components == 0 else (components,)
    frames = rng.standard_normal((slices,) + lead + grid.shape)
    return SpaceTimeField(grid, np.arange(slices) / 64.0, frames)


@pytest.fixture()
def transforms(monkeypatch):
    """Every rfftn made while the test runs, as its input array."""
    calls = []
    real = _fft.rfftn

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(_fft, "rfftn", counting)
    return calls


class TestFrameSpectra:
    def test_entries_are_read_only_per_component_spectra(self, grid16):
        vec, sca = cylinder.FrameSpectra(_stored(grid16, 3)), cylinder.FrameSpectra(_stored(grid16, 0))
        assert len(vec[1]) == 3 and isinstance(sca[1], np.ndarray)
        for c, hat in enumerate(vec[1]):
            assert np.array_equal(hat, _fft.rfftn(vec.stf.frames[1, c]))
        assert np.array_equal(sca[1], _fft.rfftn(sca.stf.frames[1]))
        for hat in vec[1] + (sca[1],):
            assert not hat.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                hat[0, 0, 0] = 0.0

    def test_each_component_is_transformed_once_per_call(self, grid16, transforms):
        stf = _stored(grid16, 3)
        spectra = cylinder.FrameSpectra(stf)
        lattices = [cylinder.ball_points(grid16, (0.1, 0.0, -0.2), r)[0] for r in (0.25, 0.5)]
        for axes in lattices:
            for i in range(len(stf)):
                cylinder.sample_slice(spectra, i, axes)
                cylinder.sample_grad_sq(spectra, i, axes)
        assert len(transforms) == 3 * len(stf)
        # a second call makes its own
        cylinder.sample_slice(cylinder.FrameSpectra(stf), 0, lattices[0])
        assert len(transforms) == 3 * len(stf) + 3

    def test_drop_releases_the_frame(self, grid16, transforms):
        spectra = cylinder.FrameSpectra(_stored(grid16, 3))
        kept, dropped = spectra[0], weakref.ref(spectra[1][0])
        spectra.drop(1)
        spectra.drop(2)  # never made: nothing to release
        gc.collect()
        assert dropped() is None
        assert spectra[0] is kept and len(transforms) == 6
        spectra[1]  # made again on its next use
        assert len(transforms) == 9

    @pytest.mark.parametrize("components", [0, 3])
    def test_native_cell_sampling_transforms_nothing(self, grid16, transforms, components):
        spectra = cylinder.FrameSpectra(_stored(grid16, components))
        frame = spectra.stf.frames[2]
        want = frame if components == 0 else np.sum(frame**2, axis=0)
        rows = slice(4, 9)
        got = cylinder.sample_slice(spectra, 2, None, rows=rows)
        assert np.allclose(got, want[rows], rtol=1e-15, atol=0.0)
        out = np.empty((2, 5) + grid16.shape[1:])
        into = cylinder.sample_slice(spectra, 2, None, rows, out)
        assert np.shares_memory(into, out[0]) and np.array_equal(out[0], got)
        assert transforms == []


class TestBallFit:
    def test_ball_points_and_ball_mask_share_the_fit_rule(self, grid32):
        # r = L/2 - dx/2 would wrap round the box on the native cells
        r = grid32.L / 2 - grid32.dx / 2
        for fit in (lambda: cylinder.ball_points(grid32, (0, 0, 0), r),
                    lambda: cylinder.ball_slabs(grid32, (0, 0, 0), r),
                    lambda: cylinder.ball_mask(grid32, BallRegion((0, 0, 0), r))):
            with pytest.raises(ValueError, match="ball plus one-cell margin does not fit in the box"):
                fit()
        # the largest ball that fits passes both
        r = grid32.L / 2 - grid32.dx
        cylinder.ball_points(grid32, (0, 0, 0), r)
        cylinder.ball_mask(grid32, BallRegion((0, 0, 0), r))
        # a lattice's outer ball answers to the same rule
        with pytest.raises(ValueError, match="does not fit"):
            cylinder.ball_points(grid32, (0, 0, 0), 0.25, outer=grid32.L / 2 - grid32.dx / 2)
