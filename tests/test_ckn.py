"""Oracle tests for the dyadic cylinder ledger on hand-built stored orbits."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from critnorm import ckn, pns, pressure
from critnorm.fields import SpaceTimeField, taylor_green_3d
from critnorm.norms import BallRegion

T16 = np.arange(9) / 64.0  # k = 2 and k = 3 cylinders below t = 1/8 hold stored slices
TOP = 1.0 / 8.0
CENTER = (0.1, -0.2, 0.05)


def _velocity(grid, x, y, z):
    """A band-limited field, so its trigonometric interpolant is exact."""
    k = 2.0 * math.pi / grid.L
    return np.stack(
        np.broadcast_arrays(0.8 * np.sin(k * y), 0.5 * np.cos(2 * k * z), 0.3 * np.sin(k * x + 0.4))
    )


def _pressure(grid, x, y, z):
    k = 2.0 * math.pi / grid.L
    return np.cos(k * x) * np.sin(k * y) + 0.2 * np.cos(k * z)


def _orbit(grid, times, scale=lambda t: 1.0, v=None, q=None):
    X, Y, Z = grid.coords()
    v = _velocity(grid, X, Y, Z) if v is None else v
    q = _pressure(grid, X, Y, Z) if q is None else q
    return SimpleNamespace(
        grid=grid,
        v=SpaceTimeField(grid, times, np.array([scale(t) * v for t in times])),
        q=SpaceTimeField(grid, times, np.array([scale(t) * q for t in times])),
    )


class TestLocalCubedMass:
    def test_steady_lattice_ball(self, grid16):
        # r = 1/4 is below eight cells per radius: the r/8 lattice centred on
        # the ball, with |v|^3 taken from the closed form at its points
        r, h = 0.25, 0.25 / 8.0
        offs = np.arange(-8, 9) * h
        ox, oy, oz = offs[:, None, None], offs[None, :, None], offs[None, None, :]
        v = _velocity(grid16, CENTER[0] + ox, CENTER[1] + oy, CENTER[2] + oz)
        inside = np.sqrt(ox**2 + oy**2 + oz**2) <= r
        ball = np.sum(np.sum(v**2, axis=0)[inside] ** 1.5) * h**3
        got = ckn.local_cubed_mass(_orbit(grid16, T16), CENTER, TOP, r)
        assert got == pytest.approx(r**2 * ball, rel=1e-12)

    def test_steady_native_ball(self, grid32):
        r = 2.5  # at least eight cells per radius: native cell centres
        assert r / grid32.dx >= 8.0
        times = 0.78125 * np.arange(9)  # spans r^2 = 6.25 exactly
        run = _orbit(grid32, times)
        inside = grid32.radius((0.0, 0.0, 0.0)) <= r
        s2 = np.sum(run.v.frames[0] ** 2, axis=0)
        ball = np.sum(s2[inside] ** 1.5) * grid32.cell_volume
        got = ckn.local_cubed_mass(run, (0.0, 0.0, 0.0), times[-1], r)
        assert got == pytest.approx(r**2 * ball, rel=1e-12)


class TestSparseStorage:
    def test_coarse_stride_names_window_and_spacing(self, grid16):
        # a slice every 1/16 against the r = 1/8 window r^2 = 1/64
        cfg = pns.PNSConfig(dt=1.0 / 64.0, T=0.25, stride=4)
        run = pns.run_pns(taylor_green_3d(grid16, 0.3), cfg)
        msg = (
            r"window of length 0\.015625 .* holds 1: the stored slices are up to "
            r"0\.0625 apart, and must be stored at most r\^2 apart"
        )
        with pytest.raises(ValueError, match=msg):
            ckn.local_cubed_mass(run, CENTER, 0.25, 0.125)
        with pytest.raises(ValueError, match=msg):
            pressure.pressure_oscillation_terms(run.v, None, run.q, CENTER, 0.125, 0.25)


class TestZeroField:
    def test_passes_every_budget_and_measures_zero(self, grid16):
        zero = np.zeros((3,) + grid16.shape)
        run = _orbit(grid16, T16, v=zero, q=zero[0])
        ledger = ckn.build_ledger(run, CENTER, TOP, ks=(2, 3), eta=0.6, t0=0.0)
        for row in ledger.rows:
            assert row.passed
            assert row.a_value == 0.0 and row.b_value == 0.0
            w = row.weighted
            assert w.ok and w.apk == w.appk == w.bpk == 0.0
        assert ckn.cylinder_smallness(run, CENTER, TOP, 0.25) == 0.0
        assert ckn.morrey_sup(run, BallRegion(CENTER, 0.5), ks=(2, 3)).value == 0.0


class TestWeightedRows:
    def test_mass_at_or_before_t0_is_infinite(self, grid16):
        run = _orbit(grid16, T16)
        # window of k = 2 holds t = 4/64 .. 8/64; three slices sit at or below t0
        w = ckn.ledger_weighted(run, CENTER, TOP, 2, t0=6.0 / 64.0)
        assert w.apk == w.appk == w.bpk == math.inf
        assert not w.ok
        quiet = ckn.ledger_weighted(run, CENTER, TOP, 2, t0=0.0)
        assert all(math.isfinite(x) for x in (quiet.apk, quiet.appk, quiet.bpk))


class TestBuildLedger:
    def test_rows_are_the_public_row_functions(self, grid16):
        run = _orbit(grid16, T16, scale=lambda t: 1.0 + 4.0 * t)
        ledger = ckn.build_ledger(run, CENTER, TOP, ks=(2, 3), eta=0.6, t0=0.0)
        for row in ledger.rows:
            assert (row.a_value, row.a_target) == ckn.ledger_A(run, CENTER, TOP, row.k)
            assert (row.b_value, row.b_target) == ckn.ledger_B(run, CENTER, TOP, row.k)
            assert row.weighted == ckn.ledger_weighted(run, CENTER, TOP, row.k, eta=0.6, t0=0.0)
            assert row.a_value > 0.0 and row.b_value > 0.0


class TestMorreySup:
    def test_cubic_homogeneity(self, grid16):
        region = BallRegion(CENTER, 0.5)
        ramp = lambda t: 1.0 + t
        base = ckn.morrey_sup(_orbit(grid16, T16, ramp), region, ks=(2, 3)).value
        lam = 3.0
        scaled = ckn.morrey_sup(
            _orbit(grid16, T16, lambda t: lam * ramp(t)), region, ks=(2, 3)
        ).value
        assert base > 0.0
        assert scaled == pytest.approx(lam**3 * base, rel=1e-12)


class TestKernelBound:
    def test_lhs_is_largest_probe_integral(self):
        def source(y1, y2, y3, s):
            ball = y1**2 + y2**2 + y3**2 <= 0.09
            return np.where(ball & (abs(s) <= 0.1), 1.0, 0.0)

        probes = [(cx, cy, cz) for cx in (-0.4, 0.0, 0.4) for cy in (-0.4, 0.0, 0.4)
                  for cz in (-0.4, 0.0, 0.4)]
        probes += [(1.25, 0.0, 0.0), (0.0, -1.5, 0.3)]
        best = max(
            ckn.kernel_integral(source, x, t) for x in probes for t in (-0.2, 0.0, 0.2, 0.5)
        )
        rep = ckn.check_kernel_bound(source)
        assert best > 0.0
        assert rep.lhs == pytest.approx(best, rel=1e-12)
