import math

import numpy as np
import pytest

from critnorm import corpus
from critnorm.besov import (
    LPProjectorBank,
    _phi,
    besov_norm_heat,
    besov_norm_lp,
    besov_split,
    lp_project,
    split_sweep,
    write_split_csv,
)
from critnorm.fields import ScalarField, TensorField, VectorField, gaussian_bump
from critnorm.spectral import divergence, leray_project

import testdata


def single_mode(grid, m, amplitude=1.0):
    X, Y, Z = grid.coords()
    vals = amplitude * np.cos(grid.k0 * (m[0] * X + m[1] * Y + m[2] * Z))
    return ScalarField(grid, vals + np.zeros(grid.shape))


class TestProjectorBank:
    def test_partition_of_unity(self, grid32, grid64):
        for g in (grid32, grid64):
            assert LPProjectorBank(g).partition_defect() <= 1e-10

    def test_default_bands_cover_grid(self, grid64):
        bank = LPProjectorBank(grid64)
        kmax = math.sqrt(float(np.max(grid64.k2)))
        assert (4.0 / 3.0) * 2.0**bank.j_min <= grid64.k0
        assert (3.0 / 2.0) * 2.0**bank.j_max >= kmax

    def test_annulus_support(self, grid32):
        bank = LPProjectorBank(grid32)
        rho = np.sqrt(grid32.k2) * 2.0 ** (-bank.j_min)
        w = bank.weight(bank.j_min)
        outside = (rho <= 0.75) | (rho >= 8.0 / 3.0)
        assert np.all(w[outside] == 0.0)

    def test_band_out_of_range(self, grid32):
        bank = LPProjectorBank(grid32)
        with pytest.raises(ValueError):
            bank.weight(bank.j_max + 1)


class TestLpProject:
    def test_single_mode_weight(self, grid32):
        # |xi| = 2 on the default box is the (2,2,0) lattice mode
        f = single_mode(grid32, (2, 2, 0), amplitude=0.9)
        proj = lp_project(f, 1)
        assert np.allclose(proj.values, _phi(1.0) * f.values, atol=1e-13)

    def test_partition_reconstructs_band_limited(self, grid32, rng):
        f = testdata.random_scalar(grid32, rng)
        bank = LPProjectorBank(grid32)
        total = np.zeros(grid32.shape)
        for j in bank.bands:
            total += lp_project(f, j).values
        assert np.allclose(total, f.values - np.mean(f.values), atol=1e-10)

    def test_disjoint_band_is_zero(self, grid32):
        f = single_mode(grid32, (4, 4, 0))  # |xi| = 4
        assert np.max(np.abs(lp_project(f, 0).values)) <= 1e-13
        assert np.max(np.abs(lp_project(f, 4).values)) <= 1e-13


class TestBesovNormLp:
    def test_zero_field(self, grid32):
        f = ScalarField(grid32, np.zeros(grid32.shape))
        assert besov_norm_lp(f, -0.5, 6).value == 0.0

    def test_single_mode_two_bands(self, grid32):
        amp = 0.7
        f = single_mode(grid32, (2, 2, 0), amplitude=amp)
        bank = LPProjectorBank(grid32)
        expected = max(
            2.0 ** (-0.5 * j) * float(_phi(2.0 * 2.0 ** (-j))) * amp
            for j in bank.bands
        )
        rep = besov_norm_lp(f, -0.5, math.inf)
        assert np.isclose(rep.value, expected, rtol=1e-12)

    def test_golden_gaussian(self, grid64):
        f = gaussian_bump(grid64, 0.35)
        rep = besov_norm_lp(f, -0.5, 6)
        assert np.isclose(rep.value, 0.184824433591, rtol=1e-9)

    def test_regularity_gate(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        with pytest.raises(ValueError):
            besov_norm_lp(f, 0.5, 6)
        with pytest.raises(ValueError):
            besov_norm_heat(f, 0.0, 6)


class TestBesovNormHeat:
    def test_zero_and_constant(self, grid32):
        z = ScalarField(grid32, np.zeros(grid32.shape))
        c = ScalarField(grid32, 3.0 * np.ones(grid32.shape))
        assert besov_norm_heat(z, -0.5, 6).value == 0.0
        assert besov_norm_heat(c, -0.5, 6).value == 0.0

    def test_single_mode_oracle(self, grid64):
        amp = 0.7
        f = single_mode(grid64, (2, 2, 0), amplitude=amp)
        rep = besov_norm_heat(f, -0.5, math.inf)
        oracle = amp * (1.0 / 16.0) ** 0.25 * math.exp(-0.25)
        # sup on the log lattice sits just below the true max
        assert rep.value <= oracle * (1 + 1e-12)
        assert np.isclose(rep.value, oracle, rtol=2e-3)

    def test_equivalence_with_lp(self, grid32):
        f = gaussian_bump(grid32, 0.4)
        heat = besov_norm_heat(f, -0.5, 6).value
        lp = besov_norm_lp(f, -0.5, 6).value
        assert 0.1 <= heat / lp <= 10.0


class TestBesovSplit:
    def test_reconstruction_and_divfree(self, grid32, rng):
        g = corpus.random_divfree(grid32, rng)
        sp = besov_split(g, 3.0, 6)
        scale = np.max(np.abs(g.data))
        assert np.allclose(
            sp.tilde_g.data + sp.bar_g.data, g.data, atol=1e-12 * scale
        )
        kmax = math.sqrt(float(np.max(grid32.k2)))
        for part in (sp.tilde_g, sp.bar_g):
            assert divergence(part).l2() <= 1e-10 * kmax * max(g.l2(), 1.0)

    def test_two_mode_bookkeeping(self, grid64):
        X, Y, Z = grid64.coords()
        lo = 0.8 * np.cos(grid64.k0 * (2 * X + 2 * Y))  # |xi| = 2
        hi = 0.3 * np.cos(grid64.k0 * (16 * X + 16 * Y))  # |xi| = 16
        zero = np.zeros(grid64.shape)
        g = VectorField(grid64, np.array([zero, zero, lo + hi + zero]))
        sp = besov_split(g, 8.0, 6)
        assert np.allclose(sp.bar_g.data[2], lo + zero, atol=1e-12)
        assert np.allclose(sp.tilde_g.data[2], hi + zero, atol=1e-12)

    def test_threshold_above_nyquist(self, grid32, rng):
        g = corpus.random_divfree(grid32, rng)
        sp = besov_split(g, 100.0, 6)
        assert np.max(np.abs(sp.tilde_g.data)) <= 1e-13
        assert np.allclose(sp.bar_g.data, g.data, atol=1e-12)

    def test_threshold_below_first_band(self, grid32, rng):
        g = corpus.random_divfree(grid32, rng)
        drift = g.data + 0.25  # constant drift is divergence-free
        gd = VectorField(grid32, drift)
        sp = besov_split(gd, 0.3, 6)
        mean = drift.mean(axis=(1, 2, 3), keepdims=True)
        assert np.allclose(sp.bar_g.data, mean * np.ones_like(drift), atol=1e-12)
        assert np.allclose(sp.tilde_g.data, drift - mean, atol=1e-12)

    def test_rejections(self, grid32, rng):
        X, _, _ = grid32.coords()
        bad = VectorField(
            grid32,
            np.array(
                [
                    np.sin(grid32.k0 * X) + np.zeros(grid32.shape),
                    np.zeros(grid32.shape),
                    np.zeros(grid32.shape),
                ]
            ),
        )
        with pytest.raises(ValueError):
            besov_split(bad, 4.0, 6)
        g = corpus.random_divfree(grid32, rng)
        with pytest.raises(ValueError):
            besov_split(g, -1.0, 6)
        with pytest.raises(ValueError):
            besov_split(ScalarField(grid32, np.zeros(grid32.shape)), 4.0, 6)
        with pytest.raises(ValueError, match="besov_split takes a vector field"):
            besov_split(TensorField(grid32, np.zeros((3, 3) + grid32.shape)), 4.0, 6)

    def test_l2_persistence_is_parseval_sharp(self, grid32, rng):
        g = corpus.random_divfree(grid32, rng)
        sp = besov_split(g, 4.0, 6)
        t2 = sp.reports["tilde_l2"].value
        b2 = sp.reports["bar_l2"].value
        assert np.isclose(t2**2 + b2**2, g.l2() ** 2, rtol=1e-11)
        assert max(t2, b2) <= g.l2() * (1 + 1e-12)

    def test_critical_norm_persistence(self, grid32, rng):
        # empirical corpus constant; measured max ratio is about 1.0
        for _ in range(4):
            g = corpus.random_divfree(grid32, rng)
            base = besov_norm_lp(g, -0.5, 6).value
            sp = besov_split(g, 3.0, 6)
            assert sp.reports["tilde_critical"].value <= 2.0 * base
            assert sp.reports["bar_critical"].value <= 2.0 * base


class TestSplitSweep:
    def test_scaling_exponents_on_critical_profile(self, grid64, tmp_path):
        u = leray_project(testdata.inverse_radius_field(grid64, 4 * grid64.dx, 3.0))
        sweep = split_sweep(u, np.geomspace(2.0, 12.0, 6), 6)
        assert sweep["slope_tilde"] < -0.3
        assert sweep["slope_bar"] <= 0.5 + 0.1  # gamma1 role: delta2 plus margin
        path = tmp_path / "split.csv"
        write_split_csv(path, sweep)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "N,tilde_l2,bar_besov,slope_tilde,slope_bar"
        assert len(lines) == 7
