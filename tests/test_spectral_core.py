import numpy as np
import pytest

from critnorm import corpus, spectral
from critnorm.fields import (
    Grid,
    ScalarField,
    SpaceTimeField,
    VectorField,
    gaussian_bump,
    ball_indicator,
    smooth_radial_cutoff,
    taylor_green,
)

DEFAULT_L = 2.0 * np.pi * np.sqrt(2.0)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(24, DEFAULT_L)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Grid(4, DEFAULT_L)

    def test_rejects_small_box(self):
        with pytest.raises(ValueError):
            Grid(32, 8.0)

    def test_minimal_image_wraps(self, grid32):
        L = grid32.L
        assert np.isclose(grid32.minimal_image(0.75 * L), -0.25 * L)
        assert np.isclose(grid32.minimal_image(-0.75 * L), 0.25 * L)

    def test_field_rejects_nan(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid32, vals)

    def test_fields_are_immutable(self, grid32):
        f = gaussian_bump(grid32, 0.5)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0

    def test_spacetime_field_rejects_frames_of_another_grid(self, grid16, grid32):
        frames = np.ones((2, 3) + grid32.shape)
        with pytest.raises(ValueError, match=r"\(32, 32, 32\) but the grid is \(16, 16, 16\)"):
            SpaceTimeField(grid16, [0.0, 0.1], frames)
        with pytest.raises(ValueError, match="spatial shape"):
            SpaceTimeField(grid16, [0.0, 0.1], np.ones((2, 16, 16, 32)))
        assert len(SpaceTimeField(grid32, [0.0, 0.1], frames)) == 2

    def test_field_leaves_caller_array_writeable(self, grid32):
        a = np.zeros(grid32.shape)
        f = ScalarField(grid32, a)
        assert a.flags.writeable
        assert not f.data.flags.writeable
        assert np.shares_memory(a, f.data)


class TestParseval:
    def test_physical_matches_spectral(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng, kmax=9)
        phys = np.sum(f.values ** 2) * grid32.cell_volume
        # independent path: rfft layout double-counts all kz planes except
        # kz = 0 and the Nyquist plane
        h = np.abs(f.hat) ** 2
        w = np.full(grid32.n // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        spec = np.sum(h * w[None, None, :]) * grid32.cell_volume / grid32.n ** 3
        assert np.isclose(phys, spec, rtol=1e-12)


class TestLerayProject:
    def test_annihilates_gradients(self, grid32, rng):
        phi = corpus.random_scalar(grid32, rng, kmax=7)
        gphi = spectral.gradient(phi)
        out = spectral.leray_project(gphi)
        assert np.max(np.abs(out.data)) <= 1e-12 * np.max(np.abs(gphi.data))

    def test_fixes_taylor_green(self, grid32):
        tg = taylor_green(grid32)
        out = spectral.leray_project(tg)
        assert np.max(np.abs(out.data - tg.data)) <= 1e-12 * np.max(np.abs(tg.data))

    def test_two_term_helmholtz_example(self, grid32):
        # f = (sin ky, 0, 0) + grad(cos kx) -> (sin ky, 0, 0)
        k = grid32.k0
        X, Y, _ = grid32.coords()
        zero = np.zeros(grid32.shape)
        solen = np.stack([np.sin(k * Y) + zero, zero, zero])
        grad = np.stack([-k * np.sin(k * X) + zero, zero, zero])
        out = spectral.leray_project(VectorField(grid32, solen + grad))
        assert np.allclose(out.data, solen, atol=1e-12)

    def test_idempotent(self, grid32, rng):
        f = VectorField(
            grid32, np.stack([corpus.random_scalar(grid32, rng, 8).values for _ in range(3)])
        )
        once = spectral.leray_project(f)
        twice = spectral.leray_project(once)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-12 * np.max(np.abs(once.data))

    def test_divergence_small(self, grid32, rng):
        f = VectorField(
            grid32, np.stack([corpus.random_scalar(grid32, rng, 8).values for _ in range(3)])
        )
        out = spectral.leray_project(f)
        div = spectral.divergence(out)
        assert div.l2() <= 1e-10 * out.l2()

    def test_zero_mode_passes(self, grid32):
        const = VectorField(grid32, np.broadcast_to(
            np.array([1.0, -2.0, 0.5])[:, None, None, None], (3,) + grid32.shape
        ).copy())
        out = spectral.leray_project(const)
        assert np.allclose(out.data, const.data, atol=1e-14)


class TestHeatSemigroup:
    def test_rejects_negative_time(self, grid32):
        with pytest.raises(ValueError):
            spectral.heat_semigroup(gaussian_bump(grid32, 0.5), -0.1)

    def test_time_zero_identity(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng)
        out = spectral.heat_semigroup(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_single_mode_eigenvalue(self, grid32):
        # mode (2,2,0): |xi|^2 = 8 k0^2 = 4, so t = 1/4 damps by e^{-1}
        k = grid32.k0
        X, Y, _ = grid32.coords()
        f = ScalarField(grid32, np.cos(2 * k * X + 2 * k * Y) + np.zeros(grid32.shape))
        out = spectral.heat_semigroup(f, 0.25)
        assert np.allclose(out.values, np.exp(-1.0) * f.values, rtol=1e-12, atol=1e-14)

    def test_gaussian_spreads_exactly(self, grid64):
        sigma, t = 0.35, 0.05
        f = gaussian_bump(grid64, sigma)
        out = spectral.heat_semigroup(f, t)
        s2 = sigma ** 2 + 2.0 * t
        exact = (sigma ** 2 / s2) ** 1.5 * np.exp(-grid64.radius() ** 2 / (2.0 * s2))
        assert np.max(np.abs(out.values - exact)) <= 1e-8

    def test_semigroup_composition(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng)
        one = spectral.heat_semigroup(spectral.heat_semigroup(f, 0.07), 0.13)
        two = spectral.heat_semigroup(f, 0.2)
        assert np.allclose(one.values, two.values, rtol=1e-12, atol=1e-13)

    def test_l2_nonincreasing(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng)
        norms = [spectral.heat_semigroup(f, t).l2() for t in (0.0, 0.01, 0.1, 1.0)]
        assert all(a >= b - 1e-13 for a, b in zip(norms, norms[1:]))

    def test_smoothing_rate_slopes(self):
        # compact check of the L^q -> L^p decay exponents -(3/2)(1/q - 1/p);
        # the two-decade version runs in the acceptance suite on n = 256
        grid = Grid(128, 2.0 * DEFAULT_L)
        slopes = corpus.heat_smoothing_slopes(grid, 0.09, 2.5, samples=9)
        assert abs(slopes["l1_linf"] - (-1.5)) <= 0.05 * 1.5
        assert abs(slopes["l3_l5"] - (-0.2)) <= 0.05 * 0.2


class TestRieszRiesz:
    def test_pure_mode_diagonal(self, grid32):
        # mode (4,0,0): multiplier -xi_1^2/|xi|^2 = -1
        k = grid32.k0
        X, _, _ = grid32.coords()
        f = ScalarField(grid32, np.cos(4 * k * X) + np.zeros(grid32.shape))
        out = spectral.riesz_riesz(f, 0, 0)
        assert np.allclose(out.values, -f.values, rtol=1e-12, atol=1e-14)

    def test_constant_maps_to_zero(self, grid32):
        f = ScalarField(grid32, np.full(grid32.shape, 3.7))
        out = spectral.riesz_riesz(f, 1, 1)
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_trace_identity(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng, kmax=9)
        total = sum(spectral.riesz_riesz(f, i, i).values for i in range(3))
        target = -(f.values - f.mean())
        assert np.max(np.abs(total - target)) <= 1e-10 * np.max(np.abs(f.values))

    def test_self_adjoint_on_mean_zero(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng, kmax=9)
        g = corpus.random_scalar(grid32, rng, kmax=9)
        f = ScalarField(grid32, f.values - f.mean())
        g = ScalarField(grid32, g.values - g.mean())
        w = grid32.cell_volume
        for (i, j) in ((0, 0), (0, 1), (1, 2)):
            lhs = np.sum(spectral.riesz_riesz(f, i, j).values * g.values) * w
            rhs = np.sum(f.values * spectral.riesz_riesz(g, i, j).values) * w
            assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_symmetric_in_indices(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng, kmax=9)
        a = spectral.riesz_riesz(f, 0, 2)
        b = spectral.riesz_riesz(f, 2, 0)
        assert np.allclose(a.values, b.values, atol=1e-13)


class TestNewtonianPotential:
    def test_zero_source(self, grid32):
        f = ScalarField(grid32, np.zeros(grid32.shape))
        out = spectral.newtonian_potential(f)
        assert np.max(np.abs(out.values)) == 0.0

    def test_kernel_cache_is_bounded(self):
        for L in (9.0, 10.0, 11.0, 12.0, 13.0):
            g = Grid(8, L)
            spectral.newtonian_potential(ScalarField(g, np.zeros(g.shape)))
        assert spectral._kernel_hat.cache_info().currsize <= 4

    def test_kernel_cache_keeps_one_real_kernel(self):
        # the derivative kernels i k_j N_T are formed per call: what stays
        # cached is N_T, real, and the doubled grid's wavenumber vectors
        g = Grid(16, DEFAULT_L)
        zero = ScalarField(g, np.zeros(g.shape))
        spectral.newtonian_potential_div([zero, zero, zero])
        kvec, nhat = spectral._kernel_hat(g)
        cached = kvec + (nhat,)
        assert not any(a.flags.writeable for a in cached)
        assert not any(np.iscomplexobj(a) for a in cached)
        n = 2 * g.n
        budget = n * n * (n // 2 + 1) * 8 + sum(a.nbytes for a in kvec)
        assert sum(a.nbytes for a in cached) <= budget
        assert max(a.size for a in kvec) == n

    def test_unit_ball_center_value(self, grid64):
        f = ball_indicator(grid64, 1.0)
        pot = spectral.newtonian_potential(f)
        mass = np.sum(f.values) * grid64.cell_volume
        c = np.argmin(np.abs(grid64.x))
        got = pot.values[c, c, c] / mass
        assert np.isclose(got, -3.0 / (8.0 * np.pi), rtol=5e-3)

    def test_far_field_monopole(self, grid64):
        f = smooth_radial_cutoff(grid64, 0.6, 1.4)
        pot = spectral.newtonian_potential(f)
        mass = np.sum(f.values) * grid64.cell_volume
        c = np.argmin(np.abs(grid64.x))
        i = np.argmin(np.abs(grid64.x - 3.0))
        r = abs(grid64.x[i])
        assert np.isclose(pot.values[i, c, c], -mass / (4.0 * np.pi * r), rtol=1e-5)

    def test_gradient_kernel_far_field(self, grid64):
        # wide ramp: the convolution is exact for the interpolant, so the
        # far-field error is set by how well the grid resolves the source;
        # with zero partner sources each term d_j (N * f) stands alone
        f = smooth_radial_cutoff(grid64, 0.3, 2.0)
        zero = ScalarField(grid64, np.zeros(grid64.shape))
        gx, gy, gz = (
            spectral.newtonian_potential_div([f if k == j else zero for k in range(3)])
            for j in range(3)
        )
        mass = np.sum(f.values) * grid64.cell_volume
        c = np.argmin(np.abs(grid64.x))
        i = np.argmin(np.abs(grid64.x - 3.0))
        r = abs(grid64.x[i])
        assert np.isclose(gx.values[i, c, c], mass / (4.0 * np.pi * r ** 2), rtol=1e-4)
        assert abs(gy.values[i, c, c]) <= 1e-8
        assert abs(gz.values[i, c, c]) <= 1e-8

    def test_support_violation_rejected(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        with pytest.raises(ValueError):
            spectral.newtonian_potential(f)

    @pytest.mark.parametrize("count", [2, 4])
    def test_divergence_potential_needs_three_sources(self, grid32, count):
        zero = ScalarField(grid32, np.zeros(grid32.shape))
        with pytest.raises(ValueError, match="3 sources, got %d" % count):
            spectral.newtonian_potential_div([zero] * count)

    def test_laplacian_inverts_potential(self):
        # 4th-order stencil on the interior ball; the periodic spectral
        # Laplacian would see the wrap seam of the non-periodic potential
        grid = Grid(128, DEFAULT_L)
        f = smooth_radial_cutoff(grid, 0.2, 2.0)
        pot = spectral.newtonian_potential(f)
        v, dx = pot.values, grid.dx
        lap = np.zeros_like(v)
        for ax in range(3):
            lap += (
                -np.roll(v, 2, ax)
                + 16 * np.roll(v, 1, ax)
                - 30 * v
                + 16 * np.roll(v, -1, ax)
                - np.roll(v, -2, ax)
            ) / (12 * dx ** 2)
        inside = grid.radius() < 0.25 * grid.L
        err = np.sqrt(np.sum((lap - f.values)[inside] ** 2))
        ref = np.sqrt(np.sum(f.values[inside] ** 2))
        assert err <= 1e-3 * ref


class TestDerivativesAndDealias:
    def test_derivative_single_mode(self, grid32):
        k = grid32.k0
        X, _, _ = grid32.coords()
        f = ScalarField(grid32, np.cos(3 * k * X) + np.zeros(grid32.shape))
        out = spectral.derivative(f, 0)
        want = -3 * k * np.sin(3 * k * X) + np.zeros(grid32.shape)
        assert np.allclose(out.values, want, atol=1e-12)

    def test_laplacian_single_mode(self, grid32):
        k = grid32.k0
        _, Y, _ = grid32.coords()
        f = ScalarField(grid32, np.sin(2 * k * Y) + np.zeros(grid32.shape))
        out = spectral.laplacian(f)
        assert np.allclose(out.values, -(2 * k) ** 2 * f.values, atol=1e-12)

    def test_divergence_of_gradient_is_laplacian(self, grid32, rng):
        f = corpus.random_scalar(grid32, rng, kmax=8)
        a = spectral.divergence(spectral.gradient(f))
        b = spectral.laplacian(f)
        assert np.allclose(a.values, b.values, rtol=1e-11, atol=1e-11)

    def test_dealias_removes_high_modes(self, grid32):
        k = grid32.k0
        X, _, _ = grid32.coords()
        m_hi = grid32.n // 3 + 1
        f = ScalarField(
            grid32,
            np.cos(2 * k * X) + np.cos(m_hi * k * X) + np.zeros(grid32.shape),
        )
        out = spectral.dealias(f)
        want = np.cos(2 * k * X) + np.zeros(grid32.shape)
        assert np.allclose(out.values, want, atol=1e-12)

    def test_tensor_divergence_of_taylor_green_is_gradient(self, grid32):
        # div(u x u) for the planar vortex is a pure gradient, so the
        # projection annihilates it
        from critnorm.fields import outer

        tg = taylor_green(grid32)
        nl = spectral.tensor_divergence(outer(tg, tg))
        out = spectral.leray_project(nl)
        assert np.max(np.abs(out.data)) <= 1e-12 * max(np.max(np.abs(nl.data)), 1.0)


class TestEvaluateAtPoints:
    def test_matches_closed_form(self, grid32):
        k = grid32.k0
        tg = taylor_green(grid32)
        f = tg.component(0)
        pts = (
            np.array([0.1, -2.3, 3.0]),
            np.array([0.7, -0.2]),
            np.array([1.9, 0.0, -0.4]),
        )
        got = spectral.evaluate_at_points(f.grid, pts, f.hat)
        X, Y, Z = np.meshgrid(*pts, indexing="ij")
        want = np.cos(k * X) * np.sin(k * Y) + 0.0 * Z
        assert np.allclose(got, want, atol=1e-13)

    def test_matches_direct_dft_sum(self, grid16, rng):
        # brute-force trigonometric sum as the independent evaluator
        f = corpus.random_scalar(grid16, rng, kmax=5)
        coeffs = np.fft.fftn(f.values) / grid16.n ** 3
        k1 = grid16.k0 * grid16.modes
        pts = (
            np.array([0.33, -1.7]),
            np.array([0.0, 2.2]),
            np.array([-0.9]),
        )
        got = spectral.evaluate_at_points(f.grid, pts, f.hat)
        want = np.zeros((2, 2, 1), dtype=complex)
        for ix, px in enumerate(pts[0]):
            for iy, py in enumerate(pts[1]):
                for iz, pz in enumerate(pts[2]):
                    phase = np.exp(
                        1j
                        * (
                            k1[:, None, None] * (px - grid16.x[0])
                            + k1[None, :, None] * (py - grid16.x[0])
                            + k1[None, None, :] * (pz - grid16.x[0])
                        )
                    )
                    want[ix, iy, iz] = np.sum(coeffs * phase)
        assert np.allclose(got, want.real, atol=1e-12)

    def test_reproduces_grid_values(self, grid16, rng):
        f = corpus.random_scalar(grid16, rng, kmax=5)
        pts = (grid16.x[:4], grid16.x[:3], grid16.x[:5])
        got = spectral.evaluate_at_points(f.grid, pts, f.hat)
        assert np.allclose(got, f.values[:4, :3, :5], atol=1e-12)


class TestCorpusFields:
    def test_random_divfree_is_divergence_free(self, grid32, rng):
        u = corpus.random_divfree(grid32, rng)
        assert spectral.divergence(u).l2() <= 1e-10 * u.l2()

    def test_compact_bump_support_exact(self, grid64):
        u = corpus.compact_divfree_bump(grid64)
        outside = grid64.radius() > 1.3 + 1e-12
        assert np.max(np.abs(u.data[:, outside])) == 0.0
        # solenoidal in the continuum; discrete divergence shrinks with n
        assert spectral.divergence(u).l2() <= 0.05 * u.l2()

    def test_curl_bump_discretely_solenoidal(self, grid32):
        u = corpus.curl_bump(grid32)
        assert spectral.divergence(u).l2() <= 1e-12 * u.l2()
        far = grid32.radius() > 2.5
        assert np.max(np.abs(u.data[:, far])) <= 1e-2 * np.max(u.magnitude())

    def test_inverse_radius_magnitude_on_plane(self, grid64):
        # swirl magnitude is rho * g(r); on the z = 0 plane rho equals r
        u = corpus.inverse_radius_field(grid64, 0.4, 3.0)
        c = int(np.argmin(np.abs(grid64.x)))
        mag = u.magnitude()[:, :, c]
        r = grid64.radius()[:, :, c]
        band = (r > 0.5) & (r < 2.0)
        assert np.allclose(mag[band] * r[band], 1.0, rtol=1e-6)
