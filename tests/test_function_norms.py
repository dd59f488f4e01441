import math

import numpy as np
import pytest

from critnorm.cylinder import ball_mask
from critnorm.fields import (
    ScalarField,
    SpaceTimeField,
    VectorField,
    ball_indicator,
    gaussian_bump,
)
from critnorm.norms import (
    BallRegion,
    NormReport,
    check_hunt,
    check_oneil,
    l2_uloc,
    lorentz_quasinorm,
    lp_ball,
    morrey_critical,
    parabolic_holder_seminorm,
    write_reports_csv,
)
from critnorm.spectral import evaluate_at_points, heat_semigroup

import testdata

B1 = BallRegion((0.0, 0.0, 0.0), 1.0)
BALL_VOL = 4.0 * np.pi / 3.0


def masked_inverse_radius(grid, r_in, r_out):
    r = grid.radius((0.0, 0.0, 0.0))
    vals = np.where(
        (r >= r_in) & (r <= r_out), 1.0 / np.maximum(r, 1e-300), 0.0
    )
    return ScalarField(grid, vals)


class TestRegionAndReport:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            BallRegion((0, 0, 0), 0.0)
        with pytest.raises(ValueError):
            BallRegion((0, 0, 0), -1.0)

    def test_ball_must_fit_with_margin(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        with pytest.raises(ValueError):
            lp_ball(f, 2, BallRegion((0, 0, 0), grid32.L / 2))

    def test_ball_mask_is_cell_center_membership(self, grid32):
        for center, radius in [((0, 0, 0), 1.0), ((0.3, -0.7, 1.1), 1.2), ((4.0, 0, 0), 0.5)]:
            want = grid32.radius(center) <= radius
            assert np.array_equal(ball_mask(grid32, BallRegion(center, radius)), want)
        with pytest.raises(ValueError, match="does not fit"):
            ball_mask(grid32, BallRegion((0, 0, 0), grid32.L / 2 - grid32.dx / 2))
        with pytest.raises(ValueError, match="no cell centers"):
            ball_mask(grid32, BallRegion((grid32.dx / 2, 0, 0), grid32.dx / 4))

    def test_report_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NormReport("x", -1.0, None, "m")
        with pytest.raises(ValueError):
            NormReport("x", math.nan, None, "m")


class TestLpBall:
    def test_constant_on_unit_ball(self, grid64):
        f = ScalarField(grid64, np.ones(grid64.shape))
        rep = lp_ball(f, 3, B1)
        assert abs(rep.value - BALL_VOL ** (1 / 3)) <= 2 * grid64.dx
        g = ScalarField(grid64, 2.5 * np.ones(grid64.shape))
        assert abs(lp_ball(g, 3, B1).value - 2.5 * BALL_VOL ** (1 / 3)) <= 5 * grid64.dx

    def test_zero_field(self, grid64):
        f = ScalarField(grid64, np.zeros(grid64.shape))
        assert lp_ball(f, 3, B1).value == 0.0

    def test_masked_inverse_radius_l2(self, grid64):
        f = masked_inverse_radius(grid64, 0.1, 1.0)
        oracle = math.sqrt(4 * np.pi * 0.9)
        assert np.isclose(lp_ball(f, 2, B1).value, oracle, rtol=0.02)

    def test_sup_norm_is_max_over_cells(self, grid32):
        f = ScalarField(grid32, 3.7 * ball_indicator(grid32, 0.8).values)
        assert lp_ball(f, math.inf, B1).value == 3.7

    def test_empty_cell_set_rejected(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        off_lattice = tuple(grid32.dx / 2 + c for c in (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            lp_ball(f, 2, BallRegion(off_lattice, grid32.dx / 4))

    def test_p_below_one_rejected(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        with pytest.raises(ValueError):
            lp_ball(f, 0.9, B1)

    def test_vector_field_uses_magnitude(self, grid32):
        u = testdata.taylor_green(grid32)
        mag = ScalarField(grid32, u.magnitude())
        assert np.isclose(
            lp_ball(u, 3, B1).value, lp_ball(mag, 3, B1).value, rtol=1e-12
        )


class TestL2Uloc:
    def test_constant_field(self, grid64):
        f = ScalarField(grid64, np.ones(grid64.shape))
        rep = l2_uloc(f)
        assert np.isclose(rep.value, math.sqrt(BALL_VOL), rtol=0.02)
        assert rep.region.radius == 1.0

    def test_zero_field(self, grid32):
        f = ScalarField(grid32, np.zeros(grid32.shape))
        assert l2_uloc(f).value == 0.0

    def test_indicator_attained_at_bump(self, grid64):
        f = ball_indicator(grid64, 1.0)
        rep = l2_uloc(f)
        assert np.isclose(rep.value, lp_ball(f, 2, B1).value, rtol=1e-9)
        assert rep.region.center == (0.0, 0.0, 0.0)


class TestLorentz:
    def test_indicator_weak_l3(self, grid64):
        f = ball_indicator(grid64, 1.0)
        rep = lorentz_quasinorm(f, 3, math.inf, B1)
        assert np.isclose(rep.value, BALL_VOL ** (1 / 3), rtol=0.02)
        cells = int(np.sum(grid64.radius((0, 0, 0)) <= 1.0))
        assert np.isclose(
            rep.value, (cells * grid64.cell_volume) ** (1 / 3), rtol=1e-12
        )

    def test_indicator_pp_equals_weak(self, grid64):
        # (p/q)^{1/q} = 1 at q = p, so both reduce to |B|^{1/p} exactly
        f = ball_indicator(grid64, 1.0)
        a = lorentz_quasinorm(f, 3, 3, B1).value
        b = lorentz_quasinorm(f, 3, math.inf, B1).value
        assert np.isclose(a, b, rtol=1e-12)

    def test_zero_field(self, grid32):
        f = ScalarField(grid32, np.zeros(grid32.shape))
        assert lorentz_quasinorm(f, 3, math.inf, B1).value == 0.0

    def test_critical_profile_weak_l3(self, grid64):
        # 1/|x| clipped at the 4 dx level: every level set below the clip is
        # a lattice ball, so the sup sits within the lattice-count
        # fluctuation (a few percent at these radii) of the continuum value
        base = testdata.inverse_square_scalar(grid64, r_outer=1.0)
        clip = 1.0 / (4 * grid64.dx)
        f = ScalarField(grid64, np.minimum(base.values, clip))
        rep = lorentz_quasinorm(f, 3, math.inf, B1)
        assert np.isclose(rep.value, BALL_VOL ** (1 / 3), rtol=0.04)

    def test_pp_matches_lp_exactly(self, grid32, rng):
        f = testdata.random_scalar(grid32, rng)
        assert np.isclose(
            lorentz_quasinorm(f, 2.5, 2.5, B1).value,
            lp_ball(f, 2.5, B1).value,
            rtol=1e-10,
        )

    def test_pp_matches_lp_on_smooth_corpus(self, grid32, rng):
        for _ in range(3):
            f = testdata.random_scalar(grid32, rng)
            assert np.isclose(
                lorentz_quasinorm(f, 3, 3, B1).value,
                lp_ball(f, 3, B1).value,
                rtol=0.01,
            )

    def test_exponent_gates(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        for bad_p in (1.0, 0.5, math.inf):
            with pytest.raises(ValueError):
                lorentz_quasinorm(f, bad_p, 2, B1)
        with pytest.raises(ValueError):
            lorentz_quasinorm(f, 3, 0.5, B1)

    @pytest.mark.parametrize(
        "p,q1,q2",
        [
            (3.0, 1.0, 2.0),
            (3.0, 2.0, 3.0),
            (3.0, 3.0, 4.0),
            (3.0, 3.0, math.inf),
            (3.0, 1.0, math.inf),
            (2.0, 1.0, 2.0),
            (2.0, 2.0, math.inf),
            (1.5, 1.5, math.inf),
            (5.0, 2.0, 5.0),
            (5.0, 5.0, math.inf),
        ],
    )
    def test_nesting(self, grid32, rng, p, q1, q2):
        # constant-one embedding needs q1 <= p with this normalization;
        # pairs are kept in that range
        members = [
            testdata.random_scalar(grid32, rng),
            gaussian_bump(grid32, 0.4),
            ball_indicator(grid32, 0.8),
            masked_inverse_radius(grid32, 2 * grid32.dx, 1.0),
        ]
        for f in members:
            hi = lorentz_quasinorm(f, p, q1, B1).value
            lo = lorentz_quasinorm(f, p, q2, B1).value
            assert lo <= hi * (1 + 1e-12)

    def test_monotone_in_region(self, grid32, rng):
        f = testdata.random_scalar(grid32, rng)
        small = BallRegion((0, 0, 0), 0.6)
        assert (
            lorentz_quasinorm(f, 3, math.inf, small).value
            <= lorentz_quasinorm(f, 3, math.inf, B1).value
        )
        assert (
            lorentz_quasinorm(f, 3, math.inf, B1).value
            <= lorentz_quasinorm(f, 3, math.inf, None).value
        )
        assert lp_ball(f, 2, small).value <= lp_ball(f, 2, B1).value


class TestMorrey:
    def test_critical_profile_is_radius_flat(self, grid64):
        f = testdata.inverse_square_scalar(grid64)
        oracle = math.sqrt(4 * np.pi)
        rep = morrey_critical(f, [(0.0, 0.0, 0.0)], 2 * grid64.dx, 1.0)
        assert np.isclose(rep.value, oracle, rtol=0.05)
        for r in (1.0, 0.5, 0.3, 2 * grid64.dx):
            val = lp_ball(f, 2, BallRegion((0, 0, 0), r)).value / math.sqrt(r)
            assert np.isclose(val, oracle, rtol=0.05)

    def test_zero_field(self, grid32):
        f = ScalarField(grid32, np.zeros(grid32.shape))
        assert morrey_critical(f, [(0, 0, 0)], 0.6, 1.0).value == 0.0

    def test_indicator_peaks_at_unit_radius(self, grid64):
        f = ball_indicator(grid64, 1.0)
        rep = morrey_critical(f, [(0, 0, 0)], 0.4, 2.0)
        assert rep.region.radius == 1.0
        assert np.isclose(rep.value, math.sqrt(BALL_VOL), rtol=0.03)

    def test_off_center_does_not_win(self, grid64):
        f = ball_indicator(grid64, 1.0)
        rep = morrey_critical(
            f, [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0)], 0.5, 1.0
        )
        assert rep.region.center == (0.0, 0.0, 0.0)

    def test_small_radius_rejected(self, grid32):
        f = ScalarField(grid32, np.ones(grid32.shape))
        with pytest.raises(ValueError):
            morrey_critical(f, [(0, 0, 0)], grid32.dx, 1.0)


class TestParabolicHolder:
    def test_constant_is_zero(self, grid32):
        frames = np.ones((3,) + grid32.shape)
        u = SpaceTimeField(grid32, [0.0, 0.1, 0.2], frames)
        assert parabolic_holder_seminorm(u, 0.25, B1).value == 0.0

    def test_linear_in_time(self, grid32):
        times = np.linspace(0.0, 0.8, 5)
        frames = np.array([t * np.ones(grid32.shape) for t in times])
        u = SpaceTimeField(grid32, times, frames)
        nu = 0.3
        assert np.isclose(
            parabolic_holder_seminorm(u, nu, B1).value, 0.8 ** (1 - nu), rtol=1e-12
        )

    def test_vector_uses_difference_magnitude(self, grid32):
        times = np.linspace(0.0, 0.8, 5)
        frames = np.zeros((5, 3) + grid32.shape)
        for i, t in enumerate(times):
            frames[i, 0] = t
        u = SpaceTimeField(grid32, times, frames)
        assert np.isclose(
            parabolic_holder_seminorm(u, 0.3, B1).value, 0.8**0.7, rtol=1e-12
        )

    def test_heat_bump_smooths(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        times = 0.02 * np.arange(1, 9)
        frames = np.array([heat_semigroup(bump, t).values for t in times])
        u = SpaceTimeField(grid32, times, frames)
        full = parabolic_holder_seminorm(u, 0.25, B1)
        # the later frames t = 0.1 .. 0.16 alone: the flow has smoothed them
        later = SpaceTimeField(grid32, times[4:], frames[4:])
        late = parabolic_holder_seminorm(later, 0.25, B1)
        assert 0 < late.value < full.value

    def test_rejections(self, grid32):
        frames = np.ones((3,) + grid32.shape)
        u = SpaceTimeField(grid32, [0.0, 0.1, 0.2], frames)
        with pytest.raises(ValueError):
            parabolic_holder_seminorm(u, 0.7, B1)
        single = SpaceTimeField(grid32, [0.0], np.ones((1,) + grid32.shape))
        with pytest.raises(ValueError):
            parabolic_holder_seminorm(single, 0.25, B1)


class TestOneil:
    def test_forced_infinite_r_rejected(self, grid16):
        f = ball_indicator(grid16, 1.0)
        with pytest.raises(ValueError):
            check_oneil(f, f, (2, math.inf, 2, math.inf, math.inf, math.inf))

    def test_gaussian_pair_within_constant(self, grid32):
        f = gaussian_bump(grid32, 0.5)
        rep = check_oneil(f, f, (1.5, math.inf, 1.5, math.inf, 3, math.inf))
        assert rep.passed
        assert 0 < rep.ratio <= 1.0
        assert np.isclose(rep.lhs, rep.ratio * rep.rhs, rtol=1e-12)

    def test_zero_factor(self, grid16):
        z = ScalarField(grid16, np.zeros(grid16.shape))
        f = ball_indicator(grid16, 1.0)
        rep = check_oneil(z, f, (1.5, math.inf, 1.5, math.inf, 3, math.inf))
        assert rep.ratio == 0.0 and rep.passed

    def test_exponent_gates(self, grid16):
        f = ball_indicator(grid16, 1.0)
        with pytest.raises(ValueError):
            check_oneil(f, f, (1.5, math.inf, 1.5, math.inf, 4, math.inf))
        with pytest.raises(ValueError):
            check_oneil(f, f, (1.5, math.inf, 1.5, math.inf, 3, 2))

    def test_vector_field_is_refused(self, grid16):
        f = ball_indicator(grid16, 1.0)
        v = VectorField(grid16, np.stack([f.values] * 3))
        for pair in ((v, f), (f, v)):
            with pytest.raises(ValueError, match="convolution check takes scalar fields"):
                check_oneil(*pair, (1.5, math.inf, 1.5, math.inf, 3, math.inf))


class TestHunt:
    def test_zero_factor(self, grid16):
        z = ScalarField(grid16, np.zeros(grid16.shape))
        f = ball_indicator(grid16, 1.0)
        rep = check_hunt(z, f, (3, math.inf, 2, 2, 1.2, 2))
        assert rep.ratio == 0.0

    def test_weak3_times_indicator(self, grid64):
        base = testdata.inverse_square_scalar(grid64, r_outer=1.0)
        clip = 1.0 / (4 * grid64.dx)
        f = ScalarField(grid64, np.minimum(base.values, clip))
        g = ball_indicator(grid64, 1.0)
        rep = check_hunt(f, g, (3, math.inf, 2, 2, 1.2, 2), region=B1)
        assert np.isfinite(rep.ratio) and rep.ratio > 0
        assert rep.passed is None
        assert np.isclose(rep.lhs, rep.ratio * rep.rhs, rtol=1e-12)

    def test_indicator_product_algebra(self, grid32):
        f = ball_indicator(grid32, 1.0)
        rep = check_hunt(f, f, (3, math.inf, 6, math.inf, 2, math.inf))
        assert np.isclose(rep.ratio, 1.0, rtol=1e-12)

    def test_exponent_gates(self, grid16):
        f = ball_indicator(grid16, 1.0)
        with pytest.raises(ValueError):
            check_hunt(f, f, (3, math.inf, 2, 2, 2.0, 2))
        with pytest.raises(ValueError):
            check_hunt(f, f, (3, math.inf, 2, 2, 1.2, 3))


class TestScalingInvariance:
    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_lp_ball_scaling(self, grid64, lam):
        f = gaussian_bump(grid64, 0.35)
        coords = [lam * grid64.x] * 3
        scaled = ScalarField(grid64, lam * evaluate_at_points(grid64, coords, f.hat))
        a = lp_ball(scaled, 3, BallRegion((0, 0, 0), 1.0 / lam)).value
        b = lp_ball(f, 3, B1).value
        assert np.isclose(a, b, rtol=0.06)


class TestReportsCSV:
    def test_layout_and_ordering(self, tmp_path, grid32):
        f = ball_indicator(grid32, 1.0)
        reports = [
            lp_ball(f, 2, B1),
            l2_uloc(f),
            NormReport("a", 1.5, None, "direct"),
        ]
        path = tmp_path / "reports.csv"
        write_reports_csv(path, reports)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "name,value,center,radius,method"
        assert len(lines) == 4
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names)
        assert any(",1," in line or ", 1," in line for line in lines)
