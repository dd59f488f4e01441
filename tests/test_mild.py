import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnorm import corpus, mild
from critnorm.fields import (
    Grid,
    ScalarField,
    SpaceTimeField,
    VectorField,
    taylor_green_3d,
)
from critnorm.norms import box_lp
from critnorm.spectral import curl, divergence, heat_semigroup, leray_project

import testdata


def constant_orbit(grid, values, dt=0.05, T=0.5):
    ts = mild.DuhamelConfig(dt=dt, T=T).times()
    return ts, SpaceTimeField(grid, ts, np.repeat(values[None], len(ts), axis=0))


def random_vector_orbit(grid, rng, ts, kmax=3):
    return SpaceTimeField(
        grid, ts, np.stack([corpus.random_divfree(grid, rng, kmax=kmax).data for _ in ts])
    )


def gauss_curl(grid, lam, sigma=0.8, eps=0.02):
    # u0 = curl A with A a Gaussian z-potential: dilates exactly as
    # lam * u0(lam x) when the potential is sampled at scale sigma / lam
    r = grid.radius((0.0, 0.0, 0.0))
    zero = np.zeros(grid.shape)
    Az = np.exp(-0.5 * (lam * r / sigma) ** 2)
    return curl(VectorField(grid, np.stack([zero, zero, eps * Az])))


class TestConfig:
    def test_gates(self):
        with pytest.raises(ValueError):
            mild.DuhamelConfig(dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            mild.DuhamelConfig(dt=0.5, T=0.2)
        with pytest.raises(ValueError):
            mild.DuhamelConfig(dt=0.3, T=1.0)  # not an integer step count

    def test_times(self):
        ts = mild.DuhamelConfig(dt=0.25, T=1.0).times()
        assert np.allclose(ts, [0.0, 0.25, 0.5, 0.75, 1.0])


class TestDuhamel:
    def test_zero(self, grid16):
        ts, f = constant_orbit(grid16, np.zeros(grid16.shape))
        assert np.max(np.abs(mild.duhamel(f).frames)) == 0.0

    def test_constant_mode_exact(self, grid32):
        # integrand constant in time: the left-endpoint rule telescopes
        # to the exact per-mode answer (1 - e^{-k^2 t}) / k^2
        X, Y, Z = grid32.coords()
        vals = 0.9 * np.cos(grid32.k0 * (2 * X + 2 * Y)) + 0.0 * Z
        ts, f = constant_orbit(grid32, vals)
        Lf = mild.duhamel(f)
        for i, t in enumerate(ts):
            exact = vals * (1.0 - math.exp(-4.0 * t)) / 4.0
            assert np.max(np.abs(Lf.frames[i] - exact)) <= 1e-13

    def test_first_slice_consistency(self, grid16):
        # a single-slice source approximates e^{t Lap}(f dt) to O(dt)
        bump = testdata.random_scalar(grid16, np.random.default_rng(7), kmax=4)

        def gap(dt):
            ts = mild.DuhamelConfig(dt=dt, T=0.5).times()
            fr = np.zeros((len(ts),) + grid16.shape)
            fr[0] = bump.values
            Lf = mild.duhamel(SpaceTimeField(grid16, ts, fr))
            ref = heat_semigroup(bump, float(ts[-1])).values * dt
            return np.max(np.abs(Lf.frames[-1] - ref)) / np.max(np.abs(ref))

        g1, g2 = gap(0.05), gap(0.025)
        assert 1.7 <= g1 / g2 <= 2.4

    def test_first_order_for_a_time_varying_source(self):
        # f = t cos(k0 x): the left-endpoint rule misses the growth of f
        # over each step, so the error at T halves with dt; per mode the
        # exact answer is T/k^2 - (1 - e^{-k^2 T})/k^4
        grid = Grid(8, 2.0 * math.pi * math.sqrt(2.0))
        mode = np.broadcast_to(np.cos(grid.k0 * grid.coords()[0]), grid.shape)
        T, k2 = 0.5, grid.k0**2
        exact = (T / k2 - (1.0 - math.exp(-k2 * T)) / k2**2) * mode

        def error(m):
            ts = mild.DuhamelConfig(dt=T / m, T=T).times()
            Lf = mild.duhamel(SpaceTimeField(grid, ts, ts[:, None, None, None] * mode))
            return np.max(np.abs(Lf.frames[-1] - exact))

        errors = [error(m) for m in (8, 16, 32, 64)]
        ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
        assert all(1.9 <= q <= 2.1 for q in ratios), ratios  # measured 2.005, 2.003, 2.001

    def test_linearity(self, grid16, rng):
        ts = mild.DuhamelConfig(dt=0.1, T=0.4).times()
        f = random_vector_orbit(grid16, rng, ts)
        g = random_vector_orbit(grid16, rng, ts)
        combo = SpaceTimeField(grid16, ts, 2.0 * f.frames - 0.5 * g.frames)
        direct = mild.duhamel(combo).frames
        split = 2.0 * mild.duhamel(f).frames - 0.5 * mild.duhamel(g).frames
        assert np.max(np.abs(direct - split)) <= 1e-12 * np.max(np.abs(direct))

    def test_rejects_shifted_origin(self, grid16):
        ts = 0.1 + mild.DuhamelConfig(dt=0.1, T=0.3).times()
        fr = np.zeros((len(ts),) + grid16.shape)
        with pytest.raises(ValueError):
            mild.duhamel(SpaceTimeField(grid16, ts, fr))


class TestDuhamelDiv:
    def test_zero_and_rank_gate(self, grid16):
        ts = mild.DuhamelConfig(dt=0.1, T=0.3).times()
        F = SpaceTimeField(grid16, ts, np.zeros((len(ts), 3, 3) + grid16.shape))
        assert np.max(np.abs(mild.duhamel_div(F).frames)) == 0.0
        v = SpaceTimeField(grid16, ts, np.zeros((len(ts), 3) + grid16.shape))
        with pytest.raises(ValueError):
            mild.duhamel_div(v)

    def test_divergence_free_rows_vanish(self, grid16, rng):
        # every row the same solenoidal field: div T = 0 identically
        w = corpus.random_divfree(grid16, rng, kmax=3).data
        ts = mild.DuhamelConfig(dt=0.1, T=0.3).times()
        T = np.broadcast_to(
            w[None, None], (len(ts), 3, 3) + grid16.shape
        ).copy()
        out = mild.duhamel_div(SpaceTimeField(grid16, ts, T))
        assert np.max(np.abs(out.frames)) <= 1e-13 * np.max(np.abs(w))

    def test_constant_mode_exact(self, grid32):
        # F_xy = A sin(2 k0 y), |xi|^2 = 2: L(div F)_x = dyF (1-e^{-2t})/2
        _, Y, _ = grid32.coords()
        A = 0.8
        ts = mild.DuhamelConfig(dt=0.05, T=0.4).times()
        F = np.zeros((len(ts), 3, 3) + grid32.shape)
        F[:, 0, 1] = A * np.sin(2 * grid32.k0 * Y) + np.zeros(grid32.shape)
        out = mild.duhamel_div(SpaceTimeField(grid32, ts, F))
        root2 = math.sqrt(2.0)
        for i, t in enumerate(ts):
            exact = root2 * A * np.cos(root2 * Y) * (1 - math.exp(-2 * t)) / 2.0
            exact = exact + np.zeros(grid32.shape)
            assert np.max(np.abs(out.frames[i, 0] - exact)) <= 1e-12
            assert np.max(np.abs(out.frames[i, 1:])) <= 1e-12


class TestSpacetimeLebesgue:
    def test_constant_oracle(self, grid16):
        _, u = constant_orbit(grid16, np.ones(grid16.shape), dt=0.1, T=0.5)
        vol = grid16.L**3
        got = mild.spacetime_lebesgue(u, 3, 2)
        # |u| = 1 integrated over [0, T] x box, T = 0.5: no step past T
        assert np.isclose(got, 0.5 ** (1 / 3) * vol**0.5, rtol=1e-12)
        assert np.isclose(
            mild.spacetime_lebesgue(u, math.inf, math.inf), 1.0, rtol=1e-12
        )

    def test_gates(self, grid16):
        ts, u = constant_orbit(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError):
            mild.spacetime_lebesgue(u, 0.5, 2)


class TestEstimates:
    def test_reports(self, grid16, rng):
        ts = mild.DuhamelConfig(dt=0.05, T=0.4).times()
        f = random_vector_orbit(grid16, rng, ts, kmax=4)
        F = SpaceTimeField(
            grid16,
            ts,
            np.stack(
                [
                    np.einsum(
                        "i...,j...->ij...",
                        corpus.random_divfree(grid16, rng, kmax=4).data,
                        corpus.random_divfree(grid16, rng, kmax=4).data,
                    )
                    for _ in ts
                ]
            ),
        )
        a = random_vector_orbit(grid16, rng, ts, kmax=4)
        b = random_vector_orbit(grid16, rng, ts, kmax=4)
        reps = mild.check_duhamel_estimates(f=f, F=F, a=a, b=b)
        assert reps["time_triangle"].passed is True
        assert len(reps) == 9
        for rep in reps.values():
            assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
            assert rep.ratio >= 0

    def test_single_slice_triangle(self, grid16, rng):
        ts = mild.DuhamelConfig(dt=0.1, T=0.5).times()
        fr = np.zeros((len(ts), 3) + grid16.shape)
        fr[0] = corpus.random_divfree(grid16, rng, kmax=3).data
        reps = mild.check_duhamel_estimates(f=SpaceTimeField(grid16, ts, fr))
        assert reps["time_triangle"].passed is True

    def test_tensor_sup_dilation_slope(self, grid32):
        # heat orbits of exactly dilated data: the (a, b = 1) ratio is a
        # scaling invariant, measured slope ~1e-3 on this family
        ratios = {}
        for lam in (1.0, 2.0):
            u0 = gauss_curl(grid32, lam, sigma=0.9, eps=1.0)
            ts = np.linspace(0.0, 0.4 / lam**2, 17)
            orbit = SpaceTimeField(
                grid32,
                ts,
                np.stack([heat_semigroup(u0, float(t)).data for t in ts]),
            )
            ones = SpaceTimeField(grid32, ts, np.ones_like(orbit.frames))
            rep = mild.check_duhamel_estimates(a=orbit, b=ones)
            ratios[lam] = rep["tensor_product_sup"].ratio
        slope = math.log(ratios[2.0] / ratios[1.0]) / math.log(2.0)
        assert abs(slope) <= 0.05


def scaled_drift(araw, smallness):
    return SpaceTimeField(araw.grid, araw.times,
                          araw.frames * (smallness / mild.drift_smallness(araw)))


class TestInversion:
    def make_problem(self, grid, T=0.3, seed=3):
        ts = mild.DuhamelConfig(dt=0.05, T=T).times()
        rng = np.random.default_rng(seed)
        f = random_vector_orbit(grid, rng, ts)
        araw = random_vector_orbit(grid, rng, ts)
        return ts, f, araw

    def test_zero_drift_identity(self, grid16):
        ts, f, _ = self.make_problem(grid16)
        a0 = SpaceTimeField(grid16, ts, np.zeros_like(f.frames))
        res = mild.invert_I_minus_La(f, a0)
        assert np.max(np.abs(res.u.frames - f.frames)) == 0.0
        assert res.contraction == 0.0

    def test_tiny_drift_neumann_tail(self, grid16):
        ts, f, araw = self.make_problem(grid16)
        a = scaled_drift(araw, 0.01)
        res = mild.invert_I_minus_La(f, a)
        assert res.smallness_ok and np.isclose(res.smallness, 0.01, rtol=1e-9)
        assert 0 < res.contraction < 1
        laf = mild.apply_La(f, a)
        lhs = mild._st_norm(grid16, ts, res.u.frames - f.frames, 2, 2)
        rhs = mild._st_norm(grid16, ts, laf.frames, 2, 2)
        assert lhs <= 2.0 * rhs

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=1e-4, max_value=0.05))
    def test_solution_solves_the_equation(self, grid16, seed, smallness):
        # u = f + L_a(u) to round-off: apply_La on u forms the spectra the
        # forward solve formed, so only the rounding of f_i + L_a(u)_i is left
        ts, f, araw = self.make_problem(grid16, seed=seed)
        a = scaled_drift(araw, smallness)
        res = mild.invert_I_minus_La(f, a)
        gap = res.u.frames - f.frames - mild.apply_La(res.u, a).frames
        size = mild._st_norm(grid16, ts, res.u.frames, 2, 2)
        assert mild._st_norm(grid16, ts, gap, 2, 2) <= 1e-14 * size

    def test_runaway_drift_is_refused(self, grid16):
        # 31 slices under 100 times the raw drift: the solution leaves f by
        # about 2e15 against a bound of about 1.3e7 (at 50 times it stays
        # near 4e6, under the bound)
        ts, f, araw = self.make_problem(grid16, T=1.5)
        a = SpaceTimeField(grid16, ts, araw.frames * 100.0)
        with pytest.raises(mild.PicardDivergence) as err:
            mild.invert_I_minus_La(f, a)
        bound = 1e6 * max(mild._st_norm(grid16, ts, f.frames, 2, 2), 1.0)
        sizes = err.value.history
        assert len(sizes) == len(ts) == 31
        assert sizes[0] == 0.0
        i = next(i for i, size in enumerate(sizes) if not size <= bound)
        msg = str(err.value)
        assert "= %.3g at t = %g" % (sizes[i], ts[i]) in msg
        assert "exceeds %.3g" % bound in msg
        assert "shrink the drift a or the horizon" in msg

    def test_gates(self, grid16):
        ts, f, araw = self.make_problem(grid16)
        short = SpaceTimeField(grid16, ts[:-1], araw.frames[:-1])
        with pytest.raises(ValueError):
            mild.apply_La(f, short)
        with pytest.raises(ValueError):
            mild.invert_I_minus_La(f, short)


@pytest.fixture
def stress_spectra(monkeypatch):
    """Counts the stress spectra the marches form."""
    calls = []
    inner = mild.sym_outer_hat

    def counted(u, w):
        calls.append(1)
        return inner(u, w)

    monkeypatch.setattr(mild, "sym_outer_hat", counted)
    return calls


def fresh_picard(grid, times, start, picard_map, cap, q, stop=0.0):
    """cap passes of u <- picard_map(u), fewer when an update's L^q norm is
    at most stop; returns (u, passes, history)."""
    cur, history = start, []
    for k in range(1, cap + 1):
        new = picard_map(cur)
        history.append(mild._st_norm(grid, times, new - cur, q, q))
        cur = new
        if history[-1] <= stop:
            break
    return cur, k, tuple(history)


class TestAgainstFreshLoops:
    def test_solve_mild_is_the_forward_solution(self, grid16, stress_spectra):
        # output i of the march reads slices before i only, so Picard pass p
        # is exact on slices 0..p and m - 1 passes give the discrete solution
        u0 = gauss_curl(grid16, 1.0, eps=0.1)
        cfg = mild.DuhamelConfig(dt=0.05, T=0.4)
        sol = mild.solve_mild(u0, cfg)
        times, m = cfg.times(), len(cfg.times())
        assert sol.iterations == 1
        # m - 1 for the forward pass; the residual reads its increments
        assert len(stress_spectra) == m - 1
        H = np.stack([heat_semigroup(u0, float(t)).data for t in times])
        # the residual a - H - L(a) of a second march over the final frames,
        # bit for bit
        march = mild._sym_duhamel(grid16, times, lambda j, v: 0.5 * v)
        resid = -((H - sol.a.frames) + march(sol.a.frames, np.zeros(H.shape)))
        assert [row["residual"] for row in sol.decay_table] == [
            mild.box_lp(grid16, r, 2) for r in resid]
        assert sol.residual == mild._st_norm(grid16, times, resid, 2, 2)
        anchor = mild._st_norm(grid16, times, H, 2, 2)
        tol = 1e-10  # Picard stops when an update's L^2_{t,x} norm is at most tol * anchor

        def picard_map(u):  # a march made from scratch on every pass
            march = mild._sym_duhamel(grid16, times, lambda j, v: 0.5 * v)
            return H + march(u, np.zeros(u.shape))

        exact, passes, _ = fresh_picard(grid16, times, H.copy(), picard_map, m - 1, 2.0)
        assert passes == m - 1
        assert np.array_equal(sol.a.frames, exact)
        a, k, _ = fresh_picard(grid16, times, H.copy(), picard_map, 60, 2.0, tol * anchor)
        assert 3 <= k < m - 1
        assert np.array_equal(a[: k + 1], sol.a.frames[: k + 1])
        gap = mild._st_norm(grid16, times, a - sol.a.frames, 2, 2)
        assert 0 < gap <= tol * anchor

    def test_inversion_is_the_fresh_loop(self, grid16, stress_spectra):
        # the same triangular structure: m - 1 passes of u <- f + L_a(u)
        ts, f, araw = TestInversion().make_problem(grid16)
        a = scaled_drift(araw, 0.02)
        res = mild.invert_I_minus_La(f, a)
        m = len(ts)
        assert len(stress_spectra) == m - 1

        def picard_map(u):  # the march of L(-P div(u x a + a x u)) = -L_a(u)
            march = mild._sym_duhamel(grid16, ts, lambda j, _: a.frames[j])
            return f.frames - march(u, np.zeros(u.shape))

        u, passes, _ = fresh_picard(grid16, ts, f.frames, picard_map, m - 1, 2.0)
        assert passes == m - 1
        assert np.array_equal(res.u.frames, u)


class TestSolveMild:
    def test_zero_data(self, grid16):
        u0 = VectorField(grid16, np.zeros((3,) + grid16.shape))
        sol = mild.solve_mild(u0, mild.DuhamelConfig(dt=0.1, T=0.4))
        assert np.max(np.abs(sol.a.frames)) == 0.0
        assert sol.k0_empirical == 0.0 and sol.residual == 0.0

    def test_gates(self, grid16):
        X, _, _ = grid16.coords()
        bad = VectorField(
            grid16,
            np.stack(
                [
                    np.sin(grid16.k0 * X) + np.zeros(grid16.shape),
                    np.zeros(grid16.shape),
                    np.zeros(grid16.shape),
                ]
            ),
        )
        cfg = mild.DuhamelConfig(dt=0.1, T=0.4)
        with pytest.raises(ValueError):
            mild.solve_mild(bad, cfg)
        with pytest.raises(ValueError):
            mild.solve_mild(ScalarField(grid16, np.zeros(grid16.shape)), cfg)
        u0 = gauss_curl(grid16, 1.0)
        with pytest.raises(ValueError):
            mild.solve_mild(u0, cfg, data_norm="l7")

    @pytest.mark.parametrize("kind", ["l3", "besov"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_besov_p_at_most_three_is_rejected_before_any_work(self, grid16, monkeypatch, kind, p):
        def no_work(*args):
            raise AssertionError("heat orbit computed before the exponent check")

        monkeypatch.setattr(mild, "heat_semigroup", no_work)
        cfg = mild.DuhamelConfig(dt=0.1, T=0.4)
        with pytest.raises(ValueError, match=r"-1 \+ 3/p is negative"):
            mild.solve_mild(gauss_curl(grid16, 1.0), cfg, data_norm=kind, besov_p=p)

    def test_linearization_is_quadratic(self, grid32):
        # small data: a - e^{t Lap} u0 shrinks by 4 when eps halves
        cfg = mild.DuhamelConfig(dt=0.05, T=0.5)

        def gap(eps):
            u0 = VectorField(grid32, taylor_green_3d(grid32).data * eps)
            sol = mild.solve_mild(u0, cfg)
            H = np.stack(
                [heat_semigroup(u0, float(t)).data for t in sol.a.times]
            )
            return (
                mild._st_norm(grid32, sol.a.times, sol.a.frames - H, 2, 2),
                sol,
            )

        g1, sol = gap(0.05)
        g2, _ = gap(0.025)
        assert 3.5 <= g1 / g2 <= 4.5
        assert sol.residual_rel <= 1e-9
        kmax = math.sqrt(float(np.max(grid32.k2)))
        for i in range(len(sol.a)):
            assert divergence(sol.a[i]).l2() <= 1e-10 * kmax * max(sol.a[i].l2(), 1e-30)

    def test_dilation_invariant_decay_sups(self, grid32):
        base = mild.solve_mild(
            gauss_curl(grid32, 1.0), mild.DuhamelConfig(dt=0.02, T=1.0)
        )
        dil = mild.solve_mild(
            gauss_curl(grid32, 2.0), mild.DuhamelConfig(dt=0.005, T=0.25)
        )
        for key in ("t15_l5", "t18_l4", "t12_linf"):
            hi = max(r[key] for r in base.decay_table)
            lo = max(r[key] for r in dil.decay_table)
            assert abs(lo / hi - 1.0) <= 0.05

    def test_nonlinear_runaway_raises(self, grid16):
        u0 = VectorField(grid16, taylor_green_3d(grid16).data * 60.0)
        with pytest.raises(mild.PicardDivergence) as err:
            mild.solve_mild(u0, mild.DuhamelConfig(dt=0.05, T=0.5))
        # the refusal names the slice, its size and the bound, and what to change
        times = mild.DuhamelConfig(dt=0.05, T=0.5).times()
        H = np.stack([heat_semigroup(u0, float(t)).data for t in times])
        bound = 1e6 * max(mild._st_norm(grid16, times, H, 2, 2), 1.0)
        sizes = err.value.history
        assert len(sizes) == len(times)
        i = next(i for i, size in enumerate(sizes) if not size <= bound)
        msg = str(err.value)
        assert "= %.3g at t = %g" % (sizes[i], times[i]) in msg
        assert "exceeds %.3g" % bound in msg
        assert "shrink the data or the horizon" in msg

    def test_decay_csv(self, grid16, tmp_path):
        sol = mild.solve_mild(
            gauss_curl(grid16, 1.0), mild.DuhamelConfig(dt=0.1, T=0.4)
        )
        path = tmp_path / "decay.csv"
        mild.write_decay_csv(path, sol)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,t15_l5,t18_l4,t12_linf,residual"
        assert len(lines) == len(sol.decay_table) + 1


class TestMildVariants:
    def test_weak_l3_and_decay_slope(self, grid64):
        # critical swirl: the resolved t^{-1/5} window sits below the
        # spectral-gap time 1/k0^2; measured fit -0.215 on [0.03, 0.09]
        from critnorm.norms import lorentz_quasinorm

        u0 = leray_project(
            testdata.inverse_radius_field(grid64, 2 * grid64.dx, 3.5, amplitude=0.02)
        )
        sol = mild.solve_mild(
            u0, mild.DuhamelConfig(dt=0.005, T=0.1), data_norm="weak_l3"
        )
        assert np.isclose(
            sol.data_norm, lorentz_quasinorm(u0, 3, math.inf).value, rtol=1e-12
        )
        assert 0 < sol.k0_empirical < 20
        assert "weak3" in sol.decay_table[0]
        ts = np.array([r["t"] for r in sol.decay_table])
        l5 = np.array([r["t15_l5"] for r in sol.decay_table])
        m = (ts >= 0.03 - 1e-12) & (ts <= 0.09 + 1e-12)
        slope = np.polyfit(np.log(ts[m]), np.log(l5[m]) - 0.2 * np.log(ts[m]), 1)[0]
        assert -0.25 < slope < -0.15

    def test_besov_variant(self, grid16):
        u0 = gauss_curl(grid16, 1.0)
        cfg = mild.DuhamelConfig(dt=0.05, T=0.4)
        sol = mild.solve_mild(u0, cfg, data_norm="besov", besov_p=6.0)
        expect = max(
            float(t) ** 0.25 * box_lp(grid16, heat_semigroup(u0, float(t)).data, 6)
            for t in cfg.times()
            if t > 0
        )
        assert np.isclose(sol.data_norm, expect, rtol=1e-12)
        assert sol.k0_empirical > 0
