import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from critnorm import corpus, pns
from critnorm._fft import irfftn, rfftn
from critnorm.fields import (
    ScalarField,
    SpaceTimeField,
    VectorField,
    smooth_radial_cutoff,
    taylor_green_3d,
)
from critnorm.spectral import (
    divergence,
    gradient,
    laplacian,
    neg_leray_div_hat,
    sym_outer_hat,
)

import testdata

K0 = 1.0 / np.sqrt(2.0)


def heat_drift(field):
    from critnorm.spectral import heat_semigroup

    def provider(t):
        return heat_semigroup(field, max(t, 0.0))

    return provider


class TestConfig:
    def test_gates(self):
        with pytest.raises(ValueError):
            pns.PNSConfig(dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            pns.PNSConfig(dt=0.1, T=0.05)
        with pytest.raises(ValueError):
            pns.PNSConfig(dt=0.1, T=1.0, stride=0)
        with pytest.raises(ValueError):
            pns.PNSConfig(dt=0.3, T=1.0)  # not an integer number of steps
        with pytest.raises(ValueError):
            pns.PNSConfig(dt=0.1, T=1.0, stride=3)  # 10 steps, stride 3

    def test_step_count(self):
        cfg = pns.PNSConfig(dt=0.01, T=0.4, stride=4)
        assert cfg.n_steps == 40


class TestStep:
    def test_cfl_rejection(self, grid32):
        v = testdata.taylor_green(grid32, amplitude=1.0)
        with pytest.raises(ValueError, match="CFL"):
            pns.step(v, 0.2, None, None, True)
        # suggested limit is the advective gate for unit speed
        try:
            pns.step(v, 0.2, None, None, True)
        except ValueError as err:
            quoted = float(str(err).split("<=")[1].split("required")[0])
            assert np.isclose(quoted, 0.5 * grid32.dx, rtol=1e-4)

    def test_drift_enters_cfl(self, grid32):
        # v alone passes at dt=0.05, v plus a fast drift does not
        v = testdata.taylor_green(grid32, amplitude=1.0)
        pns.step(v, 0.05, None, None, True)
        fast = VectorField(grid32, 10.0 * testdata.taylor_green(grid32, 1.0).data)
        with pytest.raises(ValueError, match="CFL"):
            pns.step(v, 0.05, fast, fast, True)

    def test_zero_fixed_point(self, grid16):
        z = VectorField(grid16, np.zeros((3,) + grid16.shape))
        assert np.all(pns.step(z, 0.1, None, None, True).data == 0.0)


def full_spectrum_step(v, dt, a_now, a_next, dealias):
    """Reference: the Heun step on every mode, v transformed afresh and the
    right-hand side masked afterwards; returns the new velocity data."""
    g = v.grid
    mask = g.dealias_mask if dealias else 1.0

    def rhs(w, a):
        Sh = sym_outer_hat(w, 0.5 * w + (0.0 if a is None else a.data))
        return neg_leray_div_hat(g.deriv_wavenumbers(), g.k2_d_safe, Sh) * mask

    E = np.exp(-g.k2 * dt)
    vh = rfftn(v.data)
    k1 = rhs(v.data, a_now)
    vstar = irfftn(E * (vh + dt * k1), g.shape)
    k2 = rhs(vstar, a_next)
    return irfftn(E * vh + 0.5 * dt * (E * k1 + k2), g.shape)


class TestKeptModeStep:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans())
    def test_matches_the_full_spectrum_step(self, grid16, seed, dealias, driven):
        g = grid16
        rng = np.random.default_rng(seed)
        hat = rfftn(rng.standard_normal((3,) + g.shape))
        if dealias:
            hat *= g.dealias_mask
        a0, a1 = rng.standard_normal((2, 3) + g.shape)
        dt = 0.01  # inside the CFL limit for unit-variance data
        t = 0.1
        a_now, a_next = ((VectorField(g, a0 + s * a1) for s in (t, t + dt)) if driven
                         else (None, None))
        v = VectorField.from_hat(g, hat)
        want = full_spectrum_step(v, dt, a_now, a_next, dealias)
        calls = {"rfftn": 0, "irfftn": 0}

        def counted(name):
            inner = getattr(pns._fft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            for name in calls:
                mp.setattr(pns._fft, name, counted(name))
            new = pns.step(v, dt, a_now, a_next, dealias)
        # the two stress transforms; v's spectrum is carried, not recomputed
        assert calls == {"rfftn": 2, "irfftn": 2}
        assert np.max(np.abs(new.data - want)) <= 1e-14 * np.max(np.abs(want))
        carried = new.hat
        if dealias:
            assert np.all(carried[:, ~g.dealias_mask] == 0.0)
        fresh = rfftn(new.data)
        assert np.max(np.abs(carried - fresh)) <= 1e-14 * np.max(np.abs(fresh))


class TestRun:
    def test_zero_data(self, grid16):
        run = pns.run_pns(
            VectorField(grid16, np.zeros((3,) + grid16.shape)),
            pns.PNSConfig(dt=0.1, T=0.4, stride=2),
        )
        assert np.all(run.v.frames == 0.0)
        assert np.all(run.q.frames == 0.0)
        assert run.a is None

    def test_stored_grid_of_times(self, grid16):
        run = pns.run_pns(
            testdata.taylor_green(grid16, amplitude=0.1),
            pns.PNSConfig(dt=0.05, T=0.4, stride=4),
        )
        assert np.allclose(run.v.times, [0.0, 0.2, 0.4])
        assert run.q.frames.shape == (3,) + grid16.shape

    def test_planar_vortex_is_exact_heat_orbit(self, grid32):
        # the projected nonlinearity vanishes identically on the planar pair,
        # and the integrating factor makes the heat part exact per step
        v0 = testdata.taylor_green(grid32, amplitude=1.0)
        run = pns.run_pns(v0, pns.PNSConfig(dt=0.02, T=0.4, stride=4))
        for i, t in enumerate(run.v.times):
            exact = np.exp(-t) * v0.data
            assert np.max(np.abs(run.v.frames[i] - exact)) <= 1e-13

    def test_planar_vortex_energy_decay(self, grid32):
        v0 = testdata.taylor_green(grid32, amplitude=1.0)
        run = pns.run_pns(v0, pns.PNSConfig(dt=0.02, T=0.4, stride=4))
        E0 = np.sum(v0.data**2) * grid32.cell_volume
        for i, t in enumerate(run.v.times):
            E = np.sum(run.v.frames[i] ** 2) * grid32.cell_volume
            assert np.isclose(E, E0 * np.exp(-2.0 * t), rtol=1e-12)

    def test_shear_mode_is_pure_heat(self, grid32):
        X, Y, Z = grid32.coords()
        data = np.zeros((3,) + grid32.shape)
        data[0] = 0.7 * np.sin(K0 * Y)
        run = pns.run_pns(
            VectorField(grid32, data), pns.PNSConfig(dt=0.02, T=0.4, stride=4)
        )
        exact = 0.7 * np.sin(K0 * Y) * np.exp(-K0**2 * 0.4)
        assert np.max(np.abs(run.v.frames[-1][0] - exact)) <= 1e-10
        assert np.max(np.abs(run.v.frames[-1][1:])) <= 1e-12

    def test_divergence_every_stored_slice(self, grid32):
        run = pns.run_pns(
            taylor_green_3d(grid32, amplitude=2.0),
            pns.PNSConfig(dt=0.01, T=0.2, stride=4),
        )
        for frame in run.v.frames:
            div = divergence(VectorField(grid32, frame))
            assert np.max(np.abs(div.values)) <= 1e-10

    def test_momentum_mean_conserved(self, grid32):
        run = pns.run_pns(
            taylor_green_3d(grid32, amplitude=1.0),
            pns.PNSConfig(dt=0.01, T=0.2, stride=4),
        )
        m0 = run.v.frames[0].mean(axis=(1, 2, 3))
        mT = run.v.frames[-1].mean(axis=(1, 2, 3))
        assert np.max(np.abs(mT - m0)) <= 1e-12

    def test_dealias_support_preserved(self, grid16, rng):
        raw = testdata.inverse_radius_field(grid16, 2 * grid16.dx, 3.0, amplitude=0.05)
        run = pns.run_pns(raw, pns.PNSConfig(dt=0.02, T=0.04, stride=2))
        hat = rfftn(run.v.frames[-1])
        # stored frames round-trip through physical space, so "zero" means
        # round-off relative to the retained spectrum
        outside = np.max(np.abs(hat * (~grid16.dealias_mask)))
        assert outside <= 1e-13 * np.max(np.abs(hat))

    def test_one_drift_slice_per_time_level(self, grid16):
        asked = []
        drift = heat_drift(testdata.taylor_green(grid16, amplitude=0.1))

        def provider(t):
            asked.append(t)
            return drift(t)

        cfg = pns.PNSConfig(dt=0.05, T=0.4, stride=2)
        pns.run_pns(testdata.taylor_green(grid16, amplitude=0.1), cfg, a_provider=provider)
        # the horizon check first, then each time level once
        assert asked[0] == cfg.T
        assert len(asked[1:]) == len(set(asked[1:])) == cfg.n_steps + 1

    def test_time_level_i_is_i_dt(self, grid16):
        # as in DuhamelConfig.times(), not a running sum of dt: twelve
        # additions of 0.01 make 0.11999999999999998
        asked = []
        drift = heat_drift(testdata.taylor_green(grid16, amplitude=0.1))

        def provider(t):
            asked.append(t)
            return drift(t)

        cfg = pns.PNSConfig(dt=0.01, T=0.12, stride=3)
        run = pns.run_pns(testdata.taylor_green(grid16, amplitude=0.1), cfg, a_provider=provider)
        assert np.array_equal(run.v.times, 0.03 * np.arange(5))
        # the horizon check asks for the last level's own float
        assert asked[0] == run.v.times[-1]


class TestDriftSlices:
    def test_each_stored_slice_is_the_one_the_step_used(self, grid16, monkeypatch):
        # the provider is re-read at the stored times, never stored: each
        # re-read must be the step's slice bit for bit, asked for at the
        # very float the run passed
        drift = heat_drift(taylor_green_3d(grid16, amplitude=0.2))
        asked = {}

        def provider(t):
            asked[t] = drift(t).data.copy()
            return drift(t)

        used = []  # per time level, the slice a step read there
        inner = pns.step

        def step(v, dt, a_now, a_next, dealias):
            if not used:
                used.append(a_now.data.copy())
            used.append(a_next.data.copy())
            return inner(v, dt, a_now, a_next, dealias)

        monkeypatch.setattr(pns, "step", step)
        cfg = pns.PNSConfig(dt=0.01, T=0.12, stride=3)
        run = pns.run_pns(testdata.taylor_green(grid16, amplitude=0.1), cfg, a_provider=provider)
        assert len(run.a) == len(run.v) == 5
        assert run.a.grid == grid16 and run.a.times is run.v.times
        for i, t in enumerate(run.a.times):
            assert float(t) in asked
            assert np.array_equal(run.a.frames[i], used[i * cfg.stride])
            assert np.array_equal(run.a[i].data, asked[float(t)])
        assert np.array_equal(run.a.frames[-1], run.a.frames[4])

    def test_frames_take_integer_indices_only(self, grid16):
        run = pns.run_pns(testdata.taylor_green(grid16, amplitude=0.1), pns.PNSConfig(0.05, 0.2, 2),
                          a_provider=heat_drift(testdata.taylor_green(grid16, amplitude=0.1)))
        assert np.array_equal(run.a.frames[np.int64(1)], run.a.frames[1])
        for index in (slice(0, 2), 0.5, np.array([0, 1])):
            with pytest.raises(TypeError):
                run.a.frames[index]

    def test_the_run_keeps_only_v_q_and_the_times(self, grid16):
        a = pns.run_pns(taylor_green_3d(grid16, amplitude=0.3), pns.PNSConfig(0.01, 0.08, 1))
        provider = pns.drift_from_spacetime(a.v)
        v0 = testdata.taylor_green(grid16, amplitude=0.1)
        cfg = pns.PNSConfig(dt=0.01, T=0.08, stride=2)
        pns.run_pns(v0, cfg, a_provider=provider)  # the grid's arrays are built
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run = pns.run_pns(v0, cfg, a_provider=provider)
            kept = tracemalloc.get_traced_memory()[0] - base  # run is still held
        finally:
            tracemalloc.stop()
        stored = run.v.frames.nbytes + run.q.frames.nbytes + run.v.times.nbytes
        # a stored drift would add 15 fields (480 kB); the objects around
        # the arrays take the rest, measured 3.5 kB
        assert stored <= kept <= stored + 8 * 1024

    @pytest.mark.parametrize("bad", ["array", "grid"])
    def test_a_provider_of_another_kind_or_grid_fails_before_the_first_step(
            self, grid16, grid32, bad, monkeypatch):
        def provider(t):
            if bad == "array":
                return testdata.taylor_green(grid16, amplitude=0.1).data
            return testdata.taylor_green(grid32, amplitude=0.1)

        steps = []
        monkeypatch.setattr(pns, "step", lambda *args, **kw: steps.append(args))
        with pytest.raises(ValueError, match=r"VectorField on the grid of v0, Grid\(n=16"):
            pns.run_pns(testdata.taylor_green(grid16, amplitude=0.1), pns.PNSConfig(0.05, 0.2, 2),
                        a_provider=provider)
        assert steps == []


class TestRecoverPressure:
    def test_planar_vortex_oracle(self, grid32):
        # classical closed form for the vortex pair at |xi|^2 = 1
        A = 0.8
        X, Y, Z = grid32.coords()
        q = pns.recover_pressure(testdata.taylor_green(grid32, amplitude=A))
        cand = -(A**2 / 4.0) * (np.cos(2 * K0 * X) + np.cos(2 * K0 * Y))
        assert np.max(np.abs(q.values - cand)) <= 1e-12

    def test_two_mode_oracle(self, grid32):
        # v = A(cos k0 y, cos k0 x, 0): the double divergence keeps the
        # single interaction mode, so q = A^2 sin(k0 x) sin(k0 y) exactly
        A = 0.8
        X, Y, Z = grid32.coords()
        data = np.zeros((3,) + grid32.shape)
        data[0] = A * np.cos(K0 * Y)
        data[1] = A * np.cos(K0 * X)
        q = pns.recover_pressure(VectorField(grid32, data))
        assert np.max(np.abs(q.values - A**2 * np.sin(K0 * X) * np.sin(K0 * Y))) <= 1e-12

    def test_mean_zero_and_gauge_invariance(self, grid32):
        v = taylor_green_3d(grid32, amplitude=1.3)
        q = pns.recover_pressure(v)
        assert abs(q.values.mean()) <= 1e-13
        shifted = VectorField(
            grid32, v.data + np.array([0.3, -0.2, 0.5])[:, None, None, None]
        )
        assert np.max(np.abs(pns.recover_pressure(shifted).values - q.values)) <= 1e-12

    def test_spectral_residual_with_drift(self, grid32, rng):
        v = taylor_green_3d(grid32, amplitude=1.0)
        a = corpus.random_divfree(grid32, rng, kmax=4, amplitude=0.8)
        q = pns.recover_pressure(v, a)
        T = v.data[:, None] * v.data[None, :]
        cross = a.data[:, None] * v.data[None, :]
        T = T + cross + np.swapaxes(cross, 0, 1)
        dd = np.zeros(grid32.shape)
        for i in range(3):
            for j in range(3):
                d_i = ScalarField(grid32, gradient(ScalarField(grid32, T[i, j])).data[i])
                dd += gradient(d_i).data[j]
        resid = -laplacian(q).values - dd
        assert np.max(np.abs(resid)) <= 1e-8 * np.max(np.abs(dd))

    def test_grid_mismatch(self, grid16, grid32):
        with pytest.raises(ValueError):
            pns.recover_pressure(
                testdata.taylor_green(grid32, 1.0), testdata.taylor_green(grid16, 1.0)
            )


class TestDriftProvider:
    def test_nodes_and_midpoints(self, grid16):
        times = np.array([0.0, 0.1, 0.2])
        frames = np.stack(
            [k * np.ones((3,) + grid16.shape) for k in (1.0, 2.0, 4.0)]
        )
        from critnorm.fields import SpaceTimeField

        prov = pns.drift_from_spacetime(SpaceTimeField(grid16, times, frames))
        assert np.allclose(prov(0.1).data, 2.0)
        assert np.allclose(prov(0.15).data, 3.0)
        with pytest.raises(ValueError):
            prov(0.25)

    def test_slack_below_the_first_time_reads_the_first_interval(self, grid16):
        # frames 0, 0, 1: just below t = 0 the drift is the first frame, 0,
        # not a blend with the last one
        frames = np.stack([k * np.ones((3,) + grid16.shape) for k in (0.0, 0.0, 1.0)])
        prov = pns.drift_from_spacetime(SpaceTimeField(grid16, np.array([0.0, 0.1, 0.2]), frames))
        assert np.max(np.abs(prov(-1e-10).data)) == 0.0

    def test_one_slice_orbit_is_rejected_when_the_provider_is_built(self, grid16):
        # a one-slice orbit has dt = 0; it must not get as far as run_pns
        one = SpaceTimeField(grid16, np.array([0.0]), np.ones((1, 3) + grid16.shape))
        with pytest.raises(ValueError, match="at least two stored slices"):
            pns.drift_from_spacetime(one)

    def test_short_orbit_fails_before_the_first_step(self, grid16, monkeypatch):
        # the orbit covers [0, 1/64] and the run needs its drift up to 4/64
        orbit = pns.run_pns(taylor_green_3d(grid16, amplitude=0.3),
                            pns.PNSConfig(dt=1.0 / 256.0, T=1.0 / 64.0, stride=1))
        steps = []
        monkeypatch.setattr(pns, "step", lambda *args, **kw: steps.append(args))
        with pytest.raises(ValueError, match=r"t = 0\.0625, outside .* \[0, 0\.015625\]"):
            pns.run_pns(taylor_green_3d(grid16, amplitude=0.1),
                        pns.PNSConfig(dt=1.0 / 256.0, T=4.0 / 64.0, stride=2),
                        a_provider=pns.drift_from_spacetime(orbit.v))
        assert steps == []


class TestLocalEnergy:
    def test_gates(self, grid16):
        run = pns.run_pns(
            testdata.taylor_green(grid16, 0.1), pns.PNSConfig(dt=0.05, T=0.2, stride=2)
        )
        bad = ScalarField(grid16, -np.ones(grid16.shape))
        with pytest.raises(ValueError):
            pns.verify_local_energy(run, bad)

    def test_planar_vortex_ledger(self, grid32):
        run = pns.run_pns(
            testdata.taylor_green(grid32, amplitude=1.0),
            pns.PNSConfig(dt=0.01, T=0.4, stride=2),
        )
        phi = smooth_radial_cutoff(grid32, 1.0, 3.0)
        entries = pns.verify_local_energy(run, phi)
        assert len(entries) == 20
        assert all(e.passed for e in entries)
        # smooth resolved run: slack is pure storage-quadrature error
        assert min(e.slack for e in entries) >= -1e-5
        assert all(e.terms["drift_cross"] == 0.0 for e in entries)

    def test_driven_ledger_closes(self, grid32):
        # drift terms are order 1e-3 here; a mis-weighted identity would
        # leave slack at that scale instead of the 1e-5 quadrature floor
        a0 = taylor_green_3d(grid32, amplitude=0.4)
        run = pns.run_pns(
            testdata.taylor_green(grid32, amplitude=0.3),
            pns.PNSConfig(dt=0.01, T=0.4, stride=4),
            a_provider=heat_drift(a0),
        )
        phi = smooth_radial_cutoff(grid32, 1.0, 3.0)
        entries = pns.verify_local_energy(run, phi)
        assert max(abs(e.slack) for e in entries) <= 1e-5
        assert abs(entries[-1].terms["drift_cross"]) > 1e-4
        assert abs(entries[-1].terms["drift_convection"]) > 1e-4

    def test_missing_dealias_is_flagged(self, grid16, rng, monkeypatch):
        # near-truncation content at high amplitude: without dealiasing the
        # quadratic term pumps energy and the identity fails on the negative
        # side; the honest twin stays within a tolerance 0.3 (dt + dx^2) scale
        monkeypatch.setattr(pns, "_ENERGY_TOL_C", 0.3)
        v0 = corpus.random_divfree(grid16, rng, kmax=5, amplitude=50.0)
        phi = smooth_radial_cutoff(grid16, 1.0, 3.0)
        outcomes = {}
        for deal in (True, False):
            run = pns.run_pns(
                v0, pns.PNSConfig(dt=0.001, T=0.06, stride=2, dealias=deal)
            )
            entries = pns.verify_local_energy(run, phi)
            outcomes[deal] = entries
        assert all(e.passed for e in outcomes[True])
        flagged = [e for e in outcomes[False] if not e.passed]
        assert flagged
        assert min(e.slack for e in flagged) < 0.0


class TestGlobalEnergy:
    def test_planar_vortex_equality(self, grid32):
        run = pns.run_pns(
            testdata.taylor_green(grid32, amplitude=1.0),
            pns.PNSConfig(dt=0.01, T=0.4, stride=2),
        )
        rep = pns.global_energy_check(run)
        E0 = rep.rows[0][2]
        assert rep.passed
        assert rep.max_violation <= 1e-6 * E0
        energies = [np.sum(f**2) * grid32.cell_volume for f in run.v.frames]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_under_resolved_violation(self, grid16):
        run = pns.run_pns(
            taylor_green_3d(grid16, amplitude=2.0),
            pns.PNSConfig(dt=0.02, T=0.8, stride=2),
        )
        rep = pns.global_energy_check(run)
        assert not rep.passed
        E0 = rep.rows[0][2]
        assert min(r[3] for r in rep.rows) < -1e-6 * E0

    def test_aliasing_violation_dwarfs_time_error(self, grid16, rng):
        v0 = corpus.random_divfree(grid16, rng, kmax=5, amplitude=30.0)
        worst = {}
        for deal in (True, False):
            run = pns.run_pns(
                v0, pns.PNSConfig(dt=0.002, T=0.04, stride=2, dealias=deal)
            )
            rep = pns.global_energy_check(run)
            worst[deal] = min(r[3] for r in rep.rows) / rep.rows[0][2]
        assert worst[False] < 100.0 * worst[True]
        assert worst[False] < -1e-3

    def test_parseval_dissipation_is_the_grid_sum(self, grid16, rng):
        # white noise, Nyquist planes included: the dissipation must be the
        # physical-space sum of |d_j v_i|^2; the local identity at phi = 1
        # reads the zero pressure and the step size
        times = np.arange(3) / 64.0
        frames = rng.standard_normal((3, 3) + grid16.shape)
        v = SpaceTimeField(grid16, times, frames)
        q = SpaceTimeField(grid16, times, np.zeros((3,) + grid16.shape))
        run = SimpleNamespace(grid=grid16, v=v, q=q, a=None, cfg=SimpleNamespace(dt=1.0 / 64.0))
        rows = pns.global_energy_check(run).rows
        cell = grid16.cell_volume
        diss = [np.sum(gradient(v[i]).data ** 2) * cell for i in range(3)]
        want = 2.0 * cumulative_simpson(diss, x=times, initial=0.0)
        got = np.array([lhs - np.sum(f**2) * cell for (_, lhs, _, _), f in zip(rows, frames)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_driven_run_rejected(self, grid16):
        a0 = testdata.taylor_green(grid16, amplitude=0.1)
        run = pns.run_pns(
            testdata.taylor_green(grid16, amplitude=0.1),
            pns.PNSConfig(dt=0.05, T=0.2, stride=2),
            a_provider=heat_drift(a0),
        )
        with pytest.raises(ValueError):
            pns.global_energy_check(run)


class TestPerturbationConsistency:
    def test_recomposition_order(self, grid32):
        # u = a + v stepped as drift plus perturbation must converge to the
        # plain run at u0 = a0 + v0 with second-order step error
        u0 = taylor_green_3d(grid32, amplitude=0.5)
        a0 = taylor_green_3d(grid32, amplitude=0.35)
        v0 = VectorField(grid32, u0.data - a0.data)
        errs = []
        for dt in (0.02, 0.01):
            cfg = pns.PNSConfig(dt=dt, T=0.2, stride=1)
            plain = pns.run_pns(u0, cfg)
            arun = pns.run_pns(a0, cfg)
            vrun = pns.run_pns(
                v0, cfg, a_provider=pns.drift_from_spacetime(arun.v)
            )
            rec = arun.v.frames[-1] + vrun.v.frames[-1]
            errs.append(
                np.sqrt(np.sum((rec - plain.v.frames[-1]) ** 2) * grid32.cell_volume)
            )
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8
        assert errs[1] <= 1e-7


class TestArtifacts:
    def test_energy_csv(self, grid16, tmp_path):
        run = pns.run_pns(
            testdata.taylor_green(grid16, 0.5), pns.PNSConfig(dt=0.05, T=0.2, stride=2)
        )
        phi = smooth_radial_cutoff(grid16, 1.0, 3.0)
        entries = pns.verify_local_energy(run, phi)
        path = tmp_path / "ledger.csv"
        pns.write_energy_csv(path, entries)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t,lhs,rhs,slack,passed")
        assert len(lines) == 1 + len(entries)
