import collections
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from critnorm import _fft, corpus, cylinder, pns, pressure, spectral
from critnorm.fields import (
    Grid,
    ScalarField,
    SpaceTimeField,
    TensorField,
    VectorField,
    smooth_radial_cutoff,
    taylor_green_3d,
)
from critnorm.spectral import heat_semigroup

from test_fft import spy_workers

DEFAULT_L = 2.0 * np.pi * np.sqrt(2.0)


def tg_snapshot(grid, amplitude=1.0):
    v = taylor_green_3d(grid, amplitude=amplitude)
    V = TensorField(grid, v.data[:, None] * v.data[None, :])
    return v, V, pns.recover_pressure(v)


def trace_tensor(grid, scalar_values):
    return TensorField(grid, np.einsum("ij,xyz->ijxyz", np.eye(3), scalar_values))


def heat_drift(field):
    def provider(t):
        return heat_semigroup(field, t)

    return provider


def cutoff_derivatives(cut):
    """The gradient a o and the 3 x 3 Hessian b o o^T + a I of a
    RadialCutoff, assembled from its radial factors."""
    o, a, b = cut._radial()
    grad = np.stack([a * o_i for o_i in o])
    hess = np.stack([np.stack([b * o[i] * o[j] + float(i == j) * a for j in range(3)])
                     for i in range(3)])
    return grad, hess


class TestRadialCutoff:
    def test_plateau_and_support(self, grid32):
        cut = pressure.RadialCutoff(grid32, 0.4, 1.0)
        rad = grid32.radius()
        assert np.all(cut.values[rad <= 0.4] == 1.0)
        assert np.all(cut.values[rad >= 1.0] == 0.0)
        outside = (rad <= 0.4) | (rad >= 1.0)
        grad, hess = cutoff_derivatives(cut)
        assert np.all(grad[:, outside] == 0.0)
        assert np.all(hess[:, :, outside] == 0.0)

    def test_hessian_symmetric_and_traces(self):
        # b o_i o_j + a delta_ij is d_j d_i phi for every (i, j): against
        # central differences of the analytic gradient a o_i over a 16-cell
        # transition it is within 0.040 of the Hessian's max (0.43 without
        # the a I term, 0.45 with phi''/r^2 in place of b)
        g = Grid(64, 8.5)
        cut = pressure.RadialCutoff(g, 0.3, 2.5, center=(0.25, -0.2, 0.1))
        grad, hess = cutoff_derivatives(cut)
        assert hess.shape == (3, 3) + g.shape
        scale = np.max(np.abs(hess))
        for i in range(3):
            for j in range(3):
                fd = np.gradient(grad[i], g.dx, axis=j)
                assert np.max(np.abs(hess[i, j] - fd)) <= 0.05 * scale

    def test_profile_derivatives_match_dense_differences(self):
        # dense 1-D check of the nonic ramp derivatives themselves; the
        # 3-D chain rule is exercised by the machine-exact split identities
        u = np.linspace(0.0, 1.0, 100001)
        s = u**5 * (126 - 420 * u + 540 * u**2 - 315 * u**3 + 70 * u**4)
        ds = 630.0 * u**4 * (1 - u) ** 4
        dss = 2520.0 * u**3 * (1 - u) ** 3 * (1 - 2 * u)
        assert np.allclose(np.gradient(s, u), ds, atol=1e-5 * np.max(ds))
        assert np.allclose(np.gradient(ds, u), dss, atol=1e-4 * np.max(np.abs(dss)))

    def test_gradient_points_inward(self, grid64):
        cut = pressure.RadialCutoff(grid64, 0.3, 1.0)
        c = np.argmin(np.abs(grid64.x))
        ramp = (grid64.x > 0.35) & (grid64.x < 0.95)
        grad, _ = cutoff_derivatives(cut)
        assert np.all(grad[0][ramp, c, c] < 0.0)
        assert np.all(grad[1][ramp, c, c] == 0.0)

    def test_rejects_bad_radii(self, grid32):
        with pytest.raises(ValueError):
            pressure.RadialCutoff(grid32, 0.9, 0.4)
        with pytest.raises(ValueError):
            pressure.RadialCutoff(grid32, 0.0, 0.4)


class TestRieszSum:
    def test_trace_source_exact(self, grid32):
        # trace sources see only the local part of the operator, which is
        # applied pointwise, so the answer is exact to roundoff
        psi = pressure.RadialCutoff(grid32, 0.3, 0.9).values
        trace = np.stack([psi, psi, psi] + [np.zeros_like(psi)] * 3)  # SYM_PAIRS order
        out = spectral.free_riesz_sum(grid32, trace)
        assert np.max(np.abs(out.values + psi)) <= 1e-13

    def test_masked_split_is_exact_partition(self, grid32, rng):
        vals = rng.standard_normal((3, 3) + grid32.shape)
        vals *= pressure.RadialCutoff(grid32, 0.5, 1.0).values
        V = TensorField(grid32, vals)
        near, far = pressure.riesz_split_at(V, (0.0, 0.0, 0.0), 0.5)
        whole = spectral.free_riesz_sum(grid32, pressure._sym_part(V.data))
        gap = np.max(np.abs(near.values + far.values - whole.values))
        assert gap <= 1e-12 * np.max(np.abs(whole.values))

    def test_whole_box_source_is_rejected(self, grid32, rng):
        # the far part reaches past |x| < L/4, where the doubled torus's
        # periodic images would alias it
        V = TensorField(grid32, rng.standard_normal((3, 3) + grid32.shape))
        with pytest.raises(ValueError, match="vanish outside"):
            pressure.riesz_split_at(V, (0.0, 0.0, 0.0), 0.5)

    def test_masked_split_far_part_vanishes_for_inner_data(self, grid32):
        psi = pressure.RadialCutoff(grid32, 0.2, 0.45).values
        V = trace_tensor(grid32, psi)
        near, far = pressure.riesz_split_at(V, (0.0, 0.0, 0.0), 0.5)
        assert np.max(np.abs(far.values)) == 0.0


class TestSplitPressure:
    def test_zero_case(self, grid32):
        p = ScalarField(grid32, np.zeros(grid32.shape))
        V = TensorField(grid32, np.zeros((3, 3) + grid32.shape))
        sp = pressure.split_pressure(p, V, pressure.RadialCutoff(grid32, 0.5, 1.0))
        assert np.max(np.abs(sp.total.values)) == 0.0
        assert sp.mismatch == 0.0

    def test_taylor_green_identity_coarse(self, grid32):
        v, V, p = tg_snapshot(grid32)
        sp = pressure.split_pressure(p, V, pressure.RadialCutoff(grid32, 0.2, 1.0))
        assert sp.mismatch <= 0.3  # measured 0.15 at this resolution

    def test_taylor_green_identity_refines(self, grid64):
        v, V, p = tg_snapshot(grid64)
        sp = pressure.split_pressure(p, V, pressure.RadialCutoff(grid64, 0.2, 1.0))
        assert sp.mismatch <= 2e-2  # measured 5.3e-3

    def test_trace_cancellation_closes_exactly(self, grid32):
        # p = -psi against V = psi*Id makes the p-sourced potentials the
        # exact negatives of the V-sourced ones, so the identity closes to
        # roundoff regardless of convolution accuracy
        psi = pressure.RadialCutoff(grid32, 0.3, 0.9).values
        p = ScalarField(grid32, -psi)
        sp = pressure.split_pressure(
            p, trace_tensor(grid32, psi), pressure.RadialCutoff(grid32, 0.2, 1.0)
        )
        assert sp.mismatch <= 1e-12

    def test_constant_shift_propagates(self, grid64):
        # the shift p -> p + c moves phi*p by c*phi and only the two
        # p-sourced potentials respond; with the wrong relative sign
        # between them the residual would be order one, not operator-level
        psi = pressure.RadialCutoff(grid64, 0.3, 0.9).values
        V = trace_tensor(grid64, psi)
        cut = pressure.RadialCutoff(grid64, 0.2, 1.0)
        sp = pressure.split_pressure(ScalarField(grid64, -psi + 0.3), V, cut)
        assert sp.mismatch <= 1e-2  # measured 3.0e-3

    def test_flat_plateau_bookkeeping(self, grid32):
        # mass-balanced source inside B_{1/3} under a cutoff flat there:
        # every derivative-of-cutoff source vanishes identically and the
        # Riesz term alone reproduces phi*p
        w_outer = smooth_radial_cutoff(grid32, 0.08, 0.30).values
        w_inner = smooth_radial_cutoff(grid32, 0.05, 0.20).values
        W = w_outer - (np.sum(w_outer) / np.sum(w_inner)) * w_inner
        p = ScalarField(grid32, -W)
        cut = pressure.RadialCutoff(grid32, 0.5, 1.0)
        sp = pressure.split_pressure(p, trace_tensor(grid32, W), cut)
        for term in sp.newton_terms:
            assert np.max(np.abs(term.values)) == 0.0
        sub = grid32.radius() <= 1.0 / 3.0
        target = cut.values * p.values
        assert np.max(np.abs((sp.riesz_term.values - target)[sub])) <= 1e-6
        assert sp.mismatch <= 1e-12

    def test_antisymmetric_stress_part_changes_nothing(self, grid32):
        # d_i d_j W_ij = 0 for an antisymmetric W, so the double-divergence
        # check accepts V + W with the same p; every term must read only
        # the symmetric part (n2 once read V_ij alone: mismatch 5.35)
        v = taylor_green_3d(grid32, amplitude=0.5)
        a = corpus.curl_bump(grid32, amplitude=0.3)
        p = pns.recover_pressure(v, a)
        cross = a.data[:, None] * v.data[None, :]
        V = v.data[:, None] * v.data[None, :] + cross + np.swapaxes(cross, 0, 1)
        psi = smooth_radial_cutoff(grid32, 0.3, 0.9).values
        X, Y, _ = grid32.coords()
        W = np.zeros_like(V)
        for (i, j), w in {(0, 1): 1.0 + X, (1, 2): 0.5 * Y, (0, 2): 0.3}.items():
            W[i, j] = psi * w
            W[j, i] = -W[i, j]
        cut = pressure.RadialCutoff(grid32, 0.2, 1.0)
        sym = pressure.split_pressure(p, TensorField(grid32, V), cut)
        asym = pressure.split_pressure(p, TensorField(grid32, V + W), cut)
        assert sym.mismatch <= 0.3  # measured 0.1535
        assert asym.mismatch == pytest.approx(sym.mismatch, rel=1e-9)
        for got, want in zip((asym.riesz_term,) + asym.newton_terms,
                             (sym.riesz_term,) + sym.newton_terms):
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))

    def test_precondition_violation_rejected(self, grid32):
        v, V, p = tg_snapshot(grid32)
        bad = ScalarField(grid32, p.values + np.sin(grid32.coords()[0] * grid32.k0))
        with pytest.raises(ValueError, match="double-divergence"):
            pressure.split_pressure(bad, V, pressure.RadialCutoff(grid32, 0.2, 1.0))

    def test_wide_cutoff_rejected(self, grid32):
        v, V, p = tg_snapshot(grid32)
        with pytest.raises(ValueError, match="unit ball"):
            pressure.split_pressure(p, V, pressure.RadialCutoff(grid32, 0.5, 1.2))

    def test_cutoff_without_a_cell_in_its_transition_rejected(self, grid16):
        # at the origin on 16^3 the nearest cell centres off c sit dx = 0.555
        # away, past r_off: the annulus 0.2 < |x| < 0.5 holds none of them
        v, V, p = tg_snapshot(grid16)
        with pytest.raises(ValueError, match=r"r_on = 0\.2 .* r_off = 0\.5 about c = \(0\.0, 0\.0, "
                                             r"0\.0\) holds no cell centre \(dx = 0\.555"):
            pressure.split_pressure(p, V, pressure.RadialCutoff(grid16, 0.2, 0.5))

    def test_grid_mismatch_rejected(self, grid32, grid16):
        v, V, p = tg_snapshot(grid32)
        with pytest.raises(ValueError, match="grids"):
            pressure.split_pressure(p, V, pressure.RadialCutoff(grid16, 0.2, 1.0))

    def test_sum_invariant_enforced(self, grid32):
        v, V, p = tg_snapshot(grid32)
        sp = pressure.split_pressure(p, V, pressure.RadialCutoff(grid32, 0.2, 1.0))
        with pytest.raises(ValueError, match="sum of the parts"):
            pressure.PressureSplit(
                riesz_term=sp.riesz_term,
                newton_terms=sp.newton_terms,
                total=ScalarField(grid32, sp.total.values + 1.0),
                cutoff=sp.cutoff,
                mismatch=sp.mismatch,
            )


    def test_split_transform_counts(self, grid16, monkeypatch):
        # the check transforms the symmetric stress and p on the box (2
        # rfftn); on the doubled grid the Riesz sum transforms its six
        # components, n1 and n3 one source each and n2 and n4 three each
        # (14 rfftn), and each of the five sums crops one inverse (5 irfftn)
        v, V, p = tg_snapshot(grid16)
        cut = pressure.RadialCutoff(grid16, 0.2, 1.0)
        seen = spy_workers(monkeypatch)
        pressure.split_pressure(p, V, cut)
        counts = collections.Counter((name, grid) for name, grid, _ in seen)
        box, doubled = (16, 16, 16), (32, 32, 32)
        assert counts == {("rfftn", box): 2, ("rfftn", doubled): 14, ("irfftn", doubled): 5}

    def test_split_keeps_the_cutoff_field_and_refuses_anything_else(self, grid32):
        v, V, p = tg_snapshot(grid32)
        cut = pressure.RadialCutoff(grid32, 0.2, 1.0)
        sp = pressure.split_pressure(p, V, cut)
        assert sp.cutoff is cut.field
        with pytest.raises(TypeError, match=r"\(RadialCutoff\.field\), got RadialCutoff"):
            pressure.PressureSplit(
                riesz_term=sp.riesz_term,
                newton_terms=sp.newton_terms,
                total=sp.total,
                cutoff=cut,
                mismatch=sp.mismatch,
            )


@pytest.fixture(scope="module")
def smooth_run():
    grid = Grid(32, DEFAULT_L)
    v0 = taylor_green_3d(grid, amplitude=0.5)
    return pns.run_pns(v0, pns.PNSConfig(dt=1e-3, T=0.07, stride=1))


@pytest.fixture(scope="module")
def driven_run():
    grid = Grid(32, DEFAULT_L)
    v0 = taylor_green_3d(grid, amplitude=0.5)
    a0 = taylor_green_3d(grid, amplitude=0.3)
    cfg = pns.PNSConfig(dt=1e-3, T=0.02, stride=1)
    return pns.run_pns(v0, cfg, a_provider=heat_drift(a0))


class TestOscillation:
    def test_radius_gates(self, smooth_run):
        r = smooth_run
        with pytest.raises(ValueError, match="rho/2"):
            pressure.pressure_oscillation_terms(r.v, None, r.q, (0, 0, 0), 0.3, 0.5)
        with pytest.raises(ValueError, match="box"):
            pressure.pressure_oscillation_terms(r.v, None, r.q, (0, 0, 0), 2.0, 5.0)

    def test_window_gate(self, smooth_run):
        r = smooth_run
        with pytest.raises(ValueError, match="two stored slices"):
            pressure.pressure_oscillation_terms(
                r.v, None, r.q, (0, 0, 0), 0.125, 0.25, t_top=0.0005
            )

    def test_top_beyond_stored_run_rejected(self, smooth_run):
        r = smooth_run
        with pytest.raises(ValueError, match="beyond the stored slices"):
            pressure.pressure_oscillation_terms(
                r.v, None, r.q, (0, 0, 0), 0.125, 0.25, t_top=float(r.v.times[-1]) + 0.01
            )

    def test_weighted_gates(self, driven_run):
        r = driven_run
        with pytest.raises(ValueError, match="outside the cylinder"):
            pressure.pressure_oscillation_terms(
                r.v, r.a, r.q, (0, 0, 0), 0.125, 0.25, t0=0.02
            )

    def test_weighted_ball_without_cell_centres_fails_before_sampling(self, driven_run,
                                                                       monkeypatch):
        # ma reads |a| at the cell centres in B_rho: about the centre of a
        # cell cube, B_0.2 holds none of the 32^3 grid's, which lie 0.24 away
        r = driven_run
        calls = count_evaluations(monkeypatch)
        with pytest.raises(ValueError, match="no cell centers"):
            pressure.pressure_oscillation_terms(
                r.v, r.a, r.q, (0.5 * r.grid.dx,) * 3, 0.1, 0.2, t0=-0.01
            )
        assert calls == []

    def test_weighted_t0_between_window_slices_rejected(self, driven_run):
        # t0 = 0.0105 is on no stored slice, but inside the window [0.005, 0.02]
        r = driven_run
        message = r"t0 = 0\.0105 must lie outside the cylinder window \[0\.005, 0\.02\]"
        with pytest.raises(ValueError, match=message):
            pressure.pressure_oscillation_terms(
                r.v, r.a, r.q, (0, 0, 0), 0.125, 0.25, t0=0.0105
            )

    def test_zero_data_gives_zero_lhs(self, grid16):
        v0 = VectorField(grid16, np.zeros((3,) + grid16.shape))
        run = pns.run_pns(v0, pns.PNSConfig(dt=1e-3, T=0.002, stride=1))
        rep = pressure.pressure_oscillation_terms(
            run.v, None, run.q, (0, 0, 0), 0.05, 0.1
        )
        assert rep.lhs == 0.0
        assert rep.ratio == 0.0

    def test_lhs_ignores_a_constant_shift_of_q(self, smooth_run):
        # the oscillation is taken about q's mean on B_r, so a constant
        # added to q moves the left side by round-off only
        r = smooth_run
        shifted = SpaceTimeField(r.grid, r.q.times, r.q.frames + 2.5)
        base, moved = (
            pressure.pressure_oscillation_terms(r.v, None, q, (0, 0, 0), 0.125, 0.25)
            for q in (r.q, shifted)
        )
        assert base.lhs > 0.0
        assert moved.lhs == pytest.approx(base.lhs, rel=1e-10)
        assert moved.terms[0] == base.terms[0]

    def test_drift_free_terms_vanish(self, smooth_run):
        r = smooth_run
        rep = pressure.pressure_oscillation_terms(r.v, None, r.q, (0, 0, 0), 0.125, 0.25)
        assert rep.terms[1] == 0.0
        assert rep.terms[3] == 0.0
        assert rep.terms[5] == 0.0
        assert rep.ma == 0.0

    def test_dyadic_decay_of_oscillation(self, smooth_run):
        # smooth data: the scale-weighted oscillation falls much faster
        # than the guaranteed floor of two; the fit uses a fixed refined
        # geometry per radius so the quadrature bias cancels in the slope
        r = smooth_run
        radii = (0.25, 0.125, 0.0625)
        reps = [
            pressure.pressure_oscillation_terms(r.v, None, r.q, (0, 0, 0), ri, 2 * ri)
            for ri in radii
        ]
        for rep in reps:
            assert rep.lhs > 0.0
            assert rep.ratio <= 1.0
        slope = np.polyfit(np.log(radii), np.log([rep.lhs for rep in reps]), 1)[0]
        assert slope >= 1.7  # measured 7.3

    def test_driven_terms_positive(self, driven_run):
        r = driven_run
        rep = pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), 0.125, 0.5)
        assert all(t > 0.0 for t in rep.terms)
        assert rep.lhs > 0.0

    def test_weighted_variant(self, driven_run):
        r = driven_run
        rep = pressure.pressure_oscillation_terms(
            r.v, r.a, r.q, (0, 0, 0), 0.125, 0.25, t0=0.08
        )
        plain = pressure.pressure_oscillation_terms(
            r.v, r.a, r.q, (0, 0, 0), 0.125, 0.25
        )
        assert rep.weighted and not plain.weighted
        assert rep.ma > 0.0
        assert np.isclose(rep.lhs, plain.lhs, rtol=1e-13)
        assert all(np.isfinite(t) for t in rep.terms)
        # the first, third and fifth bounds carry no time weight
        assert np.isclose(rep.terms[0], plain.terms[0], rtol=1e-13)
        assert np.isclose(rep.terms[2], plain.terms[2], rtol=1e-13)
        assert np.isclose(rep.terms[4], plain.terms[4], rtol=1e-13)

    def test_csv_writer(self, smooth_run, tmp_path):
        r = smooth_run
        reps = [
            pressure.pressure_oscillation_terms(r.v, None, r.q, (0, 0, 0), ri, 2 * ri)
            for ri in (0.25, 0.125)
        ]
        path = os.path.join(tmp_path, "osc.csv")
        pressure.write_oscillation_csv(path, reps)
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "r,lhs,J1,J2,J3,J4,J5,J6,ratio"
        assert len(lines) == 3


def whole_lattice_oscillation(v, a, q, center, r, rho, t0=None):
    """(lhs, terms, ma) of the oscillation report from one pass over the
    whole r/8 lattice of B_rho, every field held on all of it at once;
    weighted when t0 is given. The powers are those of the pressure
    module's docstring at delta = 1."""
    g = v.grid
    t_top = float(v.times[-1])
    sel = cylinder.stored_window(v.times, t_top - r * r, t_top, clip_start=True)
    ts = v.times[sel]
    axes, rad, cell = cylinder.ball_points(g, center, r, outer=rho)
    ball = rad <= rho
    rad = rad[ball]
    near_r, near_2r = rad <= r, rad <= 2.0 * r
    w_tail = np.where((rad > 2.0 * r) & (rad < rho), rad, np.inf) ** -4.0
    ring = (rad > rho / 2.0) & (rad < rho)
    sv, sq, sa = (cylinder.FrameSpectra(f) for f in (v, q, a))
    rows = []
    for i in sel:
        v2 = cylinder.sample_slice(sv, i, axes)[ball]
        qs = cylinder.sample_slice(sq, i, axes)[ball]
        a2 = cylinder.sample_slice(sa, i, axes)[ball]
        vm, am = np.sqrt(v2), np.sqrt(a2)
        q_r = qs[near_r]
        rows.append([
            np.sum(np.abs(q_r - np.mean(q_r)) ** 1.5),
            np.sum((v2 * vm)[near_2r]),
            np.sum(v2[near_2r]),
            np.sum((a2**2 * am)[near_2r]),
            np.sum(v2 * w_tail),
            np.sum(vm * am * w_tail),
            np.sum(vm * w_tail),
            np.sum(v2 * vm + np.abs(qs) ** 1.5),
            np.sum(v2 * vm),
            np.sum(a2**2 * am),
            np.sum(v2[ring]),
        ])
    osc, v3_2r, v2_2r, a5_2r, tail, cross, v_tail, bulk, v3_rho, a5_rho, v2_ring = (
        cell * np.array(rows).T
    )

    def integral(x):
        return np.trapezoid(x, ts)

    lhs = integral(osc) / r
    j1 = integral(v3_2r) / r
    j3 = r**5.5 * np.max(tail) ** 1.5
    j5 = r**3.5 * rho**-4.5 * integral(bulk)
    if t0 is None:
        j2 = np.sqrt(integral(v3_2r)) * integral(a5_2r) ** 0.3
        j4 = r**3.5 * integral(cross**1.5)
        j6 = r**3.9 * rho**-3.9 * np.sqrt(integral(v3_rho)) * integral(a5_rho) ** 0.3
        return lhs, (j1, j2, j3, j4, j5, j6), 0.0
    in_rho = g.radius(center) <= rho
    ma = max(
        np.sqrt(abs(t - t0)) * np.max(np.sqrt(np.sum(frame**2, axis=0))[in_rho])
        for t, frame in zip(v.times, a.frames)
    )
    dist = np.abs(ts - t0)
    j2 = r**0.25 * ma**1.5 * integral(v2_2r / dist) ** 0.75
    j4 = r**3.5 * ma**1.5 * integral(v_tail**1.5 / dist**0.75)
    j6 = r**3.5 * rho**-3.75 * ma**1.5 * integral(v2_ring**0.75 / dist**0.75)
    return lhs, (j1, j2, j3, j4, j5, j6), ma


@pytest.fixture(scope="module")
def driven_run16():
    # stored every 1/512 over [0, 1/256]: the three slices of one r = 1/16 cylinder
    grid = Grid(16, DEFAULT_L)
    v0 = taylor_green_3d(grid, amplitude=0.5)
    a0 = corpus.curl_bump(grid, amplitude=0.3)
    cfg = pns.PNSConfig(dt=1.0 / 512.0, T=1.0 / 256.0, stride=1)
    return pns.run_pns(v0, cfg, a_provider=heat_drift(a0))


def count_evaluations(monkeypatch, outs=None, threads=None):
    """Wrap the evaluator the cylinder quadrature calls; returns the list
    of (spectrum, points) it fills, one entry per call. Each call's out
    buffer (None when it allocates) is appended to outs when given, and
    the ident of the thread that made it to threads."""
    calls = []
    original = cylinder.evaluate_at_points

    def counted(grid, axes, hat, out=None):
        if outs is not None:
            outs.append(out)
        if threads is not None:
            threads.append(threading.get_ident())
        values = original(grid, axes, hat, out=out)
        calls.append((hat, values.size))  # holding hat keeps its id unique
        return values

    monkeypatch.setattr(cylinder, "evaluate_at_points", counted)
    return calls


def count_thread_starts(monkeypatch):
    """Wrap threading.Thread.start; returns the list of threads started."""
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread)
        original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestSlabbedOscillation:
    """r = 1/16 under rho = 1/2 on 16^3: a 131^3 lattice, several x-slabs."""

    R, RHO, T0 = 1.0 / 16.0, 0.5, 0.02

    @pytest.mark.parametrize("t0", [None, T0])
    def test_matches_whole_lattice_reference(self, driven_run16, t0):
        r = driven_run16
        kw = {} if t0 is None else {"t0": t0}
        rep = pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO, **kw)
        lhs, terms, ma = whole_lattice_oscillation(r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO, t0)
        assert all(t > 0.0 for t in terms)
        assert rep.lhs == pytest.approx(lhs, rel=1e-13)
        assert rep.terms == pytest.approx(terms, rel=1e-13)
        assert rep.ma == pytest.approx(ma, rel=1e-13)

    def test_each_lattice_point_is_evaluated_once_per_component(self, driven_run16, monkeypatch):
        r = driven_run16
        calls = count_evaluations(monkeypatch)
        pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO)
        points = {}
        for hat, size in calls:
            assert size <= 2**19  # one slab: 4 MB of float64
            points[id(hat)] = points.get(id(hat), 0) + size
        # v, q and a: seven components per stored slice, each over the whole lattice
        assert len(points) == 7 * len(r.v.times)
        assert set(points.values()) == {131**3}
        assert len(calls) > len(points)

    def test_slab_calls_share_one_output_buffer(self, driven_run16, monkeypatch):
        r = driven_run16
        outs, threads = [], []
        calls = count_evaluations(monkeypatch, outs, threads)
        pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO)
        assert len(outs) == len(calls) == 9 * 7 * len(r.v.times)  # 9 slabs, 7 components
        assert all(out is not None for out in outs)
        # every call writes into a view of its worker's one buffer, and the
        # views start at that buffer's two rows only
        bases = {}
        for out, thread in zip(outs, threads):
            bases.setdefault(thread, set()).add(id(out.base))
        assert 1 <= len(bases) <= _fft.WORKERS
        assert all(len(made) == 1 for made in bases.values())
        assert len(set.union(*bases.values())) == len(bases)
        assert len({out.__array_interface__["data"][0] for out in outs}) == 2 * len(bases)

    def test_weighted_variant_leaves_the_drift_off_the_lattice(self, driven_run16, monkeypatch):
        # its J-terms read a only through ma, which samples the native grid
        r = driven_run16
        calls = count_evaluations(monkeypatch)
        pressure.pressure_oscillation_terms(
            r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO, t0=self.T0
        )
        assert len(calls) == 9 * 4 * len(r.v.times)  # 9 slabs; v and q, 4 components
        assert len({id(hat) for hat, _ in calls}) == 4 * len(r.v.times)

    def test_small_lattice_is_one_slab(self, driven_run16, monkeypatch):
        # r = 1/4 under rho = 1: 67^3 points, one evaluation per component
        r = driven_run16
        calls = count_evaluations(monkeypatch)
        pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), 0.25, 1.0)
        assert [size for _, size in calls] == [67**3] * (7 * len(r.v.times))

    @pytest.mark.parametrize("t0", [None, T0])
    def test_two_workers_give_the_bits_of_one(self, driven_run16, monkeypatch, t0):
        # the same 9 slabs walked on two threads, in the calling thread, and
        # on two threads again
        r = driven_run16
        kw = {} if t0 is None else {"t0": t0}
        reports = []
        for workers in (2, 1, 2):
            monkeypatch.setattr(_fft, "WORKERS", workers)
            threads = []
            count_evaluations(monkeypatch, threads=threads)
            rep = pressure.pressure_oscillation_terms(
                r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO, **kw
            )
            reports.append((rep.lhs, rep.terms, rep.ma))
            assert {t == threading.get_ident() for t in threads} == {workers == 1}
        assert reports[0] == reports[1] == reports[2]

    def test_shared_spectra_are_made_and_dropped_once_under_contention(
        self, driven_run16, monkeypatch
    ):
        # four workers on two cores, switching every microsecond, and each
        # transform a millisecond longer: a lost check-then-act in
        # FrameSpectra transforms a slice twice, and a lost update of a
        # slice's sampled rows drops it early (to be made again) or never
        r = driven_run16
        args = (r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO)
        monkeypatch.setattr(_fft, "WORKERS", 1)
        want = pressure.pressure_oscillation_terms(*args)
        made, dropped = [], []
        rfftn, drop = _fft.rfftn, cylinder.FrameSpectra.drop

        def counted_drop(spectra, i):
            dropped.append((id(spectra), i))
            drop(spectra, i)

        def slow_rfftn(x):
            made.append(x.shape)
            time.sleep(1e-3)
            return rfftn(x)

        monkeypatch.setattr(_fft, "rfftn", slow_rfftn)
        monkeypatch.setattr(cylinder.FrameSpectra, "drop", counted_drop)
        monkeypatch.setattr(_fft, "WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = pressure.pressure_oscillation_terms(*args)
        finally:
            sys.setswitchinterval(interval)
        m = len(r.v.times)
        assert len(made) == 7 * m  # v, q and a: seven components per slice
        assert len(dropped) == len(set(dropped)) == 3 * m
        assert got == want

    def test_walk_joins_its_threads_before_it_returns(self, driven_run16, monkeypatch):
        r = driven_run16
        monkeypatch.setattr(_fft, "WORKERS", 2)
        started = count_thread_starts(monkeypatch)
        before = threading.active_count()
        pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO)
        assert threading.active_count() == before
        assert 1 <= len(started) <= 2
        assert not any(thread.is_alive() for thread in started)

    def test_one_slab_lattice_starts_no_thread(self, driven_run16, monkeypatch):
        # r = 1/4 under rho = 1: 67^3 points, sampled in the calling thread
        r = driven_run16
        monkeypatch.setattr(_fft, "WORKERS", 2)
        started = count_thread_starts(monkeypatch)
        threads = []
        count_evaluations(monkeypatch, threads=threads)
        pressure.pressure_oscillation_terms(r.v, r.a, r.q, (0, 0, 0), 0.25, 1.0)
        assert started == []
        assert set(threads) == {threading.get_ident()}

    def test_peak_memory_is_at_most_half_the_whole_lattice_pass(self, driven_run16):
        r = driven_run16
        args = (r.v, r.a, r.q, (0, 0, 0), self.R, self.RHO)
        peaks = []
        for oscillation in (pressure.pressure_oscillation_terms, whole_lattice_oscillation):
            oscillation(*args)  # caches filled before the measurement
            tracemalloc.start()
            try:
                oscillation(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.5 * peaks[1], peaks

    def test_peak_memory_does_not_grow_with_the_slab_count(self, driven_run16):
        # rho = 1/2: 131^3 points in 9 slabs; rho = 3/4: 195^3 points in 33
        r = driven_run16
        peaks = []
        for rho in (self.RHO, 0.75):
            args = (r.v, r.a, r.q, (0, 0, 0), self.R, rho)
            pressure.pressure_oscillation_terms(*args)  # caches filled before the measurement
            tracemalloc.start()
            try:
                pressure.pressure_oscillation_terms(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks
