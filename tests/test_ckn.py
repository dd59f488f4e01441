"""Oracle tests for the dyadic cylinder ledger on hand-built stored orbits."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from critnorm import _fft, ckn, cylinder, pns, pressure
from critnorm.fields import Grid, SpaceTimeField, taylor_green_3d
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


def _spectra(grid, frame):
    """The FrameSpectra of a one-frame stored field holding frame."""
    return cylinder.FrameSpectra(SpaceTimeField(grid, [0.0], frame[None]))


def _orbit(grid, times, scale=lambda t: 1.0, v=None, q=None):
    X, Y, Z = grid.coords()
    v = _velocity(grid, X, Y, Z) if v is None else v
    q = _pressure(grid, X, Y, Z) if q is None else q
    return SimpleNamespace(
        grid=grid,
        v=SpaceTimeField(grid, times, np.array([scale(t) * v for t in times])),
        q=SpaceTimeField(grid, times, np.array([scale(t) * q for t in times])),
    )


@pytest.fixture()
def evaluations(monkeypatch):
    """Counts the off-grid evaluations of the cylinder quadrature."""
    calls = []
    real = cylinder.evaluate_at_points

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cylinder, "evaluate_at_points", counting)
    return calls


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


class TestGradientLoad:
    @staticmethod
    def _grad_sq(grid, x, y, z):
        # sum_ij |d_j v_i|^2 of _velocity in closed form
        k = 2.0 * math.pi / grid.L
        return (
            (0.8 * k * np.cos(k * y)) ** 2
            + (k * np.sin(2 * k * z)) ** 2
            + (0.3 * k * np.cos(k * x + 0.4)) ** 2
        )

    def test_native_cells_and_lattice_match_closed_form(self, grid16):
        X, Y, Z = grid16.coords()
        spectra = _spectra(grid16, _velocity(grid16, X, Y, Z))
        want = self._grad_sq(grid16, X, Y, Z)
        got = cylinder.sample_grad_sq(spectra, 0, None)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        axes, _, _ = cylinder.ball_points(grid16, CENTER, 0.25)
        want = self._grad_sq(grid16, *np.meshgrid(*axes, indexing="ij"))
        got = cylinder.sample_grad_sq(spectra, 0, axes)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


class TestBallSlabs:
    def test_lattice_slabs_partition_the_cube_bit_for_bit(self, grid16):
        # r = 1/16 under 1/2: a 131^3 lattice in x-slabs of 30 rows
        axes, rad, cell = cylinder.ball_points(grid16, CENTER, 1.0 / 16.0, outer=0.5)
        slabs, slab_cell = cylinder.ball_slabs(grid16, CENTER, 1.0 / 16.0, outer=0.5)
        slabs = list(slabs)
        assert slab_cell == cell and rad.shape == (131,) * 3
        assert len(slabs) > 1 and all(s[2].size <= 2**19 for s in slabs)
        assert np.array_equal(np.concatenate([s[2] for s in slabs]), rad)
        assert np.array_equal(np.concatenate([s[1][0] for s in slabs]), axes[0])
        for rows, slab_axes, _ in slabs:
            assert np.array_equal(slab_axes[0], axes[0][rows])
            assert all(np.array_equal(a, b) for a, b in zip(slab_axes[1:], axes[1:]))
        X, Y, Z = grid16.coords()
        frame = _velocity(grid16, X, Y, Z)
        whole = cylinder.sample_slice(_spectra(grid16, frame), 0, axes)
        spectra = _spectra(grid16, frame)
        parts = [cylinder.sample_slice(spectra, 0, a, rows) for rows, a, _ in slabs]
        assert np.allclose(np.concatenate(parts), whole, rtol=1e-13, atol=0.0)

    def test_native_slabs_are_row_blocks_of_the_grid(self, grid16):
        # 128^3 native cells resolve r = 1: four slabs of 32 x rows
        grid = Grid(128, grid16.L)
        slabs, cell = cylinder.ball_slabs(grid, CENTER, 1.0)
        slabs = list(slabs)
        assert cell == grid.cell_volume
        assert [s[0] for s in slabs] == [slice(x, x + 32) for x in range(0, 128, 32)]
        assert all(s[1] is None for s in slabs)
        assert np.array_equal(np.concatenate([s[2] for s in slabs]), grid.radius(CENTER))
        q = np.cos(grid.coords()[0]) + np.zeros(grid.shape)
        rows = slabs[1][0]
        got = cylinder.sample_slice(_spectra(grid, q), 0, None, rows=rows)
        assert np.array_equal(got, q[rows])


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
    @staticmethod
    def _weighted(run, t0):
        return ckn.build_ledger(run, CENTER, TOP, ks=(2,), eta=0.6, t0=t0).rows[0].weighted

    def test_mass_at_or_before_t0_is_infinite(self, grid16):
        run = _orbit(grid16, T16)
        # window of k = 2 holds t = 4/64 .. 8/64; three slices sit at or below t0
        w = self._weighted(run, 6.0 / 64.0)
        assert w.apk == w.appk == w.bpk == math.inf
        assert not w.ok
        quiet = self._weighted(run, 0.0)
        assert all(math.isfinite(x) for x in (quiet.apk, quiet.appk, quiet.bpk))


class TestLedgerEntries:
    def test_weighted_row_with_mass_before_t0_fails_and_writes_inf(self, grid16, tmp_path):
        run = _orbit(grid16, T16)
        ledger = ckn.build_ledger(run, CENTER, TOP, ks=(2,), eta=0.6, t0=6.0 / 64.0)
        (row,) = ledger.rows
        w = row.weighted
        assert w.apk == w.appk == w.bpk == math.inf
        assert not row.passed
        path = tmp_path / "ledger.csv"
        ckn.write_ledger_csv(str(path), ledger)
        cells = path.read_text().splitlines()[1].split(",")
        assert cells[-3:] == ["inf", "inf", "inf"]

    @staticmethod
    def _row(a_value=1.0, a_target=1.0, apk=0.5):
        weighted = ckn.WeightedValues(apk, 0.5, 0.5, 1.0, 1.0, 1.0)
        return ckn.LedgerRow(2, 0.25, a_value, a_target, 0.5, 1.0, False, weighted)

    @pytest.mark.parametrize(
        "entries", [dict(apk=math.nan), dict(apk=-math.inf), dict(a_value=math.inf),
                    dict(a_target=math.inf), dict(a_value=math.nan)]
    )
    def test_nan_and_other_non_finite_entries_raise(self, entries):
        with pytest.raises(ValueError, match="ledger entries must be finite"):
            ckn.DyadicLedger((self._row(**entries),), 0.6, 0.0)
        ckn.DyadicLedger((self._row(apk=math.inf),), 0.6, 0.0)


def _ledger_row_by_formula(run, k):
    """(A_k, B_k) on Q_{2^-k}(CENTER, TOP) from the module docstring's
    formulas, with the cylinder quadrature taken slice by slice."""
    g, r = run.grid, 2.0**-k
    sel = cylinder.stored_window(run.v.times, TOP - r * r, TOP)
    axes, rad, cell = cylinder.ball_points(g, CENTER, r)
    inside = rad <= r
    vs, qs = cylinder.FrameSpectra(run.v), cylinder.FrameSpectra(run.q)
    cubic, osc, energy, dissipation = [], [], [], []
    for i in sel:
        v2 = cylinder.sample_slice(vs, i, axes)[inside]
        q = cylinder.sample_slice(qs, i, axes)[inside]
        cubic.append(np.sum(v2**1.5) * cell)
        osc.append(np.sum(np.abs(q - np.mean(q)) ** 1.5) * cell)
        energy.append(np.sum(v2) * cell)
        dissipation.append(np.sum(cylinder.sample_grad_sq(vs, i, axes)[inside]) * cell)
    ts = run.v.times[sel]
    a_k = np.trapezoid(cubic, ts) / r**2 + np.trapezoid(osc, ts) / r
    b_k = max(energy) + np.trapezoid(dissipation, ts)
    return a_k, b_k


class TestBuildLedger:
    def test_rows_match_the_module_formulas(self, grid16):
        run = _orbit(grid16, T16, scale=lambda t: 1.0 + 4.0 * t)
        ledger = ckn.build_ledger(run, CENTER, TOP, ks=(2, 3), eta=0.6, t0=0.0)
        plain = ckn.build_ledger(run, CENTER, TOP, ks=(2, 3))
        for row, bare, k in zip(ledger.rows, plain.rows, (2, 3)):
            a_k, b_k = _ledger_row_by_formula(run, k)
            assert (row.k, row.r_k) == (k, 2.0**-k)
            assert row.a_value == pytest.approx(a_k, rel=1e-13)
            assert row.b_value == pytest.approx(b_k, rel=1e-13)
            assert (row.a_target, row.b_target) == (row.r_k**2, row.r_k ** (7.0 / 3.0))
            assert row.a_value > 0.0 and row.b_value > 0.0
            # the weighted variant leaves A_k, B_k and their budgets alone
            assert (bare.a_value, bare.a_target, bare.b_value, bare.b_target) == (
                row.a_value, row.a_target, row.b_value, row.b_target)
            assert bare.weighted is None and row.weighted is not None


    def test_rows_share_each_frame_components_spectrum(self, grid16, monkeypatch):
        # stored every 1/256 up to t = 1/16: 17 slices, every one of them in
        # the k = 2 window, and the k = 3 and k = 4 windows inside it
        cfg = pns.PNSConfig(dt=1.0 / 256.0, T=1.0 / 16.0, stride=1)
        run = pns.run_pns(taylor_green_3d(grid16, 0.3), cfg)
        calls = []
        real = _fft.rfftn

        def counting(values):  # every lattice here is off the grid: FrameSpectra's
            calls.append(values)
            return real(values)

        monkeypatch.setattr(_fft, "rfftn", counting)
        ckn.build_ledger(run, (0.0, 0.0, 0.0), 1.0 / 16.0, ks=(2, 3, 4), eta=0.6, t0=0.0)
        assert len(run.v.times) == 17
        assert len(calls) == 68  # three velocity components and q per stored slice


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

    @pytest.mark.parametrize("center", [CENTER, (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("gridname", ["grid16", "grid32"])
    def test_equals_sup_of_local_cubed_mass(self, request, evaluations, gridname, center):
        g = request.getfixturevalue(gridname)
        run = _orbit(g, T16, scale=lambda t: 1.0 + 4.0 * t)
        region = BallRegion(center, 0.7)
        r = 0.25
        # the documented centres: every second grid point per axis inside
        # the region, then the region centre unless it is one of them
        idx = np.argwhere(g.radius(center) <= region.radius)
        centres = [tuple(float(g.x[j]) for j in t) for t in idx if np.all(t % 2 == 0)]
        if region.center not in centres:
            centres.append(region.center)
        # five admissible tops, all of them scanned
        tops = T16[T16 - r * r >= T16[0]]
        assert 1 < len(tops) <= 6
        got = ckn.morrey_sup(run, region, ks=(2,)).value
        calls = len(evaluations)
        want = max(
            r**-4 * ckn.local_cubed_mass(run, c, float(t), r) for c in centres for t in tops
        )
        assert got == want
        # r = 1/4 lies on the r/8 lattice: three components per slice, each
        # slice of the scanned windows (all nine) sampled once per centre
        assert calls == 3 * len(T16) * len(centres)

    def test_every_radius_is_measured_or_raises(self, grid16):
        # stored every 1/16 up to t = 1/16: k = 2 has one window, k = 3 a
        # window of r^2 = 1/64 that holds one slice, and k = 1 none at all
        run = _orbit(grid16, np.array([0.0, 1.0 / 16.0]))
        region = BallRegion(CENTER, 0.5)
        assert ckn.morrey_sup(run, region, ks=(2,)).value > 0.0
        unresolved = "window of length 0.015625 .* needs at least two stored slices"
        for ks in [(3,), (2, 3)]:
            with pytest.raises(ValueError, match=unresolved):
                ckn.morrey_sup(run, region, ks=ks)
        with pytest.raises(ValueError, match=unresolved):
            ckn.build_ledger(run, CENTER, 1.0 / 16.0, ks=(3,))
        with pytest.raises(ValueError, match=r"r = 0\.5 .* span only 0\.0625"):
            ckn.morrey_sup(run, region, ks=(1, 2))
        with pytest.raises(ValueError, match="at least one"):
            ckn.morrey_sup(run, region, ks=())

    def test_every_window_is_checked_before_any_sample(self, grid16, evaluations):
        # the k = 2 cylinders are sampleable and come first; the k = 3
        # window cannot be resolved, so neither call may sample anything
        run = _orbit(grid16, np.array([0.0, 1.0 / 16.0]))
        unresolved = "window of length 0.015625 .* needs at least two stored slices"
        with pytest.raises(ValueError, match=unresolved):
            ckn.morrey_sup(run, BallRegion(CENTER, 0.5), ks=(2, 3))
        assert len(evaluations) == 0
        with pytest.raises(ValueError, match=unresolved):
            ckn.build_ledger(run, CENTER, 1.0 / 16.0, ks=(2, 3))
        assert len(evaluations) == 0


class TestTestFunction:
    def test_constants_stay_bounded_as_n_grows(self, grid16):
        base = ckn.build_test_function(grid16, CENTER, TOP, 4)
        for n in range(5, 9):
            tf = ckn.build_test_function(grid16, CENTER, TOP, n)
            assert abs(tf.c1 - base.c1) <= 0.02 * base.c1
            for name, value in tf.families.items():
                assert value <= 1.05 * base.families[name], (n, name)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_plateau_residual_is_rounding(self, grid16, n):
        # on the plateau the cutoff is flat and phi = r_n^2 Gamma, so
        # d_s phi and lap phi cancel; each is of size phi (rho^2/(4 tau^2) + 3/(2 tau))
        tf = ckn.build_test_function(grid16, CENTER, TOP, n)
        offs = np.linspace(-0.26, 0.26, 27)
        axes = tuple(CENTER[j] + offs for j in range(3))
        rho2 = offs[:, None, None] ** 2 + offs[None, :, None] ** 2 + offs[None, None, :] ** 2
        plateau = rho2 <= 0.26**2
        for s in TOP - np.linspace(0.0, 0.07, 8):
            tau = TOP + 2.0 * tf.r_n**2 - s
            scale = np.max((tf.value(axes, s) * (rho2 / (4.0 * tau**2) + 1.5 / tau))[plateau])
            assert np.max(np.abs(tf.heat_residual(axes, s)[plateau])) <= 1e-14 * scale


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


class TestLedgerInputs:
    @pytest.mark.parametrize("ks", [(2, 4), (3, 2), (2, 2), (2.5,), ()])
    def test_bad_ks_fail_before_any_slice_is_sampled(self, grid16, evaluations, ks):
        run = _orbit(grid16, T16)
        with pytest.raises(ValueError, match="ks must be consecutive increasing integers"):
            ckn.build_ledger(run, CENTER, TOP, ks=ks)
        assert evaluations == []
        # r = 1/4 lies on the r/8 lattice, so a valid row is seen evaluating
        ckn.build_ledger(run, CENTER, TOP, ks=(2,))
        assert evaluations

    def test_weighted_ledger_without_t0_names_it(self, grid16, evaluations):
        run = _orbit(grid16, T16)
        with pytest.raises(ValueError, match="needs t0"):
            ckn.build_ledger(run, CENTER, TOP, ks=(2, 3), eta=0.6)
        with pytest.raises(ValueError, match="t0 must not exceed the top time"):
            ckn.build_ledger(run, CENTER, TOP, ks=(2, 3), eta=0.6, t0=1.0)
        assert evaluations == []
