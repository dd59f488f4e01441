"""Homogeneous Besov norms two ways, and the low/high frequency splitting.

The dyadic projector profile phi is built from the exponential smoothstep:
psi equals 1 below 3/2 and 0 above 8/3, and phi(rho) = psi(rho) - psi(2 rho)
is supported on the annulus (3/4, 8/3). Summing phi(2^-j rho) over a band
range telescopes to psi(2^-j_max rho) - psi(2^-(j_min-1) rho), so the
partition of unity holds exactly (to round-off) for frequencies between
(4/3) 2^j_min and (3/2) 2^j_max; the band range is chosen so every
nonzero grid frequency sits in that window.

Norms over the box play the role of global norms: fields of interest decay
inside the box or are explicitly periodic corpus members.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fieldio import write_csv
from .fields import VectorField, smoothstep
from .norms import NormReport, box_lp
from .spectral import apply_multiplier, divergence, heat_semigroup

__all__ = [
    "LPProjectorBank",
    "BesovSplit",
    "lp_project",
    "besov_norm_lp",
    "besov_norm_heat",
    "besov_split",
    "split_sweep",
    "write_split_csv",
]

# regularity gain of the low part: besov_split reports bar in
# B^{-1+DELTA2}_{inf,inf}, whose norm may grow like N^{DELTA2}
DELTA2 = 0.5
_DIV_TOL = 1e-8  # relative divergence besov_split accepts, per |k|_max ||g||_2
_HEAT_SAMPLES = 40  # log-spaced times of the heat-flow sup


def _psi(rho):
    return 1.0 - smoothstep((np.asarray(rho, dtype=np.float64) - 1.5) / (8.0 / 3.0 - 1.5))


def _phi(rho):
    return _psi(rho) - _psi(2.0 * np.asarray(rho, dtype=np.float64))


class LPProjectorBank:
    """Dyadic frequency bands covering all nonzero frequencies of a grid."""

    def __init__(self, grid):
        kmax = math.sqrt(float(np.max(grid.k2)))
        self.grid = grid
        self.j_min = math.floor(math.log2(grid.k0 * 3.0 / 4.0))
        self.j_max = math.ceil(math.log2(kmax * 2.0 / 3.0))
        self._kabs = np.sqrt(grid.k2)

    @property
    def bands(self):
        return range(self.j_min, self.j_max + 1)

    def weight(self, j):
        """Multiplier phi(2^-j |xi|) on the rfft frequency layout."""
        if j < self.j_min or j > self.j_max:
            raise ValueError("band %d outside [%d, %d]" % (j, self.j_min, self.j_max))
        return _phi(self._kabs * 2.0 ** (-j))

    def partition_defect(self):
        """max |sum_j phi_j - 1| over nonzero grid frequencies."""
        total = np.zeros_like(self._kabs)
        for j in self.bands:
            total += self.weight(j)
        active = self._kabs > 0
        return float(np.max(np.abs(total[active] - 1.0)))


def lp_project(f, j):
    """Dyadic block: multiply the spectrum by phi(2^-j |xi|)."""
    return apply_multiplier(f, LPProjectorBank(f.grid).weight(j))


def besov_norm_lp(f, s, p, name=None):
    """Littlewood-Paley Besov norm sup over bands of 2^{js} ||block||_p: q = inf,
    the paper's B^s_{p,inf}. f's spectrum is read through a view (fields)."""
    return _lp_sup(type(f)(f.grid, f.data), [(s, p, name)])[0]


def _lp_sup(f, norms):
    """besov_norm_lp of f for each (s, p, name) in norms, reading, and caching,
    f's own spectrum: one walk of the bands makes each weight and block once."""
    norms = [(float(s), float(p), name) for s, p, name in norms]
    for s, p, _ in norms:
        if not s < (0.0 if p == math.inf else 3.0 / p):
            raise ValueError("regularity must satisfy s < 3/p")
    bank = LPProjectorBank(f.grid)
    terms = [[] for _ in norms]
    for j in bank.bands:
        block = lp_project(f, j).data
        for (s, p, _), t in zip(norms, terms):
            t.append(2.0 ** (j * s) * box_lp(f.grid, block, p))
        del block  # not held through the next band's block
    method = "Littlewood-Paley bands j in [%d, %d]" % (bank.j_min, bank.j_max)
    return [NormReport(name or "B(%g,%g,inf)" % (s, p), max(t), None, method)
            for (s, p, name), t in zip(norms, terms)]


def besov_norm_heat(f, s, p):
    """Heat-flow Besov norm sup_t t^{-s/2} ||e^{t Lap} f||_p, t on a log lattice.

    The sup is a lattice lower bound over 40 points spanning [dx^2, L^2/16];
    the mean is removed first since the seminorm is homogeneous. Each
    damped field is spectral.heat_semigroup of the mean-free field, whose
    spectrum is made once and read at every time.
    """
    s = float(s)
    if not s < 0:
        raise ValueError("heat characterization needs s < 0")
    g = f.grid
    f = type(f)(g, f.data - np.mean(f.data, axis=(-3, -2, -1), keepdims=True))
    ts = np.geomspace(g.dx**2, g.L**2 / 16.0, _HEAT_SAMPLES)
    best = 0.0
    for t in ts:
        best = max(best, t ** (-s / 2.0) * box_lp(g, heat_semigroup(f, t).data, p))
    return NormReport(
        name="B_heat(%g,%g)" % (s, p),
        value=best,
        region=None,
        method="heat-flow sup over %d log-spaced times (lower bound)" % _HEAT_SAMPLES,
    )


@dataclass(frozen=True)
class BesovSplit:
    """Sharp-threshold frequency split with the four persistence norms.

    The low part's B^{-1+DELTA2}_{inf,inf} norm may grow with exponent
    DELTA2; the decay rate of the high part's L^2 norm is empirical and
    fitted by split_sweep.
    """

    tilde_g: VectorField
    bar_g: VectorField
    N: float
    p: float
    reports: dict


def besov_split(g, N, p):
    """Split a divergence-free field at the sharp frequency threshold N.

    bar carries the modes with |xi| <= N (mean included), tilde the rest, so
    tilde + bar reproduces g exactly and both parts stay divergence-free.
    """
    if float(N) <= 0:
        raise ValueError("threshold N must be positive")
    if not isinstance(g, VectorField):
        raise ValueError("besov_split takes a vector field")
    grid = g.grid
    g = VectorField(grid, g.data)  # a view: the caller's field keeps no spectrum
    scale = g.l2()
    if scale > 0:
        kmax = math.sqrt(float(np.max(grid.k2)))
        if divergence(g).l2() > _DIV_TOL * kmax * scale:
            raise ValueError("field is not divergence-free")
    low = grid.k2 <= float(N) ** 2
    bar = apply_multiplier(g, low.astype(np.float64))
    tilde = VectorField(grid, g.data - bar.data)
    del g  # the view and its spectrum; bar's goes once bar's two norms are taken
    bmo, crit = _lp_sup(bar, [(-1.0 + DELTA2, math.inf, "bar_B(%g,inf,inf)" % (-1.0 + DELTA2)),
                              (-1.0 + 3.0 / p, p, "bar_crit")])
    bar = VectorField(grid, bar.data)  # a view without that spectrum
    reports = {
        "tilde_l2": NormReport("tilde_l2", tilde.l2(), None, "box L2"),
        "bar_l2": NormReport("bar_l2", bar.l2(), None, "box L2"),
        "bar_bmo_like": bmo,
        "tilde_critical": besov_norm_lp(tilde, -1.0 + 3.0 / p, p, name="tilde_crit"),
        "bar_critical": crit,
    }
    return BesovSplit(
        tilde_g=tilde,
        bar_g=bar,
        N=float(N),
        p=float(p),
        reports=reports,
    )


def split_sweep(g, thresholds, p):
    """Run besov_split across thresholds and fit the two scaling exponents.

    Returns {rows, slope_tilde, slope_bar}: rows are (N, ||tilde||_L2,
    ||bar||_B^{-1+DELTA2}); slopes are log-log fits, skipping values that
    have collapsed to round-off (threshold past the active spectrum).
    """
    rows = []
    for N in thresholds:
        sp = besov_split(g, N, p)
        rows.append(
            (
                float(N),
                sp.reports["tilde_l2"].value,
                sp.reports["bar_bmo_like"].value,
            )
        )
    floor = 1e-13 * max(g.l2(), 1e-300)

    def _fit(idx):
        pts = [(math.log(r[0]), math.log(r[idx])) for r in rows if r[idx] > floor]
        if len(pts) < 2:
            return 0.0
        xs, ys = zip(*pts)
        return float(np.polyfit(xs, ys, 1)[0])

    return {"rows": rows, "slope_tilde": _fit(1), "slope_bar": _fit(2)}


def write_split_csv(path, sweep):
    slopes = (sweep["slope_tilde"], sweep["slope_bar"])
    write_csv(
        path,
        ["N", "tilde_l2", "bar_besov", "slope_tilde", "slope_bar"],
        (row + slopes for row in sweep["rows"]),
    )
