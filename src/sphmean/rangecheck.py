"""Range characterization tests for spherical-mean data.

The operator

    L_k = sum_{p=0}^{k} C(k,p) (1-t)^p D^p,     D = (1/t) d/dt,

maps transform data h(t) = t^(n-2) g(t) to a function symmetric about t = 1:
data is in the range exactly when [L_k h](1-t) = [L_k h](1+t).  For
single-harmonic data the same symmetry holds for L_{m+k} applied to an
m-fold D-antiderivative phi of h that must itself be compactly supported;
the m compact-support moment defects are part of the verdict.

Two data paths feed the residual: forward-generated profiles carry analytic
kernel derivatives; externally sampled data is differentiated spectrally on a
Chebyshev grid (noise floor ~ machine-eps * degree^2, documented in
SampledH.noise_floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exactmath import coeff_C
from .specfun import Jet, d_operator
from .transform import QuadratureRule, _by_order

# antiderivative integrands carry boundary layers from high bump derivatives;
# the chain uses a finer composite rule than the forward transform needs
CHAIN_QUAD = QuadratureRule(32, 96)


# ---------------------------------------------------------------------------
# the range operator


@lru_cache(maxsize=None)
def lk_coefficients(k: int) -> tuple:
    """Exact coefficients (c_0 .. c_k) with L_k = sum_p c_p (1-t)^p D^p."""
    if k < 0:
        raise ValueError("k >= 0")
    return tuple(coeff_C(k, p) for p in range(k + 1))


def apply_Lk(h_dp, k: int, tau):
    """[L_k h](tau) from a derivative oracle h_dp(t, orders) that returns one
    row D^p h(t) per order p of a sequence.

    tau may be an array: the oracle is asked once, for the orders 0..k at
    every tau in (0, 2), and L_k is a coefficient dot (in order of p) on that
    derivative block.  Compactly supported data vanishes identically near 0
    and 2, so tau outside (0, 2) evaluates to 0 without the oracle.
    """
    taus = np.asarray(tau, dtype=float)
    flat = taus.ravel()
    live = (flat > 0.0) & (flat < 2.0)
    out = np.zeros(flat.shape)
    if live.any():
        t_live = flat[live]
        rows = h_dp(t_live, tuple(range(k + 1)))
        acc = np.zeros(t_live.shape)
        for p, c in enumerate(lk_coefficients(k)):
            weight = np.array([float(c) * (1.0 - t) ** p for t in t_live.tolist()])
            acc = acc + weight * rows[p]
        out[live] = acc
    return float(out[0]) if taus.ndim == 0 else out.reshape(taus.shape)


# ---------------------------------------------------------------------------
# reports


@dataclass
class RangeReport:
    k_used: int
    grid: np.ndarray
    residual: np.ndarray
    sup_residual: float
    scale: float
    normalized: float

    def passed(self, tol: float) -> bool:
        return self.normalized <= tol


def default_grid(points: int = 101, t_min: float = 0.01) -> np.ndarray:
    """Uniform t-grid on [t_min, 1]; t = 1 kept as a trivial sanity anchor."""
    if t_min < 1e-3:
        raise ValueError("t_min >= 1e-3")
    return np.linspace(t_min, 1.0, points)


def _symmetry_report(h_dp, k: int, grid) -> RangeReport:
    """L_k on both sides 1 -+ t of the grid, in one derivative block."""
    grid = np.asarray(grid, dtype=float)
    sides = apply_Lk(h_dp, k, np.concatenate([1.0 - grid, 1.0 + grid]))
    left, right = sides[: grid.size], sides[grid.size :]
    residual = np.abs(left - right)
    # np.max keeps a NaN on either side, so NaN data reads NaN, a FAIL
    sup_residual = float(np.max(residual))
    scale = float(np.max(np.abs(sides)))
    normalized = sup_residual / scale if scale != 0 else 0.0
    return RangeReport(k, grid, residual, sup_residual, scale, normalized)


def range_residual(data, k: int | None = None, grid: np.ndarray | None = None) -> RangeReport:
    """Symmetry residual sup_t |[L_k h](1-t) - [L_k h](1+t)| over the grid:
    the m = 0 case of general_range_check.

    `data` needs a dp_h(t, p) method that takes an array of t and an order
    or a sequence of orders p <= k (SmtProfile, SampledH, JetH, PerturbedH).
    k is the caller's, else data.dim.k.
    """
    return general_range_check(data, 0, k, grid).range_report


# ---------------------------------------------------------------------------
# sampled data path (Chebyshev spectral differentiation)


@lru_cache(maxsize=None)
def _cheb_matrix(degree: int):
    """Chebyshev–Gauss–Lobatto nodes on [-1,1] (descending) and the
    differentiation matrix with the negative-sum diagonal."""
    N = degree
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c = c * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D = D - np.diag(D.sum(axis=1))
    return x, D


class SampledH:
    """Data h known only through samples on a Chebyshev grid over [a, b].

    Supplies the same dp_h(t, p) interface as forward-generated profiles, with
    derivatives computed spectrally and values interpolated barycentrically.
    h is extended by zero outside [a, b] (the support must sit inside).
    """

    def __init__(self, values, a: float, b: float):
        values = np.asarray(values, dtype=float)
        if not (0.0 < a < b < 2.0):
            raise ValueError("need 0 < a < b < 2")
        self.degree = len(values) - 1
        if self.degree < 2:
            raise ValueError("need at least 3 samples")
        self.a, self.b = a, b
        x, D = _cheb_matrix(self.degree)
        self.t_nodes = (a + b) / 2 + (b - a) / 2 * x
        self._Dt = D * (2.0 / (b - a))
        self._derivs = [values]

    @classmethod
    def from_function(cls, fn, a: float = 0.01, b: float = 1.99, degree: int = 128):
        x, _ = _cheb_matrix(degree)
        t = (a + b) / 2 + (b - a) / 2 * x
        return cls(np.full(t.shape, fn(t), dtype=float), a, b)

    @property
    def noise_floor(self) -> float:
        """Residual claims below this are meaningless for this grid."""
        return np.finfo(float).eps * self.degree ** 2

    def _deriv_values(self, p: int):
        if p > self.degree - 2:
            raise ValueError(f"degree {self.degree} insufficient for {p} D-derivatives")
        while len(self._derivs) <= p:
            prev = self._derivs[-1]
            self._derivs.append((self._Dt @ prev) / self.t_nodes)
        return self._derivs[p]

    @property
    def _bary_weights(self):
        N = self.degree
        w = (-1.0) ** np.arange(N + 1)
        w[0] *= 0.5
        w[N] *= 0.5
        return w

    def h(self, t):
        return self.dp_h(t, 0)

    def dp_h(self, t, p):
        """D^p h at t for an order p, or one row per order of a sequence; the
        barycentric weights of the t are built once for all orders."""
        ts = np.asarray(t, dtype=float).ravel()
        orders = np.atleast_1d(p).tolist()
        out = np.zeros((len(orders), ts.size))
        # only points in [a, b]: far outside, the barycentric sum cancels to 0
        inside = (ts >= self.a) & (ts <= self.b)
        diff = ts[inside, None] - self.t_nodes[None, :]
        exact = np.abs(diff) < 1e-14
        diff = np.where(exact, 1.0, diff)
        q = self._bary_weights[None, :] / diff
        q_sum = q.sum(axis=1)
        hit_rows = exact.any(axis=1)
        hits = np.argmax(exact[hit_rows], axis=1)
        for row, order in zip(out, orders):
            values = self._deriv_values(order)
            # one BLAS dot per t, as for a single t: a matrix product would
            # sum in another order and change the last bits
            part = np.vecdot(q, values) / q_sum
            part[hit_rows] = values[hits]
            row[inside] = part
        return _by_order(out, p, np.shape(t))


# ---------------------------------------------------------------------------
# synthetic and perturbed data


class JetH:
    """h given directly as a smooth jet-capable profile in the t variable."""

    def __init__(self, jet_fn, support):
        self._jet_fn = jet_fn
        self.support = support

    def h(self, t):
        return self.dp_h(t, 0)

    def dp_h(self, t, p):
        """D^p h at t for an order p, or one row per order of a sequence, all
        from one jet of the top order (its low entries do not depend on it)."""
        ts = np.asarray(t, dtype=float).ravel()
        orders = np.atleast_1d(p).tolist()
        lo, hi = self.support
        inside = (ts > lo) & (ts < hi)
        out = np.zeros((len(orders), ts.size))
        if inside.any():
            jet = self._jet_fn(ts[inside], max(max(orders), 1))
            for row, order in zip(out, orders):
                row[inside] = d_operator(jet, order)
        return _by_order(out, p, np.shape(t))


def bump_h(center: float, width: float, amplitude: float = 1.0) -> JetH:
    """A bump in the t variable (anywhere in (0,2)); used as non-range data."""
    if not (0.0 < center - width and center + width < 2.0):
        raise ValueError("bump must sit inside (0, 2)")

    def jet_fn(t, order: int) -> Jet:
        tj = Jet.variable(t, order)
        y = (tj - center) * (1.0 / width)
        y.derivs[0] = np.clip(y.derivs[0], -1 + 1e-8, 1 - 1e-8)
        return ((-1.0) / (1.0 - y * y)).exp() * amplitude

    return JetH(jet_fn, (center - width, center + width))


class PerturbedH:
    """Multiplies the data by (1 + delta) on t > 1, leaving t < 1 alone.

    Models a half-space calibration error; breaks the range symmetry by an
    amount proportional to delta.
    """

    def __init__(self, base, delta: float):
        self.base = base
        self.delta = delta
        dim = getattr(base, "dim", None)
        if dim is not None:
            self.dim = dim

    @property
    def support(self):
        return self.base.support

    def _factor(self, t):
        return np.where(np.asarray(t) > 1.0, 1.0 + self.delta, 1.0)

    def h(self, t):
        return self._factor(t) * self.base.h(t)

    def dp_h(self, t, p: int):
        return self._factor(t) * self.base.dp_h(t, p)


# ---------------------------------------------------------------------------
# D-antiderivatives and compact-support defects


class AntiDerivativeChain:
    """phi with D^m phi = psi, built by m-fold s-weighted integration from 0.

    Every D-power of phi below m collapses to the single integral

        [D^p phi](t) = (1/(m-p-1)!) * integral_0^t ((t^2-s^2)/2)^(m-p-1)
                                                     s psi(s) ds,

    and the compact-support moment defects are the values of the successive
    antiderivatives at t = 2 (all must vanish for phi to be compactly
    supported in (0,2)).  psi must accept flat arrays of s.
    """

    def __init__(self, psi, m: int, quad: QuadratureRule = CHAIN_QUAD, lo: float = 0.0):
        if m < 0:
            raise ValueError("m >= 0")
        if not lo < 2.0:
            raise ValueError("lo < 2")
        self.psi = psi
        self.m = m
        self.quad = quad
        self.lo = lo
        self._defect_sums = None

    @staticmethod
    def _integrand(s, psi_s, t_sq, e: int):
        if e == 0:
            return s * psi_s
        return ((t_sq - s * s) / 2.0) ** e * s * psi_s

    def _psi(self, s):
        """psi on an array of s of any shape, through its flat-array call."""
        return np.asarray(self.psi(s.ravel()), dtype=float).reshape(s.shape)

    def _kernel_integral(self, t, e: int):
        """The order-e chain integral from lo to every t at once."""
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        t_sq = flat * flat

        def integrand(rows, s, psi_s):
            return self._integrand(s, psi_s, t_sq[rows, None], e)

        values = self.quad.integrate_rows(self._psi, integrand, self.lo, flat) / math.factorial(e)
        return float(values[0]) if ts.ndim == 0 else values.reshape(ts.shape)

    def phi(self, t):
        if self.m == 0:
            return self.psi(t)
        return self._kernel_integral(t, self.m - 1)

    def dp_phi(self, t, p: int):
        if p > self.m:
            raise ValueError(f"only orders up to m = {self.m} available from the chain")
        if p == self.m:
            return self.psi(t)
        return self._kernel_integral(t, self.m - p - 1)

    def _defects(self):
        """The m defect integrals over [lo, 2], then the same with |integrand|,
        each over its factorial: one integrate_rows row, so psi is read once;
        m = 0 has none and needs no nodes."""
        if self._defect_sums is None:
            self._defect_sums = []
            if self.m:
                def integrand(rows, s, psi_s):
                    terms = [self._integrand(s, psi_s, 4.0, i) for i in range(self.m)]
                    return np.array(terms + [np.abs(v) for v in terms])

                sums = self.quad.integrate_rows(self._psi, integrand, self.lo, [2.0],
                                                (2 * self.m,))[:, 0]
                self._defect_sums = [float(v) / math.factorial(i % self.m)
                                     for i, v in enumerate(sums.tolist())]
        return self._defect_sums

    def moment_defects(self):
        """Values of the 1st..m-th antiderivatives at t = 2 (must be ~0)."""
        return self._defects()[: self.m]

    def defect_scales(self):
        """Same integrals with |integrand|: the natural comparison scale."""
        return self._defects()[self.m :]


def anti_D(psi, m: int, quad: QuadratureRule = CHAIN_QUAD):
    """(phi, moment_defects) with D^m phi = psi; defects flag non-compact phi."""
    chain = AntiDerivativeChain(psi, m, quad)
    return chain.phi, chain.moment_defects()


# ---------------------------------------------------------------------------
# general (single-harmonic) range check


@dataclass
class GeneralRangeReport:
    range_report: RangeReport
    moment_defects: list
    defect_scales: list

    def defects_passed(self, tol_factor: float = 1e-8) -> bool:
        return all(
            abs(d) <= tol_factor * max(s, 1e-300)
            for d, s in zip(self.moment_defects, self.defect_scales)
        )


def general_range_check(
    data,
    m: int,
    k: int | None = None,
    grid: np.ndarray | None = None,
    quad: QuadratureRule = CHAIN_QUAD,
) -> GeneralRangeReport:
    """L_{m+k} symmetry of the m-fold antiderivative plus moment defects.

    k is the caller's, else data.dim.k.  Forward-generated harmonic data
    (HarmonicForwardData) uses its analytic phi derivatives.  Otherwise phi
    comes from anti_D integrals of h, and orders p >= m are the data's own
    dp_h(t, p - m), all read in one call; data with only an h(t) method is
    first resampled (SampledH.from_function) and differentiated spectrally.
    At m = 0 the chain is empty and this is range_residual.
    """
    if grid is None:
        grid = default_grid()
    if k is None:
        if getattr(data, "dim", None) is None:
            raise ValueError("cannot infer k; pass it explicitly")
        k = data.dim.k

    if hasattr(data, "phi_dp"):  # analytic forward route
        phi_dp = data.phi_dp
        chain = AntiDerivativeChain(data.h, m, quad)
    else:
        if hasattr(data, "dp_h"):
            dp_h = data.dp_h
        else:
            dp_h = SampledH.from_function(data.h, degree=128).dp_h
        chain = AntiDerivativeChain(lambda t: dp_h(t, 0), m, quad)

        def chained(t, orders):
            high = iter(dp_h(t, [p - m for p in orders if p >= m]))
            return np.array([chain.dp_phi(t, p) if p < m else next(high) for p in orders])

        phi_dp = chained if m else dp_h

    report = _symmetry_report(phi_dp, m + k, grid)
    return GeneralRangeReport(report, chain.moment_defects(), chain.defect_scales())
