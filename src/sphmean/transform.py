"""Forward spherical mean transform of radial and single-harmonic functions
in odd dimension n = 2k+3.

All data paths are one-dimensional integrals in the radius variable u.  For a
radial profile f supported in [0, 1),

    h(t) = t^(n-2) g(t) = (omega_{n-1} / (4^k omega_n))
           * integral_{|1-t|}^{1} u f(u) Q(t,u)^k du,

where Q(t,u) = ((1+t)^2 - u^2)(u^2 - (1-t)^2) is nonnegative on the
integration range.  D-derivatives of the data (D = (1/t) d/dt) are computed
by differentiating the kernel polynomial exactly and integrating — never by
finite differences — so every derivative carries quadrature accuracy only.

An independent Funk–Hecke evaluation in the angular variable provides a
cross-check path that shares no code with the Q-kernel route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exactmath
from .specfun import Jet, d_coeff_table, d_operator, gegenbauer, gegenbauer_at_one

T_FLOOR = 1e-3  # below this, dividing h by t^(n-2) is refused


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class Dimension:
    """Odd ambient dimension n = 2k + 3."""

    n: int

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {self.n}")

    @property
    def k(self) -> int:
        return (self.n - 3) // 2

    @property
    def alpha(self) -> float:
        """Gegenbauer order (n-2)/2 attached to this dimension."""
        return (self.n - 2) / 2


def omega(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("n >= 1")
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


def q_kernel(t, u):
    """Q(t,u) = ((1+t)^2 - u^2)(u^2 - (1-t)^2), the forward kernel base."""
    return ((1 + t) ** 2 - u ** 2) * (u ** 2 - (1 - t) ** 2)


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=None)
def _gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


# nodes per quadrature block (rows of t times nodes per row): larger blocks
# only add memory traffic (one 201 x 1536 block made order-6 jet profiles
# 15-40% slower), smaller ones add per-block overhead
BLOCK_NODES = 16384

# A full block's float64 temporaries are 128 KiB, glibc's initial mmap
# threshold.  Depending on a process's earlier allocations, glibc then maps
# and unmaps them, or trims them off the heap, on every block: up to 30,000
# page faults in one CLI run.  Freeing one mapped 4 MiB buffer raises
# glibc's dynamic mmap threshold to 4 MiB and its trim threshold to 8 MiB,
# so block temporaries always reuse heap memory.  Other allocators, and
# glibc with MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ set, ignore it.
np.empty(4 << 20, dtype=np.uint8)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss–Legendre rule: `panels` equal panels of fixed order."""

    nodes_per_panel: int = 32
    panels: int = 8

    def __post_init__(self):
        if self.nodes_per_panel < 2 or self.panels < 1:
            raise ValueError("need nodes_per_panel >= 2 and panels >= 1")

    def points(self, a, b):
        """All nodes and weights for integrating over [a, b].

        For arrays a and b the rule is mapped onto every interval at once,
        one row of nodes and weights per interval.
        """
        x, w = _gauss_nodes(self.nodes_per_panel)
        edges = np.linspace(a, b, self.panels + 1, axis=-1)
        half = np.diff(edges) / 2.0
        mid = (edges[..., :-1] + edges[..., 1:]) / 2.0
        shape = np.shape(a) + (-1,)
        nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
        weights = (half[..., None] * w).reshape(shape)
        return nodes, weights

    def integrate(self, fn, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        nodes, weights = self.points(a, b)
        return float(np.dot(weights, fn(nodes)))

    def integrate_rows(self, integrand, a, b) -> np.ndarray:
        """Integral over [a[r], b[r]] for every row r; 0 where b[r] <= a[r].

        integrand(rows, u) gets a block of row indices (about BLOCK_NODES
        nodes in all) and its (rows x nodes) node array.  np.vecdot sums each
        row by its own BLAS dot, as np.dot in `integrate` does (a matrix
        product or einsum sums in another order), so a row does not depend
        on the batch it came in.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        out = np.zeros(a.shape)
        live = np.flatnonzero(b > a)
        step = max(1, BLOCK_NODES // (self.nodes_per_panel * self.panels))
        for start in range(0, live.size, step):
            rows = live[start:start + step]
            nodes, weights = self.points(a[rows], b[rows])
            out[rows] = np.vecdot(weights, integrand(rows, nodes))
        return out

    def refined(self) -> "QuadratureRule":
        return QuadratureRule(self.nodes_per_panel, 2 * self.panels)


DEFAULT_QUAD = QuadratureRule()


# ---------------------------------------------------------------------------
# radial profiles


class BumpProfile:
    """Smooth bump exp(-1 / (1 - ((r-c)/w)^2)) on (c-w, c+w), zero elsewhere.

    amplitude rescales; jets of any order exist everywhere (identically zero
    outside the open support interval, including at the touch points).
    """

    def __init__(self, center: float, width: float, amplitude: float = 1.0):
        if width <= 0:
            raise ValueError("width > 0")
        if center - width < 0 or center + width > 1:
            raise ValueError("bump support must stay inside [0, 1)")
        self.center = center
        self.width = width
        self.amplitude = amplitude

    @property
    def support(self):
        return (self.center - self.width, self.center + self.width)

    def _mask(self, r):
        return (np.abs(np.asarray(r, dtype=float) - self.center) < self.width).astype(float)

    def __call__(self, r):
        rs = np.asarray(r, dtype=float)
        y = np.clip((rs - self.center) / self.width, -1 + 1e-8, 1 - 1e-8)
        vals = self.amplitude * np.exp(-1.0 / (1.0 - y * y)) * self._mask(rs)
        return vals if isinstance(r, np.ndarray) else float(vals)

    def jet(self, r, order: int) -> Jet:
        rs = np.asarray(r, dtype=float)
        mask = self._mask(rs)
        rj = Jet.variable(rs, order)
        y = (rj - self.center) * (1.0 / self.width)
        # clip the base value only: outside the support the mask wipes the
        # (underflowed-to-zero) components anyway, and the clip keeps the
        # intermediate arithmetic finite at the touch points
        y.derivs[0] = np.clip(y.derivs[0], -1 + 1e-8, 1 - 1e-8)
        b = ((-1.0) / (1.0 - y * y)).exp() * self.amplitude
        comps = [c * mask for c in b.derivs]
        if not isinstance(r, np.ndarray):
            comps = [float(c) for c in comps]
            return Jet(float(rs), comps)
        return Jet(rs, comps)


class PolynomialProfile:
    """Polynomial in r truncated at r_hi (not smooth at the cut).

    Admitted only where a closed-form answer exists to compare against; the
    discontinuity at r_hi sits at an integration endpoint in those tests.
    """

    def __init__(self, coeffs, r_hi: float = 1.0):
        self.coeffs = [float(c) for c in coeffs]
        if not (0 < r_hi <= 1):
            raise ValueError("0 < r_hi <= 1")
        self.r_hi = r_hi

    @property
    def support(self):
        return (0.0, self.r_hi)

    def __call__(self, r):
        rs = np.asarray(r, dtype=float)
        acc = np.zeros_like(rs)
        for c in reversed(self.coeffs):
            acc = acc * rs + c
        acc = acc * (rs < self.r_hi)
        return acc if isinstance(r, np.ndarray) else float(acc)

    def jet(self, r, order: int) -> Jet:
        rs = np.asarray(r, dtype=float)
        mask = (rs < self.r_hi).astype(float)
        derivs = []
        for p in range(order + 1):
            acc = np.zeros_like(rs)
            for i in range(p, len(self.coeffs)):
                fall = math.prod(range(i - p + 1, i + 1))
                acc = acc + fall * self.coeffs[i] * rs ** (i - p)
            derivs.append(acc * mask)
        if not isinstance(r, np.ndarray):
            return Jet(float(rs), [float(c) for c in derivs])
        return Jet(rs, derivs)


class DerivativeProfile:
    """The m-th ordinary derivative F^(m) of a base profile F.

    Shares the base support; jets are the base jets shifted by m orders.
    """

    def __init__(self, base, m: int):
        if m < 0:
            raise ValueError("m >= 0")
        self.base = base
        self.m = m

    @property
    def support(self):
        return self.base.support

    def __call__(self, r):
        if self.m == 0:
            return self.base(r)
        j = self.base.jet(r, self.m)
        v = j.derivs[self.m]
        return v if isinstance(r, np.ndarray) else float(v)

    def jet(self, r, order: int) -> Jet:
        j = self.base.jet(r, order + self.m)
        return Jet(j.x, j.derivs[self.m :])


# ---------------------------------------------------------------------------
# forward transform, radial case
#
# Every forward entry point answers a scalar t or an array of t with one
# batched quadrature (QuadratureRule.integrate_rows); a scalar comes back as
# a float.  Factors in t alone are computed per row in Python floats (libm
# pow differs from numpy's square in the last bit at some t), so every row
# equals its scalar evaluation bit for bit.


def _batch(t):
    """t as a flat float array, checked to lie in (0, 2), and its shape."""
    ts = np.asarray(t, dtype=float)
    flat = ts.ravel()
    bad = ~((flat > 0.0) & (flat < 2.0))
    if bad.any():
        raise ValueError(f"t must lie in (0, 2), got {flat[bad][0]}")
    return flat, ts.shape


def _shaped(values, shape):
    """A float for a scalar t, else the values in the shape of t."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _rows(fn, ts) -> np.ndarray:
    """The t-only factor fn(t) of every row, evaluated in Python floats."""
    return np.array([fn(t) for t in ts.tolist()], dtype=float)


def _u_range(profile, ts):
    r_lo, r_hi = profile.support
    return np.maximum(np.abs(1.0 - ts), r_lo), min(1.0, r_hi)


def _over_t_power(h, t, n: int, what: str):
    """h(t) / t^(n-2), refused below the division floor."""
    ts, shape = _batch(t)
    if np.any(ts < T_FLOOR):
        raise ValueError(f"{what} undefined below t = {T_FLOOR} (division guard)")
    return _shaped(h(ts) / _rows(lambda s: s ** (n - 2), ts), shape)


@lru_cache(maxsize=None)
def _front_constant(n: int) -> float:
    k = (n - 3) // 2
    return omega(n - 1) / (4 ** k * omega(n))


def forward_h(profile, dim: Dimension, t, quad: QuadratureRule = DEFAULT_QUAD):
    """h(t) = t^(n-2) g(t) for radial data, by the Q-kernel integral."""
    ts, shape = _batch(t)
    k = dim.k
    plus = _rows(lambda s: (1 + s) ** 2, ts)
    minus = _rows(lambda s: (1 - s) ** 2, ts)

    def integrand(rows, u):
        u2 = u ** 2
        q = (plus[rows, None] - u2) * (u2 - minus[rows, None])
        return u * profile(u) * q ** k

    a, b = _u_range(profile, ts)
    return _shaped(_front_constant(dim.n) * quad.integrate_rows(integrand, a, b), shape)


def forward_radial(profile, dim: Dimension, t, quad: QuadratureRule = DEFAULT_QUAD):
    """g(t) = h(t) / t^(n-2); refuses t below the division floor."""
    return _over_t_power(lambda ts: forward_h(profile, dim, ts, quad), t, dim.n, "g(t)")


def funk_hecke_forward(profile, dim: Dimension, t, quad: QuadratureRule = DEFAULT_QUAD):
    """g(t) by the angular-variable integral (independent cross-check path).

    g(t) = (omega_{n-1}/omega_n) * integral f(sqrt(1 + t^2 + 2 s t))
           (1 - s^2)^k ds over the s-interval where the argument is in
           the profile support (clipped to [-1, 1]).
    """
    ts, shape = _batch(t)
    r_lo, r_hi = profile.support
    s_lo = np.maximum(-1.0, (r_lo ** 2 - 1.0 - ts * ts) / (2.0 * ts))
    s_hi = np.minimum(1.0, (r_hi ** 2 - 1.0 - ts * ts) / (2.0 * ts))
    k = dim.k
    c = omega(dim.n - 1) / omega(dim.n)
    base = 1.0 + ts * ts

    def integrand(rows, s):
        arg = np.sqrt(np.maximum(base[rows, None] + 2.0 * s * ts[rows, None], 0.0))
        return profile(arg) * (1.0 - s * s) ** k

    return _shaped(c * quad.integrate_rows(integrand, s_lo, s_hi), shape)


@lru_cache(maxsize=None)
def _kernel_terms(power: int, p: int):
    """Float term list [(i, j, c)] of the exact polynomial D_t^p Q(t,u)^power."""
    poly = exactmath.dp_q_power(power, p)
    return tuple((i, j, float(c)) for i, j, c in poly.terms())


def _kernel_integrals(profile, ts, terms, weight, quad: QuadratureRule):
    """Row integrals of weight(u) f(u) P(t, u) over the support range, for
    the kernel polynomial P given by its terms c t^i u^j."""
    coeffs = [_rows(lambda s, i=i, c=c: c * s ** i, ts) for i, _, c in terms]

    def integrand(rows, u):
        powers = {}
        acc = np.zeros_like(u)
        for (_, j, _), coeff in zip(terms, coeffs):
            if j not in powers:
                powers[j] = u ** j
            acc = acc + coeff[rows, None] * powers[j]
        return weight(u) * profile(u) * acc

    a, b = _u_range(profile, ts)
    return quad.integrate_rows(integrand, a, b)


def forward_h_dp(profile, dim: Dimension, t, p: int, quad: QuadratureRule = DEFAULT_QUAD):
    """D^p h(t), p <= k, by exact differentiation of the kernel polynomial."""
    ts, shape = _batch(t)
    k = dim.k
    if not (0 <= p <= k):
        raise ValueError(f"kernel differentiation supports 0 <= p <= k = {k}, got {p}")
    values = _kernel_integrals(profile, ts, _kernel_terms(k, p), lambda u: u, quad)
    return _shaped(_front_constant(dim.n) * values, shape)


# ---------------------------------------------------------------------------
# forward transform, single-harmonic case


def forward_harmonic_h(profile, dim: Dimension, m: int, t, quad: QuadratureRule = DEFAULT_QUAD):
    """h_m(t) = t^(n-2) g_m(t) for a single-harmonic component, division-free.

    Gegenbauer-kernel quadrature; the kernel argument (1 + u^2 - t^2)/(2u)
    stays in [-1, 1] on the integration range (checked, then clipped at
    roundoff level).
    """
    ts, shape = _batch(t)
    if m < 0:
        raise ValueError("m >= 0")
    n, k, alpha = dim.n, dim.k, dim.alpha
    c = omega(n - 1) / (omega(n) * gegenbauer_at_one(m, alpha))
    t_sq = ts * ts

    def integrand(rows, u):
        x_arg = (1.0 + u * u - t_sq[rows, None]) / (2.0 * u)
        if np.any(np.abs(x_arg) > 1.0 + 1e-12):
            raise FloatingPointError(
                "Gegenbauer kernel argument left [-1, 1] on the integration range")
        x_arg = np.clip(x_arg, -1.0, 1.0)
        return u ** (n - 2) * profile(u) * gegenbauer(m, alpha, x_arg) * (1.0 - x_arg * x_arg) ** k

    a, b = _u_range(profile, ts)
    return _shaped(c * quad.integrate_rows(integrand, a, b), shape)


def forward_harmonic(profile, dim: Dimension, m: int, t, quad: QuadratureRule = DEFAULT_QUAD):
    """g_m(t): the radial factor of the transform of f(|x|) Y_m(x/|x|).

    m = 0 reduces to forward_radial.
    """
    return _over_t_power(lambda ts: forward_harmonic_h(profile, dim, m, ts, quad),
                         t, dim.n, "g_m(t)")


def phi_harmonic(profile, dim: Dimension, m: int, t, quad: QuadratureRule = DEFAULT_QUAD):
    """phi_m(t) = integral u^(1-m) f(u) Q(t,u)^(m+k) du over [|1-t|, 1]."""
    return phi_harmonic_dp(profile, dim, m, t, 0, quad)


def phi_harmonic_dp(
    profile, dim: Dimension, m: int, t, p: int, quad: QuadratureRule = DEFAULT_QUAD
):
    """D^p phi_m(t) for p <= m + k, again by exact kernel differentiation."""
    ts, shape = _batch(t)
    if m < 0:
        raise ValueError("m >= 0")
    mk = m + dim.k
    if not (0 <= p <= mk):
        raise ValueError(f"phi kernel differentiation supports 0 <= p <= m+k = {mk}, got {p}")
    values = _kernel_integrals(profile, ts, _kernel_terms(mk, p), lambda u: u ** (1 - m), quad)
    return _shaped(values, shape)


def const_Kmn(dim: Dimension, m: int) -> float:
    """The scalar with h_m(t) = const_Kmn * D^m phi_m(t).

    Product of the Gegenbauer-expansion constant and the kernel prefactor;
    positive for all valid inputs (checked).
    """
    if m < 0:
        raise ValueError("m >= 0")
    n, k, alpha = dim.n, dim.k, dim.alpha
    K = (
        (-1) ** m
        * math.gamma(alpha + 0.5)
        * math.gamma(m + 2 * alpha)
        / (2 ** m * math.factorial(m) * math.gamma(2 * alpha) * math.gamma(m + alpha + 0.5))
    )
    value = (
        K
        * (-1) ** m
        * omega(n - 1)
        / (4 ** (m + k) * omega(n) * gegenbauer_at_one(m, alpha))
    )
    if not value > 0:
        raise FloatingPointError(f"const_Kmn(n={n}, m={m}) = {value} is not positive")
    return value


# ---------------------------------------------------------------------------
# packaged data views


class SmtProfile:
    """Forward data of a radial profile: h, g and analytic D^p h up to k, at
    scalar or array t (h and dp_h must accept arrays)."""

    def __init__(self, dim: Dimension, h, dp_h, k_eff: int, support=None):
        self.dim = dim
        self._h = h
        self._dp_h = dp_h
        self.k_eff = k_eff
        # t-interval outside which h vanishes; None when unknown
        self.support = support

    @classmethod
    def from_profile(cls, profile, dim: Dimension, quad: QuadratureRule = DEFAULT_QUAD):
        def h(t):
            return forward_h(profile, dim, t, quad)

        def dp_h(t, p):
            return forward_h_dp(profile, dim, t, p, quad) if p else h(t)

        r_hi = profile.support[1]
        return cls(dim, h, dp_h, dim.k, support=(1.0 - r_hi, 1.0 + r_hi))

    def h(self, t):
        return self._h(t)

    def g(self, t):
        return _over_t_power(self._h, t, self.dim.n, "g(t)")

    def dp_h(self, t, p: int):
        if p > self.k_eff:
            raise ValueError(f"derivative order {p} above trusted maximum {self.k_eff}")
        return self._dp_h(t, p)


class HarmonicForwardData:
    """Forward data of a single-harmonic profile: h_m, phi_m, and D^p phi_m."""

    def __init__(self, profile, dim: Dimension, m: int, quad: QuadratureRule = DEFAULT_QUAD):
        self.profile = profile
        self.dim = dim
        self.m = m
        self.quad = quad

    @property
    def support(self):
        r_hi = self.profile.support[1]
        return (1.0 - r_hi, 1.0 + r_hi)

    def g(self, t):
        return forward_harmonic(self.profile, self.dim, self.m, t, self.quad)

    def h(self, t):
        return forward_harmonic_h(self.profile, self.dim, self.m, t, self.quad)

    def phi(self, t):
        return phi_harmonic(self.profile, self.dim, self.m, t, self.quad)

    def phi_dp(self, t, p: int):
        return phi_harmonic_dp(self.profile, self.dim, self.m, t, p, self.quad)

    def phi_jet(self, t: float) -> Jet:
        """Jet of phi in the ordinary-derivative sense, rebuilt from D-powers
        by solving the triangular system D^p f = sum_j a[p][j] t^(j-2p) f^(j).
        """
        mk = self.m + self.dim.k
        dvals = [self.phi_dp(t, p) for p in range(mk + 1)]
        table = d_coeff_table(max(mk, 1))
        derivs = [dvals[0]] + [0.0] * mk
        for p in range(1, mk + 1):
            acc = dvals[p]
            row = table[p]
            for j in range(1, p):
                acc -= float(row[j]) * derivs[j] * t ** (j - 2 * p)
            derivs[p] = acc / (float(row[p]) * t ** (p - 2 * p))
        return Jet(t, derivs)

    def h_from_phi(self, t: float) -> float:
        """h_m(t) via the D^m phi route with the closed-form constant."""
        jet = self.phi_jet(t)
        return const_Kmn(self.dim, self.m) * d_operator(jet, self.m)
