"""Forward spherical mean transform of radial and single-harmonic functions
in odd dimension n = 2k+3.

All data paths are one-dimensional integrals in the radius variable u.  For a
radial profile f supported in [0, 1),

    h(t) = t^(n-2) g(t) = (omega_{n-1} / (4^k omega_n))
           * integral_{|1-t|}^{1} u f(u) Q(t,u)^k du,

where Q(t,u) = ((1+t)^2 - u^2)(u^2 - (1-t)^2) is nonnegative on the
integration range.  D-derivatives of the data (D = (1/t) d/dt) integrate
the kernel D^p Q^k in factored form, Q^(k-p) times a Jacobi polynomial
(`_dp_q_kernels`), never finite differences; checked for odd n <= 41.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import Jet, gegenbauer, gegenbauer_at_one

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


def _legval(x, c):
    """Legendre series sum c[i] P_i(x), by numpy's `legval` Clenshaw loop
    operation for operation (len(c) >= 2); with each c[i] a column of
    coefficients, one series per row."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd = nd - 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    """Gauss–Legendre nodes and weights (n >= 2) by the arithmetic of numpy's
    `leggauss`, bit for bit, without importing `numpy.polynomial`: companion
    eigenvalues, one Newton step, weights from P_n' and P_(n-1), symmetrized."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, -1))  # it reads the lower triangle only
    p_n = [0.0] * n + [1.0]
    # P_n' = sum of (2i+1) P_i over i < n with n-1-i even, exactly as `legder`;
    # a trailing zero puts it in step with P_n, so one loop sums both
    dp_n = [float(2 * i + 1) if (n - 1 - i) % 2 == 0 else 0.0 for i in range(n)] + [0.0]
    f, df = _legval(x, np.array([p_n, dp_n]).T[..., None])
    x -= f / df
    fm = _legval(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
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
        """Integral of fn over [a, b]: one row of `integrate_rows`."""
        return float(self.integrate_rows(fn, lambda rows, u, f_u: f_u, [a], [b])[0])

    def integrate_rows(self, factor, integrand, a, b, shape=()) -> np.ndarray:
        """Integral of factor(u) * rest over [a[r], b[r]] for every row r; 0
        where b[r] <= a[r].

        Adjacent live rows on the same interval form a run.  Nodes, weights
        and factor(u) are computed once per run, on (runs x nodes) arrays of
        at most BLOCK_NODES nodes, and gathered for each row.  integrand(rows,
        u, f_u) gets a block of row indices (about BLOCK_NODES nodes in all),
        their (rows x nodes) nodes and factor values, and returns the
        integrand's `shape + (rows, nodes)` values; the result has shape
        `shape + a.shape`.  np.vecdot sums each row by its own BLAS dot (a
        matrix product or einsum sums in another order), so a row does not
        depend on the batch it came in.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        out = np.zeros(shape + a.shape)
        live = np.flatnonzero(b > a)
        lo, hi = a[live], b[live]
        new = np.ones(live.size, dtype=bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.append(np.flatnonzero(new), live.size)  # first row of each run
        run = np.cumsum(new) - 1
        step = max(1, BLOCK_NODES // (self.nodes_per_panel * self.panels))
        first = 0
        while first < starts.size - 1:
            # the runs of at most `step` rows, or one longer run
            last = max(first + 1, int(np.searchsorted(starts, starts[first] + step, "right")) - 1)
            nodes, weights = self.points(lo[starts[first:last]], hi[starts[first:last]])
            f_u = factor(nodes)
            one_each = starts[last] - starts[first] == last - first  # nothing to gather
            for start in range(starts[first], starts[last], step):
                block = slice(start, min(start + step, starts[last]))
                rows, at = live[block], slice(None) if one_each else run[block] - first
                values = integrand(rows, nodes[at], f_u[at])
                out[..., rows] = np.vecdot(weights[at], values)
            first = last
        return out


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
        return Jet(rs, [c * mask for c in b.derivs])


class DerivativeProfile:
    """The m-th ordinary derivative F^(m) of a base profile F.

    Shares the base support; values are entry m of the base's jets, and
    ArithmeticError where one is not finite.
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
        # the jet's intermediate orders overflow before F^(m) itself does at
        # large m: a value that is not finite is refused, never passed on
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = self.base.jet(r, self.m).derivs[self.m]
        if not np.isfinite(v).all():
            raise ArithmeticError(f"F^({self.m}) of the profile is not finite in floats")
        return v if isinstance(r, np.ndarray) else float(v)


# ---------------------------------------------------------------------------
# forward transform, radial case
#
# Every forward entry point answers a scalar t or an array of t with one
# batched quadrature (QuadratureRule.integrate_rows), and the D^p entry
# points answer a sequence of orders in the same sweep; a scalar t comes back
# as a float and a scalar p as the one row of its order.  The u-only factor
# (the profile times a power of u) is evaluated once per run of neighbouring
# rows on one u-interval: every t with |1 - t| at most the support's inner
# edge integrates over the same one.
# Factors in t alone are computed per row in Python floats (libm pow differs
# from numpy's square in the last bit at some t), so every row equals its
# scalar evaluation bit for bit.


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


def _orders(p, top: int, bound: str) -> tuple:
    """The orders asked for, a scalar p being a sequence of one, each checked
    to lie in [0, top]; `bound` states the range in the refusal."""
    orders = tuple(np.atleast_1d(p).tolist())
    if not orders:
        raise ValueError(f"{bound} = {top}, got no order")
    for order in orders:
        if not 0 <= order <= top:
            raise ValueError(f"{bound} = {top}, got {order}")
    return orders


def _by_order(values, p, shape):
    """The (orders x t) values as asked: the row of a scalar p, shaped like
    t, or one row per order of a sequence."""
    if np.ndim(p) == 0:
        return _shaped(values[0], shape)
    return values.reshape(values.shape[:1] + shape)


def g_from_h(h, t, n: int):
    """g = h / t^(n-2) from the values h at t; refused below the floor."""
    ts, shape = _batch(t)
    if np.any(ts < T_FLOOR):
        raise ValueError(f"g(t) undefined below t = {T_FLOOR} (division guard)")
    return _shaped(np.ravel(h) / _rows(lambda s: s ** (n - 2), ts), shape)


@lru_cache(maxsize=None)
def _front_constant(n: int) -> float:
    k = (n - 3) // 2
    return omega(n - 1) / (4 ** k * omega(n))


def forward_h(profile, dim: Dimension, t, quad: QuadratureRule = DEFAULT_QUAD):
    """h(t) = t^(n-2) g(t) for radial data, by the Q-kernel integral."""
    return _radial_dp(profile, dim, t, 0, quad)


def _dp_q_kernels(K: int, orders, t, u) -> list:
    """[D^p Q^K](t, u) for each p in orders, 0 <= p <= K, for floats, arrays
    or Fractions.

    With x = t^2, A = x - (1+u)^2, B = x - (1-u)^2, s = (A+B)/2, d = 2u:
    Q = -AB = d^2 - s^2 and D = 2 d/ds, so Rodrigues' formula for the Jacobi
    polynomials P_p^(a,a), a = K - p, gives D^p Q^K = (-4)^p p! Q^a R_p with
    R_p = d^p P_p^(a,a)(s/d): R_0 = 1, R_1 = (a+1) s, n (n+2a) R_n =
    (n+a) [(2n+2a-1) s R_(n-1) - (n+a-1) d^2 R_(n-2)].  Unlike monomials
    t^i u^j or a Leibniz sum in A and B, nothing cancels as K grows.  A, B,
    s and d^2 are shared; each order runs its own recurrence and Q^a chain.
    """
    if not orders:
        return []
    x_alpha = (t - 1 - u) * (t + 1 + u)
    x_beta = (t - 1 + u) * (t + 1 - u)
    s = (x_alpha + x_beta) / 2
    d_sq = 4 * u * u
    q = x_alpha * x_beta  # -Q
    kernels = []
    for p in orders:
        a = K - p
        r_prev, r = 1, (a + 1) * s
        for n in range(2, p + 1):
            step = (2 * n + 2 * a - 1) * s * r - (n + a - 1) * d_sq * r_prev
            r_prev, r = r, step * (n + a) / (n * (n + 2 * a))
        value = (-1) ** K * 4 ** p * math.factorial(p) * (r if p else r_prev)
        for _ in range(a):
            value = value * q
        kernels.append(value)
    return kernels


def _kernel_integrals(profile, ts, orders, weight, kernels, quad: QuadratureRule):
    """(orders x t) integrals of weight(u) f(u) K_p(t, u) over the support
    range, all orders in one sweep; kernels(rows, u) lists the (rows x nodes)
    kernel of each order."""

    def integrand(rows, u, f_u):
        values = np.empty((len(orders),) + u.shape)
        for value, kernel in zip(values, kernels(rows, u)):
            np.multiply(f_u, kernel, out=value)
        return values

    a, b = _u_range(profile, ts)
    return quad.integrate_rows(lambda u: weight(u) * profile(u), integrand, a, b,
                               (len(orders),))


def _radial_dp(profile, dim: Dimension, t, p, quad: QuadratureRule):
    """D^p h for forward_h and forward_h_dp; p = 0 integrates Q^k itself."""
    k = dim.k
    orders = _orders(p, k, "kernel differentiation supports 0 <= p <= k")
    ts, shape = _batch(t)
    dp_orders = sorted(set(orders) - {0})
    if 0 in orders:  # Q^k itself, from the row factors (1 +- t)^2
        plus = _rows(lambda s: (1 + s) ** 2, ts)
        minus = _rows(lambda s: (1 - s) ** 2, ts)

    def kernels(rows, u):
        by_order = dict(zip(dp_orders, _dp_q_kernels(k, dp_orders, ts[rows, None], u)))
        if 0 in orders:
            u2 = u ** 2
            by_order[0] = ((plus[rows, None] - u2) * (u2 - minus[rows, None])) ** k
        return [by_order[order] for order in orders]

    values = _kernel_integrals(profile, ts, orders, lambda u: u, kernels, quad)
    return _by_order(_front_constant(dim.n) * values, p, shape)


def forward_h_dp(profile, dim: Dimension, t, p, quad: QuadratureRule = DEFAULT_QUAD):
    """D^p h(t), p <= k, from the factored kernel (`_dp_q_kernels`; p = 0 is
    `forward_h`): within 1e-13 of exact-kernel quadrature for odd n <= 31.

    p may be a sequence of orders: one row per order (in the shape of t) from
    one sweep, each equal to its own scalar-p call bit for bit.
    """
    return _radial_dp(profile, dim, t, p, quad)


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

    def integrand(rows, u, f_u):
        x_arg = (1.0 + u * u - t_sq[rows, None]) / (2.0 * u)
        if np.any(np.abs(x_arg) > 1.0 + 1e-12):
            raise FloatingPointError(
                "Gegenbauer kernel argument left [-1, 1] on the integration range")
        x_arg = np.clip(x_arg, -1.0, 1.0)
        return f_u * gegenbauer(m, alpha, x_arg) * (1.0 - x_arg * x_arg) ** k

    a, b = _u_range(profile, ts)
    values = quad.integrate_rows(lambda u: u ** (n - 2) * profile(u), integrand, a, b)
    return _shaped(c * values, shape)


def phi_harmonic_dp(
    profile, dim: Dimension, m: int, t, p, quad: QuadratureRule = DEFAULT_QUAD
):
    """D^p phi_m(t), p <= m + k, from the factored kernel D^p Q^(m+k)
    (`_dp_q_kernels`); within 1e-13 of exact-kernel quadrature at n = 21.

    p may be a sequence of orders: one row per order (in the shape of t) from
    one sweep, each equal to its own scalar-p call bit for bit.
    """
    if m < 0:
        raise ValueError("m >= 0")
    mk = m + dim.k
    orders = _orders(p, mk, "phi kernel differentiation supports 0 <= p <= m+k")
    ts, shape = _batch(t)

    def kernels(rows, u):
        return _dp_q_kernels(mk, orders, ts[rows, None], u)

    values = _kernel_integrals(profile, ts, orders, lambda u: u ** (1 - m), kernels, quad)
    return _by_order(values, p, shape)


# ---------------------------------------------------------------------------
# packaged data views


class SmtProfile:
    """Forward data of a radial profile: h, g and analytic D^p h up to k, at
    scalar or array t (and a scalar p or a sequence of orders); h vanishes
    outside the t-interval `support`."""

    def __init__(self, profile, dim: Dimension, quad: QuadratureRule = DEFAULT_QUAD):
        self.profile = profile
        self.dim = dim
        self.quad = quad
        r_hi = profile.support[1]
        self.support = (1.0 - r_hi, 1.0 + r_hi)

    def h(self, t):
        return forward_h(self.profile, self.dim, t, self.quad)

    def g(self, t):
        return g_from_h(forward_h(self.profile, self.dim, t, self.quad), t, self.dim.n)

    def dp_h(self, t, p):
        return forward_h_dp(self.profile, self.dim, t, p, self.quad)


class HarmonicForwardData:
    """Forward data of a single-harmonic profile: h_m and D^p phi_m."""

    def __init__(self, profile, dim: Dimension, m: int, quad: QuadratureRule = DEFAULT_QUAD):
        self.profile = profile
        self.dim = dim
        self.m = m
        self.quad = quad
        r_hi = profile.support[1]
        self.support = (1.0 - r_hi, 1.0 + r_hi)

    def h(self, t):
        return forward_harmonic_h(self.profile, self.dim, self.m, t, self.quad)

    def phi_dp(self, t, p):
        return phi_harmonic_dp(self.profile, self.dim, self.m, t, p, self.quad)
