"""Forward spherical mean transform of radial and single-harmonic functions
in odd dimension n = 2k+3.

All data paths are one-dimensional integrals in the radius variable u.  For a
radial profile f supported in [0, 1),

    h(t) = t^(n-2) g(t) = (omega_{n-1} / (4^k omega_n))
           * integral_{|1-t|}^{1} u f(u) Q(t,u)^k du,

where Q(t,u) = ((1+t)^2 - u^2)(u^2 - (1-t)^2) is nonnegative on the
integration range.  The data and its D-derivatives (D = (1/t) d/dt)
integrate the kernel D^p Q^k in factored form, 2^p Q^(k-p) H_p
(`_dp_q_kernels`, one chain of products for every power of Q, `inverse`'s
too), never finite differences; checked for odd n <= 41.

Single-harmonic data of degree m take the same kernel at order m + k:

    D^p phi_m(t) = integral u^(1-m) f(u) [D^p Q^(m+k)](t,u) du,
    D^p h_m(t) = c_n k! / ((m+k)! 8^m) * D^(m+p) phi_m(t),   p <= k,

with c_n the radial constant above.  The second line is Rodrigues' formula
for the Gegenbauer kernel of the Funk-Hecke integral.  Radial data is its
m = 0 case (h_0 = h, bit for bit): one integral (`_h_dp`) answers every
forward entry point, and one class (`HarmonicForwardData`) holds the data.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .specfun import Jet, _power

T_FLOOR = 1e-3  # below this, dividing h by t^(n-2) is refused


# ---------------------------------------------------------------------------
# geometry


class _Frozen:
    """An immutable config value, as a frozen dataclass is but with no code
    generated at import: __init__ validates its arguments and stores them in
    order with `_freeze`, and ==, hash and repr go by them.  pickle and copy
    restore the __dict__ directly."""

    @staticmethod
    def _require_integers(**values):
        """Refuse a value that is not an integer (operator.index takes int and
        numpy integers) with a ValueError, before it fails deep inside."""
        for name, value in values.items():
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None

    def _freeze(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class Dimension(_Frozen):
    """Odd ambient dimension n = 2k + 3."""

    def __init__(self, n: int):
        self._require_integers(n=n)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {n}")
        self._freeze(n=n)

    @property
    def k(self) -> int:
        return (self.n - 3) // 2


def omega(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("n >= 1")
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    """Gauss–Legendre nodes and weights (n >= 2), after Golub & Welsch.

    The Jacobi matrix J of the Legendre weight has a zero diagonal, so J^2
    couples only indices of one parity.  Its even-index block is tridiagonal,
    of size ceil(n/2), with eigenvalues x^2 for the nodes x >= 0 (0 itself
    for an odd n).  One Newton step on P_n polishes them.  Each weight,
    2 / ((1 - x^2) P_n'(x)^2), comes from the same recurrence pass, moved
    to first order from the starting node to the root; the rule is mirrored
    and scaled to sum to 2.
    """
    i = np.arange(1, n)
    b = np.concatenate([[0.0], i / np.sqrt(4.0 * i * i - 1), [0.0]])  # J's off-diagonal
    h = (n + 1) // 2
    # the block's diagonal and subdiagonal: eigvalsh reads the lower triangle
    lam = np.linalg.eigvalsh(np.diag(b[0:2 * h:2] ** 2 + b[1:2 * h + 1:2] ** 2)
                             + np.diag(b[1:2 * h - 1:2] * b[2:2 * h:2], -1))
    lam[:n % 2] = 0.0
    x = np.sqrt(lam)
    pm, p = np.ones_like(x), x  # P_(n-1) and P_n, by the three-term recurrence
    odd_x = np.arange(3.0, 2 * n, 2)[:, None] * x  # (2j + 1) x
    for j in range(1, n):
        pm, p = p, (odd_x[j - 1] * p - j * pm) / (j + 1)
    s, q = (1 - x) * (1 + x), n * (pm - x * p)  # P_n' = q / s
    w = 2 * s / q ** 2 * (1 + 2 * x * p / q)
    x = x - p * s / q
    x, w = np.concatenate([-x[::-1][:n // 2], x]), np.concatenate([w[::-1][:n // 2], w])
    return x, w * (2 / w.sum())


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


class QuadratureRule(_Frozen):
    """Composite Gauss–Legendre rule: `panels` equal panels of fixed order."""

    def __init__(self, nodes_per_panel: int = 32, panels: int = 8):
        self._require_integers(nodes_per_panel=nodes_per_panel, panels=panels)
        if nodes_per_panel < 2 or panels < 1:
            raise ValueError("need nodes_per_panel >= 2 and panels >= 1")
        self._freeze(nodes_per_panel=nodes_per_panel, panels=panels)

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

        Sorted by (a, b), the live rows on one interval are contiguous.  The
        distinct intervals go in blocks of `step`, the rows that BLOCK_NODES
        nodes hold: one factor(u) call per block, on the rule mapped onto each
        of its intervals.  The block's rows go to integrand(rows, u, f_u) in
        chunks of at most `step`, each row with the nodes and factor values of
        its own interval, as (rows x nodes) arrays; it returns the integrand's
        `shape + (rows, nodes)` values, and the result has shape `shape +
        a.shape`.  np.vecdot sums each row by its own BLAS dot (a matrix
        product or einsum sums in another order), so a row does not depend
        on the batch it came in.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        out = np.zeros(shape + a.shape)
        live = np.flatnonzero(b > a)
        live = live[np.lexsort((b[live], a[live]))]
        lo, hi = a[live], b[live]
        new = np.ones(live.size, dtype=bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        heads = np.append(np.flatnonzero(new), live.size)  # first row on each interval
        run = np.cumsum(new) - 1  # each row's interval
        step = max(1, BLOCK_NODES // (self.nodes_per_panel * self.panels))
        for first in range(0, heads.size - 1, step):
            last = min(first + step, heads.size - 1)
            nodes, weights = self.points(lo[heads[first:last]], hi[heads[first:last]])
            f_u = factor(nodes)
            for start in range(heads[first], heads[last], step):
                chunk = slice(start, min(start + step, heads[last]))
                at, rows = run[chunk] - first, live[chunk]
                if at[-1] - at[0] == at.size - 1:  # a row per interval: views, not copies
                    at = slice(at[0], at[-1] + 1)
                out[..., rows] = np.vecdot(weights[at], integrand(rows, nodes[at], f_u[at]))
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
# forward transform
#
# Every forward entry point answers a scalar t or an array of t with one
# batched quadrature (QuadratureRule.integrate_rows), and the D^p entry
# points answer a sequence of orders in the same sweep; a scalar t comes back
# as a float and a scalar p as the one row of its order.  The u-only factor
# (the profile times a power of u) is evaluated once per distinct u-interval,
# wherever its rows lie: every t with |1 - t| at most the support's inner
# edge integrates over the same one, and so do t and 2 - t wherever |1 - t|
# rounds to one float.
# The kernel takes no pow: its sums and products are the same ufuncs on a
# scalar t as on a column of t, so every row equals its scalar evaluation
# bit for bit.


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
    """g = h / t^(n-2) from the values h at t; refused below the floor, and
    ArithmeticError naming t and n where a quotient is not finite, as where
    t^(n-2) underflows to 0 (at t = 0.05 from n = 251)."""
    ts, shape = _batch(t)
    if np.any(ts < T_FLOOR):
        raise ValueError(f"g(t) undefined below t = {T_FLOOR} (division guard)")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # refused below
        g = np.ravel(h) / _power(ts, n - 2)
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"g = h / t^(n-2) is {float(g[i])} at t={float(ts[i])}, n={n}")
    return _shaped(g, shape)


@lru_cache(maxsize=None)
def _front_constant(n: int) -> float:
    k = (n - 3) // 2
    try:
        return omega(n - 1) / (4 ** k * omega(n))
    except OverflowError:  # Gamma(n/2) leaves the float range from n = 345
        raise OverflowError(
            f"the transform's front constant overflows a float at n={n}") from None


def _dp_q_kernels(K: int, orders, t, u, out=None):
    """[D^p Q^K](t, u), one row for each of the distinct orders 0 <= p <= K,
    for floats, arrays or Fractions, into `out` or a new array (of objects for
    Fractions).

    With s = t^2 - 1 - u^2 and Q = 4u^2 - s^2, D = (1/t) d/dt = 2 d/ds at
    fixed u and dQ/ds = -2s, so D^p Q^K = 2^p Q^(K-p) H_p with H_0 = 1 and
    H_1 = -2K s.  One more D gives H_(p+1) = 2(p-K) s H_p + Q dH_p/ds, and
    induction on p gives dH_p/ds = p(p-1-2K) H_(p-1): a Gegenbauer-type
    recurrence (DLMF 18.9),

        H_(p+1) = 2(p-K) s H_p + p(p-1-2K) Q H_(p-1).

    One sweep runs it in G_p = 2^p H_p (each step scaled by 4, exactly) up
    to the highest order asked for; row p is G_p Q^(K-p), the powers from
    one chain of products that rounds alike whichever orders are asked for
    (row 0 is the chain's Q^K).  Q = AB and s = (B - A)/2, with A = (u -
    (t-1))(u + (t+1)) and B = (u + (t-1))((t+1) - u), the four linear
    factors of Q.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(t), np.shape(u))
        out = np.empty((len(orders),) + shape, np.result_type(np.asarray(t), np.asarray(u)))
    if K == 0:  # the one order is 0, and Q^0 is 1
        out[...] = 1
        return out
    rows = {p: i for i, p in enumerate(orders)}
    a = u - (t - 1)
    a *= u + (t + 1)
    q = u + (t - 1)
    q *= t + 1 - u  # B
    top = max(rows)
    if top:
        s = (q - a) / 2
    if K == 1 and 0 in rows:  # Q itself, straight into its row
        q = np.multiply(q, a, out=out[rows[0], ...])
    else:
        q *= a
    # Q^e into the row of order K - e, else into the lowest row: Q^(K - low) comes last
    power, low = q, min(rows)
    for e in range(2, K - low + 1):
        power = np.multiply(power, q, out=out[rows.get(K - e, rows[low]), ...])
    if not top:
        return out
    prev, cur, term = (np.empty_like(q) for _ in range(3))
    np.multiply(s, -4 * K, out=cur)  # G_1
    for j in range(1, top + 1):
        if j in rows:  # times Q^(K-j), already in the row from Q^2 on
            row = out[rows[j], ...]
            np.multiply(cur, row if K - j > 1 else q if K - j else 1, out=row)
        if j < top:  # G_(j+1) = 4(j-K) s G_j + 4j(j-1-2K) Q G_(j-1), G_0 = 1
            np.multiply(q, 4 * j * (j - 1 - 2 * K), out=term)
            if j > 1:
                term *= prev
            np.multiply(s, 4 * (j - K), out=prev)
            prev *= cur
            prev += term
            prev, cur = cur, prev
    return out


def _phi_dp(profile, dim: Dimension, m: int, ts, orders, quad: QuadratureRule):
    """(orders x t) values of D^p phi_m = integral of u^(1-m) f(u)
    [D^p Q^(m+k)](t, u) du over the support range, the one integral of every
    forward entry point: all orders in one sweep and a repeated order once;
    ArithmeticError naming K = m + k, p and n where one is not finite."""
    K = m + dim.k
    distinct = sorted(set(orders))

    def factor(u):  # u ** 1 would copy every block of nodes
        return u * profile(u) if m == 0 else u ** (1 - m) * profile(u)

    def integrand(rows, u, f_u):
        values = np.empty((len(distinct),) + u.shape)
        _dp_q_kernels(K, distinct, ts[rows, None], u, values)
        values *= f_u
        return values

    a, b = _u_range(profile, ts)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = quad.integrate_rows(factor, integrand, a, b, (len(distinct),))
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ArithmeticError(f"the transform of the profile is not finite: its D^{distinct[i]} "
                              f"Q^{K} integral is {values[i, j]} at t={ts[j]}, n={dim.n}")
    return values[[distinct.index(p) for p in orders]]


def _h_dp(profile, dim: Dimension, m: int, t, p, quad: QuadratureRule):
    """D^p h_m = K_(n,m) D^(m+p) phi_m for p <= k, with K_(n,m) = c_n k! /
    ((m+k)! 8^m) and c_n the radial front constant: K_(n,0) = c_n, and at m = 0
    this is the radial D^p h."""
    k = dim.k
    orders = _orders(p, k, "kernel differentiation supports 0 <= p <= k")
    ts, shape = _batch(t)
    if m < 0:
        raise ValueError("m >= 0")
    scale = _front_constant(dim.n) * (math.factorial(k) / (math.factorial(m + k) * 8 ** m))
    return _by_order(scale * _phi_dp(profile, dim, m, ts, [m + q for q in orders], quad),
                     p, shape)


def forward_h(profile, dim: Dimension, t, quad: QuadratureRule = DEFAULT_QUAD):
    """h(t) = t^(n-2) g(t) for radial data, by the Q-kernel integral."""
    return _h_dp(profile, dim, 0, t, 0, quad)


def forward_h_dp(profile, dim: Dimension, t, p, quad: QuadratureRule = DEFAULT_QUAD):
    """D^p h(t), p <= k, from the factored kernel (`_dp_q_kernels`; p = 0 is
    `forward_h`).  Its rounding keeps every order within 6e-15 of exact-kernel
    quadrature on the same nodes, relative to its max |D^p h|, for odd n <= 41
    (1.1e-14 at n = 61); the rule's error is larger, 4.7e-12 of max |h| at n = 101.

    p may be a sequence of orders: one row per order (in the shape of t) from
    one sweep, each equal to its own scalar-p call bit for bit.
    """
    return _h_dp(profile, dim, 0, t, p, quad)


def forward_harmonic_h(profile, dim: Dimension, m: int, t, quad: QuadratureRule = DEFAULT_QUAD):
    """h_m(t) = t^(n-2) g_m(t) for a single-harmonic component, division-free:
    K_(n,m) D^m phi_m (so h_0 is the radial h, bit for bit).

    The Funk-Hecke integral of h_m has the kernel (1 - x^2)^k C_m^(k+1/2)(x),
    x = (1 + u^2 - t^2)/(2u); by Rodrigues' formula that is a multiple of
    u^m (4u^2)^(-m-k) D^m Q^(m+k), since d/dx = -u D and 1 - x^2 = Q/(4u^2).
    """
    return _h_dp(profile, dim, m, t, 0, quad)


def phi_harmonic_dp(
    profile, dim: Dimension, m: int, t, p, quad: QuadratureRule = DEFAULT_QUAD
):
    """D^p phi_m(t), p <= m + k, from the factored kernel D^p Q^(m+k)
    (`_dp_q_kernels`); at m = 2 every order within 3.3e-15 of exact-kernel
    quadrature at n = 21, relative to its max (1.1e-14 at n = 61): a bound on
    the kernel's rounding on the same nodes.  The rule's error grows with m + k.

    p may be a sequence of orders: one row per order (in the shape of t) from
    one sweep, each equal to its own scalar-p call bit for bit.
    """
    if m < 0:
        raise ValueError("m >= 0")
    orders = _orders(p, m + dim.k, "phi kernel differentiation supports 0 <= p <= m+k")
    ts, shape = _batch(t)
    return _by_order(_phi_dp(profile, dim, m, ts, orders, quad), p, shape)


# ---------------------------------------------------------------------------
# packaged data views


class HarmonicForwardData:
    """Forward data of a single-harmonic profile of degree m (radial data at
    m = 0): h_m, g_m, analytic D^p h_m up to k and D^p phi_m up to m + k, at
    scalar or array t (and a scalar p or a sequence of orders); h_m vanishes
    outside the t-interval `support`."""

    def __init__(self, profile, dim: Dimension, m: int, quad: QuadratureRule = DEFAULT_QUAD):
        self.profile = profile
        self.dim = dim
        self.m = m
        self.quad = quad
        r_hi = profile.support[1]
        self.support = (1.0 - r_hi, 1.0 + r_hi)

    def h(self, t):
        return forward_harmonic_h(self.profile, self.dim, self.m, t, self.quad)

    def g(self, t):
        return g_from_h(self.h(t), t, self.dim.n)

    def dp_h(self, t, p):
        return _h_dp(self.profile, self.dim, self.m, t, p, self.quad)

    def phi_dp(self, t, p):
        return phi_harmonic_dp(self.profile, self.dim, self.m, t, p, self.quad)


class SmtProfile(HarmonicForwardData):
    """Forward data of a radial profile, the m = 0 case.  Its own h is
    `forward_h`, the same bytes as the harmonic route, in the class's own
    namespace, where `smtbench/spans.py` wraps it by name."""

    def __init__(self, profile, dim: Dimension, quad: QuadratureRule = DEFAULT_QUAD):
        super().__init__(profile, dim, 0, quad)

    def h(self, t):
        return forward_h(self.profile, self.dim, t, self.quad)
