"""Independent routes kept only to check the package against.

- `DenseJet`: the jet algebra with every Leibniz term summed, zeros
  included, in the order `specfun.Jet` sums its nonzero ones.
- `funk_hecke_forward`: g(t) by the angular-variable integral, a second
  route to the radial forward transform.
- `h_from_phi`: h_m(t) of single-harmonic data by the D^m phi route.
- `dp_inv_poly`: D^m (1 / (t (t+1)^d)) as a closed alternating sum.
"""

import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp

from sphmean import specfun as sf
from sphmean import transform as tr
from sphmean.exactmath import coeff_C


def _sin_cos(v):
    if isinstance(v, mpmath.mpf):
        return mp.sin(v), mp.cos(v)
    return sf._sin_cos(v)


def _exp(v):
    return mp.exp(v) if isinstance(v, mpmath.mpf) else sf._exp(v)


class DenseJet:
    """f(x), f'(x), ..., f^(order)(x) with dense Leibniz loops, on floats,
    arrays, Decimals or mpmath floats."""

    def __init__(self, x, derivs):
        self.x = x
        self.derivs = list(derivs)

    @property
    def order(self) -> int:
        return len(self.derivs) - 1

    @staticmethod
    def variable(x, order: int) -> "DenseJet":
        if isinstance(x, (mpmath.mpf, Decimal)):
            zero, one = type(x)(0), type(x)(1)
        else:
            zero, one = x * 0 + 0.0, x * 0 + 1.0
        d = [zero] * (order + 1)
        d[0] = x
        if order >= 1:
            d[1] = one
        return DenseJet(x, d)

    def _wrap(self, other) -> "DenseJet":
        if isinstance(other, DenseJet):
            return other
        c = other + self.derivs[0] * 0
        return DenseJet(self.x, [c] + [c * 0] * self.order)

    def __add__(self, other):
        return DenseJet(self.x, [a + b for a, b in zip(self.derivs, self._wrap(other).derivs)])

    __radd__ = __add__

    def __neg__(self):
        return DenseJet(self.x, [-a for a in self.derivs])

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, DenseJet):
            return DenseJet(self.x, [other * a for a in self.derivs])
        a, b = self.derivs, other.derivs
        out = []
        for j in range(self.order + 1):
            acc = a[0] * b[j]
            for i in range(1, j + 1):
                c = math.comb(j, i)
                acc = acc + (a[i] if c == 1 else c * a[i]) * b[j - i]
            out.append(acc)
        return DenseJet(self.x, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DenseJet):
            return DenseJet(self.x, [a / other for a in self.derivs])
        g0 = other.derivs[0]
        if np.any(np.asarray(g0) == 0):
            raise ZeroDivisionError("jet division by a jet with vanishing value")
        out = []
        for j in range(self.order + 1):
            acc = self.derivs[j]
            for i in range(j):
                acc = acc - math.comb(j, i) * out[i] * other.derivs[j - i]
            out.append(acc / g0)
        return DenseJet(self.x, out)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self._wrap(1) / self ** (-n)
        result, base = self._wrap(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def sin_cos(self):
        n, f = self.order, self.derivs
        s0, c0 = _sin_cos(f[0])
        s, c = [s0], [c0]
        for j in range(1, n + 1):
            sa = s[0] * 0
            ca = sa
            for i in range(j):
                b = math.comb(j - 1, i)
                sa = sa + b * c[i] * f[j - i]
                ca = ca - b * s[i] * f[j - i]
            s.append(sa)
            c.append(ca)
        return DenseJet(self.x, s), DenseJet(self.x, c)

    def exp(self):
        n, f = self.order, self.derivs
        e = [_exp(f[0])]
        for j in range(1, n + 1):
            acc = e[0] * 0
            for i in range(j):
                acc = acc + math.comb(j - 1, i) * e[i] * f[j - i]
            e.append(acc)
        return DenseJet(self.x, e)


def funk_hecke_forward(profile, dim, t, quad=tr.DEFAULT_QUAD):
    """g(t) by the angular-variable integral

    g(t) = (omega_{n-1}/omega_n) * integral f(sqrt(1 + t^2 + 2 s t))
           (1 - s^2)^k ds

    over the s-interval where the argument is in the profile support
    (clipped to [-1, 1]).
    """
    ts, shape = tr._batch(t)
    r_lo, r_hi = profile.support
    s_lo = np.maximum(-1.0, (r_lo ** 2 - 1.0 - ts * ts) / (2.0 * ts))
    s_hi = np.minimum(1.0, (r_hi ** 2 - 1.0 - ts * ts) / (2.0 * ts))
    k = dim.k
    c = tr.omega(dim.n - 1) / tr.omega(dim.n)
    base = 1.0 + ts * ts

    def integrand(rows, s, weight):
        arg = np.sqrt(np.maximum(base[rows, None] + 2.0 * s * ts[rows, None], 0.0))
        return profile(arg) * weight

    values = quad.integrate_rows(lambda s: (1.0 - s * s) ** k, integrand, s_lo, s_hi)
    return tr._shaped(c * values, shape)


def h_from_phi(data, t: float) -> float:
    """h_m(t) of `HarmonicForwardData` via D^m phi_m and the closed-form
    constant."""
    return tr.const_Kmn(data.dim, data.m) * data.phi_dp(t, data.m)


def dp_inv_poly(m: int, d: int, t) -> float:
    """D^m ( 1 / (t (t+1)^d) ) as the closed alternating sum, with the
    convention C(-1, 0) = 1; t not in {0, -1}.  The sum is taken in floats,
    or at 60 mpmath digits where it cancels more than 4 digits."""
    if m < 0 or d < 0:
        raise ValueError("m, d >= 0")
    t = float(t)
    if t == 0.0 or t == -1.0:
        raise ValueError("t in {0, -1} is outside the domain")

    def binom(n, r):
        return 1 if r == 0 else 0 if n < r else math.comb(n, r)

    terms = [Fraction((-1) ** m) * coeff_C(m, r) * binom(d + r - 1, r) * math.factorial(r)
             for r in range(m + 1)]
    tf = Fraction(t)

    def closed_sum(num):
        parts = [num(c) / (num(tf) ** (2 * m + 1 - r) * (num(tf) + 1) ** (d + r))
                 for r, c in enumerate(terms)]
        return sum(parts), sum(abs(p) for p in parts)

    acc, mag = closed_sum(float)
    if mag <= 1e4 * max(1.0, abs(acc)):
        return acc
    with mp.workdps(60):
        return float(closed_sum(lambda v: mp.mpf(v.numerator) / v.denominator)[0])
