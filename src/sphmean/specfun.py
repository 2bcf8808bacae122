"""Spherical Bessel functions, closed-form D^p trigonometric kernels, Taylor
jets, and Bessel zero finding.

Two normalizations coexist deliberately.  The "raw" functions are literally
D^k(sin x/x) and D^k(cos x/x) with D = (1/x) d/dx; the normalized ones satisfy
j(0) = 1.  They differ by

    c_k = (-1)^k sqrt(pi) / (2^(k+1) Gamma(k + 3/2)),   raw = c_k * normalized,

and every cross-identity downstream is evaluated in the raw normalization,
where the constant cancels.

Numerical note: the trig closed forms cancel catastrophically for small x at
high derivative order (the true value can be 30 decimal digits below the
individual terms).  Scalar evaluations estimate the cancellation from the sum
of term magnitudes and transparently re-run in mpmath at sufficient precision
when float64 cannot reach ~1e-11 absolute-or-relative accuracy.  Array
evaluations stay in float64 (their callers control the argument range).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp

from .exactmath import coeff_C

# escalate a scalar closed-form sum to mpmath when the term-magnitude sum
# exceeds this multiple of the (unit-floored) result
_CANCEL_LIMIT = 1e4


# ---------------------------------------------------------------------------
# exact coefficient table for D^p in terms of ordinary derivatives


@lru_cache(maxsize=None)
def d_coeff_table(pmax: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact a[p][j] with D^p f(t) = sum_{j=1..p} a[p][j] t^(j-2p) f^(j)(t).

    a[1][1] = 1 and a[p+1][j] = a[p][j-1] + (j-2p) a[p][j], out-of-range
    entries zero.  Computed once in rationals; callers float as needed.
    """
    a = [[Fraction(0)] * (pmax + 2) for _ in range(pmax + 1)]
    if pmax >= 1:
        a[1][1] = Fraction(1)
    for p in range(1, pmax):
        for j in range(1, p + 2):
            a[p + 1][j] = a[p][j - 1] + (j - 2 * p) * a[p][j]
    return tuple(tuple(row[: pmax + 1]) for row in a)


# ---------------------------------------------------------------------------
# Taylor jets


def _sin(v):
    if isinstance(v, mpmath.mpf):
        return mp.sin(v)
    return np.sin(v)


def _cos(v):
    if isinstance(v, mpmath.mpf):
        return mp.cos(v)
    return np.cos(v)


def _exp(v):
    if isinstance(v, mpmath.mpf):
        return mp.exp(v)
    return np.exp(v)


class Jet:
    """Value plus ordinary derivatives f(x), f'(x), ..., f^(order)(x).

    Components may be floats, numpy arrays (elementwise jets over a grid), or
    mpmath floats; arithmetic is the usual Leibniz algebra on derivative
    sequences.  Division requires a nonvanishing denominator value.
    """

    __slots__ = ("x", "derivs")

    def __init__(self, x, derivs):
        self.x = x
        self.derivs = list(derivs)
        if not self.derivs:
            raise ValueError("a jet needs at least the value entry")

    @property
    def order(self) -> int:
        return len(self.derivs) - 1

    @staticmethod
    def variable(x, order: int) -> "Jet":
        d = [x * 0 + 0.0 if not isinstance(x, mpmath.mpf) else mp.mpf(0) for _ in range(order + 1)]
        d[0] = x
        if order >= 1:
            d[1] = x * 0 + 1.0 if not isinstance(x, mpmath.mpf) else mp.mpf(1)
        return Jet(x, d)

    @staticmethod
    def constant(c, x, order: int) -> "Jet":
        zero = c * 0
        d = [zero] * (order + 1)
        d[0] = c
        return Jet(x, d)

    def _wrap(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        return Jet.constant(other + self.derivs[0] * 0, self.x, self.order)

    # -- linear operations
    def __add__(self, other):
        o = self._wrap(other)
        return Jet(self.x, [a + b for a, b in zip(self.derivs, o.derivs)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.x, [-a for a in self.derivs])

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    # -- products and quotients (Leibniz)
    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.x, [other * a for a in self.derivs])
        o = self._wrap(other)
        n = self.order
        out = []
        for j in range(n + 1):
            acc = self.derivs[0] * o.derivs[j] * 0
            for i in range(j + 1):
                acc = acc + math.comb(j, i) * self.derivs[i] * o.derivs[j - i]
            out.append(acc)
        return Jet(self.x, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.x, [a / other for a in self.derivs])
        o = self._wrap(other)
        g0 = o.derivs[0]
        bad = np.any(np.asarray(g0) == 0) if not isinstance(g0, mpmath.mpf) else g0 == 0
        if bad:
            raise ZeroDivisionError("jet division by a jet with vanishing value")
        out = []
        for j in range(self.order + 1):
            acc = self.derivs[j]
            for i in range(j):
                acc = acc - math.comb(j, i) * out[i] * o.derivs[j - i]
            out.append(acc / g0)
        return Jet(self.x, out)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self._wrap(1) / self ** (-n)
        result = self._wrap(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- analytic functions
    def sin_cos(self) -> tuple["Jet", "Jet"]:
        """Jets of sin(f) and cos(f), via the shared first-order recurrence."""
        n = self.order
        s = [None] * (n + 1)
        c = [None] * (n + 1)
        s[0] = _sin(self.derivs[0])
        c[0] = _cos(self.derivs[0])
        for j in range(1, n + 1):
            sa = s[0] * 0
            ca = sa
            for i in range(j):
                b = math.comb(j - 1, i)
                sa = sa + b * c[i] * self.derivs[j - i]
                ca = ca - b * s[i] * self.derivs[j - i]
            s[j], c[j] = sa, ca
        return Jet(self.x, s), Jet(self.x, c)

    def sin(self) -> "Jet":
        return self.sin_cos()[0]

    def cos(self) -> "Jet":
        return self.sin_cos()[1]

    def exp(self) -> "Jet":
        n = self.order
        e = [None] * (n + 1)
        e[0] = _exp(self.derivs[0])
        for j in range(1, n + 1):
            acc = e[0] * 0
            for i in range(j):
                acc = acc + math.comb(j - 1, i) * e[i] * self.derivs[j - i]
            e[j] = acc
        return Jet(self.x, e)

    def __repr__(self):
        return f"Jet(x={self.x!r}, derivs={self.derivs!r})"


def _coeff_like(frac: Fraction, like):
    """Fraction -> the scalar type of `like` (mpf stays exact to working dps)."""
    if isinstance(like, mpmath.mpf):
        return mp.mpf(frac.numerator) / frac.denominator
    return float(frac)


def d_operator(jet: Jet, p: int):
    """Apply D^p = ((1/t) d/dt)^p at the jet's base point.

    Uses the exact coefficient table; requires jet order >= p and x != 0.
    The jet may be over an array of base points; each element then equals
    the call on that point alone, bit for bit.
    """
    if p < 0:
        raise ValueError("p >= 0")
    if p == 0:
        return jet.derivs[0]
    if jet.order < p:
        raise ValueError(f"jet of order {jet.order} cannot support D^{p}")
    x = jet.x
    row = d_coeff_table(p)[p]
    acc = jet.derivs[0] * 0
    for j in range(1, p + 1):
        a = row[j]
        if a:
            acc = acc + _coeff_like(a, jet.derivs[j]) * jet.derivs[j] * _power(x, j - 2 * p)
    return acc


def _power(x, e: int):
    """x ** e; over an array of base points, libm pow per element, so each
    element equals its scalar call (numpy's array power differs from libm
    in the last bit for some x)."""
    if isinstance(x, np.ndarray):
        return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)
    return x ** e


# ---------------------------------------------------------------------------
# closed-form D^p kernels


@lru_cache(maxsize=None)
def _trig_coeffs(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer coefficient rows (cs, cc) with
    D^p(sin x/x) = x^-(2p+1) (sum cs[l] x^l sin x + sum cc[l] x^l cos x).
    The cosine kernel uses the swap rule (see dp_cosc).
    """
    cs = [0] * (p + 1)
    cc = [0] * (p + 1)
    for l in range(p + 1):
        C = coeff_C(p, l)
        if C.denominator != 1:
            raise ArithmeticError(f"coefficient C({p}, {l}) = {C} is not an integer")
        C = C.numerator
        if l % 2 == 0:
            cs[l] = C * (-1) ** (p + l // 2)
        else:
            cc[l] = C * (-1) ** (p + (l + 1) // 2)
    return tuple(cs), tuple(cc)


def _poly_eval(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _dp_trig_scalar(p: int, x: float, kind: str) -> float:
    cs, cc = _trig_coeffs(p)
    if kind == "cos":
        # D^p(cos x/x): sin-row multiplies cos, negated cos-row multiplies sin
        cs, cc = tuple(-c for c in cc), cs
    sx, cx = math.sin(x), math.cos(x)
    scale = float(x) ** (-(2 * p + 1))
    acc = 0.0
    mag = 0.0
    xp = 1.0
    for l in range(p + 1):
        term = (cs[l] * sx + cc[l] * cx) * xp
        acc += term
        mag += abs(cs[l] * sx * xp) + abs(cc[l] * cx * xp)
        xp *= x
    value = acc * scale
    # Relative guard: near a zero of the kernel the float sum cancels far
    # below the term magnitudes, so judge cancellation against the value
    # itself and redo in mpmath whenever float64 cannot carry full digits.
    if mag * abs(scale) <= _CANCEL_LIMIT * abs(value):
        return value
    # cancellation beyond float64: redo in mpmath with enough digits
    dps = 40
    while True:
        with mp.workdps(dps):
            xm = mp.mpf(x)
            sxm, cxm = mp.sin(xm), mp.cos(xm)
            accm = mp.mpf(0)
            magm = mp.mpf(0)
            xpm = mp.mpf(1)
            for l in range(p + 1):
                term = (cs[l] * sxm + cc[l] * cxm) * xpm
                accm += term
                magm += abs(term)
                xpm *= xm
            accm *= xm ** (-(2 * p + 1))
            magm *= abs(xm) ** (-(2 * p + 1))
            lost = magm / max(abs(accm), mp.mpf(10) ** (-dps))
            if lost < mp.mpf(10) ** (dps - 20) or dps >= 200:
                return float(accm)
        dps += 40


def _dp_trig(p: int, x, kind: str):
    if p < 0:
        raise ValueError("p >= 0")
    if isinstance(x, np.ndarray):
        if np.any(x == 0):
            raise ValueError("x = 0 is outside the domain")
        cs, cc = _trig_coeffs(p)
        if kind == "cos":
            cs, cc = tuple(-c for c in cc), cs
        xs = np.asarray(x, dtype=float)
        val = _poly_eval(cs, xs) * np.sin(xs) + _poly_eval(cc, xs) * np.cos(xs)
        return val * xs ** (-(2 * p + 1))
    if x == 0:
        raise ValueError("x = 0 is outside the domain")
    return _dp_trig_scalar(p, float(x), kind)


def dp_sinc(p: int, x):
    """D^p (sin x / x), closed trig form with exact integer coefficients."""
    return _dp_trig(p, x, "sin")


def dp_cosc(p: int, x):
    """D^p (cos x / x), closed trig form with exact integer coefficients."""
    return _dp_trig(p, x, "cos")


def _poly_eval_jet(coeffs, xjet: Jet) -> Jet:
    acc = xjet._wrap(0.0)
    for c in reversed(coeffs):
        acc = acc * xjet + c
    return acc


def raw_j_jet(k: int, xjet: Jet) -> Jet:
    """Jet of raw_j(k, .) composed with the jet argument (chain rule included).

    Uses the exact integer-coefficient trig form; valid for float and mpmath
    jet components alike.  The argument value must be nonzero.
    """
    cs, cc = _trig_coeffs(k)
    s, c = xjet.sin_cos()
    num = _poly_eval_jet(cs, xjet) * s + _poly_eval_jet(cc, xjet) * c
    return num * xjet ** (-(2 * k + 1))


def dp_trig_mp(p: int, x, kind: str, dps: int = 60):
    """dp_sinc/dp_cosc evaluated in mpmath at a fixed working precision.

    Returns an mpf computed under `dps` digits; the caller owns any rounding.
    """
    cs, cc = _trig_coeffs(p)
    if kind == "cos":
        cs, cc = tuple(-c for c in cc), cs
    with mp.workdps(dps):
        xm = mp.mpf(x)
        sx, cx = mp.sin(xm), mp.cos(xm)
        acc = mp.mpf(0)
        xp = mp.mpf(1)
        for l in range(p + 1):
            acc += (cs[l] * sx + cc[l] * cx) * xp
            xp *= xm
        return acc * xm ** (-(2 * p + 1))


def _binom_conv(n: int, r: int) -> int:
    """C(n, r) with the convention C(-1, 0) = 1 (and C(n<r, r>=1) = 0)."""
    if r == 0:
        return 1
    if n < r:
        return 0
    return math.comb(n, r)


def dp_inv_poly(m: int, d: int, t) -> float:
    """D^m ( 1 / (t (t+1)^d) ) as the closed alternating sum.

    Valid for t not in {0, -1}; d >= 0 with the C(-1,0) = 1 convention.
    """
    if m < 0 or d < 0:
        raise ValueError("m, d >= 0")
    t = float(t)
    if t == 0.0 or t == -1.0:
        raise ValueError("t in {0, -1} is outside the domain")
    terms = [
        Fraction((-1) ** m)
        * coeff_C(m, r) * _binom_conv(d + r - 1, r) * math.factorial(r)
        for r in range(m + 1)
    ]
    acc = 0.0
    mag = 0.0
    for r, c in enumerate(terms):
        term = float(c) / (t ** (2 * m + 1 - r) * (t + 1) ** (d + r))
        acc += term
        mag += abs(term)
    if mag <= _CANCEL_LIMIT * max(1.0, abs(acc)):
        return acc
    dps = 40
    while True:
        with mp.workdps(dps):
            tm = mp.mpf(t)
            accm = mp.mpf(0)
            magm = mp.mpf(0)
            for r, c in enumerate(terms):
                term = (mp.mpf(c.numerator) / c.denominator) / (
                    tm ** (2 * m + 1 - r) * (tm + 1) ** (d + r)
                )
                accm += term
                magm += abs(term)
            lost = magm / max(abs(accm), mp.mpf(10) ** (-dps))
            if lost < mp.mpf(10) ** (dps - 20) or dps >= 200:
                return float(accm)
        dps += 40


# ---------------------------------------------------------------------------
# spherical Bessel functions


@lru_cache(maxsize=None)
def raw_to_normalized(k: int) -> float:
    """c_k with raw_j = c_k * j_normalized; c_0 = 1, sign alternates."""
    return (-1) ** k * math.sqrt(math.pi) / (2 ** (k + 1) * math.gamma(k + 1.5))


def switch_radius(k: int) -> float:
    """Series/closed-form crossover for the first kind: 0.5 (2k+1)."""
    return 0.5 * (2 * k + 1)


_SERIES_TERMS = 30


def _series_j(k: int, x):
    """Power series of the normalized j (j(0) = 1); stable for |x| < switch."""
    alpha = k + 0.5
    q = -np.asarray(x, dtype=float) ** 2 / 4.0
    term = np.ones_like(q)
    acc = np.ones_like(q)
    for i in range(_SERIES_TERMS):
        term = term * q / ((i + 1) * (i + alpha + 1))
        acc = acc + term
        if np.all(np.abs(term) < 1e-18 * np.abs(acc)):
            break
    return acc


def raw_j(k: int, x):
    """D^k(sin x / x); the raw first-kind function."""
    return dp_sinc(k, x)


def raw_y(k: int, x):
    """D^k(cos x / x); the raw second-kind function (pole at 0)."""
    return dp_cosc(k, x)


def sph_bessel_j(k: int, x):
    """Normalized first-kind function: series below the switch radius,
    closed trig form (scaled by 1/c_k) above it.  j(0) = 1."""
    if k < 0:
        raise ValueError("k >= 0")
    sw = switch_radius(k)
    ck = raw_to_normalized(k)
    if isinstance(x, np.ndarray):
        xs = np.asarray(x, dtype=float)
        out = np.empty_like(xs)
        small = np.abs(xs) < sw
        if np.any(small):
            out[small] = _series_j(k, xs[small])
        if np.any(~small):
            out[~small] = dp_sinc(k, xs[~small]) / ck
        return out
    xf = float(x)
    if abs(xf) < sw:
        return float(_series_j(k, xf))
    return dp_sinc(k, xf) / ck


def sph_bessel_y(k: int, x):
    """Normalized second-kind function (same constant c_k as the first kind).

    Pole of order 2k+1 at x = 0; x = 0 is a domain error.
    """
    if k < 0:
        raise ValueError("k >= 0")
    if isinstance(x, np.ndarray):
        if np.any(x == 0):
            raise ValueError("x = 0: pole of the second-kind function")
        return dp_cosc(k, np.asarray(x, dtype=float)) / raw_to_normalized(k)
    if x == 0:
        raise ValueError("x = 0: pole of the second-kind function")
    return dp_cosc(k, float(x)) / raw_to_normalized(k)


# ---------------------------------------------------------------------------
# Gegenbauer polynomials


def gegenbauer(m: int, alpha: float, x):
    """C_m^alpha(x) by the standard three-term recurrence (alpha > 0)."""
    if m < 0:
        raise ValueError("m >= 0")
    if alpha <= 0:
        raise ValueError("alpha > 0")
    xs = np.asarray(x, dtype=float)
    prev = np.ones_like(xs)
    if m == 0:
        return prev if isinstance(x, np.ndarray) else float(prev)
    cur = 2 * alpha * xs
    for i in range(2, m + 1):
        prev, cur = cur, (2 * xs * (i + alpha - 1) * cur - (i + 2 * alpha - 2) * prev) / i
    return cur if isinstance(x, np.ndarray) else float(cur)


def gegenbauer_at_one(m: int, alpha: float) -> float:
    """C_m^alpha(1) = C(m + 2 alpha - 1, m) (generalized binomial)."""
    acc = 1.0
    for i in range(1, m + 1):
        acc *= (2 * alpha - 1 + i) / i
    return acc


# ---------------------------------------------------------------------------
# Bessel zeros


@lru_cache(maxsize=None)
def _zero_cache(k: int) -> list:
    return []


def bessel_zero(k: int, i: int) -> float:
    """The i-th positive zero of j_{k+1/2} (equivalently of J_{k+1/2}).

    Zeros of consecutive indices are separated by more than pi for k >= 1
    (exactly pi at k = 0), so an upward scan with unit step cannot skip one.
    The scan starts below the first zero (which exceeds the order k + 1/2)
    and is capped a safe margin past the asymptotic location (i + k/2) pi;
    each bracket is then bisected to 1e-12 absolute.
    """
    if k < 0 or i < 1:
        raise ValueError("need k >= 0 and i >= 1")
    zeros = _zero_cache(k)
    if len(zeros) >= i:
        return zeros[i - 1]

    f = lambda xx: raw_j(k, xx)
    if zeros:
        lo = zeros[-1] + 1e-9
    else:
        lo = max(k + 0.5, 0.5)
    cap = (i + k / 2.0) * math.pi + 20.0
    flo = f(lo)
    step = 1.0
    while len(zeros) < i:
        hi = lo + step
        if hi > cap:
            raise RuntimeError(f"bracketing failed for zero {len(zeros)+1} of order k={k}")
        fhi = f(hi)
        if flo == 0.0:
            zeros.append(lo)
            lo, flo = lo + 1e-9, f(lo + 1e-9)
            continue
        if flo * fhi < 0:
            a, b = lo, hi
            fa = flo
            while b - a > 1e-13:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
            lo, flo = b + 1e-9, f(b + 1e-9)
        else:
            lo, flo = hi, fhi
    return zeros[i - 1]
