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
individual terms).  Evaluations estimate the cancellation from the sum of
term magnitudes and transparently re-run in decimal arithmetic (the
standard library's `decimal`) at sufficient precision when float64 cannot
reach ~1e-11 absolute-or-relative accuracy.  A scalar is evaluated as a
one-element array, so an array call equals the scalar call at each element,
bit for bit; only the private `_dp_trig_horner`, for callers that bound
their arguments, skips the guard.  Floats, arrays and Decimals share one
trig sum (`_trig_sum`) and one Horner loop (`_poly_eval`).
All Decimal work runs under `decimal_context`, which sets every field of
the context itself.
"""

from __future__ import annotations

import math
import operator
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactmath import coeff_C

# escalate a scalar closed-form sum to decimal arithmetic when the
# term-magnitude sum exceeds this multiple of the (unit-floored) result
_CANCEL_LIMIT = 1e4

_EPS = float(np.finfo(float).eps)


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
# high-precision scalars: the standard library's decimal (libmpdec)

# pi to 600 significant digits: enough to reduce every finite float argument
# at up to 270 working digits (see decimal_sin_cos)
_PI_DIGITS = (
    "3.1415926535897932384626433832795028841971693993751058209749"
    "445923078164062862089986280348253421170679821480865132823066"
    "470938446095505822317253594081284811174502841027019385211055"
    "596446229489549303819644288109756659334461284756482337867831"
    "652712019091456485669234603486104543266482133936072602491412"
    "737245870066063155881748815209209628292540917153643678925903"
    "600113305305488204665213841469519415116094330572703657595919"
    "530921861173819326117931051185480744623799627495673518857527"
    "248912279381830119491298336733624406566430860213949463952247"
    "371907021798609437027705392171762931767523846748184676694051"
    "3")
_PI = Decimal(_PI_DIGITS)
_REDUCE_GUARD = 20  # digits of the reduced argument past the precision
_SERIES_GUARD = 8   # digits carried through the series and the doublings
_HALVINGS = 6


@lru_cache(maxsize=None)
def _context(prec: int) -> Context:
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX,
                   capitals=1, clamp=0, flags=[], traps=[])


def decimal_context(prec: int):
    """Context manager for Decimal work at `prec` significant digits.

    Every field is set here and none is inherited from the caller's
    context: round half even, the widest exponent range, and no traps, so
    that, as in float arithmetic, a NaN or an infinity propagates and the
    caller's finiteness checks judge it.
    """
    return localcontext(_context(prec))


def to_decimal(v) -> Decimal:
    """A float, int, Fraction or Decimal scalar as a Decimal: exact, except
    that a Fraction rounds to the working precision."""
    if isinstance(v, Fraction):
        return Decimal(v.numerator) / v.denominator
    return Decimal(v)


def decimal_sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x, each rounded to the working precision.

    x is reduced by the nearest multiple of pi/2, against `_PI`, with the
    reduced argument right to 20 digits past the precision (so relative
    accuracy holds next to every multiple for float x).  The sine of the
    reduced argument over 2^6 is its Taylor series, the cosine follows from
    it, and six doublings go back.
    """
    if not x.is_finite():
        nan = Decimal("NaN")
        return nan, nan
    prec = getcontext().prec
    digits = prec + _REDUCE_GUARD + max(0, x.adjusted() + 2)
    if digits > len(_PI_DIGITS) - 1:
        raise ValueError(f"sin/cos of {x:.3e} at {prec} digits needs more digits of pi")
    with decimal_context(digits):
        half_pi = _PI / 2
        q = (x / half_pi).to_integral_value()
        r = x - q * half_pi
    with decimal_context(prec + _SERIES_GUARD):
        a = r / (1 << _HALVINGS)
        a2 = a * a
        s = term = a
        floor = a.adjusted() - prec - _SERIES_GUARD
        n = 1
        while term and term.adjusted() >= floor:
            term = term * a2 / -((n + 1) * (n + 2))
            s += term
            n += 2
        c = (1 - s * s).sqrt()
        for _ in range(_HALVINGS):
            s, c = 2 * s * c, 1 - 2 * s * s
    quadrant = int(q) % 4
    if quadrant & 1:
        s, c = c, -s
    if quadrant & 2:
        s, c = -s, -c
    return +s, +c


# ---------------------------------------------------------------------------
# Taylor jets


def _sin_cos(v):
    if isinstance(v, Decimal):
        return decimal_sin_cos(v)
    if isinstance(v, np.ndarray):
        return np.sin(v), np.cos(v)
    return math.sin(v), math.cos(v)


def _exp(v):
    if isinstance(v, Decimal):
        return v.exp()
    return np.exp(v)


@lru_cache(maxsize=None)
def _pascal(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of Pascal's triangle: _pascal(n)[j][i] = C(j, i)."""
    return tuple(tuple(math.comb(j, i) for i in range(j + 1)) for j in range(n + 1))


def _finite(v) -> bool:
    if isinstance(v, (int, float)):
        return math.isfinite(v)
    if isinstance(v, Decimal):
        return v.is_finite()
    return bool(np.isfinite(v).all())


class Jet:
    """Value plus ordinary derivatives f(x), f'(x), ..., f^(order)(x).

    Components may be floats, numpy arrays (elementwise jets over a grid), or
    Decimals (worked under `decimal_context`, with Decimal or integer
    scalars); arithmetic is the usual Leibniz algebra on derivative
    sequences.  Division requires a nonvanishing denominator value.

    `top` is the highest order whose entry can be nonzero (the full order
    unless given).  Products, quotients, exp and sin_cos sum only the terms
    whose factors can be nonzero, in the plain Leibniz order; every skipped
    term is a product with an exact zero, so each nonzero entry keeps the
    bits of the full sum, and a zero entry may differ only in its sign.
    Entries above `top` share one zero.
    """

    __slots__ = ("x", "derivs", "top")

    def __init__(self, x, derivs, top=None):
        self.x = x
        self.derivs = list(derivs)
        if not self.derivs:
            raise ValueError("a jet needs at least the value entry")
        self.top = self.order if top is None else top

    @property
    def order(self) -> int:
        return len(self.derivs) - 1

    @staticmethod
    def variable(x, order: int) -> "Jet":
        dec = isinstance(x, Decimal)
        zero, one = (Decimal(0), Decimal(1)) if dec else (x * 0 + 0.0, x * 0 + 1.0)
        return Jet(x, [x, one] + [zero] * (order - 1) if order else [x], min(order, 1))

    @staticmethod
    def constant(c, x, order: int) -> "Jet":
        return Jet(x, [c] + [c * 0] * order, 0)

    def _wrap(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet order mismatch")
            return other
        return Jet.constant(other + self.derivs[0] * 0, self.x, self.order)

    def _entries(self, top, fn, *others) -> "Jet":
        """The jet of fn applied to the entries of each order, up to `top`;
        fn's (zero) entry at top + 1 stands for every order above."""
        out = list(map(fn, self.derivs[:top + 2], *(o.derivs for o in others)))
        return Jet(self.x, out + out[-1:] * (self.order - top - 1), top)

    # -- linear operations
    def __add__(self, other):
        o = self._wrap(other)
        return self._entries(max(self.top, o.top), operator.add, o)

    __radd__ = __add__

    def __neg__(self):
        return self._entries(self.top, operator.neg)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    # -- products and quotients (Leibniz)
    def __mul__(self, other):
        if not isinstance(other, Jet):
            top = self.top if _finite(other) else self.order
            return self._entries(top, lambda a: other * a)
        o = self._wrap(other)
        a, b, ta, tb = self.derivs, o.derivs, self.top, o.top
        top = min(ta + tb, self.order)
        out = []
        for j, row in enumerate(_pascal(top)):
            lo = max(0, j - tb)  # terms i in [lo, min(j, ta)] can be nonzero
            acc = (a[lo] if row[lo] == 1 else row[lo] * a[lo]) * b[j - lo]
            for i in range(lo + 1, min(j, ta) + 1):
                c = row[i]
                acc = acc + (a[i] if c == 1 else c * a[i]) * b[j - i]
            out.append(acc)
        if top < self.order:
            out += [a[0] * b[top + 1]] * (self.order - top)
        return Jet(self.x, out, top)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            top = self.top if _finite(other) and np.all(other != 0) else self.order
            return self._entries(top, lambda a: a / other)
        o = self._wrap(other)
        g0 = o.derivs[0]
        if np.any(np.asarray(g0) == 0):
            raise ZeroDivisionError("jet division by a jet with vanishing value")
        if o.top == 0:  # a constant jet divides as its value
            return self / g0
        out = []
        for j in range(self.order + 1):
            acc = self.derivs[j]
            for i in range(max(0, j - o.top), j):
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
            n >>= 1
            if n:
                base = base * base
        return result

    # -- analytic functions
    def sin_cos(self) -> tuple["Jet", "Jet"]:
        """Jets of sin(f) and cos(f), via the shared first-order recurrence."""
        n, f, t = self.order, self.derivs, self.top
        s0, c0 = _sin_cos(f[0])
        s, c = [s0], [c0]
        zero = s0 * 0
        for j in range(1, n + 1):
            sa = ca = zero
            for i in range(max(0, j - t), j):
                b = math.comb(j - 1, i)
                sa = sa + b * c[i] * f[j - i]
                ca = ca - b * s[i] * f[j - i]
            s.append(sa)
            c.append(ca)
        top = n if t else 0
        return Jet(self.x, s, top), Jet(self.x, c, top)

    def exp(self) -> "Jet":
        n, f, t = self.order, self.derivs, self.top
        e = [_exp(f[0])]
        zero = e[0] * 0
        for j in range(1, n + 1):
            acc = zero
            for i in range(max(0, j - t), j):
                acc = acc + math.comb(j - 1, i) * e[i] * f[j - i]
            e.append(acc)
        return Jet(self.x, e, n if t else 0)

    def __repr__(self):
        return f"Jet(x={self.x!r}, derivs={self.derivs!r})"


def _coeff_like(frac: Fraction, like):
    """Fraction -> the scalar type of `like` (a Decimal rounds to the working
    precision)."""
    if isinstance(like, Decimal):
        return to_decimal(frac)
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
    """sum c_l x^l by Horner's rule from the leading coefficient, for a
    float array or a jet x (each partial sum of a jet has the top of x's
    powers, so a product by a linear x takes two terms per entry); a single
    coefficient comes back as it is."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _kind_coeffs(p: int, kind: str):
    cs, cc = _trig_coeffs(p)
    if kind == "cos":
        # D^p(cos x/x): sin-row multiplies cos, negated cos-row multiplies sin
        cs, cc = tuple(-c for c in cc), cs
    return cs, cc


def _trig_sum(cs, cc, x):
    """The closed trig form times x^(2p+1) and its summed term magnitude,
    (acc, mag), for a float, a float array or a Decimal (at the working
    precision).  Every l has one nonzero coefficient (`_trig_coeffs`), so
    |term| is the magnitude of its one product.  Each element of an array
    equals the float call on it, bit for bit (numpy's sin, cos and products
    round as libm's and Python's do)."""
    sx, cx = _sin_cos(x)
    acc = mag = x * 0
    xp = 1
    for s, c in zip(cs, cc):
        term = (s * sx + c * cx) * xp
        acc = acc + term
        mag = mag + abs(term)
        xp = xp * x
    return acc, mag


def _trig_sum_mp(cs, cc, x):
    """The closed trig form and its summed term magnitude, in Decimals at
    the working precision."""
    xm = to_decimal(x)
    acc, mag = _trig_sum(cs, cc, xm)
    power = -(2 * len(cs) - 1)
    return acc * xm ** power, mag * abs(xm) ** power


def _escalate(closed_sum) -> float:
    """float of the (value, magnitude) pair `closed_sum()` returns, evaluated
    from 40 digits up in steps of 40 until the sum cancels fewer than
    dps - 20 digits, or at 200 digits."""
    dps = 40
    while True:
        with decimal_context(dps):
            acc, mag = closed_sum()
            lost = mag / max(abs(acc), Decimal(10) ** -dps)
            if lost < 10 ** (dps - 20) or dps >= 200:
                return float(acc)
        dps += 40


def _dp_trig_rows(p: int, x, kind: str):
    """dp_sinc/dp_cosc at every element of the float array x: one float sum
    over the array, redone in Decimals (`_escalate`) where the cancellation
    guard fails."""
    cs, cc = _kind_coeffs(p, kind)
    # an entry that overflows fails the guard and is escalated anyway
    with np.errstate(over="ignore", invalid="ignore"):
        acc, mag = _trig_sum(cs, cc, x)
        scale = _power(x, -(2 * p + 1))
        value = acc * scale
        # Relative guard: near a zero of the kernel the float sum cancels
        # far below the term magnitudes, so judge cancellation against the
        # value itself; where float64 cannot carry full digits it fails.
        trusted = mag * abs(scale) <= _CANCEL_LIMIT * abs(value)
    for i in np.flatnonzero(~trusted).tolist():
        value[i] = _escalate(lambda: _trig_sum_mp(cs, cc, float(x[i])))
    return value


def _dp_trig_horner(p: int, x, kind: str):
    """dp_sinc/dp_cosc over a float array by Horner's rule, with no
    cancellation guard.  Only for callers whose arguments keep the sum well
    conditioned: sph_bessel_j above its switch radius (first kind, error
    <= 6.4e-15 of the sup on x <= 40 for k <= 12, against high precision) and the
    second-kind block of spectral.cross_product_terms (<= 8.3e-15 of the
    envelope hypot(dp_sinc, dp_cosc) on [0.01, 100] for k <= 12)."""
    cs, cc = _kind_coeffs(p, kind)
    val = _poly_eval(cs, x) * np.sin(x) + _poly_eval(cc, x) * np.cos(x)
    return val * x ** (-(2 * p + 1))


def _dp_trig(p: int, x, kind: str):
    if p < 0:
        raise ValueError("p >= 0")
    xs = np.asarray(x, dtype=float)
    if np.any(xs == 0):
        raise ValueError("x = 0 is outside the domain")
    value = _dp_trig_rows(p, xs.ravel(), kind)
    return value.reshape(xs.shape) if xs.ndim else float(value[0])


def dp_sinc(p: int, x):
    """D^p (sin x / x), closed trig form with exact integer coefficients."""
    return _dp_trig(p, x, "sin")


def dp_cosc(p: int, x):
    """D^p (cos x / x), closed trig form with exact integer coefficients."""
    return _dp_trig(p, x, "cos")


def raw_j_jet(k: int, xjet: Jet) -> Jet:
    """Jet of dp_sinc(k, .) composed with the jet argument (chain rule included).

    Uses the exact integer-coefficient trig form; valid for float and Decimal
    jet components alike.  The argument needs a nonzero value; its known
    zeros (a linear argument, as for lam * (1 + t)) cut the work, not the bits.
    """
    cs, cc = _trig_coeffs(k)
    s, c = xjet.sin_cos()
    num = _poly_eval(cs, xjet) * s + _poly_eval(cc, xjet) * c
    return num * xjet ** (-(2 * k + 1))


def dp_trig_mp(p: int, x, kind: str, dps: int = 60):
    """dp_sinc/dp_cosc evaluated in Decimals at a fixed working precision.

    Returns a Decimal computed under `dps` digits; the caller owns any
    rounding.
    """
    cs, cc = _kind_coeffs(p, kind)
    with decimal_context(dps):
        return _trig_sum_mp(cs, cc, x)[0]


# ---------------------------------------------------------------------------
# spherical Bessel functions


@lru_cache(maxsize=None)
def raw_to_normalized(k: int) -> float:
    """c_k with dp_sinc(k, .) = c_k * j_normalized; c_0 = 1, sign alternates."""
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
            out[~small] = _dp_trig_horner(k, xs[~small], "sin") / ck
        return out
    xf = float(x)
    if abs(xf) < sw:
        return float(_series_j(k, xf))
    return dp_sinc(k, xf) / ck


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
    each bracket is then bisected until it is 1e-13 wide or its ends are
    adjacent floats (above x = 512 one float spacing exceeds 1e-13).  Scan
    and bisection read only the sign of dp_sinc, which for x > 0 is that of
    its float trig sum wherever rounding cannot flip it, so Decimals run
    only next to a zero.
    """
    if k < 0 or i < 1:
        raise ValueError("need k >= 0 and i >= 1")
    zeros = _zero_cache(k)
    if len(zeros) >= i:
        return zeros[i - 1]

    cs, cc = _trig_coeffs(k)

    def f(xx):
        # a float with the sign of dp_sinc(k, xx), all the bisection reads:
        # the float sum's rounding error is below (k + 3) eps mag, so only
        # a sum inside a 4 (k + 2) eps mag band needs dp_sinc (and Decimals)
        acc, mag = _trig_sum(cs, cc, xx)
        if abs(acc) > 4 * (k + 2) * _EPS * mag:
            return acc
        return dp_sinc(k, xx)

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
                if not a < mid < b:  # a and b are adjacent floats
                    break
                fm = f(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
            # resume past the zero as a later call does, so that a zero does
            # not depend on how many earlier ones the same call found
            lo = zeros[-1] + 1e-9
            flo = f(lo)
        else:
            lo, flo = hi, fhi
    return zeros[i - 1]
