"""Spherical Bessel functions, the D^p trigonometric kernels, Taylor jets,
and Bessel zero finding.

Two normalizations coexist deliberately.  The "raw" functions are literally
D^k(sin x/x) and D^k(cos x/x) with D = (1/x) d/dx; the normalized ones satisfy
j(0) = 1.  They differ by

    c_k = (-1)^k sqrt(pi) / (2^(k+1) Gamma(k + 3/2)) = (-1)^k / (2k+1)!!,
    raw = c_k * normalized,

and every cross-identity downstream is evaluated in the raw normalization,
where the constant cancels.

Floats take one route to the kernels: their three-term recurrence
(`_sweep`), forward above the order and by Miller's backward sweep below it.
`dp_sweep` gives every order of the first kind at once, `dp_sinc`, `dp_cosc`
and `sph_bessel_j` are its one-row calls, and `bessel_zero` reads its signs
from the forward recurrence.  A value that is not a finite normal float is
NaN or refused, never 0 or another wrong value.  An array call equals the
scalar call at each element, bit for bit.

Decimals take the closed trig form with exact integer coefficients
(`_trig_coeffs`, `dp_trig_mp`) and, below the switch radius, the power series
(`_dp_sinc_mp`).  All Decimal work runs under `decimal_context`, which sets
every field of the context itself.
"""

from __future__ import annotations

import math
import operator
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, getcontext, localcontext
from functools import lru_cache

import numpy as np

from .exactmath import coeff_C


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
def _pascal_row(j: int) -> tuple[int, ...]:
    """Row j of Pascal's triangle: _pascal_row(j)[i] = C(j, i)."""
    return tuple(math.comb(j, i) for i in range(j + 1))


def _finite(v) -> bool:
    if isinstance(v, (int, float)):
        return math.isfinite(v)
    if isinstance(v, Decimal):
        return v.is_finite()
    return bool(np.isfinite(v).all())


def _leibniz_entry(a, b, ta: int, tb: int, j: int):
    """Entry j of the product of the jets with entries a and b and tops ta
    and tb: the sum of C(j,i) a[i] b[j-i] over the terms that can be nonzero,
    in the plain Leibniz order.  Above ta + tb it is a[0] b[j], a zero."""
    if j > ta + tb:
        return a[0] * b[j]
    row = _pascal_row(j)
    lo = max(0, j - tb)  # terms i in [lo, min(j, ta)] can be nonzero
    acc = (a[lo] if row[lo] == 1 else row[lo] * a[lo]) * b[j - lo]
    for i in range(lo + 1, min(j, ta) + 1):
        c = row[i]
        acc = acc + (a[i] if c == 1 else c * a[i]) * b[j - i]
    return acc


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
        out = [_leibniz_entry(a, b, ta, tb, j) for j in range(top + 1)]
        if top < self.order:
            out += [_leibniz_entry(a, b, ta, tb, top + 1)] * (self.order - top)
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


def _power(x, e: int):
    """x ** e; over an array of base points, libm pow per element, so each
    element equals its scalar call (numpy's array power differs from libm
    in the last bit for some x)."""
    if isinstance(x, np.ndarray):
        return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)
    return x ** e


# ---------------------------------------------------------------------------
# closed-form D^p kernels, in Decimals


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
        if l % 2 == 0:
            cs[l] = C * (-1) ** (p + l // 2)
        else:
            cc[l] = C * (-1) ** (p + (l + 1) // 2)
    return tuple(cs), tuple(cc)


def _kind_coeffs(p: int, kind: str):
    cs, cc = _trig_coeffs(p)
    if kind == "cos":
        # D^p(cos x/x): sin-row multiplies cos, negated cos-row multiplies sin
        cs, cc = tuple(-c for c in cc), cs
    return cs, cc


def dp_trig_mp(p: int, x, kind: str, dps: int):
    """D^p (sin x / x) (kind "sin") or D^p (cos x / x) (kind "cos") by the
    closed trig form, in Decimals at a fixed working precision.

    Returns a Decimal computed under `dps` digits; the caller owns any
    rounding.
    """
    cs, cc = _kind_coeffs(p, kind)
    with decimal_context(dps):
        x = Decimal(x)
        sx, cx = decimal_sin_cos(x)
        acc, xp = Decimal(0), 1
        for s, c in zip(cs, cc):
            acc += (s * sx + c * cx) * xp
            xp *= x
        return acc * x ** -(2 * p + 1)


def _dp_sinc_mp(q: int, x: Decimal, dps: int) -> Decimal:
    """D^q (sin x / x) at a Decimal x, right to dps digits and unrounded:
    `dp_trig_mp` above the switch radius; below it, where the closed form
    cancels most, the power series in s = x^2 / 2 at q / 4 + 8 digits past
    dps (its terms cancel at most 0.23 q digits there)."""
    if not abs(x) < switch_radius(q):
        return dp_trig_mp(q, x, "sin", dps)
    with decimal_context(dps + q // 4 + _SERIES_GUARD):
        s, i = x * x / 2, q
        term = acc = Decimal((-2) ** q * math.factorial(q)) / math.factorial(2 * q + 1)
        # each term is the last times -s / ((i + 1 - q) (2i + 3)); stop past
        # the largest term, once a term is below the last digit
        while (i + 1 - q) * (2 * i + 3) < s or abs(term) > abs(acc).scaleb(-getcontext().prec):
            term = -term * s / ((i + 1 - q) * (2 * i + 3))
            acc, i = acc + term, i + 1
    return acc


# ---------------------------------------------------------------------------
# the float kernels: the three-term recurrence

_TINY = float(np.finfo(float).tiny)


def _normal(v):
    """v where it is a finite normal float; NaN at 0, at subnormals (the
    value underflowed and lost its digits), at infinities and at NaN."""
    a = np.abs(v)
    return np.where((a >= _TINY) & (a < math.inf), v, np.nan)


def _sweep(x, lo: int, hi: int, cosc: bool):
    """(F, g) at each element of the flat float array x: F[q - lo] is the
    normalized first kind j_q = D^q (sin x / x) / c_q (j_q(0) = 1) for every
    q in [lo, hi], and g is D^lo (cos x / x) if `cosc`, else None.

    j_q satisfies j_(q-1) + x^2 j_(q+1) / ((2q+1)(2q+3)) = j_q (DLMF §10.51,
    scaled by c_q).  Each element takes its branch from its own |x|, so it
    equals its one-point call bit for bit:
    * |x| > hi: forward from sin x / x, stable below order |x|;
    * |x| <= hi: the ratios rho_q = j_q / j_(q-1) by Miller's backward sweep
      (Gautschi, SIAM Review 9, 1967), from 0 at order hi + 10 + 8 hi^(1/3)
      (the turning region |x| ~ q is about q^(1/3) orders wide), then
      normalized at q = lo:
      - below |x| = 1 by sin x / x times rho_1 ... rho_lo (sin x / x has no
        zero there; x = 0 gives 1);
      - from |x| = 1 by the Wronskian, j_lo = 1 / ((2lo+3) Y_(lo+1)
        - rho_(lo+1) x^2 Y_lo / (2lo+3)), where Y_q = c_q x^(2q+1) D^q (cos x / x)
        runs forward from cos x, (x sin x + cos x) / 3 (DLMF §10.50).
    The second kind runs forward from cos x / x, and only when asked for.
    No power of x is taken.
    """
    ax, x2 = np.abs(x), x * x
    sx, cx = np.sin(x), np.cos(x)
    # forward at every element; the rows of |x| <= hi are replaced below
    sinc = a = sx / x
    b = 3 * (a - cx) / x2
    rows = [a, b]
    for q in range(1, hi):
        a, b = b, (2 * q + 1) * (2 * q + 3) * (b - a) / x2
        rows.append(b)
    F = np.array(rows[lo:hi + 1])
    miller = ax <= hi  # not NaN
    if miller.any():
        low, mid = miller & (ax < 1), miller & (ax >= 1)
        top, stop = max(hi, lo + 1), 1 if low.any() else lo + 1
        w = x2[miller]
        rho, ratios = np.zeros(w.size), []  # ratios[i]: rho at order top - i
        for q in range(hi + 10 + math.ceil(8 * hi ** (1 / 3)), stop - 1, -1):
            c = (2 * q + 1) * (2 * q + 3)
            rho = c / (c - w * rho)
            if q <= top:
                ratios.append(rho)
        j_lo, part = np.empty(rho.size), low[miller]
        if low.any():
            j = np.where(x[low] == 0, 1.0, sinc[low])
            for q in range(1, lo + 1):
                j = j * ratios[top - q][part]
            j_lo[part] = j
        if mid.any():
            v, v2 = x[mid], x2[mid]
            y = cx[mid]
            y_next = (v * sx[mid] + y) / 3
            for q in range(1, lo + 1):
                y, y_next = y_next, ((2 * q + 1) * y_next - v2 * y / (2 * q + 1)) / (2 * q + 3)
            rho = ratios[top - lo - 1][~part]
            j_lo[~part] = 1 / ((2 * lo + 3) * y_next - rho * v2 * y / (2 * lo + 3))
        F[:, miller] = np.cumprod([j_lo] + ratios[top - lo - 1::-1][:hi - lo], axis=0)
    g = None
    if cosc:
        g, g_next = cx / x, -(x * sx + cx) / (x2 * x)
        for q in range(1, lo + 1):
            g, g_next = g_next, -((2 * q + 1) * g_next + g) / x2
    return F, g


def dp_sweep(x, lo: int, hi: int, cosc: bool = False):
    """(f, g): D^q (sin x / x) in row f[q - lo] for every q in [lo, hi], and
    D^lo (cos x / x) if `cosc` (else g is None), at each element of the float
    array x, from `_sweep`; f is c_q times its normalized rows.

    Against the Decimal series and 300-digit values at every q <= 60 on 120
    log-spaced x in [1e-3, 100]: f is within 1.6e-15 of the envelope
    |D^q sinc| + |D^q cosc| and 5.4e-13 relative, g within 5.9e-14
    relative.  At its own zeros f is right only to the envelope.  An entry
    is NaN, never 0 or another wrong value, wherever it is not a finite
    normal float: where it underflows (every q from 150 on, where c_q is
    subnormal) and where the second kind overflows (below about x = 0.0045
    at lo = 49).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        F, g = _sweep(x.ravel(), lo, hi, cosc)
        c = np.array([raw_to_normalized(q) for q in range(lo, hi + 1)])
        f = _normal(c[:, None] * F).reshape((hi - lo + 1,) + x.shape)
    return f, None if g is None else _normal(g).reshape(x.shape)


def _dp_kernel(p: int, x, kind: str):
    if p < 0:
        raise ValueError("p >= 0")
    xs = np.asarray(x, dtype=float)
    if np.any(xs == 0):
        raise ValueError("x = 0 is outside the domain")
    f, g = dp_sweep(xs.ravel(), p, p, kind == "cos")
    value = f[0] if g is None else g
    bad = np.flatnonzero(np.isnan(value))
    if bad.size:
        v = float(xs.ravel()[bad[0]])
        raise ArithmeticError(f"D^{p}({kind} x / x) has no normal float value at p = {p}, x = {v!r}")
    return value.reshape(xs.shape) if xs.ndim else float(value[0])


def dp_sinc(p: int, x):
    """D^p (sin x / x), one row of `dp_sweep`.  Right to the envelope
    |D^p sinc| + |D^p cosc|, so relative accuracy fails next to its own
    zeros; ArithmeticError where the value is not a finite normal float."""
    return _dp_kernel(p, x, "sin")


def dp_cosc(p: int, x):
    """D^p (cos x / x), the second kind of `dp_sweep`; ArithmeticError where
    the value is not a finite normal float (it overflows at small x)."""
    return _dp_kernel(p, x, "cos")


# ---------------------------------------------------------------------------
# spherical Bessel functions


@lru_cache(maxsize=None)
def raw_to_normalized(k: int) -> float:
    """c_k = (-1)^k / (2k+1)!!, correctly rounded, with dp_sinc(k, .) =
    c_k * j_normalized; subnormal from k = 150."""
    return (-1) ** k / math.prod(range(1, 2 * k + 2, 2))


def switch_radius(k: int) -> float:
    """Where `_dp_sinc_mp` takes the series in place of the closed form:
    0.5 (2k+1)."""
    return 0.5 * (2 * k + 1)


def sph_bessel_j(k: int, x):
    """Normalized first-kind function, j(0) = 1: the first kind of `_sweep`
    in its own scale (never divided by c_k, which is subnormal from k = 150).
    Within 5.4e-13 relative at every k <= 60 on 120 log-spaced x in
    [1e-3, 100]; NaN where its value is not a finite normal float (it
    underflows at large x and k).  A scalar is evaluated as a one-element
    array."""
    if k < 0:
        raise ValueError("k >= 0")
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        j = _normal(_sweep(xs.ravel(), k, k, False)[0][0])
    return j.reshape(xs.shape) if xs.ndim else float(j[0])


# ---------------------------------------------------------------------------
# Bessel zeros


@lru_cache(maxsize=None)
def _zero_cache(k: int) -> list:
    return []


def _j_forward(k: int, x: float) -> float:
    """The standard spherical Bessel function j_k(x) = (-x)^k D^k (sin x / x)
    by forward recurrence, j_(q+1) = (2q+1) j_q / x - j_(q-1) (DLMF §10.51):
    above x = k + 1/2, where every zero of j_k lies, it is stable and its
    values are of size 1/x, so it cannot underflow."""
    s = math.sin(x) / x
    a, b = s, (s - math.cos(x)) / x
    for q in range(1, k):
        a, b = b, (2 * q + 1) / x * b - a
    return b if k else a


def bessel_zero(k: int, i: int) -> float:
    """The i-th positive zero of j_{k+1/2} (equivalently of J_{k+1/2}).

    Zeros of consecutive indices are separated by more than pi for k >= 1
    (exactly pi at k = 0), so an upward scan with unit step cannot skip one.
    The scan starts below the first zero (which exceeds the order k + 1/2)
    and is capped a safe margin past the asymptotic location (i + k/2) pi;
    each bracket is then bisected until it is 1e-13 wide or its ends are
    adjacent floats (above x = 512 one float spacing exceeds 1e-13).  Scan
    and bisection read only the sign of `_j_forward`.
    """
    if k < 0 or i < 1:
        raise ValueError("need k >= 0 and i >= 1")
    zeros = _zero_cache(k)
    if len(zeros) >= i:
        return zeros[i - 1]
    f = lambda xx: _j_forward(k, xx)
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
