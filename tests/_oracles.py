"""Independent routes kept only to check the package against.

- `DenseJet`: the jet algebra with every Leibniz term summed, zeros
  included, in the order `specfun.Jet` sums its nonzero ones.
- `funk_hecke_forward`: g(t) by the angular-variable integral, a second
  route to the radial forward transform.
- `h_from_phi`: h_m(t) of single-harmonic data by the D^m phi route.
- `dp_inv_poly`: D^m (1 / (t (t+1)^d)) as a closed alternating sum.
- `PolynomialProfile`: a truncated polynomial profile, for the closed-form
  transforms of the tests.
- `const_Kmn`: the constant with h_m = const_Kmn * D^m phi_m, which
  `h_from_phi` uses.
- `JetH`, `bump_h` and `PerturbedH`: range-check data given directly in t,
  a bump that is not range data, and range data broken by a factor
  1 + delta on t > 1.
- `invert_radial_n3`, with `_h_prime` and `R_FLOOR`: the closed-form
  inversion in dimension three, f(r) = 2 h'(1-r) / r.
- `verify_lemma35b`, `verify_abel_aigner`, `verify_necessity_identity`,
  `verify_dp_expansion` and `cj_double_sum`: the exact verifiers of
  `exactmath` in their first, term-by-term forms: one reflection per
  (k, p), a Fraction per term, a fresh power of (A - B) per s.  They look
  `binom`, `coeff_C` and `dp_q_power` up on `exactmath`, so a test that
  patches one of those patches both routes.
- `forward_matrix_meshgrid`: the collocation matrix on a meshgrid of
  (t, u), with Q^k raised on every cell, negative Q included.
- `read_csv_columns`: the `--input` CSV reader by a float() per cell,
  with the header found by a float() pass over all rows, then over all but
  the first, and a row scan only to name a fault.  It needs no mpmath, so the CSV tests run on an install without the
  test extra.
"""

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

try:
    import mpmath
    from mpmath import mp
    _MPF = (mpmath.mpf,)
except ImportError:  # installed without the test extra; only the CSV tests run
    mp, _MPF = None, ()

from sphmean import inverse as inv
from sphmean import specfun as sf
from sphmean import transform as tr
from sphmean import exactmath as em
from sphmean.cli import ConfigError
from sphmean.exactmath import BiPoly, coeff_C


def _sin_cos(v):
    if isinstance(v, _MPF):
        return mp.sin(v), mp.cos(v)
    return sf._sin_cos(v)


def _exp(v):
    return mp.exp(v) if isinstance(v, _MPF) else sf._exp(v)


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
        if isinstance(x, (*_MPF, Decimal)):
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
    return const_Kmn(data.dim, data.m) * data.phi_dp(t, data.m)


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


# ---------------------------------------------------------------------------
# forward-side fixtures


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

    def jet(self, r, order: int) -> sf.Jet:
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
            return sf.Jet(float(rs), [float(c) for c in derivs])
        return sf.Jet(rs, derivs)


def const_Kmn(dim, m: int) -> float:
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
        * tr.omega(n - 1)
        / (4 ** (m + k) * tr.omega(n) * sf.gegenbauer_at_one(m, alpha))
    )
    if not value > 0:
        raise FloatingPointError(f"const_Kmn(n={n}, m={m}) = {value} is not positive")
    return value


# ---------------------------------------------------------------------------
# range-check data given in t


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
                row[inside] = sf.d_operator(jet, order)
        return tr._by_order(out, p, np.shape(t))


def bump_h(center: float, width: float, amplitude: float = 1.0) -> JetH:
    """A bump in the t variable (anywhere in (0,2)); used as non-range data."""
    if not (0.0 < center - width and center + width < 2.0):
        raise ValueError("bump must sit inside (0, 2)")

    def jet_fn(t, order: int) -> sf.Jet:
        tj = sf.Jet.variable(t, order)
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
# dimension-three closed-form inversion

R_FLOOR = 1e-3


def _h_prime(data):
    """Return a callable h'(t) from whatever derivative access `data` has."""
    if isinstance(data, tuple) and len(data) == 2 and all(callable(c) for c in data):
        return np.vectorize(data[1], otypes=[float])  # a function of one t
    dp_h = getattr(data, "dp_h", None)
    # dp_h reaches order 1 only where k >= 1: for dimension-three forward
    # data (k = 0) the difference stencil takes over
    dim = getattr(data, "dim", None)
    if callable(dp_h) and (dim is None or dim.k >= 1):
        # D h = h'/t, so h'(t) = t * (D h)(t)
        return lambda t: t * dp_h(t, 1)
    h = getattr(data, "h", None)
    if not callable(h):
        h = data
    if not callable(h):
        raise TypeError("expected an (h, h') pair, dp_h access, or callable h")

    def fd(t):
        # five-point stencil: truncation O(step^4), roundoff ~ eps/step
        step = 6e-6
        return (h(t - 2 * step) - 8 * h(t - step)
                + 8 * h(t + step) - h(t + 2 * step)) / (12 * step)

    return fd


def invert_radial_n3(data, r):
    """f(r) = 2 h'(1-r) / r — the closed-form inversion in dimension three.

    `data` supplies h: an object with dp_h (analytic derivative, preferred),
    a pair (h, h') of functions of one t, or a bare callable h (differenced
    numerically).  Except for the pair, h is read in one call on the array of
    1 - r.  `r` may be a scalar or an array with entries in [1e-3, 1).
    """
    hp = _h_prime(data)
    rs = np.asarray(r, dtype=float)
    if np.any(rs < R_FLOOR) or np.any(rs >= 1.0):
        raise ValueError(f"radius must lie in [{R_FLOOR}, 1)")
    flat = np.atleast_1d(rs)
    out = 2.0 * np.full(flat.shape, hp(1.0 - flat), dtype=float) / flat
    if rs.ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# exact identity verifiers, term by term


def verify_lemma35b(l: int) -> bool:
    """sum_s (-1)^s C(2l-s, l) C(l, s) (A-B)^s (A^(l-s) - (-1)^s B^(l-s)) == 0."""
    A, B = BiPoly.t(), BiPoly.u()
    total = BiPoly()
    for s in range(l + 1):
        c = (-1) ** s * em.binom(2 * l - s, l) * em.binom(l, s)
        inner = A ** (l - s) - BiPoly.const((-1) ** s) * B ** (l - s)
        total = total + BiPoly.const(c) * (A - B) ** s * inner
    return total.is_zero()


def verify_abel_aigner(p: int, r: int, s: int) -> bool:
    """sum_{m=r}^{p-1-s} C(2m-r, m-r) C(2(p-1-m)-s, p-1-m-s) / (p-m)
    == C(2p-r-s-1, p) / (s+1), one Fraction per term."""
    lhs = sum(
        Fraction(em.binom(2 * m - r, m - r) * em.binom(2 * (p - 1 - m) - s, p - 1 - m - s),
                 p - m)
        for m in range(r, p - s)
    )
    return lhs == Fraction(em.binom(2 * p - r - s - 1, p), s + 1)


def verify_necessity_identity(k: int) -> bool:
    """sum_p C(k,p) (1-t)^p ([D^p Q^k](t,u) + (-1)^(p+1) [D^p Q^k](2-t,u)) == 0,
    one reflection per p."""
    one_minus_t = BiPoly({(0, 0): 1, (1, 0): -1})
    total = BiPoly()
    for p in range(k + 1):
        dp = em.dp_q_power(k, p)
        reflected = dp.subs_t_affine(2, -1)
        inner = dp + reflected if p % 2 else dp - reflected
        total = total + BiPoly.const(em.coeff_C(k, p)) * one_minus_t ** p * inner
    return total.is_zero()


def verify_dp_expansion(k: int, p: int) -> bool:
    """(1-t)^p D^p Q^k == sum_q K(p,q) (1-t)^(2p-2q) Q^(k-q) R^(2q-p), with the
    rational weight K(p,q) = k! p! (-4)^(p-q) / ((k-q)! (2q-p)! (p-q)! 2^(2q-p))."""
    one_minus_t = BiPoly({(0, 0): 1, (1, 0): -1})
    q_kernel = em.q_poly()
    r_diff = q_kernel.subs_t_affine(2, -1) - q_kernel + 16 * one_minus_t ** 2
    rhs = BiPoly()
    for q in range((p + 1) // 2, p + 1):
        K = Fraction(
            math.factorial(k) * math.factorial(p) * (-4) ** (p - q),
            math.factorial(k - q) * math.factorial(2 * q - p) * math.factorial(p - q)
            * 2 ** (2 * q - p),
        )
        rhs = rhs + (one_minus_t ** (2 * (p - q)) * q_kernel ** (k - q)
                     * r_diff ** (2 * q - p)) * K
    return em.dp_q_power(k, p) * one_minus_t ** p == rhs


def cj_double_sum(k: int, u: int, j: int) -> Fraction:
    """The double sum for C(j), one Fraction per (m, q) term."""
    total = Fraction(0)
    for m in range(u // 2 + 1):
        for q in range(m + 1):
            total += Fraction(
                (-1) ** (q + m) * 4**q * em.binom(u - 2 * q, j - q) * em.binom(u, 2 * m)
                * em.binom(m, q) * em.binom(2 * m, m) * em.binom(2 * k - m, k)
                * em.binom(2 * k - q, k),
                em.binom(2 * k - m, m),
            )
    return total


def forward_matrix_meshgrid(dim, cfg):
    """(t_grid, u_nodes, u_weights, A) of `inverse.forward_matrix`, with
    A = c_n w u Q^k [u >= 1 - t] on the meshgrid of t and u."""
    c_n = tr._front_constant(dim.n)
    u, w = inv.unknown_grid(cfg.n_unknowns)
    t_grid = np.sort(1.0 - inv.collocation_cuts(cfg.n_unknowns, cfg.n_collocation))
    T, U = np.meshgrid(t_grid, u, indexing="ij")
    A = c_n * w[None, :] * U * tr.q_kernel(T, U) ** dim.k * (U >= 1.0 - T)
    return t_grid, u, w, A


def read_csv_columns(path: str, expect: int):
    """A 2-column numeric CSV as `cli._read_csv_columns` reads it, by a
    float() per cell: '#' comments skipped, the first other row a header if
    float() refuses it, rows sorted in t; the same `ConfigError` for a row
    that is short, not numeric (past the first) or not finite, for fewer than
    two rows and for a repeated t."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    body = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
    cells = [line.split(",")[:expect] for line in body]
    data = None
    if all(len(row) == expect for row in cells):
        for header in (0, 1):
            try:
                data = np.fromiter(map(float, itertools.chain(*cells[header:])), float)
                break
            except ValueError:
                pass
    if data is not None and np.isfinite(data).all():
        data = data.reshape(-1, expect)
        data = data[np.argsort(data[:, 0])]
        if len(data) >= 2 and (data[1:, 0] != data[:-1, 0]).all():
            return data
    numbered = [(number, line) for number, line in enumerate(map(str.strip, lines), 1)
                if line and not line.startswith("#")]
    first, repeat = {}, None
    for index, (number, line) in enumerate(numbered):
        parts = line.split(",")
        if len(parts) < expect:
            raise ConfigError(f"{path}, line {number}: expected {expect} columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts[:expect]]
        except ValueError:
            if index:
                raise ConfigError(f"{path}, line {number}: not a numeric row: {line!r}") from None
            continue
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{path}, line {number}: not a finite row: {line!r}")
        if repeat is None and row[0] in first:
            repeat = f"{path}, line {number}: t = {row[0]!r} repeats line {first[row[0]]}"
        first.setdefault(row[0], number)
    if not first:
        raise ConfigError(f"{path}: no numeric rows found")
    if repeat is None:
        raise ConfigError(f"{path}, line {min(first.values())}: need at least two rows "
                          "to interpolate, got one")
    raise ConfigError(repeat)
