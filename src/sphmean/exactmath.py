"""Exact rational combinatorics and polynomial identities.

Everything in this module is computed exactly: over Python ints, with
stdlib ``fractions.Fraction`` only where a value is not an integer; there
is no floating point anywhere.  The
verifiers at the bottom check, term by term, the combinatorial identities that
underpin the range characterization: each one builds both sides of an identity
independently and compares exactly, so a ``True`` is a proof for the given
parameters, not an approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# binomials


def binom(n: int, k: int, mode: str = "standard") -> int:
    """Binomial coefficient with explicit convention handling.

    standard: usual value for n >= 0 (zero when k < 0 or k > n); negative n is
    an error.  contour: additionally admits binom(-1, -1) = 1, the single
    negative pair that coefficient-extraction arguments assign a value to.
    Any other negative pair is an error, not a guess.
    """
    if mode not in ("standard", "contour"):
        raise ValueError(f"unknown binomial mode {mode!r}")
    if n >= 0:
        if k < 0 or k > n:
            return 0
        return math.comb(n, k)
    if mode == "contour" and n == -1 and k == -1:
        return 1
    raise ValueError(f"binomial ({n}, {k}) undefined in {mode} mode")


def binom_half(m2: int, k: int) -> Fraction:
    """Generalized binomial C(m - 1/2, k) where m2 = 2m - 1 (so the top is m2/2)."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(m2 - 2 * i, 2)
    return num / math.factorial(k)


def _exact(c):
    """An exact ring element: an int when c is integral, else a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


@lru_cache(maxsize=None)
def coeff_C(k: int, p: int) -> int:
    """Range-operator coefficient C(k,p) = (2k-p)! / (p! 2^(k-p) (k-p)!).

    These are the coefficients of (1-t)^p D^p in the order-k range operator;
    always a positive integer, returned as an int.
    """
    if not 0 <= p <= k:
        raise ValueError(f"coeff_C requires 0 <= p <= k, got k={k}, p={p}")
    return _exact(Fraction(
        math.factorial(2 * k - p), math.factorial(p) * 2 ** (k - p) * math.factorial(k - p)
    ))


# ---------------------------------------------------------------------------
# exact bivariate polynomials


class BiPoly:
    """Bivariate polynomial in (t, u) over the rationals, sparse monomial map.

    Coefficients are stored as ints, and as Fractions only where they are
    not integers; the integer-coefficient kernels then never build a
    Fraction.

    The two variables are purely positional; the same class doubles as the
    (A, B) ring for the alternating-sum identity below.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[tuple[int, int], int | Fraction] = {}
        if coeffs:
            for (i, j), c in dict(coeffs).items():
                c = _exact(c)
                if c:
                    self.coeffs[(int(i), int(j))] = c

    # -- constructors
    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def t(power: int = 1) -> "BiPoly":
        return BiPoly({(power, 0): 1})

    @staticmethod
    def u(power: int = 1) -> "BiPoly":
        return BiPoly({(0, power): 1})

    # -- ring operations
    def __add__(self, other) -> "BiPoly":
        other = _as_poly(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other) -> "BiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "BiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "BiPoly":
        other = _as_poly(other)
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- substitution and evaluation
    def subs_t_affine(self, a, b) -> "BiPoly":
        """Substitute t -> a + b*t, expanding exactly."""
        a, b = _exact(a), _exact(b)
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i, j), c in self.coeffs.items():
            for r in range(i + 1):
                coef = c * math.comb(i, r) * a ** (i - r) * b**r
                if coef:
                    key = (r, j)
                    s = out.get(key, 0) + coef
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return BiPoly(out)

    def eval(self, tval, uval):
        """Numeric evaluation (floats in, float out); for tests and kernels."""
        return sum(float(c) * tval**i * uval**j for (i, j), c in self.coeffs.items())

    def terms(self):
        """Sorted (i, j, coefficient) triples; stable order for compilation."""
        return [(i, j, c) for (i, j), c in sorted(self.coeffs.items())]

    def __repr__(self):
        if self.is_zero():
            return "BiPoly(0)"
        parts = [f"{c}*t^{i}*u^{j}" for (i, j, c) in self.terms()]
        return "BiPoly(" + " + ".join(parts) + ")"


def _as_poly(v) -> BiPoly:
    if isinstance(v, BiPoly):
        return v
    return BiPoly.const(v)


def formal_D(poly: BiPoly) -> BiPoly:
    """Formal D = (1/t) d/dt on polynomials with even t-degrees only.

    D t^(2a) u^j = 2a t^(2a-2) u^j; an odd t-degree would leave the polynomial
    ring, so it is rejected rather than silently mangled.
    """
    out: dict[tuple[int, int], int | Fraction] = {}
    for (i, j), c in poly.coeffs.items():
        if i % 2:
            raise ValueError(f"formal_D needs even t-degrees, found t^{i}")
        if i:
            key = (i - 2, j)
            out[key] = out.get(key, 0) + c * i
    return BiPoly(out)


def q_poly() -> BiPoly:
    """The kernel Q(t,u) = 2(u^2+1)t^2 - t^4 - (1-u^2)^2, exact.

    Equivalently ((1+t)^2 - u^2)(u^2 - (1-t)^2); symmetric under t <-> u.
    """
    return BiPoly(
        {(2, 2): 2, (2, 0): 2, (4, 0): -1, (0, 0): -1, (0, 2): 2, (0, 4): -1}
    )


@lru_cache(maxsize=None)
def dp_q_power(power: int, p: int) -> BiPoly:
    """D^p (Q^power), exact; cached because kernels are reused across grids."""
    if p == 0:
        return q_poly() ** power
    return formal_D(dp_q_power(power, p - 1))


# ---------------------------------------------------------------------------
# identity verifiers (all exact; True is a proof for the given parameters)


def verify_lemma35a(k: int, l: int, s: int) -> bool:
    """Alternating Vandermonde-type sum:
    sum_{m=0}^{l-s} (-1)^m C(k+m, 2l-s) C(l-s, m) == (-1)^(l-s) C(k, l).
    """
    if min(k, l, s) < 0 or l - s < 0:
        raise ValueError("need k, l, s >= 0 and s <= l")
    lhs = sum(
        (-1) ** m * binom(k + m, 2 * l - s) * binom(l - s, m) for m in range(l - s + 1)
    )
    return lhs == (-1) ** (l - s) * binom(k, l)


def verify_lemma35b(l: int) -> bool:
    """The alternating (A-B)-sum collapses to the zero polynomial:
    sum_s (-1)^s C(2l-s, l) C(l, s) (A-B)^s (A^(l-s) - (-1)^s B^(l-s)) == 0.
    """
    if l < 0:
        raise ValueError("l >= 0")
    A, B = BiPoly.t(), BiPoly.u()
    total = BiPoly()
    for s in range(l + 1):
        c = (-1) ** s * binom(2 * l - s, l) * binom(l, s)
        inner = A ** (l - s) - BiPoly.const((-1) ** s) * B ** (l - s)
        total = total + BiPoly.const(c) * (A - B) ** s * inner
    return total.is_zero()


def verify_abel_aigner(p: int, r: int, s: int) -> bool:
    """Convolution identity with a 1/(p-m) weight:
    sum_{m=r}^{p-1-s} C(2m-r, m-r) C(2(p-1-m)-s, p-1-m-s) / (p-m)
        == C(2p-r-s-1, p) / (s+1).
    """
    if p < 1 or r < 0 or s < 0 or r + s > p - 1:
        raise ValueError("need p >= 1, r, s >= 0, r + s <= p - 1")
    lhs = sum(
        Fraction(binom(2 * m - r, m - r) * binom(2 * (p - 1 - m) - s, p - 1 - m - s), p - m)
        for m in range(r, p - s)
    )
    return lhs == Fraction(binom(2 * p - r - s - 1, p), s + 1)


def verify_necessity_identity(k: int) -> bool:
    """The reflected-kernel cancellation behind range necessity:
    sum_p C(k,p) (1-t)^p ( [D^p Q^k](t,u) + (-1)^(p+1) [D^p Q^k](2-t,u) ) == 0.
    """
    if k < 0:
        raise ValueError("k >= 0")
    one_minus_t = BiPoly({(0, 0): 1, (1, 0): -1})
    total = BiPoly()
    for p in range(k + 1):
        dp = dp_q_power(k, p)
        reflected = dp.subs_t_affine(2, -1)
        inner = dp + BiPoly.const((-1) ** (p + 1)) * reflected
        total = total + BiPoly.const(coeff_C(k, p)) * one_minus_t**p * inner
    return total.is_zero()


def verify_dp_expansion(k: int, p: int) -> bool:
    """Closed-form expansion of D^p (Q^k) in powers of Q, the reflection
    difference R = Q(2-t) - Q(t) + 16(1-t)^2, and (1-t):

    D^p Q^k == sum_{q >= p/2}^{p} K(p,q) (1-t)^(p-2q) Q^(k-q) R^(2q-p),
    K(p,q) = k! p! (-4)^(p-q) / ((k-q)! (2q-p)! (p-q)! 2^(2q-p)).

    Compared after multiplying both sides by (1-t)^p to clear denominators.
    """
    if not 0 <= p <= k:
        raise ValueError("need 0 <= p <= k")
    Q = q_poly()
    one_minus_t = BiPoly({(0, 0): 1, (1, 0): -1})
    R = Q.subs_t_affine(2, -1) - Q + BiPoly.const(16) * one_minus_t**2
    lhs = dp_q_power(k, p) * one_minus_t**p
    rhs = BiPoly()
    for q in range((p + 1) // 2, p + 1):
        K = Fraction(
            math.factorial(k) * math.factorial(p) * (-4) ** (p - q),
            math.factorial(k - q)
            * math.factorial(2 * q - p)
            * math.factorial(p - q)
            * 2 ** (2 * q - p),
        )
        rhs = rhs + BiPoly.const(K) * one_minus_t ** (2 * (p - q)) * Q ** (k - q) * R ** (
            2 * q - p
        )
    return lhs == rhs


def cj_double_sum(k: int, u: int, j: int) -> Fraction:
    """The defining double sum for the coefficient C(j) (exact)."""
    total = Fraction(0)
    for m in range(u // 2 + 1):
        for q in range(m + 1):
            total += Fraction(
                (-1) ** (q + m)
                * 4**q
                * binom(u - 2 * q, j - q)
                * binom(u, 2 * m)
                * binom(m, q)
                * binom(2 * m, m)
                * binom(2 * k - m, k)
                * binom(2 * k - q, k),
                binom(2 * k - m, m),
            )
    return total


def cj_closed_form(k: int, u: int, j: int) -> int:
    """Product closed form 2^u C(u,j) C(2k-j, k) C(2k-u+j, k)."""
    return 2**u * binom(u, j) * binom(2 * k - j, k) * binom(2 * k - u + j, k)


def verify_Cj_closed_form(k: int, u: int, j: int) -> bool:
    """Double sum vs product closed form for C(j); proven for even u only.

    Odd u is exploratory territory: use cj_double_sum / cj_closed_form
    directly to compare, but this verifier insists on the proven case.
    """
    if not (0 <= j <= u <= 2 * k):
        raise ValueError("need 0 <= j <= u <= 2k")
    if u % 2:
        raise ValueError("closed form is established for even u only")
    return cj_double_sum(k, u, j) == cj_closed_form(k, u, j)


def verify_gamma_contour(k: int, m: int) -> bool:
    """Coefficient extraction: [gamma^k] (1-4 gamma)^(m-1/2)
    == (-1)^m C(2m,m) C(2k-m,k) / C(2k-m,m).
    """
    if k < 0 or m < 0:
        raise ValueError("need k, m >= 0")
    lhs = binom_half(2 * m - 1, k) * Fraction(-4) ** k
    denom = binom(2 * k - m, m)
    if denom == 0:
        raise ValueError(f"C(2k-m, m) = 0 at k={k}, m={m}; ratio undefined")
    rhs = Fraction((-1) ** m * binom(2 * m, m) * binom(2 * k - m, k), denom)
    return lhs == rhs


# named sweep table used by the CLI `identities` subcommand
def identity_sweeps(max_k: int = 8):
    """Run every exact sweep; yields (name, range-description, ok, witness).

    witness is None on success, else the first failing parameter tuple.
    """
    kk = max_k

    def sweep(pairs, fn):
        for args in pairs:
            if not fn(*args):
                return False, args
        return True, None

    yield (
        "alternating-vandermonde",
        f"0<=s<=l<=k<={max(kk, 12)}",
        *sweep(
            [
                (k, l, s)
                for k in range(max(kk, 12) + 1)
                for l in range(k + 1)
                for s in range(l + 1)
            ],
            verify_lemma35a,
        ),
    )
    yield (
        "alternating-AB-collapse",
        "l<=14",
        *sweep([(l,) for l in range(15)], verify_lemma35b),
    )
    yield (
        "abel-aigner-convolution",
        "p<=12, r+s<=p-1",
        *sweep(
            [
                (p, r, s)
                for p in range(1, 13)
                for r in range(p)
                for s in range(p - r)
            ],
            verify_abel_aigner,
        ),
    )
    yield (
        "range-necessity-cancellation",
        f"k<={kk}",
        *sweep([(k,) for k in range(kk + 1)], verify_necessity_identity),
    )
    yield (
        "dp-kernel-expansion",
        f"p<=k<={min(kk, 6)}",
        *sweep(
            [(k, p) for k in range(min(kk, 6) + 1) for p in range(k + 1)],
            verify_dp_expansion,
        ),
    )
    yield (
        "cj-closed-form",
        f"even u<=2k, k<={min(kk, 6)}",
        *sweep(
            [
                (k, u, j)
                for k in range(min(kk, 6) + 1)
                for u in range(0, 2 * k + 1, 2)
                for j in range(u + 1)
            ],
            verify_Cj_closed_form,
        ),
    )
    yield (
        "gamma-coefficient-extraction",
        f"m<=k<={max(kk, 10)}",
        *sweep(
            [(k, m) for k in range(max(kk, 10) + 1) for m in range(k + 1)],
            verify_gamma_contour,
        ),
    )
