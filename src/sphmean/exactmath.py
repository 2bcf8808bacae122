"""Exact rational combinatorics and polynomial identities.

Everything in this module is computed exactly, over Python ints; stdlib
``fractions.Fraction`` carries only three values that are not integers:
`binom_half`'s, both sides of `verify_gamma_contour`, and the one division
that ends `cj_double_sum` (its terms are summed as ints over the lcm of their
denominators).  There is no floating point anywhere.  The verifiers at the
bottom check, term by term, the combinatorial identities that underpin the
range characterization: each one builds both sides of an identity
independently and compares exactly, so a ``True`` is a proof for the given
parameters, not an approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# binomials


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0, zero when k < 0 or k > n;
    negative n is an error, not a guess."""
    if n < 0:
        raise ValueError(f"binomial ({n}, {k}) undefined for negative n")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_half(m2: int, k: int) -> Fraction:
    """Generalized binomial C(m - 1/2, k) where m2 = 2m - 1 (so the top is m2/2)."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(m2 - 2 * i, 2)
    return num / math.factorial(k)


@lru_cache(maxsize=None)
def coeff_C(k: int, p: int) -> int:
    """Range-operator coefficient C(k,p) = (2k-p)! / (p! 2^(k-p) (k-p)!).

    These are the coefficients of (1-t)^p D^p in the order-k range operator;
    always a positive integer, returned as an int.
    """
    if not 0 <= p <= k:
        raise ValueError(f"coeff_C requires 0 <= p <= k, got k={k}, p={p}")
    return math.factorial(2 * k - p) // (
        math.factorial(p) * 2 ** (k - p) * math.factorial(k - p))


# ---------------------------------------------------------------------------
# exact bivariate polynomials


class BiPoly:
    """Bivariate polynomial in (t, u) over the ints, sparse monomial map.

    Coefficients are stored as given, zero terms dropped; every kernel and
    sweep here builds them from ints, so they stay ints.

    The two variables are purely positional; the same class doubles as the
    (A, B) ring for the alternating-sum identity below.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[tuple[int, int], int] = {
            key: c for key, c in (coeffs or {}).items() if c}

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
        out = dict(self.coeffs)
        for key, c in _as_poly(other).coeffs.items():
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other) -> "BiPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "BiPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "BiPoly":
        if type(other) is int:
            return BiPoly({key: c * other for key, c in self.coeffs.items()})
        other = list(_as_poly(other).coeffs.items())
        out: dict[tuple[int, int], int] = {}
        get = out.get
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other:
                key = (i1 + i2, j1 + j2)
                out[key] = get(key, 0) + c1 * c2
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
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- substitution and evaluation
    def subs_t_affine(self, a, b) -> "BiPoly":
        """Substitute t -> a + b*t, expanding exactly: one row of
        C(i,r) a^(i-r) b^r per t-degree i, summed into one column per u-degree."""
        rows, cols = {}, {}
        for (i, j), c in self.coeffs.items():
            if i not in rows:
                rows[i] = [math.comb(i, r) * a ** (i - r) * b**r for r in range(i + 1)]
            col = cols.setdefault(j, [])
            col.extend([0] * (i + 1 - len(col)))
            for r, w in enumerate(rows[i]):
                col[r] += c * w
        return BiPoly({(r, j): v for j, col in cols.items() for r, v in enumerate(col)})

    def eval(self, tval, uval):
        """Numeric evaluation (floats in, float out), for tests."""
        return sum(float(c) * tval**i * uval**j for (i, j), c in self.coeffs.items())

    def terms(self):
        """Sorted (i, j, coefficient) triples, in a stable order."""
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
    out: dict[tuple[int, int], int] = {}
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
def _power(base: str, n: int) -> BiPoly:
    """Q^n, (1-t)^n or R^n for base "Q", "1-t" or "R", exact and cached; each
    power is the one below times the base.  R = Q(2-t) - Q(t) + 16(1-t)^2 is
    the reflection difference of verify_dp_expansion."""
    if n != 1:
        return _power(base, n - 1) * _power(base, 1) if n else BiPoly.const(1)
    if base == "R":
        return q_poly().subs_t_affine(2, -1) - q_poly() + 16 * _power("1-t", 2)
    return q_poly() if base == "Q" else BiPoly({(0, 0): 1, (1, 0): -1})


@lru_cache(maxsize=None)
def dp_q_power(power: int, p: int) -> BiPoly:
    """D^p (Q^power), exact and cached: the oracle of the sweeps and tests."""
    if p == 0:
        return _power("Q", power)
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
    diff, power = BiPoly.t() - BiPoly.u(), BiPoly.const(1)  # power = (A-B)^s
    total = BiPoly()
    for s in range(l + 1):
        if s:
            power = power * diff
        c = (-1) ** s * binom(2 * l - s, l) * binom(l, s)
        total = total + power * (BiPoly.t(l - s) - (-1) ** s * BiPoly.u(l - s)) * c
    return total.is_zero()


def verify_abel_aigner(p: int, r: int, s: int) -> bool:
    """Convolution identity with a 1/(p-m) weight:
    sum_{m=r}^{p-1-s} C(2m-r, m-r) C(2(p-1-m)-s, p-1-m-s) / (p-m)
        == C(2p-r-s-1, p) / (s+1).

    Both sides are compared times lcm(1..p), which clears every denominator.
    """
    if p < 1 or r < 0 or s < 0 or r + s > p - 1:
        raise ValueError("need p >= 1, r, s >= 0, r + s <= p - 1")
    scale = math.lcm(*range(1, p + 1))
    lhs = sum(binom(2 * m - r, m - r) * binom(2 * (p - 1 - m) - s, p - 1 - m - s)
              * (scale // (p - m)) for m in range(r, p - s))
    return lhs == binom(2 * p - r - s - 1, p) * (scale // (s + 1))


def verify_necessity_identity(k: int) -> bool:
    """The kernel cancellation behind range necessity: the order-k range
    operator L_k = sum_p C(k,p) (1-t)^p D^p maps Q^k(., u) to a function
    symmetric about t = 1,

        F(t) = sum_p C(k,p) (1-t)^p [D^p Q^k](t,u) == F(2-t).

    F is built once, by Horner's rule in (1-t), and reflected once.  Each
    Horner step F (1-t) + C(k,p) D^p Q^k is one pass over F's terms.
    F(t) - F(2-t) is, term by term, sum_p C(k,p) (1-t)^p ([D^p Q^k](t,u)
    + (-1)^(p+1) [D^p Q^k](2-t,u)).
    """
    if k < 0:
        raise ValueError("k >= 0")
    terms: dict[tuple[int, int], int] = {}
    for p in range(k, -1, -1):
        c = coeff_C(k, p)
        step = {key: v * c for key, v in dp_q_power(k, p).coeffs.items()}
        get = step.get
        for (i, j), v in terms.items():
            step[i, j] = get((i, j), 0) + v
            step[i + 1, j] = get((i + 1, j), 0) - v
        terms = step
    F = BiPoly(terms)
    return F == F.subs_t_affine(2, -1)


def verify_dp_expansion(k: int, p: int) -> bool:
    """Closed-form expansion of D^p (Q^k) in powers of Q, the reflection
    difference R = Q(2-t) - Q(t) + 16(1-t)^2, and (1-t):

    D^p Q^k == sum_{q >= p/2}^{p} K(p,q) (1-t)^(p-2q) Q^(k-q) R^(2q-p),
    K(p,q) = k! p! (-4)^(p-q) / ((k-q)! (2q-p)! (p-q)! 2^(2q-p)).

    Compared after multiplying both sides by (1-t)^p, to clear the negative
    powers, and by 2^p, which makes every weight an integer
    (`_expansion_weight`).  The powers of Q, R and (1-t) are exact, so each
    is built once and shared.  Q^(k-q) = Q^(p-q) Q^(k-p), so the common
    Q^(k-p) multiplies the q-sum once.
    """
    if not 0 <= p <= k:
        raise ValueError("need 0 <= p <= k")
    lhs = dp_q_power(k, p) * _power("1-t", p) * 2**p
    rhs = BiPoly()
    for q in range((p + 1) // 2, p + 1):
        rhs = rhs + (_power("1-t", 2 * (p - q)) * _power("Q", p - q)
                     * _power("R", 2 * q - p)) * _expansion_weight(k, p, q)
    return lhs == rhs * _power("Q", k - p)


def _expansion_weight(k: int, p: int, q: int) -> int:
    """K(p,q) 2^p = (-16)^(p-q) perm(k,q) perm(p,p-q) C(q,p-q), an int."""
    return (-16) ** (p - q) * math.perm(k, q) * math.perm(p, p - q) * math.comb(q, p - q)


def cj_double_sum(k: int, u: int, j: int) -> Fraction:
    """The defining double sum for the coefficient C(j) (exact), for u <= 2k:
    sum_m sum_{q<=m} (-1)^(q+m) 4^q C(u-2q, j-q) C(u,2m) C(m,q) C(2m,m)
    C(2k-m,k) C(2k-q,k) / C(2k-m,m).  It is summed over ints times the lcm
    of the denominators, and divided by it once.  u > 2k is refused: from
    u = 2k + 2 some C(2k-m, m) is 0."""
    if u > 2 * k:
        raise ValueError(f"the C(j) double sum needs u <= 2k, got k={k}, u={u}")
    dens = [binom(2 * k - m, m) for m in range(u // 2 + 1)]
    scale = math.lcm(*dens)
    total = 0
    for m, den in enumerate(dens):
        inner = sum((-4) ** q * binom(u - 2 * q, j - q) * binom(m, q) * binom(2 * k - q, k)
                    for q in range(m + 1))
        total += ((-1) ** m * binom(u, 2 * m) * binom(2 * m, m) * binom(2 * k - m, k)
                  * inner * (scale // den))
    return Fraction(total, scale)


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
    Each sweep's parameters are generated only when it runs.
    """
    k12, k6, k10 = max(max_k, 12), min(max_k, 6), max(max_k, 10)
    table = (
        ("alternating-vandermonde", f"0<=s<=l<=k<={k12}", verify_lemma35a,
         ((k, l, s) for k in range(k12 + 1) for l in range(k + 1) for s in range(l + 1))),
        ("alternating-AB-collapse", "l<=14", verify_lemma35b, ((l,) for l in range(15))),
        ("abel-aigner-convolution", "p<=12, r+s<=p-1", verify_abel_aigner,
         ((p, r, s) for p in range(1, 13) for r in range(p) for s in range(p - r))),
        ("range-necessity-cancellation", f"k<={max_k}", verify_necessity_identity,
         ((k,) for k in range(max_k + 1))),
        ("dp-kernel-expansion", f"p<=k<={k6}", verify_dp_expansion,
         ((k, p) for k in range(k6 + 1) for p in range(k + 1))),
        ("cj-closed-form", f"even u<=2k, k<={k6}", verify_Cj_closed_form,
         ((k, u, j) for k in range(k6 + 1) for u in range(0, 2 * k + 1, 2)
          for j in range(u + 1))),
        ("gamma-coefficient-extraction", f"m<=k<={k10}", verify_gamma_contour,
         ((k, m) for k in range(k10 + 1) for m in range(k + 1))),
    )
    for name, desc, verify, params in table:
        witness = next((args for args in params if not verify(*args)), None)
        yield name, desc, witness is None, witness
