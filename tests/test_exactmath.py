"""Exact-arithmetic layer: binomial conventions, C(k,p) coefficients, the
bivariate polynomial ring, and the seven identity verifiers."""

import contextlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphmean import exactmath as em
from sphmean import transform as tr


# ---------------------------------------------------------------------------
# binomials and coefficient table


def test_binom_standard_basic():
    assert em.binom(5, 2) == 10
    assert em.binom(0, 0) == 1
    assert em.binom(3, 7) == 0
    assert em.binom(7, 0) == 1


def test_binom_negative_rejected_in_standard_mode():
    with pytest.raises(ValueError):
        em.binom(-1, 0)
    # out-of-range k for nonnegative n is 0, not an error
    assert em.binom(3, -2) == 0


def test_binom_half_integer():
    # C(1/2, 2) = (1/2)(-1/2)/2 = -1/8
    assert em.binom_half(1, 2) == Fraction(-1, 8)
    # C(-1/2, 0) = 1
    assert em.binom_half(-1, 0) == 1


def test_coeff_table_anchors():
    assert em.coeff_C(0, 0) == 1
    assert em.coeff_C(1, 0) == 1
    assert em.coeff_C(1, 1) == 1
    assert em.coeff_C(2, 0) == 3
    assert em.coeff_C(2, 1) == 3
    assert em.coeff_C(2, 2) == 1


def test_coeff_table_closed_form():
    for k in range(13):
        for p in range(k + 1):
            want = Fraction(
                math.factorial(2 * k - p),
                math.factorial(p) * 2 ** (k - p) * math.factorial(k - p),
            )
            assert em.coeff_C(k, p) == want


def test_coeff_top_is_double_factorial():
    # C(k, 0) = (2k-1)!!
    for k in range(10):
        dfact = 1
        for i in range(1, 2 * k, 2):
            dfact *= i
        assert em.coeff_C(k, 0) == dfact


# ---------------------------------------------------------------------------
# polynomial ring


def test_bipoly_constructors_and_eval():
    t, u = em.BiPoly.t(), em.BiPoly.u()
    p = (t + u) ** 2 - (t - u) ** 2
    assert p == 4 * t * u
    assert p.eval(1.5, 2.0) == pytest.approx(12.0)


def test_bipoly_subs_affine():
    t = em.BiPoly.t()
    p = t * t
    q = p.subs_t_affine(Fraction(2), Fraction(-1))  # t -> 2 - t
    assert q.eval(0.5, 0.0) == pytest.approx(2.25)


st_small = st.integers(min_value=-3, max_value=3)


def _rand_poly(coeffs):
    t, u = em.BiPoly.t(), em.BiPoly.u()
    basis = [em.BiPoly.const(1), t, u, t * u, t * t, u * u]
    acc = em.BiPoly.const(0)
    for c, b in zip(coeffs, basis):
        acc = acc + c * b
    return acc


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st_small, min_size=6, max_size=6),
    st.lists(st_small, min_size=6, max_size=6),
    st.lists(st_small, min_size=6, max_size=6),
)
def test_bipoly_ring_laws(ca, cb, cc):
    a, b, c = _rand_poly(ca), _rand_poly(cb), _rand_poly(cc)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(st.lists(st_small, min_size=6, max_size=6), st.lists(st_small, min_size=6, max_size=6))
def test_formal_D_is_a_derivation(ca, cb):
    # D is (1/t) d/dt, defined for polynomials even in t; build even inputs
    t, u = em.BiPoly.t(), em.BiPoly.u()
    basis = [em.BiPoly.const(1), t * t, u, t * t * u, u * u, t ** 4]
    a = sum((c * b for c, b in zip(ca, basis)), em.BiPoly.const(0))
    b = sum((c * b for c, b in zip(cb, basis)), em.BiPoly.const(0))
    assert em.formal_D(a * b) == em.formal_D(a) * b + a * em.formal_D(b)


def test_formal_D_rejects_odd_powers():
    t = em.BiPoly.t()
    with pytest.raises(ValueError):
        em.formal_D(t)


def test_q_kernel_polynomial_facts():
    q = em.q_poly()
    tt, uu = 0.9, 1.3
    factored = ((1 + tt) ** 2 - uu ** 2) * (uu ** 2 - (1 - tt) ** 2)
    assert q.eval(tt, uu) == pytest.approx(factored, rel=1e-14)
    # symmetry in t <-> u
    assert q.eval(0.6, 1.1) == pytest.approx(q.eval(1.1, 0.6), rel=1e-14)
    # D-chain: DQ = 4(u^2 + 1 - t^2), D^2 Q = -8, D^3 Q = 0
    t, u = em.BiPoly.t(), em.BiPoly.u()
    dq = em.formal_D(q)
    assert dq == 4 * (u * u + em.BiPoly.const(1) - t * t)
    d2q = em.formal_D(dq)
    assert d2q == em.BiPoly.const(-8)
    assert em.formal_D(d2q).is_zero()


def test_dp_q_power_consistency():
    # dp_q_power(power, p) must equal p-fold formal_D of Q^power
    for power in range(4):
        q = em.q_poly() ** power
        cur = q
        for p in range(4):
            assert em.dp_q_power(power, p) == cur
            cur = em.formal_D(cur)


# ---------------------------------------------------------------------------
# exact coefficients: ints, with a Fraction only where a value is not integral


def _ref(pairs):
    """Fraction-only reference polynomial: {(i, j): Fraction}, no zero terms."""
    return {key: Fraction(c) for key, c in pairs if c}


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return _ref(out.items())


def _ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _ref(out.items())


def _ref_pow(a, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_subs(a, x, y):
    """t -> x + y t."""
    out = {}
    for (i, j), c in a.items():
        for r in range(i + 1):
            term = c * math.comb(i, r) * Fraction(x) ** (i - r) * Fraction(y) ** r
            out[(r, j)] = out.get((r, j), Fraction(0)) + term
    return _ref(out.items())


def _ref_D(a):
    out = {}
    for (i, j), c in a.items():
        if i:
            out[(i - 2, j)] = out.get((i - 2, j), Fraction(0)) + c * i
    return _ref(out.items())


# integers, proper fractions, and integral Fractions such as Fraction(2, 1)
st_exact = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))
EVEN_BASIS = [(0, 0), (2, 0), (0, 1), (2, 1), (0, 2), (4, 0)]


def _ints_where_integral(poly):
    return all(type(c) is int or c.denominator != 1 for c in poly.coeffs.values())


@contextlib.contextmanager
def _counted_products():
    calls, mul = [], em.BiPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    em.BiPoly.__mul__ = counted
    try:
        yield calls
    finally:
        em.BiPoly.__mul__ = mul


@settings(max_examples=60, deadline=None)
@given(st.lists(st_exact, min_size=6, max_size=6), st.lists(st_exact, min_size=6, max_size=6),
       st.integers(0, 7), st_exact, st_exact)
def test_bipoly_matches_a_fraction_reference(ca, cb, n, x, y):
    a, b = em.BiPoly(dict(zip(EVEN_BASIS, ca))), em.BiPoly(dict(zip(EVEN_BASIS, cb)))
    ra, rb = _ref(zip(EVEN_BASIS, ca)), _ref(zip(EVEN_BASIS, cb))
    # a ** n: one product per set bit of n, one squaring per bit below the top one
    with _counted_products() as calls:
        power = a ** n
    assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") if n else 0)
    for got, want in ((a, ra),
                      (a + b, _ref_add(ra, rb)),
                      (a - b, _ref_add(ra, {key: -c for key, c in rb.items()})),
                      (a * b, _ref_mul(ra, rb)),
                      (power, _ref_pow(ra, n)),
                      (a.subs_t_affine(x, y), _ref_subs(ra, x, y)),
                      (em.formal_D(a * b), _ref_D(_ref_mul(ra, rb)))):
        assert got.coeffs == want
        assert _ints_where_integral(got)


def test_integral_coefficients_are_stored_as_ints():
    assert type(em.coeff_C(6, 2)) is int
    for power in range(5):
        for p in range(power + 1):
            assert all(type(c) is int for c in em.dp_q_power(power, p).coeffs.values())
    poly = em.BiPoly({(2, 0): Fraction(6, 3), (0, 1): Fraction(1, 2), (0, 2): 2.0})
    assert poly.coeffs == {(2, 0): 2, (0, 1): Fraction(1, 2), (0, 2): 2}
    assert _ints_where_integral(poly)


def test_eq_and_hash_agree_across_int_and_integral_fraction():
    a = em.BiPoly({(2, 0): Fraction(4, 2), (0, 1): Fraction(1, 3)})
    b = em.BiPoly({(2, 0): 2, (0, 1): Fraction(1, 3)})
    assert a == b and hash(a) == hash(b)
    assert em.BiPoly.const(Fraction(-5, 1)) == em.BiPoly.const(-5)
    assert hash(em.BiPoly.const(Fraction(-5, 1))) == hash(em.BiPoly.const(-5))
    assert len({a, b, em.BiPoly.const(Fraction(-5, 1)), em.BiPoly.const(-5)}) == 2


def test_factored_kernel_equals_the_exact_polynomial():
    # the factored kernel of the forward transform, evaluated in exact
    # rational arithmetic, equals D^p Q^power, on and off the integration
    # range (t = 1, u = 0 and t > 1 + u included)
    points = [(Fraction(t), Fraction(u)) for t in ("1/3", "1", "5/4", "19/10")
              for u in ("0", "2/7", "1/2", "9/10")]
    for power in range(9):
        for p in range(power + 1):
            terms = em.dp_q_power(power, p).terms()
            for t, u in points:
                want = sum(c * t ** i * u ** j for i, j, c in terms)
                assert tr._dp_q_kernels(power, (p,), t, u)[0] == want, (power, p, t, u)


# ---------------------------------------------------------------------------
# identity verifiers (exact, over rational arithmetic)


def test_alternating_vandermonde_anchor():
    # k=2, l=1, s=0 case evaluates to -2
    assert em.verify_lemma35a(2, 1, 0)


def test_alternating_vandermonde_sweep():
    for k in range(13):
        for l in range(k + 1):
            for s in range(l + 1):
                assert em.verify_lemma35a(k, l, s)


def test_ab_collapse_sweep():
    for l in range(15):
        assert em.verify_lemma35b(l)


def test_abel_convolution_anchor_and_sweep():
    assert em.verify_abel_aigner(2, 0, 0)
    for p in range(1, 13):
        for r in range(p):
            for s in range(p - r):
                assert em.verify_abel_aigner(p, r, s)


def test_necessity_cancellation_sweep():
    for k in range(9):
        assert em.verify_necessity_identity(k)


def test_dp_expansion_sweep():
    for k in range(7):
        for p in range(k + 1):
            assert em.verify_dp_expansion(k, p)


def test_cj_closed_form_even_orders():
    # anchor: k=1, u=2, j=1 gives 8 on both sides
    assert em.cj_double_sum(1, 2, 1) == 8
    assert em.cj_closed_form(1, 2, 1) == 8
    for k in range(7):
        for u in range(0, 2 * k + 1, 2):
            for j in range(u + 1):
                assert em.verify_Cj_closed_form(k, u, j)


def test_cj_rejects_odd_u():
    with pytest.raises(ValueError):
        em.verify_Cj_closed_form(1, 1, 0)


def test_gamma_extraction_anchor_and_sweep():
    assert em.verify_gamma_contour(1, 0)
    for k in range(11):
        for m in range(k + 1):
            if em.binom(2 * k - m, m) != 0:
                assert em.verify_gamma_contour(k, m)


def test_identity_sweeps_all_pass():
    results = list(em.identity_sweeps(max_k=8))
    names = {r[0] for r in results}
    assert names == {
        "alternating-vandermonde",
        "alternating-AB-collapse",
        "abel-aigner-convolution",
        "range-necessity-cancellation",
        "dp-kernel-expansion",
        "cj-closed-form",
        "gamma-coefficient-extraction",
    }
    for name, desc, ok, witness in results:
        assert ok, f"{name} failed at {witness}"
