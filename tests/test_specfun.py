"""Special functions: Bessel values against frozen high-precision references,
jet arithmetic, the D^p coefficient table, closed-form kernels, and zeros."""

import decimal
import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from mpmath import mp

from sphmean import exactmath as em
from sphmean import specfun as sf

from _oracles import (DenseJet, d_operator, dp_inv_poly, dp_sinc_series, gegenbauer,
                      gegenbauer_at_one)
from _reference import REFERENCE as REF


def relerr(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_every_integral_coefficient_is_an_int():
    # C(k,p) of L_k, the D^p(sin x/x) closed-form rows and D^p Q^k are
    # built as ints: none is a Fraction or a float
    for k in range(61):
        for p in range(k + 1):
            den = math.factorial(p) * 2 ** (k - p) * math.factorial(k - p)
            assert math.factorial(2 * k - p) % den == 0
            assert type(em.coeff_C(k, p)) is int
    for p in range(61):
        assert all(type(c) is int for row in sf._trig_coeffs(p) for c in row)
    for k in range(9):
        for p in range(k + 1):
            assert all(type(c) is int for c in em.dp_q_power(k, p).coeffs.values())


# ---------------------------------------------------------------------------
# jets


def test_jet_variable_and_polynomial():
    x = sf.Jet.variable(2.0, 3)
    p = x * x * x - 2 * x + 5
    assert p.derivs[0] == pytest.approx(9.0)
    assert p.derivs[1] == pytest.approx(10.0)
    assert p.derivs[2] == pytest.approx(12.0)
    assert p.derivs[3] == pytest.approx(6.0)


def test_jet_sin_over_x_matches_reference():
    t = sf.Jet.variable(1.7, 4)
    s = t.sin_cos()[0] / t
    for i, want in enumerate(REF["sinc_derivs_t1_7"]):
        assert relerr(s.derivs[i], want) < 1e-13


def test_jet_bump_derivatives_match_reference():
    c, w = 0.55, 0.25
    r = sf.Jet.variable(0.62, 6)
    y = (r - c) * (1.0 / w)
    b = ((-1.0) / (1 - y * y)).exp()
    for i, want in enumerate(REF["bump_derivs_r0_62"]):
        assert relerr(b.derivs[i], want) < 1e-11


def test_jet_quotient_rule_consistency():
    x = sf.Jet.variable(0.8, 5)
    sin, cos = x.sin_cos()
    num = sin + x * x
    den = cos + 2.0
    q = num / den
    back = q * den
    for a, b in zip(back.derivs, num.derivs):
        assert relerr(a, b) < 1e-13


def test_jet_exp_of_sum_is_product():
    x = sf.Jet.variable(0.3, 5)
    a = (x * 1.7).exp() * (x * (-0.4)).exp()
    b = (x * 1.3).exp()
    for u, v in zip(a.derivs, b.derivs):
        assert relerr(u, v) < 1e-13


def test_jet_array_components_broadcast():
    xs = np.array([0.5, 1.0, 2.5])
    j = sf.Jet.variable(xs, 3)
    s = j.sin_cos()[0] / j
    for i in range(4):
        col = np.array([(sf.Jet.variable(float(v), 3).sin_cos()[0] / sf.Jet.variable(float(v), 3)).derivs[i] for v in xs])
        assert np.max(np.abs(s.derivs[i] - col)) < 1e-14


def test_jet_mpmath_components():
    # Decimal jets at 40 digits against float jets, and against mpmath jets
    # (the dense oracle) at twice the digits
    with sf.decimal_context(40):
        x = sf.Jet.variable(Decimal("0.3"), 4)
        s = x.sin_cos()[0] / x * x.exp()
    t = sf.Jet.variable(0.3, 4)
    sd = t.sin_cos()[0] / t * t.exp()
    with mp.workdps(80):
        xm = DenseJet.variable(mp.mpf("0.3"), 4)
        sm = xm.sin_cos()[0] / xm * xm.exp()
        for a, b, c in zip(s.derivs, sd.derivs, sm.derivs):
            assert relerr(float(a), b) < 1e-12
            assert abs(mp.mpf(str(a)) - c) <= mp.mpf(10) ** -36 * abs(c)


def _leibniz(a, b):
    """The plain Leibniz sum of C(j, i) a_i b_(j-i), term i = 0 first."""
    out = []
    for j in range(len(a)):
        acc = math.comb(j, 0) * a[0] * b[j]
        for i in range(1, j + 1):
            acc = acc + math.comb(j, i) * a[i] * b[j - i]
        out.append(acc)
    return out


def _bits(v):
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.tobytes()
    # a Decimal's exponent is not part of its value: 1.50 == 1.5
    return (v.is_signed(), v) if isinstance(v, Decimal) else float(v).hex()


def test_jet_product_is_the_plain_leibniz_sum_bit_for_bit():
    rng = np.random.default_rng(3)
    signed = [-0.0, 1.5, -0.0, -2.25, 0.0, 1e-300, -3.0]  # a0 * b0 = -0.0
    cases = [(signed, [2.0, -0.0, 0.7, -0.0, 5.5, -1e-10, 0.0]),
             (list(rng.standard_normal(7)), list(rng.standard_normal(7))),
             ([np.array(signed) * s for s in rng.standard_normal(7)],
              [rng.standard_normal(7) for _ in range(7)])]
    with sf.decimal_context(30):
        cases.append(([Decimal(v) / 3 for v in signed], [Decimal(v) / 7 for v in range(-3, 4)]))
        for a, b in cases:
            got = (sf.Jet(0.5, a) * sf.Jet(0.5, b)).derivs
            assert [_bits(v) for v in got] == [_bits(v) for v in _leibniz(a, b)]
    assert float((sf.Jet(0.5, signed) * sf.Jet(0.5, signed)).derivs[0]).hex() == "0x0.0p+0"
    assert float((sf.Jet(0.5, signed) * sf.Jet(0.5, [1.0] * 7)).derivs[0]).hex() == "-0x0.0p+0"


def _float_array_jets():
    rng = np.random.default_rng(5)
    return (sf.Jet(0.5, [rng.standard_normal(4) for _ in range(6)]),
            sf.Jet(0.5, [rng.standard_normal(4) for _ in range(6)]))


def _decimal_jets():
    return (sf.Jet(Decimal(1), [Decimal(v) / 3 for v in (-2, 0, 5, -7, 1, 4)]),
            sf.Jet(Decimal(1), [Decimal(v) / 7 for v in (3, -1, 0, 2, -6, 9)]))


def _constant_times_full():
    return sf.Jet.constant(-1.75, 0.5, 5), sf.Jet(0.5, [1.5, -0.0, 0.25, -3.0, 2.0, 1e-200])


def _top_below_order():
    # tops 1 and 2 at order 6: the product's top is 3, and its entries 4..6
    # are one zero
    x = sf.Jet.variable(np.array([0.3, -0.7]), 6)
    return x, (x * x - 2.0 * x + 0.5)


@pytest.mark.parametrize("make", [_float_array_jets, _decimal_jets, _constant_times_full,
                                  _top_below_order])
def test_leibniz_entry_is_entry_j_of_the_product_bit_for_bit(make):
    with sf.decimal_context(30):
        x, y = make()
        product = x * y
        for j in range(x.order + 1):
            got = sf._leibniz_entry(x.derivs, y.derivs, x.top, y.top, j)
            assert _bits(got) == _bits(product.derivs[j]), j
    if make is _top_below_order:
        assert (x.top, y.top, product.top, product.order) == (1, 2, 3, 6)
    if make is _constant_times_full:
        assert x.top == 0


def test_jet_horner_is_horner_on_full_products_bit_for_bit():
    # Horner's rule from the leading coefficient, where each partial sum has
    # the top of x's powers and a product by a linear x takes two terms per
    # entry; the reference: from a zero jet, each step a full product
    def leading(coeffs, x):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    def horner(coeffs, x):
        acc = x._wrap(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    rng = np.random.default_rng(11)
    t = np.concatenate([rng.uniform(-3.0, 3.0, 40), [0.0, -1.0, -2.0, 1e-300]])
    with sf.decimal_context(30):
        for k in range(13):
            for base, lam in ((t, rng.uniform(0.5, 20.0, t.size)), (-2.5, 7.25),
                              (Decimal(-2.5), Decimal(7.25))):
                x = (sf.Jet.variable(base, k) + 1) * lam
                for coeffs in sf._trig_coeffs(k):
                    got = x._wrap(leading(coeffs, x)).derivs
                    assert [_bits(v) for v in got] == [_bits(v) for v in horner(coeffs, x).derivs]


def _assert_dense_bits(got, want) -> int:
    """Every entry that the dense loops give as nonzero has their bits; every
    other entry, and every entry above `got.top`, is zero of either sign.
    Returns the number of entries compared."""
    assert got.order == want.order
    count = 0
    for j, (g, w) in enumerate(zip(got.derivs, want.derivs)):
        if j > got.top:
            assert np.all(w == 0) and np.all(g == 0), j
        if isinstance(w, Decimal):
            assert g == 0 if w == 0 else _bits(g) == _bits(w), j
            count += 1
            continue
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        nonzero = w != 0
        assert g.shape == w.shape and np.all(g[~nonzero] == 0), j
        assert np.array_equal(g[nonzero].view(np.int64), w[nonzero].view(np.int64)), j
        count += w.size
    return count


def _finite(jet) -> bool:
    return all(v.is_finite() if isinstance(v, Decimal) else np.all(np.isfinite(v))
               for v in jet.derivs)


_SCALARS = (2.0, -0.5, 0.0, -0.0, 1e-300, 3, -1.25, 7.5)
_DIVISORS = (2.0, -0.5, 1e-300, 3, -1.25)
_STEPS = {
    "affine": lambda v, w, a, b, n, d: v * a + b,
    "rsub": lambda v, w, a, b, n, d: b - v,
    "neg": lambda v, w, a, b, n, d: -v,
    "add": lambda v, w, a, b, n, d: v + w,
    "sub": lambda v, w, a, b, n, d: v - w,
    "mul": lambda v, w, a, b, n, d: v * w,
    "div": lambda v, w, a, b, n, d: v / w,
    "rdiv": lambda v, w, a, b, n, d: b / v,
    "sdiv": lambda v, w, a, b, n, d: v / d,
    "pow": lambda v, w, a, b, n, d: v ** (n % 7 - 2),
    "exp": lambda v, w, a, b, n, d: v.exp(),
    "sin": lambda v, w, a, b, n, d: v.sin_cos()[0],
    "cos": lambda v, w, a, b, n, d: v.sin_cos()[1],
}


def _run_program(program, jet_type, x, order, scalar):
    """Apply the steps to the variable jet at x, each to earlier results;
    a step that raises is recorded as its exception type."""
    vals, outcomes = [jet_type.variable(x, order)], []
    for name, i, j, a, b, n in program:
        v, w = vals[i % len(vals)], vals[j % len(vals)]
        a, b = scalar(_SCALARS[a % len(_SCALARS)]), scalar(_SCALARS[b % len(_SCALARS)])
        try:
            out = _STEPS[name](v, w, a, b, n, scalar(_DIVISORS[n % len(_DIVISORS)]))
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            outcomes.append(type(exc))
            continue
        vals.append(out)
        outcomes.append(out)
    return outcomes


def test_jet_algebra_keeps_the_dense_bits():
    # random compositions, orders 0-12, on float arrays with signed zeros,
    # a tiny value and negative bases, on Python floats and on Decimals
    rng = np.random.default_rng(2024)
    bases = np.array([0.0, -0.0, 1e-300, -1.5, 0.7, -3.0, 2.25, 0.3])
    compared = 0
    with sf.decimal_context(30), np.errstate(all="ignore"):
        for order in range(13):
            for _ in range(8):
                program = [(str(rng.choice(sorted(_STEPS))), *rng.integers(0, 64, 5).tolist())
                           for _ in range(12)]
                point = float(rng.choice(bases))
                for x, scalar in ((bases, float), (point, float),
                                  (Decimal(point) + Decimal("0.125"), Decimal)):
                    got = _run_program(program, sf.Jet, x, order, scalar)
                    want = _run_program(program, DenseJet, x, order, scalar)
                    for g, w in zip(got, want):
                        if isinstance(w, type):
                            assert g is w
                        elif _finite(w):
                            compared += _assert_dense_bits(g, w)
    assert compared > 50000, compared


def test_jet_top_follows_the_algebra():
    x = sf.Jet.variable(0.7, 6)
    c = x._wrap(2.0)
    tops = {"variable": x.top, "constant": c.top, "scaled": (x * 3).top,
            "sum": (x + c).top, "square": (x * x).top, "cubic": (x * x * x - x).top,
            "over a constant": (x * x / c).top, "by inf": (x * float("inf")).top,
            "quotient": (x / (x + 1)).top, "exp of a constant": c.exp().top,
            "exp": x.exp().top, "cos of a constant": c.sin_cos()[1].top}
    assert tops == {"variable": 1, "constant": 0, "scaled": 1, "sum": 1, "square": 2,
                    "cubic": 3, "over a constant": 2, "by inf": 6, "quotient": 6,
                    "exp of a constant": 0, "exp": 6, "cos of a constant": 0}


def test_jet_power_makes_only_the_needed_products(monkeypatch):
    # one product per set bit of n, one squaring per bit below the top one
    calls, mul = [], sf.Jet.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(sf.Jet, "__mul__", counted)
    x = sf.Jet.variable(1.3, 4)
    for n in range(-9, 20):
        calls.clear()
        power = x ** n
        m = abs(n)
        assert len(calls) == (m.bit_length() - 1 + bin(m).count("1") if m else 0)
        assert power.derivs[0] == pytest.approx(1.3 ** n, rel=1e-14)


def test_jet_division_by_zero_value_raises():
    x = sf.Jet.variable(0.0, 2)
    with pytest.raises(ZeroDivisionError):
        (x + 1.0) / x


# ---------------------------------------------------------------------------
# the Decimal layer, against mpmath at twice the digits


def _sin_cos_points():
    """0, +-1e-30, the floats next to multiples of pi/2 (on either side),
    arguments up to 1e4, and the largest floats."""
    rng = np.random.default_rng(17)
    with mp.workdps(60):
        near = [float(mp.pi * k / 2) for k in (1, 2, 3, 4, 5, 7, 100, 6366)]
    near += [math.nextafter(v, math.inf) for v in near] + [math.nextafter(v, 0) for v in near]
    wide = [0.37, 13.7, 1e4, *rng.uniform(-1e4, 1e4, 8).tolist(), 1e300, 1.7e308]
    return [0.0, 1e-30, -1e-30, *near, *(-v for v in near), *wide]


@pytest.mark.parametrize("prec", [20, 40, 80, 120, 200])
def test_decimal_sin_cos_against_mpmath(prec):
    for x in _sin_cos_points():
        with sf.decimal_context(prec):
            got = sf.decimal_sin_cos(Decimal(x))
        with mp.workdps(2 * prec):
            want = mp.sin(mp.mpf(x)), mp.cos(mp.mpf(x))
            for g, w in zip(got, want):
                assert len(g.as_tuple().digits) <= prec, (x, g)
                assert abs(mp.mpf(str(g)) - w) <= mp.mpf(10) ** (1 - prec) * abs(w), (x, g, w)


def test_decimal_sin_cos_edges():
    with sf.decimal_context(40):
        assert sf.decimal_sin_cos(Decimal(0)) == (0, 1)
        assert all(v.is_nan() for v in sf.decimal_sin_cos(Decimal("NaN")))
        assert all(v.is_nan() for v in sf.decimal_sin_cos(Decimal("-Infinity")))
    # 1e300 at 300 digits would need 620 digits of pi: refused, not guessed
    with sf.decimal_context(300), pytest.raises(ValueError, match="digits of pi"):
        sf.decimal_sin_cos(Decimal(1e300))


def test_stored_pi_digits():
    assert len(sf._PI_DIGITS) == 601
    with mp.workdps(1200):
        assert abs(mp.mpf(sf._PI_DIGITS) - mp.pi) < mp.mpf(10) ** -599


def test_decimal_context_ignores_the_callers_context():
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.Emax = 5, decimal.ROUND_FLOOR, 10
        for trap in (decimal.InvalidOperation, decimal.Inexact, decimal.FloatOperation):
            ctx.traps[trap] = True
        assert float(sf.dp_trig_mp(10, 0.3, "sin", 60)).hex() == "0x1.3f3faa1756566p-34"
        with sf.decimal_context(30):
            assert decimal.getcontext().prec == 30
            assert decimal.getcontext().rounding == decimal.ROUND_HALF_EVEN
            assert not any(decimal.getcontext().traps.values())
            assert sf.decimal_sin_cos(Decimal("NaN"))[0].is_nan()


# a grid of small and moderate x: at 2,333 of its points with p <= 12 the
# float closed form cancels more than 4 digits
_CANCELLING_XS = np.concatenate([np.geomspace(0.01, 40.0, 300), [0.3, 0.5, 1e-3, 3.0, 7.5]])


def _closed_form_cancels(p, x, kind):
    """Whether the float closed form at x loses more than 4 digits: its
    summed term magnitude exceeds 1e4 times its value."""
    sx, cx = math.sin(x), math.cos(x)
    acc = mag = 0.0
    xp = 1
    for s, c in zip(*sf._kind_coeffs(p, kind)):
        term = (s * sx + c * cx) * xp
        acc, mag, xp = acc + term, mag + abs(term), xp * x
    return mag > 1e4 * abs(acc)


def test_where_the_closed_form_cancels_the_kernels_keep_their_digits():
    # these points took the Decimal redo of the closed form; the recurrence
    # is within 1e-14 relative of 300 digits there (worst 8.5e-16)
    points = [(p, x, kind) for p in range(13) for kind in ("sin", "cos")
              for x in _CANCELLING_XS.tolist() if _closed_form_cancels(p, x, kind)]
    assert len(points) == 2333
    for p, x, kind in points:
        got = (sf.dp_sinc if kind == "sin" else sf.dp_cosc)(p, x)
        want = sf.dp_trig_mp(p, Decimal(x), kind, 300)
        assert abs(Decimal(got) - want) <= Decimal("1e-14") * abs(want), (p, x, kind)


def _closed_form_mp(p, x, kind):
    """dp_sinc/dp_cosc and its summed term magnitude in mpmath."""
    cs, cc = sf._kind_coeffs(p, kind)
    xm = mp.mpf(x)
    terms = [(s * mp.sin(xm) + c * mp.cos(xm)) * xm ** l for l, (s, c) in enumerate(zip(cs, cc))]
    scale = xm ** -(2 * p + 1)
    return mp.fsum(terms) * scale, mp.fsum(abs(t) for t in terms) * abs(scale)


@pytest.mark.parametrize("dps", [30, 60, 120])
def test_dp_trig_mp_against_mpmath(dps):
    for p, x, kind in ((10, 0.3, "sin"), (7, 0.5, "cos"), (3, 0.5, "sin"), (12, 0.01, "cos"),
                       (6, 0.05, "sin"), (4, 17.25, "cos"), (0, 1e4, "sin")):
        got = sf.dp_trig_mp(p, x, kind, dps)
        assert isinstance(got, Decimal) and len(got.as_tuple().digits) <= dps
        with mp.workdps(2 * dps):
            want, mag = _closed_form_mp(p, x, kind)
            assert abs(mp.mpf(str(got)) - want) <= mp.mpf(10) ** (3 - dps) * mag, (p, x, kind)


# ---------------------------------------------------------------------------
# closed-form kernels


def test_dp_sinc_reference_values():
    assert relerr(sf.dp_sinc(3, 1.7), REF["dp_sinc_p3_x1_7"]) < 1e-14
    # the closed form cancels ~30 digits here, the recurrence none
    assert relerr(sf.dp_sinc(10, 0.3), REF["dp_sinc_p10_x0_3"]) < 1e-12
    # the float closed form, 4 digits lost inside its old cancellation
    # guard, was off by 1.07e-12 here
    x = 2.2142205983092773
    assert abs(sf.dp_sinc(5, x) / REF["dp_sinc_p5_x2_2142205983092773"] - 1) < 1e-14


def test_dp_cosc_reference_values():
    assert relerr(sf.dp_cosc(2, 0.9), REF["dp_cosc_p2_x0_9"]) < 1e-14
    assert relerr(sf.dp_cosc(7, 0.5), REF["dp_cosc_p7_x0_5"]) < 1e-13
    assert abs(sf.dp_cosc(60, 50.0) / REF["dp_cosc_p60_x50"] - 1) < 1e-13


def test_dp_inv_poly_reference_values():
    assert relerr(dp_inv_poly(3, 2, 0.7), REF["dp_inv_m3_d2_t0_7"]) < 1e-13
    assert relerr(dp_inv_poly(2, 5, -0.4), REF["dp_inv_m2_d5_tm0_4"]) < 1e-13


def test_dp_inv_poly_base_case():
    # m = 0, d = 0: just 1/t
    assert dp_inv_poly(0, 0, 2.0) == pytest.approx(0.5)
    # m = 1, d = 0: D(1/t) = -1/t^3
    assert dp_inv_poly(1, 0, 2.0) == pytest.approx(-1 / 8)


def test_dp_domain_errors():
    with pytest.raises(ValueError):
        sf.dp_sinc(2, 0.0)
    with pytest.raises(ValueError):
        dp_inv_poly(1, 1, 0.0)
    with pytest.raises(ValueError):
        dp_inv_poly(1, 1, -1.0)


def test_dp_sinc_where_the_power_overflows_is_the_series():
    # x^-7 overflows a float below |x| ~ 1e-44, and the closed form cancels
    # past 200 digits at 1e-35; sin x/x is entire and D^p of it tends to
    # c_p at 0, the series' value there
    for p, x, want in ((3, 1e-50, -1 / 105), (1, 1e-100, -1 / 3), (3, 1e-35, -1 / 105)):
        got = sf.dp_sinc(p, x)
        assert got == sf.raw_to_normalized(p) * sf.sph_bessel_j(p, x)
        assert got == pytest.approx(want, rel=1e-15)
        assert sf.dp_sinc(p, np.array([2.0, x]))[1] == got
    assert sf.dp_sinc(0, 5e-324) == pytest.approx(1.0, rel=1e-15)
    xs = np.array([[0.5, 1e-50], [-1e-300, 2.0]])
    got = sf.dp_sinc(3, xs)
    assert got.tolist() == [[sf.dp_sinc(3, float(v)) for v in row] for row in xs]
    # the entries whose power is a float keep the values they have without
    # the tiny ones beside them
    assert got[[0, 1], [0, 1]].tolist() == sf.dp_sinc(3, np.array([0.5, 2.0])).tolist()
    assert got[0, 1] == got[1, 0] == sf.dp_sinc(3, 1e-50)


_LARGE_K_XS = np.geomspace(0.1, 80.0, 40)


@pytest.mark.parametrize("k", [34, 40, 49, 60])
def test_dp_sinc_at_large_k_is_its_series(k):
    want = np.array([float(dp_sinc_series(k, x)) for x in _LARGE_K_XS.tolist()])
    assert np.max(np.abs(sf.dp_sinc(k, _LARGE_K_XS) / want - 1)) <= 1e-12


@pytest.mark.parametrize("k", [34, 40, 49, 60])
def test_dp_cosc_at_large_k_is_its_300_digit_value(k):
    want = np.array([float(sf.dp_trig_mp(k, x, "cos", 300)) for x in _LARGE_K_XS.tolist()])
    assert np.max(np.abs(sf.dp_cosc(k, _LARGE_K_XS) / want - 1)) <= 1e-12
    # x^-(2k+1) is no float at 1e-5: the value is not one either
    with pytest.raises(ArithmeticError, match=f"p = {k}, x = 1e-05"):
        sf.dp_cosc(k, np.array([1.0, 1e-5]))


def test_dp_cosc_where_its_value_overflows_refuses():
    # at 1e-44 the power x^-7 is a float but the value -15 x^-7 is not
    for v in (1e-44, 1e-50):
        for x in (v, np.array([1.0, v])):
            with pytest.raises(ArithmeticError, match=f"p = 3, x = {v!r}"):
                sf.dp_cosc(3, x)


def test_dp_vector_matches_scalar():
    xs = np.linspace(0.7, 30.0, 57)
    for p in (0, 2, 5):
        vec = sf.dp_sinc(p, xs)
        scal = np.array([sf.dp_sinc(p, float(x)) for x in xs])
        # bit for bit, in fact (test_array_calls_equal_scalar_calls)
        assert np.max(np.abs(vec - scal) / np.maximum(1.0, np.abs(scal))) < 1e-10


@pytest.mark.parametrize("k", range(13))
def test_array_calls_equal_scalar_calls(k):
    # every element takes its branch of the sweep from its own |x|, so it is
    # its scalar call, bit for bit, also at small x and high k, where the
    # closed form cancels (its float sum gives 0.0 for dp_sinc(6, [0.05]),
    # not 7.4e-6)
    xs = np.concatenate([np.linspace(0.05, 40.0, 300), np.geomspace(0.05, 40.0, 150)])
    for fn in (sf.dp_sinc, sf.dp_cosc):
        want = np.array([fn(k, float(x)) for x in xs])
        assert np.array_equal(fn(k, xs), want), fn.__name__
        assert np.array_equal(fn(k, xs.reshape(3, -1)), want.reshape(3, -1)), fn.__name__


def test_dp_against_jet_operator_moderate_regime():
    # closed form vs jet-based D^p where float64 jets are trustworthy
    for x0 in (6.0, 11.5, 27.0):
        jet = sf.Jet.variable(x0, 8)
        sin, cos = jet.sin_cos()
        sj = sin / jet
        cj = cos / jet
        for p in range(9):
            assert relerr(d_operator(sj, p), sf.dp_sinc(p, x0)) < 1e-11
            assert relerr(d_operator(cj, p), sf.dp_cosc(p, x0)) < 1e-11


# ---------------------------------------------------------------------------
# every order at once: the recurrence sweep

SWEEP_X = np.geomspace(1e-3, 100.0, 120)


def test_dp_sweep_matches_the_series_at_every_order():
    # every order k <= 60: the sweep from lo = 0 and from lo = k, dp_sinc,
    # dp_cosc and sph_bessel_j are within 1e-12 relative of the series (the
    # first kind) and of the closed form (the second; it cancels at most 12
    # digits on this grid, so 60 leave 48) wherever the value is a normal
    # float, and refuse or give NaN elsewhere
    whole = sf.dp_sweep(SWEEP_X, 0, 60)[0]
    for k in range(61):
        ref = [dp_sinc_series(k, x) for x in SWEEP_X.tolist()]
        c_k = Decimal((-1) ** k) / math.prod(range(1, 2 * k + 2, 2))
        f, g = sf.dp_sweep(SWEEP_X, k, k, cosc=True)
        want = np.array([float(v) for v in ref])
        for got in (whole[k], f[0], sf.dp_sinc(k, SWEEP_X)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), k
        want = np.array([float(v / c_k) for v in ref])
        assert np.all(np.abs(sf.sph_bessel_j(k, SWEEP_X) - want) <= 1e-12 * np.abs(want)), k
        for x, v in zip(SWEEP_X.tolist(), g.tolist()):
            want = sf.dp_trig_mp(k, Decimal(x), "cos", 60)
            if abs(want) < Decimal(sys.float_info.max):
                assert abs(Decimal(v) - want) <= Decimal("1e-12") * abs(want), (k, x)
            else:
                assert math.isnan(v), (k, x)
        normal = ~np.isnan(g)
        assert np.array_equal(sf.dp_cosc(k, SWEEP_X[normal]), g[normal]), k
        if not normal.all():
            with pytest.raises(ArithmeticError, match=f"p = {k}, x = 0.001$"):
                sf.dp_cosc(k, SWEEP_X)


def test_dp_sweep_is_nan_where_a_value_is_no_normal_float():
    # the second kind overflows at small x from about lo = 49 on, and there
    # the first kind is still normalized; a value that underflows (every
    # order from 150 on, where c_q is subnormal) is NaN, never 0
    for lo, edge in ((49, 0.0045), (60, 0.019)):
        f, g = sf.dp_sweep(SWEEP_X, lo, lo + 2, cosc=True)
        assert np.array_equal(np.isnan(g), SWEEP_X < edge), lo
        assert np.all(np.abs(f) > 0), lo
    assert np.isfinite(sf.dp_sweep(np.array([2e4, -2e4]), 2, 4)[0]).all()
    f = sf.dp_sweep(np.array([1e-3, 0.5, 2.0, 1e200, np.nan]), 148, 151)[0]
    assert np.isfinite(f[:2, :3]).all() and np.isnan(f[2:]).all() and np.isnan(f[:, 3:]).all()
    with pytest.raises(ArithmeticError, match=r"p = 3, x = 1e\+100"):
        sf.dp_sinc(3, 1e100)  # 1e-400: it read -0.0
    assert math.isnan(sf.sph_bessel_j(150, 1e6)) and sf.sph_bessel_j(150, 0.0) == 1.0


def test_dp_sweep_rows_equal_one_point_calls():
    # each element takes its branch from its own |x|: a batch, with small,
    # negative, large, zero and NaN points, equals its one-point calls
    xs = np.concatenate([np.geomspace(1e-3, 300.0, 40), -np.geomspace(0.01, 80.0, 9),
                         [1e-300, 0.0, 1.0, 7.0, 12.0, 5e3, 2e4, np.nan]])
    for lo, hi in ((0, 0), (0, 7), (3, 3), (6, 12), (30, 60)):
        f, g = sf.dp_sweep(xs, lo, hi, cosc=True)
        ones = [sf.dp_sweep(np.array([x]), lo, hi, cosc=True) for x in xs.tolist()]
        assert np.array_equal(f, np.hstack([one[0] for one in ones]), equal_nan=True), lo
        assert np.array_equal(g, np.concatenate([one[1] for one in ones]), equal_nan=True), lo


# ---------------------------------------------------------------------------
# Bessel functions


def test_first_kind_reference_values():
    assert relerr(sf.sph_bessel_j(1, 2.0), REF["j_k1_x2"]) < 1e-14
    assert relerr(sf.sph_bessel_j(3, 4.7), REF["j_k3_x4_7"]) < 1e-14
    # below the order: Miller's sweep, normalized by the Wronskian
    assert relerr(sf.sph_bessel_j(8, 3.1), REF["j_k8_x3_1"]) < 1e-14
    # raw, c_49 j_49(30) is -3.4e-81; normalized, it is 0.0093
    assert abs(sf.sph_bessel_j(49, 30.0) / REF["j_k49_x30"] - 1) < 1e-13


def test_second_kind_reference_values():
    # the normalized second kind is dp_cosc / c_k, with the first kind's c_k
    assert relerr(sf.dp_cosc(1, 2.0) / sf.raw_to_normalized(1), REF["y_k1_x2"]) < 1e-14
    assert relerr(sf.dp_cosc(2, 5.3) / sf.raw_to_normalized(2), REF["y_k2_x5_3"]) < 1e-14


def test_normalization_at_zero():
    assert sf.sph_bessel_j(0, 0.0) == pytest.approx(1.0)
    assert sf.sph_bessel_j(5, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sf.dp_cosc(3, 0.0)


def test_raw_equals_ck_times_normalized():
    for k in range(9):
        ck = sf.raw_to_normalized(k)
        for x in (0.9, 3.7, 12.0, 33.0):
            assert relerr(sf.dp_sinc(k, x), ck * sf.sph_bessel_j(k, x)) < 1e-12
            # D^k (cos x / x) = -(-1)^k y_k(x) / x^k, y_k the standard
            # spherical Bessel function of the second kind
            with mp.workdps(30):
                y_k = mp.sqrt(mp.pi / (2 * x)) * mp.bessely(k + 0.5, x)
                want = float(-(-1) ** k * y_k / mp.mpf(x) ** k)
            assert relerr(sf.dp_cosc(k, x), want) < 1e-12


def test_ck_values():
    assert sf.raw_to_normalized(0) == pytest.approx(1.0)
    assert sf.raw_to_normalized(1) == pytest.approx(-1 / 3)
    assert sf.raw_to_normalized(2) == pytest.approx(1 / 15)


def test_raw_first_kind_is_sinc_chain():
    # k = 0: literally sin x / x; k = 1: D(sin x/x)
    x = 2.0
    assert sf.dp_sinc(0, x) == pytest.approx(math.sin(x) / x, rel=1e-15)
    want = (x * math.cos(x) - math.sin(x)) / x ** 3
    assert sf.dp_sinc(1, x) == pytest.approx(want, rel=1e-14)
    assert sf.dp_cosc(0, x) == pytest.approx(math.cos(x) / x, rel=1e-15)


def test_array_path_matches_scalar():
    # a scalar is a one-element array: bit for bit in every branch of the
    # sweep
    xs = np.concatenate([np.linspace(0.1, 25.0, 101), np.linspace(0.6, 40.0, 2000)])
    for k in (0, 2, 3, 8):
        want = [sf.sph_bessel_j(k, float(x)) for x in xs]
        assert all(type(v) is float for v in want)
        assert np.array_equal(sf.sph_bessel_j(k, xs), want), k


def test_gegenbauer_reference_and_recurrence():
    # the Gegenbauer polynomials of the Funk-Hecke reference route for h_m
    assert relerr(gegenbauer(3, 1.5, 0.4), REF["gegen_m3_a1_5_x0_4"]) < 1e-14
    assert relerr(gegenbauer(5, 2.5, 0.8), REF["gegen_m5_a2_5_x0_8"]) < 1e-14
    assert gegenbauer(0, 0.7, 0.3) == 1.0
    assert gegenbauer(1, 0.7, 0.3) == pytest.approx(2 * 0.7 * 0.3)
    # Legendre case: C_2^{1/2}(1) = 1
    assert gegenbauer(2, 0.5, 1.0) == pytest.approx(1.0)


def test_gegenbauer_at_one():
    for m in range(7):
        for alpha in (0.5, 1.5, 2.5):
            want = gegenbauer(m, alpha, 1.0)
            assert relerr(gegenbauer_at_one(m, alpha), want) < 1e-12


# ---------------------------------------------------------------------------
# zeros


def test_zero_k0_is_multiples_of_pi():
    assert sf.bessel_zero(0, 1) == pytest.approx(math.pi, abs=1e-12)
    assert sf.bessel_zero(0, 7) == pytest.approx(7 * math.pi, abs=1e-11)


def test_zero_reference_values():
    assert abs(sf.bessel_zero(1, 1) - REF["zero_k1_i1"]) < 1e-11
    assert abs(sf.bessel_zero(2, 1) - REF["zero_k2_i1"]) < 1e-11
    assert abs(sf.bessel_zero(8, 3) - REF["zero_k8_i3"]) < 1e-11
    assert abs(sf.bessel_zero(80, 1) - REF["zero_k80_i1"]) < 1e-11
    assert abs(sf.bessel_zero(81, 1) - REF["zero_k81_i1"]) < 1e-11


def test_zeros_increase_and_interlace():
    for k in range(8):
        zk = [sf.bessel_zero(k, i) for i in range(1, 11)]
        zk1 = [sf.bessel_zero(k + 1, i) for i in range(1, 11)]
        assert all(a < b for a, b in zip(zk, zk[1:]))
        for i in range(9):
            assert zk[i] < zk1[i] < zk[i + 1]


def test_no_common_zeros_scale_aware():
    # at every zero z of the first kind, the second kind carries the full
    # local amplitude: |dp_cosc(k,z)| * z^(k+1) is essentially 1 (never small)
    for k in range(9):
        for i in range(1, 11):
            z = sf.bessel_zero(k, i)
            assert abs(sf.dp_cosc(k, z)) * z ** (k + 1) > 1e-3


def _zeros_by_raw_j(k, count):
    """The first `count` zeros as one bessel_zero call per index finds them:
    scan and bisection read the sign bessel_zero reads."""
    f = lambda x: sf._j_forward(k, x)
    zeros = []
    lo = max(k + 0.5, 0.5)
    flo = f(lo)
    while len(zeros) < count:
        hi = lo + 1.0
        fhi = f(hi)
        if flo == 0.0:
            zeros.append(lo)
            lo, flo = lo + 1e-9, f(lo + 1e-9)
            continue
        if flo * fhi < 0:
            a, b, fa = lo, hi, flo
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
            lo = zeros[-1] + 1e-9
            flo = f(lo)
        else:
            lo, flo = hi, fhi
    return zeros


def test_zeros_equal_the_raw_j_bisection():
    # every zero must be the one the plain bisection finds, bit for bit,
    # whichever index a call asks for first
    for k in range(13):
        sf._zero_cache(k).clear()
        last = sf.bessel_zero(k, 20)
        zeros = [sf.bessel_zero(k, i) for i in range(1, 21)]
        assert zeros[-1] == last, k
        assert zeros == _zeros_by_raw_j(k, 20), k
        for i, z in enumerate(zeros, start=1):
            assert abs(z - float(mpmath.besseljzero(k + 0.5, i))) <= 1e-12, (k, i)


def test_zeros_past_512_end():
    # above x = 512 one float spacing exceeds the 1e-13 bisection width;
    # before the bisection stopped at adjacent floats, bessel_zero(0, 163)
    # never returned, so the search runs in a child with a timeout
    code = ("import sys\n"
            "from sphmean import specfun as sf\n"
            "zeros = [sf.bessel_zero(0, i) for i in range(163, 201)]\n"
            "print(*zeros, sf.bessel_zero(3, 163))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sf.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    zeros = [float(v) for v in run.stdout.split()]
    wants = [mpmath.besseljzero(0.5, i) for i in range(163, 201)]
    wants.append(mpmath.besseljzero(3.5, 163))
    assert zeros[-1] > 512
    for z, want in zip(zeros, wants):
        assert abs(z - float(want)) <= math.ulp(z), (z, want)


@pytest.mark.parametrize("k", [76, 78, 80, 81, 148])
def test_zeros_at_large_k(k):
    # the sign from dp_sinc's x^-(2k+1) scaling underflowed here (the first
    # zero read 89.8750 at k = 81, for 89.7841)
    for i in (1, 2, 3):
        want = float(mpmath.besseljzero(k + 0.5, i))
        assert abs(sf.bessel_zero(k, i) / want - 1) <= 1e-12, (k, i)


def test_zero_argument_validation():
    with pytest.raises(ValueError):
        sf.bessel_zero(-1, 1)
    with pytest.raises(ValueError):
        sf.bessel_zero(2, 0)
