"""Special functions: Bessel values against frozen high-precision references,
jet arithmetic, the D^p coefficient table, closed-form kernels, and zeros."""

import decimal
import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath import mp

from sphmean import specfun as sf

from _oracles import DenseJet, dp_inv_poly
from _reference import REFERENCE as REF


def relerr(got, want):
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# D coefficient table


def test_d_coeff_table_base_and_recurrence():
    a = sf.d_coeff_table(6)
    assert a[1][1] == 1
    # second row: D^2 f = -t^-3 f' + t^-2 f''
    assert a[2][1] == -1
    assert a[2][2] == 1
    # recurrence spot check at p=4
    for j in range(1, 6):
        lhs = a[5][j] if j < len(a[5]) else Fraction(0)
        prev = a[4][j - 1] if j - 1 >= 0 else Fraction(0)
        assert lhs == prev + (j - 2 * 4) * a[4][j]


def test_d_coeff_table_against_monomials():
    # D^p t^(2q) = 2^p q!/(q-p)! t^(2q-2p); check table reproduces it
    a = sf.d_coeff_table(5)
    for p in range(1, 6):
        for q in range(p, p + 4):
            t0 = 1.37
            jet = [math.prod(range(2 * q - j + 1, 2 * q + 1)) * t0 ** (2 * q - j) for j in range(p + 1)]
            acc = sum(float(a[p][j]) * jet[j] * t0 ** (j - 2 * p) for j in range(1, p + 1))
            want = 2 ** p * math.factorial(q) / math.factorial(q - p) * t0 ** (2 * q - 2 * p)
            assert relerr(acc, want) < 1e-13


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


def test_poly_eval_jet_is_horner_on_full_products_bit_for_bit():
    # the reference: Horner's rule from a zero jet, each step a full product
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
                    got = x._wrap(sf._poly_eval(coeffs, x)).derivs
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


def test_raw_j_jet_of_a_quadratic_argument_is_the_dense_composition():
    def dense_raw_j(k, x):
        def horner(coeffs):
            acc = x._wrap(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                acc = acc * x + c
            return acc
        cs, cc = sf._trig_coeffs(k)
        s, c = x.sin_cos()
        return (horner(cs) * s + horner(cc) * c) * x ** (-(2 * k + 1))

    def quadratic(v, num):
        return v * v * num(0.5) + v * num(1.5) + num(2.0)

    t = np.array([0.3, -0.0, 1.7, -2.2, 1e-300])
    with sf.decimal_context(30):
        for k in range(7):
            for base, num in ((t, float), (0.45, float), (Decimal("0.45"), Decimal)):
                got = sf.raw_j_jet(k, quadratic(sf.Jet.variable(base, k + 2), num))
                want = dense_raw_j(k, quadratic(DenseJet.variable(base, k + 2), num))
                _assert_dense_bits(got, want)


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
        assert sf.dp_sinc(10, 0.3).hex() == "0x1.3f3faa1756566p-34"
        with sf.decimal_context(30):
            assert decimal.getcontext().prec == 30
            assert decimal.getcontext().rounding == decimal.ROUND_HALF_EVEN
            assert not any(decimal.getcontext().traps.values())
            assert sf.decimal_sin_cos(Decimal("NaN"))[0].is_nan()


# (p, x, kind) over a grid of small and moderate x; the scalar float sum
# fails its cancellation guard at each of these points and escalates
_ESCALATION_XS = np.concatenate([np.geomspace(0.01, 40.0, 300), [0.3, 0.5, 1e-3, 3.0, 7.5]])


@pytest.mark.parametrize("kind", ["sin", "cos"])
def test_each_power_has_one_nonzero_coefficient(kind):
    # so |term| in _trig_sum is the magnitude of its one product: the sine
    # row is nonzero at even l, the cosine row at odd l (swapped for cos)
    for p in range(41):
        cs, cc = sf._kind_coeffs(p, kind)
        for l, (s, c) in enumerate(zip(cs, cc)):
            assert (s != 0) != (c != 0), (p, l)
            assert (s != 0) == (l % 2 == (kind == "cos")), (p, l)


def _float_sum_trusted(p, x, kind):
    """Whether the cancellation guard trusts the float closed-form sum at x."""
    acc, mag = sf._trig_sum(*sf._kind_coeffs(p, kind), x)
    scale = x ** -(2 * p + 1)
    return mag * abs(scale) <= sf._CANCEL_LIMIT * abs(acc * scale)


def test_escalated_values_keep_their_floats():
    # the floats these escalations gave when they ran in mpmath, bit for bit
    values = [(sf.dp_sinc if kind == "sin" else sf.dp_cosc)(p, x)
              for p in range(13) for kind in ("sin", "cos") for x in _ESCALATION_XS.tolist()
              if not _float_sum_trusted(p, x, kind)]
    assert len(values) == 2333
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    assert digest == "bf4aea374dec5e40c13722bb9fc7a8a6fc7f64ad6aaa5db1d3e31d3ab68b1b46"
    assert [v.hex() for v in (sf.dp_sinc(10, 0.3), sf.dp_cosc(7, 0.5), sf.dp_sinc(3, 0.5),
                              sf.dp_sinc(6, 0.05), sf.dp_sinc(3, 1e100),
                              sf.dp_cosc(12, 0.01))] == [
        "0x1.3f3faa1756566p-34", "-0x1.0a7ce56506720p+32", "-0x1.33c42f57d06bep-7",
        "0x1.f09090b2310bap-18", "-0x0.0p+0", "0x1.3ade95895619bp+204"]


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
    # deep-cancellation point: flat evaluation loses ~30 digits; the value is
    # recovered through automatic precision escalation
    assert relerr(sf.dp_sinc(10, 0.3), REF["dp_sinc_p10_x0_3"]) < 1e-12


def test_dp_cosc_reference_values():
    assert relerr(sf.dp_cosc(2, 0.9), REF["dp_cosc_p2_x0_9"]) < 1e-14
    assert relerr(sf.dp_cosc(7, 0.5), REF["dp_cosc_p7_x0_5"]) < 1e-13


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


def test_dp_vector_matches_scalar():
    xs = np.linspace(0.7, 30.0, 57)
    for p in (0, 2, 5):
        vec = sf.dp_sinc(p, xs)
        scal = np.array([sf.dp_sinc(p, float(x)) for x in xs])
        # both paths escalate precision where the float sum cancels; they
        # agree bit for bit (test_array_calls_equal_scalar_calls)
        assert np.max(np.abs(vec - scal) / np.maximum(1.0, np.abs(scal))) < 1e-10


@pytest.mark.parametrize("k", range(13))
def test_array_calls_equal_scalar_calls(k):
    # one float pass over the array, and the scalar route (mpmath) wherever
    # its cancellation guard fails: every element is its scalar call, bit
    # for bit, also at small x and high k where the closed form cancels (an
    # unguarded float sum gives 0.0 for dp_sinc(6, [0.05]), not 7.4e-6)
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
            assert relerr(sf.d_operator(sj, p), sf.dp_sinc(p, x0)) < 1e-11
            assert relerr(sf.d_operator(cj, p), sf.dp_cosc(p, x0)) < 1e-11


# ---------------------------------------------------------------------------
# Bessel functions


def test_first_kind_reference_values():
    assert relerr(sf.sph_bessel_j(1, 2.0), REF["j_k1_x2"]) < 1e-14
    assert relerr(sf.sph_bessel_j(3, 4.7), REF["j_k3_x4_7"]) < 1e-14
    # below the switch radius for k = 8: exercises the series branch
    assert relerr(sf.sph_bessel_j(8, 3.1), REF["j_k8_x3_1"]) < 1e-14


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


def test_switch_boundary_continuity():
    for k in range(9):
        swr = sf.switch_radius(k)
        lo = sf.sph_bessel_j(k, swr - 1e-12)
        hi = sf.sph_bessel_j(k, swr + 1e-12)
        assert relerr(lo, hi) < 1e-12


def test_array_path_matches_scalar():
    xs = np.linspace(0.1, 25.0, 101)
    for k in (0, 2, 8):
        vec = sf.sph_bessel_j(k, xs)
        scal = np.array([sf.sph_bessel_j(k, float(x)) for x in xs])
        assert np.max(np.abs(vec - scal)) < 1e-13


def test_gegenbauer_reference_and_recurrence():
    assert relerr(sf.gegenbauer(3, 1.5, 0.4), REF["gegen_m3_a1_5_x0_4"]) < 1e-14
    assert relerr(sf.gegenbauer(5, 2.5, 0.8), REF["gegen_m5_a2_5_x0_8"]) < 1e-14
    assert sf.gegenbauer(0, 0.7, 0.3) == 1.0
    assert sf.gegenbauer(1, 0.7, 0.3) == pytest.approx(2 * 0.7 * 0.3)
    # Legendre case: C_2^{1/2}(1) = 1
    assert sf.gegenbauer(2, 0.5, 1.0) == pytest.approx(1.0)


def test_gegenbauer_at_one():
    for m in range(7):
        for alpha in (0.5, 1.5, 2.5):
            want = sf.gegenbauer(m, alpha, 1.0)
            assert relerr(sf.gegenbauer_at_one(m, alpha), want) < 1e-12


# ---------------------------------------------------------------------------
# zeros


def test_zero_k0_is_multiples_of_pi():
    assert sf.bessel_zero(0, 1) == pytest.approx(math.pi, abs=1e-12)
    assert sf.bessel_zero(0, 7) == pytest.approx(7 * math.pi, abs=1e-11)


def test_zero_reference_values():
    assert abs(sf.bessel_zero(1, 1) - REF["zero_k1_i1"]) < 1e-11
    assert abs(sf.bessel_zero(2, 1) - REF["zero_k2_i1"]) < 1e-11
    assert abs(sf.bessel_zero(8, 3) - REF["zero_k8_i3"]) < 1e-11


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
    """The first `count` zeros as one bessel_zero call per index finds them,
    when scan and bisection called dp_sinc at every step (the form before the
    sign test on the float sum)."""
    f = lambda x: sf.dp_sinc(k, x)
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
    # the search reads signs from the float trig sum where rounding cannot
    # flip them; every zero must be the one the dp_sinc search finds, bit for
    # bit, whichever index a call asks for first
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


def test_zero_argument_validation():
    with pytest.raises(ValueError):
        sf.bessel_zero(-1, 1)
    with pytest.raises(ValueError):
        sf.bessel_zero(2, 0)
