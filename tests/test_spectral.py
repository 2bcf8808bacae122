"""Frequency-side identities: Hankel transform consistency, the cross-product
relation on range data, the boundary-operator kernel identity, and vanishing
at Bessel zeros."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import PerturbedH, bump_h
from _reference import REFERENCE as REF
from sphmean import spectral as sp
from sphmean.specfun import bessel_zero, raw_to_normalized
from sphmean.transform import (
    BumpProfile,
    Dimension,
    HarmonicForwardData,
    QuadratureRule,
    SmtProfile,
)

D3, D5, D7 = Dimension(3), Dimension(5), Dimension(7)


# ---------------------------------------------------------------------------
# paneling and the transform itself


def test_oscillation_panels():
    # low frequency keeps the base count; high frequency scales linearly
    assert sp.oscillation_panels(0.5, 0.0, 2.0) == 8
    assert sp.oscillation_panels(40.0, 0.15, 1.85) == math.ceil(4 * 40 * 1.7 / (2 * math.pi))


def test_hankel_lam_zero_is_weighted_moment():
    g = lambda t: np.exp(-((t - 1.0) ** 2))
    k = 1
    val = sp.hankel(g, k, 0.0, support=(0.2, 1.8))
    rule = QuadratureRule(32, 8)
    moment = rule.integrate(lambda t: g(t) * t ** (2 * k + 2), 0.2, 1.8)
    assert val == pytest.approx(moment, rel=1e-14)


def test_hankel_refuses_negative_order_and_lam():
    g = lambda t: t
    with pytest.raises(ValueError):
        sp.hankel(g, -1, 2.0)
    with pytest.raises(ValueError):
        sp.hankel(g, 1, -1.0)


def test_hankel_two_routes_agree():
    # integral of g j t^(2a+1) versus integral of h j t with h = t^(2k+1) g
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    for lam in (0.5, 7.0, 23.0, 40.0):
        a = sp.hankel(data.g, D5.k, lam, support=data.support)
        b = sp.hankel_h(data.h, D5.k, lam, support=data.support)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-18)


def test_hankel_panel_doubling_converged():
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    lo, hi = data.support
    need = sp.oscillation_panels(40.0, lo, hi)
    base = sp.hankel_h(data.h, D5.k, 40.0, support=data.support)
    dbl = sp.hankel_h(data.h, D5.k, 40.0, QuadratureRule(32, 2 * need),
                      support=data.support)
    assert abs(base - dbl) <= 1e-10 * abs(base)


# ---------------------------------------------------------------------------
# cross-product identity


def test_cross_product_on_forward_data():
    for dim, prof in ((D3, BumpProfile(0.55, 0.3)),
                      (D5, BumpProfile(0.4, 0.2)),
                      (D7, BumpProfile(0.66, 0.25))):
        data = SmtProfile(prof, dim)
        for lam in (0.5, 3.0, 11.0, 27.0, 40.0):
            assert sp.cross_product_terms(data, dim.k, lam)[2] <= 1e-8


def test_cross_product_flags_perturbed_data():
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    bad = PerturbedH(data, 0.1)
    worst = max(sp.cross_product_terms(bad, D5.k, lam)[2] for lam in (2.0, 5.0, 11.0))
    assert worst >= 1e-3


def test_cross_product_passes_exact_data_where_the_integrals_cancel():
    # README profile: at n = 9 (lam = 29.6) and n = 25 the first-kind integral
    # cancels far below its integrand, and the identity holds to rounding
    lams = np.linspace(0.5, 40.0, 20)
    for n in (9, 25):
        dim = Dimension(n)
        data = SmtProfile(BumpProfile(0.55, 0.25), dim)
        assert np.max(sp.cross_product_terms(data, dim.k, lams)[2]) <= 1e-12, n


def test_cross_product_flags_a_small_perturbation():
    lams = np.linspace(0.5, 40.0, 20)
    for n in (5, 9):
        dim = Dimension(n)
        data = SmtProfile(BumpProfile(0.55, 0.25), dim)
        bad = PerturbedH(data, 1e-6)
        res = sp.cross_product_terms(bad, dim.k, lams)[2]
        assert np.max(res) > 1e-7, n


def test_cross_product_support_guard():
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    with pytest.raises(ValueError):
        sp.cross_product_terms(SimpleNamespace(h=data.h, support=(0.0, 2.0)), D5.k, 3.0)
    # PerturbedH reads its base's support, which stays away from t = 0
    bad = PerturbedH(data, 0.1)
    assert bad.support == data.support
    assert math.isfinite(sp.cross_product_terms(bad, D5.k, 3.0)[2])


def test_cross_product_zero_data():
    z = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    zero = SimpleNamespace(h=z, support=(0.3, 1.7))
    assert sp.cross_product_terms(zero, 1, 3.0)[2] == 0.0


def test_cross_product_stays_finite_at_kernel_zero():
    # at lam = a zero of j both sides collapse; the cancellation scale keeps
    # the ratio defined and the quadrature keeps it small
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    lam = bessel_zero(D5.k, 2)
    res = sp.cross_product_terms(data, D5.k, lam)[2]
    assert math.isfinite(res)


# ---------------------------------------------------------------------------
# boundary-operator kernel identity


def test_mk_k0_is_angle_addition():
    # k = 0 collapses to sin(lam(1+t)) = sin(lam t)cos(lam) + cos(lam t)sin(lam)
    for lam in (0.6, 3.7, 14.0):
        for t in (-2.5, -0.4, 0.9, 2.2):
            assert sp.mk_residual(0, lam, t) <= 1e-14


def test_mk_lhs_reference_value():
    lhs, rhs, _ = sp._mk_sides(1, np.array([2.0]), np.array([0.7]))
    assert lhs[0] == pytest.approx(REF["mk_lhs_k1_lam2_t0_7"], rel=1e-13)
    assert rhs[0] == pytest.approx(REF["mk_lhs_k1_lam2_t0_7"], rel=1e-12)


def test_mk_residual_seeded_sweep():
    rng = np.random.default_rng(20250815)
    for k in range(7):
        count = 0
        while count < 100:
            lam = rng.uniform(0.5, 20.0)
            t = rng.uniform(-3.0, 3.0)
            if abs(t) < 0.1 or abs(t + 1.0) < 0.1:
                continue
            count += 1
            assert sp.mk_residual(k, lam, t) <= 1e-8, (k, lam, t)


def test_mk_two_sided_limit_at_minus_one():
    # the identity value vanishes at t = -1; Richardson limits from either
    # side agree, and the identity keeps holding in the cancellation zone
    eps = 1e-3
    for k in (1, 3, 5):
        for lam in (0.7, 9.0):
            assert sp.mk_residual(k, lam, -1 + eps) <= 1e-8
            assert sp.mk_residual(k, lam, -1 - eps) <= 1e-8
            ts = -1 + np.array([eps / 2, eps, -eps / 2, -eps])
            rhs = sp._mk_sides(k, np.full(ts.shape, lam), ts)[1]
            lim_p = 2 * rhs[0] - rhs[1]
            lim_m = 2 * rhs[2] - rhs[3]
            assert abs(lim_p - lim_m) <= 1e-5


def test_mk_retry_rescues_float_cancellation():
    # at k = 40 the float jet loses digits; the 80-digit recomputation
    # restores the identity
    lhs, rhs, scale = sp._mk_sides(40, np.array([1.0]), np.array([0.5]))
    den = max(abs(lhs[0]), abs(rhs[0]), 1e-14 * scale[0])
    assert abs(lhs[0] - rhs[0]) / den > 1e-7
    assert sp.mk_residual(40, 1.0, 0.5) <= 1e-60


def test_mk_retry_resolves_small_and_large_lam():
    # at small lam the closed forms cancel more digits than 80 carry (these
    # read 0.333, 0.678 and 0.060 there), and the float sweep is NaN where
    # lam^-(2k+3) overflows, as at 1e-55: the kernel values of the Decimal
    # side come from their series there
    for k, lam, t in ((1, 1e-40, 0.5), (2, 1e-20, 0.5), (2, 1e-30, -0.5), (3, 1e-55, 0.5)):
        assert sp.mk_residual(k, lam, t) <= 1e-8, (k, lam, t)
    # lam (1 + t) is beyond the sweep's reach, and its sin and cos are of
    # the exact argument
    assert sp.mk_residual(0, 1e300, 0.5) <= 1e-14
    # sin/cos of lam (1 + t) = 1e600 at 80 digits needs more digits of pi
    # than decimal_sin_cos holds
    with pytest.raises(ArithmeticError, match="more digits of pi"):
        sp.mk_residual(0, 1e300, 1e300)


def test_mk_retry_keeps_a_real_defect(monkeypatch):
    # a left side off by one part in 1e6 stays over the bar at 80 digits,
    # and that reading is the answer: one recomputation, no more
    lhs, residual_mp, calls = sp._mk_lhs, sp._mk_residual_mp, []

    def once(k, lam, t):
        calls.append((k, lam, t))
        return residual_mp(k, lam, t)

    monkeypatch.setattr(sp, "_mk_lhs", lambda k, lam, t, f: lhs(k, lam, t, f) * 1000001 / 1000000)
    monkeypatch.setattr(sp, "_mk_residual_mp", once)
    assert sp.mk_residual(2, 3.0, 0.7) == pytest.approx(1e-6, rel=1e-5)
    assert calls == [(2, 3.0, 0.7)]


def test_mk_domain_errors():
    with pytest.raises(ValueError):
        sp.mk_residual(1, 2.0, 0.0)
    with pytest.raises(ValueError):
        sp.mk_residual(1, 2.0, -1.0)
    with pytest.raises(ValueError):
        sp.mk_residual(1, 0.0, 0.5)
    with pytest.raises(ValueError):
        sp.mk_residual(-1, 2.0, 0.5)
    with pytest.raises(ValueError):
        sp._mk_points(3.0, 0.0)
    with pytest.raises(ValueError):
        sp._mk_points(3.0, -1.0)


# ---------------------------------------------------------------------------
# vanishing at Bessel zeros


def _transform_max(h_fn, k, lam_hi, support, samples=40):
    grid = np.linspace(0.3, lam_hi, samples)
    return max(abs(sp.hankel_h(h_fn, k, float(L), support=support)) for L in grid)


def test_zero_vanishing_radial_range_data():
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    pairs, scale = sp.bessel_zero_vanishing(data, D5, 0, 10)
    assert [z for z, _ in pairs] == pytest.approx(
        [bessel_zero(D5.k, i) for i in range(1, 11)])
    fmax = _transform_max(data.h, D5.k, pairs[-1][0], data.support)
    assert fmax > 0
    # the scale is the same scan up to 2 past the last zero, on one rule
    scan = _transform_max(data.h, D5.k, pairs[-1][0] + 2.0, data.support)
    assert scale == pytest.approx(scan, rel=1e-10)
    for _, mag in pairs:
        assert mag <= 1e-8 * fmax


def test_zero_vanishing_harmonic_range_data():
    hd = HarmonicForwardData(BumpProfile(0.5, 0.25), D3, 1)
    pairs, _ = sp.bessel_zero_vanishing(hd, D3, 1, 4)
    fmax = _transform_max(hd.h, D3.k, pairs[-1][0], hd.support, samples=20)
    for _, mag in pairs:
        assert mag <= 1e-8 * fmax


def test_zero_vanishing_flags_off_range_data():
    # a bump living on t in (1.2, 1.6) is not spherical mean data of any
    # profile supported in the unit ball; mass survives at the kernel zeros
    off = bump_h(1.4, 0.2)
    pairs, _ = sp.bessel_zero_vanishing(off, D5, 0, 10)
    fmax = _transform_max(off.h, D5.k, pairs[-1][0], off.support)
    assert max(mag for _, mag in pairs) >= 1e-2 * fmax


def test_zero_vanishing_validation():
    data = SmtProfile(BumpProfile(0.55, 0.3), D5)
    with pytest.raises(ValueError):
        sp.bessel_zero_vanishing(data, D5, 0, 0)
    with pytest.raises(ValueError):
        sp.bessel_zero_vanishing(data, D5, -1, 3)
    # data is read through .h and .support only
    with pytest.raises(AttributeError):
        sp.bessel_zero_vanishing(object(), D5, 0, 3)
