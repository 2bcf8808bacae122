"""Forward transform: closed-form anchors, cross-quadrature agreement,
analytic kernel derivatives, and the two-route harmonic consistency."""

import math

import numpy as np
import pytest

from sphmean import exactmath as em
from sphmean import transform as tr

from _reference import REFERENCE as REF


def relerr(got, want):
    return abs(got - want) / max(1.0, abs(want))


D3, D5, D7 = tr.Dimension(3), tr.Dimension(5), tr.Dimension(7)
ONE = tr.PolynomialProfile([1.0])
BUMP = tr.BumpProfile(0.55, 0.25)


# ---------------------------------------------------------------------------
# geometry pieces


def test_dimension_validation():
    assert tr.Dimension(3).k == 0
    assert tr.Dimension(7).k == 2
    assert tr.Dimension(5).alpha == 1.5
    with pytest.raises(ValueError):
        tr.Dimension(4)
    with pytest.raises(ValueError):
        tr.Dimension(1)


def test_omega_values():
    assert tr.omega(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert tr.omega(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert tr.omega(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-14)


def test_q_kernel_anchors():
    assert tr.q_kernel(1.0, 1.0) == pytest.approx(3.0)
    assert tr.q_kernel(0.37, 1 - 0.37) == pytest.approx(0.0, abs=1e-15)
    assert tr.q_kernel(0.37, 1 + 0.37) == pytest.approx(0.0, abs=1e-15)
    t, u = 0.9, 1.2
    expanded = 2 * (u * u + 1) * t * t - t ** 4 - (1 - u * u) ** 2
    assert tr.q_kernel(t, u) == pytest.approx(expanded, rel=1e-14)


def test_quadrature_rule_validation_and_exactness():
    with pytest.raises(ValueError):
        tr.QuadratureRule(1, 4)
    # degree-7 polynomial integrated exactly by 32-node Gauss
    q = tr.QuadratureRule(32, 2)
    val = q.integrate(lambda x: x ** 7 - 3 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(2 ** 8 / 8 - 8.0, rel=1e-14)
    assert q.integrate(lambda x: x, 1.0, 1.0) == 0.0


def test_gauss_nodes_equal_numpy_leggauss_bit_for_bit():
    # numpy's leggauss is the oracle here only; src/ computes the rule itself
    from numpy.polynomial.legendre import leggauss

    for n in [*range(2, 301), 400, 512]:
        x, w = tr._gauss_nodes(n)
        ref_x, ref_w = leggauss(n)
        assert np.array_equal(x.view(np.int64), ref_x.view(np.int64)), n
        assert np.array_equal(w.view(np.int64), ref_w.view(np.int64)), n


# ---------------------------------------------------------------------------
# profiles


def test_bump_profile_support_and_smoothness():
    b = tr.BumpProfile(0.5, 0.2)
    assert b.support == (0.3, 0.7)
    assert b(0.29) == 0.0
    assert b(0.71) == 0.0
    assert b(0.5) == pytest.approx(math.exp(-1.0))
    # jets vanish identically outside the support
    j = b.jet(0.75, 4)
    assert all(c == 0.0 for c in j.derivs)


def test_bump_profile_jet_matches_reference():
    j = BUMP.jet(0.62, 6)
    for i, want in enumerate(REF["bump_derivs_r0_62"]):
        assert relerr(j.derivs[i], want) < 1e-11


def test_bump_validation():
    with pytest.raises(ValueError):
        tr.BumpProfile(0.9, 0.2)  # support leaves [0, 1)
    with pytest.raises(ValueError):
        tr.BumpProfile(0.5, -0.1)


def test_polynomial_profile_eval_and_jet():
    p = tr.PolynomialProfile([1.0, 0.0, 2.0], r_hi=0.8)  # 1 + 2 r^2
    assert p(0.5) == pytest.approx(1.5)
    assert p(0.85) == 0.0
    j = p.jet(0.5, 2)
    assert j.derivs[1] == pytest.approx(2.0)
    assert j.derivs[2] == pytest.approx(4.0)


def test_derivative_profile_shifts_jets():
    base = tr.BumpProfile(0.5, 0.3)
    d2 = tr.DerivativeProfile(base, 2)
    assert d2.support == base.support
    r = 0.58
    assert d2(r) == pytest.approx(base.jet(r, 2).derivs[2], rel=1e-12)
    jd = d2.jet(r, 3)
    jb = base.jet(r, 5)
    for i in range(4):
        assert jd.derivs[i] == pytest.approx(jb.derivs[i + 2], rel=1e-12)


# ---------------------------------------------------------------------------
# radial forward transform


def test_forward_h_closed_form_n3():
    # constant profile in n=3: h(t) = (2t - t^2)/4 on (0, 2)
    for t in (0.3, 0.9, 1.0, 1.4, 1.97):
        assert tr.forward_h(ONE, D3, t) == pytest.approx((2 * t - t * t) / 4, rel=1e-13)


def test_forward_radial_and_funk_hecke_closed_form_n3():
    for t in (0.3, 0.9, 1.0):
        assert tr.forward_radial(ONE, D3, t) == pytest.approx((2 - t) / 4, rel=1e-13)
        assert tr.funk_hecke_forward(ONE, D3, t) == pytest.approx((2 - t) / 4, rel=1e-13)


def test_forward_h_closed_form_n5():
    assert relerr(tr.forward_h(ONE, D5, 0.7), REF["h_n5_const1_t0_7"]) < 1e-13
    assert relerr(tr.forward_h(ONE, D5, 1.3), REF["h_n5_const1_t1_3"]) < 1e-13


def test_forward_domain_errors():
    with pytest.raises(ValueError):
        tr.forward_h(ONE, D3, 0.0)
    with pytest.raises(ValueError):
        tr.forward_h(ONE, D3, 2.0)
    with pytest.raises(ValueError):
        tr.forward_radial(ONE, D3, 5e-4)  # below division floor


def test_support_of_h_is_exact():
    assert tr.forward_h(BUMP, D5, 0.19) == 0.0
    assert tr.forward_h(BUMP, D5, 1.81) == 0.0
    assert tr.forward_h(BUMP, D5, 0.9) > 0.0


def test_forward_matches_funk_hecke_across_dimensions():
    # two independent integral representations of the same data
    profiles = [BUMP, tr.BumpProfile(0.4, 0.15), tr.BumpProfile(0.66, 0.2)]
    for dim in (D3, D5, D7):
        for prof in profiles:
            for t in np.linspace(0.35, 1.7, 25):
                a = tr.forward_radial(prof, dim, float(t))
                b = tr.funk_hecke_forward(prof, dim, float(t))
                assert abs(a - b) <= 1e-9 * max(1e-12, abs(b), abs(a)) + 1e-16


def test_quadrature_doubling_converged():
    q = tr.DEFAULT_QUAD
    for t in (0.4, 0.8, 1.2):
        a = tr.forward_h(BUMP, D7, t, q)
        b = tr.forward_h(BUMP, D7, t, q.refined())
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_array_t_input():
    ts = np.array([0.5, 1.0, 1.5])
    vals = tr.forward_h(BUMP, D5, ts)
    for t, v in zip(ts, vals):
        assert v == pytest.approx(tr.forward_h(BUMP, D5, float(t)), rel=1e-14)


# ---------------------------------------------------------------------------
# analytic kernel derivatives


def _richardson_D(f, t, h0=1e-3):
    d1 = (f(t + h0) - f(t - h0)) / (2 * h0)
    d2 = (f(t + h0 / 2) - f(t - h0 / 2)) / h0
    return ((4 * d2 - d1) / 3) / t


def test_forward_h_dp_matches_numeric_derivative():
    for t in (0.6, 1.0, 1.45):
        want = _richardson_D(lambda tt: tr.forward_h(BUMP, D5, tt), t)
        assert abs(tr.forward_h_dp(BUMP, D5, t, 1) - want) < 1e-6
    for t in (0.6, 1.0):
        want = _richardson_D(lambda tt: tr.forward_h_dp(BUMP, D7, tt, 1), t)
        assert abs(tr.forward_h_dp(BUMP, D7, t, 2) - want) < 1e-6


def test_forward_h_dp_p0_is_forward_h():
    assert tr.forward_h_dp(BUMP, D5, 0.8, 0) == tr.forward_h(BUMP, D5, 0.8)


def _exact_kernel(K, p, ts, u):
    """D^p Q^K at every (t, u) node from the exact polynomial, rounded once.

    Nodes are dyadic with at most 64 fractional bits, so after scaling by
    2^64 every term is an integer; int / int rounds correctly.
    """
    terms = em.dp_q_power(K, p).terms()
    deg = max(i + j for i, j, _ in terms)

    def powers(x):
        scaled = math.ldexp(x, 64)
        assert scaled.is_integer()
        return [int(scaled) ** e for e in range(deg + 1)]

    out = np.empty(u.shape)
    for r, t in enumerate(ts.tolist()):
        tp = powers(t)
        for c, x in enumerate(u[r].tolist()):
            up = powers(x)
            num = sum(coef * tp[i] * up[j] << 64 * (deg - i - j) for i, j, coef in terms)
            out[r, c] = num / (1 << 64 * deg)
    return out


EXACT_QUAD = tr.QuadratureRule(8, 4)
EXACT_TS = np.array([0.4, 0.7, 0.9, 1.0, 1.1, 1.3, 1.5, 1.7])


def _exact_kernel_integrals(K, p, weight):
    def integrand(rows, u, f_u):
        return f_u * _exact_kernel(K, p, EXACT_TS[rows], u)

    a, b = tr._u_range(BUMP, EXACT_TS)
    return EXACT_QUAD.integrate_rows(lambda u: weight(u) * BUMP(u), integrand, a, b)


def _sup_relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n, orders", [(13, (1, 3, 5)), (21, (1, 4, 9)), (31, (1, 7, 14))])
def test_forward_h_dp_matches_exact_kernel_quadrature(n, orders):
    # the same quadrature with exactly rounded kernel values: only the
    # kernel's own rounding differs
    dim = tr.Dimension(n)
    for p in orders:
        want = tr._front_constant(n) * _exact_kernel_integrals(dim.k, p, lambda u: u)
        got = tr.forward_h_dp(BUMP, dim, EXACT_TS, p, EXACT_QUAD)
        assert _sup_relative(got, want) < 1e-13, (n, p)


def test_phi_harmonic_dp_matches_exact_kernel_quadrature():
    dim, m = tr.Dimension(21), 2
    for p in (0, 1, 5, 11):
        want = _exact_kernel_integrals(m + dim.k, p, lambda u: u ** (1 - m))
        got = tr.phi_harmonic_dp(BUMP, dim, m, EXACT_TS, p, EXACT_QUAD)
        assert _sup_relative(got, want) < 1e-13, p


def test_forward_h_dp_order_cap():
    with pytest.raises(ValueError):
        tr.forward_h_dp(BUMP, D5, 0.8, 2)  # k = 1 in n = 5


def test_forward_h_dp_continuous_at_t1():
    # derivative values at t = 1 are limits of neighbours, no special-casing
    v1 = tr.forward_h_dp(BUMP, D7, 1.0, 2)
    near = tr.forward_h_dp(BUMP, D7, 1.0 + 1e-7, 2)
    assert abs(v1 - near) < 1e-5


# ---------------------------------------------------------------------------
# harmonic route


def test_forward_harmonic_m0_reduces_to_radial():
    for t in (0.5, 1.1):
        a = tr.forward_harmonic(BUMP, D5, 0, t)
        b = tr.forward_radial(BUMP, D5, t)
        assert a == pytest.approx(b, rel=1e-13)


def test_phi_closed_form_n3_m1():
    assert relerr(tr.phi_harmonic(ONE, D3, 1, 0.8), REF["phi_n3_m1_const1_t0_8"]) < 1e-13
    assert relerr(tr.phi_harmonic(ONE, D3, 1, 1.25), REF["phi_n3_m1_const1_t1_25"]) < 1e-13


def test_const_Kmn_reference_values():
    assert relerr(tr.const_Kmn(D3, 1), REF["const_n3_m1"]) < 1e-14
    assert relerr(tr.const_Kmn(D3, 2), REF["const_n3_m2"]) < 1e-14
    assert relerr(tr.const_Kmn(D5, 1), REF["const_n5_m1"]) < 1e-14
    # m = 0 degenerates to the radial front constant
    assert tr.const_Kmn(D3, 0) == pytest.approx(tr.omega(2) / tr.omega(3), rel=1e-14)


def test_harmonic_two_route_consistency():
    # g_m by Gegenbauer quadrature vs const * D^m phi: independent constants,
    # kernels, and integrands
    for dim, m in ((D3, 1), (D3, 2), (D5, 1)):
        H = tr.HarmonicForwardData(BUMP, dim, m)
        for t in (0.55, 0.95, 1.3):
            assert abs(H.h_from_phi(t) - H.h(t)) <= 1e-8 * max(1.0, abs(H.h(t)))


def test_phi_dp_order_cap():
    with pytest.raises(ValueError):
        tr.phi_harmonic_dp(BUMP, D3, 1, 0.9, 2)  # m + k = 1


def test_smt_profile_wrapper():
    prof = tr.SmtProfile(BUMP, D5)
    t = 0.85
    assert prof.h(t) == pytest.approx(tr.forward_h(BUMP, D5, t), rel=1e-14)
    assert prof.g(t) == pytest.approx(tr.forward_radial(BUMP, D5, t), rel=1e-14)
    assert prof.dp_h(t, 1) == pytest.approx(tr.forward_h_dp(BUMP, D5, t, 1), rel=1e-14)
    assert prof.dim.k == 1
    with pytest.raises(ValueError):
        prof.dp_h(t, 2)
    # compact support in (0, 2) at both ends
    assert prof.h(0.05) == 0.0
    assert prof.h(1.95) == 0.0
