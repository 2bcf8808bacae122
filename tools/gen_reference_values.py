#!/usr/bin/env python3
"""Generate high-precision reference values used as frozen constants in the tests.

Every value here is computed with mpmath/sympy only (no imports from the
package under test), so the test suite compares two genuinely independent
routes.  The operator D = (1/x) d/dx is realized here as the *ordinary*
derivative in the variable tau = x^2/2 and evaluated by mpmath's arbitrary
precision finite differences -- independent of both the closed-form sums and
the exact coefficient-table recurrence used inside the package.

Run and paste the printed block into the tests when regenerating.
"""

import mpmath as mp
import sympy as sp

mp.mp.dps = 80


def Dp(fn, x0, p):
    """(1/x d/dx)^p fn at x0, via d^p/dtau^p with tau = x^2/2."""
    tau0 = mp.mpf(x0) ** 2 / 2
    sign = 1
    if mp.mpf(x0) < 0:
        # x = -sqrt(2 tau) branch for negative evaluation points
        g = lambda tau: fn(-mp.sqrt(2 * tau))
    else:
        g = lambda tau: fn(mp.sqrt(2 * tau))
    return mp.diff(g, tau0, p, direction=0)


def f(label, value, dps=22):
    print(f'    "{label}": {mp.nstr(mp.mpf(value), dps)},')


def main():
    print("REFERENCE = {")

    # --- normalized spherical Bessel, first kind: j_a(x) = Gamma(a+1) (2/x)^a J_a(x)
    def jnorm(k, xx):
        a = mp.mpf(k) + mp.mpf(1) / 2
        return mp.gamma(a + 1) * (2 / mp.mpf(xx)) ** a * mp.besselj(a, xx)

    f("j_k1_x2", jnorm(1, 2.0))
    f("j_k3_x4_7", jnorm(3, 4.7))
    f("j_k8_x3_1", jnorm(8, 3.1))  # below the series/closed switch for k=8

    def ynorm(k, xx):
        # second-kind normalization matching raw/c_k: expanding the Rayleigh
        # form shows it equals MINUS Gamma(a+1) (2/x)^a Y_a(x)
        a = mp.mpf(k) + mp.mpf(1) / 2
        return -mp.gamma(a + 1) * (2 / mp.mpf(xx)) ** a * mp.bessely(a, xx)

    f("y_k1_x2", ynorm(1, 2.0))
    f("y_k2_x5_3", ynorm(2, 5.3))

    # --- closed-form D^p kernels
    sinc = lambda xx: mp.sin(xx) / xx
    cosc = lambda xx: mp.cos(xx) / xx
    f("dp_sinc_p3_x1_7", Dp(sinc, mp.mpf("1.7"), 3))
    f("dp_sinc_p10_x0_3", Dp(sinc, mp.mpf("0.3"), 10))
    f("dp_cosc_p2_x0_9", Dp(cosc, mp.mpf("0.9"), 2))
    f("dp_cosc_p7_x0_5", Dp(cosc, mp.mpf("0.5"), 7))
    f("dp_inv_m3_d2_t0_7", Dp(lambda tt: 1 / (tt * (tt + 1) ** 2), mp.mpf("0.7"), 3))
    f("dp_inv_m2_d5_tm0_4", Dp(lambda tt: 1 / (tt * (tt + 1) ** 5), mp.mpf("-0.4"), 2))

    # --- Bessel zeros (zeros of J_{k+1/2})
    f("zero_k1_i1", mp.besseljzero(mp.mpf(3) / 2, 1))
    f("zero_k2_i1", mp.besseljzero(mp.mpf(5) / 2, 1))
    f("zero_k8_i3", mp.besseljzero(mp.mpf(17) / 2, 3))

    # --- Gegenbauer
    f("gegen_m3_a1_5_x0_4", sp.N(sp.gegenbauer(3, sp.Rational(3, 2), sp.Rational(2, 5)), 40))
    f("gegen_m5_a2_5_x0_8", sp.N(sp.gegenbauer(5, sp.Rational(5, 2), sp.Rational(4, 5)), 40))

    # --- jet-engine oracle: derivatives of the standard bump at a sample point
    r = sp.Symbol("r")
    c, w = sp.Rational(11, 20), sp.Rational(1, 4)  # center 0.55, width 0.25
    y = (r - c) / w
    bump = sp.exp(-1 / (1 - y**2))
    pt = sp.Rational(31, 50)  # r = 0.62
    print('    "bump_derivs_r0_62": [')
    expr = bump
    for q in range(7):
        val = sp.N(expr.subs(r, pt), 40)
        print(f"        {mp.nstr(mp.mpf(str(val)), 22)},")
        expr = sp.diff(expr, r)
    print("    ],")

    t = sp.Symbol("t", positive=True)
    print('    "sinc_derivs_t1_7": [')
    expr = sp.sin(t) / t
    for q in range(5):
        val = sp.N(expr.subs(t, sp.Rational(17, 10)), 40)
        print(f"        {mp.nstr(mp.mpf(str(val)), 22)},")
        expr = sp.diff(expr, t)
    print("    ],")

    # --- forward transform closed forms (f == 1 on [0,1), smoothness waived)
    u = sp.Symbol("u", positive=True)
    Q = 2 * (u**2 + 1) * t**2 - t**4 - (1 - u**2) ** 2
    h5_lo = sp.Rational(3, 16) * sp.integrate(u * Q, (u, 1 - t, 1))  # t < 1
    h5_hi = sp.Rational(3, 16) * sp.integrate(u * Q, (u, t - 1, 1))  # t > 1
    f("h_n5_const1_t0_7", sp.N(h5_lo.subs(t, sp.Rational(7, 10)), 40))
    f("h_n5_const1_t1_3", sp.N(h5_hi.subs(t, sp.Rational(13, 10)), 40))

    phi_lo = sp.integrate(Q, (u, 1 - t, 1))
    phi_hi = sp.integrate(Q, (u, t - 1, 1))
    f("phi_n3_m1_const1_t0_8", sp.N(phi_lo.subs(t, sp.Rational(4, 5)), 40))
    f("phi_n3_m1_const1_t1_25", sp.N(phi_hi.subs(t, sp.Rational(5, 4)), 40))

    # --- constant linking h_{m,l} and D^m phi_{m,l}
    def const_kmn(n, m):
        k = sp.Rational(n - 3, 2)
        a = sp.Rational(n - 2, 2)
        K = (
            (-1) ** m
            * sp.gamma(a + sp.Rational(1, 2))
            * sp.gamma(m + 2 * a)
            / (2**m * sp.factorial(m) * sp.gamma(2 * a) * sp.gamma(m + a + sp.Rational(1, 2)))
        )
        omega_nm1 = 2 * sp.pi ** sp.Rational(n - 1, 2) / sp.gamma(sp.Rational(n - 1, 2))
        omega_n = 2 * sp.pi ** sp.Rational(n, 2) / sp.gamma(sp.Rational(n, 2))
        cm1 = sp.binomial(m + 2 * a - 1, m)
        return K * (-1) ** m * omega_nm1 / (4 ** (m + k) * omega_n * cm1)

    print(f"    # const(3,1) exact: {sp.nsimplify(sp.N(const_kmn(3, 1), 30))}")
    f("const_n3_m1", sp.N(const_kmn(3, 1), 40))
    f("const_n3_m2", sp.N(const_kmn(3, 2), 40))
    f("const_n5_m1", sp.N(const_kmn(5, 1), 40))

    # --- M_k identity left side at k=1, lambda=2, t=0.7 (pins operator conventions)
    # dp_sinc(1, x) = D(sin x/x) = (x cos x - sin x)/x^3
    lam = mp.mpf(2)
    rawj1 = lambda xx: (xx * mp.cos(xx) - mp.sin(xx)) / xx**3

    def term(p):
        expr = lambda tt: (1 + tt) ** (p + 1) * rawj1(lam * (1 + tt)) / tt
        return (-1) ** p * Dp(expr, mp.mpf("0.7"), p)  # C(1,0)=C(1,1)=1

    f("mk_lhs_k1_lam2_t0_7", term(0) + term(1))

    # --- derivatives of the (0.6, 0.15) bump, by central differences in mp
    def bump_06(x):
        y = (x - mp.mpf("0.6")) / mp.mpf("0.15")
        if abs(y) >= 1:
            return mp.mpf(0)
        return mp.e ** (-1 / (1 - y * y))

    print("    # bump (0.6, 0.15): F'' at 0.62 and F^(6) at 0.58")
    f("bump_0_6_0_15_d2_at_0_62", mp.diff(bump_06, mp.mpf("0.62"), 2))
    f("bump_0_6_0_15_d6_at_0_58", mp.diff(bump_06, mp.mpf("0.58"), 6))

    print("}")


if __name__ == "__main__":
    main()
