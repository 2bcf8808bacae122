"""Forward transform: closed-form anchors, cross-quadrature agreement,
analytic kernel derivatives, and the harmonic route against its Gegenbauer
reference."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from sphmean import exactmath as em
from sphmean import inverse as inv
from sphmean import transform as tr
from sphmean import ucp

from _oracles import PolynomialProfile, const_Kmn, funk_hecke_forward, gegenbauer_forward_h
from _reference import REFERENCE as REF


def relerr(got, want):
    return abs(got - want) / max(1.0, abs(want))


D3, D5, D7 = tr.Dimension(3), tr.Dimension(5), tr.Dimension(7)
ONE = PolynomialProfile([1.0])
BUMP = tr.BumpProfile(0.55, 0.25)
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# geometry pieces


def test_dimension_validation():
    assert tr.Dimension(3).k == 0
    assert tr.Dimension(7).k == 2
    with pytest.raises(ValueError):
        tr.Dimension(4)
    with pytest.raises(ValueError):
        tr.Dimension(1)
    # n must be an integer: 5.5 % 2 is 1.5, and 5.0 would reach range(k)
    for n in (5.5, 5.0, "5", None):
        with pytest.raises(ValueError, match="integer"):
            tr.Dimension(n)
    assert tr.Dimension(np.int64(5)).k == 1


VALUES = [  # (class, fields, repr, fields of an unequal value)
    (tr.Dimension, (7,), "Dimension(n=7)", (9,)),
    (tr.QuadratureRule, (16, 3), "QuadratureRule(nodes_per_panel=16, panels=3)", (16, 4)),
    (inv.InversionConfig, (60, 61, 1e-8),
     "InversionConfig(n_unknowns=60, n_collocation=61, svd_cutoff=1e-08)", (60, 61, 1e-6)),
    (ucp.UcpSpec, (5, 0.2, 6, (0.6, 0.15)), "UcpSpec(n=5, epsilon=0.2, m=6, bump=(0.6, 0.15))",
     (5, 0.2, 7, (0.6, 0.15))),
]


@pytest.mark.parametrize("cls, fields, text, other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_config_values_behave_as_frozen_dataclasses(cls, fields, text, other):
    # equality, hash and repr by the fields in order, refused assignment, and
    # pickle and copy round trips, as the frozen dataclasses these were
    value = cls(*fields)
    assert value == cls(*fields) and not value != cls(*fields)
    assert hash(value) == hash(cls(*fields)) == hash(fields)
    assert value != cls(*other) and value != fields
    assert {value: 1}[cls(*fields)] == 1
    assert repr(value) == text
    name = next(iter(vars(value)))
    with pytest.raises(AttributeError):
        setattr(value, name, other[0])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, name, other[0])


def test_omega_values():
    assert tr.omega(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert tr.omega(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert tr.omega(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-14)


def test_q_kernel_anchors():
    def q_kernel(t, u):  # Q itself: row 0 of the kernels at K = 1
        return float(tr._dp_q_kernels(1, (0,), t, u)[0])

    assert q_kernel(1.0, 1.0) == pytest.approx(3.0)
    assert q_kernel(0.37, 1 - 0.37) == pytest.approx(0.0, abs=1e-15)
    assert q_kernel(0.37, 1 + 0.37) == pytest.approx(0.0, abs=1e-15)
    t, u = 0.9, 1.2
    expanded = 2 * (u * u + 1) * t * t - t ** 4 - (1 - u * u) ** 2
    assert q_kernel(t, u) == pytest.approx(expanded, rel=1e-14)


def test_quadrature_rule_validation_and_exactness():
    with pytest.raises(ValueError):
        tr.QuadratureRule(1, 4)
    # a float size would fail deep inside _gauss_nodes or np.linspace
    for args, name in (((32.0, 8), "nodes_per_panel"), ((32, 8.0), "panels"),
                       (("32", 8), "nodes_per_panel")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            tr.QuadratureRule(*args)
    assert tr.QuadratureRule(np.int64(4), np.int64(2)).integrate(lambda x: x ** 7, 0.0, 1.0) \
        == pytest.approx(1 / 8, rel=1e-14)
    # degree-7 polynomial integrated exactly by 32-node Gauss
    q = tr.QuadratureRule(32, 2)
    val = q.integrate(lambda x: x ** 7 - 3 * x ** 2, 0.0, 2.0)
    assert val == pytest.approx(2 ** 8 / 8 - 8.0, rel=1e-14)
    assert q.integrate(lambda x: x, 1.0, 1.0) == 0.0


def test_integrate_is_one_row_of_integrate_rows(monkeypatch):
    rng = np.random.default_rng(5)
    fn = lambda u: np.exp(-u) * np.sin(7 * u)
    for rule in (tr.QuadratureRule(2, 1), tr.QuadratureRule(5, 3), tr.DEFAULT_QUAD,
                 tr.QuadratureRule(32, 96)):
        a, b = rng.uniform(-2.0, 2.0, (2, 300))
        b[:10] = a[:10]  # empty and reversed intervals integrate to 0
        rows = rule.integrate_rows(fn, lambda rows, u, f_u: f_u, a, b)
        got = [rule.integrate(fn, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got), rows)
    calls = []
    real = tr.QuadratureRule.integrate_rows
    monkeypatch.setattr(tr.QuadratureRule, "integrate_rows",
                        lambda self, *args: calls.append(args) or real(self, *args))
    tr.DEFAULT_QUAD.integrate(fn, 0.0, 1.0)
    assert len(calls) == 1


GAUSS_SIZES = [*range(2, 301), 400, 512]


def test_gauss_rule_integrates_every_legendre_polynomial_below_degree_2n():
    # sum_i w_i P_j(x_i) = 2 delta_j0 for every j <= 2n - 1, on every rule at
    # once: P_j by the three-term recurrence on all the nodes, summed per
    # rule.  The rules read at most 4.7 eps (numpy's leggauss: about 260 eps,
    # at n = 400)
    rules = [tr._gauss_nodes(n) for n in GAUSS_SIZES]
    for n, (x, w) in zip(GAUSS_SIZES, rules):
        assert len(x) == len(w) == n
        assert np.all(np.diff(x) > 0) and np.all(np.abs(x) < 1.0) and np.all(w > 0), n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), n
        assert n % 2 == 0 or x[n // 2] == 0.0, n
    x, w = (np.concatenate(parts) for parts in zip(*rules))
    starts = np.cumsum([0] + GAUSS_SIZES[:-1])
    p0, p1 = np.ones_like(x), x
    sums = [np.add.reduceat(w, starts) - 2.0, np.add.reduceat(w * x, starts)]
    for j in range(1, 2 * max(GAUSS_SIZES) - 1):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        sums.append(np.add.reduceat(w * p1, starts))
    exact = np.arange(len(sums))[:, None] < 2 * np.array(GAUSS_SIZES)
    assert np.max(np.abs(np.array(sums)[exact])) <= 10 * EPS


def _mpmath_gauss_half(mpmath, n, start):
    """Nodes x >= 0 and weights of the n-point rule at 40 digits, from the
    float nodes `start`: one Newton step on the recurrence for P_(n-1) and
    P_n, then 2 / ((1 - x^2) P_n'(x)^2) at the new node, with P_n' moved
    there by P_n'' from Legendre's equation.  Both are off by the square of
    the start's error; against two Newton steps and a second recurrence pass
    they read within 3.5e-25 relative at n <= 400."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, start.tolist()):
            p0, p1 = mpmath.mpf(1), x
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            dp = n * (p0 - x * p1) / (1 - x * x)
            ddp = (2 * x * dp - n * (n + 1) * p1) / (1 - x * x)
            step = p1 / dp
            nodes.append(x - step)
            weights.append(2 / ((1 - nodes[-1] ** 2) * (dp - step * ddp) ** 2))
    return nodes, weights


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 33, 64, 240, 241, 400])
def test_gauss_rule_against_mpmath(n):
    # nodes within eps / 2 absolute, as leggauss's; weights no worse than
    # leggauss reads, and within 1e-12 relative where leggauss reads up to
    # 5.7e-10 (n = 400)
    mpmath = pytest.importorskip("mpmath")
    from numpy.polynomial.legendre import leggauss

    x, w = tr._gauss_nodes(n)
    ref_x, ref_w = _mpmath_gauss_half(mpmath, n, x[n // 2:])

    def errors(x, w):
        x, w = x[n // 2:], w[n // 2:]
        node = max(abs(float(mpmath.mpf(a) - b)) for a, b in zip(x.tolist(), ref_x))
        weight = max(abs(float((mpmath.mpf(a) - b) / b)) for a, b in zip(w.tolist(), ref_w))
        return node, weight

    node_err, weight_err = errors(x, w)
    assert node_err <= EPS / 2, (n, node_err)
    assert weight_err <= min(errors(*leggauss(n))[1], 1e-12), (n, weight_err)


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
    p = PolynomialProfile([1.0, 0.0, 2.0], r_hi=0.8)  # 1 + 2 r^2
    assert p(0.5) == pytest.approx(1.5)
    assert p(0.85) == 0.0
    j = p.jet(0.5, 2)
    assert j.derivs[1] == pytest.approx(2.0)
    assert j.derivs[2] == pytest.approx(4.0)


def test_derivative_profile_shifts_jets():
    # F^(m) is entry m of the base's jet, at a scalar r and along an array
    base = tr.BumpProfile(0.5, 0.3)
    assert tr.DerivativeProfile(base, 2).support == base.support
    r = np.array([0.25, 0.58, 0.7])
    jb = base.jet(r, 5)
    for m in range(2, 6):
        dm = tr.DerivativeProfile(base, m)
        assert np.array_equal(dm(r), jb.derivs[m])
        assert dm(0.58) == float(jb.derivs[m][1])


# ---------------------------------------------------------------------------
# radial forward transform


def test_forward_h_closed_form_n3():
    # constant profile in n=3: h(t) = (2t - t^2)/4 on (0, 2)
    for t in (0.3, 0.9, 1.0, 1.4, 1.97):
        assert tr.forward_h(ONE, D3, t) == pytest.approx((2 * t - t * t) / 4, rel=1e-13)


def test_forward_radial_and_funk_hecke_closed_form_n3():
    for t in (0.3, 0.9, 1.0):
        assert tr.SmtProfile(ONE, D3).g(t) == pytest.approx((2 - t) / 4, rel=1e-13)
        assert funk_hecke_forward(ONE, D3, t) == pytest.approx((2 - t) / 4, rel=1e-13)


def test_forward_h_closed_form_n5():
    assert relerr(tr.forward_h(ONE, D5, 0.7), REF["h_n5_const1_t0_7"]) < 1e-13
    assert relerr(tr.forward_h(ONE, D5, 1.3), REF["h_n5_const1_t1_3"]) < 1e-13


def test_forward_domain_errors():
    with pytest.raises(ValueError):
        tr.forward_h(ONE, D3, 0.0)
    with pytest.raises(ValueError):
        tr.forward_h(ONE, D3, 2.0)
    with pytest.raises(ValueError):
        tr.SmtProfile(ONE, D3).g(5e-4)  # below division floor


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
                a = tr.SmtProfile(prof, dim).g(float(t))
                b = funk_hecke_forward(prof, dim, float(t))
                assert abs(a - b) <= 1e-9 * max(1e-12, abs(b), abs(a)) + 1e-16


def test_quadrature_doubling_converged():
    q = tr.DEFAULT_QUAD
    for t in (0.4, 0.8, 1.2):
        a = tr.forward_h(BUMP, D7, t, q)
        b = tr.forward_h(BUMP, D7, t, tr.QuadratureRule(q.nodes_per_panel, 2 * q.panels))
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


@pytest.mark.parametrize("K", [1, 2, 3, 10, 24, 49])
def test_kernel_rows_are_within_k_ulps_of_the_exact_rows(K):
    # every order of one float sweep, and row 0 asked alone (the forward_h
    # path), against the same sweep over Fractions (exact: test_exactmath
    # checks it against D^p Q^K up to K = 8), on 100 points with
    # u > |1 - t|.  The power Q^(K-p) carries the rounding of Q K - p times;
    # these points read at most 1.3 K eps, and 1,000 in all 2.0
    rng = np.random.default_rng(2024)
    t = rng.uniform(0.02, 1.98, 100)
    lo = np.abs(1 - t)
    u = lo + (1 - lo) * rng.uniform(0, 1, 100)
    every = tr._dp_q_kernels(K, range(K + 1), t, u)
    alone = tr._dp_q_kernels(K, (0,), t, u)
    exact = [tr._dp_q_kernels(K, range(K + 1), Fraction(a), Fraction(b))
             for a, b in zip(t.tolist(), u.tolist())]
    for p in range(K + 1):
        want = [row[p] for row in exact]
        err = max(abs(float(Fraction(g) - w)) for g, w in zip(every[p].tolist(), want))
        assert err <= 4 * K * EPS * max(abs(float(w)) for w in want), (K, p)
    # order 0 is the chain's last power: asked alone it has the same bits,
    # and asking for it moves no other row
    assert alone.tobytes() == every[:1].tobytes()
    assert tr._dp_q_kernels(K, range(1, K + 1), t, u).tobytes() == every[1:].tobytes()


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


@pytest.mark.parametrize("n", [3, 5, 9, 21, 41, 101])
def test_forward_harmonic_m0_reduces_to_radial(n):
    # radial data is the m = 0 harmonic, bit for bit: h, g, and every D^p h
    # as c_n D^p phi_0
    dim, t = tr.Dimension(n), np.linspace(0.05, 1.95, 2001)
    radial, harmonic = tr.SmtProfile(BUMP, dim), tr.HarmonicForwardData(BUMP, dim, 0)
    assert isinstance(radial, tr.HarmonicForwardData)
    assert harmonic.h(t).tobytes() == radial.h(t).tobytes()
    assert harmonic.g(t).tobytes() == radial.g(t).tobytes()
    orders = range(dim.k + 1)
    phi = tr._front_constant(n) * tr.phi_harmonic_dp(BUMP, dim, 0, t, orders)
    assert phi.tobytes() == harmonic.dp_h(t, orders).tobytes()
    assert phi.tobytes() == tr.forward_h_dp(BUMP, dim, t, orders).tobytes()


def test_phi_closed_form_n3_m1():
    phi = lambda t: tr.phi_harmonic_dp(ONE, D3, 1, t, 0)
    assert relerr(phi(0.8), REF["phi_n3_m1_const1_t0_8"]) < 1e-13
    assert relerr(phi(1.25), REF["phi_n3_m1_const1_t1_25"]) < 1e-13


def test_const_Kmn_reference_values():
    assert relerr(const_Kmn(D3, 1), REF["const_n3_m1"]) < 1e-14
    assert relerr(const_Kmn(D3, 2), REF["const_n3_m2"]) < 1e-14
    assert relerr(const_Kmn(D5, 1), REF["const_n5_m1"]) < 1e-14
    # m = 0 degenerates to the radial front constant
    assert const_Kmn(D3, 0) == pytest.approx(tr.omega(2) / tr.omega(3), rel=1e-14)


def test_harmonic_constant_is_const_Kmn():
    # h_m is K_(n,m) D^m phi_m: its constant against the Gamma-function form
    # (worst 6.7e-16), and at m = 0 the radial constant itself
    for n in (3, 5, 9, 21, 41):
        dim = tr.Dimension(n)
        for m in range(7):
            ratio = tr.forward_harmonic_h(BUMP, dim, m, 1.0) / tr.phi_harmonic_dp(BUMP, dim, m, 1.0, m)
            assert relerr(ratio, const_Kmn(dim, m)) < 1e-14, (n, m)
        h0 = tr.forward_harmonic_h(BUMP, dim, 0, 1.0)
        assert h0 == tr._front_constant(n) * tr.phi_harmonic_dp(BUMP, dim, 0, 1.0, 0)


@pytest.mark.parametrize("bump", [BUMP, tr.BumpProfile(0.45, 0.45)], ids=["inner", "from-0"])
def test_harmonic_h_matches_the_gegenbauer_route(bump):
    # h_m by D^m phi_m against the Funk-Hecke integral with its Gegenbauer
    # kernel, on the same rule: the integrands are equal as functions of u,
    # so only rounding differs (worst 4.7e-15 of max|h|).  The second bump's
    # support starts at u = 0, where the weight u^(1-m) is largest
    quad = tr.QuadratureRule(32, 64)
    ts = np.linspace(0.05, 1.95, 39)
    for n in (3, 5, 9, 21, 41):
        dim = tr.Dimension(n)
        for m in (1, 2, 3, 6):
            got = tr.forward_harmonic_h(bump, dim, m, ts, quad)
            want = gegenbauer_forward_h(bump, dim, m, ts, quad)
            assert _sup_relative(got, want) < 1e-13, (n, m)


@pytest.mark.parametrize("n, m", [(3, 1), (5, 2), (9, 3), (21, 2), (41, 6)])
def test_harmonic_dp_h_is_h_then_scaled_phi_dp(n, m):
    # D^0 h_m is h_m bit for bit; every order p <= k is K_(n,m) D^(m+p) phi_m
    # against the Gamma-function constant (worst 8.8e-16), and k caps p
    dim, t = tr.Dimension(n), np.linspace(0.05, 1.95, 391)
    data, orders = tr.HarmonicForwardData(BUMP, dim, m), range(dim.k + 1)
    got = data.dp_h(t, orders)
    assert got[0].tobytes() == data.h(t).tobytes()
    phi = const_Kmn(dim, m) * tr.phi_harmonic_dp(BUMP, dim, m, t, [m + p for p in orders])
    for p in orders:
        assert _sup_relative(got[p], phi[p]) < 1e-14, p
    with pytest.raises(ValueError):
        data.dp_h(t, dim.k + 1)


@pytest.mark.parametrize("n, m", [(5, 1), (5, 2), (7, 3), (9, 2), (21, 4)])
def test_harmonic_dp_h_1_is_a_central_difference_of_the_gegenbauer_route(n, m):
    # D h_m = (1/t) dh_m/dt against the independent Funk-Hecke route, step
    # 1e-5: the step's error reads at most 6.3e-9 of max |D h_m| (n = 21)
    dim, t, step = tr.Dimension(n), np.linspace(0.05, 1.95, 391), 1e-5
    got = tr.HarmonicForwardData(BUMP, dim, m).dp_h(t, 1)
    diff = (gegenbauer_forward_h(BUMP, dim, m, t + step)
            - gegenbauer_forward_h(BUMP, dim, m, t - step)) / (2 * step * t)
    assert _sup_relative(got, diff) < 1e-8


def test_phi_dp_order_cap():
    with pytest.raises(ValueError):
        tr.phi_harmonic_dp(BUMP, D3, 1, 0.9, 2)  # m + k = 1


def test_smt_profile_wrapper():
    prof = tr.SmtProfile(BUMP, D5)
    t = 0.85
    assert prof.h(t) == pytest.approx(tr.forward_h(BUMP, D5, t), rel=1e-14)
    assert prof.g(t) == pytest.approx(tr.forward_h(BUMP, D5, t) / t ** 3, rel=1e-14)
    assert prof.dp_h(t, 1) == pytest.approx(tr.forward_h_dp(BUMP, D5, t, 1), rel=1e-14)
    assert prof.dim.k == 1
    with pytest.raises(ValueError):
        prof.dp_h(t, 2)
    # compact support in (0, 2) at both ends
    assert prof.h(0.05) == 0.0
    assert prof.h(1.95) == 0.0
