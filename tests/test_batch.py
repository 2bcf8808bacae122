"""Batched entry points: every forward entry point given an array of t, the
kernel identity given arrays of (lam, t), and the spectral transforms given
an array of lam, return exactly their elementwise scalar calls, bit for
bit."""

import os
import platform
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

from sphmean import cli
from sphmean import inverse as inv
from sphmean import rangecheck as rc
from sphmean import specfun as sf
from sphmean import spectral as sp
from sphmean import transform as tr

from _oracles import PerturbedH, _h_prime, bump_h, funk_hecke_forward, invert_radial_n3

# 1024 nodes per row, so a block holds BLOCK_NODES // 1024 rows
QUAD = tr.QuadratureRule(32, 32)
ROWS = tr.BLOCK_NODES // (QUAD.nodes_per_panel * QUAD.panels)
# u-support (0.3, 0.8): rows with t <= 0.2 or t >= 1.8 have nothing to integrate
BUMP = tr.BumpProfile(0.55, 0.25)

# rows with |1 - t| <= 0.3 all integrate over the u-interval [0.3, 0.8]
T_ARRAYS = {
    "several blocks": np.linspace(0.05, 1.95, 2 * ROWS + 3),
    "all empty": np.array([0.05, 0.1, 1.85, 1.9]),
    "length one": np.array([0.7]),
    "unsorted, equal intervals apart": np.array(
        [1.0, 0.1, 0.9, 1.5, 1.2, 1.9, 0.75, 0.5, 1.0, 1.5, 0.15, 0.8, 0.4]),
    "one interval over blocks": np.concatenate(
        [np.linspace(0.72, 1.0, ROWS + 2), [0.1], np.linspace(1.01, 1.28, ROWS + 1)]),
}


def _radial(n):
    dim = tr.Dimension(n)
    data = tr.SmtProfile(BUMP, dim, QUAD)
    yield "forward_h", lambda t: tr.forward_h(BUMP, dim, t, QUAD)
    yield "funk_hecke_forward", lambda t: funk_hecke_forward(BUMP, dim, t, QUAD)
    yield "SmtProfile.h", data.h
    yield "SmtProfile.g", data.g
    for p in range(dim.k + 1):
        yield f"forward_h_dp p={p}", lambda t, p=p: tr.forward_h_dp(BUMP, dim, t, p, QUAD)
        yield f"SmtProfile.dp_h p={p}", lambda t, p=p: data.dp_h(t, p)


def _harmonic(n, m):
    dim = tr.Dimension(n)
    data = tr.HarmonicForwardData(BUMP, dim, m, QUAD)
    yield "forward_harmonic_h", lambda t: tr.forward_harmonic_h(BUMP, dim, m, t, QUAD)
    yield "HarmonicForwardData.h", data.h
    yield "HarmonicForwardData.g", data.g
    for p in range(m + dim.k + 1):
        yield f"phi_harmonic_dp p={p}", lambda t, p=p: tr.phi_harmonic_dp(BUMP, dim, m, t, p, QUAD)
        yield f"HarmonicForwardData.phi_dp p={p}", lambda t, p=p: data.phi_dp(t, p)


def _check(fn, name):
    for label, ts in T_ARRAYS.items():
        batch = fn(ts)
        singles = [fn(float(t)) for t in ts]
        assert all(type(v) is float for v in singles), (name, label)
        assert isinstance(batch, np.ndarray) and batch.shape == ts.shape, (name, label)
        assert np.array_equal(batch, np.array(singles)), (name, label)
    assert np.all(fn(T_ARRAYS["all empty"]) == 0.0), name


def test_arrays_span_blocks_and_empty_rows():
    ts = T_ARRAYS["several blocks"]
    a, b = tr._u_range(BUMP, ts)
    assert ts.size > 2 * ROWS
    assert np.any(b <= a) and np.any(b > a)
    ts = T_ARRAYS["unsorted, equal intervals apart"]
    a, b = tr._u_range(BUMP, ts)
    assert np.any(np.diff(ts) < 0) and np.any(b <= a)
    assert a[0] == a[2] == a[4] and a[3] == a[7] == a[9] and b > a[3]
    ts = T_ARRAYS["one interval over blocks"]
    a, b = tr._u_range(BUMP, ts)
    live = b > a
    assert np.all(a[live] == a[0]) and live.sum() > 2 * ROWS and not live.all()


def _adjacent_runs(a, b):
    """Runs of neighbouring live rows on one interval, counted row by row."""
    runs, last = 0, None
    for lo, hi in zip(a.tolist(), np.broadcast_to(b, a.shape).tolist()):
        if hi > lo:
            runs += (lo, hi) != last
            last = (lo, hi)
    return runs


def test_factor_is_evaluated_once_per_interval_run():
    # the CLI's 2001-point grid: every band row shares one interval
    quad = tr.DEFAULT_QUAD
    per_row = quad.nodes_per_panel * quad.panels
    seen = []

    def factor(u):
        seen.append(u.shape)
        return u * BUMP(u)

    for ts in (np.linspace(0.05, 1.95, 2001), T_ARRAYS["unsorted, equal intervals apart"]):
        a, b = tr._u_range(BUMP, ts)
        seen.clear()
        got = quad.integrate_rows(factor, lambda rows, u, f_u: f_u, a, b)
        assert sum(rows for rows, _ in seen) == _adjacent_runs(a, b) < np.sum(b > a)
        assert all(nodes == per_row and rows * nodes <= tr.BLOCK_NODES for rows, nodes in seen)
        want = [quad.integrate(lambda u: u * BUMP(u), lo, b) for lo in a.tolist()]
        assert np.array_equal(got, np.array(want))
    seen.clear()
    a, b = tr._u_range(BUMP, T_ARRAYS["all empty"])
    assert np.all(quad.integrate_rows(factor, lambda rows, u, f_u: f_u, a, b) == 0.0)
    assert seen == []


@pytest.mark.parametrize("n", [5, 9, 25])
def test_order_sequences_equal_their_scalar_orders(n):
    dim = tr.Dimension(n)
    k = dim.k
    sequences = [tuple(range(1, k + 1)), (k, 0, 1, k)]
    for ts in (T_ARRAYS["several blocks"], T_ARRAYS["unsorted, equal intervals apart"]):
        for orders in sequences:
            rows = tr.forward_h_dp(BUMP, dim, ts, orders, QUAD)
            assert rows.shape == (len(orders),) + ts.shape
            for row, p in zip(rows, orders):
                assert np.array_equal(row, tr.forward_h_dp(BUMP, dim, ts, p, QUAD)), (orders, p)
    one = tr.forward_h_dp(BUMP, dim, 0.9, range(k + 1), QUAD)
    assert one.shape == (k + 1,)
    assert np.array_equal(one, [tr.forward_h_dp(BUMP, dim, 0.9, p, QUAD) for p in range(k + 1)])
    assert one[0] == tr.forward_h(BUMP, dim, 0.9, QUAD)


def test_phi_order_sequences_equal_their_scalar_orders():
    dim, m = tr.Dimension(5), 2
    data = tr.HarmonicForwardData(BUMP, dim, m, QUAD)
    ts = T_ARRAYS["several blocks"]
    for orders in ((1, 2, 3), (0, 1, 2, 3), (3, 0, 3)):
        rows = data.phi_dp(ts, orders)
        for row, p in zip(rows, orders):
            assert np.array_equal(row, data.phi_dp(ts, p)), (orders, p)


def test_order_sequences_are_checked():
    dim = tr.Dimension(9)
    ts = np.array([0.5, 1.0])
    for call in (lambda p: tr.forward_h_dp(BUMP, dim, ts, p),
                 lambda p: tr.phi_harmonic_dp(BUMP, dim, 2, ts, p)):
        with pytest.raises(ValueError, match="no order"):
            call(())
        with pytest.raises(ValueError, match="got 9"):
            call((1, 9))
        with pytest.raises(ValueError, match="got -1"):
            call([-1])


@pytest.mark.parametrize("n", [3, 5, 9, 25])
def test_radial_entry_points_match_scalar_calls(n):
    for name, fn in _radial(n):
        _check(fn, name)


@pytest.mark.parametrize("n", [3, 5, 9, 25])
@pytest.mark.parametrize("m", [0, 2])
def test_harmonic_entry_points_match_scalar_calls(n, m):
    for name, fn in _harmonic(n, m):
        _check(fn, name)


def test_rows_equal_the_plain_scalar_rule():
    # each row of the batched core is the one-interval rule, bit for bit,
    # on the CLI's 2001-point grid (where numpy's square and libm pow
    # disagree in the last bit for some t)
    dim = tr.Dimension(5)
    c = tr._front_constant(dim.n)
    ts = np.linspace(0.05, 1.95, 2001)

    def plain(t, kernel):
        a, b = max(abs(1.0 - t), BUMP.support[0]), min(1.0, BUMP.support[1])
        return c * tr.DEFAULT_QUAD.integrate(lambda u: u * BUMP(u) * kernel(t, u), a, b)

    want_h = [plain(t, lambda t, u: tr.q_kernel(t, u) ** dim.k) for t in ts.tolist()]
    want_dp = [plain(t, lambda t, u: tr._dp_q_kernels(dim.k, (1,), t, u)[0]) for t in ts.tolist()]
    assert np.array_equal(tr.forward_h(BUMP, dim, ts), np.array(want_h))
    assert np.array_equal(tr.forward_h_dp(BUMP, dim, ts, 1), np.array(want_dp))


def test_empty_array_gives_empty_result():
    empty = np.array([])
    dim = tr.Dimension(5)
    assert tr.forward_h(BUMP, dim, empty).shape == (0,)
    assert tr.forward_h_dp(BUMP, dim, empty, 1).shape == (0,)
    assert tr.forward_harmonic_h(BUMP, dim, 2, empty).shape == (0,)


def test_array_with_a_point_outside_domain_is_refused():
    with pytest.raises(ValueError, match="t must lie in"):
        tr.forward_h(BUMP, tr.Dimension(3), np.array([0.5, 2.0]))
    with pytest.raises(ValueError, match="division guard"):
        tr.SmtProfile(BUMP, tr.Dimension(3)).g(np.array([0.5, 1e-4]))


def _range_data():
    dim = tr.Dimension(9)
    fwd = tr.SmtProfile(BUMP, dim, QUAD)
    yield "SmtProfile.dp_h", fwd.dp_h, dim.k
    yield "HarmonicForwardData.phi_dp", tr.HarmonicForwardData(
        BUMP, tr.Dimension(5), 2, QUAD).phi_dp, 3
    yield "SampledH.dp_h", rc.SampledH.from_function(fwd.h, degree=64).dp_h, 8
    yield "JetH.dp_h", bump_h(1.1, 0.4).dp_h, 8
    yield "PerturbedH.dp_h", PerturbedH(fwd, 0.1).dp_h, dim.k


def test_range_data_order_sequences_equal_their_scalar_orders():
    # the one protocol of the range check: dp_h(t, orders) is the stack of
    # the per-order calls, bit for bit, for a scalar t and for an array
    ts = T_ARRAYS["unsorted, equal intervals apart"]
    for name, dp_h, top in _range_data():
        for orders in (tuple(range(top + 1)), (top, 0, 1, top)):
            rows = dp_h(ts, orders)
            assert rows.shape == (len(orders),) + ts.shape, name
            assert np.array_equal(rows, np.array([dp_h(ts, p) for p in orders])), (name, orders)
            one = dp_h(0.9, orders)
            assert np.array_equal(one, np.array([dp_h(0.9, p) for p in orders])), (name, orders)


def test_range_check_reads_the_data_once(monkeypatch):
    # apply_Lk asks for every order in one call: one forward sweep for the
    # radial residual, one phi sweep for the harmonic check at m = 2
    calls = []
    for name in ("forward_h_dp", "phi_harmonic_dp"):
        def counted(*args, fn=getattr(tr, name), name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(tr, name, counted)
    rc.range_residual(tr.SmtProfile(BUMP, tr.Dimension(9)))
    assert calls == ["forward_h_dp"]
    calls.clear()
    rc.general_range_check(tr.HarmonicForwardData(BUMP, tr.Dimension(5), 2), 2)
    assert calls == ["phi_harmonic_dp"]


def test_range_data_wrappers_match_scalar_calls():
    ts = np.linspace(0.05, 1.95, 13)
    base = bump_h(1.1, 0.4)
    chain = rc.AntiDerivativeChain(base.h, 2)
    perturbed = PerturbedH(tr.SmtProfile(BUMP, tr.Dimension(5)), 0.1)
    for name, fn in (("JetH.dp_h", lambda t: base.dp_h(t, 2)),
                     ("AntiDerivativeChain.phi", chain.phi),
                     ("AntiDerivativeChain.dp_phi", lambda t: chain.dp_phi(t, 1)),
                     ("PerturbedH.h", perturbed.h),
                     ("PerturbedH.dp_h", lambda t: perturbed.dp_h(t, 1))):
        singles = np.array([fn(float(t)) for t in ts])
        assert np.array_equal(fn(ts), singles), name


def test_jet_data_rows_match_scalar_calls():
    # D^p of jet data takes the powers t^(j-2p) per element in Python floats,
    # as a jet at one float base point does
    data = bump_h(1.1, 0.4)
    ts = np.linspace(0.72, 1.48, 201)
    for p in range(7):
        singles = np.array([data.dp_h(float(t), p) for t in ts])
        plain = [sf.d_operator(data._jet_fn(t, max(p, 1)), p) for t in ts.tolist()]
        assert np.array_equal(data.dp_h(ts, p), singles), p
        assert np.array_equal(singles, np.array(plain)), p


def test_data_reads_match_the_per_point_loops():
    # inverse, rangecheck and the CLI read the data in one call on the whole
    # grid; each value equals the per-point loop each of them ran before
    ts = np.linspace(0.05, 1.95, 401)
    csv = cli._CsvH(ts, np.sin(3 * ts) * ts)
    assert np.array_equal(csv.h(ts), np.array([float(csv.h(float(t))) for t in ts]))
    sampled = rc.SampledH.from_function(csv.h, degree=64)
    x, _ = rc._cheb_matrix(64)
    nodes = (0.01 + 1.99) / 2 + (1.99 - 0.01) / 2 * x
    assert np.array_equal(sampled.h(sampled.t_nodes),
                          np.array([csv.h(float(t)) for t in nodes]))

    cfg = inv.InversionConfig(60, 61, 1e-8)
    calls = []

    class Data:
        def __init__(self, fn):
            self.fn = fn

        def h(self, t):
            calls.append(t)
            return self.fn(t)

    def g(t):
        calls.append(t)
        return t * (2.0 - t)

    for n in (3, 5, 9):
        dim = tr.Dimension(n)
        t_grid, _, _, A = inv.forward_matrix(dim, cfg)
        fwd = tr.SmtProfile(BUMP, dim)
        routes = {"h": (Data(fwd.h), [float(fwd.h(float(t))) for t in t_grid]),
                  "g": (g, [float(g(float(t))) * t ** (n - 2) for t in t_grid])}
        for route, (data, loop) in routes.items():
            calls.clear()
            res = inv.invert_radial(data, dim, cfg)
            assert len(calls) == 1, (n, route)
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
            x = Vt[:res.rank].T @ ((U[:, :res.rank].T @ np.array(loop)) / s[:res.rank])
            assert np.array_equal(res.values, x), (n, route)

    r = np.linspace(0.05, 0.95, 181)
    data = tr.SmtProfile(BUMP, tr.Dimension(3))
    hp = _h_prime(data)
    loop = [2.0 * hp(1.0 - float(rr)) / float(rr) for rr in r]
    assert np.array_equal(invert_radial_n3(data, r), np.array(loop))
    z = lambda t: 0.0  # a scalar answer holds on the whole grid
    assert np.array_equal(invert_radial_n3((z, z), r), np.zeros(r.shape))
    assert np.all(inv.invert_radial(z, tr.Dimension(5), cfg).values == 0.0)


def _kernel_points():
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.5, 20.0, 15)
    t = rng.uniform(0.1, 3.0, 15) * rng.choice([-1.0, 1.0], 15)
    t = np.where(np.abs(t + 1.0) < 0.1, t + 0.5, t)
    # next to t = -1 the float jets cancel and those rows take the 80-digit retry
    near = np.array([-1 + 1e-3, -1 - 1e-3, -1 + 1e-4])
    return np.concatenate([lam, [20.0, 9.0, 0.7]]), np.concatenate([t, near])


def test_kernel_identity_rows_match_scalar_calls(monkeypatch):
    retries = []
    lhs_value = sp._mk_lhs_value

    def counted(k, lam, t):
        retries.append(isinstance(lam, Decimal))
        return lhs_value(k, lam, t)

    monkeypatch.setattr(sp, "_mk_lhs_value", counted)
    lam, t = _kernel_points()
    for k in range(9):
        singles = [sp.mk_residual(k, a, b) for a, b in zip(lam.tolist(), t.tolist())]
        assert all(type(v) is float for v in singles), k
        assert np.array_equal(sp.mk_residual(k, lam, t), np.array(singles)), k
        one = sp.mk_residual(k, lam[-1:], t[-1:])
        assert one.shape == (1,) and one[0] == singles[-1], k
        # each side's rows equal its call on one point
        lhs, rhs = sp._mk_lhs_value(k, lam, t), sp._mk_rhs(k, lam, t, sf._dp_trig_rows)[0]
        points = [(np.array([a]), np.array([b])) for a, b in zip(lam.tolist(), t.tolist())]
        assert np.array_equal(lhs, [sp._mk_lhs_value(k, *pt)[0] for pt in points]), k
        assert np.array_equal(rhs, [sp._mk_rhs(k, *pt, sf._dp_trig_rows)[0][0]
                                    for pt in points]), k
        # the jet side equals jets over one Python-float point each
        plain = [sp._mk_lhs_value(k, a, b) for a, b in zip(lam.tolist(), t.tolist())]
        assert np.array_equal(lhs, np.array(plain)), k
    assert any(retries)


def _mk_rhs_point(k, lam, t):
    """The float closed-form side and its scale at one point, from scalar
    dp_sinc/dp_cosc calls and Python float powers."""
    t1 = sf.dp_sinc(k, lam * t) * sf.dp_cosc(k, lam)
    t2 = sf.dp_cosc(k, lam * t) * sf.dp_sinc(k, lam)
    front = lam ** (2 * k + 1)
    rhs = front * (t1 + t2)
    return (-rhs if k % 2 else rhs), abs(front) * max(abs(t1), abs(t2))


def test_kernel_identity_rhs_rows_equal_the_scalar_route():
    # points near the kernel's zeros or at small arguments fail the float
    # sums' cancellation guard and take the scalar route
    rng = np.random.default_rng(5)
    lam = np.concatenate([rng.uniform(0.5, 40.0, 400), [sf.bessel_zero(3, 2), 1e-3]])
    t = np.concatenate([rng.uniform(-3.0, 3.0, 400), [1.0, 0.2]])
    for k in range(9):
        rhs, scale = sp._mk_rhs(k, lam, t, sf._dp_trig_rows)
        rows = np.array([_mk_rhs_point(k, a, b) for a, b in zip(lam.tolist(), t.tolist())])
        assert np.array_equal(rhs, rows[:, 0]) and np.array_equal(scale, rows[:, 1]), k


def test_kernel_identity_refuses_a_non_finite_residual():
    with pytest.raises(ArithmeticError, match="residual"):
        sp.mk_residual(2, np.array([2.0, 3.0]), np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="outside the domain"):
        sp.mk_residual(2, np.array([2.0, 3.0]), np.array([0.5, -1.0]))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_batched_calls_reuse_heap_memory():
    # a full block's temporaries are 128 KiB, glibc's initial mmap threshold;
    # in a fresh process they must not be mapped or re-grown on every block
    code = (
        "import resource, numpy as np\n"
        "from sphmean import transform as tr\n"
        "bump, dim = tr.BumpProfile(0.55, 0.25), tr.Dimension(5)\n"
        "ts = np.linspace(0.05, 1.95, 2001)\n"
        "tr.forward_h(bump, dim, ts)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(3):\n"
        "    tr.forward_h(bump, dim, ts)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tr.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    # 96 blocks: churning costs thousands of faults, reuse a few dozen
    assert int(out.stdout) < 300


# spectral transforms over arrays of lam: 7.0 keeps the base 8 panels on the
# 1.6-wide support, 23.0 and 23.05 share 24 panels, 40.0 needs 41
LAMS = np.array([0.5, 2.0, 7.0, 23.0, 23.05, 40.0, 7.1, 0.75])
# the forward quadrature only sets the data's values, not the bits compared
DATA_QUAD = tr.QuadratureRule(16, 2)


def _spectral_data(n, m):
    dim = tr.Dimension(n)
    if m == 0:
        return dim, tr.SmtProfile(BUMP, dim, DATA_QUAD)
    return dim, tr.HarmonicForwardData(BUMP, dim, m, DATA_QUAD)


def _spectral(dim, m, data, quad=tr.DEFAULT_QUAD):
    yield "hankel", lambda lam: sp.hankel(data.g, dim.k + 0.5, lam, quad, data.support)
    yield "hankel_h", lambda lam: sp.hankel_h(data.h, dim.k, lam, quad, data.support)
    yield "cross_product_terms", lambda lam: sp.cross_product_terms(data, dim.k + m, lam, quad)


def _array_rule(lams, support):
    """The rule of an array of lam: the oscillation rule of its largest."""
    return tr.QuadratureRule(32, sp.oscillation_panels(max(lams), *support, 8))


def _floats(value):
    """A float, or a tuple of floats, as a scalar lam's answer is."""
    return type(value) is float or (type(value) is tuple
                                    and all(type(v) is float for v in value))


@pytest.mark.parametrize("n", [3, 5, 9])
@pytest.mark.parametrize("m", [0, 2])
def test_spectral_transforms_match_scalar_calls(n, m):
    dim, data = _spectral_data(n, m)
    # every entry is the scalar call on its lam with the array's rule
    quad = _array_rule(LAMS, data.support)
    for (name, fn), (_, scalar) in zip(_spectral(dim, m, data),
                                       _spectral(dim, m, data, quad)):
        singles = [scalar(lam) for lam in LAMS.tolist()]
        assert all(_floats(v) for v in singles), name
        # one column per lam (under one row per side of the cross product)
        want = np.array(singles).T
        assert np.array_equal(np.array(fn(LAMS)), want), name
        assert np.array_equal(np.array(fn(LAMS.reshape(2, 4))),
                              want.reshape(want.shape[:-1] + (2, 4))), name
        assert np.array_equal(np.array(fn(LAMS[5:6])), want[..., 5:6]), name
        zero_d = fn(np.array(LAMS[3]))
        assert _floats(zero_d) and zero_d == fn(float(LAMS[3])), name


def test_spectral_rows_do_not_depend_on_their_block():
    # 60 lams on one 41-panel rule fill five kernel blocks
    dim, data = _spectral_data(5, 0)
    lams = np.linspace(0.5, 40.0, 60)
    quad = _array_rule(lams, data.support)
    assert lams.size * 32 * quad.panels > 4 * tr.BLOCK_NODES
    for (name, fn), (_, scalar) in zip(_spectral(dim, 0, data),
                                       _spectral(dim, 0, data, quad)):
        want = np.array([scalar(lam) for lam in lams.tolist()]).T
        assert np.array_equal(np.array(fn(lams)), want), name


class _CountedH:
    """h of forward data, recording the size of every call."""

    def __init__(self, data):
        self.data, self.support, self.calls = data, data.support, []

    def h(self, t):
        self.calls.append(np.shape(t))
        return self.data.h(t)


def test_spectral_transforms_call_h_once_per_array():
    _, data = _spectral_data(5, 0)
    counted = _CountedH(data)
    a, b = data.support
    # one rule for the array, that of its largest lam
    assert _array_rule(LAMS, (a, b)).panels == 41
    nodes = 32 * 41
    for name, call in (
            ("hankel", lambda lam: sp.hankel(counted.h, 1.5, lam, support=(a, b))),
            ("hankel_h", lambda lam: sp.hankel_h(counted.h, 1, lam, support=(a, b))),
            ("cross_product_terms", lambda lam: sp.cross_product_terms(counted, 1, lam))):
        counted.calls.clear()
        call(LAMS)
        assert counted.calls == [(1, nodes)], name
        counted.calls.clear()
        call(LAMS.reshape(4, 2))
        assert counted.calls == [(1, nodes)], name
        counted.calls.clear()
        call(np.array([7.1, 0.5, 2.0]))
        assert counted.calls == [(1, 32 * 8)], name
        # a negative lam anywhere is refused before h is called
        counted.calls.clear()
        with pytest.raises(ValueError, match="lam"):
            call(np.array([1.0, 2.0, -3.0, 4.0]))
        assert counted.calls == [], name
    with pytest.raises(ValueError, match="lam > 0"):
        sp.cross_product_terms(counted, 1, np.array([1.0, 0.0]))
    assert sp.hankel_h(counted.h, 1, np.array([]), support=(a, b)).shape == (0,)
    assert counted.calls == []


@pytest.mark.parametrize("m", [0, 2])
def test_zero_vanishing_matches_the_per_zero_loop(m):
    dim, data = _spectral_data(5, m)
    zeros = [sf.bessel_zero(m + dim.k, i) for i in range(1, 9)]
    scan = np.linspace(0.3, zeros[-1] + 2.0, 40).tolist()
    # one rule for the zeros and the scan: that of the scan's end
    quad = _array_rule(scan, data.support)

    def loop(lams):
        return [abs(sp.hankel_h(data.h, dim.k, lam, quad, data.support)) for lam in lams]

    assert sp.bessel_zero_vanishing(data, dim, m, 8) == (list(zip(zeros, loop(zeros))),
                                                         max(loop(scan)))
