"""One batched forward core: every forward entry point given an array of t
returns exactly its elementwise scalar calls, bit for bit."""

import numpy as np
import pytest

from sphmean import rangecheck as rc
from sphmean import transform as tr

# 1024 nodes per row, so a block holds BLOCK_NODES // 1024 rows
QUAD = tr.QuadratureRule(32, 32)
ROWS = tr.BLOCK_NODES // (QUAD.nodes_per_panel * QUAD.panels)
# u-support (0.3, 0.8): rows with t <= 0.2 or t >= 1.8 have nothing to integrate
BUMP = tr.BumpProfile(0.55, 0.25)

T_ARRAYS = {
    "several blocks": np.linspace(0.05, 1.95, 2 * ROWS + 3),
    "all empty": np.array([0.05, 0.1, 1.85, 1.9]),
    "length one": np.array([0.7]),
}


def _radial(n):
    dim = tr.Dimension(n)
    data = tr.SmtProfile.from_profile(BUMP, dim, QUAD)
    yield "forward_h", lambda t: tr.forward_h(BUMP, dim, t, QUAD)
    yield "forward_radial", lambda t: tr.forward_radial(BUMP, dim, t, QUAD)
    yield "funk_hecke_forward", lambda t: tr.funk_hecke_forward(BUMP, dim, t, QUAD)
    yield "SmtProfile.h", data.h
    yield "SmtProfile.g", data.g
    for p in range(dim.k + 1):
        yield f"forward_h_dp p={p}", lambda t, p=p: tr.forward_h_dp(BUMP, dim, t, p, QUAD)
        yield f"SmtProfile.dp_h p={p}", lambda t, p=p: data.dp_h(t, p)


def _harmonic(n, m):
    dim = tr.Dimension(n)
    data = tr.HarmonicForwardData(BUMP, dim, m, QUAD)
    yield "forward_harmonic_h", lambda t: tr.forward_harmonic_h(BUMP, dim, m, t, QUAD)
    yield "forward_harmonic", lambda t: tr.forward_harmonic(BUMP, dim, m, t, QUAD)
    yield "phi_harmonic", lambda t: tr.phi_harmonic(BUMP, dim, m, t, QUAD)
    yield "HarmonicForwardData.h", data.h
    yield "HarmonicForwardData.g", data.g
    yield "HarmonicForwardData.phi", data.phi
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


@pytest.mark.parametrize("n", [3, 5, 9])
def test_radial_entry_points_match_scalar_calls(n):
    for name, fn in _radial(n):
        _check(fn, name)


@pytest.mark.parametrize("n", [3, 5, 9])
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
    terms = tr._kernel_terms(dim.k, 1)

    def plain(t, kernel):
        a, b = max(abs(1.0 - t), BUMP.support[0]), min(1.0, BUMP.support[1])
        return c * tr.DEFAULT_QUAD.integrate(lambda u: u * BUMP(u) * kernel(t, u), a, b)

    def dp1_kernel(t, u):
        acc = np.zeros_like(u)
        for i, j, coeff in terms:
            acc = acc + coeff * t ** i * u ** j
        return acc

    want_h = [plain(t, lambda t, u: tr.q_kernel(t, u) ** dim.k) for t in ts.tolist()]
    want_dp = [plain(t, dp1_kernel) for t in ts.tolist()]
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
        tr.forward_radial(BUMP, tr.Dimension(3), np.array([0.5, 1e-4]))


def test_range_data_wrappers_match_scalar_calls():
    ts = np.linspace(0.05, 1.95, 13)
    base = rc.bump_h(1.1, 0.4)
    chain = rc.AntiDerivativeChain(base.h, 2)
    perturbed = rc.PerturbedH(tr.SmtProfile.from_profile(BUMP, tr.Dimension(5)), 0.1)
    for name, fn in (("JetH.dp_h", lambda t: base.dp_h(t, 2)),
                     ("AntiDerivativeChain.phi", chain.phi),
                     ("AntiDerivativeChain.dp_phi", lambda t: chain.dp_phi(t, 1)),
                     ("PerturbedH.h", perturbed.h),
                     ("PerturbedH.dp_h", lambda t: perturbed.dp_h(t, 1))):
        singles = np.array([fn(float(t)) for t in ts])
        assert np.array_equal(fn(ts), singles), name
