"""The vanishing-band construction: forward data that is zero on a whole
radius interval around t = 1 while the profile itself is anything but."""

import math

import numpy as np
import pytest

from sphmean import ucp
from sphmean.transform import BumpProfile, QuadratureRule
from _reference import REFERENCE as REF

S3 = ucp.UcpSpec(n=3, epsilon=0.25, m=2)
S5 = ucp.UcpSpec(n=5, epsilon=0.2, m=6)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=4, epsilon=0.2, m=6)
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=3, epsilon=0.0, m=2)
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=3, epsilon=1.0, m=2)
    # one below the sufficient order 4k+2 is refused
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=5, epsilon=0.2, m=5)
    # bump support must clear the band parameter
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=3, epsilon=0.5, m=2, bump=(0.6, 0.15))
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=3, epsilon=0.2, m=2, bump=(0.9, 0.15))
    with pytest.raises(ValueError):
        ucp.UcpSpec(n=3, epsilon=0.2, m=2, bump=(0.6, 0.0))
    # a float order would fail deep inside the profile's jets
    with pytest.raises(ValueError, match="m must be an integer"):
        ucp.UcpSpec(n=3, epsilon=0.2, m=6.0)
    assert ucp.UcpSpec(n=3, epsilon=0.2, m=np.int64(6)).m == 6


def test_band_property():
    assert S5.band == (0.8, 1.2)
    assert S3.dim.k == 0 and S5.dim.k == 1


# ---------------------------------------------------------------------------
# the profile f = F^(m)


def test_f_vanishes_below_epsilon_exactly():
    f = ucp.build_counterexample(S5)
    r = np.linspace(0.0, S5.epsilon, 400)
    assert np.all(f(r) == 0.0)
    assert f(float(S5.epsilon)) == 0.0


def test_f_nontrivial_on_grid():
    f = ucp.build_counterexample(S3)
    grid = np.linspace(0.0, 1.0, 1000)
    assert np.max(np.abs(f(grid))) > 0.0


def test_f_matches_independent_derivatives():
    # frozen high-precision central-difference values of the bump
    f2 = ucp.DerivativeProfile(BumpProfile(0.6, 0.15), 2)
    f6 = ucp.DerivativeProfile(BumpProfile(0.6, 0.15), 6)
    assert f2(0.62) == pytest.approx(REF["bump_0_6_0_15_d2_at_0_62"], rel=1e-13)
    assert f6(0.58) == pytest.approx(REF["bump_0_6_0_15_d6_at_0_58"], rel=1e-13)


def test_f_integrates_to_zero():
    # integral of an exact derivative of a compactly supported function
    f = ucp.build_counterexample(S5)
    a, b = f.support
    x, w = np.polynomial.legendre.leggauss(200)
    u = 0.5 * (a + b) + 0.5 * (b - a) * x
    integral = float(np.sum(0.5 * (b - a) * w * f(u)))
    scale = np.max(np.abs(f(np.linspace(a, b, 2000))))
    assert abs(integral) <= 1e-12 * scale


def test_derivative_profile_jet_shifts_orders():
    f = ucp.build_counterexample(S5)
    jet = f.base.jet(0.58, S5.m + 1)
    assert jet.derivs[S5.m] == f(0.58)
    higher = ucp.DerivativeProfile(f.base, S5.m + 1)
    assert jet.derivs[S5.m + 1] == higher(0.58)


def test_derivative_profile_validation():
    with pytest.raises(ValueError):
        ucp.DerivativeProfile(BumpProfile(0.6, 0.15), -1)
    # order zero falls back to the bump itself
    f0 = ucp.DerivativeProfile(BumpProfile(0.6, 0.15), 0)
    assert f0(0.6) == pytest.approx(BumpProfile(0.6, 0.15)(0.6), rel=1e-15)


# ---------------------------------------------------------------------------
# forward verification


def test_verify_n3_band_vanishes():
    rep = ucp.verify_counterexample(S3)
    assert not rep.trivial
    assert rep.passed
    assert rep.ratio_inside <= 1e-8
    assert rep.max_global > 1e3 * rep.max_inside


def test_verify_n5_band_vanishes():
    rep = ucp.verify_counterexample(S5)
    assert not rep.trivial
    assert rep.passed
    assert rep.ratio_inside <= 1e-7
    assert rep.max_global > 1e3 * rep.max_inside


def test_verify_n7_with_finer_panels():
    # F^(10) has boundary layers the default panels cannot resolve
    spec = ucp.UcpSpec(n=7, epsilon=0.2, m=10)
    rep = ucp.verify_counterexample(spec, quad=QuadratureRule(32, 96))
    assert rep.passed
    assert rep.ratio_inside <= 1e-7


def test_one_below_sufficient_order_recorded():
    # m = 4k+1: the kernel polynomial is not fully cleared; the ratio is
    # measured and recorded here, but no smallness is claimed for it
    low = ucp.DerivativeProfile(BumpProfile(0.6, 0.15), 4 * S5.dim.k + 1)
    rep = ucp.verify_counterexample(S5, profile=low)
    assert math.isfinite(rep.ratio_inside)
    assert rep.ratio_inside >= 0.0


def test_zero_profile_flagged_trivial():
    class Zero:
        support = (0.3, 0.8)

        def __call__(self, r):
            rs = np.asarray(r, dtype=float)
            out = np.zeros_like(rs)
            return out if isinstance(r, np.ndarray) else 0.0

    rep = ucp.verify_counterexample(S3, profile=Zero())
    assert rep.trivial
    assert not rep.passed
    assert math.isnan(rep.ratio_inside)


def test_a_profile_past_float_range_is_refused():
    # n = 41 needs m = 78; the jet of F^(78) overflows in floats
    spec = ucp.UcpSpec(n=41, epsilon=0.1, m=78)
    with pytest.raises(ArithmeticError, match="not finite"):
        ucp.verify_counterexample(spec)
    with pytest.raises(ArithmeticError, match="not finite"):
        ucp.build_counterexample(spec)(np.linspace(0.0, 1.0, 501))


def test_a_transform_that_is_not_finite_is_refused():
    class Infinite:
        support = (0.3, 0.8)

        def __call__(self, r):
            return np.full_like(np.asarray(r, dtype=float), np.inf)

    # the quadrature's inf - inf warns nowhere: pytest makes a warning an error
    with pytest.raises(ArithmeticError, match="transform of the profile is not finite"):
        ucp.verify_counterexample(S3, profile=Infinite())


def test_grid_validation():
    with pytest.raises(ValueError):
        ucp.default_grid(4)
    with pytest.raises(ValueError):
        ucp.verify_counterexample(S3, grid=np.array([0.0005, 1.0]))
    with pytest.raises(ValueError):
        ucp.verify_counterexample(S3, grid=np.array([0.5, 2.0]))


def test_grid_refusal_names_the_floor():
    for grid in ([0.0005, 1.0], [0.5, 2.0]):
        with pytest.raises(ValueError, match=r"^grid radii must lie in \(0\.001, 2\)$"):
            ucp.verify_counterexample(S3, grid=np.array(grid))


def test_report_carries_curves():
    rep = ucp.verify_counterexample(S3)
    assert rep.grid.shape == rep.g_values.shape
    # the data really is large somewhere outside the band
    outside = np.abs(rep.grid - 1.0) >= S3.epsilon
    assert np.max(np.abs(rep.g_values[outside])) == rep.max_global
