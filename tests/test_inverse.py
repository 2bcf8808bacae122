"""Inversion round trips: the dimension-three closed form and the
collocation least-squares route, plus configuration validation."""

from functools import lru_cache

import numpy as np
import pytest

from sphmean import inverse as inv
from sphmean.rangecheck import SampledH
from sphmean.transform import BumpProfile, Dimension, SmtProfile

from _oracles import R_FLOOR, forward_matrix_meshgrid, invert_radial_n3

D3, D5 = Dimension(3), Dimension(5)
TRIO = [BumpProfile(0.55, 0.25), BumpProfile(0.5, 0.22), BumpProfile(0.65, 0.2)]


# ---------------------------------------------------------------------------
# closed form in dimension three


def test_n3_constant_profile_closed_form():
    # h(t) = (2t - t^2)/4 is the forward data of f = 1; h' = (1-t)/2
    h = lambda t: (2 * t - t * t) / 4
    hp = lambda t: (1 - t) / 2
    for r in (0.05, 0.3, 0.72, 0.99):
        assert invert_radial_n3((h, hp), r) == pytest.approx(1.0, rel=1e-14)


def test_n3_zero_data():
    z = lambda t: 0.0
    assert invert_radial_n3((z, z), 0.5) == 0.0


def test_n3_bump_round_trip_analytic_derivative():
    # h' carries the boundary term of the shrinking integration interval:
    # h(t) = (1/2) int_{1-t}^1 u f(u) du gives h'(t) = (1-t) f(1-t) / 2
    prof = BumpProfile(0.55, 0.25)
    data = SmtProfile(prof, D3)
    hp = lambda t: (1.0 - t) * float(prof(1.0 - t)) / 2.0
    r = np.linspace(0.05, 0.95, 181)
    f_rec = invert_radial_n3((data.h, hp), r)
    f_true = prof(r)
    assert np.max(np.abs(f_rec - f_true)) <= 1e-12 * np.max(np.abs(f_true))


def test_n3_bump_round_trip_from_h_alone():
    # no derivative supplied: the stencil route still clears 1e-8 rel sup
    prof = BumpProfile(0.55, 0.25)
    data = SmtProfile(prof, D3)
    r = np.linspace(0.05, 0.95, 181)
    f_rec = invert_radial_n3(data, r)
    f_true = prof(r)
    assert np.max(np.abs(f_rec - f_true)) <= 1e-8 * np.max(np.abs(f_true))


def test_n3_accepts_sampled_data():
    prof = BumpProfile(0.55, 0.25)
    data = SmtProfile(prof, D3)
    # the bump's interpolation error decays root-exponentially; degree 256
    # brings the spectral-derivative route to ~5e-5 on this window
    sampled = SampledH.from_function(data.h, degree=256)
    r = np.linspace(0.15, 0.85, 41)
    f_rec = invert_radial_n3(sampled, r)
    assert np.max(np.abs(f_rec - prof(r))) <= 1e-4


def test_n3_radius_domain():
    h = lambda t: t
    with pytest.raises(ValueError):
        invert_radial_n3((h, h), 1e-4)
    with pytest.raises(ValueError):
        invert_radial_n3((h, h), 1.0)
    with pytest.raises(TypeError):
        invert_radial_n3(object(), 0.5)


# ---------------------------------------------------------------------------
# collocation route


def test_config_validation():
    with pytest.raises(ValueError):
        inv.InversionConfig(n_unknowns=2)
    with pytest.raises(ValueError):
        inv.InversionConfig(n_unknowns=50, n_collocation=40)
    with pytest.raises(ValueError):
        inv.InversionConfig(svd_cutoff=0.0)
    with pytest.raises(ValueError):
        inv.InversionConfig(svd_cutoff=1.5)


def test_collocation_grid_shapes():
    cfg = inv.InversionConfig(60, 61, 1e-8)
    t, u, w, A = inv.forward_matrix(D3, cfg)
    assert A.shape == (61, 60)
    assert np.all((t > 0) & (t < 1))
    assert np.all((u > 0) & (u < 1))
    # indicator zeroes the block below the cut
    assert A[0, 0] == 0.0


def test_forward_matrix_equals_the_meshgrid_formula():
    # sign(Q)^k in place of Q^k off the mask keeps every bit, signed zeros
    # included: -0.0 wherever k is odd
    for cfg in (inv.InversionConfig(), inv.InversionConfig(60, 61), inv.InversionConfig(40, 80)):
        for n in (3, 5, 7, 9, 11, 15, 21):
            dim = Dimension(n)
            got, want = inv.forward_matrix(dim, cfg), forward_matrix_meshgrid(dim, cfg)
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), (n, cfg)
            A = got[3]
            assert set(np.signbit(A[A == 0.0])) == {dim.k % 2 == 1}, (n, cfg)


@lru_cache(maxsize=None)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _cuts_with_dedup(n_unknowns, n_collocation):
    """collocation_cuts as written with np.unique and a refill loop for
    indices that rounding might merge."""
    lo, hi = 1e-5, 1.0 - 1e-5
    if n_collocation > n_unknowns + 1:
        j = np.arange(n_collocation)
        return np.sort(0.5 - (0.5 - lo) * np.cos(np.pi * (j + 0.5) / n_collocation))
    inner = np.cumsum(0.5 * _leggauss(n_unknowns)[1])[:-1]
    inner = inner[(inner > lo) & (inner < hi)]
    want = n_collocation - 2
    if want <= len(inner):
        idx = np.unique(np.linspace(0, len(inner) - 1, want).round().astype(int))
        while len(idx) < want:
            extra = np.setdiff1d(np.arange(len(inner)), idx)[: want - len(idx)]
            idx = np.unique(np.concatenate([idx, extra]))
        chosen = inner[idx]
    else:
        j = np.arange(want - len(inner))
        fill = 0.5 - (0.5 - lo) * np.cos(np.pi * (j + 0.5) / max(1, len(j)))
        chosen = np.concatenate([inner, fill])
    return np.sort(np.concatenate([[lo], chosen, [hi]]))


def test_collocation_cuts_equal_the_dedup_formula():
    # every index step is at least one, so no rounded index repeats
    for n_unknowns in (2, 3, 4, 7, 16, 33, 80, 240):
        for n_collocation in range(2, n_unknowns + 4):
            assert np.array_equal(inv.collocation_cuts(n_unknowns, n_collocation),
                                  _cuts_with_dedup(n_unknowns, n_collocation)), \
                (n_unknowns, n_collocation)


def test_n3_collocation_matches_closed_form():
    # two independent inversions of the same data agree (the closed form
    # needs r >= 1e-3, and its difference stencil needs 1 - r clear of 0,
    # so the extreme Gauss nodes are skipped)
    prof = BumpProfile(0.55, 0.25)
    data = SmtProfile(prof, D3)
    cfg = inv.InversionConfig(400, 401, 1e-8)
    res = inv.invert_radial(data, D3, cfg)
    m = (res.nodes >= R_FLOOR) & (res.nodes <= 1.0 - R_FLOOR)
    f_n3 = invert_radial_n3(data, res.nodes[m])
    num = np.sqrt(np.sum(res.weights[m] * (res.values[m] - f_n3) ** 2))
    den = np.sqrt(np.sum(res.weights[m] * f_n3 ** 2))
    assert num / den <= 1e-4


def test_round_trip_three_bumps_n3():
    cfg = inv.InversionConfig(400, 401, 1e-8)
    for prof in TRIO:
        data = SmtProfile(prof, D3)
        res = inv.invert_radial(data, D3, cfg)
        assert res.rel_l2_error(prof) <= 1e-3
        assert res.residual <= 1e-6


def test_round_trip_three_bumps_n5():
    cfg = inv.InversionConfig(240, 241, 1e-5)
    for prof in TRIO:
        data = SmtProfile(prof, D5)
        res = inv.invert_radial(data, D5, cfg)
        assert res.rel_l2_error(prof) <= 1e-3


def test_n5_pinned_example_config():
    # 80 unknowns, 160 collocation points: the documented working size
    cfg = inv.InversionConfig(80, 160, 3e-5)
    data = SmtProfile(BumpProfile(0.55, 0.25), D5)
    res = inv.invert_radial(data, D5, cfg)
    assert res.rel_l2_error(BumpProfile(0.55, 0.25)) <= 1e-3
    assert res.rank >= 20


def test_zero_data_gives_zero_profile():
    cfg = inv.InversionConfig(60, 61, 1e-8)
    res = inv.invert_radial(lambda t: 0.0, D5, cfg)
    assert np.all(res.values == 0.0)
    assert res.residual == 0.0


class _ComboData:
    """Linear combination of two forward data sets, exposed through .h."""

    def __init__(self, d1, d2, a, b):
        self._parts = (d1, d2, a, b)

    def h(self, t):
        d1, d2, a, b = self._parts
        return a * d1.h(t) + b * d2.h(t)


def test_linearity_of_inversion():
    cfg = inv.InversionConfig(120, 121, 1e-6)
    d1 = SmtProfile(BumpProfile(0.55, 0.25), D5)
    d2 = SmtProfile(BumpProfile(0.5, 0.22), D5)
    r1 = inv.invert_radial(d1, D5, cfg)
    r2 = inv.invert_radial(d2, D5, cfg)
    rc = inv.invert_radial(_ComboData(d1, d2, 2.0, -0.5), D5, cfg)
    expect = 2.0 * r1.values - 0.5 * r2.values
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(rc.values - expect)) <= 1e-10 * scale


def test_rank_collapse_detected():
    # a cutoff just below 1 keeps almost nothing: flagged as ill-posed
    cfg = inv.InversionConfig(60, 61, 0.9)
    data = SmtProfile(BumpProfile(0.55, 0.25), D5)
    with pytest.raises(RuntimeError):
        inv.invert_radial(data, D5, cfg)
