"""Range operator and residuals: coefficient anchors, necessity on forward
data, perturbation detection, antiderivative chains, and the sampled path."""

import warnings

import numpy as np
import pytest

from sphmean import rangecheck as rc
from sphmean import transform as tr

D3, D5, D7 = tr.Dimension(3), tr.Dimension(5), tr.Dimension(7)
BUMP = tr.BumpProfile(0.55, 0.25)
BUMPS = [tr.BumpProfile(0.55, 0.25), tr.BumpProfile(0.4, 0.15), tr.BumpProfile(0.66, 0.2)]


# ---------------------------------------------------------------------------
# operator anchors


def test_lk_coefficients_closed_forms():
    # k = 0: identity; k = 1: h + (1-t) D h — exact coefficient-level equality
    assert rc.lk_coefficients(0) == (1,)
    assert rc.lk_coefficients(1) == (1, 1)
    assert rc.lk_coefficients(2) == (3, 3, 1)


def test_apply_Lk_identity_for_k0():
    hdp = lambda t, orders: np.array([t ** 3 if p == 0 else 3 * t for p in orders])
    assert rc.apply_Lk(hdp, 0, 0.7) == pytest.approx(0.7 ** 3)


def test_apply_Lk_hand_example_k1():
    # h(t) = t^2 has D h = 2, so [L_1 h](tau) = (1-tau) 2 + tau^2
    hdp = lambda t, orders: np.array([t * t if p == 0 else 2.0 + 0 * t for p in orders])
    tau = 0.63
    assert rc.apply_Lk(hdp, 1, tau) == pytest.approx((1 - tau) * 2 + tau * tau, rel=1e-15)


def test_apply_Lk_outside_domain_is_zero():
    boom = lambda t, p: 1 / 0
    assert rc.apply_Lk(boom, 3, 0.0) == 0.0
    assert rc.apply_Lk(boom, 3, 2.0) == 0.0


# ---------------------------------------------------------------------------
# necessity and detection on forward-generated radial data


def test_symmetric_closed_form_has_zero_residual():
    # n=3 constant profile: h(t) = (2t - t^2)/4 is even about t = 1
    prof = tr.SmtProfile(tr.PolynomialProfile([1.0]), D3)
    rep = rc.range_residual(prof)
    assert rep.sup_residual <= 1e-14
    assert rep.k_used == 0


def test_zero_data_zero_report():
    class Zero:
        def dp_h(self, t, p):
            return np.zeros(np.shape(p) + np.shape(t))

    rep = rc.range_residual(Zero(), k=2)
    assert rep.sup_residual == 0.0
    assert rep.normalized == 0.0


def test_nan_data_fails_on_either_side():
    # a NaN on the t < 1 side used to read as scale NaN, normalized 0: PASS
    prof = tr.SmtProfile(BUMP, D3)
    for side in (0.7, 1.3):
        class Holed:
            def dp_h(self, t, p):
                return np.where(np.abs(t - side) < 0.01, np.nan, prof.dp_h(t, p))

        rep = rc.range_residual(Holed(), k=0)
        assert np.isnan(rep.normalized) and not rep.passed(1e-6), side


def test_necessity_across_dimensions_and_bumps():
    for dim in (D3, D5, D7):
        for prof in BUMPS:
            rep = rc.range_residual(tr.SmtProfile(prof, dim))
            assert rep.normalized <= 1e-6, (dim.n, prof.support, rep.normalized)


def test_necessity_holds_for_every_odd_n_up_to_41():
    # the kernel derivatives keep their digits as n grows: exact forward data
    # on the README profile passes at the CLI's default tol, and a 1e-6
    # half-space perturbation still reads 1e-6
    for n in range(3, 42, 2):
        prof = tr.SmtProfile(BUMP, tr.Dimension(n))
        rep = rc.range_residual(prof)
        assert rep.passed(1e-6), (n, rep.normalized)
        if n in (25, 41):
            perturbed = rc.range_residual(rc.PerturbedH(prof, 1e-6)).normalized
            assert perturbed == pytest.approx(1e-6, rel=1e-3), n


def test_non_range_bump_after_one():
    # data supported only in (1.2, 1.6) cannot be symmetric about 1
    rep = rc.range_residual(rc.bump_h(1.4, 0.2), k=1)
    assert rep.normalized >= 0.5


def test_detection_of_half_perturbation():
    prof = tr.SmtProfile(BUMP, D5)
    for delta in (1e-3, 1e-2, 1e-1):
        rep = rc.range_residual(rc.PerturbedH(prof, delta))
        assert rep.normalized > delta / 10


def test_grid_validation():
    with pytest.raises(ValueError):
        rc.default_grid(t_min=1e-4)


# ---------------------------------------------------------------------------
# antiderivative chain


def test_anti_D_inverts_D_powers():
    base = rc.bump_h(0.9, 0.3)
    grid = np.linspace(0.3, 1.6, 40)
    for m in (1, 2, 3):
        psi = lambda s, m=m: base.dp_h(s, m)
        phi, defects = rc.anti_D(psi, m)
        sup = max(abs(phi(t) - base.h(t)) for t in grid)
        assert sup <= 1e-9, (m, sup)
    # compact-support defect of the m=1 inverse pair is numerically zero
    _, defs1 = rc.anti_D(lambda s: base.dp_h(s, 1), 1)
    assert abs(defs1[0]) <= 1e-9


def test_anti_D_m0_is_identity():
    psi = lambda s: np.sin(np.asarray(s))
    phi, defects = rc.anti_D(psi, 0)
    assert defects == []
    assert phi(0.7) == pytest.approx(np.sin(0.7))


def test_anti_D_flags_noncompact_antiderivative():
    # a plain bump has nonzero first moment: its antiderivative cannot be
    # compactly supported
    base = rc.bump_h(0.9, 0.3)
    _, defects = rc.anti_D(base.h, 1)
    assert abs(defects[0]) > 1e-3


def test_chain_order_cap():
    chain = rc.AntiDerivativeChain(lambda s: s * 0.0, 2)
    with pytest.raises(ValueError):
        chain.dp_phi(0.5, 3)


# ---------------------------------------------------------------------------
# sampled (spectral) data path


def test_sampled_h_reproduces_values():
    prof = tr.SmtProfile(BUMP, D5)
    samp = rc.SampledH.from_function(prof.h, degree=128)
    # truncation error of the degree-128 interpolant is ~1e-9 absolute
    # against a data scale of ~2e-2
    for t in (0.31, 0.9, 1.33, 1.72):
        assert samp.h(t) == pytest.approx(prof.h(t), abs=1e-8)
    assert samp.h(0.001) == 0.0
    assert samp.h(1.999) == 0.0


def test_sampled_h_vector_matches_scalar():
    prof = tr.SmtProfile(BUMP, D5)
    samp = rc.SampledH.from_function(prof.h, degree=96)
    ts = np.linspace(0.25, 1.75, 31)
    vec = samp.h(ts)
    sc = np.array([samp.h(float(t)) for t in ts])
    assert np.max(np.abs(vec - sc)) < 1e-14


def test_spectral_derivative_matches_analytic():
    # the invariant: sampled-spectral and analytic-kernel derivative paths
    # agree to 1e-5 of the derivative scale on forward data
    prof = tr.SmtProfile(tr.BumpProfile(0.45, 0.35), D5)
    samp = rc.SampledH.from_function(prof.h, degree=128)
    ts = np.linspace(0.3, 1.7, 29)
    scale = max(abs(prof.dp_h(t, 1)) for t in ts)
    worst = max(abs(samp.dp_h(t, 1) - prof.dp_h(t, 1)) for t in ts)
    assert worst / scale <= 1e-5


def test_sampled_range_residual_matches_analytic_verdict():
    # once the grid resolves the data (degree 192 here), the sampled-path
    # residual agrees with the analytic verdict well below any detection
    # threshold
    prof = tr.SmtProfile(tr.BumpProfile(0.45, 0.35), D5)
    samp = rc.SampledH.from_function(prof.h, degree=192)
    rep_s = rc.range_residual(samp, k=1)
    rep_a = rc.range_residual(prof)
    assert rep_s.normalized <= 1e-5
    assert abs(rep_s.normalized - rep_a.normalized) <= 1e-5
    # the spectral noise floor is documented and small
    assert samp.noise_floor < 1e-10


def test_sampled_h_validation():
    with pytest.raises(ValueError):
        rc.SampledH(np.zeros(5), 0.0, 1.9)  # a must be > 0
    with pytest.raises(ValueError):
        rc.SampledH(np.zeros(2), 0.1, 1.9)  # too few samples
    samp = rc.SampledH(np.zeros(9), 0.1, 1.9)
    with pytest.raises(ValueError):
        samp.dp_h(1.0, 8)  # degree 8 cannot support 8 derivatives


# ---------------------------------------------------------------------------
# general (harmonic) range check


def test_general_check_analytic_route():
    H = tr.HarmonicForwardData(BUMP, D3, 1)
    rep = rc.general_range_check(H, 1)
    assert rep.range_report.k_used == 1  # m + k = 1 + 0
    assert rep.range_report.normalized <= 1e-6
    assert rep.defects_passed()


def test_general_check_m0_reduces_to_radial_residual():
    H = tr.HarmonicForwardData(BUMP, D5, 0)
    rep = rc.general_range_check(H, 0)
    direct = rc.range_residual(tr.SmtProfile(BUMP, D5))
    assert rep.range_report.normalized <= 1e-6
    assert abs(rep.range_report.normalized - direct.normalized) < 1e-6
    assert rep.moment_defects == []


@pytest.mark.parametrize("n", [3, 5, 9, 25])
def test_general_check_at_m0_is_the_radial_residual(n):
    # orders p >= m come from the data's own dp_h, so m = 0 reads the exact
    # kernel derivatives, bit for bit, not a resampled copy
    data = tr.SmtProfile(BUMP, tr.Dimension(n))
    grid = rc.default_grid()
    direct = rc._symmetry_report(data.dp_h, data.dim.k, grid)
    rep = rc.general_range_check(data, 0)
    assert rep.range_report.residual.tobytes() == direct.residual.tobytes()
    assert rep.range_report.normalized == direct.normalized
    assert rep.moment_defects == [] and rep.defects_passed()
    assert rc.range_residual(data).normalized == direct.normalized


def test_general_check_reads_jets_of_data_with_derivatives():
    # bump_h sits on one side of t = 1, so exact jets read exactly 1
    rep = rc.general_range_check(rc.bump_h(1.4, 0.2), 1, k=8)
    assert rep.range_report.normalized == pytest.approx(1.0, abs=1e-12)


def test_sampled_h_is_zero_below_a_without_warnings():
    # far outside [a, b] the barycentric sum cancels to 0; such points are
    # not interpolated, so no divide-by-zero reaches the chain's callers
    samp = rc.SampledH.from_function(lambda t: np.exp(-20 * (t - 1) ** 2), a=0.05, b=1.95)
    below = np.geomspace(1e-9, 0.04, 5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(samp.h(below) == 0.0) and np.all(samp.dp_h(below, 2) == 0.0)
        assert samp.h(0.01) == 0.0
        phi = rc.AntiDerivativeChain(samp.h, 2).phi(np.linspace(0.01, 1.0, 50))
    assert np.all(np.isfinite(phi))


def test_general_check_sampled_route():
    H = tr.HarmonicForwardData(BUMP, D3, 1)

    class DataOnly:
        def h(self, t):
            return H.h(t)

    rep = rc.general_range_check(DataOnly(), 1, k=0, grid=np.linspace(0.05, 1.0, 39))
    assert rep.range_report.normalized <= 1e-5
    assert rep.defects_passed(1e-6)


def test_general_check_flags_broken_consistency():
    H = tr.HarmonicForwardData(BUMP, D3, 1)

    class Broken:
        def h(self, t):
            return (1.0 + 0.3 * (np.asarray(t) > 1)) * H.h(t)

    rep = rc.general_range_check(Broken(), 1, k=0, grid=np.linspace(0.05, 1.0, 39))
    assert rep.range_report.normalized >= 1e-2
