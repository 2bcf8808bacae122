"""Acceptance suite: ten end-to-end checks with one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
on success; on failure the captured line is shown in the report.  Every check
works at its stated tolerance against values produced by the library alone —
nothing here is tuned to make a check pass.
"""

import time
from decimal import Decimal

import numpy as np

import sphmean.exactmath as ex
import sphmean.inverse as inv
import sphmean.rangecheck as rc
import sphmean.specfun as sf
import sphmean.spectral as sp
import sphmean.transform as tr
import sphmean.ucp as ucp

from _oracles import (PerturbedH, bump_h, d_operator, funk_hecke_forward, h_from_phi,
                      invert_radial_n3)

D3 = tr.Dimension(3)
D5 = tr.Dimension(5)
D7 = tr.Dimension(7)

# the three bump profiles shared by the grid-based checks
BUMPS = [
    tr.BumpProfile(0.55, 0.25),
    tr.BumpProfile(0.5, 0.22),
    tr.BumpProfile(0.65, 0.2),
]

SEED = 0x534D5431


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def test_01_exact_identity_suite():
    t0 = time.perf_counter()
    rows = list(ex.identity_sweeps())
    elapsed = time.perf_counter() - t0
    bad = [(name, witness) for name, _rng, ok, witness in rows if not ok]
    ok = not bad and elapsed <= 30.0
    _verdict(ok, "[1] exact identity suite",
             f"{len(rows) - len(bad)}/{len(rows)} sweeps hold exactly in {elapsed:.1f}s"
             + (f", failures {bad}" if bad else ""))
    assert not bad
    assert elapsed <= 30.0


def test_02_range_necessity():
    t0 = time.perf_counter()
    grid = rc.default_grid(101)
    worst = 0.0
    for dim in (D3, D5, D7):
        for prof in BUMPS:
            data = tr.SmtProfile(prof, dim)
            rep = rc.range_residual(data, grid=grid)
            worst = max(worst, rep.normalized)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    _verdict(ok, "[2] range necessity",
             f"worst normalized residual {worst:.3e} <= 1e-6 over n in {{3,5,7}} x 3 bumps "
             f"(101-point grid, {elapsed:.1f}s)")
    assert worst <= 1e-6
    assert elapsed <= 30.0


def test_03_range_detection():
    results = []
    for dim in (D3, D5):
        data = tr.SmtProfile(BUMPS[0], dim)
        for delta in (1e-3, 1e-2, 1e-1):
            rep = rc.range_residual(PerturbedH(data, delta))
            results.append((dim.n, delta, rep.normalized))
    bad = [r for r in results if r[2] < r[1] / 10.0]
    margin = min(r[2] / (r[1] / 10.0) for r in results)
    ok = not bad
    _verdict(ok, "[3] range detection",
             f"half-data perturbations delta in {{1e-3,1e-2,1e-1}} all flagged, "
             f"smallest residual/(delta/10) ratio {margin:.2f}")
    assert not bad, bad


def test_04_cross_product_identity():
    worst = 0.0
    for dim in (D3, D5, D7):
        data = tr.SmtProfile(BUMPS[0], dim)
        for lam in np.linspace(0.5, 40.0, 20):
            worst = max(worst, sp.cross_product_terms(data, dim.k, float(lam))[2])
    ok = worst <= 1e-8
    _verdict(ok, "[4] cross-product identity",
             f"worst residual {worst:.3e} <= 1e-8 over n in {{3,5,7}}, 20 lambda in [0.5,40]")
    assert worst <= 1e-8


def test_05_mk_identity_seeded():
    rng = np.random.default_rng(SEED)
    worst, worst_k0 = 0.0, 0.0
    for k in range(7):
        for _ in range(100):
            lam = rng.uniform(0.5, 20.0)
            t = rng.uniform(-3.0, 3.0)
            while abs(t) < 0.1 or abs(t + 1.0) < 0.1:
                t = rng.uniform(-3.0, 3.0)
            res = sp.mk_residual(k, float(lam), float(t))
            worst = max(worst, res)
            if k == 0:
                worst_k0 = max(worst_k0, res)
    ok = worst <= 1e-8 and worst_k0 <= 1e-14
    _verdict(ok, "[5] M_k identity",
             f"worst residual {worst:.3e} <= 1e-8 over 100 seeded (lambda,t) per k <= 6; "
             f"k=0 angle addition {worst_k0:.3e} <= 1e-14")
    assert worst <= 1e-8
    assert worst_k0 <= 1e-14


def test_06_bessel_zero_oracle():
    data = tr.SmtProfile(BUMPS[0], D3)
    pairs, _ = sp.bessel_zero_vanishing(data, D3, 0, 10)
    scan = np.linspace(0.3, pairs[-1][0] + 2.0, 40)
    fmax = max(abs(sp.hankel_h(data.h, D3.k, float(l), support=data.support))
               for l in scan)
    worst_in = max(v for _, v in pairs) / fmax

    off = bump_h(1.4, 0.2)  # supported in (1.2, 1.6): outside the range
    pairs_off, _ = sp.bessel_zero_vanishing(off, D3, 0, 10)
    fmax_off = max(abs(sp.hankel_h(off.h, D3.k, float(l))) for l in scan)
    best_off = max(v for _, v in pairs_off) / fmax_off

    ok = worst_in <= 1e-6 and best_off >= 1e-2
    _verdict(ok, "[6] Bessel-zero oracle",
             f"in-range data vanishes at first 10 zeros to {worst_in:.3e} <= 1e-6 of max; "
             f"off-range bump keeps {best_off:.3e} >= 1e-2 of max at some zero")
    assert worst_in <= 1e-6
    assert best_off >= 1e-2


def test_07_general_case():
    ts = np.linspace(0.05, 1.95, 41)
    rows = []
    for dim, m in ((D3, 1), (D3, 2), (D5, 1)):
        H = tr.HarmonicForwardData(BUMPS[0], dim, m)
        hv = np.array([H.h(float(t)) for t in ts])
        hp = np.array([h_from_phi(H, float(t)) for t in ts])
        rel = float(np.max(np.abs(hv - hp)) / np.max(np.abs(hv)))
        rep = rc.general_range_check(H, m)
        rows.append((dim.n, m, rel, rep.defects_passed(),
                     rep.range_report.normalized))
    worst_rel = max(r[2] for r in rows)
    worst_sym = max(r[4] for r in rows)
    defects_ok = all(r[3] for r in rows)
    ok = worst_rel <= 1e-6 and defects_ok and worst_sym <= 1e-6
    _verdict(ok, "[7] general (harmonic) case",
             f"h = const * D^m phi to {worst_rel:.3e} <= 1e-6, moment defects <= 1e-8*scale: "
             f"{defects_ok}, symmetry residual {worst_sym:.3e} <= 1e-6 "
             f"for (n=3,m=1),(n=3,m=2),(n=5,m=1)")
    assert worst_rel <= 1e-6
    assert defects_ok
    assert worst_sym <= 1e-6


def test_08_inversion_round_trips():
    data3 = tr.SmtProfile(BUMPS[0], D3)
    rs = np.linspace(0.05, 0.95, 91)
    rec = invert_radial_n3(data3, rs)
    truth = BUMPS[0](rs)
    closed = float(np.max(np.abs(rec - truth)) / np.max(np.abs(truth)))

    r3 = inv.invert_radial(data3, D3, inv.InversionConfig(400, 401, 1e-8))
    e3 = r3.rel_l2_error(BUMPS[0])
    data5 = tr.SmtProfile(BUMPS[0], D5)
    r5 = inv.invert_radial(data5, D5, inv.InversionConfig(240, 241, 1e-5))
    e5 = r5.rel_l2_error(BUMPS[0])

    ok = closed <= 1e-8 and e3 <= 1e-3 and e5 <= 1e-3
    _verdict(ok, "[8] inversion round trips",
             f"n=3 closed form rel sup {closed:.3e} <= 1e-8; collocation rel L2 "
             f"n=3 {e3:.3e}, n=5 {e5:.3e} <= 1e-3")
    assert closed <= 1e-8
    assert e3 <= 1e-3
    assert e5 <= 1e-3


def test_09_vanishing_band_counterexample():
    rows = []
    for spec in (ucp.UcpSpec(3, 0.25, 2), ucp.UcpSpec(5, 0.2, 6)):
        rep = ucp.verify_counterexample(spec)
        f = ucp.build_counterexample(spec)
        band = np.linspace(0.0, spec.epsilon, 200)
        exact0 = bool(np.all(f(band) == 0.0))
        contrast = rep.max_global / max(rep.max_inside, 1e-300)
        rows.append((spec.n, rep.ratio_inside, contrast, exact0))
    worst_ratio = max(r[1] for r in rows)
    worst_contrast = min(r[2] for r in rows)
    all_exact = all(r[3] for r in rows)
    ok = worst_ratio <= 1e-7 and worst_contrast >= 1e3 and all_exact
    _verdict(ok, "[9] vanishing-band counterexample",
             f"inside-window ratio {worst_ratio:.3e} <= 1e-7, outside/inside "
             f">= {worst_contrast:.2e} (bar 1e3), f on [0,eps] exactly zero: {all_exact} "
             f"for (n=3,eps=0.25,m=2),(n=5,eps=0.2,m=6)")
    assert worst_ratio <= 1e-7
    assert worst_contrast >= 1e3
    assert all_exact


def test_10_special_function_cross_validation():
    worst_kernel = 0.0
    xs = np.linspace(0.3, 50.0, 18)
    with sf.decimal_context(60):
        for p in range(11):
            for x in xs:
                xm = Decimal(float(x))
                jet = sf.Jet.variable(xm, p)
                sin, cos = jet.sin_cos()
                js = float(d_operator(sin / jet, p))
                jc = float(d_operator(cos / jet, p))
                for closed, viajet in ((sf.dp_sinc(p, float(x)), js),
                                       (sf.dp_cosc(p, float(x)), jc)):
                    den = max(abs(closed), abs(viajet))
                    if den > 0.0:
                        worst_kernel = max(worst_kernel, abs(closed - viajet) / den)

    worst_fwd = 0.0
    ts = np.linspace(0.05, 1.95, 25)
    for dim in (D3, D5, D7):
        data = tr.SmtProfile(BUMPS[0], dim)
        a = np.array([data.g(float(t)) for t in ts])
        b = np.array([funk_hecke_forward(BUMPS[0], dim, float(t)) for t in ts])
        worst_fwd = max(worst_fwd, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))

    ok = worst_kernel <= 1e-10 and worst_fwd <= 1e-9
    _verdict(ok, "[10] special-function cross-validation",
             f"closed trig kernels vs jet engine {worst_kernel:.3e} <= 1e-10 "
             f"(p <= 10, x in [0.3,50]); radial forward vs zonal-average route "
             f"{worst_fwd:.3e} <= 1e-9")
    assert worst_kernel <= 1e-10
    assert worst_fwd <= 1e-9
