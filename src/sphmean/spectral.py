"""Frequency-side checks for spherical mean data.

Four tools live here:

* :func:`hankel` and :func:`hankel_h` — the weighted Hankel-type transform of
  g, or of h = t^(2k+1) g, against the normalized spherical Bessel kernel
  of order k, with oscillation-aware paneling.  Every
  lam of an array is one row of `QuadratureRule.integrate_rows` on the rule
  of its largest lam: the profile is read once, on a (1, nodes) array, and
  each entry equals the call on that lam with the array's rule;
* :func:`cross_product_terms` — both sides of the cross-product identity that
  ties the first- and second-kind kernel integrals of range data together,
  and their defect (the third of its results);
* :func:`bessel_zero_vanishing` — the transform at the kernel's Bessel zeros,
  which vanishes on range data;
* :func:`mk_residual` — the defect in the closed-form evaluation of the
  boundary operator applied to the shifted first-kind kernel (the two sides
  are computed by different routes: a jet in s = t^2 / 2 of the kernel's
  higher orders on the left, the closed form in the kernels on the right).

All identities are exact in theory; the residuals measure floating-point and
quadrature error only, so they make sharp regression checks.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np

from .exactmath import coeff_C
from .specfun import (
    Jet,
    _dp_sinc_mp,
    _leibniz_entry,
    _power,
    bessel_zero,
    decimal_context,
    dp_sweep,
    dp_trig_mp,
    sph_bessel_j,
)
from .transform import DEFAULT_QUAD, Dimension, QuadratureRule, _shaped

# residual denominators never drop below this fraction of the natural scale
_REL_FLOOR = 1e-14

# float residuals above this trigger a high-precision recomputation
_MP_RETRY = 1e-9
# k = 0 is the plain angle-addition identity and is held to a tighter bar,
# so its retry threshold is the bar itself
_MP_RETRY_K0 = 1e-14
# working digits of that recomputation
_MP_DIGITS = 80


def oscillation_panels(lam: float, a: float, b: float, base: int = 8) -> int:
    """Panel count that keeps the lam-frequency oscillation resolved on [a, b].

    Four panels per period of exp(i lam t), but never fewer than `base`.
    """
    need = int(math.ceil(4.0 * abs(lam) * (b - a) / (2.0 * math.pi)))
    return max(base, need)


def _lam_rule(lam: float, a: float, b: float, quad: QuadratureRule) -> QuadratureRule:
    panels = oscillation_panels(lam, a, b, quad.panels)
    if panels == quad.panels:
        return quad
    return QuadratureRule(quad.nodes_per_panel, panels)


def _lam_array(lam, positive: bool = False):
    """lam as a flat float array and its shape; refuses any lam < 0 (or
    lam <= 0 when `positive`)."""
    lams = np.asarray(lam, dtype=float)
    if not np.all(lams > 0 if positive else lams >= 0):
        raise ValueError("lam > 0" if positive else "lam >= 0")
    return lams.ravel(), lams.shape


def _lam_sums(fn, lams, a: float, b: float, quad: QuadratureRule, integrand,
              shape=()):
    """The weighted sums over [a, b] of integrand(lam t, t, f_t), one row per
    lam, by `QuadratureRule.integrate_rows`.

    Every row is on the oscillation rule of the largest lam (`_lam_rule`),
    so no lam gets fewer panels than its own rule.  fn is called once, on
    that rule's (1, nodes) array of t, so it must act elementwise; f_t is its
    values.  integrand returns `shape + (lams, nodes)` values, and the result
    has shape `shape + lams.shape`.  Each row is summed by its own dot, so an
    entry does not depend on the other lams: it equals the call on that lam
    with the array's rule.
    """
    rule = _lam_rule(float(lams.max(initial=0.0)), a, b, quad)
    return rule.integrate_rows(
        fn, lambda rows, t, f_t: integrand(lams[rows, None] * t, t, f_t),
        np.full(lams.size, a), b, shape)


def _hankel_sums(fn, lam, support, quad: QuadratureRule, integrand):
    """The weighted sum of integrand(lam t, t, f_t) over the support, per lam."""
    lams, shape = _lam_array(lam)
    a, b = support
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return _shaped(_lam_sums(fn, lams, a, b, quad, integrand), shape)


def hankel(g, k: int, lam, quad: QuadratureRule = DEFAULT_QUAD,
           support=(0.0, 2.0)):
    """Weighted transform  integral of g(t) j_k(lam t) t^(2k+2) dt.

    `g` is an elementwise callable of t (numpy arrays in, arrays out).  The
    kernel is the normalized first-kind function of order k (of
    J_(k+1/2), value 1 at zero argument), so the integrand is regular at
    t = 0 and the support may start there.

    lam may be a scalar (the result is a float) or an array (the result has
    its shape).  g is called once for the whole array, on the (1, nodes)
    array of the oscillation rule of its largest lam, and each entry equals
    the call on that lam with the array's rule.
    """
    return _hankel_sums(g, lam, support, quad, lambda lam_t, t, g_t:
                        g_t * sph_bessel_j(k, lam_t) * t ** (2 * k + 2))


def hankel_h(h, k: int, lam, quad: QuadratureRule = DEFAULT_QUAD,
             support=(0.0, 2.0)):
    """Same transform written against h(t) = t^(2k+1) g(t).

    Equals hankel(g, k, lam) when h and g are consistent; having both
    routes avoids dividing by t^(2k+1) near the origin.  lam may be a scalar
    or an array, with one call to h for the array, as in `hankel`: each
    entry equals the call on that lam with the array's rule.
    """
    return _hankel_sums(h, lam, support, quad, lambda lam_t, t, h_t:
                        h_t * sph_bessel_j(k, lam_t) * t)


def _refuse_non_finite(what: str, values, k: int, lams, ts=None):
    """ArithmeticError naming the first point whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        at = "" if ts is None else f", t={float(ts[i])}"
        raise ArithmeticError(f"{what} {float(values[i])} at k={k}, lam={float(lams[i])}{at}")


def cross_product_terms(data, k: int, lam, quad: QuadratureRule = DEFAULT_QUAD):
    """Both sides of the cross-product identity and their relative defect.

    With I_j = integral of dp_sinc(k, lam t) t h(t) dt and I_y the same with
    the second-kind kernel dp_cosc, range data satisfies I_j * dp_cosc(k, lam)
    = I_y * dp_sinc(k, lam) exactly; both kernels come from one `dp_sweep`
    over lam t and one over lam.  Returns (lhs, rhs, residual) with
    residual = |lhs - rhs| / (A_j |dp_cosc(k, lam)| + A_y |dp_sinc(k, lam)|),
    where A_j and A_y integrate |kernel t h| in place of kernel t h.  That
    denominator bounds both sides and is the scale of their rounding error,
    so the ratio stays meaningful where lam sits near a kernel zero or an
    integral cancels far below its integrand.

    `data` supplies `data.h` and its t-support `data.support`.  The
    second-kind kernel blows up like t^-(2k+1) at the origin, so the support
    must stay away from t = 0.

    lam may be a scalar (three floats come back) or an array (three arrays
    in its shape).  h is called once for the whole array, on the (1, nodes)
    array of the oscillation rule of its largest lam, so it must act
    elementwise; each entry equals the call on that lam with the array's
    rule.  A residual that is not finite raises ArithmeticError naming its lam.
    """
    lams, shape = _lam_array(lam, positive=True)
    if k < 0:
        raise ValueError("k >= 0")
    a, b = data.support
    if a <= 0.0:
        raise ValueError("h-support must stay away from t = 0 "
                         "(second-kind kernel is singular there)")
    if b <= a:
        raise ValueError("need a < b")

    def integrand(lam_t, t, h_t):
        f, g = dp_sweep(lam_t, k, k, cosc=True)
        j_block, y_block = f[0] * t * h_t, g * t * h_t
        return np.array([j_block, np.abs(j_block), y_block, np.abs(y_block)])

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        i_j, a_j, i_y, a_y = _lam_sums(data.h, lams, a, b, quad, integrand, (4,))
        f, y_lam = dp_sweep(lams, k, k, cosc=True)
        j_lam = f[0]
        lhs = i_j * y_lam
        rhs = i_y * j_lam
        den = a_j * np.abs(y_lam) + a_y * np.abs(j_lam)
        # den bounds |lhs| and |rhs|, so it is 0 only where both sides are
        res = np.divide(np.abs(lhs - rhs), den, out=np.zeros(lams.size), where=den != 0.0)
    _refuse_non_finite("cross-product residual", res, k, lams)
    return tuple(_shaped(column, shape) for column in (lhs, rhs, res))


# ---------------------------------------------------------------------------
# the boundary-operator identity on the shifted kernel


def _mk_points(lam, t):
    """lam and t broadcast together: flat float arrays and their shape."""
    lams, ts = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                   np.asarray(t, dtype=float))
    if np.any(ts == 0) or np.any(1 + ts == 0):
        raise ValueError("t = 0 and t = -1 are outside the domain")
    return lams.ravel(), ts.ravel(), ts.shape


def _mk_lhs(k: int, lam, t, f):
    """Boundary operator applied to the shifted kernel: the sum over p of
    C(k,p) (-1)^p D^p [(1+t)^(p+1) D^k sinc(lam (1+t)) / t], as entry p of
    one jet of order k in sigma = s - s0, s = t^2 / 2, so that D = d/dsigma.
    t = t0 sqrt(1 + 2 sigma / t0^2) by its binomial series, and with
    x = lam (1+t), D^k sinc(x) = sum_j f[j] (x^2/2 - x0^2/2)^j / j!, where
    f[j] is D^(k+j) sinc at x0 = lam (1 + t0).  Over float arrays of points
    (f a row per j), or at one Decimal point (f a list)."""
    # entry j of t is t0^(1-2j) (1)(-1)(-3)...(3-2j)
    d = [t, 1 / t]
    for j in range(1, k):
        d.append(d[-1] * (1 - 2 * j) / (t * t))
    tj, w = Jet(t, d[:k + 1]), Jet(t, [t + 1] + d[1:k + 1])
    # x^2/2 - x0^2/2 = lam^2 (t - t0 + sigma), with entry 1 as x0 x0' (no cancelling at t0 = -1)
    rise = [lam * w.derivs[0] * (lam * d[1])] + [lam * lam * v for v in d[2:k + 1]]
    delta = Jet(t, ([t * 0] + rise)[:k + 1])
    acc = Jet.constant(f[k], t, k)
    for j in range(k, 0, -1):
        acc = delta * acc / j + f[j - 1]
    core = acc / tj
    power, total = w, 0
    for p in range(k + 1):
        total = total + (_leibniz_entry(power.derivs, core.derivs, power.top, core.top, p)
                         * (coeff_C(k, p) * (-1) ** p))
        power = power * w
    return total


def _mk_rhs(k: int, lam, sinc, cosc, j_lam, y_lam):
    """Closed form: (-1)^k lam^(2k+1) (sinc * y_lam + cosc * j_lam), and its
    scale, from D^k sinc and D^k cosc at lam t and at lam (floats or Decimals)."""
    front = _power(lam, 2 * k + 1)
    t1, t2 = sinc * y_lam, cosc * j_lam
    rhs = front * (t1 + t2)
    return (-rhs if k % 2 else rhs), abs(front) * np.maximum(abs(t1), abs(t2))


def _mk_sides(k: int, lams, ts):
    """Both sides and the scale at float arrays of points, with the kernels
    from two `dp_sweep` calls: every order from k to 2k at lam (1+t), and
    both kinds at order k over lam t and lam together."""
    n = lams.size
    f, g = dp_sweep(np.concatenate([lams * ts, lams]), k, k, cosc=True)
    rhs, scale = _mk_rhs(k, lams, f[0, :n], g[:n], f[0, n:], g[n:])
    return _mk_lhs(k, lams, ts, dp_sweep(lams * (1 + ts), k, 2 * k)[0]), rhs, scale


def _mk_residual_mp(k: int, lam: float, t: float) -> float:
    """The residual of `mk_residual` at one point, from the same two sides over
    `_MP_DIGITS`-digit Decimals, with kernels from `_dp_sinc_mp` and `dp_trig_mp`."""
    with decimal_context(_MP_DIGITS):
        lam_d, t_d = Decimal(lam), Decimal(t)
        # exact kernel arguments (2000 digits hold lam (1 + t) and lam t): at
        # lam = 1e300 a rounded one moves sin and cos
        with decimal_context(2000):
            x0, lam_t = lam_d * (1 + t_d), lam_d * t_d
        f = [_dp_sinc_mp(q, x0, _MP_DIGITS) for q in range(k, 2 * k + 1)]
        lhs = _mk_lhs(k, lam_d, t_d, f)
        rhs, scale = _mk_rhs(k, lam_d, _dp_sinc_mp(k, lam_t, _MP_DIGITS),
                             dp_trig_mp(k, lam_t, "cos", _MP_DIGITS),
                             _dp_sinc_mp(k, lam_d, _MP_DIGITS),
                             dp_trig_mp(k, lam_d, "cos", _MP_DIGITS))
        den = max(abs(lhs), abs(rhs), Decimal(_REL_FLOOR) * scale)
        return 0.0 if den == 0 else float(abs(lhs - rhs) / den)


def mk_residual(k: int, lam, t):
    """Relative defect between the two routes through the kernel identity.

    Both sides read their kernel values from `dp_sweep` (`_mk_sides`):
    the left side is a jet in s = t^2 / 2 (`_mk_lhs`), the right side the
    closed form (`_mk_rhs`).  A row over the retry threshold (1e-9, or
    1e-14 for the k = 0 angle-addition case) is recomputed once, by the
    same sides over 80-digit Decimals, and keeps that reading, so a real
    defect still reads over it: k = 0 rows next to a kernel zero, rows from
    about k = 22 on, and rows where the sweep is NaN (tiny lam).  lam and t
    may be arrays of points (broadcast together); each row equals the
    scalar call on its point, bit for bit, and a scalar call returns a
    float.  A residual still not finite after the retry, a lam^(2k+1) that
    overflows a float, or an argument whose sin and cos need more digits
    of pi than `decimal_sin_cos` holds (above about 1e497) raises
    ArithmeticError.
    """
    if k < 0:
        raise ValueError("k >= 0")
    lams, ts, shape = _mk_points(lam, t)
    if np.any(lams <= 0):
        raise ValueError("lam > 0")
    # a row that overflows is retried below, then refused: no warning on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lhs, rhs, scale = _mk_sides(k, lams, ts)
        den = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _REL_FLOOR * scale)
        res = np.divide(np.abs(lhs - rhs), den, out=np.zeros(den.shape),
                        where=den != 0.0)
    retry_at = _MP_RETRY if k > 0 else _MP_RETRY_K0
    # NaN compares False, so a non-finite row is retried too
    for i in np.flatnonzero(~(res <= retry_at)).tolist():
        try:
            res[i] = _mk_residual_mp(k, lams[i], ts[i])
        except ValueError as exc:  # sin/cos of lam needs more digits of pi
            raise ArithmeticError(
                f"kernel-identity residual {float(res[i])} unresolved at k={k}, "
                f"lam={float(lams[i])}, t={float(ts[i])}: {exc}") from exc
    _refuse_non_finite("kernel-identity residual", res, k, lams, ts)
    return _shaped(res, shape)


# ---------------------------------------------------------------------------
# vanishing at Bessel zeros


def bessel_zero_vanishing(data, dim: Dimension, m: int, count: int,
                          quad: QuadratureRule = DEFAULT_QUAD):
    """Transform magnitudes at the first `count` zeros of the order-(m+k)
    first-kind kernel, and the scale to compare them with.

    `data` supplies `data.h` and its t-support `data.support`.  For data in
    the range of the spherical mean transform with a degree-m harmonic the
    magnitudes vanish up to quadrature error; off-range data leaves visible
    mass at some zero.  The kernel of the transform has order k (`hankel_h`
    with dim.k) for every m; the degree m only moves the zeros.

    Returns (pairs, fmax): pairs lists (zero, |transform|), and fmax is the
    largest |transform| over 40 lam from 0.3 to 2 past the last zero.  All
    come from one `hankel_h` call, on the rule of its largest lam.  A
    magnitude that is not finite raises ArithmeticError naming its lam.
    """
    if count < 1:
        raise ValueError("count >= 1")
    if m < 0:
        raise ValueError("m >= 0")
    zeros = np.array([bessel_zero(m + dim.k, i) for i in range(1, count + 1)])
    lams = np.concatenate([zeros, np.linspace(0.3, zeros[-1] + 2.0, 40)])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = np.abs(hankel_h(data.h, dim.k, lams, quad, data.support))
    _refuse_non_finite("transform magnitude", values, dim.k, lams)
    fmax = float(np.max(values[count:]))
    return list(zip(zeros.tolist(), values[:count].tolist())), fmax
