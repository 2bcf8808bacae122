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
  are computed by entirely different routes: derivative jets on the left,
  closed trig kernels on the right).

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
    _coeff_like,
    _dp_trig_horner,
    _dp_trig_rows,
    _power,
    bessel_zero,
    d_operator,
    decimal_context,
    dp_cosc,
    dp_sinc,
    dp_trig_mp,
    raw_j_jet,
    raw_to_normalized,
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
# working digits of that recomputation: each rung is tried in turn until the
# residual is back under the retry threshold
_MP_DPS = (80, 160, 320)


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


def cross_product_terms(data, k: int, lam, quad: QuadratureRule = DEFAULT_QUAD):
    """Both sides of the cross-product identity and their relative defect.

    With I_j = integral of dp_sinc(k, lam t) t h(t) dt and I_y the same with
    the second-kind kernel dp_cosc, range data satisfies I_j * dp_cosc(k, lam)
    = I_y * dp_sinc(k, lam) exactly.  Returns (lhs, rhs, residual) with
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
    rule.
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
    c_k = raw_to_normalized(k)

    def integrand(lam_t, t, h_t):
        # series-backed normalized kernel is stable at small arguments
        j_block = c_k * sph_bessel_j(k, lam_t) * t * h_t
        y_block = _dp_trig_horner(k, lam_t, "cos") * t * h_t
        return np.array([j_block, np.abs(j_block), y_block, np.abs(y_block)])

    i_j, a_j, i_y, a_y = _lam_sums(data.h, lams, a, b, quad, integrand, (4,))
    j_lam, y_lam = dp_sinc(k, lams), dp_cosc(k, lams)
    lhs = i_j * y_lam
    rhs = i_y * j_lam
    den = a_j * np.abs(y_lam) + a_y * np.abs(j_lam)
    # den bounds |lhs| and |rhs|, so it is 0 only where both sides are
    res = np.divide(np.abs(lhs - rhs), den, out=np.zeros(lams.size), where=den != 0.0)
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


def _mk_lhs_value(k: int, lam, t):
    """Boundary operator applied to the shifted kernel, term by term.

    Term p is C(k,p) (-1)^p D^p of (1+t)^(p+1) dp_sinc(k, lam (1+t)) / t,
    evaluated through a derivative jet of order k at the base point t
    (float arrays of points, or one Decimal point).
    """
    x = Jet.variable(t, k)
    w = x + 1
    arg = w * lam
    rj = raw_j_jet(k, arg)
    core = rj / x
    # w ** n for n = 1..k+1, bit for bit as Jet.__pow__ builds each (the
    # squarings of w at n's bits, lowest first), sharing squarings and prefixes
    squares, powers = [w], [w ** 0]
    for n in range(1, k + 2):
        top = n.bit_length() - 1
        if top == len(squares):
            squares.append(squares[-1] * squares[-1])
        powers.append(powers[n - (1 << top)] * squares[top])
    acc = None
    for p in range(k + 1):
        c = _coeff_like(coeff_C(k, p), t)
        val = (-c if p % 2 else c) * d_operator(powers[p + 1] * core, p)
        acc = val if acc is None else acc + val
    return acc


def _mk_rhs(k: int, lam, t, trig):
    """Closed form: (-1)^k lam^(2k+1) (D^k sinc * y + D^k cosc * j), and its
    scale, with the kernels from trig(p, x, kind): `_dp_trig_rows` over
    float arrays of points (each row equals the same sum over Python floats,
    bit for bit, as powers are taken per element), or `dp_trig_mp` at one
    Decimal point."""
    sinc = trig(k, lam * t, "sin")
    cosc = trig(k, lam * t, "cos")
    j_lam = trig(k, lam, "sin")
    y_lam = trig(k, lam, "cos")
    front = _power(lam, 2 * k + 1)
    t1 = sinc * y_lam
    t2 = cosc * j_lam
    rhs = front * (t1 + t2)
    if k % 2:
        rhs = -rhs
    return rhs, abs(front) * np.maximum(abs(t1), abs(t2))


def _mk_residual_mp(k: int, lam: float, t: float, dps: int) -> float:
    """The residual of `mk_residual` at one point, from Decimal jets at `dps`
    digits."""
    with decimal_context(dps):
        lam_d, t_d = Decimal(lam), Decimal(t)
        lhs = _mk_lhs_value(k, lam_d, t_d)
        rhs, scale = _mk_rhs(k, lam_d, t_d, lambda p, x, kind: dp_trig_mp(p, x, kind, dps))
        den = max(abs(lhs), abs(rhs), Decimal(_REL_FLOOR) * scale)
        return 0.0 if den == 0 else float(abs(lhs - rhs) / den)


def mk_residual(k: int, lam, t):
    """Relative defect between the two routes through the kernel identity.

    Float arithmetic first; when cancellation pushes the float residual above
    the retry threshold (1e-9, or 1e-14 for the k = 0 angle-addition case),
    both sides are recomputed with Decimal jets at 80 digits and the
    residual is re-measured there.  The closed forms lose digits to
    cancellation as k grows and as lam shrinks, so a row still over the
    threshold is recomputed at 160, then 320 digits, and keeps its reading
    at 320: a real defect still reads over the threshold.  A row whose next
    rung needs more digits of pi than `decimal_sin_cos` holds (a kernel
    argument above about 1e258) raises ArithmeticError: its reading is not
    resolved.

    lam and t may be arrays of points (broadcast together).  The float left
    side is then one jet pass over all of them, and only the rows over the
    retry threshold are recomputed in Decimals, one by one.  Each row equals
    the scalar call on its point, bit for bit; a scalar call returns a float.
    A residual that is still not finite after the retry raises
    ArithmeticError.
    """
    if k < 0:
        raise ValueError("k >= 0")
    lams, ts, shape = _mk_points(lam, t)
    if np.any(lams <= 0):
        raise ValueError("lam > 0")
    # an overflowing row is retried below, then raised: no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _mk_lhs_value(k, lams, ts)
        rhs, scale = _mk_rhs(k, lams, ts, _dp_trig_rows)
        den = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _REL_FLOOR * scale)
        res = np.divide(np.abs(lhs - rhs), den, out=np.zeros(den.shape),
                        where=den != 0.0)
    retry_at = _MP_RETRY if k > 0 else _MP_RETRY_K0
    # NaN compares False, so a non-finite row is retried too
    for i in np.flatnonzero(~(res <= retry_at)).tolist():
        for dps in _MP_DPS:
            try:
                res[i] = _mk_residual_mp(k, lams[i], ts[i], dps)
            except ValueError as exc:  # sin/cos of lam needs more digits of pi
                raise ArithmeticError(
                    f"kernel-identity residual {float(res[i])} unresolved at k={k}, "
                    f"lam={float(lams[i])}, t={float(ts[i])}: {exc}") from exc
            if res[i] <= retry_at:
                break
    finite = np.isfinite(res)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ArithmeticError(f"kernel-identity residual {float(res[i])} at k={k}, "
                              f"lam={float(lams[i])}, t={float(ts[i])}")
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
    come from one `hankel_h` call, on the rule of its largest lam.
    """
    if count < 1:
        raise ValueError("count >= 1")
    if m < 0:
        raise ValueError("m >= 0")
    zeros = np.array([bessel_zero(m + dim.k, i) for i in range(1, count + 1)])
    lam_grid = np.linspace(0.3, zeros[-1] + 2.0, 40)
    values = np.abs(hankel_h(data.h, dim.k, np.concatenate([zeros, lam_grid]),
                             quad, data.support))
    fmax = float(np.max(values[count:]))
    return list(zip(zeros.tolist(), values[:count].tolist())), fmax
