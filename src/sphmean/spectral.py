"""Frequency-side checks for spherical mean data.

Three tools live here:

* :func:`hankel` — the weighted Hankel-type transform of a profile against the
  normalized spherical Bessel kernel, with oscillation-aware paneling;
* :func:`cross_product_residual` — the defect in the cross-product identity
  that ties the first- and second-kind kernel integrals of range data
  together;
* :func:`mk_residual` — the defect in the closed-form evaluation of the
  boundary operator applied to the shifted first-kind kernel (the two sides
  are computed by entirely different routes: derivative jets on the left,
  closed trig kernels on the right).

All identities are exact in theory; the residuals measure floating-point and
quadrature error only, so they make sharp regression checks.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp

from .exactmath import coeff_C
from .specfun import (
    Jet,
    bessel_zero,
    d_operator,
    dp_cosc,
    dp_sinc,
    dp_trig_mp,
    raw_j,
    raw_j_jet,
    raw_to_normalized,
    raw_y,
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


def _order_from_alpha(alpha: float) -> int:
    k = int(round(alpha - 0.5))
    if k < 0 or abs(alpha - (k + 0.5)) > 1e-12:
        raise ValueError("kernel order must be half-integer k + 1/2 with k >= 0")
    return k


def _hankel_rule(lam: float, support, quad: QuadratureRule):
    if lam < 0:
        raise ValueError("lam >= 0")
    a, b = support
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return _lam_rule(lam, a, b, quad), a, b


def hankel(g, alpha: float, lam: float, quad: QuadratureRule = DEFAULT_QUAD,
           support=(0.0, 2.0)) -> float:
    """Weighted transform  integral of g(t) j_alpha(lam t) t^(2 alpha + 1) dt.

    `g` is a plain callable of t (vectorized over numpy arrays).  The kernel
    is the normalized first-kind function (value 1 at zero argument), so the
    integrand is regular at t = 0 and the support may start there.
    """
    k = _order_from_alpha(alpha)
    rule, a, b = _hankel_rule(lam, support, quad)
    power = 2 * k + 2  # 2*alpha + 1 with alpha = k + 1/2

    def integrand(t):
        return g(t) * sph_bessel_j(k, lam * t) * t ** power

    return rule.integrate(integrand, a, b)


def hankel_h(h, k: int, lam: float, quad: QuadratureRule = DEFAULT_QUAD,
             support=(0.0, 2.0)) -> float:
    """Same transform written against h(t) = t^(2k+1) g(t).

    Equals hankel(g, k + 1/2, lam) when h and g are consistent; having both
    routes avoids dividing by t^(2k+1) near the origin.
    """
    rule, a, b = _hankel_rule(lam, support, quad)

    def integrand(t):
        return h(t) * sph_bessel_j(k, lam * t) * t

    return rule.integrate(integrand, a, b)


def _h_callable(data):
    fn = getattr(data, "h", None)
    if callable(fn):
        return fn
    if callable(data):
        return data
    raise TypeError("expected a callable h(t) or an object exposing .h")


def _h_support(data, support):
    if support is not None:
        return support
    sup = getattr(data, "support", None)
    if sup is not None:
        return sup
    return (0.0, 2.0)


def cross_product_terms(data, k: int, lam: float,
                        quad: QuadratureRule = DEFAULT_QUAD,
                        support=None) -> tuple:
    """Both sides of the cross-product identity and their relative defect.

    With I_j = integral of raw_j(k, lam t) t h(t) dt and I_y the same with the
    second-kind kernel, range data satisfies I_j * raw_y(k, lam) =
    I_y * raw_j(k, lam) exactly.  Returns (lhs, rhs, residual) with residual
    = |difference| / max(|sides|, floor) where the floor is a small multiple
    of the natural product scale, so the ratio stays meaningful when lam
    sits near a kernel zero.

    The second-kind kernel blows up like t^-(2k+1) at the origin, so the
    h-support must stay away from t = 0.
    """
    if lam <= 0:
        raise ValueError("lam > 0")
    if k < 0:
        raise ValueError("k >= 0")
    fn = _h_callable(data)
    a, b = _h_support(data, support)
    if a <= 0.0:
        raise ValueError("h-support must stay away from t = 0 "
                         "(second-kind kernel is singular there)")
    if b <= a:
        raise ValueError("need a < b")
    rule = _lam_rule(lam, a, b, quad)
    c_k = raw_to_normalized(k)
    # one h evaluation on the rule's nodes feeds both kernel integrals
    t, w = rule.points(a, b)
    h_t = fn(t)
    # series-backed normalized kernel is stable at small arguments
    i_j = float(np.dot(w, c_k * sph_bessel_j(k, lam * t) * t * h_t))
    i_y = float(np.dot(w, dp_cosc(k, lam * t) * t * h_t))
    j_lam = raw_j(k, lam)
    y_lam = raw_y(k, lam)
    lhs = i_j * y_lam
    rhs = i_y * j_lam
    diff = abs(lhs - rhs)
    if diff == 0.0:
        return lhs, rhs, 0.0
    scale = max(abs(i_j), abs(i_y)) * max(abs(j_lam), abs(y_lam))
    den = max(abs(lhs), abs(rhs), _REL_FLOOR * scale)
    if den == 0.0:
        return lhs, rhs, 0.0
    return lhs, rhs, diff / den


def cross_product_residual(data, k: int, lam: float,
                           quad: QuadratureRule = DEFAULT_QUAD,
                           support=None) -> float:
    """Relative defect in the cross-product identity; see cross_product_terms."""
    return cross_product_terms(data, k, lam, quad, support)[2]


# ---------------------------------------------------------------------------
# the boundary-operator identity on the shifted kernel


def _mk_points(lam, t):
    """lam and t broadcast together: flat float arrays and their shape."""
    lams, ts = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                   np.asarray(t, dtype=float))
    if np.any(ts == 0) or np.any(1 + ts == 0):
        raise ValueError("t = 0 and t = -1 are outside the domain")
    return lams.ravel(), ts.ravel(), ts.shape


def _mk_sides(k: int, lam, t, use_mp: bool, dps: int = 80):
    """Both sides of the kernel identity and their scale.

    In floats, lam and t are arrays of points: the left side is one jet pass
    over all of them, and the closed-form right side (with its own
    cancellation guard) runs point by point.  With `use_mp`, one point is
    evaluated in mpmath at `dps` digits.
    """
    if use_mp:
        with mp.workdps(dps):
            lam_v = mp.mpf(lam)
            t_v = mp.mpf(t)
            lhs = _mk_lhs_value(k, lam_v, t_v)
            rhs, scale = _mk_rhs_value(k, lam_v, t_v, dps)
            return lhs, rhs, scale
    lams, ts = np.atleast_1d(lam, t)
    return (_mk_lhs_value(k, lams, ts), *_mk_rhs_rows(k, lams, ts))


def _mk_lhs_value(k: int, lam, t):
    """Boundary operator applied to the shifted kernel, term by term.

    Term p is C(k,p) (-1)^p D^p of (1+t)^(p+1) raw_j(k, lam (1+t)) / t,
    evaluated through a derivative jet of order k at the base point t
    (float arrays of points, or one mpf point).
    """
    x = Jet.variable(t, k)
    w = x + 1
    arg = w * lam
    rj = raw_j_jet(k, arg)
    core = rj / x
    acc = None
    for p in range(k + 1):
        term_jet = w ** (p + 1) * core
        coeff = coeff_C(k, p)
        if isinstance(t, mpmath.mpf):
            c = mp.mpf(coeff)
        else:
            c = float(coeff)
        val = c * d_operator(term_jet, p)
        if p % 2:
            val = -val
        acc = val if acc is None else acc + val
    return acc


def _mk_rhs_value(k: int, lam, t, dps):
    """Closed form: (-1)^k lam^(2k+1) (D^k sinc * y + D^k cosc * j)."""
    if dps is None:
        sinc = dp_sinc(k, lam * t)
        cosc = dp_cosc(k, lam * t)
        j_lam = raw_j(k, lam)
        y_lam = raw_y(k, lam)
        front = lam ** (2 * k + 1)
    else:
        sinc = dp_trig_mp(k, lam * t, "sin", dps)
        cosc = dp_trig_mp(k, lam * t, "cos", dps)
        j_lam = dp_trig_mp(k, lam, "sin", dps)
        y_lam = dp_trig_mp(k, lam, "cos", dps)
        front = mp.mpf(lam) ** (2 * k + 1)
    t1 = sinc * y_lam
    t2 = cosc * j_lam
    rhs = front * (t1 + t2)
    if k % 2:
        rhs = -rhs
    scale = abs(front) * max(abs(t1), abs(t2))
    return rhs, scale


def _mk_rhs_rows(k: int, lams, ts):
    """The float closed-form side and its scale at each point, one by one."""
    rows = [_mk_rhs_value(k, lam, t, None) for lam, t in zip(lams.tolist(), ts.tolist())]
    rhs, scale = np.array(rows, dtype=float).reshape(-1, 2).T
    return rhs, scale


def mk_lhs(k: int, lam, t):
    """Left side of the kernel identity (jet route), float precision.

    lam and t may be arrays (broadcast together); see mk_residual.
    """
    lams, ts, shape = _mk_points(lam, t)
    return _shaped(_mk_lhs_value(k, lams, ts), shape)


def mk_rhs(k: int, lam, t):
    """Right side of the kernel identity (closed trig route).

    lam and t may be arrays (broadcast together); see mk_residual.
    """
    lams, ts, shape = _mk_points(lam, t)
    return _shaped(_mk_rhs_rows(k, lams, ts)[0], shape)


def mk_residual(k: int, lam, t):
    """Relative defect between the two routes through the kernel identity.

    Float arithmetic first; when cancellation pushes the float residual above
    the retry threshold (1e-9, or 1e-14 for the k = 0 angle-addition case),
    both sides are recomputed with mpmath jets at 80 digits and the residual
    is re-measured there.

    lam and t may be arrays of points (broadcast together).  The float left
    side is then one jet pass over all of them, and only the rows over the
    retry threshold are recomputed in mpmath, one by one.  Each row equals
    the scalar call on its point, bit for bit; a scalar call returns a float.
    A residual that is still not finite after the retry raises
    ArithmeticError.
    """
    if k < 0:
        raise ValueError("k >= 0")
    lams, ts, shape = _mk_points(lam, t)
    if np.any(lams <= 0):
        raise ValueError("lam > 0")
    lhs, rhs, scale = _mk_sides(k, lams, ts, use_mp=False)
    den = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _REL_FLOOR * scale)
    res = np.divide(np.abs(lhs - rhs), den, out=np.zeros(den.shape), where=den != 0.0)
    retry_at = _MP_RETRY if k > 0 else _MP_RETRY_K0
    # NaN compares False, so a non-finite row is retried too
    for i in np.flatnonzero(~(res <= retry_at)).tolist():
        lhs_i, rhs_i, scale_i = _mk_sides(k, lams[i], ts[i], use_mp=True)
        den_i = max(abs(lhs_i), abs(rhs_i), _REL_FLOOR * scale_i)
        res[i] = 0.0 if den_i == 0 else float(abs(lhs_i - rhs_i) / den_i)
    finite = np.isfinite(res)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ArithmeticError(f"kernel-identity residual {float(res[i])} at k={k}, "
                              f"lam={float(lams[i])}, t={float(ts[i])}")
    return _shaped(res, shape)


# ---------------------------------------------------------------------------
# vanishing at Bessel zeros


def bessel_zero_vanishing(data, dim: Dimension, m: int, count: int,
                          quad: QuadratureRule = DEFAULT_QUAD,
                          support=None):
    """Transform magnitudes at the first `count` zeros of the order-(m+k)
    first-kind kernel.

    `data` supplies h (object with .h and optionally .support, or a bare
    callable).  For data in the range of the spherical mean transform with a
    degree-m harmonic the returned magnitudes vanish up to quadrature error;
    off-range data leaves visible mass at some zero.  Returns a list of
    (zero, |transform|) pairs.
    """
    if count < 1:
        raise ValueError("count >= 1")
    if m < 0:
        raise ValueError("m >= 0")
    fn = _h_callable(data)
    a, b = _h_support(data, support)
    out = []
    for i in range(1, count + 1):
        lam = bessel_zero(m + dim.k, i)
        val = hankel_h(fn, dim.k, lam, quad, (a, b))
        out.append((lam, abs(val)))
    return out
