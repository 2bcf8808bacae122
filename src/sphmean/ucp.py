"""Failure of unique continuation for spherical means, by construction.

Spherical mean data over centers on the unit sphere can vanish on a whole
band of radii around t = 1 without the function vanishing: take
f = F^(m) for a smooth bump F supported in (epsilon, 1).  For t with
|1 - t| < epsilon the mean integral runs over the full support of f, the
kernel is a polynomial of degree 4k + 1 in the radius, and m-fold
integration by parts (m >= 4k + 2, no boundary terms) kills it exactly.
Outside the band the integral truncates at |1 - t| and survives.

:class:`UcpSpec` pins down one such construction, :func:`build_counterexample`
realizes f through exact jet differentiation of the bump, and
:func:`verify_counterexample` measures how far the forward data actually
drops inside the band relative to its global size.
"""

from __future__ import annotations

import numpy as np

from .transform import (
    BumpProfile,
    DerivativeProfile,
    Dimension,
    QuadratureRule,
    T_FLOOR,
    _Frozen,
    forward_h,
    g_from_h,
)


class UcpSpec(_Frozen):
    """One vanishing-band construction: dimension, band width, derivative order.

    `bump` is (center, width) of the underlying smooth bump F; its support
    must sit inside (epsilon, 1) so that the band (1-epsilon, 1+epsilon)
    sees the whole of f at once.
    """

    def __init__(self, n: int, epsilon: float, m: int, bump: tuple = (0.6, 0.15)):
        dim = Dimension(n)  # validates odd n >= 3
        self._require_integers(m=m)
        if not (0.0 < epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        least = 4 * dim.k + 2
        if m < least:
            raise ValueError(
                f"derivative order m={m} below the sufficient order "
                f"{least} for n={n}")
        center, width = bump
        if width <= 0:
            raise ValueError("bump width must be positive")
        if center - width < epsilon or center + width > 1.0:
            raise ValueError(
                "bump support must sit inside (epsilon, 1), got "
                f"({center - width}, {center + width}) with epsilon={epsilon}")
        self._freeze(n=n, epsilon=epsilon, m=m, bump=bump)

    @property
    def dim(self) -> Dimension:
        return Dimension(self.n)

    @property
    def band(self):
        """The radius interval (1-epsilon, 1+epsilon) where the data vanishes."""
        return (1.0 - self.epsilon, 1.0 + self.epsilon)


def build_counterexample(spec: UcpSpec) -> DerivativeProfile:
    """The radial profile f = F^(m) whose mean data vanishes on spec.band.

    Refuses orders below 4k + 2: that is the order at which integration by
    parts clears the degree-(4k+1) kernel polynomial, and nothing weaker is
    claimed.  (Construction of the profile itself would go through at any
    order; :class:`DerivativeProfile` is public for exactly that kind of
    exploration.)
    """
    center, width = spec.bump
    return DerivativeProfile(BumpProfile(center, width), spec.m)


# F^(m) develops steep boundary layers at the support touch points as m
# grows; the forward quadrature needs panels fine enough to resolve them
# before the in-band cancellation shows through (8 panels leave ~1e-2
# residual ratio at m = 6, 48 reach the ~1e-12 floor)
UCP_QUAD = QuadratureRule(nodes_per_panel=32, panels=48)


# fewest radii a verification grid may hold
MIN_GRID = 16


def default_grid(count: int = 201) -> np.ndarray:
    """Radii spread over (0, 2), clear of the endpoints and the g floor."""
    if count < MIN_GRID:
        raise ValueError(f"grid needs at least {MIN_GRID} points")
    return np.linspace(0.05, 1.95, count)


class UcpReport:
    """Verdict on one vanishing-band run.

    ratio_inside compares the largest |g| in the band against the global
    maximum on the grid; `trivial` flags data that is zero everywhere (no
    ratio to speak of), and `passed` requires both a non-trivial transform
    and a ratio at the quadrature noise floor.
    """

    def __init__(self, spec: UcpSpec, ratio_inside: float, max_inside: float,
                 max_global: float, tol: float, trivial: bool, passed: bool,
                 grid: np.ndarray = None, g_values: np.ndarray = None):
        self.spec, self.ratio_inside, self.tol = spec, ratio_inside, tol
        self.max_inside, self.max_global = max_inside, max_global
        self.trivial, self.passed = trivial, passed
        self.grid, self.g_values = grid, g_values


def verify_counterexample(spec: UcpSpec, quad: QuadratureRule = UCP_QUAD,
                          grid=None, tol: float = None,
                          profile=None) -> UcpReport:
    """Forward-transform the counterexample and measure the in-band drop.

    g is evaluated on `grid` (default :func:`default_grid`); the report
    carries ratio_inside = max_band |g| / max |g|.  `tol` defaults to 1e-7
    scaled by the panel count of `quad` relative to the 8-panel baseline —
    in-band values are pure quadrature noise, and that floor grows with the
    number of panels summed.  `profile` overrides the constructed f
    (testing hook; e.g. the zero profile).  A profile or transform value that
    is not finite in floats raises ArithmeticError.
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= T_FLOOR) or np.any(grid >= 2.0):
        raise ValueError(f"grid radii must lie in ({T_FLOOR}, 2)")
    if tol is None:
        tol = 1e-7 * max(1.0, quad.panels / 8.0)
    f = build_counterexample(spec) if profile is None else profile
    g = g_from_h(forward_h(f, spec.dim, grid, quad), grid, spec.n)

    lo, hi_ = spec.band
    inside = (grid > lo) & (grid < hi_)
    max_inside = float(np.max(np.abs(g[inside]))) if np.any(inside) else 0.0
    max_global = float(np.max(np.abs(g)))
    trivial = max_global == 0.0
    ratio = float("nan") if trivial else max_inside / max_global
    passed = (not trivial) and ratio <= tol
    return UcpReport(spec=spec, ratio_inside=ratio, max_inside=max_inside,
                     max_global=max_global, tol=tol, trivial=trivial,
                     passed=passed, grid=grid, g_values=g)
