"""Reference values the benchmark checks `smt` output against.

Nothing here imports `sphmean`: the profile is the closed-form bump, and the
forward data are the same one-dimensional Q-kernel integrals evaluated with a
composite Gauss-Legendre rule of much higher order than the program's own
(24 panels of 48 nodes against 8 of 32).  A change to the program's forward
core therefore cannot move a reference or another workload's inputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

REF_PANELS = 24
REF_NODES = 48


def omega(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


@lru_cache(maxsize=None)
def _unit_rule(panels: int, nodes: int):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    return ((mid[:, None] + half[:, None] * x).ravel(),
            (half[:, None] * w).ravel())


class Bump:
    """amplitude * exp(-1 / (1 - y^2)), y = (r - center) / width, and its
    r-derivatives in closed form.

    d^j/dy^j exp(-1/(1-y^2)) = P_j(y) (1-y^2)^(-2j) exp(-1/(1-y^2)) with
    P_0 = 1 and P_{j+1} = P_j' (1-y^2)^2 + 4 j y (1-y^2) P_j - 2 y P_j.
    """

    def __init__(self, center: float, width: float, amplitude: float = 1.0):
        self.center = center
        self.width = width
        self.amplitude = amplitude

    @property
    def support(self):
        return self.center - self.width, self.center + self.width

    @staticmethod
    @lru_cache(maxsize=None)
    def _numerator(j: int) -> np.polynomial.Polynomial:
        P = np.polynomial.Polynomial([1.0])
        one_m_y2 = np.polynomial.Polynomial([1.0, 0.0, -1.0])
        y = np.polynomial.Polynomial([0.0, 1.0])
        for i in range(j):
            P = P.deriv() * one_m_y2 ** 2 + 4 * i * y * one_m_y2 * P - 2 * y * P
        return P

    def derivative(self, r, j: int = 0):
        """f^(j)(r), zero outside the open support."""
        r = np.asarray(r, dtype=float)
        y = (r - self.center) / self.width
        inside = np.abs(y) < 1.0
        yi = np.where(inside, y, 0.0)
        s = 1.0 - yi * yi
        # exp and the (1-y^2)^(-2j) pole combined, so the edge stays finite
        core = np.exp(-1.0 / s - 2 * j * np.log(s))
        val = self._numerator(j)(yi) * core * self.amplitude / self.width ** j
        return np.where(inside, val, 0.0)

    def __call__(self, r):
        return self.derivative(r, 0)


def _limits(support, t):
    r_lo, r_hi = support
    a = np.maximum(np.abs(1.0 - t), r_lo)
    b = np.full_like(t, min(1.0, r_hi))
    return a, np.maximum(a, b)


def _nodes(support, t, panels=REF_PANELS, nodes=REF_NODES):
    x, w = _unit_rule(panels, nodes)
    a, b = _limits(support, t)
    span = (b - a)[:, None]
    return a[:, None] + span * x, span * w


def _dp_q_power(k: int, p: int, t, u):
    """D^p of Q(t,u)^k with D = (1/t) d/dt.

    In s = t^2, Q = -(s - s1)(s - s2) with s1 = (1-u)^2, s2 = (1+u)^2, and
    D = 2 d/ds, so Leibniz on the two linear factors gives the derivative.
    """
    s = (t * t)[:, None] if np.ndim(t) else t * t
    d1, d2 = s - (1.0 - u) ** 2, s - (1.0 + u) ** 2
    acc = np.zeros(np.broadcast(d1, d2).shape)
    for j in range(max(0, p - k), min(p, k) + 1):
        f1 = math.perm(k, j) * d1 ** (k - j)
        f2 = math.perm(k, p - j) * d2 ** (k - p + j)
        acc += math.comb(p, j) * f1 * f2
    return (-1) ** k * 2 ** p * acc


def h_radial(f, n: int, t, pmax: int = 0, panels=REF_PANELS, nodes=REF_NODES):
    """Rows D^0 h .. D^pmax h of radial data, h = t^(n-2) g, pmax <= k."""
    t = np.asarray(t, dtype=float)
    k = (n - 3) // 2
    u, w = _nodes(f.support, t, panels, nodes)
    weighted = omega(n - 1) / (4 ** k * omega(n)) * w * u * f(u)
    return np.array([np.sum(weighted * _dp_q_power(k, p, t, u), axis=1)
                     for p in range(pmax + 1)])


def _gegenbauer(m: int, alpha: float, x):
    prev = np.ones_like(x)
    if m == 0:
        return prev
    cur = 2 * alpha * x
    for i in range(2, m + 1):
        prev, cur = cur, (2 * x * (i + alpha - 1) * cur
                          - (i + 2 * alpha - 2) * prev) / i
    return cur


def h_harmonic(f, n: int, m: int, t):
    """h_m(t) = t^(n-2) g_m(t) of f(|x|) Y_m, by the Gegenbauer kernel."""
    t = np.asarray(t, dtype=float)
    k, alpha = (n - 3) // 2, (n - 2) / 2
    u, w = _nodes(f.support, t)
    x = np.clip((1.0 + u * u - (t * t)[:, None]) / (2.0 * u), -1.0, 1.0)
    at_one = math.prod((2 * alpha - 1 + i) / i for i in range(1, m + 1))
    c = omega(n - 1) / (omega(n) * at_one)
    kern = _gegenbauer(m, alpha, x) * (1.0 - x * x) ** k
    return c * np.sum(w * u ** (n - 2) * f(u) * kern, axis=1)


class Derivative:
    """The m-th derivative of a bump, as a profile with the bump's support."""

    def __init__(self, bump: Bump, m: int):
        self.bump = bump
        self.m = m
        self.support = bump.support

    def __call__(self, r):
        return self.bump.derivative(r, self.m)


def g_radial(f, n: int, t, panels=REF_PANELS, nodes=REF_NODES):
    t = np.asarray(t, dtype=float)
    return h_radial(f, n, t, 0, panels, nodes)[0] / t ** (n - 2)


def gauss_unit(count: int):
    """Gauss-Legendre nodes and weights on (0, 1): the inversion's grid."""
    x, w = np.polynomial.legendre.leggauss(count)
    return 0.5 + 0.5 * x, 0.5 * w


def rel_l2(values, ref, weights) -> float:
    den = math.sqrt(float(np.sum(weights * ref ** 2)))
    return math.sqrt(float(np.sum(weights * (values - ref) ** 2))) / den


def rel_sup(values, ref) -> float:
    """max |values - ref| relative to max |ref| (pointwise ratios blow up
    where the data vanishes)."""
    return float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))
