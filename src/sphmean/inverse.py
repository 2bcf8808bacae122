"""Recovering the radial profile from its spherical mean data.

Two routes:

* :func:`invert_radial_n3` — the closed-form inversion available in dimension
  three, f(r) = 2 h'(1-r) / r, using an analytic derivative when the data
  carries one and a high-order difference stencil otherwise;
* :func:`invert_radial` — regularized collocation for any odd dimension: the
  forward integral is discretized on a Gauss grid in u, collocated at points
  t_i in (0, 1) (half data), and the resulting first-kind system is solved by
  truncated-SVD least squares.

The collocation grid matters: each row truncates the global Gauss sum at the
cut u = 1 - t_i, and a cut landing mid-cell costs an O(spacing) quadrature
error that no amount of regularization removes.  Cuts at the Gauss cell
boundaries (cumulative weights) knock this down to second order, which is
what makes the round trips below 1e-3 achievable at desk-scale grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transform import Dimension, _front_constant, _gauss_nodes, q_kernel

R_FLOOR = 1e-3

# collocation cuts stay inside [CUT_LO, 1 - CUT_LO]; tight enough that every
# Gauss cell boundary survives at the grid sizes used here
_CUT_LO = 1e-5


@dataclass(frozen=True)
class InversionConfig:
    """Discretization sizes and the relative singular-value threshold."""

    n_unknowns: int = 240
    n_collocation: int = 241
    svd_cutoff: float = 1e-5

    def __post_init__(self):
        if self.n_unknowns < 4:
            raise ValueError("n_unknowns >= 4")
        if self.n_collocation < self.n_unknowns:
            raise ValueError("n_collocation >= n_unknowns")
        if not (0.0 < self.svd_cutoff < 1.0):
            raise ValueError("svd_cutoff in (0, 1)")


@dataclass
class InversionResult:
    """Nodal reconstruction with least-squares diagnostics."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    residual: float
    rank: int
    singular_values: np.ndarray = field(repr=False)

    def rel_l2_error(self, f_true) -> float:
        """Weighted relative L2 distance of the nodal values from f_true."""
        ref = np.asarray(f_true(self.nodes), dtype=float)
        den = np.sqrt(np.sum(self.weights * ref ** 2))
        if den == 0.0:
            return float(np.sqrt(np.sum(self.weights * self.values ** 2)))
        return float(np.sqrt(np.sum(self.weights * (self.values - ref) ** 2)) / den)


def unknown_grid(n_unknowns: int):
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    x, w = _gauss_nodes(n_unknowns)
    return 0.5 + 0.5 * x, 0.5 * w


def collocation_cuts(n_unknowns: int, n_collocation: int) -> np.ndarray:
    """Cut positions c = 1 - t matched to the unknown grid.

    Square-ish systems (n_collocation <= n_unknowns + 1) place cuts at the
    Gauss cell boundaries (cumulative weights): truncating the Gauss sum at
    a cell boundary is second-order accurate, against first order for a cut
    landing mid-cell.  Oversampled systems use Chebyshev-distributed cuts
    instead — the mid-cell sawtooth they incur averages out in the least
    squares while the extra rows buy rank.  Cuts stay inside
    [1e-5, 1 - 1e-5].
    """
    lo = _CUT_LO
    hi = 1.0 - _CUT_LO
    if n_collocation <= n_unknowns + 1:
        _, w = unknown_grid(n_unknowns)
        inner = np.cumsum(w)[:-1]
        inner = inner[(inner > lo) & (inner < hi)]
        want = n_collocation - 2
        if want <= len(inner):
            # a step of at least one keeps the rounded indices distinct
            chosen = inner[np.linspace(0, len(inner) - 1, want).round().astype(int)]
        else:
            j = np.arange(want - len(inner))
            fill = 0.5 - (0.5 - lo) * np.cos(np.pi * (j + 0.5) / max(1, len(j)))
            chosen = np.concatenate([inner, fill])
        cuts = np.concatenate([[lo], chosen, [hi]])
    else:
        j = np.arange(n_collocation)
        cuts = 0.5 - (0.5 - lo) * np.cos(np.pi * (j + 0.5) / n_collocation)
    return np.sort(cuts)


def forward_matrix(dim: Dimension, cfg: InversionConfig):
    """Collocation matrix A[i, j] = c_n w_j u_j Q(t_i, u_j)^k [u_j >= 1-t_i].

    Returns (t_grid, u_nodes, u_weights, A); rows are collocation points
    t_i in (0, 1), columns the unknown nodal values f(u_j).
    """
    c_n = _front_constant(dim.n)
    u, w = unknown_grid(cfg.n_unknowns)
    cuts = collocation_cuts(cfg.n_unknowns, cfg.n_collocation)
    t_grid = np.sort(1.0 - cuts)
    T, U = np.meshgrid(t_grid, u, indexing="ij")
    A = c_n * w[None, :] * U * q_kernel(T, U) ** dim.k * (U >= 1.0 - T)
    return t_grid, u, w, A


def invert_radial(g, dim: Dimension, cfg: InversionConfig = InversionConfig()) -> InversionResult:
    """Reconstruct nodal values of f from its normalized mean data g on (0,1).

    `g` is a callable of t (an object exposing .h or .g works too, and the
    weighted form h = t^(n-2) g is preferred since it stays evaluable down
    to t near 0), called once on the array of collocation t; a scalar
    answer holds at every t.  Only samples with t in (0, 1) are used — half
    data suffices.  The truncated-SVD solve keeps singular values above
    cutoff * sigma_max and reports the effective rank; a rank below a
    quarter of the unknown count is rejected as an ill-posed configuration.
    """
    h_fn = getattr(g, "h", None)
    fn = getattr(g, "g", None)
    if not callable(fn):
        fn = g
    if not callable(h_fn) and not callable(fn):
        raise TypeError("expected callable g(t) or an object exposing .h or .g")
    t_grid, u, w, A = forward_matrix(dim, cfg)
    if callable(h_fn):
        b = np.full(t_grid.shape, h_fn(t_grid), dtype=float)
    else:
        g = np.full(t_grid.shape, fn(t_grid), dtype=float)
        # t^(n-2) per element in floats: numpy's array power rounds otherwise
        power = dim.n - 2
        b = np.array([v * t ** power for v, t in zip(g.tolist(), t_grid.tolist())])

    U_, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s >= cfg.svd_cutoff * s[0]
    rank = int(np.count_nonzero(keep))
    if rank < cfg.n_unknowns // 4:
        raise RuntimeError(
            f"ill-posed configuration: effective rank {rank} is below a "
            f"quarter of {cfg.n_unknowns} unknowns")
    x = Vt[:rank].T @ ((U_[:, :rank].T @ b) / s[:rank])
    fit = A @ x - b
    b_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(fit)) / b_norm if b_norm != 0 else 0.0
    return InversionResult(nodes=u, weights=w, values=x, residual=residual,
                           rank=rank, singular_values=s)


# ---------------------------------------------------------------------------
# dimension-three closed form


def _h_prime(data):
    """Return a callable h'(t) from whatever derivative access `data` has."""
    if isinstance(data, tuple) and len(data) == 2 and all(callable(c) for c in data):
        return np.vectorize(data[1], otypes=[float])  # a function of one t
    dp_h = getattr(data, "dp_h", None)
    # dp_h reaches order 1 only where k >= 1: for dimension-three forward
    # data (k = 0) the difference stencil takes over
    dim = getattr(data, "dim", None)
    if callable(dp_h) and (dim is None or dim.k >= 1):
        # D h = h'/t, so h'(t) = t * (D h)(t)
        return lambda t: t * dp_h(t, 1)
    h = getattr(data, "h", None)
    if not callable(h):
        h = data
    if not callable(h):
        raise TypeError("expected an (h, h') pair, dp_h access, or callable h")

    def fd(t):
        # five-point stencil: truncation O(step^4), roundoff ~ eps/step
        step = 6e-6
        return (h(t - 2 * step) - 8 * h(t - step)
                + 8 * h(t + step) - h(t + 2 * step)) / (12 * step)

    return fd


def invert_radial_n3(data, r):
    """f(r) = 2 h'(1-r) / r — the closed-form inversion in dimension three.

    `data` supplies h: an object with dp_h (analytic derivative, preferred),
    a pair (h, h') of functions of one t, or a bare callable h (differenced
    numerically).  Except for the pair, h is read in one call on the array of
    1 - r.  `r` may be a scalar or an array with entries in [1e-3, 1).
    """
    hp = _h_prime(data)
    rs = np.asarray(r, dtype=float)
    if np.any(rs < R_FLOOR) or np.any(rs >= 1.0):
        raise ValueError(f"radius must lie in [{R_FLOOR}, 1)")
    flat = np.atleast_1d(rs)
    out = 2.0 * np.full(flat.shape, hp(1.0 - flat), dtype=float) / flat
    if rs.ndim == 0:
        return float(out[0])
    return out
