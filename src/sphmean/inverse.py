"""Recovering the radial profile from its spherical mean data.

:func:`invert_radial` is regularized collocation for any odd dimension: the
forward integral is discretized on a Gauss grid in u, collocated against
the weighted data h = t^(n-2) g at points t_i in (0, 1) (half data), and
the resulting first-kind system is solved by truncated-SVD least squares in
one gelsd least-squares call; rank counts s > cutoff * s_max, so a singular
value equal to the cutoff is dropped.

The collocation grid matters: each row truncates the global Gauss sum at the
cut u = 1 - t_i, and a cut landing mid-cell costs an O(spacing) quadrature
error that no amount of regularization removes.  Cuts at the Gauss cell
boundaries (cumulative weights) knock this down to second order, which is
what makes the round trips below 1e-3 achievable at desk-scale grids.
"""

from __future__ import annotations

import numpy as np

from .transform import Dimension, QuadratureRule, _Frozen, _dp_q_kernels, _front_constant

# collocation cuts stay inside [CUT_LO, 1 - CUT_LO]; tight enough that every
# Gauss cell boundary survives at the grid sizes used here
_CUT_LO = 1e-5


class InversionConfig(_Frozen):
    """Discretization sizes and the relative singular-value threshold."""

    def __init__(self, n_unknowns: int = 240, n_collocation: int = 241,
                 svd_cutoff: float = 1e-5):
        self._require_integers(n_unknowns=n_unknowns, n_collocation=n_collocation)
        if n_unknowns < 4:
            raise ValueError("n_unknowns >= 4")
        if n_collocation < n_unknowns:
            raise ValueError("n_collocation >= n_unknowns")
        if not (0.0 < svd_cutoff < 1.0):
            raise ValueError("svd_cutoff in (0, 1)")
        self._freeze(n_unknowns=n_unknowns, n_collocation=n_collocation,
                     svd_cutoff=svd_cutoff)


class InversionResult:
    """Nodal reconstruction with least-squares diagnostics."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, values: np.ndarray,
                 residual: float, rank: int, singular_values: np.ndarray):
        self.nodes, self.weights, self.values = nodes, weights, values
        self.residual, self.rank, self.singular_values = residual, rank, singular_values

    def rel_l2_error(self, f_true) -> float:
        """Weighted relative L2 distance of the nodal values from f_true."""
        ref = np.asarray(f_true(self.nodes), dtype=float)
        den = np.sqrt(np.sum(self.weights * ref ** 2))
        if den == 0.0:
            return float(np.sqrt(np.sum(self.weights * self.values ** 2)))
        return float(np.sqrt(np.sum(self.weights * (self.values - ref) ** 2)) / den)


def unknown_grid(n_unknowns: int):
    """Gauss-Legendre nodes and weights mapped to (0, 1)."""
    return QuadratureRule(n_unknowns, 1).points(0.0, 1.0)


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
    t_i in (0, 1), columns the unknown nodal values f(u_j).  Q^k is row 0 of
    `_dp_q_kernels`; off the mask Q < 0, so its zeros are -0.0 for odd k.
    """
    c_n = _front_constant(dim.n)
    u, w = unknown_grid(cfg.n_unknowns)
    cuts = collocation_cuts(cfg.n_unknowns, cfg.n_collocation)
    t_grid = np.sort(1.0 - cuts)
    t = t_grid[:, None]
    A = _dp_q_kernels(dim.k, (0,), t, u)[0]  # in place: no temporary of A's size
    A *= c_n * w * u
    A *= u >= 1.0 - t
    return t_grid, u, w, A


def invert_radial(h, dim: Dimension, cfg: InversionConfig = InversionConfig()) -> InversionResult:
    """Reconstruct nodal values of f from its weighted mean data
    h(t) = t^(n-2) g(t) on (0, 1).

    `h` is a callable of t, or an object exposing it as .h, called once on
    the array of collocation t; a scalar answer holds at every t.  Only
    samples with t in (0, 1) are used — half data suffices.  The
    truncated-SVD solve is one gelsd least-squares call, which forms no
    singular vectors; rank counts s > cutoff * sigma_max, so a singular
    value equal to the cutoff is dropped.  A rank below a quarter of the
    unknown count is rejected as an ill-posed configuration.
    """
    h = getattr(h, "h", h)
    if not callable(h):
        raise TypeError("expected a callable h(t) or an object exposing .h")
    t_grid, u, w, A = forward_matrix(dim, cfg)
    b = np.full(t_grid.shape, h(t_grid), dtype=float)

    x, _, rank, s = np.linalg.lstsq(A, b, rcond=cfg.svd_cutoff)
    if rank < cfg.n_unknowns // 4:
        raise RuntimeError(
            f"ill-posed configuration: effective rank {rank} is below a "
            f"quarter of {cfg.n_unknowns} unknowns")
    fit = A @ x - b
    b_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(fit)) / b_norm if b_norm != 0 else 0.0
    return InversionResult(nodes=u, weights=w, values=x, residual=residual,
                           rank=int(rank), singular_values=s)

