"""Recovering the radial profile from its spherical mean data.

:func:`invert_radial` is regularized collocation for any odd dimension: the
forward integral is discretized on a Gauss grid in u, collocated against
the weighted data h = t^(n-2) g at points t_i in (0, 1) (half data), and
the resulting first-kind system is solved by truncated-SVD least squares.

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
    t = t_grid[:, None]
    mask = u >= 1.0 - t
    Q = q_kernel(t, u)
    # off the mask Q <= 0, and the mask's zero keeps only the sign of Q^k;
    # sign(Q)^k has that sign and spares libm's pow of a negative base,
    # many times slower than of a positive one
    A = c_n * w * u * np.where(mask, Q, np.sign(Q)) ** dim.k * mask
    return t_grid, u, w, A


def invert_radial(h, dim: Dimension, cfg: InversionConfig = InversionConfig()) -> InversionResult:
    """Reconstruct nodal values of f from its weighted mean data
    h(t) = t^(n-2) g(t) on (0, 1).

    `h` is a callable of t, or an object exposing it as .h, called once on
    the array of collocation t; a scalar answer holds at every t.  Only
    samples with t in (0, 1) are used — half data suffices.  The
    truncated-SVD solve keeps singular values above cutoff * sigma_max and
    reports the effective rank; a rank below a quarter of the unknown count
    is rejected as an ill-posed configuration.
    """
    h = getattr(h, "h", h)
    if not callable(h):
        raise TypeError("expected a callable h(t) or an object exposing .h")
    t_grid, u, w, A = forward_matrix(dim, cfg)
    b = np.full(t_grid.shape, h(t_grid), dtype=float)

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

