"""Per-point field references: the bilinear interpolant and the functional H.

The chain reads F off the lattice (``diagnostics._lattice_F``) and H by
row-wise cumulative trapezoids (``DiagnosticsReport.H``); these evaluate the
same quantities one point at a time from their definitions.
"""

import numpy as np


def interpolate(field, r, t):
    """Bilinear interpolation of a RadialField inside its defined levels.

    The last column and level use the cell below them, so a node query there
    returns the node.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    h = field.grid.h
    fi = np.clip(r / h, 0, field.grid.n_r)
    fj = np.clip(t / h, 0, field.n_levels - 1)
    i0 = np.minimum(np.floor(fi).astype(int), field.grid.n_r - 1)
    j0 = np.minimum(np.floor(fj).astype(int), field.n_levels - 2)
    di = fi - i0
    dj = fj - j0
    s = field.samples
    out = ((1 - di) * (1 - dj) * s[j0, i0] + di * (1 - dj) * s[j0, i0 + 1]
           + (1 - di) * dj * s[j0 + 1, i0] + di * dj * s[j0 + 1, i0 + 1])
    return out if out.ndim else float(out)


def H_of(field, config, r):
    """H(r) = integral of G(r, beta) for beta from t_star to r, lattice trapezoid.

    G(alpha, beta) = (alpha - beta)^q F(alpha, beta), and F(alpha, beta) =
    u((alpha - beta)/2, (alpha + beta)/2) is the field in characteristic
    coordinates.
    """
    h = field.grid.h
    n = int(round((r - config.t_star) / h))
    if n == 0:
        return 0.0
    betas = config.t_star + h * np.arange(n + 1)
    betas[-1] = r
    G = (r - betas) ** config.q * interpolate(field, (r - betas) / 2.0, (r + betas) / 2.0)
    return float(np.trapezoid(G, betas))
