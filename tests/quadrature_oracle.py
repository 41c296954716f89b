"""The quadrature engine as it was before its sweep was cut to the support of g.

:func:`influence_quadrature` is kept here verbatim, with the argument check
:func:`_require` it called, as the reference ``regions.influence_quadrature``
is tested against bit for bit.  It sweeps every cell diagonal from beta_lo (or
below the lattice) up to the highest queried one, over every cell of each.
"""

from __future__ import annotations

import numpy as np


def _require(bad, message):
    if np.any(bad):
        raise ValueError(message)


def influence_quadrature(g, i, j, alpha_lo=None, beta_lo=None) -> np.ndarray:
    """``sum(W * g)`` over the regions R(i, j) of lattice nodes (i, j), optionally floored.

    ``g`` holds lattice samples indexed ``[k, a]`` for the node (a*h, k*h);
    ``i >= 1`` and ``j >= 0`` are ints or broadcastable integer arrays, and the
    result has their broadcast shape.  The integer floors clip every region to
    alpha >= alpha_lo and beta >= beta_lo: B(r, t) is R(i, j) with beta_lo =
    j_star, and T(t2, delta) is R(delta, t2 + delta) with alpha_lo = t2 +
    delta.  Each clipped region must fit the cells of ``g``; an empty one
    gives 0.  W is the lattice rule of the module docstring; multiply by h**2
    for the integral.

    A cell (k, a) has centre alpha_c = a + k + 1, beta_c = k - a.  With B = j - i
    and a_lo = max(alpha_lo, B), the cells between the columns alpha_c = a_lo
    and i + j are full (1/4 per corner), and those cut along one diagonal keep
    a triangle (1/6 per kept corner): right-cut in the column i + j, left-cut in
    the column a_lo (for a_lo < 1 it is column 0, which holds no cell),
    top-cut on the diagonal beta_c = B, bottom-cut on beta_c = beta_lo.  A
    corner on a cell centre, where alpha + beta is odd, leaves that cell a
    quadrant (1/12 per kept corner, 1/48 per corner).

    The diagonals are swept upward from beta_lo, keeping running column sums of
    the full, right-cut and left-cut corner sums; the bottom-cut diagonal
    enters the full sums only, its 1/6 written as 2/3 of their 1/4.  The nodes
    of diagonal B are answered before it is added, by one cumsum over the
    columns from a_lo + 1 (no prefix difference is taken) and one lookup in
    each cut column; the quadrants, O(1) per node, are added last.
    """
    g = np.asarray(g, dtype=float)
    i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64))
    shape, i, j = i.shape, i.ravel(), j.ravel()
    n_k, n_a = g.shape[0] - 1, g.shape[1] - 1      # cell rows, cells per row
    b, top = j - i, i + j
    lo = -n_a if beta_lo is None else beta_lo       # by default below every cell
    a_lo = b if alpha_lo is None else np.maximum(b, alpha_lo)
    # the region reaches lambda = (i + j - beta_lo)/2, or i + j where s = 0 cuts it first
    _require((i < 1) | (j < 0) | (j > n_k) | (np.minimum(top, (top - lo + 1) // 2) > n_a),
             "R(i, j) must fit the lattice of g")
    out = np.zeros(i.size)
    live = np.flatnonzero((b > lo) & (a_lo < top))
    order = live[np.argsort(b[live], kind="stable")]
    diags, first = np.unique(b[order], return_index=True)
    groups = dict(zip(diags.tolist(), np.split(order, first[1:])))

    full, right, left = (np.zeros(n_k + n_a + 1) for _ in range(3))
    flat, step = g.ravel(), n_a + 2                  # step: node (k, a) -> (k+1, a+1)
    for beta in range(lo, max(groups, default=lo) + 1):
        a0, a1 = max(0, -beta), min(n_a, n_k - beta)   # cells a0 <= a < a1, k = a + beta
        if a1 > a0:
            s0 = beta * (n_a + 1) + a0 * step
            stop = s0 + (a1 - a0) * step
            lower = flat[s0 : stop + 1 : step]          # c00 = lower[:-1], c11 = lower[1:]
            c01 = flat[s0 + 1 : stop : step]
            c10 = flat[s0 + n_a + 1 : stop + n_a + 1 : step]
            side = c01 + c10
            cut_r = side + lower[:-1]
        q = groups.get(beta)
        if q is not None:
            edge = int(a_lo[q[0]])                      # the left edge a_lo of every node of q
            c0, c1 = max(edge + 1, 0), top[q].max()
            run = np.zeros(c1 - c0 + 1)                 # run[c - c0 + 1] is column c
            np.multiply(full[c0:c1], 0.25, out=run[1:])
            if a1 > a0:      # top-cut cells c00 + c01 + c11, from the first column >= c0
                skip = max(0, (c0 - 2 * a0 - beta) // 2)
                tri = run[2 * (a0 + skip) + beta + 2 - c0 :: 2]
                n = tri.size
                tri += (c01[skip : skip + n] + lower[skip : skip + n]
                        + lower[skip + 1 : skip + n + 1]) / 6.0
            out[q] = np.cumsum(run)[top[q] - c0] + (right[top[q]] + left[max(edge, 0)]) / 6.0
        if a1 > a0:
            cols = slice(2 * a0 + beta + 1, 2 * a1 + beta, 2)      # alpha_c = 2a + beta + 1
            if beta == beta_lo:      # bottom-cut cells keep c00 + c10 + c11
                full[cols] += (lower[:-1] + c10 + lower[1:]) * (2.0 / 3.0)
            else:
                full[cols] += cut_r + lower[1:]
                right[cols] += cut_r
                left[cols] += side + lower[1:]

    # quadrants at the corners (a_lo, beta_lo), (i + j, beta_lo), (a_lo, B), by
    # their kept corners c00, c01, c10, c11 = 0..3, where the cell is on the lattice
    for alpha_c, beta_c, kept in ((a_lo, lo, (2, 3)), (top, lo, (0, 2)), (a_lo, b, (1, 3))):
        alpha_c, beta_c = (np.broadcast_to(v, i.shape)[live] for v in (alpha_c, beta_c))
        on = ((alpha_c + beta_c) % 2 == 1) & (alpha_c + beta_c >= 1)
        k, a = (alpha_c[on] + beta_c[on] - 1) // 2, (alpha_c[on] - beta_c[on] - 1) // 2
        corners = (g[k, a], g[k, a + 1], g[k + 1, a], g[k + 1, a + 1])
        out[live[on]] += (corners[kept[0]] + corners[kept[1]]) / 12.0 + sum(corners) / 48.0
    return out.reshape(shape)
