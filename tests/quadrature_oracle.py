"""The quadrature engine's references, bit for bit.

:func:`influence_quadrature` is the engine as it was before its sweep was cut
to the support of g: it sweeps every cell diagonal from beta_lo (or below the
lattice) up to the highest queried one, over every cell of each, on g built
whole.  :func:`diagonal_sweep` is the engine as it was before it became a row
sweep: the same diagonals, cut to the support of u, reading g = ``source(u,
columns)`` from u a few diagonals at a time.  ``regions.influence_quadrature``
is tested against both.
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
    gives 0.  W is the lattice rule of ``wavelab.regions``; multiply by h**2
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


_SCAN_ROWS = 64         # rows of an array tested for nonzeros at a time
_READ_DIAGONALS = 8     # node diagonals of u read per call of a source


def _row_ends(g):
    """One past the last nonzero column of each row of the 2-D array g; 0 for a zero row.

    NaN counts as nonzero.  g is read by blocks of _SCAN_ROWS rows, so the
    only temporaries are one block's mask and one integer per row.
    """
    ends = np.zeros(g.shape[0], dtype=np.int64)
    for k in range(0, g.shape[0], _SCAN_ROWS):
        nz = g[k : k + _SCAN_ROWS] != 0
        ends[k : k + _SCAN_ROWS] = np.where(nz.any(axis=1),
                                            g.shape[1] - nz[:, ::-1].argmax(axis=1), 0)
    return ends


def _plain(u, a):
    return u


def diagonal_sweep(u, i, j, alpha_lo=None, beta_lo=None, source=None) -> np.ndarray:
    """``sum(W * g)`` over the regions R(i, j) of lattice nodes (i, j), optionally floored.

    ``u`` holds lattice samples indexed ``[k, a]`` for the node (a*h, k*h), and
    g = ``source(u, a)`` is read from it: given the values of u at some nodes
    and their columns a, ``source`` returns g there, elementwise, and it must
    give a zero wherever u is zero; without it g is u.  u may be any 2-D view,
    a window of the field included: it is read through its own strides.
    ``i >= 1`` and ``j >= 0`` are ints or broadcastable integer arrays, and the
    result has their broadcast shape.  The integer floors clip every region to
    alpha >= alpha_lo and beta >= beta_lo: B(r, t) is R(i, j) with beta_lo =
    j_star, and T(t2, delta) is R(delta, t2 + delta) with alpha_lo = t2 +
    delta.  Each clipped region must fit the cells of ``u``; an empty one
    gives 0.  W is the lattice rule of ``wavelab.regions``; multiply by h**2
    for the integral.

    A cell (k, a) has centre alpha_c = a + k + 1, beta_c = k - a.  With B = j - i
    and a_lo = max(alpha_lo, B), the cells between the columns alpha_c = a_lo
    and i + j are full (1/4 per corner), and those cut along one diagonal keep
    a triangle (1/6 per kept corner): right-cut in the column i + j, left-cut in
    the column a_lo (for a_lo < 1 it is column 0, which holds no cell),
    top-cut on the diagonal beta_c = B, bottom-cut on beta_c = beta_lo.  A
    corner on a cell centre, where alpha + beta is odd, leaves that cell a
    quadrant (1/12 per kept corner, 1/48 per corner).

    The diagonals are swept upward, keeping running column sums of the full,
    right-cut and left-cut corner sums; the bottom-cut diagonal beta_lo enters
    the full sums only, its 1/6 written as 2/3 of their 1/4.  The nodes of
    diagonal B are answered before it is added, by one cumsum over the columns
    from a_lo + 1 (no prefix difference is taken) and one lookup in each cut
    column; the quadrants, O(1) per node, are added last.  Cell diagonal beta
    reads g on the node diagonals beta - 1, beta and beta + 1, so g is taken
    once per node diagonal, _READ_DIAGONALS of them per call of ``source``, and
    only one such block and three diagonals are held.

    The sweep starts at beta_lo or at d - 1, whichever is higher, where d is
    the lowest diagonal k - a holding a nonzero of u (g is zero wherever u
    is, so none lower holds a nonzero of g), and each diagonal stops at the
    column max(i + j).  Below d - 1 every corner sum is a zero, and a zero
    added to the sums, which start at +0.0, leaves them +0.0; a node below d
    is answered from those sums and zero top-cut corners, so it reads +0.0
    before its quadrants either way.  No column past max(i + j) is read.  So the answers are bitwise those of the sweep over
    every cell from beta_lo of the array g built whole.
    """
    u = np.asarray(u, dtype=float)
    source = _plain if source is None else source
    i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64))
    shape, i, j = i.shape, i.ravel(), j.ravel()
    n_k, n_a = u.shape[0] - 1, u.shape[1] - 1      # cell rows, cells per row
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

    ends = _row_ends(u)
    held = np.flatnonzero(ends)
    last = max(groups, default=lo)
    start = max(lo, int((held - ends[held]).min())) if held.size else last + 1
    reach = int(top[live].max()) if live.size else 0    # the last column any node reads
    # the node diagonals d the sweep reads, and on each the cells a0 <= a < a1
    # (k = a + d) whose column alpha_c = 2a + d + 1 is at most reach
    d = np.arange(start - 1, max(start, last) + 2)
    a0s = np.maximum(-d, 0)
    a1s = np.minimum(np.minimum(n_k - d, n_a), (reach - d + 1) // 2)
    sizes = np.maximum(a1s + 1 - a0s, 0)
    d, a0s, a1s, sizes = (v.tolist() for v in (d, a0s, a1s, sizes))
    columns = np.arange(n_a + 1)

    def diagonals():
        """g on each node diagonal d at the nodes (a + d, a), a0 <= a <= a1: every
        node of it that the cell diagonals d - 1, d and d + 1 read.  They are read
        _READ_DIAGONALS at a time into one array, so source is called once for them."""
        for m0 in range(0, len(d), _READ_DIAGONALS):
            block = range(m0, min(m0 + _READ_DIAGONALS, len(d)))
            g = source(np.concatenate([u.diagonal(-d[m])[: sizes[m]] for m in block]),
                       np.concatenate([columns[a0s[m] : a0s[m] + sizes[m]] for m in block]))
            offset = 0
            for m in block:
                yield g[offset : offset + sizes[m]]
                offset += sizes[m]

    full, right, left = (np.zeros(n_k + n_a + 1) for _ in range(3))
    # g on the node diagonals beta - 1, beta and beta + 1
    read = diagonals()
    lower, nxt = next(read), next(read)
    for m, beta in enumerate(range(start, last + 1), 1):
        prev, lower, nxt = lower, nxt, next(read)
        a0, a1 = a0s[m], a1s[m]
        if a1 > a0:                                     # c00 = lower[:-1], c11 = lower[1:]
            s0 = a0 + 1 - a0s[m - 1]                    # c01 = g[a + beta, a + 1]
            c01 = prev[s0 : s0 + a1 - a0]
            s0 = a0 - a0s[m + 1]                        # c10 = g[a + beta + 1, a]
            c10 = nxt[s0 : s0 + a1 - a0]
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
        corners = [source(u[k + dk, a + da], a + da) for dk, da in ((0, 0), (0, 1), (1, 0), (1, 1))]
        out[live[on]] += (corners[kept[0]] + corners[kept[1]]) / 12.0 + sum(corners) / 48.0
    return out.reshape(shape)
