"""Geometry of the characteristic (lambda, s) quarter-plane.

All regions used by the solver and the diagnostics are intersections of
strips whose boundaries are 45-degree lines plus horizontal rows.  In the
rotated coordinates

    alpha = lambda + s        (forward characteristic coordinate)
    beta  = s - lambda        (backward characteristic coordinate)

every region becomes an axis-aligned box ``{alpha_lo <= alpha <= alpha_hi,
beta_lo <= beta <= beta_hi, s_lo <= s <= s_hi}`` clipped to the quarter-plane
``lambda >= 0, s >= 0``.  The Jacobian of (alpha, beta) -> (lambda, s) is 1/2.

Three regions are integrated: R(r, t), the backward influence region of the
point (r, t); B(r, t), R(r, t) above beta = t_star; and T(t2, delta), R(delta,
t2 + delta) above alpha = t2 + delta.  The seven region kinds of the argument,
with membership, exact area and exact inclusion, are test references
(``tests/lattice_oracle.py``), as are the dense weights of the rule below.

On a uniform characteristic lattice the solver and the diagnostics share one
second-order quadrature rule: full cells use the four-corner product
trapezoid (1/4 per corner), cells cut by one 45-degree line the exact
three-vertex rule on the kept triangle (1/6 per kept corner), and cells cut
through their centre by two lines keep a quadrant triangle whose centre value
is the corner mean (1/12 per kept corner, 1/48 per corner).  The weights are
nonnegative and reproduce the clipped area exactly.  One engine applies it:
:func:`influence_quadrature` sweeps the rows of cells once, upward, and
answers R(i, j) at any set of lattice nodes, clipped by an optional alpha or
beta floor, so it serves the P operator and the integral residual (R), the
region integral bound (B(r, t)) and the cone constant M (T).

The sweep reads the field u a block of rows at a time (``u[lo:hi]``), so u
may be an array, a window of one, or a field's rows read back from a file
(``solver.RowFile``), and it holds only that block and O(n_r + nodes)
numbers.  It covers only the part of the lattice where the sources live.
For compactly supported data u vanishes past the light cone r = rho + t, so
a source g = lambda |u|^p is exactly zero there, about half of the lattice.
The engine reads g as ``source(u, columns)`` a block at a time, so no caller
builds a source array, and each block only up to its last column holding a
nonzero of u.  A source is zero wherever u is, so a skipped cell would only
have added zeros to sums that start at +0.0, which leaves them unchanged,
and every answer keeps its bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["influence_quadrature"]


def _require(bad, message):
    if np.any(bad):
        raise ValueError(message)


_BLOCK_CELLS = 1 << 14      # cells of u a block of the row sweep holds, in 16 to 48 rows
_BLOCK_TERMS = 1 << 15      # cumsum terms a block holds, 8 per diagonal and row
_TERM_ROWS = 8              # rows whose cells' terms it holds at once


def _plain(u, a):
    return u


def influence_quadrature(u, i, j, alpha_lo=None, beta_lo=None, source=None) -> np.ndarray:
    """``sum(W * g)`` over the regions R(i, j) of lattice nodes (i, j), optionally floored.

    ``u`` holds lattice samples indexed ``[k, a]`` for the node (a*h, k*h), and
    g = ``source(u, a)`` is read from it: given the values of u at some nodes
    and their columns a, ``source`` returns g there, elementwise, and it must
    give a zero wherever u is zero; without it g is u.  u is read only as
    ``u.shape``, ``u[lo:hi]`` (a block of rows, which may come cut short after
    a column of +0.0 past which the rows are +0.0) and ``u[k, a]`` (nodes): any
    2-D float view, a window of the field included, or a ``solver.RowFile``.
    ``i >= 1`` and ``j >= 0`` are ints or broadcastable integer arrays, and the
    result has their broadcast shape.  The integer floors clip every region to
    alpha >= alpha_lo and beta >= beta_lo: B(r, t) is R(i, j) with beta_lo =
    j_star, and T(t2, delta) is R(delta, t2 + delta) with alpha_lo = t2 +
    delta.  Each clipped region must fit the cells of ``u``; an empty one
    gives 0.  W is the lattice rule of the module docstring; multiply by h**2
    for the integral.

    A cell (k, a) has centre alpha_c = a + k + 1, beta_c = k - a.  With B = j - i
    and a_lo = max(alpha_lo, B), the cells between the columns alpha_c = a_lo
    and i + j are full (1/4 per corner), and those cut along one diagonal keep
    a triangle (1/6 per kept corner): right-cut in the column i + j, left-cut in
    the column a_lo (for a_lo < 1 it is column 0, which holds no cell),
    top-cut on the diagonal beta_c = B, bottom-cut on beta_c = beta_lo.  A
    corner on a cell centre, where alpha + beta is odd, leaves that cell a
    quadrant (1/12 per kept corner, 1/48 per corner).  The quadrants, O(1) per
    node, are added last; :func:`_row_sweep` gives the rest.
    """
    if getattr(u, "dtype", None) != np.float64:
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
    live = (b > lo) & (a_lo < top)
    some = slice(None) if live.all() else np.flatnonzero(live)    # no copies if all are
    swept = _row_sweep(u, source, lo, b[some], j[some], top[some], a_lo[some]) if live.any() else 0.0
    out = np.zeros(i.size)              # after the sweep, which holds enough of its own
    out[some] = swept
    live = np.flatnonzero(live)

    # quadrants at the corners (a_lo, beta_lo), (i + j, beta_lo), (a_lo, B), by
    # their kept corners c00, c01, c10, c11 = 0..3, where the cell is on the lattice
    for alpha_c, beta_c, kept in ((a_lo, lo, (2, 3)), (top, lo, (0, 2)), (a_lo, b, (1, 3))):
        alpha_c, beta_c = (np.broadcast_to(v, i.shape)[live] for v in (alpha_c, beta_c))
        on = ((alpha_c + beta_c) % 2 == 1) & (alpha_c + beta_c >= 1)
        k, a = (alpha_c[on] + beta_c[on] - 1) // 2, (alpha_c[on] - beta_c[on] - 1) // 2
        corners = [source(u[k + dk, a + da], a + da) for dk, da in ((0, 0), (0, 1), (1, 0), (1, 1))]
        out[live[on]] += (corners[kept[0]] + corners[kept[1]]) / 12.0 + sum(corners) / 48.0
    return out.reshape(shape)


def _row_sweep(u, source, lo, b, j, top, a_lo):
    """Everything but the quadrants of R(i, j) at nodes on the diagonals b = j - i
    with left edges a_lo (one per diagonal) and floor lo, each region nonempty.

    The cell rows k = 0, 1, ... are added in turn into running column sums of
    the full, right-cut and left-cut corner sums, by column alpha_c = a + k + 1;
    a cell on the diagonal lo enters the full sums only, its 1/6 written as 2/3
    of their 1/4.  A column's cells come in increasing k, which is increasing
    beta_c, so each sum adds its cells in the order of a sweep up the cell
    diagonals.  The node (i, j) on diagonal B reads the sums as they stand once
    every cell below B is in and none from B up: column c is so after row
    floor((B + c - 2)/2), so B's columns 2k + 2 - B and 2k + 3 - B are read
    after row k (step k, from -2, when no row is in yet).  The node takes the
    cumsum, from column max(a_lo + 1, 0), of a quarter of each full sum plus,
    in B's columns that hold a cell of B, its top-cut triangle (rows k + 1 and
    k + 2, so a block of steps reads two rows past its last), up to column
    i + j - 1 (step j - 2); then the right-cut sum of column i + j (step j - 1)
    and the left-cut sum of column max(a_lo, 0).  The cumsums run a block of
    steps at a time, each from the last sum of the block before: the adds of
    one cumsum over the columns.  A block takes only the diagonals whose
    cumsums have a column in it; the others keep their sums.

    Only the cells that can reach an answer are added: rows below max(j),
    beta_c below the highest diagonal, columns up to max(i + j), and in each
    block of rows the columns before the last that holds a nonzero of u.  Past
    it every corner is a zero of g, and a zero added to a sum, or a zero
    triangle to a quarter of one, leaves its bits (the sums start at +0.0 and
    never become -0.0).
    """
    n_k, n_a = u.shape[0] - 1, u.shape[1] - 1
    diags, inv = np.unique(b, return_inverse=True)
    nd = diags.size
    c0 = np.empty(nd, dtype=np.int64)
    c0[inv] = np.maximum(a_lo + 1, 0)               # the first column of each cumsum
    c1 = np.zeros(nd, dtype=np.int64)
    np.maximum.at(c1, inv, top)                     # one past its last
    left_col = np.maximum(c0 - 1, 0)                # the left-cut column max(a_lo, 0)
    left_at = _groups(np.maximum((diags + left_col - 2) // 2, -2), np.arange(nd))
    at_row = _groups(j, np.arange(j.size))          # the nodes of each row j
    last, reach, k_end = int(diags[-1]), int(top.max()), int(j.max())
    # the columns any cell reads: a region reaches lambda = min(i + j, (i + j - lo + 1)/2)
    width = min(n_a + 1, int(np.minimum(top, (top - lo + 1) // 2).max()) + 1)
    columns = np.arange(width)

    steps = max(1, min(min(max(_BLOCK_CELLS // (n_a + 1), 16), 48), _BLOCK_TERMS // (8 * nd)))
    sums = np.zeros((3, n_k + n_a + 1))     # full, right-cut, left-cut: by column
    full = sums[0]
    terms = np.empty(3 * _TERM_ROWS * n_a)
    # after step k diagonal B reads its columns 2k + 2 - B and 2k + 3 - B, the
    # slots 2k and 2k + 1 of its cumsum, which takes the slots lo_slot .. hi_slot - 1
    first = np.stack([2 - diags, 3 - diags])
    lo_slot, hi_slot = c0 - first[0], c1 - first[0]
    at_top, at_cut, at_left = np.empty(j.size), np.empty(j.size), np.zeros(nd)
    acc = np.zeros(nd)
    for k0 in range(-2, k_end, steps):
        k1 = min(k0 + steps, k_end)
        n, ks = k1 - k0, np.arange(k0, k1)
        # g on the rows k0 .. k1 + 1 (none past k_end), columns 0 .. end: the cells
        # a < end, and one column of zeros past them
        block = u[max(k0, 0) : min(k1 + 2, k_end + 1)][:, :width]
        if block.shape[1] < width:                  # cut short, after a column of +0.0
            end = block.shape[1] - 1
        else:
            held = block.any(axis=0)                # NaN counts as nonzero
            end = width - int(held[::-1].argmax()) if held.any() else 0
        g = np.ascontiguousarray(source(block[:, : min(end + 1, width)],
                                        columns[: min(end + 1, width)]))
        del block
        if k0 < 0:
            g = np.concatenate([np.zeros((-k0, g.shape[1])), g])       # the rows -2 and -1
        # row k's cells a0 <= a < a1: c00 = g[k, a], c01 = g[k, a + 1], c10, c11 of row k + 1
        cells = min(n_a, end)
        a0s = [max(k - last + 1, 0) for k in range(k0, k1)]
        a1s = [min(k - lo, reach - k, cells) if k >= 0 else 0 for k in range(k0, k1)]
        # the diagonals d0 .. d1 - 1 hold every cumsum with a slot in the block;
        # per diagonal (a column each) its sum so far, then two full sums a step
        live = np.flatnonzero((lo_slot < 2 * k1) & (hi_slot > 2 * k0))
        d0, d1 = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
        run = np.empty((2 * n + 1, d1 - d0))
        cols = first[:, d0:d1] + 2 * ks[:, None, None]      # (step, 2, diagonal)
        for m0 in range(0, n, _TERM_ROWS):
            # the three terms of the cells of the rows m0 .. m0 + _TERM_ROWS - 1
            rows, wide = min(_TERM_ROWS, n - m0), max(0, *a1s[m0 : m0 + _TERM_ROWS])
            add = terms[: 3 * rows * wide].reshape(3, rows, wide)
            lower, upper = g[m0 : m0 + rows, : wide + 1], g[m0 + 1 : m0 + rows + 1, : wide + 1]
            np.add(lower[:, 1:], upper[:, :-1], out=add[2])     # c01 + c10
            np.add(add[2], lower[:, :-1], out=add[1])       # right-cut: (c01 + c10) + c00
            np.add(add[1], upper[:, 1:], out=add[0])        # full: that + c11
            add[2] += upper[:, 1:]                          # left-cut: (c01 + c10) + c11
            for m in range(m0, m0 + rows):
                k, a0, a1 = k0 + m, a0s[m], a1s[m]
                if a1 > a0:
                    here = sums[:, a0 + k + 1 : a1 + k + 1]
                    here += add[:, m - m0, a0:a1]
                a = k - lo              # the cell on beta_c = lo: 2/3 of c00 + c10 + c11
                if k >= 0 and a0 <= a < min(reach - k, cells):
                    full[a + k + 1] += (g[m, a] + g[m + 1, a] + g[m + 1, a + 1]) * (2.0 / 3.0)
                # a column below 0 or past the sums is outside every cumsum: clipped
                full.take(cols[m], out=run[2 * m + 1 : 2 * m + 3], mode="clip")
                q = at_row.get(k + 1)
                if q is not None:
                    at_cut[q] = sums[1, top[q]]
                q = left_at.get(k)
                if q is not None:
                    at_left[q] = sums[2, left_col[q]]
        # a quarter of each full sum, plus in the columns 2k + 3 - B the top-cut
        # cell (k + 1, a = k + 1 - B) of B: g[k + 1, a + 1] + g[k + 1, a] + g[k + 2, a + 1],
        # where the cell is on the lattice and before column end
        run[0] = acc[d0:d1]
        part = run[1:]
        part *= 0.25
        g_rows, w = g.shape
        a = (ks + 1)[:, None] - diags[d0:d1]
        on = ((a >= 0) & (a < cells)
              & ((ks + 1 >= 0) & (ks + 1 < n_k) & (ks + 2 < k0 + g_rows))[:, None])
        a += w * np.arange(1, n + 1)[:, None]       # the flat index of g[k + 1, a]
        flat = g.ravel()
        tri = flat.take(a + 1, mode="clip")
        tri += flat.take(a, mode="clip")
        tri += flat.take(a + w + 1, mode="clip")
        tri /= 6.0
        np.add(part[1::2], tri, out=part[1::2], where=on)
        del a, on, tri
        slot = np.arange(2 * k0, 2 * k1)[:, None]
        np.copyto(part, 0.0, where=(slot < lo_slot[d0:d1]) | (slot >= hi_slot[d0:d1]))
        np.cumsum(run, axis=0, out=run)
        acc[d0:d1] = run[2 * n]
        for k in range(k0, k1):         # a diagonal out of d0 .. d1 - 1 keeps its sum
            q = at_row.get(k + 2)
            if q is not None:
                d = inv[q] - d0
                inside = (d >= 0) & (d < d1 - d0)
                at_top[q] = acc[inv[q]]
                at_top[q[inside]] = run[2 * (k - k0) + 2, d[inside]]
        del g, flat, add, lower, upper      # before the next block's g is read
    at_cut += at_left[inv]
    at_cut /= 6.0
    at_top += at_cut
    return at_top


def _groups(keys, values):
    """{key: the values of that key, in order} for integer arrays of one size."""
    order = np.argsort(keys, kind="stable")
    found, first = np.unique(keys[order], return_index=True)
    return dict(zip(found.tolist(), np.split(values[order], first[1:])))
