"""Geometry of the characteristic (lambda, s) quarter-plane.

All regions used by the solver and the diagnostics are intersections of
strips whose boundaries are 45-degree lines plus horizontal rows.  In the
rotated coordinates

    alpha = lambda + s        (forward characteristic coordinate)
    beta  = s - lambda        (backward characteristic coordinate)

every region becomes an axis-aligned box ``{alpha_lo <= alpha <= alpha_hi,
beta_lo <= beta <= beta_hi, s_lo <= s <= s_hi}`` clipped to the quarter-plane
``lambda >= 0, s >= 0``.  The Jacobian of (alpha, beta) -> (lambda, s) is 1/2.

Seven region kinds are supported:

    R(r, t)                backward influence region of the point (r, t)
    T(t2, delta)           fixed band below the line s = lambda + t2
    Q(t2, delta)           unbounded companion band of T
    Qrt(r, t, t2, delta)   sliding parallelogram, area r*delta above Sigma
    Brt(r, t, t_star)      sliding parallelogram above beta = t_star
    Sigma(t_star)          interior cone {0 <= r <= t - t_star} (read as (r,t))
    SigmaPrime(t_star)     its image {t_star <= t <= r} under (r,t) -> (t+r, t-r)

A kind is nothing but its ``strip_bounds()``; everything else derives from
them.  Membership uses closed boundaries throughout.  The same bounds, read as
exact rational half-planes in (alpha, beta), give each bounded region's
vertices, hence its exact area (shoelace) and exact inclusion between regions
(inner lies in outer iff every vertex of inner does).

On a uniform characteristic lattice the solver and the diagnostics share one
second-order quadrature rule: full cells use the four-corner product
trapezoid (1/4 per corner), cells cut by one 45-degree line the exact
three-vertex rule on the kept triangle (1/6 per kept corner), and cells cut
through their centre by two lines keep a quadrant triangle whose centre value
is the corner mean (1/12 per kept corner, 1/48 per corner).  The weights are
nonnegative and reproduce the clipped area exactly.  One engine applies it:
:func:`influence_quadrature` sweeps the cell diagonals once and answers R(i, j)
at any set of lattice nodes, clipped by an optional alpha or beta floor, so it
serves the P operator and the integral residual (R), the region integral
bound (B(r, t)) and the cone constant M (T).  The dense weights, built cell
by cell, are kept only as its test reference (``tests/lattice_oracle.py``).

The fields of a kind may be integer arrays (lattice indices with h = 1), one
entry per region of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

__all__ = [
    "RegionR",
    "RegionT",
    "RegionQ",
    "RegionQrt",
    "RegionBrt",
    "Sigma",
    "SigmaPrime",
    "contains",
    "area",
    "subset_check",
    "influence_quadrature",
]


def _require(bad, message):
    if np.any(bad):
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Region types
# ---------------------------------------------------------------------------

class _StripRegion:
    """Shared behaviour of the kinds, all of it read from ``strip_bounds()``.

    ``strip_bounds()`` returns ``(a_lo, a_hi, b_lo, b_hi, s_lo, s_hi)``, the
    closed bounds on alpha, beta and s, with None for a missing side.
    """

    def contains(self, lam, s):
        lam = np.asarray(lam, dtype=float)
        s = np.asarray(s, dtype=float)
        a_lo, a_hi, b_lo, b_hi, s_lo, s_hi = self.strip_bounds()
        inside = (lam >= 0) & (s >= 0)
        for v, lo, hi in ((lam + s, a_lo, a_hi), (s - lam, b_lo, b_hi), (s, s_lo, s_hi)):
            if lo is not None:
                inside = inside & (v >= lo)
            if hi is not None:
                inside = inside & (v <= hi)
        return inside

    def bounded(self):
        # alpha <= a_hi bounds lambda and s in the quarter-plane
        return self.strip_bounds()[1] is not None


@dataclass(frozen=True)
class RegionR(_StripRegion):
    """R(r, t) = {(lam, s): 0 <= s <= t, |r - t + s| <= lam <= r + t - s}."""

    r: float
    t: float

    def __post_init__(self):
        _require(self.r <= 0, "R(r, t) requires r > 0")
        _require(self.t < 0, "R(r, t) requires t >= 0")

    def strip_bounds(self):
        # alpha in [t-r, t+r], beta <= t-r; s <= t is implied by the strips.
        return (self.t - self.r, self.t + self.r, None, self.t - self.r, 0.0, None)


@dataclass(frozen=True)
class RegionT(_StripRegion):
    """T = {t2+delta <= s+lam <= t2+2*delta, s-lam <= t2, s >= 0}."""

    t2: float
    delta: float

    def __post_init__(self):
        _require(self.delta <= 0, "T requires delta > 0")
        _require(self.t2 < 0, "T requires t2 >= 0")

    def strip_bounds(self):
        return (self.t2 + self.delta, self.t2 + 2 * self.delta, None, self.t2, 0.0, None)


@dataclass(frozen=True)
class RegionQ(_StripRegion):
    """Q = {t2+2*delta <= s+lam, t2 <= s-lam <= t2+delta}; unbounded."""

    t2: float
    delta: float

    def __post_init__(self):
        _require(self.delta <= 0, "Q requires delta > 0")
        _require(self.t2 < 0, "Q requires t2 >= 0")

    def strip_bounds(self):
        return (self.t2 + 2 * self.delta, None, self.t2, self.t2 + self.delta, 0.0, None)


@dataclass(frozen=True)
class RegionQrt(_StripRegion):
    """Q(r, t) = {t-r <= lam+s <= t+r, t2 <= s-lam <= t2+delta}."""

    r: float
    t: float
    t2: float
    delta: float

    def __post_init__(self):
        _require(self.r < 0, "Qrt requires r >= 0")
        _require(self.delta <= 0, "Qrt requires delta > 0")

    def strip_bounds(self):
        return (self.t - self.r, self.t + self.r, self.t2, self.t2 + self.delta, 0.0, None)


@dataclass(frozen=True)
class RegionBrt(_StripRegion):
    """B(r, t) = {t-r <= lam+s <= t+r, t_star <= s-lam <= t-r}."""

    r: float
    t: float
    t_star: float

    def __post_init__(self):
        _require(self.r < 0, "Brt requires r >= 0")
        _require(self.t_star < 0, "Brt requires t_star >= 0")

    def strip_bounds(self):
        return (self.t - self.r, self.t + self.r, self.t_star, self.t - self.r, 0.0, None)


@dataclass(frozen=True)
class Sigma(_StripRegion):
    """Interior cone {(r, t): 0 <= r <= t - t_star}, points read as (r, t)."""

    t_star: float

    def __post_init__(self):
        _require(self.t_star <= 0, "Sigma requires t_star > 0")

    def strip_bounds(self):
        return (None, None, self.t_star, None, 0.0, None)


@dataclass(frozen=True)
class SigmaPrime(_StripRegion):
    """Characteristic image {(r, t): t_star <= t <= r} of Sigma."""

    t_star: float

    def __post_init__(self):
        _require(self.t_star <= 0, "SigmaPrime requires t_star > 0")

    def strip_bounds(self):
        return (None, None, None, 0.0, self.t_star, None)


# ---------------------------------------------------------------------------
# Membership, exact area, exact inclusion
# ---------------------------------------------------------------------------

def contains(region, point):
    """Membership of ``point = (lam, s)`` with closed boundaries."""
    lam, s = point
    result = region.contains(lam, s)
    if np.isscalar(lam) and np.isscalar(s):
        return bool(result)
    return result


def _half_planes(region):
    """Exact rows ``(c_a, c_b, d)``, meaning c_a*alpha + c_b*beta <= d, of region.

    Float bounds convert to Fraction exactly, so the rows are the region the
    float predicate of :meth:`contains` describes, up to its own rounding.
    """
    a_lo, a_hi, b_lo, b_hi, s_lo, s_hi = region.strip_bounds()
    rows = [(-1, 1, Fraction(0)), (-1, -1, Fraction(0))]       # lambda >= 0, s >= 0
    # alpha, beta and 2s = alpha + beta against their bounds
    for c_a, c_b, scale, lo, hi in ((1, 0, 1, a_lo, a_hi), (0, 1, 1, b_lo, b_hi),
                                    (1, 1, 2, s_lo, s_hi)):
        if lo is not None:
            rows.append((-c_a, -c_b, -scale * Fraction(lo)))
        if hi is not None:
            rows.append((c_a, c_b, scale * Fraction(hi)))
    return rows


def _satisfies(rows, point):
    a, b = point
    return all(c_a * a + c_b * b <= d for c_a, c_b, d in rows)


def _vertices(region):
    """Vertices (alpha, beta) of a region, exact: its feasible line crossings.

    For a bounded region these span it (its convex hull); an empty region has
    none.
    """
    rows = _half_planes(region)
    points = set()
    for (a1, b1, d1), (a2, b2, d2) in combinations(rows, 2):
        det = a1 * b2 - a2 * b1
        if det:
            points.add(((d1 * b2 - d2 * b1) / det, (a1 * d2 - a2 * d1) / det))
    return [p for p in points if _satisfies(rows, p)]


def area(region):
    """Exact area of a bounded region, the shoelace area of its vertices.

    The vertex polygon lives in (alpha, beta), so its area is halved for
    (lambda, s).  Empty and degenerate (zero-width) regions have area 0.
    """
    if not region.bounded():
        raise ValueError(f"unbounded region: {type(region).__name__}")
    pts = sorted(_vertices(region))
    if len(pts) < 3:
        return 0.0
    # split the convex polygon by the chord between its extreme vertices into
    # a lower and an upper chain, each monotone in the sort order
    (a0, b0), (a1, b1) = pts[0], pts[-1]
    side = [(a1 - a0) * (b - b0) - (b1 - b0) * (a - a0) for a, b in pts]
    ring = ([pts[0]] + [p for p, c in zip(pts, side) if c < 0] + [pts[-1]]
            + [p for p, c in zip(pts[::-1], side[::-1]) if c > 0])
    twice = sum(a * b_next - a_next * b for (a, b), (a_next, b_next) in zip(ring, ring[1:] + ring[:1]))
    return float(abs(twice) / 4)


def subset_check(inner, outer):
    """Exact inclusion test: True iff every point of inner lies in outer.

    Both regions are convex, so inner lies in outer iff every vertex of inner
    satisfies outer's half-planes; the arithmetic is exact in Fractions of the
    float bounds.  An empty inner region passes; an unbounded one raises.
    """
    if not inner.bounded():
        raise ValueError("inner region must be bounded")
    rows = _half_planes(outer)
    return all(_satisfies(rows, v) for v in _vertices(inner))


# ---------------------------------------------------------------------------
# Lattice quadrature
# ---------------------------------------------------------------------------

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
