"""Exact region geometry and dense lattice weights: the references the sweep is tested against.

The seven region kinds of the argument, in the rotated coordinates alpha =
lambda + s and beta = s - lambda:

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
(inner lies in outer iff every vertex of inner does).  The fields of a kind
may be integer arrays (lattice indices with h = 1), one entry per region of a
batch.

:func:`lattice_weights` builds, cell by cell, the weights that
``regions.influence_quadrature`` sums without building them, for any strip
region in integer lattice bounds (:class:`StripBounds`).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from wavelab.regions import _require


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
# Dense lattice weights
# ---------------------------------------------------------------------------

_UNBOUNDED = 10**15  # integer sentinel for one-sided strips on the lattice


@dataclass(frozen=True)
class StripBounds:
    """Strip bounds in integer lattice units (grid spacing h = 1).

    ``a_lo <= alpha <= a_hi``, ``b_lo <= beta <= b_hi``, ``k_lo <= s <= k_hi``,
    one-sided strips use +/- the _UNBOUNDED sentinel.  Bounds must sit on the
    lattice; :func:`from_region` validates and converts, also a kind built
    from index arrays, into one integer array per field.
    """

    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int
    k_lo: int
    k_hi: int

    @staticmethod
    def from_region(region, h):
        vals = region.strip_bounds()
        out = []
        for v, default in zip(vals, (-_UNBOUNDED, _UNBOUNDED, -_UNBOUNDED, _UNBOUNDED, 0, _UNBOUNDED)):
            if v is None:
                out.append(default)
                continue
            q = np.asarray(v) / h
            qi = np.rint(q)
            if np.any(np.abs(q - qi) > 1e-6):
                raise ValueError(f"region bound {v} is not aligned to the lattice spacing {h}")
            out.append(qi.astype(np.int64) if qi.ndim else int(qi))
        return StripBounds(*out)

    def window(self):
        """Smallest (k_max, a_max) node window holding the clipped region.

        For a batch, the window holds every region of it.  When the top
        corner falls mid-cell (odd alpha+beta parity) the kept quadrant lives
        one cell row above the last node row, hence the +1.
        """
        if np.any(np.asarray(self.a_hi) >= _UNBOUNDED):
            raise ValueError("unbounded region has no finite lattice window")
        b_hi = np.minimum(self.b_hi, self.a_hi)     # lambda >= 0 forces beta <= alpha
        k_max = np.minimum((self.a_hi + b_hi) // 2 + 1, self.k_hi)
        # lambda = (alpha - beta)/2 <= (a_hi - b_lo)/2, and s >= 0 forces lambda <= alpha
        a_max = np.minimum(self.a_hi, -((self.b_lo - self.a_hi) // 2))
        return int(max(np.max(k_max), 0)), int(max(np.max(a_max), 0))


def lattice_weights(bounds: StripBounds, n_k: int, n_a: int) -> np.ndarray:
    """Second-order quadrature weights for a strip region on the unit lattice.

    Returns ``W`` of shape ``(n_k + 1, n_a + 1)`` such that for samples ``g`` of
    a function on the lattice, ``(W * g).sum() * h**2`` approximates the
    integral of g over the region.  Cells fully inside contribute the bilinear
    product-trapezoid (1/4 per corner); cells cut by one 45-degree boundary
    contribute the exact linear rule on the kept triangle (1/6 per vertex);
    cells cut by two boundaries crossing at the cell centre keep the quadrant
    triangle, integrated with the cell-centre value taken as the corner mean.
    All weights are nonnegative, and the weights of a constant reproduce the
    clipped region area exactly.

    ``regions.influence_quadrature`` computes ``(W * g).sum()`` for R(i, j),
    B(r, t) and T without building W.
    """
    W = np.zeros((n_k + 1, n_a + 1))
    if bounds.a_hi <= bounds.a_lo and not (bounds.a_hi >= _UNBOUNDED or bounds.a_lo <= -_UNBOUNDED):
        return W
    if bounds.b_hi <= bounds.b_lo and not (bounds.b_hi >= _UNBOUNDED or bounds.b_lo <= -_UNBOUNDED):
        return W

    kk, aa = np.meshgrid(np.arange(n_k), np.arange(n_a), indexing="ij")
    u = aa + kk          # alpha at the cell's lower-left corner
    v = kk - aa          # beta at the cell's lower-left corner

    rows_ok = (kk >= bounds.k_lo) & (kk + 1 <= bounds.k_hi)
    cut_r = u + 1 == bounds.a_hi
    cut_l = u + 1 == bounds.a_lo
    cut_t = v == bounds.b_hi
    cut_b = v == bounds.b_lo
    ok = rows_ok & ((u + 2 <= bounds.a_hi) | cut_r) & ((u >= bounds.a_lo) | cut_l) \
        & ((v + 1 <= bounds.b_hi) | cut_t) & ((v - 1 >= bounds.b_lo) | cut_b)
    ncuts = (cut_r.astype(np.int8) + cut_l.astype(np.int8)
             + cut_t.astype(np.int8) + cut_b.astype(np.int8))

    c00, c01, c10, c11 = (0, 0), (0, 1), (1, 0), (1, 1)

    def scatter(mask, offsets, wgt):
        # cell corners are node-aligned, so masked slice adds avoid add.at
        for dk, da in offsets:
            W[dk : dk + n_k, da : da + n_a] += wgt * mask

    scatter(ok & (ncuts == 0), (c00, c01, c10, c11), 0.25)

    # single 45-degree cut: exact triangle rule on the kept half cell
    scatter(ok & (ncuts == 1) & cut_r, (c00, c01, c10), 1.0 / 6.0)
    scatter(ok & (ncuts == 1) & cut_l, (c01, c11, c10), 1.0 / 6.0)
    scatter(ok & (ncuts == 1) & cut_t, (c00, c01, c11), 1.0 / 6.0)
    scatter(ok & (ncuts == 1) & cut_b, (c00, c10, c11), 1.0 / 6.0)

    # two cuts crossing at the cell centre: keep the quadrant triangle
    quarters = (
        (cut_r & cut_t, (c00, c01)),   # bottom quadrant
        (cut_r & cut_b, (c00, c10)),   # left quadrant
        (cut_l & cut_t, (c01, c11)),   # right quadrant
        (cut_l & cut_b, (c10, c11)),   # top quadrant
    )
    for pair_mask, edge_verts in quarters:
        mask = ok & (ncuts == 2) & pair_mask
        if not mask.any():
            continue
        scatter(mask, edge_verts, 1.0 / 12.0)
        scatter(mask, (c00, c01, c10, c11), 1.0 / 48.0)

    return W
