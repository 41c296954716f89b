"""Dense lattice quadrature weights: the reference the sweep is tested against.

:func:`lattice_weights` builds, cell by cell, the weights that
``regions.influence_quadrature`` sums without building them, for any strip
region in integer lattice bounds (:class:`StripBounds`).
"""

from dataclasses import dataclass

import numpy as np

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
