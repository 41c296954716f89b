"""Verification of the blow-up estimate chain on a computed radial field.

Given a solution field with nonnegative linear part on some forward cone, the
chain of inequalities runs, in order:

1.  positivity of the field on the interior cone Sigma;
2.  the region integral bound u(r,t) >= A * integral over B(r,t) of
    (lambda/2r) u^p  ("region_integral_bound");
3.  the cone average bound u >= M/r on Q, with M = A * integral over T of
    (lambda/2) u^p, and its pointwise consequence
    u(r,t) >= C0 (t+r)^(1-p) on Sigma with C0 = A M^p delta / 2
    ("pointwise_lower_bound", and "inverse_power_lower_bound" for its
    characteristic-coordinate form F(alpha,beta) >= C0 alpha^(1-p));
4.  the weighted functional bound on G = (r-t)^q F with q = p/(p-1)
    ("weighted_functional_bound");
5.  superadditivity (r-b)^q - (r-a)^q >= (a-b)^q for q >= 1
    ("power_superadditivity");
6.  the double integral bound on H(r) = integral of G(r, .)
    ("double_integral_bound");
7.  the Hoelder interpolation step ("holder_interpolation");
8.  the single-variable integral inequality for H with weight
    (alpha - t_star)^(2-2p) and constant A 2^(p-1) / (4q)
    ("single_integral_bound");
9.  the growth floor H(alpha) >= C_low (alpha - t_star)^(2-p+q) for
    alpha >= 2 t_star, C_low = C0 2^(1-p) / (q+1)  ("growth_floor").

Every step produces a residual table (lhs - rhs at each checked point) with a
one-sided tolerance tol = max(1e-9, 50 h^2 scale) absorbing discretisation
error; a verdict holds unless some residual drops below -tol.  Constants are
tracked numerically with their defining formulas.

The exponent bookkeeping for the final reduction to the weighted Gronwall
lemma lives here too: s(p, eps) = -p^2 + 2p - eps (2 - p + p/(p-1)), the
selection of an admissible eps in (0, p-1) with s >= -1 (possible exactly for
subcritical p < 1 + sqrt(2)), and the assembled lemma parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .config import ConfigError
from .gronwall import _cumulative_trapezoid
from .profiles import RadialProfile
from .regions import influence_quadrature
from .solver import (_BLOCK_NODES, HomogeneousPart, RadialField, _lambda_source, _power_source,
                     _snap, _write_npz, read_skewed)

__all__ = [
    "GridTooShortError",
    "ChainConfig",
    "InequalityTable",
    "DiagnosticsReport",
    "select_t2_delta",
    "compute_M",
    "check_chain",
    "s_exponent",
    "choose_epsilon",
    "gronwall_params_from_chain",
]

BRT_SAMPLES = 60    # Sigma nodes checked by the region integral bound
G1_SAMPLES = 144    # (alpha, beta) pairs checked by the weighted functional bound
MAX_ROWS = 20000    # rows a residual table keeps; past it, sampled (InequalityTable.build)
_SPAN_CELLS = 1 << 17   # cells of the skewed band of levels a span of alpha-row blocks reads


class GridTooShortError(ValueError):
    """The defined part of the lattice is too short for the requested check."""


# ---------------------------------------------------------------------------
# Configuration and report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainConfig:
    """Fixed choices for one run of the chain: cone base point and exponents."""

    p: float
    A: float
    t2: float
    delta: float
    epsilon: Optional[float] = None
    M: Optional[float] = None
    C0: Optional[float] = None

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.A <= 0:
            raise ValueError("A must be positive")
        if self.t2 < 0 or self.delta <= 0:
            raise ValueError("need t2 >= 0 and delta > 0")
        if self.epsilon is not None and not (0 < self.epsilon < self.p - 1):
            raise ConfigError(f"diagnostics.epsilon: must lie in (0, p-1) for p = {self.p:g}")

    @property
    def q(self):
        return self.p / (self.p - 1.0)

    @property
    def t_star(self):
        return self.t2 + 2.0 * self.delta

    @property
    def c_single(self):
        """A 2^(p-1) / (4q), the constant of the single integral bound."""
        return self.A * 2.0 ** (self.p - 1.0) / (4.0 * self.q)

    @property
    def c_low(self):
        """C0 2^(1-p) / (q+1), the constant of the growth floor; needs C0."""
        return self.C0 * 2.0 ** (1.0 - self.p) / (self.q + 1.0)

    def with_constants(self, m_bare: float) -> "ChainConfig":
        """Attach M = A * (bare T integral) and C0 = A M^p delta / 2."""
        M = self.A * m_bare
        C0 = self.A * M**self.p * self.delta / 2.0
        return ChainConfig(self.p, self.A, self.t2, self.delta, self.epsilon, M, C0)


@dataclass
class InequalityTable:
    """Residuals lhs - rhs of one inequality at the checked points."""

    inequality_id: str
    r: np.ndarray
    t: np.ndarray          # NaN for single-variable tables
    lhs: np.ndarray
    rhs: np.ndarray
    tol: np.ndarray
    holds: bool
    min_residual: float
    argmin: tuple
    constants: dict

    @staticmethod
    def build(inequality_id, r, t, lhs, rhs, tol, constants=None):
        """The table of lhs - rhs over the given points, at most about MAX_ROWS kept.

        ``tol(lhs, rhs)`` is a function giving the rows' tolerances, as in
        ``_TableStream.add``.  Above MAX_ROWS, every stride-th row and the first
        row of least residual are kept; the verdict and min_residual cover every row.
        """
        if not callable(tol):
            raise TypeError("tol: expected a function of (lhs, rhs) giving the rows' tolerances")
        lhs = np.asarray(lhs, dtype=float).ravel()
        stream = _TableStream(inequality_id, lhs.size, constants)
        r, t = (np.asarray(v, dtype=float).ravel() for v in (r, t))
        stream.add(r, t, lhs, np.asarray(rhs, dtype=float).ravel(), tol)
        return stream.finish()

    def verdict(self):
        return "holds" if self.holds else f"violated(r={self.argmin[0]:g}, t={self.argmin[1]:g})"


class _TableStream:
    """``InequalityTable.build`` over rows that arrive in consecutive blocks.

    ``size`` rows are fed in order through :meth:`add`.  The stream keeps the
    running verdict, the first row of least residual and the rows at flat
    index 0 mod stride, the stride fixed by ``size`` and ``MAX_ROWS``, so a
    table over millions of points never holds them.  Fed in one block it is
    ``build``; fed in any blocks it gives the same table bit for bit.
    Tolerances are evaluated only where a verdict can fail and on kept rows.
    """

    def __init__(self, inequality_id, size, constants=None):
        if size == 0:
            raise ValueError(f"empty residual table for {inequality_id}")
        self.inequality_id, self.size, self.constants = inequality_id, size, constants or {}
        self.stride = size // MAX_ROWS + 1 if size > MAX_ROWS else 1
        self.seen, self.holds = 0, True
        self.least = None       # (flat index, residual, row, tol function): first least residual
        self.kept = []          # per block, the kept rows as columns (r, t, lhs, rhs, tol)

    def add(self, r, t, lhs, rhs, tol):
        """Feed the next rows, at the points (r, t) (rhs may be a scalar).
        ``tol(lhs, rhs)`` gives the nonnegative tolerance of the rows passed; a
        residual >= 0 holds whatever it is, so it sees only the rows whose residual
        is not >= 0 and the kept rows.  A residual of -inf fails whatever its
        tolerance, +inf included."""
        rhs = np.broadcast_to(rhs, lhs.shape)
        res = lhs - rhs
        fails = np.flatnonzero(~(res >= 0))
        self.holds = (self.holds and not np.any(res[fails] == -np.inf)
                      and bool(np.all(res[fails] >= -tol(lhs[fails], rhs[fails]))))
        k = int(np.argmin(res))
        # a later block replaces the minimum only if strictly less (NaN counts as least)
        if self.least is None or not (np.isnan(self.least[1]) or res[k] >= self.least[1]):
            self.least = (self.seen + k, res[k], (r[k], t[k], lhs[k], rhs[k]), tol)
        keep = np.arange((-self.seen) % self.stride, lhs.size, self.stride)
        self.kept.append((r[keep], t[keep], lhs[keep], rhs[keep], tol(lhs[keep], rhs[keep])))
        self.seen += lhs.size

    def finish(self) -> "InequalityTable":
        if self.seen != self.size:
            raise ValueError(f"{self.inequality_id}: fed {self.seen} rows, expected {self.size}")
        cols = [np.concatenate(c) for c in zip(*self.kept)]
        k, least, row, tol = self.least
        if k % self.stride:       # the least residual's row joins the kept rows in order
            row = (*row, tol(np.array([row[2]]), np.array([row[3]]))[0])
            cols = [np.insert(c, k // self.stride + 1, v) for c, v in zip(cols, row)]
        return InequalityTable(self.inequality_id, *cols, self.holds, float(least),
                               (float(row[0]), float(row[1])), self.constants)


@dataclass
class DiagnosticsReport:
    config: ChainConfig
    s_value: Optional[float]
    constants: dict
    tables: list
    holds: bool
    notes: list
    H: tuple        # (alphas, H values) on the lattice from t_star to the defined horizon

    def to_json_dict(self):
        c = self.config
        return {
            "t2": c.t2,
            "delta": c.delta,
            "t_star": c.t_star,
            "p": c.p,
            "A": c.A,
            "q": c.q,
            "epsilon": c.epsilon,
            "s": self.s_value,
            "M": c.M,
            "C0": c.C0,
            "constants": self.constants,
            "verdicts": {tb.inequality_id: tb.verdict() for tb in self.tables},
            "min_residuals": {tb.inequality_id: tb.min_residual for tb in self.tables},
            "holds": self.holds,
            "notes": self.notes,
        }

    def save_tables(self, path):
        """Write ``residuals.npz`` (``_write_npz``): each table's r, t, lhs, rhs and
        tol as float64 members ``<inequality_id>.<column>``, in table order, and a
        ``meta`` with the ids in order, each table's rows and constants, and the
        sampling rule."""
        ids = [tb.inequality_id for tb in self.tables]
        _write_npz(path, {f"{i}.{c}": getattr(tb, c) for i, tb in zip(ids, self.tables)
                          for c in ("r", "t", "lhs", "rhs", "tol")},
                   {"tables": ids, "rows": {i: tb.lhs.size for i, tb in zip(ids, self.tables)},
                    "constants": {i: tb.constants for i, tb in zip(ids, self.tables)},
                    "max_rows": MAX_ROWS,
                    "sampling": "past max_rows points: every (points // max_rows + 1)-th "
                                "point and the first of least residual"})


# ---------------------------------------------------------------------------
# Cone base selection and the constant M
# ---------------------------------------------------------------------------

def select_t2_delta(field: RadialField, fbar: RadialProfile, gbar: RadialProfile):
    """Earliest grid-aligned cone base (t2, delta) admissible for the chain.

    t2 is the smallest grid time such that the homogeneous part u0 of the data
    (fbar, gbar) is nonnegative, up to tol = 1e-10 max(1, max|u0|), on the
    forward cone from (0, t2), and the solution is positive at the probe
    point (delta, t2 + delta).  delta is max(4h, rho/8) for the data's support
    radius rho (the larger of the two profiles' radii), rounded up to an even
    number of cells so the corners of the region T are lattice nodes.

    u0 is read from its band (``HomogeneousPart.blocks``), off which it is
    +0.0, so the band holds max|u0|; it is walked twice, a block of levels at a
    time, once for max|u0| and once for the cone.  On level j the band cells k
    <= b are the columns i = j + k - b <= j (cells off the lattice hold +0.0).
    With k_j the first of them where u0 < -tol, the cone from level j2 meets
    that node iff j - j2 >= i, that is iff j2 <= b - k_j; so the cone is
    admissible iff j2 exceeds b - k_j on every level from j2 on, a suffix
    maximum.
    """
    grid = field.grid
    h = grid.h
    rho = max(fbar.rho, gbar.rho)
    d_cells = max(4, int(math.ceil(rho / (8.0 * h))))
    d_cells += d_cells % 2
    delta = d_cells * h

    n_lev = field.n_levels
    ubar0 = HomogeneousPart(fbar, gbar, grid)
    b, top = ubar0.b, 1.0
    for _, U in ubar0.blocks():
        top = max(top, float(U.max()), float(-U.min()))
    tol = 1e-10 * top
    reach = np.empty(n_lev, dtype=np.int64)     # b - k_j, -1 if no k_j
    for lo, U in ubar0.blocks(n_lev):
        bad = U[:, : b + 1] < -tol
        reach[lo : lo + len(U)] = np.where(bad.any(axis=1), b - bad.argmax(axis=1), -1)
    worst = np.maximum.accumulate(reach[::-1])[::-1]   # its max over the levels j >= j2
    for j2 in np.flatnonzero(np.arange(n_lev) > worst).tolist():
        probe_j = j2 + d_cells
        if probe_j >= n_lev:
            break
        if field.samples[probe_j, d_cells] > 0.0:
            return (j2 * h, delta)
    raise ValueError("no admissible cone")


def compute_M(field: RadialField, t2: float, delta: float, p: float) -> float:
    """Integral over T(t2, delta) of (lambda/2) |u|^p by the lattice trapezoid.

    This is the bare integral; the chain multiplies by the coefficient A so
    that u >= M/r holds on Q with M = A * compute_M(...).
    """
    grid = field.grid
    h = grid.h
    j2, d = _snap(t2, h, "t2"), _snap(delta, h, "delta")
    if j2 < 0 or d < 1:
        raise ValueError(f"T({t2}, {delta}) needs t2 >= 0 and delta > 0")
    if j2 + d > field.n_levels - 1 or j2 + 2 * d > grid.n_r:
        raise ValueError("region outside grid")
    # T(t2, delta) is R(delta, t2 + delta) cut at alpha = t2 + delta
    return float(influence_quadrature(field.samples, d, j2 + d, alpha_lo=j2 + d,
                                      source=_lambda_source(0.5 * h, _power_source(p)))) * h * h


def _positive_power(p):
    """sigma(u, out): u_+^p written into out, the package's one u_+^p (step 2's
    source, with ``_lambda_source``, and the characteristic pass's F_+^p)."""

    def sigma(u, out):
        np.maximum(u, 0.0, out=out)
        out **= p

    return sigma


# ---------------------------------------------------------------------------
# Chain steps: the Sigma nodes, B(r, t) and the characteristic grid
# ---------------------------------------------------------------------------

def _sigma_levels(field: RadialField, t_star: float):
    """t_star's level j_star, the first of Sigma: on the lattice, below the last level."""
    j_star = _snap(t_star, field.grid.h, "t_star")
    if j_star >= field.n_levels - 1:
        raise GridTooShortError("grid too short: no Sigma nodes below the defined horizon")
    return j_star


def _chain_tol(h, lhs, rhs):
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.maximum(1e-9, 50.0 * h * h * scale)


def _sigma_tables(field, config, j_star):
    """Steps 1 and 3 at every Sigma node: the sigma_positivity and pointwise tables.

    The nodes i <= j - j_star run level by level, outward in r, as one flat
    array would hold them; they are read in blocks of whole levels, as many as
    fit _BLOCK_NODES nodes (one level at least), each level's nodes one run
    of cells (``samples[j, :count]``), and streamed into the tables.  A block
    holds u, r, t and the pointwise rhs t + r at its nodes, in arrays that
    every block reuses.
    """
    h, p, C0 = field.grid.h, config.p, config.C0
    counts = np.minimum(np.arange(field.n_levels - j_star), field.grid.n_r) + 1
    ends = np.cumsum(counts)
    positivity = _TableStream("sigma_positivity", int(ends[-1]))
    pointwise = _TableStream("pointwise_lower_bound", int(ends[-1]), {"C0": C0})
    t_lev = h * np.arange(j_star, field.n_levels)
    # one set of block arrays for every block: fresh ones would fault in their pages anew
    held = np.empty((4, min(int(ends[-1]), max(_BLOCK_NODES, int(counts.max())))))
    lo = 0
    while lo < counts.size:
        base = ends[lo] - counts[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_NODES, side="right")))
        u, r, t, rhs = held[:, : ends[hi - 1] - base]
        np.concatenate([field.samples[j_star + k, : counts[k]] for k in range(lo, hi)], out=u)
        first = np.repeat(ends[lo:hi] - counts[lo:hi], counts[lo:hi])     # of each node's level
        np.multiply(h, np.arange(base, ends[hi - 1]) - first, out=r)
        t[:] = np.repeat(t_lev[lo:hi], counts[lo:hi])
        positivity.add(r, t, u, 0.0, lambda u, _: _chain_tol(h, u, 1.0))
        np.add(t, r, out=rhs)
        rhs **= 1.0 - p
        rhs *= C0
        pointwise.add(r, t, u, rhs, partial(_chain_tol, h))
        lo = hi
    del held, u, r, t, rhs              # before the tables are built
    return positivity.finish(), pointwise.finish()


def _region_integral_table(field, config, j_star):
    """Step 2 at BRT_SAMPLES Sigma nodes: one table, none if no B(r,t) fits the grid.

    The eligible nodes (i >= 1, i + j <= n_r) are counted per level; every
    stride-th of them in Sigma's flat order is picked by its rank.  The
    source lambda u_+^p is read from the field by the quadrature's sweep,
    which reads only the rows and columns the regions reach (beta >= t_star
    bounds lambda and the nodes bound the rows); no array of it is built.
    """
    h, n_r = field.grid.h, field.grid.n_r
    js = np.arange(j_star, field.n_levels)
    eligible = np.maximum(np.minimum(js - j_star, n_r - js), 0)
    ends = np.cumsum(eligible)
    if not ends[-1]:
        return []
    ranks = np.arange(0, ends[-1], max(1, int(ends[-1]) // BRT_SAMPLES))[:BRT_SAMPLES]
    lev = np.searchsorted(ends, ranks, side="right")
    jb, ib = js[lev], 1 + ranks - (ends[lev] - eligible[lev])
    # B(r, t) is R(i, j) cut at beta = j_star
    source = _lambda_source(h, _positive_power(config.p))
    integral = influence_quadrature(field.samples, ib, jb, beta_lo=j_star, source=source) * h * h
    rhs_b = config.A * (integral / (2.0 * ib * h))
    lhs_b = field.samples[jb, ib]
    return [InequalityTable.build("region_integral_bound", ib * h, jb * h, lhs_b, rhs_b,
                                  partial(_chain_tol, h), {"A": config.A})]


def _alpha_blocks(n, j_star):
    """The alpha-row blocks [lo, hi) of the characteristic pass, covering [0, n].
    A block holds hi <= n + 1 columns, so at most _BLOCK_NODES // (n + 1) rows keep
    it within _BLOCK_NODES nodes (one row at least).  A block reads its first row
    down to level j_star + lo - hi/2: hi <= 2 (j_star + lo) keeps it >= 0."""
    rows, lo = max(1, _BLOCK_NODES // (n + 1)), 0
    while lo <= n:
        hi = min(lo + rows, n + 1, max(2 * (j_star + lo), lo + 1))
        yield lo, hi
        lo = hi


def _band_levels(blocks, j_star):
    """(L0, L1, s0, s1): the levels L0 .. L1 and the anti-diagonals s = level +
    column s0 .. s1 that the alpha rows of ``blocks``, consecutive blocks of
    ``_alpha_blocks``, read.  Alpha row a reads s = j_star + a - 1, j_star + a
    and j_star + a + 1 only, on the levels down to j_star + lo - hi // 2 in its
    block [lo, hi)."""
    lo, hi = blocks[0][0], blocks[-1][1]
    floor = min(j_star + a - b // 2 for a, b in blocks)
    return floor, j_star + hi - 1, j_star + lo - 1, j_star + hi


def _alpha_spans(n, j_star):
    """``_alpha_blocks`` in runs whose band (``_band``) holds at most _SPAN_CELLS
    cells, one block at least."""
    span = []
    for block in _alpha_blocks(n, j_star):
        L0, L1, s0, s1 = _band_levels(span + [block], j_star)
        if span and (L1 - L0 + 1) * (s1 - s0 + 1) > _SPAN_CELLS:
            yield span
            span = []
        span.append(block)
    yield span


def _band(samples, j_star, blocks):
    """The cells the alpha rows of ``blocks`` read, skewed so that anti-diagonals
    are columns: (U, L0, s0) with U[L - L0, L + c - s0] = samples[L, c] for the
    levels and anti-diagonals of ``_band_levels`` (``read_skewed``: a field on
    disk is read one preadv a level, straight into the band); cells off the
    lattice are left unset, and no F view reads them.  Blocks that would read
    off the lattice raise IndexError."""
    L0, L1, s0, s1 = _band_levels(blocks, j_star)
    rows, width = samples.shape
    if L0 < 0 or blocks[-1][1] // 2 >= width or L1 >= rows:
        raise IndexError(f"alpha rows {blocks[0][0]}..{blocks[-1][1] - 1} from level {j_star} "
                         "leave the lattice")
    U = np.empty((L1 - L0 + 1, s1 - s0 + 1))
    read_skewed(samples, L0, s0, U)
    return U, L0, s0


def _F_block(band, j_star, lo, hi):
    """F(alpha_a, beta_{a-d}) for a in [lo, hi), d in [0, hi), read off the lattice.

    (r, t) = (d/2, j_star + a - d/2) in lattice units: a node at even d, else a cell
    centre valued by the corner mean in the bilinear interpolant's order
    (``tests/field_oracle.py``), so the two agree bitwise.  Each parity is a
    strided view of ``band`` (``_band``, for blocks holding [lo, hi)): an
    anti-diagonal of the lattice is a column of the band, so a view steps one
    row and one column per alpha row and one row per cell along it.  Entries
    with d > a, outside Sigma-prime, are zero.  A block whose cells the band
    does not hold raises IndexError.
    """
    U, L0, s0 = band
    s_row, s_col = U.strides

    def view(i, j, count):      # samples[j + a - lo - m, i + m], a in [lo, hi), m < count
        row, col = j - count + 1 - L0, j + i - s0       # of samples[j - count + 1, i + count - 1]
        if count and (row < 0 or col < 0 or row + count + hi - lo - 1 > len(U)
                      or col + hi - lo > U.shape[1]):     # as_strided checks none of it
            raise IndexError(f"alpha rows {lo}..{hi - 1} from level {j_star} leave the band")
        first = U[row:, col:] if count else U
        return np.lib.stride_tricks.as_strided(first, (hi - lo, count), (s_row + s_col, s_row),
                                               writeable=False)[:, ::-1]

    j, c = j_star + lo, hi // 2
    F = np.empty((hi - lo, hi))
    F[:, 0::2] = view(0, j, hi - c)
    odd, term = F[:, 1::2], np.empty((hi - lo, c))    # the corner mean, summed in place
    np.multiply(view(0, j - 1, c), 0.25, out=odd)
    for i, jj in ((1, j - 1), (0, j), (1, j)):
        odd += np.multiply(view(i, jj, c), 0.25, out=term)
    for k in range(hi - lo):
        F[k, lo + k + 1 :] = 0.0
    return F


def _row_trapezoids(f, w, lo, h):
    """h times the trapezoid over d of f[k, d] w[d], d <= a = lo + k, for each row
    k of an alpha-block: the row's own a + 1 products summed pairwise (reduceat),
    so its bits do not depend on the block's height, as a BLAS matrix-vector
    product's (or einsum's) do."""
    rows, width = f.shape
    k = np.arange(rows)
    bounds = np.ravel([k * width, k * width + lo + k + 1], order="F")[:-1]
    sums = np.add.reduceat((f * w[:width]).ravel(), bounds)[::2]
    return h * (sums - 0.5 * w[lo : lo + rows] * f[k, lo + k])


def _characteristic_pass(field, config, j_star, n, cols, tri_a, tri_b):
    """H, J, G and K1 on the lattice t_star + h*[0..n], beta <= alpha, by alpha-row blocks.

    The blocks come in spans (``_alpha_spans``), each read as one band of the
    field (``_band``) and cut from it as strided views (``_F_block``), so the
    pass holds a band and a block, never the field.
    Returns alphas, H, J, G and K1 at the columns ``cols``, and F at the row-sorted
    nodes (tri_a, tri_b).  In (alpha, d = a - b) coordinates the weights are the 1-D
    (d h)^q and (d h)^(1+q), so the trapezoids H and J are row sums
    (``_row_trapezoids``), and K1 at ``cols`` is read off one reverse cumulative
    sum along d.  G and F keep their full-grid bits; H, J and K1 sum in another order.
    """
    h, p, q = field.grid.h, config.p, config.q
    alphas = config.t_star + h * np.arange(n + 1)
    dh = h * np.arange(n + 1)
    w_H, w_J = dh**q, dh ** (1.0 + q)
    H_vals, J_int, F_tri = np.empty(n + 1), np.empty(n + 1), np.empty(tri_a.size)
    positive_power = _positive_power(p)
    G_cols, K1_cols = np.empty((n + 1, cols.size)), np.empty((n + 1, cols.size))
    for blocks in _alpha_spans(n, j_star):
        band = _band(field.samples, j_star, blocks)
        for lo, hi in blocks:
            F = _F_block(band, j_star, lo, hi)
            rows, a = np.arange(hi - lo), np.arange(lo, hi)
            H_vals[lo:hi] = _row_trapezoids(F, w_H, lo, h)
            db = alphas[lo:hi, None] - alphas[cols]
            d = np.maximum(a[:, None] - cols, 0)
            G_cols[lo:hi] = np.where(db > 0, db, 0.0) ** q * F[rows[:, None], d]
            s0, s1 = np.searchsorted(tri_a, [lo, hi])
            F_tri[s0:s1] = F[tri_a[s0:s1] - lo, tri_a[s0:s1] - tri_b[s0:s1]]
            positive_power(F, F)                # F_+^p, in place
            J_int[lo:hi] = _row_trapezoids(F, w_J, lo, h)
            F *= dh[:hi]                        # K1's integrand (alpha - beta) F_+^p
            tail = np.cumsum(F[:, ::-1], axis=1)[:, ::-1]
            K1_cols[lo:hi] = h * (tail[rows[:, None], d] - 0.5 * F[rows[:, None], d]
                                  - 0.5 * F[rows, a][:, None])
            del F, tail                         # before the next block is cut
        del band                            # before the next band is read
    return alphas, H_vals, J_int, G_cols, K1_cols, F_tri


# ---------------------------------------------------------------------------
# The full chain
# ---------------------------------------------------------------------------

def _spread(lo, hi, count):
    """The ints of ``count`` points spread evenly over [lo, hi], lo <= hi, each once:
    np.unique's array, since they do not decrease, with no call of np.unique (which
    imports numpy.ma)."""
    x = np.linspace(lo, hi, count).astype(int)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _pcg64_doubles(seed, count):
    """``np.random.default_rng(seed).random(count)`` bit for bit, 0 <= seed < 2**32,
    without importing numpy.random (which loads secrets, hmac and OpenSSL).

    numpy's SeedSequence hashes the seed into a pool of four 32-bit words and
    expands the pool into PCG64's 128-bit state and increment; each double is
    the top 53 bits of one XSL-RR output of the 128-bit LCG."""
    m32, h = 0xFFFFFFFF, 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & m32
        v = v * h & m32
        return v ^ v >> 16

    pool = [hashmix(seed if k == 0 else 0) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & m32
                pool[dst] = r ^ r >> 16
    g, words = 0x8B51F9DD, []
    for k in range(8):
        v = pool[k % 4] ^ g
        g = g * 0x58F38DED & m32
        v = v * g & m32
        words.append(v ^ v >> 16)
    w = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
    mult, m64, m128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 64) - 1, (1 << 128) - 1
    inc = (w[2] << 65 | w[3] << 1 | 1) & m128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & m128
    out = []
    for _ in range(count):
        state = (state * mult + inc) & m128
        x, rot = (state >> 64 ^ state) & m64, state >> 122
        out.append(((x >> rot | x << (64 - rot)) & m64) >> 11)
    return np.array(out, dtype=float) * 2.0 ** -53


def check_chain(field: RadialField, config: ChainConfig) -> DiagnosticsReport:
    """Run every inequality of the chain on a frozen field; see module docstring."""
    h = field.grid.h
    p, A, q = config.p, config.A, config.q
    t_star = config.t_star
    tol = partial(_chain_tol, h)
    notes = []

    if field.defined_t_max + 1e-9 < 2 * t_star + 4 * config.delta:
        raise GridTooShortError("grid too short: extend t_max to at least "
                                f"{2 * t_star + 4 * config.delta:g}")

    if config.M is None:
        config = config.with_constants(compute_M(field, config.t2, config.delta, p))
    M, C0 = config.M, config.C0

    eps = config.epsilon
    if eps is None:
        eps = choose_epsilon(p)
        config = ChainConfig(p, A, config.t2, config.delta, eps, M, C0)
        if eps is None:
            notes.append(f"no admissible epsilon: s(p,0) = {s_exponent(p, 0.0):.6g} <= -1 "
                         f"(supercritical p >= 1+sqrt(2))")
    s_val = None if eps is None else s_exponent(p, eps)

    c_single, c_low = config.c_single, config.c_low
    constants = {
        "M": {"value": M, "formula": "A * integral_T (lambda/2) u^p"},
        "C0": {"value": C0, "formula": "A * M^p * delta / 2"},
        "C_G1": {"value": A / 4.0, "formula": "A/4 (region bound in characteristic coordinates)"},
        "C_H1": {"value": A / (4.0 * q), "formula": "A/(4q) (t-integration of the G bound)"},
        "holder_factor": {"value": 2.0 ** (p - 1.0),
                          "formula": "2^(p-1) from (integral (alpha-beta) dbeta)^(1-p)"},
        "C_single": {"value": c_single, "formula": "A * 2^(p-1) / (4q)"},
        "C_low": {"value": c_low, "formula": "C0 * 2^(1-p) / (q+1)"},
    }
    if eps is not None:
        constants["C_split"] = {
            "value": gronwall_params_from_chain(config)[0],
            "formula": "C_single * C_low^(p-1-eps)",
        }

    # 1.-3. on the Sigma nodes: step 2 reads its source from the field, steps 1 and 3
    # stream the nodes by level blocks
    j_star = _sigma_levels(field, t_star)
    region = _region_integral_table(field, config, j_star)
    positivity, pointwise = _sigma_tables(field, config, j_star)
    tables = [positivity, *region, pointwise]

    # every stride-th node (a, b) of the row-major lower triangle, m = a(a+1)/2 + b
    n = int(math.floor((field.defined_t_max - t_star) / h + 1e-9))
    n_tri = (n + 1) * (n + 2) // 2
    m = np.arange(0, n_tri, max(1, n_tri // 20000))
    tri_a = ((np.sqrt(8.0 * m + 1.0) - 1.0) // 2.0).astype(np.int64)
    tri_b = m - tri_a * (tri_a + 1) // 2
    side = max(2, int(math.sqrt(G1_SAMPLES)))
    it_idx = _spread(0, n - 1, side)
    alphas, H_vals, J_int, G_cols, K1_cols, lhs_f = _characteristic_pass(
        field, config, j_star, n, it_idx, tri_a, tri_b)
    rhs_f = C0 * alphas[tri_a] ** (1.0 - p)
    tables.append(InequalityTable.build(
        "inverse_power_lower_bound", alphas[tri_a], alphas[tri_b], lhs_f, rhs_f, tol,
        {"C0": C0}))

    # 4. weighted functional bound (G form), sampled over Sigma-prime
    lhs_g, rhs_g, rg, tg = [], [], [], []
    for k, it in enumerate(it_idx):
        outer = _cumulative_trapezoid(K1_cols[:, k], dx=h)
        ir_idx = _spread(it, n, side)
        for ir in ir_idx:
            if ir <= it:
                continue
            lhs_g.append(G_cols[ir, k])
            rhs_g.append((A / 4.0) * (alphas[ir] - alphas[it]) ** (q - 1.0)
                         * (outer[ir] - outer[it]))
            rg.append(alphas[ir])
            tg.append(alphas[it])
    tables.append(InequalityTable.build(
        "weighted_functional_bound", rg, tg, lhs_g, rhs_g, tol, {"C_G1": A / 4.0}))

    # 5. superadditivity of q-th powers (arithmetic property of the weight), on
    # default_rng(20240803)'s uniform(0, 10), uniform(0, 1), uniform(0, 1) draws
    d = _pcg64_doubles(20240803, 3000)
    rr = t_star + 10.0 * d[:1000] * max(1.0, t_star)
    aa = t_star + (rr - t_star) * d[1000:2000]
    bb = t_star + (aa - t_star) * d[2000:]
    lhs_s = (rr - bb) ** q - (rr - aa) ** q
    rhs_s = (aa - bb) ** q
    tables.append(InequalityTable.build(
        "power_superadditivity", rr, aa, lhs_s, rhs_s,
        lambda lhs, _: np.maximum(1e-12 * np.maximum(lhs, 1.0), 1e-12), {"q": q}))

    # 6. double integral bound for H
    rhs_h1 = (A / (4.0 * q)) * _cumulative_trapezoid(J_int, dx=h)
    tables.append(InequalityTable.build(
        "double_integral_bound", alphas, np.full_like(alphas, np.nan), H_vals, rhs_h1,
        tol, {"C_H1": A / (4.0 * q)}))

    # 7. Hoelder interpolation, per alpha
    gap = alphas - t_star
    rhs_hold = np.zeros_like(alphas)
    pos = gap > 0
    rhs_hold[pos] = H_vals[pos] ** p * (gap[pos] ** 2 / 2.0) ** (1.0 - p)
    tables.append(InequalityTable.build(
        "holder_interpolation", alphas, np.full_like(alphas, np.nan), J_int, rhs_hold,
        tol, {"holder_factor": 2.0 ** (p - 1.0)}))

    # 8. single integral bound (the Gronwall-ready form)
    integrand = np.zeros_like(alphas)
    integrand[pos] = H_vals[pos] ** p * gap[pos] ** (2.0 - 2.0 * p)
    rhs_single = c_single * _cumulative_trapezoid(integrand, dx=h)
    tables.append(InequalityTable.build(
        "single_integral_bound", alphas, np.full_like(alphas, np.nan), H_vals, rhs_single,
        tol, {"C_single": c_single}))

    # 9. growth floor for alpha >= 2 t_star
    sel = alphas >= 2.0 * t_star - 1e-12
    if not np.any(sel):
        raise GridTooShortError("grid too short: no lattice points with alpha >= 2 t_star")
    rhs_floor = c_low * (alphas[sel] - t_star) ** (2.0 - p + q)
    tables.append(InequalityTable.build(
        "growth_floor", alphas[sel], np.full(int(sel.sum()), np.nan), H_vals[sel], rhs_floor,
        tol, {"C_low": c_low}))

    holds = all(tb.holds for tb in tables)
    return DiagnosticsReport(config, s_val, constants, tables, holds, notes, (alphas, H_vals))


# ---------------------------------------------------------------------------
# Exponent bookkeeping
# ---------------------------------------------------------------------------

def s_exponent(p: float, eps: float) -> float:
    """s(p, eps) = (p-1-eps)(2-p+q) + 2 - 2p = -p^2 + 2p - eps (2-p+p/(p-1))."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return -p * p + 2.0 * p - eps * (2.0 - p + p / (p - 1.0))


def choose_epsilon(p: float) -> Optional[float]:
    """Near-maximal eps in (0, p-1) with s(p, eps) >= -1, None if none exists.

    s(p, 0) = -p^2 + 2p exceeds -1 exactly for subcritical p < 1 + sqrt(2);
    at and beyond the critical exponent no positive eps is admissible.  The
    returned value is 0.99 times the binding constraint, keeping a margin for
    the strict inequalities.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    head = -p * p + 2.0 * p + 1.0          # s(p, 0) - (-1)
    if head <= 0:
        return None
    K = 2.0 - p + p / (p - 1.0)
    eps_star = head / K
    return 0.99 * min(eps_star, p - 1.0)


def gronwall_params_from_chain(config: ChainConfig):
    """Lemma parameters realised by the chain's final reduction.

    Splitting H^p = H^(1+eps) H^(p-1-eps) and inserting the growth floor turns
    the single integral bound into

        H(r) >= C * integral from 2 t_star of H^(1+eps)(a) (a - t_star)^s da,

    with C = C_single * C_low^(p-1-eps), which matches the weighted Gronwall
    hypotheses with t0 = t_star, t1 = 2 t_star, a = 1 + eps, b = s(p, eps).
    Returns (C, a, b, t0, t1); requires an admissible eps and attached
    constants.
    """
    if config.epsilon is None:
        raise ValueError("no admissible epsilon (supercritical p); cannot assemble lemma parameters")
    if config.C0 is None:
        raise ValueError("constants not attached; run compute_M / with_constants first")
    p, eps = config.p, config.epsilon
    C = config.c_single * config.c_low ** (p - 1.0 - eps)
    return C, 1.0 + eps, s_exponent(p, eps), config.t_star, 2.0 * config.t_star
