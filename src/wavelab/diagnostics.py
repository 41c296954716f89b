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
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .regions import _UNBOUNDED, RegionT, StripBounds, strip_quadrature
from .solver import RadialField

__all__ = [
    "GridTooShortError",
    "ChainConfig",
    "InequalityTable",
    "DiagnosticsReport",
    "select_t2_delta",
    "compute_M",
    "check_pointwise_lower_bound",
    "F_of",
    "G_of",
    "H_of",
    "check_chain",
    "s_exponent",
    "choose_epsilon",
    "gronwall_params_from_chain",
]

CRITICAL_P = 1.0 + math.sqrt(2.0)
BRT_SAMPLES = 60    # Sigma nodes checked by the region integral bound
G1_SAMPLES = 144    # (alpha, beta) pairs checked by the weighted functional bound


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
            raise ValueError("epsilon must lie in (0, p-1)")

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
    def build(inequality_id, r, t, lhs, rhs, tol, constants=None, max_rows=20000):
        r = np.asarray(r, dtype=float).ravel()
        t = np.asarray(t, dtype=float).ravel()
        lhs = np.asarray(lhs, dtype=float).ravel()
        rhs = np.asarray(rhs, dtype=float).ravel()
        tol = np.broadcast_to(np.asarray(tol, dtype=float), lhs.shape).ravel()
        if lhs.size == 0:
            raise ValueError(f"empty residual table for {inequality_id}")
        res = lhs - rhs
        k = int(np.argmin(res))
        holds = bool(np.all(res >= -tol))
        if lhs.size > max_rows:
            stride = lhs.size // max_rows + 1
            keep = np.unique(np.concatenate([np.arange(0, lhs.size, stride), [k]]))
            r, t, lhs, rhs, tol = r[keep], t[keep], lhs[keep], rhs[keep], tol[keep]
            res_kept = lhs - rhs
            k = int(np.argmin(res_kept))
        return InequalityTable(inequality_id, r, t, lhs, rhs, tol, holds,
                               float(res[np.argmin(res)]) if lhs.size else 0.0,
                               (float(r[k]), float(t[k])), constants or {})

    @property
    def residual(self):
        return self.lhs - self.rhs

    def verdict(self):
        return "holds" if self.holds else f"violated(r={self.argmin[0]:g}, t={self.argmin[1]:g})"


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

    def tables_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("inequality_id,r,t,lhs,rhs,residual\n")
            for tb in self.tables:
                res = tb.residual
                for i in range(tb.lhs.size):
                    fh.write(f"{tb.inequality_id},{tb.r[i]:.17g},{tb.t[i]:.17g},"
                             f"{tb.lhs[i]:.17g},{tb.rhs[i]:.17g},{res[i]:.17g}\n")


# ---------------------------------------------------------------------------
# Cone base selection and the constant M
# ---------------------------------------------------------------------------

def select_t2_delta(field: RadialField, u0_check: RadialField, rho: float):
    """Earliest grid-aligned cone base (t2, delta) admissible for the chain.

    t2 is the smallest grid time such that the homogeneous part is nonnegative
    on the forward cone from (0, t2) and the solution is positive at the probe
    point (delta, t2 + delta).  delta is max(4h, rho/8) for the data's support
    radius rho, rounded up to an even number of cells so the corners of the
    region T are lattice nodes.
    """
    grid = field.grid
    h = grid.h
    if rho <= 0:
        raise ValueError("no admissible cone: field has trivial data")
    d_cells = max(4, int(math.ceil(rho / (8.0 * h))))
    d_cells += d_cells % 2
    delta = d_cells * h

    n_lev = min(field.n_levels, u0_check.n_levels)
    scale = max(1.0, float(np.max(np.abs(u0_check.samples))))
    tol = 1e-10 * scale

    # prefix minima over radius, one row per level: pm[j, i] = min u0[j, :i+1]
    pm = np.minimum.accumulate(u0_check.samples[:n_lev], axis=1)
    cone_ok = np.full(n_lev, True)
    for j2 in range(n_lev):
        js = np.arange(j2, n_lev)
        cols = np.minimum(js - j2, grid.n_r)
        cone_ok[j2] = bool(np.all(pm[js, cols] >= -tol))
    for j2 in range(n_lev):
        if not cone_ok[j2]:
            continue
        probe_j = j2 + d_cells
        if probe_j >= n_lev:
            break
        if field.samples[probe_j, d_cells] > 0.0:
            return (j2 * h, delta)
    raise ValueError("no admissible cone")


def compute_M(field: RadialField, t2: float, delta: float, p: Optional[float] = None) -> float:
    """Integral over T(t2, delta) of (lambda/2) |u|^p by the lattice trapezoid.

    This is the bare integral; the chain multiplies by the coefficient A so
    that u >= M/r holds on Q with M = A * compute_M(...).
    """
    if p is None:
        if field.p is None:
            raise ValueError("field carries no exponent; pass p explicitly")
        p = field.p
    grid = field.grid
    h = grid.h
    region = RegionT(t2, delta)
    b = StripBounds.from_region(region, h)
    k_max, a_max = b.window()
    if k_max > field.n_levels - 1 or a_max > grid.n_r:
        raise ValueError("region outside grid")
    lam = h * np.arange(a_max + 1)
    window = np.abs(field.samples[: k_max + 1, : a_max + 1]) ** p
    return float(strip_quadrature(0.5 * lam[None, :] * window, b)) * h * h


# ---------------------------------------------------------------------------
# Pointwise bound on Sigma
# ---------------------------------------------------------------------------

def _sigma_nodes(field: RadialField, t_star: float):
    h = field.grid.h
    j_star = int(round(t_star / h))
    if abs(j_star * h - t_star) > 1e-9 * max(1.0, t_star):
        raise ValueError("t_star is not lattice aligned")
    if j_star >= field.n_levels - 1:
        raise GridTooShortError("grid too short: no Sigma nodes below the defined horizon")
    js, iss = [], []
    for j in range(j_star, field.n_levels):
        m = min(j - j_star, field.grid.n_r)
        iss.append(np.arange(m + 1))
        js.append(np.full(m + 1, j))
    return np.concatenate(js), np.concatenate(iss)


def _chain_tol(h, lhs, rhs):
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.maximum(1e-9, 50.0 * h * h * scale)


def check_pointwise_lower_bound(field: RadialField, config: ChainConfig) -> InequalityTable:
    """u(r, t) >= C0 (t + r)^(1-p) at every defined lattice node of Sigma."""
    if config.C0 is None:
        raise ValueError("M/C0 not attached to config; call with_constants first")
    h = field.grid.h
    js, iss = _sigma_nodes(field, config.t_star)
    r = iss * h
    t = js * h
    lhs = field.samples[js, iss]
    rhs = config.C0 * (t + r) ** (1.0 - config.p)
    return InequalityTable.build("pointwise_lower_bound", r, t, lhs, rhs,
                                 _chain_tol(h, lhs, rhs),
                                 {"C0": config.C0})


# ---------------------------------------------------------------------------
# The functionals F, G, H
# ---------------------------------------------------------------------------

def _require_sigma_prime(config, alpha, beta):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < config.t_star - 1e-12) or np.any(beta > alpha + 1e-12):
        raise ValueError("outside Sigma-prime")
    return alpha, beta


def F_of(field: RadialField, config: ChainConfig, alpha, beta):
    """Field value in characteristic coordinates: u((alpha-beta)/2, (alpha+beta)/2)."""
    alpha, beta = _require_sigma_prime(config, alpha, beta)
    if np.any((alpha + beta) / 2.0 > field.defined_t_max + 1e-12):
        raise ValueError("outside grid: time (alpha+beta)/2 beyond the defined levels")
    return field.interpolate((alpha - beta) / 2.0, (alpha + beta) / 2.0)


def G_of(field: RadialField, config: ChainConfig, alpha, beta):
    """Weighted diagonal profile (alpha - beta)^q F(alpha, beta)."""
    alpha, beta = _require_sigma_prime(config, alpha, beta)
    return (alpha - beta) ** config.q * F_of(field, config, alpha, beta)


def H_of(field: RadialField, config: ChainConfig, r):
    """H(r) = integral of G(r, beta) for beta from t_star to r, lattice trapezoid."""
    if np.ndim(r):
        return np.array([H_of(field, config, float(x)) for x in np.asarray(r).ravel()])
    r = float(r)
    if r < config.t_star - 1e-12:
        raise ValueError("outside Sigma-prime")
    h = field.grid.h
    n = int(round((r - config.t_star) / h))
    if n == 0:
        return 0.0
    betas = config.t_star + h * np.arange(n + 1)
    betas[-1] = r
    g = G_of(field, config, np.full(n + 1, r), betas)
    return float(np.trapezoid(g, betas))


def _f_grid(field: RadialField, config: ChainConfig, n: int, block: int = 256):
    """F on the triangular (alpha, beta) lattice t_star + h*[0..n], beta <= alpha."""
    h = field.grid.h
    alphas = config.t_star + h * np.arange(n + 1)
    F2 = np.zeros((n + 1, n + 1))
    for lo in range(0, n + 1, block):
        hi = min(lo + block, n + 1)
        A_blk = alphas[lo:hi][:, None]
        B_blk = alphas[None, :]
        lam = (A_blk - B_blk) / 2.0
        s = (A_blk + B_blk) / 2.0
        vals = field.interpolate(np.clip(lam, 0.0, None), np.minimum(s, field.defined_t_max))
        mask = B_blk <= A_blk
        F2[lo:hi] = np.where(mask, vals, 0.0)
    return F2, alphas


# ---------------------------------------------------------------------------
# The full chain
# ---------------------------------------------------------------------------

def check_chain(field: RadialField, config: ChainConfig) -> DiagnosticsReport:
    """Run every inequality of the chain on a frozen field; see module docstring."""
    h = field.grid.h
    p, A, q = config.p, config.A, config.q
    t_star = config.t_star
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

    tables = []

    # 1. positivity of u on Sigma
    js, iss = _sigma_nodes(field, t_star)
    u_sigma = field.samples[js, iss]
    tables.append(InequalityTable.build(
        "sigma_positivity", iss * h, js * h, u_sigma, np.zeros_like(u_sigma),
        _chain_tol(h, u_sigma, np.maximum(np.abs(u_sigma), 1.0)), {}))

    # 2. region integral bound over B(r,t), sampled on Sigma
    keep = (iss >= 1) & (iss + js <= field.grid.n_r)
    stride = max(1, int(keep.sum()) // BRT_SAMPLES)
    jb, ib = js[keep][::stride][:BRT_SAMPLES], iss[keep][::stride][:BRT_SAMPLES]
    if jb.size:
        j_star = int(round(t_star / h))
        lam_src = h * np.arange(field.grid.n_r + 1) * np.clip(field.samples, 0.0, None) ** p
        brt = StripBounds(jb - ib, jb + ib, j_star, jb - ib, 0, _UNBOUNDED)
        rhs_b = A * (strip_quadrature(lam_src, brt) * h * h / (2.0 * ib * h))
        lhs_b = field.samples[jb, ib]
        tables.append(InequalityTable.build(
            "region_integral_bound", ib * h, jb * h, lhs_b, rhs_b,
            _chain_tol(h, lhs_b, rhs_b), {"A": A}))

    # 3. pointwise lower bounds on Sigma and in characteristic coordinates
    tables.append(check_pointwise_lower_bound(field, config))

    n = int(math.floor((field.defined_t_max - t_star) / h + 1e-9))
    F2, alphas = _f_grid(field, config, n)
    tri_a, tri_b = np.tril_indices(n + 1)
    samp = slice(0, tri_a.size, max(1, tri_a.size // 20000))
    lhs_f = F2[tri_a, tri_b][samp]
    rhs_f = C0 * alphas[tri_a][samp] ** (1.0 - p)
    tables.append(InequalityTable.build(
        "inverse_power_lower_bound", alphas[tri_a][samp], alphas[tri_b][samp],
        lhs_f, rhs_f, _chain_tol(h, lhs_f, rhs_f), {"C0": C0}))

    # shared characteristic-grid quantities
    Fp = np.clip(F2, 0.0, None) ** p
    db = alphas[:, None] - alphas[None, :]
    db_pos = np.where(db > 0, db, 0.0)
    G2 = db_pos**q * F2
    H_vals = cumulative_trapezoid(G2, dx=h, axis=1, initial=0.0)[np.arange(n + 1), np.arange(n + 1)]
    J_int = cumulative_trapezoid(db_pos ** (1.0 + q) * Fp, dx=h, axis=1,
                                 initial=0.0)[np.arange(n + 1), np.arange(n + 1)]
    K1 = cumulative_trapezoid(db_pos * Fp, dx=h, axis=1, initial=0.0)

    # 4. weighted functional bound (G form), sampled over Sigma-prime
    side = max(2, int(math.sqrt(G1_SAMPLES)))
    it_idx = np.unique(np.linspace(0, n - 1, side).astype(int))
    lhs_g, rhs_g, rg, tg = [], [], [], []
    for it in it_idx:
        col = K1[:, it]
        outer = cumulative_trapezoid(col, dx=h, initial=0.0)
        ir_idx = np.unique(np.linspace(it, n, side).astype(int))
        for ir in ir_idx:
            if ir <= it:
                continue
            lhs_g.append(G2[ir, it])
            rhs_g.append((A / 4.0) * (alphas[ir] - alphas[it]) ** (q - 1.0)
                         * (outer[ir] - outer[it]))
            rg.append(alphas[ir])
            tg.append(alphas[it])
    tables.append(InequalityTable.build(
        "weighted_functional_bound", rg, tg, lhs_g, rhs_g,
        _chain_tol(h, np.asarray(lhs_g), np.asarray(rhs_g)), {"C_G1": A / 4.0}))

    # 5. superadditivity of q-th powers (arithmetic property of the weight)
    rng = np.random.default_rng(20240803)
    rr = t_star + rng.uniform(0, 10, 1000) * max(1.0, t_star)
    aa = t_star + (rr - t_star) * rng.uniform(0, 1, 1000)
    bb = t_star + (aa - t_star) * rng.uniform(0, 1, 1000)
    lhs_s = (rr - bb) ** q - (rr - aa) ** q
    rhs_s = (aa - bb) ** q
    tables.append(InequalityTable.build(
        "power_superadditivity", rr, aa, lhs_s, rhs_s,
        np.maximum(1e-12 * np.maximum(lhs_s, 1.0), 1e-12), {"q": q}))

    # 6. double integral bound for H
    rhs_h1 = (A / (4.0 * q)) * cumulative_trapezoid(J_int, dx=h, initial=0.0)
    tables.append(InequalityTable.build(
        "double_integral_bound", alphas, np.full_like(alphas, np.nan), H_vals, rhs_h1,
        _chain_tol(h, H_vals, rhs_h1), {"C_H1": A / (4.0 * q)}))

    # 7. Hoelder interpolation, per alpha
    gap = alphas - t_star
    rhs_hold = np.zeros_like(alphas)
    pos = gap > 0
    rhs_hold[pos] = H_vals[pos] ** p * (gap[pos] ** 2 / 2.0) ** (1.0 - p)
    tables.append(InequalityTable.build(
        "holder_interpolation", alphas, np.full_like(alphas, np.nan), J_int, rhs_hold,
        _chain_tol(h, J_int, rhs_hold), {"holder_factor": 2.0 ** (p - 1.0)}))

    # 8. single integral bound (the Gronwall-ready form)
    integrand = np.zeros_like(alphas)
    integrand[pos] = H_vals[pos] ** p * gap[pos] ** (2.0 - 2.0 * p)
    rhs_single = c_single * cumulative_trapezoid(integrand, dx=h, initial=0.0)
    tables.append(InequalityTable.build(
        "single_integral_bound", alphas, np.full_like(alphas, np.nan), H_vals, rhs_single,
        _chain_tol(h, H_vals, rhs_single), {"C_single": c_single}))

    # 9. growth floor for alpha >= 2 t_star
    sel = alphas >= 2.0 * t_star - 1e-12
    if not np.any(sel):
        raise GridTooShortError("grid too short: no lattice points with alpha >= 2 t_star")
    rhs_floor = c_low * (alphas[sel] - t_star) ** (2.0 - p + q)
    tables.append(InequalityTable.build(
        "growth_floor", alphas[sel], np.full(int(sel.sum()), np.nan), H_vals[sel], rhs_floor,
        _chain_tol(h, H_vals[sel], rhs_floor), {"C_low": c_low}))

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
