import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from wavelab import diagnostics, solver
from wavelab.diagnostics import (ChainConfig, GridTooShortError, InequalityTable, check_chain,
                                 choose_epsilon, compute_M, gronwall_params_from_chain,
                                 s_exponent, select_t2_delta)
from wavelab.profiles import RadialProfile, bump_profile, zero_profile
from wavelab.regions import influence_quadrature
from wavelab.solver import CharGrid, Problem, RadialField, _read_npz, solve_march

import march_oracle
from conftest import RHO, blowup_problem, dense_quadrature, traced_peak
from field_oracle import H_of, interpolate
from lattice_oracle import _UNBOUNDED, RegionBrt, StripBounds, lattice_weights

CRIT = 1.0 + math.sqrt(2.0)


# ---------------------------------------------------------------------------
# M and the cone base
# ---------------------------------------------------------------------------

def test_compute_M_constant_field_oracle():
    # field == 1 with p = 2: the exact iterated integral of lambda/2 over
    # T(t2, delta) is (F(t2 + 2 delta) - F(t2 + delta)) / 8 with
    # F(a) = a^3/2 + a^2 t2/2 - a t2^2/2, 7/16 for T(0, 1) (symbolic oracle, two
    # parametrisations agree); the lattice rule reproduces it exactly (integrand
    # linear in lambda), also when delta is an odd number of cells and the
    # corner (t2 + delta, t2) falls on a cell centre
    grid = CharGrid(1 / 64, 3.0, 3.0)
    ones = RadialField(grid, np.ones((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    assert compute_M(ones, 0.0, 1.0, 2.0) == pytest.approx(7.0 / 16.0, abs=1e-15)
    for t2, delta in ((0.25, 3 / 64), (0.5, 0.5)):
        F = [a**3 / 2 + a**2 * t2 / 2 - a * t2**2 / 2 for a in (t2 + delta, t2 + 2 * delta)]
        assert compute_M(ones, t2, delta, 2.0) == pytest.approx((F[1] - F[0]) / 8, rel=1e-14)


@pytest.mark.parametrize("p", [2.0, 2.41, 3.0])
def test_compute_M_is_bitwise_the_dense_quadrature(p):
    # M against the reference sweep over the (lambda/2)|u|^p array built whole,
    # in the order of operations compute_M once used, times h^2: on a signed
    # field with -0.0 and +0.0 cells, a spacing that is not dyadic, and T with
    # delta an even and an odd number of cells
    grid = CharGrid(0.3, 19.2, 9.6)
    h, rng = grid.h, np.random.default_rng(30)
    u = 3.0 * rng.normal(size=(grid.n_t + 1, grid.n_r + 1))
    u[rng.random(u.shape) < 0.2] = -0.0
    u[rng.random(u.shape) < 0.1] = 0.0
    field = RadialField(grid, u, p=p)
    for j2, d in ((0, 1), (0, 4), (3, 5), (8, 12), (2, 30)):
        window = u[: j2 + d + 1, : j2 + 2 * d + 1]
        want = dense_quadrature(window, d, j2 + d, alpha_lo=j2 + d,
                                source=lambda u, a: 0.5 * (h * a) * np.abs(u) ** p) * h * h
        got = compute_M(field, j2 * h, d * h, p)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (j2, d)
        assert got > 0.0


def test_brt_quadrature_at_last_level():
    # B(r,t) with t on the last defined level, as step 2 sweeps it: no row
    # past the field, both corner parities (j - i + j_star odd and even) and
    # the zero-width region i = j - j_star, against the dense weights
    rng = np.random.default_rng(11)
    src = rng.random((25, 33))                  # levels 0..24, radii 0..32
    j = src.shape[0] - 1
    for j_star in (4, 5):
        ii = np.arange(1, j - j_star + 1)
        got = influence_quadrature(src, ii, j, beta_lo=j_star)
        for i, value in zip(ii, got):
            W = lattice_weights(StripBounds(j - i, j + i, j_star, j - i, 0, _UNBOUNDED), 24, 32)
            assert value == pytest.approx(math.fsum((W * src).ravel()), rel=1e-13, abs=0)
        assert np.all(got[:-1] > 0) and got[-1] == 0.0


def test_compute_M_zero_field_and_grid_check():
    grid = CharGrid(1 / 16, 2.0, 2.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    assert compute_M(zeros, 0.0, 0.5, 2.0) == 0.0
    with pytest.raises(ValueError, match="outside grid"):
        compute_M(zeros, 0.0, 1.5, 2.0)
    # T must sit on the lattice
    with pytest.raises(ValueError, match="t2=.* is not an integer multiple of h"):
        compute_M(zeros, 0.5 * grid.h, 0.5, 2.0)
    with pytest.raises(ValueError, match="delta=.* is not an integer multiple of h"):
        compute_M(zeros, 0.0, 0.5 + 0.5 * grid.h, 2.0)


def test_select_t2_delta_nonnegative_velocity_data(blowup_run_coarse):
    prob, fld = blowup_run_coarse
    t2, delta = select_t2_delta(fld, prob.f_profile, prob.g_profile)
    assert t2 == 0.0
    assert delta == pytest.approx(RHO / 8.0)
    i, j = march_oracle.index_of(fld.grid, delta, t2 + delta)
    assert fld.samples[j, i] > 0


def test_select_t2_delta_zero_field_errors():
    grid = CharGrid(1 / 16, 2.0, 1.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)))
    zero = zero_profile(RHO, grid.r_values())
    with pytest.raises(ValueError, match="no admissible cone"):
        select_t2_delta(zeros, zero, zero)


def _select_reference(field, u0, rho):
    """The cone selection on the whole lattice: u0, its prefix minima over r
    and an O(levels^2) scan of every cone, as select_t2_delta once ran."""
    grid, h = field.grid, field.grid.h
    d_cells = max(4, int(math.ceil(rho / (8.0 * h))))
    d_cells += d_cells % 2
    n_lev = min(field.n_levels, u0.shape[0])
    tol = 1e-10 * max(1.0, float(np.max(np.abs(u0))))
    pm = np.minimum.accumulate(u0[:n_lev], axis=1)
    for j2 in range(n_lev):
        js = np.arange(j2, n_lev)
        if not np.all(pm[js, np.minimum(js - j2, grid.n_r)] >= -tol):
            continue
        if j2 + d_cells >= n_lev:
            break
        if field.samples[j2 + d_cells, d_cells] > 0.0:
            return (j2 * h, d_cells * h)
    raise ValueError("no admissible cone")


def _shell_velocity(eps):
    """A tall positive core and a shell of depth -eps: u0 reaches ~-eps/6 inside cones."""
    r = np.linspace(0.0, RHO, 65)
    g = np.where(r <= 0.3, 1000.0, np.clip(1000.0 * (0.4 - r) / 0.1, 0.0, None))
    return RadialProfile(r, np.where((r >= 0.5) & (r <= 0.9), -eps, g), RHO)


@pytest.fixture(scope="module")
def select_cases(blowup_run_coarse):
    """(field, fbar, gbar) triples: the coarse blow-up run; displacement data,
    whose u0 dips below zero so t2 > 0; a shell whose dips lie between -tol and
    -1e-10 (t2 = 0 only once tol is known) or below -tol; zero solution."""
    prob, fld = blowup_run_coarse
    grid = CharGrid(1 / 16, RHO + 6.0, 6.0)
    gr = grid.r_values()
    disp = Problem(2.0, 1.0, bump_profile(2.0, RHO, gr), zero_profile(RHO, gr))
    ones = RadialField(grid, np.ones((grid.n_t + 1, grid.n_r + 1)))
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)))
    zero = zero_profile(RHO, gr)
    return {
        "blowup": (fld, prob.f_profile, prob.g_profile),
        "displacement": (solve_march(disp, grid), disp.f_profile, zero),
        "shell-within-tol": (ones, zero, _shell_velocity(1e-9)),
        "shell-below-tol": (ones, zero, _shell_velocity(1e-3)),
        "zero-solution": (zeros, zero, bump_profile(1.0, RHO, gr)),
    }


@pytest.mark.parametrize("levels", [1, 7, 256, 10**6])
@pytest.mark.parametrize("case", ["blowup", "displacement", "shell-within-tol",
                                  "shell-below-tol", "zero-solution"])
def test_select_t2_delta_matches_whole_lattice_scan(select_cases, case, levels):
    # on each case's field, and on it cut to its first `levels` levels, as a
    # blown-up field is: tol still comes from u0 on every level of the lattice
    fld, fbar, gbar = select_cases[case]
    u0 = march_oracle.homogeneous_levels(fbar, gbar, fld.grid)(0, fld.grid.n_t + 1)
    cut = RadialField(fld.grid, fld.samples[:levels])
    try:
        want = _select_reference(cut, u0, RHO)
    except ValueError as exc:
        want = exc
    if isinstance(want, ValueError):
        assert case == "zero-solution" or levels < fld.n_levels
        with pytest.raises(ValueError, match="no admissible cone"):
            select_t2_delta(cut, fbar, gbar)
        return
    assert select_t2_delta(cut, fbar, gbar) == want
    if cut.n_levels < fld.n_levels:
        return
    # the cases reach what they are named for
    tol = 1e-10 * max(1.0, float(np.max(np.abs(u0))))
    within = (u0 < -1e-10) & (u0 >= -tol)
    assert (want[0] > 0) == (case in ("displacement", "shell-below-tol"))
    if case == "shell-within-tol":
        # a node below -1e-10 inside the cone from t2 = 0 (i <= j), which
        # only tol lets pass
        jj, ii = np.indices(u0.shape)
        assert np.any(within & (ii <= jj))


def test_select_t2_delta_peak_memory(crit4_run):
    # u0's band read twice a block of _BLOCK_NODES cells at a time (for max|u0|,
    # then for the cone), and no |u0| temporary: no band (0.13x the field), no
    # whole-lattice u0 and no prefix minima; measured 0.041x (0.151x with the
    # band built whole), so the bound leaves a third of headroom
    prob, field = crit4_run
    _, peak = traced_peak(select_t2_delta, field, prob.f_profile, prob.g_profile)
    assert peak <= 0.055 * field.samples.nbytes


def test_cone_average_bound_on_Q(blowup_run_coarse):
    # u(r, t) * r >= M at sampled grid points of Q, the direct statement
    prob, fld = blowup_run_coarse
    t2, delta = 0.0, RHO / 8.0
    M = prob.A * compute_M(fld, t2, delta, prob.p)
    assert M > 0
    h = fld.grid.h
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 100:
        j = int(rng.integers(int((t2 + 2 * delta) / h) + 1, fld.n_levels))
        i = int(rng.integers(1, fld.grid.n_r))
        lam, s = i * h, j * h
        if not (s - lam >= t2 and s - lam <= t2 + delta and lam + s >= t2 + 2 * delta):
            continue
        tol = 50 * h * h * max(1.0, abs(fld.samples[j, i] * lam))
        assert fld.samples[j, i] * lam >= M - tol
        checked += 1


# ---------------------------------------------------------------------------
# pointwise bound
# ---------------------------------------------------------------------------

def _sigma_tables(field, config):
    return diagnostics._sigma_tables(field, config, diagnostics._sigma_levels(field, config.t_star))


def test_pointwise_lower_bound_zero_field_holds():
    grid = CharGrid(1 / 16, 3.0, 3.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25).with_constants(0.0)
    table = _sigma_tables(zeros, cfg)[1]
    assert table.holds


def test_pointwise_lower_bound_detects_violation():
    # zero field against a strictly positive floor must be flagged
    grid = CharGrid(1 / 16, 3.0, 3.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25, None, M=1.0, C0=1.0)
    table = _sigma_tables(zeros, cfg)[1]
    assert not table.holds
    assert "violated" in table.verdict()


def test_pointwise_lower_bound_scaled_field_violation(crit4_chain):
    # shrinking the field while keeping M from the unscaled run must lose
    # margin, and shrinking below the measured worst lhs/rhs ratio must break
    # the bound; validates that the checker can fail on real data
    field, report = crit4_chain
    cfg = report.config
    orig = _sigma_tables(field, cfg)[1]
    assert orig.holds

    half = _sigma_tables(
        RadialField(field.grid, 0.5 * field.samples, status=field.status,
                    t_b=field.t_b, p=field.p, A=field.A), cfg)[1]
    assert half.min_residual < orig.min_residual

    ratio = np.min(orig.lhs / orig.rhs)
    assert ratio > 0
    s = 0.5 / ratio
    broken = _sigma_tables(
        RadialField(field.grid, s * field.samples, status=field.status,
                    t_b=field.t_b, p=field.p, A=field.A), cfg)[1]
    assert not broken.holds
    assert "violated" in broken.verdict()


# ---------------------------------------------------------------------------
# F/G/H and the chain
# ---------------------------------------------------------------------------

def test_fgh_identities(blowup_run_coarse):
    prob, fld = blowup_run_coarse
    cfg = ChainConfig(prob.p, prob.A, 0.0, RHO / 8.0)
    t_star, h = cfg.t_star, fld.grid.h
    alpha = t_star + 1.0
    # F on the diagonal, u((alpha - alpha)/2, (alpha + alpha)/2), is the centre value
    i, j = march_oracle.index_of(fld.grid, 0.0, alpha)
    F_diag = interpolate(fld, (alpha - alpha) / 2.0, (alpha + alpha) / 2.0)
    assert F_diag == pytest.approx(fld.samples[j, i], rel=1e-12)
    # the weight kills G on the diagonal, so one step of H is its beta = t_star end
    r = t_star + h
    G_end = h**cfg.q * interpolate(fld, h / 2.0, t_star + h / 2.0)
    assert H_of(fld, cfg, r) == pytest.approx(0.5 * h * G_end, rel=1e-12)
    # and H at the base point is empty
    assert H_of(fld, cfg, t_star) == 0.0


def test_H_profile_matches_pointwise_H(blowup_run_coarse):
    prob, fld = blowup_run_coarse
    cfg = ChainConfig(prob.p, prob.A, 0.0, RHO / 8.0)
    rs, hv = check_chain(fld, cfg).H
    for idx in (1, 7, 31, len(rs) - 1):
        assert hv[idx] == pytest.approx(H_of(fld, cfg, float(rs[idx])), rel=1e-10, abs=1e-12)


def test_chain_zero_field_trivially_holds():
    grid = CharGrid(1 / 16, 4.0, 4.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25)
    report = check_chain(zeros, cfg)
    assert report.holds
    assert report.config.M == 0.0 and report.config.C0 == 0.0


def test_chain_grid_too_short():
    grid = CharGrid(1 / 16, 1.0, 1.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25)   # needs t_max >= 2 t* + 4 delta = 2
    with pytest.raises(GridTooShortError):
        check_chain(zeros, cfg)


def test_chain_holds_on_blowup_run(crit4_chain):
    field, report = crit4_chain
    assert report.holds
    ids = {tb.inequality_id for tb in report.tables}
    assert ids == {"sigma_positivity", "region_integral_bound",
                   "pointwise_lower_bound", "inverse_power_lower_bound",
                   "weighted_functional_bound", "power_superadditivity",
                   "double_integral_bound", "holder_interpolation",
                   "single_integral_bound", "growth_floor"}
    for tb in report.tables:
        assert tb.holds, tb.inequality_id
    # named constants are tracked with their formulas
    assert report.config.M > 0 and report.config.C0 > 0
    assert report.constants["C0"]["value"] == report.config.C0
    assert "2^(p-1)" in report.constants["holder_factor"]["formula"]


def _lattice_F_reference(samples, j_star, n):
    """F(alpha_a, beta_b) on the whole (n+1)^2 grid by index arithmetic, zero for b > a.

    d = a - b even: the node (d/2, j_star + (a + b)/2); d odd: the mean of the
    cell with lower-left corner ((d-1)/2, j_star + (a + b - 1)/2), its corners
    in the bilinear interpolant's order.  Exact for any h, where the
    interpolant at float (r, t) is not.
    """
    a, b = np.arange(n + 1)[:, None], np.arange(n + 1)[None, :]
    m = np.maximum(a - b, 0) // 2
    j = j_star + (a + b) // 2            # the node's level, or the cell's lower one
    up = np.minimum(j + 1, samples.shape[0] - 1)     # clipped where d is even and unused
    node = samples[j, m]
    cell = (0.25 * samples[j, m] + 0.25 * samples[j, m + 1]
            + 0.25 * samples[up, m] + 0.25 * samples[up, m + 1])
    return np.where(b > a, 0.0, np.where((a - b) % 2 == 0, node, cell))


def _dense_chain_reference(field, config):
    """Every table of the chain and H, from the formulas on the full (n+1)^2 grid.

    The oracle for the row-blocked pass: F on the whole square
    (alpha, beta) lattice, full-array cumulative trapezoids and
    ``np.tril_indices`` sampling, written out as check_chain once computed
    them.  ``config`` carries M, C0 and eps.
    """
    h, n_r = field.grid.h, field.grid.n_r
    p, A, q, t_star, C0 = config.p, config.A, config.q, config.t_star, config.C0
    tol = functools.partial(diagnostics._chain_tol, h)
    tables = []

    j_star = int(round(t_star / h))
    js, iss = np.nonzero(np.arange(n_r + 1) <= np.arange(field.n_levels)[:, None] - j_star)
    u_sigma = field.samples[js, iss]
    tables.append(InequalityTable.build(
        "sigma_positivity", iss * h, js * h, u_sigma, np.zeros_like(u_sigma),
        lambda lhs, rhs: tol(lhs, np.maximum(np.abs(lhs), 1.0))))
    keep = (iss >= 1) & (iss + js <= n_r)
    stride = max(1, int(keep.sum()) // diagnostics.BRT_SAMPLES)
    jb = js[keep][::stride][:diagnostics.BRT_SAMPLES]
    ib = iss[keep][::stride][:diagnostics.BRT_SAMPLES]
    lam_src = h * np.arange(n_r + 1) * np.clip(field.samples, 0.0, None) ** p
    rhs_b = []
    for i, j in zip(ib, jb):
        brt = StripBounds.from_region(RegionBrt(int(i), int(j), j_star), 1)
        a_max = brt.window()[1]
        W = lattice_weights(brt, j, a_max)          # row j + 1 of the window carries no weight
        integral = math.fsum((W * lam_src[: j + 1, : a_max + 1]).ravel()) * h * h
        rhs_b.append(A * (integral / (2.0 * i * h)))
    rhs_b = np.array(rhs_b)
    lhs_b = field.samples[jb, ib]
    tables.append(InequalityTable.build("region_integral_bound", ib * h, jb * h,
                                        lhs_b, rhs_b, tol))
    tables.append(diagnostics._sigma_tables(field, config, j_star)[1])

    n = int(math.floor((field.defined_t_max - t_star) / h + 1e-9))
    alphas = t_star + h * np.arange(n + 1)
    A2, B2 = alphas[:, None], alphas[None, :]
    F2 = _lattice_F_reference(field.samples, j_star, n)
    tri_a, tri_b = np.tril_indices(n + 1)
    samp = slice(0, tri_a.size, max(1, tri_a.size // 20000))
    lhs_f = F2[tri_a, tri_b][samp]
    rhs_f = C0 * alphas[tri_a][samp] ** (1.0 - p)
    tables.append(InequalityTable.build(
        "inverse_power_lower_bound", alphas[tri_a][samp], alphas[tri_b][samp],
        lhs_f, rhs_f, tol))

    Fp = np.clip(F2, 0.0, None) ** p
    db = A2 - B2
    db_pos = np.where(db > 0, db, 0.0)
    G2 = db_pos**q * F2
    diag = (np.arange(n + 1), np.arange(n + 1))
    H_vals = cumulative_trapezoid(G2, dx=h, axis=1, initial=0.0)[diag]
    J_int = cumulative_trapezoid(db_pos ** (1.0 + q) * Fp, dx=h, axis=1, initial=0.0)[diag]
    K1 = cumulative_trapezoid(db_pos * Fp, dx=h, axis=1, initial=0.0)

    side = max(2, int(math.sqrt(diagnostics.G1_SAMPLES)))
    lhs_g, rhs_g, rg, tg = [], [], [], []
    for it in np.unique(np.linspace(0, n - 1, side).astype(int)):
        outer = cumulative_trapezoid(K1[:, it], dx=h, initial=0.0)
        for ir in np.unique(np.linspace(it, n, side).astype(int)):
            if ir > it:
                lhs_g.append(G2[ir, it])
                rhs_g.append((A / 4.0) * (alphas[ir] - alphas[it]) ** (q - 1.0)
                             * (outer[ir] - outer[it]))
                rg.append(alphas[ir])
                tg.append(alphas[it])
    tables.append(InequalityTable.build("weighted_functional_bound", rg, tg, lhs_g, rhs_g, tol))

    rng = np.random.default_rng(20240803)
    rr = t_star + rng.uniform(0, 10, 1000) * max(1.0, t_star)
    aa = t_star + (rr - t_star) * rng.uniform(0, 1, 1000)
    bb = t_star + (aa - t_star) * rng.uniform(0, 1, 1000)
    lhs_s, rhs_s = (rr - bb) ** q - (rr - aa) ** q, (aa - bb) ** q
    tables.append(InequalityTable.build(
        "power_superadditivity", rr, aa, lhs_s, rhs_s,
        lambda lhs, rhs: np.maximum(1e-12 * np.maximum(lhs, 1.0), 1e-12)))

    nan = np.full_like(alphas, np.nan)
    rhs_h1 = (A / (4.0 * q)) * cumulative_trapezoid(J_int, dx=h, initial=0.0)
    tables.append(InequalityTable.build("double_integral_bound", alphas, nan, H_vals,
                                        rhs_h1, tol))
    gap = alphas - t_star
    pos = gap > 0
    rhs_hold = np.zeros_like(alphas)
    rhs_hold[pos] = H_vals[pos] ** p * (gap[pos] ** 2 / 2.0) ** (1.0 - p)
    tables.append(InequalityTable.build("holder_interpolation", alphas, nan, J_int,
                                        rhs_hold, tol))
    integrand = np.zeros_like(alphas)
    integrand[pos] = H_vals[pos] ** p * gap[pos] ** (2.0 - 2.0 * p)
    rhs_single = config.c_single * cumulative_trapezoid(integrand, dx=h, initial=0.0)
    tables.append(InequalityTable.build("single_integral_bound", alphas, nan, H_vals,
                                        rhs_single, tol))
    sel = alphas >= 2.0 * t_star - 1e-12
    rhs_floor = config.c_low * (alphas[sel] - t_star) ** (2.0 - p + q)
    tables.append(InequalityTable.build("growth_floor", alphas[sel], nan[sel], H_vals[sel],
                                        rhs_floor, tol))
    return tables, (alphas, H_vals)


# H, J and K1 are sums taken along d = a - b rather than along beta, and their
# weights are (d h)^q rather than (alpha - beta)^q: every column built from them
# (and min_residual) agrees with the dense grid to this share of the column's
# largest magnitude: the worst seen is 2.8e-15 in these cases and 7.7e-15 on
# the README field at rho/128 (against the beta-ordered sums). The rest keeps
# its bits
CHAIN_SUM_RTOL = 1e-13
SUM_COLUMNS = {"weighted_functional_bound": ("rhs",),
               "double_integral_bound": ("lhs", "rhs"),
               "holder_interpolation": ("lhs", "rhs"),
               "single_integral_bound": ("lhs", "rhs"),
               "growth_floor": ("lhs",)}


@pytest.fixture(scope="module")
def blowup_run_h003():
    """The coarse blow-up run on a spacing that is not a power of two."""
    grid = CharGrid(0.03, 17.01, 15.99)
    prob = blowup_problem(grid)
    return prob, solve_march(prob, grid)


@pytest.mark.parametrize("rows, p, h", [
    pytest.param(7, 2.0, RHO / 32, id="7-2.0"), pytest.param("n+1", 2.0, RHO / 32, id="n+1-2.0"),
    pytest.param(7, 1.5, RHO / 32, id="7-1.5"), pytest.param(7, 2.0, 0.03, id="7-2.0-h0.03"),
    pytest.param(7, 1.5, 0.03, id="7-1.5-h0.03")])
def test_row_blocked_chain_matches_dense_grid(blowup_run_coarse, blowup_run_h003, monkeypatch,
                                              rows, p, h):
    # a budget of 7 (n + 1) nodes: blocks of 7 rows, many and a ragged last one;
    # (n + 1)^2 nodes: as few blocks as the level-0 bound allows; p = 1.5 takes
    # numpy's general power instead of squaring; h = 0.03: alpha - beta is not
    # exact, so (d h)^q moves H
    prob, fld = blowup_run_coarse if h == RHO / 32 else blowup_run_h003
    cfg = ChainConfig(p, prob.A, 0.0, 4 * h)
    n = int(math.floor((fld.defined_t_max - cfg.t_star) / fld.grid.h + 1e-9))
    assert (n + 1) % 7
    monkeypatch.setattr(diagnostics, "_BLOCK_NODES", (n + 1) * (n + 1 if rows == "n+1" else rows))
    report = check_chain(fld, cfg)
    ref_tables, ref_H = _dense_chain_reference(fld, report.config)
    assert np.array_equal(report.H[0], ref_H[0])
    np.testing.assert_allclose(report.H[1], ref_H[1], rtol=0,
                               atol=CHAIN_SUM_RTOL * np.abs(ref_H[1]).max())
    assert [tb.inequality_id for tb in report.tables] == [tb.inequality_id for tb in ref_tables]
    for tb, ref in zip(report.tables, ref_tables):
        sums = SUM_COLUMNS.get(tb.inequality_id, ())
        # step 2 is a sum taken in another order by the oracle: exact up to round-off
        atol = 1e-13 * np.abs(ref.rhs).max() if tb.inequality_id == "region_integral_bound" else 0
        atols = {name: CHAIN_SUM_RTOL * np.abs(getattr(ref, name)).max() if name in sums else atol
                 for name in ("r", "t", "lhs", "rhs")}
        for name, col_atol in atols.items():
            np.testing.assert_allclose(getattr(tb, name), getattr(ref, name), rtol=0,
                                       atol=col_atol, equal_nan=True,
                                       err_msg=f"{tb.inequality_id} {name}")
        assert tb.holds == ref.holds, tb.inequality_id
        # min_residual = lhs - rhs: a reordered side adds its bound; step 2 keeps its own
        bound = atols["lhs"] + atols["rhs"] if sums else atol
        assert abs(tb.min_residual - ref.min_residual) <= bound, tb.inequality_id


def _build_reference(r, t, lhs, rhs, tol, max_rows=diagnostics.MAX_ROWS):
    """InequalityTable.build on whole arrays, as written before tables streamed:
    (r, t, lhs, rhs, tol) kept, holds, min_residual, argmin."""
    res = lhs - rhs
    k = int(np.argmin(res))
    min_residual, holds = float(res[k]), bool(np.all((res >= -tol) & (res > -np.inf)))
    if lhs.size > max_rows:
        stride = lhs.size // max_rows + 1
        keep = np.unique(np.concatenate([np.arange(0, lhs.size, stride), [k]]))
        r, t, lhs, rhs, tol = r[keep], t[keep], lhs[keep], rhs[keep], tol[keep]
        k = int(np.argmin(lhs - rhs))
    return (r, t, lhs, rhs, tol), holds, min_residual, (float(r[k]), float(t[k]))


def _assert_table_is(table, ref):
    cols, holds, min_residual, argmin = ref
    for name, col in zip(("r", "t", "lhs", "rhs", "tol"), cols):
        assert np.array_equal(getattr(table, name), col, equal_nan=True), name
    # repr: a NaN min_residual equals its reference
    assert (table.holds, repr(table.min_residual), table.argmin) == (holds, repr(min_residual),
                                                                     argmin)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("block", [1, 7, 10**6])
@pytest.mark.parametrize("max_rows", [37, 20000])
@pytest.mark.parametrize("values", [pytest.param("tied", id="True"),
                                    pytest.param("normal", id="False"), "holds", "inf", "nan"])
def test_table_stream_matches_whole_array_build(monkeypatch, block, max_rows, values):
    # tied: residuals drawn from a few integers, so the least one recurs in
    # many blocks and only its first row may be reported; normal: violated;
    # holds: negative residuals within the tolerance; inf: as holds, with +-inf
    # on either side, the least residual -inf twice, and those two rows fail
    # though their tolerance is +inf; nan: NaN on either side and inf - inf,
    # the only rows that fail
    rng = np.random.default_rng(7)
    n = 500
    r, t = rng.random(n), rng.random(n)
    rhs = rng.random(n)
    lhs = rhs + (rng.integers(-3, 4, n) if values == "tied" else
                 rng.normal(size=n) if values == "normal" else 0.1 * rng.normal(size=n))
    odd = rng.choice(n, 8, replace=False)
    if values == "inf":
        lhs[odd[:3]], rhs[odd[3:6]] = [np.inf, -np.inf, np.inf], [-np.inf, np.inf, np.inf]
    elif values == "nan":
        lhs[odd[:2]], rhs[odd[2:4]] = np.nan, np.nan
        lhs[odd[4:6]] = rhs[odd[4:6]] = np.inf
    seen = []

    def rows(lhs, rhs):          # by repr, so that NaN rows compare equal
        return list(zip(map(repr, lhs.tolist()), map(repr, rhs.tolist())))

    def tol(lhs, rhs):
        seen.extend(rows(lhs, rhs))
        return 0.5 + 0.1 * np.maximum(np.abs(lhs), np.abs(rhs))

    monkeypatch.setattr(diagnostics, "MAX_ROWS", max_rows)
    stream = diagnostics._TableStream("synthetic", n, None)
    for lo in range(0, n, block):
        rows_in = slice(lo, lo + block)
        stream.add(r[rows_in], t[rows_in], lhs[rows_in], rhs[rows_in], tol)
    table = stream.finish()
    # the tolerance sees only rows that may fail (residual not >= 0) and kept rows
    with np.errstate(invalid="ignore"):
        fails = ~(lhs - rhs >= 0)
    assert fails.any()
    may_see = set(rows(lhs[fails], rhs[fails])) | set(rows(table.lhs, table.rhs))
    assert set(seen) <= may_see and len(seen) <= fails.sum() + table.lhs.size + 1
    ref = _build_reference(r, t, lhs, rhs, tol(lhs, rhs), max_rows)
    assert ref[1] == (values == "holds")
    if values == "tied":
        assert np.sum(lhs - rhs == ref[2]) > 10
    if values in ("inf", "nan"):
        assert np.isnan(ref[2]) if values == "nan" else ref[2] == -np.inf
    _assert_table_is(table, ref)
    _assert_table_is(InequalityTable.build("synthetic", r, t, lhs, rhs, tol), ref)


def test_table_build_takes_a_tolerance_function():
    lhs = np.array([1.0, -1.0])
    table = InequalityTable.build("synthetic", lhs, lhs, lhs, 0.0 * lhs,
                                  lambda lhs, rhs: np.full(lhs.shape, 2.0))
    assert table.holds and np.array_equal(table.tol, [2.0, 2.0])
    with pytest.raises(TypeError, match="function of"):
        InequalityTable.build("synthetic", lhs, lhs, lhs, 0.0 * lhs, 2.0)


@pytest.mark.parametrize("rows", [1, 7, 10**6])
@pytest.mark.parametrize("case", ["blowup", "small", "negative"])
def test_sigma_tables_match_whole_array_build(blowup_run_coarse, monkeypatch, rows, case):
    # blowup: 1e5 Sigma nodes, above max_rows; small: 1.5e3 nodes, below it;
    # negative: u = -1 on Sigma, every node tied for the least residual
    prob, fld = blowup_run_coarse
    if case != "blowup":
        grid = CharGrid(1 / 16, 5.0, 4.0)
        fld = RadialField(grid, np.full((grid.n_t + 1, grid.n_r + 1),
                                        -1.0 if case == "negative" else 1.0))
    cfg = ChainConfig(2.0, 1.0, 0.0, RHO / 8.0, None, M=1.0, C0=0.3)
    h = fld.grid.h
    j_star = int(round(cfg.t_star / h))
    js, iss = np.nonzero(np.arange(fld.grid.n_r + 1) <= np.arange(fld.n_levels)[:, None] - j_star)
    u, r, t = fld.samples[js, iss], iss * h, js * h
    assert (u.size > 20000) == (case == "blowup")
    # a block holds as many levels as fit `rows` full levels' nodes, one at least
    monkeypatch.setattr(diagnostics, "_BLOCK_NODES", rows * (fld.grid.n_r + 1))
    positivity, pointwise = diagnostics._sigma_tables(fld, cfg, j_star)
    _assert_table_is(positivity, _build_reference(r, t, u, np.zeros_like(u),
                                                  diagnostics._chain_tol(h, u, 1.0)))
    rhs = cfg.C0 * (t + r) ** (1.0 - cfg.p)
    _assert_table_is(pointwise, _build_reference(r, t, u, rhs, diagnostics._chain_tol(h, u, rhs)))
    assert positivity.holds == (case != "negative")
    if case == "negative":
        assert positivity.argmin == (0.0, j_star * h)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_H_and_J_do_not_depend_on_the_block(blowup_run_coarse, monkeypatch, p):
    # each alpha-row's H and J are the same bits whatever the height of its
    # block: blocks of 1 or 17 rows and blocks as tall as the level-0 bound
    # allows (a BLAS matrix-vector product, or einsum, rounds some rows otherwise)
    _, fld = blowup_run_coarse
    cfg = ChainConfig(p, 1.0, 0.0, RHO / 8.0)
    j_star = diagnostics._sigma_levels(fld, cfg.t_star)
    n = int(math.floor((fld.defined_t_max - cfg.t_star) / fld.grid.h + 1e-9))
    cols, tri = np.arange(0, n, 7), np.zeros(1, dtype=np.int64)
    got = []
    for rows in (1, 17, n + 1):
        monkeypatch.setattr(diagnostics, "_BLOCK_NODES", (n + 1) * rows)
        assert len(list(diagnostics._alpha_blocks(n, j_star))) > 2
        _, H, J, *_ = diagnostics._characteristic_pass(fld, cfg, j_star, n, cols, tri, tri)
        got.append((H.tobytes(), J.tobytes()))
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("k, j_star, rows", [(3, 0, 5), (4, 6, 7), (5, 13, 256),
                                             (5, 8, 1), (5, 8, 7), (5, 8, "n+1")])
def test_lattice_gather_matches_interpolate(tmp_path, monkeypatch, k, j_star, rows):
    # dyadic h: r = d h/2 and t are exact, so the bilinear interpolant at the
    # node or cell centre and the direct read agree bit for bit, apex included.
    # j_star = 8 is the least a chain uses (t2 = 0, delta = 4h); with a budget
    # of (n + 1)^2 nodes its first blocks end on hi = 2 (j_star + lo), reading
    # level 0.  A budget of rows (n + 1) nodes gives blocks of `rows` rows.
    # Each block is cut from the band of its own rows, of all the blocks at
    # once, and of the field read back from field.npz (a RowFile), alike
    rng = np.random.default_rng(k)
    h = 2.0**-k
    grid = CharGrid(h, 40 * h, 70 * h)
    fld = RadialField(grid, rng.normal(size=(grid.n_t - 3, grid.n_r + 1)))
    n = fld.n_levels - 1 - j_star
    monkeypatch.setattr(diagnostics, "_BLOCK_NODES", (n + 1) * (n + 1 if rows == "n+1" else rows))
    blocks = list(diagnostics._alpha_blocks(n, j_star))
    fld.save(tmp_path / "f.npz")
    on_disk = RadialField.load(tmp_path / "f.npz").samples
    whole = diagnostics._band(fld.samples, j_star, blocks)
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == n + 1
    if rows != "n+1":
        assert all(hi - lo <= rows for lo, hi in blocks)
    if (j_star, rows) == (8, "n+1"):
        assert blocks[:2] == [(0, 16), (16, 48)]
    for lo, hi in blocks:
        a, d = np.arange(lo, hi)[:, None], np.arange(hi)[None, :]
        got = diagnostics._F_block(diagnostics._band(fld.samples, j_star, [(lo, hi)]),
                                   j_star, lo, hi)
        want = np.where(d <= a, interpolate(fld, d * h / 2.0, (j_star + a - d / 2.0) * h), 0.0)
        assert np.array_equal(got, want)
        assert diagnostics._F_block(whole, j_star, lo, hi).tobytes() == got.tobytes()
        band = diagnostics._band(on_disk, j_star, [(lo, hi)])
        assert diagnostics._F_block(band, j_star, lo, hi).tobytes() == got.tobytes()
    on_disk.close()
    # a block cut from a band that does not hold its cells is refused, not read
    if len(blocks) > 1:
        for held_block, cut in ((blocks[0], blocks[-1]), (blocks[-1], blocks[0])):
            with pytest.raises(IndexError, match="leave the band"):
                diagnostics._F_block(diagnostics._band(fld.samples, j_star, [held_block]),
                                     j_star, *cut)
    # one row past the bound would read below level 0: refused, not read
    with pytest.raises(IndexError, match="leave the lattice"):
        diagnostics._band(fld.samples, 8, [(0, 18)])
    # and so are rows reaching past the last level or the last column
    with pytest.raises(IndexError, match="leave the lattice"):
        diagnostics._band(fld.samples, j_star, [(n, n + 2)])
    with pytest.raises(IndexError, match="leave the lattice"):
        diagnostics._band(fld.samples[:, :10], j_star, [(0, 20)])


@pytest.mark.parametrize("n, j_star", [(0, 8), (52, 13), (200, 8), (1925, 40), (5800, 100)])
@pytest.mark.parametrize("budget", [1, 500, 1 << 17])
def test_alpha_spans_hold_the_band_budget(monkeypatch, n, j_star, budget):
    # the spans are the alpha blocks in order, each band within the cell
    # budget or a single block; a band holds the levels and anti-diagonals its
    # blocks read (each block's F views stay inside it)
    monkeypatch.setattr(diagnostics, "_SPAN_CELLS", budget)
    spans = list(diagnostics._alpha_spans(n, j_star))
    assert [b for span in spans for b in span] == list(diagnostics._alpha_blocks(n, j_star))
    for span in spans:
        L0, L1, s0, s1 = diagnostics._band_levels(span, j_star)
        assert (L1 - L0 + 1) * (s1 - s0 + 1) <= budget or len(span) == 1
        for lo, hi in span:
            assert L0 <= j_star + lo - hi // 2 and j_star + hi - 1 <= L1
            assert s0 <= j_star + lo - 1 and j_star + hi <= s1


@pytest.mark.parametrize("n, j_star", [(0, 8), (1, 0), (52, 13), (200, 8), (1925, 40)])
@pytest.mark.parametrize("budget", [1, 7, 100, 1 << 15])
def test_alpha_blocks_hold_the_node_budget(monkeypatch, n, j_star, budget):
    # the blocks cover [0, n] contiguously; each holds (hi - lo) alpha-rows of
    # hi columns, at most the budget or a single row, and reads no level below 0
    monkeypatch.setattr(diagnostics, "_BLOCK_NODES", budget)
    blocks = list(diagnostics._alpha_blocks(n, j_star))
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == n + 1
    for lo, hi in blocks:
        assert hi > lo and ((hi - lo) * hi <= budget or hi - lo == 1)
        assert hi <= max(2 * (j_star + lo), lo + 1)


@pytest.mark.parametrize("side", [2, 12, 40])
def test_spread_is_numpys_unique(side):
    # the sample columns of the weighted functional bound: the ints of evenly
    # spread points, each once, are np.unique's array for every span the chain
    # asks for, [0, n - 1] and [it, n] with it < n
    for n in range(1, 80):
        for lo, hi in [(0, n - 1)] + [(it, n) for it in range(n)]:
            want = np.unique(np.linspace(lo, hi, side).astype(int))
            got = diagnostics._spread(lo, hi, side)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lo, hi)


@pytest.mark.parametrize("seed", [20240803, 0, 1, 2**32 - 1])
def test_pcg64_doubles_are_default_rngs(seed):
    # step 5 draws without numpy.random: its PCG64 gives default_rng's doubles
    # bit for bit, and the chain's three uniform arrays are slices of them
    d = diagnostics._pcg64_doubles(seed, 3000)
    assert d.dtype == np.float64 and d.tobytes() == np.random.default_rng(seed).random(3000).tobytes()
    rng = np.random.default_rng(seed)
    assert [rng.uniform(0, 10, 1000).tobytes(), rng.uniform(0, 1, 1000).tobytes(),
            rng.uniform(0, 1, 1000).tobytes()] == [
        (10.0 * d[:1000]).tobytes(), d[1000:2000].tobytes(), d[2000:].tobytes()]


def test_check_chain_peak_memory(crit4_run, tmp_path):
    # no (n+1)^2 characteristic-grid array (the dense chain peaked at 11x the
    # field), no Sigma-size array (whole-Sigma steps 1-3 peaked at 3.9x) and no
    # full-width weight or trapezoid arrays per alpha-block (0.96x with them),
    # no step-2 source array and Sigma blocks of whole levels (0.58x with the
    # array and 256-level blocks), and alpha-blocks and Sigma blocks of at most
    # _BLOCK_NODES nodes (0.48x with 256 alpha-rows and 2^17 Sigma nodes).  The
    # field stays in field.npz (a RowFile): the characteristic pass reads it a
    # band of _SPAN_CELLS at a time and frees a block before cutting the next;
    # measured 0.141x (0.123x held in memory with no band; 0.167x with a band
    # of 2^18 cells), and the report is bitwise that of the field held
    prob, field = crit4_run
    cfg = ChainConfig(prob.p, prob.A, 0.0, RHO / 8.0)
    field.save(tmp_path / "field.npz")
    with RadialField.load(tmp_path / "field.npz") as on_disk:
        assert isinstance(on_disk.samples, solver.RowFile)
        report, peak = traced_peak(check_chain, on_disk, cfg)
    assert peak <= 0.15 * field.samples.nbytes
    held = check_chain(field, cfg)
    assert report.to_json_dict() == held.to_json_dict()
    for got, want in zip(report.tables, held.tables, strict=True):
        for column in ("r", "t", "lhs", "rhs", "tol"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    assert [v.tobytes() for v in report.H] == [v.tobytes() for v in held.H]


def test_residual_tables_npz_round_trip(crit4_chain, tmp_path):
    # every column comes back bit for bit, odd values included, and meta
    # lists the tables in order with their row counts and constants
    _, report = crit4_chain
    rng = np.random.default_rng(4)
    n = 50
    odd = InequalityTable.build(
        "synthetic", rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n),
        np.full(n, np.nan), np.r_[-0.0, np.inf, -np.inf, 1e-320, rng.random(n - 4)],
        np.r_[0.0, 1.0, 2.0, 3.0, rng.random(n - 4)], lambda lhs, rhs: np.zeros_like(lhs))
    mixed = dataclasses.replace(report, tables=list(report.tables) + [odd])
    assert any(np.isnan(tb.t).all() for tb in report.tables)
    for rep in (report, mixed):
        rep.save_tables(tmp_path / "residuals.npz")
        members, meta = _read_npz(tmp_path / "residuals.npz", "residuals")
        ids = [tb.inequality_id for tb in rep.tables]
        assert meta["tables"] == ids and len(members) == 5 * len(ids)
        for tb in rep.tables:
            assert meta["rows"][tb.inequality_id] == tb.lhs.size
            assert meta["constants"][tb.inequality_id] == tb.constants
            for col in ("r", "t", "lhs", "rhs", "tol"):
                got, want = members[f"{tb.inequality_id}.{col}"], getattr(tb, col)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert meta["max_rows"] == diagnostics.MAX_ROWS
    assert mixed.tables[-1].constants == {} and meta["constants"]["synthetic"] == {}


def test_holder_residual_invariant(crit4_chain):
    field, report = crit4_chain
    table = next(tb for tb in report.tables if tb.inequality_id == "holder_interpolation")
    assert np.all(table.lhs - table.rhs >= -table.tol)


def test_superadditivity_unit_and_property():
    # q = 2, r = 10, alpha = 4, beta = 3: 7^2 - 6^2 = 13 >= 1
    assert (10 - 3)**2 - (10 - 4)**2 == 13 >= (4 - 3)**2
    rng = np.random.default_rng(123)
    n = 10**4
    q = 1.0 + rng.uniform(0, 4, n)
    r = rng.uniform(0, 10, n)
    alpha = r * rng.uniform(0, 1, n)
    beta = alpha * rng.uniform(0, 1, n)
    lhs = (r - beta)**q - (r - alpha)**q
    rhs = (alpha - beta)**q
    assert np.all(lhs >= rhs - 1e-10 * np.maximum(1.0, rhs))


def test_weight_exponent_identity():
    rng = np.random.default_rng(7)
    p = 1.01 + rng.uniform(0, CRIT - 1.01, 100)
    q = p / (p - 1.0)
    assert np.allclose(1.0 - q * p + q, 1.0 - p, rtol=1e-12, atol=1e-12)
    assert np.allclose(q * p, p + q, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

def test_s_exponent_values():
    assert s_exponent(2.0, 0.0) == 0.0
    assert abs(s_exponent(CRIT, 0.0) - (-1.0)) <= 1e-12
    assert s_exponent(2.0, 0.5) == pytest.approx(-1.0, rel=1e-14)
    with pytest.raises(ValueError):
        s_exponent(1.0, 0.1)
    with pytest.raises(ValueError):
        s_exponent(2.0, -0.1)


def test_s_exponent_monotone_and_threshold():
    rng = np.random.default_rng(99)
    # strictly decreasing in eps on the subcritical range (the eps coefficient
    # 2 - p + p/(p-1) is positive there)
    for _ in range(1000):
        p = 1.01 + rng.uniform(0, CRIT - 1.01)
        e1 = rng.uniform(0, p - 1)
        e2 = e1 + rng.uniform(1e-6, 0.5)
        assert s_exponent(p, e2) < s_exponent(p, e1)
    # s(p, 0) > -1 exactly below the critical exponent
    for _ in range(1000):
        p = 1.01 + rng.uniform(0, 3.0)
        assert (s_exponent(p, 0.0) > -1.0) == (p < CRIT)


def test_choose_epsilon_examples():
    eps = choose_epsilon(2.0)
    assert eps == pytest.approx(0.495, rel=1e-12)      # 0.99 * min(1/2, 1)
    assert choose_epsilon(2.5) is None                 # s(p,0) = -1.25
    assert choose_epsilon(CRIT) is None                # boundary: no slack left
    with pytest.raises(ValueError):
        choose_epsilon(1.0)


def test_choose_epsilon_admissibility_ranges():
    rng = np.random.default_rng(17)
    for p in 1.01 + rng.uniform(0, 1.40, 50):
        eps = choose_epsilon(float(p))
        assert eps is not None and 0 < eps < p - 1
        assert s_exponent(float(p), eps) >= -1.0
    for p in 2.42 + rng.uniform(0, 1.58, 50):
        assert choose_epsilon(float(p)) is None


def test_gronwall_params_from_chain(crit4_chain):
    _, report = crit4_chain
    C, a, b, t0, t1 = gronwall_params_from_chain(report.config)
    cfg = report.config
    assert a == 1.0 + cfg.epsilon
    assert b == pytest.approx(s_exponent(cfg.p, cfg.epsilon))
    assert b >= -1.0
    assert t0 == cfg.t_star and t1 == 2 * cfg.t_star
    assert C == pytest.approx(report.constants["C_split"]["value"])
    with pytest.raises(ValueError, match="epsilon"):
        gronwall_params_from_chain(ChainConfig(2.5, 1.0, 0.0, 0.25, None, M=1.0, C0=1.0))


# ---------------------------------------------------------------------------
# dilation invariance of the verdicts
# ---------------------------------------------------------------------------

def test_dilation_invariance_of_verdicts():
    grid = CharGrid(RHO / 32, RHO + 8.0, 8.0)
    gr = grid.r_values()
    prob = Problem(2.0, 3.0, zero_profile(RHO, gr), bump_profile(4.0, RHO, gr))
    # u -> c u with c = A^(1/(p-1)) turns box(u) = A|u|^p into box(u) = |u|^p
    c = prob.A ** (1.0 / (prob.p - 1.0))
    scaled = Problem(prob.p, 1.0, zero_profile(RHO, gr), bump_profile(c * 4.0, RHO, gr))
    f1 = solve_march(prob, grid)
    f2 = solve_march(scaled, grid)
    assert f1.status == f2.status
    t2, delta = 0.0, RHO / 8.0
    cfg1 = ChainConfig(prob.p, prob.A, t2, delta).with_constants(
        compute_M(f1, t2, delta, prob.p))
    cfg2 = ChainConfig(scaled.p, scaled.A, t2, delta).with_constants(
        compute_M(f2, t2, delta, scaled.p))
    rep1 = check_chain(f1, cfg1)
    rep2 = check_chain(f2, cfg2)
    # constants move (M scales by the amplitude factor) but verdicts agree
    assert cfg2.M == pytest.approx(c * cfg1.M, rel=1e-8)
    v1 = {tb.inequality_id: tb.holds for tb in rep1.tables}
    v2 = {tb.inequality_id: tb.holds for tb in rep2.tables}
    assert v1 == v2
    assert rep1.holds == rep2.holds
