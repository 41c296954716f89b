import math

import numpy as np
import pytest

from wavelab.diagnostics import (ChainConfig, GridTooShortError, F_of, G_of,
                                 H_of, check_chain,
                                 check_pointwise_lower_bound, choose_epsilon,
                                 compute_M, gronwall_params_from_chain,
                                 s_exponent, select_t2_delta)
from wavelab.profiles import bump_profile, zero_profile
from wavelab.regions import _UNBOUNDED, StripBounds, lattice_weights, strip_quadrature
from wavelab.solver import (CharGrid, Problem, RadialField, linear_radial,
                            normalize_coefficient, solve_march)

from conftest import RHO

CRIT = 1.0 + math.sqrt(2.0)


# ---------------------------------------------------------------------------
# M and the cone base
# ---------------------------------------------------------------------------

def test_compute_M_constant_field_oracle():
    # field == 1 on T(0, 1) with p = 2: the exact iterated integral of
    # lambda/2 over T is 7/16 (symbolic oracle, two parametrisations agree),
    # and the lattice rule reproduces it exactly (integrand linear in lambda)
    grid = CharGrid(1 / 64, 3.0, 3.0)
    ones = RadialField(grid, np.ones((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    assert compute_M(ones, 0.0, 1.0) == pytest.approx(7.0 / 16.0, abs=1e-15)


def test_brt_quadrature_at_last_level():
    # B(r,t) with t on the last defined level: its lattice window reaches one
    # row past the field, and that row carries no weight
    rng = np.random.default_rng(11)
    src = rng.random((25, 33))                  # levels 0..24, radii 0..32
    j, j_star = src.shape[0] - 1, 4
    padded = np.vstack([src, np.zeros((1, src.shape[1]))])
    ii = np.arange(1, src.shape[1] - j)
    for i in ii:
        b = StripBounds(j - i, j + i, j_star, j - i, 0, _UNBOUNDED)
        k_max, a_max = b.window()
        assert k_max == src.shape[0]
        ref = (lattice_weights(b, k_max, a_max) * padded[: k_max + 1, : a_max + 1]).sum()
        assert strip_quadrature(src, b) == pytest.approx(ref, rel=1e-12)
    batch = strip_quadrature(src, StripBounds(j - ii, j + ii, j_star, j - ii, 0, _UNBOUNDED))
    assert batch.shape == ii.shape and np.all(batch > 0)


def test_compute_M_zero_field_and_grid_check():
    grid = CharGrid(1 / 16, 2.0, 2.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    assert compute_M(zeros, 0.0, 0.5) == 0.0
    with pytest.raises(ValueError, match="outside grid"):
        compute_M(zeros, 0.0, 1.5)


def test_select_t2_delta_nonnegative_velocity_data(blowup_run_coarse):
    prob, fld = blowup_run_coarse
    u0 = linear_radial(prob.f_profile, prob.g_profile, fld.grid)
    t2, delta = select_t2_delta(fld, u0, prob.rho)
    assert t2 == 0.0
    assert delta == pytest.approx(RHO / 8.0)
    assert fld.value_at(delta, t2 + delta) > 0


def test_select_t2_delta_zero_field_errors():
    grid = CharGrid(1 / 16, 2.0, 1.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)))
    with pytest.raises(ValueError, match="no admissible cone"):
        select_t2_delta(zeros, zeros, rho=1.0)


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

def test_pointwise_lower_bound_zero_field_holds():
    grid = CharGrid(1 / 16, 3.0, 3.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25).with_constants(0.0)
    table = check_pointwise_lower_bound(zeros, cfg)
    assert table.holds


def test_pointwise_lower_bound_detects_violation():
    # zero field against a strictly positive floor must be flagged
    grid = CharGrid(1 / 16, 3.0, 3.0)
    zeros = RadialField(grid, np.zeros((grid.n_t + 1, grid.n_r + 1)), p=2.0)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25)
    cfg = ChainConfig(2.0, 1.0, 0.0, 0.25, None, M=1.0, C0=1.0)
    table = check_pointwise_lower_bound(zeros, cfg)
    assert not table.holds
    assert "violated" in table.verdict()


def test_pointwise_lower_bound_scaled_field_violation(crit4_chain):
    # shrinking the field while keeping M from the unscaled run must lose
    # margin, and shrinking below the measured worst lhs/rhs ratio must break
    # the bound; validates that the checker can fail on real data
    field, report = crit4_chain
    cfg = report.config
    orig = check_pointwise_lower_bound(field, cfg)
    assert orig.holds

    half = check_pointwise_lower_bound(
        RadialField(field.grid, 0.5 * field.samples, status=field.status,
                    t_b=field.t_b, p=field.p, A=field.A), cfg)
    assert half.min_residual < orig.min_residual

    ratio = np.min(orig.lhs / orig.rhs)
    assert ratio > 0
    s = 0.5 / ratio
    broken = check_pointwise_lower_bound(
        RadialField(field.grid, s * field.samples, status=field.status,
                    t_b=field.t_b, p=field.p, A=field.A), cfg)
    assert not broken.holds
    assert "violated" in broken.verdict()


# ---------------------------------------------------------------------------
# F/G/H and the chain
# ---------------------------------------------------------------------------

def test_fgh_identities(blowup_run_coarse):
    prob, fld = blowup_run_coarse
    cfg = ChainConfig(prob.p, prob.A, 0.0, RHO / 8.0)
    t_star = cfg.t_star
    alpha = t_star + 1.0
    # F on the diagonal is the centre value
    assert F_of(fld, cfg, alpha, alpha) == pytest.approx(fld.value_at(0.0, alpha), rel=1e-12)
    # the weight kills G on the diagonal, and H at the base point is empty
    assert G_of(fld, cfg, alpha, alpha) == 0.0
    assert H_of(fld, cfg, t_star) == 0.0
    with pytest.raises(ValueError, match="outside Sigma-prime"):
        F_of(fld, cfg, alpha, t_star - 0.1)
    with pytest.raises(ValueError, match="outside Sigma-prime"):
        F_of(fld, cfg, alpha, alpha + 0.1)


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


def test_holder_residual_invariant(crit4_chain):
    field, report = crit4_chain
    table = next(tb for tb in report.tables if tb.inequality_id == "holder_interpolation")
    assert np.all(table.residual >= -table.tol)


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
    prob = Problem(2.0, 3.0, zero_profile(RHO, gr), bump_profile(4.0, RHO, gr), RHO)
    scaled, c = normalize_coefficient(prob)
    f1 = solve_march(prob, grid, residual_nodes=0)
    f2 = solve_march(scaled, grid, residual_nodes=0)
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
