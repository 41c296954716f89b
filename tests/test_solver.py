import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wavelab import diagnostics, solver
from wavelab.config import parse_run_config
from wavelab.profiles import RadialProfile, bump_profile, zero_profile
from wavelab.diagnostics import select_t2_delta
from wavelab.regions import influence_quadrature
from wavelab.solver import (CharGrid, FieldFormatError, Problem, RadialField, _read_npz,
                            _write_npz, apply_P, detect_blowup_time, homogeneous_levels,
                            integral_residual, solve_forced, solve_march)
from wavelab.spherical import ScalarField3, build_sphere_quadrature, spherical_mean

import march_oracle
from conftest import RHO, blowup_problem
from text_export import field_to_csv
from field_oracle import interpolate


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

def test_chargrid_validation():
    with pytest.raises(ValueError):
        CharGrid(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CharGrid(0.124, 1.0, 1.0)      # extents off the lattice
    g = CharGrid(0.25, 2.0, 1.0)
    assert g.n_r == 8 and g.n_t == 4
    with pytest.raises(ValueError, match="out of grid"):
        g.index_of(3.0, 0.0)


def _parse_field_csv(path):
    """Test-local reader of the text export: header tokens and r,t,value rows."""
    with open(path) as fh:
        header = fh.readline().split()
        assert header[:2] == ["#", "wavelab-field"]
        assert fh.readline().strip() == "r,t,value"
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return dict(tok.split("=", 1) for tok in header[2:]), rows


def test_field_csv_roundtrip(tmp_path):
    g = CharGrid(0.25, 2.0, 1.0)
    vals = np.arange((g.n_t + 1) * (g.n_r + 1), dtype=float).reshape(g.n_t + 1, -1) / 7.0
    f = RadialField(g, vals, status="blown_up", t_b=1.25, p=2.0, A=1.0)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    meta, rows = _parse_field_csv(path)
    assert meta == {"h": "0.25", "r_max": "2", "t_max": "1", "p": "2", "A": "1",
                    "status": "blown_up", "t_b": "1.25"}
    assert rows.shape == (vals.size, 3)
    assert np.array_equal(rows[:, 0], np.tile(g.r_values(), g.n_t + 1))
    assert np.array_equal(rows[:, 1], np.repeat(g.t_values(), g.n_r + 1))
    assert np.array_equal(rows[:, 2].reshape(vals.shape), vals)   # 17 digits round-trip


def test_field_save_load_roundtrip_bitwise(tmp_path):
    g = CharGrid(0.1, 2.0, 1.0)
    vals = np.sin(np.arange((g.n_t + 1) * (g.n_r + 1), dtype=float)).reshape(g.n_t + 1, -1)
    vals[0, :3] = [-0.0, 5e-324, 1.0 / 3.0]
    f = RadialField(g, vals, status="blown_up", t_b=0.7000000000000001, p=1 + 2**0.5, A=0.1)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    f.save(a)
    f.save(b)
    assert a.read_bytes() == b.read_bytes()
    with np.load(a) as npz:
        assert sorted(npz.files) == ["meta", "samples"]
    back = RadialField.load(a)
    assert back.samples.dtype == np.float64
    assert back.samples.tobytes() == vals.tobytes()
    assert back.grid == g
    assert (back.status, back.t_b, back.p, back.A) == ("blown_up", 0.7000000000000001,
                                                         1 + 2**0.5, 0.1)
    plain = RadialField(g, vals)
    plain.save(a)
    back = RadialField.load(a)
    assert back.status == "complete" and back.t_b is None and back.p is None and back.A is None


def test_field_save_load_keeps_every_dataclass_field(tmp_path):
    # RadialField holds exactly what save writes: each of its fields comes back
    g = CharGrid(0.25, 2.0, 1.0)
    f = RadialField(g, np.arange(5 * 9, dtype=float).reshape(5, 9) / 3.0,
                    status="blown_up", t_b=1.25, p=2.5, A=0.5)
    f.save(tmp_path / "f.npz")
    back = RadialField.load(tmp_path / "f.npz")
    for fd in dataclasses.fields(RadialField):
        got, want = getattr(back, fd.name), getattr(f, fd.name)
        assert fd.default is dataclasses.MISSING or want != fd.default, fd.name
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, fd.name
        else:
            assert got == want, fd.name


def test_npz_reader_refuses_pickles_and_non_zip_files(tmp_path):
    # the one reader of field.npz and residuals.npz: a pickled member (an
    # object array, as np.savez writes it) and a file that is no zip at all
    g = CharGrid(0.25, 1.0, 0.5)
    RadialField(g, np.zeros((3, 5))).save(tmp_path / "f.npz")
    assert _read_npz(tmp_path / "f.npz", "field")[1]["status"] == "complete"
    np.savez(tmp_path / "pickled.npz", samples=np.zeros((3, 5)).astype(object),
             meta=np.array("{}"))
    (tmp_path / "text.npz").write_text("r,t,value\n0,0,0\n")
    for name, message in (("pickled.npz", "allow_pickle"), ("text.npz", "no zip signature")):
        with pytest.raises(FieldFormatError, match=message):
            _read_npz(tmp_path / name, "residuals")
        with pytest.raises(FieldFormatError, match=message):
            RadialField.load(tmp_path / name)
    with pytest.raises(ValueError, match="allow_pickle"):
        _write_npz(tmp_path / "w.npz", {"x": np.zeros(2, dtype=object)}, {})


def test_field_npz_truncated_rejected(tmp_path):
    g = CharGrid(0.25, 1.0, 0.5)
    f = RadialField(g, np.zeros((3, 5)))
    path = tmp_path / "f.npz"
    f.save(path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(FieldFormatError, match="npz"):
        RadialField.load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_rejects_non_finite_samples(bad):
    g = CharGrid(0.25, 1.0, 0.5)
    vals = np.zeros((3, 5))
    vals[1, 2] = bad
    with pytest.raises(ValueError, match="stored samples must be finite"):
        RadialField(g, vals)
    assert RadialField(g, np.zeros((0, 5))).n_levels == 0


def test_field_finiteness_check_allocates_no_mask():
    g = CharGrid(1 / 64, 8.0, 4.0)
    vals = np.ones((g.n_t + 1, g.n_r + 1))
    tracemalloc.start()
    try:
        RadialField(g, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.02 * vals.nbytes


def test_interpolate_returns_nodes_on_last_level_and_column(blowup_run_coarse):
    # the last level and column are read from the cell below them: a node query
    # there returns the node (a 1e-12 clamp once blended in the level below)
    _, fld = blowup_run_coarse
    h, top = fld.grid.h, fld.n_levels - 1
    r = fld.grid.r_values()
    assert np.array_equal(interpolate(fld, r, np.full(r.size, fld.defined_t_max)), fld.samples[top])
    assert interpolate(fld, 0.0, fld.defined_t_max) == fld.samples[top, 0] > 1e3
    mid = interpolate(fld, r[:-1] + 0.5 * h, np.full(r.size - 1, fld.defined_t_max))
    np.testing.assert_allclose(mid, 0.5 * (fld.samples[top, :-1] + fld.samples[top, 1:]),
                               rtol=1e-15, atol=1e-300)
    # the blown-up run is zero on its last column, so check it on random samples
    noisy = RadialField(fld.grid, np.random.default_rng(3).normal(size=fld.samples.shape),
                        status="blown_up", t_b=fld.t_b)
    t = fld.grid.t_values(fld.n_levels)
    assert np.array_equal(interpolate(noisy, np.full(t.size, fld.grid.r_max), t),
                          noisy.samples[:, -1])
    assert interpolate(noisy, fld.grid.r_max, fld.defined_t_max) == noisy.samples[top, -1]
    assert np.array_equal(interpolate(noisy, r, np.full(r.size, fld.defined_t_max)),
                          noisy.samples[top])


# ---------------------------------------------------------------------------
# the P operator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def p_grid():
    return CharGrid(1.0 / 64, 3.0, 1.5)


def test_apply_P_zero_source(p_grid):
    zero = RadialField(p_grid, np.zeros((p_grid.n_t + 1, p_grid.n_r + 1)))
    assert apply_P(zero, 0.5, 1.0) == 0.0
    assert apply_P(zero, 0.0, 1.0) == 0.0


def test_apply_P_constant_source_closed_form(p_grid):
    # P(1)(r, t) = t^2/2 for every r; exact for the lattice rule
    ones = RadialField(p_grid, np.ones((p_grid.n_t + 1, p_grid.n_r + 1)))
    for r, t in [(0.5, 1.0), (1.0, 1.5), (0.015625, 0.5), (0.0, 1.25), (2.0, 0.5)]:
        assert apply_P(ones, r, t) == pytest.approx(t * t / 2.0, rel=1e-12)


def test_apply_P_time_source_closed_form(p_grid):
    # P(s)(r, t) = t^3/6, matching u = t^3/6 solving box(u) = t with zero data
    tv = p_grid.t_values()
    svals = RadialField(p_grid, np.tile(tv[:, None], (1, p_grid.n_r + 1)))
    for r, t in [(0.5, 1.0), (1.0, 1.5), (0.0, 1.0), (1.5, 1.25)]:
        assert apply_P(svals, r, t) == pytest.approx(t**3 / 6.0, rel=5e-4)


def test_apply_P_positivity_and_linearity(p_grid):
    rng = np.random.default_rng(2)
    shape = (p_grid.n_t + 1, p_grid.n_r + 1)
    s1 = rng.random(shape)
    s2 = rng.random(shape)
    f1 = RadialField(p_grid, s1)
    f2 = RadialField(p_grid, s2)
    f12 = RadialField(p_grid, 2.0 * s1 - 3.0 * s2)
    for r, t in [(0.25, 0.75), (1.0, 1.0), (0.0, 1.5)]:
        a, b, c = apply_P(f1, r, t), apply_P(f2, r, t), apply_P(f12, r, t)
        assert a >= 0.0 and b >= 0.0
        assert c == pytest.approx(2.0 * a - 3.0 * b, rel=1e-11, abs=1e-13)


def test_apply_P_monotone_in_t_for_time_dependent_sources(p_grid):
    # for sources sigma(s) >= 0, P = integral (t-s) sigma(s) ds grows with t
    tv = p_grid.t_values()
    src = RadialField(p_grid, np.tile((0.3 + np.sin(3 * tv)**2)[:, None],
                                      (1, p_grid.n_r + 1)))
    for r in (0.0, 0.5, 1.0):
        vals = [apply_P(src, r, t) for t in (0.25, 0.5, 0.75, 1.0, 1.25)]
        assert np.all(np.diff(vals) > 0)


def test_apply_P_not_monotone_for_localised_source(p_grid):
    # a source concentrated near (r, 0) leaves R(r, t) once t > 2r; the
    # unrestricted monotonicity claim fails, by design of the region geometry
    shape = (p_grid.n_t + 1, p_grid.n_r + 1)
    src = np.zeros(shape)
    i0 = p_grid.index_of(0.25, 0.0)[0]
    src[0:3, i0 - 2 : i0 + 3] = 1.0
    f = RadialField(p_grid, src)
    early = apply_P(f, 0.25, 0.375)
    late = apply_P(f, 0.25, 1.25)
    assert early > 0 and late < early


def test_apply_P_out_of_grid(p_grid):
    ones = RadialField(p_grid, np.ones((p_grid.n_t + 1, p_grid.n_r + 1)))
    with pytest.raises(ValueError, match="out of grid"):
        apply_P(ones, 2.5, 1.0)       # r + t beyond r_max
    # at r = 0 the backward characteristic reaches r = t, past r_max once t > r_max
    tall = CharGrid(1 / 16, 1.0, 2.0)
    ones = RadialField(tall, np.ones((tall.n_t + 1, tall.n_r + 1)))
    assert apply_P(ones, 0.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="out of grid"):
        apply_P(ones, 0.0, 1.0 + 1 / 16)


# ---------------------------------------------------------------------------
# homogeneous part
# ---------------------------------------------------------------------------

def test_linear_radial_zero_data():
    grid = CharGrid(1 / 32, 2.0, 1.0)
    gr = grid.r_values()
    u0 = homogeneous_levels(zero_profile(1.0, gr), zero_profile(1.0, gr), grid)(0, grid.n_t + 1)
    assert np.all(u0 == 0.0)


def test_linear_radial_huygens_support_exact():
    grid = CharGrid(1 / 128, 3.0, 2.0)
    gr = grid.r_values()
    f = bump_profile(5.0, RHO, gr)
    g = bump_profile(-2.0, RHO, gr)
    u0 = homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
    RR, TT = np.meshgrid(grid.r_values(), grid.t_values())
    inside_cone = TT - RR > RHO + 1e-12
    beyond_front = RR - TT > RHO + 1e-12
    assert np.max(np.abs(u0[inside_cone])) <= 1e-12
    assert np.max(np.abs(u0[beyond_front])) <= 1e-12


def test_linear_radial_truncated_velocity_example():
    # g = 1 for r <= 1: centre value is t * g(t) = 0.5 at t = 0.5
    grid = CharGrid(1 / 64, 3.0, 2.0)
    gr = np.linspace(0.0, 3.0, 385)
    g = RadialProfile(gr, np.where(gr <= 1.0, 1.0, 0.0), 1.0)
    u0 = homogeneous_levels(zero_profile(1.0, gr), g, grid)(0, grid.n_t + 1)
    i, j = grid.index_of(0.0, 0.5)
    assert u0[j, i] == pytest.approx(0.5, rel=1e-12)


def test_linear_radial_against_kirchhoff_oracle():
    # independent oracle: iterated sphere quadrature of the retarded data
    grid = CharGrid(1 / 64, 3.0, 2.0)
    gr = grid.r_values()
    g = bump_profile(3.0, RHO, gr)
    u0 = homogeneous_levels(zero_profile(RHO, gr), g, grid)(0, grid.n_t + 1)
    quad = build_sphere_quadrature(47)

    def oracle(r, t):
        # u0(x, t) = t * mean over unit directions of g(x + t xi), then the
        # radial average over |x| = r
        def retarded(pts, _):
            vals = np.zeros(len(pts))
            for xi, w in zip(quad.nodes, quad.weights):
                vals += w * g(np.linalg.norm(pts + t * xi[None, :], axis=1))
            return t * vals

        return spherical_mean(ScalarField3(retarded, 10.0), r, 0.0, quad)

    for r, t in [(0.25, 0.25), (0.5, 0.75), (1.0, 0.5), (0.0, 0.625), (1.5, 1.0)]:
        want = oracle(r, t)
        i, j = grid.index_of(r, t)
        got = u0[j, i]
        assert got == pytest.approx(want, abs=3e-4)


def _pointwise_dalembert(fbar, gbar, grid):
    """d'Alembert evaluated at every node's own r + t and r - t (reference)."""
    rv = grid.r_values()
    tv = grid.t_values()
    rp = rv[None, :] + tv[:, None]
    rm = rv[None, :] - tv[:, None]
    v = 0.5 * (rp * fbar(np.abs(rp)) + rm * fbar(np.abs(rm))) \
        + 0.5 * (gbar.moment_integral(rp) - gbar.moment_integral(rm))
    u0 = np.empty_like(v)
    u0[:, 1:] = v[:, 1:] / rv[None, 1:]
    u0[:, 0] = fbar(tv) + tv * fbar.derivative(tv) + tv * gbar(tv)
    return u0


def _off_lattice_data():
    knots = np.linspace(0.0, RHO, 27)          # spacing 1/26: no knot on the lattice
    return bump_profile(5.0, RHO, knots), bump_profile(-3.0, RHO, knots)


@pytest.mark.parametrize("h", [1 / 8, 0.1, 1 / 96])
def test_linear_radial_matches_pointwise_dalembert(h):
    grid = CharGrid(h, 4.0, 3.0)
    f, g = _off_lattice_data()
    got = homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
    want = _pointwise_dalembert(f, g, grid)
    assert np.max(np.abs(want)) > 1.0
    if h == 1 / 8:                             # dyadic: r +- t exact, same bits
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_bump_profile_continuous_at_off_lattice_rho():
    # rho = 1 falls between the last two knots; it becomes a knot, so the
    # profile falls to zero there instead of jumping
    knots = np.arange(0.0, 1.037, 0.037)
    f, g = bump_profile(5.0, RHO, knots), bump_profile(-3.0, RHO, knots)
    assert RHO not in knots and RHO in g.r
    for prof in (f, g):
        assert prof(RHO) == 0.0
        assert abs(prof(np.nextafter(RHO, 0.0))) <= 1e-15
    # on |r - t| = rho the table (k*h) and the pointwise (h*i - h*j) d'Alembert
    # read the profile on either side of rho; they now agree to round-off
    grid = CharGrid(0.1, 4.0, 3.0)
    got = homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
    want = _pointwise_dalembert(f, g, grid)
    jj, ii = np.indices(want.shape)
    diag = np.abs(ii - jj) == 10
    assert np.max(np.abs(got[diag] - want[diag])) <= 1e-13 * np.max(np.abs(want))


def test_unforced_march_is_linear_radial():
    grid = CharGrid(1 / 16, 4.0, 3.0)
    f, g = _off_lattice_data()
    fld = solve_forced(f, g, lambda r, t: np.zeros_like(r), grid)
    assert fld.n_levels == grid.n_t + 1
    assert np.array_equal(fld.samples, homogeneous_levels(f, g, grid)(0, grid.n_t + 1))


def test_homogeneous_node_read_is_bitwise_linear_radial():
    grid = CharGrid(0.1, 4.0, 3.0)              # not dyadic: every rounding counts
    f, g = _off_lattice_data()
    whole = homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
    jj, ii = np.indices(whole.shape)
    jj, ii = jj[:, 1:].ravel(), ii[:, 1:].ravel()   # every node with i >= 1
    assert jj.max() == grid.n_t and ii.max() == grid.n_r
    assert np.array_equal(homogeneous_levels(f, g, grid).at(ii, jj), whole[jj, ii])


def _band_cases(tmp_path):
    """(fbar, gbar, grid) triples for the banded u0 against the full-width one."""
    knots, rho = np.linspace(0.0, 1.2, 9), 0.8          # rho between the knots 0.75 and 0.9
    for name, values in (("f", 0.5 * np.clip(1 - (knots / rho) ** 2, 0, None) ** 2),
                         ("g", 2.0 * np.clip(1 - (knots / rho) ** 2, 0, None))):
        (tmp_path / f"{name}.csv").write_text(
            "r,value\n" + "".join(f"{r:.17g},{v:.17g}\n" for r, v in zip(knots, values)))
    csv = (RadialProfile.from_csv(tmp_path / "f.csv", rho),
           RadialProfile.from_csv(tmp_path / "g.csv", rho))
    grid = CharGrid(0.1, 6.0, 4.0)                       # not dyadic: every rounding counts
    gr = grid.r_values()
    return {
        "bump": (bump_profile(5.0, RHO, gr), bump_profile(-3.0, RHO, gr), grid),
        "off-lattice-bump": (*_off_lattice_data(), CharGrid(1 / 32, RHO + 4.0, 4.0)),
        "custom-csv": (*csv, grid),
        "csv-more-levels-than-columns": (*csv, CharGrid(1 / 16, 1.5, 3.0)),
        "f-quarter-radius": (bump_profile(1.0, RHO / 4, gr), bump_profile(3.0, RHO, gr), grid),
        "zero": (zero_profile(RHO, gr), zero_profile(RHO, gr), grid),
    }


@pytest.mark.parametrize("rows", [1, 7, 32, 256, None])
def test_homogeneous_band_is_the_full_width_evaluator(tmp_path, rows):
    # every block of levels is bitwise the full-width block, and off the band
    # |i - j| <= ceil(rho/h) + 1 it is +0.0 with no signbit
    for name, (f, g, grid) in _band_cases(tmp_path).items():
        band = math.ceil(max(f.rho, g.rho) / grid.h) + 1
        assert band < grid.n_t, name
        got, want = homogeneous_levels(f, g, grid), march_oracle.homogeneous_levels(f, g, grid)
        step = rows or grid.n_t + 1
        for lo in range(0, grid.n_t + 1, step):
            hi = min(lo + step, grid.n_t + 1)
            block, full = got(lo, hi), want(lo, hi)
            assert block.shape == full.shape and block.tobytes() == full.tobytes(), (name, lo)
            jj, ii = np.indices(block.shape)
            off = block[np.abs(ii - (jj + lo)) > band]
            assert np.all(off == 0) and not np.any(np.signbit(off)), (name, lo)
        whole = want(0, grid.n_t + 1)
        assert (name == "zero") == (not np.any(whole)), name


def test_march_reads_the_banded_u0_bitwise(monkeypatch):
    # the march, in blocks of 7 levels, on the banded u0 and on the full-width one
    grid = CharGrid(RHO / 16, RHO + 8.0, 8.0)
    gr = grid.r_values()
    prob = Problem(2.41, 1.0, bump_profile(1.0, RHO / 4, gr), bump_profile(3.0, RHO, gr))
    monkeypatch.setattr(solver, "_U0_BLOCK", 7)
    banded = solve_march(prob, grid)
    monkeypatch.setattr(solver, "homogeneous_levels", march_oracle.homogeneous_levels)
    full = solve_march(prob, grid)
    assert (banded.status, banded.t_b) == (full.status, full.t_b)
    assert banded.samples.tobytes() == full.samples.tobytes()


def test_cone_selection_reads_the_banded_u0(monkeypatch, blowup_run_coarse):
    # the README run at rho/32: the same (t2, delta) from the full-width u0
    prob, fld = blowup_run_coarse
    got = select_t2_delta(fld, prob.f_profile, prob.g_profile)
    monkeypatch.setattr(diagnostics, "homogeneous_levels", march_oracle.homogeneous_levels)
    assert select_t2_delta(fld, prob.f_profile, prob.g_profile) == got


# ---------------------------------------------------------------------------
# marching solver
# ---------------------------------------------------------------------------

def test_solve_march_zero_data_stays_zero():
    grid = CharGrid(1 / 32, 2.0, 1.0)
    gr = grid.r_values()
    prob = Problem(2.0, 1.0, zero_profile(1.0, gr), zero_profile(1.0, gr))
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    assert np.all(fld.samples == 0.0)
    assert integral_residual(prob, fld)["residual_linf"] == 0.0


def test_solve_march_validates_grid_and_threshold():
    grid = CharGrid(1 / 32, 1.5, 1.0)     # r_max < rho + t_max
    gr = grid.r_values()
    prob = Problem(2.0, 1.0, zero_profile(1.0, gr), bump_profile(1.0, 1.0, gr))
    with pytest.raises(ValueError, match="domain of dependence"):
        solve_march(prob, grid)
    grid2 = CharGrid(1 / 32, 2.0, 1.0)
    gr2 = grid2.r_values()
    prob2 = Problem(2.0, 1.0, bump_profile(5.0, 1.0, gr2), zero_profile(1.0, gr2))
    with pytest.raises(ValueError, match="threshold"):
        solve_march(prob2, grid2, blowup_threshold=1.0)


def test_domain_of_dependence_reads_the_data_radius():
    # the check takes rho from the profiles: data of radius 1 need r_max >= 1 + t_max
    t_max = 1.0
    grid = CharGrid(1 / 32, 0.25 + t_max, t_max)
    gr = grid.r_values()
    prob = Problem(2.0, 1.0, bump_profile(1.0, 1.0, gr), bump_profile(1.0, 1.0, gr))
    assert prob.rho == 1.0
    with pytest.raises(ValueError, match="domain of dependence"):
        solve_march(prob, grid)


def _mms_exact(r, t):
    return np.clip(1.0 - r**2, 0.0, None)**3 * (1.0 + t)**-2


def _mms_forcing(r, t):
    # box(u) for u = (1-r^2)^3 (1+t)^-2 inside the unit ball, zero outside
    B = np.clip(1.0 - r**2, 0.0, None)
    w = 6.0 * B**3 * (1.0 + t)**-4 + (18.0 * B**2 - 24.0 * r**2 * B) * (1.0 + t)**-2
    return np.where(r < 1.0, w, 0.0)


def _mms_data(n):
    h = 1.0 / n
    gr = np.arange(0.0, 2.0 + h / 2, h)
    fb = RadialProfile(gr, _mms_exact(gr, 0.0), 1.0)
    gb = RadialProfile(gr, -2.0 * np.clip(1 - gr**2, 0, None)**3, 1.0)
    return fb, gb, CharGrid(h, 2.0, 1.0)


def _mms_error(n):
    fb, gb, grid = _mms_data(n)
    fld = solve_forced(fb, gb, _mms_forcing, grid)
    RR, TT = np.meshgrid(grid.r_values(), grid.t_values())
    return float(np.max(np.abs(fld.samples - _mms_exact(RR, TT))))


def test_manufactured_solution_second_order():
    e1, e2 = _mms_error(32), _mms_error(64)
    assert 3.5 <= e1 / e2 <= 4.5


def test_forced_march_reproduces_P_closed_form():
    # forcing 1 with zero data gives u = t^2/2, exact on the lattice wherever
    # the influence region stays inside the grid (r + t <= r_max)
    grid = CharGrid(1 / 32, 2.0, 1.0)
    gr = grid.r_values()
    zero = zero_profile(1.0, gr)
    fld = solve_forced(zero, zero, lambda r, t: np.ones_like(r), grid)
    RR, TT = np.meshgrid(grid.r_values(), grid.t_values())
    inside = RR + TT <= grid.r_max + 1e-12
    assert np.max(np.abs((fld.samples - TT**2 / 2.0)[inside])) <= 1e-12


def test_positivity_for_nonnegative_velocity_data():
    grid = CharGrid(1 / 32, 4.0, 3.0)
    prob = blowup_problem(grid, amplitude=2.0)
    u0 = homogeneous_levels(prob.f_profile, prob.g_profile, grid)(0, grid.n_t + 1)
    assert np.min(u0) >= -1e-13
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    assert np.min(fld.samples) >= -1e-13
    assert np.min(fld.samples - u0[: fld.n_levels]) >= -1e-12


def test_residual_contract_for_complete_fields():
    h = 1 / 64
    grid = CharGrid(h, 2.0, 1.0)
    gr = grid.r_values()
    prob = Problem(2.0, 1.0, bump_profile(0.5, 1.0, gr), bump_profile(0.5, 1.0, gr))
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    res = integral_residual(prob, fld, max_nodes=10**9)
    sigma_scale = float(np.max(np.abs(fld.samples))**prob.p)
    bound = 10.0 * h * h * prob.A * sigma_scale * grid.t_max**2 / 2.0
    assert res["residual_linf"] <= bound
    assert res["nodes"] >= 5000


def test_residual_peak_memory(crit4_run):
    # u0 is read at the nodes and dropped before the source is built, and the
    # sweep keeps only column sums: no prefix-sum copy of the lattice
    prob, field = crit4_run
    tracemalloc.start()
    try:
        res = integral_residual(prob, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["nodes"] > 0
    assert peak <= 1.25 * field.samples.nbytes


def test_march_peak_memory():
    # the state array is the field itself and u0 streams in blocks of levels
    grid = CharGrid(RHO / 64, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)
    tracemalloc.start()
    try:
        fld = solve_march(prob, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.status == "blown_up"
    assert peak <= 1.3 * fld.samples.nbytes


def test_march_is_independent_of_the_u0_block(monkeypatch, blowup_run_coarse):
    grid = CharGrid(1 / 32, 5.0, 4.0)           # 129 levels: 5 default blocks, 19 of 7
    f, g = _off_lattice_data()
    prob = Problem(2.0, 1.0, f, g)
    runs = (lambda: solve_march(prob, grid),
            lambda: solve_forced(f, g, _mms_forcing, grid))
    default = [run() for run in runs]
    monkeypatch.setattr(solver, "_U0_BLOCK", 7)
    for run, fld in zip(runs, default):
        assert fld.n_levels == grid.n_t + 1
        assert np.array_equal(run().samples, fld.samples)
    prob, fld = blowup_run_coarse                # computed with the default block
    small = solve_march(prob, fld.grid)
    assert small.status == "blown_up" and small.t_b == fld.t_b
    assert np.array_equal(small.samples, fld.samples)


def test_solve_reads_u0_one_block_at_a_time(monkeypatch):
    # solve never builds a whole-lattice u0: the march reads it by blocks and
    # only the residual reads it at nodes, once, at all of its nodes
    real, spans, node_reads = solver.homogeneous_levels, [], []

    def guarded(fbar, gbar, grid):
        levels = real(fbar, gbar, grid)

        def block(lo, hi):
            spans.append(hi - lo)
            return levels(lo, hi)

        def at(ii, jj):
            node_reads.append(ii.size)
            return levels.at(ii, jj)

        block.at = at
        return block

    monkeypatch.setattr(solver, "homogeneous_levels", guarded)
    grid = CharGrid(RHO / 32, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)
    fld = solve_march(prob, grid)
    assert fld.status == "blown_up"
    assert len(spans) > 1 and max(spans) <= solver._U0_BLOCK
    assert node_reads == []
    res = integral_residual(prob, fld)
    assert res["nodes"] > 0 and node_reads == [res["nodes"]]


def test_quadrature_peak_memory(monkeypatch):
    # the sweep finds the support of the residual's source by blocks of rows
    # and keeps only column sums: no temporary the size of the lattice
    grid = CharGrid(RHO / 64, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)
    fld = solve_march(prob, grid)
    seen = []

    def traced(g, i, j, **floors):
        tracemalloc.start()
        try:
            out = influence_quadrature(g, i, j, **floors)
            seen.append((tracemalloc.get_traced_memory()[1], g.nbytes))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(solver, "influence_quadrature", traced)
    assert integral_residual(prob, fld)["nodes"] > 0
    (peak, nbytes), = seen
    assert nbytes == fld.samples.nbytes
    assert peak <= 0.1 * nbytes


def _assert_plus_zero_past_the_cone(fld, rho):
    h = fld.grid.h
    jj, ii = np.indices(fld.samples.shape)
    past = (ii - jj) * h >= rho
    outside, edge = fld.samples[past], fld.samples[ii - jj == int(np.ceil(rho / h)) - 1]
    assert outside.size > fld.samples.size // 3 and np.all(edge[1:] != 0)
    assert np.all(outside == 0) and not np.any(np.signbit(outside))


def test_solution_is_plus_zero_past_the_light_cone(blowup_run_coarse, tmp_path):
    # finite speed of propagation, kept exactly by the lattice: u = +0.0 at
    # every node with r - t >= rho, which the march's source window rests on
    prob, fld = blowup_run_coarse
    _assert_plus_zero_past_the_cone(fld, prob.rho)
    # custom-csv data, f and g both nonzero, rho off the lattice and the knots
    knots, rho = np.linspace(0.0, 1.2, 9), 0.8
    for name, values in (("f", 0.5 * np.clip(1 - (knots / rho) ** 2, 0, None) ** 2),
                         ("g", 2.0 * np.clip(1 - (knots / rho) ** 2, 0, None))):
        (tmp_path / f"{name}.csv").write_text(
            "r,value\n" + "".join(f"{r:.17g},{v:.17g}\n" for r, v in zip(knots, values)))
    cfg = parse_run_config({"problem": {"p": 2.41, "data": {
        "profile": "custom-csv", "rho": rho, "f_csv": str(tmp_path / "f.csv"),
        "g_csv": str(tmp_path / "g.csv")}}, "grid": {"h": 1 / 32, "t_max": 8.0}})
    grid = cfg.build_grid()
    prob = cfg.build_problem(grid)
    assert prob.f_profile(0.5) > 0 and prob.g_profile(0.5) > 0
    samples, _ = _assert_solve_is_oracle(prob, grid)
    _assert_plus_zero_past_the_cone(RadialField(grid, samples), rho)


def test_march_runs_a_lattice_longer_than_it_is_wide():
    # the axis sums read no history, so n_t may exceed n_r: on its first n_r + 1
    # levels an n_t = 2 n_r lattice is bitwise the n_t = n_r one
    fb, gb, grid = _mms_data(16)
    square, tall = CharGrid(grid.h, 2.0, 2.0), CharGrid(grid.h, 2.0, 4.0)
    assert tall.n_t == 2 * tall.n_r == 2 * square.n_t
    short, long = (solve_forced(fb, gb, _mms_forcing, g) for g in (square, tall))
    assert (short.status, long.status, long.n_levels) == ("complete", "complete", tall.n_t + 1)
    assert long.samples[: square.n_t + 1].tobytes() == short.samples.tobytes()
    with pytest.raises(ValueError, match="domain of dependence"):
        solve_march(Problem(2.0, 1.0, fb, gb), tall)


# the march against its reference (march_oracle): bit for bit on every column
# i >= 1, and on column 0, which feeds no other column and whose axis sums the
# solver adds in another order, within COLUMN0_RTOL of the level's max|u|
# (the worst case measured on the README run at rho/32 to rho/256 is 3.7e-15)

COLUMN0_RTOL = 1e-13


def _into(source):
    # a source sigma(r, t, u) that returns its values, as the march's sigma(r, t, u, out)
    def sigma(r, t, u, out):
        out[...] = source(r, t, u)
    return sigma


def _assert_is_oracle(got, ref):
    (samples, status, t_b), (ref_samples, ref_status, ref_t_b) = got, ref
    assert (status, t_b, samples.shape) == (ref_status, ref_t_b, ref_samples.shape)
    assert samples[:, 1:].tobytes() == ref_samples[:, 1:].tobytes()
    scale = np.max(np.abs(ref_samples), axis=1)
    assert np.all(np.abs(samples[:, 0] - ref_samples[:, 0]) <= COLUMN0_RTOL * scale)


def _assert_march_is_oracle(fbar, gbar, grid, A, source, limits, cone):
    got = solver._march(fbar, gbar, grid, A, _into(source), *limits, cone=cone)
    _assert_is_oracle(got, march_oracle._march(fbar, gbar, grid, A, source, *limits))
    return got[:2]


def _assert_solve_is_oracle(prob, grid):
    # solve_march, whose source takes |u|^p only inside the light cone, against
    # the reference march with |u|^p on every node
    fld = solve_march(prob, grid)
    limits = (solver.DEFAULT_BLOWUP_THRESHOLD, solver.DEFAULT_DIVERGENCE_FACTOR,
              max(1.0, 10.0 * prob.data_scale))
    _assert_is_oracle((fld.samples, fld.status, fld.t_b),
                      march_oracle._march(prob.f_profile, prob.g_profile, grid, prob.A,
                                          lambda r, t, u: np.abs(u) ** prob.p, *limits))
    return fld.samples, fld.status


def _assert_nonlinear_march_is_oracle(p, amplitude):
    grid = CharGrid(RHO / 16, RHO + 20.0, 20.0)
    return _assert_solve_is_oracle(blowup_problem(grid, amplitude=amplitude, p=p), grid)


def _forced(forcing):
    return lambda r, t, u: forcing(r, np.full_like(r, t))


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.41, 2.5, 3.0])
def test_march_is_bitwise_the_oracle(p, amplitude):
    _assert_nonlinear_march_is_oracle(p, amplitude)


def test_march_window_follows_the_data_support():
    # the window reaches as far as the wider of the two profiles, so f of
    # radius RHO/4 and g of radius RHO march as |u|^p on every node does
    grid = CharGrid(RHO / 16, RHO + 8.0, 8.0)
    gr = grid.r_values()
    prob = Problem(2.41, 1.0, bump_profile(1.0, RHO / 4, gr), bump_profile(3.0, RHO, gr))
    assert prob.rho == RHO
    _assert_solve_is_oracle(prob, grid)


def test_march_rows_stop_at_the_light_cone_window(monkeypatch):
    # the march hands its source level rows only, three a level and one for
    # level 0: solve_march cut at i <= j + floor(rho/h) + 1, solve_forced,
    # whose forcing may reach any column, whole
    grid = CharGrid(RHO / 16, RHO + 8.0, 8.0)
    prob = blowup_problem(grid, amplitude=1.0)
    real, rows = solver._power_source, []

    def recording(p):
        sigma = real(p)

        def record(r, t, u, out):
            rows.append((round(t / grid.h), r.size))
            sigma(r, t, u, out)
        return record

    monkeypatch.setattr(solver, "_power_source", recording)
    assert solve_march(prob, grid).status == "complete"
    reach = int(prob.rho / grid.h) + 1
    assert len(rows) == 3 * grid.n_t + 1 and rows[0] == (0, reach + 1)
    assert all(size == min(grid.n_r, j + reach) + 1 for j, size in rows)
    sizes = []

    def forcing(r, t):
        sizes.append(r.size)
        return _mms_forcing(r, t)

    fb, gb, grid = _mms_data(16)
    solve_forced(fb, gb, forcing, grid)
    assert sizes == [grid.n_r + 1] * (3 * grid.n_t + 1)


def test_forced_and_blocked_march_is_bitwise_the_oracle(monkeypatch):
    fb, gb, grid = _mms_data(32)
    _assert_march_is_oracle(fb, gb, grid, 1.0, _forced(_mms_forcing), (np.inf,) * 3, False)
    monkeypatch.setattr(solver, "_U0_BLOCK", 7)   # the oracle reads 32 levels at a time
    _assert_march_is_oracle(fb, gb, grid, 1.0, _forced(_mms_forcing), (np.inf,) * 3, False)
    assert _assert_nonlinear_march_is_oracle(2.0, 10.0)[1] == "blown_up"


def test_march_error_exits_are_the_oracle():
    # a source that turns NaN at t = 1/2 makes u non-finite at level 16
    fb, gb, grid = _mms_data(32)
    nan_late = _forced(lambda r, t: np.where(t >= 0.5, np.nan, _mms_forcing(r, t)))
    samples, status = _assert_march_is_oracle(fb, gb, grid, 1.0, nan_late, (np.inf,) * 3, False)
    assert status == "error" and samples.shape[0] == 16
    # |u|^3 overflows while u is still finite: the check on the source row stops
    # it, whether that row holds +inf, -inf (the mirrored problem) or NaN
    grid = CharGrid(RHO / 16, RHO + 20.0, 20.0)
    window = 11 + int(RHO / grid.h) + 2            # level 11's light-cone window
    for sign, bad in ((1.0, np.inf), (-1.0, -np.inf), (1.0, np.nan)):
        prob = blowup_problem(grid, amplitude=24.0 * sign, p=3.0)
        calls = []

        def sigma(r, t, u):
            out = sign * np.abs(u) ** 3.0
            out[np.isinf(out)] = bad
            calls.append((r.size, bool(np.all(np.isfinite(u))), bool(np.all(np.isfinite(out)))))
            return out

        samples, status = _assert_march_is_oracle(prob.f_profile, prob.g_profile, grid, 1.0,
                                                  sigma, (1e300, np.inf, np.inf), True)
        assert status == "error" and samples.shape[0] == 11
        # one overflowing call from each march, the source row of level 11: the
        # solver's on its light-cone window, then the oracle's on the full row
        assert [c[0] for c in calls if c[1:] == (True, False)] == [window, grid.n_r + 1]
        assert calls[-1][1:] == (True, False)


def test_blowup_run_and_refinement_stability(blowup_run_coarse):
    prob, f32 = blowup_run_coarse
    assert f32.status == "blown_up"
    grid64 = CharGrid(RHO / 64, RHO + 16.0, 16.0)
    f64 = solve_march(blowup_problem(grid64), grid64)
    assert f64.status == "blown_up"
    assert abs(f32.t_b - f64.t_b) <= 0.1 * f64.t_b
    # samples stop strictly before the blow-up time and stay finite
    assert f32.defined_t_max < f32.t_b
    assert np.all(np.isfinite(f32.samples))


def test_detect_blowup_time(blowup_run_coarse):
    _, fld = blowup_run_coarse
    fit = detect_blowup_time(fld)
    assert fit is not None
    assert fit.t_b == fld.t_b
    assert fld.t_b <= fit.fitted_t_b <= fld.t_b + 0.3
    # p = 2 power nonlinearity: expected rate -2/(p-1) = -2
    assert fit.fitted_exponent == pytest.approx(-2.0, rel=0.2)


def test_detect_blowup_time_none_for_complete():
    grid = CharGrid(1 / 32, 2.0, 1.0)
    prob = blowup_problem(grid, amplitude=0.5)
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    assert detect_blowup_time(fld) is None


def test_blowup_rate_against_ode_oracle():
    # wide flat displacement data mimics u'' = u^2 at the centre; the fitted
    # exponent must match the ODE rate -2 within 20 percent
    a0 = 6.0
    rho = 8.0
    h = rho / 256
    grid = CharGrid(h, rho + 2.5, 2.5)
    gr = grid.r_values()
    prob = Problem(2.0, 1.0, bump_profile(a0, rho, gr), zero_profile(rho, gr))
    fld = solve_march(prob, grid)
    assert fld.status == "blown_up"
    fit = detect_blowup_time(fld)
    assert abs(fit.fitted_exponent - (-2.0)) <= 0.2 * 2.0

    sol = solve_ivp(lambda t, y: [y[1], y[0]**2], (0.0, 5.0), [a0, 0.0],
                    rtol=1e-10, atol=1e-12, dense_output=True,
                    events=lambda t, y: y[0] - 1e9)
    t_ode = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    assert t_ode is not None
    assert abs(fld.t_b - t_ode) <= 0.25 * t_ode


def test_supercritical_small_data_stays_small():
    # above the critical exponent, tiny data should not grow appreciably over
    # long horizons (companion sanity, not an assertion about sharpness)
    h = 1 / 8
    grid = CharGrid(h, 51.0, 50.0)
    gr = grid.r_values()
    prob = Problem(3.0, 1.0, zero_profile(1.0, gr), bump_profile(0.01, 1.0, gr))
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    u0 = homogeneous_levels(prob.f_profile, prob.g_profile, grid)(0, grid.n_t + 1)
    initial = float(np.max(np.abs(u0)))
    assert float(np.max(np.abs(fld.samples))) < 2.0 * initial


def test_dilation_normalisation_scales_solution():
    grid = CharGrid(1 / 32, 3.0, 2.0)
    gr = grid.r_values()
    prob = Problem(2.0, 4.0, zero_profile(1.0, gr), bump_profile(1.0, 1.0, gr))
    # u -> c u with c = A^(1/(p-1)) turns box(u) = A|u|^p into box(u) = |u|^p
    c = prob.A ** (1.0 / (prob.p - 1.0))
    scaled = Problem(prob.p, 1.0, zero_profile(1.0, gr), bump_profile(c, 1.0, gr))
    assert c == pytest.approx(4.0)
    f1 = solve_march(prob, grid)
    f2 = solve_march(scaled, grid)
    assert f1.status == f2.status == "complete"
    assert np.allclose(c * f1.samples, f2.samples, rtol=1e-10, atol=1e-12)
