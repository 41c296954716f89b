import numpy as np
import pytest

from wavelab.profiles import RadialProfile, bump_profile
from wavelab.spherical import ScalarField3, build_sphere_quadrature, spherical_mean

from text_export import profile_to_csv


@pytest.fixture(scope="module")
def quad():
    return build_sphere_quadrature(23)


def monomial_sphere_mean(a, b, c):
    """Closed-form mean of x^a y^b z^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    def dfact(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out
    n = (a + b + c) // 2
    return dfact(a - 1) * dfact(b - 1) * dfact(c - 1) / dfact(a + b + c + 1)


def test_quadrature_invariants(quad):
    assert abs(quad.weights.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(quad.nodes, axis=1) - 1.0)) <= 1e-12
    assert np.all(quad.weights > 0)


def test_quadrature_exactness_up_to_declared_degree(quad):
    rng = np.random.default_rng(0)
    for _ in range(60):
        while True:
            a, b, c = rng.integers(0, quad.degree + 1, 3)
            if a + b + c <= quad.degree:
                break
        vals = quad.nodes[:, 0]**a * quad.nodes[:, 1]**b * quad.nodes[:, 2]**c
        got = float(np.dot(quad.weights, vals))
        want = monomial_sphere_mean(int(a), int(b), int(c))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_mean_constant_field(quad):
    f = ScalarField3(lambda pts, t: np.full(len(pts), 2.5), 10.0)
    for r in (0.0, 0.5, 3.0):
        assert spherical_mean(f, r, 0.0, quad) == pytest.approx(2.5, rel=1e-14)


def test_mean_odd_component_vanishes(quad):
    f = ScalarField3(lambda pts, t: pts[:, 0], 10.0)
    assert spherical_mean(f, 2.0, 0.0, quad) == pytest.approx(0.0, abs=1e-13)


def test_mean_x1_squared(quad):
    # mean of x1^2 on the sphere of radius 2 is 4/3 (mean of xi^2 is 1/3)
    f = ScalarField3(lambda pts, t: pts[:, 0]**2, 10.0)
    got = spherical_mean(f, 2.0, 0.0, quad)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-12)
    # brute-force product-grid oracle
    th = np.linspace(0, np.pi, 801)
    ph = np.linspace(0, 2*np.pi, 1601)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    integ = (2.0*np.sin(TH)*np.cos(PH))**2 * np.sin(TH)
    brute = np.trapezoid(np.trapezoid(integ, ph, axis=1), th) / (4*np.pi)
    assert got == pytest.approx(brute, rel=1e-6)


def test_mean_centre_and_support_shortcuts(quad):
    calls = []

    def ev(pts, t):
        calls.append(len(pts))
        return np.ones(len(pts))

    f = ScalarField3(ev, 1.0)
    assert spherical_mean(f, 0.0, 0.0, quad) == 1.0
    assert calls == [1]                       # centre value only
    assert spherical_mean(f, 1.5, 0.0, quad) == 0.0
    assert calls == [1]                       # beyond support: no sampling


def test_radial_fixed_point(quad):
    prof = bump_profile(3.0, 1.0, np.linspace(0, 2, 257))
    f = ScalarField3(lambda pts, t: prof(np.linalg.norm(pts, axis=1)), 1.0)
    for r in (0.0, 0.3, 0.77, 0.99):
        assert spherical_mean(f, r, 0.0, quad) == pytest.approx(float(prof(r)), abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_jensen_inequality_on_samples(quad, p):
    rng = np.random.default_rng(int(10 * p))
    for _ in range(5):
        ks = rng.normal(size=(3, 3))
        cs = rng.normal(size=3)

        def ev(pts, t, ks=ks, cs=cs):
            out = np.zeros(len(pts))
            for k, c in zip(ks, cs):
                out += c * np.sin(pts @ k + 0.3)
            return out

        f = ScalarField3(ev, 50.0)
        fp = ScalarField3(lambda pts, t: np.abs(ev(pts, t))**p, 50.0)
        for r in (0.4, 1.7):
            lhs = spherical_mean(fp, r, 0.0, quad)
            rhs = abs(spherical_mean(f, r, 0.0, quad))**p
            assert lhs >= rhs - 1e-12 * max(1.0, lhs)


def test_profile_csv_roundtrip(tmp_path):
    prof = bump_profile(2.0, 1.0, np.linspace(0, 1.5, 97))
    path = tmp_path / "prof.csv"
    profile_to_csv(prof, path)
    back = RadialProfile.from_csv(path, rho=1.0)
    assert np.array_equal(back.r, prof.r)
    assert np.array_equal(back.values, prof.values)
    # the profile is the one holder of the support radius, so it checks it
    for rho in (0.0, -1.0):
        with pytest.raises(ValueError, match="support radius must be positive"):
            RadialProfile.from_csv(path, rho=rho)


@pytest.mark.parametrize("r", [[0.0, np.nan, 0.5], [0.0, 0.5, np.inf]], ids=["nan", "inf"])
def test_profile_refuses_non_finite_radii(r):
    # np.diff(r) <= 0 is False next to a NaN, so the ascending check alone lets one in
    with pytest.raises(ValueError, match="radii and values must be finite"):
        RadialProfile(r, [1.0, 2.0, 0.0], 1.0)


def test_profile_moment_integral_matches_quadrature():
    grid = np.linspace(0.0, 2.0, 513)
    prof = bump_profile(1.7, 1.0, grid)
    xs = np.linspace(0, 2, 2001)
    dense = np.concatenate([[0.0], np.cumsum(0.5*(xs[1:] - xs[:-1])
                            * (xs[1:]*prof(xs[1:]) + xs[:-1]*prof(xs[:-1])))])
    for x, want in ((0.5, None), (1.0, None), (1.7, None)):
        got = prof.moment_integral(x)
        ref = float(np.interp(x, xs, dense))
        assert got == pytest.approx(ref, abs=3e-6)
    # even in x and saturates beyond the support
    assert prof.moment_integral(-0.8) == prof.moment_integral(0.8)
    assert prof.moment_integral(5.0) == prof.moment_integral(1.0)


def test_profile_moment_integral_constant_past_rho():
    # the knot past rho carries a value that the profile itself reports as zero
    prof = RadialProfile([0.0, 0.5, 1.5], [1.0, 1.0, 1.0], rho=1.0)
    assert prof(1.2) == 0.0
    at_rho = prof.moment_integral(1.0)
    assert at_rho == pytest.approx(7.0 / 24.0, rel=1e-15)
    assert np.all(prof.moment_integral(np.array([1.2, 1.5, 3.0, -2.0])) == at_rho)


def _derivative_by_knot_table(prof, x):
    """derivative as it was written with an (x, knot) np.isclose table: the oracle."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r, v = prof.r, prof.values
    slopes = np.diff(v) / np.diff(r)
    out = slopes[np.clip(np.searchsorted(r, x, side="right") - 1, 0, len(slopes) - 1)]
    on_knot = np.isclose(x[:, None], r[None, 1:-1], rtol=0.0,
                         atol=1e-12 * max(1.0, r[-1])).any(axis=1)
    if on_knot.any():
        knot = np.clip(np.searchsorted(r, x[on_knot]), 1, len(r) - 2)
        out[on_knot] = (v[knot + 1] - v[knot - 1]) / (r[knot + 1] - r[knot - 1])
    return np.where(x >= min(prof.rho, r[-1]), 0.0, out)


@pytest.mark.parametrize("seed", range(6))
def test_profile_derivative_matches_knot_table(seed):
    # the centred slope applies within 1e-12 of an interior knot; only the two
    # knots that bracket x are tested now, with the same result
    rng = np.random.default_rng(seed)
    r = np.unique(np.concatenate([[0.0], rng.random(int(rng.integers(1, 30))) * 3.0]))
    prof = RadialProfile(r, rng.normal(size=r.size), rho=float(rng.uniform(0.5, 4.0)))
    x = np.concatenate([rng.uniform(-1.0, 5.0, 300), prof.r, prof.r + 1e-13,
                        prof.r - 1e-13, prof.r + 1e-11])
    assert np.array_equal(np.atleast_1d(prof.derivative(x)), _derivative_by_knot_table(prof, x))
    line = RadialProfile([0.0, 2.0], [1.0, 0.0], rho=2.0)      # no interior knot
    assert np.array_equal(line.derivative(x), _derivative_by_knot_table(line, x))
