import json
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from wavelab.gronwall import (GronwallCertificate, GronwallParams, _cumulative_trapezoid,
                              _scan, WindowTooShortError, certify, failure_radius,
                              log10_failure_radius)


def test_params_enforce_lemma_hypotheses():
    GronwallParams(1.0, 2.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="b >= -1"):
        GronwallParams(1.0, 2.0, -1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        GronwallParams(0.0, 2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GronwallParams(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GronwallParams(1.0, 2.0, 0.0, 1.0, 0.0)


def test_cumulative_trapezoid_is_scipy_bitwise():
    rng = np.random.default_rng(7)
    # 1-D on non-uniform abscissae, as the Gronwall scan integrates
    r = np.cumsum(rng.uniform(0.01, 0.3, 257))
    y = rng.uniform(0.0, 5.0, r.size) ** 2.5
    assert np.array_equal(_cumulative_trapezoid(y, r), cumulative_trapezoid(y, r, initial=0.0))
    # 2-D rows along axis 1 at uniform h, as in the chain's characteristic pass:
    # (alpha - beta)_+ weights vanish past the diagonal, F_+^p with p = 1.5
    h, p = 1 / 64, 1.5
    q = p / (p - 1.0)
    alphas = 0.5 + h * np.arange(300)
    db = alphas[40:97, None] - alphas[None, :97]
    db_pos = np.where(db > 0, db, 0.0)
    F = np.tril(rng.uniform(-0.1, 1.0, db.shape), 40)
    Fp = np.clip(F, 0.0, None) ** p
    for g in (db_pos**q * F, db_pos ** (1.0 + q) * Fp, db_pos * Fp):
        assert np.array_equal(_cumulative_trapezoid(g, dx=h),
                              cumulative_trapezoid(g, dx=h, axis=1, initial=0.0))
        col = g[:, 13]
        assert np.array_equal(_cumulative_trapezoid(col, dx=h),
                              cumulative_trapezoid(col, dx=h, initial=0.0))
    # the shortest inputs: the leading zero alone, then one cell
    for y, x in (([2.5], [0.3]), ([2.5, -1.0], [0.3, 0.7])):
        y, x = np.array(y), np.array(x)
        assert np.array_equal(_cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0))
        assert np.array_equal(_cumulative_trapezoid(y, dx=h),
                              cumulative_trapezoid(y, dx=h, initial=0.0))


def test_failure_radius_closed_forms():
    assert failure_radius(GronwallParams(1, 2, 0, 0, 0), 1.0) == pytest.approx(2.0, rel=1e-12)
    assert failure_radius(GronwallParams(1, 2, -1, 0, 0), 1.0) == pytest.approx(math.e, rel=1e-12)
    # J1 = int_0^1 a^4 da = 1/5 for H = r^2 gives r* = 1 + 5 = 6
    assert failure_radius(GronwallParams(1, 2, 0, 0, 0), 0.2) == pytest.approx(6.0, rel=1e-12)


def test_failure_radius_limits():
    p = GronwallParams(1, 2, 0, 0, 0)
    # large J1 pushes r* down to t1 + 1 from above
    assert failure_radius(p, 1e9) == pytest.approx(1.0, rel=1e-6)
    assert failure_radius(p, 1e9) > 1.0
    with pytest.raises(ValueError):
        failure_radius(p, 0.0)
    # far out of double range: tiny C with b near -1 overflows to +inf
    assert failure_radius(GronwallParams(1e-8, 1.5, -0.99, 0.0, 0.0), 1.0) == math.inf


def test_failure_radius_log_space_extremes():
    # the overflow case above keeps a finite size: (r*)^0.01 = 1 + 0.01 * 2e12
    far = log10_failure_radius(GronwallParams(1e-8, 1.5, -0.99, 0.0, 0.0), 1.0)
    assert math.isfinite(far)
    assert far == pytest.approx(100.0 * math.log10(1.0 + 2e10), rel=1e-12)
    assert far == pytest.approx(1030.1, abs=0.01)
    # C^a underflows to 0 in double precision; in log space r* = 1 + 1e400
    tiny_C = GronwallParams(1e-200, 2, 0, 0, 0)
    assert failure_radius(tiny_C, 1.0) == math.inf
    assert log10_failure_radius(tiny_C, 1.0) == pytest.approx(400.0, rel=1e-12)
    # inside the double range both agree with the closed form r* = 6
    assert log10_failure_radius(GronwallParams(1, 2, 0, 0, 0), 0.2) == pytest.approx(
        math.log10(6.0), rel=1e-12)


def test_failure_radius_b_limit_continuity():
    pm = GronwallParams(0.7, 1.8, -1.0, 0.3, 1.1)
    pe = GronwallParams(0.7, 1.8, -1.0 + 1e-8, 0.3, 1.1)
    a, b = failure_radius(pm, 0.4), failure_radius(pe, 0.4)
    assert abs(a - b) / a <= 1e-6


def test_failure_radius_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        C = float(10 ** rng.uniform(-1, 1))
        a = float(1.0 + rng.uniform(0.1, 2.0))
        b = float(rng.uniform(-1.0, 2.0))
        t0 = float(rng.uniform(0, 1))
        t1 = t0 + float(rng.uniform(0, 1))
        J1 = float(10 ** rng.uniform(-1, 1))
        base = failure_radius(GronwallParams(C, a, b, t0, t1), J1)
        assert failure_radius(GronwallParams(2 * C, a, b, t0, t1), J1) <= base + 1e-12
        assert failure_radius(GronwallParams(C, a, b, t0, t1), 2 * J1) <= base + 1e-12
        if b + 0.3 <= 2.0:
            assert failure_radius(GronwallParams(C, a, b + 0.3, t0, t1), J1) <= base + 1e-9


def test_check_inequality_constant_H():
    # H = 1, C = 1, a = 2, b = 0, t0 = t1 = 0: the integral is r, so the
    # first violation is at r = 1
    r = np.linspace(0.0, 2.0, 8001)
    v = _scan(r, np.ones_like(r), GronwallParams(1, 2, 0, 0, 0))[2]
    assert v == pytest.approx(1.0, abs=2e-3)


def test_check_inequality_tiny_C_window_limited():
    r = np.linspace(0.0, 0.5, 501)
    assert _scan(r, np.ones_like(r), GronwallParams(1e-9, 2, 0, 0, 0))[2] is None


def test_check_inequality_exponential_oracle():
    # H = e^r, C = 1, a = 1.5: violated where e^r = (2/3)(e^{1.5 r} - 1);
    # scalar root-find oracle gives r = 1.18272
    root = brentq(lambda x: np.exp(x) - (2.0 / 3.0) * (np.exp(1.5 * x) - 1.0), 0.5, 2.0)
    assert root == pytest.approx(1.18272, abs=1e-4)
    r = np.linspace(0.0, 2.0, 40001)
    v = _scan(r, np.exp(r), GronwallParams(1.0, 1.5, 0.0, 0.0, 0.0))[2]
    assert v == pytest.approx(root, abs=1e-3)


def test_check_inequality_hypothesis_checks():
    r = np.linspace(0.0, 1.0, 101)
    with pytest.raises(ValueError, match="hypothesis violated"):
        _scan(r, -np.ones_like(r), GronwallParams(1, 2, 0, 0, 0))
    with pytest.raises(ValueError, match="hypothesis violated"):
        _scan(r, np.zeros_like(r), GronwallParams(1, 2, 0, 0, 0))
    with pytest.raises(ValueError, match="start at t1"):
        _scan(r + 0.5, np.ones_like(r), GronwallParams(1, 2, 0, 0, 0))


def test_certify_quadratic_example():
    r = np.linspace(0.0, 7.0, 14001)
    cert = certify(r, r**2, GronwallParams(1, 2, 0, 0, 0))
    assert cert.J1 == pytest.approx(0.2, rel=1e-6)
    assert cert.r_star == pytest.approx(6.0, rel=1e-6)
    assert cert.violation_found_at is not None
    assert cert.violation_found_at <= cert.r_star + (r[1] - r[0])


def test_certify_degenerate_H_rejected():
    r = np.linspace(0.0, 3.0, 301)
    with pytest.raises(ValueError, match="hypothesis violated"):
        certify(r, np.zeros_like(r), GronwallParams(1, 2, 0, 0, 0))


def test_certify_window_errors():
    r = np.linspace(0.0, 0.5, 51)
    with pytest.raises(WindowTooShortError, match="t1 \\+ 1"):
        certify(r, np.ones_like(r), GronwallParams(1, 2, 0, 0, 0))
    r2 = np.linspace(0.0, 1.5, 151)
    cert = certify(r2, 5.0 + 0 * r2, GronwallParams(1e-4, 2, 0, 0, 0))
    assert cert.window_short
    assert cert.to_json_dict()["skipped"].startswith("extend window to r_star")


def test_window_too_short_carries_the_bound():
    r = np.linspace(0.0, 1.5, 151)
    params = GronwallParams(1e-4, 2, 0, 0, 0)
    cert = certify(r, 5.0 + 0 * r, params)
    assert cert.violation_found_at is None and cert.window_short
    assert cert.window_end == 1.5
    assert cert.J1 == pytest.approx(25.0, rel=1e-12)
    assert cert.r_star == pytest.approx(failure_radius(params, cert.J1), rel=1e-12)
    assert cert.log10_r_star == pytest.approx(math.log10(cert.r_star), rel=1e-12)
    assert cert.r_star > cert.window_end


_PARAM_KEYS = {"C", "a", "b", "t0", "t1", "J1", "r_star", "log10_r_star"}


def test_certificate_json_roundtrip():
    r = np.linspace(0.0, 7.0, 7001)
    cert = certify(r, r**2, GronwallParams(1, 2, 0, 0, 0))
    assert not cert.window_short
    text = json.dumps(cert.to_json_dict(), allow_nan=False)
    doc = json.loads(text)
    assert set(doc) == _PARAM_KEYS | {"violation_found_at"}
    assert doc["r_star"] == pytest.approx(6.0, rel=1e-5)
    assert doc["log10_r_star"] == pytest.approx(math.log10(doc["r_star"]), rel=1e-12)
    assert doc["violation_found_at"] <= doc["r_star"] + (r[1] - r[0])

    # a short window: the numbers, the reason and the window's end, no violation
    params = GronwallParams(1e-4, 2, 0, 0, 0)
    short = certify(r[:1501], 5.0 + 0 * r[:1501], params)
    doc = json.loads(json.dumps(short.to_json_dict(), allow_nan=False))
    assert set(doc) == _PARAM_KEYS | {"skipped", "window_end"}
    assert doc["window_end"] == 1.5 and doc["r_star"] == short.r_star
    assert doc["skipped"] == ("extend window to r_star: no violation up to 1.5 "
                              f"but the lemma only forces one by {short.r_star:g}")

    # r_star beyond the double range: null beside its finite log10 size, never Infinity
    huge = certify(r[:1501], 1.0 + 0 * r[:1501], GronwallParams(1e-8, 1.5, -0.99, 0, 0))
    assert huge.r_star == math.inf and huge.window_short
    text = json.dumps(huge.to_json_dict(), allow_nan=False)
    doc = json.loads(text)
    assert "Infinity" not in text and doc["r_star"] is None
    assert doc["log10_r_star"] == pytest.approx(huge.log10_r_star)
    assert doc["skipped"].endswith(f"10^{huge.log10_r_star:.1f}")

    # a certificate from J1 alone has no window and reports no violation
    J1_only = GronwallCertificate(params, 1.0, failure_radius(params, 1.0), None,
                                  log10_failure_radius(params, 1.0))
    assert not J1_only.window_short
    assert set(J1_only.to_json_dict()) == _PARAM_KEYS | {"violation_found_at"}


def _random_family(rng):
    kind = rng.integers(0, 2)
    if kind == 0:
        k = float(rng.uniform(1.0, 5.0))
        return lambda x: np.maximum(x, 0.0) ** k
    c = float(rng.uniform(0.2, 1.5))
    return lambda x: np.exp(c * x)


def test_certify_property_violation_by_r_star():
    # contrapositive of the lemma's proof on random analytic families: the
    # scan finds a violation no later than r_star plus one grid cell
    rng = np.random.default_rng(2024)
    done = 0
    while done < 60:
        C = float(10 ** rng.uniform(-0.6, 0.6))
        a = float(1.0 + rng.uniform(0.05, 2.0))
        b = float(rng.uniform(-1.0, 2.0))
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.0, 1.0))
        params = GronwallParams(C, a, b, t0, t1)
        H = _random_family(rng)
        probe = np.linspace(t1, t1 + 1.0, 513)
        vals = H(probe - t0 if rng.integers(0, 2) else probe)
        if np.any(vals[1:] <= 0):
            continue
        Hf = (lambda f, shift: (lambda x: f(x - t0 if shift else x)))(H, bool(rng.integers(0, 2)))
        samples = np.linspace(t1, t1 + 1.0, 1025)
        hv = Hf(samples)
        if np.any(hv[1:] <= 0):
            continue
        gap = samples - t0
        w = np.where(gap > 0, gap, 1.0) ** b * (gap > 0)
        integ = hv**a * w
        if not np.isfinite(integ[0]):
            integ[0] = 0.0
        from scipy.integrate import cumulative_trapezoid
        J1 = float(cumulative_trapezoid(integ, samples, initial=0.0)[-1])
        if J1 <= 0:
            continue
        r_star = failure_radius(params, J1)
        if not np.isfinite(r_star) or r_star > t1 + 60.0:
            continue
        grid = np.linspace(t1, r_star + 1.0, 6001)
        cell = grid[1] - grid[0]
        cert = certify(grid, Hf(grid), params)
        assert cert.violation_found_at is not None
        assert cert.violation_found_at <= cert.r_star + cell
        done += 1
