"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 8 checks John's contradiction in the form the Gronwall lemma
proves it.  On a field whose estimate chain holds (criterion 5), the
assembled integral inequality holds throughout the field's own existence
window, and the lemma says no solution can keep it past the finite radius
r_star.  So the executable conclusion is a bound on the lifespan, t_b <=
r_star, with r_star computed (in log space) rather than a violation inside
the window.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

from wavelab.diagnostics import choose_epsilon, gronwall_params_from_chain, s_exponent
from wavelab.gronwall import GronwallParams, certify, failure_radius
from wavelab.profiles import bump_profile
from wavelab.solver import CharGrid, RadialField, homogeneous_band, solve_march

import march_oracle
from march_oracle import apply_P
from conftest import RHO, blowup_problem

CRIT_P = 1.0 + math.sqrt(2.0)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_p_operator_closed_forms():
    h = RHO / 256
    grid = CharGrid(h, 3.0, 1.5)
    shape = (grid.n_t + 1, grid.n_r + 1)
    ones = RadialField(grid, np.ones(shape))
    svals = RadialField(grid, np.tile(grid.t_values()[:, None], (1, grid.n_r + 1)))
    rng = np.random.default_rng(1)
    worst1 = worst2 = 0.0
    for _ in range(50):
        j = int(rng.integers(1, grid.n_t + 1))
        i = int(rng.integers(0, grid.n_r - j + 1))
        r, t = i * h, j * h
        worst1 = max(worst1, abs(apply_P(ones, r, t) - t * t / 2) / (t * t))
        worst2 = max(worst2, abs(apply_P(svals, r, t) - t**3 / 6) / t**3)
    ok = worst1 <= 1e-4 and worst2 <= 1e-4
    _report(1, ok, f"P(1) rel err {worst1:.2e}, P(s) rel err {worst2:.2e} (tol 1e-4)")
    assert ok


def test_criterion_2_manufactured_convergence():
    e1, e2 = march_oracle.mms_error(64), march_oracle.mms_error(128)
    ratio = e1 / e2
    ok = 3.5 <= ratio <= 4.5
    _report(2, ok, f"Linf errors {e1:.3e} -> {e2:.3e}, ratio {ratio:.3f} in [3.5, 4.5]")
    assert ok


def test_criterion_3_huygens_support():
    h = RHO / 256
    grid = CharGrid(h, 3.0, 2.0)
    gr = grid.r_values()
    f, g = bump_profile(5.0, RHO, gr), bump_profile(-3.0, RHO, gr)
    u0 = march_oracle.on_lattice(homogeneous_band(f, g, grid), grid)
    RR, TT = np.meshgrid(grid.r_values(), grid.t_values())
    inside = TT - RR > RHO + 1e-12
    worst = float(np.max(np.abs(u0[inside])))
    ok = worst <= 1e-12
    _report(3, ok, f"max |u0| inside the forward cone = {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_4_subcritical_blowup(crit4_run):
    _, f128 = crit4_run
    grid = CharGrid(RHO / 256, RHO + 16.0, 16.0)
    f256 = solve_march(blowup_problem(grid), grid)
    ok = (f128.status == "blown_up" and f256.status == "blown_up"
          and abs(f128.t_b - f256.t_b) <= 0.10 * f256.t_b)
    _report(4, ok, f"t_b(h)={f128.t_b:.4f}, t_b(h/2)={f256.t_b:.4f}, "
                   f"rel diff {abs(f128.t_b - f256.t_b) / f256.t_b:.2%} (tol 10%)")
    assert ok


def test_criterion_5_inequality_chain(crit4_chain):
    _, report = crit4_chain
    bad = [tb.inequality_id for tb in report.tables if not tb.holds]
    mins = {tb.inequality_id: tb.min_residual for tb in report.tables}
    ok = report.holds and not bad
    _report(5, ok, f"all {len(report.tables)} verdicts hold; "
                   f"tightest margin {min(mins.values()):.2e} ({min(mins, key=mins.get)})")
    assert ok


def test_criterion_6_exponent_bookkeeping():
    ok = s_exponent(2.0, 0.0) == 0.0
    ok = ok and abs(s_exponent(CRIT_P, 0.0) - (-1.0)) <= 1e-12
    rng = np.random.default_rng(6)
    for p in 1.01 + rng.uniform(0, 1.40, 50):
        eps = choose_epsilon(float(p))
        ok = ok and eps is not None and 0 < eps < p - 1 and s_exponent(float(p), eps) >= -1.0
    for p in 2.42 + rng.uniform(0, 1.58, 50):
        ok = ok and choose_epsilon(float(p)) is None
    _report(6, ok, "s(2,0)=0 exact, s(1+sqrt2,0)=-1 to 1e-12, eps admissible on "
                   "(1.01,2.41) and none on (2.42,4.0)")
    assert ok


def test_criterion_7_gronwall_certificates():
    # closed forms to 1e-9 relative
    ok = abs(failure_radius(GronwallParams(1, 2, 0, 0, 0), 1.0) - 2.0) <= 2e-9
    ok = ok and abs(failure_radius(GronwallParams(1, 2, -1, 0, 0), 1.0) - math.e) <= math.e * 1e-9
    ok = ok and abs(failure_radius(GronwallParams(1, 2, 0, 0, 0), 0.2) - 6.0) <= 6e-9

    rng = np.random.default_rng(7)
    done = 0
    worst_overshoot = -np.inf
    while done < 100:
        C = float(10 ** rng.uniform(-0.6, 0.6))
        a = float(1.0 + rng.uniform(0.05, 2.0))
        b = float(rng.uniform(-1.0, 2.0))
        t0 = float(rng.uniform(0.0, 1.0))
        t1 = t0 + float(rng.uniform(0.0, 1.0))
        params = GronwallParams(C, a, b, t0, t1)
        if rng.integers(0, 2):
            k = float(rng.uniform(1.0, 5.0))
            H = lambda x, k=k: np.maximum(x - t0, 0.0) ** k
        else:
            c = float(rng.uniform(0.2, 1.5))
            H = lambda x, c=c: np.exp(c * x)
        probe = np.linspace(t1, t1 + 1.0, 1025)
        hv = H(probe)
        if np.any(hv[1:] <= 0):
            continue
        gap = probe - t0
        w = np.where(gap > 0, gap, 1.0) ** b * (gap > 0)
        integ = hv**a * w
        if not np.isfinite(integ[0]):
            integ[0] = 0.0
        J1 = float(cumulative_trapezoid(integ, probe, initial=0.0)[-1])
        if J1 <= 0:
            continue
        r_star = failure_radius(params, J1)
        if not np.isfinite(r_star) or r_star > t1 + 80.0:
            continue
        grid = np.linspace(t1, r_star + 1.0, 8001)
        cell = grid[1] - grid[0]
        cert = certify(grid, H(grid), params)
        ok = ok and cert.violation_found_at is not None
        ok = ok and cert.violation_found_at <= cert.r_star + cell
        worst_overshoot = max(worst_overshoot, cert.violation_found_at - cert.r_star)
        done += 1
    _report(7, ok, f"100 random certificates confirmed; worst violation radius "
                   f"vs r_star: {worst_overshoot:+.2e} (allowance: one grid cell); "
                   "closed forms 2, e, 6 reproduced to 1e-9")
    assert ok


def test_criterion_8_end_to_end_contradiction(crit4_chain):
    field, report = crit4_chain
    C, a, b, t0, t1 = gronwall_params_from_chain(report.config)
    params = GronwallParams(C, a, b, t0, t1)
    rs, hv = report.H
    sel = rs >= t1 - 1e-12
    window = (float(rs[sel][0]), float(rs[sel][-1]))
    # a window ending short of r_star returns the certificate with no violation
    cert = certify(rs[sel], hv[sel], params)
    violation, r_star, log10_r_star = (cert.violation_found_at, cert.r_star,
                                       cert.log10_r_star)
    holds_on_window = violation is None or violation <= r_star
    finite = log10_r_star is not None and math.isfinite(log10_r_star)
    blown_up = field.status == "blown_up"
    bounded = blown_up and finite and math.log10(field.t_b) <= log10_r_star
    ok = holds_on_window and bounded
    size = f"10^{log10_r_star:.1f}" if finite else f"10^{log10_r_star}"
    _report(8, ok, f"(*) scanned on [{window[0]:.6g}, {window[1]:.6g}], violation "
                   f"{'none' if violation is None else f'at {violation:.6g}'}; "
                   f"status {field.status}, t_b = {field.t_b} <= r_star = {size}: {bounded}")
    assert holds_on_window, f"(*) violated at {violation} beyond r_star {r_star}"
    assert blown_up, f"field status {field.status}, expected blown_up"
    assert finite, f"r_star = {size} has no finite computed size"
    assert bounded, f"t_b = {field.t_b} exceeds r_star = {size}"


def test_criterion_9_determinism(tmp_path, crit4_run):
    prob, first = crit4_run
    grid = first.grid
    second = solve_march(blowup_problem(grid), grid)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    first.save(a)
    second.save(b)
    same = a.read_bytes() == b.read_bytes()
    _report(9, same, f"two consecutive runs, {a.stat().st_size} bytes, byte-identical={same}")
    assert same
