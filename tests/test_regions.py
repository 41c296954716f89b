import dataclasses
import math

import numpy as np
import pytest

from wavelab import regions
from wavelab.regions import (_UNBOUNDED, RegionBrt, RegionQ, RegionQrt, RegionR,
                             RegionT, Sigma, SigmaPrime, StripBounds, area,
                             contains, influence_quadrature, lattice_weights,
                             strip_quadrature, subset_check)


def test_membership_examples():
    assert contains(RegionR(1, 1), (1.0, 0.0))            # boundary lam = r+t-s
    assert not contains(RegionR(1, 3), (0.5, 0.0))        # |r-t+s| = 2 > 0.5
    # alpha = 9 in [9, 11], beta = 2.2 in [2, 2.5]
    assert contains(RegionQrt(1, 10, 2, 0.5), (3.4, 5.6))


def test_membership_vectorised_and_boundaries_closed():
    reg = RegionT(0.5, 0.25)
    lam = np.array([0.375, 0.25, 2.0])
    s = np.array([0.375, 0.5, 0.0])
    got = reg.contains(lam, s)
    assert got.tolist() == [True, True, False]


def _reference_contains(reg, lam, s):
    """Each kind's membership written out by hand, the oracle for contains."""
    a, b = lam + s, s - lam
    quarter = (lam >= 0) & (s >= 0)
    if isinstance(reg, RegionR):
        return (s <= reg.t) & (np.abs(reg.r - reg.t + s) <= lam) & (lam <= reg.r + reg.t - s) & quarter
    if isinstance(reg, RegionT):
        return (a >= reg.t2 + reg.delta) & (a <= reg.t2 + 2 * reg.delta) & (b <= reg.t2) & quarter
    if isinstance(reg, RegionQ):
        return (a >= reg.t2 + 2 * reg.delta) & (b >= reg.t2) & (b <= reg.t2 + reg.delta) & quarter
    if isinstance(reg, RegionQrt):
        return ((a >= reg.t - reg.r) & (a <= reg.t + reg.r) & (b >= reg.t2)
                & (b <= reg.t2 + reg.delta) & quarter)
    if isinstance(reg, RegionBrt):
        return ((a >= reg.t - reg.r) & (a <= reg.t + reg.r) & (b >= reg.t_star)
                & (b <= reg.t - reg.r) & quarter)
    if isinstance(reg, Sigma):
        return (lam >= 0) & (lam <= s - reg.t_star)
    return (s >= reg.t_star) & (s <= lam)                  # SigmaPrime, read as (r, t)


def test_contains_matches_reference_on_dyadic_cloud():
    # dyadic points and bounds: every sum is exact, so boundaries are hit exactly
    lam, s = (v.ravel() for v in np.meshgrid(np.arange(-4, 57) / 8, np.arange(-4, 57) / 8))
    kinds = [RegionR(1, 1), RegionR(0.5, 2.25), RegionR(3, 2), RegionT(0.5, 0.25),
             RegionT(0, 1), RegionQ(0.5, 0.25), RegionQrt(0.75, 3, 0.5, 0.25),
             RegionQrt(2, 3, 0.5, 1), RegionBrt(0.75, 3, 1), RegionBrt(1, 5, 2.5),
             Sigma(1), Sigma(0.375), SigmaPrime(1), SigmaPrime(0.375)]
    for reg in kinds:
        want = _reference_contains(reg, lam, s)
        assert 0 < want.sum() < want.size, reg
        nudged = [_reference_contains(reg, lam + dl, s + ds)
                  for dl, ds in ((1 / 16, 0), (-1 / 16, 0), (0, 1 / 16), (0, -1 / 16))]
        assert (want & ~np.logical_and.reduce(nudged)).any(), reg   # boundary points included
        assert np.array_equal(reg.contains(lam, s), want), reg


def test_region_invariants_rejected():
    with pytest.raises(ValueError):
        RegionR(0.0, 1.0)
    with pytest.raises(ValueError):
        RegionT(0.0, 0.0)
    with pytest.raises(ValueError):
        Sigma(0.0)
    with pytest.raises(ValueError):                       # validation covers index arrays
        RegionR(np.array([1, 0]), np.array([2, 2]))


def test_area_examples():
    assert area(RegionQrt(1, 10, 2, 0.5)) == pytest.approx(0.5, abs=0)
    assert area(RegionQrt(0, 10, 2, 1.0)) == 0.0
    assert area(RegionBrt(2, 12, 5)) == pytest.approx(10.0, abs=0)
    assert area(RegionBrt(2, 6.5, 5)) == 0.0          # beta strip empty
    with pytest.raises(ValueError, match="unbounded region"):
        area(RegionQ(2, 0.5))
    with pytest.raises(ValueError, match="unbounded region"):
        area(Sigma(1.0))


def _mc_area(reg, lam_lo, lam_hi, s_lo, s_hi, seed, n=10**6):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(lam_lo, lam_hi, n)
    s = rng.uniform(s_lo, s_hi, n)
    frac = reg.contains(lam, s).mean()
    box = (lam_hi - lam_lo) * (s_hi - s_lo)
    return box * frac, box * np.sqrt(frac * (1 - frac) / n)


def test_area_brt_monte_carlo_oracle():
    # hit-count oracle over the bounding box, 1e6 samples, 3 sigma agreement
    reg = RegionBrt(2, 12, 5)
    est, sigma = _mc_area(reg, 0.0, 4.5, 7.5, 12.0, seed=1234)
    assert abs(est - area(reg)) <= 3 * sigma


def test_area_qrt_monte_carlo_oracle():
    reg = RegionQrt(1, 10, 2, 0.5)
    # lambda in [(9-2.5)/2, (11-2)/2], s in [(9+2)/2, (11+2.5)/2]
    est, sigma = _mc_area(reg, 3.25, 4.5, 5.5, 6.75, seed=77)
    assert abs(est - 1.0 * 0.5) <= 3 * sigma


def test_area_qrt_below_sigma_is_clipped():
    # t - r < t2 + delta: lambda >= 0 cuts a corner off the parallelogram
    reg = RegionQrt(2, 3, 0.5, 1.0)
    assert area(reg) == 2.0 - 0.0625
    est, sigma = _mc_area(reg, 0.0, 2.25, 0.75, 3.25, seed=99)
    assert abs(est - area(reg)) <= 3 * sigma


def test_area_T_against_shoelace():
    # T(0, 1) is the quadrilateral (1/2,1/2), (1,1), (2,0), (1,0)
    assert area(RegionT(0.0, 1.0)) == pytest.approx(0.75, rel=1e-15)
    assert area(RegionT(0.7, 0.3)) == pytest.approx(0.7 * 0.3 + 0.75 * 0.09, rel=1e-14)


def test_area_R_piecewise():
    assert area(RegionR(3, 2)) == pytest.approx(4.0)        # r >= t: t^2
    assert area(RegionR(1, 10)) == pytest.approx(19.0)      # r < t: 2rt - r^2
    assert area(RegionR(2, 2)) == pytest.approx(4.0)        # continuous at r = t


def _weight_area(region, h):
    b = StripBounds.from_region(region, h)
    k_max, a_max = b.window()
    return lattice_weights(b, k_max, a_max).sum() * h * h


@pytest.mark.parametrize("h", [0.25, 0.125, 0.0625])
def test_lattice_weights_reproduce_areas(h):
    regions = [RegionR(1.0, 1.0), RegionR(1.0, 10.0), RegionR(3.0, 2.0),
               RegionT(0.0, 1.0), RegionT(0.5, 0.25),
               RegionQrt(1.0, 10.0, 2.0, 0.5), RegionBrt(2.0, 12.0, 5.0)]
    for reg in regions:
        assert _weight_area(reg, h) == pytest.approx(area(reg), rel=1e-12, abs=1e-14)


def test_lattice_weights_random_regions_all_parities():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 120:
        h = float(rng.choice([0.25, 0.125, 0.0625]))
        t2 = h * int(rng.integers(0, 12))
        d = h * int(rng.integers(1, 10))
        t_star = t2 + 2 * d
        t = t_star + h * int(rng.integers(1, 30))
        r = h * int(rng.integers(1, int((t - t_star) / h) + 1))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            reg = RegionR(h * int(rng.integers(1, 20)), h * int(rng.integers(0, 20)))
        elif kind == 1:
            reg = RegionT(t2, d)
        elif kind == 2:
            if t - r < t2 + d:
                continue
            reg = RegionQrt(r, t, t2, d)
        else:
            reg = RegionBrt(r, t, t_star)
        assert _weight_area(reg, h) == pytest.approx(area(reg), rel=1e-10, abs=1e-13)
        checked += 1


def test_lattice_weights_nonnegative():
    b = StripBounds.from_region(RegionQrt(1.0, 10.0, 2.125, 0.5), 0.125)
    W = lattice_weights(b, *b.window())
    assert np.all(W >= 0)


def _random_bounds(rng):
    """Lattice strip bounds of either parity, with one-sided and empty strips."""
    a_lo, b_lo, k_lo = (int(x) for x in rng.integers((-5, -30, -2), (40, 25, 10)))
    a_hi, b_hi, k_hi = (int(x) for x in (a_lo, b_lo, k_lo) + rng.integers(-1, 40, 3))

    def one_sided(v, sentinel):
        return sentinel if rng.random() < 0.15 else v
    return StripBounds(one_sided(a_lo, -_UNBOUNDED), one_sided(a_hi, _UNBOUNDED),
                       one_sided(b_lo, -_UNBOUNDED), one_sided(b_hi, _UNBOUNDED),
                       k_lo, one_sided(k_hi, _UNBOUNDED))


def test_strip_quadrature_matches_lattice_weights(monkeypatch):
    rng = np.random.default_rng(3)
    g = rng.random((25, 31))
    singles = [_random_bounds(rng) for _ in range(400)]
    oracle = np.array([(lattice_weights(b, 24, 30) * g).sum() for b in singles])
    assert np.any(oracle == 0.0) and np.count_nonzero(oracle) > 250
    assert any(b.a_hi <= b.a_lo or b.b_hi <= b.b_lo for b in singles)
    assert {(b.a_hi + b.b_hi) % 2 for b in singles} == {0, 1}
    for b, ref in zip(singles, oracle):
        assert strip_quadrature(g, b) == pytest.approx(ref, rel=1e-12, abs=1e-13)

    # one batched call whose flattened rows span many chunks
    monkeypatch.setattr(regions, "_CHUNK_ROWS", 7)
    batch = StripBounds(*np.array([dataclasses.astuple(b) for b in singles]).T)
    got = strip_quadrature(g, batch)
    assert got.shape == (len(singles),)
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-13)


def test_from_region_on_index_arrays():
    # R(i, j) from integer index arrays, as the solver builds it, against the
    # hand-written bounds that also carry the redundant row cap s <= t
    rng = np.random.default_rng(8)
    g = rng.random((40, 60))
    jj, ii = rng.integers(0, 39, 300), rng.integers(1, 21, 300)
    b = StripBounds.from_region(RegionR(ii, jj), 1)
    assert b.a_hi.dtype == np.int64 and b.a_hi.shape == (300,)
    hand = StripBounds(jj - ii, jj + ii, -_UNBOUNDED, jj - ii, 0, jj)
    assert np.array_equal(strip_quadrature(g, b), strip_quadrature(g, hand))
    with pytest.raises(ValueError, match="not aligned"):
        StripBounds.from_region(RegionR(np.array([1.0, 1.5]), np.array([2.0, 2.0])), 1)


def test_window_holds_every_region_of_a_batch():
    # B(r, t) batches as the chain builds them: the window bounds lambda by
    # (a_hi - b_lo)/2, and the quadrature on the window equals the one on the
    # whole lattice bit for bit (row prefix sums run from a = 0 either way)
    rng = np.random.default_rng(12)
    g = rng.random((60, 90))
    j_star = 5
    jb = rng.integers(j_star + 2, 60, 50)
    ib = np.minimum(rng.integers(1, 30, 50), jb - j_star)
    batch = StripBounds.from_region(RegionBrt(ib, jb, j_star), 1)
    k_max, a_max = batch.window()
    singles = [StripBounds.from_region(RegionBrt(int(i), int(j), j_star), 1).window()
               for i, j in zip(ib, jb)]
    assert (k_max, a_max) == tuple(np.max(singles, axis=0))
    assert a_max == max(-((j_star - i - j) // 2) for i, j in zip(ib, jb)) < (ib + jb).max()
    assert np.array_equal(strip_quadrature(g[: k_max + 1, : a_max + 1], batch),
                          strip_quadrature(g, batch))
    # one column fewer drops cells that carry weight
    assert not np.array_equal(strip_quadrature(g[: k_max + 1, :a_max], batch),
                              strip_quadrature(g, batch))


def _fsum_R(g, i, j):
    """Exact-sum oracle: the dense lattice_weights of R(i, j) against g."""
    W = lattice_weights(StripBounds.from_region(RegionR(i, j), 1), g.shape[0] - 1, g.shape[1] - 1)
    return math.fsum((W * g).ravel())


@pytest.mark.parametrize("shape", [(2, 9), (13, 31), (20, 20), (25, 31)])
def test_influence_quadrature_matches_lattice_weights_on_every_node(shape):
    # every node whose R(i, j) fits: i > j, j = 0 and the top row included
    K, N = shape
    g = np.random.default_rng(K * N).random(shape)
    jj, ii = (v.ravel() for v in np.meshgrid(np.arange(K), np.arange(1, N), indexing="ij"))
    keep = ii + jj <= N - 1
    jj, ii = jj[keep], ii[keep]
    got = influence_quadrature(g, ii, jj)
    assert got.shape == ii.shape
    ref = np.array([_fsum_R(g, i, j) for i, j in zip(ii, jj)])
    assert np.all(ref[jj > 0] > 0)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
    # scalars give a 0-d result, broadcasting follows numpy
    assert influence_quadrature(g, ii[-1], jj[-1]).shape == ()
    assert influence_quadrature(g, ii[:, None], np.zeros(3, int)).shape == (ii.size, 3)


def test_influence_quadrature_keeps_dynamic_range():
    # a source concentrated at early times near the axis: a late node's P is
    # at most 1e-6 of the sums over the cells before R(i, j), which a prefix
    # difference would subtract, yet it comes out to round-off
    kk, aa = np.meshgrid(np.arange(48), np.arange(64), indexing="ij")
    g = np.exp(-(kk + aa) / 2.0)
    i, j = 5, 40
    ref = _fsum_R(g, i, j)
    assert 0 < ref <= 1e-6 * g[: j + 1, : i + j + 1].sum()
    assert influence_quadrature(g, i, j) == pytest.approx(ref, rel=1e-13, abs=0)


def test_influence_quadrature_rejects_regions_off_the_lattice():
    g = np.ones((5, 8))
    for i, j in ((0, 2), (1, -1), (2, 5), (4, 4)):
        with pytest.raises(ValueError, match="fit the lattice"):
            influence_quadrature(g, i, j)
    assert influence_quadrature(g, np.array([], dtype=int), 1).shape == (0,)


def test_subset_examples():
    assert subset_check(RegionQrt(1, 10, 2, 0.5), RegionR(1, 10))
    assert subset_check(RegionBrt(2, 12, 5), Sigma(5))
    assert not subset_check(RegionR(1, 10), RegionQrt(1, 10, 2, 0.5))
    with pytest.raises(ValueError):
        subset_check(RegionQ(1, 1), RegionR(1, 10))


def test_subset_degenerate_inner_vacuous():
    assert subset_check(RegionQrt(0.0, 10.0, 2.0, 0.5), RegionR(1, 10))
    assert subset_check(RegionBrt(2, 6.5, 5), RegionR(0.5, 1))   # empty beta strip


def test_subset_is_exact():
    # a sliver 1e-9 wide past R's alpha line, which point sampling misses
    assert subset_check(RegionQrt(1, 10, 2, 0.5), RegionR(1, 10))
    assert not subset_check(RegionQrt(1, 10 + 1e-9, 2, 0.5), RegionR(1, 10))
    # touching boundaries are inside (closed regions), a zero-width inner is checked
    assert subset_check(RegionBrt(1, 10, 2), RegionQrt(1, 10, 2, 7))
    assert not subset_check(RegionQrt(0.0, 10.0, 2.0, 0.5), RegionR(1, 8))


def test_inclusion_chain_on_sigma_random_draws():
    # the four inclusions for (r, t) in Sigma, 100 random draws
    rng = np.random.default_rng(42)
    for trial in range(100):
        t2 = float(rng.uniform(0.0, 2.0))
        d = float(rng.uniform(0.05, 1.0))
        t_star = t2 + 2 * d
        t = t_star + float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.0, t - t_star))
        R = RegionR(max(r, 1e-9), t)
        assert subset_check(RegionQrt(r, t, t2, d), R)
        assert subset_check(RegionBrt(r, t, t_star), R)
        assert subset_check(RegionQrt(r, t, t2, d), RegionQ(t2, d))
        assert subset_check(RegionBrt(r, t, t_star), Sigma(t_star))


def test_fixed_T_inside_every_R_from_Q():
    # T is contained in R(r, t) for every (r, t) in Q, 25 random draws
    rng = np.random.default_rng(5)
    t2, d = 0.6, 0.35
    T = RegionT(t2, d)
    Q = RegionQ(t2, d)
    for k in range(25):
        beta = t2 + float(rng.uniform(0, d))
        alpha = t2 + 2 * d + float(rng.uniform(0, 4.0))
        r, t = (alpha - beta) / 2.0, (alpha + beta) / 2.0
        assert contains(Q, (r, t))
        assert subset_check(T, RegionR(r, t))


def test_area_of_R_monotone_in_t_membership_is_not():
    # the area of R(r, t) grows with t ...
    ts = np.linspace(0.1, 5.0, 40)
    areas = [area(RegionR(1.0, t)) for t in ts]
    assert np.all(np.diff(areas) > 0)
    # ... but set inclusion fails: (r, 0) leaves R(r, t) once t > 2r
    assert contains(RegionR(1.0, 1.0), (1.0, 0.0))
    assert not contains(RegionR(1.0, 3.0), (1.0, 0.0))


def test_sigma_prime_is_characteristic_image_of_sigma():
    sig, sigp = Sigma(0.5), SigmaPrime(0.5)
    rng = np.random.default_rng(11)
    r = rng.uniform(0, 3, 200)
    t = rng.uniform(0, 6, 200)
    inside = sig.contains(r, t)
    assert np.array_equal(sigp.contains(t + r, t - r), inside)
