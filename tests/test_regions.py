import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from wavelab.diagnostics import _positive_power
from wavelab.regions import influence_quadrature
from wavelab.solver import _lambda_source, _power_source

import quadrature_oracle
from conftest import dense_quadrature
from lattice_oracle import (_UNBOUNDED, RegionBrt, RegionQ, RegionQrt, RegionR, RegionT,
                            Sigma, SigmaPrime, StripBounds, _StripRegion, area, contains,
                            lattice_weights, subset_check)


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


def _fsum(g, bounds):
    """Exact-sum oracle: the dense lattice_weights of the strip bounds against g."""
    return math.fsum((lattice_weights(bounds, g.shape[0] - 1, g.shape[1] - 1) * g).ravel())


def _fsum_R(g, i, j):
    return _fsum(g, StripBounds.from_region(RegionR(i, j), 1))


def test_floored_sweep_matches_lattice_weights():
    # on random lattices: B(i, j; j_star) at every node of Sigma that fits,
    # with both corner parities (j - i + j_star odd or even) and zero width
    # (i = j - j_star); T(t2, delta) with odd and even delta; and R(i, j) under
    # arbitrary floors, empty regions and floors below the lattice included
    rng = np.random.default_rng(3)
    corners, deltas = set(), set()
    for _ in range(30):
        K, N = (int(x) for x in rng.integers(3, 26, 2))
        g = rng.random((K, N))
        j_star = int(rng.integers(0, K - 1))
        jj, ii = (v.ravel() for v in np.meshgrid(np.arange(K), np.arange(1, N), indexing="ij"))
        keep = (ii <= jj - j_star) & ((ii + jj - j_star + 1) // 2 <= N - 1)
        jj, ii = jj[keep], ii[keep]
        got = influence_quadrature(g, ii, jj, beta_lo=j_star)
        ref = [_fsum(g, StripBounds(j - i, j + i, j_star, j - i, 0, _UNBOUNDED))
               for i, j in zip(ii, jj)]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        assert np.all((got == 0) == (ii == jj - j_star))
        corners |= set((jj - ii + j_star) % 2)

        d = int(rng.integers(1, (N + 1) // 2))
        t2 = int(rng.integers(0, min(K - d, N - 2 * d)))
        got = influence_quadrature(g, d, t2 + d, alpha_lo=t2 + d)
        ref = _fsum(g, StripBounds(t2 + d, t2 + 2 * d, -_UNBOUNDED, t2, 0, _UNBOUNDED))
        assert got.shape == () and got == pytest.approx(ref, rel=1e-13, abs=0) and ref > 0
        deltas.add(d % 2)

        for _ in range(20):
            i, j = int(rng.integers(1, N)), int(rng.integers(0, K))
            a_lo, b_lo = int(rng.integers(-4, N)), int(rng.integers(-4, K))
            if (i + j - b_lo + 1) // 2 > N - 1 or i + j > 2 * (N - 1):
                continue
            ref = _fsum(g, StripBounds(max(j - i, a_lo), j + i, b_lo, j - i, 0, _UNBOUNDED))
            got = influence_quadrature(g, i, j, alpha_lo=a_lo, beta_lo=b_lo)
            assert got == pytest.approx(ref, rel=1e-13, abs=0), (K, N, i, j, a_lo, b_lo)
    assert corners == {0, 1} and deltas == {0, 1}


def test_from_region_on_index_arrays():
    # B(r, t) from integer index arrays, as step 2 builds it: the oracle's
    # bounds are the hand-written ones, node by node, and the sweep over the
    # arrays gives each node the bits of its own call and the dense sum
    rng = np.random.default_rng(8)
    g = rng.random((40, 60))
    j_star = 3
    jj = rng.integers(j_star + 1, 40, 300)
    ii = np.minimum(rng.integers(1, 30, 300), jj - j_star)
    b = StripBounds.from_region(RegionBrt(ii, jj, j_star), 1)
    assert b.a_hi.dtype == np.int64 and b.a_hi.shape == (300,)
    hand = (jj - ii, jj + ii, j_star, jj - ii, 0, _UNBOUNDED)
    assert all(np.array_equal(x, y) for x, y in zip(
        (b.a_lo, b.a_hi, b.b_lo, b.b_hi, b.k_lo, b.k_hi), hand))
    got = influence_quadrature(g, ii, jj, beta_lo=j_star)
    singles = [influence_quadrature(g, i, j, beta_lo=j_star) for i, j in zip(ii, jj)]
    assert np.array_equal(got, singles)
    ref = [_fsum(g, StripBounds.from_region(RegionBrt(int(i), int(j), j_star), 1))
           for i, j in zip(ii, jj)]
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
    with pytest.raises(ValueError, match="not aligned"):
        StripBounds.from_region(RegionR(np.array([1.0, 1.5]), np.array([2.0, 2.0])), 1)


def test_window_holds_every_region_of_a_batch():
    # B(r, t) batches as step 2 builds them: the window is the rows up to the
    # highest node and the columns up to lambda = ceil((i + j - j_star)/2), and
    # the sweep on it equals the one on the whole lattice bit for bit
    rng = np.random.default_rng(12)
    g = rng.random((60, 90))
    j_star = 5
    jb = rng.integers(j_star + 2, 60, 50)
    ib = np.minimum(rng.integers(1, 30, 50), jb - j_star)
    k_max, a_max = jb.max(), (ib + jb - j_star + 1).max() // 2
    assert a_max < (ib + jb).max()
    whole = influence_quadrature(g, ib, jb, beta_lo=j_star)
    on_window = influence_quadrature(g[: k_max + 1, : a_max + 1], ib, jb, beta_lo=j_star)
    assert np.array_equal(on_window, whole)
    # one column or one row fewer drops cells that carry weight
    for window in (g[: k_max + 1, :a_max], g[:k_max, : a_max + 1]):
        with pytest.raises(ValueError, match="fit the lattice"):
            influence_quadrature(window, ib, jb, beta_lo=j_star)


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


# the sweep against its reference (quadrature_oracle), bit for bit

def _fitting_nodes(K, N, beta_lo=None):
    """Every node (i, j) whose R(i, j), floored at beta_lo, fits a (K, N) lattice."""
    jj, ii = (v.ravel() for v in np.meshgrid(np.arange(K), np.arange(1, N), indexing="ij"))
    top, lo = ii + jj, -(N - 1) if beta_lo is None else beta_lo
    keep = np.minimum(top, (top - lo + 1) // 2) <= N - 1
    return ii[keep], jj[keep]


def _sources(K, N):
    """Random g; g with a zero cone g[k, a] = 0 for a >= k + c; all zeros; signed zeros."""
    rng = np.random.default_rng(K * N)
    kk, aa = np.indices((K, N))
    dense = rng.normal(size=(K, N))                 # negative entries too
    sources = [dense]
    for c in (-2, 0, 3, K):
        sources.append(np.where(aa >= kk + c, 0.0, dense))
    sources.append(np.zeros((K, N)))
    signed = np.where(rng.random((K, N)) < 0.3, -0.0, dense)
    sources.append(np.where(aa >= kk + 2, -0.0, signed))
    sources.append(np.full((K, N), -0.0))
    return sources


def _assert_sweep_is_oracle(g, i, j, **floors):
    got = influence_quadrature(g, i, j, **floors)
    ref = quadrature_oracle.influence_quadrature(g, i, j, **floors)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), floors
    return got


@pytest.mark.parametrize("shape", [(2, 9), (13, 31), (20, 20), (31, 25)])
def test_sweep_is_bitwise_the_oracle(shape):
    # R at every node, B(r, t) at every node for several j_star (nodes past
    # Sigma, i > j - j_star, and the zero-width i = j - j_star included), T at
    # a spread of (t2, delta), and R under alpha floors, on sources whose zeros sit
    # below, across and above the queried diagonals
    K, N = shape
    answers = []
    for g in _sources(K, N):
        ii, jj = _fitting_nodes(K, N)
        answers.append(_assert_sweep_is_oracle(g, ii, jj))
        for a_lo in (-3, 2, N // 2):
            _assert_sweep_is_oracle(g, ii, jj, alpha_lo=a_lo)
        for j_star in sorted({0, 1, K // 2, K - 1}):
            ii, jj = _fitting_nodes(K, N, j_star)
            assert np.any(ii == jj - j_star) or K - 1 - j_star < 1
            assert np.any(ii > jj - j_star)
            _assert_sweep_is_oracle(g, ii, jj, beta_lo=j_star)
            _assert_sweep_is_oracle(g, ii, jj, alpha_lo=N // 3, beta_lo=j_star)
        for d in range(1, (N + 1) // 2):
            for t2 in range(d % 3, min(K - d, N - 2 * d), 4):
                _assert_sweep_is_oracle(g, d, t2 + d, alpha_lo=t2 + d)
    # the zero cones leave both zero and nonzero answers; zeros come out +0.0
    cones = np.concatenate(answers[1:5])
    assert np.any(cones == 0) and np.any(cones != 0)
    for got in answers[1:]:
        assert not np.any(np.signbit(got[got == 0]))


def _package_sources(h, p):
    """The sources the package passes: the residual's lambda |u|^p, step 2's
    lambda u_+^p and compute_M's (lambda/2) |u|^p."""
    return [_lambda_source(h, _power_source(p)), _lambda_source(h, _positive_power(p)),
            _lambda_source(0.5 * h, _power_source(p))]


@pytest.mark.parametrize("p", [2.0, 2.41, 3.0])
def test_package_sources_are_the_source_arrays_they_replace(p):
    # bitwise the arrays the residual, step 2 and compute_M once built, in
    # their order of operations, on a signed field with signed zeros, at a
    # dyadic spacing and one that is not: M's weight (h/2) a is 0.5 (h a)
    # exactly, halving being exact
    rng = np.random.default_rng(8)
    u = np.where(rng.random((9, 40)) < 0.2, -0.0, 5.0 * rng.normal(size=(9, 40)))
    u[:, -5:] = 0.0
    for h in (1.0 / 16.0, 0.3):
        lam = h * np.arange(u.shape[1])
        residual, region = np.abs(u), np.clip(u, 0.0, None)
        for g in (residual, region):
            g **= p
            g *= lam
        cone = 0.5 * lam[None, :] * np.abs(u) ** p
        for source, want in zip(_package_sources(h, p), (residual, region, cone)):
            got = source(u, np.arange(u.shape[1]))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_streamed_is_dense(u, i, j, source, **floors):
    got = influence_quadrature(u, i, j, source=source, **floors)
    ref = dense_quadrature(u, i, j, source=source, **floors)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), floors


@pytest.mark.parametrize("p", [2.0, 2.41])
@pytest.mark.parametrize("shape", [(2, 9), (13, 31), (31, 25)])
def test_streamed_sources_are_bitwise_the_dense_oracle(shape, p):
    # g = source(u, a) read diagonal by diagonal from u against the reference
    # sweep on g built whole, for g = u and each source the package passes, on
    # random signed fields with zero cones and signed zeros: R at every node,
    # B(r, t) (beta floors), T (alpha floors) and both floors; u also as a
    # window of a larger field and as a strided view of one
    K, N = shape
    rng = np.random.default_rng(K * N + 1)
    big = 3.0 * rng.normal(size=(2 * K + 3, 3 * N + 4))
    fields = _sources(K, N) + [big[2 : K + 2, 3 : N + 3], big[1::2, ::3][:K, :N]]
    assert not fields[-1].flags.c_contiguous and not fields[-2].flags.c_contiguous
    for u in fields:
        for source in (None, *_package_sources(1.0 / 16.0, p)):
            ii, jj = _fitting_nodes(K, N)
            _assert_streamed_is_dense(u, ii, jj, source)
            _assert_streamed_is_dense(u, ii, jj, source, alpha_lo=N // 2)
            for j_star in sorted({0, K // 2}):
                ii, jj = _fitting_nodes(K, N, j_star)
                _assert_streamed_is_dense(u, ii, jj, source, beta_lo=j_star)
                _assert_streamed_is_dense(u, ii, jj, source, alpha_lo=N // 3, beta_lo=j_star)
            for d in range(1, (N + 1) // 2, 2):
                for t2 in range(d % 3, min(K - d, N - 2 * d), 3):
                    _assert_streamed_is_dense(u, d, t2 + d, source, alpha_lo=t2 + d)


# the row sweep against the diagonal sweep it replaced (quadrature_oracle), bit for bit

def _supports(K, N, rng):
    """Signed fields with zeros where the package's sources have them and where
    they do not: a light cone a < k + c, a cut after a column, a floor below a
    diagonal (u zero for k - a < c, so low nodes answer from no cell), sparse
    entries, signed zeros and one entry of 1e100."""
    kk, aa = np.indices((K, N))
    dense = 3.0 * rng.normal(size=(K, N))
    fields = [dense, np.where(aa >= kk + 2, 0.0, dense), np.where(aa >= N // 3, 0.0, dense),
              np.where(kk - aa < K // 3, 0.0, dense), np.where(rng.random((K, N)) < 0.8, 0.0, dense),
              np.where(aa >= kk + 1, -0.0, np.where(rng.random((K, N)) < 0.3, -0.0, dense)),
              np.zeros((K, N))]
    fields[1][-1, 0] = 1e100
    return fields


def _assert_rows_are_diagonals(u, i, j, source=None, **floors):
    got = influence_quadrature(u, i, j, source=source, **floors)
    ref = quadrature_oracle.diagonal_sweep(u, i, j, source=source, **floors)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), floors
    return got


@pytest.mark.parametrize("shape", [(2, 9), (17, 12), (23, 40), (40, 23)])
def test_row_sweep_is_bitwise_the_diagonal_sweep(shape):
    # every node whose region fits, under no floor, each floor and both, for
    # alpha_lo and beta_lo from below the lattice to its top, with g = u and
    # the residual's source, on whole fields and on a window of a larger one;
    # a block of rows holds 16 steps, so (23, 40) and (40, 23) cross blocks
    K, N = shape
    rng = np.random.default_rng(K * N + 7)
    big = rng.normal(size=(K + 5, N + 9))
    for u in _supports(K, N, rng) + [big[3 : K + 3, 4 : N + 4]]:
        for source in (None, _package_sources(1.0 / 16.0, 2.41)[0]):
            for beta_lo in (None, *sorted({0, K // 2, K - 1})):
                ii, jj = _fitting_nodes(K, N, beta_lo)
                floors = {} if beta_lo is None else {"beta_lo": beta_lo}
                _assert_rows_are_diagonals(u, ii, jj, source, **floors)
                for alpha_lo in (-2, 1, (K + N) // 3, K + N - 1):
                    _assert_rows_are_diagonals(u, ii, jj, source, alpha_lo=alpha_lo, **floors)


def test_row_sweep_answers_nodes_below_the_support_and_none():
    # nodes on diagonals below the lowest that holds a nonzero of u answer +0.0
    # before their quadrants, as the diagonal sweep, which skips them, does;
    # an empty node set answers an empty array without reading u
    K, N = 30, 40
    kk, aa = np.indices((K, N))
    u = np.where(kk - aa >= 6, 1.0 + np.random.default_rng(2).random((K, N)), 0.0)
    ii, jj = _fitting_nodes(K, N)
    below, above = jj - ii < 5, jj - ii >= 8
    assert below.any() and above.any()
    got = _assert_rows_are_diagonals(u, ii, jj)
    assert np.all(got[below] == 0) and not np.any(np.signbit(got))
    assert np.all(got[above] > 0)
    for floors in ({}, {"alpha_lo": 3}, {"beta_lo": 2}):
        empty = _assert_rows_are_diagonals(u, np.array([], dtype=int), np.array([], dtype=int),
                                           **floors)
        assert empty.shape == (0,)
    assert influence_quadrature(u[:0], np.zeros((0, 3), dtype=int), 0).shape == (0, 3)


def test_row_sweep_reads_a_row_file_as_its_array(tmp_path):
    # the residual's source read back from a file of rows (solver.RowFile), a
    # block of rows and the quadrant corners at a time, answers bitwise as the
    # array those rows make
    from wavelab.solver import RowFile
    K, N = 37, 52
    kk, aa = np.indices((K, N))
    u = np.where(aa < kk + 6, np.random.default_rng(4).normal(size=(K, N)), 0.0)
    source = _package_sources(1.0 / 16.0, 2.0)[0]
    with RowFile(tmp_path / "rows", N) as rows:
        for k in range(K):
            rows.append(np.ascontiguousarray(u[k, : min(N, k + 6)]))
        for floors in ({}, {"alpha_lo": 9}, {"beta_lo": 4}, {"alpha_lo": 12, "beta_lo": 4}):
            ii, jj = _fitting_nodes(K, N, floors.get("beta_lo"))
            got = influence_quadrature(rows, ii, jj, source=source, **floors)
            ref = influence_quadrature(u, ii, jj, source=source, **floors)
            assert got.tobytes() == ref.tobytes(), floors


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


@dataclass(frozen=True)
class _FlooredR(_StripRegion):
    """R(r, t) cut at alpha >= alpha_lo and beta >= beta_lo, as influence_quadrature reads it."""

    r: float
    t: float
    alpha_lo: Optional[float] = None
    beta_lo: Optional[float] = None

    def strip_bounds(self):
        a_lo, a_hi, b_lo, b_hi, s_lo, s_hi = RegionR(self.r, self.t).strip_bounds()
        if self.alpha_lo is not None:
            a_lo = max(a_lo, self.alpha_lo)
        if self.beta_lo is not None:
            b_lo = self.beta_lo if b_lo is None else max(b_lo, self.beta_lo)
        return (a_lo, a_hi, b_lo, b_hi, s_lo, s_hi)


def test_floored_R_is_B_and_T_exactly():
    # the floors step 2 and compute_M pass to the engine give exactly the
    # regions of the argument, as two-way exact inclusion over lattice parameters:
    # B(r, t) = R(r, t) with beta >= t_star, T(t2, delta) = R(delta, t2 + delta)
    # with alpha >= t2 + delta
    for j_star in range(0, 5):
        for j in range(j_star, j_star + 7):
            for i in range(1, 9):
                B, floored = RegionBrt(i, j, j_star), _FlooredR(i, j, beta_lo=j_star)
                assert subset_check(B, floored) and subset_check(floored, B), (i, j, j_star)
    for t2 in range(0, 6):
        for d in range(1, 6):
            T, floored = RegionT(t2, d), _FlooredR(d, t2 + d, alpha_lo=t2 + d)
            assert subset_check(T, floored) and subset_check(floored, T), (t2, d)
            assert area(T) == area(floored) > 0


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
