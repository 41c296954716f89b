"""The characteristic march as it was before its level update was preallocated.

:func:`_march` is kept here verbatim, with the axis formula :func:`_axis_P`
it called, as the reference the solver's march is tested against: status,
t_b and level count exactly, every column r > 0 bit for bit, and the r = 0
column, whose sums the solver adds up level by level in another order, to
round-off relative to the level's max|u|.  It runs every level on all
columns and reads ubar0 from its own :func:`homogeneous_levels`, the
d'Alembert evaluator on every column, independent of the solver's banded one;
:func:`homogeneous_band` slices it into the solver's band layout and
:func:`on_lattice` scatters a band back onto the lattice.  Its source may
ignore u, so it also marches the linear forced problem ubar = ubar0 +
A*P(forcing) (:func:`forced_march`), the manufactured solution of criterion 2
among them (:func:`mms_data`, :func:`mms_error`).

:func:`full_width_band` widens the solver's own band with +0.0 cells until
``wavelab.solver.solve_march`` marches every column of every level with it.

:func:`apply_P` is P(sigma) at one node, the operator the acceptance criteria
are written against: the package's quadrature engine for r > 0 and
:func:`_axis_P` at r = 0.  No command evaluates P on its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wavelab import solver
from wavelab.profiles import RadialProfile
from wavelab.regions import influence_quadrature
from wavelab.solver import CharGrid, RadialField

_U0_BLOCK = 32          # levels of ubar0 the march reads at a time


def homogeneous_levels(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid):
    """ubar0 on levels lo..hi-1 and every column: ``levels(lo, hi)``.

    ubar0(r, t) = [Ff(r+t) + Ff(r-t) + Ig(r+t) - Ig(|r-t|)] / (2r), with
    Ff(y) = y*fbar(|y|) and Ig the running moment of y*gbar(y), read from two
    1-D tables (level j at the windows starting at n_t +- j); at r = 0,
    ubar0(0, t) = fbar(t) + t*fbar'(t) + t*gbar(t).
    """
    n_r, n_t = grid.n_r, grid.n_t
    y = grid.h * np.arange(-n_t, n_r + n_t + 1)
    Fy, Iy = y * fbar(np.abs(y)), gbar.moment_integral(y)
    F, I = sliding_window_view(Fy, n_r + 1), sliding_window_view(Iy, n_r + 1)
    tv = grid.t_values()
    axis = fbar(tv) + tv * fbar.derivative(tv) + tv * gbar(tv)
    rv = grid.r_values()

    def levels(lo, hi):
        up, down = slice(n_t + lo, n_t + hi), slice(n_t - hi + 1, n_t - lo + 1)
        v = 0.5 * (F[up] + F[down][::-1]) + 0.5 * (I[up] - I[down][::-1])
        v[:, 1:] /= rv[1:]
        v[:, 0] = axis[lo:hi]
        return v

    return levels


def homogeneous_band(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid):
    """(U, b) as ``wavelab.solver.homogeneous_band`` lays it out, sliced from
    :func:`homogeneous_levels`: U[j, k] is ubar0 at (j + k - b, j), +0.0 off the
    lattice, with b = floor(rho/h) + 2."""
    b = int(max(fbar.rho, gbar.rho) / grid.h) + 2
    whole = homogeneous_levels(fbar, gbar, grid)(0, grid.n_t + 1)
    padded = np.pad(whole, ((0, 0), (b, b + max(0, grid.n_t - grid.n_r))))
    return np.array([padded[j, j : j + 2 * b + 1] for j in range(grid.n_t + 1)]), b


def full_width_band(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid):
    """``wavelab.solver.homogeneous_band``'s (U, b) padded with +0.0 cells to a
    half-width of at least n_r + 1: passed as ``band=``, every level's light-cone
    window spans the whole row, so the march runs every column as a march with
    no window does."""
    U, b = solver.homogeneous_band(fbar, gbar, grid)
    pad = max(0, grid.n_r + 1 - b)
    return np.pad(U, ((0, 0), (pad, pad))), b + pad


def on_lattice(band, grid: CharGrid):
    """The band (U, b) on every node of the lattice, +0.0 off the band."""
    U, b = band
    jj, kk = np.indices(U.shape)
    ii = jj + kk - b
    on = (ii >= 0) & (ii <= grid.n_r)
    whole = np.zeros((grid.n_t + 1, grid.n_r + 1))
    whole[jj[on], ii[on]] = U[on]
    return whole


def _axis_P(sigma_diag, h):
    """P(sigma)(0, jh), the r -> 0 limit: sum over k < j of w_k (j-k)h sigma_diag[k].

    sigma_diag[k] = sigma((j-k)h, kh); the trapezoid weights are w_0 = h/2 and
    w_k = h otherwise (the k = j term has lambda = 0).
    """
    j = sigma_diag.size
    weights = np.full(j, h)
    weights[:1] = 0.5 * h
    return float(np.dot(weights, (np.arange(j, 0, -1) * h) * sigma_diag))


def index_of(grid: CharGrid, r, t):
    """The node (i, j) at (r, t) = (ih, jh); ValueError off the lattice or the grid."""
    i, j = solver._snap(r, grid.h, "r"), solver._snap(t, grid.h, "t")
    if not (0 <= i <= grid.n_r and 0 <= j <= grid.n_t):
        raise ValueError("out of grid")
    return i, j


def apply_P(source: RadialField, r: float, t: float) -> float:
    """Integral of (lambda/2r) * source over R(r, t), trapezoid on the lattice.

    For r > 0 this is the quadrature of lambda * source over R(r, t)
    (regions.influence_quadrature) divided by 2r.  At r = 0 the 1/(2r)
    singularity cancels against the shrinking lambda interval and the limit
    is the single integral along the backward characteristic, :func:`_axis_P`.
    """
    i, j = index_of(source.grid, r, t)
    if j >= source.n_levels or i + j > source.grid.n_r:
        raise ValueError("out of grid")
    h = source.grid.h
    if i == 0:
        ks = np.arange(j)
        return _axis_P(source.samples[ks, j - ks], h)
    return float(influence_quadrature(source.samples[: j + 1, : i + j + 1], i, j,
                                      source=lambda u, a: h * a * u)) * h * h / (2.0 * i * h)


def _march(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid, A: float,
           sigma: Callable[..., np.ndarray],
           blowup_threshold: float, divergence_factor: float, ratio_floor: float):
    """Level-by-level march; returns (samples, status, t_b).

    The source sigma(r, t, u) is evaluated elementwise at nodes (r, t) with
    solution values u; t is a scalar on a level and an array on the backward
    diagonal.  One predictor/corrector pass settles the new level; a source
    that ignores u (forced mode) gives the same values at both passes.

    Only the solution history is kept in full (the r = 0 limit formula reads
    the source along a backward characteristic through all earlier levels),
    and the samples are a prefix of it; ubar0 streams in blocks of levels, and
    the auxiliary w = r*ubar1 and the source need a two-level window.  The
    solution vanishes beyond r_max, so the right neighbour of the last column
    is an exact zero appended to the one-level rows of w and A*lambda*sigma.
    """
    h, n_r, n_t = grid.h, grid.n_r, grid.n_t
    lam, tv = grid.r_values(), grid.t_values()
    hh6 = h * h / 6.0
    inner = slice(1, n_r + 1)
    u = np.zeros((n_t + 1, n_r + 1))

    def source_diag(level):
        # source at the nodes ((level-k)h, kh), k = 0..level-1
        ks = np.arange(level)
        return sigma(lam[level:0:-1], tv[:level], u[ks, level - ks])

    u0_levels = homogeneous_levels(fbar, gbar, grid)
    u0_rows = (row for lo in range(0, n_t + 1, _U0_BLOCK)
               for row in u0_levels(lo, min(lo + _U0_BLOCK, n_t + 1)))
    u[0] = next(u0_rows)
    sig_curr, F_prev = sigma(lam, 0.0, u[0]), None
    w_prev = w_curr = np.zeros(n_r + 2)
    status, t_b, defined = "complete", None, n_t + 1
    m_prev = float(np.max(np.abs(u[0])))

    for j in range(n_t):
        new = j + 1
        u0 = next(u0_rows)
        Fj = np.append(A * lam * sig_curr, 0.0)
        if j == 0:
            base = (h * h / 12.0) * (Fj[0:n_r] + 2.0 * Fj[inner] + Fj[2 : n_r + 2])
        else:
            base = (w_curr[0:n_r] + w_curr[2 : n_r + 2] - w_prev[inner]
                    + hh6 * (2.0 * Fj[inner] + Fj[0:n_r] + Fj[2 : n_r + 2] + F_prev[inner]))

        with np.errstate(over="ignore", invalid="ignore"):
            u_star = u[j] if j == 0 else 2.0 * u[j] - u[j - 1]
            F_star = A * lam * sigma(lam, new * h, u_star)
            u_pre = np.zeros(n_r + 1)
            u_pre[inner] = u0[1:] + (base + hh6 * F_star[inner]) / lam[inner]
            F_new = A * lam * sigma(lam, new * h, u_pre)

            w_new = np.zeros(n_r + 2)
            w_new[inner] = base + hh6 * F_new[inner]
            u[new, inner] = u0[1:] + w_new[inner] / lam[inner]
            u[new, 0] = u0[0] + A * _axis_P(source_diag(new), h)

            if not np.all(np.isfinite(u[new])):
                status, defined = "error", new
                break
            m_new = float(np.max(np.abs(u[new])))
            if m_new >= blowup_threshold or (m_prev > 0.0 and m_new > ratio_floor
                                             and m_new > divergence_factor * m_prev):
                status, t_b, defined = "blown_up", new * h, new
                break

            F_prev = Fj
            sig_curr = sigma(lam, new * h, u[new])
            if not np.all(np.isfinite(sig_curr)):
                status, defined = "error", new
                break
            w_prev, w_curr = w_curr, w_new
        m_prev = m_new

    return u[:defined], status, t_b


def forced_march(fbar: RadialProfile, gbar: RadialProfile, forcing, grid: CharGrid):
    """Samples of ubar = ubar0 + P(forcing), the forcing(r, t) broadcast over r and
    t arrays: :func:`_march` with a source that ignores u."""
    samples, status, _ = _march(fbar, gbar, grid, 1.0,
                                lambda r, t, u: forcing(r, np.full_like(r, t)), np.inf, np.inf, np.inf)
    assert status == "complete"
    return samples


def _mms_exact(r, t):
    return np.clip(1.0 - r**2, 0.0, None)**3 * (1.0 + t)**-2


def _mms_forcing(r, t):
    # box(u) for u = (1-r^2)^3 (1+t)^-2 inside the unit ball, zero outside
    B = np.clip(1.0 - r**2, 0.0, None)
    w = 6.0 * B**3 * (1.0 + t)**-4 + (18.0 * B**2 - 24.0 * r**2 * B) * (1.0 + t)**-2
    return np.where(r < 1.0, w, 0.0)


def mms_data(n):
    """(fbar, gbar, grid) at h = 1/n of criterion 2's manufactured solution
    u = (1 - r^2)_+^3 (1 + t)^-2: its u and u_t at t = 0."""
    h = 1.0 / n
    gr = np.arange(0.0, 2.0 + h / 2, h)
    fb = RadialProfile(gr, _mms_exact(gr, 0.0), 1.0)
    gb = RadialProfile(gr, -2.0 * np.clip(1 - gr**2, 0, None)**3, 1.0)
    return fb, gb, CharGrid(h, 2.0, 1.0)


def mms_error(n):
    """max|ubar - u| over the lattice of :func:`mms_data`'s forced march."""
    fb, gb, grid = mms_data(n)
    samples = forced_march(fb, gb, _mms_forcing, grid)
    RR, TT = np.meshgrid(grid.r_values(), grid.t_values())
    return float(np.max(np.abs(samples - _mms_exact(RR, TT))))
