"""Characteristic-lattice solver for the radial semilinear wave equation.

For radially symmetric data the equation box(u) = A|u|^p reduces exactly to a
Volterra integral equation for the radial profile ubar(r, t):

    ubar = ubar0 + A * P(|ubar|^p),

where ubar0 is the homogeneous solution and P integrates a source over the
backward influence region R(r, t) with kernel lambda/(2r),

    P(sigma)(r, t) = integral over R(r,t) of (lambda / 2r) sigma(lambda, s),
    P(sigma)(0, t) = integral_0^t (t - s) sigma(t - s, s) ds  (the r -> 0 limit).

Everything lives on a uniform lattice with equal spacing in r and t, so the
boundaries of R(r, t) run along lattice diagonals and the quadrature decomposes
into full cells plus exactly-integrated boundary triangles.

The homogeneous part is computed in closed form: v = r*ubar0 obeys the
one-dimensional wave equation on the half line with an odd reflection at r = 0,
so d'Alembert's formula with odd-extended data gives every node from two 1-D
tables over the lattice abscissae (r +- t is always a node; O(n_r + n_t)
profile evaluations), with compact support honoured to round-off (sharp
Huygens principle).

The inhomogeneous part w = r*ubar1 marches level by level using the
characteristic parallelogram identity

    w(r, t+h) = w(r-h, t) + w(r+h, t) - w(r, t-h) + (1/2) * I(diamond),

with the diamond source integral evaluated by the same sub-cell triangle rule
(weights h^2/6 on the four inner triangles).  The new level enters only through
the diamond's top vertex, so the march is explicit up to one predictor and one
corrector pass on that single value.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profiles import RadialProfile
from .regions import _SCAN_ROWS, _row_ends, influence_quadrature

__all__ = [
    "Problem",
    "CharGrid",
    "FieldFormatError",
    "RadialField",
    "BlowupFit",
    "apply_P",
    "homogeneous_levels",
    "solve_march",
    "solve_forced",
    "detect_blowup_time",
    "integral_residual",
]

DEFAULT_BLOWUP_THRESHOLD = 1.0e8
DEFAULT_DIVERGENCE_FACTOR = 10.0
_U0_BLOCK = 32          # levels of ubar0 the march reads at a time


# ---------------------------------------------------------------------------
# Problem and grid types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """Instance data: exponent p > 1, coefficient A > 0, radial data."""

    p: float
    A: float
    f_profile: RadialProfile
    g_profile: RadialProfile

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("exponent p must exceed 1")
        if self.A <= 0:
            raise ValueError("coefficient A must be positive")

    @property
    def rho(self):
        """The data's support radius: the larger of the two profiles' radii."""
        return max(self.f_profile.rho, self.g_profile.rho)

    @property
    def data_scale(self):
        return max(
            float(np.max(np.abs(self.f_profile.values))),
            self.rho * float(np.max(np.abs(self.g_profile.values))),
            1e-300,
        )


def _snap(value, h, name):
    q = value / h
    qi = round(q)
    if abs(q - qi) > 1e-6:
        raise ValueError(f"{name}={value} is not an integer multiple of h={h}")
    return int(qi)


@dataclass(frozen=True)
class CharGrid:
    """Uniform characteristic lattice: nodes (i*h, j*h), equal r/t spacing."""

    h: float
    r_max: float
    t_max: float
    n_r: int = field(init=False, repr=False)
    n_t: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("spacing h must be positive")
        object.__setattr__(self, "n_r", _snap(self.r_max, self.h, "r_max"))
        object.__setattr__(self, "n_t", _snap(self.t_max, self.h, "t_max"))

    def r_values(self):
        return self.h * np.arange(self.n_r + 1)

    def t_values(self, n_levels=None):
        n = self.n_t + 1 if n_levels is None else n_levels
        return self.h * np.arange(n)

    def index_of(self, r, t):
        i = _snap(r, self.h, "r")
        j = _snap(t, self.h, "t")
        if not (0 <= i <= self.n_r and 0 <= j <= self.n_t):
            raise ValueError("out of grid")
        return i, j


_STATUSES = ("complete", "blown_up", "error")


class FieldFormatError(ValueError):
    """An npz artifact that cannot be read (``_read_npz``, ``RadialField.load``)."""


@dataclass
class RadialField:
    """Samples of a radial function on the lattice, row-major by time level.

    ``samples[j, i]`` holds the value at (i*h, j*h).  For a blown-up field only
    levels with t < t_b are stored, so every stored value is finite.
    """

    grid: CharGrid
    samples: np.ndarray
    status: str = "complete"
    t_b: Optional[float] = None
    p: Optional[float] = None
    A: Optional[float] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.grid.n_r + 1:
            raise ValueError("samples must be (levels, n_r + 1)")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "blown_up" and self.t_b is None:
            raise ValueError("blown_up status requires t_b")
        # min and max carry any NaN and show +-inf, without a mask the size of the field
        if self.samples.size and not (np.isfinite(self.samples.min())
                                      and np.isfinite(self.samples.max())):
            raise ValueError("stored samples must be finite")

    @property
    def n_levels(self):
        return self.samples.shape[0]

    @property
    def defined_t_max(self):
        return self.grid.h * (self.n_levels - 1)

    def level_max(self):
        return np.max(np.abs(self.samples), axis=1)

    def save(self, path):
        """Write the field artifact (``_write_npz``): the float64 ``samples``
        unchanged and ``meta`` (h, r_max, t_max, p, A, status, t_b; floats by
        repr, so they round-trip exactly)."""
        _write_npz(path, {"samples": self.samples},
                   {"h": self.grid.h, "r_max": self.grid.r_max, "t_max": self.grid.t_max,
                    "p": self.p, "A": self.A, "status": self.status, "t_b": self.t_b})

    @staticmethod
    def load(path):
        """Read a field artifact written by ``save`` (``_read_npz``); a missing or
        bad meta key, an off-lattice grid, or samples of the wrong width or dtype
        or not finite raise FieldFormatError too."""
        members, meta = _read_npz(path, "field")

        def number(key, optional=False):
            if key not in meta:
                raise FieldFormatError(f"malformed field meta (no {key})")
            value = meta[key]
            if value is None and optional:
                return None
            if not _is_number(value):
                raise FieldFormatError(f"malformed field meta ({key}={value!r})")
            return float(value)

        h, r_max, t_max = (number(k) for k in ("h", "r_max", "t_max"))
        p, A, t_b = (number(k, optional=True) for k in ("p", "A", "t_b"))
        status = meta.get("status")
        if status not in _STATUSES:
            raise FieldFormatError(f"malformed field meta (status={status!r})")
        samples = members.get("samples", np.array(None))
        if samples.dtype != np.float64 or samples.ndim != 2 or samples.shape[0] == 0:
            raise FieldFormatError(f"malformed field samples ({samples.dtype}, shape {samples.shape})")
        try:
            return RadialField(CharGrid(h, r_max, t_max), samples,
                               status=status, t_b=t_b, p=p, A=A)
        except ValueError as exc:
            raise FieldFormatError(f"malformed field ({exc})") from None


def _is_number(v):
    """A JSON number that is finite: Python's json also reads NaN and Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _write_npz(path, arrays, meta):
    """One deterministic npz artifact: the arrays in order, then ``meta``, a 0-d
    string of sort-keyed JSON.  Uncompressed, pickling refused, and every zip
    entry carries the fixed 1980-01-01 stamp, so equal content gives equal bytes."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in (*arrays.items(), ("meta", np.array(json.dumps(meta, sort_keys=True)))):
            entry = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(entry, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(value), allow_pickle=False)


def _read_npz(path, what):
    """(arrays, meta dict) of an npz artifact written by ``_write_npz``.  A missing
    file raises FileNotFoundError; no zip signature, a pickled or unreadable
    member, or a meta not a JSON object string a FieldFormatError naming ``what``."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FieldFormatError(f"not a wavelab {what} npz (no zip signature)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                members = {name: npz[name] for name in npz.files}
        except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
            raise FieldFormatError(f"malformed {what} npz ({exc})") from None
    meta = members.pop("meta", np.array(None))
    try:
        meta = json.loads(meta[()]) if meta.shape == () and meta.dtype.kind == "U" else None
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise FieldFormatError(f"malformed {what} meta (not a JSON object string)")
    return members, meta


# ---------------------------------------------------------------------------
# The P operator
# ---------------------------------------------------------------------------

def apply_P(source: RadialField, r: float, t: float) -> float:
    """Integral of (lambda/2r) * source over R(r, t), trapezoid on the lattice.

    For r > 0 this is the quadrature of lambda * source over R(r, t)
    (regions.influence_quadrature) divided by 2r.  At r = 0 the 1/(2r)
    singularity cancels against the shrinking lambda interval and the limit
    is a single integral along the backward characteristic; that form is
    used directly.
    """
    i, j = source.grid.index_of(r, t)
    if j >= source.n_levels or i + j > source.grid.n_r:
        raise ValueError("out of grid")
    h = source.grid.h
    if i == 0:
        # sum over k < j of w_k (j-k)h sigma((j-k)h, kh), with the trapezoid
        # weights w_0 = h/2 and w_k = h otherwise (the k = j term has lambda = 0)
        ks = np.arange(j)
        weights = np.full(j, h)
        weights[:1] = 0.5 * h
        return float(np.dot(weights, (j - ks) * h * source.samples[ks, j - ks]))
    g = h * np.arange(i + j + 1) * source.samples[: j + 1, : i + j + 1]
    return float(influence_quadrature(g, i, j)) * h * h / (2.0 * i * h)


# ---------------------------------------------------------------------------
# Homogeneous part by d'Alembert with odd extension
# ---------------------------------------------------------------------------

def homogeneous_levels(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid):
    """ubar0 by level blocks: returns ``levels(lo, hi)``, ubar0 on levels lo..hi-1.

    By d'Alembert with odd-extended data, ubar0(r, t) = [Ff(r+t) + Ff(r-t) +
    Ig(r+t) - Ig(|r-t|)] / (2r), with Ff(y) = y*fbar(|y|) and Ig the exact
    running moment of y*gbar(y); at r = 0, ubar0(0, t) = fbar(t) + t*fbar'(t) +
    t*gbar(t).  Compact support is honoured to round-off: ubar0 vanishes
    wherever |r - t| > rho (sharp Huygens).

    The two 1-D d'Alembert tables (and the r = 0 column) are built once.  A
    block of levels is evaluated only on the band |i - j| <= b = ceil(rho/h) + 1
    around the diagonal, with rho the larger of the two profiles' radii: off it
    |r - t| > rho, both table entries of F vanish and both of I hold the total
    moment, so ubar0 is the +0.0 the block is allocated with.  In band
    coordinates (j, d = i - j) the node reads F and I at n_t + 2j + d and
    n_t + d, so each level is a stride-2 window of the tables (zero-padded
    by b, for the band's cells off the lattice, which are discarded) and the
    band lands in the block through a diagonal view.  ``levels.at(ii, jj)``
    reads ubar0 at nodes with ii >= 1 straight from the tables.  Every read is
    computed elementwise by the same arithmetic, so its values are bitwise
    those of the whole-lattice array ``levels(0, n_t + 1)`` evaluated on
    every node.
    """
    n_r, n_t = grid.n_r, grid.n_t
    y = grid.h * np.arange(-n_t, n_r + n_t + 1)
    Fy, Iy = y * fbar(np.abs(y)), gbar.moment_integral(y)
    tv = grid.t_values()
    axis = fbar(tv) + tv * fbar.derivative(tv) + tv * gbar(tv)
    rv = grid.r_values()

    b = math.ceil(max(fbar.rho, gbar.rho) / grid.h) + 1
    n = 2 * b + 1
    # the band windows of the tables, padded with b zeros in front (and behind
    # as many as level n_t's window needs when n_t > n_r): level j's at n_t + 2j
    pad = (b, b + max(0, n_t - n_r))
    F = sliding_window_view(np.pad(Fy, pad), n)
    I = sliding_window_view(np.pad(Iy, pad), n)
    # a block holds column c at c + b, so level j's band starts at its column j;
    # the radii at the block's columns, 1.0 at r = 0 and off the lattice
    width = max(n_r + 1, n_t + 1 + b) + b
    rp = np.ones(width)
    rp[b + 1 : b + n_r + 1] = rv[1:]
    R = sliding_window_view(rp, n)

    def levels(lo, hi):
        m = hi - lo
        # row k of the band starts at flat index lo + k*(width + 1): column lo + k of block row k
        flat = np.zeros(lo + m * (width + 1))
        block = flat[: m * width].reshape(m, width)
        band = flat[lo : lo + m * (width + 1)].reshape(m, width + 1)[:, :n]
        up = slice(n_t + 2 * lo, n_t + 2 * hi, 2)
        v = 0.5 * (F[up] + F[n_t]) + 0.5 * (I[up] - I[n_t])
        np.divide(v, R[lo:hi], out=band)
        block[:, b] = axis[lo:hi]
        return block[:, b : b + n_r + 1]

    def at(ii, jj):
        up, down = n_t + ii + jj, n_t + ii - jj
        return (0.5 * (Fy[up] + Fy[down]) + 0.5 * (Iy[up] - Iy[down])) / rv[ii]

    levels.at = at
    return levels


# ---------------------------------------------------------------------------
# Marching core
# ---------------------------------------------------------------------------

def _march(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid, A: float,
           sigma: Callable[..., None],
           blowup_threshold: float, divergence_factor: float, ratio_floor: float,
           cone: bool = True):
    """Level-by-level march; returns (samples, status, t_b).

    The source ``sigma(r, t, u, out)`` writes its values at the nodes (r, t)
    of one level, t a scalar, where the solution is u, into ``out``.  One
    predictor/corrector pass settles the new level; a source that ignores u
    (forced mode) gives the same values at both passes.

    A step reads no level older than the one before it, so the samples are
    only written; ubar0 streams in blocks of levels.  Everything else lives in
    rows allocated once: A*lambda*sigma at two levels, the auxiliary
    w = r*ubar1 at three, the extrapolated and the predicted level, the part
    ``base`` that both passes share, a scratch row and the axis sums.  The
    solution vanishes beyond r_max, so the right neighbour of the last column
    is the exact zero kept at the end of every F and w row.

    The axis value is the r -> 0 limit A*P(sigma)(0, Jh): the sum over k < J
    of w_k times A*lambda*sigma at ((J-k)h, kh), w_0 = h/2 and w_k = h
    otherwise.  Node (i, k) enters only the sum of J = i + k, with w_k times
    its entry of level k's F row, so each F row, once final, is added into
    the running sums; a node past r_max enters none, so n_t may exceed n_r.

    With ``cone``, for a source that vanishes wherever u does (|u|^p), every
    per-level operation runs only on the columns i <= j + floor(rho/h) + 1 of
    the new level j, rho the data's support radius.  Past them ubar0 is
    exactly +0.0 (sharp Huygens) and so, by finite speed of propagation, are
    u, w and the source.  The window grows by one column a level, as the
    domain of dependence does, so whatever a window node reads past the window
    of the level before is a row entry never written: the +0.0 the full-width
    march computes there; the axis sums, which start at +0.0, skip only +0.0
    terms.  The samples are therefore bitwise those of the full-width march
    (``cone`` false, which the forced mode needs: its forcing may reach any
    column).
    """
    h, n_r, n_t = grid.h, grid.n_r, grid.n_t
    lam = grid.r_values()
    alam, hh6 = A * lam, h * h / 6.0
    # level j can be nonzero only on its columns i < j + reach
    reach = int(max(fbar.rho, gbar.rho) / h) + 2 if cone else n_r + 1
    u = np.zeros((n_t + 1, n_r + 1))
    F = np.zeros((2, n_r + 2))         # A*lambda*sigma at levels j and j - 1
    w = np.zeros((3, n_r + 2))         # w at levels j + 1, j and j - 1
    u_star, u_pre = np.empty(n_r + 1), np.zeros(n_r + 1)
    base, tmp = np.empty(n_r), np.empty(n_r + 1)
    axis = np.zeros(n_t + n_r + 1)     # A*P(sigma)(0, Jh), summed over the levels so far
    zeros = np.zeros(n_r + 1)          # 0 * x is finite unless x is NaN or +-inf

    u0_levels = homogeneous_levels(fbar, gbar, grid)
    u0_rows = (row for lo in range(0, n_t + 1, _U0_BLOCK)
               for row in u0_levels(lo, min(lo + _U0_BLOCK, n_t + 1)))
    u[0] = next(u0_rows)
    c = min(n_r + 1, reach)
    sigma(lam[:c], 0.0, u[0, :c], F[0, :c])
    np.multiply(alam[:c], F[0, :c], out=F[0, :c])
    axis[1:c] += 0.5 * h * F[0, 1:c]
    status, t_b, defined = "complete", None, n_t + 1
    m_prev = float(np.max(np.abs(u[0])))

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_t):
            new, t_new = j + 1, (j + 1) * h
            c = min(n_r + 1, new + reach)   # the new level's columns 0..c-1
            u0 = next(u0_rows)
            u0_in = u0[1:c]
            Fj, Fp, wc, wp = F[j % 2], F[new % 2], w[j % 3 - 1], w[j % 3 - 2]
            lam_c, alam_in, tmp_c = lam[:c], alam[1:c], tmp[:c]
            lam_in, tmp_in, base_in = lam[1:c], tmp[1:c], base[: c - 1]
            if j == 0:
                np.multiply(h * h / 12.0, Fj[: c - 1] + 2.0 * Fj[1:c] + Fj[2 : c + 1], out=base_in)
                star = u[0, :c]
            else:
                # base = ((wc0 + wc2) - wp1) + hh6 * (((2 F1 + F0) + F2) + Fp1)
                np.multiply(Fj[1:c], 2.0, out=tmp_in)
                np.add(tmp_in, Fj[: c - 1], out=tmp_in)
                np.add(tmp_in, Fj[2 : c + 1], out=tmp_in)
                np.add(tmp_in, Fp[1:c], out=tmp_in)
                np.multiply(tmp_in, hh6, out=tmp_in)
                np.add(wc[: c - 1], wc[2 : c + 1], out=base_in)
                np.subtract(base_in, wp[1:c], out=base_in)
                np.add(base_in, tmp_in, out=base_in)
                star = np.multiply(u[j, :c], 2.0, out=u_star[:c])
                np.subtract(star, u[j - 1, :c], out=star)

            # predictor: u0 + (base + hh6 * A*lambda*sigma(u_star)) / lambda
            sigma(lam_c, t_new, star, tmp_c)
            np.multiply(alam_in, tmp_in, out=tmp_in)
            np.multiply(tmp_in, hh6, out=tmp_in)
            np.add(base_in, tmp_in, out=tmp_in)
            np.divide(tmp_in, lam_in, out=tmp_in)
            np.add(u0_in, tmp_in, out=u_pre[1:c])
            # corrector: w = base + hh6 * A*lambda*sigma(u_pre), u = u0 + w / lambda
            sigma(lam_c, t_new, u_pre[:c], tmp_c)
            np.multiply(alam_in, tmp_in, out=tmp_in)
            un, un_in, wn_in = u[new, :c], u[new, 1:c], w[j % 3, 1:c]
            np.multiply(tmp_in, hh6, out=wn_in)
            np.add(base_in, wn_in, out=wn_in)
            np.divide(wn_in, lam_in, out=un_in)
            np.add(u0_in, un_in, out=un_in)
            un[0] = u0[0] + axis[new]

            # max|u| carries any NaN and shows +-inf
            m_new = float(np.abs(un, out=tmp_c).max())
            if not math.isfinite(m_new):
                status, defined = "error", new
                break
            if m_new >= blowup_threshold or (m_prev > 0.0 and m_new > ratio_floor
                                             and m_new > divergence_factor * m_prev):
                status, t_b, defined = "blown_up", t_new, new
                break

            # the new level's source, into the row of F_{j-1}: the dot with zeros
            # is finite unless some entry is NaN or +-inf
            sig = Fp[:c]
            sigma(lam_c, t_new, un, sig)
            if not math.isfinite(np.dot(sig, zeros[:c])):
                status, defined = "error", new
                break
            np.multiply(alam[:c], sig, out=sig)
            axis[new + 1 : new + c] += h * sig[1:]
            m_prev = m_new

    return u[:defined], status, t_b


def _power_source(p):
    """The march's source sigma(r, t, u, out): |u|^p written into out.

    The march hands it only the nodes inside its light-cone window, a level
    row cut at i <= j + floor(rho/h) + 1; past them u is +0.0, whose |u|^p is
    the +0.0 already there.
    """

    def sigma(r, t, u, out):
        np.abs(u, out=out)
        out **= p

    return sigma


def solve_march(problem: Problem, grid: CharGrid,
                blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                divergence_factor: float = DEFAULT_DIVERGENCE_FACTOR) -> RadialField:
    """March the fixed point ubar = ubar0 + A*P(|ubar|^p) up the lattice.

    The march stops with status "blown_up" at the first level whose max
    amplitude reaches the threshold or jumps by more than the divergence
    factor in a single step; a blow-up is a result, not an error.

    The data vanish past their support radius rho (``Problem.rho``, the larger
    of the two profiles' radii), so by finite speed of propagation u is exactly
    +0.0 at every node with r - t > rho, and the march keeps it so.  Each level
    is therefore marched only on its light-cone window i <= j + floor(rho/h) + 1
    (``_march`` with ``cone``): ubar0, the source |u|^p, both passes, max|u|
    and the axis sums on the window's columns.  Everything past it is the +0.0
    the full-width march computes there, so the samples are bitwise those of
    the full-width march.
    """
    if grid.r_max + 1e-12 < problem.rho + grid.t_max:
        raise ValueError("grid violates the domain of dependence: need r_max >= rho + t_max")
    if blowup_threshold <= problem.data_scale:
        raise ValueError("blowup_threshold must exceed the initial amplitude")

    ratio_floor = max(1.0, 10.0 * problem.data_scale)
    samples, status, t_b = _march(problem.f_profile, problem.g_profile, grid, problem.A,
                                  _power_source(problem.p),
                                  blowup_threshold, divergence_factor, ratio_floor)
    return RadialField(grid, samples, status=status, t_b=t_b, p=problem.p, A=problem.A)


def solve_forced(fbar: RadialProfile, gbar: RadialProfile,
                 forcing: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 grid: CharGrid, A: float = 1.0) -> RadialField:
    """March the linear problem ubar = ubar0 + A*P(forcing) (manufactured runs).

    The forcing must broadcast over congruent r/t arrays and should be
    supported inside the light cone of r_max (the lattice assumes the solution
    vanishes beyond the last column).  It may be nonzero anywhere else, so the
    march runs on full-width rows.  The lattice may run longer than it is wide
    (t_max > r_max): the axis sums take no node past r_max.
    """

    def sigma(r, t, u, out):
        out[...] = forcing(r, np.full_like(r, t))

    samples, status, t_b = _march(fbar, gbar, grid, A, sigma, np.inf, np.inf, np.inf,
                                  cone=False)
    return RadialField(grid, samples, status=status, t_b=t_b, A=A)


# ---------------------------------------------------------------------------
# Blow-up time extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupFit:
    t_b: float
    fitted_t_b: float
    fitted_exponent: float
    fitted_amplitude: float


def detect_blowup_time(field: RadialField) -> Optional[BlowupFit]:
    """t_b plus a least-squares fit of max|u|(t) ~ c*(t_b' - t)^nu near the end.

    Returns None for fields that did not blow up.  The fit scans candidate
    singular times just beyond the last computed level and regresses log-max
    against log(t_b' - t); for the power nonlinearity the expected exponent is
    nu = -2/(p-1).
    """
    if field.status != "blown_up":
        return None
    h = field.grid.h
    amps = field.level_max()
    ts = field.grid.t_values(field.n_levels)
    amp_end = amps[-1]
    window = np.nonzero(amps >= max(amp_end * 1e-3, 1e-300))[0]
    window = window[-60:]
    if window.size < 5:
        window = np.arange(max(0, field.n_levels - 5), field.n_levels)
    aw = amps[window]
    tw = ts[window]
    t_end = ts[-1]
    best = (np.inf, field.t_b, -2.0, amp_end)
    for bump in np.geomspace(0.25, 8.0, 48):
        t_cand = t_end + bump * h
        x = np.log(t_cand - tw)
        y = np.log(aw)
        slope, intercept = np.polyfit(x, y, 1)
        sse = float(np.sum((y - (slope * x + intercept)) ** 2))
        if sse < best[0]:
            best = (sse, t_cand, float(slope), float(np.exp(intercept)))
    return BlowupFit(field.t_b, best[1], best[2], best[3])


# ---------------------------------------------------------------------------
# Residual against the independent quadrature
# ---------------------------------------------------------------------------

def integral_residual(problem: Problem, field: RadialField, max_nodes: int = 4096) -> dict:
    """Residual u - u0 - A*P(|u|^p) on a deterministic interior subsample.

    Interior means 1 <= i, 1 <= j, and i + j <= n_r so the influence region
    fits the lattice.  The nodes form a square sub-lattice whose stride keeps
    at most max_nodes of them; pass a large max_nodes for full coverage.  P is
    evaluated at all of them by one regions.influence_quadrature sweep (one
    pass over the lattice inside the light cone plus O(1) per node); u0 is
    read at the nodes from its two 1-D tables, so besides the field only the
    source array is held.  |u|^p is taken only up to the last nonzero column
    of each block of rows: past r = rho + t the field is exactly zero.
    """
    grid = field.grid
    n_lev = field.n_levels
    total = sum(max(0, min(grid.n_r - 1, grid.n_r - j)) for j in range(1, n_lev))
    stride = max(1, int(np.ceil(np.sqrt(max(total, 1) / max_nodes))))
    jj, ii = np.meshgrid(np.arange(1, n_lev, stride), np.arange(1, grid.n_r, stride),
                         indexing="ij")
    keep = ii + jj <= grid.n_r
    jj, ii = jj[keep], ii[keep]
    res = field.samples[jj, ii] - homogeneous_levels(problem.f_profile, problem.g_profile,
                                                     grid).at(ii, jj)
    # lambda * |u|^p, built in place by row blocks up to their last nonzero
    # column; past it the +0.0 of np.zeros is already lambda * |+-0.0|^p
    src, lam = np.zeros(field.samples.shape), grid.h * np.arange(grid.n_r + 1)
    ends = _row_ends(field.samples)
    for k in range(0, n_lev, _SCAN_ROWS):
        rows, c = slice(k, k + _SCAN_ROWS), int(ends[k : k + _SCAN_ROWS].max())
        block = np.abs(field.samples[rows, :c], out=src[rows, :c])
        block **= problem.p
        block *= lam[:c]
    res -= problem.A * (influence_quadrature(src, ii, jj) * grid.h * grid.h / (2.0 * ii * grid.h))
    if res.size == 0:
        return {"residual_linf": 0.0, "residual_l2": 0.0, "nodes": 0}
    return {
        "residual_linf": float(np.max(np.abs(res))),
        "residual_l2": float(np.sqrt(np.mean(res**2))),
        "nodes": int(res.size),
    }

