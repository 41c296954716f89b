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

import errno
import json
import math
import mmap
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profiles import RadialProfile
from .regions import influence_quadrature

__all__ = [
    "Problem",
    "CharGrid",
    "FieldFormatError",
    "RadialField",
    "BlowupFit",
    "homogeneous_band",
    "solve_march",
    "detect_blowup_time",
    "integral_residual",
]

DEFAULT_BLOWUP_THRESHOLD = 1.0e8
DEFAULT_DIVERGENCE_FACTOR = 10.0
_BLOCK_NODES = 1 << 15      # nodes a blocked loop holds at once (here and in diagnostics)
_RESIDUAL_NODES = 4096      # interior nodes integral_residual samples at most


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
        """max|u| of each level, +0.0 for a zero level, with no temporary the size of the field."""
        top = self.samples.max(axis=1)
        np.maximum(top, -self.samples.min(axis=1), out=top)
        top += 0.0          # -0.0 + 0.0 is +0.0
        return top

    def save(self, path):
        """Write the field artifact (``_write_npz``): the float64 ``samples``
        unchanged and ``meta`` (h, r_max, t_max, p, A, status, t_b; floats by
        repr, so they round-trip exactly)."""
        _write_npz(path, {"samples": self.samples},
                   {"h": self.grid.h, "r_max": self.grid.r_max, "t_max": self.grid.t_max,
                    "p": self.p, "A": self.A, "status": self.status, "t_b": self.t_b})

    @staticmethod
    def load(path):
        """Read a field artifact written by ``save`` (``_read_npz``, so only the
        samples' light cone takes memory); a missing or bad meta key, an
        off-lattice grid, or samples of the wrong width or dtype or not finite
        raise FieldFormatError too."""
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
    entry carries the fixed 1980-01-01 stamp, so equal content gives equal bytes.
    A C-contiguous member is written as its npy header and then its buffer, with
    no copy of it (numpy's writer copies a zip entry out in 16 MiB chunks)."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in (*arrays.items(), ("meta", np.array(json.dumps(meta, sort_keys=True)))):
            value = np.asanyarray(value)
            entry = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(entry, "w", force_zip64=True) as fh:
                if value.flags.c_contiguous and not value.dtype.hasobject:
                    fmt = np.lib.format
                    fmt.write_array_header_1_0(fh, fmt.header_data_from_array_1_0(value))
                    fh.write(value.data)
                else:
                    np.lib.format.write_array(fh, value, allow_pickle=False)


def _read_npz(path, what):
    """(arrays, meta dict) of an npz artifact written by ``_write_npz``, each
    member read by ``_read_member``.  A missing file raises FileNotFoundError; a
    file that cannot be opened (a directory, say), no zip signature, a pickled or
    unreadable member (a CRC-32 mismatch or a corrupt deflate stream among
    them), or a meta not a JSON object string a FieldFormatError naming ``what``.
    An ENOMEM from allocating a member (``_zeros``) is no fault of the file and
    propagates."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise FieldFormatError(f"unreadable {what} npz ({exc})") from None
    with fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FieldFormatError(f"not a wavelab {what} npz (no zip signature)")
        fh.seek(0)
        members = {}
        try:
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    with zf.open(info) as member:
                        members[info.filename.removesuffix(".npy")] = _read_member(member)
        except (ValueError, OSError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            if isinstance(exc, OSError) and exc.errno == errno.ENOMEM:
                raise
            raise FieldFormatError(f"malformed {what} npz ({exc})") from None
    meta = members.pop("meta", np.array(None))
    try:
        meta = json.loads(meta[()]) if meta.shape == () and meta.dtype.kind == "U" else None
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise FieldFormatError(f"malformed {what} meta (not a JSON object string)")
    return members, meta


def _read_member(member):
    """One npy member, pickles refused.  A C-order float64 2-D one (the field's
    samples) is read into ``_zeros`` in blocks of about _BLOCK_NODES cells through
    one buffer.  Each block is copied only up to its last column that holds a bit
    pattern other than +0.0, so the +0.0 tail past the light cone is never
    written and holds no memory; -0.0 and zeros inside the copied columns keep
    their bits.  The member is read to its end, where zipfile checks the CRC-32.
    Any other member is read as numpy reads it."""
    fmt = np.lib.format
    if fmt.read_magic(member) == (1, 0):          # the header version _write_npz writes
        shape, fortran, dtype = fmt.read_array_header_1_0(member)
    else:
        shape, fortran, dtype = (), False, None
    if dtype != np.float64 or len(shape) != 2 or fortran:
        member.seek(0)
        return fmt.read_array(member, allow_pickle=False)
    rows, width = shape
    out = _zeros(shape)
    buf = np.empty((max(1, min(rows, _BLOCK_NODES // max(width, 1))), width))
    for lo in range(0, rows, len(buf)):
        block = buf[: min(len(buf), rows - lo)]
        got = member.readinto(block)
        if got != block.nbytes:
            raise EOFError(f"EOF: reading array data, expected {block.nbytes} bytes got {got}")
        nonzero = np.flatnonzero(np.bitwise_or.reduce(block.view(np.int64), axis=0))
        end = nonzero[-1] + 1 if nonzero.size else 0
        out[lo : lo + len(block), :end] = block[:, :end]
    while member.read(1 << 16):
        pass
    return out


def _zeros(shape):
    """float64 zeros in a private anonymous mapping, for field-sized arrays: a page
    is resident only once written, and a cell never written reads the kernel's
    shared zero page.  Huge pages are declined (numpy asks for them on its own
    arrays of 4 MiB or more), so one write makes 4 KiB resident, not 2 MiB."""
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(8 * count, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


# ---------------------------------------------------------------------------
# Homogeneous part by d'Alembert with odd extension
# ---------------------------------------------------------------------------

def homogeneous_band(fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid):
    """ubar0 on the band around the lattice diagonal: returns (U, b).

    By d'Alembert with odd-extended data, ubar0(r, t) = [Ff(r+t) + Ff(r-t) +
    Ig(r+t) - Ig(|r-t|)] / (2r), with Ff(y) = y*fbar(|y|) and Ig the exact
    running moment of y*gbar(y); at r = 0, ubar0(0, t) = fbar(t) + t*fbar'(t) +
    t*gbar(t).  Compact support is honoured to round-off: ubar0 is +0.0
    wherever |r - t| > rho (sharp Huygens), rho the larger of the two
    profiles' radii.

    U[j, k] is ubar0 at the node (j + k - b, j), b = floor(rho/h) + 2 > rho/h,
    so the band's edges k = 0 and k = 2b hold the +0.0 of every node off it.
    Cells off the lattice hold +0.0 and the r = 0 values sit on k = b - j.  The
    node (i, j) reads the 1-D tables at n_t + i + j and n_t + i - j, so row j
    combines the tables' windows at n_t + 2j and at n_t.  U is allocated once
    and filled in place by blocks of about _BLOCK_NODES cells (one level at
    least), so the build holds the band plus one block.  A lattice longer than
    it is wide (n_t > n_r), which no march runs, raises ValueError.
    """
    n_r, n_t = grid.n_r, grid.n_t
    if n_t > n_r:
        raise ValueError("the ubar0 band needs n_t <= n_r (a lattice no longer than it is wide)")
    y = grid.h * np.arange(-n_t, n_r + n_t + 1)
    Fy, Iy = y * fbar(np.abs(y)), gbar.moment_integral(y)
    tv = grid.t_values()
    axis = fbar(tv) + tv * fbar.derivative(tv) + tv * gbar(tv)

    b = int(max(fbar.rho, gbar.rho) / grid.h) + 2
    n = 2 * b + 1
    # the tables padded with b zeros at both ends: level j's r + t window at n_t + 2j
    F = sliding_window_view(np.pad(Fy, b), n)
    I = sliding_window_view(np.pad(Iy, b), n)
    # the radii, 1.0 at r = 0 and off the lattice: level j's window at j
    rp = np.ones(n_r + 1 + 2 * b)
    rp[b + 1 : b + n_r + 1] = grid.r_values()[1:]
    R = sliding_window_view(rp, n)
    U = np.empty((n_t + 1, n))
    rows = max(1, _BLOCK_NODES // n)
    even = np.empty((min(rows, n_t + 1), n))
    k = np.arange(n)
    for lo in range(0, n_t + 1, rows):
        hi = min(lo + rows, n_t + 1)
        u, e, up = U[lo:hi], even[: hi - lo], slice(n_t + 2 * lo, n_t + 2 * hi, 2)
        np.subtract(I[up], I[n_t], out=u)
        u *= 0.5
        np.add(F[up], F[n_t], out=e)
        e *= 0.5
        u += e
        u /= R[lo:hi]
        j = np.arange(lo, hi)[:, None]
        u[(k < b - j) | (k > n_r + b - j)] = 0.0          # i < 0 or i > n_r
    j = np.arange(min(b, n_t) + 1)
    U[j, b - j] = axis[j]
    return U, b


# ---------------------------------------------------------------------------
# The march
# ---------------------------------------------------------------------------

def _power_source(p):
    """sigma(u, out): |u|^p written into out, the package's one |u|^p.  The march
    calls it on a level's light-cone window i <= j + floor(rho/h) + 1 (past it u
    is +0.0, whose |u|^p is the +0.0 already there); ``_lambda_source`` weights
    it for the residual and for M."""

    def sigma(u, out):
        np.abs(u, out=out)
        out **= p

    return sigma


def _lambda_source(h, sigma):
    """The source lambda sigma(u), lambda = h*a, as ``influence_quadrature`` reads it:
    sigma(u, out) as in ``_power_source``, then the weight."""

    def source(u, a):
        g = np.empty_like(u)
        sigma(u, g)
        g *= h * a
        return g

    return source


def solve_march(problem: Problem, grid: CharGrid,
                blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
                divergence_factor: float = DEFAULT_DIVERGENCE_FACTOR, band=None) -> RadialField:
    """March the fixed point ubar = ubar0 + A*P(|ubar|^p) up the lattice.

    ``band`` is ubar0's band (U, b) from ``homogeneous_band``, built here if not
    given, so a caller that reads ubar0 again builds it once.

    The march stops with status "blown_up" at the first level whose max
    amplitude reaches the threshold or jumps by more than the divergence
    factor in a single step (a result, not an error), and with status "error"
    at the first level whose u or |u|^p is not finite; only the levels before
    it are kept.

    One predictor/corrector pass settles each level.  A step reads no level
    older than the one before it, so the samples are only written.  Level j's
    band is copied into one u0 row on the columns max(0, j - b) .. j + b; left
    of them the row keeps the +0.0 of earlier bands' edges k = 0.  Everything
    else lives in rows allocated once: A*lambda*|u|^p at two levels, the
    auxiliary w = r*ubar1 at three, the extrapolated and the predicted level,
    the part ``base`` both passes share, a scratch row and the axis sums.  The
    solution vanishes beyond r_max: the right neighbour of the last column is
    the exact zero kept at the end of every F and w row.  The axis value is the
    r -> 0 limit A*P(|u|^p)(0, Jh), the sum over k < J of w_k times
    A*lambda*|u|^p at ((J-k)h, kh), w_0 = h/2 and w_k = h otherwise; each F
    row, once final, is added into the sums of the J = i + k it enters.

    The data vanish past their support radius rho (``Problem.rho``), so by
    finite speed of propagation u is exactly +0.0 at every node with r - t >
    rho.  Each level j is therefore marched only on its light-cone window, the
    columns i <= j + b - 1 (b = floor(rho/h) + 2 from the band).  The window
    grows by one column a level, as the domain of dependence does, so whatever
    a window node reads past the window of the level before is a row entry
    never written: the +0.0 a march over every column computes there, as a
    band widened with +0.0 cells to b > n_r makes it; the axis sums, which
    start at +0.0, skip only +0.0 terms.  The samples are the same either way.
    """
    if grid.r_max + 1e-12 < problem.rho + grid.t_max:
        raise ValueError("grid violates the domain of dependence: need r_max >= rho + t_max")
    if blowup_threshold <= problem.data_scale:
        raise ValueError("blowup_threshold must exceed the initial amplitude")

    ratio_floor = max(1.0, 10.0 * problem.data_scale)
    sigma = _power_source(problem.p)
    h, n_r, n_t = grid.h, grid.n_r, grid.n_t
    lam = grid.r_values()
    alam, hh6 = problem.A * lam, h * h / 6.0
    U, b = homogeneous_band(problem.f_profile, problem.g_profile, grid) if band is None else band
    u = _zeros((n_t + 1, n_r + 1))     # its pages past the light cone are never written
    F = np.zeros((2, n_r + 2))         # A*lambda*|u|^p at levels j and j - 1
    w = np.zeros((3, n_r + 2))         # w at levels j + 1, j and j - 1
    u_star, u_pre = np.empty(n_r + 1), np.zeros(n_r + 1)
    base, tmp = np.empty(n_r), np.empty(n_r + 1)
    axis = np.zeros(n_t + n_r + 1)     # A*P(|u|^p)(0, Jh), summed over the levels so far
    zeros = np.zeros(n_r + 1)          # 0 * x is finite unless x is NaN or +-inf
    u0 = np.zeros(n_r + 1)             # ubar0 at the level being marched

    u[0, : b + 1] = U[0, b : b + n_r + 1]
    c = min(n_r + 1, b)
    sigma(u[0, :c], F[0, :c])
    np.multiply(alam[:c], F[0, :c], out=F[0, :c])
    axis[1:c] += 0.5 * h * F[0, 1:c]
    status, t_b, defined = "complete", None, n_t + 1
    m_prev = float(np.max(np.abs(u[0])))

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_t):
            new, t_new = j + 1, (j + 1) * h
            c = min(n_r + 1, new + b)      # the new level's columns 0..c-1
            lo, hi = max(0, new - b), min(n_r + 1, new + b + 1)
            u0[lo:hi] = U[new, lo - new + b : hi - new + b]
            u0_in = u0[1:c]
            Fj, Fp, wc, wp = F[j % 2], F[new % 2], w[j % 3 - 1], w[j % 3 - 2]
            alam_in, tmp_c = alam[1:c], tmp[:c]
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

            # predictor: u0 + (base + hh6 * A*lambda*|u_star|^p) / lambda
            sigma(star, tmp_c)
            np.multiply(alam_in, tmp_in, out=tmp_in)
            np.multiply(tmp_in, hh6, out=tmp_in)
            np.add(base_in, tmp_in, out=tmp_in)
            np.divide(tmp_in, lam_in, out=tmp_in)
            np.add(u0_in, tmp_in, out=u_pre[1:c])
            # corrector: w = base + hh6 * A*lambda*|u_pre|^p, u = u0 + w / lambda
            sigma(u_pre[:c], tmp_c)
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
            sigma(un, sig)
            if not math.isfinite(np.dot(sig, zeros[:c])):
                status, defined = "error", new
                break
            np.multiply(alam[:c], sig, out=sig)
            axis[new + 1 : new + c] += h * sig[1:]
            m_prev = m_new

    return RadialField(grid, u[:defined], status=status, t_b=t_b, p=problem.p, A=problem.A)


# ---------------------------------------------------------------------------
# Blow-up time extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupFit:
    t_b: float
    fitted_t_b: float
    fitted_exponent: float


def detect_blowup_time(field: RadialField, amps=None) -> Optional[BlowupFit]:
    """t_b plus a least-squares fit of max|u|(t) ~ c*(t_b' - t)^nu near the end.

    Returns None for fields that did not blow up.  The fit scans candidate
    singular times just beyond the last computed level and regresses log-max
    against log(t_b' - t); for the power nonlinearity the expected exponent is
    nu = -2/(p-1).  ``amps`` is max|u| per level (``RadialField.level_max``),
    taken here if not given.
    """
    if field.status != "blown_up":
        return None
    h = field.grid.h
    if amps is None:
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
    best = (np.inf, field.t_b, -2.0)
    for bump in np.geomspace(0.25, 8.0, 48):
        t_cand = t_end + bump * h
        x = np.log(t_cand - tw)
        y = np.log(aw)
        slope, intercept = np.polyfit(x, y, 1)
        sse = float(np.sum((y - (slope * x + intercept)) ** 2))
        if sse < best[0]:
            best = (sse, t_cand, float(slope))
    return BlowupFit(field.t_b, best[1], best[2])


# ---------------------------------------------------------------------------
# Residual against the independent quadrature
# ---------------------------------------------------------------------------

def integral_residual(problem: Problem, field: RadialField, band=None) -> dict:
    """Residual u - u0 - A*P(|u|^p) on a deterministic interior subsample.

    Interior means 1 <= i, 1 <= j, and i + j <= n_r so the influence region
    fits the lattice.  The nodes form a square sub-lattice whose stride keeps
    at most _RESIDUAL_NODES of them.  P is evaluated at all of them by one
    regions.influence_quadrature sweep (one pass over the lattice inside the
    light cone plus O(1) per node), which reads lambda |u|^p from the field
    diagonal by diagonal and starts from the nonzeros of u, so no source array
    is built.  u0 is read at the nodes from its band (a node off it reads the
    +0.0 edge): ``band`` from ``homogeneous_band`` if given, else built here and
    freed before the sweep.
    """
    grid = field.grid
    n_lev = field.n_levels
    total = sum(max(0, min(grid.n_r - 1, grid.n_r - j)) for j in range(1, n_lev))
    stride = max(1, int(np.ceil(np.sqrt(max(total, 1) / _RESIDUAL_NODES))))
    jj, ii = np.meshgrid(np.arange(1, n_lev, stride), np.arange(1, grid.n_r, stride),
                         indexing="ij")
    keep = ii + jj <= grid.n_r
    jj, ii = jj[keep], ii[keep]
    U, b = homogeneous_band(problem.f_profile, problem.g_profile, grid) if band is None else band
    res = field.samples[jj, ii] - U[jj, np.clip(ii - jj, -b, b) + b]
    del U
    integral = influence_quadrature(field.samples, ii, jj,
                                    source=_lambda_source(grid.h, _power_source(problem.p)))
    res -= problem.A * (integral * grid.h * grid.h / (2.0 * ii * grid.h))
    if res.size == 0:
        return {"residual_linf": 0.0, "residual_l2": 0.0, "nodes": 0}
    return {
        "residual_linf": float(np.max(np.abs(res))),
        "residual_l2": float(np.sqrt(np.mean(res**2))),
        "nodes": int(res.size),
    }

