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

import array
import errno
import io
import json
import math
import mmap
import os
import weakref
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
    "MarchedField",
    "RowFile",
    "BlowupFit",
    "HomogeneousPart",
    "solve_march",
    "detect_blowup_time",
    "integral_residual",
]

DEFAULT_BLOWUP_THRESHOLD = 1.0e8
DEFAULT_DIVERGENCE_FACTOR = 10.0
_BLOCK_NODES = 1 << 15      # nodes a blocked loop holds at once (here and in diagnostics)
_RESIDUAL_NODES = 4096      # interior nodes integral_residual samples at most
_HUGE_PAGE_BYTES = 1 << 22  # numpy asks for huge pages on arrays of this size and more
_BAND_CELLS = 1 << 13       # cells of ubar0's band a block of levels holds
_STAGE_BYTES = 1 << 16      # bytes of rows a RowFile stages before it writes them


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
    levels with t < t_b are stored, so every stored value is finite.  The
    samples are an array or a ``RowFile``: the rows a march streamed to disk,
    checked finite as it wrote them, or those of a field.npz ``load`` read
    back, checked finite by its pass.  A field is a context manager that
    closes a RowFile's file when it is left.
    """

    grid: CharGrid
    samples: np.ndarray
    status: str = "complete"
    t_b: Optional[float] = None
    p: Optional[float] = None
    A: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.samples, RowFile):
            self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != self.grid.n_r + 1:
            raise ValueError("samples must be (levels, n_r + 1)")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "blown_up" and self.t_b is None:
            raise ValueError("blown_up status requires t_b")
        # min and max carry any NaN and show +-inf, without a mask the size of the field
        if (isinstance(self.samples, np.ndarray) and self.samples.size
                and not (np.isfinite(self.samples.min()) and np.isfinite(self.samples.max()))):
            raise ValueError("stored samples must be finite")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if isinstance(self.samples, RowFile):
            self.samples.close()

    @property
    def n_levels(self):
        return self.samples.shape[0]

    @property
    def defined_t_max(self):
        return self.grid.h * (self.n_levels - 1)

    def save(self, path):
        """Write the field artifact (``_write_npz``): the float64 ``samples``
        unchanged and ``meta`` (h, r_max, t_max, p, A, status, t_b; floats by
        repr, so they round-trip exactly).  Samples in a RowFile are already in
        their place in the file, which ``RowFile.save`` completes into the same
        bytes."""
        meta = {"h": self.grid.h, "r_max": self.grid.r_max, "t_max": self.grid.t_max,
                "p": self.p, "A": self.A, "status": self.status, "t_b": self.t_b}
        if isinstance(self.samples, RowFile):
            self.samples.save(path, meta)
        else:
            _write_npz(path, {"samples": self.samples}, meta)

    @staticmethod
    def load(path):
        """Read a field artifact written by ``save`` (``_read_npz``).  Samples as
        ``save`` writes them come back as a read-only ``RowFile`` on the file,
        after one pass that checks their CRC-32 and finiteness, so the field
        holds no memory; leaving the field as a context manager closes the file.
        Samples of another layout (Fortran order, a deflated member) are read
        into memory by numpy.  A missing or bad meta key, an off-lattice grid,
        or samples of the wrong width or dtype or not finite raise
        FieldFormatError too."""
        members, meta = _read_npz(path, "field", rows="samples")
        samples = members.get("samples", np.array(None))

        def number(key, optional=False):
            if key not in meta:
                raise FieldFormatError(f"malformed field meta (no {key})")
            value = meta[key]
            if value is None and optional:
                return None
            if not _is_number(value):
                raise FieldFormatError(f"malformed field meta ({key}={value!r})")
            return float(value)

        try:
            h, r_max, t_max = (number(k) for k in ("h", "r_max", "t_max"))
            p, A, t_b = (number(k, optional=True) for k in ("p", "A", "t_b"))
            status = meta.get("status")
            if status not in _STATUSES:
                raise FieldFormatError(f"malformed field meta (status={status!r})")
            if samples.dtype != np.float64 or samples.ndim != 2 or samples.shape[0] == 0:
                raise FieldFormatError(
                    f"malformed field samples ({samples.dtype}, shape {samples.shape})")
            try:
                return RadialField(CharGrid(h, r_max, t_max), samples,
                                   status=status, t_b=t_b, p=p, A=A)
            except ValueError as exc:
                raise FieldFormatError(f"malformed field ({exc})") from None
        except BaseException:
            if isinstance(samples, RowFile):
                samples.close()
            raise


@dataclass
class MarchedField(RadialField):
    """A field as ``solve_march`` leaves it: with ``level_max``, max|u| of each
    stored level as the march's stopping test took it, so no caller scans the
    field for it."""

    level_max: Optional[np.ndarray] = field(default=None, repr=False)


def _is_number(v):
    """A JSON number that is finite: Python's json also reads NaN and Infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _write_npz(path, arrays, meta):
    """One deterministic npz artifact: the arrays in order, then ``meta``, a 0-d
    string of sort-keyed JSON (``_write_members``)."""
    with zipfile.ZipFile(path, "w") as zf:
        _write_members(zf, arrays, meta)


def _npz_entry(name):
    """The zip entry of an npz member: uncompressed, with the fixed 1980-01-01 stamp."""
    return zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))


def _write_members(zf, arrays, meta):
    """The arrays, then ``meta``, into the open ZipFile ``zf``, each a zip64 entry
    (``_npz_entry``), pickling refused, so equal content gives equal bytes.  A
    C-contiguous member is written as its npy header and then its buffer, with
    no copy of it (numpy's writer copies a zip entry out in 16 MiB chunks); any
    other as numpy's writer writes it."""
    fmt = np.lib.format
    for name, value in (*arrays.items(), ("meta", np.array(json.dumps(meta, sort_keys=True)))):
        value = np.asanyarray(value)
        with zf.open(_npz_entry(name), "w", force_zip64=True) as fh:
            if value.dtype.hasobject or not value.flags.c_contiguous:
                fmt.write_array(fh, value, allow_pickle=False)
            else:
                fmt.write_array_header_1_0(fh, fmt.header_data_from_array_1_0(value))
                fh.write(value.data)


_CRC_POLY = 0xEDB88320      # CRC-32's polynomial, bits reflected as zlib keeps them


def _crc_times(a, b):
    """a * b modulo the CRC-32 polynomial (zlib's multmodp); x^0 is bit 31."""
    p = 0
    for _ in range(32):
        if a & 1 << 31:
            p ^= b
        a = a << 1 & 0xFFFFFFFF
        b = b >> 1 ^ _CRC_POLY if b & 1 else b >> 1
    return p


def _crc32_combine(crc1, crc2, len2):
    """zlib's crc32_combine: the CRC-32 of A + B from crc1 = crc32(A), crc2 =
    crc32(B) and len2 = len(B), as crc1 times x^(8 len2) plus crc2."""
    shift, power = 1 << 31, 1 << 30             # x^0, and x^1
    for _ in range(3):
        power = _crc_times(power, power)        # x^8, a byte
    while len2:
        if len2 & 1:
            shift = _crc_times(power, shift)
        power = _crc_times(power, power)
        len2 >>= 1
    return _crc_times(shift, crc1) ^ crc2


def _npy_header(shape):
    """The npy 1.0 header numpy writes for a C-order float64 array of ``shape``.
    numpy leaves room in it for axis 0 to grow, so its length does not depend on
    the number of rows."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": np.lib.format.dtype_to_descr(
        np.dtype(np.float64)), "fortran_order": False, "shape": shape})
    return out.getvalue()


def _read_npz(path, what, rows=None):
    """(arrays, meta dict) of an npz artifact written by ``_write_npz``, each
    member read as numpy reads it, pickles refused.  The member named ``rows``,
    if it is stored as ``_write_npz`` stores a C-order float64 2-D array, is
    instead checked in one pass (``_check_rows``) and returned as a read-only
    ``RowFile`` on the file.  A missing file raises FileNotFoundError; a file
    that cannot be opened (a directory, say), no zip signature, a pickled or
    unreadable member (a CRC-32 mismatch or a corrupt deflate stream among
    them), non-finite rows, or a meta not a JSON object string a
    FieldFormatError naming ``what``."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise FieldFormatError(f"unreadable {what} npz ({exc})") from None
    fmt, checked = np.lib.format, None
    with fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FieldFormatError(f"not a wavelab {what} npz (no zip signature)")
        fh.seek(0)
        members = {}
        try:
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    name = info.filename.removesuffix(".npy")
                    with zf.open(info) as member:
                        if name == rows and info.compress_type == zipfile.ZIP_STORED:
                            # the header version, shape, order and dtype _write_npz writes
                            if fmt.read_magic(member) == (1, 0):
                                shape, fortran, dtype = fmt.read_array_header_1_0(member)
                                if dtype == np.float64 and len(shape) == 2 and not fortran:
                                    checked = (name, shape[1], *_check_rows(
                                        member, info, fh.fileno(), shape))
                                    continue
                            member.seek(0)
                        members[name] = fmt.read_array(member, allow_pickle=False)
        except (ValueError, OSError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            raise FieldFormatError(f"malformed {what} npz ({exc})") from None
        meta = members.pop("meta", np.array(None))
        try:
            meta = json.loads(meta[()]) if meta.shape == () and meta.dtype.kind == "U" else None
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise FieldFormatError(f"malformed {what} meta (not a JSON object string)")
        if checked is not None:
            name, width, start, lengths = checked
            members[name] = RowFile(path, width, fd=os.dup(fh.fileno()), start=start,
                                    lengths=lengths)
    return members, meta


def _check_rows(member, info, fd, shape):
    """One pass over ``member``, the stored zip member ``info`` of the file open
    as ``fd``, open and read past its npy header: C-order float64 rows of
    ``shape``.  Returns (the file offset of its rows, the length of each row).
    The rows are read _BLOCK_NODES cells at a time, zipfile checking the
    member's CRC-32 as the last of them comes in, and the pass checks that
    every value is finite.  A row's length is one past its last column holding
    a bit pattern other than +0.0, so -0.0 counts; every column from it on is
    +0.0."""
    rows, width = shape
    header = member.tell()
    if info.file_size != header + 8 * rows * width:
        raise ValueError(f"{info.filename}: {info.file_size} bytes do not hold shape {shape}")
    local = os.pread(fd, 30, info.header_offset)    # zipfile has read and checked it
    start = (info.header_offset + 30 + int.from_bytes(local[26:28], "little")
             + int.from_bytes(local[28:30], "little") + header)
    finite, lengths = True, array.array("q")
    step = max(1, min(rows, _BLOCK_NODES // max(width, 1)))
    for lo in range(0, rows, step):
        count = min(step, rows - lo)
        data = member.read(8 * width * count)
        if len(data) != 8 * width * count:
            raise EOFError(f"EOF: reading array data, expected {8 * width * count} bytes got "
                           f"{len(data)}")
        block = np.frombuffer(data).reshape(count, width)
        finite = finite and bool(np.isfinite(block).all())
        held = block.view(np.int64) != 0
        lengths.extend(np.where(held.any(axis=1), width - held[:, ::-1].argmax(axis=1), 0).tolist())
    if not finite:
        raise ValueError("stored samples must be finite")
    return start, lengths


class RowFile:
    """The rows of field.npz's ``samples`` member, in the file: written a level
    at a time by a march, or read back from a field.npz on disk.

    A writer, ``RowFile(path, width)``, creates the file with room for the
    member's zip header and npy header; the rows follow, (levels, width)
    float64 in C order, the npy payload.  ``append`` stages the next level's
    leading columns (the march's window) with +0.0 after them, and
    ``lengths`` records how many; the staged rows go to the file about
    _STAGE_BYTES at a time, one write each, and their CRC-32 into the
    payload's.  ``save(path, meta)`` writes the headers, the member's CRC-32
    combining the header's with the payload's, adds ``meta`` and the central
    directory with ``zipfile``, and renames the file to ``path``, making it
    the artifact ``_write_npz`` writes; so neither the march, nor the residual
    that reads the rows back, nor the writer holds the field.  ``close`` (or
    leaving a ``with`` block) removes the file if it was not saved.

    A reader (``RadialField.load``) is given ``fd``, the file opened read-only,
    the offset ``start`` of its rows and their ``lengths`` (each row is +0.0
    past its length); it neither writes nor removes the file, and ``close``
    only closes ``fd``.  A RowFile never closed closes its ``fd`` once it is
    collected.

    Every read goes through the file (preadv), never a mapping.
    ``rows[lo:hi]`` reads those rows into one buffer, kept for the next read
    (so a block is valid until then), and gives it cut one column of +0.0
    past the longest (every column after it is +0.0 too); ``rows[k, c0:c1]``
    reads the cells c0 .. c1 - 1 of level k, one read; ``rows[k, a]`` reads
    the values at the nodes (k, a), one read of the columns asked for per
    level.
    """

    dtype = np.dtype(np.float64)
    ndim = 2

    def __init__(self, path, width, fd=None, start=None, lengths=()):
        self.path, self.width, self.lengths = path, width, array.array("q", lengths)
        self._staged, self._crc, self._buf = 0, 0, np.empty(0)
        self._temporary = fd is None        # a writer's file, removed unless saved
        if fd is None:
            self._start = len(self._entry(0).FileHeader(zip64=True)) + len(_npy_header((0, width)))
            self._stage = np.empty((max(1, _STAGE_BYTES // (8 * width)), width))
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)     # as open() does
        else:
            self._start, self._stage = start, None
        self._fd = fd
        self._release = weakref.finalize(self, os.close, fd)

    @property
    def shape(self):
        return (len(self.lengths), self.width)

    @property
    def size(self):
        return len(self.lengths) * self.width

    def _entry(self, crc):
        """The samples member's zip entry, as ZipFile leaves it once written."""
        entry = _npz_entry("samples")
        entry.external_attr = 0o600 << 16
        entry.file_size = entry.compress_size = len(_npy_header(self.shape)) + 8 * self.size
        entry.CRC, entry.header_offset = crc, 0
        return entry

    def _writable(self):
        if self._stage is None:
            raise io.UnsupportedOperation(f"{self.path}: rows read back are read-only")

    def append(self, row):
        """The next level: ``row``, a contiguous float64 array, holds its leading
        columns, and +0.0 follows them."""
        self._writable()
        if self._staged == len(self._stage):
            self._flush()
        slot = self._stage[self._staged]
        slot[: row.size] = row
        slot[row.size :] = 0.0
        self._staged += 1
        self.lengths.append(row.size)

    def _flush(self):
        """Write the staged rows to their place and take them into the CRC-32."""
        if not self._staged:
            return
        rows = self._stage[: self._staged]
        offset = self._start + 8 * self.width * (len(self.lengths) - self._staged)
        if os.pwrite(self._fd, rows, offset) != rows.nbytes:
            raise OSError(errno.ENOSPC, "short write", str(self.path))
        self._crc = zlib.crc32(rows, self._crc)
        self._staged = 0

    def _read(self, out, cell):
        """The cells from the row-major index ``cell`` on into the contiguous array ``out``."""
        self._flush()
        got = os.preadv(self._fd, [out], self._start + 8 * cell)
        if got != out.nbytes:
            raise EOFError(f"{self.path}: expected {out.nbytes} bytes, got {got}")

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, _ = key.indices(len(self.lengths))
            if self._buf.size < max(hi - lo, 0) * self.width:
                self._buf = np.empty((hi - lo) * self.width)
            out = self._buf[: max(hi - lo, 0) * self.width].reshape(-1, self.width)
            if out.size:
                self._read(out, lo * self.width)
            return out[:, : min(self.width, max(self.lengths[lo:hi], default=0) + 1)]
        k, a = key
        if isinstance(a, slice):
            (c0, c1, step), k = a.indices(self.width), range(len(self.lengths))[k]
            if step != 1:
                raise IndexError("a run of cells takes no step")
            out = np.empty(max(c1 - c0, 0))
            if out.size:
                self._read(out, k * self.width + c0)
            return out
        k, a = np.broadcast_arrays(k, a)
        if a.size and (a.min() < 0 or a.max() >= self.width):
            raise IndexError(f"columns out of 0 .. {self.width - 1}")
        out = np.empty(k.shape)
        for level in set(k.ravel().tolist()):
            at = k == level
            cols = a[at]
            c0 = int(cols.min())
            out[at] = self[level, c0 : int(cols.max()) + 1][cols - c0]
        return out

    def save(self, path, meta):
        self._writable()
        self._flush()
        npy = _npy_header(self.shape)
        entry = self._entry(_crc32_combine(zlib.crc32(npy), self._crc, 8 * self.size))
        os.pwrite(self._fd, entry.FileHeader(zip64=True) + npy, 0)
        with open(self._fd, "r+b", closefd=False) as fh:
            fh.seek(self._start + 8 * self.size)
            with zipfile.ZipFile(fh, "w") as zf:
                zf.filelist.append(entry)
                _write_members(zf, {}, meta)
        os.replace(self.path, path)
        self.path, self._temporary = path, False

    def close(self):
        if self._fd is not None:
            self._release()
            self._fd = None
            if self._temporary:
                os.unlink(self.path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_skewed(samples, L0, s0, out):
    """Fill ``out``, a C-contiguous float64 array, with out[L - L0, L + c - s0] =
    samples[L, c] for its levels L = L0, L0 + 1, ... and each cell c that both
    ``out`` and the lattice hold; the rest of ``out`` is left as it is.  Each
    level is one run of cells: an array's are copied, a ``RowFile``'s read from
    the file straight into ``out``, one preadv a level.  Levels off the lattice
    raise IndexError."""
    levels, width = samples.shape
    rows, span = out.shape
    if L0 < 0 or L0 + rows > levels:
        raise IndexError(f"levels {L0} .. {L0 + rows - 1} leave the lattice")
    runs = [(L, max(0, s0 - L), min(width, s0 + span - L)) for L in range(L0, L0 + rows)]
    if not isinstance(samples, RowFile):
        for L, c0, c1 in runs:
            if c1 > c0:
                out[L - L0, L + c0 - s0 : L + c1 - s0] = samples[L, c0:c1]
        return
    samples._flush()
    fd, start, cells = samples._fd, samples._start, memoryview(out).cast("B")
    for L, c0, c1 in runs:      # a loop of bare preadv calls: one a level, each a few cells
        if c1 > c0:
            at = 8 * ((L - L0) * span + L + c0 - s0)
            got = os.preadv(fd, [cells[at : at + 8 * (c1 - c0)]], start + 8 * (L * width + c0))
            if got != 8 * (c1 - c0):
                raise EOFError(f"{samples.path}: expected {8 * (c1 - c0)} bytes, got {got}")


def _zeros(shape):
    """A (rows, width) float64 field of zeros.  Under _HUGE_PAGE_BYTES it is
    ``np.zeros``.  From there on it lies in a private anonymous mapping, each row
    starting on a page boundary, its stride rounded up to whole pages: a page is
    resident only once written and never holds cells of two rows, so the pages
    of a light cone's rows hold no row's +0.0 tail past it, and a cell never
    written reads the kernel's shared zero page.  Huge pages are declined (numpy
    asks for them on its own arrays of 4 MiB or more), so one write makes 4 KiB
    resident, not 2 MiB.  Readers go by the array's own strides."""
    rows, width = shape
    if 8 * rows * width < _HUGE_PAGE_BYTES:
        return np.zeros(shape)
    stride = -(-8 * width // mmap.PAGESIZE) * mmap.PAGESIZE
    buf = mmap.mmap(-1, rows * stride, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray(shape, np.float64, buf, strides=(stride, 8))


# ---------------------------------------------------------------------------
# Homogeneous part by d'Alembert with odd extension
# ---------------------------------------------------------------------------

def _dalembert(I_up, I_down, F_up, F_down, r, out, even):
    """ubar0 off the axis into ``out``: ((I_up - I_down)/2 + (F_up + F_down)/2) / r,
    in this operand order for every caller (``even`` is scratch of out's shape)."""
    np.subtract(I_up, I_down, out=out)
    out *= 0.5
    np.add(F_up, F_down, out=even)
    even *= 0.5
    out += even
    out /= r


class HomogeneousPart:
    """ubar0, the solution of the homogeneous problem, evaluated from 1-D tables.

    By d'Alembert with odd-extended data, ubar0(r, t) = [Ff(r+t) + Ff(r-t) +
    Ig(r+t) - Ig(|r-t|)] / (2r), with Ff(y) = y*fbar(|y|) and Ig the exact
    running moment of y*gbar(y); at r = 0, ubar0(0, t) = fbar(t) + t*fbar'(t) +
    t*gbar(t).  Compact support is honoured to round-off: ubar0 is +0.0
    wherever |r - t| > rho (sharp Huygens), rho the larger of the two
    profiles' radii.

    ubar0 lives on the band |i - j| <= b around the lattice diagonal, b =
    floor(rho/h) + 2 > rho/h, so the band's edges hold the +0.0 of every node
    off it.  The node (i, j) reads the tables at n_t + i + j and n_t + i - j
    (each padded with b zeros at both ends) and divides by r_i (1.0 at i <= 0
    and i > n_r); nodes off the lattice read +0.0 and the r = 0 values stand
    at i = 0 for j <= b.  Only the tables and the r = 0 values are kept, O(n_r
    + n_t) numbers: :meth:`blocks` gives the band a block of levels at a time
    and :meth:`at` any nodes, in the same operand order (``_dalembert``), so
    every value is the same bits either way.  A lattice longer than it is wide
    (n_t > n_r), which no march runs, raises ValueError.
    """

    def __init__(self, fbar: RadialProfile, gbar: RadialProfile, grid: CharGrid):
        n_r, n_t = grid.n_r, grid.n_t
        if n_t > n_r:
            raise ValueError("ubar0 needs n_t <= n_r (a lattice no longer than it is wide)")
        self.n_r, self.n_t = n_r, n_t
        self.b = b = int(max(fbar.rho, gbar.rho) / grid.h) + 2
        y = grid.h * np.arange(-n_t, n_r + n_t + 1)
        self._F, self._I = np.pad(y * fbar(np.abs(y)), b), np.pad(gbar.moment_integral(y), b)
        self._r = np.ones(n_r + 1 + 2 * b)          # r_i at i + b
        self._r[b + 1 : b + n_r + 1] = grid.r_values()[1:]
        tv = grid.t_values(min(b, n_t) + 1)
        self._axis = fbar(tv) + tv * fbar.derivative(tv) + tv * gbar(tv)

    def blocks(self, levels=None):
        """(lo, U) for the levels 0..levels - 1 (all of them by default), in blocks
        of about _BAND_CELLS cells (one level at least): U[j - lo, k] is ubar0 at
        the node (j + k - b, j), k = 0..2b.  Row j combines the tables' windows at
        n_t + 2j and at n_t.  Every block is written into one buffer, so a block
        is valid until the next is asked for."""
        n_r, n_t, b = self.n_r, self.n_t, self.b
        levels = n_t + 1 if levels is None else levels
        n = 2 * b + 1
        F, I, R = (sliding_window_view(v, n) for v in (self._F, self._I, self._r))
        rows = max(1, _BAND_CELLS // n)
        buf, even = np.empty((2, min(rows, levels), n))
        k = np.arange(n)
        for lo in range(0, levels, rows):
            hi = min(lo + rows, levels)
            u, up = buf[: hi - lo], slice(n_t + 2 * lo, n_t + 2 * hi, 2)
            _dalembert(I[up], I[n_t], F[up], F[n_t], R[lo:hi], u, even[: hi - lo])
            if lo < b or hi - 1 > n_r - b:                      # cells off the lattice
                j = np.arange(lo, hi)[:, None]
                u[(k < b - j) | (k > n_r + b - j)] = 0.0      # i < 0 or i > n_r
            j = np.arange(lo, min(hi, b + 1))
            u[j - lo, b - j] = self._axis[j]
            yield lo, u

    def at(self, i, j):
        """ubar0 at the nodes (i, j), integer arrays of one shape with 0 <= j <=
        n_t; a node off the band, |i - j| > b, reads the +0.0 of the band's edge."""
        n_r, n_t, b = self.n_r, self.n_t, self.b
        i = j + np.clip(i - j, -b, b)
        up, down = n_t + b + i + j, n_t + b + i - j
        u, even = np.empty((2, *np.shape(i)))
        _dalembert(self._I[up], self._I[down], self._F[up], self._F[down], self._r[i + b],
                   u, even)
        u[(i < 0) | (i > n_r)] = 0.0
        axis = (i == 0) & (j <= b)
        u[axis] = self._axis[j[axis]]
        return u


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
                divergence_factor: float = DEFAULT_DIVERGENCE_FACTOR,
                ubar0: Optional[HomogeneousPart] = None,
                rows: Optional[RowFile] = None) -> MarchedField:
    """March the fixed point ubar = ubar0 + A*P(|ubar|^p) up the lattice.

    ``ubar0`` is the data's ``HomogeneousPart``, built here if not given, so a
    caller that reads ubar0 again builds its tables once.

    The march stops with status "blown_up" at the first level whose max
    amplitude reaches the threshold or jumps by more than the divergence
    factor in a single step (a result, not an error), and with status "error"
    at the first level whose u or |u|^p is not finite; only the levels before
    it are kept.  Each level it keeps is handed on as soon as it is accepted:
    its max|u|, which the stopping test took, goes to the result's
    ``level_max``, and its row is appended to ``rows``.  With ``rows`` the
    march holds no field, u lives in three rows used in turn (a step reads no
    level older than the one before it), and the result's samples are
    ``rows``; without, u is the field, held in memory (``_zeros``).

    One predictor/corrector pass settles each level.  ubar0's band is read a
    block of levels at a time (``HomogeneousPart.blocks``), and level j's row
    of it is copied into one u0 row on the columns max(0, j - b) .. j + b;
    left of them the row keeps the +0.0 of earlier bands' edges k = 0.
    Everything else lives in rows allocated once: A*lambda*|u|^p at two
    levels, the auxiliary w = r*ubar1 at three, the extrapolated and the
    predicted level, the part ``base`` both passes share, a scratch row and
    the axis sums.  The solution vanishes beyond r_max: the right neighbour
    of the last column is the exact zero kept at the end of every F and w
    row.  The axis value is the
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
    start at +0.0, skip only +0.0 terms.  The samples are the same either way,
    and a level is handed on as its window (a u row is written only there, so
    past it the row holds +0.0).  A field held in memory is ``_zeros``: one of
    4 MiB or more keeps in memory only the pages its light cone writes.
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
    if ubar0 is None:
        ubar0 = HomogeneousPart(problem.f_profile, problem.g_profile, grid)
    b = ubar0.b
    band_rows = (row for _, block in ubar0.blocks() for row in block)
    # u at level j in the row j % len(u): three rows in turn, or the held field
    u = np.zeros((3, n_r + 1)) if rows is not None else _zeros((n_t + 1, n_r + 1))
    level_max = np.empty(n_t + 1)

    def accept(j, row, m):
        """Hand level j on: ``row`` is its window, ``m`` its max|u|."""
        level_max[j] = m
        if rows is not None:
            rows.append(row)

    F = np.zeros((2, n_r + 2))         # A*lambda*|u|^p at levels j and j - 1
    w = np.zeros((3, n_r + 2))         # w at levels j + 1, j and j - 1
    u_star, u_pre = np.empty(n_r + 1), np.zeros(n_r + 1)
    base, tmp = np.empty(n_r), np.empty(n_r + 1)
    axis = np.zeros(n_t + n_r + 1)     # A*P(|u|^p)(0, Jh), summed over the levels so far
    zeros = np.zeros(n_r + 1)          # 0 * x is finite unless x is NaN or +-inf
    u0 = np.zeros(n_r + 1)             # ubar0 at the level being marched

    u[0, : b + 1] = next(band_rows)[b : b + n_r + 1]
    c = min(n_r + 1, b)
    sigma(u[0, :c], F[0, :c])
    np.multiply(alam[:c], F[0, :c], out=F[0, :c])
    axis[1:c] += 0.5 * h * F[0, 1:c]
    status, t_b, defined = "complete", None, n_t + 1
    m_prev = float(np.max(np.abs(u[0])))
    accept(0, u[0, : b + 1], m_prev)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_t):
            new, t_new = j + 1, (j + 1) * h
            c = min(n_r + 1, new + b)      # the new level's columns 0..c-1
            lo, hi = max(0, new - b), min(n_r + 1, new + b + 1)
            u0[lo:hi] = next(band_rows)[lo - new + b : hi - new + b]
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
                star = np.multiply(u[j % len(u), :c], 2.0, out=u_star[:c])
                np.subtract(star, u[(j - 1) % len(u), :c], out=star)

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
            un, un_in, wn_in = u[new % len(u), :c], u[new % len(u), 1:c], w[j % 3, 1:c]
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
            accept(new, un, m_new)

    return MarchedField(grid, u[:defined] if rows is None else rows, status=status, t_b=t_b,
                        p=problem.p, A=problem.A, level_max=level_max[:defined])


# ---------------------------------------------------------------------------
# Blow-up time extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupFit:
    t_b: float
    fitted_t_b: float
    fitted_exponent: float


def detect_blowup_time(status: str, t_b: Optional[float], grid: CharGrid,
                       amps: np.ndarray) -> Optional[BlowupFit]:
    """t_b plus a least-squares fit of max|u|(t) ~ c*(t_b' - t)^nu near the end.

    Takes a field's status and t_b, its grid and its max|u| per level
    (``MarchedField.level_max``, as the march took it), one per stored level,
    so the field itself need not be held.  Returns None for fields that did not blow up.  The fit
    scans candidate singular times just beyond the last computed level and
    regresses log-max against log(t_b' - t); for the power nonlinearity the
    expected exponent is nu = -2/(p-1).
    """
    if status != "blown_up":
        return None
    h, n_levels = grid.h, amps.size
    ts = grid.t_values(n_levels)
    amp_end = amps[-1]
    window = np.nonzero(amps >= max(amp_end * 1e-3, 1e-300))[0]
    window = window[-60:]
    if window.size < 5:
        window = np.arange(max(0, n_levels - 5), n_levels)
    aw = amps[window]
    tw = ts[window]
    t_end = ts[-1]
    best = (np.inf, t_b, -2.0)
    for bump in np.geomspace(0.25, 8.0, 48):
        t_cand = t_end + bump * h
        x = np.log(t_cand - tw)
        y = np.log(aw)
        slope, intercept = np.polyfit(x, y, 1)
        sse = float(np.sum((y - (slope * x + intercept)) ** 2))
        if sse < best[0]:
            best = (sse, t_cand, float(slope))
    return BlowupFit(t_b, best[1], best[2])


# ---------------------------------------------------------------------------
# Residual against the independent quadrature
# ---------------------------------------------------------------------------

def integral_residual(problem: Problem, field: RadialField,
                      ubar0: Optional[HomogeneousPart] = None) -> dict:
    """Residual u - u0 - A*P(|u|^p) on a deterministic interior subsample.

    Interior means 1 <= i, 1 <= j, and i + j <= n_r so the influence region
    fits the lattice.  The nodes form a square sub-lattice whose stride keeps
    at most _RESIDUAL_NODES of them.  P is evaluated at all of them by one
    regions.influence_quadrature sweep (one pass over the lattice inside the
    light cone plus O(1) per node), which reads lambda |u|^p from the field
    diagonal by diagonal and starts from the nonzeros of u, so no source array
    is built.  u0 is evaluated at the nodes alone (``HomogeneousPart.at``) from
    ``ubar0``, built here if not given.
    """
    grid = field.grid
    n_lev = field.n_levels
    total = sum(max(0, min(grid.n_r - 1, grid.n_r - j)) for j in range(1, n_lev))
    stride = max(1, int(np.ceil(np.sqrt(max(total, 1) / _RESIDUAL_NODES))))
    jj, ii = np.meshgrid(np.arange(1, n_lev, stride), np.arange(1, grid.n_r, stride),
                         indexing="ij")
    keep = ii + jj <= grid.n_r
    jj, ii = jj[keep], ii[keep]
    integral = influence_quadrature(field.samples, ii, jj,
                                    source=_lambda_source(grid.h, _power_source(problem.p)))
    if ubar0 is None:
        ubar0 = HomogeneousPart(problem.f_profile, problem.g_profile, grid)
    res = field.samples[jj, ii] - ubar0.at(ii, jj)
    res -= problem.A * (integral * grid.h * grid.h / (2.0 * ii * grid.h))
    if res.size == 0:
        return {"residual_linf": 0.0, "residual_l2": 0.0, "nodes": 0}
    return {
        "residual_linf": float(np.max(np.abs(res))),
        "residual_l2": float(np.sqrt(np.mean(res**2))),
        "nodes": int(res.size),
    }

