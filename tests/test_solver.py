import dataclasses
import gc
import io
import json
import mmap
import os
import weakref
import zipfile
import zlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wavelab import cli, diagnostics, solver
from wavelab.config import parse_run_config
from wavelab.profiles import RadialProfile, bump_profile, zero_profile
from wavelab.diagnostics import select_t2_delta
from wavelab.regions import influence_quadrature
from wavelab.solver import (CharGrid, FieldFormatError, HomogeneousPart, Problem, RadialField,
                            RowFile, _read_npz, _write_npz, detect_blowup_time,
                            integral_residual, read_skewed, solve_march)
from wavelab.spherical import ScalarField3, build_sphere_quadrature, spherical_mean

import continuum_oracle
import march_oracle
from conftest import RHO, blowup_problem, held, traced_peak
from march_oracle import apply_P
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
        march_oracle.index_of(g, 3.0, 0.0)


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
    with RadialField.load(a) as back:
        assert back.samples.dtype == np.float64
        assert held(back.samples).tobytes() == vals.tobytes()
        assert back.grid == g
        assert (back.status, back.t_b, back.p, back.A) == ("blown_up", 0.7000000000000001,
                                                             1 + 2**0.5, 0.1)
    plain = RadialField(g, vals)
    plain.save(a)
    with RadialField.load(a) as back:
        assert back.status == "complete" and back.t_b is None and back.p is None and back.A is None


def test_field_save_load_keeps_every_dataclass_field(tmp_path):
    # RadialField holds exactly what save writes: each of its fields comes back
    g = CharGrid(0.25, 2.0, 1.0)
    f = RadialField(g, np.arange(5 * 9, dtype=float).reshape(5, 9) / 3.0,
                    status="blown_up", t_b=1.25, p=2.5, A=0.5)
    f.save(tmp_path / "f.npz")
    with RadialField.load(tmp_path / "f.npz") as back:
        for fd in dataclasses.fields(RadialField):
            got, want = getattr(back, fd.name), getattr(f, fd.name)
            assert fd.default is dataclasses.MISSING or want != fd.default, fd.name
            if isinstance(want, np.ndarray):
                got = held(got)                     # samples read back from the file
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


def _light_cone_samples():
    """13 levels x 17 columns: a signed interior and a +0.0 tail past column 8, with
    -0.0 cells in the tail, an interior +0.0 run, a nonzero in the last column, and
    all-zero rows (levels 10 and 11, one whole block at two rows a block)."""
    vals = np.random.default_rng(7).standard_normal((13, 17))
    vals[:, 9:] = 0.0
    vals[2, 14] = vals[6, 16] = vals[7, 9] = -0.0
    vals[4, 2:6] = 0.0
    vals[8, 16] = 2.5
    vals[10:12] = 0.0
    return vals


@pytest.mark.parametrize("block_nodes", [2**15, 40, 17])
@pytest.mark.parametrize("case", ["light_cone", "fortran", "one_row", "one_zero_row"])
def test_field_load_is_bitwise_numpys_read(tmp_path, monkeypatch, block_nodes, case):
    # the loader's checking pass reads C-order samples by blocks (13 rows in
    # one block, or 2 or 1 rows a block, so 13 rows are not a multiple of it)
    # and keeps them on disk: read back whole, by blocks of rows, by runs of
    # a level's cells or at nodes they are numpy's bits, and each row's
    # length ends at its last column other than +0.0 (-0.0 counts).
    # Fortran-order samples are numpy's own read, in memory
    monkeypatch.setattr(solver, "_BLOCK_NODES", block_nodes)
    vals = _light_cone_samples()
    if case == "fortran":
        vals = np.asfortranarray(vals)
    elif case == "one_row":
        vals = vals[8:9]
    elif case == "one_zero_row":
        vals = vals[10:11]
    g = CharGrid(0.25, 4.0, 0.25 * (len(vals) - 1))
    path = tmp_path / "f.npz"
    RadialField(g, vals, p=2.0, A=1.0).save(path)
    with np.load(path) as npz:
        want = npz["samples"]
    with RadialField.load(path) as field:
        got = field.samples
        assert got.shape == want.shape == vals.shape
        if case == "fortran":
            assert isinstance(got, np.ndarray) and got.flags.f_contiguous
            assert got.tobytes("A") == want.tobytes("A") == vals.tobytes("A")
            return
        assert isinstance(got, RowFile)
        assert held(got).tobytes() == want.tobytes() == vals.tobytes()
        bits = want.view(np.int64) != 0
        assert list(got.lengths) == [int(np.flatnonzero(row).max()) + 1 if row.any() else 0
                                     for row in bits]
        for lo in range(len(want)):
            block = got[lo : lo + 3]
            assert block.tobytes() == want[lo : lo + 3, : block.shape[1]].tobytes()
            assert not want[lo : lo + 3, block.shape[1] :].view(np.int64).any()
            assert got[lo, 2:11].tobytes() == want[lo, 2:11].tobytes()
        k, a = np.nonzero(np.ones_like(want, dtype=bool))
        assert got[k[::-1], a[::-1]].tobytes() == want[k[::-1], a[::-1]].tobytes()


def test_field_load_checks_the_crc(tmp_path):
    # one flipped byte inside the samples' data: zipfile's CRC-32 check at the
    # member's end makes it a FieldFormatError
    g = CharGrid(0.25, 4.0, 3.0)
    vals = _light_cone_samples()
    path = tmp_path / "f.npz"
    RadialField(g, vals).save(path)
    raw = bytearray(path.read_bytes())
    at = raw.index(vals[5].tobytes()) + 3
    raw[at] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="CRC"):
        RadialField.load(path)
    # a foreign writer's deflated member: a corrupt stream is a FieldFormatError too
    np.savez_compressed(path, samples=vals, meta=np.array('{"h": 0.25}'))
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("samples.npy")
    raw = path.read_bytes()
    at = info.header_offset + 26                  # the local header's name and extra lengths
    start = at + 4 + sum(int.from_bytes(raw[k : k + 2], "little") for k in (at, at + 2))
    for at in range(start, start + 8):
        bad = bytearray(raw)
        bad[at] ^= 0xFF
        path.write_bytes(bytes(bad))
        with pytest.raises(FieldFormatError, match="npz"):
            RadialField.load(path)


def _written_bytes(array):
    """Bytes of the pages under ``array`` that are present and mapped by this process
    alone (/proc/self/pagemap bits 63 and 56): the pages it wrote.  A page read but
    never written maps the kernel's shared zero page and is not counted.  The
    array's own pages are read, not its mapping's Rss in /proc/self/smaps: the
    kernel merges adjacent mappings of equal flags, two fields' among them."""
    page = os.sysconf("SC_PAGE_SIZE")
    addr = array.__array_interface__["data"][0]
    first, last = addr // page, (addr + array.nbytes - 1) // page
    with open("/proc/self/pagemap", "rb") as fh:
        fh.seek(8 * first)
        bits = np.frombuffer(fh.read(8 * (last - first + 1)), dtype=np.uint64)
    written = (bits >> np.uint64(63)) & (bits >> np.uint64(56)) & np.uint64(1)
    return int(written.sum()) * page


@pytest.mark.skipif(not os.path.exists("/proc/self/pagemap"), reason="needs /proc/self/pagemap")
def test_field_memory_is_resident_only_inside_the_light_cone(crit4_run, tmp_path):
    # u is +0.0 past r = rho + t: half the cells of the README field at rho/128,
    # and 28 % of its 4 KiB pages (a page also holds the end of a row's window or
    # the start of the next row).  The march never writes those pages, so they
    # stay the kernel's zero page: 0.72x the field is written.  A field loaded
    # from field.npz holds no samples at all: the load keeps them on disk, and
    # its checking pass holds about two blocks of rows (measured 0.018x the field traced)
    _, field = crit4_run
    dense = field.samples.copy()                     # every page written: the control
    assert _written_bytes(dense) > 0.95 * dense.nbytes
    del dense
    assert _written_bytes(field.samples) < 0.8 * field.samples.nbytes
    path = tmp_path / "f.npz"
    field.save(path)
    loaded, peak = traced_peak(RadialField.load, path)
    with loaded:
        assert isinstance(loaded.samples, RowFile) and loaded.samples.shape == field.samples.shape
        assert peak <= 0.02 * field.samples.nbytes


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
    _, peak = traced_peak(RadialField, g, vals)
    assert peak <= 0.02 * vals.nbytes


def _marches(statuses=("blown_up", "complete", "error")):
    """(status, problem, grid, march limits) of a coarse run ending in each
    status: the README bump, the same at amplitude 1, and p = 3 whose |u|^p
    overflows."""
    runs = {"blown_up": (CharGrid(RHO / 16, RHO + 16.0, 16.0), {}, ()),
            "complete": (CharGrid(RHO / 16, RHO + 16.0, 16.0), {"amplitude": 1.0}, ()),
            "error": (CharGrid(RHO / 16, RHO + 20.0, 20.0), {"amplitude": 24.0, "p": 3.0},
                      (1e300, np.inf))}
    for status in statuses:
        grid, data, limits = runs[status]
        yield status, blowup_problem(grid, **data), grid, limits


def test_march_level_max_is_max_abs_of_each_level():
    # the march hands on each level's max|u| as its stopping test took it:
    # bitwise max|u| of every stored level, +0.0 (no signbit) on zero levels
    gr = CharGrid(RHO / 16, RHO + 4.0, 4.0).r_values()
    zero = ("complete", Problem(2.0, 1.0, zero_profile(RHO, gr), zero_profile(RHO, gr)),
            CharGrid(RHO / 16, RHO + 4.0, 4.0), ())
    for status, prob, grid, limits in (*_marches(), zero):
        fld = solve_march(prob, grid, *limits)
        want = np.max(np.abs(fld.samples), axis=1)
        assert fld.status == status and fld.level_max.shape == (fld.n_levels,)
        assert fld.level_max.tobytes() == want.tobytes()
        assert not np.any(np.signbit(fld.level_max))


def test_field_save_writes_numpys_bytes_with_no_field_copy(tmp_path):
    # every member is the npy numpy writes, for C-ordered, Fortran-ordered,
    # strided and 0-d arrays alike; the samples are written from their buffer
    g = CharGrid(1 / 64, 8.0, 4.0)
    vals = np.random.default_rng(6).normal(size=(g.n_t + 1, g.n_r + 1))
    fld = RadialField(g, vals, p=2.0, A=1.0)
    _, peak = traced_peak(fld.save, tmp_path / "f.npz")
    assert peak <= 0.02 * vals.nbytes
    members = {"c": vals[:5], "f": np.asfortranarray(vals[:5, :9]), "strided": vals[::7, ::3],
               "zero_d": np.array(2.5), "empty": np.zeros((0, 3)), "ints": np.arange(4)}
    _write_npz(tmp_path / "m.npz", members, {"k": 1})
    with zipfile.ZipFile(tmp_path / "m.npz") as zf:
        for name, value in (*members.items(), ("meta", np.array('{"k": 1}'))):
            want = io.BytesIO()
            np.lib.format.write_array(want, value, allow_pickle=False)
            assert zf.read(name + ".npy") == want.getvalue(), name


def test_zeros_rows_start_on_pages_from_the_huge_page_size():
    # a field of 4 MiB or more lies on rows whose stride is whole pages, so no
    # page holds cells of two rows; below that it is plain contiguous zeros
    page = mmap.PAGESIZE
    for rows, width in ((1926, 2177), (512, 1024), (4, 131073)):
        z = solver._zeros((rows, width))
        assert 8 * rows * width >= solver._HUGE_PAGE_BYTES and z.shape == (rows, width)
        assert z.strides[1] == 8 and z.strides[0] % page == 0
        assert 8 * width <= z.strides[0] < 8 * width + page
        z[-1, -1] = 1.0
        assert z.sum() == 1.0
    for shape in ((511, 1024), (900, 545), (0, 5), (5, 0)):
        z = solver._zeros(shape)
        assert z.shape == shape and z.flags.c_contiguous and not np.any(z)


def test_streamed_field_writes_the_in_memory_fields_bytes(tmp_path):
    # a march that appends its levels to a RowFile writes field.npz byte for
    # byte as _write_npz writes the same march held in memory, and keeps the
    # same max|u| per level, whether it completes, blows up or stops on an error
    for status, prob, grid, limits in _marches():
        held = solve_march(prob, grid, *limits)
        held.save(tmp_path / f"{status}-held.npz")
        with RowFile(tmp_path / f"{status}.rows", grid.n_r + 1) as rows:
            streamed = solve_march(prob, grid, *limits, rows=rows)
            assert streamed.samples is rows and rows.shape == held.samples.shape
            streamed.save(tmp_path / f"{status}.npz")
        assert held.status == streamed.status == status
        assert streamed.level_max.tobytes() == held.level_max.tobytes()
        assert ((tmp_path / f"{status}.npz").read_bytes()
                == (tmp_path / f"{status}-held.npz").read_bytes()), status
        assert not (tmp_path / f"{status}.rows").exists()


def test_residual_of_streamed_rows_is_the_in_memory_ones(tmp_path):
    # integral_residual on the rows a march appended to a RowFile, read back a
    # block of rows and the residual's nodes at a time, is bitwise the residual
    # of the same march held in memory
    for status, prob, grid, limits in _marches(("blown_up", "complete")):
        held = solve_march(prob, grid, *limits)
        want = integral_residual(prob, held)
        with RowFile(tmp_path / f"{status}.rows", grid.n_r + 1) as rows:
            got = integral_residual(prob, solve_march(prob, grid, *limits, rows=rows))
        assert held.status == status and want["nodes"] > 1000
        assert json.dumps(got) == json.dumps(want)


def test_row_file_reads_back_what_was_appended(tmp_path):
    # rows of any length, the rest of each row +0.0: read back by blocks of
    # rows (cut one column of +0.0 past the longest) and at nodes as the array
    # they make, and saved as the npz _write_npz writes of it; a file not saved
    # is removed
    rng = np.random.default_rng(3)
    width, lengths = 7, (7, 3, 0, 5, 7, 1, 2)
    want = np.zeros((len(lengths), width))
    with RowFile(tmp_path / "r", width) as rows:
        for k, n in enumerate(lengths):
            want[k, :n] = rng.normal(size=n)
            rows.append(np.ascontiguousarray(want[k, :n]))
        assert rows.shape == want.shape and rows.size == want.size
        for (lo, hi), cut in (((0, 6), 7), ((1, 4), 6), ((5, 9), 3), ((3, 3), 1), ((2, 3), 1)):
            got = rows[lo:hi]
            assert got.shape == (len(want[lo:hi]), cut)
            assert got.tobytes() == want[lo:hi, :cut].tobytes()
            assert cut == width or not want[lo:hi, cut - 1 :].any()
        k, a = np.array([[5, 0], [3, 3]]), np.array([[0, 6], [4, 0]])
        assert rows[k, a].tobytes() == want[k, a].tobytes()
        rows.save(tmp_path / "f.npz", {"k": 1})
        assert rows[0:7].tobytes() == want.tobytes()
    _write_npz(tmp_path / "want.npz", {"samples": want}, {"k": 1})
    assert (tmp_path / "f.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.npz", "want.npz"]
    with RowFile(tmp_path / "gone", 3) as rows:
        rows.append(np.ones(2))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.npz", "want.npz"]


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def test_loaded_rows_are_read_only_and_leave_the_file(tmp_path):
    # a field read back from field.npz is a reader on the file: it refuses to
    # append or save, reads past its rows or columns raise IndexError, and
    # leaving the field closes the file and keeps it with its bytes, mode and
    # mtime; a load refused after the checking pass (an off-lattice meta)
    # keeps no file open either
    g = CharGrid(0.25, 4.0, 3.0)
    vals = _light_cone_samples()
    path = tmp_path / "f.npz"
    RadialField(g, vals, p=2.0, A=1.0).save(path)
    os.chmod(path, 0o444)
    before, fds = (path.read_bytes(), path.stat().st_mode, path.stat().st_mtime_ns), _open_fds()
    with RadialField.load(path) as field:
        rows = field.samples
        assert _open_fds() == fds + 1 or not fds
        with pytest.raises(io.UnsupportedOperation, match="read-only"):
            rows.append(np.ones(3))
        with pytest.raises(io.UnsupportedOperation, match="read-only"):
            rows.save(tmp_path / "g.npz", {})
        for key in ((13, slice(0, 3)), (0, slice(0, 3, 2)), (np.array([1]), np.array([17])),
                    (np.array([1]), np.array([-1]))):
            with pytest.raises(IndexError):
                rows[key]
        for L0, count in ((-1, 3), (11, 3), (0, 14)):
            with pytest.raises(IndexError, match="leave the lattice"):
                read_skewed(rows, L0, 0, np.empty((count, 4)))
        # a skewed read gives the array's cells and leaves those off the lattice
        want, got = np.full((13, 9), 7.0), np.full((13, 9), 7.0)
        read_skewed(vals, 0, 12, want)
        read_skewed(rows, 0, 12, got)
        assert got.tobytes() == want.tobytes() and (want == 7.0).any() and (want != 7.0).any()
        assert rows[-1, 0:20].tobytes() == vals[-1].tobytes() and rows[3, 5:5].size == 0
        assert rows[12:20].shape == (1, 10) and rows[20:30].shape == (0, 1)     # cut past col 8
    assert (path.read_bytes(), path.stat().st_mode, path.stat().st_mtime_ns) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.npz"] and _open_fds() == fds
    with np.load(path) as npz:
        meta = json.loads(npz["meta"][()])
    _write_npz(tmp_path / "off.npz", {"samples": vals}, {**meta, "r_max": 4.1})
    with pytest.raises(FieldFormatError, match="r_max"):
        RadialField.load(tmp_path / "off.npz")
    assert _open_fds() == fds


def test_a_loaded_field_left_open_closes_its_file_once_collected(tmp_path):
    # a load outside a with block that is dropped keeps no file open
    path = tmp_path / "f.npz"
    RadialField(CharGrid(0.25, 4.0, 3.0), _light_cone_samples()).save(path)
    fds = _open_fds()
    field = RadialField.load(path)
    assert isinstance(field.samples, RowFile) and (_open_fds() == fds + 1 or not fds)
    del field
    gc.collect()
    assert _open_fds() == fds


def test_crc32_combine_is_zlibs():
    rng = np.random.default_rng(8)
    for n1, n2 in ((0, 0), (5, 0), (0, 7), (128, 1000), (3, 1 << 20)):
        a, b = rng.bytes(n1), rng.bytes(n2)
        assert solver._crc32_combine(zlib.crc32(a), zlib.crc32(b), n2) == zlib.crc32(a + b)


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
    i0 = march_oracle.index_of(p_grid, 0.25, 0.0)[0]
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
    U = march_oracle.band_of(HomogeneousPart(zero_profile(1.0, gr), zero_profile(1.0, gr), grid))
    assert np.all(U == 0.0)


def test_linear_radial_huygens_support_exact():
    grid = CharGrid(1 / 128, 3.0, 2.0)
    gr = grid.r_values()
    f = bump_profile(5.0, RHO, gr)
    g = bump_profile(-2.0, RHO, gr)
    u0 = march_oracle.on_lattice(HomogeneousPart(f, g, grid), grid)
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
    i, j = march_oracle.index_of(grid, 0.0, 0.5)
    u0 = HomogeneousPart(zero_profile(1.0, gr), g, grid).at(np.array([i]), np.array([j]))
    assert u0[0] == pytest.approx(0.5, rel=1e-12)


def test_linear_radial_against_kirchhoff_oracle():
    # independent oracle: iterated sphere quadrature of the retarded data
    grid = CharGrid(1 / 64, 3.0, 2.0)
    gr = grid.r_values()
    g = bump_profile(3.0, RHO, gr)
    u0 = march_oracle.on_lattice(HomogeneousPart(zero_profile(RHO, gr), g, grid), grid)
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
        i, j = march_oracle.index_of(grid, r, t)
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
    got = march_oracle.on_lattice(HomogeneousPart(f, g, grid), grid)
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
    got = march_oracle.on_lattice(HomogeneousPart(f, g, grid), grid)
    want = _pointwise_dalembert(f, g, grid)
    jj, ii = np.indices(want.shape)
    diag = np.abs(ii - jj) == 10
    assert np.max(np.abs(got[diag] - want[diag])) <= 1e-13 * np.max(np.abs(want))


def test_unforced_march_is_linear_radial(monkeypatch):
    # with a source that is zero whatever u is, the march is ubar0 bit for bit
    grid = CharGrid(1 / 16, 4.0, 3.0)
    f, g = _off_lattice_data()
    monkeypatch.setattr(solver, "_power_source", lambda p: lambda u, out: out.fill(0.0))
    fld = solve_march(Problem(2.0, 1.0, f, g), grid)
    assert fld.status == "complete" and fld.n_levels == grid.n_t + 1
    want = march_oracle.homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
    assert fld.samples.tobytes() == want.tobytes()


def test_homogeneous_node_read_is_bitwise_linear_radial():
    # every node with i >= 1 evaluated alone, as integral_residual reads it,
    # its column clipped to the band, is bitwise the full-width evaluator
    grid = CharGrid(0.1, 4.0, 3.0)              # not dyadic: every rounding counts
    f, g = _off_lattice_data()
    whole = march_oracle.homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
    jj, ii = np.indices(whole.shape)
    jj, ii = jj[:, 1:].ravel(), ii[:, 1:].ravel()
    ubar0 = HomogeneousPart(f, g, grid)
    assert np.any(np.abs(ii - jj) > ubar0.b)    # some nodes read the band's edges
    assert ubar0.at(ii, jj).tobytes() == whole[jj, ii].tobytes()


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
        "off-lattice-bump": (*_off_lattice_data(), CharGrid(1 / 32, RHO + 10.0, 10.0)),
        "custom-csv": (*csv, grid),
        "csv-more-levels-than-columns": (*csv, CharGrid(1 / 16, 1.5, 3.0)),
        "f-quarter-radius": (bump_profile(1.0, RHO / 4, gr), bump_profile(3.0, RHO, gr), grid),
        "zero": (zero_profile(RHO, gr), zero_profile(RHO, gr), grid),
    }


@pytest.mark.parametrize("levels", [1, 7, 32, 256, None])
def test_homogeneous_band_is_the_full_width_evaluator(tmp_path, levels):
    # ubar0 at every node, and the band its blocks give placed on the lattice,
    # are bitwise the full-width evaluator, and the band's edges k = 0 and
    # k = 2b and its cells off the lattice are +0.0 with no signbit; on each
    # case's lattice, and on it cut to its first levels + 1 levels (down to a
    # lattice far shorter than the band is wide); a lattice longer than it is
    # wide is refused
    for name, (f, g, grid) in _band_cases(tmp_path).items():
        if levels is not None and levels < grid.n_t:
            grid = CharGrid(grid.h, grid.r_max, levels * grid.h)
        if grid.n_t > grid.n_r:
            with pytest.raises(ValueError, match="n_t <= n_r"):
                HomogeneousPart(f, g, grid)
            continue
        ubar0 = HomogeneousPart(f, g, grid)
        U, b = march_oracle.band_of(ubar0), ubar0.b
        assert b == int(max(f.rho, g.rho) / grid.h) + 2 and U.shape == (grid.n_t + 1, 2 * b + 1)
        want = march_oracle.homogeneous_levels(f, g, grid)(0, grid.n_t + 1)
        assert march_oracle.on_lattice(ubar0, grid).tobytes() == want.tobytes(), name
        jj, kk = np.indices(U.shape)
        ii = jj + kk - b
        on = (ii >= 0) & (ii <= grid.n_r)
        assert U[on].tobytes() == want[jj[on], ii[on]].tobytes(), name
        zero = np.concatenate([U[~on], U[:, 0], U[:, -1]])
        assert np.all(zero == 0) and not np.any(np.signbit(zero)), name
        assert (name == "zero") == (not np.any(want)), name


@pytest.mark.parametrize("levels", [1, 7, None])
def test_homogeneous_band_blocks_are_bitwise_the_oracle(tmp_path, monkeypatch, levels):
    # ubar0's band by blocks of 1 or 7 levels (a ragged last block) or in one
    # block, whole and cut to its first levels, is cell for cell the oracle's
    # band sliced from the full-width evaluator; a lattice with more levels
    # than columns is refused
    ragged = taller = False
    for name, (f, g, grid) in _band_cases(tmp_path).items():
        b = int(max(f.rho, g.rho) / grid.h) + 2
        rows = grid.n_t + 1 if levels is None else levels
        monkeypatch.setattr(solver, "_BLOCK_NODES", rows * (2 * b + 1))
        if grid.n_t > grid.n_r:
            with pytest.raises(ValueError, match="n_t <= n_r"):
                HomogeneousPart(f, g, grid)
            taller = True
            continue
        ubar0 = HomogeneousPart(f, g, grid)
        want, want_b = march_oracle.homogeneous_band(f, g, grid)
        cut = grid.n_t // 2 + 1
        assert ubar0.b == want_b == b, name
        assert march_oracle.band_of(ubar0).tobytes() == want.tobytes(), name
        assert march_oracle.band_of(ubar0, cut).tobytes() == want[:cut].tobytes(), name
        ragged |= (grid.n_t + 1) % rows != 0
    assert taller and ragged == (levels == 7)


def test_homogeneous_nodes_are_bitwise_the_oracle_band(tmp_path):
    # ubar0 at scattered nodes, in no order, is the oracle's band read there,
    # the column clipped to the band: nodes inside the band, on r = 0 at
    # levels up to b and past it, off the band on either side (its +0.0
    # edges) and off the lattice (i < 0 and i > n_r)
    for name, (f, g, grid) in _band_cases(tmp_path).items():
        if grid.n_t > grid.n_r:
            continue
        ubar0, rng = HomogeneousPart(f, g, grid), np.random.default_rng(11)
        b, jj = ubar0.b, rng.integers(0, grid.n_t + 1, 600)
        ii = np.concatenate([jj[:200] + rng.integers(-b, b + 1, 200), np.zeros(100, np.int64),
                             jj[300:400] - b - rng.integers(1, 50, 100),
                             jj[400:500] + b + rng.integers(1, 50, 100),
                             rng.integers(-3 * b, 0, 50), grid.n_r + rng.integers(1, 3 * b, 50)])
        got = ubar0.at(ii, jj)
        want = march_oracle.band_evaluator(f, g, grid).at(ii, jj)
        assert got.tobytes() == want.tobytes(), name
        off = (np.abs(ii - jj) > b) | (ii < 0) | (ii > grid.n_r)
        assert np.all(got[off] == 0) and not np.any(np.signbit(got[off])), name
        assert np.any(jj[ii == 0] <= b) and np.any(jj[ii == 0] > b), name


def test_homogeneous_band_peak_memory():
    # ubar0 keeps its 1-D tables and gives the band a block of about
    # _BLOCK_NODES cells at a time, all in one buffer: building it and walking
    # the README band at rho/128 holds the tables and one block, measured
    # 0.20x the band (1.18x when the band was built whole)
    grid = CharGrid(RHO / 128, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)

    def walk():
        ubar0 = HomogeneousPart(prob.f_profile, prob.g_profile, grid)
        return ubar0.b, sum(len(block) for _, block in ubar0.blocks())

    (b, levels), peak = traced_peak(walk)
    assert levels == grid.n_t + 1
    assert peak <= 0.25 * levels * (2 * b + 1) * 8


def test_march_reads_the_banded_u0_bitwise():
    # the march on ubar0's blocks and on the oracle's band, sliced from the
    # full-width u0
    grid = CharGrid(RHO / 16, RHO + 8.0, 8.0)
    gr = grid.r_values()
    prob = Problem(2.41, 1.0, bump_profile(1.0, RHO / 4, gr), bump_profile(3.0, RHO, gr))
    banded = solve_march(prob, grid)
    oracle = march_oracle.band_evaluator(prob.f_profile, prob.g_profile, grid)
    full = solve_march(prob, grid, ubar0=oracle)
    assert (banded.status, banded.t_b) == (full.status, full.t_b)
    assert banded.samples.tobytes() == full.samples.tobytes()


def test_cone_selection_reads_the_banded_u0(monkeypatch, blowup_run_coarse):
    # the README run at rho/32: the same (t2, delta) from the full-width u0
    prob, fld = blowup_run_coarse
    got = select_t2_delta(fld, prob.f_profile, prob.g_profile)
    monkeypatch.setattr(diagnostics, "HomogeneousPart", march_oracle.band_evaluator)
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


def test_manufactured_solution_second_order():
    e1, e2 = march_oracle.mms_error(32), march_oracle.mms_error(64)
    assert 3.5 <= e1 / e2 <= 4.5


def test_forced_march_reproduces_P_closed_form():
    # forcing 1 with zero data gives u = t^2/2, exact on the lattice wherever
    # the influence region stays inside the grid (r + t <= r_max)
    grid = CharGrid(1 / 32, 2.0, 1.0)
    gr = grid.r_values()
    zero = zero_profile(1.0, gr)
    samples = march_oracle.forced_march(zero, zero, lambda r, t: np.ones_like(r), grid)
    RR, TT = np.meshgrid(grid.r_values(), grid.t_values())
    inside = RR + TT <= grid.r_max + 1e-12
    assert np.max(np.abs((samples - TT**2 / 2.0)[inside])) <= 1e-12


def test_positivity_for_nonnegative_velocity_data():
    grid = CharGrid(1 / 32, 4.0, 3.0)
    prob = blowup_problem(grid, amplitude=2.0)
    u0 = march_oracle.on_lattice(HomogeneousPart(prob.f_profile, prob.g_profile, grid), grid)
    assert np.min(u0) >= -1e-13
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    assert np.min(fld.samples) >= -1e-13
    assert np.min(fld.samples - u0[: fld.n_levels]) >= -1e-12


def test_residual_contract_for_complete_fields(monkeypatch):
    h = 1 / 64
    grid = CharGrid(h, 2.0, 1.0)
    gr = grid.r_values()
    prob = Problem(2.0, 1.0, bump_profile(0.5, 1.0, gr), bump_profile(0.5, 1.0, gr))
    fld = solve_march(prob, grid)
    assert fld.status == "complete"
    monkeypatch.setattr(solver, "_RESIDUAL_NODES", 10**9)      # every interior node
    res = integral_residual(prob, fld)
    sigma_scale = float(np.max(np.abs(fld.samples))**prob.p)
    bound = 10.0 * h * h * prob.A * sigma_scale * grid.t_max**2 / 2.0
    assert res["residual_linf"] <= bound
    assert res["nodes"] >= 5000


def test_residual_peak_memory(crit4_run):
    # u0 is evaluated at the nodes alone, and the sweep reads its source from
    # the field and keeps only column sums: no u0 band, no source array and no
    # prefix-sum copy of the lattice.  Measured 0.038x (0.153x when u0's band
    # was built, 1.02x with a source array), so the bound leaves a third of
    # headroom
    prob, field = crit4_run
    res, peak = traced_peak(integral_residual, prob, field)
    assert res["nodes"] > 0
    assert peak <= 0.05 * field.samples.nbytes


def test_march_peak_memory(tmp_path):
    # a solve holds no field, so its memory does not grow with the number of
    # levels: quadrupling t_max at rho/16 grows field.npz 13x and the traced
    # peak of the whole solve (march, residual, field.npz, fit) 1.25x, by the
    # residual's nodes (3040 to 4171 of them) and the rows growing with r_max
    peaks, sizes = [], []
    for t_max in (4.0, 16.0):
        cfg = _readme_run_config(RHO / 16, tmp_path / f"t{t_max:g}", amplitude=1.0, t_max=t_max)
        record, peak = traced_peak(cli._run_solve, cfg, tmp_path / f"t{t_max:g}")
        assert record["status"] == "complete"
        peaks.append(peak)
        sizes.append((tmp_path / f"t{t_max:g}" / "field.npz").stat().st_size)
    assert sizes[1] > 10 * sizes[0]
    assert peaks[1] < 1.5 * peaks[0]


def _readme_run_config(h, out_dir, amplitude=10.0, t_max=16.0):
    return parse_run_config({"problem": {"p": 2.0, "A": 1.0,
                                         "data": {"profile": "bump", "amplitude": amplitude,
                                                  "rho": RHO}},
                             "grid": {"h": h, "t_max": t_max}, "output_dir": str(out_dir)})


def test_solve_holds_no_field(tmp_path):
    # march, residual, field write, blow-up fit and max|u|: the levels go to a
    # file as they are made and are read back a block of rows at a time, so
    # no array of the field's size, nor one that grows with its levels, is
    # built.  Measured 0.131x the lattice, nothing hidden from tracemalloc:
    # most of it is the residual's sweep (its 4131 nodes and a block of rows);
    # the field is read back from field.npz
    cfg = _readme_run_config(RHO / 64, tmp_path)
    record, peak = traced_peak(cli._run_solve, cfg, tmp_path)
    with RadialField.load(tmp_path / "field.npz") as fld:
        grid = fld.grid
        assert record["status"] == fld.status == "blown_up" and record["residual"]["nodes"] > 0
        assert record["max_amplitude_reached"] == np.max(np.abs(held(fld.samples)))
    assert peak <= 0.15 * (grid.n_t + 1) * (grid.n_r + 1) * 8


def test_diagnose_holds_no_field(tmp_path):
    # the load keeps field.npz on disk and the chain reads it a block of rows,
    # a run of a level's cells or a band of levels at a time, so diagnose's
    # traced peak at README rho/64 is well under the lattice (measured 0.50x:
    # the chain's residual tables and a band of _SPAN_CELLS; holding the field
    # alone was 1x).  Quadrupling t_max at rho/16 (amplitude 1, complete) grows
    # field.npz 15x and the peak 0.96x: the tables and the band stop growing
    # once they reach MAX_ROWS rows and _SPAN_CELLS
    cfg = _readme_run_config(RHO / 64, tmp_path / "readme")
    cli._run_solve(cfg, tmp_path / "readme")
    code, peak = traced_peak(cli._run_diagnose, cfg, tmp_path / "readme" / "field.npz",
                             tmp_path / "readme")
    grid = cfg.build_grid()
    assert code == 0 and peak <= 0.75 * (grid.n_t + 1) * (grid.n_r + 1) * 8
    peaks, sizes = [], []
    for t_max in (16.0, 64.0):
        out = tmp_path / f"t{t_max:g}"
        cfg = _readme_run_config(RHO / 16, out, amplitude=1.0, t_max=t_max)
        assert cli._run_solve(cfg, out)["status"] == "complete"
        code, peak = traced_peak(cli._run_diagnose, cfg, out / "field.npz", out)
        assert code == 0
        peaks.append(peak)
        sizes.append((out / "field.npz").stat().st_size)
    assert sizes[1] > 3 * sizes[0]
    assert peaks[1] < 1.5 * peaks[0]


def test_solve_never_builds_a_whole_lattice_u0(tmp_path, crit4_run):
    # u0 is read a block of levels at a time (the march, the cone selection)
    # or at the nodes alone (the residual), so neither a solve nor diagnose's
    # cone selection allocates u0's band, (n_t + 1) x (2b + 1) cells: at
    # rho/128 the solve's traced peak measured 0.37x the band (solve holds
    # no field) and the cone selection's less.  The field is read back from
    # field.npz: the residual is the standalone one's and the cone the one
    # picked from the march's field
    record, peak = traced_peak(cli._run_solve, _readme_run_config(RHO / 128, tmp_path), tmp_path)
    prob, marched = crit4_run
    with RadialField.load(tmp_path / "field.npz") as fld:
        grid = fld.grid
        band = (grid.n_t + 1) * (2 * (int(prob.rho / grid.h) + 2) + 1) * 8
        assert record["status"] == "blown_up" and record["residual"]["nodes"] > 0
        assert peak <= 0.5 * band
        cone, peak = traced_peak(select_t2_delta, fld, prob.f_profile, prob.g_profile)
        assert peak <= 0.5 * band
        assert cone == select_t2_delta(marched, prob.f_profile, prob.g_profile)
        assert json.loads((tmp_path / "residual.json").read_text()) == integral_residual(prob, fld)


def test_solve_takes_max_abs_u_once(monkeypatch, tmp_path):
    # _run_solve never builds a field (solver._zeros) and takes max|u| per
    # level from the march alone; the blow-up fit reads those maxima, and fits
    # exactly as it does on the maxima of the field read back from field.npz
    def no_field(shape):
        raise AssertionError(f"a {shape} field was built")

    monkeypatch.setattr(solver, "_zeros", no_field)
    record = cli._run_solve(_readme_run_config(RHO / 64, tmp_path), tmp_path)
    monkeypatch.undo()
    with RadialField.load(tmp_path / "field.npz") as fld:
        assert fld.status == "blown_up"
        amps = np.max(np.abs(held(fld.samples)), axis=1)
        fit = detect_blowup_time(fld.status, fld.t_b, fld.grid, amps)
    assert (record["fitted_t_b"], record["fitted_exponent"]) == (fit.fitted_t_b,
                                                                 fit.fitted_exponent)
    assert record["max_amplitude_reached"] == amps.max()


def test_solve_frees_the_field_before_the_fit(monkeypatch, tmp_path):
    # once field.npz is written the march's result (its rows file and max|u|)
    # is dropped, so the blow-up fit (whose first LAPACK call allocates) runs
    # with nothing of the field's
    real_march, real_fit, fields, alive = cli.solve_march, cli.detect_blowup_time, [], []

    def march(*args, **kwargs):
        fld = real_march(*args, **kwargs)
        fields.append(weakref.ref(fld))
        return fld

    def fit(*args):
        alive.append(fields[0]() is not None)
        return real_fit(*args)

    monkeypatch.setattr(cli, "solve_march", march)
    monkeypatch.setattr(cli, "detect_blowup_time", fit)
    record = cli._run_solve(_readme_run_config(RHO / 32, tmp_path), tmp_path)
    assert record["status"] == "blown_up" and record["fitted_t_b"] is not None
    assert alive == [False]


def test_quadrature_peak_memory(monkeypatch):
    # the sweep finds the support of u by blocks of rows, reads the residual's
    # source from the field three diagonals at a time and keeps only column
    # sums: no temporary the size of the lattice
    grid = CharGrid(RHO / 64, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)
    fld = solve_march(prob, grid)
    seen = []

    def traced(u, i, j, **floors):
        out, peak = traced_peak(influence_quadrature, u, i, j, **floors)
        seen.append((peak, u.nbytes))
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


def test_march_refuses_a_lattice_longer_than_it_is_wide():
    # r_max >= rho + t_max leaves no lattice longer than it is wide to march,
    # and the u0 band refuses one rather than give wrong values
    fb, gb, grid = march_oracle.mms_data(16)
    tall = CharGrid(grid.h, 2.0, 4.0)
    assert tall.n_t == 2 * tall.n_r
    with pytest.raises(ValueError, match="domain of dependence"):
        solve_march(Problem(2.0, 1.0, fb, gb), tall)
    with pytest.raises(ValueError, match="n_t <= n_r"):
        HomogeneousPart(fb, gb, tall)


# the march against its reference (march_oracle): bit for bit on every column
# i >= 1, and on column 0, which feeds no other column and whose axis sums the
# solver adds in another order, within COLUMN0_RTOL of the level's max|u|
# (the worst case measured on the README run at rho/32 to rho/256 is 3.7e-15)

COLUMN0_RTOL = 1e-13


def _into(source):
    # a source source(u) that returns its values, as the march's sigma(u, out)
    def sigma(u, out):
        out[...] = source(u)
    return sigma


def _assert_is_oracle(got, ref):
    (samples, status, t_b), (ref_samples, ref_status, ref_t_b) = got, ref
    assert (status, t_b, samples.shape) == (ref_status, ref_t_b, ref_samples.shape)
    assert samples[:, 1:].tobytes() == ref_samples[:, 1:].tobytes()
    scale = np.max(np.abs(ref_samples), axis=1)
    assert np.all(np.abs(samples[:, 0] - ref_samples[:, 0]) <= COLUMN0_RTOL * scale)


def _assert_solve_is_oracle(prob, grid, limits=(solver.DEFAULT_BLOWUP_THRESHOLD,
                                                 solver.DEFAULT_DIVERGENCE_FACTOR),
                            source=None):
    # solve_march, whose source takes |u|^p only inside the light cone, against
    # the reference march with source(u) (|u|^p if not given) on every node
    fld = solve_march(prob, grid, *limits)
    source = source or (lambda u: np.abs(u) ** prob.p)
    _assert_is_oracle((fld.samples, fld.status, fld.t_b),
                      march_oracle._march(prob.f_profile, prob.g_profile, grid, prob.A,
                                          lambda r, t, u: source(u), *limits,
                                          max(1.0, 10.0 * prob.data_scale)))
    return fld.samples, fld.status


def _assert_nonlinear_march_is_oracle(p, amplitude):
    grid = CharGrid(RHO / 16, RHO + 20.0, 20.0)
    return _assert_solve_is_oracle(blowup_problem(grid, amplitude=amplitude, p=p), grid)


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.41, 2.5, 3.0])
def test_march_is_bitwise_the_oracle(p, amplitude):
    # solve_march against the reference march that criterion 2 converges
    status = _assert_nonlinear_march_is_oracle(p, amplitude)[1]
    assert status == "blown_up" or (p, amplitude) != (2.0, 10.0)


def test_march_window_follows_the_data_support():
    # the window reaches as far as the wider of the two profiles, so f of
    # radius RHO/4 and g of radius RHO march as |u|^p on every node does
    grid = CharGrid(RHO / 16, RHO + 8.0, 8.0)
    gr = grid.r_values()
    prob = Problem(2.41, 1.0, bump_profile(1.0, RHO / 4, gr), bump_profile(3.0, RHO, gr))
    assert prob.rho == RHO
    _assert_solve_is_oracle(prob, grid)


def test_march_rows_stop_at_the_light_cone_window(monkeypatch):
    # the march hands its source level rows only, cut at i <= j + floor(rho/h) + 1:
    # level 0's, then three a level (predictor, corrector, the level's source)
    grid = CharGrid(RHO / 16, RHO + 8.0, 8.0)
    prob = blowup_problem(grid, amplitude=1.0)
    real, rows = solver._power_source, []

    def recording(p):
        sigma = real(p)

        def record(u, out):
            rows.append(u.size)
            sigma(u, out)
        return record

    monkeypatch.setattr(solver, "_power_source", recording)
    assert solve_march(prob, grid).status == "complete"
    reach = int(prob.rho / grid.h) + 1
    levels = [0] + [j for j in range(1, grid.n_t + 1) for _ in range(3)]
    assert rows == [min(grid.n_r, j + reach) + 1 for j in levels]


def test_march_error_exits_are_the_oracle(monkeypatch):
    # a source that turns NaN on level 16's predictor row only makes u non-finite
    # there: the march keeps the 16 levels before it, bitwise the clean run's
    fb, gb, grid = march_oracle.mms_data(32)
    prob = Problem(2.0, 1.0, fb, gb)
    clean, calls, sigma = solve_march(prob, grid), [], solver._power_source(prob.p)
    predictor = 1 + 3 * 15 + 1          # level 0's row, three rows a level, then level 16's first

    def nan_on_predictor(u, out):
        calls.append(u.size)
        sigma(u, out)
        if len(calls) == predictor:
            out[...] = np.nan

    monkeypatch.setattr(solver, "_power_source", lambda p: nan_on_predictor)
    fld = solve_march(prob, grid)
    assert clean.status == "complete" and fld.status == "error" and fld.n_levels == 16
    assert len(calls) == predictor + 1          # the corrector reads the NaN, then the exit
    assert fld.samples.tobytes() == clean.samples[:16].tobytes()
    # |u|^3 overflows while u is still finite: the check on the source row stops
    # it, whether that row holds +inf, -inf (the mirrored problem) or NaN
    grid = CharGrid(RHO / 16, RHO + 20.0, 20.0)
    window = 11 + int(RHO / grid.h) + 2            # level 11's light-cone window
    for sign, bad in ((1.0, np.inf), (-1.0, -np.inf), (1.0, np.nan)):
        prob = blowup_problem(grid, amplitude=24.0 * sign, p=3.0)
        calls = []

        def source(u):
            out = sign * np.abs(u) ** 3.0
            out[np.isinf(out)] = bad
            calls.append((u.size, bool(np.all(np.isfinite(u))), bool(np.all(np.isfinite(out)))))
            return out

        monkeypatch.setattr(solver, "_power_source", lambda p: _into(source))
        samples, status = _assert_solve_is_oracle(prob, grid, (1e300, np.inf), source)
        assert status == "error" and samples.shape[0] == 11
        # one overflowing call from each march, the source row of level 11: the
        # solver's on its light-cone window, then the oracle's on the full row
        assert [c[0] for c in calls if c[1:] == (True, False)] == [window, grid.n_r + 1]
        assert calls[-1][1:] == (True, False)


# one Richardson step on u(0, 12) at rho/64 and rho/128 against the continuum
# reference: measured 3.2e-6 off it (0.7630037 against 0.7630069), which the
# tolerance leaves about 3x
RICHARDSON_TOL = 1e-5


def test_march_converges_to_the_continuum_reference():
    # u(0, 12) on the README problem, before its blow-up, against a method of
    # lines for w = r u (continuum_oracle, fourth order, at dx = 1/64): the
    # march's errors shrink by criterion 2's second-order ratio (measured 4.01)
    # and its Richardson value lands on the reference
    ref = continuum_oracle.axis_value(
        lambda r: 10.0 * np.clip(1.0 - (r / RHO) ** 2, 0.0, None) ** 3, RHO, 12.0, 1 / 64)
    u = []
    for n in (64, 128):
        grid = CharGrid(RHO / n, RHO + 12.0, 12.0)
        fld = solve_march(blowup_problem(grid), grid)
        assert fld.status == "complete"
        u.append(fld.samples[-1, 0])
    assert 3.5 <= abs(u[0] - ref) / abs(u[1] - ref) <= 4.5
    assert abs((4.0 * u[1] - u[0]) / 3.0 - ref) <= RICHARDSON_TOL


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


def _fit(fld):
    """The blow-up fit of a field, from its max|u| per level."""
    return detect_blowup_time(fld.status, fld.t_b, fld.grid, fld.level_max)


def test_detect_blowup_time(blowup_run_coarse):
    _, fld = blowup_run_coarse
    fit = _fit(fld)
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
    assert _fit(fld) is None


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
    fit = _fit(fld)
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
    U = march_oracle.band_of(HomogeneousPart(prob.f_profile, prob.g_profile, grid))
    initial = float(np.max(np.abs(U)))
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
