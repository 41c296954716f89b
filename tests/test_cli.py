import ast
import dataclasses
import errno
import hashlib
import importlib.util
import io
import json
import logging
import math
import os
import subprocess
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import wavelab
from wavelab import __version__, cli, config, diagnostics, solver
from wavelab.cli import main
from wavelab.gronwall import GronwallCertificate
from wavelab.config import (ConfigError, DataSpec, apply_overrides, config_hash,
                            parse_run_config, parse_sweep_config)
from wavelab.solver import RadialField

import march_oracle
from conftest import dense_quadrature, held
from text_export import field_to_csv


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def base_run_config(tmp_path, **overrides):
    doc = {
        "problem": {"p": 2.0, "A": 1.0,
                    "data": {"profile": "bump", "amplitude": 10.0, "rho": 1.0}},
        "grid": {"h": 1 / 16, "t_max": 16.0},
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_unknown_key_is_named():
    doc = {"problem": {"p": 2.0, "data": {"profile": "bump", "amplitude": 1, "rho": 1}},
           "grid": {"t_max": 1.0}, "mesh": {}}
    with pytest.raises(ConfigError, match="unknown key: mesh"):
        parse_run_config(doc)
    doc2 = {"problem": {"p": 2.0, "zeta": 1,
                        "data": {"profile": "bump", "amplitude": 1, "rho": 1}},
            "grid": {"t_max": 1.0}}
    with pytest.raises(ConfigError, match="unknown key: problem.zeta"):
        parse_run_config(doc2)
    doc3 = {"problem": {"p": 2.0, "data": {"profile": "bump", "amplitude": 1, "rho": 1}},
            "grid": {"t_max": 1.0}, "diagnostics": {"auto_t2": False}}
    with pytest.raises(ConfigError, match="unknown key: diagnostics.auto_t2"):
        parse_run_config(doc3)


def test_exactly_one_data_profile():
    doc = {"problem": {"p": 2.0, "data": {"profile": "bump", "amplitude": 1,
                                          "rho": 1, "f_csv": "x.csv"}},
           "grid": {"t_max": 1.0}}
    with pytest.raises(ConfigError, match="f_csv"):
        parse_run_config(doc)
    doc2 = {"problem": {"p": 2.0, "data": {"profile": "custom-csv", "rho": 1}},
            "grid": {"t_max": 1.0}}
    with pytest.raises(ConfigError, match="custom-csv needs"):
        parse_run_config(doc2)


def test_custom_csv_profile_continuous_at_rho(tmp_path):
    # knots 0, 0.3, ..., 1.2 of the bump straddle rho = 1 without hitting it
    knots = np.arange(5) * 0.3
    path = tmp_path / "g.csv"
    values = 10.0 * np.clip(1.0 - knots**2, 0.0, None) ** 3
    path.write_text("r,value\n" + "".join(f"{r:.17g},{v:.17g}\n" for r, v in zip(knots, values)))
    f, g = DataSpec("custom-csv", 1.0, g_csv=str(path)).build_profiles(knots)
    below, above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    assert abs(g(below)) <= 1e-12 and g(above) == 0.0
    assert 1.0 in g.r and g(1.0) == 0.0
    assert g.moment_integral(1.2) == g.moment_integral(1.0)
    assert np.all(f.values == 0.0)


@pytest.mark.parametrize("rows", ["0,1\n0.5,abc\n1,0\n", "0,1\n", "0,1\n1,0\n0.5,0.5\n", "",
                                  "0,1\nnan,0.5\n1,0\n", "0,1\n0.5,0.5\ninf,0\n"],
                         ids=["non-numeric", "one-row", "unsorted", "header-only", "nan-radius",
                              "inf-radius"])
def test_malformed_custom_csv_is_a_config_error(tmp_path, capsys, rows):
    (tmp_path / "f.csv").write_text("r,value\n" + rows)
    doc = {"problem": {"p": 2.0, "data": {"profile": "custom-csv", "rho": 1.0,
                                          "f_csv": str(tmp_path / "f.csv")}},
           "grid": {"h": 1 / 16, "t_max": 1.0}}
    cfg = write(tmp_path / "c.json", doc)
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: problem.data.f_csv: ")


# modules no command may load: OpenSSL's hashlib and numpy.random (which loads
# secrets, hmac and _hashlib) cost every process megabytes of resident code,
# numpy.ma is what np.unique pulls in, scipy and fractions are test references,
# and a sweep forks its own workers, so none loads multiprocessing or the
# process pool of concurrent.futures
_NEVER_LOADED = ("_hashlib", "hashlib", "hmac", "secrets", "numpy.random", "numpy.ma",
                 "scipy", "fractions", "multiprocessing", "concurrent.futures.process")


def _fresh_python(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this checkout's wavelab."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wavelab.__file__)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def _fresh_interpreter_footprint(commands):
    """Import wavelab.cli in one fresh interpreter, the way the commands run, and
    call main on each argv in turn: [(step, exit code, sys.modules)] after the
    import and after each command."""
    code = ("import json, sys; import wavelab.cli; "
            "steps = [['import', None, sorted(sys.modules)]]; "
            "steps += [[argv[0], wavelab.cli.main(argv), sorted(sys.modules)] "
            "for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps(steps))")
    out = _fresh_python(code, json.dumps(commands))
    return [(step, exit_code, set(modules))
            for step, exit_code, modules in json.loads(out.splitlines()[-1])]


def test_commands_load_no_openssl_random_ma_scipy_or_fractions(tmp_path):
    # every command in one fresh interpreter, a sweep that forks workers and
    # its resume included: none loads a module of _NEVER_LOADED
    run = tmp_path / "run"
    cfg = write(tmp_path / "c.json", base_run_config(tmp_path))
    gronwall = write(tmp_path / "g.json", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0},
                                           "J1": 1.0})
    mean = write(tmp_path / "m.json", {"family": "monomial", "params": {"powers": [2, 0, 0]},
                                       "radii": [0.0, 1.0], "degree": 5})
    sweep = write(tmp_path / "s.json", sweep_doc(tmp_path))
    steps = _fresh_interpreter_footprint([
        ["solve", "--config", cfg, "--output", str(run)],
        ["diagnose", "--config", cfg, "--field", str(run / "field.npz"),
         "--output", str(tmp_path / "diag")],
        ["gronwall", "--config", gronwall, "--output", str(tmp_path / "g")],
        ["mean", "--config", mean, "--output", str(tmp_path / "m")],
        ["sweep", "--config", sweep, "--jobs", "2"],
        ["sweep", "--config", sweep, "--jobs", "2"]])
    assert [(step, exit_code) for step, exit_code, _ in steps] == [
        ("import", None), ("solve", 0), ("diagnose", 0), ("gronwall", 0), ("mean", 0),
        ("sweep", 0), ("sweep", 0)]
    for step, _, modules in steps:
        assert [m for m in modules if m in _NEVER_LOADED or m.split(".")[0] == "scipy"] == [], step


def test_cli_import_loads_no_scipy():
    [(_, _, modules)] = _fresh_interpreter_footprint([])
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_process_pool():
    # a sweep forks its own workers, so importing the CLI loads neither
    # multiprocessing nor the process pool of concurrent.futures
    [(_, _, modules)] = _fresh_interpreter_footprint([])
    assert {"multiprocessing", "concurrent.futures.process"} & modules == set()


def _absolute_imports(tree):
    """(node, module names) of each absolute import; ``from m import x`` names m and m.x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def test_package_source_never_imports_scipy():
    # scipy is a test-only dependency; this also catches imports inside functions
    paths = sorted(Path(wavelab.__file__).parent.rglob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node, names in _absolute_imports(ast.parse(path.read_text(), str(path)))
             if any(n.split(".")[0] == "scipy" for n in names)]
    assert len(paths) > 5 and found == []


def test_package_source_never_loads_openssl_or_numpy_random():
    # no module imports hmac, secrets, _hashlib or numpy.random, or reads
    # np.random, even inside a function; hashlib only as the fallback of the
    # built-in SHA-256 import, for builds without CPython's _sha2/_sha256
    found, fallbacks = [], []
    for path in sorted(Path(wavelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        fallback = {id(node) for t in ast.walk(tree) if isinstance(t, ast.Try)
                    for handler in t.handlers if getattr(handler.type, "id", None) == "ImportError"
                    for node in handler.body}
        for node, names in _absolute_imports(tree):
            where = f"{path.name}:{node.lineno}"
            if any(n in ("hmac", "secrets", "_hashlib") or n.startswith("numpy.random")
                   for n in names):
                found.append(where)
            elif "hashlib" in names:
                is_fallback = id(node) in fallback and names == ["hashlib", "hashlib.sha256"]
                (fallbacks if is_fallback else found).append(where)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "random"
                  and getattr(node.value, "id", None) in ("np", "numpy")]
    assert found == [] and [f.split(":")[0] for f in fallbacks] == ["config.py"]


def test_sha256_is_hashlibs_digest():
    # config hashes and the code digest keep hashlib's bytes; the built-in
    # module is the one imported wherever CPython has it
    docs = [{}, base_run_config(Path("x")), {"p_values": [2, 3.5], "amplitudes": [1e-05, 10.0]}]
    for doc in docs:
        data = json.dumps(doc, sort_keys=True).encode()
        assert config_hash(doc) == hashlib.sha256(data).hexdigest()[:16]
    files = sorted(Path(wavelab.__file__).parent.glob("*.py"))
    source = b"".join(f.name.encode() + b"\0" + f.read_bytes() + b"\0" for f in files)
    assert config.sha256(source).hexdigest() == hashlib.sha256(source).hexdigest()
    assert cli._code_digest() == hashlib.sha256(source).hexdigest()[:16]
    builtin = [m for m in ("_sha2", "_sha256") if importlib.util.find_spec(m)]
    if builtin:
        assert config.sha256.__module__ == builtin[0]


def test_sha256_falls_back_to_hashlib():
    # without CPython's built-in modules, hashlib's sha256 is imported, and the
    # pinned row hashes of the sweep test stay the same
    doc = {"problem": {"A": 2.0, "data": {"profile": "bump", "rho": 1.0, "amplitude": 1e-05},
                       "p": 2.0}, "grid": {"h": 0.0625, "t_max": 2.0}}
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "import hashlib, json, wavelab.config as c; "
            f"print(c.sha256 is hashlib.sha256, c.config_hash(json.loads({json.dumps(doc)!r})))")
    assert _fresh_python(code).split() == ["True", "0bc54eaa1ed9f698"] == ["True", config_hash(doc)]


def test_default_h_is_rho_over_128():
    doc = {"problem": {"p": 2.0, "data": {"profile": "bump", "amplitude": 1, "rho": 2.0}},
           "grid": {"t_max": 1.0}}
    cfg = parse_run_config(doc)
    assert cfg.h == pytest.approx(2.0 / 128)


def test_overrides_dotted_paths():
    doc = {"problem": {"p": 2.0, "data": {"profile": "bump", "amplitude": 1, "rho": 1}},
           "grid": {"t_max": 1.0}}
    out = apply_overrides(doc, ["problem.p=2.5", "grid.h=0.125", "output_dir=xyz"])
    cfg = parse_run_config(out)
    assert cfg.p == 2.5 and cfg.h == 0.125 and cfg.output_dir == "xyz"
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(doc, ["oops"])


def test_sweep_config_validation():
    base = {"problem": {"data": {"profile": "bump", "amplitude": 0, "rho": 1}},
            "grid": {"t_max": 1.0}}
    with pytest.raises(ConfigError, match="amplitudes"):
        parse_sweep_config({"p_values": [2.0], "amplitudes": [], "base": base})
    with pytest.raises(ConfigError, match="p_values"):
        parse_sweep_config({"p_values": [0.5], "amplitudes": [1.0], "base": base})
    sw = parse_sweep_config({"p_values": [2.0], "amplitudes": [1.0], "base": base})
    assert sw.parallel_jobs == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_zero_data(tmp_path):
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 2.0})
    doc["problem"]["data"]["amplitude"] = 0.0
    rc = main(["solve", "--config", write(tmp_path / "c.json", doc)])
    assert rc == 0
    with RadialField.load(tmp_path / "out" / "field.npz") as fld:
        assert fld.status == "complete"
        assert np.all(held(fld.samples) == 0.0)
    res = json.loads((tmp_path / "out" / "residual.json").read_text())
    assert set(res) == {"residual_linf", "residual_l2", "nodes"}


def test_solve_blowup_recorded(tmp_path):
    doc = base_run_config(tmp_path)
    rc = main(["solve", "--config", write(tmp_path / "c.json", doc)])
    assert rc == 0
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["status"] == "blown_up"
    assert man["t_b"] is not None and 10.0 < man["t_b"] < 17.0
    assert man["config_hash"] == config_hash(doc)
    assert set(man["timings"]) == {"march_s", "residual_s", "field_write_s", "blowup_fit_s"}
    assert set(man["peak_rss_mb_after"]) == {"march", "residual", "field_write", "blowup_fit"}
    assert man["timings"]["march_s"] + man["timings"]["residual_s"] == man["wall_time_s"]
    assert all(v >= 0.0 for v in man["timings"].values()) and man["peak_rss_mb"] > 0.0
    assert man["residual"] == json.loads((tmp_path / "out" / "residual.json").read_text())


def test_solve_malformed_config(tmp_path, capsys):
    doc = base_run_config(tmp_path)
    doc["solver"] = {"blowup_factor": 1}
    rc = main(["solve", "--config", write(tmp_path / "c.json", doc)])
    assert rc == 2
    assert "solver.blowup_factor" in capsys.readouterr().err


def test_solve_invalid_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2


@pytest.mark.parametrize("what, kind", [
    ("config", "directory"), ("config", "not_utf8"), ("H_csv", "directory"),
    ("H_csv", "not_utf8"), ("H_csv", "ragged"), ("f_csv", "directory"), ("f_csv", "not_utf8"),
    ("f_csv", "ragged"), ("g_csv", "directory"), ("field", "directory")])
def test_unreadable_input_file_exits_2(tmp_path, capsys, what, kind):
    # a directory, a file that is not UTF-8 or a table with a ragged row where an
    # input file belongs is the user's error: exit 2 naming the file, not a
    # traceback or exit 3
    bad = tmp_path / "input"
    if kind == "directory":
        bad.mkdir()
    elif kind == "ragged":
        bad.write_text("r,value\n0,1\n0.5,0.5,2\n1,0\n")
    else:
        bad.write_bytes(b'{"r": "\xe9t\xe9"}\n')          # Latin-1
    run = base_run_config(tmp_path)
    if what.endswith("_csv"):
        run["problem"]["data"] = {"profile": "custom-csv", "rho": 1.0, what: str(bad)}
    gronwall = {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "H_csv": str(bad)}
    argv = {"config": ["solve", "--config", str(bad)],
            "H_csv": ["gronwall", "--config", write(tmp_path / "g.json", gronwall),
                      "--output", str(tmp_path / "out")],
            "field": ["diagnose", "--config", write(tmp_path / "c.json", run),
                      "--field", str(bad)]}
    assert main(argv.get(what, ["solve", "--config", write(tmp_path / "c.json", run)])) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: " if what == "field" else "config error: ")
    assert str(bad) in err


def test_an_oserror_while_computing_is_not_a_config_error(tmp_path, monkeypatch):
    # only the read sites classify OSError: one raised by writing the march's
    # rows (a full disk) or by reading field.npz's rows back once the load has
    # checked them (a failing disk, EIO) is not reported as the user's error
    def no_space(self, row):
        raise OSError(errno.ENOSPC, "No space left on device")

    def io_error(self, out, cell):
        raise OSError(errno.EIO, "Input/output error")

    cfg = write(tmp_path / "c.json", base_run_config(tmp_path))
    assert main(["solve", "--config", cfg]) == 0
    monkeypatch.setattr(solver.RowFile, "append", no_space)
    monkeypatch.setattr(solver.RowFile, "_read", io_error)
    for argv, message in ((["solve", "--config", cfg], "No space left"),
                          (["diagnose", "--config", cfg, "--field",
                            str(tmp_path / "out" / "field.npz")], "Input/output error")):
        with pytest.raises(OSError, match=message):
            main(argv)


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solved")
    doc = base_run_config(tmp)
    rc = main(["solve", "--config", write(tmp / "c.json", doc)])
    assert rc == 0
    return tmp, doc


def test_diagnose_end_to_end(solved_run, tmp_path):
    tmp, doc = solved_run
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(tmp / "out" / "field.npz"),
               "--output", str(tmp_path / "diag")])
    assert rc == 0
    d = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert d["holds"] is True
    assert d["M"] > 0 and d["C0"] > 0
    assert set(d["verdicts"]) >= {"pointwise_lower_bound", "single_integral_bound",
                                  "holder_interpolation", "growth_floor"}
    text = (tmp_path / "diag" / "gronwall.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    g = json.loads(text)
    # the chain constants put r_star far beyond the existence window, so the
    # certificate step records the skip and the lemma's lifespan bound
    assert g["skipped"].startswith("extend window to r_star:")
    man = json.loads((tmp / "out" / "manifest.json").read_text())
    assert man["status"] == "blown_up" and g["t_b"] == man["t_b"]
    assert math.isfinite(g["log10_r_star"])
    assert math.log10(g["t_b"]) <= g["log10_r_star"]
    assert g["t_b_within_r_star"] is True
    assert g["window_end"] < g["t_b"]
    members, meta = solver._read_npz(tmp_path / "diag" / "residuals.npz", "residuals")
    assert set(meta["tables"]) == set(d["verdicts"])
    assert list(members) == [f"{i}.{c}" for i in meta["tables"]
                             for c in ("r", "t", "lhs", "rhs", "tol")]
    assert all(members[f"{i}.lhs"].size == n for i, n in meta["rows"].items())


def test_diagnose_residuals_npz_is_deterministic(solved_run, tmp_path):
    tmp, _ = solved_run
    for out in ("a", "b"):
        assert main(["diagnose", "--config", str(tmp / "c.json"),
                     "--field", str(tmp / "out" / "field.npz"),
                     "--output", str(tmp_path / out)]) == 0
    first = (tmp_path / "a" / "residuals.npz").read_bytes()
    assert first[:4] == b"PK\x03\x04" and first == (tmp_path / "b" / "residuals.npz").read_bytes()
    # equal bytes across runs at any time of day: the zip stamps are fixed
    with zipfile.ZipFile(tmp_path / "a" / "residuals.npz") as zf:
        assert {(e.date_time, e.compress_type) for e in zf.infolist()} == {
            ((1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)}


def test_diagnose_manifest_records_timings(tmp_path):
    doc = base_run_config(tmp_path)
    assert main(["solve", "--config", write(tmp_path / "c.json", doc)]) == 0
    solve_manifest = (tmp_path / "out" / "manifest.json").read_bytes()
    keys = {"field_read_s", "select_s", "check_chain_s", "tables_s", "certify_s"}

    # cone base selected from the data: every phase timed
    assert main(["diagnose", "--config", str(tmp_path / "c.json"),
                 "--field", str(tmp_path / "out" / "field.npz"),
                 "--output", str(tmp_path / "diag")]) == 0
    man = json.loads((tmp_path / "diag" / "diagnose_manifest.json").read_text())
    assert set(man["timings"]) == keys
    assert all(v >= 0 for v in man["timings"].values())
    assert man["peak_rss_mb"] > 0
    # the running peak after each phase: the phase that sets the peak shows
    after = man["peak_rss_mb_after"]
    assert set(after) == {k[:-2] for k in keys}
    steps = [after[k] for k in ("field_read", "select", "check_chain", "tables", "certify")]
    assert 0 < steps[0] and steps == sorted(steps) and steps[-1] <= man["peak_rss_mb"]
    assert man["config_hash"] == config_hash(doc) and man["package_version"] == __version__
    meta = solver._read_npz(tmp_path / "diag" / "residuals.npz", "residuals")[1]
    for text in [(tmp_path / "diag" / name).read_text()
                 for name in ("diagnostics.json", "gronwall.json")] + [json.dumps(meta)]:
        assert "timings" not in text and "peak_rss_mb" not in text

    # cone base set, no --output: the solve directory keeps solve's manifest
    assert main(["diagnose", "--config", str(tmp_path / "c.json"),
                 "--field", str(tmp_path / "out" / "field.npz"),
                 "--override", "diagnostics.t2=0", "--override", "diagnostics.delta=0.25"]) == 0
    assert (tmp_path / "out" / "manifest.json").read_bytes() == solve_manifest
    man = json.loads((tmp_path / "out" / "diagnose_manifest.json").read_text())
    assert set(man["timings"]) == keys and man["timings"]["select_s"] is None
    assert man["timings"]["check_chain_s"] > 0
    assert man["peak_rss_mb_after"]["select"] is None and man["peak_rss_mb_after"]["tables"] > 0


def test_diagnose_logs_one_info_line_per_phase(solved_run, tmp_path, caplog):
    tmp, _ = solved_run
    caplog.set_level(logging.INFO, logger="wavelab")
    assert main(["diagnose", "--config", str(tmp / "c.json"),
                 "--field", str(tmp / "out" / "field.npz"),
                 "--output", str(tmp_path / "diag")]) == 0
    lines = [rec.getMessage() for rec in caplog.records
             if rec.name == "wavelab" and rec.levelno == logging.INFO]
    phases = ["field_read", "select", "check_chain", "tables", "certify"]
    assert [line.split()[1] for line in lines] == phases
    assert all(line.startswith("diagnose: ") and "peak RSS" in line for line in lines)


def test_solve_logs_one_info_line_per_phase(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="wavelab")
    doc = base_run_config(tmp_path)
    assert main(["solve", "--config", write(tmp_path / "c.json", doc)]) == 0
    lines = [rec.getMessage() for rec in caplog.records
             if rec.name == "wavelab" and rec.levelno == logging.INFO]
    phases = ["march", "residual", "field_write", "blowup_fit"]
    assert [line.split()[1] for line in lines] == phases
    assert all(line.startswith("solve: ") and "peak RSS" in line for line in lines)
    # the manifest keeps the running peak after each phase beside the timings
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(man["peak_rss_mb_after"]) == set(phases)
    assert set(man["timings"]) == {name + "_s" for name in phases}
    after = [man["peak_rss_mb_after"][name] for name in phases]
    assert 0 < after[0] and after == sorted(after) and after[-1] <= man["peak_rss_mb"]
    assert man["timings"]["march_s"] + man["timings"]["residual_s"] == man["wall_time_s"]


def test_diagnose_lifespan_beyond_r_star_is_exit_3(solved_run, tmp_path, monkeypatch):
    # a blown-up field outliving the lemma's r_star contradicts the lemma
    def short_radius(r, H, params):
        return GronwallCertificate(params, 1.0, 2.0, None, math.log10(2.0),
                                   window_end=1.5)

    monkeypatch.setattr(cli, "certify", short_radius)
    tmp, doc = solved_run
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(tmp / "out" / "field.npz"),
               "--output", str(tmp_path / "diag")])
    assert rc == 3
    g = json.loads((tmp_path / "diag" / "gronwall.json").read_text())
    assert g["r_star"] == 2.0 and g["t_b_within_r_star"] is False


def test_diagnose_supercritical_notes(tmp_path):
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0})
    doc["problem"]["p"] = 2.5
    rc = main(["solve", "--config", write(tmp_path / "c.json", doc)])
    assert rc == 0
    rc = main(["diagnose", "--config", str(tmp_path / "c.json"),
               "--field", str(tmp_path / "out" / "field.npz"),
               "--output", str(tmp_path / "diag")])
    assert rc == 0
    d = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert d["epsilon"] is None
    assert any("supercritical" in n for n in d["notes"])
    g = json.loads((tmp_path / "diag" / "gronwall.json").read_text())
    assert "supercritical" in g["skipped"]


@pytest.mark.parametrize("config_p, epsilon, rc", [
    (2.0, 1.0, 2),      # epsilon = p - 1
    (2.0, 1.5, 2),      # epsilon > p - 1
    (3.0, 1.5, 2),      # admissible for the config's p = 3, not for the field's p = 2
    (1.5, 0.7, 0),      # inadmissible for the config's p = 1.5, admissible for the field's
])
def test_diagnose_epsilon_checked_against_the_field_p(solved_run, tmp_path, capsys,
                                                      config_p, epsilon, rc):
    tmp, _ = solved_run
    with RadialField.load(tmp / "out" / "field.npz") as fld:
        assert fld.p == 2.0
    assert main(["diagnose", "--config", str(tmp / "c.json"),
                 "--field", str(tmp / "out" / "field.npz"), "--output", str(tmp_path / "d"),
                 "--override", f"problem.p={config_p}",
                 "--override", f"diagnostics.epsilon={epsilon}"]) == rc
    if rc == 2:
        assert "config error: diagnostics.epsilon" in capsys.readouterr().err
    else:
        assert json.loads((tmp_path / "d" / "diagnostics.json").read_text())["epsilon"] == epsilon


def test_diagnose_zero_constant_skips_certificate(tmp_path):
    # zero data: the chain holds trivially with M = C0 = 0, so the lemma's
    # constant C vanishes and the certificate is skipped with that reason
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0},
                          diagnostics={"t2": 0, "delta": 0.25})
    doc["problem"]["data"]["amplitude"] = 0.0
    cfg = write(tmp_path / "c.json", doc)
    assert main(["solve", "--config", cfg]) == 0
    rc = main(["diagnose", "--config", cfg, "--field", str(tmp_path / "out" / "field.npz"),
               "--output", str(tmp_path / "diag")])
    assert rc == 0
    d = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert d["holds"] is True and d["M"] == 0.0
    g = json.loads((tmp_path / "diag" / "gronwall.json").read_text())
    assert g["skipped"] == "hypotheses not met on this window: need C > 0"


def test_diagnose_truncated_field(solved_run, tmp_path, capsys):
    tmp, doc = solved_run
    bad = tmp_path / "bad.npz"
    bad.write_bytes((tmp / "out" / "field.npz").read_bytes()[:-100])
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(bad), "--output", str(tmp_path / "d")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def _rewritten(drop=None, samples=None, meta=None, **meta_updates):
    """Corruptor: the solved field.npz rewritten with one member or meta key changed."""
    def corrupt(src, tmp_path):
        with np.load(src) as npz:
            members = {"samples": npz["samples"], "meta": json.loads(npz["meta"][()])}
        members["meta"].update(meta_updates)
        members["meta"].pop(drop, None)
        members.pop(drop, None)
        if samples is not None:
            members["samples"] = samples(members["samples"].copy())
        members["meta"] = np.array(meta if meta is not None else json.dumps(members["meta"]))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **members)        # pickles object arrays, as a foreign writer might
        return bad
    return corrupt


def _nan_cell(samples):
    samples[5, 3] = np.nan
    return samples


def _as_csv(src, tmp_path):
    bad = tmp_path / "field.csv"
    with RadialField.load(src) as fld:
        field_to_csv(fld, bad)
    return bad


@pytest.mark.parametrize("corrupt", [
    _rewritten(samples=_nan_cell),
    _rewritten(drop="r_max"),
    _rewritten(drop="t_b"),
    _rewritten(drop="samples"),
    _rewritten(meta="# wavelab-field h=0.0625 r_max=17"),
    _rewritten(h="abc"),
    _rewritten(status="bogus"),
    _rewritten(samples=lambda s: s.astype(object)),
    _rewritten(samples=lambda s: s.astype(np.float32)),
    _rewritten(samples=lambda s: s[:, :-1]),
    _rewritten(r_max=17.03),
    _as_csv,
], ids=["cell", "missing_r_max", "missing_t_b", "missing_samples", "meta_not_json",
        "h_non_numeric", "unknown_status", "object_dtype", "float32_samples",
        "narrow_samples", "off_lattice", "csv_field"])
def test_diagnose_non_numeric_field_cell(solved_run, tmp_path, capsys, corrupt):
    tmp, doc = solved_run
    bad = corrupt(tmp / "out" / "field.npz", tmp_path)
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(bad), "--output", str(tmp_path / "d")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def test_diagnose_refuses_a_field_whose_crc_fails(solved_run, tmp_path, capsys):
    # one byte flipped inside the samples' data, past the npy header
    tmp, _ = solved_run
    raw = bytearray((tmp / "out" / "field.npz").read_bytes())
    raw[len(raw) // 2] ^= 0x01
    (tmp_path / "field.npz").write_bytes(bytes(raw))
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(tmp_path / "field.npz"), "--output", str(tmp_path / "d")])
    assert rc == 2
    assert "Bad CRC-32 for file 'samples.npy'" in capsys.readouterr().err


_DIAGNOSE_OUTPUTS = ("diagnostics.json", "residuals.npz", "gronwall.json")


def test_diagnose_leaves_field_npz_as_it_was(solved_run, tmp_path):
    # the loader opens field.npz read-only and its reader only closes it: the
    # file keeps its bytes, mode and mtime, and its directory gains no file,
    # after a diagnose that exits 0, one that exits 4 (GridTooShortError: t2
    # leaves no room for the chain) and one that exits 2 (an epsilon outside
    # (0, p - 1), refused once the field is loaded)
    tmp, _ = solved_run
    field = tmp_path / "field" / "field.npz"
    field.parent.mkdir()
    field.write_bytes((tmp / "out" / "field.npz").read_bytes())
    os.chmod(field, 0o640)
    os.utime(field, ns=(1_000_000_000, 1_000_000_000))
    before = (field.read_bytes(), field.stat().st_mode, field.stat().st_mtime_ns)
    for code, override in ((0, []), (4, ["--override", "diagnostics.t2=14"]),
                           (2, ["--override", "diagnostics.epsilon=5"])):
        assert main(["diagnose", "--config", str(tmp / "c.json"), "--field", str(field),
                     "--output", str(tmp_path / f"d{code}"), *override]) == code
        assert (field.read_bytes(), field.stat().st_mode, field.stat().st_mtime_ns) == before
        assert [p.name for p in field.parent.iterdir()] == ["field.npz"]


def _member_data(raw, name):
    """(the zip local header offset, the start and end of the data) of a stored member."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        info = zf.getinfo(name)
    at = info.header_offset + 26
    start = at + 4 + sum(int.from_bytes(raw[k : k + 2], "little") for k in (at, at + 2))
    return info.header_offset, start, start + info.file_size


@pytest.mark.parametrize("damage", ["flipped_last_row", "nan_with_valid_crc"])
def test_diagnose_checks_the_field_before_any_output(solved_run, tmp_path, capsys, damage):
    # the load's pass reads every row before the chain starts: a byte flipped
    # in the last stored row fails the CRC-32, and a NaN planted mid-field with
    # the member's CRC-32 recomputed (so the zip is valid) fails the finiteness
    # check; both exit 2 with no diagnose output written
    tmp, _ = solved_run
    raw = bytearray((tmp / "out" / "field.npz").read_bytes())
    local, start, end = _member_data(bytes(raw), "samples.npy")
    with np.load(tmp / "out" / "field.npz") as npz:
        rows, width = npz["samples"].shape
    if damage == "flipped_last_row":
        raw[end - 8 * width + 3] ^= 0x10
        message = "Bad CRC-32 for file 'samples.npy'"
    else:
        mid = end - 8 * width * (rows // 2) - 8 * (width // 3)
        raw[mid : mid + 8] = np.array([np.nan]).tobytes()
        crc = zlib.crc32(raw[start:end]).to_bytes(4, "little")
        central = raw.index(b"PK\x01\x02")           # samples.npy's entry comes first
        raw[local + 14 : local + 18] = raw[central + 16 : central + 20] = crc
        message = "stored samples must be finite"
    bad = tmp_path / "field.npz"
    bad.write_bytes(bytes(raw))
    if damage == "nan_with_valid_crc":
        with zipfile.ZipFile(bad) as zf:
            assert zf.testzip() is None
    out = tmp_path / "d"
    assert main(["diagnose", "--config", str(tmp / "c.json"), "--field", str(bad),
                 "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any((out / name).exists() for name in _DIAGNOSE_OUTPUTS)


def _diagnose_outputs(out):
    """diagnostics.json, gronwall.json and every residuals.npz column, as bytes."""
    tables, _ = solver._read_npz(out / "residuals.npz", "residuals")
    return ({name: (out / name).read_bytes() for name in ("diagnostics.json", "gronwall.json")},
            {name: column.tobytes() for name, column in tables.items()})


@pytest.mark.parametrize("amplitude", [10.0, 1.0])
def test_diagnose_of_the_field_on_disk_is_the_field_held(tmp_path, monkeypatch, amplitude):
    # _run_diagnose on field.npz kept on disk (a RowFile) and on the same field
    # held as an array give the same diagnostics.json and gronwall.json and
    # every residuals.npz column bit for bit, for a blown-up field and a
    # complete one; the budgets are cut so the load's blocks, the Sigma
    # blocks, the alpha blocks and their bands all end mid-field
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 16.0})
    doc["problem"]["data"]["amplitude"] = amplitude
    cfg = parse_run_config(doc)
    cli._run_solve(cfg, tmp_path / "out")
    for module, name, value in ((solver, "_BLOCK_NODES", 3000), (diagnostics, "_BLOCK_NODES", 2000),
                                (diagnostics, "_SPAN_CELLS", 5000)):
        monkeypatch.setattr(module, name, value)
    with RadialField.load(tmp_path / "out" / "field.npz") as field:
        assert isinstance(field.samples, solver.RowFile)
        assert len(list(diagnostics._alpha_spans(field.n_levels - 20, 8))) > 3
    assert cli._run_diagnose(cfg, tmp_path / "out" / "field.npz", tmp_path / "disk") == 0
    load = RadialField.load

    def in_memory(path):
        with load(path) as field:
            return dataclasses.replace(field, samples=held(field.samples))

    monkeypatch.setattr(RadialField, "load", staticmethod(in_memory))
    assert cli._run_diagnose(cfg, tmp_path / "out" / "field.npz", tmp_path / "held") == 0
    disk, memory = _diagnose_outputs(tmp_path / "disk"), _diagnose_outputs(tmp_path / "held")
    assert json.loads(disk[0]["diagnostics.json"])["holds"] is True
    assert disk == memory


@pytest.mark.parametrize("layout", ["fortran", "compressed"])
def test_foreign_field_layouts_load_and_give_the_same_report(solved_run, tmp_path, layout):
    # samples written in Fortran order, or deflated by np.savez_compressed, are
    # numpy's in-memory read; the report is the one of field.npz as solve wrote it
    tmp, _ = solved_run
    with np.load(tmp / "out" / "field.npz") as npz:
        samples, meta = npz["samples"], npz["meta"]
    bad = tmp_path / "field.npz"
    if layout == "fortran":
        solver._write_npz(bad, {"samples": np.asfortranarray(samples)}, json.loads(meta[()]))
    else:
        np.savez_compressed(bad, samples=samples, meta=meta)
    with RadialField.load(bad) as field:
        assert isinstance(field.samples, np.ndarray)
    for field, out in ((tmp / "out" / "field.npz", "solved"), (bad, layout)):
        assert main(["diagnose", "--config", str(tmp / "c.json"), "--field", str(field),
                     "--output", str(tmp_path / out)]) == 0
    assert _diagnose_outputs(tmp_path / "solved") == _diagnose_outputs(tmp_path / layout)


def test_manifests_record_anonymous_rss_after_each_phase(solved_run, tmp_path):
    # RssAnon from /proc/self/status after each phase, beside the running RSS
    # peak, in solve's manifest.json and in diagnose_manifest.json: a number
    # where the process's status file has it, else null
    tmp, _ = solved_run
    assert main(["diagnose", "--config", str(tmp / "c.json"),
                 "--field", str(tmp / "out" / "field.npz"), "--output", str(tmp_path)]) == 0
    have = cli._rss_anon_mb() is not None
    for path in (tmp / "out" / "manifest.json", tmp_path / "diagnose_manifest.json"):
        man = json.loads(path.read_text())
        anon = man["rss_anon_mb_after"]
        assert set(anon) == set(man["peak_rss_mb_after"])
        for phase, value in anon.items():
            if man["peak_rss_mb_after"][phase] is None:
                assert value is None
            else:
                assert (0 < value <= man["peak_rss_mb"]) if have else value is None


def test_rss_anon_is_none_without_a_status_line(monkeypatch, tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmRSS:\t 100 kB\n")
    real_open = open
    monkeypatch.setattr("builtins.open", lambda path, *a, **k: real_open(
        status if path == "/proc/self/status" else path, *a, **k))
    assert cli._rss_anon_mb() is None
    status.write_text("RssAnon:\t 2048 kB\n")
    assert cli._rss_anon_mb() == 2.0
    status.unlink()
    assert cli._rss_anon_mb() is None


def test_diagnose_grid_too_short(tmp_path, capsys):
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 0.5})
    doc["problem"]["data"]["amplitude"] = 1.0
    rc = main(["solve", "--config", write(tmp_path / "c.json", doc)])
    assert rc == 0
    rc = main(["diagnose", "--config", str(tmp_path / "c.json"),
               "--field", str(tmp_path / "out" / "field.npz"),
               "--output", str(tmp_path / "d")])
    assert rc == 4
    assert "extend" in capsys.readouterr().err


def test_diagnose_refuses_a_field_short_of_the_domain_of_dependence(solved_run, tmp_path,
                                                                    capsys):
    # README data (rho = 1) with t_max = 4 needs r_max >= 5, the test solve applies;
    # r_max = 2 is a lattice longer than it is wide, r_max = 4 one just too narrow
    tmp, _ = solved_run
    cfg = write(tmp_path / "c.json", base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0}))
    for r_max in (2.0, 4.0):
        grid = solver.CharGrid(1 / 16, r_max, 4.0)
        field = RadialField(grid, np.full((grid.n_t + 1, grid.n_r + 1), 0.5), p=2.0, A=1.0)
        field.save(tmp_path / "field.npz")
        assert main(["diagnose", "--config", cfg, "--field", str(tmp_path / "field.npz"),
                     "--output", str(tmp_path / "d")]) == 2
        assert (f"config error: field grid violates the domain of dependence: "
                f"r_max = {r_max:g} < rho + t_max = 5") in capsys.readouterr().err
        assert not (tmp_path / "d" / "diagnostics.json").exists()
    # the README field has r_max = rho + t_max exactly
    assert main(["diagnose", "--config", str(tmp / "c.json"),
                 "--field", str(tmp / "out" / "field.npz"),
                 "--output", str(tmp_path / "readme")]) == 0


def _solve_and_diagnose(tmp_path, doc):
    tmp_path.mkdir()
    cfg = write(tmp_path / "c.json", doc)
    codes = (main(["solve", "--config", cfg, "--output", str(tmp_path / "out")]),
             main(["diagnose", "--config", cfg, "--field", str(tmp_path / "out" / "field.npz"),
                   "--output", str(tmp_path / "out")]))
    names = ("field.npz", "residual.json", "diagnostics.json", "gronwall.json", "residuals.npz")
    return codes, {name: (tmp_path / "out" / name).read_bytes() for name in names}


@pytest.mark.parametrize("p", [2.0, 2.41])
def test_light_cone_cuts_keep_every_artifact_byte(tmp_path, monkeypatch, p):
    # solve and diagnose at rho/32, then again with the references swapped in:
    # the sweep over every cell diagonal (in solver and diagnostics) of each
    # source built whole, on every node, the march on full-width rows (its u0
    # band, from the full-width evaluator, widened past r_max) with |u|^p on
    # every node, and u0 on every column for the cone selection
    doc = base_run_config(tmp_path, grid={"h": 1 / 32, "t_max": 16.0})
    doc["problem"]["p"] = p
    codes, cut = _solve_and_diagnose(tmp_path / "cut", doc)
    assert codes[0] == 0 and json.loads(cut["residual.json"])["nodes"] > 0
    monkeypatch.setattr(solver, "influence_quadrature", dense_quadrature)
    monkeypatch.setattr(diagnostics, "influence_quadrature", dense_quadrature)
    monkeypatch.setattr(cli, "HomogeneousPart", march_oracle.full_width_band)
    monkeypatch.setattr(diagnostics, "HomogeneousPart", march_oracle.band_evaluator)
    assert _solve_and_diagnose(tmp_path / "whole", doc) == (codes, cut)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_doc(tmp_path):
    return {
        "p_values": [2.0, 3.0],
        "amplitudes": [0.0, 10.0],
        "parallel_jobs": 2,
        "base": {"problem": {"A": 1.0, "data": {"profile": "bump", "amplitude": 0.0, "rho": 1.0}},
                 "grid": {"h": 1 / 16, "t_max": 6.0},
                 "output_dir": str(tmp_path / "sweep")},
    }


def test_sweep_rows_and_resume(tmp_path):
    doc = sweep_doc(tmp_path)
    cfg_path = write(tmp_path / "s.json", doc)
    assert main(["sweep", "--config", cfg_path]) == 0
    csv1 = (tmp_path / "sweep" / "sweep.csv").read_text()
    lines = csv1.strip().splitlines()
    assert lines[0] == "p,amplitude,status,t_b,fitted_t_b,max_amplitude_reached,epsilon,s_margin"
    assert len(lines) == 5
    # deterministic ordering: p outer loop, amplitude inner
    firsts = [ln.split(",")[:2] for ln in lines[1:]]
    assert firsts == [["2", "0"], ["2", "10"], ["3", "0"], ["3", "10"]]
    # zero-amplitude rows complete with zero field; epsilon blank above critical
    row20 = lines[1].split(",")
    assert row20[2] == "complete" and row20[5] == "0"
    row30 = lines[3].split(",")
    assert row30[6] == "" and float(row30[7]) < 0
    # each row manifest carries its solve's timings, and wall_time_s means
    # what it means in solve's manifest: march plus residual
    for row_dir in (tmp_path / "sweep" / "rows").iterdir():
        man = json.loads((row_dir / "manifest.json").read_text())
        assert set(man["timings"]) == {"march_s", "residual_s", "field_write_s", "blowup_fit_s"}
        assert man["wall_time_s"] == man["timings"]["march_s"] + man["timings"]["residual_s"]
        assert man["peak_rss_mb"] > 0.0
    # resume: artifacts verify against manifests and rows are reused bytewise
    assert main(["sweep", "--config", cfg_path]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").read_text() == csv1
    # a row computed by another package version, or by other source code under
    # the same version, or whose manifest is valid JSON but not an object, is
    # recomputed; the rest are untouched
    rows = sorted((tmp_path / "sweep" / "rows").iterdir())
    stale = {rows[1]: ("package_version", "0.0.0"), rows[2]: ("code_digest", "0" * 16),
             rows[3]: None}
    row_bytes = {}
    for row_dir, edit in stale.items():
        man = json.loads((row_dir / "manifest.json").read_text())
        assert man["code_digest"] == cli._code_digest()
        if edit is not None:
            man[edit[0]] = edit[1]
        (row_dir / "manifest.json").write_text(json.dumps(man) if edit else "[]")
        row_bytes[row_dir] = {f: (row_dir / f).read_bytes()
                              for f in ("field.npz", "residual.json")}
        (row_dir / "field.npz").write_text("stale\n")
    kept_bytes = {f: f.read_bytes() for d in rows if d not in stale for f in d.iterdir()}
    assert main(["sweep", "--config", cfg_path]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").read_text() == csv1
    for row_dir in stale:
        man = json.loads((row_dir / "manifest.json").read_text())
        assert (man["package_version"], man["code_digest"]) == (__version__, cli._code_digest())
        assert {f: (row_dir / f).read_bytes() for f in row_bytes[row_dir]} == row_bytes[row_dir]
    assert {f: f.read_bytes() for f in kept_bytes} == kept_bytes


def test_sweep_row_documents_are_the_base_with_p_and_amplitude(tmp_path, monkeypatch):
    # a row solves the base with problem.p and problem.data.amplitude set; the
    # config_hash of its document decides resume, so the hashes are pinned
    tasks = []
    monkeypatch.setattr(cli, "_resumable_row", lambda task: tasks.append(task) or {})
    base = {"problem": {"A": 2.0, "data": {"profile": "bump", "rho": 1.0, "amplitude": 0.0}},
            "grid": {"h": 0.0625, "t_max": 1.0}}
    cfg = write(tmp_path / "s.json", {"p_values": [2, 3.5], "amplitudes": [1e-05, 10.0],
                                      "base": base})
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path),
                 "--override", "base.grid.t_max=2.0"]) == 0
    # the last row is the base with the override, its p and its amplitude applied
    base["grid"]["t_max"], base["problem"]["p"] = 2.0, 3.5
    base["problem"]["data"]["amplitude"] = 10.0
    assert tasks[3] == (base, str(tmp_path / "rows" / "p01_a01"))
    assert [config_hash(doc) for doc, _ in tasks] == [
        "0bc54eaa1ed9f698", "87b8b64a4f593170", "7ce6264ab12e76da", "e00b82e7846cb7ed"]


def test_sweep_recomputes_a_row_whose_manifest_is_not_utf8(tmp_path):
    # an undecodable row manifest makes that row stale, as invalid JSON does:
    # it is solved again to the same bytes, and no other file is rewritten
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--jobs", "1"]) == 0
    csv1, files = (out / "sweep.csv").read_bytes(), _row_files(out)
    stale = sorted((out / "rows").iterdir())[2]
    (stale / "manifest.json").write_bytes(b"\xff\xfe{}")
    assert main(["sweep", "--config", cfg_path, "--jobs", "1"]) == 0
    assert (out / "sweep.csv").read_bytes() == csv1
    after = _row_files(out)
    assert after.keys() == files.keys()
    for f, (data, mtime) in files.items():
        if f.parent != stale:
            assert after[f] == (data, mtime), f
        elif f.name != "manifest.json":
            assert after[f][0] == data, f
    man = json.loads((stale / "manifest.json").read_text())
    assert man["code_digest"] == cli._code_digest() and man["row"]["p"] == 3.0


def test_sweep_writes_each_row_manifest_once(tmp_path, monkeypatch):
    # the row manifest is the only manifest.json a computed row writes; a resume writes none
    written = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json",
                        lambda path, obj: (written.append(Path(path)), write_json(path, obj)))
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    assert main(["sweep", "--config", cfg_path, "--jobs", "1"]) == 0
    manifests = [path for path in written if path.name == "manifest.json"]
    assert len(manifests) == len(set(manifests)) == 4
    assert json.loads(manifests[0].read_text())["row"]["p"] == 2.0
    # each row's running peak RSS after every phase, keyed as in solve's manifest
    for path in manifests:
        after = json.loads(path.read_text())["peak_rss_mb_after"]
        assert set(after) == {"march", "residual", "field_write", "blowup_fit"}
        assert 0 < after["march"] <= after["blowup_fit"]
    written.clear()
    assert main(["sweep", "--config", cfg_path, "--jobs", "1"]) == 0
    assert written == []


def _row_files(out):
    return {f: (f.read_bytes(), f.stat().st_mtime_ns)
            for f in sorted((out / "rows").rglob("*")) if f.is_file()}


def test_current_sweep_resumes_without_a_pool(tmp_path, monkeypatch, caplog):
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    out = tmp_path / "sweep"
    caplog.set_level(logging.INFO, logger="wavelab")
    assert main(["sweep", "--config", cfg_path, "--jobs", "2"]) == 0
    csv1, files = (out / "sweep.csv").read_bytes(), _row_files(out)
    assert len(files) == 4 * 3

    def no_workers(*args, **kwargs):
        raise AssertionError("a sweep with every row current forked workers")

    monkeypatch.setattr(cli, "_forked_rows", no_workers)
    caplog.clear()
    assert main(["sweep", "--config", cfg_path, "--jobs", "2"]) == 0
    assert (out / "sweep.csv").read_bytes() == csv1
    assert _row_files(out) == files
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "wavelab"]
    assert f"sweep: 4 rows (4 resumed, 0 solved on 0 workers) -> {out / 'sweep.csv'}" in lines


def _recording_forks(monkeypatch):
    """Record each cli._forked_rows call: its workers, its tasks, and for each row
    it returns the process that ran cli._sweep_row and the task it ran on.  The
    rows are solved by the real helper in forked workers, and _sweep_row marks
    each row it returns; the marks go no further than the record."""
    calls, forked_rows, sweep_row = [], cli._forked_rows, cli._sweep_row

    def marked_row(task):
        return {**sweep_row(task), "ran_in": os.getpid(), "ran_on": task}

    def recorder(tasks, workers):
        rows = forked_rows(tasks, workers)
        calls.append({"workers": workers, "tasks": tasks,
                      "ran_in": [row.pop("ran_in") for row in rows],
                      "ran_on": [row.pop("ran_on") for row in rows]})
        return rows

    monkeypatch.setattr(cli, "_sweep_row", marked_row)
    monkeypatch.setattr(cli, "_forked_rows", recorder)
    return calls


def test_sweep_pool_is_sized_to_the_rows_to_solve(tmp_path, monkeypatch, caplog):
    built = _recording_forks(monkeypatch)
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    out = tmp_path / "sweep"
    # one job: rows run in the sweep's own process
    assert main(["sweep", "--config", cfg_path, "--jobs", "1"]) == 0
    assert built == []
    csv1 = (out / "sweep.csv").read_bytes()
    rows = sorted((out / "rows").iterdir())

    def make_stale(row_dir):
        man = json.loads((row_dir / "manifest.json").read_text())
        man["code_digest"] = "0" * 16
        (row_dir / "manifest.json").write_text(json.dumps(man))

    caplog.set_level(logging.INFO, logger="wavelab")
    for stale, jobs, workers in (([rows[1], rows[3]], 4, 2), ([rows[2]], 2, 1)):
        for row_dir in stale:
            make_stale(row_dir)
        kept = {f: v for f, v in _row_files(out).items() if f.parent not in stale}
        built.clear()
        caplog.clear()
        assert main(["sweep", "--config", cfg_path, "--jobs", str(jobs)]) == 0
        assert [call["workers"] for call in built] == [workers]
        assert [Path(row_dir) for _, row_dir in built[0]["tasks"]] == stale
        # _sweep_row ran on each task, in forked workers, and the rows came back in order
        assert built[0]["ran_on"] == built[0]["tasks"]
        assert os.getpid() not in built[0]["ran_in"] and len(set(built[0]["ran_in"])) <= workers
        assert (out / "sweep.csv").read_bytes() == csv1
        assert {f: v for f, v in _row_files(out).items() if f.parent not in stale} == kept
        for row_dir in stale:
            assert json.loads((row_dir / "manifest.json").read_text())["code_digest"] == \
                cli._code_digest()
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "wavelab"]
        assert (f"sweep: 4 rows ({4 - len(stale)} resumed, {len(stale)} solved on "
                f"{workers} workers) -> {out / 'sweep.csv'}") in lines


def test_sweep_reads_the_code_digest_before_any_row(tmp_path, monkeypatch):
    # a fresh sweep hashes the package's sources before its first row starts,
    # so every row, in this process or a forked worker, carries that one digest
    seen, run_solve = [], cli._run_solve

    def spy(cfg, out_dir):
        seen.append(cli._code_digest.cache_info().currsize)
        return run_solve(cfg, out_dir)

    monkeypatch.setattr(cli, "_run_solve", spy)
    cli._code_digest.cache_clear()
    assert main(["sweep", "--config", write(tmp_path / "s.json", sweep_doc(tmp_path)),
                 "--jobs", "1"]) == 0
    assert seen == [1, 1, 1, 1]


def _assert_every_child_reaped():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error, code", [(ConfigError, 2), (ValueError, 3)])
def test_an_exception_in_a_forked_row_exits_as_with_one_job(tmp_path, monkeypatch, capsys,
                                                            error, code):
    # an exception that escapes _sweep_row in a worker is raised in the sweep's
    # process: the exit code and the message are those of one job, no
    # sweep.csv is written, and every worker is reaped
    sweep_row = cli._sweep_row

    def failing_row(task):
        if Path(task[1]).name == "p00_a01":
            raise error("row refused")
        return sweep_row(task)

    monkeypatch.setattr(cli, "_sweep_row", failing_row)
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    errors = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg_path, "--jobs", jobs, "--output", str(out)]) == code
        errors.append(capsys.readouterr().err)
        assert not (out / "sweep.csv").exists()
        _assert_every_child_reaped()
    assert errors[0] == errors[1] and errors[0].endswith(": row refused\n")


def test_a_worker_that_dies_fails_the_sweep_naming_its_row(tmp_path, monkeypatch):
    # a worker that exits without returning its row fails the sweep: the error
    # names the row, no sweep.csv is written, the other worker solves the
    # other rows, and every worker is reaped
    sweep_row = cli._sweep_row

    def dying_row(task):
        if Path(task[1]).name == "p01_a00":
            os._exit(1)
        return sweep_row(task)

    monkeypatch.setattr(cli, "_sweep_row", dying_row)
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    out = tmp_path / "sweep"
    with pytest.raises(RuntimeError) as exc:
        main(["sweep", "--config", cfg_path, "--jobs", "2"])
    assert str(exc.value) == f"no sweep worker returned the row of {out / 'rows' / 'p01_a00'}"
    assert not (out / "sweep.csv").exists()
    _assert_every_child_reaped()
    assert sorted(d.name for d in (out / "rows").iterdir() if (d / "manifest.json").exists()) == [
        "p00_a00", "p00_a01", "p01_a01"]


def test_forked_rows_come_back_whole_past_one_pipe_write(monkeypatch):
    # replies longer than PIPE_BUF go back in frames that the workers, more
    # of them than this machine may have cores, interleave; each row comes
    # back whole, and the rows in task order
    monkeypatch.setattr(cli, "_sweep_row", lambda task: {"doc": task[0] * 3, "dir": task[1]})
    tasks = [(chr(ord("a") + i) * 5000, f"row{i}") for i in range(7)]
    assert cli._forked_rows(tasks, 3) == [{"doc": doc * 3, "dir": d} for doc, d in tasks]
    _assert_every_child_reaped()


def test_main_builds_only_the_invoked_commands_parser(tmp_path, capsys, monkeypatch):
    # a command builds its own subparser alone; no command, --help and an
    # unknown command build all five, so usage, help and the error list them
    usages, build = [], cli.build_parser

    def spy(command=None):
        ap = build(command)
        usages.append(ap.format_usage())
        return ap

    monkeypatch.setattr(cli, "build_parser", spy)
    cfg = write(tmp_path / "g.json", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0},
                                      "J1": 1.0})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 0
    assert usages == ["usage: wavelab [-h] {gronwall} ...\n"]
    every = "{solve,diagnose,sweep,gronwall,mean}"
    invalid = "invalid choice: 'bogus' (choose from 'solve', 'diagnose', 'sweep', 'gronwall', 'mean')"
    for argv, code, stream, text in [([], 2, "err", every), (["--help"], 0, "out", every),
                                     (["bogus"], 2, "err", invalid)]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code and usages[-1] == f"usage: wavelab [-h] {every} ...\n"
        assert text in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_non_positive_jobs(tmp_path, capsys, jobs):
    cfg_path = write(tmp_path / "s.json", sweep_doc(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", cfg_path, "--jobs", jobs])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_blowup_row_recorded(tmp_path):
    doc = {
        "p_values": [2.0],
        "amplitudes": [0.0, 10.0],
        "base": {"problem": {"data": {"profile": "bump", "amplitude": 0.0, "rho": 1.0}},
                 "grid": {"h": 1 / 16, "t_max": 16.0},
                 "output_dir": str(tmp_path / "sweep")},
    }
    assert main(["sweep", "--config", write(tmp_path / "s.json", doc)]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    zero_row = lines[1].split(",")
    blow_row = lines[2].split(",")
    assert zero_row[2] == "complete"
    assert blow_row[2] == "blown_up"
    t_b, fitted = float(blow_row[3]), float(blow_row[4])
    assert 10.0 < t_b < 17.0
    # the fitted singular time lies past the last computed level, near t_b
    assert t_b - 1 / 16 < fitted < t_b + 0.5


def test_sweep_empty_amplitudes_exits_2(tmp_path):
    doc = {"p_values": [2.0], "amplitudes": [],
           "base": {"problem": {"data": {"profile": "bump", "amplitude": 0.0, "rho": 1.0}},
                    "grid": {"h": 0.25, "t_max": 1.0}}}
    assert main(["sweep", "--config", write(tmp_path / "s.json", doc)]) == 2


def test_sweep_continues_after_row_error(tmp_path):
    doc = sweep_doc(tmp_path)
    # an impossible threshold makes every row with data fail validation
    doc["base"]["solver"] = {"blowup_threshold": 1e-9}
    cfg_path = write(tmp_path / "s.json", doc)
    assert main(["sweep", "--config", cfg_path]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    statuses = [ln.split(",")[2] for ln in lines[1:]]
    assert "error" in statuses


def test_solve_determinism_bytewise(tmp_path):
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0})
    cfg = write(tmp_path / "c.json", doc)
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "b")]) == 0
    fa = (tmp_path / "a" / "field.npz").read_bytes()
    fb = (tmp_path / "b" / "field.npz").read_bytes()
    assert fa == fb


def test_solve_leaves_one_field_artifact(tmp_path, monkeypatch):
    # tools find the field as the one field.* file that is not JSON, and a
    # sweep's resume compares the stamps of every file in a row: the file the
    # march writes field.npz into is renamed field.npz once complete, and
    # removed when solve raises mid-march, which leaves the earlier field.npz
    # as it was
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 2.0})
    cfg, out = write(tmp_path / "c.json", doc), tmp_path / "out"
    assert main(["solve", "--config", cfg]) == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["field.npz", "manifest.json", "residual.json"]
    before = (out / "field.npz").read_bytes(), (out / "field.npz").stat().st_mtime_ns
    append, levels = solver.RowFile.append, []

    def fail_mid_march(rows, row):
        levels.append(len(rows.lengths))
        if len(levels) == 5:
            assert (out / cli._FIELD_PART).exists()
            raise RuntimeError("mid-march")
        append(rows, row)

    monkeypatch.setattr(solver.RowFile, "append", fail_mid_march)
    with pytest.raises(RuntimeError, match="mid-march"):
        main(["solve", "--config", cfg])
    assert levels == [0, 1, 2, 3, 4]
    assert sorted(f.name for f in out.iterdir()) == names
    assert ((out / "field.npz").read_bytes(), (out / "field.npz").stat().st_mtime_ns) == before


# ---------------------------------------------------------------------------
# gronwall and mean subcommands
# ---------------------------------------------------------------------------

def test_gronwall_subcommand_J1(tmp_path):
    cfg = write(tmp_path / "g.json",
                {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": 1.0})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gronwall.json").read_text())
    assert doc["r_star"] == pytest.approx(2.0)
    assert doc["log10_r_star"] == pytest.approx(math.log10(2.0))


def test_gronwall_subcommand_J1_beyond_doubles(tmp_path):
    cfg = write(tmp_path / "g.json",
                {"params": {"C": 1e-8, "a": 1.5, "b": -0.99, "t0": 0, "t1": 0}, "J1": 1.0})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 0
    text = (tmp_path / "gronwall.json").read_text()
    assert "Infinity" not in text
    doc = json.loads(text)
    assert doc["r_star"] is None
    assert doc["log10_r_star"] == pytest.approx(1030.1, abs=0.01)


def test_gronwall_subcommand_H_csv(tmp_path):
    r = np.linspace(0.0, 7.0, 7001)
    with open(tmp_path / "H.csv", "w") as fh:
        fh.write("r,H\n")
        for x, y in zip(r, r**2):
            fh.write(f"{x:.17g},{y:.17g}\n")
    cfg = write(tmp_path / "g.json",
                {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0},
                 "H_csv": str(tmp_path / "H.csv")})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gronwall.json").read_text())
    assert doc["violation_found_at"] <= doc["r_star"]
    assert doc["log10_r_star"] == pytest.approx(math.log10(doc["r_star"]), rel=1e-12)


def test_gronwall_subcommand_window_short(tmp_path):
    r = np.linspace(0.0, 1.5, 151)
    with open(tmp_path / "H.csv", "w") as fh:
        fh.write("r,H\n")
        for x in r:
            fh.write(f"{x:.17g},5.0\n")
    cfg = write(tmp_path / "g.json",
                {"params": {"C": 1e-4, "a": 2, "b": 0, "t0": 0, "t1": 0},
                 "H_csv": str(tmp_path / "H.csv")})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 4
    # the short window's numbers are written beside the reason, as diagnose does
    doc = json.loads((tmp_path / "gronwall.json").read_text())
    assert set(doc) == {"C", "a", "b", "t0", "t1", "J1", "r_star", "log10_r_star",
                        "skipped", "window_end"}
    assert doc["J1"] == pytest.approx(25.0, rel=1e-12) and doc["window_end"] == 1.5
    assert doc["log10_r_star"] == pytest.approx(math.log10(doc["r_star"]), rel=1e-12)
    assert doc["skipped"] == ("extend window to r_star: no violation up to 1.5 "
                              f"but the lemma only forces one by {doc['r_star']:g}")


def test_gronwall_subcommand_bad_params(tmp_path):
    cfg = write(tmp_path / "g.json",
                {"params": {"C": 1, "a": 2, "b": -2, "t0": 0, "t1": 0}, "J1": 1.0})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, doc", [
    ("gronwall", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": None}),
    ("gronwall", {"params": {"C": None, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": 1.0}),
    ("gronwall", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": "abc"}),
    ("gronwall", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": math.nan}),
    ("gronwall", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": 0,
                  "output_dir": "out"}),
    ("gronwall", {"params": {"C": 1, "a": 2, "b": 0, "t0": 0, "t1": 0}, "J1": -1.0,
                  "output_dir": "out"}),
    ("mean", {"family": "monomial", "params": {"powers": [2, 0, 0]},
              "radii": {"start": 0.1, "stop": 1}}),
    ("mean", {"family": "monomial", "params": {"powers": [2, 0, 0]}, "radii": [1.0],
              "output_dir": None}),
    ("mean", {"family": "monomial", "params": {"powers": [2, 0, 0]}, "radii": [0.5, -0.1],
              "output_dir": "out"}),
], ids=["J1_null", "C_null", "J1_text", "J1_nan", "J1_zero", "J1_negative",
        "radii_without_count", "output_dir_null", "radii_negative"])
def test_malformed_direct_input_is_a_config_error(tmp_path, monkeypatch, capsys, command, doc):
    # nothing is written, not even the output directory
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", write(tmp_path / "c.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_mean_subcommand_monomial(tmp_path):
    cfg = write(tmp_path / "m.json",
                {"family": "monomial", "params": {"powers": [2, 0, 0]},
                 "radii": [0.0, 1.0, 2.0], "degree": 23})
    assert main(["mean", "--config", cfg, "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "mean.csv").read_text().strip().splitlines()
    assert lines[0] == "r,value"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert vals[2] == pytest.approx(4.0 / 3.0, rel=1e-12)


def _held_solve(cfg, out_dir):
    """solve's field.npz and residual.json as the in-memory writer makes them:
    the march holds the field and ``RadialField.save`` writes it whole."""
    out_dir.mkdir(parents=True)
    grid = cfg.build_grid()
    problem = cfg.build_problem(grid)
    fld = solver.solve_march(problem, grid, cfg.blowup_threshold, cfg.divergence_factor)
    fld.save(out_dir / "field.npz")
    cli._write_json(out_dir / "residual.json", solver.integral_residual(problem, fld))
    return fld.status


def _same_artifacts(a, b):
    for name in ("field.npz", "residual.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).stat().st_mode == (b / name).stat().st_mode


def test_every_solve_streams_its_field(tmp_path, monkeypatch):
    # a solve of any size, here h = 1/16 (a 42 KB field), goes to field.npz
    # as the march makes it, and writes what the in-memory writer writes, with
    # the same file mode
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0})
    made, row_file = [], cli.RowFile

    def counted(*args):
        made.append(args)
        return row_file(*args)

    monkeypatch.setattr(cli, "RowFile", counted)
    out = tmp_path / "streamed"
    assert main(["solve", "--config", write(tmp_path / "c.json", doc), "--output", str(out)]) == 0
    assert len(made) == 1
    monkeypatch.undo()
    assert _held_solve(parse_run_config(doc), tmp_path / "held") == "complete"
    _same_artifacts(tmp_path / "held", out)


def test_sweep_row_holds_no_field(tmp_path, monkeypatch):
    # a sweep row marches into field.npz and never builds a field
    # (solver._zeros), blown up or complete, and writes what the in-memory
    # writer writes
    def no_field(shape):
        raise AssertionError(f"a {shape} field was built")

    base = base_run_config(tmp_path)
    for amplitude, status in ((10.0, "blown_up"), (1.0, "complete")):
        row_doc = apply_overrides(base, ["problem.p=2.0", f"problem.data.amplitude={amplitude!r}"])
        row_dir = tmp_path / f"row-{status}"
        monkeypatch.setattr(solver, "_zeros", no_field)
        row = cli._sweep_row((row_doc, str(row_dir)))
        monkeypatch.undo()
        assert row["status"] == status and "error" not in row
        assert _held_solve(parse_run_config(row_doc), tmp_path / f"held-{status}") == status
        _same_artifacts(tmp_path / f"held-{status}", row_dir)


# ---------------------------------------------------------------------------
# the benchmark's traced run
# ---------------------------------------------------------------------------

def test_traced_bench_child_runs_solve_and_diagnose(tmp_path):
    # perfbench/child.py --trace wraps the names the CLI calls and reads
    # their results (solve_march's n_levels and samples, the field writer's
    # path): a name that changes what it takes or returns crashes every traced
    # bench run, so solve, then diagnose on its field, must exit 0 traced
    root = Path(__file__).resolve().parent.parent
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0})
    cfg, spans = write(tmp_path / "c.json", doc), tmp_path / "spans"
    spans.mkdir()
    env = dict(os.environ, PYTHONPATH="src")
    for name, argv in (("solve", ["solve", "--config", cfg]),
                       ("diagnose", ["diagnose", "--config", cfg, "--field",
                                     str(tmp_path / "out" / "field.npz"),
                                     "--output", str(tmp_path / "diag")])):
        result = tmp_path / f"{name}.json"
        proc = subprocess.run([sys.executable, "perfbench/child.py", str(result), "--trace",
                               str(spans), "--", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(result.read_text())
        assert record["exit"] == 0 and "exception" not in record, record
    traced = [json.loads(line) for f in spans.glob("spans-*.jsonl")
              for line in f.read_text().splitlines()]
    marches = [s for s in traced if s["name"] == "solver.solve_march"]
    writes = [s for s in traced if s["name"] == "solver.field_write"]
    assert len(marches) == 1 and marches[0]["levels"] > 0
    assert len(writes) == 1 and writes[0]["bytes"] > 0
