import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import wavelab
from wavelab import cli, diagnostics, gronwall, profiles, regions, solver
from wavelab.cli import main


def test_every_exported_name_resolves():
    # a name left in __all__ after its code moved or went fails here, not at
    # a user's `from wavelab.x import *`
    names = ["wavelab"] + [f"wavelab.{m.name}" for m in pkgutil.iter_modules(wavelab.__path__)
                           if not m.name.startswith("__")]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
    # one quadrature engine; the geometry and the dense weights are test references only
    assert regions.__all__ == ["influence_quadrature"]
    moved_or_gone = {"strip_quadrature", "lattice_weights", "StripBounds",
                     "RegionR", "RegionT", "RegionQ", "RegionQrt", "RegionBrt", "Sigma",
                     "SigmaPrime", "contains", "area", "subset_check",
                     "linear_radial", "normalize_coefficient", "check_pointwise_lower_bound",
                     "F_of", "G_of", "H_of", "check_inequality", "tables_to_csv", "_CSV_ROWS",
                     "_lattice_F", "homogeneous_levels", "_U0_BLOCK", "_cone_reach",
                     "solve_forced", "_march", "CRITICAL_P", "_residual_source", "_cone_source",
                     "_region_source", "_read_array", "_read_samples", "apply_P", "index_of",
                     "_row_doc", "fitted_amplitude"}
    # not exported, since every exported name resolves; a dataclass field
    # without a default is no class attribute, so fields are looked up too
    for owner in (wavelab, regions, solver, diagnostics, gronwall, cli,
                  diagnostics.DiagnosticsReport, solver.CharGrid, solver.BlowupFit):
        fields = getattr(owner, "__dataclass_fields__", {})
        assert not any(hasattr(owner, n) or n in fields for n in moved_or_gone), owner.__name__
    # one export path: the npz artifacts; the text writers are test helpers
    assert not hasattr(solver.RadialField, "to_csv")
    assert not hasattr(profiles.RadialProfile, "to_csv")
    assert not hasattr(solver.RadialField, "value_at")
    assert not hasattr(solver.RadialField, "interpolate")
    assert not hasattr(profiles.RadialProfile, "scaled")


def test_diagnose_writes_exactly_its_four_artifacts(tmp_path):
    # the residual tables go to residuals.npz; no CSV or other file rides along
    doc = {"problem": {"p": 2.0, "A": 1.0,
                       "data": {"profile": "bump", "amplitude": 10.0, "rho": 1.0}},
           "grid": {"h": 1 / 16, "t_max": 16.0}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    cfg, field = str(tmp_path / "c.json"), str(tmp_path / "run" / "field.npz")
    assert main(["solve", "--config", cfg, "--output", str(tmp_path / "run")]) == 0
    assert main(["diagnose", "--config", cfg, "--field", field,
                 "--output", str(tmp_path / "diag")]) == 0
    assert sorted(p.name for p in (tmp_path / "diag").iterdir()) == [
        "diagnose_manifest.json", "diagnostics.json", "gronwall.json", "residuals.npz"]


def _references(tree):
    """Names and attributes a module reads; a top-level definition's own name in it does not count."""
    found = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))
                 and isinstance(node.ctx, ast.Load)}
        names.discard(getattr(stmt, "name", None))
        found |= names
    return found


def test_every_exported_name_has_a_caller_in_the_package():
    # test-only code lives in tests/: every name a module exports is read by
    # some module of the package (its own definition, __all__ and __init__.py
    # do not count)
    trees = _package_trees()
    del trees["__init__"]
    used = set().union(*map(_references, trees.values()))
    assert len(trees) > 5
    unused = []
    for stem in trees:
        exported = getattr(importlib.import_module(f"wavelab.{stem}"), "__all__", ())
        unused += [f"{stem}.{n}" for n in exported if n not in used]
    assert unused == []


def _definitions(tree):
    """Module-level names (not dunders) a module defines by def, class or assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if not n.startswith("__"))


def _package_trees():
    pkg = Path(wavelab.__file__).parent
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(pkg.glob("*.py"))}


def test_every_private_name_is_read_in_the_package():
    # a helper outlives its last caller only until here: every module-level
    # private name is read by some module of the package
    trees = _package_trees()
    used = set().union(*map(_references, trees.values()))
    defined = [f"{stem}.{n}" for stem, tree in trees.items() for n in _definitions(tree)
               if n.startswith("_")]
    assert len(defined) > 10
    assert [d for d in defined if d.split(".")[1] not in used] == []


def test_every_public_name_is_exported_or_read():
    # a public constant or function with no caller and no place in __all__ is
    # dead: every public module-level name is exported or read in the package
    trees = _package_trees()
    used = set().union(*map(_references, trees.values()))
    dead = []
    for stem, tree in trees.items():
        module = importlib.import_module("wavelab" if stem == "__init__" else f"wavelab.{stem}")
        exported = set(getattr(module, "__all__", ()))
        dead += [f"{stem}.{n}" for n in _definitions(tree)
                 if not n.startswith("_") and n not in exported and n not in used]
    assert dead == []


def test_cli_import_loads_no_fractions():
    # exact rational geometry is a test reference; the commands never load it
    src = os.path.dirname(os.path.dirname(wavelab.__file__))
    code = "import sys, wavelab.cli; print('fractions' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _callers(trees, name):
    """module.function of each function or method calling ``name``, bare or as an attribute."""
    found = []
    for stem, tree in trees.items():
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            calls = [node.func for node in ast.walk(fn) if isinstance(node, ast.Call)]
            if any(name in (getattr(f, "id", None), getattr(f, "attr", None)) for f in calls):
                found.append(f"{stem}.{fn.name}")
    return found


def test_tables_configs_and_lattice_snaps_each_have_one_path():
    # one two-column table reader, one config load, and diagnostics snaps to
    # the lattice only through solver._snap
    trees = _package_trees()
    assert _callers(trees, "genfromtxt") == ["profiles._read_columns"]
    assert _callers(trees, "load_json") == ["cli.main"]
    assert {"diagnostics.compute_M", "diagnostics._sigma_levels"} <= set(_callers(trees, "_snap"))
    assert not [n for n in ast.walk(trees["diagnostics"])
                if getattr(n, "id", getattr(n, "attr", None)) in ("round", "rint")]
