import json
import math

import numpy as np
import pytest

from wavelab import __version__, cli
from wavelab.cli import main
from wavelab.gronwall import WindowTooShortError
from wavelab.config import (ConfigError, apply_overrides, config_hash,
                            parse_run_config, parse_sweep_config)
from wavelab.solver import RadialField


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
    fld = RadialField.from_csv(tmp_path / "out" / "field.csv")
    assert fld.status == "complete"
    assert np.all(fld.samples == 0.0)
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
               "--field", str(tmp / "out" / "field.csv"),
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
    header = (tmp_path / "diag" / "residuals.csv").read_text().splitlines()[0]
    assert header == "inequality_id,r,t,lhs,rhs,residual"


def test_diagnose_lifespan_beyond_r_star_is_exit_3(solved_run, tmp_path, monkeypatch):
    # a blown-up field outliving the lemma's r_star contradicts the lemma
    def short_radius(r, H, params):
        raise WindowTooShortError("extend window to r_star: stub", J1=1.0,
                                  r_star=2.0, log10_r_star=math.log10(2.0),
                                  window_end=float(r[-1]))

    monkeypatch.setattr(cli, "certify", short_radius)
    tmp, doc = solved_run
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(tmp / "out" / "field.csv"),
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
               "--field", str(tmp_path / "out" / "field.csv"),
               "--output", str(tmp_path / "diag")])
    assert rc == 0
    d = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert d["epsilon"] is None
    assert any("supercritical" in n for n in d["notes"])
    g = json.loads((tmp_path / "diag" / "gronwall.json").read_text())
    assert "supercritical" in g["skipped"]


def test_diagnose_zero_constant_skips_certificate(tmp_path):
    # zero data: the chain holds trivially with M = C0 = 0, so the lemma's
    # constant C vanishes and the certificate is skipped with that reason
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 4.0},
                          diagnostics={"t2": 0, "delta": 0.25})
    doc["problem"]["data"]["amplitude"] = 0.0
    cfg = write(tmp_path / "c.json", doc)
    assert main(["solve", "--config", cfg]) == 0
    rc = main(["diagnose", "--config", cfg, "--field", str(tmp_path / "out" / "field.csv"),
               "--output", str(tmp_path / "diag")])
    assert rc == 0
    d = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert d["holds"] is True and d["M"] == 0.0
    g = json.loads((tmp_path / "diag" / "gronwall.json").read_text())
    assert g["skipped"] == "hypotheses not met on this window: need C > 0"


def test_diagnose_truncated_field(solved_run, tmp_path, capsys):
    tmp, doc = solved_run
    src = (tmp / "out" / "field.csv").read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(src[: len(src) - 3]) + "\n")
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(bad), "--output", str(tmp_path / "d")])
    assert rc == 2


def _corrupt_cell(lines):
    r, t, _ = lines[5].split(",")
    lines[5] = f"{r},{t},abc"


def _corrupt_header(old, new):
    def corrupt(lines):
        assert old in lines[0]
        lines[0] = lines[0].replace(old, new)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _corrupt_cell,
    _corrupt_header("r_max=", "rmax="),
    _corrupt_header(" t_b=", " tb="),
    _corrupt_header(" p=", " p "),
    _corrupt_header("h=0.0625", "h=abc"),
    _corrupt_header("status=blown_up", "status=bogus"),
], ids=["cell", "missing_r_max", "missing_t_b", "token_without_eq", "h_non_numeric",
        "unknown_status"])
def test_diagnose_non_numeric_field_cell(solved_run, tmp_path, capsys, corrupt):
    tmp, doc = solved_run
    lines = (tmp / "out" / "field.csv").read_text().splitlines()
    corrupt(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["diagnose", "--config", str(tmp / "c.json"),
               "--field", str(bad), "--output", str(tmp_path / "d")])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err


def test_diagnose_grid_too_short(tmp_path, capsys):
    doc = base_run_config(tmp_path, grid={"h": 1 / 16, "t_max": 0.5})
    doc["problem"]["data"]["amplitude"] = 1.0
    rc = main(["solve", "--config", write(tmp_path / "c.json", doc)])
    assert rc == 0
    rc = main(["diagnose", "--config", str(tmp_path / "c.json"),
               "--field", str(tmp_path / "out" / "field.csv"),
               "--output", str(tmp_path / "d")])
    assert rc == 4
    assert "extend" in capsys.readouterr().err


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
    # resume: artifacts verify against manifests and rows are reused bytewise
    assert main(["sweep", "--config", cfg_path]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").read_text() == csv1
    # a row computed by another package version is recomputed, the rest untouched
    rows = sorted((tmp_path / "sweep" / "rows").iterdir())
    stale = rows[1]
    man = json.loads((stale / "manifest.json").read_text())
    man["package_version"] = "0.0.0"
    (stale / "manifest.json").write_text(json.dumps(man))
    field_bytes = (stale / "field.csv").read_bytes()
    (stale / "field.csv").write_text("stale\n")
    kept_bytes = {f: f.read_bytes() for d in rows if d != stale for f in d.iterdir()}
    assert main(["sweep", "--config", cfg_path]) == 0
    assert (tmp_path / "sweep" / "sweep.csv").read_text() == csv1
    assert json.loads((stale / "manifest.json").read_text())["package_version"] == __version__
    assert (stale / "field.csv").read_bytes() == field_bytes
    assert {f: f.read_bytes() for f in kept_bytes} == kept_bytes


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
    fa = (tmp_path / "a" / "field.csv").read_bytes()
    fb = (tmp_path / "b" / "field.csv").read_bytes()
    assert fa == fb


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


def test_gronwall_subcommand_bad_params(tmp_path):
    cfg = write(tmp_path / "g.json",
                {"params": {"C": 1, "a": 2, "b": -2, "t0": 0, "t1": 0}, "J1": 1.0})
    assert main(["gronwall", "--config", cfg, "--output", str(tmp_path)]) == 2


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
