"""Batch front door: solve, diagnose, sweep, gronwall, mean.

Exit codes are a contract for scripting: 0 success (a detected blow-up is a
result, not a failure), 2 configuration or parse errors, 3 numerical errors or
failed verdicts, 4 insufficient grid (extend t_max or the sample window).
All CSV outputs are deterministic (17 significant digits, no timestamps);
wall-clock data lives only in the run manifests.  The WAVELAB_LOG environment
variable selects the log level (DEBUG/INFO/WARNING/ERROR); there is no other
environment coupling.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, apply_overrides, config_hash,
                     load_json, parse_run_config, parse_sweep_config)
from .diagnostics import (ChainConfig, GridTooShortError, check_chain, choose_epsilon,
                          gronwall_params_from_chain, s_exponent, select_t2_delta)
from .gronwall import (GronwallParams, WindowTooShortError, certify,
                       failure_radius, log10_failure_radius)
from .solver import (FieldFormatError, RadialField, detect_blowup_time, linear_radial,
                     solve_march)
from .spherical import ScalarField3, build_sphere_quadrature, spherical_mean

log = logging.getLogger("wavelab")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GRID = 4


def _setup_logging():
    level = os.environ.get("WAVELAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite_or_none(x):
    """Strict JSON has no Infinity or NaN; a radius beyond doubles is null."""
    return x if x is not None and math.isfinite(x) else None


def _manifest(config_doc, extra):
    return {
        "config": config_doc,
        "config_hash": config_hash(config_doc),
        "package_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **extra,
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _run_solve(cfg: RunConfig, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = cfg.build_grid()
    problem = cfg.build_problem(grid)
    started = time.perf_counter()
    fld = solve_march(problem, grid, cfg.blowup_threshold, cfg.divergence_factor)
    wall = time.perf_counter() - started
    fld.to_csv(out_dir / "field.csv")
    _write_json(out_dir / "residual.json", fld.residual)
    fit = detect_blowup_time(fld)
    _write_json(out_dir / "manifest.json", _manifest(cfg.raw, {
        "wall_time_s": wall,
        "status": fld.status,
        "t_b": fld.t_b,
        "fitted_t_b": None if fit is None else fit.fitted_t_b,
        "fitted_exponent": None if fit is None else fit.fitted_exponent,
        "max_amplitude_reached": float(np.max(np.abs(fld.samples))),
        "residual": fld.residual,
    }))
    log.info("solve: status=%s t_b=%s wall=%.2fs", fld.status, fld.t_b, wall)
    return fld


def cmd_solve(args):
    cfg = parse_run_config(apply_overrides(load_json(args.config), args.override))
    out_dir = Path(args.output or cfg.output_dir)
    fld = _run_solve(cfg, out_dir)
    return EXIT_NUMERICAL if fld.status == "error" else EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _lattice_round(x, h, up_even=False):
    n = max(1, int(round(x / h)))
    if up_even:
        n = max(2, n + (n % 2))
    return n * h


def _run_diagnose(cfg: RunConfig, field_path, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    field = RadialField.from_csv(field_path)
    p = field.p if field.p is not None else cfg.p
    A = field.A if field.A is not None else cfg.A
    grid = field.grid
    if cfg.t2 is None or cfg.delta is None:
        f_prof, g_prof = cfg.data.build_profiles(grid.r_values())
        t2, delta = select_t2_delta(field, linear_radial(f_prof, g_prof, grid), cfg.data.rho)
    if cfg.t2 is not None:
        t2 = _lattice_round(cfg.t2, grid.h) if cfg.t2 > 0 else 0.0
    if cfg.delta is not None:
        delta = _lattice_round(cfg.delta, grid.h, up_even=True)

    report = check_chain(field, ChainConfig(p, A, t2, delta, cfg.epsilon))
    _write_json(out_dir / "diagnostics.json", report.to_json_dict())
    report.tables_to_csv(out_dir / "residuals.csv")

    cert_doc = {"r_star_note": "failure radius derived from the lemma's proof, "
                               "not part of its statement"}
    confirmed_or_skipped = True
    eps = report.config.epsilon
    if eps is None:
        cert_doc["skipped"] = ("no admissible epsilon: supercritical exponent "
                               f"(s(p,0) = {s_exponent(p, 0.0):.6g} <= -1)")
    else:
        C, a, b, t0, t1 = gronwall_params_from_chain(report.config)
        rs, hv = report.H
        sel = rs >= t1 - 1e-12
        try:
            cert = certify(rs[sel], hv[sel], GronwallParams(C, a, b, t0, t1))
            cert_doc.update(cert.to_json_dict())
            cert_doc["log10_r_star"] = _finite_or_none(cert.log10_r_star)
            if cert.violation_found_at is None or cert.violation_found_at > cert.r_star:
                confirmed_or_skipped = False
        except WindowTooShortError as exc:
            cert_doc.update({"C": C, "a": a, "b": b, "t0": t0, "t1": t1,
                             "skipped": str(exc)})
            if exc.r_star is not None:
                # the lemma bounds any existence horizon by r_star: t_b <= r_star
                within = None if field.t_b is None else bool(field.t_b <= exc.r_star)
                cert_doc.update({
                    "J1": exc.J1, "r_star": _finite_or_none(exc.r_star),
                    "log10_r_star": _finite_or_none(exc.log10_r_star),
                    "window_end": exc.window_end, "t_b": field.t_b,
                    "t_b_within_r_star": within})
                if within is False:
                    confirmed_or_skipped = False
        except ValueError as exc:
            cert_doc["skipped"] = f"hypotheses not met on this window: {exc}"
    _write_json(out_dir / "gronwall.json", cert_doc)

    if not report.holds:
        log.warning("diagnose: chain violated")
        return EXIT_NUMERICAL
    if not confirmed_or_skipped:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_diagnose(args):
    cfg = parse_run_config(apply_overrides(load_json(args.config), args.override))
    out_dir = Path(args.output or cfg.output_dir)
    return _run_diagnose(cfg, args.field, out_dir)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _row_doc(sweep_raw, p, amplitude):
    doc = json.loads(json.dumps(sweep_raw["base"]))
    doc.setdefault("problem", {})["p"] = p
    doc["problem"].setdefault("data", {})["amplitude"] = amplitude
    return doc


def _sweep_row(task):
    """One sweep cell; runs in a worker process, owns its directory."""
    row_doc, row_dir = task
    row_dir = Path(row_dir)
    row_dir.mkdir(parents=True, exist_ok=True)
    marker = row_dir / "manifest.json"
    h = config_hash(row_doc)
    if marker.exists():
        try:
            old = json.loads(marker.read_text())
            if (old.get("config_hash") == h and old.get("package_version") == __version__
                    and (row_dir / "field.csv").exists()):
                return old["row"]
        except (json.JSONDecodeError, KeyError):
            pass
    cfg = parse_run_config(row_doc)
    p = cfg.p
    amplitude = cfg.data.amplitude
    row = {"p": p, "amplitude": amplitude, "status": "error", "t_b": None,
           "fitted_t_b": None, "max_amplitude_reached": None,
           "epsilon": None, "s_margin": None}
    eps = choose_epsilon(p)
    row["epsilon"] = eps
    row["s_margin"] = s_exponent(p, eps if eps is not None else 0.0) + 1.0
    wall = None
    try:
        started = time.perf_counter()
        fld = _run_solve(cfg, row_dir)
        wall = time.perf_counter() - started
        fit = detect_blowup_time(fld)
        row.update({
            "status": fld.status,
            "t_b": fld.t_b,
            "fitted_t_b": None if fit is None else fit.fitted_t_b,
            "max_amplitude_reached": float(np.max(np.abs(fld.samples))),
        })
    except Exception as exc:           # row errors recorded, sweep continues
        row["status"] = "error"
        row["error"] = str(exc)
    _write_json(marker, _manifest(row_doc, {"row": row, "wall_time_s": wall}))
    return row


def _fmt_cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def cmd_sweep(args):
    doc = apply_overrides(load_json(args.config), args.override)
    sweep = parse_sweep_config(doc)
    out_dir = Path(args.output or sweep.base.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs or sweep.parallel_jobs

    tasks = []
    for ip, p in enumerate(sweep.p_values):
        for ia, amp in enumerate(sweep.amplitudes):
            row_dir = out_dir / "rows" / f"p{ip:02d}_a{ia:02d}"
            tasks.append((_row_doc(doc, p, amp), str(row_dir)))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]

    cols = ["p", "amplitude", "status", "t_b", "fitted_t_b",
            "max_amplitude_reached", "epsilon", "s_margin"]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row.get(c)) for c in cols) + "\n")
    log.info("sweep: %d rows -> %s", len(rows), out_dir / "sweep.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gronwall (direct access on user-supplied samples)
# ---------------------------------------------------------------------------

def _parse_gronwall_params(doc):
    allowed = {"C", "a", "b", "t0", "t1"}
    if not isinstance(doc, dict) or set(doc) - allowed or allowed - set(doc):
        raise ConfigError("params: expected exactly the keys C, a, b, t0, t1")
    try:
        return GronwallParams(float(doc["C"]), float(doc["a"]), float(doc["b"]),
                              float(doc["t0"]), float(doc["t1"]))
    except ValueError as exc:
        raise ConfigError(f"params: {exc}")


def cmd_gronwall(args):
    doc = apply_overrides(load_json(args.config), args.override)
    if not isinstance(doc, dict) or "params" not in doc:
        raise ConfigError("missing key: params")
    for k in doc:
        if k not in ("params", "H_csv", "J1", "output_dir"):
            raise ConfigError(f"unknown key: {k}")
    params = _parse_gronwall_params(doc["params"])
    out_dir = Path(args.output or doc.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    if "H_csv" in doc:
        data = np.genfromtxt(doc["H_csv"], delimiter=",", skip_header=1)
        data = np.atleast_2d(data)
        if data.shape[1] != 2 or not np.all(np.isfinite(data)):
            raise ConfigError("H_csv: expected two finite columns (r, H)")
        try:
            cert = certify(data[:, 0], data[:, 1], params)
        except WindowTooShortError as exc:
            _write_json(out_dir / "gronwall.json",
                        {**{k: getattr(params, k) for k in ("C", "a", "b", "t0", "t1")},
                         "skipped": str(exc)})
            return EXIT_GRID
        cert.to_json(out_dir / "gronwall.json")
        return EXIT_OK
    if "J1" in doc:
        J1 = float(doc["J1"])
        _write_json(out_dir / "gronwall.json",
                    {**{k: getattr(params, k) for k in ("C", "a", "b", "t0", "t1")},
                     "J1": J1, "r_star": _finite_or_none(failure_radius(params, J1)),
                     "log10_r_star": _finite_or_none(log10_failure_radius(params, J1)),
                     "violation_found_at": None})
        return EXIT_OK
    raise ConfigError("missing key: H_csv or J1")


# ---------------------------------------------------------------------------
# mean (spherical means of built-in field families)
# ---------------------------------------------------------------------------

def _build_family(doc):
    family = doc.get("family")
    params = doc.get("params", {})
    if family == "monomial":
        powers = params.get("powers")
        if (not isinstance(powers, list) or len(powers) != 3
                or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in powers)):
            raise ConfigError("params.powers: expected three nonnegative integers")
        rho = float(params.get("rho", 1e6))
        a, b, c = powers

        def ev(pts, t):
            return pts[:, 0]**a * pts[:, 1]**b * pts[:, 2]**c

        return ScalarField3(ev, rho)
    if family == "radial-bump":
        amp = float(params.get("amplitude", 1.0))
        rho = float(params.get("rho", 1.0))

        def ev(pts, t):
            rr = np.linalg.norm(pts, axis=1)
            return amp * np.clip(1 - (rr / rho) ** 2, 0, None) ** 3

        return ScalarField3(ev, rho)
    if family == "offset-gaussian":
        center = np.asarray(params.get("center", [0.5, 0.0, 0.0]), dtype=float)
        width = float(params.get("width", 0.25))
        rho = float(params.get("rho", np.linalg.norm(center) + 8 * width))

        def ev(pts, t):
            d2 = np.sum((pts - center[None, :]) ** 2, axis=1)
            vals = np.exp(-d2 / width**2)
            return np.where(np.linalg.norm(pts, axis=1) <= rho, vals, 0.0)

        return ScalarField3(ev, rho)
    raise ConfigError("family: expected monomial, radial-bump, or offset-gaussian")


def cmd_mean(args):
    doc = apply_overrides(load_json(args.config), args.override)
    for k in doc:
        if k not in ("family", "params", "degree", "t", "radii", "output_dir"):
            raise ConfigError(f"unknown key: {k}")
    field = _build_family(doc)
    degree = doc.get("degree", 23)
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ConfigError("degree: expected a nonnegative integer")
    t = float(doc.get("t", 0.0))
    radii = doc.get("radii")
    if isinstance(radii, dict):
        for k in radii:
            if k not in ("start", "stop", "count"):
                raise ConfigError(f"unknown key: radii.{k}")
        radii = np.linspace(float(radii["start"]), float(radii["stop"]),
                            int(radii["count"])).tolist()
    if not isinstance(radii, list) or not radii:
        raise ConfigError("radii: expected a list or {start, stop, count}")
    quad = build_sphere_quadrature(degree)
    out_dir = Path(args.output or doc.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "mean.csv", "w", newline="") as fh:
        fh.write("r,value\n")
        for r in radii:
            fh.write(f"{float(r):.17g},{spherical_mean(field, float(r), t, quad):.17g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config", required=True, help="path to the JSON configuration")
    sp.add_argument("--output", help="output directory (overrides config output_dir)")
    sp.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                    help="dotted-path config override, repeatable")


def build_parser():
    ap = argparse.ArgumentParser(prog="wavelab",
                                 description="radial semilinear wave laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="march one problem and write field artifacts")
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("diagnose", help="run the estimate chain and the Gronwall certificate")
    _add_common(sp)
    sp.add_argument("--field", required=True, help="field CSV produced by solve")
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("sweep", help="grid of (p, amplitude) runs with resume")
    _add_common(sp)
    sp.add_argument("--jobs", type=int, help="parallel worker processes")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("gronwall", help="failure radius / certificate for sampled H")
    _add_common(sp)
    sp.set_defaults(func=cmd_gronwall)

    sp = sub.add_parser("mean", help="spherical means of a built-in field family")
    _add_common(sp)
    sp.set_defaults(func=cmd_mean)

    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridTooShortError, WindowTooShortError) as exc:
        print(f"insufficient grid: {exc}", file=sys.stderr)
        return EXIT_GRID
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FieldFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
