"""Batch front door: solve, diagnose, sweep, gronwall, mean.

Exit codes are a contract for scripting: 0 success (a detected blow-up is a
result, not a failure), 2 configuration or parse errors, 3 numerical errors or
failed verdicts, 4 insufficient grid (extend t_max or the sample window).
Every artifact except the manifests is deterministic: `field.npz` and
`residuals.npz` are npz files whose zip entries carry a fixed timestamp, and
the two CSVs (`sweep.csv`, `mean.csv`) use 17 significant digits.  Wall-clock
data (timings, peak RSS) lives only in the run manifests, `manifest.json` and
`diagnose_manifest.json`.  The WAVELAB_LOG environment variable selects the log
level (DEBUG/INFO/WARNING/ERROR); there is no other environment coupling.
"""

from __future__ import annotations

import argparse
import functools
import json
import locale  # noqa: F401 -- argparse's gettext imports it when main builds the parser
import logging
import os
import pickle
import resource
import sys
import time
import traceback
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, _is_number, _number, _require_keys,
                     apply_overrides, config_hash, load_json, parse_run_config,
                     parse_sweep_config, sha256)
from .diagnostics import (ChainConfig, GridTooShortError, check_chain, choose_epsilon,
                          gronwall_params_from_chain, s_exponent, select_t2_delta)
from .gronwall import (GronwallCertificate, GronwallParams, WindowTooShortError, certify,
                       failure_radius, log10_failure_radius)
from .profiles import _read_columns
from .solver import (FieldFormatError, HomogeneousPart, RadialField, RowFile,
                     detect_blowup_time, integral_residual, solve_march)
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


def _peak_rss_mb():      # of this process so far; ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_anon_mb():
    """This process's anonymous resident memory now (RssAnon in /proc/self/status,
    in KiB), None where the file or the line is absent: unlike the RSS peak, it
    leaves out file pages, which are clean and reclaimable."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("RssAnon:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class _PhaseClock:
    """Per phase of a command: its time, the running peak RSS and the anonymous RSS
    after it, and one INFO line."""

    def __init__(self, command, phases):
        self.command = command
        self.timings = {name + "_s": None for name in phases}
        self.rss_after = dict.fromkeys(phases)
        self.anon_after = dict.fromkeys(phases)
        self._clock = time.perf_counter()

    def done(self, name, detail):
        now = time.perf_counter()
        self.timings[name + "_s"], self.rss_after[name] = now - self._clock, _peak_rss_mb()
        self.anon_after[name] = _rss_anon_mb()
        log.info("%s: %s %s in %.2fs, peak RSS %.0f MB", self.command, name, detail,
                 now - self._clock, self.rss_after[name])
        self._clock = now


@functools.cache
def _code_digest():
    """SHA-256 over the package's own source files, computed once per process."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return sha256(b"".join(f.name.encode() + b"\0" + f.read_bytes() + b"\0"
                          for f in files)).hexdigest()[:16]


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

# field.npz while solve writes it; hidden, and not field.*, so no reader of
# the directory takes it for the field artifact
_FIELD_PART = ".field.npz.part"


def _run_solve(cfg: RunConfig, out_dir: Path):
    """March, check the integral residual, write field.npz and residual.json.

    Returns the run record (status, t_b, the blow-up fit, max|u|, the
    residual, timings, peak RSS); each caller writes its own manifest.json.
    No phase holds the field: the march writes each level into field.npz as
    it goes (a RowFile, named ``_FIELD_PART`` until it is complete) and keeps
    its max|u|, the residual reads the rows back, ``save`` completes the file
    and renames it, and a phase that raises removes it, leaving any earlier
    field.npz as it was.  The blow-up fit reads the march's max|u|.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = cfg.build_grid()
    problem = cfg.build_problem(grid)
    phases = _PhaseClock("solve", ("march", "residual", "field_write", "blowup_fit"))
    # one ubar0 for the march and the residual
    ubar0 = HomogeneousPart(problem.f_profile, problem.g_profile, grid)
    with RowFile(out_dir / _FIELD_PART, grid.n_r + 1) as rows:
        fld = solve_march(problem, grid, cfg.blowup_threshold, cfg.divergence_factor,
                          ubar0=ubar0, rows=rows)
        phases.done("march", f"{fld.n_levels} levels, status={fld.status} t_b={fld.t_b}")
        residual = integral_residual(problem, fld, ubar0)
        phases.done("residual", f"{residual['nodes']} nodes")
        fld.save(out_dir / "field.npz")
        phases.done("field_write", "field.npz")
    amps, status, t_b = fld.level_max, fld.status, fld.t_b
    del fld
    fit = detect_blowup_time(status, t_b, grid, amps)
    phases.done("blowup_fit", "none" if fit is None else f"t_b={fit.fitted_t_b:.6g}")
    _write_json(out_dir / "residual.json", residual)
    return {
        "wall_time_s": phases.timings["march_s"] + phases.timings["residual_s"],
        "timings": phases.timings,
        "peak_rss_mb_after": phases.rss_after,
        "rss_anon_mb_after": phases.anon_after,
        "peak_rss_mb": _peak_rss_mb(),
        "status": status,
        "t_b": t_b,
        "fitted_t_b": None if fit is None else fit.fitted_t_b,
        "fitted_exponent": None if fit is None else fit.fitted_exponent,
        "max_amplitude_reached": float(amps.max()),
        "residual": residual,
    }


def cmd_solve(args, doc):
    cfg = parse_run_config(doc)
    out_dir = Path(args.output or cfg.output_dir)
    record = _run_solve(cfg, out_dir)
    _write_json(out_dir / "manifest.json", _manifest(cfg.raw, record))
    return EXIT_NUMERICAL if record["status"] == "error" else EXIT_OK


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
    phases = _PhaseClock("diagnose", ("field_read", "select", "check_chain", "tables", "certify"))
    # the field stays on disk: field_read is the load's checking pass, and the
    # chain reads the file a block of rows at a time until the file is closed
    with RadialField.load(field_path) as field:
        phases.done("field_read", f"{field.n_levels} levels")
        p = field.p if field.p is not None else cfg.p
        A = field.A if field.A is not None else cfg.A
        grid = field.grid
        # solve_march's domain-of-dependence test: diagnose reads only lattices a solve can write
        if grid.r_max + 1e-12 < cfg.data.rho + grid.t_max:
            raise ConfigError(f"field grid violates the domain of dependence: r_max = "
                              f"{grid.r_max:g} < rho + t_max = {cfg.data.rho + grid.t_max:g}")
        if cfg.t2 is None or cfg.delta is None:
            f_prof, g_prof = cfg.data.build_profiles(grid.r_values())
            t2, delta = select_t2_delta(field, f_prof, g_prof)
            phases.done("select", f"t2={t2:g} delta={delta:g}")
        if cfg.t2 is not None:
            t2 = _lattice_round(cfg.t2, grid.h) if cfg.t2 > 0 else 0.0
        if cfg.delta is not None:
            delta = _lattice_round(cfg.delta, grid.h, up_even=True)
        report = check_chain(field, ChainConfig(p, A, t2, delta, cfg.epsilon))
    phases.done("check_chain", "holds" if report.holds else "violated")
    _write_json(out_dir / "diagnostics.json", report.to_json_dict())
    report.save_tables(out_dir / "residuals.npz")
    phases.done("tables", f"{sum(tb.lhs.size for tb in report.tables)} rows")

    cert_doc = {"r_star_note": "failure radius derived from the lemma's proof, "
                               "not part of its statement"}
    refuted = False
    eps = report.config.epsilon
    if eps is None:
        cert_doc["skipped"] = ("no admissible epsilon: supercritical exponent "
                               f"(s(p,0) = {s_exponent(p, 0.0):.6g} <= -1)")
    else:
        C, a, b, t0, t1 = gronwall_params_from_chain(report.config)
        rs, hv = report.H
        sel = rs >= t1 - 1e-12
        try:
            params = GronwallParams(C, a, b, t0, t1)
            cert = certify(rs[sel], hv[sel], params)
        except WindowTooShortError as exc:
            cert_doc.update(asdict(params), skipped=str(exc))
        except ValueError as exc:
            cert_doc["skipped"] = f"hypotheses not met on this window: {exc}"
        else:
            cert_doc.update(cert.to_json_dict())
            if cert.window_short:
                # the lemma bounds any existence horizon by r_star: t_b <= r_star
                within = None if field.t_b is None else bool(field.t_b <= cert.r_star)
                cert_doc.update(t_b=field.t_b, t_b_within_r_star=within)
                refuted = within is False
            else:
                refuted = (cert.violation_found_at is None
                           or cert.violation_found_at > cert.r_star)
    _write_json(out_dir / "gronwall.json", cert_doc)
    phases.done("certify", "skipped" if "skipped" in cert_doc else "done")
    # not manifest.json: without --output this is the solve directory
    _write_json(out_dir / "diagnose_manifest.json",
                _manifest(cfg.raw, {"timings": phases.timings,
                                    "peak_rss_mb_after": phases.rss_after,
                                    "rss_anon_mb_after": phases.anon_after,
                                    "peak_rss_mb": _peak_rss_mb()}))

    if not report.holds:
        log.warning("diagnose: chain violated")
    return EXIT_NUMERICAL if refuted or not report.holds else EXIT_OK


def cmd_diagnose(args, doc):
    cfg = parse_run_config(doc)
    out_dir = Path(args.output or cfg.output_dir)
    return _run_diagnose(cfg, args.field, out_dir)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _resumable_row(task):
    """The row recorded by the task's manifest if it is current, else None (solve it)."""
    row_doc, row_dir = task
    row_dir = Path(row_dir)
    try:
        old = json.loads((row_dir / "manifest.json").read_text())
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if (isinstance(old, dict) and isinstance(old.get("row"), dict)
            and old.get("config_hash") == config_hash(row_doc)
            and old.get("package_version") == __version__
            and old.get("code_digest") == _code_digest()
            and (row_dir / "field.npz").exists()):
        return old["row"]
    return None


def _sweep_row(task):
    """Solve one sweep cell; runs in a forked worker when the sweep has more than one job."""
    row_doc, row_dir = task
    row_dir = Path(row_dir)
    row_dir.mkdir(parents=True, exist_ok=True)
    marker = row_dir / "manifest.json"
    cfg = parse_run_config(row_doc)
    p = cfg.p
    amplitude = cfg.data.amplitude
    row = {"p": p, "amplitude": amplitude, "status": "error", "t_b": None,
           "fitted_t_b": None, "max_amplitude_reached": None,
           "epsilon": None, "s_margin": None}
    eps = choose_epsilon(p)
    row["epsilon"] = eps
    row["s_margin"] = s_exponent(p, eps if eps is not None else 0.0) + 1.0
    record = {}
    try:
        record = _run_solve(cfg, row_dir)
        row.update({k: record[k] for k in ("status", "t_b", "fitted_t_b",
                                           "max_amplitude_reached")})
    except Exception as exc:           # row errors recorded, sweep continues
        row["status"] = "error"
        row["error"] = str(exc)
    _write_json(marker, _manifest(row_doc, {"row": row, "code_digest": _code_digest(),
                                            "wall_time_s": record.get("wall_time_s"),
                                            "timings": record.get("timings"),
                                            "peak_rss_mb_after": record.get("peak_rss_mb_after"),
                                            "rss_anon_mb_after": record.get("rss_anon_mb_after"),
                                            "peak_rss_mb": record.get("peak_rss_mb")}))
    return row


def _pipe():
    """An unbuffered (read end, write end) pair of pipe files."""
    r, w = os.pipe()
    return open(r, "rb", buffering=0), open(w, "wb", buffering=0)


def _read_exactly(pipe, n):
    """n bytes from the pipe, fewer only where its writers have all closed it first."""
    data = b""
    while len(data) < n and (chunk := pipe.read(n - len(data))):
        data += chunk
    return data


def _row_worker(tasks, task_r, result_w):
    """A forked sweep worker's rows: take the next row index (4 bytes) from task_r
    until the pipe is closed and drained, and send back on result_w the row
    _sweep_row returns, or the exception that escaped it with its traceback.

    The workers share result_w, so a reply goes in frames of at most PIPE_BUF
    bytes, which the kernel writes whole: the row index (4 bytes), the chunk's
    length (4), whether more frames follow (1), then the chunk of the pickle.
    """
    step = os.fpathconf(result_w.fileno(), "PC_PIPE_BUF") - 9
    while index := task_r.read(4):
        i = int.from_bytes(index, "little")
        try:
            reply = True, _sweep_row(tasks[i])
        except Exception as exc:
            reply = False, (exc, "".join(traceback.format_exception(exc)))
        payload = pickle.dumps(reply)
        for at in range(0, len(payload), step):
            chunk = payload[at:at + step]
            result_w.write(index + len(chunk).to_bytes(4, "little")
                           + bytes([at + step < len(payload)]) + chunk)


def _forked_rows(tasks, workers):
    """[_sweep_row(task) for task in tasks], solved on `workers` forked processes.

    Whichever worker is free takes the next row (``_row_worker``); the sweep
    keeps at most `workers` rows handed out and not yet returned.  An exception
    that escapes _sweep_row is raised here, as it would be with one job.  A
    worker leaves only through os._exit, so it never returns into its caller's
    stack; one that exits without returning its row fails the sweep, naming
    the rows no worker returned.  On every way out the task pipe is closed, so
    each worker stops once its row is done, and every worker is reaped.
    """
    rows = [None] * len(tasks)
    (task_r, task_w), (result_r, result_w) = _pipe(), _pipe()
    pids = []
    try:
        for _ in range(workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    task_w.close()
                    result_r.close()
                    _row_worker(tasks, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        task_r.close()
        result_w.close()
        sent, returned, frames = 0, 0, {}
        while returned < len(tasks):
            while sent < min(len(tasks), returned + workers):
                try:
                    task_w.write(sent.to_bytes(4, "little"))
                except BrokenPipeError:         # no worker is left to read it
                    break
                sent += 1
            if sent == len(tasks):
                task_w.close()
            head = _read_exactly(result_r, 9)
            if not head:                    # every worker has exited
                break
            i, n = int.from_bytes(head[:4], "little"), int.from_bytes(head[4:8], "little")
            frames.setdefault(i, []).append(_read_exactly(result_r, n))
            if head[8]:
                continue
            ok, value = pickle.loads(b"".join(frames.pop(i)))
            if not ok:
                exc, trace = value
                raise exc from RuntimeError(f"in the sweep worker solving {tasks[i][1]}:\n{trace}")
            rows[i], returned = value, returned + 1
        if returned < len(tasks):
            missing = [row_dir for (_, row_dir), row in zip(tasks, rows) if row is None]
            raise RuntimeError(f"no sweep worker returned the row of {', '.join(missing)}")
        return rows
    finally:
        for pipe in (task_r, task_w, result_r, result_w):
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _fmt_cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def cmd_sweep(args, doc):
    sweep = parse_sweep_config(doc)
    out_dir = Path(args.output or sweep.base.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = args.jobs or sweep.parallel_jobs

    tasks = []
    for ip, p in enumerate(sweep.p_values):
        for ia, amp in enumerate(sweep.amplitudes):
            row_dir = out_dir / "rows" / f"p{ip:02d}_a{ia:02d}"
            row_doc = apply_overrides(doc["base"], [f"problem.p={p!r}",
                                                    f"problem.data.amplitude={amp!r}"])
            tasks.append((row_doc, str(row_dir)))

    # the code digest is read once, before any row runs: the workers inherit it,
    # and a source edited during the sweep cannot label rows it did not compute
    _code_digest()
    # resume is decided here, so a sweep with nothing to solve starts no worker
    rows = [_resumable_row(t) for t in tasks]
    pending = [i for i, row in enumerate(rows) if row is None]
    workers = min(jobs, len(pending)) if jobs > 1 else 0
    if workers:
        solved = _forked_rows([tasks[i] for i in pending], workers)
    else:
        solved = [_sweep_row(tasks[i]) for i in pending]
    for i, row in zip(pending, solved):
        rows[i] = row

    cols = ["p", "amplitude", "status", "t_b", "fitted_t_b",
            "max_amplitude_reached", "epsilon", "s_margin"]
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row.get(c)) for c in cols) + "\n")
    log.info("sweep: %d rows (%d resumed, %d solved on %d workers) -> %s", len(rows),
             len(rows) - len(pending), len(pending), workers, out_dir / "sweep.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gronwall (direct access on user-supplied samples)
# ---------------------------------------------------------------------------

def _direct_output_dir(args, doc):
    """--output, else the config's output_dir, else the working directory; created."""
    out = args.output or doc.get("output_dir", ".")
    if not isinstance(out, str):
        raise ConfigError("output_dir: expected a path string")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _parse_gronwall_params(doc):
    keys = ("C", "a", "b", "t0", "t1")
    _require_keys(doc, set(keys), set(keys), "params")
    values = [_number(doc, k, "params") for k in keys]
    try:
        return GronwallParams(*values)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}")


def cmd_gronwall(args, doc):
    """gronwall.json from sampled H (``H_csv``) or from J1 alone.

    Exit 4 when the samples end before t1 + 1 or short of r_star; the
    certificate's numbers are written in the second case too.
    """
    _require_keys(doc, {"params", "H_csv", "J1", "output_dir"}, {"params"}, "")
    params = _parse_gronwall_params(doc["params"])
    if "H_csv" in doc:
        if not isinstance(doc["H_csv"], str):
            raise ConfigError("H_csv: expected a path string")
        try:
            data = _read_columns(doc["H_csv"])
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:      # an unreadable or malformed table
            raise ConfigError(f"H_csv: {doc['H_csv']}: {exc}") from None
        out_dir = _direct_output_dir(args, doc)
        try:
            cert = certify(data[:, 0], data[:, 1], params)
        except WindowTooShortError as exc:
            _write_json(out_dir / "gronwall.json", {**asdict(params), "skipped": str(exc)})
            return EXIT_GRID
        _write_json(out_dir / "gronwall.json", cert.to_json_dict())
        return EXIT_GRID if cert.window_short else EXIT_OK
    if "J1" in doc:
        J1 = _number(doc, "J1", "", positive=True)
        out_dir = _direct_output_dir(args, doc)
        cert = GronwallCertificate(params, J1, failure_radius(params, J1), None,
                                   log10_failure_radius(params, J1))
        _write_json(out_dir / "gronwall.json", cert.to_json_dict())
        return EXIT_OK
    raise ConfigError("missing key: H_csv or J1")


# ---------------------------------------------------------------------------
# mean (spherical means of built-in field families)
# ---------------------------------------------------------------------------

def _build_family(doc):
    family = doc.get("family")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: expected an object")
    if family == "monomial":
        powers = params.get("powers")
        if (not isinstance(powers, list) or len(powers) != 3
                or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in powers)):
            raise ConfigError("params.powers: expected three nonnegative integers")
        rho = _number(params, "rho", "params", default=1e6)
        a, b, c = powers

        def ev(pts, t):
            return pts[:, 0]**a * pts[:, 1]**b * pts[:, 2]**c

        return ScalarField3(ev, rho)
    if family == "radial-bump":
        amp = _number(params, "amplitude", "params", default=1.0)
        rho = _number(params, "rho", "params", default=1.0)

        def ev(pts, t):
            rr = np.linalg.norm(pts, axis=1)
            return amp * np.clip(1 - (rr / rho) ** 2, 0, None) ** 3

        return ScalarField3(ev, rho)
    if family == "offset-gaussian":
        center = params.get("center", [0.5, 0.0, 0.0])
        if not isinstance(center, list) or len(center) != 3 or not all(map(_is_number, center)):
            raise ConfigError("params.center: expected three numbers")
        center = np.asarray(center, dtype=float)
        width = _number(params, "width", "params", default=0.25)
        rho = _number(params, "rho", "params", default=float(np.linalg.norm(center) + 8 * width))

        def ev(pts, t):
            d2 = np.sum((pts - center[None, :]) ** 2, axis=1)
            vals = np.exp(-d2 / width**2)
            return np.where(np.linalg.norm(pts, axis=1) <= rho, vals, 0.0)

        return ScalarField3(ev, rho)
    raise ConfigError("family: expected monomial, radial-bump, or offset-gaussian")


def cmd_mean(args, doc):
    _require_keys(doc, {"family", "params", "degree", "t", "radii", "output_dir"}, set(), "")
    field = _build_family(doc)
    degree = doc.get("degree", 23)
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ConfigError("degree: expected a nonnegative integer")
    t = _number(doc, "t", "", default=0.0)
    radii = doc.get("radii")
    if isinstance(radii, dict):
        _require_keys(radii, {"start", "stop", "count"}, {"start", "stop", "count"}, "radii")
        count = radii["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError("radii.count: expected a positive integer")
        radii = np.linspace(_number(radii, "start", "radii"), _number(radii, "stop", "radii"),
                            count).tolist()
    if not isinstance(radii, list) or not radii or not all(map(_is_number, radii)):
        raise ConfigError("radii: expected a list of numbers or {start, stop, count}")
    if min(radii) < 0:
        raise ConfigError("radii: must be nonnegative")
    quad = build_sphere_quadrature(degree)
    out_dir = _direct_output_dir(args, doc)
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


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(text)


_COMMANDS = {"solve": (cmd_solve, "march one problem and write field artifacts"),
             "diagnose": (cmd_diagnose, "run the estimate chain and the Gronwall certificate"),
             "sweep": (cmd_sweep, "grid of (p, amplitude) runs with resume"),
             "gronwall": (cmd_gronwall, "failure radius / certificate for sampled H"),
             "mean": (cmd_mean, "spherical means of a built-in field family")}


def build_parser(command=None):
    """The wavelab parser; given a command name, only that command's subparser
    is built (each one costs argparse's gettext lookups)."""
    ap = argparse.ArgumentParser(prog="wavelab",
                                 description="radial semilinear wave laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "diagnose":
            sp.add_argument("--field", required=True,
                            help="field artifact (field.npz) written by solve")
        elif name == "sweep":
            sp.add_argument("--jobs", type=_positive_int, help="parallel worker processes")
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    # help, no command and an unknown one list all commands
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args, apply_overrides(load_json(args.config), args.override))
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
