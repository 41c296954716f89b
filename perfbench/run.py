"""wavelab benchmark: the README solve -> diagnose run and the critical-exponent sweep.

    python3 perfbench/run.py --workload readme-h128 --seed 0 --seconds 10 --trace 0

Run from the root of a wavelab checkout; the package is imported from
``src/`` there.  Every CLI command runs in a fresh interpreter
(``perfbench/child.py``) that imports ``wavelab.cli`` and calls
``wavelab.cli.main``, one command at a time (closed loop, one client).

Workloads (see README.md in this directory for the reasons and for which
layer should move which metric):

* ``readme-h128``: ``solve`` then ``diagnose`` of the README problem (p=2,
  A=1, bump, rho=1, t_max=16) at h=rho/128.  The seed scales the amplitude
  10 by one of -1, -0.5, 0, +0.5, +1 %; seed 0 is the README run exactly.
* ``sweep-h32``: ``sweep`` over p in {1.5, 2, p_lo, p_hi, 3} x amplitude
  {1, 10} at h=rho/32, t_max=20, ``--jobs 2``, then resume passes over the
  finished directory.  The seed picks p_lo < 1+sqrt(2) < p_hi.

A run repeats rounds of its workload until ``--seconds`` have passed, and
does at least two, so that two solves of the same input can be compared byte
for byte.  Command times are CPU seconds of the command's process and its
workers (README.md says why).  With ``--trace 1`` the second round runs
traced and the run prints the per-layer metrics instead of the end-to-end
ones.  Every output is checked against ``refs.json`` (recorded by
``record_refs.py``); the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import load_spans, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")
WORK_DIR = ".perfbench"

MIN_ROUNDS = 2
RESUMES_PER_ROUND = 2      # resume passes after each sweep pass
SWEEP_JOBS = 2
RUN_BUDGET_S = 170.0       # a run stops starting rounds, and kills a command, past this
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "WAVELAB_LOG": "WARNING"}

# Float outputs must agree within RTOL relative plus ATOL absolute (ATOL is
# the chain's own tolerance floor); everything else must be equal.  A lattice
# shift of t_b changes it by h, far outside this bound.
RTOL = 1e-6
ATOL = 1e-9

AMPLITUDES = (9.9, 9.95, 10.0, 10.05, 10.1)
P_LOW = (2.39, 2.4, 2.41)          # below 1 + sqrt(2) = 2.41421...
P_HIGH = (2.45, 2.5, 2.55)
P_FIXED = (1.5, 2.0, 3.0)

SIZES = {
    "full": {"readme": {"h": 1 / 128, "t_max": 16.0},
             "sweep": {"h": 1 / 32, "t_max": 20.0, "amplitudes": [1.0, 10.0], "fixed": True}},
    "reduced": {"readme": {"h": 1 / 16, "t_max": 4.0},
                "sweep": {"h": 1 / 16, "t_max": 4.0, "amplitudes": [10.0], "fixed": False}},
}

WORKLOADS = ("readme-h128", "sweep-h32")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# inputs from the seed
# ---------------------------------------------------------------------------

def readme_amplitude(seed):
    return 10.0 if seed == 0 else random.Random(seed).choice(AMPLITUDES)


def sweep_p_values(seed, size):
    if seed == 0:
        lo, hi = 2.41, 2.5
    else:
        rng = random.Random(seed)
        lo, hi = rng.choice(P_LOW), rng.choice(P_HIGH)
    if SIZES[size]["sweep"]["fixed"]:
        return [1.5, 2.0, lo, hi, 3.0]
    return [lo, hi]


def readme_doc(amplitude, size, out_dir):
    g = SIZES[size]["readme"]
    return {"problem": {"p": 2.0, "A": 1.0,
                        "data": {"profile": "bump", "amplitude": amplitude, "rho": 1.0}},
            "grid": {"h": g["h"], "t_max": g["t_max"]},
            "solver": {"blowup_threshold": 1e8, "divergence_factor": 10.0},
            "output_dir": out_dir}


def sweep_doc(p_values, size, out_dir):
    g = SIZES[size]["sweep"]
    return {"p_values": p_values, "amplitudes": g["amplitudes"], "parallel_jobs": SWEEP_JOBS,
            "base": {"problem": {"data": {"profile": "bump", "amplitude": 0, "rho": 1.0}},
                     "grid": {"h": g["h"], "t_max": g["t_max"]},
                     "output_dir": out_dir}}


def row_key(p, amplitude):
    return f"p={float(p):g},a={float(amplitude):g}"


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Session:
    """One benchmark run: work directory, deadline, samples and failures."""

    def __init__(self, root, tag, deadline):
        self.root = root
        self.work = os.path.join(root, WORK_DIR, f"{tag}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)
        self.setup = []
        self.setup_wall = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.versions = None
        self.n_children = 0

    def child(self, cli_args=(), span_dir=None):
        """Run one command in a fresh interpreter; returns its record.

        Every command is a set-up sample.  Without a command the child only
        imports and reports the library versions (the run's warm-up).
        """
        self.n_children += 1
        tag = f"c{self.n_children:03d}"
        result = os.path.join(self.work, tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result]
        if span_dir is not None:
            cmd += ["--trace", span_dir]
        if cli_args:
            cmd += ["--", *cli_args]
        timeout = max(1.0, self.deadline - _now())
        with open(os.path.join(self.work, tag + ".log"), "w") as log:
            spawned = _now()
            # own process group, so that sweep workers left behind by a
            # killed or crashed command are stopped with it
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, start_new_session=True,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"command {' '.join(cli_args)} passed the run budget")
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(result):
            with open(os.path.join(self.work, tag + ".log")) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"benchmark child failed ({proc.returncode}): {tail}")
        with open(result) as fh:
            rec = json.load(fh)
        rec["peak_rss_mb"] = max(rec["rss_self_mb"], rec["rss_children_mb"])
        if cli_args:
            self.setup.append(rec["import_cpu_s"])
            self.setup_wall.append(rec["imported_at"] - spawned)
        else:
            self.versions = rec["versions"]
        return rec

    def op(self, name, problems):
        """Count one operation; it fails when any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def field_artifact(directory):
    """The field file ``solve`` wrote, whatever its format: ``field.*`` but not JSON."""
    found = sorted(n for n in os.listdir(directory)
                   if n.startswith("field.") and not n.endswith(".json"))
    if len(found) != 1:
        raise BenchError(f"expected one field artifact in {directory}, found {found}")
    return os.path.join(directory, found[0])


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def mismatches(obs, ref, path=""):
    """Differences between an observation and its reference (see RTOL/ATOL)."""
    if isinstance(ref, dict) and isinstance(obs, dict):
        out = []
        for key in sorted(set(ref) | set(obs)):
            if key not in obs or key not in ref:
                out.append(f"{path}{key}: present in only one of output/reference")
            else:
                out.extend(mismatches(obs[key], ref[key], f"{path}{key}."))
        return out
    if (isinstance(ref, float) and isinstance(obs, (int, float))
            and not isinstance(obs, bool)):
        if abs(obs - ref) <= ATOL + RTOL * max(abs(obs), abs(ref)):
            return []
    elif obs == ref and type(obs) is type(ref):
        return []
    return [f"{path.rstrip('.')}: got {obs!r}, reference {ref!r}"]


def _reason_kind(doc):
    """Why the certificate was skipped, without the numbers in the message."""
    reason = doc.get("skipped")
    return None if reason is None else reason.split(":")[0].split("(")[0].strip()


def observe_solve(rec, run_dir):
    manifest = read_json(os.path.join(run_dir, "manifest.json"))
    residual = read_json(os.path.join(run_dir, "residual.json"))
    return {"exit": rec["exit"], "status": manifest["status"], "t_b": manifest["t_b"],
            "max_amplitude_reached": manifest["max_amplitude_reached"],
            "residual": {k: residual[k] for k in ("residual_linf", "residual_l2", "nodes")}}


def observe_diagnose(rec, diag_dir):
    diag = read_json(os.path.join(diag_dir, "diagnostics.json"))
    gron = read_json(os.path.join(diag_dir, "gronwall.json"))
    return {"exit": rec["exit"], "verdicts": diag["verdicts"],
            "min_residuals": diag["min_residuals"],
            "gronwall_skipped": "skipped" in gron, "gronwall_reason": _reason_kind(gron)}


def read_sweep_csv(path):
    """Rows of sweep.csv as {row_key: {status, t_b}}; columns found by name."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cols = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cell = dict(zip(cols, line.split(",")))
        rows[row_key(cell["p"], cell["amplitude"])] = {
            "status": cell["status"],
            "t_b": float(cell["t_b"]) if cell["t_b"] else None}
    return rows


def load_refs():
    try:
        return read_json(REFS_PATH)
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def readme_round(s, amplitude, size, span_dir, refs, with_diagnose, first_digest):
    """solve, then diagnose on the field solve wrote; counts both operations.

    ``first_digest`` is the hash of the run's first field artifact, which
    this solve must reproduce byte for byte.
    """
    base = os.path.join(s.work, f"r{s.n_children:03d}")
    run_dir, diag_dir = os.path.join(base, "run"), os.path.join(base, "diag")
    os.makedirs(base)
    cfg = os.path.join(base, "run.json")
    write_json(cfg, readme_doc(amplitude, size, run_dir))
    ref = refs.get(size, {}).get("readme", {}).get(f"{amplitude:g}")

    solve = s.child(["solve", "--config", cfg], span_dir)
    solve_obs, digest, problems = None, None, []
    try:
        solve_obs = observe_solve(solve, run_dir)
        field = field_artifact(run_dir)
        digest = sha256(field)
    except (OSError, KeyError, ValueError, BenchError) as exc:
        problems.append(f"unreadable solve output: {exc!r}")
    if solve_obs is not None:
        problems += (["no reference"] if ref is None
                     else mismatches(solve_obs, ref["solve"]))
    if first_digest is not None and digest != first_digest:
        problems.append("field artifact differs from the first solve")
    s.op("solve", problems)

    diagnose, diag_obs, diag_problems = None, None, []
    if with_diagnose and digest is None:
        diag_problems.append("skipped: no field to diagnose")
    elif with_diagnose:
        diagnose = s.child(["diagnose", "--config", cfg, "--field", field,
                            "--output", diag_dir], span_dir)
        try:
            diag_obs = observe_diagnose(diagnose, diag_dir)
        except (OSError, KeyError, ValueError) as exc:
            diag_problems.append(f"unreadable diagnose output: {exc!r}")
        if diag_obs is not None:
            diag_problems += (["no reference"] if ref is None
                              else mismatches(diag_obs, ref["diagnose"]))
    if with_diagnose:
        s.op("diagnose", diag_problems)
    shutil.rmtree(base, ignore_errors=True)
    return {"solve": solve, "diagnose": diagnose, "digests": digest,
            "obs": {"solve": solve_obs, "diagnose": diag_obs}}


def row_states(out):
    """Per sweep row: its manifest and the modification time of every file."""
    states = {}
    rows_dir = os.path.join(out, "rows")
    for entry in sorted(os.listdir(rows_dir)):
        row_dir = os.path.join(rows_dir, entry)
        manifest = read_json(os.path.join(row_dir, "manifest.json"))
        key = row_key(manifest["row"]["p"], manifest["row"]["amplitude"])
        states[key] = {"dir": row_dir, "manifest": manifest,
                       "stamps": {n: os.stat(os.path.join(row_dir, n)).st_mtime_ns
                                  for n in os.listdir(row_dir)}}
    return states


def sweep_round(s, p_values, size, span_dir, refs, first_digests):
    """One sweep pass, then resume passes that must reuse every row.

    ``first_digests`` holds the row field hashes of the run's first pass,
    which this pass must reproduce byte for byte.
    """
    base = os.path.join(s.work, f"s{s.n_children:03d}")
    out = os.path.join(base, "sweep")
    csv_path = os.path.join(out, "sweep.csv")
    os.makedirs(base)
    cfg = os.path.join(base, "sweep.json")
    write_json(cfg, sweep_doc(p_values, size, out))
    ref_rows = refs.get(size, {}).get("sweep", {})
    expected = [row_key(p, a) for p in p_values for a in SIZES[size]["sweep"]["amplitudes"]]
    cmd = ["sweep", "--config", cfg, "--jobs", str(SWEEP_JOBS)]

    sweep = s.child(cmd, span_dir)
    rows, states, csv_bytes, digests = {}, {}, None, {}
    try:
        rows = read_sweep_csv(csv_path)
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        states = row_states(out)
        digests = {k: sha256(field_artifact(st["dir"])) for k, st in states.items()}
    except (OSError, KeyError, ValueError, BenchError) as exc:
        s.op("sweep", [f"unreadable sweep output: {exc!r}"])
    for key in expected:
        problems = [] if sweep["exit"] == 0 else [f"sweep exit {sweep['exit']}"]
        if key not in rows:
            problems.append("row missing from sweep.csv")
        elif rows[key]["status"] == "error":
            problems.append("row status error")
        if key not in ref_rows:
            problems.append("no reference")
        elif key in rows:
            problems += mismatches(rows[key], ref_rows[key])
        if first_digests is not None and digests.get(key) != first_digests.get(key):
            problems.append("field artifact differs from the first pass")
        s.op(f"sweep row {key}", problems)

    resumes = []
    for _ in range(RESUMES_PER_ROUND):
        rec = s.child(cmd, span_dir)
        resumes.append(rec)
        try:
            with open(csv_path, "rb") as fh:
                same_csv = fh.read() == csv_bytes
            now = row_states(out)
        except (OSError, KeyError, ValueError):
            same_csv, now = False, {}
        for key in expected:
            problems = [] if rec["exit"] == 0 else [f"resume exit {rec['exit']}"]
            if not same_csv:
                problems.append("resumed sweep.csv differs from the first pass")
            if key not in now or now[key]["stamps"] != states.get(key, {}).get("stamps"):
                problems.append("row was recomputed instead of resumed")
            s.op(f"resume row {key}", problems)
    shutil.rmtree(base, ignore_errors=True)
    walls = [st["manifest"].get("wall_time_s") for st in states.values()]
    return {"sweep": sweep, "resumes": resumes, "digests": digests, "rows": rows,
            "row_walls": [w for w in walls if w is not None]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(s, samples):
    return {"setup_s": (median(s.setup), "s"),
            "compute_cpu_s": (median(samples["compute"]), "s"),
            "verify_cpu_s": (median(samples["verify"]), "s"),
            "compute_peak_rss_mb": (median(samples["compute_rss"]), "MB"),
            "verify_peak_rss_mb": (median(samples["verify_rss"]), "MB")}


def layer_metrics(span_dir, extra):
    """Per-layer metrics from the traced round's spans; see README.md."""
    spans, absent = load_spans(span_dir)
    own = self_times(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)

    def dur(sp):
        return sp["end"] - sp["start"]

    def total(name):
        return sum(dur(sp) for sp in by_name.get(name, []))

    def self_total(name):
        return sum(own[(sp["pid"], sp["id"])] for sp in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def ann(name, key):
        return sum(sp.get(key, 0) for sp in by_name.get(name, []))

    residual_under = {}
    for sp in by_name.get("solver.integral_residual", []):
        key = (sp["pid"], sp["parent"])
        residual_under[key] = residual_under.get(key, 0.0) + dur(sp)
    march_s = sum(dur(sp) - residual_under.get((sp["pid"], sp["id"]), 0.0)
                  for sp in by_name.get("solver.solve_march", []))
    interior = ann("solver.integral_residual", "interior")
    entries = ann("regions.lattice_weights", "entries")

    m = {
        "solver.field_write_s": (total("solver.field_write"), "s"),
        "solver.field_write_bytes": (ann("solver.field_write", "bytes"), "bytes"),
        "solver.field_read_s": (total("solver.field_read"), "s"),
        "solver.march_s": (march_s, "s"),
        "solver.levels": (ann("solver.solve_march", "levels"), "count"),
        "solver.march_nodes_per_s": (ann("solver.solve_march", "nodes") / march_s
                                     if march_s > 0 else 0.0, "1/s"),
        "solver.residual_s": (self_total("solver.integral_residual"), "s"),
        "solver.residual_nodes": (ann("solver.integral_residual", "checked"), "count"),
        "solver.residual_coverage": (ann("solver.integral_residual", "checked") / interior
                                     if interior else 0.0, "ratio"),
        "solver.linear_radial_s": (total("solver.linear_radial"), "s"),
        "solver.linear_radial_calls": (count("solver.linear_radial"), "count"),
        "solver.blowup_fit_s": (total("solver.detect_blowup_time"), "s"),
        "profiles.eval_s": (self_total("profiles.eval"), "s"),
        "profiles.calls": (count("profiles.eval"), "count"),
        "regions.lattice_weights_calls": (count("regions.lattice_weights"), "count"),
        "regions.lattice_weights_s": (total("regions.lattice_weights"), "s"),
        "regions.weights_useful_fraction": (ann("regions.lattice_weights", "nonzero") / entries
                                            if entries else 0.0, "ratio"),
        "diagnostics.check_chain_s": (self_total("diagnostics.check_chain"), "s"),
        "diagnostics.chain_points": (ann("diagnostics.check_chain", "points"), "count"),
        "diagnostics.chain_spans": (sum(count(n) for n in (
            "diagnostics.check_chain", "diagnostics.select_t2_delta",
            "diagnostics.compute_M", "diagnostics.H_profile")), "count"),
        "diagnostics.select_s": (total("diagnostics.select_t2_delta"), "s"),
        "diagnostics.compute_M_s": (self_total("diagnostics.compute_M"), "s"),
        "diagnostics.H_profile_s": (total("diagnostics.H_profile"), "s"),
        "diagnostics.tables_csv_s": (total("diagnostics.tables_to_csv"), "s"),
        "diagnostics.tables_csv_bytes": (ann("diagnostics.tables_to_csv", "bytes"), "bytes"),
        "gronwall.certify_s": (total("gronwall.certify"), "s"),
        "gronwall.samples": (ann("gronwall.certify", "samples"), "count"),
        "cli.solve_self_s": (self_total("cli.solve"), "s"),
        "cli.diagnose_self_s": (self_total("cli.diagnose"), "s"),
    }
    m.update(extra)
    return m, absent, {name: len(v) for name, v in sorted(by_name.items())}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def source_identity(root):
    """Digest of src/ and, when the checkout is a git repository, its commit."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(sha256(path).encode())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {"src_sha256": digest.hexdigest(), "commit": commit}


def run(workload, seed, seconds, trace, size, root):
    start = _now()
    s = Session(root, f"{workload}-{size}-s{seed}-t{trace}", start + RUN_BUDGET_S)
    refs = load_refs()
    s.child()                       # warm-up: byte-compile, fill the page cache

    samples = {k: [] for k in ("compute", "verify", "compute_rss", "verify_rss",
                               "compute_wall", "verify_wall")}
    traced = {}
    digests = []
    span_dir = os.path.join(s.work, "spans")
    rounds = 0
    measure_start = _now()
    while rounds < MIN_ROUNDS or _now() - measure_start < seconds:
        if rounds >= MIN_ROUNDS and _now() > s.deadline - 60.0:
            break                          # no optional round without a minute to spare
        is_traced = bool(trace) and rounds == 1
        if is_traced:
            os.makedirs(span_dir)
        spans = span_dir if is_traced else None
        first = digests[0] if digests else None
        if workload == "readme-h128":
            # one diagnose per run is enough for its CPU time; the traced
            # round needs its own for the layer spans
            r = readme_round(s, readme_amplitude(seed), size, spans, refs,
                             rounds == 0 or is_traced, first)
            c_rec, v_recs = r["solve"], [r["diagnose"]] if r["diagnose"] else []
        else:
            r = sweep_round(s, sweep_p_values(seed, size), size, spans, refs, first)
            c_rec, v_recs = r["sweep"], r["resumes"]
        digests.append(r["digests"])
        if is_traced:
            traced = {"round": r, "compute": c_rec["cpu_s"],
                      "verify": median([v["cpu_s"] for v in v_recs])}
        else:
            samples["compute"].append(c_rec["cpu_s"])
            samples["compute_wall"].append(c_rec["wall_s"])
            samples["compute_rss"].append(c_rec["peak_rss_mb"])
            samples["verify"].extend(v["cpu_s"] for v in v_recs)
            samples["verify_wall"].extend(v["wall_s"] for v in v_recs)
            samples["verify_rss"].extend(v["peak_rss_mb"] for v in v_recs)
        rounds += 1

    result = {"workload": workload, "seed": seed, "size": size, "trace": trace,
              "rounds": rounds, "nproc": os.cpu_count(), "versions": s.versions,
              "source": source_identity(root), "thread_env": THREAD_ENV,
              "problems": s.problems,
              "samples": dict(samples, setup=s.setup, setup_wall=s.setup_wall)}
    if trace:
        extra = {
            "trace.overhead_compute_s": (traced["compute"] - median(samples["compute"]), "s"),
            "trace.overhead_verify_s": (traced["verify"] - median(samples["verify"]), "s"),
            "wall.setup_s": (median(s.setup_wall), "s"),
            "wall.compute_s": (median(samples["compute_wall"]), "s"),
            "wall.verify_s": (median(samples["verify_wall"]), "s"),
        }
        r = traced["round"]                   # sweep.* read 0 on readme-h128
        walls = r.get("row_walls", [])
        sweep_wall = r["sweep"]["wall_s"] if "sweep" in r else 0.0
        extra.update({
            "sweep.row_s": (median(walls), "s"),
            "sweep.row_max_s": (max(walls, default=0.0), "s"),
            "sweep.rows_error": (sum(v["status"] == "error"
                                     for v in r.get("rows", {}).values()), "count"),
            "sweep.parallel_efficiency": (sum(walls) / (SWEEP_JOBS * sweep_wall)
                                          if sweep_wall else 0.0, "ratio"),
            "cli.sweep_resume_s": (median([v["cpu_s"] for v in r.get("resumes", [])]), "s"),
        })
        metrics, absent, span_counts = layer_metrics(span_dir, extra)
        result.update({"absent": absent, "span_counts": span_counts})
    else:
        metrics = end_to_end(s, samples)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["attempted"], result["failed"] = s.attempted, s.failed
    shutil.rmtree(s.work, ignore_errors=True)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="reduced: the small grid of the self-test")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wavelab", "cli.py")):
        print("perfbench: run from the root of a wavelab checkout (src/wavelab missing)",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.size, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, f"{args.workload}-{args.size}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), result)
    for line in result["problems"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if result.get("absent"):
        print(f"perfbench: absent (not traced): {', '.join(result['absent'])}")
    print(f"perfbench: env nproc={result['nproc']} versions={json.dumps(result['versions'])} "
          f"source={json.dumps(result['source'])}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
