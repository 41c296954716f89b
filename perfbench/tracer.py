"""In-memory spans around the wavelab functions the CLI calls.

The benchmark never edits the package: :meth:`Tracer.install` replaces names
in the imported modules with wrappers that record one span per call (name,
parent, start, end, process id and a few counters) and then call the
original.  Start and end are the process's CPU clock, like the end-to-end
times, so time the host takes away from this virtual machine does not count.  A
name that no longer exists is reported as absent instead of failing the run,
so later changes to the package can rename or drop functions freely.

Spans stay in memory.  The main process writes them when its command ends;
sweep workers (forked from the traced process, so they inherit the wrappers)
write theirs after each row, because a pool worker exits without running
interpreter exit hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

# (module, attribute path, span name).  The same function is wrapped under
# every module name the callers resolve it through.
TARGETS = [
    ("wavelab.cli", "cmd_solve", "cli.solve"),
    ("wavelab.cli", "cmd_diagnose", "cli.diagnose"),
    ("wavelab.cli", "cmd_sweep", "cli.sweep"),
    ("wavelab.cli", "_sweep_row", "cli.sweep_row"),
    ("wavelab.cli", "solve_march", "solver.solve_march"),
    ("wavelab.cli", "detect_blowup_time", "solver.detect_blowup_time"),
    ("wavelab.cli", "linear_radial", "solver.linear_radial"),
    ("wavelab.solver", "linear_radial", "solver.linear_radial"),
    ("wavelab.solver", "integral_residual", "solver.integral_residual"),
    ("wavelab.cli", "select_t2_delta", "diagnostics.select_t2_delta"),
    ("wavelab.cli", "compute_M", "diagnostics.compute_M"),
    ("wavelab.cli", "check_chain", "diagnostics.check_chain"),
    ("wavelab.cli", "H_profile", "diagnostics.H_profile"),
    ("wavelab.cli", "choose_epsilon", "diagnostics.choose_epsilon"),
    ("wavelab.cli", "s_exponent", "diagnostics.s_exponent"),
    ("wavelab.diagnostics", "DiagnosticsReport.tables_to_csv", "diagnostics.tables_to_csv"),
    ("wavelab.diagnostics", "lattice_weights", "regions.lattice_weights"),
    ("wavelab.cli", "certify", "gronwall.certify"),
    ("wavelab.profiles", "RadialProfile.__call__", "profiles.eval"),
    ("wavelab.profiles", "RadialProfile.derivative", "profiles.eval"),
    ("wavelab.profiles", "RadialProfile.moment_integral", "profiles.eval"),
]

# RadialField methods whose names mark them as the field artifact writer or
# reader; matched by prefix so a new artifact format is traced unchanged.
FIELD_CLASS = ("wavelab.solver", "RadialField")
WRITER_PREFIXES = ("to_", "save", "write")
READER_PREFIXES = ("from_", "load", "read")


def _path_bytes(args, kwargs):
    """Size of the first path-like argument after the call, 0 if none."""
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            return os.path.getsize(value)
    return 0


def _interior_nodes(field):
    """Interior lattice nodes whose influence region fits the grid."""
    n_r = field.grid.n_r
    return sum(max(0, min(n_r - 1, n_r - j)) for j in range(1, field.n_levels))


def _annotate(name, result, args, kwargs):
    """Counters measured where the work happens; called after the span ends.

    ``result`` is None when the call raised; counters from the arguments are
    still recorded then (``certify`` raises when its window is too short).
    """
    if name == "gronwall.certify":
        return {"samples": int(len(args[0]))}
    if name in ("solver.field_write", "diagnostics.tables_to_csv"):
        return {"bytes": _path_bytes(args[1:], kwargs)}
    if result is None:
        return {}
    if name == "solver.solve_march":
        return {"levels": int(result.n_levels), "nodes": int(result.samples.size)}
    if name == "solver.integral_residual":
        checked = result.get("nodes", 0) if isinstance(result, dict) else 0
        return {"checked": int(checked), "interior": _interior_nodes(args[1])}
    if name == "regions.lattice_weights":
        return {"nonzero": int((result != 0).sum()), "entries": int(result.size)}
    if name == "diagnostics.check_chain":
        return {"points": int(sum(tb.lhs.size for tb in result.tables))}
    return {}


class Tracer:
    """Span store for one process; see the module docstring."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.owner_pid = os.getpid()
        self.forked = False
        self.absent = []

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.owner_pid:
                tracer._adopt_fork()
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            span = {"id": span_id, "parent": parent, "name": name, "pid": os.getpid()}
            result = None
            span["start"] = time.process_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.process_time()
                tracer.stack.pop()
                span.update(_annotate(name, result, args, kwargs))
                tracer.spans.append(span)
                if name == "cli.sweep_row" and tracer.forked:
                    tracer.flush()

        return traced

    def _adopt_fork(self):
        """First call in a forked worker: drop the parent's unwritten spans."""
        self.owner_pid = os.getpid()
        self.forked = True
        self.spans = []
        self.stack = []

    def _replace(self, owner, attr, name):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name)))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, self._wrap(raw, name))

    def install(self):
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._replace(owner, attr, name)
        try:
            cls = getattr(importlib.import_module(FIELD_CLASS[0]), FIELD_CLASS[1])
        except (ImportError, AttributeError):
            self.absent.append(".".join(FIELD_CLASS))
            return
        for attr in sorted(vars(cls)):
            if attr.startswith(WRITER_PREFIXES):
                self._replace(cls, attr, "solver.field_write")
            elif attr.startswith(READER_PREFIXES):
                self._replace(cls, attr, "solver.field_read")

    def flush(self):
        """Append this process's spans to its own file and forget them."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def write_absent(self):
        with open(os.path.join(self.out_dir, f"absent-{os.getpid()}.json"), "w") as fh:
            json.dump(self.absent, fh)


def load_spans(span_dir):
    """Every span written under span_dir, plus the absent names."""
    spans, absent = [], set()
    for entry in sorted(os.listdir(span_dir)):
        path = os.path.join(span_dir, entry)
        if entry.startswith("spans-"):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        elif entry.startswith("absent-"):
            with open(path) as fh:
                absent.update(json.load(fh))
    return spans, sorted(absent)


def self_times(spans):
    """Span duration minus the time its direct child spans cover, by span key.

    Children of one span run one after another in the same thread, so their
    durations add up without overlap.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + (s["end"] - s["start"])
    return {(s["pid"], s["id"]): (s["end"] - s["start"]) - child_time.get((s["pid"], s["id"]), 0.0)
            for s in spans}
