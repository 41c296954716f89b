"""One wavelab CLI command in a fresh interpreter, as a user runs it.

    python3 perfbench/child.py RESULT_JSON [--trace SPAN_DIR] [-- CLI_ARGS...]

Imports ``wavelab.cli`` from ``src/`` of the current directory, optionally
installs the tracer, calls ``wavelab.cli.main(CLI_ARGS)`` and writes a JSON
record: the CPU time spent until the import finished, the monotonic clock at
that moment (the parent subtracts its own spawn time to get the wall set-up
time), the command's CPU time (this process and its reaped children, so the
sweep's workers count), wall time and exit code, and the peak resident
memory of this process and of its reaped children.  Without CLI_ARGS only
the import is done and timed.
"""

import json
import os
import resource
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main():
    result_path = sys.argv[1]
    rest = sys.argv[2:]
    span_dir = None
    if rest[:1] == ["--trace"]:
        span_dir, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    import wavelab.cli
    imported_at = _now()
    import_cpu_s = _cpu(resource.RUSAGE_SELF)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(wavelab.cli.__file__).startswith(src + os.sep):
        sys.exit(f"wavelab was imported from {wavelab.cli.__file__}, not from {src}")

    record = {"imported_at": imported_at, "import_cpu_s": import_cpu_s, "pid": os.getpid()}
    if cli_args:
        tracer = None
        if span_dir is not None:
            from tracer import Tracer       # perfbench/ is sys.path[0]
            tracer = Tracer(span_dir)
            tracer.install()
        started, cpu_started = _now(), _cpu(resource.RUSAGE_SELF)
        try:
            code = wavelab.cli.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:           # reported to the parent as a failed command
            record["exception"] = repr(exc)
            code = -1
        record["wall_s"] = _now() - started
        record["cpu_s"] = (_cpu(resource.RUSAGE_SELF) - cpu_started
                           + _cpu(resource.RUSAGE_CHILDREN))
        record["exit"] = code
        if tracer is not None:
            tracer.flush()
            tracer.write_absent()
    else:
        import numpy
        import scipy
        record["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    kb = 1.0 / 1024.0                       # ru_maxrss is in KiB on Linux
    record["rss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kb
    record["rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * kb
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
