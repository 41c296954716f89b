"""Record the reference outputs that perfbench/run.py checks every run against.

    python3 perfbench/record_refs.py            # from the root of a checkout

Runs, untimed, every input a seed can select (each README amplitude, and
every sweep row for every p the seed can draw) at both sizes, and writes
perfbench/refs.json.  Record it from the commit whose outputs are the
reference, and re-record only when a change to the outputs is intended.
"""

import os
import shutil
import sys

import run


def main():
    root = os.getcwd()
    refs = {}
    for size in sorted(run.SIZES):
        s = run.Session(root, f"refs-{size}", run._now() + 3600.0)
        readme = {}
        for amp in run.AMPLITUDES:
            r = run.readme_round(s, amp, size, None, {}, True, None)
            readme[f"{amp:g}"] = r["obs"]
            print(f"{size} readme a={amp:g}: {r['obs']['solve']['status']} "
                  f"t_b={r['obs']['solve']['t_b']}", flush=True)
        sweep_cfg = run.SIZES[size]["sweep"]
        p_values = list(run.P_LOW + run.P_HIGH)
        if sweep_cfg["fixed"]:
            p_values = list(run.P_FIXED) + p_values
        out = os.path.join(s.work, "sweep")
        cfg = os.path.join(s.work, "sweep.json")
        run.write_json(cfg, run.sweep_doc(p_values, size, out))
        rec = s.child(["sweep", "--config", cfg, "--jobs", str(run.SWEEP_JOBS)])
        if rec["exit"] != 0:
            sys.exit(f"reference sweep exited {rec['exit']}")
        rows = run.read_sweep_csv(os.path.join(out, "sweep.csv"))
        print(f"{size} sweep: {len(rows)} rows", flush=True)
        refs[size] = {"readme": readme, "sweep": rows}
        shutil.rmtree(s.work, ignore_errors=True)
    run.write_json(run.REFS_PATH, refs)
    print(f"wrote {run.REFS_PATH}")


if __name__ == "__main__":
    main()
