"""Fast self-test of the benchmark on the reduced grid (h=rho/16, t_max=4, 2 sweep rows).

    python3 -m pytest -q perfbench/selftest.py        # from the root of a checkout

It checks the result contract of ``run.py`` (last line JSON, every metric
named in BENCHMARK.json with its unit), the correctness gate, the traced
layer counts that tell the two workloads apart, and the refusal to run
without the package source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_and_gate(workload):
    res = result_of(bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    res = result_of(bench(workload, 1))
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert metrics["solver.levels"] > 0 and metrics["solver.field_write_bytes"] > 0
    if workload == "readme-h128":
        assert metrics["solver.linear_radial_calls"] == 2
        assert metrics["regions.lattice_weights_calls"] > 0
        assert metrics["diagnostics.chain_spans"] == 4
        assert metrics["gronwall.samples"] > 0      # certify raises here, still counted
    else:
        # spans come from the forked sweep workers; the chain code never runs
        assert metrics["solver.linear_radial_calls"] == 2
        assert metrics["regions.lattice_weights_calls"] == 0
        assert metrics["diagnostics.chain_spans"] == 0
        assert metrics["sweep.parallel_efficiency"] > 0


def test_refuses_without_package_source():
    bare = os.path.join(ROOT, run.WORK_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("readme-h128", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mismatches_tolerance():
    ref = {"status": "blown_up", "t_b": 15.046875, "residual": {"nodes": 4131, "x": 12.0}}
    assert run.mismatches(json.loads(json.dumps(ref)), ref) == []
    near = {"status": "blown_up", "t_b": 15.046875, "residual": {"nodes": 4131, "x": 12.0 + 1e-9}}
    assert run.mismatches(near, ref) == []
    shifted = {"status": "blown_up", "t_b": 15.046875 + 1 / 128,
               "residual": {"nodes": 4131, "x": 12.0}}
    assert run.mismatches(shifted, ref) == ["t_b: got 15.0546875, reference 15.046875"]
    assert run.mismatches({**ref, "status": "complete"}, ref)
    assert run.mismatches({"status": "blown_up", "t_b": 15.046875}, ref)


def test_missing_names_are_absent(monkeypatch, tmp_path):
    monkeypatch.setattr(tracer, "TARGETS", [("json", "no_such_name", "x"),
                                            ("no_such_module", "f", "y")])
    monkeypatch.setattr(tracer, "FIELD_CLASS", ("json", "NoSuchClass"))
    t = tracer.Tracer(str(tmp_path))
    t.install()
    assert t.absent == ["json.no_such_name", "no_such_module.f", "json.NoSuchClass"]


def test_self_time_subtracts_children():
    spans = [{"pid": 1, "id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"pid": 1, "id": 1, "parent": 0, "start": 1.0, "end": 4.0},
             {"pid": 1, "id": 2, "parent": 0, "start": 5.0, "end": 6.0},
             {"pid": 1, "id": 3, "parent": 1, "start": 2.0, "end": 3.0}]
    assert tracer.self_times(spans) == {(1, 0): 6.0, (1, 1): 2.0, (1, 2): 1.0, (1, 3): 1.0}
