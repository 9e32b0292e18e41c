"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=BENCH_DIR.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_depend_on_the_seed_alone(name):
    cls = workloads.WORKLOADS[name]
    first = [cls(7).inputs(k) for k in range(3)]
    assert first == [cls(7).inputs(k) for k in range(3)]
    if name != "verify-all":  # the grid is fixed; its seed only orders the suites
        assert first != [cls(8).inputs(k) for k in range(3)]


def test_scattered_pairs_are_distinct_and_shares_match_the_spec():
    w = workloads.EvalScattered(3)
    passes = [workloads.Pass(w.inputs(k), [], [], 0.0, k) for k in range(40)]
    lerch = [(op.alpha, op.s) for p in passes for op in p.inputs if op.kind != "zeta"]
    assert len(set(lerch)) == len(lerch)
    assert all(op.w.real < 0.5 for p in passes for op in p.inputs)
    stated = dict(re.findall(r"(\w+_share) ([0-9.]+)", SPEC["workloads"][0]["why"]))
    measured = w.shares(passes)
    assert stated.keys() == measured.keys()
    for key, value in stated.items():
        assert abs(measured[key] - float(value)) < 0.01, key


def test_shared_shift_uses_at_most_eight_pairs_in_rows():
    w = workloads.EvalSharedShift(5)
    ops = w.inputs(0) + w.inputs(1)
    assert len({(op.alpha, op.s) for op in ops}) <= 8
    runs = sum(1 for a, b in zip(ops, ops[1:]) if (a.alpha, a.s) != (b.alpha, b.s)) + 1
    assert runs == 2 * len(w.pairs)
    assert max(op.abs_z for op in ops) <= 0.6


def test_tracing_does_not_change_results_and_restores_the_modules():
    w = workloads.EvalScattered(11)
    ops = w.inputs(0)
    originals = {m.__name__: dict(vars(m)) for m in workloads.LAYERS}
    tracer = tracing.Tracer(workloads.LAYERS, workloads.WATCHED)
    with tracer:
        traced, _ = w.run(ops)
        traced_reports = workloads.verify.run_suite("sondow")
    plain, _ = w.run(ops)
    assert repr(traced) == repr(plain)
    assert [r.to_dict() for r in traced_reports] == [r.to_dict() for r in workloads.verify.run_suite("sondow")]
    assert {m.__name__: dict(vars(m)) for m in workloads.LAYERS} == originals
    # the sondow suite makes one call for each s = 1..5
    assert len(tracer.calls["series.lerch_accelerated"]) == sum(op.kind != "zeta" for op in ops) + 5


def test_self_time_excludes_children():
    module = types.ModuleType("fake.layer")
    exec("def leaf():\n    return sum(range(20000))\n\ndef outer():\n    return leaf() + leaf()\n", vars(module))
    tracer = tracing.Tracer([module])
    with tracer:
        module.outer()
    times = tracer.self_times()
    assert times["layer.leaf"][0] == 2 and times["layer.outer"][0] == 1
    total = tracer.duration(0)
    assert abs(times["layer.outer"][1] + times["layer.leaf"][1] - total) < 1e-9
    assert times["layer.outer"][1] < times["layer.leaf"][1]


def test_metric_names_and_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace, names", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_a_fresh_seed_runs_cleanly_and_prints_the_spec_metrics(trace, names):
    out = bench("--workload", "eval-shared-shift", "--seed", "424242", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name in names:
        assert re.search(rf"^eval-shared-shift +{re.escape(name)} ", out.stdout, re.M)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "eval-scattered", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
