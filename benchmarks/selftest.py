"""The benchmark's own tests.  Run them with

    python3 -m pytest -q benchmarks/selftest.py

They use --smoke, which runs every workload at a tiny size.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))
import treewiener.cli as cli  # noqa: E402
from treewiener import formulas  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN_PY = Path(run.__file__)


def invoke(workload, trace, seed=7, cwd=run.ROOT, script=RUN_PY):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def outputs():
    """stdout of each smoke run; traced runs twice with the same seed."""
    return {(w, trace, attempt): invoke(w, trace).stdout
            for w in workloads.WORKLOADS
            for trace, attempt in ((0, 0), (1, 0), (1, 1))}


def test_reference_matches_library():
    for k in range(0, 400):
        assert reference.wiener("binomial", k) == formulas.wiener_binomial(k)
    for k in range(-1, 400):
        assert reference.wiener("fibonacci", k) == formulas.wiener_fib(k)
    for k in range(1, 400):
        assert reference.wiener("binary-fibonacci", k) == formulas.wiener_binfib(k)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, section, units", [
    (0, "end_to_end", run.END_TO_END_UNITS),
    (1, "per_layer", run.PER_LAYER_UNITS),
])
def test_every_metric_printed_with_unit(outputs, workload, trace, section, units):
    lines = outputs[(workload, trace, 0)].splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert declared == units
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} ") and f" {unit} (" in line
                   for line in lines), name
    assert any(line.startswith("metric error_rate ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["requests_per_pass"] >= 1 and env["seed"] == 7


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(outputs, workload):
    first, second = (json.loads(outputs[(workload, 1, a)].splitlines()[-1])["metrics"]
                     for a in (0, 1))
    counted = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] != "s"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corrupted_reference_is_a_failure(tmp_path, workload):
    requests = workloads.WORKLOADS[workload](random.Random(3), True, tmp_path)
    assert run.run_pass(cli, requests).failed == 0
    i = next(i for i, r in enumerate(requests) if r.expected is not None)
    expected = requests[i].expected
    if isinstance(expected, str):
        corrupted = expected + "1"
    elif isinstance(expected, dict):
        corrupted = {**expected, "value": expected["value"] + "1"}
    else:
        corrupted = [expected[0][:2] + ("1",) + expected[0][3:]] + expected[1:]
    requests[i] = dataclasses.replace(requests[i], expected=corrupted)
    result = run.run_pass(cli, requests)
    assert (result.failed, result.wrong) == (1, 1)


def test_large_mix_crosses_digit_limit(tmp_path):
    limit = sys.get_int_max_str_digits()
    for seed in range(5):
        requests = workloads.closed_form_large(random.Random(seed), False, tmp_path)
        assert len(requests) >= 100
        values = [r.expected["value"] if isinstance(r.expected, dict) else r.expected
                  for r in requests]
        # The top stratum of each binomial (family, method) pair is above k = 11000.
        assert sum(len(v) > 4300 for v in values) >= 3
    assert sys.get_int_max_str_digits() == limit


def test_crash_counts_as_failure_not_wrong_answer():
    # W(binomial, 8000) has 4820 digits: computed, then str() raises.
    request = workloads.closed_form("binomial", 8000, "closed", False)
    result = run.run_pass(cli, [request])
    assert (result.failed, result.wrong) == (1, 0)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN_PY.parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("closed-form-small", 0, cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""
