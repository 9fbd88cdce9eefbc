"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, compare_tables, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = run_bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = [(m["name"], m["unit"]) for m in BENCHMARK[section]]
    expected.append(("error_rate", "fraction"))
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        printed = set()
        for line in lines[:-1]:
            cells = line.split()
            if cells[0] == workload and len(cells) == 4:
                printed.add((cells[1], cells[3]))
        assert set(expected) <= printed, workload


def test_single_workload_result_has_the_contract_keys():
    proc = run_bench("--workload", "fi-sweep", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "fi-sweep", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_output_check_tolerance():
    ref = load_reference(WORKLOADS["fi-sweep"], smoke=True)
    assert compare_tables(ref, ref) is None
    lines = ref.splitlines(keepends=True)
    cells = lines[3].split(",")
    qfi = float(cells[5])
    cells[5] = repr(qfi * (1 + 1e-13))
    assert compare_tables("".join(lines[:3] + [",".join(cells)] + lines[4:]), ref) is None
    cells[5] = repr(qfi * (1 + 1e-9))
    assert compare_tables("".join(lines[:3] + [",".join(cells)] + lines[4:]), ref)
    cells[5] = ""
    assert compare_tables("".join(lines[:3] + [",".join(cells)] + lines[4:]), ref)
    assert compare_tables(ref.replace("v1", "v2", 1), ref)
