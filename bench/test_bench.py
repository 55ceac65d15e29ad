"""Self-test of the benchmark on a tiny size per workload.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "1", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, key):
    proc, lines = run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[key]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


@pytest.mark.parametrize("workload,op_id,field,wrong", [
    ("reports", "siso1/ident", "status", "not-identifiable"),
    ("search-pool", "kr-00/find-freqs", "selected", [0.02]),
])
def test_wrong_expected_result_counts_as_failure(tmp_path, workload, op_id, field, wrong):
    golden = json.loads((BENCH / "golden.json").read_text())
    golden[workload][op_id][field] = wrong
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc, lines = run("--workload", workload, "--trace", "0", "--golden", str(path))
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    failures = json.loads(lines[-2])["detail"]["failures"]
    assert {f["op"] for f in failures} == {op_id}


def test_stored_results_are_reproduced(tmp_path):
    path = tmp_path / "golden.json"
    proc, _ = run("--workload", "search-pool", "--write-golden", "--golden", str(path))
    assert proc.returncode == 0, proc.stderr
    written = json.loads(path.read_text())["search-pool"]
    stored = json.loads((BENCH / "golden.json").read_text())["search-pool"]
    assert len(written) == 3
    assert written == {k: stored[k] for k in written}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run("--workload", "reports", "--trace", "0", cwd=tmp_path,
                      script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)
