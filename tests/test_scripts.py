import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "report_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def digest_lines(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seed", "7", "--size", "tiny", *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_report_digests_tiny():
    # A fresh process and this reused one must print the same digests.
    *op_lines, last = digest_lines()
    mod = load_script()
    fixtures = mod.workloads.TINY_FIXTURES
    commands = {name: len(w.commands) for name, w in mod.workloads.WORKLOADS.items()}
    assert len(op_lines) == sum(fixtures[name] * commands[name] for name in fixtures)
    rows = [line.split("  ") for line in op_lines]
    assert all(len(h) == 64 and rc == "0" for h, rc, _ in rows)
    assert len({op_id for _, _, op_id in rows}) == len(rows)
    total = hashlib.sha256("".join(f"{line}\n" for line in op_lines).encode()).hexdigest()
    assert last == f"{total}  all"
    in_process = [f"{h}  {rc}  {op_id}" for h, rc, op_id in mod.op_lines(7, "tiny")]
    assert in_process == op_lines

    # --workload keeps the lines of the named workloads, in catalogue order
    # whatever the order of the flags, and digests only those.
    blocks, start = {}, 0
    for name in mod.workloads.WORKLOADS:
        blocks[name] = op_lines[start:start + fixtures[name] * commands[name]]
        start += len(blocks[name])
    *some, last = digest_lines("--workload", "reports", "--workload", "search-pool")
    assert some == blocks["search-pool"] + blocks["reports"]
    total = hashlib.sha256("".join(f"{line}\n" for line in some).encode()).hexdigest()
    assert last == f"{total}  all"


# The last line of report_digests.py over all 81 benchmark reports, per seed.
# A change that moves a report updates its pin and justifies the move.
PINNED_DIGESTS = {
    7: "c868c2458cbead3bb149f3de0bc9d8be40ea7a49f276923d7c920026628e7056  all",
    3: "0b23dadb0276ffebb15cb78ebc8db2c10079a76c868e7625f23fc416220b270e  all",
}


# BLAS on one thread: a threaded BLAS may sum in another order.
ONE_BLAS_THREAD = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
def test_benchmark_reports_are_byte_identical(seed):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seed", str(seed)],
                          capture_output=True, text=True, timeout=300, env=ONE_BLAS_THREAD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == PINNED_DIGESTS[seed]


# The last line of report_digests.py --seed 7 --workload search-wide, from a
# run before pencil sweeps could take a helper thread.
SEARCH_WIDE_DIGEST = "e7b4277fa63d53ebfa98a42fb26060f5cff53a0494c2d31d0d76034e8bbdc3cf  all"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_one_cpu_search_wide_reports_are_byte_identical():
    # Pinned to one CPU, every pencil sweep takes the serial route; the full
    # pins above run on as many CPUs as the process may use.  So the 14
    # search-wide reports are the same bytes on either route.
    cpu = min(os.sched_getaffinity(0))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--seed", "7", "--workload", "search-wide"],
                          capture_output=True, text=True, timeout=300, env=ONE_BLAS_THREAD,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == SEARCH_WIDE_DIGEST


# The scripts that README "Scripts" lists beside report_digests.py, with a small argument list.
@pytest.mark.parametrize("argv", [["demo_siso1.py"], ["ellipsoid_convergence.py"],
                                  ["sweep_random_models.py", "3"]], ids=lambda a: a[0])
def test_readme_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
