#!/usr/bin/env python3
"""Digests of the reports of every benchmark op, run in process.

Runs each op of the three benchmark workloads once, in catalogue order,
through ``lftident.cli.main`` with ``--seed SEED``, and prints one line per op:
the sha256 of its exit code and report (stdout), the exit code and the op id.
The last line is one sha256 over all op lines.  Two checkouts that print the
same last line at a seed give byte-identical reports for every op.

The op lists come from ``bench/workloads.py``, which is only imported.  Model
files go to a temporary directory; a report names its model by content
digest, not by path.

Usage, from the root of a checkout (it imports that checkout's ``src``):

    python3 scripts/report_digests.py --seed 7 [--size tiny] [--workload NAME ...]

``--workload NAME`` (repeatable) runs only the named workloads, in catalogue
order: a quick check of a change that touches one path, such as
``--workload search-wide`` for the frequency search.  Its last line is then a
digest over those ops only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from lftident import cli  # noqa: E402


def op_lines(seed: int, size: str = "full", names=None):
    """``(sha256, exit code, op id)`` of every benchmark op at CLI ``--seed seed``,
    or of the ops of the workloads ``names`` only."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            if names and name not in names:
                continue
            w = workloads.sized(workload, size)
            models = workloads.write_models(w, Path(tmp) / name)
            for op in workloads.ops(w, models):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main([*op.args, "--seed", str(seed)])
                h = hashlib.sha256(f"{rc}\n{out.getvalue()}".encode()).hexdigest()
                yield h, rc, op.op_id


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True, help="the --seed of every op")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="every fixture, or the benchmark's few-fixture self-test set")
    p.add_argument("--workload", action="append", choices=tuple(workloads.WORKLOADS),
                   metavar="NAME", help="run only this workload's ops (repeatable; "
                   f"one of {', '.join(workloads.WORKLOADS)}; default: all)")
    args = p.parse_args(argv)
    total = hashlib.sha256()
    for h, rc, op_id in op_lines(args.seed, args.size, args.workload):
        line = f"{h}  {rc}  {op_id}"
        print(line, flush=True)
        total.update(f"{line}\n".encode())
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
