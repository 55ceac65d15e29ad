"""Benchmark of the ``lftident`` command line, driven in process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload search-pool --seed 0 --seconds 30 --trace 0

One client on one thread calls ``lftident.cli.main(argv)`` in a closed loop,
each op after the previous one returns.  A run writes the workload's model
files under ``.bench_work/``, makes one untimed warm-up op and then runs
whole passes over the workload's ops, each pass in an order drawn from
``--seed``, until another pass would end after ``--seconds`` of op time (and
at least ``min_passes`` passes).  Set-up is measured in fresh interpreters
started between the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass of the same ops, prints the per-layer
metrics (the lower median over traced passes) with the tracing overhead, and
writes the spans to ``.bench_work/<workload>-seed<n>/spans.jsonl.gz``.

Every op's result is compared with ``bench/golden.json``: a non-zero exit,
an exception or a differing result is a failed op, and any failed op makes
the run exit with status 1.  The last line of stdout is the result object;
the line before it holds the details (environment, percentile, digest).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
WORKLOAD_NAMES = ("search-pool", "search-wide", "reports")

# The benchmark is one client on one thread; BLAS is pinned to match.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = {"full": 7, "tiny": 1}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", ".overhead")):
        return "ratio"
    if name == "freqplan.g_per_grid_point":
        return "calls/point"
    return "count"


def import_program():
    """Import lftident from this checkout's ``src``, never from elsewhere."""
    pkg = ROOT / "src" / "lftident"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a lftident checkout")
    sys.path.insert(0, str(pkg.parent))
    import lftident
    import lftident.cli

    if Path(lftident.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported lftident from {lftident.__file__}, not {pkg}")
    return lftident.cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def extract(command: str, doc: dict) -> dict:
    """The fields of a report that the stored results fix."""
    r = doc["result"]
    if command == "find-freqs":
        plan = r["plan"]
        return {"status": plan["status"], "selected": plan["selected"],
                "rank_trace": plan["rank_trace"]}
    if command == "ident":
        return {"status": r["verdict"]["status"]}
    if command == "sloppiness":
        return {"n_s": r["n_s"]}
    return {"local_identifiability": r["local_identifiability"]}


def matches(observed: dict, expected: dict | None) -> bool:
    if expected is None or observed.keys() != expected.keys():
        return False
    for key, want in expected.items():
        got = observed[key]
        if key == "selected":
            if len(got) != len(want) or not all(
                    math.isclose(a, b, rel_tol=1e-9) for a, b in zip(got, want)):
                return False
        elif got != want:
            return False
    return True


def write_golden(path: Path, stored: dict) -> None:
    """One line per op, so a changed expected result shows as a one-line diff."""
    blocks = []
    for workload, results in sorted(stored.items()):
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(results.items())]
        blocks.append(f"{json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def digest(observed: dict) -> str:
    text = json.dumps(observed, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs ops through ``cli.main`` and checks each result against the stored one."""

    def __init__(self, cli, golden: dict):
        self.cli = cli
        self.golden = golden
        self.latencies: list[float] = []
        self.op_ids: list[str] = []
        self.failures: list[dict] = []
        self.observed: dict = {}

    def run(self, op, cli_seed: int, record: bool = True) -> None:
        argv = [*op.args, "--seed", str(cli_seed)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # an op that raises is a failed op; the loop goes on
                rc = None
                traceback.print_exc(file=err)
            elapsed = perf_counter() - start
        if not record:
            return
        self.latencies.append(elapsed)
        self.op_ids.append(op.op_id)
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[-400:]}"
        else:
            try:
                obs = extract(op.command, json.loads(out.getvalue()))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc!r}"
            else:
                self.observed.setdefault(op.op_id, obs)
                expected = self.golden.get(op.op_id)
                if matches(obs, expected):
                    return
                problem = f"expected {expected}, got {obs}"
        self.failures.append({"op": op.op_id, "problem": problem})


class ColdStarts:
    """Set-up in fresh interpreters (``coldstart.py``), one after another.

    Host load on a shared machine drifts over seconds, and single cold starts
    vary with it more than a pass of warm ops does.  The timed phase therefore
    runs the repeats between its passes, so that their median samples the same
    stretch of time as the ops do instead of the few seconds before them.
    """

    def __init__(self, model_dir: Path, argv: list[str], repeats: int):
        self.cmd = [sys.executable, str(BENCH / "coldstart.py"), str(model_dir), json.dumps(argv)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.repeats = repeats
        self.setup: list[float] = []
        self.imports: list[float] = []

    def run_due(self, fraction: float) -> None:
        """Run the repeats due once ``fraction`` of the timed phase is over (one at 0)."""
        due = min(self.repeats, 1 + math.floor(fraction * (self.repeats - 1)))
        while len(self.setup) < due:
            proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=150)
            if proc.returncode != 0:
                raise RuntimeError(f"cold-start set-up failed:\n{proc.stdout}{proc.stderr}")
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            self.setup.append(rec["setup_s"])
            self.imports.append(rec["import_s"])

    def medians(self) -> tuple[float, float]:
        """Median (setup_s, import_s), after running any repeats still outstanding."""
        self.run_due(1.0)
        return statistics.median(self.setup), statistics.median(self.imports)


def nearest_rank(values: list[float], pct: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def tail_percentile(n_min: int) -> float:
    """Highest percentile (0.1 steps) with at least ten of ``n_min`` ops beyond it."""
    return max(50.0, math.floor(1000 * (1 - 10 / n_min)) / 10)


def timed_passes(runner: Runner, ops, orders, seeds, min_passes: int, seconds: float,
                 cold: ColdStarts) -> tuple[int, float]:
    """Whole passes until another would end after ``seconds`` of op time.

    Returns the pass count and the op time; the cold starts run between passes
    and are not part of it.
    """
    passes, timed = 0, 0.0
    while True:
        cold.run_due(timed / seconds)
        start = perf_counter()
        for i in next(orders):
            runner.run(ops[i], next(seeds))
        timed += perf_counter() - start
        passes += 1
        if passes >= min_passes and timed * (passes + 1) / passes > seconds:
            return passes, timed


def traced_passes(runner: Runner, ops, orders, seeds, seconds: float):
    """Alternate untraced and traced passes over the same order and probe seeds."""
    import tracer as T

    tracers, plain_s, traced_s = [], 0.0, 0.0
    start = perf_counter()
    while True:
        order = next(orders)
        pass_seeds = [next(seeds) for _ in order]
        t0 = perf_counter()
        for i, s in zip(order, pass_seeds):
            runner.run(ops[i], s)
        plain_s += perf_counter() - t0
        tr = T.Tracer()
        tr.install()
        try:
            t0 = perf_counter()
            for i, s in zip(order, pass_seeds):
                tr.op = int(i)
                runner.run(ops[i], s)
            traced_s += perf_counter() - t0
        finally:
            tr.uninstall()
        tracers.append(tr)
        elapsed = perf_counter() - start
        if elapsed * (len(tracers) + 1) / len(tracers) > seconds:
            return tracers, plain_s, traced_s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few fixtures and one pass minimum (the self-test)")
    p.add_argument("--golden", type=Path, default=GOLDEN,
                   help="stored results to check against")
    p.add_argument("--write-golden", action="store_true",
                   help="run one pass and store its results as the expected ones")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    cli = import_program()
    import workloads as W

    workload = W.sized(W.WORKLOADS[args.workload], args.size)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    models = W.write_models(workload, work / "models")
    ops = W.ops(workload, models)

    stored = json.loads(args.golden.read_text()) if args.golden.is_file() else {}
    runner = Runner(cli, stored.get(args.workload, {}))

    orders, seeds = W.pass_orders(len(ops), args.seed), W.cli_seeds(args.seed)
    if args.write_golden:
        for op in ops:
            runner.run(op, next(seeds))
        stored[args.workload] = runner.observed
        write_golden(args.golden, stored)
        missing = len(ops) - len(runner.observed)
        print(f"stored {len(runner.observed)} results for {args.workload}; "
              f"{missing} ops did not complete")
        return 0 if missing == 0 else 1

    warm_argv = [*ops[0].args, "--seed", str(args.seed)]
    cold = ColdStarts(work / "models", warm_argv, SETUP_REPEATS[args.size])
    runner.run(ops[0], args.seed, record=False)

    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "ops_per_pass": len(ops), "environment": environment()}
    if args.trace == 0:
        passes, timed_s = timed_passes(runner, ops, orders, seeds, workload.min_passes,
                                       args.seconds, cold)
        setup_s, _ = cold.medians()
        lat_ms = [t * 1e3 for t in runner.latencies]
        tail_pct = tail_percentile(workload.min_passes * len(ops))
        values = {
            "ops_per_s": len(lat_ms) / timed_s,
            "op_ms.p50": statistics.median(lat_ms),
            "op_ms.tail": nearest_rank(lat_ms, tail_pct),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail |= {"passes": passes, "timed_s": timed_s, "tail_percentile": tail_pct,
                   "setup_s_samples": cold.setup}
    else:
        import tracer as T

        _, import_s = cold.medians()
        tracers, plain_s, traced_s = traced_passes(runner, ops, orders, seeds, args.seconds)
        values = T.median_metrics([T.layer_metrics(tr) for tr in tracers])
        n = len(tracers) * len(ops)
        values |= {
            "cli.import_s": import_s,
            "trace.ops": n,
            "trace.ops_per_s": n / traced_s,
            "trace.untraced_ops_per_s": n / plain_s,
            "trace.overhead": traced_s / plain_s,
        }
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        spans_path = work / "spans.jsonl.gz"
        T.write_spans(spans_path, tracers, [op.op_id for op in ops])
        detail |= {"passes": len(tracers), "spans": str(spans_path.relative_to(ROOT)),
                   "spans_recorded": sum(len(tr.spans) for tr in tracers)}

    attempted, failed = len(runner.latencies), len(runner.failures)
    detail |= {"fail_ratio": failed / attempted, "results_digest": digest(runner.observed),
               "failures": runner.failures[:5]}
    (work / "result.json").write_text(json.dumps(
        {"detail": detail, "metrics": metrics,
         "ops": [[i, t] for i, t in zip(runner.op_ids, runner.latencies)]}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
