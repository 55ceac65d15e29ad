"""The benchmark's per-layer metrics stay live: one traced tiny pass per
workload reads non-zero on every metric but the pinned ones, each pinned
with the reason it reads zero.  A refactor that moves work out of a spanned
function shows up here, not as a silent zero in a benchmark record."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

# Zero on every workload: the spans and counts of code that no path runs.
NO_PATH_RUNS = {
    "response.g_blocks.calls": "nothing under src/ calls g_blocks; g_sweep evaluates every G",
    "response.g_blocks.self_s": "g_blocks never runs",
    "response.g_blocks.repeats": "g_blocks never runs",
    "response.g_blocks.repeat_share": "g_blocks never runs",
    "identifiability.pi_at.calls": "nothing under src/ calls pi_at; it is a test reference",
    "identifiability.pi_at.s": "pi_at never runs",
    "ops.lu_factor": "nothing calls scipy.linalg.lu_factor; pencils go through np.linalg.solve",
    "freqplan.grid_g_calls": "counts g_blocks calls inside a search; the grid runs g_sweep",
    "freqplan.g_per_grid_point": "grid_g_calls per grid point",
}

# Zero on a find-freqs pass: work that only ident, sloppiness and oracle do.
NOT_IN_A_SEARCH = {
    "identifiability.upsilon_test.s": "find-freqs decides through _decide, not upsilon_test",
    "numkit.rank_of.calls": "find-freqs ranks stacks; one-matrix rank_of runs in reports only",
    "numkit.rank_of.s": "rank_of never runs in a search",
    "response.h_lft.calls": "find-freqs evaluates no H(theta)",
    "response.h_lft.s": "h_lft never runs in a search",
    "sloppiness.s_matrices.s": "only the sloppiness and oracle subcommands build S matrices",
    "sloppiness.pointwise_factors.s": "runs under s_matrices only",
    "sloppiness.q_pair.s": "runs under s_matrices only",
    "sloppiness.metrics.s": "only the sloppiness subcommand",
    "oracle.fd_jacobian.s": "only the oracle subcommand",
    "oracle.random_equivalence_probe.s": "only the oracle subcommand",
    "oracle.response_stack.calls": "only the oracle subcommand",
    "freqplan.guarded_out": "no grid point of a tiny search fixture sits on a pole",
    "freqplan.guard_drop_share": "guarded_out per grid point",
}

# Zero on the reports pass: it runs no grid search.
NO_SEARCH = {
    "freqplan.default_grid.s": "ident, sloppiness and oracle build no grid",
    "freqplan.search_frequencies.self_s": "no search runs",
    "freqplan.grid_points": "no grid is built",
    "freqplan.guarded_out": "no grid is built",
    "freqplan.guard_drop_share": "no grid is built",
}

PINNED_ZERO = {
    "search-pool": NO_PATH_RUNS | NOT_IN_A_SEARCH,
    "search-wide": NO_PATH_RUNS | NOT_IN_A_SEARCH,
    "reports": NO_PATH_RUNS | NO_SEARCH,
}


@pytest.mark.parametrize("workload", sorted(PINNED_ZERO))
def test_per_layer_metrics_read_zero_only_where_pinned(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--size", "tiny", "--seconds", "1",
         "--seed", "5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(PINNED_ZERO[workload]) <= set(PER_LAYER)
    zero = {name for name in PER_LAYER if metrics[name]["value"] == 0}
    assert zero == set(PINNED_ZERO[workload])
