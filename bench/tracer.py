"""Spans and operation counts recorded around lftident's public functions.

The tracer patches module attributes from outside the package: every
cross-module call in lftident goes through a module attribute (``response.
g_blocks(...)``, ``numkit.rank_of(...)``), and intra-module calls read the
same module globals, so one ``setattr`` covers both.  ``install`` and
``uninstall`` bracket a traced pass; untraced passes run the original
functions.

A span is ``(name, start_ns, end_ns, parent, op, attr)``: ``parent`` indexes
the enclosing span of the same pass (-1 at the top), ``op`` indexes the
workload's op list, and ``attr`` carries what a ratio needs (the model and
omega of a ``g_blocks`` call, the raw and guarded point counts of a grid).
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
from collections import Counter
from time import perf_counter_ns

import numpy as np
import scipy.linalg

from lftident import cli, freqplan, identifiability, model, numkit, oracle, response, sloppiness

# Which end-to-end metric each layer should move, written before measuring:
#   response         ops_per_s on search-pool and reports, op_ms.p50 on search-wide
#   numkit, ops.*    op_ms.p50 on search-wide
#   identifiability  op_ms.p50 on search-pool
#   freqplan         op_ms.p50 on search-wide, op_ms.tail on search-pool
#   sloppiness       op_ms.p50 on reports only (no work on the search workloads)
#   oracle           op_ms.tail and ops_per_s on reports
#   model            op_ms.p50 on reports
#   cli              setup_s on every workload
SPANNED = {
    "response": (response, ("g_blocks", "h_lft")),
    "numkit": (numkit, ("rank_of", "right_null_basis", "svd_full")),
    "identifiability": (identifiability,
                        ("pi_at", "upsilon_test", "normal_row_rank", "sensitivity_stack")),
    "freqplan": (freqplan, ("default_grid", "search_frequencies")),
    "sloppiness": (sloppiness, ("s_matrices", "pointwise_factors", "q_pair", "metrics")),
    "oracle": (oracle, ("fd_jacobian", "random_equivalence_probe", "response_stack")),
    "model": (model, ("load_model",)),
    "cli": (cli, ("main",)),
}

COUNTED = {
    "ops.svd": (np.linalg, "svd"),
    "ops.lu_factor": (scipy.linalg, "lu_factor"),
    "ops.solve": (np.linalg, "solve"),
}


def _g_blocks_attr(args, kwargs, result):
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    return (id(args[0]), float(omega))


def _grid_attr(args, kwargs, result):
    if result is None:  # the grid raised EmptyGrid
        return None
    return (int(result.points.size) + result.n_guarded, result.n_guarded)


ATTRS = {"response.g_blocks": _g_blocks_attr, "freqplan.default_grid": _grid_attr}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _span(self, name: str, fn):
        spans, stack, attr_of = self.spans, self._stack, ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                attr = None if attr_of is None else attr_of(args, kwargs, result)
                spans[idx] = (name, start, end, parent, self.op, attr)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for layer, (mod, names) in SPANNED.items():
            for fname in names:
                orig = getattr(mod, fname)
                self._saved.append((mod, fname, orig))
                setattr(mod, fname, self._span(f"{layer}.{fname}", orig))
        for name, (mod, fname) in COUNTED.items():
            orig = getattr(mod, fname)
            self._saved.append((mod, fname, orig))
            setattr(mod, fname, self._counted(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, fname, orig = self._saved.pop()
            setattr(mod, fname, orig)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (``s`` inclusive, ``self_s`` minus children).

    No spanned function calls itself, so inclusive durations of one name add up
    without double counting.
    """
    spans = tr.spans
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_ns: Counter = Counter()
    for name, start, end, parent, _op, _attr in spans:
        calls[name] += 1
        dur = end - start
        incl[name] += dur
        self_ns[name] += dur
        if parent >= 0:
            self_ns[spans[parent][0]] -= dur

    def in_search(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in ("freqplan.default_grid", "freqplan.search_frequencies"):
                return True
            p = spans[p][3]
        return False

    seen = set()
    repeats = g_search = 0
    raw_points = guarded = 0
    for i, (name, _s, _e, _p, op, attr) in enumerate(spans):
        if name == "response.g_blocks":
            key = (op, attr)
            repeats += key in seen
            seen.add(key)
            g_search += in_search(i)
        elif name == "freqplan.default_grid" and attr is not None:
            raw_points += attr[0]
            guarded += attr[1]

    s = lambda name: incl[name] / 1e9  # noqa: E731
    g_calls = calls["response.g_blocks"]
    out = {
        "response.g_blocks.calls": g_calls,
        "response.g_blocks.self_s": self_ns["response.g_blocks"] / 1e9,
        "response.g_blocks.repeats": repeats,
        "response.g_blocks.repeat_share": repeats / g_calls if g_calls else 0.0,
        "response.h_lft.calls": calls["response.h_lft"],
        "response.h_lft.s": s("response.h_lft"),
    }
    for fname in ("rank_of", "right_null_basis", "svd_full"):
        out[f"numkit.{fname}.calls"] = calls[f"numkit.{fname}"]
        out[f"numkit.{fname}.s"] = s(f"numkit.{fname}")
    for name in COUNTED:
        out[name] = tr.counts[name]
    out |= {
        "identifiability.pi_at.calls": calls["identifiability.pi_at"],
        "identifiability.pi_at.s": s("identifiability.pi_at"),
        "identifiability.upsilon_test.s": s("identifiability.upsilon_test"),
        "identifiability.normal_row_rank.s": s("identifiability.normal_row_rank"),
        "identifiability.sensitivity_stack.s": s("identifiability.sensitivity_stack"),
        "freqplan.default_grid.s": s("freqplan.default_grid"),
        "freqplan.search_frequencies.self_s": self_ns["freqplan.search_frequencies"] / 1e9,
        "freqplan.grid_points": raw_points,
        "freqplan.grid_g_calls": g_search,
        "freqplan.g_per_grid_point": g_search / raw_points if raw_points else 0.0,
        "freqplan.guarded_out": guarded,
        "freqplan.guard_drop_share": guarded / raw_points if raw_points else 0.0,
        "sloppiness.s_matrices.s": s("sloppiness.s_matrices"),
        "sloppiness.pointwise_factors.s": s("sloppiness.pointwise_factors"),
        "sloppiness.q_pair.s": s("sloppiness.q_pair"),
        "sloppiness.metrics.s": s("sloppiness.metrics"),
        "oracle.fd_jacobian.s": s("oracle.fd_jacobian"),
        "oracle.random_equivalence_probe.s": s("oracle.random_equivalence_probe"),
        "oracle.response_stack.calls": calls["oracle.response_stack"],
        "model.load_model.s": s("model.load_model"),
        "cli.main.self_s": self_ns["cli.main"] / 1e9,
    }
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the lower median over traced passes: a measured value, so counts stay whole."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path, tracers: list[Tracer], op_ids: list[str]) -> None:
    """One JSON line per span; the header names the fields and the ops a span's ``op`` indexes."""
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"fields": ["pass", "name", "start_ns", "end_ns", "parent", "op",
                                        "attr"], "ops": op_ids}) + "\n")
        for k, tr in enumerate(tracers):
            for name, start, end, parent, op, attr in tr.spans:
                fh.write(json.dumps([k, name, start, end, parent, op, attr]) + "\n")
