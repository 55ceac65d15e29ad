"""Command-line surface: validate, ident, find-freqs, sloppiness, oracle.

Every subcommand emits a versioned JSON report document to stdout (or
``--output``).  Reports are byte-identical for identical inputs and seed;
wall-clock timing therefore goes to stderr and the report's timing field
stays null unless ``--timing`` is requested explicitly.

Exit codes: 0 run completed (verdicts live in the report), 1 usage error,
2 invalid model, 3 assumption violation (regularity, well-posedness, a
full-normal-row-rank hypothesis, or a frequency set that does not certify
identifiability), 4 internal numerical inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, freqplan, identifiability, model as model_mod, numkit, oracle, response, sloppiness
from .errors import (
    ConstructionError,
    DeviationSpaceMismatch,
    EmptyGrid,
    FNRRViolation,
    GammaRankDeficient,
    InvalidInput,
    LftIdentError,
    ModelFormatError,
    ModelShapeError,
    NonFiniteEntryError,
    PoleProximity,
    RankDrop,
    RegularityViolation,
    WellPosednessViolation,
)

REPORT_SCHEMA = "lftident-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_ASSUMPTION = 3
EXIT_INCONSISTENT = 4

_MODEL_ERRORS = (ModelFormatError, ModelShapeError, NonFiniteEntryError)
_ASSUMPTION_ERRORS = (
    RegularityViolation,
    WellPosednessViolation,
    FNRRViolation,
    PoleProximity,
    RankDrop,
    GammaRankDeficient,
    DeviationSpaceMismatch,
    EmptyGrid,
)


def _csv_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"--{what} must be comma-separated numbers, got {text!r}") from exc
    if not values:
        raise InvalidInput(f"--{what} must contain at least one number")
    return values


def _json_default(obj):
    """The JSON form of a numpy array or scalar, or of a complex number, in a report."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _load(args) -> model_mod.DescriptorModel:
    return model_mod.load_model(args.model)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _theta0(args, m: model_mod.DescriptorModel) -> np.ndarray:
    values = _csv_floats(args.theta0, "theta0")
    t = m.check_theta(values)
    if not m.theta_domain.contains(t):
        raise InvalidInput(f"theta0 {values} lies outside the parameter domain")
    return t


def _freqs(args, m: model_mod.DescriptorModel) -> list[float]:
    return response.check_freqs(m, _csv_floats(args.freqs, "freqs"))


def run_validate(args) -> tuple:
    m = _load(args)
    rng = np.random.default_rng(args.seed)
    dom = m.theta_domain
    thetas = [np.zeros(m.dims.q)]
    for _ in range(5):
        u = rng.standard_normal(m.dims.q)
        if dom.norm == "box":  # max |theta_k| = 0.7 r
            u *= 0.7 * dom.radius / max(np.abs(u).max(), 1e-12)
        else:
            u *= 0.7 * np.sqrt(dom.radius) / max(np.linalg.norm(u), 1e-12)
        thetas.append(u)
    report = model_mod.validate_assumptions(m, thetas, seed=args.seed)
    psi_dec = identifiability.psi(m)
    try:
        zu_rank = identifiability.normal_row_rank(m, seed=args.seed)
        fnrr = zu_rank == m.dims.m_z
    except FNRRViolation:
        zu_rank, fnrr = None, False
    payload = {
        "dims": vars(m.dims) | {},
        "time_domain": m.time_domain,
        "assumptions": {
            "worst_loop_condition": report.worst_loop_condition,
            "min_abs_pencil_det": report.min_abs_pencil_det,
            "probe_lambdas": [[l.real, l.imag] for l in report.probe_lambdas],
            "theta_samples": [list(t) for t in report.theta_samples],
        },
        "psi_rank": psi_dec.rank,
        "psi_fcr": psi_dec.rank == m.dims.q,
        "g_zu_normal_row_rank": zu_rank,
        "g_zu_fnrr": fnrr,
    }
    csv_rows = [["sample_index"] + [f"theta_{j + 1}" for j in range(m.dims.q)]]
    for i, t in enumerate(report.theta_samples):
        csv_rows.append([i] + list(t))
    return payload, csv_rows


def run_ident(args) -> tuple:
    m = _load(args)
    t0 = _theta0(args, m)
    w = _freqs(args, m)
    verdict = identifiability.upsilon_test(m, t0, w, fnrr_seed=args.seed)
    payload = {
        "verdict": dataclasses.asdict(verdict),
        "sufficient_count": identifiability.sufficient_count(m),
    }
    # A shortcut verdict's one step is its shortcut frequency, not the first listed.
    steps = w if verdict.shortcut_omega is None else [verdict.shortcut_omega]
    csv_rows = [["step", "omega", "unresolved_dim"]]
    for i, (wi, dim) in enumerate(zip(steps, verdict.rank_trace)):
        csv_rows.append([i + 1, wi, dim])
    return payload, csv_rows


def run_find_freqs(args) -> tuple:
    m = _load(args)
    t0 = _theta0(args, m)
    grid = freqplan.default_grid(
        m, n_points=args.grid_points, w_min=args.grid_min, w_max=args.grid_max
    )
    plan = freqplan.search_frequencies(m, t0, grid, refine=args.refine, fnrr_seed=args.seed)
    # The plan's fields, but its verdict, which the report carries at the top.
    fields = dataclasses.asdict(plan)
    verdict = fields.pop("verdict")
    payload = {
        "plan": fields,
        "verdict": verdict,
        "grid": {
            "points_used": int(grid.points.size),
            "points_guarded_out": grid.n_guarded,
        },
    }
    csv_rows = [["step", "omega", "unresolved_dim"]]
    for i, (wsel, dim) in enumerate(zip(plan.selected, plan.rank_trace)):
        csv_rows.append([i + 1, wsel, dim])
    return payload, csv_rows


def run_sloppiness(args) -> tuple[dict, list[list]]:
    m = _load(args)
    t0 = _theta0(args, m)
    w = _freqs(args, m)
    S = sloppiness.s_matrices(m, t0, w)
    rep = sloppiness.metrics(S, k=args.k)
    ell = sloppiness.frobenius_ellipsoid(S, args.eps, k=args.k)
    payload = {
        "n_s": S.n_s,
        "mu": rep.mu.tolist(),
        "sm_abs": rep.sm_abs,
        "sm_rel": rep.sm_rel.tolist(),
        "directions": [rep.directions[:, i].tolist() for i in range(rep.directions.shape[1])],
        "k": rep.k,
        "eps": args.eps,
        "eps_convention": sloppiness.EPS_CONVENTION,
        "ellipsoid_energy_matrix": ell.M.tolist(),
    }
    csv_rows: list[list] = [["index", "mu", "sm_rel"]
                            + [f"direction_{j + 1}" for j in range(m.dims.q)]]
    for i in range(rep.mu.size):
        rel = rep.sm_rel[i] if i < rep.sm_rel.size else ""
        csv_rows.append([i + 1, rep.mu[i], rel] + list(rep.directions[:, i]))
    return payload, csv_rows


def run_oracle(args) -> tuple:
    m = _load(args)
    t0 = _theta0(args, m)
    w = _freqs(args, m)
    est = oracle.fd_jacobian(m, t0, w, h=args.step)
    local = oracle.local_identifiability(est)
    # One Pi sweep of the blocks fd_jacobian evaluated serves the verdict and the S matrices.
    sweep = identifiability.GridSweep(m, t0, est.blocks)
    verdict = identifiability.upsilon_test(m, t0, w, sweep=sweep, fnrr_seed=args.seed)
    payload: dict = {
        "fd_jacobian": {
            "step": est.step,
            "scheme": est.scheme,
            "step_halving_change": est.step_halving_change,
            "singular_values": est.decision.singular_values.tolist(),
        },
        "local_identifiability": bool(local),
        "verdict": dataclasses.asdict(verdict),
    }
    agreement = None
    if local and verdict.status == identifiability.IDENTIFIABLE:
        mu_hat = oracle.jacobian_sloppiness(est)
        S = sloppiness.s_matrices(m, t0, w, sweep=sweep)
        rep = sloppiness.metrics(S, k=1)
        rel = [
            abs(rep.mu[i] - mu_hat[i]) / abs(rep.mu[i])
            for i in range(min(rep.mu.size, mu_hat.size))
            if rep.mu[i] != 0
        ]
        agreement = {
            "mu_pencil": rep.mu.tolist(),
            "mu_jacobian": mu_hat.tolist(),
            "max_rel_difference": max(rel) if rel else 0.0,
        }
    payload["mu_agreement"] = agreement
    counter = oracle.random_equivalence_probe(m, est, trials=args.trials, seed=args.seed)
    payload["equivalence_probe"] = {
        "trials": args.trials,
        "counterexample": None if counter is None else list(counter),
        "note": "absence of a counterexample proves nothing",
    }
    if counter is not None and verdict.status == identifiability.IDENTIFIABLE:
        raise ConstructionError(
            "probe found a response-equivalent parameter on a certified-identifiable set"
        )
    csv_rows = [["index", "mu_pencil", "mu_jacobian", "rel_difference"]]
    if agreement is not None:
        for i, (a, b) in enumerate(zip(agreement["mu_pencil"], agreement["mu_jacobian"])):
            rel = abs(a - b) / abs(a) if a else ""
            csv_rows.append([i + 1, a, b, rel])
    return payload, csv_rows


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts like a negative number ("-0.1,0", "-1e-3") as a
    value, where argparse's own pattern admits one plain number only.

    It replaces argparse's private ``_negative_number_matcher`` (checked on
    CPython 3.11); if a Python version stops reading it, the leading-minus
    CLI tests fail and ``--theta0=-0.1,0`` is the form that still parses.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lftident",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta0=False, freqs=False, csv_help=None):
        p.add_argument("--model", required=True, help="path to the model JSON file")
        p.add_argument("--seed", type=int, default=20260808, help="seed for all randomized probes")
        p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="embed wall-clock timing in the report (breaks byte-identical reproducibility)")
        if csv_help:
            p.add_argument("--csv", default=None, help=f"write a CSV companion: {csv_help}")
        if theta0:
            p.add_argument("--theta0", required=True, help="comma-separated parameter vector")
        if freqs:
            p.add_argument("--freqs", required=True,
                           help="comma-separated distinct frequencies (rad/s continuous, rad/sample discrete)")

    p = sub.add_parser("validate", help="shape checks plus regularity/well-posedness sampling report")
    common(p, csv_help="columns sample_index, theta_1..theta_q")

    p = sub.add_parser("ident", help="identifiability verdict on a fixed frequency set")
    common(p, theta0=True, freqs=True,
           csv_help="columns step, omega, unresolved_dim (rank trace)")

    p = sub.add_parser("find-freqs", help="search a certifying frequency set on a grid")
    common(p, theta0=True,
           csv_help="columns step, omega, unresolved_dim (selection trace)")
    p.add_argument("--grid-min", type=float, help="continuous time only")
    p.add_argument("--grid-max", type=float, help="continuous time only")
    p.add_argument("--grid-points", type=int, default=freqplan.DEFAULT_GRID_POINTS)
    p.add_argument("--refine", type=int, default=0,
                   help="rounds of x4 grid densification after a stall")

    p = sub.add_parser("sloppiness", help="sloppiness spectrum, metrics and directions")
    common(p, theta0=True, freqs=True,
           csv_help="columns index, mu, sm_rel, direction_1..direction_q")
    p.add_argument("--eps", type=float, required=True, help="deviation budget (energy <= eps^2)")
    p.add_argument("--k", type=int, default=1, help="frequency block carrying the parameter map")

    p = sub.add_parser("oracle", help="finite-difference cross-check bundle")
    common(p, theta0=True, freqs=True,
           csv_help="columns index, mu_pencil, mu_jacobian, rel_difference")
    p.add_argument("--trials", type=int, default=1000, help="random probe draws")
    p.add_argument("--step", type=float, default=None, help="finite-difference step")

    return parser


_RUNNERS = {
    "validate": run_validate,
    "ident": run_ident,
    "find-freqs": run_find_freqs,
    "sloppiness": run_sloppiness,
    "oracle": run_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    started = time.monotonic()
    try:
        if args.seed < 0:
            raise InvalidInput(f"--seed must be a non-negative integer, got {args.seed}")
        result, csv_rows = _RUNNERS[args.command](args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _MODEL_ERRORS as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except _ASSUMPTION_ERRORS as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ConstructionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except LftIdentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    elapsed = time.monotonic() - started

    doc = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "subcommand": args.command,
        "input_digest": _digest(args.model),
        "parameters": {
            "theta0": getattr(args, "theta0", None),
            "freqs": getattr(args, "freqs", None),
            "eps": getattr(args, "eps", None),
            "k": getattr(args, "k", None),
            "seed": args.seed,
            "trials": getattr(args, "trials", None),
            "step": getattr(args, "step", None),
            "grid": (
                [freqplan.DEFAULT_W_MIN if args.grid_min is None else args.grid_min,
                 freqplan.DEFAULT_W_MAX if args.grid_max is None else args.grid_max,
                 args.grid_points, args.refine]
                if args.command == "find-freqs" else None
            ),
            "tolerances": {
                "rank_rtol": numkit.DEFAULT_RANK_RTOL,
                "pole_guard_rtol": response.POLE_GUARD_RTOL,
            },
        },
        "result": result,
        "timing": {"wall_seconds": elapsed if args.timing else None},
    }
    try:
        text = json.dumps(doc, indent=2, allow_nan=False, default=_json_default) + "\n"
    except ValueError:
        print("internal inconsistency: report contains non-finite numbers", file=sys.stderr)
        return EXIT_INCONSISTENT

    try:
        if args.output:
            Path(args.output).write_text(text)
        if getattr(args, "csv", None):
            _write_csv(args.csv, csv_rows)
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    if not args.output:
        sys.stdout.write(text)
    print(f"{args.command}: done in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
