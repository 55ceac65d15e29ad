"""Grid search for a small certifying set of frequencies.

Implements the recursive selection: pick an anchor frequency maximizing the
rank of its Xi block, keep a right-null basis Z of everything absorbed so
far, then greedily add the frequency whose U_Pi2 block removes the most of
Z, until Z is empty (certified) or no grid point makes progress.

The grid is scored from one :class:`identifiability.GridSweep`: its shortcut
flags, side array and Xi stacks cover every grid point.  Only the flagged
shortcut candidates, the anchor and the greedy winners are materialized as
Pi decompositions; the U_Pi2 of every point is formed only when the anchor
leaves Z non-empty and the greedy rows are built.

A stall is reported as ``no-progress-on-grid``, never as a negative
identifiability certificate: a finite grid cannot prove that no frequency
exists.  The plan carries a densification hint and the search accepts a
number of refinement rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import identifiability as ident
from . import response
from .errors import ConstructionError, EmptyGrid, InvalidInput
from .model import DescriptorModel

__all__ = [
    "CERTIFIED",
    "NO_PROGRESS_ON_GRID",
    "NOT_IDENTIFIABLE",
    "FrequencyGrid",
    "FrequencyPlan",
    "default_grid",
    "search_frequencies",
]

CERTIFIED = "certified"
NO_PROGRESS_ON_GRID = "no-progress-on-grid"
NOT_IDENTIFIABLE = ident.NOT_IDENTIFIABLE

DEFAULT_GRID_POINTS = 200
DEFAULT_W_MIN = 1e-2
DEFAULT_W_MAX = 1e2


@dataclass(frozen=True)
class FrequencyGrid:
    """Ascending pole-guarded candidate frequencies and the sweep of their transfer blocks."""

    sweep: response.GSweep
    time_domain: str

    def __post_init__(self):
        if not len(self.sweep):
            raise EmptyGrid("every candidate frequency was removed by the pole guard")

    @property
    def points(self) -> np.ndarray:
        return np.array(self.sweep.omegas)

    @property
    def n_guarded(self) -> int:
        return len(self.sweep.guarded)


@dataclass(frozen=True)
class FrequencyPlan:
    """Outcome of the search: selected frequencies and the shrinking trace.

    ``rank_trace`` holds the unresolved dimension after each selection and is
    strictly decreasing; ``certified`` plans end at zero and carry the
    re-verification verdict.  ``refine_hint`` suggests (w_min, w_max,
    n_points) for a denser grid after a stall, or is None when no denser
    grid exists.
    """

    status: str
    selected: tuple[float, ...]
    rank_trace: tuple[int, ...]
    verdict: ident.IdentifiabilityVerdict | None
    refine_hint: tuple[float, float, int] | None = None


def default_grid(
    model: DescriptorModel,
    n_points: int = DEFAULT_GRID_POINTS,
    w_min: float = DEFAULT_W_MIN,
    w_max: float = DEFAULT_W_MAX,
) -> FrequencyGrid:
    """Logarithmic grid over [w_min, w_max] (continuous) or uniform over (0, pi].

    Points failing the pole guard are removed; an empty result raises
    EmptyGrid.  The grid keeps the sweep of transfer blocks the guard evaluated.
    Raises InvalidInput unless ``n_points >= 1`` and, in continuous time,
    ``0 < w_min <= w_max < inf`` with ``w_min < w_max`` when ``n_points > 1``.
    """
    if n_points < 1:
        raise InvalidInput(f"the grid needs at least one point, got {n_points}")
    if model.time_domain == "continuous":
        if not 0.0 < w_min <= w_max < np.inf:
            raise InvalidInput(
                f"grid bounds must satisfy 0 < w_min <= w_max < inf, got {w_min}, {w_max}")
        if n_points > 1 and w_min == w_max:
            raise InvalidInput(
                f"a grid of {n_points} points needs w_min < w_max, got {w_min}, {w_max}")
        raw = np.geomspace(w_min, w_max, n_points)
    else:
        raw = np.linspace(np.pi / n_points, np.pi, n_points)
    return FrequencyGrid(sweep=response.g_sweep(model, raw.tolist()),
                         time_domain=model.time_domain)


def _search_once(model: DescriptorModel, theta0, grid: FrequencyGrid,
                 psi_dec) -> FrequencyPlan:
    """One S0-S5 pass over ``grid``; the caller has verified Psi and FNRR."""
    m_z = model.dims.m_z
    q = model.dims.q
    sweep = ident.GridSweep(model, theta0, grid.sweep)
    pis: list[ident.PiDecomposition] = []
    trace: list[int] = []

    def plan(status: str, verdict=None) -> FrequencyPlan:
        return FrequencyPlan(status=status, selected=tuple(p.omega for p in pis),
                             rank_trace=tuple(trace), verdict=verdict,
                             refine_hint=_hint(grid) if status == NO_PROGRESS_ON_GRID else None)

    # S0: a frequency whose Pi_bar_j is FCR certifies on its own.  Candidates
    # vetoed by the sensitivity gate are skipped, not fatal: another grid
    # point may carry a healthier margin.
    for i in np.flatnonzero(sweep.shortcut):
        p = sweep.at(i)
        verdict = ident._decide(model, theta0, [p], psi_dec)
        if verdict.status == ident.IDENTIFIABLE:
            return FrequencyPlan(status=CERTIFIED, selected=(p.omega,), rank_trace=(0,),
                                 verdict=verdict)
        if verdict.status == ident.NOT_IDENTIFIABLE:
            raise ConstructionError(
                f"shortcut frequency omega={p.omega} certified the opposite verdict"
            )

    # S1: anchor frequency maximizing the (robust, margin) rank of its Xi
    # block, among those passing the side condition; the first maximum is
    # the smallest omega among ties.
    side = sweep.side
    found = _best((idx[side[idx]], ident.upsilon_rows(xi[side[idx]], psi_dec, m_z))
                  for idx, xi in sweep.xis)
    if found is None:
        return plan(NO_PROGRESS_ON_GRID)
    _, best, block = found
    pis.append(sweep.at(best))
    rest = np.ones(len(sweep.g), dtype=bool)
    rest[best] = False
    Z = ident.chain_null_basis(block)
    trace.append(Z.shape[1])

    # S3-S5: greedy absorption with strictly shrinking Z.  Each candidate's
    # rows are built once, as stacks, if the anchor leaves Z non-empty; a
    # step only multiplies each stack by the current Z.
    rows = sweep.greedy_rows(psi_dec, m_z) if Z.shape[1] else []
    while Z.shape[1] > 0:
        found = _best((idx[rest[idx]], (R @ Z)[rest[idx]]) for idx, R in rows)
        if found is None or found[0] == (0, 0):
            return plan(NO_PROGRESS_ON_GRID)
        _, best, block = found
        pis.append(sweep.at(best))
        rest[best] = False
        Z = Z @ ident.chain_null_basis(block)
        trace.append(Z.shape[1])
        if len(pis) > q + 1:
            raise ConstructionError("selection exceeded the parameter dimension bound")

    verdict = ident._decide(model, theta0, pis, psi_dec)
    if verdict.status == ident.NOT_IDENTIFIABLE:
        raise ConstructionError(
            f"certified selection {[p.omega for p in pis]} failed re-verification: "
            f"{verdict.reason}"
        )
    # Margins too thin to certify (INCONCLUSIVE) are treated like a stall, so
    # that refinement can try better-conditioned frequencies.
    return plan(CERTIFIED if verdict.status == ident.IDENTIFIABLE else NO_PROGRESS_ON_GRID,
                verdict)


def _best(stacks):
    """``((robust, margin) score, grid index, block)`` of the candidate with the
    largest score, the smallest grid index among ties, from ``(grid indices,
    block stack)`` pairs; None when there is no candidate."""
    top = best = None
    for idx, B in stacks:
        if len(idx):
            s = ident.candidate_scores(B)
            j = np.lexsort((-idx, s[1], s[0]))[-1]
            key = (*s[:, j].tolist(), -int(idx[j]))
            if top is None or key > top:
                top, best = key, (key[:2], int(idx[j]), B[j])
    return best


def _hint(grid: FrequencyGrid) -> tuple[float, float, int] | None:
    """Bounds and size of a x4 denser grid, or None for a continuous-time
    grid of one frequency, which no denser grid over its bounds extends."""
    pts = grid.points
    if grid.time_domain == "continuous" and pts[0] == pts[-1]:
        return None
    return (float(pts[0]), float(pts[-1]), 4 * pts.size)


def search_frequencies(
    model: DescriptorModel,
    theta0,
    grid: FrequencyGrid | None = None,
    refine: int = 0,
    fnrr_seed: int = 20260808,
) -> FrequencyPlan:
    """Run the S0-S5 search; optionally retry on x4 denser grids after stalls.

    A rank-deficient Psi short-circuits to ``not-identifiable`` (no frequency
    set can help).  A stalled grid search is *not* a negative certificate and
    is reported as ``no-progress-on-grid`` with a refinement hint.  Raises
    InvalidInput when ``refine`` is negative.
    """
    if refine < 0:
        raise InvalidInput(f"refine must be a non-negative integer, got {refine}")
    theta0 = model.check_theta(theta0)
    psi_dec = ident.psi(model)
    if not psi_dec.is_fcr:
        return FrequencyPlan(
            status=NOT_IDENTIFIABLE,
            selected=(),
            rank_trace=(),
            verdict=ident._psi_deficient_verdict(psi_dec, ()),
        )
    ident.check_fnrr(model, seed=fnrr_seed)
    if grid is None:
        grid = default_grid(model)

    plan = _search_once(model, theta0, grid, psi_dec)
    for _ in range(refine):
        if plan.status != NO_PROGRESS_ON_GRID or plan.refine_hint is None:
            break
        w_min, w_max, n = plan.refine_hint
        if model.time_domain == "continuous":
            grid = default_grid(model, n_points=n, w_min=w_min, w_max=w_max)
        else:
            grid = default_grid(model, n_points=n)
        plan = _search_once(model, theta0, grid, psi_dec)
    return plan
