"""Grid search for a small certifying set of frequencies.

Implements the recursive selection: pick an anchor frequency maximizing the
rank of its Xi block, keep a right-null basis Z of everything absorbed so
far, then greedily add the frequency whose U_Pi2 block removes the most of
Z, until Z is empty (certified) or no grid point makes progress.

The search reads one :class:`identifiability.GridSweep` of the grid, which
runs the whole grid's guards when built and factors a point only when the
search first reads it; the grid's pencils are solved the same way
(:func:`response.grid_sweep`).  Each step reads the grid's parts in ascending
order: the smallest point alone, then chunks of the rest (``GridSweep.parts``).  Ties
go to the smallest index, so a running best over the parts is the best over
the whole grid, and a step stops after the first part whose best score
reaches the most any candidate can score:

* S0, the one-frequency shortcut, runs only when m_v <= 2 m_y: Pi_bar_j has
  2 (m_v - rank G_yv) columns and m_v rows, so otherwise no point is one;
* S1, the anchor, stops at (b, b) with b = min(q, 2 m_y m_z): a side-passing
  Xi has at most 2 m_y rows, and robust <= margin <= min(rows, cols);
* each greedy step stops at (c', c') for Z's c columns, with
  c' = min(c, ``GridSweep.row_cap``), the most rows a U_Pi2 row block can
  have, and reuses the U_Pi2 rows of the parts an earlier step built.

One re-verification (``_decide``) turns the picks into the plan's verdict and
status.

A stall is reported as ``no-progress-on-grid``, never as a negative
identifiability certificate: a finite grid cannot prove that no frequency
exists.  The plan carries a densification hint and the search accepts a
number of refinement rounds; neither goes past MAX_GRID_POINTS.
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
# The most points a grid may have, so that its size is refused before
# anything is allocated; a refinement stops short of it.
MAX_GRID_POINTS = 2**18
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
    w_min: float | None = None,
    w_max: float | None = None,
) -> FrequencyGrid:
    """Logarithmic grid over [w_min, w_max] (continuous time, by default
    [DEFAULT_W_MIN, DEFAULT_W_MAX]) or uniform over (0, pi] (discrete time).

    Points failing the pole guard are removed; an empty result raises
    EmptyGrid.  The grid keeps the :func:`response.grid_sweep` of its points.
    Raises InvalidInput unless ``1 <= n_points <= MAX_GRID_POINTS`` and, in continuous time,
    ``0 < w_min <= w_max < inf`` with ``w_min < w_max`` when ``n_points > 1``;
    a discrete-time grid takes no bounds.
    """
    if not 1 <= n_points <= MAX_GRID_POINTS:
        raise InvalidInput(f"the grid needs 1 to {MAX_GRID_POINTS} points, got {n_points}")
    if model.time_domain == "continuous":
        w_min = DEFAULT_W_MIN if w_min is None else w_min
        w_max = DEFAULT_W_MAX if w_max is None else w_max
        if not 0.0 < w_min <= w_max < np.inf:
            raise InvalidInput(
                f"grid bounds must satisfy 0 < w_min <= w_max < inf, got {w_min}, {w_max}")
        if n_points > 1 and w_min == w_max:
            raise InvalidInput(
                f"a grid of {n_points} points needs w_min < w_max, got {w_min}, {w_max}")
        with np.errstate(over="ignore"):  # 10**log10(w_max) may overflow; the end points are exact
            raw = np.geomspace(w_min, w_max, n_points)
    elif (w_min, w_max) != (None, None):
        raise InvalidInput(f"a discrete-time grid spans (0, pi] and takes no bounds, "
                           f"got {w_min}, {w_max}")
    else:
        raw = np.linspace(np.pi / n_points, np.pi, n_points)
    return FrequencyGrid(sweep=response.grid_sweep(model, raw.tolist()),
                         time_domain=model.time_domain)


def _search_once(model: DescriptorModel, theta0, grid: FrequencyGrid,
                 psi_dec) -> FrequencyPlan:
    """One S0-S5 pass over ``grid``; the caller has verified Psi and FNRR.

    A chain that reaches Z = 0 ends in the one re-verification below."""
    sweep = ident.GridSweep(model, theta0, grid.sweep)
    picks, trace, status, verdict = _select(model, sweep, psi_dec)
    if status is None:
        verdict = ident._decide(model, sweep, picks, psi_dec)
        if verdict.status == ident.NOT_IDENTIFIABLE:
            raise ConstructionError(
                f"certified selection {list(verdict.frequencies)} failed re-verification: "
                f"{verdict.reason}"
            )
        # Margins too thin to certify (INCONCLUSIVE) are treated like a stall, so
        # that refinement can try better-conditioned frequencies.
        status = CERTIFIED if verdict.status == ident.IDENTIFIABLE else NO_PROGRESS_ON_GRID
    return FrequencyPlan(status=status, selected=tuple(sweep.g.omegas[i] for i in picks),
                         rank_trace=tuple(trace), verdict=verdict,
                         refine_hint=_hint(grid) if status == NO_PROGRESS_ON_GRID else None)


def _select(model: DescriptorModel, sweep: ident.GridSweep, psi_dec):
    """S0-S5 over the points of ``sweep``, read part by part in grid order:
    ``(picks, rank trace, status, verdict)``, where the status is None when
    the chain reached Z = 0 and the picks still need their re-verification."""
    d = model.dims
    parts = sweep.parts()
    picks: list[int] = []  # grid indices
    trace: list[int] = []

    # S0: a frequency whose Pi_bar_j is FCR certifies on its own.  Candidates
    # vetoed by the sensitivity gate are skipped, not fatal: another grid
    # point may carry a healthier margin.
    for part in (parts if d.m_v <= 2 * d.m_y else []):
        for i in part[sweep.flags(part)[0]].tolist():
            verdict = ident._decide(model, sweep, [i], psi_dec)
            if verdict.status == ident.IDENTIFIABLE:
                return [i], [0], CERTIFIED, verdict
            if verdict.status == ident.NOT_IDENTIFIABLE:
                raise ConstructionError(
                    f"shortcut frequency omega={sweep.g.omegas[i]} certified the opposite verdict"
                )

    # S1: anchor frequency maximizing the (robust, margin) rank of its Xi
    # block, among those passing the side condition.
    top = min(d.q, 2 * d.m_y * d.m_z)
    found = _best(([(idx, ident.upsilon_rows(xi, psi_dec, d.m_z)) for idx, xi in sweep.xis(part)]
                   for part in parts), (top, top))
    if found is None:
        return picks, trace, NO_PROGRESS_ON_GRID, None
    _, best, block = found
    picks.append(best)
    rest = np.ones(len(sweep.g), dtype=bool)
    rest[best] = False
    Z = ident.chain_null_basis(block)
    trace.append(Z.shape[1])

    # S3-S5: greedy absorption with strictly shrinking Z.  Each part's rows
    # are built once, as stacks, when a step first reads the part; a step
    # only multiplies each stack by the current Z.
    rows: list[list[tuple[np.ndarray, np.ndarray]]] = []

    def step(part: int):
        if part == len(rows):
            rows.append(sweep.greedy_rows(parts[part], psi_dec, d.m_z))
        return [(idx[rest[idx]], (R @ Z)[rest[idx]]) for idx, R in rows[part]]

    while Z.shape[1] > 0:
        c = min(Z.shape[1], sweep.row_cap)
        found = _best(map(step, range(len(parts))), (c, c))
        if found is None or found[0] == (0, 0):
            return picks, trace, NO_PROGRESS_ON_GRID, None
        _, best, block = found
        picks.append(best)
        rest[best] = False
        Z = Z @ ident.chain_null_basis(block)
        trace.append(Z.shape[1])
        if len(picks) > d.q + 1:
            raise ConstructionError("selection exceeded the parameter dimension bound")
    return picks, trace, None, None


def _best(parts, bound: tuple[int, int]):
    """``((robust, margin) score, grid index, block)`` of the candidate with the
    largest score, the smallest grid index among ties, from the ``(grid
    indices, block stack)`` pairs of each part of ``parts``; None when there is
    no candidate.  The parts come in ascending grid order, so the reading
    stops after the first part whose best score reaches ``bound``, which no
    candidate exceeds: a later part can only lose the tie."""
    top = best = None
    for stacks in parts:
        for idx, B in stacks:
            if len(idx):
                s = ident.candidate_scores(B)
                j = np.lexsort((-idx, s[1], s[0]))[-1]
                key = (*s[:, j].tolist(), -int(idx[j]))
                if top is None or key > top:
                    top, best = key, (key[:2], int(idx[j]), B[j])
        if best is not None and best[0] == bound:
            break
    return best


def _hint(grid: FrequencyGrid) -> tuple[float, float, int] | None:
    """Bounds and size of a x4 denser grid, or None when that size exceeds
    MAX_GRID_POINTS or for a continuous-time grid of one frequency, which no
    denser grid over its bounds extends."""
    pts = grid.points
    if 4 * pts.size > MAX_GRID_POINTS or (grid.time_domain == "continuous" and pts[0] == pts[-1]):
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
    if psi_dec.V2.shape[1]:
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
