
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lftident import freqplan, identifiability as ident, numkit, response, testing
from lftident.errors import (EmptyGrid, InvalidInput, LftIdentError, PoleProximity,
                             WellPosednessViolation)
from lftident.model import DescriptorModel, Dims, ParameterDomain

from conftest import (interior_theta, point_views, row_block, stacks_of, with_blocks,
                      with_pole)

D12, D40, D60 = Dims(12, 2, 1, 2, 5, 10), Dims(40, 3, 1, 2, 6, 12), Dims(60, 4, 2, 4, 8, 16)
# The 54 fixtures of the benchmark's search-pool and search-wide workloads.
SEARCH_FIXTURES = {
    **{f"kr-{s:02d}": (lambda s=s: testing.random_regular_model(s, kernel_rich=True))
       for s in range(40)},
    **{f"{label}-{seed:02d}": (lambda seed=seed, kw=kw: testing.random_regular_model(seed, **kw))
       for seed in (1, 2)
       for label, kw in (("d60", dict(dims=D60)), ("d40", dict(dims=D40)), ("d12", dict(dims=D12)),
                         ("d40-dt", dict(dims=D40, time_domain="discrete")),
                         ("d12-dt", dict(dims=D12, time_domain="discrete")),
                         ("d40-se", dict(dims=D40, singular_E=True)),
                         ("d12-se", dict(dims=D12, singular_E=True)))},
}


class TestDefaultGrid:
    def test_siso1_full_grid(self, siso1):
        g = freqplan.default_grid(siso1)
        assert g.points.size == 200
        assert g.n_guarded == 0
        assert g.points[0] == pytest.approx(1e-2)
        assert g.points[-1] == pytest.approx(1e2)

    def test_discrete_max_pi(self):
        m = testing.random_regular_model(6, time_domain="discrete")
        g = freqplan.default_grid(m)
        assert g.points[-1] == pytest.approx(np.pi)
        assert np.all(g.points > 0)

    @pytest.mark.parametrize("bounds", [dict(w_min=0.5), dict(w_max=3.0), dict(w_min=np.nan)])
    def test_discrete_takes_no_bounds(self, bounds):
        m = testing.random_regular_model(6, time_domain="discrete")
        with pytest.raises(InvalidInput, match=r"discrete-time grid spans \(0, pi\]"):
            freqplan.default_grid(m, **bounds)

    @pytest.mark.parametrize("kind", [dict(), dict(time_domain="discrete")])
    def test_oversized_grid_refused_before_allocating(self, kind, monkeypatch):
        m = testing.random_regular_model(6, **kind)

        def spy(*args, **kwargs):
            raise AssertionError("an oversized grid reached its allocation")

        monkeypatch.setattr(np, "geomspace", spy)
        monkeypatch.setattr(np, "linspace", spy)
        for n in (freqplan.MAX_GRID_POINTS + 1, 10**11):
            with pytest.raises(InvalidInput, match=rf"1 to {freqplan.MAX_GRID_POINTS} points"):
                freqplan.default_grid(m, n_points=n)

    def test_grid_up_to_the_float_maximum_warns_nothing(self):
        # geomspace's 10**log10(w_max) overflows at the float maximum; numpy
        # sets the end points exactly, so no grid point is inf.
        m = testing.random_regular_model(0, kernel_rich=True)
        top = float(np.finfo(float).max)
        g = freqplan.default_grid(m, n_points=5, w_min=1e300, w_max=top)
        assert g.points[0] == 1e300 and g.points[-1] == top
        assert np.all(np.isfinite(g.points)) and g.n_guarded == 0

    def test_imaginary_axis_pole_excluded(self):
        # Oscillator with poles at +- j w*: the grid must drop the hit point.
        w_star = float(np.geomspace(1e-2, 1e2, 200)[120])
        E = np.eye(2)
        A = np.array([[0.0, w_star], [-w_star, 0.0]])
        one = np.ones((2, 1))
        m = DescriptorModel(
            time_domain="continuous",
            dims=Dims(2, 1, 1, 1, 1, 1),
            E=E, A_xx=A, B_xu=one, B_xv=one, C_yx=one.T, C_zx=one.T,
            D_yu=np.zeros((1, 1)), D_yv=np.zeros((1, 1)),
            D_zu=np.zeros((1, 1)), D_zv=np.zeros((1, 1)),
            P=(np.array([[0.1]]),),
            theta_domain=ParameterDomain(radius=0.5),
        )
        g = freqplan.default_grid(m)
        assert g.n_guarded >= 1
        assert not np.any(np.isclose(g.points, w_star))

    def test_empty_grid_raises(self):
        guarded = tuple(PoleProximity(f"omega={w}: near a pole") for w in range(5))
        sweep = response.GSweep(omegas=(), G=np.zeros((0, 2, 2), complex),
                                m_y=1, m_u=1, guarded=guarded)
        with pytest.raises(EmptyGrid):
            freqplan.FrequencyGrid(sweep=sweep, time_domain="continuous")


class TestSearch:
    def test_siso1_shortcut(self, siso1):
        plan = freqplan.search_frequencies(siso1, [0.0])
        assert plan.status == freqplan.CERTIFIED
        assert plan.selected == (pytest.approx(1e-2),)
        assert plan.rank_trace == (0,)
        assert plan.verdict.status == ident.IDENTIFIABLE

    def test_dup2_immediate_negative(self, dup2):
        plan = freqplan.search_frequencies(dup2, [0.0, 0.0])
        assert plan.status == freqplan.NOT_IDENTIFIABLE
        assert plan.selected == ()
        assert plan.verdict is not None
        assert not plan.verdict.psi_fcr
        assert plan.verdict.frequencies == ()

    def test_theta_free_stalls(self, theta_free):
        plan = freqplan.search_frequencies(theta_free, [0.0])
        assert plan.status == freqplan.NO_PROGRESS_ON_GRID
        assert plan.refine_hint is not None
        # Refinement cannot help a structurally dead parameter channel.
        plan2 = freqplan.search_frequencies(theta_free, [0.0], refine=1)
        assert plan2.status == freqplan.NO_PROGRESS_ON_GRID

    @pytest.mark.parametrize("seed", [0, 3, 22, 24, 31, 53])
    def test_certified_plans_sound(self, seed):
        m = testing.random_regular_model(seed, kernel_rich=True)
        t0 = np.zeros(m.dims.q)
        plan = freqplan.search_frequencies(m, t0)
        if plan.status != freqplan.CERTIFIED:
            pytest.skip("fixture not certifiable on the default grid")
        assert plan.verdict.status == ident.IDENTIFIABLE
        assert plan.verdict.residual_nullspace_dim == 0
        assert len(plan.selected) <= ident.sufficient_count(m)
        trace = plan.rank_trace
        assert all(trace[i] > trace[i + 1] for i in range(len(trace) - 1))
        assert trace[-1] == 0

    def test_multi_frequency_progression(self):
        m = testing.random_regular_model(22, kernel_rich=True)
        plan = freqplan.search_frequencies(m, np.zeros(m.dims.q))
        assert plan.status == freqplan.CERTIFIED
        assert len(plan.selected) == 2
        assert plan.rank_trace == (1, 0)

    def test_determinism(self, siso1):
        m = testing.random_regular_model(24, kernel_rich=True)
        a = freqplan.search_frequencies(m, np.zeros(m.dims.q))
        b = freqplan.search_frequencies(m, np.zeros(m.dims.q))
        assert a.selected == b.selected
        assert a.rank_trace == b.rank_trace
        assert a.status == b.status

    def test_custom_grid(self, siso1):
        g = freqplan.default_grid(siso1, n_points=50, w_min=0.1, w_max=10.0)
        plan = freqplan.search_frequencies(siso1, [0.0], grid=g)
        assert plan.status == freqplan.CERTIFIED
        assert plan.selected[0] == pytest.approx(0.1)

    def test_one_point_grid_has_no_refine_hint(self, theta_free):
        # No denser grid spans [1, 1]; refining must not ask for one.
        g = freqplan.default_grid(theta_free, n_points=1, w_min=1.0, w_max=1.0)
        plan = freqplan.search_frequencies(theta_free, [0.0], grid=g, refine=1)
        assert plan.status == freqplan.NO_PROGRESS_ON_GRID
        assert plan.refine_hint is None


def test_hint_stops_at_the_grid_size_bound():
    # A x4 denser grid past MAX_GRID_POINTS is not hinted; one that reaches
    # it exactly is.
    for n, hinted in ((freqplan.MAX_GRID_POINTS // 4, True),
                      (freqplan.MAX_GRID_POINTS // 4 + 1, False)):
        sweep = response.GSweep(tuple(np.linspace(1.0, 2.0, n).tolist()),
                                np.zeros((n, 2, 2), complex), 1, 1)
        hint = freqplan._hint(freqplan.FrequencyGrid(sweep=sweep, time_domain="continuous"))
        assert hint == ((1.0, 2.0, 4 * n) if hinted else None)


def test_refine_stops_at_the_grid_size_bound(theta_free, monkeypatch):
    # With the bound at 800 points, the stalling search refines 200 -> 800
    # once and then stops, hintless, however many rounds it may take.
    monkeypatch.setattr(freqplan, "MAX_GRID_POINTS", 800)
    sizes = []
    default_grid = freqplan.default_grid

    def spy(model, n_points=freqplan.DEFAULT_GRID_POINTS, **bounds):
        sizes.append(n_points)
        return default_grid(model, n_points, **bounds)

    monkeypatch.setattr(freqplan, "default_grid", spy)
    plan = freqplan.search_frequencies(theta_free, [0.0], refine=3)
    assert plan.status == freqplan.NO_PROGRESS_ON_GRID and plan.refine_hint is None
    assert sizes == [200, 800]


def scores_of(blocks):
    """candidate_scores of each block on its own, as (robust, margin) tuples."""
    return [tuple(ident.candidate_scores(B[None])[:, 0].tolist()) for B in blocks]


def per_step_rebuild(model, theta0, grid):
    """The S1-S5 selection with every candidate's rows rebuilt at every greedy
    step: (status, selected, rank_trace, verdict reason or None)."""
    psi_dec = ident.psi(model)
    m_z = model.dims.m_z
    sweep = ident.GridSweep(model, theta0, grid.sweep)
    cand = point_views(sweep)
    anchors = [p for p in cand if p.side_fcr]
    if not anchors:
        return freqplan.NO_PROGRESS_ON_GRID, (), (), None
    blocks = [row_block(p.Xi, psi_dec, m_z) for p in anchors]
    scores = scores_of(blocks)
    best = max(range(len(scores)), key=scores.__getitem__)
    pis = [anchors[best]]
    Z = ident.chain_null_basis(blocks[best])
    trace = [Z.shape[1]]
    while Z.shape[1] > 0:
        rest = [p for p in cand if p.omega not in [s.omega for s in pis]]
        blocks = [row_block(p.u2_stack, psi_dec, m_z) @ Z for p in rest]
        scores = scores_of(blocks)
        best = max(range(len(scores)), key=scores.__getitem__)
        if scores[best] == (0, 0):
            return freqplan.NO_PROGRESS_ON_GRID, tuple(p.omega for p in pis), tuple(trace), None
        pis.append(rest[best])
        Z = Z @ ident.chain_null_basis(blocks[best])
        trace.append(Z.shape[1])
    verdict = ident._decide(model, sweep, [p.index for p in pis], psi_dec)
    status = (freqplan.CERTIFIED if verdict.status == ident.IDENTIFIABLE
              else freqplan.NO_PROGRESS_ON_GRID)
    return status, tuple(p.omega for p in pis), tuple(trace), verdict.reason


@pytest.mark.parametrize("kind", [dict(), dict(time_domain="discrete")])
def test_greedy_rows_built_once_match_per_step_rebuild(kind):
    # d12-01 certifies after three steps; its discrete twin ends at rank 0
    # but fails the re-verification margin.
    m = testing.random_regular_model(1, dims=Dims(12, 2, 1, 2, 5, 10), **kind)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    plan = freqplan.search_frequencies(m, t0, grid=grid)
    assert len(plan.rank_trace) == 3
    reason = None if plan.verdict is None else plan.verdict.reason
    assert (plan.status, plan.selected, plan.rank_trace, reason) == \
        per_step_rebuild(m, t0, grid)


def test_greedy_stall_matches_per_step_rebuild(theta_free):
    grid = freqplan.default_grid(theta_free)
    plan = freqplan.search_frequencies(theta_free, [0.0], grid=grid)
    assert plan.status == freqplan.NO_PROGRESS_ON_GRID and plan.verdict is None
    assert (plan.status, plan.selected, plan.rank_trace, None) == \
        per_step_rebuild(theta_free, [0.0], grid)


def force_side(monkeypatch, failing):
    """Make the side condition of every GridSweep fail at the frequencies of
    the set ``failing``, whenever the sweep builds anchor factors."""
    anchor = ident.GridSweep._anchor

    def forced(self, points):
        anchor(self, points)
        self._side[[w in failing for w in self.g.omegas]] = False

    monkeypatch.setattr(ident.GridSweep, "_anchor", forced)


@pytest.mark.parametrize("failing", ["anchor-group", "whole-grid"])
def test_side_condition_failing_groups_are_skipped(monkeypatch, failing):
    # Forced failures of the side condition: of every point in the Xi group
    # of the unforced anchor, or of every grid point.  Such candidates are
    # skipped as anchors; with none left the grid stalls with a refine hint.
    # Chunks of CHUNK points split the grid into several Xi groups.
    stacks_of(monkeypatch)
    m = testing.random_regular_model(1, dims=Dims(12, 2, 1, 2, 5, 10))
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    anchor = grid.points.tolist().index(
        freqplan.search_frequencies(m, t0, grid=grid).selected[0])
    sweep = ident.GridSweep(m, t0, grid.sweep)
    sweep.flags(range(len(grid.sweep)))
    groups = [idx.tolist() for idx, _ in sweep._xis]
    assert len(groups) > 1
    fail = {grid.sweep.omegas[i] for g in groups if failing == "whole-grid" or anchor in g
            for i in g}
    # Every GridSweep sees the forced failures at the same frequencies, in
    # whatever parts it builds its anchor factors: the search's sweep, which
    # reads the grid part by part, and the reference's, which reads it whole.
    force_side(monkeypatch, fail)
    plan = freqplan.search_frequencies(m, t0, grid=grid)
    reason = None if plan.verdict is None else plan.verdict.reason
    assert (plan.status, plan.selected, plan.rank_trace, reason) == \
        per_step_rebuild(m, t0, grid)
    if failing == "whole-grid":
        assert plan.status == freqplan.NO_PROGRESS_ON_GRID and plan.selected == ()
        assert plan.refine_hint == (grid.points[0], grid.points[-1], 4 * grid.points.size)
    else:
        assert plan.selected[0] != grid.points[anchor]


def sweeps_of(monkeypatch, search, sweeps=None):
    """The result of ``search()`` and the list ``sweeps`` (by default a new
    one) of every GridSweep it built, in order."""
    sweeps = [] if sweeps is None else sweeps
    init = ident.GridSweep.__init__

    def built(self, *args):
        init(self, *args)
        sweeps.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(ident.GridSweep, "__init__", built)
        return search(), sweeps


def pi_svd_points(monkeypatch, model, theta0, grid, search=None):
    """The result of ``search()`` (by default the search over ``grid``), per
    numkit.svd_stack call it made on a stack of Pi of a GridSweep, the
    indices in that sweep of the stack's members, in call order, and the
    GridSweeps it built."""
    sweeps, calls = [], []
    svd_stack = numkit.svd_stack

    def spy(S, *args):
        # A stack of Pi matrices of one kernel group (of siso1's empty Pi, any
        # stack of as many of that shape), by the group's index of each.
        for sweep in sweeps:
            for idx, _, Pi in sweep._groups:
                if len(S) and S.dtype == Pi.dtype and S.shape[1:] == Pi.shape[1:]:
                    members = [M.tobytes() for M in Pi]
                    if all(M.tobytes() in members for M in S):
                        calls.append([int(idx[members.index(M.tobytes())]) for M in S])
        return svd_stack(S, *args)

    if search is None:
        search = lambda: freqplan.search_frequencies(model, theta0, grid=grid)  # noqa: E731
    with monkeypatch.context() as mp:
        mp.setattr(numkit, "svd_stack", spy)
        plan, _ = sweeps_of(mp, search, sweeps)
    return plan, calls, sweeps


def scored_sizes(monkeypatch, model, theta0, grid):
    """The search's plan and the number of blocks of each candidate_scores call."""
    sizes = []
    scores = ident.candidate_scores
    with monkeypatch.context() as mp:
        mp.setattr(ident, "candidate_scores", lambda B: sizes.append(len(B)) or scores(B))
        plan = freqplan.search_frequencies(model, theta0, grid=grid)
    return plan, sizes


def test_anchor_certified_search_factors_only_the_anchor_group(monkeypatch):
    # kr-00 of the search-pool workload: no shortcut flag (its Pi_bar_j are
    # 3 x 4), and the anchor certifies alone, so no greedy rows are built.
    # Its first side-passing point reaches (q, q): the anchor step scores that
    # one block, and only the re-verification reads U_Pi2, of that point alone.
    m = testing.random_regular_model(0, kernel_rich=True)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    plan, calls, _ = pi_svd_points(monkeypatch, m, t0, grid)
    assert plan.status == freqplan.CERTIFIED and plan.rank_trace == (0,)
    anchor = grid.points.tolist().index(plan.selected[0])
    assert calls == [[anchor]]
    assert scored_sizes(monkeypatch, m, t0, grid)[1] == [1]


@pytest.mark.parametrize("model", [
    testing.siso1,                                                      # empty Pi, 1 x 0
    lambda: testing.random_regular_model(0, dims=Dims(3, 2, 2, 2, 4, 3)),  # Pi 4 x 2
], ids=["siso1", "d4-00"])
def test_shortcut_verdicts_factor_no_pi(monkeypatch, model):
    # The first flagged point certifies by the shortcut, in upsilon_test and
    # in the search: no verdict reads U_Pi2, so no Pi is factored.
    m = model()
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    shortcut, _ = ident.GridSweep(m, t0, grid.sweep).flags(range(grid.points.size))
    first = grid.points[np.flatnonzero(shortcut)[0]]
    verdict, calls, _ = pi_svd_points(monkeypatch, m, t0, grid,
                                      lambda: ident.upsilon_test(m, t0, [first]))
    assert verdict.shortcut_omega == first and calls == []
    plan, calls, _ = pi_svd_points(monkeypatch, m, t0, grid)
    assert plan.selected == (first,) and plan.verdict.shortcut_omega == first
    assert calls == []


def test_listed_verdict_factors_its_points_in_one_stack(monkeypatch):
    # d12-01 of the reports workload at its three certified frequencies: the
    # verdict reads every point's U_Pi2 in one read, which factors the three
    # points in one stack.
    m = testing.random_regular_model(1, dims=Dims(12, 2, 1, 2, 5, 10))
    t0 = np.zeros(m.dims.q)
    w = [0.01, 1.1226677735108135, 2.354286414322418]
    verdict, calls, _ = pi_svd_points(monkeypatch, m, t0, None,
                                      lambda: ident.upsilon_test(m, t0, w))
    assert verdict.status == ident.IDENTIFIABLE and verdict.shortcut_omega is None
    assert calls == [[0, 1, 2]]


@pytest.mark.parametrize("seed,kind", [
    (22, dict(kernel_rich=True)),
    (1, dict(dims=Dims(12, 2, 1, 2, 5, 10))),
])
def test_greedy_search_factors_each_group_once(monkeypatch, seed, kind):
    # The greedy rows factor each kernel group of the points read once, in
    # one stack, part by part from the smallest point: kr-22 reads every
    # part, and d12-01 the first 164 points, where its last greedy step
    # reaches the cap.  Then the final verdict factors exactly its picks, once
    # per group, in one stack each; nothing else factors a Pi.
    read = {22: 200, 1: 164}[seed]
    m = testing.random_regular_model(seed, **kind)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    plan, calls, [sweep] = pi_svd_points(monkeypatch, m, t0, grid)
    assert len(plan.rank_trace) > 1
    groups = [idx.tolist() for idx, *_ in sweep._groups]
    assert calls[:len(groups)] == groups
    assert sorted(i for c in groups for i in c) == list(range(read))
    picks = [grid.points.tolist().index(w) for w in plan.selected]
    of = sweep._slots[0]
    assert calls[len(groups):] == [[i for i in picks if of[i] == grp]
                                   for grp in dict.fromkeys(of[picks].tolist())]


@pytest.mark.parametrize("seed,kind,forced", [
    (0, dict(kernel_rich=True), 0),                  # the first point reaches (q, q)
    (0, dict(kernel_rich=True), 5),                  # so does the first unforced one
    (22, dict(kernel_rich=True), 0),                 # it reaches (2, 2) < (q, q)
    (1, dict(dims=Dims(12, 2, 1, 2, 5, 10)), 0),     # it reaches (4, 4) < (q, q)
    (1, dict(dims=Dims(12, 2, 1, 2, 5, 10)), 7),
    (1, dict(dims=D60), 0),                          # d60-01: it scores (15, 16)
])
def test_anchor_probe_equals_full_scoring(monkeypatch, seed, kind, forced):
    # The anchor step scores the grid's parts in order, the smallest point
    # alone first, one stack per Xi group of each part's side-passing points.
    # It stops after the first part whose best block reaches (b, b), with
    # b = min(q, 2 m_y m_z): a side-passing Xi has at most 2 m_y rows, so no
    # block scores more.  Either way the plan is the one-candidate-at-a-time
    # reference's.  ``forced`` points at the start of the grid fail the side
    # condition, for the search and the reference alike.
    m = testing.random_regular_model(seed, **kind)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    force_side(monkeypatch, set(grid.sweep.omegas[:forced]))
    sweep = ident.GridSweep(m, t0, grid.sweep)
    psi_dec, m_z, b = ident.psi(m), m.dims.m_z, min(m.dims.q, 2 * m.dims.m_y * m.dims.m_z)
    first = int(np.flatnonzero(sweep.flags(range(grid.points.size))[1])[0])
    [(_, xi)] = sweep.xis([first])
    reaches = scores_of([row_block(xi[0], psi_dec, m_z)])[0] == (b, b)
    assert first >= forced and reaches == (m.dims.m_x < 60)
    # The Xi group sizes of each part up to the first that reaches (b, b), on
    # a sweep read part by part, as the search reads its own.
    scan = ident.GridSweep(m, t0, grid.sweep)
    groups, parts = [], scan.parts()
    for k, part in enumerate(parts):
        stacks = scan.xis(part)
        groups += [len(idx) for idx, _ in stacks]
        if (b, b) in scores_of([B for _, xi in stacks
                                for B in ident.upsilon_rows(xi, psi_dec, m_z)]):
            break
    assert (first in parts[k]) == reaches
    plan, sizes = scored_sizes(monkeypatch, m, t0, grid)
    reason = None if plan.verdict is None else plan.verdict.reason
    assert (plan.status, plan.selected, plan.rank_trace, reason) == \
        per_step_rebuild(m, t0, grid)
    if reaches and b == m.dims.q:
        assert plan.selected[0] == grid.points[first] and plan.rank_trace == (0,)
        assert sizes == groups
    else:
        assert sizes[:len(groups)] == groups


# tracemalloc peak, in bytes, of search_frequencies(d60-02, refine=1) at
# numkit's byte budget, on two CPUs (one CPU peaks 111 B higher), with the
# model's pencil bound already built.  Its anchor step reads only the
# smallest point of each grid, so each grid solves that one pencil: the peak
# is that of the bound's evaluation over each grid and of each grid's blocks.
D60_02_REFINE_PEAK = 1_322_488


def test_refine_peak_memory_stays_pinned():
    # d60-02 of the search-wide workload stalls on the default grid and pays
    # an 800-point refine: its peak may not rise by more than 2 %.
    m = testing.random_regular_model(2, dims=D60)
    t0 = np.zeros(m.dims.q)
    plan = freqplan.search_frequencies(m, t0, refine=1)
    assert plan.status == freqplan.NO_PROGRESS_ON_GRID and plan.refine_hint[2] == 4 * 800
    tracemalloc.start()
    try:
        freqplan.search_frequencies(m, t0, refine=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * D60_02_REFINE_PEAK


# tracemalloc peak, in bytes, of search_frequencies(d40-01, refine=1) at
# numkit's byte budget, on two CPUs (one CPU peaks about 230 kB lower).
# d40-01 of the search-wide workload stalls on the default grid and refines
# on another; its greedy steps read K and Pi of the first 200 and 566 points
# and solve their pencils part by part, so the peak is a part's solve on top
# of the factors of the parts before it.  d60-02 reads only the smallest
# point of each grid, so the pin above does not reach a many-part read.
D40_01_REFINE_PEAK = 2_520_682


def test_whole_grid_refine_peak_memory_stays_pinned(monkeypatch):
    m = testing.random_regular_model(1, dims=Dims(40, 3, 1, 2, 6, 12))
    t0 = np.zeros(m.dims.q)
    plan, sweeps = sweeps_of(monkeypatch, lambda: freqplan.search_frequencies(m, t0, refine=1))
    assert plan.status == freqplan.NO_PROGRESS_ON_GRID and plan.refine_hint[2] == 4 * 800
    assert [len(s.g) for s in sweeps] == [200, 800]
    assert [read_points(s) for s in sweeps] == [list(range(200)), list(range(566))]
    tracemalloc.start()
    try:
        freqplan.search_frequencies(m, t0, refine=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * D40_01_REFINE_PEAK


BUDGET_KINDS = {
    "kr": dict(kernel_rich=True),
    "d12": dict(dims=Dims(12, 2, 1, 2, 5, 10)),
    "d12-dt": dict(dims=Dims(12, 2, 1, 2, 5, 10), time_domain="discrete"),
    "d12-se": dict(dims=Dims(12, 2, 1, 2, 5, 10), singular_E=True),
}


def budget_run(model, theta0, n_points):
    """Everything the byte budget could touch, as bytes and strings: the
    grid's G blocks and guard complaints, each point's GridSweep flags, Xi and
    U_Pi2, and the search's plan (or its error)."""
    grid = freqplan.default_grid(model, n_points=n_points)
    s = grid.sweep
    out = [s.omegas, s.G.tobytes(), [str(e) for e in s.guarded]]
    sweep = ident.GridSweep(model, theta0, s)
    out += [flags.tolist() for flags in sweep.flags(range(len(s)))]
    for p in point_views(sweep):
        out += [(M.shape, M.strides, M.tobytes()) for M in (p.Xi, p.U_Pi2)]
    try:
        plan = freqplan.search_frequencies(model, theta0, grid=grid)
        out += [plan.status, plan.selected, plan.rank_trace, plan.refine_hint,
                None if plan.verdict is None else plan.verdict.reason]
    except LftIdentError as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


@given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(sorted(BUDGET_KINDS)),
       pole=st.booleans(), n_points=st.integers(1, 90))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_results_do_not_depend_on_the_stack_budget(seed, kind, pole, n_points):
    # One matrix per stacked call, the default budget and one stack per grid
    # give the same bits.  With ``pole``, a pole sits on a grid point, which
    # the guard drops.
    try:
        m = testing.random_regular_model(seed % 1000, **BUDGET_KINDS[kind])
    except RuntimeError:
        return
    t0 = np.zeros(m.dims.q)
    if pole:
        raw = freqplan.default_grid(m, n_points=n_points).points
        m = with_pole(m, float(raw[len(raw) // 2]))
    runs = []
    for budget in (1, numkit._STACK_BYTES, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numkit, "_STACK_BYTES", budget)
            try:
                runs.append(budget_run(m, t0, n_points))
            except LftIdentError as exc:
                runs.append(f"{type(exc).__name__}: {exc}")
    assert runs[0] == runs[1] == runs[2]


def plan_bits(plan):
    """The plan without its verdict, the verdict without its residual
    direction, and that direction's bytes."""
    v = plan.verdict
    d = None if v is None else v.residual_direction
    return (dataclasses.replace(plan, verdict=None),
            None if v is None else dataclasses.replace(v, residual_direction=None),
            None if d is None else d.tobytes())


def read_points(sweep):
    """The points of a GridSweep whose K and Pi were built, ascending."""
    return np.flatnonzero(sweep._slots[0] >= 0).tolist()


def lazy_and_full(monkeypatch, model, theta0, grid, refine):
    """The number of points the search read on each grid it searched, in
    order, and the plan bits of the search and of the search over full
    builds: each GridSweep builds the anchor factors of every point when it
    is constructed, and the search reads all points as one part, so its
    first greedy step builds the rows of every point."""
    plan, sweeps = sweeps_of(monkeypatch, lambda: freqplan.search_frequencies(
        model, theta0, grid=grid, refine=refine))
    init = ident.GridSweep.__init__

    def built(self, *args):
        init(self, *args)
        self.flags(range(len(self.g)))

    with monkeypatch.context() as mp:
        mp.setattr(ident.GridSweep, "__init__", built)
        mp.setattr(ident.GridSweep, "parts", lambda self: [np.arange(len(self.g))])
        full = freqplan.search_frequencies(model, theta0, grid=grid, refine=refine)
    return [len(read_points(s)) for s in sweeps], plan_bits(plan), plan_bits(full)


def side_failing_first_point(model, theta0, grid):
    """``grid`` with its smallest point changed so that the point fails the
    side condition: u = P(theta0) e_1 joins the kernel of G_yv, and
    I - P(theta0) G_zv maps u to 1e-8 u, a loop that passes the guard
    (sigma_min >= 1e-12) but leaves Pi thinner than the decision margin."""
    g = grid.sweep
    u = model.p_of(theta0)[:, 0]
    G_zv = np.zeros_like(g.G_zv[0])
    G_zv[0] = (1.0 - 1e-8) * u / (u @ u)
    changed = with_blocks(g, [(0, "G_yv", g.G_yv[0] - np.outer(g.G_yv[0] @ u, u) / (u @ u)),
                              (0, "G_zv", G_zv)])
    return freqplan.FrequencyGrid(sweep=changed, time_domain=grid.time_domain)


@given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(sorted(BUDGET_KINDS)),
       interior=st.booleans(), refine=st.sampled_from([0, 1]), side_fail=st.booleans())
@settings(max_examples=16, deadline=None, derandomize=True)
def test_anchor_probe_gives_the_full_build_plan(seed, kind, interior, refine, side_fail):
    # The plan of a search that reads the grid part by part, from its
    # smallest point, and stops each step at the most a block can score
    # equals, bit for bit, the plan of the same search over a full build:
    # status, picks, rank trace, refine hint, and the verdict with its reason
    # and residual direction.  ``side_fail`` (at an interior theta0) makes
    # the smallest point fail the side condition.  The anchor step's bound
    # min(q, 2 m_y m_z) rests on every side-passing Xi having at most 2 m_y
    # rows.
    try:
        m = testing.random_regular_model(seed % 1000, **BUDGET_KINDS[kind])
    except RuntimeError:
        return
    t0 = interior_theta(m, seed) if interior else np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    if interior and side_fail:
        grid = side_failing_first_point(m, t0, grid)
    with pytest.MonkeyPatch.context() as mp:
        reads, plan, full = lazy_and_full(mp, m, t0, grid, refine)
    assert plan == full
    if interior and side_fail:
        assert reads[0] > 1
    sweep = ident.GridSweep(m, t0, grid.sweep)
    side = sweep.flags(range(grid.points.size))[1]
    stacks = sweep.xis(np.flatnonzero(side))
    assert sum(len(idx) for idx, _ in stacks) == side.sum()
    assert all(xi.shape[1] <= 2 * m.dims.m_y for _, xi in stacks)


@given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(sorted(BUDGET_KINDS) + ["fcr"]))
@example(seed=0, kind="fcr")
@settings(max_examples=16, deadline=None, derandomize=True)
def test_greedy_blocks_stay_within_the_cap(seed, kind):
    # At theta0 = 0 every loop is I, so Pi = K has m_v - rank G_yv columns
    # and U_Pi2 has rank G_yv <= min(m_y, m_v) columns: no row block has more
    # than 2 m_z min(m_y, m_v) rows, which lets a greedy step stop at that
    # cap.  "fcr" models have m_v = m_y = 2, so G_yv has full column rank and
    # Pi no columns.
    dims = Dims(3, 2, 2, 1, 2, 2) if kind == "fcr" else None
    try:
        m = testing.random_regular_model(seed % 1000, **(
            dict(dims=dims) if dims else BUDGET_KINDS[kind]))
    except RuntimeError:
        return
    d = m.dims
    grid = freqplan.default_grid(m)
    sweep = ident.GridSweep(m, np.zeros(d.q), grid.sweep)
    points = np.arange(len(grid.sweep))
    rows = sweep.greedy_rows(points, ident.psi(m), d.m_z)
    assert sorted(i for idx, _ in rows for i in idx.tolist()) == points.tolist()
    assert all(R.shape[1] <= 2 * d.m_z * min(d.m_y, d.m_v) for _, R in rows)
    if dims:
        assert {Pi.shape[2] for _, _, Pi in sweep._groups} == {0}


SCAN_CASES = {
    "kr-00": lambda: testing.random_regular_model(0, kernel_rich=True),
    "kr-22": lambda: testing.random_regular_model(22, kernel_rich=True),
    "kr-35": lambda: testing.random_regular_model(35, kernel_rich=True),
    "d60-01": lambda: testing.random_regular_model(1, dims=D60),
    "d60-02": lambda: testing.random_regular_model(2, dims=D60),
    "d4-03": lambda: testing.random_regular_model(3, dims=Dims(3, 2, 2, 2, 4, 3)),
}


@pytest.mark.parametrize("case,settled", [
    ("kr-00", [True]),             # certified at the smallest point
    ("kr-22", [False]),            # the smallest point scores below (q, q)
    ("kr-00-side", [False]),       # the smallest point fails the side condition
    ("d60-02", [True, True]),      # (q, q) at the smallest point; the gate vetoes
    ("d60-01", [False]),           # (15, 16) at the smallest point, below (16, 16)
    ("kr-35", [False, False]),     # the greedy reads every point of both grids
    ("d4-03", [False]),            # m_v <= 2 m_y: S0 runs, and certifies at a later point
], ids=str)
@pytest.mark.parametrize("refine", [0, 1])
def test_anchor_probe_cases_give_the_full_build_plan(monkeypatch, case, settled, refine):
    # ``settled``: whether the search read only the smallest point of each
    # grid it searched.
    m = SCAN_CASES[case.removesuffix("-side")]()
    t0 = interior_theta(m, 0) if case.endswith("side") else np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    if case.endswith("side"):
        grid = side_failing_first_point(m, t0, grid)
        assert not ident.GridSweep(m, t0, grid.sweep[0]).flags([0])[1][0]
    reads, plan, full = lazy_and_full(monkeypatch, m, t0, grid, refine)
    assert [n == 1 for n in reads] == settled[:1 + refine] and plan == full
    if case == "d60-02":
        # The verdict at the smallest point is the gate's inconclusive one, on both grids.
        assert plan[0].status == freqplan.NO_PROGRESS_ON_GRID and plan[0].rank_trace == (0,)
        assert plan[1].status == ident.INCONCLUSIVE
        assert "response-sensitivity margin too thin" in plan[1].reason
    if case in ("kr-35", "d4-03"):
        assert reads == [200, 800][:len(reads)]


def test_probe_path_runs_the_whole_grid_loop_guard(monkeypatch):
    # kr-00 at an interior theta0 certifies at the grid's smallest point
    # alone.  A loop made singular at a later point must still stop the
    # search with the whole-grid sweep's complaint, before any verdict.
    m = testing.random_regular_model(0, kernel_rich=True)
    t0 = interior_theta(m, 0)
    grid = freqplan.default_grid(m)
    plan, [searched] = sweeps_of(monkeypatch, lambda: freqplan.search_frequencies(m, t0, grid=grid))
    assert plan.selected == (grid.points[0],) and read_points(searched) == [0]
    u = m.p_of(t0)[:, 0]
    bad = np.zeros_like(grid.sweep.G_zv[0])
    bad[0] = u / (u @ u)  # P(theta0) G_zv u = u
    at = [37, 150]
    sweep = with_blocks(grid.sweep, [(i, "G_zv", bad) for i in at])
    with pytest.raises(WellPosednessViolation) as whole:
        ident.GridSweep(m, t0, sweep)
    assert f"omega={sweep.omegas[at[0]]}" in str(whole.value)
    decided = []
    decide = ident._decide
    monkeypatch.setattr(ident, "_decide", lambda *args: decided.append(args) or decide(*args))
    with pytest.raises(WellPosednessViolation) as searched:
        freqplan.search_frequencies(
            m, t0, grid=freqplan.FrequencyGrid(sweep=sweep, time_domain=m.time_domain))
    assert str(searched.value) == str(whole.value) and decided == []


def test_search_settled_at_the_smallest_point_factors_one_point(monkeypatch):
    # kr-00 certifies at its smallest grid point: every stacked SVD and
    # every candidate scoring of the search holds one matrix.  The loop guard
    # runs once, on the one solved point: at theta0 = 0 every loop is I, so
    # the pending points need no check, and the solved point's loop passes
    # the guard's certificate without an SVD.
    m = testing.random_regular_model(0, kernel_rich=True)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    stacks, guards, loop_svds = [], [], []
    svd_stack, scores, guard = numkit.svd_stack, ident.candidate_scores, numkit.loop_guard
    svd = np.linalg.svd

    def guard_spy(M, *a):
        guards.append(len(M))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd", lambda *b, **k: loop_svds.append(b) or svd(*b, **k))
            return guard(M, *a)

    monkeypatch.setattr(numkit, "svd_stack", lambda S, *a: stacks.append(len(S)) or svd_stack(S, *a))
    monkeypatch.setattr(ident, "candidate_scores", lambda B: stacks.append(len(B)) or scores(B))
    monkeypatch.setattr(numkit, "loop_guard", guard_spy)
    plan = freqplan.search_frequencies(m, t0, grid=grid)
    assert plan.status == freqplan.CERTIFIED and plan.selected == (grid.points[0],)
    assert stacks and set(stacks) == {1}
    assert guards == [1] and loop_svds == []


def test_search_factors_only_the_points_it_reads(monkeypatch):
    # kr-00 certifies at its smallest point, and no other point is factored.
    m = testing.random_regular_model(0, kernel_rich=True)
    plan, [sweep] = sweeps_of(monkeypatch, lambda: freqplan.search_frequencies(m, [0.0] * m.dims.q))
    assert plan.rank_trace == (0,)
    assert np.flatnonzero((sweep._slots >= 0).any(axis=0)).tolist() == [0]

    # d40-01 scores its smallest point at (4, 4), the most a side-passing Xi
    # block of 2 m_y m_z = 4 rows can score.  So on both of its grids the J
    # and T SVDs (the only real stacks factored) run for its picks alone,
    # that point among them, though its greedy steps read K and Pi of the
    # first 200 and 566 points: a U_Pi2 block has at most 2 m_z min(m_y,
    # m_v) = 4 rows, and the step stops at the first part that scores (4, 4).
    m = testing.random_regular_model(1, dims=Dims(40, 3, 1, 2, 6, 12))
    decided, real = [], []
    decide, svd_stack = ident._decide, numkit.svd_stack

    def spy(S, *args):
        if np.isrealobj(S):
            real.append(len(S))
        return svd_stack(S, *args)

    with monkeypatch.context() as mp:
        mp.setattr(ident, "_decide", lambda *args: decided.append(args[1:3]) or decide(*args))
        mp.setattr(numkit, "svd_stack", spy)
        plan, sweeps = sweeps_of(mp, lambda: freqplan.search_frequencies(
            m, [0.0] * m.dims.q, refine=1))
    assert plan.refine_hint[2] == 4 * 800 and [s for s, _ in decided] == sweeps
    for (sweep, picks), read in zip(decided, [200, 566]):
        assert 0 in picks and np.flatnonzero(sweep._slots[2] >= 0).tolist() == sorted(picks)
        assert read_points(sweep) == list(range(read))
    assert sum(real) == 2 * sum(len(picks) for _, picks in decided)

    # kr-18's greedy step stops at the part that holds its pick: the pick
    # scores (c, c) for Z's c columns, the most any block can.
    m = testing.random_regular_model(18, kernel_rich=True)
    decided, rows, greedy_rows = [], [], ident.GridSweep.greedy_rows
    with monkeypatch.context() as mp:
        mp.setattr(ident, "_decide", lambda *args: decided.append(args[1:3]) or decide(*args))
        mp.setattr(ident.GridSweep, "greedy_rows",
                   lambda self, points, *args: rows.append((self, points.tolist()))
                   or greedy_rows(self, points, *args))
        plan, sweeps = sweeps_of(mp, lambda: freqplan.search_frequencies(
            m, [0.0] * m.dims.q, refine=1))
    assert plan.rank_trace == (2, 0) and [s for s, _ in decided] == sweeps
    for sweep, picks in decided:
        parts = [p.tolist() for p in sweep.parts()]
        last = next(k for k, p in enumerate(parts) if picks[1] in p)
        assert [points for s, points in rows if s is sweep] == parts[:last + 1]
    assert last + 1 < len(parts) == 5


@pytest.mark.parametrize("block", ["G_yu", "G_yv", "G_zu", "G_zv"])
def test_non_finite_block_at_an_unread_point_raises(block):
    # kr-00 certifies at its smallest point and reads no other, but a
    # non-finite block anywhere on the grid refuses the sweep before any
    # point is factored.
    m = testing.random_regular_model(0, kernel_rich=True)
    grid = freqplan.default_grid(m)
    sweep = with_blocks(grid.sweep, [(150, block, np.nan)])
    with pytest.raises(InvalidInput, match="G contains non-finite entries"):
        ident.GridSweep(m, np.zeros(m.dims.q), sweep)
    with pytest.raises(InvalidInput, match="G contains non-finite entries"):
        freqplan.search_frequencies(m, np.zeros(m.dims.q), grid=freqplan.FrequencyGrid(
            sweep=sweep, time_domain=m.time_domain))


def test_a_model_whose_blocks_could_overflow_defers_no_pencil():
    # A pending point's blocks are finite by ||G||_2 <= ||D||_F + 2 ||C||_F
    # ||B||_F / b.  Where that bound could overflow, every grid pencil is
    # solved and checked when the grid is built, so the search refuses the
    # grid as an eager build does.
    m = testing.random_regular_model(0, kernel_rich=True)
    big = dataclasses.replace(m, B_xu=m.B_xu * 1e160, C_yx=m.C_yx * 1e160)
    assert freqplan.default_grid(m).sweep.pending is not None
    with np.errstate(over="ignore", invalid="ignore"):
        grid = freqplan.default_grid(big)
        assert grid.sweep.pending is None
        with pytest.raises(InvalidInput, match="G contains non-finite entries"):
            freqplan.search_frequencies(big, np.zeros(m.dims.q), grid=grid)


def eager_plan(monkeypatch, model, theta0, refine):
    """The plan of a search whose grids solve every pencil when built, with
    no pencil bound, and whose loop guards take an SVD of every loop."""
    guard = numkit.loop_guard
    with monkeypatch.context() as mp:
        mp.setattr(response, "grid_sweep", lambda m, omegas: response.g_sweep(m, omegas))
        mp.setattr(numkit, "loop_guard",
                   lambda M, msg, *_: guard(M, msg, np.linalg.svd(M, compute_uv=False)))
        return freqplan.search_frequencies(model, theta0, refine=refine)


@pytest.mark.parametrize("case", sorted(SEARCH_FIXTURES))
def test_lazy_grids_give_the_eager_plan_on_the_search_fixtures(monkeypatch, case):
    # The benchmark's searches, at theta0 = 0 and refine 1: the plan bits of
    # the lazy grids equal those of eager ones, verdict and residual
    # direction included.
    m = SEARCH_FIXTURES[case]()
    t0 = np.zeros(m.dims.q)
    lazy = freqplan.search_frequencies(m, t0, refine=1)
    assert plan_bits(lazy) == plan_bits(eager_plan(monkeypatch, m, t0, 1))


@given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(sorted(BUDGET_KINDS)),
       interior=st.booleans(), refine=st.sampled_from([0, 1]))
@settings(max_examples=24, deadline=None, derandomize=True)
def test_lazy_grids_give_the_eager_plan(seed, kind, interior, refine):
    # As above over seeded models, at theta0 = 0 or at an interior theta0,
    # where the grid-wide guards solve every point; the search's errors must
    # match too.
    try:
        m = testing.random_regular_model(seed % 1000, **BUDGET_KINDS[kind])
    except RuntimeError:
        return
    t0 = interior_theta(m, seed) if interior else np.zeros(m.dims.q)
    plans = []
    with pytest.MonkeyPatch.context() as mp:
        for search in (lambda: freqplan.search_frequencies(m, t0, refine=refine),
                       lambda: eager_plan(mp, m, t0, refine)):
            try:
                plans.append(plan_bits(search()))
            except LftIdentError as exc:
                plans.append(f"{type(exc).__name__}: {exc}")
    assert plans[0] == plans[1]


@pytest.mark.parametrize("case,refine,past", [
    ("kr-00", 0, False),   # certified at the smallest point
    ("d60-02", 1, False),  # (q, q) at the smallest point of both grids; the gate vetoes
    ("d40-01", 1, True),   # the greedy reads the first 200 and 566 points
])
def test_grid_pencils_are_solved_as_the_search_reads_them(monkeypatch, case, refine, past):
    # A search solves each grid pencil it reads exactly once and no other:
    # settled at the smallest point of a grid (not ``past`` it), that one
    # pencil.  Each grid is searched before the next is built, so the
    # pencils solved from one grid's build to the next's are that grid's.
    m = SEARCH_FIXTURES[case]()
    grids, starts, solved = [], [], []
    default_grid, solve_group = freqplan.default_grid, response._solve_group

    def grid_spy(model, n_points=freqplan.DEFAULT_GRID_POINTS, w_min=None, w_max=None):
        grids.append(np.geomspace(w_min or freqplan.DEFAULT_W_MIN,
                                  w_max or freqplan.DEFAULT_W_MAX, n_points).tolist())
        starts.append(len(solved))
        return default_grid(model, n_points, w_min, w_max)

    def solve_spy(pencils, idx, lam, *rest):
        solved.extend(lam[idx].imag.tolist())
        return solve_group(pencils, idx, lam, *rest)

    monkeypatch.setattr(freqplan, "default_grid", grid_spy)
    monkeypatch.setattr(response, "_solve_group", solve_spy)
    _, sweeps = sweeps_of(monkeypatch, lambda: freqplan.search_frequencies(
        m, np.zeros(m.dims.q), refine=refine))
    assert [len(g) for g in grids] == [len(s.g) for s in sweeps] == [200, 800][:1 + refine]
    for omegas, own, sweep in zip(grids, np.split(np.array(solved), starts[1:]), sweeps):
        read = read_points(sweep)
        assert (read != [0]) == past
        counts = [int((own == w).sum()) for w in omegas]
        assert counts == [int(i in read) for i in range(len(omegas))]
    if past:
        assert [len(read_points(s)) for s in sweeps] == [200, 566]


# Per search-wide fixture at refine 1: the grid pencils its search solves and
# the grid points it factors (K, Pi, U_Pi2), summed over its grids.  Each is
# the number of points its greedy steps read; a U_Pi2 block's row cap stops
# the d12 and d40 steps short of the whole grid.
SEARCH_WIDE_WORK = {
    "d60-01": (129, 129), "d40-01": (766, 766), "d12-01": (164, 164),
    "d40-dt-01": (454, 454), "d12-dt-01": (491, 491), "d40-se-01": (766, 766),
    "d12-se-01": (164, 164), "d60-02": (2, 2), "d40-02": (567, 567),
    "d12-02": (164, 164), "d40-dt-02": (454, 454), "d12-dt-02": (164, 164),
    "d40-se-02": (567, 567), "d12-se-02": (164, 164),
}


@pytest.mark.parametrize("case", sorted(SEARCH_WIDE_WORK))
def test_search_wide_work_stays_pinned(monkeypatch, case):
    # A change that makes a search read more of its grids fails here, with
    # no timing.  The pencils solved before the first grid is built are the
    # normal-rank probes'.
    m = SEARCH_FIXTURES[case]()
    sizes, starts = [], []
    default_grid, solve_group = freqplan.default_grid, response._solve_group

    def grid_spy(*args, **kwargs):
        starts.append(len(sizes))
        return default_grid(*args, **kwargs)

    def solve_spy(pencils, idx, *rest):
        sizes.append(len(idx))
        return solve_group(pencils, idx, *rest)

    monkeypatch.setattr(freqplan, "default_grid", grid_spy)
    monkeypatch.setattr(response, "_solve_group", solve_spy)
    _, sweeps = sweeps_of(monkeypatch, lambda: freqplan.search_frequencies(
        m, np.zeros(m.dims.q), refine=1))
    factored = sum(len(read_points(s)) for s in sweeps)
    assert (sum(sizes[starts[0]:]), factored) == SEARCH_WIDE_WORK[case]
