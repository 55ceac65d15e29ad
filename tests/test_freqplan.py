
import numpy as np
import pytest

from lftident import freqplan, identifiability as ident, numkit, response, testing
from lftident.errors import EmptyGrid, PoleProximity
from lftident.model import DescriptorModel, Dims, ParameterDomain


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
        sweep = response.GSweep(omegas=(), lams=(), G=np.zeros((0, 2, 2), complex),
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


def scores_of(blocks):
    """candidate_scores of each block on its own, as (robust, margin) tuples."""
    return [tuple(ident.candidate_scores(B[None])[:, 0].tolist()) for B in blocks]


def per_step_rebuild(model, theta0, grid):
    """The S1-S5 selection with every candidate's rows rebuilt at every greedy
    step: (status, selected, rank_trace, verdict reason or None)."""
    psi_dec = ident.psi(model)
    m_z = model.dims.m_z
    cand = ident.pi_sweep(model, theta0, grid.sweep)
    anchors = [p for p in cand if p.side_fcr]
    if not anchors:
        return freqplan.NO_PROGRESS_ON_GRID, (), (), None
    blocks = [ident.upsilon_block(p, psi_dec, True, m_z) for p in anchors]
    scores = scores_of(blocks)
    best = max(range(len(scores)), key=scores.__getitem__)
    pis = [anchors[best]]
    Z = ident.chain_null_basis(blocks[best])
    trace = [Z.shape[1]]
    while Z.shape[1] > 0:
        rest = [p for p in cand if p.omega not in [s.omega for s in pis]]
        blocks = [ident.upsilon_block(p, psi_dec, False, m_z) @ Z for p in rest]
        scores = scores_of(blocks)
        best = max(range(len(scores)), key=scores.__getitem__)
        if scores[best] == (0, 0):
            return freqplan.NO_PROGRESS_ON_GRID, tuple(p.omega for p in pis), tuple(trace), None
        pis.append(rest[best])
        Z = Z @ ident.chain_null_basis(blocks[best])
        trace.append(Z.shape[1])
    verdict = ident._decide(model, model.check_theta(theta0), pis, psi_dec)
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


@pytest.mark.parametrize("failing", ["anchor-group", "whole-grid"])
def test_side_condition_failing_groups_are_skipped(monkeypatch, failing):
    # Forced failures of the side condition: of every point in the Xi group
    # of the unforced anchor, or of every grid point.  Such candidates are
    # skipped as anchors; with none left the grid stalls with a refine hint.
    m = testing.random_regular_model(1, dims=Dims(12, 2, 1, 2, 5, 10))
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    anchor = grid.points.tolist().index(
        freqplan.search_frequencies(m, t0, grid=grid).selected[0])
    init = ident.GridSweep.__init__

    def forced_init(self, *args):
        init(self, *args)
        groups = [idx.tolist() for idx, _ in self.xis]
        assert len(groups) > 1
        fail = [i for g in groups if failing == "whole-grid" or anchor in g for i in g]
        self.side[fail] = False

    # Both the search and the reference's pi_sweep see the forced failures.
    monkeypatch.setattr(ident.GridSweep, "__init__", forced_init)
    plan = freqplan.search_frequencies(m, t0, grid=grid)
    reason = None if plan.verdict is None else plan.verdict.reason
    assert (plan.status, plan.selected, plan.rank_trace, reason) == \
        per_step_rebuild(m, t0, grid)
    if failing == "whole-grid":
        assert plan.status == freqplan.NO_PROGRESS_ON_GRID and plan.selected == ()
        assert plan.refine_hint == (grid.points[0], grid.points[-1], 4 * grid.points.size)
    else:
        assert plan.selected[0] != grid.points[anchor]


def pi_svd_points(monkeypatch, model, theta0, grid):
    """The search's plan and, per numkit.svd_stack call it made on a stack of
    Pi, the grid indices of that stack's members, in call order."""
    index = {p.Pi.tobytes(): i for i, p in enumerate(ident.pi_sweep(model, theta0, grid.sweep))}
    calls = []
    svd_stack = numkit.svd_stack

    def spy(S, *args):
        S = np.asarray(S)
        if S.ndim == 3 and len(S) and all(M.tobytes() in index for M in S):
            calls.append([index[M.tobytes()] for M in S])
        return svd_stack(S, *args)

    with monkeypatch.context() as mp:
        mp.setattr(numkit, "svd_stack", spy)
        plan = freqplan.search_frequencies(model, theta0, grid=grid)
    return plan, calls


def test_anchor_certified_search_factors_only_the_anchor_group(monkeypatch):
    # kr-00 of the search-pool workload: no shortcut flag (its Pi_bar_j are
    # 3 x 4), and the anchor certifies alone, so no greedy rows are built.
    m = testing.random_regular_model(0, kernel_rich=True)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    plan, calls = pi_svd_points(monkeypatch, m, t0, grid)
    assert plan.status == freqplan.CERTIFIED and plan.rank_trace == (0,)
    anchor = grid.points.tolist().index(plan.selected[0])
    assert len(calls) == 1 and anchor in calls[0]
    assert len(calls[0]) < grid.points.size


@pytest.mark.parametrize("seed,kind", [
    (22, dict(kernel_rich=True)),
    (1, dict(dims=Dims(12, 2, 1, 2, 5, 10))),
])
def test_greedy_search_factors_each_group_once(monkeypatch, seed, kind):
    m = testing.random_regular_model(seed, **kind)
    t0 = np.zeros(m.dims.q)
    grid = freqplan.default_grid(m)
    plan, calls = pi_svd_points(monkeypatch, m, t0, grid)
    assert len(plan.rank_trace) > 1
    assert len(calls) > 1
    assert sorted(i for c in calls for i in c) == list(range(grid.points.size))
