import dataclasses
from itertools import compress

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from lftident import freqplan, identifiability as ident
from lftident import numkit, oracle, response, testing
from lftident.errors import (FNRRViolation, InvalidInput, LftIdentError, PoleProximity,
                             WellPosednessViolation)
from lftident import model as model_module
from lftident.model import DescriptorModel, Dims

from conftest import full_rank_above, guard_one, interior_theta, model_pool


def kernel_pool(n, start=0):
    return [testing.random_regular_model(start + i, kernel_rich=True) for i in range(n)]


class TestPsi:
    def test_siso1(self, siso1):
        pd = ident.psi(siso1)
        assert np.allclose(pd.Psi, [[1.0]])
        assert pd.is_fcr

    def test_dup2_rank_deficient(self, dup2):
        pd = ident.psi(dup2)
        assert pd.Psi.shape == (1, 2)
        assert pd.rank == 1
        assert not pd.is_fcr

    def test_orthogonal_patterns(self):
        m = testing.random_regular_model(
            5, dims=Dims(m_x=2, m_u=2, m_y=1, m_z=1, m_v=3, q=3)
        )
        P = (np.array([[1.0], [0.0], [0.0]]),
             np.array([[0.0], [1.0], [0.0]]),
             np.array([[0.0], [0.0], [1.0]]))
        m2 = DescriptorModel(**{**{k: getattr(m, k) for k in (
            "time_domain", "dims", "E", "A_xx", "B_xu", "B_xv", "C_yx", "C_zx",
            "D_yu", "D_yv", "D_zu", "D_zv", "theta_domain")}, "P": P})
        assert ident.psi(m2).rank == 3


class TestKernelBasis:
    def test_siso1_empty(self, siso1):
        K = ident.pi_at(siso1, np.zeros(siso1.dims.q), response.g_blocks(siso1, 1.0)).K
        assert K.shape == (1, 0)

    def test_wide_row(self):
        # G_yv(j w) = [g1 g2]: kernel is the orthogonal complement of the row.
        m = testing.random_regular_model(3, dims=Dims(m_x=2, m_u=1, m_y=1, m_z=1, m_v=2, q=2))
        g = response.g_blocks(m, 0.9).G_yv[0]
        K = ident.pi_at(m, np.zeros(m.dims.q), response.g_blocks(m, 0.9)).K
        assert K.shape == (2, 1)
        assert np.linalg.norm(g @ K) < 1e-10 * np.linalg.norm(g)
        assert abs(np.linalg.norm(K[:, 0]) - 1.0) < 1e-12

    def test_zero_row_full_kernel(self, theta_free):
        g = response.g_blocks(theta_free, 1.0)
        K = ident.pi_at(theta_free, np.zeros(theta_free.dims.q), g).K
        assert K.shape == (1, 1)
        assert np.allclose(np.abs(K), [[1.0]])


class TestPiAt:
    def test_siso1_empty(self, siso1):
        p = ident.pi_at(siso1, [0.0], response.g_blocks(siso1, 1.0))
        assert p.Pi.shape == (1, 0)
        assert p.Pi_bar_j.shape == (1, 0)
        assert p.shortcut

    def test_theta_zero_pi_equals_kernel(self):
        m = testing.random_regular_model(8, kernel_rich=True)
        p = ident.pi_at(m, np.zeros(m.dims.q), response.g_blocks(m, 0.8))
        assert np.allclose(p.Pi, p.K)  # P(0) = 0 collapses the loop

    def test_invariants(self):
        m = testing.random_regular_model(8, kernel_rich=True)
        t0 = np.zeros(m.dims.q)
        g = response.g_blocks(m, 1.3)
        p = ident.pi_at(m, t0, g)
        assert np.linalg.norm(g.G_yv[0] @ p.K) < 1e-10
        assert np.allclose(p.K.conj().T @ p.K, np.eye(p.kernel_dim), atol=1e-12)
        assert np.linalg.norm(p.U_Pi2.conj().T @ p.Pi) < 1e-10
        assert np.allclose(p.U_Pi2.conj().T @ p.U_Pi2,
                           np.eye(p.U_Pi2.shape[1]), atol=1e-12)
        if p.Xi.size:
            W = numkit.right_null_basis(p.Pi_bar_j)
            assert np.linalg.norm(p.Xi @ (p.Pi_bar_r @ W)) < 1e-9

    def test_shortcut_fails_on_wide(self):
        # A 1 x 2 realified stack cannot be FCR: siso1 with a one-column
        # kernel override gives Pi = 1 and Pi_bar_j = [0 1].
        siso1 = testing.siso1()
        p = ident.pi_at(siso1, [0.0], response.g_blocks(siso1, 1.0), kernel=np.eye(1))
        assert np.array_equal(p.Pi_bar_j, [[0.0, 1.0]])
        assert not p.shortcut


def reference_pi(model, theta0, g):
    """pi_at as one single-matrix numkit call per factor (the unstacked route),
    at the one point of the sweep ``g``."""
    K = numkit.right_null_basis(g.G_yv[0])
    loop = np.eye(model.dims.m_v) - model.p_of(theta0) @ g.G_zv[0]
    guard_one(loop, f"I - P(theta0) G_zv singular at omega={g.omegas[0]}")
    Pi = loop @ K
    Pi_bar_r = np.hstack([Pi.real, -Pi.imag])
    Pi_bar_j = np.hstack([Pi.imag, Pi.real])
    T = Pi_bar_r @ numkit.right_null_basis(Pi_bar_j)
    return dict(
        K=K, Pi=Pi, Pi_bar_r=Pi_bar_r, Pi_bar_j=Pi_bar_j,
        Xi=numkit.svd_full(T).U2.conj().T.real, U_Pi2=numkit.svd_full(Pi).U2,
        side_fcr=numkit.rank_of(T, rtol=ident.DECISION_RTOL, scale_floor=1.0).rank == T.shape[1],
        shortcut=numkit.rank_of(Pi_bar_j, rtol=ident.ROBUST_RTOL,
                                scale_floor=1.0).rank == Pi_bar_j.shape[1],
    )


def with_blocks(sweep, changes):
    """``sweep`` with, for each ``(i, name, block)`` of ``changes``, the block
    ``name`` of point i replaced by ``block``, in a copy of its G."""
    changed = dataclasses.replace(sweep, G=sweep.G.copy())
    for i, name, block in changes:
        getattr(changed, name)[i] = block
    return changed


def isolated_kernel_changes(seed, kind):
    """A model, theta0 and a 2*_CHUNK + 5 point grid sweep whose G_yv is zeroed
    or made rank one at isolated points, two of them on either side of the
    first chunk boundary, so that their kernel dimension changes."""
    m = testing.random_regular_model(seed, **kind)
    t0 = interior_theta(m, seed)
    sweep = freqplan.default_grid(m, n_points=2 * numkit._CHUNK + 5).sweep
    changes = []
    for i in (3, numkit._CHUNK - 1, numkit._CHUNK, len(sweep) - 1):
        G = sweep.G_yv[i]
        G = np.zeros_like(G) if i % 2 else np.repeat(G[:1], G.shape[0], axis=0) * (1 + 0.5j)
        changes.append((i, "G_yv", G))
    return m, t0, with_blocks(sweep, changes)


KERNEL_CHANGE_CASES = [
    (3, dict(kernel_rich=True)),
    (5, dict(dims=Dims(m_x=3, m_u=2, m_y=2, m_z=2, m_v=4, q=3))),
    (7, dict(dims=Dims(m_x=2, m_u=2, m_y=2, m_z=2, m_v=3, q=2), time_domain="discrete")),
]


FIELDS = ("K", "Pi", "Pi_bar_r", "Pi_bar_j", "Xi", "U_Pi2")


def assert_same_point(a, b):
    """The one-point sweeps ``a`` and ``b`` are the same point of one sweep: the
    same frequency, and G views of the same memory with the same layout."""
    assert (a.omegas, a.lams, a.m_y, a.m_u) == (b.omegas, b.lams, b.m_y, b.m_u)
    assert a.G.base is b.G.base and a.G.__array_interface__ == b.G.__array_interface__


def assert_equals_reference(model, theta0, p, g):
    """``p`` equals reference_pi and pi_at at the one-point sweep ``g``, bit
    for bit, and was built from the point ``g``."""
    ref = reference_pi(model, theta0, g)
    one = ident.pi_at(model, theta0, g)
    assert_same_point(p.g, g)
    assert_same_point(one.g, g)
    for name in FIELDS:
        assert np.array_equal(getattr(p, name), ref[name]), name
        assert np.array_equal(getattr(one, name), ref[name]), name
    assert p.side_fcr == one.side_fcr == ref["side_fcr"]
    assert p.shortcut == one.shortcut == ref["shortcut"]


def search_materialized(monkeypatch, model, theta0, sweep):
    """The Pi decompositions that a search over ``sweep`` builds, in order."""
    built = []
    at = ident.GridSweep.at
    grid = freqplan.FrequencyGrid(sweep=sweep, time_domain=model.time_domain)
    with monkeypatch.context() as mp:
        mp.setattr(ident.GridSweep, "at", lambda self, i: built.append(at(self, i)) or built[-1])
        plan = freqplan.search_frequencies(model, theta0, grid=grid)
    assert built and tuple(p.omega for p in built[len(built) - len(plan.selected):]) == plan.selected
    return built


class TestPiSweep:
    """Stacked Pi factors equal the unstacked ones, bit for bit, at every grid
    point and at every candidate the search materializes."""

    @pytest.mark.parametrize("seed,kind", [
        (3, dict(kernel_rich=True)),
        (53, dict(kernel_rich=True)),
        (0, dict(kernel_rich=True, time_domain="discrete")),
        (0, dict(kernel_rich=True, singular_E=True)),
        (1, dict()),
    ])
    def test_equals_pointwise(self, monkeypatch, seed, kind):
        m = testing.random_regular_model(seed, **kind)
        t0 = interior_theta(m, seed)
        sweep = freqplan.default_grid(m, n_points=numkit._CHUNK + 1).sweep
        swept = ident.pi_sweep(m, t0, sweep)
        assert len(swept) == len(sweep)
        for p, g in zip(swept, sweep, strict=True):
            assert_equals_reference(m, t0, p, g)
        for p in search_materialized(monkeypatch, m, t0, sweep):
            assert_equals_reference(m, t0, p, p.g)

    def test_first_singular_loop_raises(self, siso1):
        # With theta0 = 0.5, I - theta0 G_zv is singular where G_zv = 2.
        t0 = [0.5]
        sweep = with_blocks(response.g_sweep(siso1, np.geomspace(0.1, 10.0, 40)),
                            [(i, "G_zv", 2.0) for i in (numkit._CHUNK + 1, 3, 17)])
        with pytest.raises(WellPosednessViolation) as single:
            ident.pi_at(siso1, t0, sweep[3])
        with pytest.raises(WellPosednessViolation) as swept:
            ident.pi_sweep(siso1, t0, sweep)
        assert str(swept.value) == str(single.value)
        assert f"omega={sweep.omegas[3]}" in str(swept.value)

    @pytest.mark.parametrize("seed,kind", KERNEL_CHANGE_CASES)
    def test_isolated_kernel_changes_equal_pointwise(self, monkeypatch, seed, kind):
        m, t0, sweep = isolated_kernel_changes(seed, kind)
        swept = ident.pi_sweep(m, t0, sweep)
        assert len({p.kernel_dim for p in swept}) > 1
        assert len(swept) == len(sweep)
        for p, g in zip(swept, sweep, strict=True):
            assert_equals_reference(m, t0, p, g)
        for p in search_materialized(monkeypatch, m, t0, sweep):
            assert_equals_reference(m, t0, p, p.g)

    @pytest.mark.parametrize("seed,kind", KERNEL_CHANGE_CASES)
    def test_stacked_rows_times_z_equal_upsilon_block(self, seed, kind):
        # The search multiplies stacked rows by Z; each product must equal the
        # one-candidate upsilon_block(p) @ Z that the re-verification computes.
        # Both also equal the rows of the one-matrix route, (W @ U1) with the
        # Xi and [U_Pi2r U_Pi2j]^T of reference_pi.
        m, t0, blocks = isolated_kernel_changes(seed, kind)
        psi_dec, m_z, q = ident.psi(m), m.dims.m_z, m.dims.q
        U1 = psi_dec.U1.reshape(m_z, -1, psi_dec.U1.shape[1])
        refs = [reference_pi(m, t0, g) for g in blocks]
        sweep = ident.GridSweep(m, t0, blocks)
        pis = [sweep.at(i) for i in range(len(blocks))]
        rng = np.random.default_rng(seed)
        for Z in (np.eye(q), np.linalg.qr(rng.standard_normal((q, q)))[0][:, :max(q - 1, 1)]):
            seen = []
            for idx, R in sweep.greedy_rows(psi_dec, m_z):
                for i, B in zip(idx, R @ Z):
                    U2 = refs[i]["U_Pi2"]
                    W = np.hstack([U2.real, U2.imag]).T
                    assert np.array_equal(B, ident.upsilon_block(pis[i], psi_dec, False, m_z) @ Z)
                    assert np.array_equal(B, (W @ U1).reshape(-1, U1.shape[2]) @ Z)
                seen += idx.tolist()
            assert sorted(seen) == list(range(len(pis)))
            seen = []
            for idx, xi in sweep.xis:
                keep = np.arange(len(idx)) % 2 == 0  # a selection, as the anchor step makes
                for i, B in zip(idx[keep], ident.upsilon_rows(xi[keep], psi_dec, m_z) @ Z):
                    assert np.array_equal(B, ident.upsilon_block(pis[i], psi_dec, True, m_z) @ Z)
                    assert np.array_equal(B, (refs[i]["Xi"] @ U1).reshape(-1, U1.shape[2]) @ Z)
                assert all(np.array_equal(x, pis[i].Xi) for i, x in zip(idx, xi))
                seen += idx.tolist()
            assert sorted(seen) == list(range(len(pis)))


def stacked_ranks_fcr(M, rtol):
    """Full column rank of ``M`` at ``rtol`` on the unit scale floor, through
    stacked_ranks: the reference route of the sweep's shortcut and side flags."""
    return bool(numkit.stacked_ranks(M[None], (rtol,), 1.0)[1][0, 0] == M.shape[1])


D12 = Dims(m_x=12, m_u=2, m_y=1, m_z=2, m_v=5, q=10)
D4 = Dims(m_x=3, m_u=2, m_y=2, m_z=2, m_v=4, q=3)


class TestSweepFlags:
    """The shortcut and side flags that GridSweep reads from its own SVDs equal
    the decisions of a second, compute_uv=False SVD of each matrix."""

    @pytest.mark.parametrize("seed,kind", [
        (0, dict(kernel_rich=True)),                         # wide Pi_bar_j, 3 x 4
        (0, dict(kernel_rich=True, time_domain="discrete")),
        (1, dict(dims=D12)),                                 # wide, 5 x 8
        (2, dict(dims=D12, time_domain="discrete")),
        (5, dict(dims=D4)),                                  # tall, 4 x 4
        (6, dict(dims=D4, time_domain="discrete")),
    ])
    @pytest.mark.parametrize("near_cut", [False, True])
    def test_flags_equal_stacked_ranks(self, seed, kind, near_cut):
        m = testing.random_regular_model(seed, **kind)
        t0 = interior_theta(m, seed)
        blocks = freqplan.default_grid(m, n_points=numkit._CHUNK + 1).sweep
        kernels = None
        if near_cut:
            # Kernel bases whose two first columns lie 1e-12 to 1 apart put
            # Pi_bar_j and T on both sides of their cuts along the grid.
            K = np.array([numkit.right_null_basis(G) for G in blocks.G_yv])
            K[:, :, 1] = K[:, :, 0] + np.geomspace(1e-12, 1.0, len(blocks))[:, None] * K[:, :, 1]
            kernels = [(np.arange(len(blocks)), K)]
        sweep = ident.GridSweep(m, t0, blocks, kernels)
        for i in range(len(blocks)):
            p = sweep.at(i)
            T = p.Pi_bar_r @ numkit.right_null_basis(p.Pi_bar_j)
            assert sweep.shortcut[i] == stacked_ranks_fcr(p.Pi_bar_j, ident.ROBUST_RTOL)
            assert sweep.side[i] == stacked_ranks_fcr(T, ident.DECISION_RTOL)
        if near_cut:
            assert 0 < sweep.side.sum() < len(blocks)
            if p.Pi_bar_j.shape[0] >= p.Pi_bar_j.shape[1]:
                assert 0 < sweep.shortcut.sum() < len(blocks)


def reference_normal_row_rank(model, seed):
    """normal_row_rank with one g_blocks call per draw: the rank or the
    FNRRViolation message, and the frequencies drawn."""
    rng = np.random.default_rng(seed)
    ranks, drawn = [], []
    while len(ranks) < ident._RANK_PROBES and len(drawn) < 20 * ident._RANK_PROBES:
        if model.time_domain == "continuous":
            w = float(10.0 ** rng.uniform(-2.0, 2.0))
        else:
            w = float(rng.uniform(0.05, np.pi - 0.05))
        drawn.append(w)
        try:
            g = response.g_blocks(model, w)
        except PoleProximity:
            continue
        ranks.append(numkit.rank_of(g.G_zu[0]).rank)
    if len(ranks) < ident._RANK_PROBES:
        return "could not place rank probes away from poles", drawn
    if min(ranks) != max(ranks):
        return f"G_zu rank probes disagree: {ranks}; normal rank undecided", drawn
    return max(ranks), drawn


def outcome(fn):
    try:
        return fn()
    except FNRRViolation as exc:
        return str(exc)


class TestNormalRowRank:
    def test_siso1_fnrr(self, siso1):
        assert ident.check_fnrr(siso1) == 1

    @pytest.mark.parametrize("time_domain,split", [("continuous", 1.0), ("discrete", 1.5)])
    @pytest.mark.parametrize("scenario", ["plain", "guard-low", "guard-all", "zero-low"])
    def test_stacked_probes_equal_one_call_per_draw(self, monkeypatch, time_domain, split,
                                                    scenario):
        # The guard (or a vanished G_zu) is forced below ``split``, a
        # deterministic rule on the frequency that both routes see.
        m = testing.random_regular_model(4, time_domain=time_domain)
        sweep, rounds = response.g_sweep, []

        def forced(model, omegas):
            omegas = list(omegas)
            rounds.append(omegas)
            s = sweep(model, omegas)
            low = [w < split for w in s.omegas]
            if scenario in ("guard-all", "guard-low"):
                drop = [True] * len(s) if scenario == "guard-all" else low
                keep = [not d for d in drop]
                return dataclasses.replace(
                    s, omegas=tuple(compress(s.omegas, keep)), lams=tuple(compress(s.lams, keep)),
                    G=s.G[np.array(keep, dtype=bool)],
                    guarded=s.guarded + tuple(PoleProximity(f"omega={w}: forced")
                                              for w in compress(s.omegas, drop)))
            if scenario == "zero-low":
                s = with_blocks(s, [(i, "G_zu", 0.0) for i in np.flatnonzero(low)])
            return s

        monkeypatch.setattr(response, "g_sweep", forced)
        for seed in range(3):
            expected, drawn = reference_normal_row_rank(m, seed)
            rounds.clear()
            assert outcome(lambda: ident.normal_row_rank(m, seed=seed)) == expected
            assert [w for r in rounds for w in r] == drawn
            # Each seed's draws straddle ``split``, so every forced path runs.
            if scenario == "plain":
                assert isinstance(expected, int)
            if scenario == "guard-low":
                assert len(rounds) > 1  # a guarded draw cost another round
            if scenario == "guard-all":
                assert len(drawn) == 20 * ident._RANK_PROBES
                assert expected == "could not place rank probes away from poles"
            if scenario == "zero-low":
                assert expected.startswith("G_zu rank probes disagree: [")

    def test_fnrr_violation_when_mz_exceeds_mu(self):
        # m_z = 2 > m_u = 1 makes full row rank impossible.
        m = testing.random_regular_model(2, dims=Dims(m_x=2, m_u=1, m_y=1, m_z=2, m_v=2, q=2))
        with pytest.raises(FNRRViolation):
            ident.check_fnrr(m)

    def test_fnrr_violation_names_no_removed_operation(self):
        # The message once suggested dualizing the model, an operation that
        # lftident no longer has.
        m = testing.random_regular_model(2, dims=Dims(m_x=2, m_u=1, m_y=1, m_z=2, m_v=2, q=2))
        with pytest.raises(FNRRViolation) as exc:
            ident.check_fnrr(m)
        message = str(exc.value)
        assert message.startswith("G_zu has normal row rank 1 < m_z=2")
        assert "full normal row rank" in message
        assert "dual" not in message.lower()
        assert not hasattr(model_module, "dualize")


class TestUpsilon:
    def test_siso1_identifiable(self, siso1):
        v = ident.upsilon_test(siso1, [0.0], [1.0])
        assert v.status == ident.IDENTIFIABLE
        assert v.residual_nullspace_dim == 0
        assert v.psi_fcr
        assert v.shortcut_omega == 1.0

    def test_dup2_not_identifiable(self, dup2):
        v = ident.upsilon_test(dup2, [0.0, 0.0], [1.0, 2.0])
        assert v.status == ident.NOT_IDENTIFIABLE
        assert not v.psi_fcr
        assert "Psi rank 1 < q=2" in v.reason
        d = v.residual_direction
        assert d is not None
        assert abs(abs(d[0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(d[0] + d[1]) < 1e-12

    def test_theta_free_not_identifiable(self, theta_free):
        v = ident.upsilon_test(theta_free, [0.0], [0.5, 1.5])
        assert v.status == ident.NOT_IDENTIFIABLE
        assert v.residual_nullspace_dim == 1
        assert v.residual_direction is not None

    def test_duplicate_freqs_rejected(self, siso1):
        with pytest.raises(InvalidInput):
            ident.upsilon_test(siso1, [0.0], [1.0, 1.0])

    def test_empty_freqs_rejected(self, siso1):
        with pytest.raises(InvalidInput):
            ident.upsilon_test(siso1, [0.0], [])

    @pytest.mark.parametrize("built_at,freqs", [([1.0], [0.5]), ([1.0, 0.5], [0.5, 1.0])])
    def test_pis_built_elsewhere_rejected(self, siso1, built_at, freqs):
        pis = [ident.pi_at(siso1, [0.0], response.g_blocks(siso1, w)) for w in built_at]
        with pytest.raises(InvalidInput):
            ident.upsilon_test(siso1, [0.0], freqs, pis=pis)

    @pytest.mark.parametrize("seed", range(8))
    def test_necessity_vs_fd_jacobian(self, seed):
        m = kernel_pool(1, start=400 + seed)[0]
        t0 = np.zeros(m.dims.q)
        freqs = [0.21, 1.9]
        v = ident.upsilon_test(m, t0, freqs)
        if v.status == ident.IDENTIFIABLE:
            est = oracle.fd_jacobian(m, t0, freqs)
            assert full_rank_above(est.J, 1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_recursive_equals_direct(self, seed):
        m = kernel_pool(1, start=430 + seed)[0]
        t0 = np.zeros(m.dims.q)
        freqs = [0.17, 1.1, 6.4]
        pd = ident.psi(m)
        pis = [ident.pi_at(m, t0, response.g_blocks(m, w)) for w in freqs]
        v = ident.upsilon_test(m, t0, freqs, pis=pis)
        # The explicit stacked test matrix: U_Psi2 rows on top, then the
        # first frequency's Xi rows and the later ones' [U_Pi2r U_Pi2j]^T
        # rows, all acting on vec-space through I kron (.).
        inner = np.vstack([pis[0].Xi] + [p.u2_stack for p in pis[1:]])
        U = np.vstack([pd.U2.T, np.kron(np.eye(m.dims.m_z), inner)])
        direct_fcr = numkit.rank_of(U, rtol=ident.DECISION_RTOL, scale_floor=1.0).rank == U.shape[1]
        if v.status == ident.IDENTIFIABLE:
            assert direct_fcr
        elif v.status == ident.NOT_IDENTIFIABLE and v.psi_fcr:
            assert not direct_fcr

    @pytest.mark.parametrize("seed", range(5))
    def test_basis_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = kernel_pool(1, start=460 + seed)[0]
        t0 = np.zeros(m.dims.q)
        freqs = [0.23, 2.4]
        pis = [ident.pi_at(m, t0, response.g_blocks(m, w)) for w in freqs]
        pis_rot = []
        for p in pis:
            c = p.kernel_dim
            M = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
            M += 2 * np.eye(c)  # keep comfortably invertible
            pis_rot.append(ident.pi_at(m, t0, p.g, kernel=p.K @ M))
        v1 = ident.upsilon_test(m, t0, freqs, pis=pis)
        v2 = ident.upsilon_test(m, t0, freqs, pis=pis_rot)
        assert v1.status == v2.status
        assert v1.residual_nullspace_dim == v2.residual_nullspace_dim
        for p, pr in zip(pis, pis_rot):
            if p.Xi.size:
                assert np.max(subspace_angles(p.Xi.T, pr.Xi.T)) <= 1e-8
            if p.U_Pi2.size:
                assert np.max(subspace_angles(p.U_Pi2, pr.U_Pi2)) <= 1e-8

    def test_shortcut_consistency(self):
        # Wherever the one-frequency condition holds, the full test on that
        # single frequency must come back identifiable.
        hits = 0
        for m in model_pool(6, start=480):
            t0 = np.zeros(m.dims.q)
            w = 0.9
            try:
                p = ident.pi_at(m, t0, response.g_blocks(m, w))
            except LftIdentError:
                continue
            if p.shortcut:
                v = ident.upsilon_test(m, t0, [w])
                if v.status == ident.INCONCLUSIVE:
                    continue  # sensitivity margin may veto; never a negative
                assert v.status == ident.IDENTIFIABLE
                hits += 1
        assert hits >= 2

    def test_sensitivity_gate_runs_once(self, siso1, monkeypatch):
        # Both frequencies qualify for the shortcut and the chain certifies
        # too; a vetoing gate must be asked once, not once per candidate.
        calls = []
        monkeypatch.setattr(ident, "_sensitivity_margin_ok",
                            lambda *args: calls.append(args) or False)
        v = ident.upsilon_test(siso1, [0.0], [0.5, 1.0])
        assert v.status == ident.INCONCLUSIVE
        assert len(calls) == 1

    def test_not_identifiable_direction_is_exact(self, theta_free):
        # The certified residual direction must leave responses untouched.
        v = ident.upsilon_test(theta_free, [0.0], [0.5, 1.5])
        d = v.residual_direction
        for t in (0.2, -0.35):
            g = response.g_blocks(theta_free, 0.5)
            h0 = response.h_lft(theta_free, [0.0], g)
            h1 = response.h_lft(theta_free, t * d, g)
            assert np.linalg.norm(h1 - h0) <= 1e-12


class TestSufficientCount:
    def test_values(self, siso1):
        assert ident.sufficient_count(siso1) == 3
        m = testing.random_regular_model(1, dims=Dims(m_x=4, m_u=2, m_y=1, m_z=1, m_v=2, q=2))
        assert ident.sufficient_count(m) == 9
