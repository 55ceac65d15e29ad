import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftident import freqplan, identifiability as ident
from lftident import numkit, oracle, response, sloppiness as slop, testing
from lftident.errors import ConstructionError, GammaRankDeficient, InvalidInput, RankDrop
from lftident.model import DescriptorModel, Dims, ParameterDomain


def two_channel(gain2=10.0):
    """Two decoupled first-order channels with parameter gains 1 and gain2."""
    I2 = np.eye(2)
    Z2 = np.zeros((2, 2))
    return DescriptorModel(
        time_domain="continuous",
        dims=Dims(2, 2, 2, 2, 2, 2),
        E=I2, A_xx=-I2, B_xu=I2, B_xv=np.diag([1.0, gain2]),
        C_yx=I2, C_zx=I2, D_yu=Z2, D_yv=Z2, D_zu=Z2, D_zv=Z2,
        P=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        theta_domain=ParameterDomain(radius=0.5),
    )


def zu_rank_drop_model():
    """G_zu = (lambda^2 + 1)/((lambda+1)(lambda+2)) vanishes at omega = 1."""
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    return DescriptorModel(
        time_domain="continuous",
        dims=Dims(2, 1, 1, 1, 1, 1),
        E=np.eye(2), A_xx=A,
        B_xu=np.array([[0.0], [1.0]]), B_xv=np.array([[1.0], [0.0]]),
        C_yx=np.array([[1.0, 0.0]]), C_zx=np.array([[-1.0, -3.0]]),
        D_yu=np.zeros((1, 1)), D_yv=np.zeros((1, 1)),
        D_zu=np.array([[1.0]]), D_zv=np.zeros((1, 1)),
        P=(np.array([[1.0]]),),
        theta_domain=ParameterDomain(radius=0.5),
    )


def certified_fixture(seed):
    m = testing.random_regular_model(seed, kernel_rich=True)
    t0 = np.zeros(m.dims.q)
    plan = freqplan.search_frequencies(m, t0)
    if plan.status != freqplan.CERTIFIED:
        pytest.skip(f"seed {seed} not certifiable on the default grid")
    return m, t0, list(plan.selected)


class TestPointwiseFactors:
    def test_siso1_at_zero(self, siso1):
        f = slop.pointwise_factors(siso1, [0.0], response.g_blocks(siso1, 0.0))
        assert np.allclose(f.Phi_l, [[1.0]])
        assert np.allclose(f.Phi_r, [[1.0]])

    def test_siso1_at_one(self, siso1):
        f = slop.pointwise_factors(siso1, [0.0], response.g_blocks(siso1, 1.0))
        assert abs(abs(f.Phi_l[0, 0]) - np.sqrt(2.0)) < 1e-12
        assert abs(abs(f.Phi_r[0, 0]) - np.sqrt(2.0)) < 1e-12

    def test_reconstruction(self):
        m = testing.random_regular_model(9, kernel_rich=True)
        g = response.g_blocks(m, 0.8)
        f = slop.pointwise_factors(m, np.zeros(m.dims.q), g)
        recon = f.U_yv1 @ np.diag(f.sigma_yv) @ f.V_yv1.conj().T
        assert np.linalg.norm(recon - g.G_yv) < 1e-10 * max(1.0, np.linalg.norm(g.G_yv))

    def test_theta_zero_loop_identity(self):
        m = testing.random_regular_model(9, kernel_rich=True)
        f = slop.pointwise_factors(m, np.zeros(m.dims.q), response.g_blocks(m, 0.8))
        expected = f.V_yv1 @ np.diag(1.0 / f.sigma_yv)
        assert np.allclose(f.Phi_l, expected)  # P(0) = 0 makes the loop trivial

    def test_rank_drop(self):
        m = zu_rank_drop_model()
        with pytest.raises(RankDrop):
            slop.pointwise_factors(m, [0.0], response.g_blocks(m, 1.0))
        slop.pointwise_factors(m, [0.0], response.g_blocks(m, 0.5))  # fine away from the zero


def synthetic_factors(Phi_l, Phi_r, omega=1.0):
    """PointwiseFactors carrying only the loop-corrected factors Phi_l, Phi_r."""
    (m_v, r_yv), r_zu = Phi_l.shape, Phi_r.shape[0]
    return slop.PointwiseFactors(
        omega=omega,
        U_yv1=np.zeros((1, r_yv)), sigma_yv=np.ones(r_yv), V_yv1=np.zeros((m_v, r_yv)),
        U_zu=np.zeros((r_zu, r_zu)), sigma_zu=np.ones(r_zu), V_zu1=np.zeros((1, r_zu)),
        Phi_l=Phi_l, Phi_r=Phi_r,
    )


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def reference_q(f):
    """Q_r and Q_j from eight np.kron calls, as the pair was first assembled."""
    Lr, Lj, Rr, Rj = f.Phi_l.real, f.Phi_l.imag, f.Phi_r.real, f.Phi_r.imag
    idx = np.arange(f.r_yv * f.r_zu).reshape(f.r_zu, f.r_yv)
    cols = np.hstack([idx, idx + f.r_yv * f.r_zu]).reshape(-1)
    Q_r = np.hstack([np.kron(Rr.T, Lr) - np.kron(Rj.T, Lj),
                     -np.kron(Rj.T, Lr) - np.kron(Rr.T, Lj)])[:, cols]
    Q_j = np.hstack([np.kron(Rj.T, Lr) + np.kron(Rr.T, Lj),
                     np.kron(Rr.T, Lr) - np.kron(Rj.T, Lj)])[:, cols]
    return Q_r, Q_j


def assert_same_bits(A, B):
    assert A.shape == B.shape and A.dtype == B.dtype
    assert np.array_equal(A, B) and A.tobytes() == B.tobytes()


D12 = Dims(12, 2, 1, 2, 5, 10)  # the benchmark's 12-state shape

# The reports workload's fixtures at their stored frequencies (bench/workloads.py).
REPORTS_FIXTURES = {
    "siso1": (testing.siso1, (0.01,)),
    "kr-00": (lambda: testing.random_regular_model(0, kernel_rich=True), (0.01,)),
    "kr-22": (lambda: testing.random_regular_model(22, kernel_rich=True),
              (0.01, 0.16070528182616392)),
    "kr-53": (lambda: testing.random_regular_model(53, kernel_rich=True),
              (0.01, 0.352970730273065)),
    "kr-dt-00": (lambda: testing.random_regular_model(0, kernel_rich=True, time_domain="discrete"),
                 (0.015707963267948967,)),
    "kr-se-00": (lambda: testing.random_regular_model(0, kernel_rich=True, singular_E=True),
                 (0.01,)),
    "d12-01": (lambda: testing.random_regular_model(1, dims=D12),
               (0.01, 1.1226677735108135, 2.354286414322418)),
    "d12-dt-02": (lambda: testing.random_regular_model(2, dims=D12, time_domain="discrete"),
                  (0.015707963267948967, 0.3298672286269283, 0.6754424205218056)),
    "d12-se-00": (lambda: testing.random_regular_model(0, dims=D12, singular_E=True),
                  (0.01, 1.0718913192051276, 2.1461411978584035)),
}


class TestQPair:
    def test_identity_factors(self, siso1):
        qp = slop.q_pair(slop.pointwise_factors(siso1, [0.0], response.g_blocks(siso1, 0.0)))
        assert np.allclose(qp.Q_r, [[1.0, 0.0]])
        assert np.allclose(qp.Q_j, [[0.0, 1.0]])

    def test_imaginary_left_factor(self):
        m = testing.siso1()
        base = slop.pointwise_factors(m, [0.0], response.g_blocks(m, 0.0))
        f = dataclasses.replace(base, Phi_l=np.array([[1j]]), Phi_r=np.array([[1.0]]))
        qp = slop.q_pair(f)
        assert np.allclose(qp.Q_r, [[0.0, -1.0]])
        assert np.allclose(qp.Q_j, [[1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_action_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        r_yv, r_zu, m_v = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 4
        Phi_l = random_complex(rng, m_v, r_yv)
        Phi_r = random_complex(rng, r_zu, r_zu)
        qp = slop.q_pair(synthetic_factors(Phi_l, Phi_r))
        for _ in range(5):
            D = rng.standard_normal((r_yv, r_zu)) + 1j * rng.standard_normal((r_yv, r_zu))
            xi = numkit.vec(np.vstack([D.real, D.imag]))
            prod = Phi_l @ D @ Phi_r
            assert np.max(np.abs(qp.Q_r @ xi - numkit.vec(prod.real))) <= 1e-10 * max(
                1.0, np.max(np.abs(prod))
            )
            assert np.max(np.abs(qp.Q_j @ xi - numkit.vec(prod.imag))) <= 1e-10 * max(
                1.0, np.max(np.abs(prod))
            )

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_action_identity_property(self, seed):
        # Real, imaginary and general complex factors; r_yv = 0 has no action.
        rng = np.random.default_rng(seed)
        m_v, r_yv, m_z = (int(k) for k in rng.integers([1, 0, 1], [5, 4, 4]))

        def factor(m, n):
            A = random_complex(rng, m, n)
            kind = rng.integers(3)
            return A if kind == 0 else A.real + 0j if kind == 1 else 1j * A.imag

        Phi_l, Phi_r = factor(m_v, r_yv), factor(m_z, m_z)
        qp = slop.q_pair(synthetic_factors(Phi_l, Phi_r))
        assert qp.Q_r.shape == qp.Q_j.shape == (m_v * m_z, 2 * r_yv * m_z)
        D = random_complex(rng, r_yv, m_z)
        xi = numkit.vec(np.vstack([D.real, D.imag]))
        prod = Phi_l @ D @ Phi_r
        tol = 1e-12 * max(1.0, np.abs(Phi_l).max(initial=0)) * max(1.0, np.abs(Phi_r).max()) * max(
            1.0, np.abs(D).max(initial=0)) * max(r_yv, 1) * m_z
        assert np.abs(qp.Q_r @ xi - numkit.vec(prod.real)).max(initial=0) <= tol
        assert np.abs(qp.Q_j @ xi - numkit.vec(prod.imag)).max(initial=0) <= tol

    @pytest.mark.parametrize("name", REPORTS_FIXTURES)
    def test_reports_fixtures_equal_kron_reference(self, name):
        build, freqs = REPORTS_FIXTURES[name]
        m = build()
        t0 = np.zeros(m.dims.q)
        for w in freqs:
            f = slop.pointwise_factors(m, t0, response.g_blocks(m, w))
            qp = slop.q_pair(f)
            Q_r, Q_j = reference_q(f)
            assert_same_bits(qp.Q_r, Q_r)
            assert_same_bits(qp.Q_j, Q_j)

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("m_v,r_yv,m_z", [(3, 0, 2), (2, 0, 1), (4, 2, 1), (1, 1, 1), (3, 2, 2)])
    def test_edge_shapes_equal_kron_reference(self, m_v, r_yv, m_z, real):
        # Zero imaginary parts of either sign, as real responses (omega = 0)
        # give them, make signed zeros in the products; Q keeps their signs.
        rng = np.random.default_rng(m_v + 10 * r_yv + 100 * m_z)
        Phi_l = random_complex(rng, m_v, r_yv)
        Phi_r = random_complex(rng, m_z, m_z)
        Phi_l.imag[:, :1] = -0.0
        if real:
            Phi_l.imag[:] = -0.0
            Phi_r.imag[:] = 0.0
        f = synthetic_factors(Phi_l, Phi_r)
        qp = slop.q_pair(f)
        Q_r, Q_j = reference_q(f)
        assert_same_bits(qp.Q_r, Q_r)
        assert_same_bits(qp.Q_j, Q_j)

    @pytest.mark.parametrize("r_yv,r_zu", [(1, 1), (3, 2), (2, 4)])
    def test_bulk_probes_equal_per_probe_draws(self, r_yv, r_zu):
        rng = np.random.default_rng(slop._Q_CHECK_SEED)
        per_probe = [rng.standard_normal((r_yv, r_zu)) + 1j * rng.standard_normal((r_yv, r_zu))
                     for _ in range(slop._Q_CHECK_PROBES)]
        assert_same_bits(slop._q_probes(r_yv, r_zu), np.array(per_probe))

    def test_corrupted_q_raises(self, monkeypatch):
        rng = np.random.default_rng(4)
        f = synthetic_factors(random_complex(rng, 3, 2), random_complex(rng, 2, 2), omega=0.25)
        kron = numkit._kron
        monkeypatch.setattr(numkit, "_kron", lambda A, B: kron(A, B) * (1 + 1e-6))
        with pytest.raises(ConstructionError) as err:
            slop.q_pair(f)
        found = re.fullmatch(r"Q action self-check failed at omega=0\.25: residual (\S+)",
                             str(err.value))
        assert found
        # The first failing probe's residual, one probe at a time.
        Q_r, Q_j = (Q * (1 + 1e-6) for Q in reference_q(f))
        scale = max(np.linalg.norm(f.Phi_l), 1.0) * max(np.linalg.norm(f.Phi_r), 1.0)
        for D in slop._q_probes(f.r_yv, f.r_zu):
            xi = numkit.vec(np.vstack([D.real, D.imag]))
            prod = f.Phi_l @ D @ f.Phi_r
            res = max(np.abs(Q_r @ xi - numkit.vec(prod.real)).max(),
                      np.abs(Q_j @ xi - numkit.vec(prod.imag)).max())
            if res > 1e-10 * scale * max(1.0, np.abs(D).max()):
                break
        assert float(found.group(1)) == pytest.approx(res, rel=1e-2)


class TestGammaOmega:
    def test_single_frequency_shapes(self):
        m, t0, w = certified_fixture(8)
        G, O = slop.gamma_omega(m, t0, [w[0]])
        g = response.g_blocks(m, w[0])
        p = ident.pi_at(m, t0, g)
        f = slop.pointwise_factors(m, t0, g)
        q = m.dims.q
        m_vz = m.dims.m_v * m.dims.m_z
        # No consistency rows at N = 1: solvability + realness only.
        assert G.shape == (m_vz - q + m_vz, 2 * p.kernel_dim * m.dims.m_z)
        assert O.shape == (G.shape[0], 2 * f.r_yv * f.r_zu)

    def test_column_counts(self):
        m, t0, w = certified_fixture(22)
        G, O = slop.gamma_omega(m, t0, w)
        g = response.g_blocks(m, w[0])
        c = ident.pi_at(m, t0, g).kernel_dim
        r_yv = slop.pointwise_factors(m, t0, g).r_yv
        N = len(w)
        assert G.shape[1] == N * 2 * c * m.dims.m_z
        assert O.shape[1] == N * 2 * r_yv * m.dims.m_z

    @pytest.mark.parametrize("seed", [0, 18, 22, 35, 53])
    def test_gamma_fcr_iff_identifiable(self, seed):
        m = testing.random_regular_model(seed, kernel_rich=True)
        t0 = np.zeros(m.dims.q)
        freqs = [0.19, 1.7]
        v = ident.upsilon_test(m, t0, freqs)
        G, _ = slop.gamma_omega(m, t0, freqs)
        fcr = numkit.rank_of(G, rtol=ident.DECISION_RTOL, scale_floor=1.0).rank == G.shape[1]
        if v.status == ident.IDENTIFIABLE:
            assert fcr
        elif v.status == ident.NOT_IDENTIFIABLE:
            assert not fcr

    def test_psi_deficient_refused(self, dup2):
        with pytest.raises(GammaRankDeficient):
            slop.gamma_omega(dup2, [0.0, 0.0], [1.0])


class TestSMatrices:
    def test_defining_relation(self):
        m, t0, w = certified_fixture(22)
        S = slop.s_matrices(m, t0, w)
        resid = np.linalg.norm(S.Gamma @ S.S_A - S.Omega @ S.S_H)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(S.Omega @ S.S_H))

    def test_ns_equals_q(self):
        for seed in (0, 22, 24):
            m, t0, w = certified_fixture(seed)
            S = slop.s_matrices(m, t0, w)
            assert S.n_s == m.dims.q

    def test_energy_gram_is_identity_like(self):
        m, t0, w = certified_fixture(24)
        S = slop.s_matrices(m, t0, w)
        assert np.allclose(S.M, S.S_H.T @ S.S_H, atol=1e-10)

    def test_refuses_non_certifying_freqs(self, theta_free):
        with pytest.raises(GammaRankDeficient):
            slop.s_matrices(theta_free, [0.0], [0.4, 1.9])

    def test_stilde_reconstructs_unitarily(self):
        m, t0, w = certified_fixture(22)
        S = slop.s_matrices(m, t0, w)
        rng = np.random.default_rng(0)
        xi = rng.standard_normal(S.n_s)
        for k in range(len(w)):
            # S_tilde applies orthonormal-column factors: norms must match.
            coords = S.complex_block(k) @ xi
            assert abs(np.linalg.norm(S.S_tilde[k] @ xi) - np.linalg.norm(coords)) < 1e-10

    @pytest.mark.parametrize("kind", ["pis", "factors"])
    def test_injected_factors_built_elsewhere_rejected(self, siso1, kind):
        g = response.g_blocks(siso1, 1.0)
        build = ident.pi_at if kind == "pis" else slop.pointwise_factors
        with pytest.raises(InvalidInput):
            slop.s_matrices(siso1, [0.0], [0.5], **{kind: [build(siso1, [0.0], g)]})


class TestMetrics:
    def test_siso1_single_freq(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0])
        rep = slop.metrics(S)
        assert np.allclose(rep.mu, [1.0], atol=1e-9)
        assert rep.sm_abs == pytest.approx(1.0, abs=1e-9)

    def test_siso1_two_freqs(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        rep = slop.metrics(S)
        assert np.allclose(rep.mu, [0.8], atol=1e-9)
        assert rep.sm_abs == pytest.approx(np.sqrt(0.8), abs=1e-9)

    def test_two_channel_relative_sloppiness(self):
        m = two_channel(10.0)
        S = slop.s_matrices(m, [0.0, 0.0], [0.0])
        rep = slop.metrics(S)
        assert np.allclose(rep.mu, [1.0, 0.01], rtol=1e-9)
        assert rep.sm_rel[0] == pytest.approx(10.0, rel=1e-9)
        est = oracle.fd_jacobian(m, [0.0, 0.0], [0.0])
        assert np.allclose(oracle.jacobian_sloppiness(est), rep.mu, rtol=1e-6)

    def test_k_independence(self):
        for seed in (22, 24, 53):
            m, t0, w = certified_fixture(seed)
            if len(w) < 2:
                continue
            S = slop.s_matrices(m, t0, w)
            mu1 = slop.metrics(S, k=1).mu
            mu2 = slop.metrics(S, k=2).mu
            assert np.max(np.abs(mu1 - mu2) / mu1) <= 1e-6

    def test_directions_unit_and_independent(self):
        m, t0, w = certified_fixture(22)
        S = slop.s_matrices(m, t0, w)
        rep = slop.metrics(S)
        for i in range(rep.directions.shape[1]):
            assert abs(np.linalg.norm(rep.directions[:, i]) - 1.0) < 1e-9
        assert np.linalg.matrix_rank(rep.directions) == rep.directions.shape[1]

    def test_bad_k_rejected(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0])
        with pytest.raises(InvalidInput):
            slop.metrics(S, k=2)

    def test_unitary_factor_invariance(self):
        rng = np.random.default_rng(5)
        m, t0, w = certified_fixture(24)
        S1 = slop.s_matrices(m, t0, w)
        facs = [slop.pointwise_factors(m, t0, response.g_blocks(m, wi)) for wi in w]
        rot = []
        for f in facs:
            d1 = np.exp(1j * rng.uniform(0, 2 * np.pi, f.r_yv))
            d2 = np.exp(1j * rng.uniform(0, 2 * np.pi, f.r_zu))
            rot.append(dataclasses.replace(
                f,
                U_yv1=f.U_yv1 * d1, V_yv1=f.V_yv1 * d1,
                U_zu=f.U_zu * d2, V_zu1=f.V_zu1 * d2,
                Phi_l=f.Phi_l * d1, Phi_r=np.conj(d2)[:, None] * f.Phi_r,
            ))
        S2 = slop.s_matrices(m, t0, w, factors=rot)
        mu1, mu2 = slop.metrics(S1).mu, slop.metrics(S2).mu
        assert np.max(np.abs(mu1 - mu2) / mu1) <= 1e-6


class TestEllipsoid:
    def test_shrinks_to_point(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        for eps in (1e-2, 1e-6):
            ell = slop.frobenius_ellipsoid(S, eps)
            xi = ell.boundary_point(np.ones(S.n_s))
            assert np.linalg.norm(ell.theta_of(xi) - ell.theta0) <= ell.eps * (
                slop.metrics(S).sm_abs * 1.01
            )

    def test_contains(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        ell = slop.frobenius_ellipsoid(S, 1e-3)
        xi = ell.boundary_point(np.ones(S.n_s))
        assert ell.contains(xi)
        assert not ell.contains(1.01 * xi)
        assert ell.contains(np.zeros(S.n_s))

    def test_psd_quadratic_form(self):
        for seed in (0, 22):
            m, t0, w = certified_fixture(seed)
            S = slop.s_matrices(m, t0, w)
            eig = np.linalg.eigvalsh(S.M)
            assert np.all(eig >= -1e-12)

    def test_boundary_ratio_tends_to_one(self, siso1):
        stats = oracle.ellipsoid_empirical_check(siso1, [0.0], [0.0, 1.0], eps=1e-4,
                                                 samples=10, seed=1)
        assert 0.999 <= stats.min_ratio and stats.max_ratio <= 1.001

    def test_invalid_eps(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0])
        for eps in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidInput):
                slop.frobenius_ellipsoid(S, eps)

    @pytest.mark.parametrize("direction", [[np.nan], [np.inf], [-np.inf]])
    def test_non_finite_direction_rejected(self, siso1, direction):
        ell = slop.frobenius_ellipsoid(slop.s_matrices(siso1, [0.0], [0.0, 1.0]), 1e-3)
        with pytest.raises(InvalidInput, match="non-finite"):
            ell.boundary_point(direction)


class TestSpectralMembership:
    def test_zero_inside(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        assert slop.spectral_membership(S, np.zeros(S.n_s), 1e-3)

    def test_frobenius_implies_spectral(self):
        rng = np.random.default_rng(3)
        for seed in (0, 22, 53):
            m, t0, w = certified_fixture(seed)
            S = slop.s_matrices(m, t0, w)
            ell = slop.frobenius_ellipsoid(S, 1e-3)
            for _ in range(10):
                xi = ell.boundary_point(rng.standard_normal(S.n_s))
                assert slop.spectral_membership(S, xi, 1e-3)

    def test_scaled_point_outside(self, siso1):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        eps = 1e-3
        xi = np.ones(S.n_s)
        sig = slop.deviation_sigmas(S, xi)
        xi_out = xi * (1.01 * eps / sig.max())
        assert not slop.spectral_membership(S, xi_out, eps)
        xi_in = xi * (0.99 * eps / sig.max())
        assert slop.spectral_membership(S, xi_in, eps)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-3])
    def test_invalid_eps(self, siso1, eps):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        with pytest.raises(InvalidInput, match="eps must be finite and nonnegative"):
            slop.spectral_membership(S, np.zeros(S.n_s), eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_xi_rejected(self, siso1, bad):
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        xi = np.full(S.n_s, bad)
        with pytest.raises(InvalidInput, match="xi contains non-finite entries"):
            slop.deviation_sigmas(S, xi)
        with pytest.raises(InvalidInput, match="xi contains non-finite entries"):
            slop.spectral_membership(S, xi, 1e-3)

    def test_sigmas_match_direct_reconstruction(self):
        rng = np.random.default_rng(8)
        m, t0, w = certified_fixture(22)
        S = slop.s_matrices(m, t0, w)
        for _ in range(5):
            xi = rng.standard_normal(S.n_s)
            sig = slop.deviation_sigmas(S, xi)
            for k, f in enumerate(S.factors):
                coords = S.complex_block(k) @ xi
                D = numkit.unvec(coords, f.r_yv, f.r_zu)
                direct = np.linalg.svd(f.U_yv1 @ D @ f.V_zu1.T, compute_uv=False)[0]
                assert abs(direct - sig[k]) <= 1e-12 * max(1.0, direct)
