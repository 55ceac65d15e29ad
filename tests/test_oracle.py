import dataclasses

import numpy as np
import pytest

from lftident import numkit, oracle, response, sloppiness, testing
from lftident.errors import InvalidInput, LftIdentError, WellPosednessViolation
from lftident.model import DescriptorModel, Dims, ParameterDomain

from conftest import full_rank_above, model_pool, per_theta_h_lft


# Per-theta references: the loops the stacked oracle replaced.

def per_theta_response_stack(model, theta, blocks):
    rows = []
    for g in blocks:
        H = per_theta_h_lft(model, theta, g)
        rows.append(numkit.vec(H.real))
        rows.append(numkit.vec(H.imag))
    return np.concatenate(rows)


def per_theta_fd_jacobian(model, theta0, freqs, h):
    """(J, step_halving_change), one perturbed theta at a time: the domain
    check of each k, then its + and - thetas, each over every frequency."""
    t0 = model.check_theta(theta0)
    blocks = [response.g_blocks(model, w) for w in freqs]
    q = model.dims.q

    def jac(step):
        cols = []
        for k in range(q):
            e = np.zeros(q)
            e[k] = step
            for probe in (t0 + e, t0 - e):
                if not model.theta_domain.contains(probe):
                    raise InvalidInput(
                        f"theta0 +/- h e_{k} leaves the parameter domain; shrink h")
            plus = per_theta_response_stack(model, t0 + e, blocks)
            minus = per_theta_response_stack(model, t0 - e, blocks)
            cols.append((plus - minus) / (2.0 * step))
        return np.column_stack(cols)

    J = jac(h)
    J_half = jac(h / 2.0)
    scale = max(float(np.linalg.norm(J)), 1e-300)
    return J_half, float(np.linalg.norm(J - J_half)) / scale


def per_theta_probe(model, est, trials, seed):
    """The first matching candidate, tested one theta and one frequency at a time."""
    t0 = est.theta0
    blocks = [response.g_blocks(model, w) for w in est.freqs]
    base = [per_theta_h_lft(model, t0, g) for g in blocks]
    rng = np.random.default_rng(seed)

    def matches(theta):
        if np.linalg.norm(theta - t0) <= 1e-9:
            return False
        try:
            for g, H0 in zip(blocks, base):
                if np.linalg.norm(per_theta_h_lft(model, theta, g) - H0) > oracle.RESPONSE_MATCH_TOL:
                    return False
        except LftIdentError:
            return False
        return True

    directions = list(numkit.right_null_basis(
        np.column_stack([numkit.vec(Pk) for Pk in model.P])).real.T)
    _, sig, Vh = np.linalg.svd(est.J)
    directions.extend(Vh[np.count_nonzero(sig > 1e-6 * max(1.0, float(np.linalg.norm(est.J)))):])
    for d in directions:
        for t in (0.3, 0.1, 0.01, -0.3, -0.1, -0.01):
            cand = t0 + t * d
            if model.theta_domain.contains(cand) and matches(cand):
                return cand
    for _ in range(trials):
        cand = oracle._domain_sample(rng, model)
        if matches(cand):
            return cand
    return None


def two_loop_model(radius: float) -> DescriptorModel:
    """Two decoupled loops on a box domain: I - P(theta) G_zv is singular at
    omega = 0 when theta_1 = 1 (G_1 = 1/(s + 1)) and at omega = 1 when
    theta_2 = 1 (G_2 = s/(s^2 + s + 1), real 1 at s = j)."""
    A = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, -1.0]])
    B_xv = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    C_zx = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return DescriptorModel(
        time_domain="continuous",
        dims=Dims(3, 1, 1, 2, 2, 2),
        E=np.eye(3), A_xx=A,
        B_xu=np.ones((3, 1)), B_xv=B_xv, C_yx=np.ones((1, 3)), C_zx=C_zx,
        D_yu=np.zeros((1, 1)), D_yv=np.zeros((1, 2)),
        D_zu=np.zeros((2, 1)), D_zv=np.zeros((2, 2)),
        P=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        theta_domain=ParameterDomain(radius=radius, norm="box"),
    )


class TestResponseStack:
    def test_ordering(self, siso1):
        blocks = [response.g_blocks(siso1, w) for w in (0.0, 1.0)]
        r = oracle.response_stack(siso1, [[0.0]], blocks)
        # One row per theta: [Re H(0); Im H(0); Re H(j); Im H(j)] for H = 1/(jw + 1)
        assert r.shape == (1, 4)
        assert np.allclose(r[0], [1.0, 0.0, 0.5, -0.5])


@pytest.mark.parametrize("freqs", [[], [1.0, 1.0]])
@pytest.mark.parametrize("check", [
    lambda m, w: oracle.fd_jacobian(m, [0.0], w),
    lambda m, w: oracle.random_equivalence_probe(m, oracle.fd_jacobian(m, [0.0], w), trials=5),
    lambda m, w: oracle.ellipsoid_empirical_check(m, [0.0], w, eps=1e-3),
], ids=["fd_jacobian", "random_equivalence_probe", "ellipsoid_empirical_check"])
def test_frequency_list_checked(siso1, check, freqs):
    with pytest.raises(InvalidInput):
        check(siso1, freqs)


class TestFdJacobian:
    def test_siso1_at_zero(self, siso1):
        est = oracle.fd_jacobian(siso1, [0.0], [0.0], h=1e-5)
        assert np.max(np.abs(est.J - np.array([[1.0], [0.0]]))) <= 1e-9

    def test_siso1_at_one(self, siso1):
        est = oracle.fd_jacobian(siso1, [0.0], [1.0], h=1e-5)
        # dH/dtheta = 1/(j+1)^2 = -0.5j
        assert np.max(np.abs(est.J - np.array([[0.0], [-0.5]]))) <= 1e-9

    def test_theta_free_zero_jacobian(self, theta_free):
        est = oracle.fd_jacobian(theta_free, [0.0], [0.5, 2.0])
        assert np.max(np.abs(est.J)) <= 1e-12

    def test_step_halving_order(self, siso1):
        # Central differences: halving the step divides the truncation error
        # by about four.
        errs = []
        for h in (1e-3, 5e-4):
            est = oracle.fd_jacobian(siso1, [0.1], [1.0], h=h)
            exact = 1.0 / (1j + 1.0 - 0.1) ** 2
            J_exact = np.array([[exact.real], [exact.imag]])
            errs.append(np.max(np.abs(est.J - J_exact)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_domain_violation(self, siso1):
        with pytest.raises(InvalidInput):
            oracle.fd_jacobian(siso1, [0.0], [1.0], h=10.0)

    @pytest.mark.parametrize("case", range(6))
    def test_matches_per_theta_reference(self, case):
        m = [testing.siso1(), testing.dup2(), *model_pool(4, start=40)][case]
        t0 = 0.3 * np.sqrt(m.theta_domain.radius) * np.ones(m.dims.q) / m.dims.q
        freqs = [0.3, 1.7] if m.time_domain == "continuous" else [0.3, 2.9]
        est = oracle.fd_jacobian(m, t0, freqs)
        J, change = per_theta_fd_jacobian(m, t0, freqs, est.step)
        assert np.array_equal(est.J, J) and est.J.flags.c_contiguous
        assert est.step_halving_change == change
        assert est.freqs == tuple(freqs) and [g.omegas for g in est.blocks] == [(w,) for w in freqs]

    # (theta0, h, freqs, box radius, error): two_loop_model fails its loop
    # guard at theta_1 = 1 (omega = 0) and at theta_2 = 1 (omega = 1).
    PRECEDENCE = [
        # k = 0 fails its guard before k = 1 leaves the domain.
        ([0.9, 1.85], 0.1, [0.0, 1.0], 1.9, WellPosednessViolation),
        # k = 0 leaves the domain before k = 1 fails its guard.
        ([1.85, 0.9], 0.1, [0.0, 1.0], 1.9, InvalidInput),
        # theta0 + h e_1 fails at omega = 0 only, theta0 + h e_2 at omega = 1
        # only: the theta order wins over the listed frequency order.
        ([0.9, 0.9], 0.1, [1.0, 0.0], 3.0, WellPosednessViolation),
        # Both thetas of k = 0 fail at omega = 1: + comes first.
        ([0.5, 1.0], 0.1, [0.0, 1.0], 3.0, WellPosednessViolation),
        # theta0 + h e_1 = (1, 1) fails at both frequencies: the listed order wins.
        ([0.9, 1.0], 0.1, [1.0, 0.0], 3.0, WellPosednessViolation),
        ([0.9, 1.0], 0.1, [0.0, 1.0], 3.0, WellPosednessViolation),
        # Only the halved step meets the singular theta.
        ([0.95, 0.0], 0.1, [0.0, 1.0], 3.0, WellPosednessViolation),
    ]

    @pytest.mark.parametrize("theta0, h, freqs, radius, error", PRECEDENCE)
    def test_error_precedence_matches_per_theta_reference(self, theta0, h, freqs, radius, error):
        m = two_loop_model(radius)
        with pytest.raises(error) as ref:
            per_theta_fd_jacobian(m, theta0, freqs, h)
        with pytest.raises(error) as got:
            oracle.fd_jacobian(m, theta0, freqs, h=h)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, siso1, h):
        with pytest.raises(InvalidInput, match=r"^finite-difference step must be finite and > 0"):
            oracle.fd_jacobian(siso1, [0.0], [0.0, 1.0], h=h)


class TestLocalIdentifiability:
    def test_siso1_true(self, siso1):
        assert oracle.local_identifiability(oracle.fd_jacobian(siso1, [0.0], [1.0]))

    def test_dup2_false(self, dup2):
        assert not oracle.local_identifiability(oracle.fd_jacobian(dup2, [0.0, 0.0], [1.0]))

    def test_theta_free_false(self, theta_free):
        assert not oracle.local_identifiability(oracle.fd_jacobian(theta_free, [0.0], [1.0]))

    def test_estimate_carries_the_one_rank_decision(self, siso1, dup2, theta_free):
        # The report's singular values, the local verdict and the Jacobian
        # spectrum all read est.decision: the singular values of numpy's
        # compute_uv=False SVD of J, bit for bit, and the decisions of an
        # independent rank_of(J).  A 2 x 3 Jacobian is wide.
        wide = testing.random_regular_model(4, dims=Dims(m_x=2, m_u=1, m_y=1, m_z=1, m_v=2, q=3))
        cases = [(siso1, [1.0]), (siso1, [0.0, 1.0]), (dup2, [1.0]), (theta_free, [1.0]),
                 (wide, [1.0])] + [(m, [0.5, 2.0]) for m in model_pool(3, start=30)]
        for m, freqs in cases:
            est = oracle.fd_jacobian(m, np.zeros(m.dims.q), freqs)
            sigma = est.decision.singular_values
            assert np.array_equal(sigma, np.linalg.svd(est.J, compute_uv=False))
            assert est.decision.rank == numkit.rank_of(est.J).rank
            local = oracle.local_identifiability(est)
            assert local == (numkit.rank_of(est.J).rank == m.dims.q)
            if local:
                assert np.array_equal(oracle.jacobian_sloppiness(est),
                                      np.sort(1.0 / numkit.rank_of(est.J).singular_values ** 2)[::-1])
        assert not oracle.local_identifiability(oracle.fd_jacobian(wide, np.zeros(3), [1.0]))


def estimate_of(J):
    """A JacobianEstimate carrying the Jacobian ``J`` and its rank decision."""
    est = oracle.fd_jacobian(testing.siso1(), [0.0], [1.0])
    J = np.asarray(J, dtype=float)
    return dataclasses.replace(est, J=J, decision=numkit.rank_of(J))


class TestJacobianSloppiness:
    def test_unit_column(self):
        assert np.allclose(oracle.jacobian_sloppiness(estimate_of([[1.0], [0.0]])), [1.0])

    def test_siso1_two_freqs(self):
        J = np.array([[1.0], [0.0], [0.0], [-0.5]])
        assert np.allclose(oracle.jacobian_sloppiness(estimate_of(J)), [0.8])

    def test_diagonal(self):
        J = np.diag([1.0, 10.0])
        assert np.allclose(oracle.jacobian_sloppiness(estimate_of(J)), [1.0, 0.01])

    def test_refuses_rank_deficient(self):
        est = estimate_of([[1.0, 1.0], [0.0, 0.0]])
        assert not oracle.local_identifiability(est)
        with pytest.raises(InvalidInput):
            oracle.jacobian_sloppiness(est)


class TestEquivalenceProbe:
    def test_dup2_counterexample(self, dup2):
        est = oracle.fd_jacobian(dup2, [0.0, 0.0], [1.0, 2.0])
        theta = oracle.random_equivalence_probe(dup2, est, trials=50, seed=3)
        assert theta is not None
        # P1 = P2 makes (t, -t) response-invariant exactly.
        assert abs(theta[0] + theta[1]) < 1e-9
        g = response.g_blocks(dup2, 1.0)
        H0 = response.h_lft(dup2, [0.0, 0.0], g)
        H1 = response.h_lft(dup2, theta, g)
        assert np.linalg.norm(H1 - H0) <= 1e-10

    def test_theta_free_counterexample(self, theta_free):
        est = oracle.fd_jacobian(theta_free, [0.0], [0.7])
        theta = oracle.random_equivalence_probe(theta_free, est, trials=5, seed=0)
        assert theta is not None

    def test_siso1_none(self, siso1):
        est = oracle.fd_jacobian(siso1, [0.0], [1.0])
        assert oracle.random_equivalence_probe(siso1, est, trials=300, seed=5) is None

    @pytest.mark.parametrize("case", range(7))
    def test_matches_per_theta_reference(self, case):
        models = [testing.dup2(), testing.theta_free(), testing.siso1(),
                  testing.random_model(4), testing.random_model(5, duplicate_P=True),
                  testing.random_model(6, time_domain="discrete", duplicate_P=True),
                  testing.random_model(7, kernel_rich=True)]
        m = models[case]
        t0 = np.zeros(m.dims.q)
        freqs = [0.4, 1.3]
        est = oracle.fd_jacobian(m, t0, freqs)
        for seed in (0, 1):
            got = oracle.random_equivalence_probe(m, est, trials=60, seed=seed)
            ref = per_theta_probe(m, est, 60, seed)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(got, ref)

    def test_loop_failure_is_no_match_for_that_theta_only(self, monkeypatch):
        # y reads only the first loop, so theta_2 is free; theta_2 = 1 fails
        # the loop guard at omega = 1.  The Jacobian is replaced by a full-rank
        # one so that only the domain samples below are tried.
        m = dataclasses.replace(two_loop_model(3.0), C_yx=np.array([[1.0, 0.0, 0.0]]))
        est = oracle.fd_jacobian(m, [0.0, 0.0], [0.0, 1.0])
        est = dataclasses.replace(est, J=np.eye(2))
        samples = [[0.0, 1.0], [0.5, 0.2], [0.0, 0.5], [0.0, 0.4]]
        draws = iter(np.array(samples))
        monkeypatch.setattr(oracle, "_domain_sample", lambda rng, model: next(draws))
        got = oracle.random_equivalence_probe(m, est, trials=4)
        draws = iter(np.array(samples))
        with pytest.raises(WellPosednessViolation):
            per_theta_h_lft(m, samples[0], est.blocks[1])
        assert np.array_equal(got, per_theta_probe(m, est, 4, 0))
        assert got.tolist() == [0.0, 0.5]
        # A chunk whose every candidate fails the guard is a chunk without a match.
        draws = iter(np.array(samples[:1]))
        assert oracle.random_equivalence_probe(m, est, trials=1) is None

    def test_stops_at_the_first_chunk_with_a_match(self, monkeypatch):
        # Same free theta_2 as above; only the third domain sample matches.
        m = dataclasses.replace(two_loop_model(3.0), C_yx=np.array([[1.0, 0.0, 0.0]]))
        est = dataclasses.replace(oracle.fd_jacobian(m, [0.0, 0.0], [0.0, 1.0]), J=np.eye(2))
        drawn = []

        def draw(rng, model):
            drawn.append([0.0, 0.5] if len(drawn) == 2 else [0.5, 0.2])
            return np.array(drawn[-1])

        monkeypatch.setattr(oracle, "_domain_sample", draw)
        got = oracle.random_equivalence_probe(m, est, trials=10 * numkit._CHUNK)
        assert got.tolist() == [0.0, 0.5]
        assert len(drawn) == numkit._CHUNK
        # A line-search match draws no domain sample at all.
        drawn.clear()
        dup2 = testing.dup2()
        est = oracle.fd_jacobian(dup2, [0.0, 0.0], [1.0, 2.0])
        assert oracle.random_equivalence_probe(dup2, est, trials=1000) is not None
        assert drawn == []

    def test_programming_error_propagates(self, siso1, monkeypatch):
        # Only lftident errors read as "no match"; a bug must not pass for
        # the absence of a counterexample.
        orig = response.h_sweep
        est = oracle.fd_jacobian(siso1, [0.0], [1.0])

        def broken(model, thetas, g):
            # theta0 = 0 stays within 1e-3; domain samples do not.
            if np.max(np.linalg.norm(thetas, axis=1)) > 1e-3:
                raise ValueError("shape bug")
            return orig(model, thetas, g)

        monkeypatch.setattr(response, "h_sweep", broken)
        with pytest.raises(ValueError, match="shape bug"):
            oracle.random_equivalence_probe(siso1, est, trials=5, seed=5)


def test_norms_above_decides_like_one_norm_per_array():
    # The stacked norm and np.linalg.norm can differ in the last bit; a
    # tolerance at or next to the per-array norm must be decided as it decides.
    rng = np.random.default_rng(0)
    D = rng.standard_normal((300, 3, 4)) + 1j * rng.standard_normal((300, 3, 4))
    for i, M in enumerate(D):
        norm = np.linalg.norm(M)
        for tol in (norm, np.nextafter(norm, 0.0), np.nextafter(norm, np.inf)):
            assert oracle._norms_above(D[i:i + 1], tol).tolist() == [norm > tol]


class TestEllipsoidEmpirical:
    def test_siso1_tight_at_small_eps(self, siso1):
        stats = oracle.ellipsoid_empirical_check(siso1, [0.0], [0.0, 1.0],
                                                 eps=1e-4, samples=10, seed=2)
        assert 0.999 <= stats.min_ratio <= stats.max_ratio <= 1.001

    def test_one_evaluation_per_frequency_matches_per_sample_reference(self, siso1, monkeypatch):
        seen = []
        orig = response.g_sweep

        def spy(model, omegas):
            seen.append([float(w) for w in omegas])
            return orig(model, omegas)

        monkeypatch.setattr(response, "g_sweep", spy)
        # Samples in two chunks and a bit.
        n = 2 * numkit._CHUNK + 3
        stats = oracle.ellipsoid_empirical_check(siso1, [0.0], [0.0, 1.0],
                                                 eps=1e-3, samples=n, seed=4)
        assert seen == [[0.0, 1.0]]
        monkeypatch.setattr(response, "g_sweep", orig)
        # The per-sample loop: S from a fresh evaluation, H one theta at a time.
        t0, freqs, eps = np.zeros(1), [0.0, 1.0], 1e-3
        S = sloppiness.s_matrices(siso1, t0, freqs)
        ell = sloppiness.frobenius_ellipsoid(S, eps)
        rng = np.random.default_rng(4)
        blocks = [response.g_blocks(siso1, w) for w in freqs]
        base = [per_theta_h_lft(siso1, t0, g) for g in blocks]
        ratios = []
        for _ in range(n):
            u = rng.standard_normal(S.n_s)
            if float(u @ S.M @ u) <= 0.0:
                continue
            theta = ell.theta_of(ell.boundary_point(u))
            energy = 0.0
            for g, H0 in zip(blocks, base):
                energy += float(np.linalg.norm(per_theta_h_lft(siso1, theta, g) - H0) ** 2)
            ratios.append(energy / eps ** 2)
        r = np.asarray(ratios)
        assert stats == oracle.RatioStats(eps=eps, samples=len(ratios), min_ratio=float(r.min()),
                                          mean_ratio=float(r.mean()), max_ratio=float(r.max()))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, siso1, samples):
        with pytest.raises(InvalidInput, match="samples must be a positive integer"):
            oracle.ellipsoid_empirical_check(siso1, [0.0], [0.0, 1.0], eps=1e-3,
                                             samples=samples)

    def test_band_shrinks_linearly(self, siso1):
        devs = []
        for eps in (1e-2, 1e-3):
            stats = oracle.ellipsoid_empirical_check(siso1, [0.0], [0.0, 1.0],
                                                     eps=eps, samples=10, seed=2)
            devs.append(max(abs(stats.min_ratio - 1.0), abs(stats.max_ratio - 1.0)))
        assert devs[1] <= 0.2 * devs[0]  # at least linear shrinkage

    def test_soundness_chain(self):
        # Certified identifiable fixtures must have an FCR Jacobian; probe
        # counterexamples must only show up on non-identifiable ones.
        from lftident import freqplan

        for m in model_pool(6, start=700):
            t0 = np.zeros(m.dims.q)
            plan = freqplan.search_frequencies(m, t0)
            if plan.status != freqplan.CERTIFIED:
                continue
            w = list(plan.selected)
            est = oracle.fd_jacobian(m, t0, w)
            assert full_rank_above(est.J, 1e-6)
            assert oracle.random_equivalence_probe(m, est, trials=40, seed=1) is None
