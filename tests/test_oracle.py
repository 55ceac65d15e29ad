import numpy as np
import pytest

from lftident import oracle, response
from lftident.errors import InvalidInput

from conftest import full_rank_above, model_pool


class TestResponseStack:
    def test_ordering(self, siso1):
        blocks = [response.g_blocks(siso1, w) for w in (0.0, 1.0)]
        r = oracle.response_stack(siso1, [0.0], blocks)
        # [Re H(0); Im H(0); Re H(j); Im H(j)] for H = 1/(jw + 1)
        assert np.allclose(r, [1.0, 0.0, 0.5, -0.5])


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


class TestJacobianSloppiness:
    def test_unit_column(self):
        assert np.allclose(oracle.jacobian_sloppiness(np.array([[1.0], [0.0]])), [1.0])

    def test_siso1_two_freqs(self):
        J = np.array([[1.0], [0.0], [0.0], [-0.5]])
        assert np.allclose(oracle.jacobian_sloppiness(J), [0.8])

    def test_diagonal(self):
        J = np.diag([1.0, 10.0])
        assert np.allclose(oracle.jacobian_sloppiness(J), [1.0, 0.01])

    def test_refuses_rank_deficient(self):
        with pytest.raises(InvalidInput):
            oracle.jacobian_sloppiness(np.array([[1.0, 1.0], [0.0, 0.0]]))


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

    def test_programming_error_propagates(self, siso1, monkeypatch):
        # Only lftident errors read as "no match"; a bug must not pass for
        # the absence of a counterexample.
        orig = response.h_lft
        est = oracle.fd_jacobian(siso1, [0.0], [1.0])

        def broken(model, theta, g):
            # theta0 = 0 stays within 1e-3; domain samples do not.
            if np.linalg.norm(theta) > 1e-3:
                raise ValueError("shape bug")
            return orig(model, theta, g)

        monkeypatch.setattr(response, "h_lft", broken)
        with pytest.raises(ValueError, match="shape bug"):
            oracle.random_equivalence_probe(siso1, est, trials=5, seed=5)


class TestEllipsoidEmpirical:
    def test_siso1_tight_at_small_eps(self, siso1):
        stats = oracle.ellipsoid_empirical_check(siso1, [0.0], [0.0, 1.0],
                                                 eps=1e-4, samples=10, seed=2)
        assert 0.999 <= stats.min_ratio <= stats.max_ratio <= 1.001

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
