from collections import Counter

import numpy as np
import pytest

from lftident import freqplan, identifiability as ident, oracle, response
from lftident import sloppiness as slop, testing
from lftident.errors import InvalidInput, PoleProximity
from lftident.model import DescriptorModel, Dims, ParameterDomain

from conftest import interior_theta, model_pool


def closed_form_siso1(theta, omega):
    return 1.0 / (1j * omega + 1.0 - theta)


class TestLambdaAt:
    def test_continuous_zero(self):
        assert response.lambda_at("continuous", 0.0) == 0.0

    def test_continuous_one(self):
        assert response.lambda_at("continuous", 1.0) == 1j

    def test_discrete_pi(self):
        assert abs(response.lambda_at("discrete", np.pi) - (-1.0)) < 1e-15

    def test_discrete_out_of_range(self):
        with pytest.raises(InvalidInput):
            response.lambda_at("discrete", 4.0)

    def test_unknown_domain(self):
        with pytest.raises(InvalidInput):
            response.lambda_at("laplace", 1.0)


class TestGBlocks:
    def test_siso1_at_one(self, siso1):
        g = response.g_blocks(siso1, 1.0)
        expected = 0.5 - 0.5j  # 1/(j+1)
        for block in (g.G_yu, g.G_yv, g.G_zu, g.G_zv):
            assert abs(block[0, 0] - expected) < 1e-12

    def test_siso1_at_zero(self, siso1):
        g = response.g_blocks(siso1, 0.0)
        for block in (g.G_yu, g.G_yv, g.G_zu, g.G_zv):
            assert abs(block[0, 0] - 1.0) < 1e-12

    def test_pole_proximity(self):
        one = np.array([[1.0]])
        m = DescriptorModel(
            time_domain="continuous",
            dims=Dims(1, 1, 1, 1, 1, 1),
            E=one, A_xx=0 * one, B_xu=one, B_xv=one, C_yx=one, C_zx=one,
            D_yu=0 * one, D_yv=0 * one, D_zu=0 * one, D_zv=0 * one,
            P=(one,), theta_domain=ParameterDomain(radius=0.5),
        )
        with pytest.raises(PoleProximity):
            response.g_blocks(m, 0.0)  # integrator pole sits at the origin


class TestHRoutes:
    @pytest.mark.parametrize(
        "theta,omega,expected",
        [
            (0.0, 0.0, 1.0),
            (0.5, 1.0, 0.4 - 0.8j),
            (0.3, 2.0, closed_form_siso1(0.3, 2.0)),
        ],
    )
    def test_siso1_closed_form(self, siso1, theta, omega, expected):
        h = response.h_lft(siso1, [theta], response.g_blocks(siso1, omega))
        assert abs(h.H[0, 0] - expected) < 1e-12
        hs = response.h_statespace(siso1, [theta], omega)
        assert abs(hs.H[0, 0] - expected) < 1e-12

    def test_theta_zero_collapses_to_gyu(self, siso1):
        g = response.g_blocks(siso1, 0.7)
        h = response.h_lft(siso1, [0.0], g)
        assert np.allclose(h.H, g.G_yu)

    @pytest.mark.parametrize("seed", range(10))
    def test_route_equivalence_random(self, seed):
        m = model_pool(1, start=200 + seed)[0]
        theta = interior_theta(m, seed)
        w = [0.31, 1.3] if m.time_domain == "continuous" else [0.31, 1.3]
        for wi in w:
            h1 = response.h_lft(m, theta, response.g_blocks(m, wi)).H
            h2 = response.h_statespace(m, theta, wi).H
            rel = np.linalg.norm(h1 - h2) / max(np.linalg.norm(h1), 1e-12)
            assert rel <= 1e-9

    def test_conjugate_symmetry(self):
        for m in model_pool(3, start=230):
            if m.time_domain != "continuous":
                continue
            theta = interior_theta(m, 2)
            Hp = response.h_lft(m, theta, response.g_blocks(m, 0.9)).H
            Hm = response.h_lft(m, theta, response.g_blocks(m, -0.9)).H
            assert np.allclose(Hm, np.conj(Hp), atol=1e-12 * max(1.0, np.linalg.norm(Hp)))


class TestEvaluatedOnce:
    """Every entry point solves the pencil once per listed or grid frequency."""

    FREQS = [0.01, 0.16070528182616392]  # certify kernel-rich seed 22 at theta0 = 0

    @pytest.fixture
    def model(self):
        return testing.random_regular_model(22, kernel_rich=True)

    @pytest.fixture
    def calls(self, monkeypatch):
        omegas = []
        orig = response.g_blocks

        def counting(model, omega):
            omegas.append(float(omega))
            return orig(model, omega)

        monkeypatch.setattr(response, "g_blocks", counting)
        return omegas

    @staticmethod
    def fnrr_probes(model, calls, seed):
        ident.check_fnrr(model, seed=seed)
        probes = Counter(calls)
        calls.clear()
        return probes

    def test_fd_jacobian_and_s_matrices(self, model, calls):
        t0 = np.zeros(model.dims.q)
        oracle.fd_jacobian(model, t0, self.FREQS)
        assert calls == self.FREQS
        calls.clear()
        slop.s_matrices(model, t0, self.FREQS)
        assert calls == self.FREQS

    def test_grid_search(self, model, calls):
        seed = 11
        t0 = np.zeros(model.dims.q)
        probes = self.fnrr_probes(model, calls, seed)
        grid = freqplan.default_grid(model, n_points=40)
        plan = freqplan._search_once(model, t0, grid, ident.psi(model), seed)
        assert plan.status == freqplan.CERTIFIED and len(plan.selected) == 2
        raw = np.geomspace(freqplan.DEFAULT_W_MIN, freqplan.DEFAULT_W_MAX, 40).tolist()
        counts = Counter(calls)
        assert [counts.pop(w) for w in raw] == [1] * len(raw)
        assert set(counts) <= set(probes)  # the rest are FNRR probes of upsilon_test

    def test_upsilon_test_fresh_list(self, model, calls):
        seed = 11
        probes = self.fnrr_probes(model, calls, seed)
        v = ident.upsilon_test(model, np.zeros(model.dims.q), self.FREQS, fnrr_seed=seed)
        assert v.status == ident.IDENTIFIABLE  # the sensitivity gate ran
        assert Counter(calls) == probes + Counter(self.FREQS)


class TestRegularityIdentity:
    def test_siso1(self, siso1):
        err = response.regularity_identity_check(siso1, [0.3], [1j])
        assert err <= 1e-10

    def test_theta_zero_exact(self, siso1):
        # Both sides collapse to det(lambda E - A_xx) when theta = 0.
        err = response.regularity_identity_check(siso1, [0.0], [0.4 + 1.1j, -0.8 + 0.2j])
        assert err <= 1e-12

    def test_random_probes(self):
        rng = np.random.default_rng(4)
        for m in model_pool(4, start=300):
            theta = interior_theta(m, 9)
            probes = [complex(rng.uniform(0.5, 2), rng.uniform(-2, 2)) for _ in range(5)]
            assert response.regularity_identity_check(m, theta, probes) <= 1e-8
