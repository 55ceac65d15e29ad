import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftident import cli, freqplan, identifiability as ident, numkit, oracle, response
from lftident import sloppiness as slop, testing
from lftident.errors import InvalidInput, PoleProximity, WellPosednessViolation
from lftident.model import DescriptorModel, Dims, ParameterDomain, save_model

from conftest import (h_statespace, interior_theta, model_pool, per_theta_h_lft,
                      regularity_identity_check)


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
            assert abs(block[0, 0, 0] - expected) < 1e-12

    def test_siso1_at_zero(self, siso1):
        g = response.g_blocks(siso1, 0.0)
        for block in (g.G_yu, g.G_yv, g.G_zu, g.G_zv):
            assert abs(block[0, 0, 0] - 1.0) < 1e-12

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            response.g_blocks(integrator(), 0.0)  # the pole sits at the origin


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
        assert abs(h[0, 0] - expected) < 1e-12
        hs = h_statespace(siso1, [theta], omega)
        assert abs(hs[0, 0] - expected) < 1e-12

    def test_theta_zero_collapses_to_gyu(self, siso1):
        g = response.g_blocks(siso1, 0.7)
        h = response.h_lft(siso1, [0.0], g)
        assert np.allclose(h, g.G_yu[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_route_equivalence_random(self, seed):
        m = model_pool(1, start=200 + seed)[0]
        theta = interior_theta(m, seed)
        w = [0.31, 1.3] if m.time_domain == "continuous" else [0.31, 1.3]
        for wi in w:
            h1 = response.h_lft(m, theta, response.g_blocks(m, wi))
            h2 = h_statespace(m, theta, wi)
            rel = np.linalg.norm(h1 - h2) / max(np.linalg.norm(h1), 1e-12)
            assert rel <= 1e-9

    def test_conjugate_symmetry(self):
        for m in model_pool(3, start=230):
            if m.time_domain != "continuous":
                continue
            theta = interior_theta(m, 2)
            Hp = response.h_lft(m, theta, response.g_blocks(m, 0.9))
            Hm = response.h_lft(m, theta, response.g_blocks(m, -0.9))
            assert np.allclose(Hm, np.conj(Hp), atol=1e-12 * max(1.0, np.linalg.norm(Hp)))


class TestHSweep:
    """A stacked h_sweep equals one per-theta evaluation (``per_theta_h_lft``)
    bit for bit, with the same loop-guard complaints."""

    @staticmethod
    def assert_matches_per_theta(model, thetas, g) -> list[bool]:
        H, violations = response.h_sweep(model, thetas, g)
        kept = iter(H)
        mask = []
        for i, theta in enumerate(thetas):
            try:
                ref = per_theta_h_lft(model, theta, g)
            except WellPosednessViolation as exc:
                mask.append(False)
                assert str(violations[i]) == str(exc)
                with pytest.raises(WellPosednessViolation) as one:
                    response.h_lft(model, theta, g)
                assert str(one.value) == str(exc)
                continue
            mask.append(True)
            assert i not in violations
            assert np.array_equal(next(kept), ref)
            assert np.array_equal(response.h_lft(model, theta, g), ref)
        assert next(kept, None) is None
        assert sorted(violations) == [i for i, passed in enumerate(mask) if not passed]
        return mask

    def test_siso1_singular_loop_in_the_middle(self):
        # 1 - theta / (j*omega + 1) vanishes at theta = 1, omega = 0.
        m = testing.siso1(radius=4.0)
        g = response.g_blocks(m, 0.0)
        mask = self.assert_matches_per_theta(m, [[0.3], [1.0], [-0.5]], g)
        assert mask == [True, False, True]
        with pytest.raises(WellPosednessViolation, match=(
                r"^I - P\(theta\) G_zv\(j\*omega\) singular at omega=0.0, "
                r"theta=\[1.0\] \(sigma_min=0.000e\+00\)$")):
            response.h_lft(m, [1.0], g)

    @pytest.mark.parametrize("seed", [3, 8, 21])
    @pytest.mark.parametrize("kind", [
        dict(dims=Dims(12, 2, 1, 2, 5, 10)),
        dict(kernel_rich=True, time_domain="discrete"),
        dict(singular_E=True),
    ], ids=["d12", "kr-dt", "se"])
    def test_random_models(self, seed, kind):
        m = testing.random_model(seed, **kind)
        rng = np.random.default_rng(seed)
        # At omega = 0 the blocks are real, so theta = d / lam for a real
        # eigenvalue lam of P(d) G_zv makes the loop singular.
        g = response.g_blocks(m, 0.0)
        for _ in range(20):
            d = rng.standard_normal(m.dims.q)
            lam = np.linalg.eigvals(m.p_of(d) @ g.G_zv[0].real)
            real = lam[(lam.imag == 0) & (lam.real != 0)].real
            if real.size:
                break
        singular = d / real[np.argmax(np.abs(real))]
        thetas = [interior_theta(m, seed + i) for i in range(5)]
        thetas.insert(2, singular)
        assert self.assert_matches_per_theta(m, thetas, g) == [True] * 2 + [False] + [True] * 3
        g1 = response.g_blocks(m, 0.7)
        assert all(self.assert_matches_per_theta(m, np.array(thetas)[[0, 1, 3, 4, 5]], g1))

    def test_singular_loops_across_chunks(self):
        # Two chunks and a bit; the singular thetas sit in the second chunk
        # and make up the whole third one, whose H stack is then empty.
        m = testing.siso1(radius=4.0)
        g = response.g_blocks(m, 0.0)
        n = 2 * numkit._CHUNK + 1
        thetas = np.linspace(-0.9, 0.9, n)[:, None]
        singular = [numkit._CHUNK + 3, n - 1]
        thetas[singular] = 1.0
        mask = self.assert_matches_per_theta(m, thetas, g)
        assert [i for i, passed in enumerate(mask) if not passed] == singular

    def test_empty_stack(self, siso1):
        H, violations = response.h_sweep(siso1, np.zeros((0, 1)), response.g_blocks(siso1, 1.0))
        assert H.shape == (0, 1, 1) and violations == {}

    @pytest.mark.parametrize("thetas", [[0.1], [[0.1, 0.2]], [[np.nan]]])
    def test_bad_stack(self, siso1, thetas):
        with pytest.raises(InvalidInput):
            response.h_sweep(siso1, thetas, response.g_blocks(siso1, 1.0))


class TestEvaluatedOnce:
    """Every entry point solves the pencil once per listed, grid or FNRR probe
    frequency; all solves go through the one stacked evaluator ``g_sweep``."""

    FREQS = [0.01, 0.16070528182616392]  # certify kernel-rich seed 22 at theta0 = 0

    @pytest.fixture
    def model(self):
        return testing.random_regular_model(22, kernel_rich=True)

    @pytest.fixture
    def calls(self, monkeypatch):
        omegas = []
        orig = response.g_sweep

        def counting(model, freqs):
            freqs = list(freqs)
            omegas.extend(float(w) for w in freqs)
            return orig(model, freqs)

        monkeypatch.setattr(response, "g_sweep", counting)
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
        plan = freqplan.search_frequencies(model, t0, grid=grid, fnrr_seed=seed)
        assert plan.status == freqplan.CERTIFIED and len(plan.selected) == 2
        raw = np.geomspace(freqplan.DEFAULT_W_MIN, freqplan.DEFAULT_W_MAX, 40).tolist()
        counts = Counter(calls)
        assert [counts.pop(w) for w in raw] == [1] * len(raw)
        assert counts == probes  # the search checks FNRR once, not once per verdict

    def test_upsilon_test_fresh_list(self, model, calls):
        seed = 11
        probes = self.fnrr_probes(model, calls, seed)
        v = ident.upsilon_test(model, np.zeros(model.dims.q), self.FREQS, fnrr_seed=seed)
        assert v.status == ident.IDENTIFIABLE  # the sensitivity gate ran
        assert Counter(calls) == probes + Counter(self.FREQS)

    def test_listed_ops_sweep_once(self, model, monkeypatch):
        # upsilon_test and s_matrices evaluate their listed frequencies in one
        # g_sweep and decompose them in one GridSweep; only the FNRR probes
        # of upsilon_test sweep besides.
        freqs = self.FREQS + [1.0]
        t0 = np.zeros(model.dims.q)
        sweeps, builds, probing = [], [], []
        g_sweep, build, rank = response.g_sweep, ident.GridSweep.__init__, ident.normal_row_rank

        def probe(*args, **kwargs):
            probing.append(True)
            try:
                return rank(*args, **kwargs)
            finally:
                probing.pop()

        monkeypatch.setattr(ident, "normal_row_rank", probe)
        monkeypatch.setattr(response, "g_sweep",
                            lambda m, w: sweeps.append((list(w), bool(probing))) or g_sweep(m, w))
        monkeypatch.setattr(ident.GridSweep, "__init__",
                            lambda self, *a: builds.append(a[2].omegas) or build(self, *a))
        assert ident.upsilon_test(model, t0, freqs).status == ident.IDENTIFIABLE
        assert [w for w, probe in sweeps if not probe] == [freqs]
        assert any(probe for _, probe in sweeps)
        assert builds == [tuple(freqs)]
        sweeps.clear()
        builds.clear()
        assert slop.s_matrices(model, t0, freqs).n_s == model.dims.q
        assert sweeps == [(freqs, False)]
        assert builds == [tuple(freqs)]

    def test_oracle_op(self, model, calls, monkeypatch, tmp_path, capsys):
        # fd_jacobian's blocks serve the Pi factors, the verdict, the S
        # matrices and the probe: one G and one Pi evaluation per frequency.
        seed = 11
        probes = self.fnrr_probes(model, calls, seed)
        pis = []
        orig = ident.pi_at
        monkeypatch.setattr(ident, "pi_at",
                            lambda m, t0, g, **kw: pis.extend(g.omegas) or orig(m, t0, g, **kw))
        sweep = ident.pi_sweep
        monkeypatch.setattr(ident, "pi_sweep",
                            lambda m, t0, g: pis.extend(g.omegas) or sweep(m, t0, g))
        path = tmp_path / "model.json"
        save_model(model, path)
        code = cli.main(["oracle", "--model", str(path),
                         "--theta0", ",".join(["0"] * model.dims.q),
                         "--freqs", ",".join(repr(w) for w in self.FREQS),
                         "--trials", "20", "--seed", str(seed)])
        assert code == cli.EXIT_OK
        assert '"mu_agreement": {' in capsys.readouterr().out  # s_matrices ran
        assert Counter(calls) == probes + Counter(self.FREQS)
        assert pis == self.FREQS


def integrator() -> DescriptorModel:
    """1/s: the pencil at j*omega is j*omega itself, so its sigma_min is |omega|."""
    one = np.array([[1.0]])
    return DescriptorModel(
        time_domain="continuous",
        dims=Dims(1, 1, 1, 1, 1, 1),
        E=one, A_xx=0 * one, B_xu=one, B_xv=one, C_yx=one, C_zx=one,
        D_yu=0 * one, D_yv=0 * one, D_zu=0 * one, D_zv=0 * one,
        P=(one,), theta_domain=ParameterDomain(radius=0.5),
    )


def oscillator(w_star: float) -> DescriptorModel:
    """Undamped oscillator: poles at +- j w_star on the imaginary axis."""
    one = np.ones((2, 1))
    return DescriptorModel(
        time_domain="continuous",
        dims=Dims(2, 1, 1, 1, 1, 1),
        E=np.eye(2), A_xx=np.array([[0.0, w_star], [-w_star, 0.0]]),
        B_xu=one, B_xv=one, C_yx=one.T, C_zx=one.T,
        D_yu=np.zeros((1, 1)), D_yv=np.zeros((1, 1)),
        D_zu=np.zeros((1, 1)), D_zv=np.zeros((1, 1)),
        P=(np.array([[0.1]]),),
        theta_domain=ParameterDomain(radius=0.5),
    )


def reference_g(model, omega) -> np.ndarray:
    """[[G_yu, G_yv], [G_zu, G_zv]] from one dense solve of the pencil at omega."""
    lam = response.lambda_at(model.time_domain, omega)
    X = np.linalg.solve(lam * model.E - model.A_xx,
                        np.hstack([model.B_xu, model.B_xv]).astype(complex))
    D = np.block([[model.D_yu, model.D_yv], [model.D_zu, model.D_zv]])
    return D + np.vstack([model.C_yx, model.C_zx]) @ X


def svd_everything_pencil_solve(E, A, lams, rhs, guard_scale):
    """The pole guard by a full SVD of every pencil, kept as the reference for
    response.g_sweep: the solutions of the kept lams and per lam None or
    the guard's complaint."""
    pencils = np.multiply.outer(np.array(lams), E)
    pencils -= A
    sig = np.linalg.svd(pencils, compute_uv=False)
    floor = np.maximum(response.POLE_GUARD_RTOL * guard_scale, 1e-14 * np.maximum(sig[:, 0], 1.0))
    low = sig[:, -1] < floor
    kept = pencils[~low] if low.any() else pencils
    X = np.linalg.solve(kept, np.broadcast_to(rhs, (kept.shape[0], *rhs.shape)))
    complaints = [
        f"sigma_min(lambda E - A) = {s:.3e} below guard {f:.3e}" if bad else None
        for s, f, bad in zip(sig[:, -1], floor, low)
    ]
    return X, complaints


def with_pole(m: DescriptorModel, w_star: float) -> DescriptorModel:
    """``m`` with its first two states replaced by an undamped block whose
    poles are lambda(w_star) and its conjugate: +- j w_star in continuous
    time, on the unit circle in discrete time."""
    lam = response.lambda_at(m.time_domain, w_star)
    E, A = m.E.copy(), m.A_xx.copy()
    E[:2, :], E[:, :2], A[:2, :], A[:, :2] = 0.0, 0.0, 0.0, 0.0
    E[:2, :2] = np.eye(2)
    A[:2, :2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
    return dataclasses.replace(m, E=E, A_xx=A)


def near_pole_model(w_star: float) -> DescriptorModel:
    """A 60-state continuous-time model with poles at +- j w_star; the other
    58 states are a random model's."""
    return with_pole(testing.random_regular_model(1, dims=FIXTURE_DIMS["d60"]), w_star)


# The benchmark's fixture dimensions (D12, D40 and D60 of bench/workloads.py).
FIXTURE_DIMS = {"d12": Dims(12, 2, 1, 2, 5, 10), "d40": Dims(40, 3, 1, 2, 6, 12),
                "d60": Dims(60, 4, 2, 4, 8, 16)}
KINDS = {"ct": {}, "dt": dict(time_domain="discrete"), "se": dict(singular_E=True)}


def largest_floor(model, lam) -> float:
    """The largest pole-guard floor the pencil at ``lam`` could have, through
    Frobenius norms (see response.g_sweep)."""
    a_fro, e_fro = np.linalg.norm(model.A_xx), np.linalg.norm(model.E)
    return max(response.POLE_GUARD_RTOL * a_fro, 1e-14 * max(abs(lam) * e_fro + a_fro, 1.0))


def spy_routes(monkeypatch) -> list[tuple[np.ndarray, bool]]:
    """Record each group of pencils ``response.g_sweep`` solves: its
    lams, and whether it was solved against B alone (covered by an anchor)
    rather than against [B | I]."""
    routes = []
    solve_group = response._solve_group

    def spy(pencils, idx, lam, E, A, rhs, X, *rest):
        routes.append((lam[idx].copy(), rhs.shape[1] == X.shape[-1]))
        return solve_group(pencils, idx, lam, E, A, rhs, X, *rest)

    monkeypatch.setattr(response, "_solve_group", spy)
    return routes


def covered_lams(routes) -> list[complex]:
    return [lam for lams, b_only in routes if b_only for lam in lams.tolist()]


def spy_linalg(monkeypatch, *names) -> list[tuple[str, tuple]]:
    """Record each call of the named ``np.linalg`` functions: its name and
    its arguments after the first."""
    calls = []
    for name in names:
        def counting(a, *args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls.append((_name, args + tuple(kwargs.values())))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def takes_a_two_norm(calls) -> bool:
    """Whether any recorded ``np.linalg.norm`` call asked for a 2-norm (an SVD)."""
    return any(name == "norm" and 2 in args for name, args in calls)


class TestSweep:
    """A stacked sweep equals one g_blocks call per frequency, bit for bit, and
    each point's blocks keep the strides of a one-matrix evaluation's blocks."""

    CHUNK = numkit._CHUNK
    # (points, index of the guarded oscillator point): the last point of a
    # short grid, the last point of the first chunk, the first of the second.
    SIZES = [(CHUNK - 1, CHUNK - 2), (CHUNK, CHUNK - 1), (CHUNK + 1, CHUNK)]

    @staticmethod
    def assert_matches_pointwise(model, omegas):
        sweep = response.g_sweep(model, omegas)
        kept, guarded = iter(sweep), iter(sweep.guarded)
        for w in omegas:
            try:
                g = response.g_blocks(model, w)
            except PoleProximity as exc:
                assert str(next(guarded)) == str(exc)
                continue
            s = next(kept)
            assert (s.omegas, s.lams) == (g.omegas, g.lams)
            G = reference_g(model, w)
            for name, ref in (("G_yu", G[:model.dims.m_y, :model.dims.m_u]),
                              ("G_yv", G[:model.dims.m_y, model.dims.m_u:]),
                              ("G_zu", G[model.dims.m_y:, :model.dims.m_u]),
                              ("G_zv", G[model.dims.m_y:, model.dims.m_u:])):
                block = getattr(s, name)
                assert block.shape == (1, *ref.shape)
                assert np.array_equal(block[0], getattr(g, name)[0])
                assert np.array_equal(block[0], ref)
                # The strides of the one-matrix route's views, on which BLAS
                # results depend, for the point and for the whole stack.
                assert block[0].strides == getattr(g, name)[0].strides == ref.strides
                assert getattr(sweep, name).strides[1:] == ref.strides
        assert next(kept, None) is None and next(guarded, None) is None

    @staticmethod
    def assert_matches_svd_everything(model, omegas):
        B = np.hstack([model.B_xu, model.B_xv]).astype(complex)
        lams = [response.lambda_at(model.time_domain, w) for w in omegas]
        X, complaints = svd_everything_pencil_solve(
            model.E, model.A_xx, lams, B, float(np.linalg.norm(model.A_xx, 2)))
        G = np.block([[model.D_yu, model.D_yv], [model.D_zu, model.D_zv]]) \
            + np.vstack([model.C_yx, model.C_zx]) @ X
        sweep = response.g_sweep(model, omegas)
        assert [str(e) for e in sweep.guarded] == [
            f"omega={w}: {c}" for w, c in zip(omegas, complaints) if c is not None]
        assert list(sweep.omegas) == [w for w, c in zip(omegas, complaints) if c is None]
        assert np.array_equal(
            np.block([[sweep.G_yu, sweep.G_yv], [sweep.G_zu, sweep.G_zv]]), G)

    @pytest.mark.parametrize("n,_", SIZES)
    @pytest.mark.parametrize("kind", [dict(kernel_rich=True), dict(time_domain="discrete"),
                                      dict(singular_E=True)])
    def test_random_models(self, kind, n, _):
        m = testing.random_regular_model(5, **kind)
        if m.time_domain == "continuous":
            omegas = np.geomspace(1e-2, 1e2, n).tolist()
        else:
            omegas = np.linspace(np.pi / n, np.pi, n).tolist()
        self.assert_matches_pointwise(m, omegas)
        self.assert_matches_svd_everything(m, omegas)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("kind", [dict(kernel_rich=True), dict(time_domain="discrete"),
                                      dict(dims=FIXTURE_DIMS["d12"], singular_E=True)])
    def test_blocks_equal_one_call_per_frequency_at_chunk_edges(self, kind, n):
        m = testing.random_regular_model(7, **kind)
        if m.time_domain == "continuous":
            omegas = np.geomspace(1e-2, 1e2, n).tolist()
        else:
            omegas = np.linspace(np.pi / n, np.pi, n).tolist()
        sweep = response.g_sweep(m, omegas)
        assert len(sweep) == n and sweep.G.shape == (n, m.dims.m_y + m.dims.m_z,
                                                     m.dims.m_u + m.dims.m_v)
        self.assert_matches_pointwise(m, omegas)
        self.assert_matches_svd_everything(m, omegas)

    @pytest.mark.parametrize("model", [oscillator, near_pole_model])
    def test_poles_inside_a_chunk_and_on_its_boundary(self, model):
        # -w* sits inside the first chunk and w* opens the second: both drop
        # out, in order, with the complaints of one g_blocks call each.
        w_star = 0.7
        m = model(w_star)
        omegas = np.geomspace(1e-2, 1e2, 2 * self.CHUNK + 1).tolist()
        inside, boundary = 10, self.CHUNK
        omegas[inside], omegas[boundary] = -w_star, w_star
        sweep = response.g_sweep(m, omegas)
        assert [str(e).split(":")[0] for e in sweep.guarded] == [
            f"omega={-w_star}", f"omega={w_star}"]
        assert list(sweep.omegas) == [w for i, w in enumerate(omegas)
                                      if i not in (inside, boundary)]
        assert len(sweep) == sweep.G.shape[0] == len(omegas) - 2
        self.assert_matches_pointwise(m, omegas)
        self.assert_matches_svd_everything(m, omegas)

    @pytest.mark.parametrize("kind", [dict(kernel_rich=True), dict(time_domain="discrete"),
                                      dict(singular_E=True)])
    def test_matches_scipy_lu_route(self, kind):
        # np.linalg.solve and scipy's lu_factor/lu_solve may round differently
        # in the last bits (they can link different LAPACK builds); G must
        # agree to within the backward error of either solve.
        import scipy.linalg

        m = testing.random_regular_model(5, **kind)
        B = np.hstack([m.B_xu, m.B_xv]).astype(complex)
        C = np.vstack([m.C_yx, m.C_zx])
        D = np.block([[m.D_yu, m.D_yv], [m.D_zu, m.D_zv]])
        sweep = freqplan.default_grid(m, n_points=40).sweep
        for lam, G in zip(sweep.lams, sweep.G, strict=True):
            pencil = lam * m.E - m.A_xx
            X = scipy.linalg.lu_solve(scipy.linalg.lu_factor(pencil), B)
            bound = 1e-13 * np.linalg.cond(pencil) * np.linalg.norm(C) * np.linalg.norm(X)
            assert np.linalg.norm(G - (D + C @ X)) <= bound

    @pytest.mark.parametrize("n,hit", SIZES)
    def test_guarded_point_on_chunk_boundary(self, n, hit):
        omegas = np.geomspace(1e-2, 1e2, n).tolist()
        m = oscillator(omegas[hit])
        sweep = response.g_sweep(m, omegas)
        assert len(sweep.guarded) == 1 and len(sweep) == n - 1
        assert omegas[hit] not in sweep.omegas
        self.assert_matches_pointwise(m, omegas)
        self.assert_matches_svd_everything(m, omegas)

    @pytest.mark.parametrize("per_slice", [1, 3])
    def test_undecided_pencils_get_the_exact_svd(self, per_slice):
        # In one chunk: a pencil exactly singular at w* (its solve slice
        # raises LinAlgError), one kept with sigma_min 1.5x the guard's floor
        # and one guarded at 0.5x.  No bound decides either of the last two.
        # Every other pencil is decided by its own inverse or by an anchor's,
        # except the singular one's slice-mates, which are solved again after
        # their SVD.  At stride 1 every pencil is an anchor, so the [B | I]
        # slices run over the chunk in order.  At the default stride the
        # singular pencil's slice runs, in order, over the pencils that are
        # not anchors and that no anchor covers.
        w_star = 1.0
        m = near_pole_model(w_star)
        floor = response.POLE_GUARD_RTOL * float(np.linalg.norm(m.A_xx, 2))
        omegas = np.geomspace(1e-2, 1e2, self.CHUNK).tolist()
        singular, kept_near, guarded_near = 4, 10, 20
        omegas[singular] = w_star
        omegas[kept_near] = w_star + 1.5 * floor
        omegas[guarded_near] = w_star + 0.5 * floor
        lams = 1j * np.array(omegas)
        pencils = np.multiply.outer(lams, m.E) - m.A_xx
        svd = np.linalg.svd

        for stride in (1, response._ANCHOR_STRIDE):
            seen = []

            def spy(a, *args, **kwargs):
                seen.append(a.copy())
                return svd(a, *args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(response, "_SOLVE_BYTES", per_slice * 60 * (60 + 12) * 16)
                mp.setattr(response, "_ANCHOR_STRIDE", stride)
                mp.setattr(np.linalg, "svd", spy)
                routes = spy_routes(mp)
                sweep = response.g_sweep(m, omegas)
            covered = covered_lams(routes)
            assert bool(covered) == (stride > 1)
            anchor = singular % stride == 0
            group = [i for i in range(self.CHUNK)
                     if (i % stride == 0) == anchor and lams[i] not in covered]
            start = group.index(singular) - group.index(singular) % per_slice
            undecided = sorted({*group[start:start + per_slice], kept_near, guarded_near})
            assert len(seen) == 1 and np.array_equal(seen[0], pencils[undecided])
            assert [str(e).split(":")[0] for e in sweep.guarded] == [
                f"omega={omegas[singular]}", f"omega={omegas[guarded_near]}"]
            assert len(sweep) == self.CHUNK - 2
        self.assert_matches_svd_everything(m, omegas)

    def test_anchors_on_both_sides_of_a_pole(self, monkeypatch):
        # Two chunks across the pole at w* = 1: anchors below and above it
        # cover neighbours on both sides, and no anchor covers the pencils
        # nearest the pole, one kept at 1.5x the guard's floor and one
        # guarded at 0.5x.
        w_star = 1.0
        m = near_pole_model(w_star)
        floor = response.POLE_GUARD_RTOL * float(np.linalg.norm(m.A_xx, 2))
        omegas = np.linspace(0.5, 1.5, 2 * self.CHUNK).tolist()
        kept_near, guarded_near = self.CHUNK - 1, self.CHUNK + 1
        assert kept_near % response._ANCHOR_STRIDE and guarded_near % response._ANCHOR_STRIDE
        omegas[kept_near] = w_star - 1.5 * floor
        omegas[guarded_near] = w_star + 0.5 * floor
        routes = spy_routes(monkeypatch)
        sweep = response.g_sweep(m, omegas)
        monkeypatch.undo()
        covered = [lam.imag for lam in covered_lams(routes)]
        assert min(covered) < w_star < max(covered)
        assert omegas[kept_near] not in covered and omegas[guarded_near] not in covered
        assert [str(e).split(":")[0] for e in sweep.guarded] == [f"omega={omegas[guarded_near]}"]
        assert len(sweep) == len(omegas) - 1
        self.assert_matches_pointwise(m, omegas)
        self.assert_matches_svd_everything(m, omegas)

    def test_cover_needs_twice_the_floor(self, monkeypatch):
        # For 1/s the anchor bound and Weyl's bound are exact: at omega, the
        # anchor at 1e-3 carries sigma_min >= omega (to rounding), against a
        # largest floor of 1e-14.  So only 3e-14 is covered; 1.5e-14 is kept
        # by its SVD, and 0.5e-14 is guarded.
        monkeypatch.setattr(response, "_ANCHOR_MIN_STATES", 1)
        m = integrator()
        omegas = [1e-3, 3e-14, 1.5e-14, 0.5e-14]
        routes = spy_routes(monkeypatch)
        sweep = response.g_sweep(m, omegas)
        monkeypatch.undo()
        assert [lam.imag for lam in covered_lams(routes)] == [3e-14]
        assert list(sweep.omegas) == omegas[:3]
        assert [str(e).split(":")[0] for e in sweep.guarded] == ["omega=5e-15"]
        self.assert_matches_svd_everything(m, omegas)

    @given(seed=st.integers(0, 2 ** 31 - 1), kind=st.sampled_from(sorted(KINDS)),
           m_x=st.integers(3, 8), pole=st.booleans(), n=st.integers(2, 2 * numkit._CHUNK + 8),
           center=st.floats(0.2, 2.0), width=st.floats(1e-3, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_covered_pencils_clear_twice_the_floor(self, seed, kind, m_x, pole, n, center, width):
        # Weyl's bound is sound: every pencil solved against B alone, because
        # an anchor covered it, has an exact sigma_min of at least twice its
        # largest floor.  With ``pole``, a pole sits in the middle of the grid.
        # Models this small are anchored only with the state floor lowered.
        m = testing.random_model(seed, dims=Dims(m_x, 2, 1, 2, 3, 2), **KINDS[kind])
        if pole:
            m = with_pole(m, center)
        if m.time_domain == "continuous":
            omegas = np.geomspace(center / (1 + width), center * (1 + width), n).tolist()
        else:
            omegas = np.linspace(center - width, center + width, n).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(response, "_ANCHOR_MIN_STATES", 1)
            routes = spy_routes(mp)
            response.g_sweep(m, omegas)
        covered = covered_lams(routes)
        if covered:
            sig = np.linalg.svd(np.multiply.outer(np.array(covered), m.E) - m.A_xx,
                                compute_uv=False)
            assert all(s >= 2 * largest_floor(m, lam) for s, lam in zip(sig[:, -1], covered))
        self.assert_matches_svd_everything(m, omegas)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("dims", sorted(FIXTURE_DIMS))
    def test_b_only_solve_is_bitwise_the_b_columns(self, dims, kind):
        # A covered pencil is solved against B alone and an anchor against
        # [B | I]; the blocks stay those of the SVD-of-every-pencil reference
        # only because both give the same B columns, bit for bit, here one
        # pencil at a time and stacked.
        m = testing.random_regular_model(2, dims=FIXTURE_DIMS[dims], **KINDS[kind])
        omegas = (np.geomspace(1e-2, 1e2, self.CHUNK) if m.time_domain == "continuous"
                  else np.linspace(np.pi / self.CHUNK, np.pi, self.CHUNK))
        lams = [response.lambda_at(m.time_domain, w) for w in omegas.tolist()]
        B = np.hstack([m.B_xu, m.B_xv]).astype(complex)
        BI = np.hstack([B, np.eye(m.dims.m_x)]).astype(complex)
        pencils = np.multiply.outer(np.array(lams), m.E) - m.A_xx
        X = np.linalg.solve(pencils, np.broadcast_to(B, (len(lams), *B.shape)))
        Y = np.linalg.solve(pencils, np.broadcast_to(BI, (len(lams), *BI.shape)))
        assert np.array_equal(X, Y[..., :B.shape[1]])
        for P, x in zip(pencils, X):
            assert np.array_equal(np.linalg.solve(P, B), x)
            assert np.array_equal(np.linalg.solve(P, BI)[:, :B.shape[1]], x)

    @pytest.mark.parametrize("m_x", [response._ANCHOR_MIN_STATES - 1, response._ANCHOR_MIN_STATES])
    def test_small_pencils_are_their_own_anchors(self, m_x, monkeypatch):
        # Below the state floor each chunk is one solve against [B | I] and
        # no ||E||_2 is computed; at the floor anchors cover their neighbours.
        m = testing.random_regular_model(3, dims=Dims(m_x, 2, 1, 2, 5, 2))
        omegas = np.geomspace(1e-2, 1e2, 2 * self.CHUNK).tolist()
        routes = spy_routes(monkeypatch)
        calls = spy_linalg(monkeypatch, "norm")
        response.g_sweep(m, omegas)
        monkeypatch.undo()
        anchored = m_x >= response._ANCHOR_MIN_STATES
        assert bool(covered_lams(routes)) == anchored
        assert takes_a_two_norm(calls) == anchored
        if not anchored:
            assert [len(lams) for lams, _ in routes if len(lams)] == [self.CHUNK] * 2

    def test_one_frequency_costs_one_solve(self, monkeypatch):
        # One pencil is its own anchor: one solve against [B | I], and no
        # SVD, neither for ||E||_2 nor for the guard.
        m = testing.random_regular_model(1, dims=FIXTURE_DIMS["d60"])
        calls = spy_linalg(monkeypatch, "solve", "svd", "norm")
        response.g_blocks(m, 1.0)
        monkeypatch.undo()
        assert [name for name, _ in calls if name != "norm"] == ["solve"]
        assert not takes_a_two_norm(calls)

    def test_holds_one_chunk_of_pencils(self):
        # Each chunk's pencils are built in place and copied only around a
        # guarded point: spare chunk-sized temporaries made malloc hand memory
        # back to the system and fault it in again on every chunk.
        m = testing.random_regular_model(1, dims=Dims(60, 4, 2, 4, 8, 16))
        omegas = np.geomspace(1e-2, 1e2, self.CHUNK).tolist()
        assert not response.g_sweep(m, omegas).guarded
        tracemalloc.start()
        try:
            response.g_sweep(m, omegas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * self.CHUNK * m.A_xx.size * 16

    def test_first_guarded_listed_frequency_raises(self):
        w_star = 0.7
        m = oscillator(w_star)
        with pytest.raises(PoleProximity) as first:
            response.g_blocks(m, -w_star)
        guarded = response.g_sweep(m, [1.0, -w_star, 2.0, w_star]).guarded
        assert [str(e) for e in guarded][0] == str(first.value)
        with pytest.raises(PoleProximity) as listed:
            oracle.fd_jacobian(m, [0.0], [1.0, -w_star, 2.0, w_star])
        assert str(listed.value) == str(first.value)


class TestRegularityIdentity:
    def test_siso1(self, siso1):
        err = regularity_identity_check(siso1, [0.3], [1j])
        assert err <= 1e-10

    def test_theta_zero_exact(self, siso1):
        # Both sides collapse to det(lambda E - A_xx) when theta = 0.
        err = regularity_identity_check(siso1, [0.0], [0.4 + 1.1j, -0.8 + 0.2j])
        assert err <= 1e-12

    def test_probe_at_a_pole_raises(self, siso1):
        # lambda = -1 makes lambda E - A_xx exactly zero for siso1.
        with pytest.raises(PoleProximity, match=r"^lambda=\(-1\+0j\): "):
            regularity_identity_check(siso1, [0.3], [1j, -1.0])

    def test_random_probes(self):
        rng = np.random.default_rng(4)
        for m in model_pool(4, start=300):
            theta = interior_theta(m, 9)
            probes = [complex(rng.uniform(0.5, 2), rng.uniform(-2, 2)) for _ in range(5)]
            assert regularity_identity_check(m, theta, probes) <= 1e-8
