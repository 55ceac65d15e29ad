"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Desk scale throughout: state dimension <= 8, parameter count
<= 10, frequency sets <= 20.
"""

import contextlib
import json

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from lftident import cli, freqplan, identifiability as ident
from lftident import model as model_mod
from lftident import numkit, oracle, response, sloppiness as slop, testing
from lftident.errors import LftIdentError

from conftest import (h_statespace, interior_theta, model_pool, point_views,
                      regularity_identity_check, rotate_factors)


@contextlib.contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {n:2d}: PASS - {label}")


_PLAN_CACHE = {}


def certified_plan(seed):
    if seed not in _PLAN_CACHE:
        m = testing.random_regular_model(seed, kernel_rich=True)
        t0 = np.zeros(m.dims.q)
        plan = freqplan.search_frequencies(m, t0)
        _PLAN_CACHE[seed] = (m, t0, plan)
    return _PLAN_CACHE[seed]


def certified_fixtures(count, start=0, span=200):
    out = []
    seed = start
    while len(out) < count and seed < start + span:
        m, t0, plan = certified_plan(seed)
        if plan.status == freqplan.CERTIFIED:
            out.append((m, t0, list(plan.selected)))
        seed += 1
    assert len(out) == count, f"only {len(out)} certifiable fixtures in {span} seeds"
    return out


def test_criterion_1_route_equivalence():
    with criterion(1, "route equivalence on 200 fixtures, rel <= 1e-9"):
        worst = 0.0
        models = model_pool(200, start=2000)
        rng = np.random.default_rng(1)
        for i, m in enumerate(models):
            theta = interior_theta(m, 3 * i + 1)
            w = float(rng.uniform(0.05, 2.5))
            h1 = response.h_lft(m, theta, response.g_blocks(m, w))
            h2 = h_statespace(m, theta, w)
            rel = np.linalg.norm(h1 - h2) / max(np.linalg.norm(h1), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-9, f"worst relative route difference {worst:.3e}"


def test_criterion_2_determinant_identity():
    with criterion(2, "determinant identity on 100 probes, rel <= 1e-8"):
        worst = 0.0
        rng = np.random.default_rng(2)
        models = model_pool(20, start=2500)
        for i, m in enumerate(models):
            theta = interior_theta(m, 7 * i + 3)
            probes = [complex(rng.choice([-1, 1]) * rng.uniform(0.5, 2.5),
                              rng.uniform(-2.0, 2.0)) for _ in range(5)]
            worst = max(worst, regularity_identity_check(m, theta, probes))
        assert worst <= 1e-8, f"worst determinant identity error {worst:.3e}"


def test_criterion_3_q_action_identity():
    with criterion(3, "Q action identity on 100 triples, inf-norm <= 1e-10"):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            r_yv = int(rng.integers(1, 4))
            r_zu = int(rng.integers(1, 4))
            m_v = int(rng.integers(r_yv, r_yv + 3))
            Phi_l = rng.standard_normal((m_v, r_yv)) + 1j * rng.standard_normal((m_v, r_yv))
            Phi_r = rng.standard_normal((r_zu, r_zu)) + 1j * rng.standard_normal((r_zu, r_zu))
            f = slop.PointwiseFactors(
                omegas=(1.0,),
                U_yv1=np.zeros((1, 1, r_yv)), sigma_yv=np.ones((1, r_yv)),
                V_yv1=np.zeros((1, m_v, r_yv)),
                U_zu=np.zeros((1, r_zu, r_zu)), sigma_zu=np.ones((1, r_zu)),
                V_zu1=np.zeros((1, 1, r_zu)),
                Phi_l=Phi_l[None], Phi_r=Phi_r[None],
            )
            qp = slop.q_pair(f)
            for _ in range(5):
                D = rng.standard_normal((r_yv, r_zu)) + 1j * rng.standard_normal((r_yv, r_zu))
                xi = numkit.vec(np.vstack([D.real, D.imag]))
                prod = Phi_l @ D @ Phi_r
                worst = max(worst, float(np.max(np.abs(qp.Q_r[0] @ xi - numkit.vec(prod.real)))))
                worst = max(worst, float(np.max(np.abs(qp.Q_j[0] @ xi - numkit.vec(prod.imag)))))
        assert worst <= 1e-10, f"worst Q action residual {worst:.3e}"


def test_criterion_4_verdict_soundness():
    with criterion(4, "no identifiable verdict with a rank-deficient Jacobian; "
                      "kernel fixtures certified negative with exact counterexamples"):
        # 100 seeded fixtures: soundness of the positive verdict.
        violations = []
        for seed in range(100):
            m, t0, plan = certified_plan(seed)
            freqs = list(plan.selected) if plan.status == freqplan.CERTIFIED else [0.21, 1.9]
            try:
                v = ident.upsilon_test(m, t0, freqs)
            except LftIdentError:
                continue
            if v.status != ident.IDENTIFIABLE:
                continue
            est = oracle.fd_jacobian(m, t0, freqs)
            sig = np.linalg.svd(est.J, compute_uv=False)
            if sig[-1] <= 1e-6 * max(1.0, sig[0]):
                violations.append((seed, float(sig[-1])))
        assert not violations, f"unsound identifiable verdicts: {violations}"

        # 20 duplicated-pattern fixtures: certified negative + exact-response
        # counterexample found by the probe.
        for i in range(20):
            m = testing.random_regular_model(4000 + i, duplicate_P=True)
            t0 = np.zeros(m.dims.q)
            freqs = [0.31, 1.4]
            v = ident.upsilon_test(m, t0, freqs)
            assert v.status == ident.NOT_IDENTIFIABLE
            assert not v.psi_fcr
            est = oracle.fd_jacobian(m, t0, freqs)
            theta = oracle.random_equivalence_probe(m, est, trials=50, seed=i)
            assert theta is not None, f"no counterexample on duplicate fixture {i}"
            for w in freqs:
                g = response.g_blocks(m, w)
                H0 = response.h_lft(m, t0, g)
                H1 = response.h_lft(m, theta, g)
                assert np.linalg.norm(H1 - H0) <= 1e-10


def test_criterion_5_basis_and_unitary_invariance(monkeypatch):
    with criterion(5, "verdict/mu invariance under kernel and unitary changes"):
        rng = np.random.default_rng(5)
        fixtures = certified_fixtures(8)
        for m, t0, w in fixtures:
            sweep = ident.GridSweep(m, t0, response.g_sweep(m, w))
            pis = point_views(sweep)
            kernels = []
            for i, p in enumerate(pis):
                c = p.kernel_dim
                M = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
                M += 2.0 * np.eye(c)
                kernels.append((np.array([i]), (p.K @ M)[None]))
            rotated = ident.GridSweep(m, t0, sweep.g, kernels=kernels)
            pis_rot = point_views(rotated)
            v1 = ident.upsilon_test(m, t0, w, sweep=sweep)
            v2 = ident.upsilon_test(m, t0, w, sweep=rotated)
            assert v1.status == v2.status
            assert v1.residual_nullspace_dim == v2.residual_nullspace_dim
            for p, pr in zip(pis, pis_rot):
                if p.Xi.size and pr.Xi.size:
                    assert np.max(subspace_angles(p.Xi.T, pr.Xi.T)) <= 1e-8
                if p.U_Pi2.size and pr.U_Pi2.size:
                    assert np.max(subspace_angles(p.U_Pi2, pr.U_Pi2)) <= 1e-8

            S1 = slop.s_matrices(m, t0, w)
            mu1 = slop.metrics(S1).mu
            S2 = slop.s_matrices(m, t0, w, sweep=rotated)
            mu2 = slop.metrics(S2).mu
            assert np.max(np.abs(mu1 - mu2) / mu1) <= 1e-6

            with monkeypatch.context() as mp:
                rotate_factors(mp, rng)
                S3 = slop.s_matrices(m, t0, w)
            mu3 = slop.metrics(S3).mu
            assert np.max(np.abs(mu1 - mu3) / mu1) <= 1e-6


def test_criterion_6_spectrum_oracle_agreement():
    with criterion(6, "mu equals 1/sigma^2 of the Jacobian on 50 fixtures; "
                      "siso1 at {0,1} gives sm_abs = sqrt(0.8)"):
        fixtures = certified_fixtures(50)
        worst = 0.0
        for m, t0, w in fixtures:
            S = slop.s_matrices(m, t0, w)
            rep = slop.metrics(S)
            est = oracle.fd_jacobian(m, t0, w)
            mu_hat = oracle.jacobian_sloppiness(est)
            assert rep.mu.size == mu_hat.size
            worst = max(worst, float(np.max(np.abs(rep.mu - mu_hat) / np.abs(rep.mu))))
        assert worst <= 1e-3, f"worst mu disagreement {worst:.3e}"

        siso1 = testing.siso1()
        S = slop.s_matrices(siso1, [0.0], [0.0, 1.0])
        rep = slop.metrics(S)
        # Analytic closed form: J = [1, 0, 0, -0.5], mu = 0.8.
        assert abs(rep.sm_abs - np.sqrt(0.8)) <= 1e-6
        assert abs(rep.mu[0] - 0.8) <= 1e-6


def test_criterion_7_ellipsoid_first_order_accuracy():
    with criterion(7, "boundary energy ratio bands 0.15/0.015/0.002 at "
                      "eps 1e-2/1e-3/1e-4 with linear shrinkage"):
        cases = [
            (testing.siso1(), [0.0], [0.0, 1.0]),
            (testing.siso1(), [0.1], [0.5, 2.0]),
        ]
        bands = {1e-2: 0.15, 1e-3: 0.015, 1e-4: 0.002}
        for m, t0, w in cases:
            devs = {}
            for eps, band in bands.items():
                stats = oracle.ellipsoid_empirical_check(
                    m, t0, w, eps=eps, samples=12, seed=7
                )
                dev = max(abs(stats.min_ratio - 1.0), abs(stats.max_ratio - 1.0))
                devs[eps] = dev
                assert dev <= band, f"eps={eps}: deviation {dev:.4f} > {band}"
            # Linear-in-eps shrinkage: each decade shrinks the band ~10x
            # (allow 5x to avoid flakiness at the rounding floor).
            assert devs[1e-3] <= devs[1e-2] / 5.0
            assert devs[1e-4] <= devs[1e-3] / 5.0


def test_criterion_8_frequency_search():
    with criterion(8, "certified plans re-verify with residual 0, within budget, "
                      "strictly decreasing trace; recursion equals direct rank"):
        checked = 0
        for seed in range(60):
            m, t0, plan = certified_plan(seed)
            if plan.status != freqplan.CERTIFIED:
                continue
            checked += 1
            assert plan.verdict.status == ident.IDENTIFIABLE
            assert plan.verdict.residual_nullspace_dim == 0
            assert len(plan.selected) <= 2 * m.dims.m_x + 1
            tr = plan.rank_trace
            assert all(tr[i] > tr[i + 1] for i in range(len(tr) - 1))
            assert tr[-1] == 0
        assert checked >= 25

        # Recursive chained-null verdicts match direct stacked-rank verdicts.
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            blocks = []
            for _ in range(int(rng.integers(2, 5))):
                rows = int(rng.integers(1, n + 1))
                B = rng.standard_normal((rows, n))
                blocks.append(B)
            if rng.random() < 0.5:
                # engineer a common null direction
                v = rng.standard_normal(n)
                v /= np.linalg.norm(v)
                blocks = [B - np.outer(B @ v, v) for B in blocks]
            stack = np.vstack(blocks)
            scale = float(np.linalg.norm(stack, 2))
            Z = np.eye(n)
            for B in blocks:
                Z = Z @ numkit.right_null_basis(B @ Z, scale_floor=scale)
            recursive_fcr = Z.shape[1] == 0
            direct_fcr = numkit.rank_of(stack).rank == n
            assert recursive_fcr == direct_fcr


def test_criterion_9_spectral_membership_consistency():
    with criterion(9, "Frobenius boundary implies spectral membership; "
                      "predicate matches direct sigma_max on 100 xi"):
        rng = np.random.default_rng(9)
        fixtures = certified_fixtures(5)
        eps = 1e-3
        for m, t0, w in fixtures:
            S = slop.s_matrices(m, t0, w)
            ell = slop.frobenius_ellipsoid(S, eps)
            for _ in range(10):
                xi = ell.boundary_point(rng.standard_normal(S.n_s))
                assert slop.spectral_membership(S, xi, eps)
            for _ in range(20):
                xi = rng.standard_normal(S.n_s) * rng.uniform(0.1, 3.0) * eps
                # independent reconstruction of every per-frequency deviation
                sig_direct = []
                f = S.factors
                for k in range(len(w)):
                    coords = S.complex_block(k) @ xi
                    D = coords.reshape((f.r_yv, f.r_zu), order="F")
                    full = f.U_yv1[k] @ D @ f.V_zu1[k].T
                    sig_direct.append(np.linalg.svd(full, compute_uv=False)[0] if full.size else 0.0)
                expect = bool(np.all(np.asarray(sig_direct) <= eps * (1 + 1e-12)))
                assert slop.spectral_membership(S, xi, eps) == expect
                assert np.allclose(sig_direct, slop.deviation_sigmas(S, xi), atol=1e-12)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical reports for identical inputs and seed"):
        siso1_path = tmp_path / "siso1.json"
        dup2_path = tmp_path / "dup2.json"
        model_mod.save_model(testing.siso1(), siso1_path)
        model_mod.save_model(testing.dup2(), dup2_path)
        argsets = [
            ["validate", "--model", str(siso1_path), "--seed", "11"],
            ["ident", "--model", str(siso1_path), "--theta0", "0", "--freqs", "0.5,1,2"],
            ["find-freqs", "--model", str(siso1_path), "--theta0", "0", "--grid-points", "60"],
            ["sloppiness", "--model", str(siso1_path), "--theta0", "0",
             "--freqs", "0,1", "--eps", "1e-3"],
            ["oracle", "--model", str(dup2_path), "--theta0", "0,0",
             "--freqs", "1,2", "--trials", "20", "--seed", "3"],
        ]
        for i, args in enumerate(argsets):
            a = tmp_path / f"run_a{i}.json"
            b = tmp_path / f"run_b{i}.json"
            assert cli.main(args + ["--output", str(a)]) == 0
            assert cli.main(args + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), f"report bytes differ for {args[0]}"
            doc = json.loads(a.read_text())
            assert doc["schema"] == cli.REPORT_SCHEMA
