import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lftident import model as model_mod
from lftident import identifiability as ident
from lftident import numkit, response, sloppiness, testing
from lftident.errors import PoleProximity
from lftident.model import Dims


@pytest.fixture
def siso1():
    return testing.siso1()


@pytest.fixture
def dup2():
    return testing.dup2()


@pytest.fixture
def theta_free():
    return testing.theta_free()


@pytest.fixture
def siso1_path(tmp_path):
    p = tmp_path / "siso1.json"
    model_mod.save_model(testing.siso1(), p)
    return p


@pytest.fixture
def dup2_path(tmp_path):
    p = tmp_path / "dup2.json"
    model_mod.save_model(testing.dup2(), p)
    return p


# Matrices per stack in the tests that place points at stack boundaries.
CHUNK = 32


def stacks_of(monkeypatch, n: int = CHUNK):
    """Make every stacked call take ``n`` matrices, whatever their size, in
    place of as many as fit in numkit's byte budget."""
    monkeypatch.setattr(numkit, "_per_stack", lambda nbytes: n)


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


def with_blocks(sweep, changes):
    """``sweep`` with, for each ``(i, name, block)`` of ``changes``, the block
    ``name`` of point i replaced by ``block``, in a copy of its G."""
    changed = dataclasses.replace(sweep, G=sweep.G.copy())
    for i, name, block in changes:
        getattr(changed, name)[i] = block
    return changed


def model_pool(n, start=0):
    """Deterministic mixed pool of regular well-posed models."""
    kinds = [
        dict(),
        dict(kernel_rich=True),
        dict(time_domain="discrete"),
        dict(singular_E=True),
    ]
    out = []
    for i in range(n):
        out.append(testing.random_regular_model(start + i, **kinds[i % len(kinds)]))
    return out


def point_views(grid, points=None):
    """Each point of ``points`` (by default every point) of the GridSweep
    ``grid``, in order, as views of its stacks: its ``index``, its one-point
    sweep ``g`` and ``omega``, K, Pi, Pi_bar_r, Pi_bar_j, Xi, U_Pi2 (from one
    ``grid.u_pi2`` read of all of them) and its ``u2_stack``, ``kernel_dim``,
    and its ``side_fcr`` and ``shortcut`` flags."""
    points = list(range(len(grid.g))) if points is None else list(points)
    shortcut, side = grid.flags(points)
    views = []
    for n, (i, U) in enumerate(zip(points, grid.u_pi2(points), strict=True)):
        grp, j = grid._slots[:2, i].tolist()
        _, K, Pi = grid._groups[grp]
        R, J = ident._bars(Pi)
        views.append(SimpleNamespace(
            index=i, g=grid.g[i], omega=grid.g.omegas[i], K=K[j], Pi=Pi[j], Pi_bar_r=R[j],
            Pi_bar_j=J[j], Xi=grid.xi(i), U_Pi2=U, u2_stack=ident._u2_stack(U),
            kernel_dim=K.shape[2], side_fcr=bool(side[n]), shortcut=bool(shortcut[n])))
    return views


def row_block(W, psi_dec, m_z):
    """The row block of the reduced stacked test matrix of one Xi or u2 stack
    block ``W``, as the verdict's chain computes it."""
    return ident.upsilon_rows(W[None], psi_dec, m_z)[0]


def per_point_sensitivity_stack(model, theta0, blocks):
    """Reference of ``identifiability.sensitivity_stack``: its first-order
    response map J at ``theta0`` built one point at a time, two solves per
    point, over the one-point sweeps ``blocks``, as it was built before the
    map took stacks."""
    t0 = model.check_theta(theta0)
    P0 = model.p_of(t0)
    m_v, m_z = model.dims.m_v, model.dims.m_z
    cols = [[] for _ in range(model.dims.q)]
    for g in blocks:
        L = np.linalg.solve((np.eye(m_v) - P0 @ g.G_zv[0]).T, g.G_yv[0].T).T
        R = np.linalg.solve(np.eye(m_z) - g.G_zv[0] @ P0, g.G_zu[0])
        for k, Pk in enumerate(model.P):
            dH = L @ Pk @ R
            cols[k].append(numkit.vec(dH.real))
            cols[k].append(numkit.vec(dH.imag))
    return np.column_stack([np.concatenate(c) for c in cols])


def per_point_margin_ok(model, theta0, blocks) -> bool:
    """The sensitivity gate's decision on :func:`per_point_sensitivity_stack`."""
    J = per_point_sensitivity_stack(model, theta0, blocks)
    if J.shape[1] == 0:
        return True
    if J.shape[0] < J.shape[1]:
        return False
    sig = np.linalg.svd(J, compute_uv=False)
    return float(sig[-1]) >= ident.SENSITIVITY_RTOL * max(1.0, float(sig[0]))


def rotate_factors(monkeypatch, rng):
    """Make sloppiness.pointwise_factors return its factors with the singular
    vectors of each frequency rotated by unit phases d1 (G_yv) and d2 (G_zu),
    drawn from ``rng`` for each frequency in turn."""
    factors = sloppiness.pointwise_factors

    def rotated(model, theta0, g):
        f = factors(model, theta0, g)
        draws = [(np.exp(1j * rng.uniform(0, 2 * np.pi, f.r_yv)),
                  np.exp(1j * rng.uniform(0, 2 * np.pi, f.r_zu))) for _ in f.omegas]
        d1 = np.array([d for d, _ in draws])[:, None]
        d2 = np.array([d for _, d in draws])[:, None]
        return dataclasses.replace(
            f,
            U_yv1=f.U_yv1 * d1, V_yv1=f.V_yv1 * d1,
            U_zu=f.U_zu * d2, V_zu1=f.V_zu1 * d2,
            Phi_l=f.Phi_l * d1, Phi_r=np.conj(d2).transpose(0, 2, 1) * f.Phi_r,
        )

    monkeypatch.setattr(sloppiness, "pointwise_factors", rotated)


def with_pole(m, w_star: float):
    """``m`` with its first two states replaced by an undamped block whose
    poles are lambda(w_star) and its conjugate: +- j w_star in continuous
    time, on the unit circle in discrete time."""
    lam = response.lambda_at(m.time_domain, w_star)
    E, A = m.E.copy(), m.A_xx.copy()
    E[:2, :], E[:, :2], A[:2, :], A[:, :2] = 0.0, 0.0, 0.0, 0.0
    E[:2, :2] = np.eye(2)
    A[:2, :2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
    return dataclasses.replace(m, E=E, A_xx=A)


def interior_theta(model, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(model.dims.q)
    t *= scale * np.sqrt(model.theta_domain.radius) / max(np.linalg.norm(t), 1e-12)
    return t


def full_rank_above(J, tol):
    """True when all singular values of ``J`` exceed the absolute ``tol``."""
    return np.count_nonzero(np.linalg.svd(J, compute_uv=False) > tol) == J.shape[1]


def guard_one(loop, message):
    """``numkit.loop_guard`` of the one loop matrix ``loop``: its singular values;
    raises the guard's WellPosednessViolation, named ``message``."""
    sig = np.linalg.svd(loop, compute_uv=False)
    bad = numkit.loop_guard(np.asarray(loop)[None], lambda _: message, sig[None])
    if bad:
        raise bad[0]
    return sig


def per_theta_h_lft(model, theta, g):
    """Reference H at the one point of the sweep ``g`` for one theta: P(theta)
    from ``model.p_of``, one loop guard and one solve, as H was evaluated before
    the stacked ``response.h_sweep``."""
    t = model.check_theta(theta)
    P = model.p_of(t)
    loop = np.eye(model.dims.m_v) - P @ g.G_zv[0]
    guard_one(
        loop, f"I - P(theta) G_zv(j*omega) singular at omega={g.omegas[0]}, theta={t.tolist()}"
    )
    return g.G_yu[0] + g.G_yv[0] @ np.linalg.solve(loop, P @ g.G_zu[0])


def assembled(model, theta):
    """The state-space matrices A(theta), B(theta), C(theta), D(theta), behind
    the model's loop guard."""
    return model._guarded_assembly(theta)[1:]


def h_statespace(model, theta, omega):
    """Reference H at ``omega`` from the assembled state-space matrices
    A(theta)..D(theta), with a plain solve of the pencil (no pole guard)."""
    A, B, C, D = assembled(model, model.check_theta(theta))
    lam = response.lambda_at(model.time_domain, omega)
    return D + C @ np.linalg.solve(lam * model.E - A, B)


def regularity_identity_check(model, theta, lambda_probes):
    """Worst relative discrepancy across the determinant-identity chain.

    At each probe lambda the four expressions

        det(lambda E - A(theta)) det(I - P D_zv)
        det(lambda [E 0; 0 0] - [A_xx, B_xv P; C_zx, D_zv P - I])
        det(lambda E - A_xx) det(I - G_zv(lambda) P)
        det(lambda E - A_xx) det(I - P G_zv(lambda))

    must coincide; the returned value is the largest pairwise relative error.
    A probe at which lambda E - A_xx is exactly singular raises PoleProximity.
    """
    t = model.check_theta(theta)
    P = model.p_of(t)
    d = model.dims
    A_t, _, _, _ = assembled(model, t)
    E_big = np.block([
        [model.E, np.zeros((d.m_x, d.m_z))],
        [np.zeros((d.m_z, d.m_x)), np.zeros((d.m_z, d.m_z))],
    ])
    A_big = np.block([
        [model.A_xx, model.B_xv @ P],
        [model.C_zx, model.D_zv @ P - np.eye(d.m_z)],
    ])
    worst = 0.0
    for lam in lambda_probes:
        lam = complex(lam)
        lhs = np.linalg.det(lam * model.E - A_t) * np.linalg.det(np.eye(d.m_v) - P @ model.D_zv)
        mid = np.linalg.det(lam * E_big - A_big)
        pencil = lam * model.E - model.A_xx
        det_free = np.linalg.det(pencil)
        try:
            X = np.linalg.solve(pencil, model.B_xv.astype(complex))
        except np.linalg.LinAlgError:
            raise PoleProximity(f"lambda={lam}: lambda E - A_xx is singular") from None
        G_zv = model.D_zv + model.C_zx @ X
        rhs_z = det_free * np.linalg.det(np.eye(d.m_z) - G_zv @ P)
        rhs_v = det_free * np.linalg.det(np.eye(d.m_v) - P @ G_zv)
        values = [lhs, mid, rhs_z, rhs_v]
        scale = max(max(abs(v) for v in values), 1e-300)
        spread = max(abs(a - b) for a in values for b in values)
        worst = max(worst, spread / scale)
    return worst
