import numpy as np
import pytest

from lftident import model as model_mod
from lftident import numkit, response, testing
from lftident.errors import PoleProximity


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
    (sig,), bad = numkit.loop_guard(np.asarray(loop)[None], lambda _: message)
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


def h_statespace(model, theta, omega):
    """Reference H at ``omega`` from the assembled state-space matrices
    A(theta)..D(theta), with a plain solve of the pencil (no pole guard)."""
    A, B, C, D = model.assembled(model.check_theta(theta))
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
    A_t, _, _, _ = model.assembled(t)
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
