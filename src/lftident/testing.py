"""Canonical fixtures and seeded random-model factories.

These are shared by the test suite and the demo scripts.  ``siso1`` is the
all-scalar model with closed-form response 1/(j*omega + 1 - theta); ``dup2``
duplicates its parameter block so the parameter map is structurally
non-injective; ``theta_free`` severs the parameter channel entirely.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import LftIdentError
from .model import DescriptorModel, Dims, ParameterDomain

__all__ = [
    "siso1",
    "dup2",
    "theta_free",
    "random_model",
    "random_regular_model",
]


def _m(rows):
    return np.array(rows, dtype=float)


def siso1(radius: float = 0.8) -> DescriptorModel:
    """All-scalar continuous-time model with H(j*omega, theta) = 1/(j*omega + 1 - theta)."""
    one = _m([[1.0]])
    zero = _m([[0.0]])
    return DescriptorModel(
        time_domain="continuous",
        dims=Dims(1, 1, 1, 1, 1, 1),
        E=one,
        A_xx=_m([[-1.0]]),
        B_xu=one,
        B_xv=one,
        C_yx=one,
        C_zx=one,
        D_yu=zero,
        D_yv=zero,
        D_zu=zero,
        D_zv=zero,
        P=(one,),
        theta_domain=ParameterDomain(radius=radius),
    )


def dup2(radius: float = 0.8) -> DescriptorModel:
    """Two-parameter variant of siso1 with P_1 = P_2: only theta_1 + theta_2 acts."""
    return replace(siso1(radius), dims=Dims(1, 1, 1, 1, 1, 2), P=(_m([[1.0]]), _m([[1.0]])))


def theta_free(radius: float = 0.8) -> DescriptorModel:
    """Model whose response ignores theta: the v -> y path is severed."""
    return replace(siso1(radius), B_xv=_m([[0.0]]))


def _stable_state_blocks(rng, m_x: int, time_domain: str, singular_E: bool):
    """Draw (E, A_xx) whose finite pencil spectrum is comfortably stable."""
    A = rng.standard_normal((m_x, m_x))
    if singular_E and m_x >= 2:
        n_alg = 1  # one algebraic constraint row
        n_dyn = m_x - n_alg
        E = np.eye(m_x)
        E[-1, -1] = 0.0
        # Make the algebraic block invertible and restabilize the dynamic part
        # of the constrained system.
        A22 = A[n_dyn:, n_dyn:]
        A22 += np.sign(np.linalg.det(A22) or 1.0) * 1.5 * np.eye(n_alg)
        A[n_dyn:, n_dyn:] = A22
        F = A[:n_dyn, :n_dyn] - A[:n_dyn, n_dyn:] @ np.linalg.solve(A22, A[n_dyn:, :n_dyn])
        shift = max(np.max(np.linalg.eigvals(F).real), 0.0) + 0.8
        A[:n_dyn, :n_dyn] -= shift * np.eye(n_dyn)
        return E, A
    E = np.eye(m_x)
    if time_domain == "continuous":
        shift = max(np.max(np.linalg.eigvals(A).real), 0.0) + 0.8
        A -= shift * np.eye(m_x)
    else:
        rho = max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
        A *= 0.7 / rho
    return E, A


def random_model(
    seed: int,
    time_domain: str = "continuous",
    dims: Dims | None = None,
    kernel_rich: bool = False,
    singular_E: bool = False,
    duplicate_P: bool = False,
    radius: float = 0.5,
) -> DescriptorModel:
    """Seeded random model, well-posed on its whole parameter ball.

    ``kernel_rich`` forces m_v > 2*m_y so the auxiliary-input kernel is large
    enough that no single frequency can certify identifiability outright.
    D_zv is rescaled so that ||P(theta) D_zv|| < 1 for every theta in the
    ball, which makes well-posedness unconditional.
    """
    rng = np.random.default_rng(seed)
    if dims is None:
        m_x = int(rng.integers(1, 5))
        m_z = int(rng.integers(1, 3))
        m_u = int(rng.integers(m_z, m_z + 2))
        if kernel_rich:
            m_y = 1
            m_v = int(rng.integers(3, 5))
        else:
            m_y = int(rng.integers(1, 3))
            m_v = int(rng.integers(1, 3))
        q = int(rng.integers(1, min(4, m_v * m_z) + 1))
        if duplicate_P and q < 2:
            q = 2
        dims = Dims(m_x=m_x, m_u=m_u, m_y=m_y, m_z=m_z, m_v=m_v, q=q)
    d = dims

    E, A_xx = _stable_state_blocks(rng, d.m_x, time_domain, singular_E)
    B_xu = rng.standard_normal((d.m_x, d.m_u))
    B_xv = rng.standard_normal((d.m_x, d.m_v))
    C_yx = rng.standard_normal((d.m_y, d.m_x))
    C_zx = rng.standard_normal((d.m_z, d.m_x))
    D_yu = 0.3 * rng.standard_normal((d.m_y, d.m_u))
    D_yv = 0.3 * rng.standard_normal((d.m_y, d.m_v))
    D_zu = 0.3 * rng.standard_normal((d.m_z, d.m_u))
    D_zv = 0.3 * rng.standard_normal((d.m_z, d.m_v))

    P = [rng.standard_normal((d.m_v, d.m_z)) for _ in range(d.q)]
    if duplicate_P:
        P[1] = P[0].copy()

    # sup over the ball of ||P(theta)||_2 <= sqrt(radius * sum ||P_k||_F^2).
    p_bound = float(np.sqrt(radius * sum(np.sum(Pk * Pk) for Pk in P)))
    dzv_norm = float(np.linalg.norm(D_zv, 2))
    if p_bound * dzv_norm > 0.5:
        D_zv *= 0.5 / (p_bound * dzv_norm)

    return DescriptorModel(
        time_domain=time_domain,
        dims=d,
        E=E,
        A_xx=A_xx,
        B_xu=B_xu,
        B_xv=B_xv,
        C_yx=C_yx,
        C_zx=C_zx,
        D_yu=D_yu,
        D_yv=D_yv,
        D_zu=D_zu,
        D_zv=D_zv,
        P=tuple(P),
        theta_domain=ParameterDomain(radius=radius),
    )


def random_regular_model(seed: int, **kwargs) -> DescriptorModel:
    """Like :func:`random_model` but retries seeds until the regularity and
    well-posedness sampling passes."""
    from .model import validate_assumptions

    rng = np.random.default_rng(seed ^ 0x9E3779B9)
    for attempt in range(20):
        m = random_model(seed + 1_000_003 * attempt, **kwargs)
        thetas = [np.zeros(m.dims.q)]
        for _ in range(3):
            u = rng.standard_normal(m.dims.q)
            u *= 0.7 * np.sqrt(m.theta_domain.radius) / max(np.linalg.norm(u), 1e-12)
            thetas.append(u)
        try:
            validate_assumptions(m, thetas)
        except LftIdentError:
            continue
        return m
    raise RuntimeError(f"could not draw a regular well-posed model from seed {seed}")
