"""Independent brute-force cross-checks for the headline results.

Everything here is deliberately dumb: central finite differences of the
stacked response map, direct singular-value arithmetic, random falsification
probes and empirical boundary sampling.  None of it uses the Pi factors, the
stacked rank test or the sloppiness eigenpencil it checks.  It shares the
evaluation of H (``response.g_blocks`` and ``h_lft``), numkit's default rank
decisions on the Jacobian and on Psi, and, for the empirical boundary, the
ellipsoid that ``sloppiness`` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit, response, sloppiness
from .errors import InvalidInput, LftIdentError
from .model import DescriptorModel

__all__ = [
    "JacobianEstimate",
    "fd_jacobian",
    "local_identifiability",
    "jacobian_sloppiness",
    "random_equivalence_probe",
    "ellipsoid_empirical_check",
    "response_stack",
]

RESPONSE_MATCH_TOL = 1e-10


def response_stack(model: DescriptorModel, theta, blocks) -> np.ndarray:
    """Real stacked response map: per frequency's transfer blocks, Re vec H then Im vec H."""
    rows = []
    for g in blocks:
        H = response.h_lft(model, theta, g)
        rows.append(numkit.vec(H.real))
        rows.append(numkit.vec(H.imag))
    return np.concatenate(rows)


@dataclass(frozen=True)
class JacobianEstimate:
    """Central-difference Jacobian of the stacked response map.

    ``step_halving_change`` is the relative change when the step is halved,
    a direct read on the truncation error.
    """

    J: np.ndarray
    step: float
    freqs: tuple[float, ...]
    theta0: np.ndarray
    scheme: str
    step_halving_change: float


def fd_jacobian(model: DescriptorModel, theta0, freqs, h: float | None = None) -> JacobianEstimate:
    """Central differences of theta -> col{Re vec H, Im vec H over frequencies}.

    Raises InvalidInput unless the step ``h``, when given, is finite and > 0.
    """
    if h is not None and not (math.isfinite(h) and h > 0):
        raise InvalidInput(f"finite-difference step must be finite and > 0, got {h}")
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)
    blocks = [response.g_blocks(model, wi) for wi in w]
    if h is None:
        h = 1e-5 * max(1.0, float(np.max(np.abs(t0))) if t0.size else 1.0)
    q = model.dims.q

    def jac(step: float) -> np.ndarray:
        cols = []
        for k in range(q):
            e = np.zeros(q)
            e[k] = step
            for probe in (t0 + e, t0 - e):
                if not model.theta_domain.contains(probe):
                    raise InvalidInput(
                        f"theta0 +/- h e_{k} leaves the parameter domain; shrink h"
                    )
            plus = response_stack(model, t0 + e, blocks)
            minus = response_stack(model, t0 - e, blocks)
            cols.append((plus - minus) / (2.0 * step))
        return np.column_stack(cols)

    J = jac(h)
    J_half = jac(h / 2.0)
    scale = max(float(np.linalg.norm(J)), 1e-300)
    change = float(np.linalg.norm(J - J_half)) / scale
    return JacobianEstimate(
        J=J_half,
        step=h,
        freqs=tuple(w),
        theta0=t0,
        scheme="central",
        step_halving_change=change,
    )


def local_identifiability(J: JacobianEstimate | np.ndarray) -> bool:
    """Full-column-rank decision on the response Jacobian."""
    M = J.J if isinstance(J, JacobianEstimate) else np.asarray(J)
    return numkit.is_fcr(M)


def jacobian_sloppiness(J: JacobianEstimate | np.ndarray) -> np.ndarray:
    """Reference spectrum 1/sigma_i^2 (ascending sigma) of the response Jacobian.

    Refuses rank-deficient Jacobians: the corresponding sloppiness would be
    infinite and the comparison meaningless.
    """
    M = J.J if isinstance(J, JacobianEstimate) else np.asarray(J)
    dec = numkit.rank_of(M)
    if dec.rank < M.shape[1]:
        raise InvalidInput(
            f"Jacobian is rank deficient ({dec.rank} < {M.shape[1]}): sloppiness is infinite"
        )
    sigma = dec.singular_values
    return np.sort(1.0 / (sigma * sigma))[::-1]


def _domain_sample(rng, model: DescriptorModel) -> np.ndarray:
    q = model.dims.q
    u = rng.standard_normal(q)
    u /= max(np.linalg.norm(u), 1e-300)
    if model.theta_domain.norm == "ball":
        r = np.sqrt(model.theta_domain.radius) * rng.random() ** (1.0 / q)
    else:
        r = model.theta_domain.radius * rng.random()
    return r * u


def random_equivalence_probe(model: DescriptorModel, est: JacobianEstimate,
                             trials: int = 1000, seed: int = 0):
    """Search for theta* != est.theta0 with responses matching at every
    frequency of ``est``, the finite-difference Jacobian of :func:`fd_jacobian`.

    Draws uniformly from the parameter domain and additionally line-searches
    along the null directions of Psi and of ``est.J``.  Returns the first
    counterexample found or None; absence of a counterexample proves nothing.
    """
    t0 = est.theta0
    blocks = [response.g_blocks(model, wi) for wi in est.freqs]
    base = [response.h_lft(model, t0, g) for g in blocks]
    rng = np.random.default_rng(seed)

    def matches(theta) -> bool:
        if np.linalg.norm(theta - t0) <= 1e-9:
            return False
        try:
            for g, H0 in zip(blocks, base):
                H = response.h_lft(model, theta, g)
                if np.linalg.norm(H - H0) > RESPONSE_MATCH_TOL:
                    return False
        except LftIdentError:
            return False
        return True

    directions = []
    psi_cols = np.column_stack([numkit.vec(Pk) for Pk in model.P])
    ker_psi = numkit.right_null_basis(psi_cols).real
    directions.extend(ker_psi[:, j] for j in range(ker_psi.shape[1]))
    # Null directions of est.J: singular values at or below an absolute cut.
    _, sig, Vh = np.linalg.svd(est.J)
    cut = 1e-6 * max(1.0, float(np.linalg.norm(est.J)))
    directions.extend(Vh[np.count_nonzero(sig > cut):])

    for d in directions:
        for t in (0.3, 0.1, 0.01, -0.3, -0.1, -0.01):
            cand = t0 + t * d
            if model.theta_domain.contains(cand) and matches(cand):
                return cand
    for _ in range(trials):
        cand = _domain_sample(rng, model)
        if matches(cand):
            return cand
    return None


@dataclass(frozen=True)
class RatioStats:
    """Empirical boundary statistics of the deviation-energy ellipsoid."""

    eps: float
    samples: int
    min_ratio: float
    mean_ratio: float
    max_ratio: float


def ellipsoid_empirical_check(
    model: DescriptorModel,
    theta0,
    freqs,
    eps: float,
    samples: int = 20,
    seed: int = 0,
) -> RatioStats:
    """Evaluate actual deviation energies on the ellipsoid boundary.

    Draws random boundary points xi (xi^T M xi = eps^2), reconstructs
    theta = theta0 + S_1 xi, and reports statistics of
    sum_i ||H(j w_i, theta) - H(j w_i, theta0)||_F^2 / eps^2, which tends to 1
    as eps -> 0.
    """
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)
    S = sloppiness.s_matrices(model, t0, w)
    ell = sloppiness.frobenius_ellipsoid(S, eps)
    rng = np.random.default_rng(seed)
    ratios = []
    blocks = [response.g_blocks(model, wi) for wi in w]
    base = [response.h_lft(model, t0, g) for g in blocks]
    for _ in range(samples):
        u = rng.standard_normal(S.n_s)
        if float(u @ S.M @ u) <= 0.0:
            continue
        xi = ell.boundary_point(u)
        theta = ell.theta_of(xi)
        energy = 0.0
        for g, H0 in zip(blocks, base):
            H = response.h_lft(model, theta, g)
            energy += float(np.linalg.norm(H - H0) ** 2)
        ratios.append(energy / eps ** 2)
    if not ratios:
        raise InvalidInput("no boundary sample carried deviation energy")
    arr = np.asarray(ratios)
    return RatioStats(
        eps=float(eps),
        samples=len(ratios),
        min_ratio=float(arr.min()),
        mean_ratio=float(arr.mean()),
        max_ratio=float(arr.max()),
    )
