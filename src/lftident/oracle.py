"""Independent brute-force cross-checks for the headline results.

Everything here is deliberately dumb: central finite differences of the
stacked response map, direct singular-value arithmetic, random falsification
probes and empirical boundary sampling.  None of it uses the Pi factors, the
stacked rank test or the sloppiness eigenpencil it checks.  It shares the
evaluation of H (``response.g_sweep``, and ``response.h_sweep`` over a stack
of thetas at every point of a sweep, of which ``h_lft`` is the one-theta
case), numkit's default rank decision on the Jacobian, Psi's SVD factors
(``identifiability.psi``) and, for the empirical boundary, the S matrices and
ellipsoid that ``sloppiness`` builds from one ``identifiability.GridSweep`` of
the blocks the check evaluated.

The frequencies are evaluated once, in one sweep: :func:`fd_jacobian` keeps
it on its :class:`JacobianEstimate`, and the probe reads it there.  The
estimate also keeps the one rank decision on its Jacobian, which the report's
singular values, :func:`local_identifiability` and :func:`jacobian_sloppiness`
read.  The perturbed thetas of one finite-difference step go through one
``h_sweep`` of the whole sweep.  The probe's candidates and the boundary
directions are drawn in bulk a chunk at a time, so their memory stays bounded
and the probe stops at the first chunk with a match.  A chunk's draws are the
next numbers of its streams, so the chunk size never changes a candidate, and
every result equals one ``h_lft`` call per theta, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import identifiability, numkit, response, sloppiness
from .errors import InvalidInput
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


def response_stack(model: DescriptorModel, thetas, blocks) -> np.ndarray:
    """Real stacked response map of each row of ``thetas``: one row per theta
    holding, per point of the transfer-block sweep ``blocks``, Re vec H then Im vec H.

    One :func:`response.h_sweep`.  Raises the loop guard's
    WellPosednessViolation of the first theta whose loop fails, at its first
    failing point.
    """
    H, violations = response.h_sweep(model, thetas, blocks)
    if violations:
        raise violations[min(violations)]
    # vec of each H: its transpose's rows, read in C order.
    n, k, r, c = H.shape
    cols = H.transpose(0, 1, 3, 2).reshape(n, k, r * c)
    return np.stack([cols.real, cols.imag], axis=2).reshape(n, 2 * k * r * c)


@dataclass(frozen=True)
class JacobianEstimate:
    """Central-difference Jacobian of the stacked response map.

    ``step_halving_change`` is the relative change when the step is halved,
    a direct read on the truncation error.  ``blocks`` is the sweep of the
    transfer blocks of ``freqs``, in order.  ``decision`` is the rank decision
    on ``J`` at numkit's default tolerance, with its singular values.
    """

    J: np.ndarray
    step: float
    blocks: response.GSweep
    theta0: np.ndarray
    scheme: str
    step_halving_change: float
    decision: numkit.RankDecision

    @property
    def freqs(self) -> tuple[float, ...]:
        return self.blocks.omegas


def fd_jacobian(model: DescriptorModel, theta0, freqs, h: float | None = None) -> JacobianEstimate:
    """Central differences of theta -> col{Re vec H, Im vec H over frequencies}.

    All 2q perturbed thetas of one step go through one :func:`response_stack`.
    Raises InvalidInput unless the step ``h``, when given, is finite and > 0,
    and when theta0 +/- h e_k leaves the parameter domain.  The checks come in
    the order of a loop over k: a pair outside the domain is reported after
    the loop guard of the pairs before it.
    """
    if h is not None and not (math.isfinite(h) and h > 0):
        raise InvalidInput(f"finite-difference step must be finite and > 0, got {h}")
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)
    blocks = response.g_sweep(model, w).raise_guarded()
    if h is None:
        h = 1e-5 * max(1.0, float(np.max(np.abs(t0))) if t0.size else 1.0)
    q = model.dims.q

    def jac(step: float) -> np.ndarray:
        e = step * np.eye(q)
        pairs = np.stack([t0 + e, t0 - e], axis=1)
        inside = model.theta_domain.contains(pairs).all(axis=1)
        k_out = int(np.argmin(inside)) if not inside.all() else q
        rows = response_stack(model, pairs[:k_out].reshape(-1, q), blocks)
        if k_out < q:
            raise InvalidInput(
                f"theta0 +/- h e_{k_out} leaves the parameter domain; shrink h"
            )
        rows = rows.reshape(q, 2, -1)
        # C-contiguous, like a column stack: np.linalg.norm sums in memory order.
        return np.ascontiguousarray(((rows[:, 0] - rows[:, 1]) / (2.0 * step)).T)

    J = jac(h)
    J_half = jac(h / 2.0)
    scale = max(float(np.linalg.norm(J)), 1e-300)
    change = float(np.linalg.norm(J - J_half)) / scale
    return JacobianEstimate(
        J=J_half,
        step=h,
        blocks=blocks,
        theta0=t0,
        scheme="central",
        step_halving_change=change,
        decision=numkit.rank_of(J_half),
    )


def local_identifiability(est: JacobianEstimate) -> bool:
    """Full-column-rank decision on the response Jacobian of ``est``."""
    return est.decision.rank == est.J.shape[1]


def jacobian_sloppiness(est: JacobianEstimate) -> np.ndarray:
    """Reference spectrum 1/sigma_i^2 (ascending sigma) of the response Jacobian
    of ``est``.

    Refuses rank-deficient Jacobians: the corresponding sloppiness would be
    infinite and the comparison meaningless.
    """
    dec, q = est.decision, est.J.shape[1]
    if dec.rank < q:
        raise InvalidInput(
            f"Jacobian is rank deficient ({dec.rank} < {q}): sloppiness is infinite"
        )
    sigma = dec.singular_values
    return np.sort(1.0 / (sigma * sigma))[::-1]


def _domain_draws(model: DescriptorModel, dirs, radii, n: int) -> np.ndarray:
    """``n`` thetas (an n x q stack) drawn uniformly from the parameter domain:
    in a ball, a direction from the generator ``dirs`` and a radius from
    ``radii`` each; in a box, q coordinates from ``dirs`` each.  Each theta
    takes the same numbers from each generator whatever ``n`` is, so the
    draws of consecutive calls concatenate to the draws of one call."""
    q, dom = model.dims.q, model.theta_domain
    if dom.norm == "box":
        # random() is k 2^-53 with k < 2^53, so 2 u - 1 + 2^-53 is exactly the
        # midpoint of one of 2^53 equal cells of (-1, 1), at most 1 - 2^-53
        # in size; times a normal radius it rounds to inside (-radius, radius).
        return dom.radius * (2.0 * dirs.random((n, q)) - 1.0 + 2.0 ** -53)
    u = dirs.standard_normal((n, q))
    u /= np.maximum(np.linalg.norm(u, axis=1), 1e-300)[:, None]
    r = np.sqrt(dom.radius) * radii.random(n) ** (1.0 / q)
    return r[:, None] * u


def random_equivalence_probe(model: DescriptorModel, est: JacobianEstimate,
                             trials: int = 1000, seed: int = 0):
    """Search for theta* != est.theta0 with responses matching at every
    frequency of ``est``, the finite-difference Jacobian of :func:`fd_jacobian`.

    Line-searches along the null directions of Psi and of ``est.J``, then
    draws ``trials`` points uniformly from the parameter domain.  The
    candidates are tested a chunk at a time, in that order (:func:`_first_match`),
    and the search stops at the first chunk with a match.  Returns the first
    counterexample in draw order or None; absence of a counterexample proves
    nothing.  Raises InvalidInput when ``trials`` is negative.
    """
    if trials < 0:
        raise InvalidInput(f"trials must be a non-negative integer, got {trials}")
    t0 = est.theta0
    base = response.h_lft(model, t0, est.blocks)

    directions = []
    ker_psi = identifiability.psi(model).V2
    directions.extend(ker_psi[:, j] for j in range(ker_psi.shape[1]))
    # Null directions of est.J: singular values at or below an absolute cut.
    _, sig, Vh = np.linalg.svd(est.J)
    cut = 1e-6 * max(1.0, float(np.linalg.norm(est.J)))
    directions.extend(Vh[np.count_nonzero(sig > cut):])

    line = np.array([t0 + t * d for d in directions
                     for t in (0.3, 0.1, 0.01, -0.3, -0.1, -0.01)]).reshape(-1, model.dims.q)
    line = line[model.theta_domain.contains(line)]
    # Two streams, so that a chunk draws what its thetas draw in any chunking.
    dirs, radii = np.random.default_rng(seed).spawn(2)
    nbytes = response._theta_bytes(model, 1)
    for cands in itertools.chain(
            (line[part] for part in numkit._chunks(len(line), nbytes)),
            (_domain_draws(model, dirs, radii, part.stop - part.start)
             for part in numkit._chunks(trials, nbytes))):
        hit = _first_match(model, cands, t0, est.blocks, base)
        if hit is not None:
            return hit
    return None


def _first_match(model: DescriptorModel, cands: np.ndarray, t0, blocks, base):
    """The first of ``cands`` (an n x q stack) other than ``t0`` whose H matches
    ``base`` at each of ``blocks``, or None.  All candidates are tested at the
    first frequency in one :func:`response.h_sweep`, the survivors at the next
    one, and so on; a candidate whose loop fails the guard does not match."""
    alive = _norms_above(cands - t0, 1e-9)
    for g, H0 in zip(blocks, base):
        idx = np.flatnonzero(alive)
        if not idx.size:
            return None
        H, violations = response.h_sweep(model, cands[idx], g)
        passed = np.delete(idx, list(violations))
        alive[idx] = False
        alive[passed] = ~_norms_above(H[:, 0] - H0, RESPONSE_MATCH_TOL)
    hits = np.flatnonzero(alive)
    return cands[hits[0]] if hits.size else None


def _norms_above(D: np.ndarray, tol: float) -> np.ndarray:
    """``np.linalg.norm(D[i]) > tol`` for each array of the stack ``D``.

    One stacked norm decides every array whose norm is not within a relative
    1e-10 of ``tol``; the stacked sum sums in another order, which moves the
    norm by far less.  The others get the one-array call.
    """
    norms = np.linalg.norm(D.reshape(len(D), math.prod(D.shape[1:])), axis=1)
    above = norms > tol
    for i in np.flatnonzero(np.abs(norms - tol) <= 1e-10 * tol):
        above[i] = np.linalg.norm(D[i]) > tol
    return above


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
    as eps -> 0.  Raises InvalidInput unless ``samples`` is positive.
    """
    if samples < 1:
        raise InvalidInput(f"samples must be a positive integer, got {samples}")
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)
    blocks = response.g_sweep(model, w).raise_guarded()
    S = sloppiness.s_matrices(model, t0, w, sweep=identifiability.GridSweep(model, t0, blocks))
    ell = sloppiness.frobenius_ellipsoid(S, eps)
    base = response.h_lft(model, t0, blocks)
    rng = np.random.default_rng(seed)
    ratios = []
    for part in numkit._chunks(samples, response._theta_bytes(model, len(blocks))):
        U = rng.standard_normal((part.stop - part.start, S.n_s))
        thetas = np.array([ell.theta_of(ell.boundary_point(u)) for u in U])
        H, violations = response.h_sweep(model, thetas, blocks)
        if violations:
            raise violations[min(violations)]
        for Hi in H:
            energy = sum(float(np.linalg.norm(Hij - H0) ** 2) for Hij, H0 in zip(Hi, base))
            ratios.append(energy / eps ** 2)
    arr = np.asarray(ratios)
    return RatioStats(
        eps=float(eps),
        samples=len(ratios),
        min_ratio=float(arr.min()),
        mean_ratio=float(arr.mean()),
        max_ratio=float(arr.max()),
    )
