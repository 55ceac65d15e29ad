"""First-order sloppiness geometry around an identifiable parameter point.

The response deviation at each sampled frequency is parameterized through the
thin-SVD factors of G_yv and G_zu; collecting the admissibility, consistency
and realness constraints over all frequencies yields a pair of real block
matrices (Gamma, Omega).  When the frequency set certifies identifiability,
Gamma has full column rank and the admissible first-order deviations are the
null space S_H of (left-annihilator of Gamma) times Omega.  From S_H the
module derives

* the affine parameterization theta = theta0 + S_k xi of all parameters whose
  response-deviation energy stays below eps^2 (a q-dimensional ellipsoid),
* absolute/relative sloppiness metrics as generalized eigenvalues of the
  pencil (S_k^T S_k, M) with M the deviation-energy Gram matrix, and
* a per-frequency spectral-norm membership predicate.

A frequency list arrives as its :class:`identifiability.GridSweep`; the
pointwise factors and the Q pairs are (N, ...) stacks over that list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import identifiability as ident
from . import numkit, response
from .errors import (ConstructionError, DeviationSpaceMismatch, GammaRankDeficient,
                     InvalidInput, RankDrop)
from .model import DescriptorModel

__all__ = [
    "PointwiseFactors",
    "QPair",
    "SMatrices",
    "EllipsoidModel",
    "SloppinessReport",
    "pointwise_factors",
    "q_pair",
    "gamma_omega",
    "s_matrices",
    "frobenius_ellipsoid",
    "metrics",
    "deviation_sigmas",
    "spectral_membership",
]

EPS_CONVENTION = "energy<=eps^2"

# Random deviations on which q_pair checks its Q action, and their seed.
_Q_CHECK_PROBES = 20
_Q_CHECK_SEED = 1


@dataclass(frozen=True)
class PointwiseFactors:
    """Thin-SVD data of G_yv and G_zu plus the loop-corrected factors at each
    frequency of ``omegas``: every other field is an (N, ...) stack.

    ``Phi_l`` maps deviation coordinates into the parameter block from the
    left, ``Phi_r`` from the right:

        Phi_l = (I - P(theta0) G_zv) V_yv1 Sigma_yv^-1      (m_v x r_yv)
        Phi_r = Sigma_zu^-1 U_zu^H (I - G_zv P(theta0))     (m_z x m_z)
    """

    omegas: tuple[float, ...]
    U_yv1: np.ndarray
    sigma_yv: np.ndarray
    V_yv1: np.ndarray
    U_zu: np.ndarray
    sigma_zu: np.ndarray
    V_zu1: np.ndarray
    Phi_l: np.ndarray
    Phi_r: np.ndarray

    @property
    def r_yv(self) -> int:
        return self.sigma_yv.shape[1]

    @property
    def r_zu(self) -> int:
        return self.sigma_zu.shape[1]


def pointwise_factors(model: DescriptorModel, theta0, g: response.GSweep) -> PointwiseFactors:
    """Factor G_yv and G_zu at every point of the transfer-block sweep ``g``,
    with one stacked SVD per block.

    Raises RankDrop, naming the first such omega, where G_zu is not of full
    row rank, and when the rank of G_yv differs between points.
    """
    t0 = model.check_theta(theta0)
    m_z, m_v = model.dims.m_z, model.dims.m_v

    # Rank decisions here are anchored at the overall response scale at each
    # frequency: a block vanishing at an isolated omega must read as a rank
    # drop, not be ranked by its numerical dust.  The 2-norms of G_zu and G_yv
    # are the largest singular values of their own SVDs, split at that scale.
    (U_zu, s_zu, V_zu, _), (U_yv, s_yv, V_yv, _) = (numkit.svd_stack(B) for B in (g.G_zu, g.G_yv))
    scale = np.maximum.reduce([s_zu[:, 0], s_yv[:, 0], np.linalg.norm(g.G_yu, 2, axis=(1, 2)),
                               np.linalg.norm(g.G_zv, 2, axis=(1, 2)), np.full(len(g), 1e-300)])
    r_zu, r_yv = (numkit._ranks(sigma, B.shape[1:], numkit.DEFAULT_RANK_RTOL, scale)
                  for sigma, B in ((s_zu, g.G_zu), (s_yv, g.G_yv)))
    drop = np.flatnonzero(r_zu < m_z)
    if drop.size:
        raise RankDrop(f"G_zu drops to rank {r_zu[drop[0]]} < m_z={m_z} "
                       f"at omega={g.omegas[drop[0]]}; pick another frequency")
    if r_yv.min() != r_yv.max():
        raise RankDrop(f"G_yv rank varies across the chosen frequencies "
                       f"(r_yv={sorted(set(r_yv.tolist()))}); pick frequencies at the normal rank")
    r = int(r_yv[0])

    # G_zu has full row rank: U_zu and s_zu are whole.  The eye divided by
    # sigma is the stack of diag(1 / sigma), zeros included, bit for bit.
    P0 = model.p_of(t0)
    loop_l = np.eye(m_v) - P0 @ g.G_zv
    loop_r = np.eye(m_z) - g.G_zv @ P0
    return PointwiseFactors(
        omegas=g.omegas,
        U_yv1=U_yv[:, :, :r],
        sigma_yv=s_yv[:, :r],
        V_yv1=V_yv[:, :, :r],
        U_zu=U_zu,
        sigma_zu=s_zu,
        V_zu1=V_zu[:, :, :m_z],
        Phi_l=loop_l @ V_yv[:, :, :r] @ (np.eye(r) / s_yv[:, None, :r]),
        Phi_r=(np.eye(m_z) / s_zu[:, None]) @ U_zu.conj().transpose(0, 2, 1) @ loop_r,
    )


def _th_columns(r_yv: int, r_zu: int) -> np.ndarray:
    """Column index array C with X[:, C] xi = X [vec(D_r); vec(D_j)] for
    xi = vec(col{D_r; D_j})."""
    idx = np.arange(r_yv * r_zu).reshape(r_zu, r_yv)
    return np.hstack([idx, idx + r_yv * r_zu]).reshape(-1)


@dataclass(frozen=True)
class QPair:
    """Real matrices acting on interleaved deviation coordinates, one of each
    per frequency of ``omegas``, stacked.

    For any complex D (r_yv x r_zu) with xi = vec(col{Re D; Im D}):
    ``Q_r[k] @ xi = vec(Re(Phi_l D Phi_r))`` at frequency k and ``Q_j[k] @ xi``
    its imaginary part.
    """

    omegas: tuple[float, ...]
    Q_r: np.ndarray
    Q_j: np.ndarray


def q_pair(factors: PointwiseFactors) -> QPair:
    """Assemble the Q pairs of the stacked pointwise factors; self-checks the action.

    With K[s, t] = kron(R_s^T, L_t) over the real and imaginary parts of
    R = Phi_r and L = Phi_l, all four from one broadcast product, vec(L D R)
    has real part re vec(Re D) - im vec(Im D) and imaginary part
    im vec(Re D) + re vec(Im D), where re = K[r, r] - K[j, j] and
    im = K[j, r] + K[r, j].  The columns are then interleaved to act on
    xi = vec(col{Re D; Im D}).

    The self-check compares Q_r xi and Q_j xi with vec Re/Im(L D R) for
    _Q_CHECK_PROBES random complex D (:func:`_q_probes`) at every frequency,
    all in one stacked product.  A probe whose residual exceeds
    1e-10 * scale * max(1, max|D|) fails it, and the ConstructionError names
    the first failing frequency and that frequency's first failing residual.
    """
    L, R = factors.Phi_l, factors.Phi_r
    r_yv, r_zu = factors.r_yv, factors.r_zu
    K = numkit._kron(np.stack([R.real, R.imag], axis=1).swapaxes(2, 3)[:, :, None],
                     np.stack([L.real, L.imag], axis=1)[:, None])
    re, im = K[:, 0, 0] - K[:, 1, 1], K[:, 1, 0] + K[:, 0, 1]
    cols = _th_columns(r_yv, r_zu)
    # -K[j, r] - K[r, j] rather than -im: where K[j, r] = -K[r, j], -im is
    # -0.0 and this is +0.0.  A zero's sign can steer a Householder step.
    Q_r = np.concatenate([re, -K[:, 1, 0] - K[:, 0, 1]], axis=2)[:, :, cols]
    Q_j = np.concatenate([im, re], axis=2)[:, :, cols]

    if r_yv * r_zu:
        D = _q_probes(r_yv, r_zu)
        n, k = len(L), len(D)
        xi = np.concatenate([D.real, D.imag], axis=1).transpose(0, 2, 1).reshape(k, -1)
        # vec(L D R) per frequency and probe.
        prod = (L[:, None] @ D @ R[:, None]).transpose(0, 1, 3, 2).reshape(n, k, -1)
        err = np.maximum(np.abs(xi @ Q_r.transpose(0, 2, 1) - prod.real).max(axis=2, initial=0.0),
                         np.abs(xi @ Q_j.transpose(0, 2, 1) - prod.imag).max(axis=2, initial=0.0))
        scale = (np.maximum(np.linalg.norm(L, axis=(1, 2)), 1.0)
                 * np.maximum(np.linalg.norm(R, axis=(1, 2)), 1.0))
        bad = np.argwhere(err > 1e-10 * scale[:, None] * np.maximum(1.0, np.abs(D).max(axis=(1, 2))))
        if bad.size:
            i, j = bad[0]
            raise ConstructionError(
                f"Q action self-check failed at omega={factors.omegas[i]}: "
                f"residual {err[i, j]:.3e}"
            )
    return QPair(omegas=factors.omegas, Q_r=Q_r, Q_j=Q_j)


def _q_probes(r_yv: int, r_zu: int) -> np.ndarray:
    """The (_Q_CHECK_PROBES, r_yv, r_zu) stack of complex deviations on which
    q_pair checks its action: one bulk draw, the same stream as drawing the
    real and then the imaginary part of each probe in turn."""
    Z = np.random.default_rng(_Q_CHECK_SEED).standard_normal((_Q_CHECK_PROBES, 2, r_yv, r_zu))
    return Z[:, 0] + 1j * Z[:, 1]


def _block_rows(psi_dec, bars, qpairs: QPair, m_z: int):
    """(Gamma, Omega) over the frequencies, and the stack of I_mz kron Pi_bar_r,
    from the stacks ``bars`` of Pi_bar_r and Pi_bar_j."""
    U1t, U2t = psi_dec.U1.T, psi_dec.U2.T
    I_mz = np.eye(m_z)
    kr = numkit._kron(I_mz, bars[0])
    Gamma = _assemble(U1t @ kr, U2t @ kr, numkit._kron(I_mz, bars[1]))
    Omega = _assemble(U1t @ qpairs.Q_r, U2t @ qpairs.Q_r, qpairs.Q_j)
    return Gamma, Omega, kr


def _assemble(first, solvability, realness) -> np.ndarray:
    """The block matrix of the (N, ., n) stacks of per-frequency blocks,
    frequency i in column block i.

    Rows: N - 1 consistency blocks [first_0, ..., -first_i, ...], then the
    N solvability and the N realness blocks on the block diagonal.
    """
    consistency = np.hstack([np.tile(first[0], (len(first) - 1, 1)), _block_diag(-first[1:])])
    return np.vstack([consistency, _block_diag(solvability), _block_diag(realness)])


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the (N, m, n) stack ``blocks``."""
    N, m, n = blocks.shape
    out = np.zeros((N, m, N, n))
    out[range(N), :, range(N)] = blocks
    return out.reshape(N * m, N * n)


def _context(model, theta0, freqs, sweep):
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)
    psi_dec = ident.psi(model)
    if psi_dec.V2.shape[1]:
        raise GammaRankDeficient(
            "Psi is rank deficient: no frequency set certifies identifiability"
        )
    sweep = ident.listed_sweep(model, t0, w, sweep)
    factors = pointwise_factors(model, t0, sweep.g)
    return t0, w, psi_dec, sweep.bars(), factors, q_pair(factors)


def gamma_omega(model: DescriptorModel, theta0, freqs,
                sweep: ident.GridSweep | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the paired constraint stacks (Gamma, Omega) over the frequencies;
    ``sweep`` as in :func:`s_matrices`."""
    _, _, psi_dec, bars, _, qpairs = _context(model, theta0, freqs, sweep)
    return _block_rows(psi_dec, bars, qpairs, model.dims.m_z)[:2]


@dataclass(frozen=True)
class SMatrices:
    """First-order deviation geometry over a certifying frequency set.

    ``S_H`` spans the admissible deviation coordinates, ``S_A`` the induced
    kernel coordinates (Gamma @ S_A = Omega @ S_H), ``S_k[k]`` the affine
    parameter maps (one per frequency), ``S_tilde[k]`` the complex deviation
    reconstruction at frequency k (one stack), ``M`` the deviation-energy
    Gram matrix (equal to S_H^T S_H), and ``factors`` the stacked pointwise
    factors.
    """

    theta0: np.ndarray
    freqs: tuple[float, ...]
    Gamma: np.ndarray
    Omega: np.ndarray
    S_H: np.ndarray
    S_A: np.ndarray
    S_k: tuple[np.ndarray, ...]
    S_tilde: np.ndarray
    M: np.ndarray
    factors: PointwiseFactors

    @property
    def n_s(self) -> int:
        return self.S_H.shape[1]

    def complex_block(self, k: int) -> np.ndarray:
        """Stack (S_H,k(2c-1) + j S_H,k(2c)) over the r_zu column groups:
        maps xi to vec of the complex deviation coordinates at frequency k."""
        return _complex_blocks(self.S_H, self.factors)[k]


def _complex_blocks(S_H: np.ndarray, factors: PointwiseFactors) -> np.ndarray:
    """:meth:`SMatrices.complex_block` of every frequency, as one stack."""
    N, r_yv, r_zu, n = len(factors.omegas), factors.r_yv, factors.r_zu, S_H.shape[1]
    B = S_H.reshape(N, r_zu, 2, r_yv, n)
    return (B[:, :, 0] + 1j * B[:, :, 1]).reshape(N, r_zu * r_yv, n)


def s_matrices(model: DescriptorModel, theta0, freqs,
               sweep: ident.GridSweep | None = None) -> SMatrices:
    """Build the S matrices; refuses when Gamma is not full column rank, or
    when the admissible deviations S_H do not span q dimensions.

    ``sweep`` is the GridSweep of ``freqs`` at ``theta0``, checked and by
    default built by :func:`identifiability.listed_sweep`.  The parameter map
    at frequency k is

        S_k = V_Psi Sigma_Psi^-1 U_Psi1^T (Q_r(w_k) S_H,k - (I kron Pi_bar_r(w_k)) S_A,k)

    the minus sign following from Gamma a + Omega xi = 0 with S_A defined as
    Gamma^+ Omega S_H.  Each product with a block of S_H or S_A, and the sum
    that forms M, run one frequency at a time: BLAS results depend on the
    operands' layout, and a stacked sum can flip a signed zero.
    """
    t0, w, psi_dec, bars, factors, qpairs = _context(model, theta0, freqs, sweep)
    Gamma, Omega, kr = _block_rows(psi_dec, bars, qpairs, model.dims.m_z)

    # One SVD of Gamma gives its rank and its left annihilator.
    gamma = numkit.svd_full(Gamma)
    if gamma.rank < Gamma.shape[1]:
        raise GammaRankDeficient(
            "Gamma is rank deficient: these frequencies do not certify "
            "identifiability at theta0; run the frequency search first"
        )
    Gl = gamma.U2.T
    S_H = numkit.right_null_basis(Gl @ Omega).real
    S_A = np.linalg.pinv(Gamma) @ Omega @ S_H

    n_s = S_H.shape[1]
    if n_s != model.dims.q:
        # One relative null cut over every frequency's rows: when the
        # frequencies' response scales lie far apart, it can drop a genuine
        # constraint of the smaller-scaled rows.
        raise DeviationSpaceMismatch(
            f"the admissible deviations span n_s={n_s} dimensions, not q={model.dims.q}: "
            "one rank cut cannot resolve the response scales of these frequencies; "
            "pick frequencies whose responses are of closer magnitude"
        )
    o, g = qpairs.Q_r.shape[2], kr.shape[2]  # rows of S_H and S_A per frequency
    V1, sig, U1t = psi_dec.V1, psi_dec.sigma, psi_dec.U1.T
    S_k = []
    for k in range(len(w)):
        core = qpairs.Q_r[k] @ S_H[k * o:(k + 1) * o, :] - kr[k] @ S_A[k * g:(k + 1) * g, :]
        S_k.append(V1 @ (np.diag(1.0 / sig) @ (U1t @ core)))

    S_tilde = numkit._kron(factors.V_zu1, factors.U_yv1) @ _complex_blocks(S_H, factors)
    M = np.zeros((n_s, n_s))
    for St in S_tilde:
        M += St.real.T @ St.real + St.imag.T @ St.imag
    M = 0.5 * (M + M.T)

    gram = S_H.T @ S_H
    if np.linalg.norm(M - gram) > 1e-8 * max(np.linalg.norm(gram), 1.0):
        raise ConstructionError(
            "energy Gram matrix disagrees with S_H^T S_H; factor bookkeeping is off"
        )
    return SMatrices(
        theta0=t0,
        freqs=tuple(w),
        Gamma=Gamma,
        Omega=Omega,
        S_H=S_H,
        S_A=S_A,
        S_k=tuple(S_k),
        S_tilde=S_tilde,
        M=M,
        factors=factors,
    )


def _checked_xi(xi, n: int, name: str = "xi") -> np.ndarray:
    """``xi`` as a float vector of length ``n`` with finite entries; InvalidInput otherwise."""
    x = np.asarray(xi, dtype=float).reshape(-1)
    if x.size != n:
        raise InvalidInput(f"{name} must have length n_s={n}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class EllipsoidModel:
    """Quadratic-form description of the small-deviation parameter set.

    The set is ``{theta0 + S_k @ xi : xi^T M xi <= eps^2}``; the energy
    convention is quadratic (sum of squared Frobenius deviations bounded by
    eps^2) so the sloppiness metrics take their closed forms verbatim.
    """

    theta0: np.ndarray
    S_k: np.ndarray
    M: np.ndarray
    eps: float
    convention: str = EPS_CONVENTION

    def quad(self, xi) -> float:
        x = _checked_xi(xi, len(self.M))
        return float(x @ self.M @ x)

    def contains(self, xi) -> bool:
        return self.quad(xi) <= self.eps ** 2 * (1.0 + 1e-12)

    def theta_of(self, xi) -> np.ndarray:
        return self.theta0 + self.S_k @ _checked_xi(xi, len(self.M))

    def boundary_point(self, direction) -> np.ndarray:
        """Scale ``direction`` onto the boundary xi^T M xi = eps^2."""
        u = _checked_xi(direction, len(self.M), "direction")
        quad = float(u @ self.M @ u)
        if quad <= 0.0:
            raise InvalidInput("direction carries no deviation energy")
        return (self.eps / np.sqrt(quad)) * u


def frobenius_ellipsoid(S: SMatrices, eps: float, k: int = 1) -> EllipsoidModel:
    """Ellipsoid of parameters whose total response-deviation energy is <= eps^2."""
    if not 0.0 < eps < np.inf:
        raise InvalidInput(f"eps must be finite and positive, got {eps}")
    _check_k(S, k)
    return EllipsoidModel(theta0=S.theta0, S_k=S.S_k[k - 1], M=S.M, eps=float(eps))


@dataclass(frozen=True)
class SloppinessReport:
    """Spectrum and metrics of the constrained parameter-motion maximization.

    ``mu`` are the descending generalized eigenvalues of (S_k^T S_k, M);
    ``sm_abs = sqrt(mu[0])`` is the absolute sloppiness (largest parameter
    motion per unit deviation), ``sm_rel[i] = sqrt(mu[i]/mu[i+1])`` the
    relative metrics, and ``directions`` the associated unit parameter
    directions, signed by :func:`numkit.sign_flip`.  ``inconsistent`` flags
    infinite eigenvalues, which contradict the identifiability certificate and
    indicate numerical trouble.
    """

    mu: np.ndarray
    sm_abs: float
    sm_rel: np.ndarray
    directions: np.ndarray
    k: int
    eps_convention: str = EPS_CONVENTION

    @property
    def inconsistent(self) -> bool:
        return bool(np.any(np.isinf(self.mu)))


def _check_k(S: SMatrices, k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= len(S.freqs):
        raise InvalidInput(f"k must be an integer in 1..{len(S.freqs)}, got {k!r}")


def metrics(S: SMatrices, k: int = 1) -> SloppinessReport:
    """Sloppiness spectrum, metrics and extreme directions at block k.

    The spectrum is k-independent up to numerics; k only selects which
    parameter map carries the eigenvectors into theta space.
    """
    _check_k(S, k)
    Sk = S.S_k[k - 1]
    mu, vecs = numkit.gen_eig_psd_pencil_pairs(Sk.T @ Sk, S.M)
    dirs = []
    for i in range(vecs.shape[1]):
        d = Sk @ vecs[:, i]
        nrm = np.linalg.norm(d)
        dirs.append(d / nrm if nrm > 0 else d)
    directions = numkit.sign_flip(np.column_stack(dirs)) if dirs else np.zeros((Sk.shape[0], 0))
    sm_abs = float(np.sqrt(mu[0])) if mu.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        sm_rel = np.sqrt(mu[:-1] / mu[1:]) if mu.size > 1 else np.zeros(0)
    return SloppinessReport(
        mu=mu,
        sm_abs=sm_abs,
        sm_rel=sm_rel,
        directions=directions,
        k=k,
    )


def deviation_sigmas(S: SMatrices, xi) -> np.ndarray:
    """Maximum singular value of the first-order deviation at every frequency."""
    x = _checked_xi(xi, S.n_s)
    f = S.factors
    coords = _complex_blocks(S.S_H, f) @ x
    D = coords.reshape(len(coords), f.r_zu, f.r_yv).transpose(0, 2, 1)  # unvec per frequency
    return np.linalg.svd(f.U_yv1 @ D @ f.V_zu1.transpose(0, 2, 1), compute_uv=False)[:, 0]


def spectral_membership(S: SMatrices, xi, eps: float) -> bool:
    """True when every per-frequency first-order deviation has sigma_max <= eps.

    The predicate intersects the constraint over all frequency blocks.
    """
    if not 0.0 <= eps < np.inf:
        raise InvalidInput(f"eps must be finite and nonnegative, got {eps}")
    sig = deviation_sigmas(S, xi)
    return bool(np.all(sig <= eps * (1.0 + 1e-12)))
