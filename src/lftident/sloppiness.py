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
    """Thin-SVD data of G_yv and G_zu at one frequency plus the loop-corrected factors.

    ``Phi_l`` maps deviation coordinates into the parameter block from the
    left, ``Phi_r`` from the right:

        Phi_l = (I - P(theta0) G_zv) V_yv1 Sigma_yv^-1      (m_v x r_yv)
        Phi_r = Sigma_zu^-1 U_zu^H (I - G_zv P(theta0))     (m_z x m_z)
    """

    omega: float
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
        return int(self.sigma_yv.size)

    @property
    def r_zu(self) -> int:
        return int(self.sigma_zu.size)


def pointwise_factors(model: DescriptorModel, theta0, g: response.GBlocks) -> PointwiseFactors:
    """Factor G_yv and G_zu of the transfer blocks ``g`` at one frequency;
    requires G_zu full row rank there."""
    t0 = model.check_theta(theta0)
    m_z, m_v = model.dims.m_z, model.dims.m_v

    # Rank decisions here are anchored at the overall response scale at this
    # frequency: a block vanishing at an isolated omega must read as a rank
    # drop, not be ranked by its numerical dust.  The 2-norms of G_zu and G_yv
    # are the largest singular values of their own SVDs, split at that scale.
    svds = [numkit.svd_stack(B[None]) for B in (g.G_zu, g.G_yv)]
    scale = max(
        [float(sigma[0, 0]) for _, sigma, _, _ in svds if sigma.size]
        + [float(np.linalg.norm(B, 2)) for B in (g.G_yu, g.G_zv) if B.size],
        default=1.0,
    )
    scale = max(scale, 1e-300)
    zu, yv = (numkit._split(U[0], sigma[0], V[0], B.shape, numkit.DEFAULT_RANK_RTOL, scale)
              for (U, sigma, V, _), B in zip(svds, (g.G_zu, g.G_yv)))
    if zu.rank < m_z:
        raise RankDrop(
            f"G_zu drops to rank {zu.rank} < m_z={m_z} at omega={g.omega}; pick another frequency"
        )

    P0 = model.p_of(t0)
    loop_l = np.eye(m_v) - P0 @ g.G_zv
    loop_r = np.eye(m_z) - g.G_zv @ P0
    Phi_l = loop_l @ yv.V1 @ np.diag(1.0 / yv.sigma) if yv.rank else np.zeros((m_v, 0))
    Phi_r = np.diag(1.0 / zu.sigma) @ zu.U1.conj().T @ loop_r
    return PointwiseFactors(
        omega=g.omega,
        U_yv1=yv.U1,
        sigma_yv=yv.sigma,
        V_yv1=yv.V1,
        U_zu=zu.U1,
        sigma_zu=zu.sigma,
        V_zu1=zu.V1,
        Phi_l=Phi_l,
        Phi_r=Phi_r,
    )


def _th_columns(r_yv: int, r_zu: int) -> np.ndarray:
    """Column index array C with X[:, C] xi = X [vec(D_r); vec(D_j)] for
    xi = vec(col{D_r; D_j})."""
    idx = np.arange(r_yv * r_zu).reshape(r_zu, r_yv)
    return np.hstack([idx, idx + r_yv * r_zu]).reshape(-1)


@dataclass(frozen=True)
class QPair:
    """Real matrices acting on interleaved deviation coordinates.

    For any complex D (r_yv x r_zu) with xi = vec(col{Re D; Im D}):
    ``Q_r @ xi = vec(Re(Phi_l D Phi_r))`` and ``Q_j @ xi`` its imaginary part.
    """

    omega: float
    Q_r: np.ndarray
    Q_j: np.ndarray


def q_pair(factors: PointwiseFactors) -> QPair:
    """Assemble the Q pair from the pointwise factors; self-checks the action.

    With K[s, t] = kron(R_s^T, L_t) over the real and imaginary parts of
    R = Phi_r and L = Phi_l, all four from one broadcast product, vec(L D R)
    has real part re vec(Re D) - im vec(Im D) and imaginary part
    im vec(Re D) + re vec(Im D), where re = K[r, r] - K[j, j] and
    im = K[j, r] + K[r, j].  The columns are then interleaved to act on
    xi = vec(col{Re D; Im D}).

    The self-check compares Q_r xi and Q_j xi with vec Re/Im(L D R) for
    _Q_CHECK_PROBES random complex D (:func:`_q_probes`), all in one stacked
    product.  A probe whose residual exceeds 1e-10 * scale * max(1, max|D|)
    fails it, and the ConstructionError names the first such residual.
    """
    L, R = factors.Phi_l, factors.Phi_r
    r_yv, r_zu = factors.r_yv, factors.r_zu
    K = numkit._kron(np.stack([R.real.T, R.imag.T])[:, None], np.stack([L.real, L.imag]))
    re, im = K[0, 0] - K[1, 1], K[1, 0] + K[0, 1]
    cols = _th_columns(r_yv, r_zu)
    # -K[j, r] - K[r, j] rather than -im: where K[j, r] = -K[r, j], -im is
    # -0.0 and this is +0.0.  A zero's sign can steer a Householder step.
    Q_r = np.hstack([re, -K[1, 0] - K[0, 1]])[:, cols]
    Q_j = np.hstack([im, re])[:, cols]

    if r_yv * r_zu:
        D = _q_probes(r_yv, r_zu)
        k = len(D)
        xi = np.concatenate([D.real, D.imag], axis=1).transpose(0, 2, 1).reshape(k, -1)
        prod = (L @ D @ R).transpose(0, 2, 1).reshape(k, -1)  # vec(L D R) per probe
        err = np.maximum(np.abs(xi @ Q_r.T - prod.real).max(axis=1, initial=0.0),
                         np.abs(xi @ Q_j.T - prod.imag).max(axis=1, initial=0.0))
        scale = max(np.linalg.norm(L), 1.0) * max(np.linalg.norm(R), 1.0)
        bad = np.flatnonzero(err > 1e-10 * scale * np.maximum(1.0, np.abs(D).max(axis=(1, 2))))
        if bad.size:
            raise ConstructionError(
                f"Q action self-check failed at omega={factors.omega}: "
                f"residual {err[bad[0]]:.3e}"
            )
    return QPair(omega=factors.omega, Q_r=Q_r, Q_j=Q_j)


def _q_probes(r_yv: int, r_zu: int) -> np.ndarray:
    """The (_Q_CHECK_PROBES, r_yv, r_zu) stack of complex deviations on which
    q_pair checks its action: one bulk draw, the same stream as drawing the
    real and then the imaginary part of each probe in turn."""
    Z = np.random.default_rng(_Q_CHECK_SEED).standard_normal((_Q_CHECK_PROBES, 2, r_yv, r_zu))
    return Z[:, 0] + 1j * Z[:, 1]


def _block_rows(psi_dec, pis, qpairs, m_z: int):
    """(Gamma, Omega) over the frequencies, and I_mz kron Pi_bar_r of each."""
    U1t, U2t = psi_dec.U1.T, psi_dec.U2.T
    I_mz = np.eye(m_z)
    kr = [numkit._kron(I_mz, p.Pi_bar_r) for p in pis]
    Gamma = _assemble([U1t @ K for K in kr], [U2t @ K for K in kr],
                      [numkit._kron(I_mz, p.Pi_bar_j) for p in pis])
    Omega = _assemble([U1t @ qp.Q_r for qp in qpairs], [U2t @ qp.Q_r for qp in qpairs],
                      [qp.Q_j for qp in qpairs])
    return Gamma, Omega, kr


def _assemble(first, solvability, realness) -> np.ndarray:
    """The block matrix of per-frequency blocks, frequency i in column block i.

    Rows: N - 1 consistency blocks [first_0, ..., -first_i, ...], then the
    N solvability and the N realness blocks on the block diagonal.
    """
    col = np.cumsum([0] + [b.shape[1] for b in first])
    h = first[0].shape[0]
    blocks = [(b, i) for kind in (solvability, realness) for i, b in enumerate(kind)]
    out = np.zeros(((len(first) - 1) * h + sum(b.shape[0] for b, _ in blocks), col[-1]))
    r = 0
    for i in range(1, len(first)):
        out[r:r + h, :col[1]] = first[0]
        out[r:r + h, col[i]:col[i + 1]] = -first[i]
        r += h
    for b, i in blocks:
        out[r:r + b.shape[0], col[i]:col[i + 1]] = b
        r += b.shape[0]
    return out


def _context(model, theta0, freqs, pis=None, factors=None):
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)
    psi_dec = ident.psi(model)
    if not psi_dec.is_fcr:
        raise GammaRankDeficient(
            "Psi is rank deficient: no frequency set certifies identifiability"
        )
    pis = (
        list(pis) if pis is not None
        else [ident.pi_at(model, t0, response.g_blocks(model, wi)) for wi in w]
    )
    factors = (
        list(factors) if factors is not None
        else [pointwise_factors(model, t0, p.g) for p in pis]
    )
    if [p.omega for p in pis] != w or [f.omega for f in factors] != w:
        raise InvalidInput(f"pis/factors must be built at freqs {w}, in order")
    r_yv = {f.r_yv for f in factors}
    c_dim = {p.kernel_dim for p in pis}
    if len(r_yv) > 1 or len(c_dim) > 1:
        raise RankDrop(
            f"G_yv rank varies across the chosen frequencies (r_yv={sorted(r_yv)}, "
            f"kernel={sorted(c_dim)}); pick frequencies at the normal rank"
        )
    qpairs = [q_pair(f) for f in factors]
    return t0, w, psi_dec, pis, factors, qpairs


def gamma_omega(model: DescriptorModel, theta0, freqs, pis=None,
                factors=None) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the paired constraint stacks (Gamma, Omega) over the frequencies."""
    _, _, psi_dec, pis, factors, qpairs = _context(model, theta0, freqs, pis, factors)
    return _block_rows(psi_dec, pis, qpairs, model.dims.m_z)[:2]


@dataclass(frozen=True)
class SMatrices:
    """First-order deviation geometry over a certifying frequency set.

    ``S_H`` spans the admissible deviation coordinates, ``S_A`` the induced
    kernel coordinates (Gamma @ S_A = Omega @ S_H), ``S_k[k]`` the affine
    parameter maps (one per frequency), ``S_tilde[k]`` the complex deviation
    reconstruction at frequency k, and ``M`` the deviation-energy Gram matrix
    (equal to S_H^T S_H).
    """

    theta0: np.ndarray
    freqs: tuple[float, ...]
    Gamma: np.ndarray
    Omega: np.ndarray
    S_H: np.ndarray
    S_A: np.ndarray
    S_k: tuple[np.ndarray, ...]
    S_H_blocks: tuple[np.ndarray, ...]
    S_tilde: tuple[np.ndarray, ...]
    M: np.ndarray
    factors: tuple[PointwiseFactors, ...]

    @property
    def n_s(self) -> int:
        return self.S_H.shape[1]

    def complex_block(self, k: int) -> np.ndarray:
        """Stack (S_H,k(2c-1) + j S_H,k(2c)) over the r_zu column groups:
        maps xi to vec of the complex deviation coordinates at frequency k."""
        f = self.factors[k]
        return _complex_block(self.S_H_blocks[k], f.r_yv, f.r_zu)


def _complex_block(block: np.ndarray, r_yv: int, r_zu: int) -> np.ndarray:
    rows = [
        block[2 * c * r_yv:(2 * c + 1) * r_yv, :]
        + 1j * block[(2 * c + 1) * r_yv:(2 * c + 2) * r_yv, :]
        for c in range(r_zu)
    ]
    return np.vstack(rows) if rows else np.zeros((0, block.shape[1]), dtype=complex)


def s_matrices(model: DescriptorModel, theta0, freqs, pis=None,
               factors=None) -> SMatrices:
    """Build the S matrices; refuses when Gamma is not full column rank, or
    when the admissible deviations S_H do not span q dimensions.

    The parameter map at frequency k is

        S_k = V_Psi Sigma_Psi^-1 U_Psi1^T (Q_r(w_k) S_H,k - (I kron Pi_bar_r(w_k)) S_A,k)

    the minus sign following from Gamma a + Omega xi = 0 with S_A defined as
    Gamma^+ Omega S_H.
    """
    t0, w, psi_dec, pis, factors, qpairs = _context(model, theta0, freqs, pis, factors)
    m_z = model.dims.m_z
    N = len(w)
    Gamma, Omega, kr = _block_rows(psi_dec, pis, qpairs, m_z)

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
    o_block = 2 * factors[0].r_yv * factors[0].r_zu
    g_block = 2 * pis[0].kernel_dim * m_z
    S_H_blocks = tuple(S_H[k * o_block:(k + 1) * o_block, :] for k in range(N))
    S_A_blocks = tuple(S_A[k * g_block:(k + 1) * g_block, :] for k in range(N))

    V1 = psi_dec.factors.V1.real
    sig = psi_dec.factors.sigma
    U1t = psi_dec.U1.T
    S_k = []
    for k in range(N):
        core = qpairs[k].Q_r @ S_H_blocks[k] - kr[k] @ S_A_blocks[k]
        S_k.append(V1 @ (np.diag(1.0 / sig) @ (U1t @ core)))

    S_tilde = []
    M = np.zeros((n_s, n_s))
    for k in range(N):
        X = _complex_block(S_H_blocks[k], factors[k].r_yv, factors[k].r_zu)
        St = numkit._kron(factors[k].V_zu1, factors[k].U_yv1) @ X
        S_tilde.append(St)
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
        S_H_blocks=S_H_blocks,
        S_tilde=tuple(S_tilde),
        M=M,
        factors=tuple(factors),
    )


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
        x = np.asarray(xi, dtype=float).reshape(-1)
        return float(x @ self.M @ x)

    def contains(self, xi) -> bool:
        return self.quad(xi) <= self.eps ** 2 * (1.0 + 1e-12)

    def theta_of(self, xi) -> np.ndarray:
        return self.theta0 + self.S_k @ np.asarray(xi, dtype=float).reshape(-1)

    def boundary_point(self, direction) -> np.ndarray:
        """Scale ``direction`` onto the boundary xi^T M xi = eps^2."""
        u = np.asarray(direction, dtype=float).reshape(-1)
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
    if not 1 <= k <= len(S.freqs):
        raise InvalidInput(f"k must be in 1..{len(S.freqs)}, got {k}")


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
    x = np.asarray(xi, dtype=float).reshape(-1)
    if x.size != S.n_s:
        raise InvalidInput(f"xi must have length n_s={S.n_s}, got {x.size}")
    out = []
    for k, f in enumerate(S.factors):
        coords = S.complex_block(k) @ x
        D = numkit.unvec(coords, f.r_yv, f.r_zu) if coords.size else np.zeros((f.r_yv, f.r_zu))
        full = f.U_yv1 @ D @ f.V_zu1.T
        out.append(float(np.linalg.svd(full, compute_uv=False)[0]) if full.size else 0.0)
    return np.asarray(out)


def spectral_membership(S: SMatrices, xi, eps: float) -> bool:
    """True when every per-frequency first-order deviation has sigma_max <= eps.

    The predicate intersects the constraint over all frequency blocks.
    """
    if eps < 0.0:
        raise InvalidInput(f"eps must be nonnegative, got {eps}")
    sig = deviation_sigmas(S, xi)
    return bool(np.all(sig <= eps * (1.0 + 1e-12)))
