"""Dense linear-algebra kernels with explicit rank tolerances.

Rank decisions share one tolerance policy, the cut
``tol = max(sigma_max, scale_floor) * max(rows, cols) * rtol`` of
``_rank_tol``, with the fixed default ``rtol = DEFAULT_RANK_RTOL``.  One
stacked rank engine applies it, one vectorised cut per ``(k, m, n)`` stack:
:func:`svd_stack` (full SVDs and ranks) and :func:`stacked_ranks` (singular
values of numpy's ``compute_uv=False`` routine, whose last bits can differ
from the full SVD's, and ranks).  :func:`svd_full` and :func:`rank_of` are
their one-matrix cases; numpy's stacked ``svd`` runs the same LAPACK routine
on each matrix, so the results are bitwise equal.  Each matrix is decomposed
once: a caller that holds a full SVD reads every other rank decision, null
basis and 2-norm of that matrix from it, through ``_ranks`` (the cut at
another tolerance) and ``_split`` (the factors split at a cut chosen after
the decomposition).  Callers slice their stacks into chunks of at most
``_CHUNK`` matrices, so the memory a long frequency grid stacks stays
bounded.  :func:`loop_guard` is the one well-posedness guard: it checks a
stack of loop matrices and returns its complaints for the caller to raise.

Empty matrices are first-class citizens throughout: a matrix with zero
columns is of full column rank, its right-null basis is zero-dimensional,
and products over an empty inner dimension are zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, WellPosednessViolation

__all__ = [
    "DEFAULT_RANK_RTOL",
    "LOOP_GUARD_RTOL",
    "RankDecision",
    "SvdFactors",
    "as_matrix",
    "svd_full",
    "svd_stack",
    "rank_of",
    "stacked_ranks",
    "loop_guard",
    "right_null_basis",
    "gen_eig_psd_pencil_pairs",
    "sign_flip",
    "vec",
    "unvec",
]

DEFAULT_RANK_RTOL = 1e-10
LOOP_GUARD_RTOL = 1e-12
# Relative null cut of each matrix of a sloppiness pencil.
_PENCIL_RTOL = 1e-12

# Matrices per stacked LAPACK call.  Unchunked, one 800-point refine of a
# 60-state model stacks 46 MB of pencils.
_CHUNK = 32


def _chunks(items):
    """Consecutive slices of ``items`` of at most the stacking chunk size."""
    return [items[i:i + _CHUNK] for i in range(0, len(items), _CHUNK)]


def as_matrix(A, name: str = "A") -> np.ndarray:
    """Coerce ``A`` to a finite 2-D float/complex ndarray.

    Raises InvalidInput on non-finite entries or dimension > 2.  Scalars and
    1-D arrays are promoted to row matrices.
    """
    M = np.asarray(A)
    if M.ndim > 2:
        raise InvalidInput(f"{name} must be at most 2-D, got shape {M.shape}")
    return _checked(np.atleast_2d(M), name)


def _checked(M: np.ndarray, name: str = "A") -> np.ndarray:
    """``M`` (a matrix or a stack) as complex128 or float64, with finite entries."""
    if M.dtype not in (np.float64, np.complex128):
        M = M.astype(np.complex128 if np.iscomplexobj(M) else np.float64)
    if M.size and not np.isfinite(M).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return M


def _svd(S: np.ndarray, compute_uv: bool):
    """``np.linalg.svd(S, full_matrices=True, compute_uv=compute_uv)`` of the stack
    ``S``; empty matrices give no singular values and identity factors."""
    k, m, n = S.shape
    if min(m, n) > 0:
        return np.linalg.svd(S, full_matrices=True, compute_uv=compute_uv)
    sigma = np.zeros((k, 0))
    if not compute_uv:
        return sigma
    return (np.repeat(np.eye(m, dtype=S.dtype)[None], k, axis=0), sigma,
            np.repeat(np.eye(n, dtype=S.dtype)[None], k, axis=0))


def _rank_tol(sigma: np.ndarray, shape: tuple[int, int], rtol: float, floor: float):
    """The cut ``max(sigma_max, floor) * max(shape) * rtol`` (0 when empty) for
    singular values ``sigma``, descending along the last axis, of ``shape``
    matrices: a float for one matrix, an array for a stack."""
    if sigma.shape[-1] == 0:
        return np.zeros(sigma.shape[:-1])
    return np.maximum(sigma[..., 0], floor) * max(shape) * rtol


@dataclass(frozen=True)
class RankDecision:
    """Outcome of a tolerance-based rank test.

    ``rank`` counts singular values strictly above ``tol``; ``gap`` reports
    the singular values bracketing the cut so callers can judge how sharp
    the decision was.
    """

    rank: int
    tol: float
    singular_values: np.ndarray

    @property
    def gap(self) -> tuple[float, float]:
        s = self.singular_values
        above = float(s[self.rank - 1]) if self.rank > 0 else math.inf
        below = float(s[self.rank]) if self.rank < s.size else 0.0
        return above, below


@dataclass(frozen=True)
class SvdFactors:
    """Full SVD split at the rank tolerance.

    ``U1`` spans the range, ``U2`` its orthogonal complement; ``V1`` spans
    the co-range, ``V2`` the (right) null space.  ``sigma`` holds only the
    singular values above the tolerance, in descending order.
    """

    U1: np.ndarray
    U2: np.ndarray
    sigma: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    decision: RankDecision

    @property
    def rank(self) -> int:
        return self.decision.rank


def svd_stack(S, rtol: float = DEFAULT_RANK_RTOL, scale_floor: float = 0.0):
    """``U`` (k, m, m), ``sigma`` (k, min(m, n), descending), ``V`` (k, n, n) with
    ``S[i] = U[i] diag(sigma[i]) V[i]^H``, and the integer ranks (k,) of the
    ``(k, m, n)`` stack ``S``; raises InvalidInput on non-finite entries."""
    S = _checked(np.asarray(S))
    U, sigma, Vh = _svd(S, True)
    return U, sigma, Vh.conj().transpose(0, 2, 1), _ranks(sigma, S.shape[1:], rtol, scale_floor)


def stacked_ranks(S, rtols, scale_floor: float = 0.0):
    """Singular values (``compute_uv=False``) of each matrix of the ``(k, m, n)``
    stack ``S``, and their ranks at each of ``rtols``, one row of k per rtol."""
    S = _checked(np.asarray(S))
    sigma = _svd(S, False)
    return sigma, np.array([_ranks(sigma, S.shape[1:], r, scale_floor) for r in rtols])


def _ranks(sigma: np.ndarray, shape: tuple[int, int], rtol: float, floor: float) -> np.ndarray:
    """Count of each row of ``sigma`` strictly above its ``_rank_tol`` cut."""
    return (sigma > _rank_tol(sigma, shape, rtol, floor)[:, None]).sum(axis=1)


def _decision(sigma: np.ndarray, rank, shape: tuple[int, int], rtol: float,
              floor: float) -> RankDecision:
    return RankDecision(rank=int(rank), tol=float(_rank_tol(sigma, shape, rtol, floor)),
                        singular_values=sigma)


def svd_full(A, rtol: float = DEFAULT_RANK_RTOL, scale_floor: float = 0.0) -> SvdFactors:
    """Full SVD of ``A`` with range/null factors split at the rank tolerance:
    the one-matrix case of :func:`svd_stack`.

    ``scale_floor`` anchors the relative tolerance when the matrix is known
    to live on a fixed natural scale (for instance products of orthonormal
    factors), so that an all-tiny matrix is treated as zero rather than
    ranked by its numerical dust.  Empty inputs produce empty factors with
    identity complements: for an ``m x 0`` input, ``U2`` is ``m x m`` and
    ``V2`` is ``0 x 0``.
    """
    M = as_matrix(A)
    U, sigma, Vh = (x[0] for x in _svd(M[None], True))
    return _split(U, sigma, Vh.conj().T, M.shape, rtol, scale_floor)


def _split(U, sigma, V, shape: tuple[int, int], rtol: float, floor: float) -> SvdFactors:
    """The full SVD ``U diag(sigma) V^H`` of one ``shape`` matrix, split at the
    cut of ``rtol`` and ``floor``."""
    r = int(_ranks(sigma[None], shape, rtol, floor)[0])
    return SvdFactors(U1=U[:, :r], U2=U[:, r:], sigma=sigma[:r], V1=V[:, :r], V2=V[:, r:],
                      decision=_decision(sigma, r, shape, rtol, floor))


def rank_of(A, rtol: float = DEFAULT_RANK_RTOL, scale_floor: float = 0.0) -> RankDecision:
    """Rank of ``A`` under the shared tolerance policy: the one-matrix case of
    :func:`stacked_ranks`."""
    M = as_matrix(A)
    sigma, ranks = stacked_ranks(M[None], (rtol,), scale_floor)
    return _decision(sigma[0], ranks[0, 0], M.shape, rtol, scale_floor)


def right_null_basis(A, rtol: float = DEFAULT_RANK_RTOL, scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal columns spanning the right null space of ``A``.

    Full-column-rank inputs give a matrix with zero columns; an input with
    zero columns gives the 0 x 0 empty matrix; a zero matrix gives an
    identity-sized completion.
    """
    return svd_full(A, rtol=rtol, scale_floor=scale_floor).V2


def loop_guard(M: np.ndarray, message_of):
    """Singular values of each square loop matrix of the stack ``M``, one
    descending row each, and, by index, a WellPosednessViolation for each
    matrix whose sigma_min falls below LOOP_GUARD_RTOL times max(sigma_max, 1):
    ``message_of(i)`` with sigma_min appended.  The caller chooses what to raise."""
    sig = np.linalg.svd(M, compute_uv=False)
    bad = np.flatnonzero(sig[:, -1] < LOOP_GUARD_RTOL * np.maximum(sig[:, 0], 1.0))
    return sig, {int(i): WellPosednessViolation(f"{message_of(i)} (sigma_min={sig[i, -1]:.3e})")
                 for i in bad}


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{name} must be square, got {M.shape}")
    scale = max(np.linalg.norm(M), 1.0)
    if np.linalg.norm(M - M.T) > 1e-8 * scale:
        raise InvalidInput(f"{name} is not symmetric within tolerance")
    return 0.5 * (M + M.T)


def gen_eig_psd_pencil_pairs(S, M):
    """Generalized eigenpairs of the PSD pencil ``det(mu*M - S) = 0``.

    Directions in the joint null space of ``S`` and ``M`` are excluded (they
    carry no information).  Directions where ``M`` vanishes but ``S`` stays
    positive get ``mu = +inf`` (infinite-sloppiness sentinel).  Null-ness is
    decided against each matrix's own scale, never against the combined one:
    with spectra spreading over many decades a direction that is tiny next to
    the dominant matrix is still a perfectly good eigendirection.  Returns
    ``(values, vectors)`` with values descending and vectors as columns.

    On the range of ``M`` the pencil is ``(S_eff, D)`` with D = diag(lam_p)
    the positive eigenvalues of ``M`` and S_eff the Schur complement of the
    infinite directions.  A diagonal B = D reduces the generalized problem to
    the standard symmetric one ``D^-1/2 S_eff D^-1/2 y' = mu y'``, with
    ``y = D^-1/2 y'`` (Golub & Van Loan, *Matrix Computations*, sec. 8.7), so
    the finite eigenvectors keep the normalisation ``Y^T M Y = I``.
    """
    Sm = _check_symmetric(as_matrix(S, "S").real, "S")
    Mm = _check_symmetric(as_matrix(M, "M").real, "M")
    if Sm.shape != Mm.shape:
        raise InvalidInput("S and M must have identical shapes")
    n = Sm.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))

    lam, Q = np.linalg.eigh(Mm)
    lam = np.clip(lam, 0.0, None)
    pos = lam > lam.max() * n * _PENCIL_RTOL
    Qp, Qn, r = Q[:, pos], Q[:, ~pos], np.sqrt(lam[pos])

    # Split the M-null block by the action of S: positive directions are
    # infinitely sloppy, S-null directions are jointly degenerate and dropped.
    S_nn = Qn.T @ Sm @ Qn
    w2, Y2 = np.linalg.eigh(0.5 * (S_nn + S_nn.T))
    s_pos = w2 > np.linalg.norm(Sm, 2) * n * _PENCIL_RTOL
    Qn_pos, w_pos = Qn @ Y2[:, s_pos], w2[s_pos]

    S_ab = Qp.T @ Sm @ Qn_pos
    S_eff = Qp.T @ Sm @ Qp - S_ab @ (S_ab.T / w_pos[:, None])
    S_eff = 0.5 * (S_eff + S_eff.T)
    mu, Y = np.linalg.eigh(S_eff / r[:, None] / r)
    values = np.concatenate([np.full(w_pos.size, np.inf), np.maximum(mu[::-1], 0.0)])
    return values, np.hstack([Qn_pos, Qp @ (Y[:, ::-1] / r[:, None])])


def sign_flip(V) -> np.ndarray:
    """``V`` with each column negated where needed so that its largest-|.|
    entry is positive (the first one wins a tie); a 1-D ``V`` is one column.

    Eigen- and singular vectors are defined up to sign, so reported ones
    follow this convention and do not depend on the solver's choice.
    """
    V = np.asarray(V)
    cols = V.reshape(V.shape[0], -1)
    if cols.size == 0:
        return V
    peaks = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    return np.where(peaks < 0, -cols, cols).reshape(V.shape)


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, or of each pair of the broadcast
    ``(..., m, n)`` stacks ``A`` and ``B``.

    A Kronecker product is a table of elementwise products (Van Loan, J.
    Comput. Appl. Math. 123, 2000), so one broadcast multiply gives numpy kron's
    bits, signed zeros included, without its per-call set-up.
    """
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    (m, n), (p, q) = A.shape[-2:], B.shape[-2:]
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(*lead, m * p, n * q)


def vec(A) -> np.ndarray:
    """Column-major stacking of the columns of ``A`` into a vector."""
    return np.asarray(A).reshape(-1, order="F")


def unvec(x, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(x).reshape(-1)
    if v.size != rows * cols:
        raise InvalidInput(f"cannot reshape length {v.size} into {rows} x {cols}")
    return v.reshape((rows, cols), order="F")
