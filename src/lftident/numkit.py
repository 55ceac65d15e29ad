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
the decomposition).  One byte budget, ``_STACK_BYTES``, bounds what a
stacked call holds: each caller passes the bytes it stacks per matrix, and
:func:`_chunks` slices its stack into runs of ``_per_stack`` of them.  So a
kernel-rich 200-point grid is one stack, and an 800-point grid of 60-state
pencils is chunks of about 1 MiB.  Every result is per matrix (LAPACK and
matmul run on each matrix of a stack, and slices are taken along the stack
axis only), so the budget decides speed and memory, never a bit of a
result.  :func:`_chunk_map` runs a caller's chunks: on the calling thread
when they are one chunk or the process may use one CPU, else at half the
budget each, the even chunks on the calling thread and the odd ones on one
helper thread, with the results in chunk order.  The budget is split, so the
bytes in flight stay at one budget, and like the budget, the thread count
never decides a bit of a result.  :func:`loop_guard` is the one
well-posedness guard: it checks a stack of loop matrices, by a certificate
or an SVD, and returns its complaints for the caller to raise.
:func:`gen_eig_psd_pencil_pairs` takes a sloppiness pencil (S, M) with M
positive definite only, and returns finite eigenvalues.

Empty matrices are first-class citizens throughout: a matrix with zero
columns is of full column rank, its right-null basis is zero-dimensional,
and products over an empty inner dimension are zero.
"""

from __future__ import annotations

import contextlib
import os
import threading
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
    "pencil_bound",
    "right_null_basis",
    "gen_eig_psd_pencil_pairs",
    "sign_flip",
    "vec",
    "unvec",
]

DEFAULT_RANK_RTOL = 1e-10
LOOP_GUARD_RTOL = 1e-12
# Relative cut below which an eigenvalue of a sloppiness pencil's M counts as zero.
_PENCIL_RTOL = 1e-12

# Bytes one stacked call may stack.  Unbounded, one 800-point refine of a
# 60-state model stacks 46 MB of pencils.
_STACK_BYTES = 1 << 20


def _per_stack(nbytes: int) -> int:
    """Matrices of ``nbytes`` bytes each that one stacked call takes: as many as
    fit in the budget, and at least one."""
    return max(1, _STACK_BYTES // max(nbytes, 1))


def _chunks(n: int, nbytes: int) -> list[slice]:
    """Consecutive slices covering ``range(n)``, of ``_per_stack(nbytes)`` items
    each but the last."""
    k = _per_stack(nbytes)
    return [slice(i, min(i + k, n)) for i in range(0, n, k)]


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _chunk_map(n: int, nbytes: int, worker) -> list:
    """``work(part)`` for each chunk ``part`` of ``range(n)``, in chunk order,
    where ``work = worker(size)`` and ``size`` is the longest chunk's length.

    When ``_chunks`` gives more than one chunk and the process may use two
    CPUs, each chunk gets half the budget (``nbytes`` counts twice) and one
    helper thread runs the odd chunks while the calling thread runs the even
    ones.  Each thread calls ``worker`` once, so each builds its own buffers,
    and the bytes in flight stay at one budget.  The helper has ended when
    this returns; an exception it raised is raised here.
    """
    parts = _chunks(n, nbytes)
    if len(parts) < 2 or _cpus() < 2:
        work = worker(min(n, _per_stack(nbytes)))
        return [work(part) for part in parts]
    parts = _chunks(n, 2 * nbytes)
    results, errors = [None] * len(parts), []

    def run(first: int) -> None:
        work = worker(parts[0].stop)
        for i in range(first, len(parts), 2):
            results[i] = work(parts[i])

    def helper() -> None:
        try:
            run(1)
        except BaseException as exc:  # handed to the calling thread
            errors.append(exc)

    thread = threading.Thread(target=helper, name="numkit-chunks")
    thread.start()
    try:
        run(0)
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return results


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
    """Outcome of a tolerance-based rank test: ``rank`` counts the
    ``singular_values`` strictly above ``tol``."""

    rank: int
    tol: float
    singular_values: np.ndarray


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


def loop_guard(M: np.ndarray, message_of, sig: np.ndarray | None = None) -> dict:
    """By index, a WellPosednessViolation for each square loop matrix of the
    stack ``M`` whose sigma_min falls below LOOP_GUARD_RTOL times max(sigma_max,
    1): ``message_of(i)`` with sigma_min appended; the caller chooses what to
    raise.  ``sig``, the singular values of every matrix, decides each if
    given.  Else a matrix L with f = ||I - L||_F and 1 - f >= 2 LOOP_GUARD_RTOL
    (1 + f) passes without an SVD: sigma_min(L) >= 1 - f, sigma_max(L) <= 1 + f."""
    undecided = np.arange(len(M))
    if sig is None:
        f = np.linalg.norm(np.eye(M.shape[-1]) - M, axis=(1, 2))
        undecided = np.flatnonzero(~(1.0 - f >= 2.0 * LOOP_GUARD_RTOL * (1.0 + f)))  # NaN: undecided
        if not undecided.size:
            return {}
        sig = np.linalg.svd(M[undecided], compute_uv=False)
    low = sig[:, -1] < LOOP_GUARD_RTOL * np.maximum(sig[:, 0], 1.0)
    return {int(i): WellPosednessViolation(f"{message_of(i)} (sigma_min={s:.3e})")
            for i, s in zip(undecided[low], sig[low, -1])}


def pencil_bound(E: np.ndarray, A: np.ndarray):
    """A function giving certified lower bounds on sigma_min(lam E - A) for a
    stack of lam; None when F = A - s E is singular at s = 0 and at s = 1, or
    no eigendecomposition is found.  With eig(F^-1 E) = (theta, V) and R = E V
    - F V diag(theta), (lam E - A) V = -F V (I - (lam - s) diag(theta)) +
    (lam - s) R, so (a Bauer-Fike-type bound; Numer. Math. 2, 1960)

        sigma_min(lam E - A) >= [sigma_min(F V) min_i |1 - (lam - s) theta_i|
                                 - |lam - s| ||R||_2] / ||V||_2,

    with each computed term moved to its safe side by its rounding allowance.
    The bound is evaluated one budget chunk of lams at a time."""
    n, theta = A.shape[0], None
    for s in (0.0, 1.0):
        F = A - s * E
        with contextlib.suppress(np.linalg.LinAlgError):
            theta, V = np.linalg.eig(np.linalg.solve(F, E))
            break
    if theta is None or not (np.isfinite(theta).all() and np.isfinite(V).all()):
        return None
    tol = 8 * n * np.finfo(float).eps
    FV = F.astype(V.dtype) @ V  # one complex dtype: a real-complex matmul skips BLAS
    sig = np.linalg.svd(FV, compute_uv=False)
    f_fro, e_fro, v_fro = (float(np.linalg.norm(M)) for M in (F, E, V))
    low = sig[-1] - tol * (sig[0] + f_fro * v_fro)
    r = (np.linalg.norm(E.astype(V.dtype) @ V - FV * theta)
         + tol * v_fro * (e_fro + f_fro * np.abs(theta).max())) * (1 + tol)
    v = float(np.linalg.norm(V, 2)) * (1 + tol)

    def bound(lams: np.ndarray) -> np.ndarray:
        z, out = np.asarray(lams) - s, np.empty(len(lams))
        for part in _chunks(len(z), 64 * n):
            with np.errstate(over="ignore", invalid="ignore"):  # at a huge |lam|
                zt = np.multiply.outer(z[part], theta)
                d = (np.abs(1 - zt) - tol * (1 + np.abs(zt))).min(axis=1)
                b = ((low * d - np.abs(z[part]) * r) / v - tol * f_fro) * (1 - tol)
            out[part] = np.where(np.isfinite(b), b, 0.0)  # a non-finite bound certifies nothing
        return out

    return bound if low > 0 else None


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{name} must be square, got {M.shape}")
    scale = max(np.linalg.norm(M), 1.0)
    if np.linalg.norm(M - M.T) > 1e-8 * scale:
        raise InvalidInput(f"{name} is not symmetric within tolerance")
    return 0.5 * (M + M.T)


def gen_eig_psd_pencil_pairs(S, M):
    """Generalized eigenpairs of the pencil ``det(mu*M - S) = 0`` for a
    symmetric positive semidefinite ``S`` and a symmetric positive definite
    ``M``.  Returns ``(values, vectors)``, the finite values descending and
    the vectors as columns.

    M counts as positive definite when each eigenvalue lam_i of M exceeds n
    _PENCIL_RTOL max(lam); InvalidInput otherwise.  With M = Q D Q^T, D =
    diag(lam), the pencil is the standard symmetric problem ``D^-1/2 Q^T S Q
    D^-1/2 y' = mu y'`` with ``y = Q D^-1/2 y'`` (Golub & Van Loan, *Matrix
    Computations*, sec. 8.7), so the eigenvectors keep the normalisation
    ``Y^T M Y = I``.  The eigenvalues span whatever S's spectrum spans: no
    direction is dropped against the scale of the dominant one.
    """
    Sm = _check_symmetric(as_matrix(S, "S").real, "S")
    Mm = _check_symmetric(as_matrix(M, "M").real, "M")
    if Sm.shape != Mm.shape:
        raise InvalidInput("S and M must have identical shapes")
    n = Sm.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))

    lam, Q = np.linalg.eigh(Mm)
    pos = lam > lam.max() * n * _PENCIL_RTOL
    if not pos.all():
        raise InvalidInput(f"M must be positive definite; its eigenvalues are {lam.tolist()}")
    Qp, r = Q[:, pos], np.sqrt(lam[pos])
    S_eff = Qp.T @ Sm @ Qp
    S_eff = 0.5 * (S_eff + S_eff.T)
    mu, Y = np.linalg.eigh(S_eff / r[:, None] / r)
    return np.maximum(mu[::-1], 0.0), Qp @ (Y[:, ::-1] / r[:, None])


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
