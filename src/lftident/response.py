"""Frequency-response evaluation of the transfer blocks and of H(lambda, theta).

H is evaluated from the transfer blocks through the interconnection form

    H = G_yu + G_yv (I - P(theta) G_zv)^-1 P(theta) G_zu.

:func:`g_sweep` evaluates the transfer blocks of a whole frequency list in
stacked numpy calls (chunks of pencils) into one :class:`GSweep`;
:func:`g_blocks` is its one-point case.  numpy's stacked ``svd`` and ``solve``
run the same LAPACK routine on each pencil, so a sweep and one call per
frequency give bitwise equal blocks.  :func:`h_sweep` evaluates H at one point
of a sweep for a stack of thetas in the same way (one loop guard and one solve
per chunk of thetas); :func:`h_lft` is its one-theta case.

The pole guard rejects a frequency whose pencil lambda E - A_xx has
sigma_min < max(POLE_GUARD_RTOL ||A_xx||_2, 1e-14 max(sigma_max, 1)).  It
skips the exact SVD only for a pencil whose sigma_min has a certified lower
bound of at least twice the largest floor the pencil could have.  An anchor
pencil, solved against [B | I], takes the bound from its inverse.  Weyl's
inequality carries that bound to the anchor's neighbours, and a neighbour it
certifies is solved against B alone (see :func:`g_sweep`).  So the guarded
frequencies and their messages are those of an SVD of every pencil.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import InvalidInput, PoleProximity
from .model import DescriptorModel

__all__ = [
    "GSweep",
    "lambda_at",
    "check_freqs",
    "g_sweep",
    "g_blocks",
    "h_sweep",
    "h_lft",
]

# Reject frequencies with sigma_min(lambda E - A_xx) below this multiple of
# ||A_xx||_2 (with an absolute floor for the all-zero corner case).
POLE_GUARD_RTOL = 1e-8
# Output bytes of one stacked solve, against [B | I] or B: a solve takes as
# many pencils as fit.  With 256 KiB of [B | I] solutions, freeing them made
# a search-wide pass fault in up to 865 pages again; 120 KiB faulted none
# after the first pass.
_SOLVE_BYTES = 120 << 10
# Every _ANCHOR_STRIDE-th pencil of a chunk is solved against [B | I] and
# certifies its neighbours (see g_sweep).  Of strides 4, 8, 16 and 32,
# 8 gave the fastest search-wide pass.
_ANCHOR_STRIDE = 8
# Pencils with fewer states are each their own anchor, all solved in one
# call per chunk: below about 10 states the I columns cost less than the
# second solve call per chunk that covered pencils need.
_ANCHOR_MIN_STATES = 10


@dataclass(frozen=True, eq=False)
class GSweep:
    """The four transfer blocks of the parameter-free interconnection over a
    frequency list: ``G[i]`` is [[G_yu, G_yv], [G_zu, G_zv]] at ``omegas[i]``,
    and the block properties are stacked views of ``G``.  ``guarded`` holds
    the pole guard's PoleProximity for each dropped frequency, in order.
    ``sweep[i]`` is point i as a one-point sweep with the strides of the
    point's matrix (BLAS results depend on them); functions of one frequency
    take such a point and read ``g.G_yu[0]``."""

    omegas: tuple[float, ...]
    lams: tuple[complex, ...]
    G: np.ndarray
    m_y: int
    m_u: int
    guarded: tuple[PoleProximity, ...] = ()

    G_yu = property(lambda self: self.G[:, :self.m_y, :self.m_u])
    G_yv = property(lambda self: self.G[:, :self.m_y, self.m_u:])
    G_zu = property(lambda self: self.G[:, self.m_y:, :self.m_u])
    G_zv = property(lambda self: self.G[:, self.m_y:, self.m_u:])

    def __len__(self) -> int:
        return len(self.omegas)

    def __getitem__(self, i: int) -> GSweep:
        i = range(len(self))[i]  # its IndexError also ends iteration
        return GSweep(self.omegas[i:i + 1], self.lams[i:i + 1], self.G[i:i + 1], self.m_y, self.m_u)

    def raise_guarded(self) -> GSweep:
        """This sweep; raises the guard's first complaint if it dropped a frequency."""
        if self.guarded:
            raise self.guarded[0]
        return self


def lambda_at(time_domain: str, omega: float) -> complex:
    """Evaluation point on the frequency axis: j*omega or e^{j*omega}."""
    if time_domain == "continuous":
        return 1j * float(omega)
    if time_domain == "discrete":
        w = float(omega)
        if not (-math.pi < w <= math.pi + 1e-15):
            raise InvalidInput(f"discrete-time omega must lie in (-pi, pi], got {w}")
        return cmath.exp(1j * w)
    raise InvalidInput(f"unknown time domain {time_domain!r}")


def check_freqs(model: DescriptorModel, freqs) -> list[float]:
    """The frequencies as floats; rejects an empty or repeated list, non-finite
    values and, in discrete time, values outside (-pi, pi]."""
    w = [float(x) for x in freqs]
    if not w:
        raise InvalidInput("at least one frequency is required")
    if not all(map(math.isfinite, w)):
        raise InvalidInput(f"frequencies must be finite, got {w}")
    if len(set(w)) != len(w):
        raise InvalidInput(f"frequencies must be distinct, got {w}")
    for wi in w:
        lambda_at(model.time_domain, wi)
    return w


def _solve_group(pencils, idx, lam, E, A, rhs, X, solved, bound):
    """Build the pencils ``lam[idx] E - A`` into the buffer view ``pencils`` and
    solve them against ``rhs``, [B | I] or B, a slice at a time.

    Writes the B columns to ``X[idx]`` and marks ``solved[idx]``; against
    [B | I] it also writes each pencil's bound sigma_min >= 1/||inverse||_F
    to ``bound[idx]``.  The pencils of a slice whose solve raises
    LinAlgError stay unsolved.
    """
    m_b = X.shape[-1]
    np.multiply.outer(lam[idx], E, out=pencils)
    pencils -= A
    per_slice = max(1, _SOLVE_BYTES // rhs.nbytes)
    for s in range(0, len(idx), per_slice):
        P, at = pencils[s:s + per_slice], idx[s:s + per_slice]
        try:
            Y = np.linalg.solve(P, np.broadcast_to(rhs, (len(P), *rhs.shape)))
        except np.linalg.LinAlgError:
            continue
        X[at] = Y[..., :m_b]
        solved[at] = True
        if rhs.shape[1] > m_b:
            # Two einsums over views: no temporary the size of the slice.
            bound[at] = 1.0 / np.sqrt(
                np.einsum("kij,kij->k", Y.real[..., m_b:], Y.real[..., m_b:])
                + np.einsum("kij,kij->k", Y.imag[..., m_b:], Y.imag[..., m_b:]))
        # Freed here, before the next slice's solve: the order of the frees
        # decides whether malloc hands the memory back to the system.
        del Y


def g_sweep(model: DescriptorModel, omegas) -> GSweep:
    """The four G blocks at each of ``omegas`` that passes the pole guard: the
    pencils are solved in stacked chunks, and each chunk's D + C X fills one buffer.

    The guard keeps a pencil when sigma_min >= max(POLE_GUARD_RTOL ||A||_2,
    1e-14 max(sigma_max, 1)).  That floor is at most max(POLE_GUARD_RTOL
    ||A||_F, 1e-14 max(|lam| ||E||_F + ||A||_F, 1)), since ||.||_2 <= ||.||_F
    and sigma_max <= |lam| ||E||_2 + ||A||_2.  A pencil is kept without an
    SVD when a lower bound on its sigma_min is at least twice that largest
    floor.  The bounds come in two kinds:

    * Every ``_ANCHOR_STRIDE``-th pencil of a chunk is an anchor (every
      pencil, below ``_ANCHOR_MIN_STATES`` states), solved against [B | I]:
      the B columns are X, and the I columns give the inverse, whose
      Frobenius norm bounds sigma_min >= 1/||(lam E - A)^-1||_F (Golub &
      Van Loan, Matrix Computations, 4th ed., sec. 2.3).
    * By Weyl's inequality (ibid., sec. 8.6), sigma_min(lam E - A) >=
      sigma_min(lam_a E - A) - |lam - lam_a| ||E||_2 for each anchor lam_a.
      A pencil for which the best such bound clears the factor two is solved
      against B alone.  ||E||_2 is computed once per call, and only when a
      chunk has a pencil that is not an anchor.

    Every other pencil is solved against [B | I] and bounded as an anchor is.
    Pencils whose bound does not clear the factor two, and every pencil of a
    solve slice that raises LinAlgError, get the exact SVD and floor.  So the
    kept set, the complaints and the solutions are those of an SVD of every
    pencil: numpy's solve against B gives the B columns of its solve against
    [B | I] bit for bit.  That is a property of the LAPACK numpy links, not a
    guarantee; tests/test_response.py checks it on the benchmark's shapes.
    """
    omegas = list(omegas)
    lams = [lambda_at(model.time_domain, w) for w in omegas]
    E, A = model.E, model.A_xx
    B = np.hstack([model.B_xu, model.B_xv]).astype(complex)
    C = np.vstack([model.C_yx, model.C_zx])
    D = np.vstack([np.hstack([model.D_yu, model.D_yv]),
                   np.hstack([model.D_zu, model.D_zv])])
    n, m_b = B.shape
    # Frobenius norms: upper bounds on the 2-norms that cost no SVD.
    a_fro, e_fro = float(np.linalg.norm(A)), float(np.linalg.norm(E))
    e_norm = None  # ||E||_2, raised by a relative 1e-12 to stay an upper bound
    BI = np.hstack([B, np.eye(n)]).astype(complex)
    stride = _ANCHOR_STRIDE if n >= _ANCHOR_MIN_STATES else 1
    # Built once and filled in place: chunk-sized temporaries freed on every
    # chunk let malloc return them to the system and fault them back in.
    size = min(len(lams), numkit._CHUNK)
    pencils = np.empty((size, n, n), complex)
    X = np.empty((size, n, m_b), complex)
    G = np.empty((len(lams), *D.shape), complex)
    kept_at: list[int] = []  # the kept points, whose rows of G are filled in order
    guarded: list[PoleProximity] = []
    for start in range(0, len(lams), numkit._CHUNK):
        lam = np.array(lams[start:start + numkit._CHUNK])
        k = len(lam)
        Xk = X[:k]
        solved = np.zeros(k, dtype=bool)
        bound = np.zeros(k)  # certified lower bounds on sigma_min
        largest_floor = np.maximum(POLE_GUARD_RTOL * a_fro,
                                   1e-14 * np.maximum(np.abs(lam) * e_fro + a_fro, 1.0))
        # The buffer holds the pencils in the order they are solved: the
        # anchors, the pencils an anchor covers, then the rest.  So each
        # solve takes a view of it.
        anchors = np.arange(0, k, stride)
        _solve_group(pencils[:anchors.size], anchors, lam, E, A, BI, Xk, solved, bound)
        order = anchors
        if anchors.size < k:
            if e_norm is None:
                e_norm = float(np.linalg.norm(E, 2)) * (1.0 + 1e-12)
            rest = np.flatnonzero(np.arange(k) % stride)
            reach = (bound[anchors] - e_norm * np.abs(lam[rest, None] - lam[anchors])).max(axis=1)
            cover = reach >= 2.0 * largest_floor[rest]
            covered, rest = rest[cover], rest[~cover]
            bound[covered] = reach[cover]
            end = anchors.size + covered.size
            _solve_group(pencils[anchors.size:end], covered, lam, E, A, B, Xk, solved, bound)
            _solve_group(pencils[end:k], rest, lam, E, A, BI, Xk, solved, bound)
            order = np.concatenate([anchors, covered, rest])
        kept = solved & (bound >= 2.0 * largest_floor)
        undecided = np.flatnonzero(~kept)
        if undecided.size:
            at = np.argsort(order)[undecided]  # their places in the buffer
            a_norm = float(np.linalg.norm(A, 2))
            sig = np.linalg.svd(pencils[at], compute_uv=False)
            floor = np.maximum(POLE_GUARD_RTOL * a_norm, 1e-14 * np.maximum(sig[:, 0], 1.0))
            low = sig[:, -1] < floor
            kept[undecided] = ~low
            guarded += [PoleProximity(
                f"omega={omegas[start + undecided[i]]}: sigma_min(lambda E - A) = "
                f"{sig[i, -1]:.3e} below guard {floor[i]:.3e}") for i in np.flatnonzero(low)]
            unsolved = ~low & ~solved[undecided]
            if unsolved.any():
                Xk[undecided[unsolved]] = np.linalg.solve(
                    pencils[at[unsolved]], np.broadcast_to(B, (unsolved.sum(), n, m_b)))
            Xk = Xk[kept]
        kept_at += (start + np.flatnonzero(kept)).tolist()
        G[len(kept_at) - len(Xk):len(kept_at)] = D + C @ Xk
    return GSweep(omegas=tuple(float(omegas[i]) for i in kept_at),
                  lams=tuple(lams[i] for i in kept_at), G=G[:len(kept_at)],
                  m_y=model.dims.m_y, m_u=model.dims.m_u, guarded=tuple(guarded))


def g_blocks(model: DescriptorModel, omega: float) -> GSweep:
    """The one-point :func:`g_sweep` of ``omega``; raises its PoleProximity."""
    return g_sweep(model, [omega]).raise_guarded()


def h_sweep(model: DescriptorModel, thetas, g: GSweep):
    """H at the one-point sweep ``g`` for each row of ``thetas`` (an n x q stack), in chunks.

    P(theta) accumulates theta_k P_k in the order of ``model.p_of``, and the loop
    guard and the solve run once per chunk, so each H is bitwise equal to an
    evaluation of its theta alone.  Returns the H of the thetas whose loop
    passes the guard, stacked in order, and, by index, the
    WellPosednessViolation that :func:`h_lft` raises for each of the others.
    """
    T = np.asarray(thetas, dtype=float)
    q, m_v = model.dims.q, model.dims.m_v
    if T.ndim != 2 or T.shape[1] != q:
        raise InvalidInput(f"thetas must be an n x q={q} stack, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise InvalidInput("thetas contain non-finite entries")
    Hs = [np.empty((0, model.dims.m_y, model.dims.m_u), complex)]
    violations = {}
    for start in range(0, len(T), numkit._CHUNK):
        part = T[start:start + numkit._CHUNK]
        P = np.zeros((len(part), m_v, model.dims.m_z))
        for k, Pk in enumerate(model.P):
            P += part[:, k, None, None] * Pk
        loops = np.eye(m_v) - P @ g.G_zv[0]
        _, bad = numkit.loop_guard(
            loops,
            lambda i: f"I - P(theta) G_zv(j*omega) singular at omega={g.omegas[0]}, "
                      f"theta={part[i].tolist()}",
        )
        if bad:
            ok = np.ones(len(part), dtype=bool)
            ok[list(bad)] = False
            loops, P = loops[ok], P[ok]
            violations.update((start + i, exc) for i, exc in bad.items())
        Hs.append(g.G_yu[0] + g.G_yv[0] @ np.linalg.solve(loops, P @ g.G_zu[0]))
    return np.concatenate(Hs), violations


def h_lft(model: DescriptorModel, theta, g: GSweep) -> np.ndarray:
    """H at the one-point sweep ``g`` via the interconnection route of its
    transfer blocks (see g_blocks): the one-theta case of :func:`h_sweep`."""
    t = model.check_theta(theta)
    H, violations = h_sweep(model, t[None], g)
    if violations:
        raise violations[0]
    return H[0]
