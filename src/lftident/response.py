"""Frequency-response evaluation of the transfer blocks and of H(lambda, theta).

H is evaluated from the transfer blocks through the interconnection form

    H = G_yu + G_yv (I - P(theta) G_zv)^-1 P(theta) G_zu.

:func:`g_sweep`, the only solve of lambda E - A_xx, evaluates the transfer
blocks of a frequency list in stacked numpy calls (chunks of pencils, sized
by numkit's byte budget, on two threads when the process may use two CPUs)
into one :class:`GSweep`; :func:`g_blocks` is its one-point case.  numpy's
stacked ``svd`` and ``solve`` run the same LAPACK routine on each pencil, so
a sweep and one call per frequency give bitwise equal blocks, whatever the
chunk size and whichever thread solves a chunk.  :func:`grid_sweep`
evaluates a search grid's smallest point at once and each other point when
it is first read, one g_sweep pass per read.  :func:`h_sweep` evaluates H at
every point of a sweep for a stack of thetas in the same way: one loop guard
and one solve per chunk of thetas, over all their points, with chunk bytes
that scale with the sweep's length.  :func:`h_lft` is its one-theta case.

The pole guard rejects a frequency whose pencil lambda E - A_xx has
sigma_min < max(POLE_GUARD_RTOL ||A_xx||_2, 1e-14 max(sigma_max, 1)).  It
skips the exact SVD only for a pencil whose sigma_min has a certified lower
bound of at least twice the largest floor the pencil could have.  A grid
pencil takes the Bauer-Fike-type bound of :func:`numkit.pencil_bound`, built
from one eigendecomposition per model (see :func:`g_sweep`), which decides
the guard at every grid point without a solve.  Any other
pencil is solved against [B | I] and takes the bound 1/||inverse||_F; an
inverse whose squared norm underflows (at a huge |lambda|) gives none.  The
rest get the exact SVD.  So the guarded frequencies, their messages and the
solved blocks are those of an SVD of every pencil.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import numkit
from .errors import InvalidInput, PoleProximity
from .model import DescriptorModel

__all__ = [
    "GSweep",
    "lambda_at",
    "check_freqs",
    "g_sweep",
    "grid_sweep",
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


class GSweep:
    """The four transfer blocks of the parameter-free interconnection over a
    frequency list: ``G[i]`` is [[G_yu, G_yv], [G_zu, G_zv]] at ``omegas[i]``,
    and the block properties are stacked views of ``G``.  ``guarded`` holds
    the pole guard's PoleProximity for each dropped frequency, in order.
    ``sweep[i]`` is point i as a one-point sweep with the strides of the
    point's matrix (BLAS results depend on them); functions of one frequency
    take such a point and read ``g.G_yu[0]``.

    A :func:`grid_sweep` holds ``pending`` points, not solved yet, as ``(mask,
    solve)``: ``solve(rows)`` solves the pending rows ``rows`` in one pass and
    clears their bits.  :meth:`at` solves the pending points it reads, and
    reading ``G`` or a block all that are left."""

    def __init__(self, omegas: tuple[float, ...], G: np.ndarray, m_y: int, m_u: int,
                 guarded: tuple[PoleProximity, ...] = (), pending: tuple | None = None):
        self.omegas, self._G, self.m_y, self.m_u = omegas, G, m_y, m_u
        self.guarded, self.pending = guarded, pending

    @property
    def G(self) -> np.ndarray:
        if self.pending is not None:
            mask, solve = self.pending
            solve(np.flatnonzero(mask))
            self.pending = None
        return self._G

    G_yu = property(lambda self: self.G[:, :self.m_y, :self.m_u])
    G_yv = property(lambda self: self.G[:, :self.m_y, self.m_u:])
    G_zu = property(lambda self: self.G[:, self.m_y:, :self.m_u])
    G_zv = property(lambda self: self.G[:, self.m_y:, self.m_u:])

    def __len__(self) -> int:
        return len(self.omegas)

    def __getitem__(self, i: int) -> GSweep:
        i = range(len(self))[i]  # its IndexError also ends iteration
        return GSweep(self.omegas[i:i + 1], self.G[i:i + 1], self.m_y, self.m_u)

    def at(self, points) -> GSweep:
        """The points ``points`` (indices) as a sweep of their own, a copy."""
        points = np.asarray(points, dtype=int)
        if self.pending is not None:
            mask, solve = self.pending
            read = np.zeros(len(self), dtype=bool)  # not np.unique, which imports numpy.ma
            read[points] = True
            solve(np.flatnonzero(read & mask))
        return GSweep(tuple(self.omegas[i] for i in points.tolist()),
                      self._G[points], self.m_y, self.m_u)

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
            sq = (np.einsum("kij,kij->k", Y.real[..., m_b:], Y.real[..., m_b:])
                  + np.einsum("kij,kij->k", Y.imag[..., m_b:], Y.imag[..., m_b:]))
            # An underflowed squared norm (a huge |lam|) bounds nothing: the
            # bound 1/inf = 0 leaves the pencil to the exact SVD.
            sq[sq < np.finfo(float).tiny] = np.inf
            bound[at] = 1.0 / np.sqrt(sq)
        # Freed here, before the next slice's solve: the order of the frees
        # decides whether malloc hands the memory back to the system.
        del Y


def _largest_floor(model: DescriptorModel, lam: np.ndarray) -> np.ndarray:
    """The largest pole-guard floor each pencil at ``lam`` could have: the
    guard's floor through Frobenius norms, which bound the 2-norms."""
    a_fro, e_fro = float(np.linalg.norm(model.A_xx)), float(np.linalg.norm(model.E))
    with np.errstate(over="ignore"):  # an infinite floor certifies nothing
        return np.maximum(POLE_GUARD_RTOL * a_fro,
                          1e-14 * np.maximum(np.abs(lam) * e_fro + a_fro, 1.0))


def g_sweep(model: DescriptorModel, omegas, bound: np.ndarray | None = None) -> GSweep:
    """The four G blocks at each of ``omegas`` that passes the pole guard: the
    pencils are solved in stacked chunks, and each chunk's D + C X fills the
    rows of its kept points in one output array.  A chunk takes as many
    pencils, with their solutions, as fit in numkit's byte budget: a 200-point
    grid of a small model is one chunk.  More than one chunk may run on two
    threads, at half the budget each (``numkit._chunk_map``); the kept points
    and the complaints are assembled in chunk order.

    The guard keeps a pencil when sigma_min >= max(POLE_GUARD_RTOL ||A||_2,
    1e-14 max(sigma_max, 1)), and without an SVD when a certified lower bound
    on its sigma_min is at least twice the largest floor it could have
    (``_largest_floor``).  A grid (:func:`grid_sweep`) passes ``bound``, the
    bound of :func:`numkit.pencil_bound`,

        sigma_min(lam E - A) >= [sigma_min(F V) min_i |1 - (lam - s) theta_i|
                                 - |lam - s| ||R||_2] / ||V||_2,

    and a pencil it certifies is solved against B alone.  Every other
    pencil, and every pencil of a listed sweep, is solved against [B | I]:
    the I columns give the inverse, and sigma_min >= 1/||(lam E - A)^-1||_F
    (Golub & Van Loan, Matrix Computations, 4th ed., sec. 2.3).  Pencils whose
    bound does not clear the factor two, and every pencil of a solve slice
    that raises LinAlgError, get the exact SVD and floor.  So the kept set, the
    complaints and the solutions are those of an SVD of every pencil: numpy's
    solve against B gives the B columns of its solve against [B | I] bit for
    bit.  That is a property of the LAPACK numpy links, not a guarantee;
    tests/test_response.py checks it on the benchmark's shapes.
    """
    omegas = list(omegas)
    lams = np.array([lambda_at(model.time_domain, w) for w in omegas], dtype=complex)
    bound = np.zeros(len(lams)) if bound is None else bound
    E, A = model.E, model.A_xx
    # From a complex E, numpy builds lam E - A into a buffer without a
    # temporary of cast pencils.
    E_c, B, C, D, BI = model.sweep_blocks
    n, m_b = B.shape
    G = np.empty((len(lams), *D.shape), complex)

    def worker(size: int):
        # A chunk holds each pencil and its solution.  The buffers are built
        # once per thread and filled in place: chunk-sized temporaries freed
        # on every chunk let malloc return them to the system and fault them
        # back in.
        pencils = np.empty((size, n, n), complex)
        X = np.empty((size, n, m_b), complex)

        def chunk(part: slice):
            """Fills the rows of G of the chunk's kept points, at their own
            places; returns their indices and the guard's complaints."""
            start, lam, b = part.start, lams[part], bound[part].copy()
            k = len(lam)
            Xk = X[:k]
            solved = np.zeros(k, dtype=bool)
            cut = 2.0 * _largest_floor(model, lam)
            # The buffer holds the pencils in the order they are solved: the
            # certified ones, then the rest.  So each solve takes a view of it.
            certified = b >= cut
            order = np.concatenate([np.flatnonzero(certified), np.flatnonzero(~certified)])
            c = int(certified.sum())
            _solve_group(pencils[:c], order[:c], lam, E_c, A, B, Xk, solved, b)
            _solve_group(pencils[c:k], order[c:], lam, E_c, A, BI, Xk, solved, b)
            kept = solved & (b >= cut)
            undecided = np.flatnonzero(~kept)
            guarded = []
            if undecided.size:
                at = np.argsort(order)[undecided]  # their places in the buffer
                a_norm = float(np.linalg.norm(A, 2))
                sig = np.linalg.svd(pencils[at], compute_uv=False)
                floor = np.maximum(POLE_GUARD_RTOL * a_norm, 1e-14 * np.maximum(sig[:, 0], 1.0))
                low = sig[:, -1] < floor
                kept[undecided] = ~low
                guarded = [PoleProximity(
                    f"omega={omegas[start + undecided[i]]}: sigma_min(lambda E - A) = "
                    f"{sig[i, -1]:.3e} below guard {floor[i]:.3e}") for i in np.flatnonzero(low)]
                unsolved = ~low & ~solved[undecided]
                if unsolved.any():
                    Xk[undecided[unsolved]] = np.linalg.solve(
                        pencils[at[unsolved]], np.broadcast_to(B, (unsolved.sum(), n, m_b)))
                Xk = Xk[kept]
            kept_at = start + np.flatnonzero(kept)
            G[kept_at] = D + C @ Xk
            return kept_at.tolist(), guarded

        return chunk

    parts = numkit._chunk_map(len(lams), 16 * n * (n + m_b), worker)
    kept_at = [i for at, _ in parts for i in at]
    if len(kept_at) < len(lams):
        G = G[kept_at]
    return GSweep(omegas=tuple(float(omegas[i]) for i in kept_at), G=G,
                  m_y=model.dims.m_y, m_u=model.dims.m_u,
                  guarded=tuple(e for _, guarded in parts for e in guarded))


def grid_sweep(model: DescriptorModel, omegas) -> GSweep:
    """The :func:`g_sweep` of the distinct grid frequencies ``omegas``, solved as they are read.

    The model's :func:`numkit.pencil_bound` b decides the pole guard at every
    point.  The pencils b does not certify, and the smallest one it does, are
    solved now; the others are ``pending``, and each read solves the ones it
    reads, in one pass (:meth:`GSweep.at`).  Their blocks are finite: ||G||_2
    <= ||D||_F + ||C||_F ||B||_F / (b / 2), with b halved for the solve's
    backward error and b >= 2e-14 where it certifies; a model whose norms
    could overflow that has no pending point."""
    omegas = [float(w) for w in omegas]
    lams = np.array([lambda_at(model.time_domain, w) for w in omegas], dtype=complex)
    b = np.zeros(len(lams)) if model.pencil_bound is None else model.pencil_bound(lams)
    # Bounds on ||B||_F, ||C||_F and ||D||_F that cannot overflow.
    B, C, D = (math.sqrt(M.size) * float(np.abs(M.real).max(initial=0.0))
               for M in model.sweep_blocks[1:4])
    later = (b >= 2.0 * _largest_floor(model, lams)) & (D + 1e14 * C * B < 1e300)
    later[np.argmax(later)] = False  # the smallest certified point is solved now
    now = g_sweep(model, [w for w, wait in zip(omegas, later) if not wait], b[~later])
    kept = set(now.omegas)
    keep = np.array([wait or w in kept for w, wait in zip(omegas, later)], dtype=bool)
    G = np.empty((int(keep.sum()), *now.G.shape[1:]), complex)
    G[~later[keep]] = now.G
    mask, at = later[keep], np.flatnonzero(keep)  # per row of G: pending, grid index

    def solve(rows):
        if rows.size:
            G[rows] = g_sweep(model, [omegas[i] for i in at[rows]], b[at[rows]]).G
            mask[rows] = False
    return GSweep(omegas=tuple(w for w, k in zip(omegas, keep) if k), G=G, m_y=now.m_y,
                  m_u=now.m_u, guarded=now.guarded, pending=(mask, solve) if mask.any() else None)


def g_blocks(model: DescriptorModel, omega: float) -> GSweep:
    """The one-point :func:`g_sweep` of ``omega``; raises its PoleProximity."""
    return g_sweep(model, [omega]).raise_guarded()


def _theta_bytes(model: DescriptorModel, k: int) -> int:
    """Bytes that :func:`h_sweep` stacks per theta of a ``k``-point sweep: P(theta),
    and per point the loop matrix and the solution against P(theta) G_zu."""
    d = model.dims
    return 8 * d.m_v * d.m_z + 16 * k * d.m_v * (d.m_v + d.m_u)


def h_sweep(model: DescriptorModel, thetas, g: GSweep):
    """H at every point of the sweep ``g`` for each row of ``thetas`` (an n x q stack), in chunks.

    P(theta) accumulates theta_k P_k in the order of ``model.p_of``, and the loop
    guard and the solve run once per chunk, so each H is bitwise equal to an
    evaluation of its theta at its point alone.  Returns the ``(n_kept, len(g),
    m_y, m_u)`` stack of H of the thetas whose loop passes the guard at every
    point, in order, and, by index, the WellPosednessViolation of the first
    failing point of each of the others, which :func:`h_lft` raises.
    """
    T = np.asarray(thetas, dtype=float)
    d, k = model.dims, len(g)
    if T.ndim != 2 or T.shape[1] != d.q:
        raise InvalidInput(f"thetas must be an n x q={d.q} stack, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise InvalidInput("thetas contain non-finite entries")
    Hs = [np.empty((0, k, d.m_y, d.m_u), complex)]
    violations = {}
    for chunk in numkit._chunks(len(T), _theta_bytes(model, k)):
        start, part = chunk.start, T[chunk]
        P = np.zeros((len(part), 1, d.m_v, d.m_z))
        for j, Pj in enumerate(model.P):
            P += part[:, j, None, None, None] * Pj
        loops = np.eye(d.m_v) - P @ g.G_zv
        bad = numkit.loop_guard(
            loops.reshape(-1, d.m_v, d.m_v),
            lambda i: f"I - P(theta) G_zv(j*omega) singular at omega={g.omegas[i % k]}, "
                      f"theta={part[i // k].tolist()}",
        )
        if bad:
            first = {}
            for i, exc in bad.items():  # in index order: a theta's first failing point wins
                first.setdefault(i // k, exc)
            ok = np.ones(len(part), dtype=bool)
            ok[list(first)] = False
            loops, P = loops[ok], P[ok]
            violations.update((start + i, exc) for i, exc in first.items())
        Hs.append(g.G_yu + g.G_yv @ np.linalg.solve(loops, P @ g.G_zu))
    return np.concatenate(Hs), violations


def h_lft(model: DescriptorModel, theta, g: GSweep) -> np.ndarray:
    """H at every point of the sweep ``g``, a ``(len(g), m_y, m_u)`` stack, via the
    interconnection route of its transfer blocks: the one-theta case of :func:`h_sweep`."""
    t = model.check_theta(theta)
    H, violations = h_sweep(model, t[None], g)
    if violations:
        raise violations[0]
    return H[0]
