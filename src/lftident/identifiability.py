"""Rank-based identifiability test from finitely many frequency-response samples.

The parameter vector is globally identifiable from responses at frequencies
``w_1..w_N`` exactly when the only real matrix of the form sum_k d_k P_k whose
columns lie in the per-frequency subspaces range(Pi(j w_i)) is zero.  That
condition is decided through a stacked rank test built from two objects:

* ``Psi``: columns vec(P_k); rank deficiency makes parameters structurally
  indistinguishable regardless of the experiment (necessity clause).
* per-frequency ``Pi = (I - P(theta0) G_zv) K`` with ``K`` an orthonormal
  kernel basis of G_yv; its realified stackings, the left-annihilator ``Xi``
  and the SVD complement ``U_Pi2`` furnish the row blocks of the stacked test
  matrix, which is verified recursively by chaining right-null bases.

:class:`GridSweep` builds these factors for a :class:`response.GSweep`.  Per
grid, in stacked calls per kernel group, it forms K, Pi, Pi_bar_r, Pi_bar_j,
the Xi stacks, the side condition and the one-frequency shortcut flag.  Pi's
full SVD, which only U_Pi2 needs, runs per kernel group when a point of the
group is materialized as a :class:`PiDecomposition` or when the greedy rows
of the frequency search are built.  All rank decisions go through
:mod:`lftident.numkit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit, response
from .errors import FNRRViolation, InvalidInput
from .model import DescriptorModel

__all__ = [
    "IDENTIFIABLE",
    "NOT_IDENTIFIABLE",
    "INCONCLUSIVE",
    "ROBUST_RTOL",
    "DECISION_RTOL",
    "SENSITIVITY_RTOL",
    "CERT_TOL",
    "PsiDecomposition",
    "PiDecomposition",
    "IdentifiabilityVerdict",
    "psi",
    "GridSweep",
    "pi_at",
    "pi_sweep",
    "normal_row_rank",
    "check_fnrr",
    "upsilon_block",
    "upsilon_rows",
    "candidate_scores",
    "chain_null_basis",
    "sensitivity_stack",
    "upsilon_test",
    "sufficient_count",
]

IDENTIFIABLE = "identifiable"
NOT_IDENTIFIABLE = "not-identifiable"
INCONCLUSIVE = "inconclusive"

# Tolerance discipline.  Rank decisions supporting an "identifiable" claim
# must hold at the decision margin, and the claim must additionally survive a
# sensitivity gate: the exact first-order response-sensitivity map (to which
# the stacked test is equivalent in exact arithmetic) needs a healthy
# smallest singular value, otherwise working precision cannot tell the
# instance apart from a degenerate one.  A "not-identifiable" verdict needs
# an explicit null direction whose constraint residual is below the
# certificate tolerance.  Everything between is reported as inconclusive
# rather than guessed.  ROBUST_RTOL decides the one-frequency shortcut and
# ranks candidate frequencies in the grid search so that fragile
# near-duplicate candidates lose ties.
ROBUST_RTOL = 1e-3
DECISION_RTOL = 1e-6
SENSITIVITY_RTOL = 1e-5
CERT_TOL = 1e-9

# Random guarded frequencies at which normal_row_rank probes G_zu.
_RANK_PROBES = 3


@dataclass(frozen=True)
class PsiDecomposition:
    """Stacked parameter-pattern matrix [vec(P_1) ... vec(P_q)] and its SVD."""

    Psi: np.ndarray
    factors: numkit.SvdFactors

    @property
    def rank(self) -> int:
        return self.factors.rank

    @property
    def is_fcr(self) -> bool:
        return self.rank == self.Psi.shape[1]

    @property
    def U1(self) -> np.ndarray:
        return self.factors.U1.real

    @property
    def U2(self) -> np.ndarray:
        return self.factors.U2.real


def psi(model: DescriptorModel) -> PsiDecomposition:
    """Assemble Psi = [vec(P_1) ... vec(P_q)] and decompose it."""
    cols = [numkit.vec(Pk) for Pk in model.P]
    Psi = np.column_stack(cols)
    return PsiDecomposition(Psi=Psi, factors=numkit.svd_full(Psi))


@dataclass(frozen=True)
class PiDecomposition:
    """Per-frequency factors feeding the stacked rank test.

    ``Pi`` is full column rank by construction; ``Pi_bar_r``/``Pi_bar_j`` are
    its [real, -imag] / [imag, real] stackings; ``Xi`` annihilates
    Pi_bar_r times a right-null basis of Pi_bar_j from the left; ``U_Pi2``
    spans the orthogonal complement of range(Pi).  ``side_fcr`` is the side
    condition (Pi_bar_r times that null basis is full column rank at the
    DECISION_RTOL margin); ``shortcut`` says Pi_bar_j is full column rank with
    the ROBUST_RTOL margin, so that the frequency certifies on its own.  ``g``
    is the one-point sweep of the transfer blocks Pi was built from.
    """

    g: response.GSweep
    K: np.ndarray
    Pi: np.ndarray
    Pi_bar_r: np.ndarray
    Pi_bar_j: np.ndarray
    Xi: np.ndarray
    U_Pi2: np.ndarray
    side_fcr: bool
    shortcut: bool

    @property
    def omega(self) -> float:
        return self.g.omegas[0]

    @property
    def kernel_dim(self) -> int:
        return self.K.shape[1]

    @property
    def u2_stack(self) -> np.ndarray:
        """[U_Pi2r  U_Pi2j]^T: the real row block enforcing columns in range(Pi)."""
        return _u2_stack(self.U_Pi2)


def _u2_stack(U: np.ndarray) -> np.ndarray:
    """:attr:`PiDecomposition.u2_stack` of U_Pi2, or of each of a stack of them."""
    return np.concatenate([U.real, U.imag], axis=-1).swapaxes(-1, -2)


def pi_at(model: DescriptorModel, theta0, g: response.GSweep,
          kernel: np.ndarray | None = None) -> PiDecomposition:
    """Build the Pi decomposition from the one-point sweep ``g`` of transfer
    blocks: the one-point case of :class:`GridSweep`.

    ``kernel`` overrides the computed kernel basis of G_yv (any basis of the
    same column span gives the same verdicts; the override exists to exercise
    exactly that invariance).
    """
    K = None if kernel is None else [(np.zeros(1, dtype=int), np.asarray(kernel, dtype=complex)[None])]
    return GridSweep(model, theta0, g, K).at(0)


def pi_sweep(model: DescriptorModel, theta0, g: response.GSweep) -> list[PiDecomposition]:
    """:func:`pi_at` at each point of the sweep ``g``: every point of a
    :class:`GridSweep`, bitwise equal to one pi_at call per point.  A singular
    loop raises pi_at's WellPosednessViolation for the first such point."""
    sweep = GridSweep(model, theta0, g)
    return [sweep.at(i) for i in range(len(g))]


def _by_value(values: np.ndarray):
    """``(value, selection)`` for each distinct entry of the integer array
    ``values``, ascending; the selection is a view-preserving ``slice(None)``
    when all are equal.  Not np.unique: it imports numpy.ma (about 1 MB)."""
    distinct = sorted(set(values.tolist()))
    if len(distinct) == 1:
        return [(distinct[0], slice(None))]
    return [(v, np.flatnonzero(values == v)) for v in distinct]


def _fcr(sigma: np.ndarray, shape: tuple[int, int, int], rtol: float) -> np.ndarray:
    """Whether each matrix of a ``shape`` stack with singular values ``sigma``
    has full column rank at ``rtol`` on the unit scale floor."""
    return numkit._ranks(sigma, shape[1:], rtol, 1.0) == shape[2]


class GridSweep:
    """The Pi factors of the transfer-block sweep ``g`` at ``theta0``, kept as stacks.

    Points that share a chunk of the G_yv stack and a kernel dimension form a
    kernel group (``kernels``, ``(indices, K stack)`` pairs, overrides the
    computed bases).  ``xis`` holds the Xi stacks as ``(indices, Xi stack)``
    pairs; ``side`` and ``shortcut`` hold each point's side condition and
    shortcut flag.  :meth:`at` builds one point's PiDecomposition and runs its
    group's Pi SVD on first use.  Slices keep the memory layout of the
    one-matrix route, on which BLAS results depend.
    """

    def __init__(self, model: DescriptorModel, theta0, g: response.GSweep,
                 kernels: list[tuple[np.ndarray, np.ndarray]] | None = None):
        t0 = model.check_theta(theta0)
        self.g = g
        if kernels is None:
            kernels = []
            for start in range(0, len(g), numkit._CHUNK):
                _, _, V, rank = numkit.svd_stack(g.G_yv[start:start + numkit._CHUNK])
                kernels += [(start + np.arange(len(rank))[sel], V[sel][:, :, r:])
                            for r, sel in _by_value(rank)]
        m_v = model.dims.m_v
        for _, K in kernels:
            if K.shape[1] != m_v:
                raise InvalidInput(f"kernel basis must have {m_v} rows, got {K.shape[1]}")
        # A compact copy of G_zv: the product's bits depend on the operand's layout.
        loops = np.eye(m_v) - model.p_of(t0) @ np.ascontiguousarray(g.G_zv)
        _, bad = numkit.loop_guard(
            loops, lambda i: f"I - P(theta0) G_zv singular at omega={g.omegas[i]}")
        if bad:
            raise bad[min(bad)]
        n = len(g)
        self.side = np.zeros(n, dtype=bool)
        self.shortcut = np.zeros(n, dtype=bool)
        self.xis: list[tuple[np.ndarray, np.ndarray]] = []
        self._groups = []
        self._pi_svds: list = [None] * len(kernels)
        # Per point: its kernel group, its position there, its Xi group and
        # its position there.
        self._slots = np.zeros((4, n), dtype=int)
        for grp, (idx, K) in enumerate(kernels):
            Pi = loops[idx] @ K
            R = np.concatenate([Pi.real, -Pi.imag], axis=2)
            J = np.concatenate([Pi.imag, Pi.real], axis=2)
            self._groups.append((idx, K, Pi, R, J))
            self._slots[0, idx], self._slots[1, idx] = grp, np.arange(len(idx))
            _, sigma_j, VJ, rank_j = numkit.svd_stack(J)
            self.shortcut[idx] = _fcr(sigma_j, J.shape, ROBUST_RTOL)
            for r, sel in _by_value(rank_j):
                T = R[sel] @ VJ[sel][:, :, r:]
                UT, sigma_t, _, rank_t = numkit.svd_stack(T)
                # The side condition feeds verdicts, so it must hold with the margin.
                self.side[idx[sel]] = _fcr(sigma_t, T.shape, DECISION_RTOL)
                for rt, sub in _by_value(rank_t):
                    at = idx[sel][sub]
                    self._slots[2, at], self._slots[3, at] = len(self.xis), np.arange(len(at))
                    self.xis.append((at, UT[sub][:, :, rt:].transpose(0, 2, 1).real))

    def _pi_svd(self, grp: int) -> tuple[np.ndarray, np.ndarray]:
        """``(U, ranks)`` of the Pi SVD of kernel group ``grp``, which runs on
        first use: member j's U_Pi2 is ``U[j, :, ranks[j]:]``."""
        if self._pi_svds[grp] is None:
            U, _, _, ranks = numkit.svd_stack(self._groups[grp][2])
            self._pi_svds[grp] = (U, ranks)
        return self._pi_svds[grp]

    def at(self, i: int) -> PiDecomposition:
        """The :class:`PiDecomposition` of grid point ``i``: views into the stacks."""
        grp, j, x, k = self._slots[:, i].tolist()
        _, K, Pi, R, J = self._groups[grp]
        U, ranks = self._pi_svd(grp)
        return PiDecomposition(
            g=self.g[i], K=K[j], Pi=Pi[j], Pi_bar_r=R[j], Pi_bar_j=J[j],
            Xi=self.xis[x][1][k], U_Pi2=U[j, :, ranks[j]:],
            side_fcr=bool(self.side[i]), shortcut=bool(self.shortcut[i]))

    def greedy_rows(self, psi_dec: PsiDecomposition, m_z: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """``upsilon_block(self.at(i), psi_dec, False, m_z)`` of every grid point,
        one row stack per Pi rank of each kernel group: a list of
        ``(indices, row stack)``."""
        rows = []
        for grp, (idx, *_) in enumerate(self._groups):
            U, ranks = self._pi_svd(grp)
            rows += [(idx[sel], upsilon_rows(_u2_stack(U[sel][:, :, r:]), psi_dec, m_z))
                     for r, sel in _by_value(ranks)]
        return rows


def normal_row_rank(model: DescriptorModel, seed: int = 20260808) -> int:
    """Normal row rank of G_zu, probed at random guarded frequencies.

    Each round draws as many frequencies as probes are still missing, in the
    order of one draw per attempt, evaluates them in one :func:`response.g_sweep`
    and ranks its stacked G_zu in one stacked rank test; at most
    20 * _RANK_PROBES frequencies are drawn.  Raises FNRRViolation when the
    probe ranks disagree, since that leaves the normal rank undecided at the
    working tolerance.
    """
    rng = np.random.default_rng(seed)
    ranks: list[int] = []
    attempts = 0
    while len(ranks) < _RANK_PROBES and attempts < 20 * _RANK_PROBES:
        n = min(_RANK_PROBES - len(ranks), 20 * _RANK_PROBES - attempts)
        attempts += n
        if model.time_domain == "continuous":
            # Scalar powers: numpy's array ** may round differently.
            w = [float(10.0 ** rng.uniform(-2.0, 2.0)) for _ in range(n)]
        else:
            w = [float(rng.uniform(0.05, np.pi - 0.05)) for _ in range(n)]
        kept = response.g_sweep(model, w)
        ranks += numkit.stacked_ranks(kept.G_zu, (numkit.DEFAULT_RANK_RTOL,))[1][0].tolist()
    if len(ranks) < _RANK_PROBES:
        raise FNRRViolation("could not place rank probes away from poles")
    if min(ranks) != max(ranks):
        raise FNRRViolation(
            f"G_zu rank probes disagree: {ranks}; normal rank undecided"
        )
    return max(ranks)


def check_fnrr(model: DescriptorModel, seed: int = 20260808) -> int:
    """Verify the full-normal-row-rank hypothesis on G_zu; returns the rank."""
    r = normal_row_rank(model, seed=seed)
    if r < model.dims.m_z:
        raise FNRRViolation(
            f"G_zu has normal row rank {r} < m_z={model.dims.m_z}; the stacked "
            "rank test needs full normal row rank and does not apply to this model"
        )
    return r


def upsilon_block(pi: PiDecomposition, psi_dec: PsiDecomposition, first: bool,
                  m_z: int) -> np.ndarray:
    """One row block of the reduced stacked test matrix, with columns in the
    coordinates of the columns of U_Psi1: the one-matrix case of
    :func:`upsilon_rows`."""
    return upsilon_rows((pi.Xi if first else pi.u2_stack)[None], psi_dec, m_z)[0]


def upsilon_rows(W: np.ndarray, psi_dec: PsiDecomposition, m_z: int) -> np.ndarray:
    """The row blocks (I_mz kron W_i) U_Psi1 of a stack ``W`` of Xi or
    u2_stack blocks, one per candidate frequency; an empty stack gives none."""
    # (I_mz kron W) @ U1, applying W to each of the m_z row blocks of U1.
    k = psi_dec.U1.shape[1]
    return (W[:, None] @ psi_dec.U1.reshape(m_z, -1, k)).reshape(len(W), m_z * W.shape[1], k)


def candidate_scores(blocks: np.ndarray) -> np.ndarray:
    """(robust rank, margin rank) of each candidate row block of the stack
    ``blocks``: a 2 x k integer array, from one stacked SVD.

    Adjacent grid points often add rows that are nearly dependent on what is
    already absorbed; counting only margin-level gains would let the
    smallest-omega tie-break select exactly those fragile candidates.
    """
    return numkit.stacked_ranks(blocks, (ROBUST_RTOL, DECISION_RTOL), 1.0)[1]


def chain_null_basis(block: np.ndarray) -> np.ndarray:
    """Right-null basis of ``block``, decided at the DECISION_RTOL margin.

    One step of the recursive chain is ``Z @ chain_null_basis(block @ Z)``.
    """
    return numkit.right_null_basis(block, rtol=DECISION_RTOL, scale_floor=1.0)


@dataclass(frozen=True)
class IdentifiabilityVerdict:
    """Tri-state outcome of the stacked rank test on a fixed frequency set.

    ``identifiable`` certifies that exact response equality at the listed
    frequencies forces equal parameters.  ``not-identifiable`` carries a unit
    residual direction along which the response provably does not move, signed
    by :func:`numkit.sign_flip`.
    ``rank_trace`` records the dimension of the unresolved parameter space
    after each frequency was absorbed.
    """

    status: str
    frequencies: tuple[float, ...]
    residual_nullspace_dim: int
    rank_trace: tuple[int, ...]
    psi_fcr: bool
    reason: str
    residual_direction: np.ndarray | None = None
    shortcut_omega: float | None = None


def sensitivity_stack(model: DescriptorModel, theta0, blocks) -> np.ndarray:
    """Exact first-order response-sensitivity map as a real stacked matrix.

    Column k holds, for each of the one-point sweeps ``blocks`` in turn, the
    real and imaginary parts of vec of G_yv (I - P0 G_zv)^-1 P_k
    (I - G_zv P0)^-1 G_zu, which is the derivative of the response with
    respect to theta_k at theta0.
    """
    t0 = model.check_theta(theta0)
    P0 = model.p_of(t0)
    m_v, m_z = model.dims.m_v, model.dims.m_z
    cols = [[] for _ in range(model.dims.q)]
    for g in blocks:
        L = np.linalg.solve((np.eye(m_v) - P0 @ g.G_zv[0]).T, g.G_yv[0].T).T
        R = np.linalg.solve(np.eye(m_z) - g.G_zv[0] @ P0, g.G_zu[0])
        for k, Pk in enumerate(model.P):
            dH = L @ Pk @ R
            cols[k].append(numkit.vec(dH.real))
            cols[k].append(numkit.vec(dH.imag))
    return np.column_stack([np.concatenate(c) for c in cols])


def _sensitivity_margin_ok(model, theta0, pis) -> bool:
    J = sensitivity_stack(model, theta0, [p.g for p in pis])
    if J.shape[1] == 0:
        return True
    if J.shape[0] < J.shape[1]:
        return False
    sig = np.linalg.svd(J, compute_uv=False)
    return float(sig[-1]) >= SENSITIVITY_RTOL * max(1.0, float(sig[0]))


def _direct_stack(psi_dec: PsiDecomposition, pis, m_z: int) -> np.ndarray:
    """Constraint stack whose null space is exactly the set of undetectable
    vec(sum_k d_k P_k): membership in range(Psi) plus, per frequency,
    columns inside range(Pi)."""
    I_mz = np.eye(m_z)
    return np.vstack([psi_dec.U2.T, *(numkit._kron(I_mz, p.u2_stack) for p in pis)])


def _residual_direction(null: np.ndarray, psi_dec: PsiDecomposition, pis, m_z: int):
    """The first of the null directions ``null`` of the direct constraint stack,
    mapped to parameter space.

    Returns (delta_unit, nullity, worst_certificate_residual).  The residual
    is the largest violation of the range conditions by the extracted
    direction; a sound negative verdict requires it below CERT_TOL.
    """
    if null.shape[1] == 0:
        return None, 0, 0.0
    v = null[:, 0].real
    v = v / np.linalg.norm(v)
    worst = float(np.linalg.norm(psi_dec.U2.T @ v))
    dP = numkit.unvec(v, pis[0].Pi.shape[0], m_z)
    for p in pis:
        worst = max(worst, float(np.linalg.norm(p.U_Pi2.conj().T @ dP)))
    delta = psi_dec.factors.V1.real @ (
        (psi_dec.U1.T @ v) / psi_dec.factors.sigma
    )
    return numkit.sign_flip(delta / np.linalg.norm(delta)), null.shape[1], worst


def _psi_deficient_verdict(psi_dec: PsiDecomposition, freqs) -> IdentifiabilityVerdict:
    """The ``not-identifiable`` verdict of a rank-deficient Psi, listing ``freqs``:
    the parameter patterns are dependent, so no frequency set can help."""
    q = psi_dec.Psi.shape[1]
    null = psi_dec.factors.V2.real
    return IdentifiabilityVerdict(
        status=NOT_IDENTIFIABLE,
        frequencies=tuple(freqs),
        residual_nullspace_dim=q - psi_dec.rank,
        rank_trace=(),
        psi_fcr=False,
        reason=f"Psi rank {psi_dec.rank} < q={q}: parameter patterns are linearly dependent",
        residual_direction=numkit.sign_flip(null[:, 0] / np.linalg.norm(null[:, 0])),
    )


def upsilon_test(model: DescriptorModel, theta0, freqs, pis=None,
                 fnrr_seed: int = 20260808) -> IdentifiabilityVerdict:
    """Decide identifiability at ``theta0`` from the given distinct frequencies.

    The first listed frequency plays the anchor role (its Xi rows enter the
    stack); the rest contribute their U_Pi2 rows.  The stacked full-column-rank
    test is carried out recursively: a shrinking right-null basis Z is chained
    through the per-frequency blocks and the verdict is identifiable exactly
    when Z shrinks to zero columns.  Without ``pis``, the frequencies are
    evaluated in one :func:`response.g_sweep` and decomposed by
    :func:`pi_sweep`, so a pole anywhere in the list is reported before a
    singular loop.
    """
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)

    psi_dec = psi(model)
    if not psi_dec.is_fcr:
        return _psi_deficient_verdict(psi_dec, w)

    check_fnrr(model, seed=fnrr_seed)

    if pis is None:
        pis = pi_sweep(model, t0, response.g_sweep(model, w).raise_guarded())
    else:
        pis = list(pis)
        if [p.omega for p in pis] != w:
            raise InvalidInput(f"pis must be built at freqs {w}, in order")
    return _decide(model, t0, pis, psi_dec)


def _decide(model: DescriptorModel, t0: np.ndarray, pis: list[PiDecomposition],
            psi_dec: PsiDecomposition) -> IdentifiabilityVerdict:
    """The verdict of :func:`upsilon_test` from checked inputs: ``t0`` a checked
    parameter vector, ``pis`` built at distinct frequencies, a full-column-rank
    ``psi_dec``, and the FNRR hypothesis already verified."""
    w = [p.omega for p in pis]
    m_z = model.dims.m_z
    q = model.dims.q

    # Single-frequency certificate at the smallest qualifying omega.  The
    # sensitivity gate reads every listed frequency, so it runs at most once:
    # a shortcut it vetoes also vetoes the chain's positive verdict below.
    shortcut = min((p.omega for p in pis if p.shortcut), default=None)
    if shortcut is not None and _sensitivity_margin_ok(model, t0, pis):
        return IdentifiabilityVerdict(
            status=IDENTIFIABLE,
            frequencies=tuple(w),
            residual_nullspace_dim=0,
            rank_trace=(0,),
            psi_fcr=True,
            reason=f"Pi_bar_j is full column rank at omega={shortcut}",
            shortcut_omega=shortcut,
        )

    # One SVD of the direct stack serves its rank check and its null basis.
    direct = numkit.svd_full(_direct_stack(psi_dec, pis, m_z), DECISION_RTOL, 1.0)

    def negative_or_inconclusive(trace: tuple[int, ...], context: str) -> IdentifiabilityVerdict:
        delta, dim, worst = _residual_direction(direct.V2, psi_dec, pis, m_z)
        if delta is not None and worst <= CERT_TOL:
            return IdentifiabilityVerdict(
                status=NOT_IDENTIFIABLE,
                frequencies=tuple(w),
                residual_nullspace_dim=dim,
                rank_trace=trace,
                psi_fcr=True,
                reason=(
                    f"{context}: {dim} parameter direction(s) leave every listed "
                    f"frequency response unchanged (certificate residual {worst:.1e})"
                ),
                residual_direction=delta,
            )
        return IdentifiabilityVerdict(
            status=INCONCLUSIVE,
            frequencies=tuple(w),
            residual_nullspace_dim=0 if delta is None else dim,
            rank_trace=trace,
            psi_fcr=True,
            reason=(
                f"{context}: rank decision is thinner than the {DECISION_RTOL:.0e} "
                "margin and no exact-match direction certifies the negative "
                f"(best certificate residual {worst:.1e})"
            ),
        )

    if not pis[0].side_fcr:
        return negative_or_inconclusive((), f"anchor side condition failed at omega={w[0]}")

    Z = np.eye(q)
    trace: list[int] = []
    for i, p in enumerate(pis):
        block = upsilon_block(p, psi_dec, first=(i == 0), m_z=m_z)
        Z = Z @ chain_null_basis(block @ Z)
        trace.append(Z.shape[1])
        if Z.shape[1] == 0:
            break

    if Z.shape[1] == 0:
        # Confirm on the explicitly stacked matrix, then pass the sensitivity
        # gate before claiming identifiability.
        if direct.V2.shape[1] == 0:
            if shortcut is None and _sensitivity_margin_ok(model, t0, pis):
                return IdentifiabilityVerdict(
                    status=IDENTIFIABLE,
                    frequencies=tuple(w),
                    residual_nullspace_dim=0,
                    rank_trace=tuple(trace),
                    psi_fcr=True,
                    reason=f"stacked test reached full column rank after {len(trace)} frequencies",
                )
            return negative_or_inconclusive(
                tuple(trace), "response-sensitivity margin too thin"
            )
        return negative_or_inconclusive(
            tuple(trace), "recursive chain and direct stack disagree"
        )

    return negative_or_inconclusive(tuple(trace), "stacked test stalled")


def sufficient_count(model: DescriptorModel) -> int:
    """Frequency budget 2*M + 1 that always suffices for an identifiable model.

    M bounds the coprime-factor degree of the response; the state dimension
    is a safe bound for a regular pencil.
    """
    return 2 * model.dims.m_x + 1
