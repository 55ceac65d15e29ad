"""Rank-based identifiability test from finitely many frequency-response samples.

The parameter vector is globally identifiable from responses at frequencies
``w_1..w_N`` exactly when the only real matrix of the form sum_k d_k P_k whose
columns lie in the per-frequency subspaces range(Pi(j w_i)) is zero.  That
condition is decided through a stacked rank test built from two objects:

* ``Psi``: columns vec(P_k); rank deficiency makes parameters structurally
  indistinguishable regardless of the experiment (necessity clause).
  :func:`psi` returns its SVD factors.
* per-frequency ``Pi = (I - P(theta0) G_zv) K`` with ``K`` an orthonormal
  kernel basis of G_yv; its realified stackings, the left-annihilator ``Xi``
  and the SVD complement ``U_Pi2`` furnish the row blocks of the stacked test
  matrix, which is verified recursively by chaining right-null bases.

:class:`GridSweep` builds these factors for a :class:`response.GSweep`.  When
built, it checks every point's blocks and loop I - P(theta0) G_zv through
:func:`guarded_loops`.  Every other factor is built
when first read, for the points read, in stacked calls per kernel group: K
and Pi; the anchor factors (the shortcut flag, the side condition and Xi,
from the J and T SVDs); and U_Pi2, from Pi's full SVD, which is not kept.
A listed verdict reads all its points in one request, so it gets one stack
per kernel group of them; the frequency search reads the grid part by part.
So a shortcut verdict factors no Pi.  A listed frequency set travels between
layers as one GridSweep, checked or built by :func:`listed_sweep`, and the
verdict reads it by point index, in one ladder of checks: the shortcut, the
anchor's side condition, the chain, the direct stack and the sensitivity
gate.  The first check that fails names the context of a negative or
inconclusive reason.  Every rank decision but one goes through
:mod:`lftident.numkit`: the sensitivity gate (``_sensitivity_margin_ok``)
takes its own values-only SVD of the gate's J and compares sigma_min with
SENSITIVITY_RTOL * max(1, sigma_max), a margin and not a rank cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit, response
from .errors import FNRRViolation, InvalidInput, RankDrop
from .model import DescriptorModel

__all__ = [
    "IDENTIFIABLE",
    "NOT_IDENTIFIABLE",
    "INCONCLUSIVE",
    "ROBUST_RTOL",
    "DECISION_RTOL",
    "SENSITIVITY_RTOL",
    "CERT_TOL",
    "IdentifiabilityVerdict",
    "psi",
    "GridSweep",
    "guarded_loops",
    "pi_at",
    "listed_sweep",
    "normal_row_rank",
    "check_fnrr",
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


def psi(model: DescriptorModel) -> numkit.SvdFactors:
    """The SVD factors of Psi = [vec(P_1) ... vec(P_q)], which is real: Psi has
    full column rank exactly when ``V2`` has no column."""
    return numkit.svd_full(np.column_stack([numkit.vec(Pk) for Pk in model.P]))


def _u2_stack(U: np.ndarray) -> np.ndarray:
    """[U_Pi2r  U_Pi2j]^T, the real row block that keeps columns in range(Pi),
    of U_Pi2 or of each of a stack of them."""
    return np.concatenate([U.real, U.imag], axis=-1).swapaxes(-1, -2)


def pi_at(model: DescriptorModel, theta0, g: response.GSweep,
          kernel: np.ndarray | None = None) -> GridSweep:
    """The one-point :class:`GridSweep` of the one-point sweep ``g``; ``kernel``
    overrides its kernel basis of G_yv (any basis of the same column span gives
    the same verdicts, and the override exists to exercise that invariance)."""
    K = None if kernel is None else [(np.zeros(1, dtype=int), np.asarray(kernel, dtype=complex)[None])]
    return GridSweep(model, theta0, g, K)


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


def _bars(Pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pi_bar_r = [Re Pi, -Im Pi] and Pi_bar_j = [Im Pi, Re Pi] of Pi or of a stack of them."""
    return (np.concatenate([Pi.real, -Pi.imag], axis=-1),
            np.concatenate([Pi.imag, Pi.real], axis=-1))


class GridSweep:
    """The Pi factors of the transfer-block sweep ``g`` at ``theta0``, built as they are read.

    Construction runs :func:`guarded_loops` on every point.  Each other
    factor is built, and kept, when a method first reads its point (``g.at``):
    K and Pi, from G_yv SVDs in chunks of as many points as numkit's byte budget
    fits, where points that share a chunk and a kernel dimension form a kernel
    group (``kernels``, ``(indices, K stack)`` pairs, overrides the computed
    bases); the anchor factors (:meth:`flags`, :meth:`xis`, :meth:`xi`), from
    one J SVD per kernel group and one T SVD per J rank; and the U_Pi2 of
    :meth:`u_pi2` and :meth:`greedy_rows`, from one Pi SVD per kernel group of
    the points read, which is not kept.  :meth:`parts` orders the points for
    a search, and :meth:`bars` stacks every point's Pi_bar_r and Pi_bar_j.
    ``theta0`` is the checked parameter vector and ``p0`` is P(theta0).
    Slices keep the memory layout of the one-matrix route, on which BLAS
    results depend; a point's factors have the same bits in any stack, so the
    order of reads never changes a result.
    """

    def __init__(self, model: DescriptorModel, theta0, g: response.GSweep,
                 kernels: list[tuple[np.ndarray, np.ndarray]] | None = None):
        t0 = model.check_theta(theta0)
        self.theta0 = t0
        self.g = g
        m_v = model.dims.m_v
        for _, K in kernels or []:
            if K.shape[1] != m_v:
                raise InvalidInput(f"kernel basis must have {m_v} rows, got {K.shape[1]}")
        self.p0 = guarded_loops(model, t0, g)
        n = len(g)
        # A chunk's points hold their factors at once: the SVDs of G_yv,
        # Pi_bar_j and T, K, Pi and its stackings, at most about sixteen
        # complex m_v x m_v matrices per point.
        self._nbytes = 16 * 16 * m_v * m_v
        self._shortcut = np.zeros(n, dtype=bool)
        self._side = np.zeros(n, dtype=bool)
        self._xis: list[tuple[np.ndarray, np.ndarray]] = []
        self._groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Per point: its kernel group, its position there, its Xi group and
        # its position there; -1 until built.
        self._slots = np.full((4, n), -1)
        for idx, K in kernels or []:
            self._add(idx, K)

    def _add(self, idx: np.ndarray, K: np.ndarray) -> None:
        self._slots[0, idx], self._slots[1, idx] = len(self._groups), np.arange(len(idx))
        # At P(theta0) = 0 every loop is I, so Pi = K.
        self._groups.append((idx, K, _loops(self.p0, self.g.at(idx)) @ K if self.p0.any() else K))

    def _by_group(self, points) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(points, Pi stack)`` of each kernel group among ``points``, in order
        of first appearance, once K and Pi of every point of ``points`` are built."""
        points = np.asarray(points, dtype=int)
        new = points[self._slots[0, points] < 0]
        for part in numkit._chunks(len(new), self._nbytes):
            at = new[part]
            _, _, V, rank = numkit.svd_stack(self.g.at(at).G_yv)
            for r, sel in _by_value(rank):
                self._add(at[sel], V[sel][:, :, r:])
        of = self._slots[0, points]
        out = []
        for grp in dict.fromkeys(of.tolist()):
            at = points[of == grp]
            out.append((at, self._groups[grp][2][self._slots[1, at]]))
        return out

    def _anchor(self, points) -> None:
        """Builds the anchor factors of the points of ``points`` that have none."""
        points = np.asarray(points, dtype=int)
        for idx, Pi in self._by_group(points[self._slots[2, points] < 0]):
            R, J = _bars(Pi)
            _, sigma_j, VJ, rank_j = numkit.svd_stack(J)
            self._shortcut[idx] = _fcr(sigma_j, J.shape, ROBUST_RTOL)
            for r, sel in _by_value(rank_j):
                T = R[sel] @ VJ[sel][:, :, r:]
                UT, sigma_t, _, rank_t = numkit.svd_stack(T)
                # The side condition feeds verdicts, so it must hold with the margin.
                self._side[idx[sel]] = _fcr(sigma_t, T.shape, DECISION_RTOL)
                for rt, sub in _by_value(rank_t):
                    at = idx[sel][sub]
                    self._slots[2, at], self._slots[3, at] = len(self._xis), np.arange(len(at))
                    self._xis.append((at, UT[sub][:, :, rt:].transpose(0, 2, 1).real))

    def parts(self) -> list[np.ndarray]:
        """The points in the order a search reads them: the smallest alone, then
        the rest in ascending runs of as many points as one chunk takes."""
        rest = np.arange(1, len(self.g))
        return [np.arange(1)] + [rest[p] for p in numkit._chunks(len(rest), self._nbytes)]

    def flags(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The shortcut flags and the side conditions of ``points``."""
        self._anchor(points)
        return self._shortcut[points], self._side[points]

    def xis(self, points) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(grid indices, Xi stack)`` of the side-passing points of ``points``
        in each Xi group that has any."""
        self._anchor(points)
        read = np.zeros(len(self.g), dtype=bool)
        read[points] = True
        read &= self._side
        return [(idx[read[idx]], xi[read[idx]]) for idx, xi in self._xis if read[idx].any()]

    def xi(self, i: int) -> np.ndarray:
        """Xi of grid point ``i``: a view into its Xi stack."""
        self._anchor([i])
        x, k = self._slots[2:, i].tolist()
        return self._xis[x][1][k]

    def u_pi2(self, points: list[int]) -> list[np.ndarray]:
        """U_Pi2 of each grid point of ``points``: slices of one stacked SVD of
        the Pi of each kernel group's points among ``points``."""
        out = {}
        for at, Pi in self._by_group(points):
            U, _, _, ranks = numkit.svd_stack(Pi)
            out.update((i, U[j, :, ranks[j]:]) for j, i in enumerate(at.tolist()))
        return [out[i] for i in points]

    def bars(self) -> tuple[np.ndarray, np.ndarray]:
        """Pi_bar_r and Pi_bar_j of every point as two stacks, in point order;
        RankDrop when the kernel dimension varies between points."""
        groups = self._by_group(range(len(self.g)))
        dims = sorted({Pi.shape[2] for _, Pi in groups})
        if len(dims) > 1:
            raise RankDrop(f"the kernel dimension of G_yv varies across the chosen frequencies "
                           f"(kernel={dims}); pick frequencies at the normal rank")
        order = np.argsort(np.concatenate([at for at, _ in groups]))
        return tuple(np.concatenate(s)[order] for s in zip(*(_bars(Pi) for _, Pi in groups)))

    def greedy_rows(self, points, psi_dec: numkit.SvdFactors,
                    m_z: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The U_Pi2 row blocks (:func:`upsilon_rows` of the u2 stacks) of
        ``points``, from one stacked Pi SVD per kernel group among them, one row
        stack per Pi rank of each group: a list of ``(indices, row stack)``."""
        rows = []
        for at, Pi in self._by_group(points):
            U, _, _, ranks = numkit.svd_stack(Pi)
            rows += [(at[sel], upsilon_rows(_u2_stack(U[sel][:, :, r:]), psi_dec, m_z))
                     for r, sel in _by_value(ranks)]
        return rows


def _loops(P0: np.ndarray, g: response.GSweep) -> np.ndarray:
    """The loop matrices I - P0 G_zv of every point of ``g``."""
    # A compact copy of G_zv: the product's bits depend on the operand's layout.
    return np.eye(P0.shape[0]) - P0 @ np.ascontiguousarray(g.G_zv)


def guarded_loops(model: DescriptorModel, t0: np.ndarray, g: response.GSweep) -> np.ndarray:
    """P(t0), at the checked ``t0``, once every point of ``g`` has finite blocks
    (else InvalidInput) and a loop I - P(t0) G_zv that passes the loop guard
    (else the WellPosednessViolation of the first singular one).  At P(t0) = 0
    every loop is I and the pending points of a grid have finite blocks (see
    :func:`response.grid_sweep`), so only its solved points are checked."""
    P0 = model.p_of(t0)
    checked = g if g.pending is None or P0.any() else g.at(np.flatnonzero(~g.pending[0]))
    numkit._checked(checked.G, "G")
    bad = numkit.loop_guard(_loops(P0, checked),
                            lambda i: f"I - P(theta0) G_zv singular at omega={checked.omegas[i]}")
    if bad:
        raise bad[min(bad)]
    return P0


def listed_sweep(model: DescriptorModel, t0: np.ndarray, w: list[float],
                 sweep: GridSweep | None = None) -> GridSweep:
    """The GridSweep of the checked frequencies ``w`` at the checked ``t0``:
    ``sweep`` if it was built at ``w``, in order, and at ``t0`` (InvalidInput
    otherwise), or else one built from one :func:`response.g_sweep`."""
    if sweep is None:
        return GridSweep(model, t0, response.g_sweep(model, w).raise_guarded())
    if list(sweep.g.omegas) != w or not np.array_equal(sweep.theta0, t0):
        raise InvalidInput(
            f"sweep must be built at freqs {w}, in order, and at theta0={t0.tolist()}")
    return sweep


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


def upsilon_rows(W: np.ndarray, psi_dec: numkit.SvdFactors, m_z: int) -> np.ndarray:
    """The row blocks (I_mz kron W_i) U_Psi1, in the coordinates of the columns
    of U_Psi1, of a stack ``W`` of Xi or u2 stack blocks, one per candidate
    frequency; an empty stack gives none."""
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


def sensitivity_stack(model: DescriptorModel, sweep: GridSweep, points: list[int]) -> np.ndarray:
    """Exact first-order response-sensitivity map as a real stacked matrix.

    Column k holds, for each point of ``points`` of ``sweep`` in turn, the
    real and imaginary parts of vec of G_yv (I - P0 G_zv)^-1 P_k
    (I - G_zv P0)^-1 G_zu, which is the derivative of the response with
    respect to theta_k at the sweep's theta0, P0 = P(theta0).  One stacked
    solve per side serves every point.
    """
    g, P0 = sweep.g.at(points), model.p_of(sweep.theta0)
    G_zv = np.ascontiguousarray(g.G_zv)
    L = np.linalg.solve((np.eye(model.dims.m_v) - P0 @ G_zv).swapaxes(1, 2),
                        g.G_yv.swapaxes(1, 2)).swapaxes(1, 2)
    R = np.linalg.solve(np.eye(model.dims.m_z) - G_zv @ P0, g.G_zu)
    dH = L[:, None] @ np.array(model.P)[None] @ R[:, None]
    # Rows by point, then real and imaginary part, then vec's column-major order.
    return np.stack([dH.real, dH.imag], axis=1).transpose(0, 1, 4, 3, 2).reshape(-1, model.dims.q)


def _sensitivity_margin_ok(model, sweep: GridSweep, points: list[int]) -> bool:
    J = sensitivity_stack(model, sweep, points)
    if J.shape[0] < J.shape[1]:
        return False
    sig = np.linalg.svd(J, compute_uv=False)
    return float(sig[-1]) >= SENSITIVITY_RTOL * max(1.0, float(sig[0]))


def _direct_stack(psi_dec: numkit.SvdFactors, U_Pi2: list[np.ndarray], m_z: int) -> np.ndarray:
    """Constraint stack whose null space is exactly the set of undetectable
    vec(sum_k d_k P_k): membership in range(Psi) plus, per frequency (its
    U_Pi2), columns inside range(Pi)."""
    I_mz = np.eye(m_z)
    return np.vstack([psi_dec.U2.T, *(numkit._kron(I_mz, _u2_stack(U)) for U in U_Pi2)])


def _residual_direction(null: np.ndarray, psi_dec: numkit.SvdFactors, U_Pi2, dims):
    """The first of the null directions ``null`` of the direct constraint stack
    of ``U_Pi2`` (one per frequency), mapped to parameter space by the model's ``dims``.

    Returns (delta_unit, nullity, worst_certificate_residual).  The residual
    is the largest violation of the range conditions by the extracted
    direction; a sound negative verdict requires it below CERT_TOL.
    """
    if null.shape[1] == 0:
        return None, 0, 0.0
    v = null[:, 0].real
    v = v / np.linalg.norm(v)
    worst = float(np.linalg.norm(psi_dec.U2.T @ v))
    dP = numkit.unvec(v, dims.m_v, dims.m_z)
    for U in U_Pi2:
        worst = max(worst, float(np.linalg.norm(U.conj().T @ dP)))
    delta = psi_dec.V1 @ ((psi_dec.U1.T @ v) / psi_dec.sigma)
    return numkit.sign_flip(delta / np.linalg.norm(delta)), null.shape[1], worst


def _psi_deficient_verdict(psi_dec: numkit.SvdFactors, freqs) -> IdentifiabilityVerdict:
    """The ``not-identifiable`` verdict of a rank-deficient Psi, listing ``freqs``:
    the parameter patterns are dependent, so no frequency set can help."""
    null = psi_dec.V2
    return IdentifiabilityVerdict(
        status=NOT_IDENTIFIABLE,
        frequencies=tuple(freqs),
        residual_nullspace_dim=null.shape[1],
        rank_trace=(),
        psi_fcr=False,
        reason=f"Psi rank {psi_dec.rank} < q={null.shape[0]}: parameter patterns are "
               "linearly dependent",
        residual_direction=numkit.sign_flip(null[:, 0] / np.linalg.norm(null[:, 0])),
    )


def upsilon_test(model: DescriptorModel, theta0, freqs, sweep: GridSweep | None = None,
                 fnrr_seed: int = 20260808) -> IdentifiabilityVerdict:
    """Decide identifiability at ``theta0`` from the given distinct frequencies.

    The first listed frequency plays the anchor role (its Xi rows enter the
    stack); the rest contribute their U_Pi2 rows.  The stacked full-column-rank
    test is carried out recursively: a shrinking right-null basis Z is chained
    through the per-frequency blocks and the verdict is identifiable exactly
    when Z shrinks to zero columns.  The Pi factors come from ``sweep``, the
    GridSweep of ``freqs`` at ``theta0``, checked and by default built by
    :func:`listed_sweep`, so a pole anywhere in the list is reported before a
    singular loop.
    """
    t0 = model.check_theta(theta0)
    w = response.check_freqs(model, freqs)

    psi_dec = psi(model)
    if psi_dec.V2.shape[1]:
        return _psi_deficient_verdict(psi_dec, w)

    check_fnrr(model, seed=fnrr_seed)

    sweep = listed_sweep(model, t0, w, sweep)
    return _decide(model, sweep, list(range(len(w))), psi_dec)


def _decide(model: DescriptorModel, sweep: GridSweep, points: list[int],
            psi_dec: numkit.SvdFactors) -> IdentifiabilityVerdict:
    """The verdict of :func:`upsilon_test` from checked inputs: ``sweep`` a
    GridSweep at the checked theta0, ``points`` indices of distinct
    frequencies there, the anchor first, a full-column-rank ``psi_dec``, and
    the FNRR hypothesis already verified."""
    w = [sweep.g.omegas[i] for i in points]
    m_z = model.dims.m_z

    def verdict(status: str, trace, reason: str, dim: int = 0, **extras):
        return IdentifiabilityVerdict(status=status, frequencies=tuple(w),
                                      residual_nullspace_dim=dim, rank_trace=tuple(trace),
                                      psi_fcr=True, reason=reason, **extras)

    # Single-frequency certificate at the smallest qualifying omega.  The
    # sensitivity gate reads every listed frequency, so it runs at most once:
    # a shortcut it vetoes also vetoes the chain's positive verdict below.
    flagged, side = sweep.flags(points)
    shortcut = min((w_i for w_i, f in zip(w, flagged) if f), default=None)
    if shortcut is not None and _sensitivity_margin_ok(model, sweep, points):
        return verdict(IDENTIFIABLE, (0,), f"Pi_bar_j is full column rank at omega={shortcut}",
                       shortcut_omega=shortcut)

    # One SVD of the direct stack serves its rank check and its null basis.
    U = sweep.u_pi2(points)
    direct = numkit.svd_full(_direct_stack(psi_dec, U, m_z), DECISION_RTOL, 1.0)

    trace: list[int] = []
    if side[0]:
        Z = np.eye(model.dims.q)
        for n, U_n in enumerate(U):
            W = sweep.xi(points[0]) if n == 0 else _u2_stack(U_n)
            block = upsilon_rows(W[None], psi_dec, m_z)[0]
            Z = Z @ chain_null_basis(block @ Z)
            trace.append(Z.shape[1])
            if Z.shape[1] == 0:
                break

    # A chain that reaches Z = 0 is confirmed on the explicitly stacked
    # matrix, then must pass the sensitivity gate before claiming identifiability.
    if not side[0]:
        context = f"anchor side condition failed at omega={w[0]}"
    elif trace[-1]:
        context = "stacked test stalled"
    elif direct.V2.shape[1]:
        context = "recursive chain and direct stack disagree"
    elif shortcut is not None or not _sensitivity_margin_ok(model, sweep, points):
        context = "response-sensitivity margin too thin"
    else:
        return verdict(IDENTIFIABLE, trace,
                       f"stacked test reached full column rank after {len(trace)} frequencies")

    delta, dim, worst = _residual_direction(direct.V2, psi_dec, U, model.dims)
    if delta is not None and worst <= CERT_TOL:
        return verdict(NOT_IDENTIFIABLE, trace,
                       f"{context}: {dim} parameter direction(s) leave every listed frequency "
                       f"response unchanged (certificate residual {worst:.1e})",
                       dim, residual_direction=delta)
    return verdict(INCONCLUSIVE, trace,
                   f"{context}: rank decision is thinner than the {DECISION_RTOL:.0e} margin and "
                   "no exact-match direction certifies the negative (best certificate residual "
                   f"{worst:.1e})",
                   dim)


def sufficient_count(model: DescriptorModel) -> int:
    """Frequency budget 2*M + 1 that always suffices for an identifiable model.

    M bounds the coprime-factor degree of the response; the state dimension
    is a safe bound for a regular pencil.
    """
    return 2 * model.dims.m_x + 1
