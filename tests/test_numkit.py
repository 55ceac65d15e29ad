import math
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lftident import numkit
from lftident.errors import InvalidInput, WellPosednessViolation

from conftest import CHUNK

EPS = np.finfo(float).eps


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestSvdFull:
    def test_scalar(self):
        f = numkit.svd_full(np.array([[2.0]]))
        assert np.allclose(f.sigma, [2.0])
        assert np.allclose(np.abs(f.U1), [[1.0]])
        assert np.allclose(np.abs(f.V1), [[1.0]])

    def test_zero_matrix(self):
        f = numkit.svd_full(np.zeros((2, 3)))
        assert f.rank == 0
        assert f.U2.shape == (2, 2)
        assert f.V2.shape == (3, 3)
        assert np.allclose(f.U2.conj().T @ f.U2, np.eye(2))
        assert np.allclose(f.V2.conj().T @ f.V2, np.eye(3))

    def test_row_vector(self):
        f = numkit.svd_full(np.array([[1.0, 1.0]]))
        assert np.allclose(f.sigma, [np.sqrt(2.0)])

    def test_empty_columns(self):
        f = numkit.svd_full(np.zeros((3, 0)))
        assert f.rank == 0
        assert f.U2.shape == (3, 3)
        assert f.V2.shape == (0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            numkit.svd_full(np.array([[np.nan]]))

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = random_complex(rng, m, n)
        f = numkit.svd_full(A)
        r = f.rank
        assert np.allclose(f.U1.conj().T @ f.U1, np.eye(r), atol=1e-12)
        assert np.allclose(f.U2.conj().T @ f.U2, np.eye(m - r), atol=1e-12)
        assert np.allclose(f.U1.conj().T @ f.U2, np.zeros((r, m - r)), atol=1e-12)
        recon = f.U1 @ np.diag(f.sigma) @ f.V1.conj().T
        assert np.linalg.norm(recon - A) <= 1e-12 * max(1.0, np.linalg.norm(A))
        assert np.all(f.sigma > f.decision.tol)


class TestRankAndNull:
    def test_rank_gap(self):
        d = numkit.rank_of(np.diag([3.0, 1.0, 0.0]))
        assert d.rank == 2
        above, below = d.gap
        assert above == 1.0 and below == 0.0

    def test_right_null_symmetric(self):
        N = numkit.right_null_basis(np.array([[1.0, 1.0]]))
        assert N.shape == (2, 1)
        v = N[:, 0]
        assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(v[0] + v[1]) < 1e-12

    def test_right_null_identity_empty(self):
        assert numkit.right_null_basis(np.eye(3)).shape == (3, 0)

    def test_right_null_zero_row(self):
        N = numkit.right_null_basis(np.zeros((1, 2)))
        assert N.shape == (2, 2)
        assert np.allclose(N.conj().T @ N, np.eye(2))

    def test_right_null_zero_columns(self):
        assert numkit.right_null_basis(np.zeros((4, 0))).shape == (0, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_null_annihilates(self, seed):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, 3, 6)
        N = numkit.right_null_basis(A)
        assert N.shape[1] == 3
        assert np.linalg.norm(A @ N) < 1e-10 * np.linalg.norm(A)
        L = numkit.svd_full(A.T).U2.conj().T
        assert np.linalg.norm(L @ A.T) < 1e-10 * np.linalg.norm(A)

    @pytest.mark.parametrize("seed", range(5))
    def test_null_chaining(self, seed):
        # A right-null basis of a stack equals Z W with Z, W the chained bases.
        rng = np.random.default_rng(seed)
        A1 = random_complex(rng, 2, 6)
        A2 = random_complex(rng, 2, 6)
        Z = numkit.right_null_basis(A1)
        W = numkit.right_null_basis(A2 @ Z)
        ZW = Z @ W
        direct = numkit.right_null_basis(np.vstack([A1, A2]))
        assert ZW.shape == direct.shape
        # Same subspace: projection onto the direct basis has no residual.
        proj = direct @ (direct.conj().T @ ZW)
        assert np.linalg.norm(ZW - proj) < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_recursion(self, seed):
        # Stack is FCR exactly when A2 restricted to null(A1) is FCR.  Both
        # decisions must be taken at the stacked problem's scale: A2 @ Z can
        # be all numerical dust, and ranking its dust would break the
        # equivalence.
        rng = np.random.default_rng(seed)
        n = 5
        r1 = int(rng.integers(1, n))
        A1 = random_complex(rng, r1, n)  # rank deficient as an r1 x n block
        rows2 = int(rng.integers(1, n + 2))
        A2 = random_complex(rng, rows2, n)
        if seed % 2:
            # Force deficiency of the stack by wiping A2 on part of null(A1).
            Z = numkit.right_null_basis(A1)
            A2 = A2 - (A2 @ Z[:, :1]) @ Z[:, :1].conj().T
        Z = numkit.right_null_basis(A1)
        stack = np.vstack([A1, A2])
        scale = float(np.linalg.norm(stack, 2))
        lhs = fcr(stack)
        rhs = numkit.rank_of(A2 @ Z, scale_floor=scale).rank == Z.shape[1]
        assert lhs == rhs


def fcr(A) -> bool:
    """Full column rank at numkit's default policy; zero columns count."""
    return numkit.rank_of(A).rank == numkit.as_matrix(A).shape[1]


def realified(A):
    """Real 2x2-block embedding [[Ar, -Aj], [Aj, Ar]] of a complex matrix."""
    return np.block([[A.real, -A.imag], [A.imag, A.real]])


class TestRealifyProjector:
    @pytest.mark.parametrize("seed", range(5))
    def test_realify_fcr_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, 4, 2)
        assert fcr(A) == fcr(realified(A))
        A_def = np.hstack([A[:, :1], A[:, :1] * (0.3 - 0.4j)])
        assert fcr(A_def) == fcr(realified(A_def)) == False

    @pytest.mark.parametrize("seed", range(6))
    def test_projector_identity(self, seed):
        # I - [Pr -Pj] G^-1 [Pr -Pj]^T equals the outer product of the
        # realified range-complement factor of the SVD.
        rng = np.random.default_rng(seed)
        m, c = 5, 2
        Pi = random_complex(rng, m, c)
        Pr, Pj = Pi.real, Pi.imag
        bar_r = np.hstack([Pr, -Pj])
        big = np.block([[Pr, -Pj], [Pj, Pr]])
        G = big.T @ big
        lhs = np.eye(m) - bar_r @ np.linalg.solve(G, bar_r.T)
        U2 = numkit.svd_full(Pi).U2
        stack = np.hstack([U2.real, U2.imag])
        rhs = stack @ stack.T
        assert np.linalg.norm(lhs - rhs) < 1e-9


def guarded(M, message_of):
    """``numkit.loop_guard(M, message_of)``, and the singular values of each
    matrix it took an SVD of, one row each, with those matrices."""
    seen, sigs = [], []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.extend(a)
        sigs.extend(out := svd(a, *args, **kwargs))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", spy)
        bad = numkit.loop_guard(M, message_of)
    return np.array(sigs), np.array(seen), bad


class TestLoopGuard:
    @staticmethod
    def guard(M, message="loop"):
        sig, _, bad = guarded(np.asarray(M)[None], lambda _: message)
        return sig, bad

    def test_threshold_passes(self):
        (sig,), bad = self.guard(np.diag([1.0, 1e-12]))
        assert np.array_equal(sig, [1.0, 1e-12]) and not bad

    def test_just_below_threshold_raises(self):
        below = np.nextafter(1e-12, 0.0)
        _, bad = self.guard(np.diag([1.0, below]), "loop singular")
        assert list(bad) == [0]
        with pytest.raises(WellPosednessViolation, match="^loop singular"):
            raise bad[0]

    def test_zero_scalar_raises(self):
        _, bad = self.guard(np.zeros((1, 1)))
        assert isinstance(bad[0], WellPosednessViolation)

    def test_threshold_scales_with_sigma_max(self):
        cut = numkit.LOOP_GUARD_RTOL * 1e3
        assert not self.guard(np.diag([1e3, cut]))[1]
        assert list(self.guard(np.diag([1e3, np.nextafter(cut, 0.0)]))[1]) == [0]

    def test_loop_guard_names_each_failure(self):
        # The identities pass by the certificate (||I - L||_F = 0): only the
        # other two take an SVD.
        M = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2))])
        _, seen, bad = guarded(M, lambda i: f"loop {i}")
        assert list(bad) == [1, 3]
        assert all(isinstance(e, WellPosednessViolation) for e in bad.values())
        assert str(bad[1]).startswith("loop 1 (sigma_min=0")
        assert str(bad[3]).startswith("loop 3 (sigma_min=0")
        assert np.array_equal(seen, M[[1, 3]])

    def test_certificate_edge(self):
        # f = ||I - L||_F of diag(1 - f, ...): L certifies exactly when
        # 1 - f >= 2 LOOP_GUARD_RTOL (1 + f), and otherwise takes an SVD.
        for f, certified in ((0.5, True), (1.0 - 4.1e-12, True), (1.0 - 3.9e-12, False)):
            sig, _, bad = guarded(np.diag([1.0 - f, 1.0])[None], lambda _: "loop")
            assert (len(sig) == 0) == certified and not bad

    def test_non_finite_loops_are_not_certified(self):
        # f = ||I - L||_F is NaN: the loop goes to the SVD, which refuses it.
        with pytest.raises(np.linalg.LinAlgError):
            numkit.loop_guard(np.stack([np.eye(2), np.full((2, 2), np.nan)]), str)

    @given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 6), k=st.integers(1, 8),
           scale=st.floats(1e-6, 1.5), complex_=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_certified_loops_clear_the_cut(self, seed, n, k, scale, complex_):
        # Every matrix the certificate passes without an SVD has an exact
        # sigma_min that clears the guard's cut, and the guard's complaints
        # are those of an SVD of every matrix.
        rng = np.random.default_rng(seed)
        D = random_complex(rng, k * n, n) if complex_ else rng.standard_normal((k * n, n))
        D = D.reshape(k, n, n)
        D *= scale / np.linalg.norm(D, axis=(1, 2))[:, None, None] * rng.uniform(0, 1, (k, 1, 1))
        M = np.eye(n) - D
        _, seen, bad = guarded(M, lambda i: f"loop {i}")
        sig = np.linalg.svd(M, compute_uv=False)
        cut = numkit.LOOP_GUARD_RTOL * np.maximum(sig[:, 0], 1.0)
        certified = [i for i in range(k) if not any(np.array_equal(M[i], S) for S in seen)]
        assert all(sig[i, -1] >= cut[i] for i in certified)
        assert sorted(bad) == np.flatnonzero(sig[:, -1] < cut).tolist()


def shape_groups(mats):
    """``(indices, stack)`` of the matrices ``mats`` grouped by shape and dtype,
    in chunks of at most CHUNK: ``stack[j] = mats[indices[j]]``."""
    groups: dict = {}
    for i, M in enumerate(mats):
        groups.setdefault((M.shape, M.dtype), []).append(i)
    for members in groups.values():
        for start in range(0, len(members), CHUNK):
            idx = members[start:start + CHUNK]
            yield np.array(idx), np.array([mats[i] for i in idx])


class TestStacked:
    """Stacked helpers give each matrix exactly its single-matrix result."""

    @staticmethod
    def mixed(seed):
        # Two shapes, both dtypes, rank-deficient and empty members, and more
        # than CHUNK matrices of one group.
        rng = np.random.default_rng(seed)
        mats = []
        for i in range(2 * CHUNK + 3):
            m, n = [(4, 3), (2, 5), (3, 0), (0, 2)][i % 4]
            A = random_complex(rng, m, n) if i % 3 else rng.standard_normal((m, n))
            if i % 5 == 0 and A.size:
                A[:, -1] = A[:, 0]
            mats.append(A)
        return mats

    @staticmethod
    def assert_engine_matches(mats, rtol, floor):
        """Every group of shape_groups(mats), through svd_stack and
        stacked_ranks, equals svd_full and rank_of of each member bitwise;
        so does _split of a default-policy svd_stack at the policy."""
        seen = []
        for idx, S in shape_groups(mats):
            assert S.shape[0] <= CHUNK
            U, sigma, V, rank = numkit.svd_stack(S, rtol, floor)
            sig, (r_only,) = numkit.stacked_ranks(S, (rtol,), floor)
            U0, sigma0, V0, _ = numkit.svd_stack(S)
            for j, i in enumerate(idx):
                f = numkit.svd_full(mats[i], rtol=rtol, scale_floor=floor)
                d = numkit.rank_of(mats[i], rtol=rtol, scale_floor=floor)
                split = numkit._split(U0[j], sigma0[j], V0[j], mats[i].shape, rtol, floor)
                r = int(rank[j])
                assert (r, int(r_only[j]), split.rank) == (f.rank, d.rank, f.rank)
                assert split.decision.tol == f.decision.tol
                for got, want in [(U[j, :, :r], f.U1), (U[j, :, r:], f.U2),
                                  (sigma[j, :r], f.sigma), (V[j, :, :r], f.V1),
                                  (V[j, :, r:], f.V2), (sig[j], d.singular_values),
                                  *((getattr(split, n), getattr(f, n))
                                    for n in ("U1", "U2", "sigma", "V1", "V2"))]:
                    assert got.dtype == want.dtype and np.array_equal(got, want)
            seen += idx.tolist()
        assert sorted(seen) == list(range(len(mats)))

    def test_svd_stack_equals_svd_full(self):
        self.assert_engine_matches(self.mixed(1), numkit.DEFAULT_RANK_RTOL, 0.0)

    def test_stacked_ranks_equal_rank_of(self):
        mats = self.mixed(2)
        rtols = (1e-3, 1e-10)
        expected = [[numkit.rank_of(M, rtol=r, scale_floor=1.0).rank for M in mats]
                    for r in rtols]
        got = [[None] * len(mats) for _ in rtols]
        for idx, S in shape_groups(mats):
            for row, ranks in zip(got, numkit.stacked_ranks(S, rtols, 1.0)[1]):
                for i, r in zip(idx, ranks):
                    row[i] = int(r)
        assert got == expected

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([(numkit.DEFAULT_RANK_RTOL, 0.0), (1e-6, 1.0), (1e-3, 1.0)]))
    @settings(max_examples=40, deadline=None)
    def test_engine_equals_one_matrix_calls(self, seed, policy):
        # Mixed shapes, dtypes and scales in one call, empty 0 x n and m x 0
        # members, rank-deficient and near-tolerance members, and groups
        # larger than one chunk; the (rtol, floor) pairs are the ones in use.
        rng = np.random.default_rng(seed)
        shapes = [(int(rng.integers(0, 5)), int(rng.integers(0, 5))) for _ in range(3)]
        shapes += [(0, int(rng.integers(1, 4))), (int(rng.integers(1, 4)), 0)]
        mats = []
        for _ in range(int(rng.integers(1, 2 * CHUNK + 5))):
            m, n = shapes[int(rng.integers(len(shapes)))]
            A = random_complex(rng, m, n) if rng.random() < 0.5 else rng.standard_normal((m, n))
            A *= 10.0 ** rng.uniform(-12, 3)
            if A.size and rng.random() < 0.3:
                A[:, -1] = A[:, 0] * (1 + policy[0] * rng.standard_normal())
            mats.append(A)
        self.assert_engine_matches(mats, *policy)

    def test_non_finite_member_rejected(self):
        mats = self.mixed(3)
        mats[9] = mats[9].copy()
        mats[9][0, 0] = np.inf
        stacks = list(shape_groups(mats))
        S = next(S for idx, S in stacks if 9 in idx)
        with pytest.raises(InvalidInput):
            numkit.stacked_ranks(S, (1e-10,))
        with pytest.raises(InvalidInput):
            numkit.svd_stack(S)


class TestFullColumnRank:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([(numkit.DEFAULT_RANK_RTOL, 0.0), (1e-6, 1.0), (1e-3, 1.0)]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_svd_stack_cut_equals_stacked_ranks(self, seed, k, m, n, policy):
        # The cut that _ranks applies to svd_stack's singular values, at
        # another policy than svd_stack ranked at, decides full column rank
        # as stacked_ranks does.  Real and complex stacks over many scales,
        # zero-sized dimensions and rank-deficient members; the (rtol, floor)
        # pairs are the ones in use.
        rng = np.random.default_rng(seed)
        S = rng.standard_normal((k, m, n))
        if rng.random() < 0.5:
            S = S + 1j * rng.standard_normal((k, m, n))
        if n > 1 and rng.random() < 0.5:
            S[:, :, -1] = S[:, :, 0]
        S *= 10.0 ** rng.uniform(-12, 3)
        sigma = numkit.svd_stack(S)[1]
        got = numkit._ranks(sigma, (m, n), *policy) == n
        assert got.dtype == bool and got.shape == (k,)
        assert np.array_equal(got, numkit.stacked_ranks(S, policy[:1], policy[1])[1][0] == n)
        if n > m:
            assert not got.any()

    def test_zero_columns_and_wide_matrices(self):
        assert fcr(np.zeros((2, 0)))
        assert fcr(np.eye(3)[:, :2])
        assert not fcr(np.ones((3, 2)))
        assert not fcr(np.eye(2, 3))


class TestPinvSolvable:
    """np.linalg.pinv, which sloppiness.s_matrices applies to Gamma for S_A:
    the examples, including the empty matrices it handles itself, the
    Penrose identities and the solution parameterization S_A rests on."""

    @pytest.mark.parametrize(
        "A,expected",
        [
            ([[2.0]], [[0.5]]),
            ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
            ([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]),
            (np.zeros((3, 0)), np.zeros((0, 3))),
        ],
    )
    def test_pinv_examples(self, A, expected):
        got = np.linalg.pinv(np.array(A))
        assert got.shape == np.shape(expected) and np.allclose(got, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_identities(self, seed):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, 4, 3)
        Ap = np.linalg.pinv(A)
        tol = 1e-10 * max(1.0, np.linalg.cond(A))
        assert np.linalg.norm(A @ Ap @ A - A) < tol * np.linalg.norm(A)
        assert np.linalg.norm(Ap @ A @ Ap - Ap) < tol * np.linalg.norm(Ap)
        assert np.linalg.norm((A @ Ap).conj().T - A @ Ap) < tol
        assert np.linalg.norm((Ap @ A).conj().T - Ap @ A) < tol

    @pytest.mark.parametrize("seed", range(5))
    def test_solution_parameterization(self, seed):
        # A+ C B+ + Z - A+ A Z B B+ solves AXB = C whenever solvable.
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 2))
        B = rng.standard_normal((3, 5))
        X0 = rng.standard_normal((2, 3))
        C = A @ X0 @ B
        Ap, Bp = np.linalg.pinv(A), np.linalg.pinv(B)
        Z = rng.standard_normal((2, 3))
        X2 = Ap @ C @ Bp + Z - Ap @ A @ Z @ B @ Bp
        assert np.linalg.norm(A @ X2 @ B - C) < 1e-9 * np.linalg.norm(C)


class TestPencil:
    def test_diagonal(self):
        mu, _ = numkit.gen_eig_psd_pencil_pairs(np.eye(2), np.diag([4.0, 1.0]))
        assert np.allclose(mu, [1.0, 0.25])

    def test_identity(self):
        mu, _ = numkit.gen_eig_psd_pencil_pairs(np.eye(3), np.eye(3))
        assert np.allclose(mu, [1.0, 1.0, 1.0])

    def test_semidefinite_numerator(self):
        mu, _ = numkit.gen_eig_psd_pencil_pairs(np.diag([1.0, 0.0]), np.eye(2))
        assert np.allclose(mu, [1.0, 0.0])

    def test_infinite_sentinel(self):
        mu, _ = numkit.gen_eig_psd_pencil_pairs(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert mu[0] == math.inf
        assert np.allclose(mu[1:], [1.0])

    def test_joint_null_excluded(self):
        S = np.diag([2.0, 0.0])
        M = np.diag([1.0, 0.0])
        mu, _ = numkit.gen_eig_psd_pencil_pairs(S, M)
        assert np.allclose(mu, [2.0])

    def test_huge_spread_not_truncated(self):
        # A direction that is tiny next to the dominant one is still real.
        S = np.diag([1e12, 3.0, 2.0])
        mu, _ = numkit.gen_eig_psd_pencil_pairs(S, np.eye(3))
        assert np.allclose(mu, [1e12, 3.0, 2.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            numkit.gen_eig_psd_pencil_pairs(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_top_eigenvalue_is_rayleigh_maximum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        L = rng.standard_normal((n, n))
        M = L @ L.T + 0.5 * np.eye(n)
        R = rng.standard_normal((n, n))
        S = R @ R.T
        mu, _ = numkit.gen_eig_psd_pencil_pairs(S, M)
        probes = rng.standard_normal((n, 50))
        rayleigh = np.einsum("ij,ij->j", probes, S @ probes) / np.einsum(
            "ij,ij->j", probes, M @ probes
        )
        assert rayleigh.max() <= mu[0] * (1 + 1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_pencil_matches_det_roots(self, seed):
        rng = np.random.default_rng(seed)
        L = rng.standard_normal((4, 4))
        M = L @ L.T + 0.1 * np.eye(4)
        R = rng.standard_normal((4, 4))
        S = R @ R.T
        mu, _ = numkit.gen_eig_psd_pencil_pairs(S, M)
        for m in mu:
            residual = abs(np.linalg.det(m * M - S))
            scale = max(abs(np.linalg.det(M)), 1.0) * max(m, 1.0) ** 4
            assert residual < 1e-8 * scale

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_generalized_reference(self, seed):
        # In a random orthonormal basis: maybe a joint null direction, maybe an
        # infinite one (M-null, S-positive, coupled to the rest), and a finite
        # block whose pencil (S_eff, diag(lam_p)) spans 1e12.  scipy's
        # generalized eigh of that block is the reference.
        rng = np.random.default_rng(seed)
        n_fin = int(rng.integers(2, 5))
        n_joint, n_inf = (int(k) for k in rng.integers(0, 2, size=2))
        n = n_joint + n_inf + n_fin
        s = np.r_[1.0, 10.0 ** rng.uniform(-12, 0, n_fin - 2), 1e-12]
        R = np.linalg.qr(rng.standard_normal((n_fin, n_fin)))[0]
        S_eff = R @ np.diag(s) @ R.T
        lam_p = rng.uniform(0.5, 2.0, n_fin)
        c_ii = rng.uniform(0.5, 1.0, n_inf)
        C_fi = 0.3 * rng.standard_normal((n_fin, n_inf))
        C = np.zeros((n, n))
        C[n_joint:, n_joint:] = np.block([[np.diag(c_ii), C_fi.T],
                                          [C_fi, S_eff + (C_fi / c_ii) @ C_fi.T]])
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        S = U @ C @ U.T
        M = U @ np.diag(np.r_[np.zeros(n - n_fin), lam_p]) @ U.T

        mu, Y = numkit.gen_eig_psd_pencil_pairs(S, M)
        assert mu.size == n_inf + n_fin and np.isinf(mu[:n_inf]).all()
        ref = scipy.linalg.eigh(S_eff, np.diag(lam_p), eigvals_only=True)[::-1]
        assert np.max(np.abs(mu[n_inf:] - ref)) <= 4 * n * EPS * mu[n_inf]
        Yf = Y[:, n_inf:]
        cond = lam_p.max() / lam_p.min()
        assert np.max(np.abs(Yf.T @ M @ Yf - np.eye(n_fin))) <= 4 * n * EPS * cond


class TestSignFlip:
    def test_largest_entry_made_positive(self):
        V = np.array([[1.0, -3.0, 0.0],
                      [-2.0, 1.0, 0.0]])
        assert numkit.sign_flip(V).tolist() == [[-1.0, 3.0, 0.0], [2.0, -1.0, 0.0]]

    def test_first_entry_wins_a_tie(self):
        assert numkit.sign_flip(np.array([-2.0, 2.0, 1.0])).tolist() == [2.0, -2.0, -1.0]
        assert numkit.sign_flip(np.array([2.0, -2.0])).tolist() == [2.0, -2.0]

    def test_same_result_for_either_sign(self):
        V = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(numkit.sign_flip(V), numkit.sign_flip(-V))

    def test_empty(self):
        assert numkit.sign_flip(np.zeros((3, 0))).shape == (3, 0)


class TestKronVec:
    def test_vec_column_major(self):
        assert np.allclose(numkit.vec(np.array([[1.0, 3.0], [2.0, 4.0]])), [1, 2, 3, 4])

    def test_unvec_roundtrip(self):
        A = np.arange(6.0).reshape(2, 3)
        assert np.allclose(numkit.unvec(numkit.vec(A), 2, 3), A)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vec_kron_identity(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 2))
        X = rng.standard_normal((2, 4))
        B = rng.standard_normal((4, 3))
        lhs = numkit.vec(A @ X @ B)
        rhs = np.kron(B.T, A) @ numkit.vec(X)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.linalg.norm(lhs)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_kron_is_numpy_kron(self, seed):
        # Zero-sized dimensions, real and complex operands, and entries of
        # +-0 next to negative ones, so that products of zeros carry a sign.
        rng = np.random.default_rng(seed)

        def operand(lead=()):
            shape = (*lead, *(int(k) for k in rng.integers(0, 4, size=2)))
            A = rng.standard_normal(shape)
            if rng.random() < 0.5:
                A = A + 1j * rng.standard_normal(shape)
            zero = rng.random(shape) < 0.3
            A[zero] = rng.choice([0.0, -0.0]) * A[zero]
            return A

        A, B = operand(), operand()
        K = numkit._kron(A, B)
        ref = np.kron(A, B)
        assert K.shape == ref.shape and K.dtype == ref.dtype
        assert np.array_equal(K, ref)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(K)), np.signbit(part(ref)))
        # Broadcast stacks: each pair's product, bit for bit.
        As, Bs = operand((2, 1)), operand((3,))
        Ks = numkit._kron(As, Bs)
        assert Ks.shape[:2] == (2, 3)
        for i in range(2):
            for j in range(3):
                assert Ks[i, j].tobytes() == np.kron(As[i, 0], Bs[j]).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_chunk_map_splits_the_budget_between_two_threads(cpus, monkeypatch):
    # 10 items of a quarter budget each: 3 chunks of at most 4 on one thread,
    # or 5 chunks of 2 (half the budget each) alternating between the
    # calling thread and one helper, which each build one worker.
    monkeypatch.setattr(numkit, "_cpus", lambda: cpus)
    workers = []

    def worker(size):
        mine = threading.current_thread() is threading.main_thread()
        workers.append((mine, size))
        return lambda part: (mine, part.start, part.stop)

    results = numkit._chunk_map(10, numkit._STACK_BYTES // 4, worker)
    if cpus == 1:
        assert workers == [(True, 4)]
        assert results == [(True, 0, 4), (True, 4, 8), (True, 8, 10)]
    else:
        assert sorted(workers) == [(False, 2), (True, 2)]
        assert results == [(i % 2 == 0, 2 * i, 2 * i + 2) for i in range(5)]
    assert numkit._chunk_map(0, 8, worker) == []
