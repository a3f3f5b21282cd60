import math

import numpy as np
import pytest
import scipy.linalg

from leakywire.curve import PlanarCurvatureProfile
from leakywire.errors import GeometryError
from leakywire.operators import (
    GridSpec,
    OperatorCache,
    assemble_T,
    bending_kernel_matrix,
    kappa0,
    s_kappa,
)
import leakywire.spectral as spectral_mod
from leakywire.spectral import (
    _fix_sign,
    _iterative_top,
    lambda_curve,
    top_eigen,
)

from conftest import unfold


class TestTopEigenpairs:
    def test_diagonal_matrix(self):
        vals, _, _, vecs, *_ = top_eigen(np.diag([3.0, 1.0, 0.0, -2.0])[None], 2, vectors=True)
        assert vals[0] == pytest.approx(3.0, abs=1e-14)
        assert vals[1] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(vecs[0][:, 0]), [1, 0, 0, 0], atol=1e-14)
        assert np.allclose(np.abs(vecs[0][:, 1]), [0, 1, 0, 0], atol=1e-14)

    def test_straight_top_mode_is_constant_vector(self, straight):
        g = GridSpec(16.0, 128)
        vals, _, _, vecs, *_ = top_eigen(assemble_T(g, 1.7)[None], 1, vectors=True)
        assert vals[0] == pytest.approx(s_kappa(1.7), abs=1e-13)
        assert np.allclose(vecs[0][:, 0], np.ones(g.N) / math.sqrt(g.N), atol=1e-10)

    def test_orthonormal_vectors(self, bump):
        g = GridSpec(16.0, 256)
        q = unfold(OperatorCache(bump, g).q_matrix(1.2))
        vecs = top_eigen(q[None], 6, vectors=True).vectors[0]
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_descending_order(self, bump):
        g = GridSpec(16.0, 256)
        vals = top_eigen(OperatorCache(bump, g).q_matrix(1.2), 5).values
        assert all(vals[i] >= vals[i + 1] for i in range(4))

    def test_parity_blocks_match_the_full_matrix(self):
        # the merged top of the even and odd blocks is the top of Q, and the
        # unfolded block vectors are eigenvectors of Q with the block's symmetry
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        g = GridSpec(24.0, 512)
        q = OperatorCache(curve, g).q_matrix(1.3)
        vals, parity, path = top_eigen(q, 6)[:3]
        assert np.max(np.abs(vals - scipy.linalg.eigvalsh(unfold(q))[::-1][:6])) <= 1e-14
        assert set(parity) == {"even", "odd"}
        _check_block_eigenpairs(curve, g, 1.3, 6, path)

    @pytest.mark.parametrize("path", ["dense", "lanczos"])
    def test_a_stack_is_solved_per_block_with_vectors(self, bump, monkeypatch, path):
        # a stack's vectors are, per block, the top k = min(m, n)
        # eigenvectors with that block's values, orthonormal and
        # residual-checked, on either path: Lanczos runs once per block
        if path == "lanczos":
            _lanczos_everywhere(monkeypatch)
        q = OperatorCache(bump, GridSpec(16.0, 256)).q_matrix(1.2)
        assert q.ndim == 3
        bare = top_eigen(q, 4)
        rec = top_eigen(q, 4, vectors=True)
        assert rec.path == path
        assert rec.parity == bare.parity
        assert np.allclose(rec.values, bare.values, rtol=0, atol=1e-14)
        for block, label in enumerate(spectral_mod.PARITIES):
            mine = rec.values[[p == label for p in rec.parity]]
            vecs = rec.vectors[block]
            assert vecs.shape == (128, 4)
            lams = scipy.linalg.eigvalsh(q[block])[::-1][:4]
            assert np.allclose(lams[:mine.size], mine, rtol=0, atol=1e-13)
            assert np.max(np.abs(vecs.T @ vecs - np.eye(4))) < 1e-12
            for lam, v in zip(lams, vecs.T):
                assert np.linalg.norm(q[block] @ v - lam * v) < 1e-12

    def test_bad_m_rejected(self):
        with pytest.raises(GeometryError):
            top_eigen(np.diag([1.0, 0.0])[None], 0, vectors=True)

    def test_sign_convention(self):
        vecs = top_eigen(np.diag([2.0, 1.0, 0.5, 0.25])[None], 1, vectors=True).vectors
        # first significant component positive
        v = vecs[0][:, 0]
        assert v[int(np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v))))] > 0


def _check_block_eigenpairs(curve, grid, kappa, m, path):
    """A root's eigenpairs: each parity block of Q at kappa is solved with
    vectors alone, with the values of the stack's record, and each block
    vector unfolds to a unit eigenvector of Q that is exactly even or odd."""
    with spectral_mod._BranchEvaluator(curve, grid, m) as ev:
        q = ev.cache.q_matrix(kappa)
        full = unfold(q)
        both = top_eigen(q, m)
        for block, label in enumerate(spectral_mod.PARITIES):
            rec, h = ev.eigenpair(kappa, block)
            assert rec.path == path
            assert rec.parity == [label] * m
            assert h.shape == (grid.N, m)
            mine = both.values[[p == label for p in both.parity]]
            assert np.allclose(rec.values[:mine.size], mine, rtol=0, atol=1e-12)
            for lam, v in zip(rec.values, h.T):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
                assert np.array_equal(v[::-1], v if label == "even" else -v)
                assert np.linalg.norm(full @ v - lam * v) < 1e-13


def _lanczos_everywhere(monkeypatch):
    monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", 8)
    monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 8)


class TestEigenRecord:
    @pytest.mark.parametrize("path", ["dense", "lanczos"])
    @pytest.mark.parametrize("split", [True, False], ids=["two_blocks", "one_block"])
    def test_record_fields(self, monkeypatch, path, split):
        # values, the parity of each, the path that ran, and vectors only
        # when asked for, on either path for either kind of Q.  A stack's
        # vectors are checked per block in
        # test_a_stack_is_solved_per_block_with_vectors
        if path == "lanczos":
            _lanczos_everywhere(monkeypatch)
        centre = 0.0 if split else 0.5
        curve = PlanarCurvatureProfile(lambda s: 3.0 * np.exp(-((s - centre) / 2.0) ** 2), 40.0)
        q = OperatorCache(curve, GridSpec(24.0, 256)).q_matrix(1.3)
        assert q.shape[0] == (2 if split else 1)
        bare = top_eigen(q, 4)
        assert bare.vectors is None
        assert bare.path == path
        assert np.all(np.diff(bare.values) <= 0)
        if split:
            assert set(bare.parity) == {"even", "odd"}
            return
        rec = top_eigen(q, 4, vectors=True)
        assert np.shape(rec.vectors) == (1, 256, 4)
        assert (rec.path, rec.parity) == (path, [None] * 4)
        assert bare.parity == rec.parity
        assert np.array_equal(bare.values, rec.values)
        for lam, v in zip(rec.values, rec.vectors[0].T):
            assert np.linalg.norm(q[0] @ v - lam * v) < 1e-12

    @pytest.mark.parametrize("m", [1, 6, 8])
    def test_one_block_solve_gives_the_stacks_values(self, m):
        # at the batched call's subset size min(m, N/2) a dense solve of one
        # block gives the bits of that block's values in the stack's record
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        cache = OperatorCache(curve, GridSpec(24.0, 512))
        for kap in (1.13, 1.3, 2.0):
            both = top_eigen(cache.q_matrix(kap), m)
            for block, label in enumerate(spectral_mod.PARITIES):
                mine = both.values[[p == label for p in both.parity]]
                alone = top_eigen(cache.q_matrix(kap)[block][None], m)
                assert alone.path == both.path == "dense"
                assert np.array_equal(alone.values[:mine.size], mine)

    def test_one_block_is_block_0(self, off_centre_wire):
        # a wire that does not split is the (1, N, N) stack of one block:
        # block 0 is the whole stack, and a root's vectors are Q's own (N, m)
        # columns
        g = GridSpec(10.0, 256)
        with spectral_mod._BranchEvaluator(off_centre_wire, g, 4) as ev:
            rec, h = ev.eigenpair(1.2, 0)
            assert h.shape == (g.N, 4) and rec.parity == [None] * 4
            full = unfold(ev.cache.q_matrix(1.2))
            for lam, v in zip(rec.values, h.T):
                assert np.linalg.norm(full @ v - lam * v) < 1e-12

    def test_two_block_lanczos_vectors_have_exact_parity(self, monkeypatch):
        # a stack's values take the parity of the block whose Lanczos run
        # solved them; a root's Lanczos run on one block gives vectors that
        # unfold exactly even or odd, as on the dense path
        _lanczos_everywhere(monkeypatch)
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        g = GridSpec(24.0, 512)
        rec = top_eigen(OperatorCache(curve, g).q_matrix(1.3), 6)
        assert rec.path == "lanczos" and set(rec.parity) == {"even", "odd"}
        _check_block_eigenpairs(curve, g, 1.3, 6, "lanczos")

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_block_lanczos_is_the_plain_matrix_run(self, monkeypatch, m):
        # a one-block stack runs Lanczos on its 2-D block, with or without
        # vectors: the bits of Lanczos on the plain matrix
        _lanczos_everywhere(monkeypatch)
        curve = PlanarCurvatureProfile(lambda s: np.exp(-(s - 0.5) ** 2), 36.0)
        q = OperatorCache(curve, GridSpec(16.0, 512)).q_matrix(1.2)
        assert q.shape[0] == 1
        vals, vecs = _iterative_top(q[0], m, True)
        rec = top_eigen(q, m, vectors=True)
        assert np.array_equal(rec.values, vals)
        assert np.array_equal(top_eigen(q, m).values, vals)
        assert np.array_equal(rec.vectors[0], np.column_stack([_fix_sign(v) for v in vecs.T]))


def _seed_and_step(curve, grid, kappa, m):
    """The matrices at kappa and 1.02 kappa, and the seeded record at kappa."""
    cache = OperatorCache(curve, grid)
    q, q_next = cache.q_matrix(kappa), cache.q_matrix(1.02 * kappa)
    return q, q_next, top_eigen(q, m, vectors=True, seed=(None,) * len(q))


class TestRitzStep:
    @pytest.mark.parametrize("case", ["bump_stack", "off_centre_wire"])
    @pytest.mark.parametrize("kappa", [0.8, 1.2])
    def test_certified_step_matches_dense_within_its_bound(self, bump, off_centre_wire,
                                                           case, kappa):
        # the seed holds min(m, n) + RITZ_EXTRA vectors per block; a step to
        # 1.02 kappa is certified and its values are the dense ones within the
        # bound it reports (plus rounding, which the dense solve has too)
        if case == "bump_stack":
            curve, grid, m, shape = bump, GridSpec(16.0, 256), 8, (2, 128, 12)
        else:
            curve, grid, m, shape = off_centre_wire, GridSpec(10.0, 256), 8, (1, 256, 12)
        q, q_next, start = _seed_and_step(curve, grid, kappa, m)
        assert np.shape(start.vectors) == shape
        assert start.bounds == (None,) * shape[0]
        step = top_eigen(q_next, m, seed=start.vectors)
        dense = top_eigen(q_next, m)
        assert step.path == "ritz"
        assert np.shape(step.vectors) == shape
        assert all(b <= spectral_mod.RITZ_BOUND for b in step.bounds)
        assert step.parity == dense.parity
        assert np.all(np.abs(step.values - dense.values) <= max(step.bounds) + 1e-15)

    def test_random_seed_falls_back_to_the_dense_solve(self, bump):
        # a failed step is solved in full: with its seed vectors when vectors
        # are asked for, else for values only, as with no seed
        q, _, start = _seed_and_step(bump, GridSpec(16.0, 256), 1.2, 8)
        noise = np.random.default_rng(7).standard_normal(np.shape(start.vectors))
        rec = top_eigen(q, 8, vectors=True, seed=noise)
        assert rec.path == "dense" and rec.bounds == (None, None)
        assert np.array_equal(rec.values, start.values)
        assert np.array_equal(rec.vectors, start.vectors)
        assert np.allclose(rec.values, top_eigen(q, 8).values, rtol=0, atol=1e-14)
        rec = top_eigen(q, 8, seed=noise)
        assert rec.path == "dense" and rec.bounds == (None, None)
        assert rec.vectors == (None, None)
        assert np.array_equal(rec.values, top_eigen(q, 8).values)

    def test_seed_of_one_block_steps_that_block_only(self, bump):
        # a None entry solves its block in full; the other block still steps
        q, q_next, start = _seed_and_step(bump, GridSpec(16.0, 256), 1.2, 8)
        rec = top_eigen(q_next, 8, seed=(start.vectors[0], None))
        assert rec.bounds[0] <= spectral_mod.RITZ_BOUND and rec.bounds[1] is None
        assert np.shape(rec.vectors[0]) == (128, 12) and rec.vectors[1] is None
        odd = rec.values[[p == "odd" for p in rec.parity]]
        assert np.array_equal(odd, top_eigen(q_next[1:], 8).values[:len(odd)])
        assert np.allclose(rec.values, top_eigen(q_next, 8).values, rtol=0, atol=1e-13)

    def test_small_block_is_solved_dense(self, bump):
        # n = 32 per block and p = 12: a step space of 3p = 36 >= n vectors
        # would be the whole block, so every block is solved in full
        q, q_next, start = _seed_and_step(bump, GridSpec(8.0, 64), 1.2, 8)
        assert np.shape(start.vectors) == (2, 32, 12)
        rec = top_eigen(q_next, 8, vectors=True, seed=start.vectors)
        assert rec.path == "dense" and rec.bounds == (None, None)
        assert np.array_equal(rec.values,
                              top_eigen(q_next, 8, vectors=True, seed=(None,) * len(q_next)).values)
        rec = top_eigen(q_next, 8, seed=start.vectors)
        assert rec.bounds == (None, None)
        assert np.array_equal(rec.values, top_eigen(q_next, 8).values)

    def test_lanczos_path_seed(self, bump, monkeypatch):
        # above the dense limits the seed is solved by Lanczos per block, and
        # a step from it is certified as on the dense path
        _lanczos_everywhere(monkeypatch)
        q, q_next, start = _seed_and_step(bump, GridSpec(16.0, 256), 1.2, 4)
        assert start.path == "lanczos" and np.shape(start.vectors) == (2, 128, 8)
        dense = scipy.linalg.eigvalsh(unfold(q))[::-1][:4]
        assert np.allclose(start.values, dense, rtol=0, atol=1e-10)
        for block, vecs in enumerate(start.vectors):
            assert np.max(np.abs(vecs.T @ vecs - np.eye(8))) < 1e-10
        step = top_eigen(q_next, 4, seed=start.vectors)
        assert step.path == "ritz"
        dense_next = scipy.linalg.eigvalsh(unfold(q_next))[::-1][:4]
        assert np.allclose(step.values, dense_next, rtol=0, atol=1e-12)


def _logged_basis(monkeypatch):
    """The blocks ``_ritz_step`` orthonormalizes, appended to a list as made."""
    blocks, orthonormal = [], spectral_mod._orthonormal
    monkeypatch.setattr(spectral_mod, "_orthonormal",
                        lambda x: blocks.append(orthonormal(x)) or blocks[-1])
    return blocks


class TestDeepenedRitzStep:
    @pytest.fixture
    def first_sample_step(self, off_centre_wire):
        """The block and seed of the first sample step of a 20-point scan of
        the off-centre wire over 0.5-5 kappa0 (L = 10, N = 256, m = 8)."""
        k0 = kappa0(0.0)
        kappas = np.geomspace(0.5 * k0, 5.0 * k0, 20)
        cache = OperatorCache(off_centre_wire, GridSpec(10.0, 256))
        start = top_eigen(cache.q_matrix(kappas[0]), 8, vectors=True, seed=(None,))
        return cache.q_matrix(kappas[1])[0], start.vectors[0]

    def test_three_blocks_fail_and_a_deeper_basis_certifies(self, monkeypatch,
                                                            first_sample_step):
        a, v = first_sample_step
        n, p = v.shape
        with monkeypatch.context() as patch:
            patch.setattr(spectral_mod, "RITZ_DEPTH", 3)
            assert spectral_mod._ritz_step(a, v, 8)[2] > spectral_mod.RITZ_BOUND
        blocks = _logged_basis(monkeypatch)
        vals, y, bound, depth = spectral_mod._ritz_step(a, v, 8)
        assert 3 < depth <= spectral_mod.RITZ_DEPTH and depth * p < n
        assert bound <= spectral_mod.RITZ_BOUND
        # one orthonormal block per depth, the last one checked and not extended
        basis = np.hstack(blocks)
        assert basis.shape == (n, depth * p)
        assert np.max(np.abs(basis.T @ basis - np.eye(depth * p))) <= 1e-13
        assert np.max(np.abs(y.T @ y - np.eye(p))) <= 1e-13
        assert np.all(np.abs(vals - scipy.linalg.eigvalsh(a)[::-1][:8]) <= bound)

    def test_two_steps_give_the_same_bits(self, first_sample_step):
        a, v = first_sample_step
        (vals, y, bound, depth), again = (spectral_mod._ritz_step(a, v, 8) for _ in range(2))
        assert np.array_equal(vals, again[0]) and np.array_equal(y, again[1])
        assert (bound, depth) == again[2:]

    @pytest.mark.parametrize("n", [37, 48, 64, 97, 256])
    def test_basis_stays_below_the_block_size(self, monkeypatch, n):
        # a random seed never certifies on a random matrix, so the step goes
        # as deep as it may: RITZ_DEPTH blocks, or fewer than n columns
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a, v, p = a + a.T, rng.standard_normal((n, 12)), 12
        blocks = _logged_basis(monkeypatch)
        depth = spectral_mod._ritz_step(a, v, 8)[3]
        assert depth == min(spectral_mod.RITZ_DEPTH, (n - 1) // p)
        assert sum(b.shape[1] for b in blocks) == depth * p < n


class TestLambdaCurve:
    def test_straight_equals_s_kappa(self, straight):
        g = GridSpec(16.0, 256)
        kappas = np.geomspace(0.6, 4.0, 9)
        sc = lambda_curve(straight, g, kappas, m=3)
        assert np.max(np.abs(sc.lambdas[:, 0] - sc.s_k_values)) < 1e-12

    def test_bump_exceeds_free_line(self, bump):
        # bending pushes the top of the spectrum strictly above s_kappa
        g = GridSpec(16.0, 512)
        k0 = kappa0(0.0)
        sc = lambda_curve(bump, g, np.array([k0]), m=1)
        resid_tol = 1e-9 * max(1.0, abs(float(sc.lambdas[0, 0])))
        assert sc.lambdas[0, 0] - s_kappa(k0) > 10 * resid_tol

    def test_strictly_decreasing_on_samples(self, bump):
        g = GridSpec(16.0, 256)
        k0 = kappa0(0.0)
        sc = lambda_curve(bump, g, np.geomspace(k0, 4 * k0, 8), m=2)
        assert np.all(np.diff(sc.lambdas[:, 0]) < 0)

    def test_tail_drops_below_alpha(self, bump):
        g = GridSpec(16.0, 256)
        k0 = kappa0(0.0)
        sc = lambda_curve(bump, g, np.array([10 * k0]), m=1)
        assert sc.lambdas[0, 0] < 0.0

    def test_continuity_bound_between_samples(self, bump):
        g = GridSpec(16.0, 256)
        kappas = np.geomspace(1.0, 3.0, 7)
        sc = lambda_curve(bump, g, kappas, m=1)
        for i in range(len(kappas) - 1):
            k1, k2 = kappas[i], kappas[i + 1]
            b1 = g.delta * bending_kernel_matrix(bump, g, k1)
            b2 = g.delta * bending_kernel_matrix(bump, g, k2)
            hs_gap = float(np.sqrt(np.sum((b1 - b2) ** 2)))
            bound = abs(math.log(k1 / k2)) / (2 * math.pi) + hs_gap
            assert abs(sc.lambdas[i + 1, 0] - sc.lambdas[i, 0]) <= bound + 1e-12

    def test_descending_kappa_rejected(self, straight):
        g = GridSpec(8.0, 64)
        with pytest.raises(GeometryError):
            lambda_curve(straight, g, [2.0, 1.0])

    @pytest.mark.parametrize("kappas", [[1.0, math.inf], [math.nan, 1.0], [1.0, 2.0, math.nan]])
    def test_non_finite_kappa_rejected(self, straight, monkeypatch, kappas):
        # refused before the operator cache, whose N^2 chords come first, is
        # built: kappa^2 of an infinite kappa is inf
        monkeypatch.setattr(spectral_mod, "OperatorCache",
                            lambda *args: pytest.fail("an operator cache was built"))
        with pytest.raises(GeometryError, match="finite"):
            lambda_curve(straight, GridSpec(8.0, 1024), kappas)

    @pytest.mark.parametrize("m", [0, 2049])
    def test_m_outside_1_to_n_rejected(self, straight, monkeypatch, m):
        # checked with the kappa list, before the operator cache is built
        monkeypatch.setattr(spectral_mod, "OperatorCache",
                            lambda *args: pytest.fail("an operator cache was built"))
        with pytest.raises(GeometryError, match="1 <= m <= N"):
            lambda_curve(straight, GridSpec(16.0, 2048), [1.0], m=m)

    def test_csv_export(self, straight):
        g = GridSpec(8.0, 64)
        sc = lambda_curve(straight, g, [1.0, 2.0], m=2)
        text = sc.csv_text()
        assert "\r" not in text and text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "kappa,s_kappa,lambda_1,lambda_2"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert float(row[0]) == 1.0
        assert float(row[1]) == pytest.approx(s_kappa(1.0), abs=1e-15)
