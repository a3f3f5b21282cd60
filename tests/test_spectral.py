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
from leakywire.spectral import _fix_sign, _iterative_top, lambda_curve, top_eigen

from conftest import unfold


class TestTopEigenpairs:
    def test_diagonal_matrix(self):
        vals, _, _, vecs = top_eigen(np.diag([3.0, 1.0, 0.0, -2.0]), 2, vectors=True)
        assert vals[0] == pytest.approx(3.0, abs=1e-14)
        assert vals[1] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(vecs[:, 0]), [1, 0, 0, 0], atol=1e-14)
        assert np.allclose(np.abs(vecs[:, 1]), [0, 1, 0, 0], atol=1e-14)

    def test_straight_top_mode_is_constant_vector(self, straight):
        g = GridSpec(16.0, 128)
        vals, _, _, vecs = top_eigen(assemble_T(g, 1.7), 1, vectors=True)
        assert vals[0] == pytest.approx(s_kappa(1.7), abs=1e-13)
        assert np.allclose(vecs[:, 0], np.ones(g.N) / math.sqrt(g.N), atol=1e-10)

    def test_orthonormal_vectors(self, bump):
        g = GridSpec(16.0, 256)
        vecs = top_eigen(OperatorCache(bump, g).q_matrix(1.2), 6, vectors=True).vectors
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_descending_order(self, bump):
        g = GridSpec(16.0, 256)
        vals = top_eigen(OperatorCache(bump, g).q_matrix(1.2), 5, vectors=True).values
        assert all(vals[i] >= vals[i + 1] for i in range(4))

    def test_parity_blocks_match_the_full_matrix(self):
        # the merged top of the even and odd blocks is the top of Q, and the
        # unfolded vectors are eigenvectors of Q with the block's symmetry
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        g = GridSpec(24.0, 512)
        q = OperatorCache(curve, g).q_matrix(1.3)
        full = unfold(q)
        vals, parity, _, vecs = top_eigen(q, 6, vectors=True)
        assert np.max(np.abs(vals - scipy.linalg.eigvalsh(full)[::-1][:6])) <= 1e-14
        assert set(parity) == {"even", "odd"}
        for lam, v, p in zip(vals, vecs.T, parity):
            assert np.linalg.norm(full @ v - lam * v) < 1e-13
            assert np.array_equal(v[::-1], v if p == "even" else -v)
        assert np.array_equal(top_eigen(q, 6).values, vals)

    def test_bad_m_rejected(self):
        with pytest.raises(GeometryError):
            top_eigen(np.diag([1.0, 0.0]), 0, vectors=True)

    def test_sign_convention(self):
        vecs = top_eigen(np.diag([2.0, 1.0, 0.5, 0.25]), 1, vectors=True).vectors
        # first significant component positive
        v = vecs[:, 0]
        assert v[int(np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v))))] > 0


def _lanczos_everywhere(monkeypatch):
    monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", 8)
    monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 8)


class TestEigenRecord:
    @pytest.mark.parametrize("path", ["dense", "lanczos"])
    @pytest.mark.parametrize("split", [True, False], ids=["two_blocks", "one_block"])
    def test_record_fields(self, monkeypatch, path, split):
        # values, the parity of each, the path that ran, and vectors only
        # when asked for, on either path for either kind of Q
        if path == "lanczos":
            _lanczos_everywhere(monkeypatch)
        centre = 0.0 if split else 0.5
        curve = PlanarCurvatureProfile(lambda s: 3.0 * np.exp(-((s - centre) / 2.0) ** 2), 40.0)
        q = OperatorCache(curve, GridSpec(24.0, 256)).q_matrix(1.3)
        assert q.ndim == (3 if split else 2)
        bare = top_eigen(q, 4)
        rec = top_eigen(q, 4, vectors=True)
        assert bare.vectors is None
        assert rec.vectors.shape == (256, 4)
        assert bare.path == rec.path == path
        assert bare.parity == rec.parity
        assert np.array_equal(bare.values, rec.values)
        assert np.all(np.diff(rec.values) <= 0)
        if split:
            assert set(rec.parity) == {"even", "odd"}
        else:
            assert rec.parity == [None] * 4
        full = unfold(q)
        for lam, v in zip(rec.values, rec.vectors.T):
            assert np.linalg.norm(full @ v - lam * v) < 1e-12

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
                alone = top_eigen(cache.q_matrix(kap)[block], m)
                assert alone.path == both.path == "dense"
                assert np.array_equal(alone.values[:mine.size], mine)

    def test_block_values_come_from_a_record_at_the_same_kappa(self, bump, monkeypatch):
        # a kappa solved for both blocks is not built again for one of them,
        # and each (kappa, block) is built once
        ev = spectral_mod._BranchEvaluator(bump, GridSpec(16.0, 256), 4)
        built = []
        q_matrix = ev.cache.q_matrix
        monkeypatch.setattr(ev.cache, "q_matrix",
                            lambda kappa: built.append(kappa) or q_matrix(kappa))
        both = ev.record(1.2)
        for block, label in enumerate(spectral_mod.PARITIES):
            assert list(ev.values(1.2, block)) == [
                v for v, p in zip(both.values, both.parity) if p == label]
        odd = ev.values(1.5, 1)
        assert ev.values(1.5, 1) is odd
        assert built == [1.2, 1.5]
        assert (ev.evaluations, ev.block_evaluations) == (2, 1)
        assert odd.size == 4

    def test_two_block_lanczos_vectors_have_exact_parity(self, monkeypatch):
        # a Ritz vector keeps only its own block, so its unfolded vector is
        # exactly even or odd, as on the dense path
        _lanczos_everywhere(monkeypatch)
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        q = OperatorCache(curve, GridSpec(24.0, 512)).q_matrix(1.3)
        rec = top_eigen(q, 6, vectors=True)
        assert rec.path == "lanczos" and set(rec.parity) == {"even", "odd"}
        for v, p in zip(rec.vectors.T, rec.parity):
            assert np.array_equal(v[::-1], v if p == "even" else -v)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_block_lanczos_is_the_plain_matrix_run(self, monkeypatch, m):
        # the block-diagonal operator of one block multiplies with batched
        # matmul; Lanczos on it gives the bits of Lanczos on the 2-D array
        _lanczos_everywhere(monkeypatch)
        curve = PlanarCurvatureProfile(lambda s: np.exp(-(s - 0.5) ** 2), 36.0)
        q = OperatorCache(curve, GridSpec(16.0, 512)).q_matrix(1.2)
        assert q.ndim == 2
        vals, vecs = _iterative_top(q, m, True)
        rec = top_eigen(q, m, vectors=True)
        assert np.array_equal(rec.values, vals)
        assert np.array_equal(top_eigen(q, m).values, vals)
        assert np.array_equal(rec.vectors, np.column_stack([_fix_sign(v) for v in vecs.T]))


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
