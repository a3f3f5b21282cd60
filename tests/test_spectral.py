import math

import numpy as np
import pytest

from leakywire.errors import GeometryError
from leakywire.operators import (
    DiscretizedOperator,
    GridSpec,
    assemble_B,
    assemble_Q,
    assemble_T,
    kappa0,
    s_kappa,
)
from leakywire.spectral import lambda_curve, top_eigenpairs


def _diag_op(values):
    g = GridSpec(1.0, len(values))
    return DiscretizedOperator(grid=g, kappa=1.0, matrix=np.diag(values), kind="Q")


class TestTopEigenpairs:
    def test_diagonal_matrix(self):
        op = _diag_op([3.0, 1.0, 0.0, -2.0])
        pairs = top_eigenpairs(op, 2)
        assert pairs[0][0] == pytest.approx(3.0, abs=1e-14)
        assert pairs[1][0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.abs(pairs[0][1]), [1, 0, 0, 0], atol=1e-14)
        assert np.allclose(np.abs(pairs[1][1]), [0, 1, 0, 0], atol=1e-14)

    def test_straight_top_mode_is_constant_vector(self, straight):
        g = GridSpec(16.0, 128)
        t = assemble_T(g, 1.7)
        (lam, v), = top_eigenpairs(t, 1)
        assert lam == pytest.approx(s_kappa(1.7), abs=1e-13)
        assert np.allclose(v, np.ones(g.N) / math.sqrt(g.N), atol=1e-10)

    def test_orthonormal_vectors(self, bump):
        g = GridSpec(16.0, 256)
        q = assemble_Q(bump, g, 1.2)
        pairs = top_eigenpairs(q, 6)
        vecs = np.column_stack([v for _, v in pairs])
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_descending_order(self, bump):
        g = GridSpec(16.0, 256)
        q = assemble_Q(bump, g, 1.2)
        vals = [lam for lam, _ in top_eigenpairs(q, 5)]
        assert all(vals[i] >= vals[i + 1] for i in range(4))

    def test_bad_m_rejected(self):
        op = _diag_op([1.0, 0.0])
        with pytest.raises(GeometryError):
            top_eigenpairs(op, 0)

    def test_sign_convention(self):
        op = _diag_op([2.0, 1.0, 0.5, 0.25])
        pairs = top_eigenpairs(op, 1)
        # first significant component positive
        v = pairs[0][1]
        assert v[int(np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v))))] > 0


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
        q = assemble_Q(bump, g, k0)
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
            b1 = assemble_B(bump, g, k1)
            b2 = assemble_B(bump, g, k2)
            hs_gap = float(np.sqrt(np.sum((b1.matrix - b2.matrix) ** 2)))
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
