import math

import numpy as np
import pytest

from leakywire.curve import Curve, SampledParametric, StraightLine
from leakywire.errors import GeometryError, InvalidKernelError, SingularGeometryError
from leakywire.operators import (
    PSI_ONE,
    DiscretizedOperator,
    GridSpec,
    OperatorCache,
    assemble_B,
    assemble_Q,
    assemble_T,
    b_kernel,
    bending_kernel_matrix,
    hs_norm,
    kappa0,
    s_kappa,
    schur_holmgren_norm,
    t_multiplier,
    zeta0,
)

TWO_PI = 2.0 * math.pi


class TestGridSpec:
    def test_nodes_symmetric_about_zero(self):
        g = GridSpec(16.0, 64)
        assert np.allclose(g.nodes + g.nodes[::-1], 0.0, atol=1e-14)
        assert g.delta == 2 * 16.0 / 64

    def test_momenta_are_pi_n_over_L(self):
        g = GridSpec(8.0, 16)
        p = np.sort(g.momenta)
        expected = np.pi * np.arange(-8, 8) / 8.0
        assert np.allclose(p, expected, atol=1e-14)

    def test_odd_n_rejected(self):
        with pytest.raises(GeometryError):
            GridSpec(8.0, 15)

    def test_nonpositive_L_rejected(self):
        with pytest.raises(GeometryError):
            GridSpec(0.0, 16)


class TestFreeLineConstants:
    def test_s_kappa_at_two_is_psi_over_2pi(self):
        assert s_kappa(2.0) == pytest.approx(PSI_ONE / TWO_PI, abs=1e-15)

    def test_multiplier_zero_momentum_is_s_kappa(self):
        for kap in (0.5, 1.0, 2.0, 7.3):
            assert t_multiplier(0.0, kap) == pytest.approx(s_kappa(kap), abs=1e-15)

    def test_multiplier_root_kappa(self):
        kap = 2.0 * math.exp(PSI_ONE)
        assert abs(t_multiplier(0.0, kap)) < 1e-14

    def test_multiplier_decreasing_in_momentum(self):
        assert t_multiplier(10.0, 1.0) < t_multiplier(1.0, 1.0)

    def test_kappa0_inverts_s_kappa(self):
        for alpha in (-0.5, 0.0, 0.5):
            assert s_kappa(kappa0(alpha)) == pytest.approx(alpha, abs=1e-12)

    def test_zeta0_is_minus_kappa0_squared(self):
        for alpha in (-0.3, 0.0, 0.4):
            assert zeta0(alpha) == pytest.approx(-kappa0(alpha) ** 2, abs=1e-12)

    def test_zeta0_zero_six_digits(self):
        val = zeta0(0.0)
        assert val == pytest.approx(-4.0 * math.exp(2 * PSI_ONE), abs=1e-15)
        assert f"{val:.6g}" == "-1.26095"

    def test_kappa_must_be_positive(self):
        with pytest.raises(GeometryError):
            t_multiplier(1.0, -1.0)
        with pytest.raises(GeometryError):
            s_kappa(0.0)


class TestBKernel:
    def test_straight_line_vanishes(self, straight):
        s = np.linspace(-10, 10, 50)
        vals = b_kernel(straight, s[:, None], s[None, :], 1.3)
        assert np.max(np.abs(vals)) == 0.0

    def test_diagonal_is_zero(self, bump):
        assert b_kernel(bump, 0.7, 0.7, 1.0) == 0.0

    def test_diagonal_taylor_limit(self, bump):
        # B(s, s + u) ~ k(s)^2 u / (96 pi) as u -> 0; at the bump peak k = 1
        target = 1.0 / (96.0 * math.pi)
        ratios = [b_kernel(bump, 0.0, u, 1.2) / u for u in (1e-2, 1e-3, 1e-4)]
        assert abs(ratios[-1] - target) / target < 1e-3
        # and the convergence is monotone toward the target
        errs = [abs(r - target) for r in ratios]
        assert errs[2] < errs[1] < errs[0]

    def test_circle_closed_form(self):
        # radius-1 quarter arc: rho = 2 sin(pi/4) = sqrt(2), sigma = pi/2
        ang = np.linspace(-np.pi / 2, np.pi / 2, 401)
        circle = SampledParametric(
            np.column_stack([ang, np.cos(ang), np.sin(ang), np.zeros_like(ang)]))
        val = b_kernel(circle, 0.0, math.pi / 2, 1.0)
        rho, sigma = math.sqrt(2.0), math.pi / 2
        expected = (math.exp(-rho) / rho - math.exp(-sigma) / sigma) / (4 * math.pi)
        assert val == pytest.approx(expected, rel=1e-6)
        # the chord bound makes this positive for any unit-speed curve
        assert expected > 0

    def test_coincident_points_raise(self):
        class BrokenCurve(StraightLine):
            def chord_between(self, sa, sb):
                return np.zeros_like(np.asarray(sa, dtype=float))

        with pytest.raises(SingularGeometryError):
            b_kernel(BrokenCurve(), 0.0, 3.0, 1.0)


class TestAssembleT:
    def test_two_point_grid_eigenvalues(self):
        g = GridSpec(3.0, 2)
        t = assemble_T(g, 2.0)
        eig = np.sort(np.linalg.eigvalsh(t.matrix))
        expected = np.sort([t_multiplier(0.0, 2.0), t_multiplier(np.pi / 3.0, 2.0)])
        assert np.allclose(eig, expected, atol=1e-14)

    def test_constant_vector_exact_eigenvector(self):
        g = GridSpec(16.0, 512)
        t = assemble_T(g, 2.0)
        ones = np.ones(g.N) / math.sqrt(g.N)
        resid = t.matrix @ ones - s_kappa(2.0) * ones
        assert np.max(np.abs(resid)) < 1e-14

    def test_row_sums_constant(self):
        g = GridSpec(12.0, 128)
        t = assemble_T(g, 1.4)
        sums = t.matrix.sum(axis=1)
        assert np.ptp(sums) < 1e-13
        assert sums[0] == pytest.approx(s_kappa(1.4), abs=1e-13)

    def test_top_eigenvalue_zero_at_root_kappa(self):
        g = GridSpec(16.0, 256)
        kap = 2.0 * math.exp(PSI_ONE)
        t = assemble_T(g, kap)
        assert abs(np.linalg.eigvalsh(t.matrix)[-1]) < 1e-13

    def test_symmetry_exact(self):
        g = GridSpec(16.0, 128)
        t = assemble_T(g, 1.0)
        assert np.array_equal(t.matrix, t.matrix.T)


class TestAssembleB:
    def test_straight_is_zero_matrix(self, straight):
        g = GridSpec(16.0, 64)
        b = assemble_B(straight, g, 1.2)
        assert np.all(b.matrix == 0.0)

    def test_entrywise_floor_and_symmetry(self, bump):
        g = GridSpec(20.0, 256)
        b = assemble_B(bump, g, 1.2)
        assert b.matrix.min() >= -1e-14
        assert np.array_equal(b.matrix, b.matrix.T)

    def test_support_pattern(self, bump):
        # the near-diagonal (curvature-driven) part lives where the bump is;
        # pairs on the same side of the bump with min |s| >= 6 are dead,
        # while opposite-side pairs keep an exponentially small shortcut term
        g = GridSpec(20.0, 256)
        b = assemble_B(bump, g, 1.2)
        s = g.nodes
        si, sj = np.meshgrid(s, s, indexing="ij")
        live = b.matrix > 1e-12
        same_side = si * sj > 0
        far = np.minimum(np.abs(si), np.abs(sj)) >= 6.0
        assert not np.any(live & same_side & far)
        i, j = np.unravel_index(int(b.matrix.argmax()), b.matrix.shape)
        assert abs(s[i]) < 6.0 and abs(s[j]) < 6.0

    def test_quadratic_quadrature_convergence(self, bump):
        vals = []
        for n in (128, 256, 512, 1024):
            g = GridSpec(20.0, n)
            b = assemble_B(bump, g, 1.2)
            phi = np.exp(-g.nodes ** 2 / 2.0)
            vals.append(g.delta * float(phi @ b.matrix @ phi))
        d = np.abs(np.diff(vals))
        ratios = d[:-1] / d[1:]
        assert np.all(ratios > 3.0) and np.all(ratios < 5.0)

    def test_q_is_t_plus_b(self, bump):
        g = GridSpec(16.0, 128)
        kap = 1.3
        q = assemble_Q(bump, g, kap)
        t = assemble_T(g, kap)
        b = assemble_B(bump, g, kap)
        assert np.array_equal(q.matrix, t.matrix + b.matrix)

    def test_straight_q_equals_t(self, straight):
        g = GridSpec(16.0, 128)
        q = assemble_Q(straight, g, 1.1)
        t = assemble_T(g, 1.1)
        assert np.array_equal(q.matrix, t.matrix)


class TestNorms:
    def test_straight_norms_vanish(self, straight):
        g = GridSpec(16.0, 64)
        b = assemble_B(straight, g, 1.0)
        assert hs_norm(b) == 0.0
        assert schur_holmgren_norm(b) == 0.0

    def test_kappa_monotone_nonincreasing(self, bump):
        g = GridSpec(16.0, 256)
        hs_vals, sh_vals = [], []
        for kap in (1.2, 1.5, 2.0):
            b = assemble_B(bump, g, kap)
            hs_vals.append(hs_norm(b))
            sh_vals.append(schur_holmgren_norm(b))
        assert hs_vals[0] >= hs_vals[1] >= hs_vals[2] > 0
        assert sh_vals[0] >= sh_vals[1] >= sh_vals[2] > 0

    def test_two_norm_below_row_bound(self, bump):
        g = GridSpec(16.0, 256)
        for kap in (1.2, 2.0):
            b = assemble_B(bump, g, kap)
            assert np.linalg.norm(b.matrix, 2) <= schur_holmgren_norm(b) + 1e-8

    def test_norms_stable_under_box_doubling(self, bump):
        kap = 1.2
        b1 = assemble_B(bump, GridSpec(16.0, 256), kap)
        b2 = assemble_B(bump, GridSpec(32.0, 512), kap)
        assert abs(hs_norm(b1) - hs_norm(b2)) / hs_norm(b2) < 1e-3
        assert abs(schur_holmgren_norm(b1) - schur_holmgren_norm(b2)) \
            / schur_holmgren_norm(b2) < 1e-3

    def test_uniformly_bounded_above_kappa0(self, bump):
        g = GridSpec(16.0, 256)
        k0 = kappa0(0.0)
        b0 = assemble_B(bump, g, k0)
        hs_cap, sh_cap = hs_norm(b0), schur_holmgren_norm(b0)
        for kap in np.geomspace(k0, 10 * k0, 6):
            b = assemble_B(bump, g, float(kap))
            assert hs_norm(b) <= hs_cap + 1e-12
            assert schur_holmgren_norm(b) <= sh_cap + 1e-12

    def test_wrong_kind_rejected(self):
        g = GridSpec(8.0, 32)
        t = assemble_T(g, 1.0)
        with pytest.raises(InvalidKernelError):
            hs_norm(t)

    def test_negative_kernel_rejected(self, bump):
        g = GridSpec(8.0, 32)
        b = assemble_B(bump, g, 1.2)
        bad = b.matrix.copy()
        bad[3, 7] = -1e-6
        bad[7, 3] = -1e-6
        broken = DiscretizedOperator(grid=g, kappa=1.2, matrix=bad, kind="B")
        with pytest.raises(InvalidKernelError):
            schur_holmgren_norm(broken)


class TestInvariants:
    def test_entrywise_kappa_monotonicity(self, bump):
        g = GridSpec(16.0, 256)
        kerns = [bending_kernel_matrix(bump, g, k) for k in (1.2, 1.8, 2.4)]
        assert np.all(kerns[1] <= kerns[0] + 1e-14)
        assert np.all(kerns[2] <= kerns[1] + 1e-14)

    def test_multiplier_continuity_bound(self):
        g = GridSpec(16.0, 512)
        p = g.momenta
        for kap, kap2 in ((1.0, 1.5), (0.7, 2.0), (2.0, 2.1)):
            dev = np.max(np.abs(t_multiplier(p, kap) - t_multiplier(p, kap2)))
            assert dev <= abs(math.log(kap / kap2)) / TWO_PI + 1e-12

    def test_asymmetric_matrix_rejected(self):
        g = GridSpec(8.0, 32)
        m = np.zeros((32, 32))
        m[0, 1] = 1.0
        with pytest.raises(InvalidKernelError):
            DiscretizedOperator(grid=g, kappa=1.0, matrix=m, kind="Q")


class _Hairpin(Curve):
    """Unit-speed wire folded back onto itself at s = 0: gamma(s) = (|s|, 0, 0),
    so the grid nodes s and -s are the same point."""

    def point(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (3,))
        out[..., 0] = np.abs(s)
        return out


class TestOperatorCache:
    @pytest.mark.parametrize("family", ["bump", "helix", "straight"])
    def test_matches_direct_assembly(self, family, request):
        curve = request.getfixturevalue(family)
        g = GridSpec(8.0, 128)
        cache = OperatorCache(curve, g)
        for kap in (0.6, 1.4, 2.5):
            q = cache.q_matrix(kap)
            assert np.max(np.abs(q - assemble_Q(curve, g, kap).matrix)) <= 1e-15
            assert np.array_equal(q, q.T)
        # the chord distances are the only N x N array a cache keeps
        square = [v for v in vars(cache).values()
                  if isinstance(v, np.ndarray) and v.shape == (g.N, g.N)]
        assert len(square) == (0 if family == "straight" else 1)
        assert all(v.dtype == np.float64 for v in square)

    def test_coincident_nodes_raise_at_construction(self):
        with pytest.raises(SingularGeometryError, match="chord-arc condition"):
            OperatorCache(_Hairpin(), GridSpec(4.0, 16))
