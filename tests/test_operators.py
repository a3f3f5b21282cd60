import math

import numpy as np
import pytest

from leakywire.curve import Curve, PlanarCurvatureProfile, SampledParametric, StraightLine
from leakywire.errors import GeometryError, InvalidKernelError, SingularGeometryError
from leakywire.operators import (
    PSI_ONE,
    GridSpec,
    OperatorCache,
    assemble_T,
    bending_kernel_matrix,
    hs_norm,
    kappa0,
    s_kappa,
    schur_holmgren_norm,
    t_multiplier,
    zeta0,
)
from leakywire.spectral import top_eigen

from conftest import parity_blocks, unfold

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
    """The kernel between the two nodes +-u/2 of GridSpec(u, 2)."""

    @staticmethod
    def pair(curve, u, kappa):
        return bending_kernel_matrix(curve, GridSpec(u, 2), kappa)[0, 1]

    def test_diagonal_taylor_limit(self, bump):
        # B(s - u/2, s + u/2) ~ k(s)^2 u / (96 pi) as u -> 0; at the bump peak
        # s = 0, k = 1
        target = 1.0 / (96.0 * math.pi)
        ratios = [self.pair(bump, u, 1.2) / u for u in (1e-1, 1e-2, 1e-3)]
        assert abs(ratios[-1] - target) / target < 1e-3
        # and the convergence is monotone toward the target
        errs = [abs(r - target) for r in ratios]
        assert errs[2] < errs[1] < errs[0]

    def test_circle_closed_form(self):
        # radius-1 quarter arc: rho = 2 sin(pi/4) = sqrt(2), sigma = pi/2
        ang = np.linspace(-np.pi / 2, np.pi / 2, 401)
        circle = SampledParametric(
            np.column_stack([ang, np.cos(ang), np.sin(ang), np.zeros_like(ang)]))
        val = self.pair(circle, math.pi / 2, 1.0)
        rho, sigma = math.sqrt(2.0), math.pi / 2
        expected = (math.exp(-rho) / rho - math.exp(-sigma) / sigma) / (4 * math.pi)
        assert val == pytest.approx(expected, rel=1e-6)
        # the chord bound makes this positive for any unit-speed curve
        assert expected > 0

    def test_coincident_points_raise(self):
        class BrokenCurve(StraightLine):
            def pairwise_chords(self, s):
                return np.zeros((s.size, s.size))

        with pytest.raises(SingularGeometryError):
            self.pair(BrokenCurve(), 3.0, 1.0)


class TestAssembleT:
    def test_two_point_grid_eigenvalues(self):
        g = GridSpec(3.0, 2)
        t = assemble_T(g, 2.0)
        eig = np.sort(np.linalg.eigvalsh(t))
        expected = np.sort([t_multiplier(0.0, 2.0), t_multiplier(np.pi / 3.0, 2.0)])
        assert np.allclose(eig, expected, atol=1e-14)

    def test_constant_vector_exact_eigenvector(self):
        g = GridSpec(16.0, 512)
        t = assemble_T(g, 2.0)
        ones = np.ones(g.N) / math.sqrt(g.N)
        resid = t @ ones - s_kappa(2.0) * ones
        assert np.max(np.abs(resid)) < 1e-14

    def test_row_sums_constant(self):
        g = GridSpec(12.0, 128)
        t = assemble_T(g, 1.4)
        sums = t.sum(axis=1)
        assert np.ptp(sums) < 1e-13
        assert sums[0] == pytest.approx(s_kappa(1.4), abs=1e-13)

    def test_top_eigenvalue_zero_at_root_kappa(self):
        g = GridSpec(16.0, 256)
        kap = 2.0 * math.exp(PSI_ONE)
        t = assemble_T(g, kap)
        assert abs(np.linalg.eigvalsh(t)[-1]) < 1e-13

    def test_symmetry_exact(self):
        g = GridSpec(16.0, 128)
        t = assemble_T(g, 1.0)
        assert np.array_equal(t, t.T)


class TestAssembleB:
    def test_straight_is_zero_matrix(self, straight):
        g = GridSpec(16.0, 64)
        b = g.delta * bending_kernel_matrix(straight, g, 1.2)
        assert np.all(b == 0.0)

    def test_entrywise_floor_and_symmetry(self, bump):
        g = GridSpec(20.0, 256)
        b = g.delta * bending_kernel_matrix(bump, g, 1.2)
        assert b.min() >= -1e-14
        assert np.array_equal(b, b.T)
        assert np.all(np.diag(b) == 0)

    def test_support_pattern(self, bump):
        # the near-diagonal (curvature-driven) part lives where the bump is;
        # pairs on the same side of the bump with min |s| >= 6 are dead,
        # while opposite-side pairs keep an exponentially small shortcut term
        g = GridSpec(20.0, 256)
        b = g.delta * bending_kernel_matrix(bump, g, 1.2)
        s = g.nodes
        si, sj = np.meshgrid(s, s, indexing="ij")
        live = b > 1e-12
        same_side = si * sj > 0
        far = np.minimum(np.abs(si), np.abs(sj)) >= 6.0
        assert not np.any(live & same_side & far)
        i, j = np.unravel_index(int(b.argmax()), b.shape)
        assert abs(s[i]) < 6.0 and abs(s[j]) < 6.0

    def test_quadratic_quadrature_convergence(self, bump):
        vals = []
        for n in (128, 256, 512, 1024):
            g = GridSpec(20.0, n)
            b = g.delta * bending_kernel_matrix(bump, g, 1.2)
            phi = np.exp(-g.nodes ** 2 / 2.0)
            vals.append(g.delta * float(phi @ b @ phi))
        d = np.abs(np.diff(vals))
        ratios = d[:-1] / d[1:]
        assert np.all(ratios > 3.0) and np.all(ratios < 5.0)

    def test_straight_q_equals_t(self, straight):
        # T is persymmetric, so the straight line splits into parity blocks
        g = GridSpec(16.0, 128)
        assert np.array_equal(OperatorCache(straight, g).q_matrix(1.1),
                              parity_blocks(assemble_T(g, 1.1)))


class TestNorms:
    def test_straight_norms_vanish(self, straight):
        g = GridSpec(16.0, 64)
        b = g.delta * bending_kernel_matrix(straight, g, 1.0)
        assert hs_norm(b) == 0.0
        assert schur_holmgren_norm(b) == 0.0

    def test_kappa_monotone_nonincreasing(self, bump):
        g = GridSpec(16.0, 256)
        hs_vals, sh_vals = [], []
        for kap in (1.2, 1.5, 2.0):
            b = g.delta * bending_kernel_matrix(bump, g, kap)
            hs_vals.append(hs_norm(b))
            sh_vals.append(schur_holmgren_norm(b))
        assert hs_vals[0] >= hs_vals[1] >= hs_vals[2] > 0
        assert sh_vals[0] >= sh_vals[1] >= sh_vals[2] > 0

    def test_two_norm_below_row_bound(self, bump):
        g = GridSpec(16.0, 256)
        for kap in (1.2, 2.0):
            b = g.delta * bending_kernel_matrix(bump, g, kap)
            assert np.linalg.norm(b, 2) <= schur_holmgren_norm(b) + 1e-8

    def test_norms_stable_under_box_doubling(self, bump):
        kap = 1.2
        g1, g2 = GridSpec(16.0, 256), GridSpec(32.0, 512)
        b1 = g1.delta * bending_kernel_matrix(bump, g1, kap)
        b2 = g2.delta * bending_kernel_matrix(bump, g2, kap)
        assert abs(hs_norm(b1) - hs_norm(b2)) / hs_norm(b2) < 1e-3
        assert abs(schur_holmgren_norm(b1) - schur_holmgren_norm(b2)) \
            / schur_holmgren_norm(b2) < 1e-3

    def test_uniformly_bounded_above_kappa0(self, bump):
        g = GridSpec(16.0, 256)
        k0 = kappa0(0.0)
        b0 = g.delta * bending_kernel_matrix(bump, g, k0)
        hs_cap, sh_cap = hs_norm(b0), schur_holmgren_norm(b0)
        for kap in np.geomspace(k0, 10 * k0, 6):
            b = g.delta * bending_kernel_matrix(bump, g, float(kap))
            assert hs_norm(b) <= hs_cap + 1e-12
            assert schur_holmgren_norm(b) <= sh_cap + 1e-12

    def test_negative_kernel_rejected(self, bump):
        g = GridSpec(8.0, 32)
        bad = g.delta * bending_kernel_matrix(bump, g, 1.2)
        bad[3, 7] = -1e-6
        bad[7, 3] = -1e-6
        with pytest.raises(InvalidKernelError):
            schur_holmgren_norm(bad)


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


class _Hairpin(Curve):
    """Unit-speed wire folded back onto itself at s = 0: gamma(s) = (|s|, 0, 0),
    so the grid nodes s and -s are the same point."""

    def point(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (3,))
        out[..., 0] = np.abs(s)
        return out


@pytest.fixture(scope="module")
def power():
    # curvature 1 on |s| < 1 and |s|^-2 outside: a kink at |s| = 1
    return PlanarCurvatureProfile.power_tail(1.0, 2.0)


class TestOperatorCache:
    @pytest.mark.parametrize("family", ["bump", "helix", "straight", "power", "scan_wire",
                                        "off_centre_wire"])
    def test_matches_direct_assembly(self, family, request):
        # the cache against the pointwise reference R = T + Delta * B(s_i, s_j);
        # mirror-symmetric wires, sampled ones included, split into parity
        # blocks, and the off-centre sampled wire stays one block.  A split
        # computes the persymmetric part (R + J R J) / 2 of R, from the mean
        # of mirror-image chords.  A planar profile's or the straight line's
        # R is persymmetric to the bit; a sampled wire's R misses persymmetry
        # by up to 7e-15 next to the diagonal, where the kernel scales the
        # chords' rounding by Delta / rho^2, so its split is held to R within
        # 5e-15 and to R's persymmetric part within 1e-15
        curve = request.getfixturevalue(family)
        g = GridSpec(8.0, 128)
        cache = OperatorCache(curve, g)
        split = family != "off_centre_wire"
        sampled_split = family in ("helix", "scan_wire")
        assert cache.parity == split
        for kap in (0.6, 1.4, 2.5):
            q = cache.q_matrix(kap)
            assert q.shape == ((2, g.N // 2, g.N // 2) if split else (g.N, g.N))
            reference = assemble_T(g, kap) + g.delta * bending_kernel_matrix(curve, g, kap)
            gap = np.max(np.abs(unfold(q) - reference))
            if sampled_split:
                persymmetric = (reference + reference[::-1, ::-1]) / 2
                assert np.max(np.abs(unfold(q) - persymmetric)) <= 1e-15
                assert gap <= 5e-15
            else:
                assert gap <= 1e-15
            assert np.array_equal(q, np.swapaxes(q, -1, -2))
        # the chords are the only square arrays a cache keeps: N^2 / 2 floats
        # in two halves for a split wire, N^2 otherwise
        square = [v for v in vars(cache).values()
                  if isinstance(v, np.ndarray) and v.ndim == 2]
        assert sum(v.size for v in square) == (
            0 if family == "straight" else g.N ** 2 // 2 if split else g.N ** 2)
        assert all(v.dtype == np.float64 for v in square)

    def test_parity_test_reads_the_chords(self, bump):
        # a bump centred off the grid's midpoint is not persymmetric
        g = GridSpec(8.0, 128)
        shifted = PlanarCurvatureProfile(lambda s: np.exp(-(s - 0.25) ** 2), 12.0)
        assert OperatorCache(bump, g).parity
        assert not OperatorCache(shifted, g).parity

    @pytest.mark.parametrize("n", [128, 512, 1024, 2304])
    def test_mirror_symmetric_sampled_wire_splits(self, scan_wire, n):
        # the centred arc length keeps the chords of a wire that is the same
        # after a rotation by pi within rounding of the segment lengths
        g = GridSpec(20.0, n)
        rho = scan_wire.pairwise_chords(g.nodes)
        assert np.max(np.abs(rho - rho[::-1, ::-1])) <= 12 * np.finfo(float).eps * rho.max()
        assert OperatorCache(scan_wire, g).parity

    @pytest.mark.parametrize("family, L", [("scan_wire", 20.0), ("helix", 12.0)])
    def test_split_sampled_values_match_the_one_matrix_reference(self, family, L, request):
        # the merged top values of the even and odd blocks are the top of
        # the spectrum of the pointwise N x N reference
        curve = request.getfixturevalue(family)
        g = GridSpec(L, 256)
        cache = OperatorCache(curve, g)
        assert cache.parity
        for kap in (0.9, 1.3):
            values = top_eigen(cache.q_matrix(kap), 6).values
            reference = assemble_T(g, kap) + g.delta * bending_kernel_matrix(curve, g, kap)
            assert np.max(np.abs(values - np.linalg.eigvalsh(reference)[:-7:-1])) <= 1e-13

    def test_coincident_nodes_raise_at_construction(self):
        with pytest.raises(SingularGeometryError, match="chord-arc condition"):
            OperatorCache(_Hairpin(), GridSpec(4.0, 16))
