import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakywire.curve import (
    CURVATURE_DECAY_THRESHOLD,
    PlanarCurvatureProfile,
    SampledParametric,
    StraightLine,
    check_a1,
    check_a2,
    check_curvature_decay,
    curvature_at,
    curve_from_dict,
    eval_frame,
    eval_point,
    in_asymptotic_set,
    shifted_point,
    xi_threshold,
)
from leakywire.errors import CurveFormatError, GeometryError, OutOfDomainError

from conftest import bump_curve

# adaptive-quadrature oracle for the unit Gaussian bump, frozen:
# theta(s) = int_0^s exp(-u^2) du,  gamma(1) = (int_0^1 cos theta, int_0^1 sin theta)
BUMP_GAMMA_1 = (0.8864160995102027, 0.4079600439609625)
BUMP_THETA_1 = 0.7468241328124271  # sqrt(pi)/2 * erf(1)


class TestEvalPoint:
    def test_straight_line(self, straight):
        assert np.allclose(eval_point(straight, 2.5), [2.5, 0.0, 0.0], atol=0)

    def test_zero_curvature_profile_is_a_line(self):
        flat = PlanarCurvatureProfile(lambda s: 0.0 * np.asarray(s), domain_hint=20.0)
        for s in (-7.3, 0.0, 1.0, 15.0, 30.0):
            assert np.allclose(eval_point(flat, s), [s, 0.0, 0.0], atol=1e-13)

    def test_gaussian_bump_against_quadrature_oracle(self, bump):
        p = eval_point(bump, 1.0)
        assert abs(p[0] - BUMP_GAMMA_1[0]) < 1e-10
        assert abs(p[1] - BUMP_GAMMA_1[1]) < 1e-10
        assert p[2] == 0.0

    def test_out_of_domain_sampled(self, half_circle_r2):
        with pytest.raises(OutOfDomainError):
            eval_point(half_circle_r2, 10.0)

    def test_nonfinite_rejected(self, straight):
        with pytest.raises(OutOfDomainError):
            eval_point(straight, math.inf)

    def test_unit_speed_finite_differences(self, bump):
        h = 1e-5
        for s in (-4.2, -1.0, 0.0, 0.6, 3.9, 12.0, 60.0):
            d = (bump.point(s + h) - bump.point(s - h)) / (2 * h)
            assert abs(np.linalg.norm(d) - 1.0) < 1e-8

    def test_tangent_exactly_unit(self, bump):
        s = np.linspace(-20, 20, 101)
        t = bump.tangent(s)
        assert np.max(np.abs(np.linalg.norm(t, axis=1) - 1.0)) < 1e-15


class TestFrames:
    def test_straight_fallback_frame(self, straight):
        fr = eval_frame(straight, 0.0)
        assert np.array_equal(fr.t, [1.0, 0.0, 0.0])
        assert np.array_equal(fr.b, [0.0, 0.0, 1.0])
        assert np.array_equal(fr.n, [0.0, 1.0, 0.0])

    def test_bump_tangent_at_origin(self, bump):
        fr = eval_frame(bump, 0.0)
        assert np.allclose(fr.t, [1.0, 0.0, 0.0], atol=1e-14)

    def test_bump_tangent_angle_at_one(self, bump):
        fr = eval_frame(bump, 1.0)
        assert np.allclose(fr.t, [math.cos(BUMP_THETA_1), math.sin(BUMP_THETA_1), 0.0],
                           atol=1e-10)

    @pytest.mark.parametrize("s", [-3.0, -0.4, 0.0, 1.7, 8.0])
    def test_orthonormal_right_handed(self, bump, s):
        fr = eval_frame(bump, s)
        for v in (fr.t, fr.b, fr.n):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        assert abs(np.dot(fr.t, fr.b)) < 1e-8
        assert abs(np.dot(fr.t, fr.n)) < 1e-8
        assert abs(np.dot(fr.b, fr.n)) < 1e-8
        assert np.allclose(np.cross(fr.t, fr.n), fr.b, atol=1e-10)

    def test_sampled_frame_orthonormal(self, half_circle_r2):
        fr = eval_frame(half_circle_r2, 0.5)
        assert abs(np.dot(fr.t, fr.n)) < 1e-8
        assert np.allclose(np.cross(fr.t, fr.n), fr.b, atol=1e-8)


class TestCurvature:
    def test_straight(self, straight):
        assert curvature_at(straight, 3.0) == 0.0

    def test_bump_peak(self):
        c = PlanarCurvatureProfile.gaussian_bump(0.8, 1.0)
        assert abs(curvature_at(c, 0.0) - 0.8) < 1e-14

    def test_sampled_circle_radius_two(self, half_circle_r2):
        assert abs(curvature_at(half_circle_r2, 0.3) - 0.5) < 1e-4


class TestShiftedPoint:
    def test_straight_along_binormal(self, straight):
        assert np.allclose(shifted_point(straight, 0.0, 0.1, 0.0), [0.0, 0.0, 0.1])

    def test_straight_along_normal(self, straight):
        assert np.allclose(shifted_point(straight, 1.0, 0.2, math.pi / 2), [1.0, 0.2, 0.0])

    def test_radius_bound_enforced(self, bump):
        # max curvature 1 -> r0 = 0.5
        with pytest.raises(GeometryError):
            shifted_point(bump, 0.0, 0.6, 0.0)

    @given(s=st.floats(-5, 5), r=st.floats(1e-4, 0.4),
           angle=st.floats(0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_orthogonal_offset_of_norm_r(self, s, r, angle):
        curve = bump_curve()
        dv = shifted_point(curve, s, r, angle) - eval_point(curve, s)
        assert abs(np.linalg.norm(dv) - r) < 1e-12
        assert abs(np.dot(dv, curve.tangent(s))) < 1e-8


class TestChordArcAudit:
    def test_straight_is_exactly_one(self, straight):
        rep = check_a1(straight, (-20, 20), 128)
        assert rep.c_estimate == 1.0
        assert rep.pass_a1

    def test_bump_in_unit_interval(self, bump):
        rep = check_a1(bump, (-10, 10), 400)
        assert 0.0 < rep.c_estimate < 1.0
        assert rep.pass_a1

    def test_circle_attains_two_over_pi(self, half_circle_r2):
        rep = check_a1(half_circle_r2, (-math.pi, math.pi), 400)
        assert abs(rep.c_estimate - 2.0 / math.pi) < 1e-6

    def test_isometry_invariance(self):
        # same half circle, rigidly rotated and translated
        ang = np.linspace(-np.pi / 2, np.pi / 2, 201)
        pts = np.stack([2 * np.cos(ang), 2 * np.sin(ang), np.zeros_like(ang)], axis=1)
        base = SampledParametric(np.column_stack([ang, pts]))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0],
                        [0, 0, 1.0]])
        moved = pts @ rot.T + np.array([3.0, -1.0, 2.0])
        other = SampledParametric(np.column_stack([ang, moved]))
        r1 = check_a1(base, (-3.0, 3.0), 200)
        r2 = check_a1(other, (-3.0, 3.0), 200)
        assert abs(r1.c_estimate - r2.c_estimate) < 1e-10

    def test_chord_bound_never_exceeded(self, bump):
        s = np.linspace(-18, 18, 300)
        rho = bump.pairwise_chords(s)
        sigma = np.abs(s[:, None] - s[None, :])
        off = sigma > 0
        ratio = rho[off] / sigma[off]
        assert ratio.max() <= 1.0 + 1e-12
        assert ratio.min() > 0.0


class TestPairwiseChords:
    def test_blocks_match_one_shot_formula(self, helix):
        s = np.linspace(-8.0, 8.0, 300)
        p = helix.point(s)
        diff = p[:, None, :] - p[None, :, :]
        assert np.array_equal(helix.pairwise_chords(s),
                              np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))

    def test_no_n_by_n_by_3_temporary(self, helix):
        s = np.linspace(-8.0, 8.0, 1024)
        tracemalloc.start()
        try:
            rho = helix.pairwise_chords(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rho.nbytes


class TestAsymptoticSet:
    def test_xi_closed_form(self):
        assert xi_threshold(1.0 / 3.0) == pytest.approx(2.0, abs=1e-15)
        for w in (0.1, 0.25, 0.5, 0.9):
            assert xi_threshold(w) > 1.0

    def test_branches_explicit(self):
        # |s+s'| above the threshold: ratio branch
        assert in_asymptotic_set(4.0, 5.0, 0.5, 1.0)
        assert not in_asymptotic_set(1.0, 5.0, 0.5, 1.0)
        # below the threshold: difference branch
        assert in_asymptotic_set(0.3, -0.3, 0.5, 1.0)
        assert not in_asymptotic_set(0.9, -0.9, 0.5, 1.0)

    @given(s=st.floats(-50, 50), sp=st.floats(-50, 50),
           omega=st.floats(0.05, 0.95), eps=st.floats(0.1, 5))
    @settings(max_examples=200, deadline=None)
    def test_membership_symmetric(self, s, sp, omega, eps):
        assert bool(in_asymptotic_set(s, sp, omega, eps)) == \
            bool(in_asymptotic_set(sp, s, omega, eps))


class TestStraightnessAudit:
    def test_straight_needs_d_zero(self, straight):
        rep = check_a2(straight, 0.5, 1.0, 1.0, (-24, 24), 300)
        assert rep.a2_certificate.d == 0.0
        assert rep.pass_a2

    def test_bump_certified_mu_one(self, bump):
        rep = check_a2(bump, 0.5, 1.0, 1.0, (-24, 24), 500)
        assert rep.pass_a2
        assert 0.0 < rep.a2_certificate.d < 10.0
        assert rep.a2_certificate.max_violation <= 1e-12

    def test_slow_tail_fails(self):
        # beta = 1 curvature tail decays too slowly for mu = 1 at any
        # moderate d: the required constant grows with the window
        slow = PlanarCurvatureProfile.power_tail(1.0, 1.0, domain_hint=400.0)
        rep = check_a2(slow, 0.5, 1.0, 1.0, (-380, 380), 1200, d_max=2.0)
        assert not rep.pass_a2


class TestCurvatureDecay:
    def test_straight_returns_inf(self, straight):
        assert math.isinf(check_curvature_decay(straight, (-40, 40), 300))

    def test_power_two_fit(self):
        c = PlanarCurvatureProfile.power_tail(1.0, 2.0, domain_hint=48.0)
        beta = check_curvature_decay(c, (-40, 40), 400)
        assert abs(beta - 2.0) < 0.05
        assert beta > CURVATURE_DECAY_THRESHOLD

    def test_power_one_flagged(self):
        c = PlanarCurvatureProfile.power_tail(1.0, 1.0, domain_hint=48.0)
        beta = check_curvature_decay(c, (-40, 40), 400)
        assert abs(beta - 1.0) < 0.05
        assert not beta > CURVATURE_DECAY_THRESHOLD

    def test_gaussian_superpolynomial(self, bump):
        assert math.isinf(check_curvature_decay(bump, (-30, 30), 300))


class TestSampledValidation:
    def test_non_monotone_parameter_named_index(self):
        samples = [[0.0, 0, 0, 0], [1.0, 1, 0, 0], [0.5, 2, 0, 0], [2.0, 3, 0, 0]]
        with pytest.raises(CurveFormatError, match="index 2"):
            SampledParametric(samples)

    def test_too_few_samples(self):
        with pytest.raises(CurveFormatError):
            SampledParametric([[0, 0, 0, 0], [1, 1, 0, 0]])


class TestCurveFromDict:
    def test_straight(self):
        c = curve_from_dict({"family": "straight"})
        assert isinstance(c, StraightLine)

    def test_gaussian_profile(self):
        c = curve_from_dict({"family": "planar_curvature",
                             "params": {"profile": "gaussian", "a": 0.5, "w": 2.0},
                             "domain_hint": 30.0})
        assert abs(curvature_at(c, 0.0) - 0.5) < 1e-14

    def test_power_tail_profile(self):
        c = curve_from_dict({"family": "planar_curvature",
                             "params": {"profile": "power_tail", "a": 1.0, "beta": 2.0}})
        assert abs(curvature_at(c, 2.0) - 0.25) < 1e-14

    def test_sampled(self):
        ang = np.linspace(0, 1, 9)
        samples = [[t, t, 0.0, 0.0] for t in ang]
        c = curve_from_dict({"family": "sampled", "samples": samples})
        assert isinstance(c, SampledParametric)

    def test_unknown_family(self):
        with pytest.raises(CurveFormatError):
            curve_from_dict({"family": "helix"})

    def test_missing_params(self):
        with pytest.raises(CurveFormatError):
            curve_from_dict({"family": "planar_curvature"})
