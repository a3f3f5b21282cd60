import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

import leakywire.curve as curve_mod
from leakywire.curve import (
    CURVATURE_DECAY_THRESHOLD,
    PlanarCurvatureProfile,
    SampledParametric,
    StraightLine,
    check_a1,
    check_a2,
    check_curvature_decay,
    curve_from_dict,
    eval_frame,
    eval_point,
    in_asymptotic_set,
    xi_threshold,
)
from leakywire.errors import CurveFormatError, GeometryError, OutOfDomainError

from conftest import bump_curve, scan_samples

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


def _sampled(t, x, y, z):
    return SampledParametric(np.column_stack([t, x, y, z]))


def _wire_samples():
    # non-planar wire: a Gaussian bump in y and a wider odd bump in z,
    # numerically straight beyond |t| ~ 7.5, where the Frenet normal is
    # undefined; the principal normal near the ends points along z
    t = np.linspace(-12.0, 12.0, 241)
    return np.column_stack([t, t, 0.8 * np.exp(-t ** 2), 0.5 * t * np.exp(-(t / 1.5) ** 2)])


def _orthonormal_right_handed(fr):
    for v in (fr.t, fr.b, fr.n):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert max(abs(fr.t @ fr.b), abs(fr.t @ fr.n), abs(fr.b @ fr.n)) < 1e-12
    assert np.allclose(np.cross(fr.t, fr.n), fr.b, rtol=0, atol=1e-12)


class TestSampledFrames:
    def test_straight_ends_borrow_the_nearest_curved_normal_plane(self):
        wire = SampledParametric(_wire_samples())
        half = wire.half_length
        s = np.linspace(-half, half, 2001)
        curved = s[wire.curvature(s) > 1e-6]
        for s_end, s_ref in ((half - 0.1, curved.max()), (-half + 0.1, curved.min())):
            assert wire.curvature(s_end) < 1e-20
            fr, ref = eval_frame(wire, s_end), eval_frame(wire, s_ref)
            _orthonormal_right_handed(fr)
            assert abs(fr.b @ ref.b) > 1.0 - 1e-9
            assert abs(fr.b[2]) < 1e-6     # not the fixed completion b = (0, 0, 1)

    @pytest.mark.parametrize("direction, b, n", [
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-0.5 ** 0.5, 0.5 ** 0.5, 0.0)),
        ((0.0, 0.0, 2.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
    ], ids=["x", "diagonal", "z"])
    def test_globally_straight_data_uses_the_fixed_completion(self, direction, b, n):
        t = np.linspace(-3.0, 3.0, 61)
        line = _sampled(t, *(c * t for c in direction))
        assert line.max_curvature() < 1e-8
        for s in (-2.0, 0.0, 1.3):
            fr = eval_frame(line, s)
            _orthonormal_right_handed(fr)
            assert np.allclose(fr.b, b, rtol=0, atol=1e-12)
            assert np.allclose(fr.n, n, rtol=0, atol=1e-12)


class TestCurvature:
    def test_straight(self, straight):
        assert straight.curvature(3.0) == 0.0

    def test_bump_peak(self):
        c = PlanarCurvatureProfile.gaussian_bump(0.8, 1.0)
        assert abs(c.curvature(0.0) - 0.8) < 1e-14

    def test_sampled_circle_radius_two(self, half_circle_r2):
        assert abs(half_circle_r2.curvature(0.3) - 0.5) < 1e-4

    def test_sampled_array_matches_scalar_and_loop_reference(self):
        samples = _wire_samples()
        wire = SampledParametric(samples)
        s = np.linspace(-9.0, 9.0, 51)
        k = wire.curvature(s)
        assert np.array_equal(k, [wire.curvature(x) for x in s])
        assert np.array_equal(wire.curvature(s.reshape(3, 17)), k.reshape(3, 17))
        # |gamma' x gamma''| / |gamma'|^3 one point at a time from
        # per-coordinate splines: the same arithmetic, so equal to the bit
        splines = [CubicSpline(samples[:, 0], samples[:, c]) for c in (1, 2, 3)]
        ref = []
        for tv in wire._t_param(s):
            d1 = np.array([sp.derivative()(tv) for sp in splines])
            d2 = np.array([sp.derivative(2)(tv) for sp in splines])
            ref.append(np.linalg.norm(np.cross(d1, d2)) / np.linalg.norm(d1) ** 3)
        assert np.array_equal(k, ref)

    def test_sampled_build_is_vectorized(self, monkeypatch):
        # one interpolant evaluation per derivative over all 16001 dense
        # nodes, not a few per node
        calls = []
        for name in ("__call__", "on_intervals"):
            def counting(self, *args, _method=getattr(curve_mod._CubicHermite, name)):
                calls.append(None)
                return _method(self, *args)

            monkeypatch.setattr(curve_mod._CubicHermite, name, counting)
        t = np.linspace(-10.0, 10.0, 2001)
        curve = _sampled(t, t, np.sin(t), 0.5 * np.cos(t))
        assert 0 < len(calls) <= 8
        assert curve.max_curvature() > 0.0


def _queries(x):
    """The knots, the interval midpoints, both ends and beyond, and the
    doubles next to the ends on the outside."""
    span = x[-1] - x[0]
    return np.concatenate([x, (x[1:] + x[:-1]) / 2,
                           [x[0], x[-1], x[0] - 0.3 * span, x[-1] + 0.7 * span,
                            np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)]])


def _pchip_values(slopes, seed):
    """Knots of random widths and values with the given interval slopes."""
    h = np.random.default_rng(seed).uniform(0.5, 2.0, len(slopes))
    x = np.concatenate(([-1.0], -1.0 + np.cumsum(h)))
    return x, np.concatenate(([0.3], 0.3 + np.cumsum(np.asarray(slopes) * h)))


class TestCubicHermite:
    """The package's interpolant against scipy.interpolate, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 441])
    @pytest.mark.parametrize("width", [None, 3], ids=["1d", "3d"])
    def test_spline_and_its_derivatives_match_scipy(self, n, width):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
        y = rng.normal(size=(n,) if width is None else (n, width))
        ours, ref = curve_mod._CubicHermite.spline(x, y), CubicSpline(x, y)
        assert np.array_equal(ours.c, ref.c)
        q = _queries(x)
        for nu in (0, 1, 2):
            got, want = ours.derivative(nu), ref.derivative(nu)
            assert np.array_equal(got(q), want(q))
            assert np.array_equal(got(q.reshape(-1, 1)), want(q.reshape(-1, 1)))
            assert np.array_equal(got(q[n + 1]), want(q[n + 1]))

    def test_rows_by_interval_match_the_search(self):
        x = np.linspace(-22.0, 22.0, 441)
        y = np.column_stack([x, np.exp(-(x / 1.4) ** 2), np.sin(x) / (1.0 + x * x)])
        ours, ref = (f.derivative() for f in (curve_mod._CubicHermite.spline(x, y),
                                                 CubicSpline(x, y)))
        u = np.linspace(x[:-1], x[1:], 13, axis=1)[:, :-1]
        assert np.array_equal(ours.on_intervals(u), ref(u))
        # a node out of its row, or beyond the ends: the rows are searched
        for row, col, value in ((5, -1, x[7]), (0, 0, x[0] - 0.5), (-1, -1, x[-1])):
            off = u.copy()
            off[row, col] = value
            assert np.array_equal(ours.on_intervals(off), ref(off))

    @pytest.mark.parametrize("slopes, ends", [
        ([1.0, 1.0, 0.0, 0.0, -2.0, 3.0, 1.0, 1.0], "shape"),
        ([1.0, 5.0, 0.0, 2.0, -2.0, -2.0, 5.0, 1.0], "zeroed"),
        ([1.0, -10.0, 0.0, 0.0, 2.0, 4.0, -10.0, 1.0], "tripled"),
        ([0.5, -3.0], "three_knots"),
    ], ids=["shape", "zeroed", "tripled", "three_knots"])
    def test_pchip_matches_scipy(self, slopes, ends):
        for seed in range(8):
            x, y = _pchip_values(slopes, seed)
            ours, ref = curve_mod._CubicHermite.pchip(x, y), PchipInterpolator(x, y)
            assert np.array_equal(ours.c, ref.c)
            assert np.array_equal(ours(_queries(x)), ref(_queries(x)))
        # the end slopes take the branch the case is named for, at both ends
        if ends in ("zeroed", "tripled"):
            start, stop = ours.c[2, 0], ours.derivative()(x[-1])
            m_start, m_stop = slopes[0], slopes[-1]
            factor = 0.0 if ends == "zeroed" else 3.0
            assert start == factor * m_start and stop == pytest.approx(factor * m_stop, rel=1e-12)

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 1.0, math.nan, 2.0],
                                   [0.0, 1.0, math.inf], [1.0]])
    def test_bad_knots_refused(self, x):
        for build in (curve_mod._CubicHermite.spline, curve_mod._CubicHermite.pchip):
            with pytest.raises(CurveFormatError, match="knots"):
                build(x, np.arange(len(x), dtype=float))


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
        rho = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        assert np.array_equal(helix.pairwise_chords(s), rho)
        # the first columns alone
        assert np.array_equal(helix.pairwise_chords(s, 100), rho[:, :100])

    def test_no_n_by_n_by_3_temporary(self, helix):
        s = np.linspace(-8.0, 8.0, 1024)
        tracemalloc.start()
        try:
            rho = helix.pairwise_chords(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rho.nbytes

    @pytest.mark.parametrize("n", [600, 1000, 1024])
    def test_planar_rows_match_one_shot_dd_formula(self, bump, n):
        s = np.linspace(-20.0, 20.0, n)
        hi, lo = bump._positions_dd(s)
        # the double-double difference as one expression; pairwise_chords
        # runs the same operations in place, a strip of rows at a time
        a, e = curve_mod._two_sum(hi[None, :, :], -hi[:, None, :])
        d = a + (e + (lo[None, :, :] - lo[:, None, :]))
        rho = np.hypot(d[..., 0], d[..., 1])
        assert np.array_equal(bump.pairwise_chords(s), rho)
        assert np.array_equal(bump.pairwise_chords(s, n // 2), rho[:, :n // 2])

    def test_planar_peak_stays_near_the_result(self, bump):
        s = np.linspace(-20.0, 20.0, 1024)
        tracemalloc.start()
        try:
            rho = bump.pairwise_chords(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rho.nbytes


def _dd_prefix_by_rows(increments):
    """The compensated prefix sums as numpy ran them, one row at a time."""
    n, d = increments.shape
    hi = np.zeros((n + 1, d))
    lo = np.zeros((n + 1, d))
    h = np.zeros(d)
    l = np.zeros(d)
    for i in range(n):
        s, e = curve_mod._two_sum(h, increments[i])
        h, l = curve_mod._fast_two_sum(s, l + e)
        hi[i + 1] = h
        lo[i + 1] = l
    return hi, lo


class TestPlanarBuild:
    def test_prefix_sums_match_the_row_loop(self):
        rng = np.random.default_rng(7)
        incr = rng.standard_normal((3072, 2)) * 0.03
        incr[::97] *= 1e12      # magnitudes far apart exercise the compensation
        for got, want in zip(curve_mod._dd_prefix(incr), _dd_prefix_by_rows(incr)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("hint", [48.0, 480.0])
    def test_chunked_build_is_bit_identical(self, monkeypatch, hint):
        # a chunk covering every cell is the unchunked build
        def build(chunk):
            monkeypatch.setattr(curve_mod, "_CELL_CHUNK", chunk)
            c = PlanarCurvatureProfile.power_tail(1.0, 2.0, hint)
            return c._pos_hi, c._pos_lo, c._theta_b, c._kmax

        whole = build(10 ** 9)
        for got, want in zip(build(1000), whole):
            assert np.array_equal(got, want)

    def test_build_guard_covers_the_peak_per_cell(self):
        # the guard's bytes per cell bound the growth of the build's peak
        peaks, cells = [], []
        for hint in (480.0, 960.0):
            tracemalloc.start()
            try:
                c = PlanarCurvatureProfile.gaussian_bump(1.0, 1.0, hint)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            cells.append(len(c._bounds) - 1)
        assert (peaks[1] - peaks[0]) / (cells[1] - cells[0]) <= curve_mod._CELL_BUILD_BYTES


class TestPlanarRays:
    """Beyond the core [-S, S] a planar profile is the straight ray along its
    end tangent; an off-centre bump makes the two end angles differ."""

    @pytest.fixture(scope="class")
    def off_centre(self):
        return PlanarCurvatureProfile(lambda s: np.exp(-(s - 0.25) ** 2), domain_hint=8.0)

    @pytest.mark.parametrize("side", [-1, 1], ids=["left", "right"])
    def test_rays_continue_along_the_end_tangent(self, off_centre, side):
        end = off_centre._bounds[-1] * side
        theta_end = off_centre.theta(end)
        assert abs(theta_end + off_centre.theta(-end)) > 0.1   # not mirror images
        s = end * np.linspace(1.0, 3.0, 41)[1:]
        tangent = np.array([math.cos(theta_end), math.sin(theta_end), 0.0])
        step = off_centre.point(s) - off_centre.point(end)
        assert np.all(np.abs(step - (s - end)[:, None] * tangent) <= 1e-14 * np.abs(s)[:, None])
        assert np.all(off_centre.theta(s) == theta_end)
        for x in s[::8]:
            assert np.array_equal(off_centre.frame(x).t, tangent)

    def test_rays_do_not_bend_where_the_profile_still_does(self):
        # k(S) = 1/64: continuing the profile past S would keep turning
        tail = PlanarCurvatureProfile.power_tail(1.0, 2.0, domain_hint=8.0)
        for end in tail._bounds[[0, -1]]:
            s = end * np.linspace(1.0, 3.0, 41)[1:]
            assert np.all(tail.theta(s) == tail.theta(s[0]))
            p = tail.point(s)
            assert np.max(np.abs(p[2:] - 2.0 * p[1:-1] + p[:-2])) <= 1e-13


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

    @pytest.mark.parametrize("eps, mu", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                         (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
    def test_rejects_a_vacuous_pair_set_or_weight(self, bump, eps, mu):
        # a NaN eps puts no pair in the set, which would certify any curve
        with pytest.raises(GeometryError):
            check_a2(bump, 0.5, eps, mu, (-24, 24), 64)

    def test_peak_stays_near_the_chords(self, bump):
        tracemalloc.start()
        try:
            check_a2(bump, 0.5, 1.0, 1.0, (-24, 24), 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * 1024 ** 2


def _one_shot_a1(curve, s_range, n):
    """The chord-arc audit over the whole pair matrix at once."""
    s = np.linspace(s_range[0], s_range[1], n)
    rho = curve.pairwise_chords(s)
    sigma = np.abs(s[:, None] - s[None, :])
    off = sigma > 0
    ratio = np.ones_like(rho)
    ratio[off] = rho[off] / sigma[off]
    c_est = float(np.min(ratio))
    return c_est, c_est >= 1e-3


def _one_shot_a2(curve, omega, eps, mu, s_range, n, d_max):
    """The straightness audit over the whole pair matrix at once."""
    s = np.linspace(s_range[0], s_range[1], n)
    rho = curve.pairwise_chords(s)
    sigma = np.abs(s[:, None] - s[None, :])
    member = in_asymptotic_set(s[:, None], s[None, :], omega, eps) & (sigma > 0)
    lhs = np.zeros_like(rho)
    lhs[member] = 1.0 - rho[member] / sigma[member]
    weight = np.zeros_like(rho)
    ssq = s[:, None] ** 2 + s[None, :] ** 2
    weight[member] = sigma[member] / (
        (sigma[member] + 1.0) * np.sqrt(1.0 + ssq[member] ** mu))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(member & (weight > 0), lhs / np.where(weight > 0, weight, 1.0), 0.0)
    d_star = max(float(np.max(ratios)) if np.any(member) else 0.0, 0.0)
    if d_star <= d_max:
        violation = float(np.max(lhs - d_star * weight)) if np.any(member) else 0.0
        return d_star, violation, violation <= 1e-12
    return d_max, float(np.max(lhs - d_max * weight)), False


_AUDIT_CASES = {
    "bump": (bump_curve, (-24.0, 24.0), 1e3),
    "bump_a3_w2": (lambda: PlanarCurvatureProfile.gaussian_bump(3.0, 2.0), (-24.0, 24.0), 1e3),
    "straight": (StraightLine, (-24.0, 24.0), 1e3),
    "helix": (None, (-8.0, 8.0), 1e3),
    "power_tail_d_max_2": (lambda: PlanarCurvatureProfile.power_tail(1.0, 1.0, 400.0),
                           (-380.0, 380.0), 2.0),
}


class TestRowBlockAudits:
    @pytest.mark.parametrize("n", [600, 1000])
    @pytest.mark.parametrize("case", list(_AUDIT_CASES))
    def test_blocks_equal_the_one_shot_audits(self, helix, case, n):
        make, s_range, d_max = _AUDIT_CASES[case]
        curve = helix if make is None else make()
        rep1 = check_a1(curve, s_range, n)
        assert (rep1.c_estimate, rep1.pass_a1) == _one_shot_a1(curve, s_range, n)
        rep2 = check_a2(curve, 0.5, 1.0, 1.0, s_range, n, d_max=d_max)
        cert = rep2.a2_certificate
        assert (cert.d, cert.max_violation, rep2.pass_a2) == \
            _one_shot_a2(curve, 0.5, 1.0, 1.0, s_range, n, d_max)


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


class TestCentredArcLength:
    @pytest.mark.parametrize("make", [_wire_samples, lambda: scan_samples(1.0)],
                             ids=["mirror", "off_centre"])
    def test_half_length_is_half_the_spline_length(self, make):
        # reference: the spline's length by a 20-point Gauss-Legendre rule on
        # each sample interval, summed pairwise; the wire's running sums over
        # 8 panels per interval carry rounding of up to 4.3e-14 relative
        # (9.6e-13 on the off-centre wire, as the one-sided sum did before)
        samples = make()
        t = samples[:, 0]
        wire = SampledParametric(samples)
        x, w = np.polynomial.legendre.leggauss(20)
        mid, rad = (t[1:] + t[:-1]) / 2, (t[1:] - t[:-1]) / 2
        speed = np.linalg.norm(CubicSpline(t, samples[:, 1:])(mid[:, None] + rad[:, None] * x, 1),
                               axis=-1)
        total = np.sum(rad * (speed @ w))
        half = wire.half_length
        assert half == pytest.approx(total / 2, rel=1e-13, abs=0)
        wire.point(np.array([-half, half]))
        for s in (-half - 1e-6, half + 1e-6):
            with pytest.raises(OutOfDomainError):
                wire.point(s)

    def test_mirror_image_nodes_get_mirror_image_arc_lengths(self):
        # x and z odd, y even in t: s = 0 is the symmetry point, and
        # gamma(-s) is gamma(s) turned by pi about the y axis
        wire = SampledParametric(_wire_samples())
        s = np.linspace(0.0, wire.half_length, 97)
        assert np.allclose(wire.point(-s), wire.point(s) * [-1.0, 1.0, -1.0],
                           rtol=0, atol=1e-13)


class TestCurveFromDict:
    def test_straight(self):
        c = curve_from_dict({"family": "straight"})
        assert isinstance(c, StraightLine)

    def test_gaussian_profile(self):
        c = curve_from_dict({"family": "planar_curvature",
                             "params": {"profile": "gaussian", "a": 0.5, "w": 2.0},
                             "domain_hint": 30.0})
        assert abs(c.curvature(0.0) - 0.5) < 1e-14

    def test_power_tail_profile(self):
        c = curve_from_dict({"family": "planar_curvature",
                             "params": {"profile": "power_tail", "a": 1.0, "beta": 2.0}})
        assert abs(c.curvature(2.0) - 0.25) < 1e-14

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
