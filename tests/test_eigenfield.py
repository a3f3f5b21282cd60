import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import k0 as bessel_k0

from leakywire.eigenfield import (
    bc_residual,
    default_radii,
    extract_xi_omega,
    fit_trace,
    macdonald_identity,
    reconstruct_field,
    trace_on_shifted,
    trace_values,
)
from leakywire.errors import FitError, GeometryError, NearSingularityError
from leakywire.operators import GridSpec, OperatorCache, s_kappa

from conftest import bump_solution, unfold

RADII = default_radii()
ANGLES = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)


@pytest.fixture(autouse=True)
def _quiet_subgrid_radii_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestMacdonaldIdentity:
    @pytest.mark.parametrize("r,u,kappa", [(1.0, 0.0, 1.0), (0.5, 1.0, 2.0),
                                           (2.0, 0.3, 0.7)])
    def test_quadrature_matches_closed_form(self, r, u, kappa):
        lhs, rhs = macdonald_identity(r, u, kappa)
        assert abs(lhs - rhs) < 1e-6

    def test_reference_value(self):
        lhs, _ = macdonald_identity(1.0, 0.0, 1.0)
        assert lhs == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), abs=1e-15)


class TestReconstructField:
    def test_zero_density_gives_zero_field(self, straight):
        g = GridSpec(16.0, 128)
        out = reconstruct_field(straight, g, 1.0, np.zeros(g.N),
                                [[0.0, 0.0, 1.0], [2.0, 1.0, 3.0]])
        assert all(fs.value == 0.0 for fs in out)

    def test_line_source_profile(self, straight):
        # constant density on a straight wire: transverse profile K0(kr)/2pi
        g = GridSpec(16.0, 512)
        h = np.ones(g.N)
        val = reconstruct_field(straight, g, 1.0, h, [[0.0, 0.0, 1.0]])[0].value
        assert val == pytest.approx(bessel_k0(1.0) / (2.0 * math.pi), abs=1e-6)

    def test_far_field_decay(self, straight):
        g = GridSpec(16.0, 512)
        h = np.ones(g.N)
        kappa = 1.0
        f2 = reconstruct_field(straight, g, kappa, h, [[0.0, 0.0, 2.0]])[0].value
        f4 = reconstruct_field(straight, g, kappa, h, [[0.0, 0.0, 4.0]])[0].value
        assert f4 / f2 <= 2.0 * math.exp(-2.0 * kappa)

    def test_near_singularity_guard(self, straight):
        g = GridSpec(16.0, 128)
        with pytest.raises(NearSingularityError):
            reconstruct_field(straight, g, 1.0, np.ones(g.N), [[0.0, 0.0, 1e-4]])

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_linear_in_density(self, straight, seed):
        g = GridSpec(8.0, 64)
        rng = np.random.default_rng(seed)
        h1 = rng.standard_normal(g.N)
        h2 = rng.standard_normal(g.N)
        pts = [[0.3, 0.1, 0.8], [1.0, -2.0, 0.5]]
        f1 = reconstruct_field(straight, g, 1.2, h1, pts)
        f2 = reconstruct_field(straight, g, 1.2, h2, pts)
        f12 = reconstruct_field(straight, g, 1.2, h1 + h2, pts)
        for a, b, c in zip(f1, f2, f12):
            assert c.value == pytest.approx(a.value + b.value, abs=1e-12)


class TestTraceOnShifted:
    def test_straight_constant_density_is_k0(self, straight):
        g = GridSpec(16.0, 512)
        h = np.ones(g.N)
        vals = trace_values(straight, g, 1.0, h, 0.3, RADII, ANGLES)
        for i, r in enumerate(RADII):
            exact = bessel_k0(1.0 * r) / (2.0 * math.pi)
            assert abs(vals[i].mean() - exact) / exact < 1e-3
            # rotational symmetry: all directions identical
            assert np.ptp(vals[i]) < 1e-12 * exact

    def test_values_increase_as_radius_shrinks(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        tf = trace_on_shifted(_bump(), config.grid, st_.kappa_tilde,
                              st_.h, 0.5, RADII)
        # radii stored descending; the log blow-up makes values increase
        assert np.all(np.diff(tf.values) > 0)

    def test_direction_spread_small(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        vals = trace_values(_bump(), config.grid, st_.kappa_tilde, st_.h, 0.5,
                            np.array([0.01]), ANGLES)
        spread = float(np.ptp(vals[0]) / np.mean(vals[0]))
        assert spread < 0.05

    @pytest.mark.parametrize("radius", [0.5, 3.0])
    def test_radius_at_or_beyond_the_safe_bound_rejected(self, radius):
        # the bump's largest curvature is 1, so r0 = min(0.5, 0.5 / 1) = 0.5:
        # a shifted copy at r >= r0 may touch the wire
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        assert _bump().max_shift_radius() == 0.5
        with pytest.raises(GeometryError, match="safe bound"):
            trace_values(_bump(), config.grid, st_.kappa_tilde, st_.h, 0.5,
                         np.array([0.01, radius]), ANGLES)


def _bump():
    from conftest import bump_curve

    return bump_curve()


class TestExtractXiOmega:
    def test_exact_linear_model(self):
        radii = np.geomspace(1e-3, 1e-2, 8)
        values = 2.0 * np.log(radii) + 5.0
        xi, omega, resid = extract_xi_omega(values, radii)
        assert xi == pytest.approx(-2.0, abs=1e-12)
        assert omega == pytest.approx(5.0, abs=1e-12)
        assert resid < 1e-12

    def test_narrow_span_rejected(self):
        radii = np.geomspace(1e-3, 2e-3, 5)
        with pytest.raises(FitError):
            extract_xi_omega(np.log(radii), radii)

    def test_straight_line_constant_density(self, straight):
        # xi = h/2pi and omega = s_kappa * h for the free transverse profile
        g = GridSpec(16.0, 512)
        h = np.ones(g.N)
        tf = fit_trace(trace_on_shifted(straight, g, 1.0, h, 0.3, RADII))
        assert tf.xi == pytest.approx(1.0 / (2.0 * math.pi), rel=2e-3)
        assert tf.omega == pytest.approx(s_kappa(1.0), rel=2e-2)

    def test_omega_matches_operator_action(self, straight):
        # the regularized trace must reproduce (T + B) h pointwise
        g = GridSpec(16.0, 512)
        h = np.exp(-g.nodes ** 2 / 4.0)
        kappa = 1.3
        qh = unfold(OperatorCache(straight, g).q_matrix(kappa)) @ h
        s = 0.4
        tf = fit_trace(trace_on_shifted(straight, g, kappa, h, s, RADII))
        idx = int(round((s - g.nodes[0]) / g.delta))
        assert tf.omega == pytest.approx(qh[idx], rel=1e-2)


class TestBoundaryCondition:
    def test_bump_ground_state_residual(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        resid = bc_residual(_bump(), config.grid, st_.kappa_tilde, st_.h,
                            config.alpha, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert resid <= 0.05

    def test_xi_matches_density_over_2pi(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        g = config.grid
        dens = CubicSpline(g.nodes, st_.h)
        for s in (-1.0, 0.5, 1.5):
            tf = fit_trace(trace_on_shifted(_bump(), g, st_.kappa_tilde,
                                            st_.h, s, RADII))
            assert 2.0 * math.pi * tf.xi == pytest.approx(float(dens(s)), rel=0.02)

    def test_per_direction_xi_agreement(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        vals = trace_values(_bump(), config.grid, st_.kappa_tilde, st_.h,
                            0.5, RADII[::-1], ANGLES)
        xis = [extract_xi_omega(vals[:, a], RADII[::-1])[0]
               for a in range(len(ANGLES))]
        spread = (max(xis) - min(xis)) / abs(np.mean(xis))
        assert spread <= 0.05

    def test_alpha_zero_formula_well_defined(self, straight):
        # alpha = 0 reduces the defect to |omega| against the |xi| scale
        g = GridSpec(16.0, 256)
        h = np.exp(-g.nodes ** 2 / 2.0)
        val = bc_residual(straight, g, 1.0, h, 0.0, [0.25])
        assert np.isfinite(val)
        assert val > 0
