import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import k0 as bessel_k0

from leakywire.curve import eval_frame, eval_point
from leakywire.eigenfield import (
    _GLV_NODES,
    _GLV_WEIGHTS,
    bc_residual,
    default_radii,
    extract_xi_omega,
    macdonald_identity,
    trace_on_shifted,
    trace_values,
)
from leakywire.errors import FitError, GeometryError
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


def _per_angle_reference(curve, grid, kappa, h, s, radii, angles, window_cells=6):
    """``trace_values`` as one far sum and one near sum per direction."""
    nodes, delta = grid.nodes, grid.delta
    src = np.asarray(curve.point(nodes), dtype=float)
    dens = CubicSpline(nodes, h)
    j0 = int(np.clip(round((s - nodes[0]) / delta), 0, grid.N - 1))
    jlo = max(0, j0 - window_cells)
    jhi = min(grid.N - 1, j0 + window_cells)
    far = np.ones(grid.N, dtype=bool)
    far[jlo:jhi + 1] = False
    win_lo = nodes[jlo] - delta / 2.0
    win_hi = nodes[jhi] + delta / 2.0
    fr = eval_frame(curve, s)
    base = eval_point(curve, s)
    dirs = (np.cos(angles)[:, None] * fr.b[None, :]
            + np.sin(angles)[:, None] * fr.n[None, :])
    out = np.empty((radii.size, angles.size))
    for ir, r in enumerate(radii):
        vlo = math.asinh((win_lo - s) / r)
        vhi = math.asinh((win_hi - s) / r)
        v = 0.5 * (vhi - vlo) * (_GLV_NODES + 1.0) + vlo
        u = r * np.sinh(v)
        jac = 0.5 * (vhi - vlo) * r * np.cosh(v)
        sprime = s + u
        gpts = np.asarray(curve.point(sprime), dtype=float)
        hvals = dens(sprime)
        for ia in range(angles.size):
            x = base + r * dirs[ia]
            dfar = np.linalg.norm(x[None, :] - src[far], axis=1)
            far_sum = delta * float(np.sum(np.exp(-kappa * dfar)
                                           / (4.0 * math.pi * dfar) * h[far]))
            dnear = np.linalg.norm(x[None, :] - gpts, axis=1)
            near = float(np.sum(_GLV_WEIGHTS * jac * np.exp(-kappa * dnear)
                                / (4.0 * math.pi * dnear) * hvals))
            out[ir, ia] = far_sum + near
    return out


class TestTraceValues:
    """All directions of a radius are summed at once; the per-angle loop
    above is the reference."""

    @pytest.mark.parametrize("s", [-2.0, -0.37, 0.0, 0.5, 1.9])
    def test_bump_equals_the_per_angle_loop(self, s):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        args = (_bump(), config.grid, st_.kappa_tilde, st_.h, s, RADII[::-1], ANGLES)
        assert np.array_equal(trace_values(*args), _per_angle_reference(*args))

    @pytest.mark.parametrize("s", [-3.0, 0.0, 0.8, 4.1])
    def test_sampled_helix_equals_the_per_angle_loop(self, helix, s):
        g = GridSpec(10.0, 256)
        h = np.exp(-g.nodes ** 2 / 8.0) * (1.0 + 0.3 * np.sin(g.nodes))
        angles = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        args = (helix, g, 0.9, h, s, np.array([0.02, 5e-3, 1e-3]), angles)
        assert np.array_equal(trace_values(*args), _per_angle_reference(*args))


class TestReconstructField:
    """The single-layer field, evaluated through its traces on shifted curves."""

    def test_zero_density_gives_zero_field(self, straight):
        g = GridSpec(16.0, 128)
        vals = trace_values(straight, g, 1.0, np.zeros(g.N), 0.3, RADII, ANGLES)
        assert np.all(vals == 0.0)

    def test_line_source_profile(self, straight):
        # constant density on a straight wire: transverse profile K0(kr)/2pi
        # at line-source distances, below the safe bound r0 = 0.5
        g = GridSpec(16.0, 512)
        h = np.ones(g.N)
        radii = np.array([0.4, 0.1])
        vals = trace_values(straight, g, 1.0, h, 0.3, radii, ANGLES)
        for i, r in enumerate(radii):
            exact = bessel_k0(1.0 * r) / (2.0 * math.pi)
            assert abs(vals[i].mean() - exact) / exact < 1e-3
            assert np.ptp(vals[i]) < 1e-12 * exact

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_linear_in_density(self, straight, seed):
        g = GridSpec(8.0, 64)
        rng = np.random.default_rng(seed)
        h1 = rng.standard_normal(g.N)
        h2 = rng.standard_normal(g.N)
        radii = np.array([0.4, 0.1, 0.01])
        f1, f2, f12 = (trace_values(straight, g, 1.2, h, 0.3, radii, ANGLES)
                       for h in (h1, h2, h1 + h2))
        np.testing.assert_allclose(f12, f1 + f2, rtol=1e-12, atol=1e-12)


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
        tf = trace_on_shifted(straight, g, 1.0, h, 0.3, RADII)
        assert tf.xi == pytest.approx(1.0 / (2.0 * math.pi), rel=2e-3)
        assert tf.omega == pytest.approx(s_kappa(1.0), rel=2e-2)

    def test_omega_matches_operator_action(self, straight):
        # the regularized trace must reproduce (T + B) h pointwise
        g = GridSpec(16.0, 512)
        h = np.exp(-g.nodes ** 2 / 4.0)
        kappa = 1.3
        qh = unfold(OperatorCache(straight, g).q_matrix(kappa)) @ h
        s = 0.4
        tf = trace_on_shifted(straight, g, kappa, h, s, RADII)
        idx = int(round((s - g.nodes[0]) / g.delta))
        assert tf.omega == pytest.approx(qh[idx], rel=1e-2)


class TestBoundaryCondition:
    def test_bump_ground_state_residual(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        resid, _ = bc_residual(_bump(), config.grid, st_.kappa_tilde, st_.h,
                               config.alpha, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert resid <= 0.05

    def test_xi_matches_density_over_2pi(self):
        config, states = bump_solution(24.0, 1024)
        st_ = states[0]
        g = config.grid
        dens = CubicSpline(g.nodes, st_.h)
        for s in (-1.0, 0.5, 1.5):
            tf = trace_on_shifted(_bump(), g, st_.kappa_tilde, st_.h, s, RADII)
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
        val, _ = bc_residual(straight, g, 1.0, h, 0.0, [0.25])
        assert np.isfinite(val)
        assert val > 0
