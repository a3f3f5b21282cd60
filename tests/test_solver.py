import gc
import math
import weakref

import numpy as np
import pytest

from leakywire.curve import PlanarCurvatureProfile, SampledParametric
from leakywire.errors import AssumptionError, ConfigError, GeometryError
from leakywire.operators import GridSpec, kappa0, zeta0
import leakywire.solver as solver_mod
from leakywire.solver import (
    SolveConfig,
    converge_study,
    find_bound_states,
    spectrum_scan,
    states_to_dict,
)

from conftest import bump_solution


class TestStraightLineNullity:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_no_states(self, straight, alpha):
        for grid in (GridSpec(16.0, 128), GridSpec(24.0, 256)):
            config = SolveConfig(alpha=alpha, grid=grid)
            assert find_bound_states(straight, config) == []


class TestBumpBinding:
    def test_state_exists_below_edge(self):
        config, states = bump_solution(24.0, 1024)
        accepted = [s for s in states if not s.threshold_uncertain]
        assert len(accepted) >= 1
        st = accepted[0]
        z0 = zeta0(0.0)
        assert st.energy < z0 - 1e-4 * abs(z0)
        assert st.kappa_tilde > kappa0(0.0)
        assert st.gap > 0
        assert st.residual <= config.tol_lambda

    def test_grid_agreement(self):
        _, states_a = bump_solution(24.0, 1024)
        _, states_b = bump_solution(36.0, 2048)
        e_a = states_a[0].energy
        e_b = states_b[0].energy
        assert abs(e_a - e_b) / abs(e_b) < 1e-3

    def test_states_sorted_with_distinct_branches(self):
        _, states = bump_solution(24.0, 1024)
        energies = [s.energy for s in states]
        assert energies == sorted(energies)
        branches = [s.branch for s in states]
        assert len(branches) == len(set(branches))

    def test_ground_eigenvector_positive(self):
        # Perron-Frobenius-style check on the grid interior
        _, states = bump_solution(24.0, 1024)
        h = states[0].h
        peak_sign = math.copysign(1.0, h[int(np.argmax(np.abs(h)))])
        assert np.min(h * peak_sign) > 0

    def test_unique_sign_change_per_branch(self):
        config, states = bump_solution(24.0, 1024)
        st = states[0]
        curve = PlanarCurvatureProfile.gaussian_bump(1.0, 1.0, 56.0)
        sc, crossings = spectrum_scan(
            curve, config, (kappa0(0.0) * (1 + 1e-4), 4 * kappa0(0.0)), 12)
        ground = [c for c in crossings if c.branch == 0]
        assert len(ground) == 1
        assert ground[0].kappa == pytest.approx(st.kappa_tilde, rel=1e-8)

    def test_weak_bending_reported_not_dropped(self):
        # near-threshold branches must surface as flagged records (or real
        # states), never vanish silently
        for a in (0.05, 0.1, 0.2):
            curve = PlanarCurvatureProfile.gaussian_bump(a, 1.0, 56.0)
            config = SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512))
            states = find_bound_states(curve, config)
            assert len(states) >= 1
            st = states[0]
            if st.threshold_uncertain:
                assert st.diagnostics
            else:
                assert st.energy < zeta0(0.0)

    def test_branch_cap_raises_instead_of_dropping(self):
        # this strong bend binds 5 states; tracking 3 branches must not return
        # 3 of them as if they were all
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        with pytest.raises(ConfigError, match="raise -m"):
            find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                 m_branches=3))
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                      m_branches=6))
        assert len(states) == 5
        assert sorted(s.branch for s in states) == [0, 1, 2, 3, 4]

    def test_inadmissible_curve_rejected(self):
        # a nearly closed circle: endpoints almost touch, so the chord-arc
        # constant collapses and the audit must veto the solve
        ang = np.linspace(-np.pi, np.pi, 401)
        loop = SampledParametric(
            np.column_stack([ang, np.cos(ang), np.sin(ang), np.zeros_like(ang)]))
        config = SolveConfig(alpha=0.0, grid=GridSpec(3.14, 64))
        with pytest.raises(AssumptionError):
            find_bound_states(loop, config)


class TestSpectrumScan:
    def test_straight_crossing_at_kappa0(self, straight):
        for alpha in (0.0, 0.3):
            config = SolveConfig(alpha=alpha, grid=GridSpec(16.0, 256))
            k0 = kappa0(alpha)
            _, crossings = spectrum_scan(straight, config, (0.5 * k0, 3.0 * k0), 15)
            ground = [c for c in crossings if c.branch == 0]
            assert len(ground) == 1
            assert abs(ground[0].kappa - k0) / k0 < 1e-10

    def test_no_crossings_when_alpha_above_curve(self, straight):
        config = SolveConfig(alpha=5.0, grid=GridSpec(16.0, 128))
        k0 = kappa0(0.0)
        _, crossings = spectrum_scan(straight, config, (k0, 3.0 * k0), 8)
        assert crossings == []

    def test_bump_crossing_above_kappa0(self):
        config, states = bump_solution(24.0, 1024)
        assert states[0].kappa_tilde > kappa0(0.0)

    def test_no_kappa_built_twice(self, bump, monkeypatch):
        # Brent's bracket endpoints are scan samples; they must come from the
        # evaluator's memo, not from a second build of Q
        built = []
        q_matrix = solver_mod.OperatorCache.q_matrix

        def counting(self, kappa):
            built.append(float(kappa))
            return q_matrix(self, kappa)

        monkeypatch.setattr(solver_mod.OperatorCache, "q_matrix", counting)
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128), m_branches=2)
        k0 = kappa0(0.0)
        sc, crossings = spectrum_scan(bump, config, (0.5 * k0, 4.0 * k0), 10)
        assert crossings
        assert set(sc.kappas) <= set(built)
        assert len(built) == len(set(built))

    def test_bad_range_rejected(self, straight):
        config = SolveConfig(alpha=0.0, grid=GridSpec(8.0, 64))
        with pytest.raises(GeometryError):
            spectrum_scan(straight, config, (2.0, 1.0), 5)


class TestConvergeStudy:
    def test_straight_vacuous_pass(self, straight):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128), refine_levels=2)
        report = converge_study(straight, config)
        assert report.accepted
        assert all(lv.energy is None for lv in report.levels)

    def test_bump_second_order(self, bump):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 512), refine_levels=3)
        report = converge_study(bump, config)
        assert report.accepted
        assert report.observed_order == pytest.approx(2.0, abs=0.5)
        assert report.richardson_energy is not None
        # larger box moves the energy by far less than the level gap scale
        assert report.tail_change < 1e-2

    def test_one_branch_is_enough_for_the_ground_state(self, bump):
        # the ground state is branch 0, so the m_branches cap must not veto a
        # study that reads only it, although a solve with m = 1 is refused
        one = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256), refine_levels=2,
                          m_branches=1)
        with pytest.raises(ConfigError, match="raise -m"):
            find_bound_states(bump, one)
        capped = converge_study(bump, one)
        full = converge_study(bump, SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256),
                                                refine_levels=2))
        assert capped.levels[0].energy is not None
        for a, b in zip(capped.levels, full.levels):
            assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0.0)

    def test_too_few_levels_rejected(self, straight):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128), refine_levels=1)
        with pytest.raises(GeometryError):
            converge_study(straight, config)


class TestSerialization:
    def test_states_json_shape(self):
        config, states = bump_solution(24.0, 1024)
        doc = states_to_dict(config.alpha, config.grid, states)
        assert doc["alpha"] == 0.0
        assert doc["zeta0"] == pytest.approx(zeta0(0.0), abs=1e-15)
        assert doc["grid"] == {"L": 24.0, "N": 1024}
        for entry in doc["states"]:
            assert set(entry) == {"kappa", "energy", "gap", "branch",
                                  "residual", "threshold_uncertain"}

    def test_config_validation(self):
        with pytest.raises(GeometryError):
            SolveConfig(alpha=0.0, grid=GridSpec(8.0, 64), kappa_bracket_growth=0.5)
        with pytest.raises(GeometryError):
            SolveConfig(alpha=0.0, grid=GridSpec(8.0, 64), tol_lambda=-1.0)


class TestCacheLifetime:
    @pytest.mark.parametrize("search", [
        lambda curve, config: find_bound_states(curve, config),
        lambda curve, config: spectrum_scan(curve, config, (1.0, 3.0), 6),
    ], ids=["find_bound_states", "spectrum_scan"])
    def test_cache_freed_on_return_without_gc(self, bump, monkeypatch, search):
        # brentq holds its objective in a reference cycle; the search must not
        # leave the N x N operator arrays reachable from it
        caches = []

        class TrackedCache(solver_mod.OperatorCache):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(weakref.ref(self))

        monkeypatch.setattr(solver_mod, "OperatorCache", TrackedCache)
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128), m_branches=2)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            search(bump, config)
            assert len(caches) == 1
            assert caches[0]() is None
        finally:
            if was_enabled:
                gc.enable()
