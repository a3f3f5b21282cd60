import gc
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from leakywire.curve import PlanarCurvatureProfile, SampledParametric, check_a1
from leakywire.errors import (
    AssumptionError,
    BracketFailureError,
    ConfigError,
    GeometryError,
    NumericalFailureError,
)
from leakywire.operators import GridSpec, kappa0, zeta0
import leakywire.solver as solver_mod
import leakywire.spectral as spectral_mod
from leakywire.solver import (
    SolveConfig,
    converge_study,
    find_bound_states,
    spectrum_scan,
    states_to_dict,
)

from conftest import bump_curve, bump_solution


class TestStraightLineNullity:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    def test_no_states(self, straight, alpha):
        for grid in (GridSpec(16.0, 128), GridSpec(24.0, 256)):
            config = SolveConfig(alpha=alpha, grid=grid)
            assert find_bound_states(straight, config) == []

    @pytest.mark.parametrize("wire", ["straight", "sampled", "tilted"])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_straight_wires_stay_empty_under_the_lift_floor(self, straight, wire, n):
        # straight wires lift the top value above s_kappa by rounding only
        # (at most about 5e-14 here), far below the 1e-12 lift floor
        t = np.linspace(-30.0, 30.0, 601)
        direction = np.array([1.0, 2.0, 2.0]) / 3.0
        curve = {"straight": straight,
                 "sampled": SampledParametric(np.column_stack([t, t, 0 * t, 0 * t])),
                 "tilted": SampledParametric(np.column_stack([t, np.outer(t, direction)]))}[wire]
        for alpha in (-0.3, 0.0, 0.3):
            config = SolveConfig(alpha=alpha, grid=GridSpec(24.0, n))
            assert find_bound_states(curve, config) == []


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

    @pytest.mark.parametrize("a", [0.003, 0.0003])
    def test_weakly_bent_wire_gives_a_flagged_record(self, a):
        # the lift scales as a^2: 3.2e-9 and 3.2e-11 here, below alpha but
        # above the lift floor, so the state is flagged, never dropped
        curve = PlanarCurvatureProfile.gaussian_bump(a, 1.0, 56.0)
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512)))
        assert len(states) == 1 and states[0].threshold_uncertain
        lift = states[0].diagnostics["lambda_start"] - states[0].diagnostics["s_kappa_start"]
        assert 1e-12 < lift < 1e-8

    def test_branch_cap_raises_instead_of_dropping(self, monkeypatch):
        # this strong bend binds 5 states; tracking 3 or 4 branches must not
        # return 3 or 4 of them as if they were all.  The cap is read off the
        # bracket start, so it is refused before any branch is searched
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        for m in (3, 4):
            counts = _counting_solves(monkeypatch)
            with pytest.raises(ConfigError, match=f"the last of the {m} tracked branches"):
                find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                     m_branches=m))
            assert counts == {"q": 1, "solve": 1}
            monkeypatch.undo()
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                      m_branches=6))
        assert len(states) == 5
        assert sorted(s.branch for s in states) == [0, 1, 2, 3, 4]

    def test_each_state_records_its_parity(self):
        # the bump is even, so Q splits into parity blocks and each branch is
        # followed in its own block.  The even branch that starts 4th crosses
        # the odd one below alpha: it is searched before it but is labelled 4,
        # its energy rank, as the one-block search labels it
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                      m_branches=6))
        by_branch = sorted(states, key=lambda s: s.branch)
        assert [s.diagnostics["evaluations"] for s in by_branch] == [8, 14, 20, 35, 27]
        assert [s.diagnostics["parity"] for s in by_branch] == [
            "even", "even", "even", "odd", "even"]
        for s in states:
            mirrored = s.h[::-1] if s.diagnostics["parity"] == "even" else -s.h[::-1]
            assert np.array_equal(s.h, mirrored)

    def test_asymmetric_wire_records_no_parity(self, off_centre_wire):
        config = SolveConfig(alpha=0.0, grid=GridSpec(10.0, 128), m_branches=3)
        states = find_bound_states(off_centre_wire, config)
        assert states
        assert {s.diagnostics["parity"] for s in states} == {None}

    def test_ground_only_asks_for_one_eigenvalue(self, bump, monkeypatch):
        # a ground-state search tracks branch 0 alone, whatever m_branches is
        asked = []
        top_eigen = spectral_mod.top_eigen

        def spy(matrix, m, vectors=False, seed=None):
            asked.append(m)
            return top_eigen(matrix, m, vectors, seed)

        monkeypatch.setattr(spectral_mod, "top_eigen", spy)
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128), m_branches=8)
        states = find_bound_states(bump, config, ground_only=True)
        assert len(states) == 1
        assert asked and set(asked) == {1}

    @pytest.mark.parametrize("dense_limit", [None, 100], ids=["dense", "lanczos"])
    def test_ground_only_record_is_the_full_search_ground_state(self, monkeypatch,
                                                                 dense_limit):
        if dense_limit is not None:
            monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", dense_limit)
            monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", dense_limit)
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        grid = GridSpec(24.0, 512)
        full = find_bound_states(curve, SolveConfig(alpha=0.0, grid=grid, m_branches=6))
        (ground,) = find_bound_states(curve, SolveConfig(alpha=0.0, grid=grid),
                                      ground_only=True)
        lowest = [s for s in full if not s.threshold_uncertain][0]
        assert ground.branch == lowest.branch == 0
        assert not ground.threshold_uncertain
        assert ground.kappa_tilde == pytest.approx(lowest.kappa_tilde, rel=1e-12, abs=0.0)
        assert ground.energy == pytest.approx(lowest.energy, rel=1e-12, abs=0.0)

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
        # alpha 0.5 lies above the curve on the range, and keeps it inside the
        # scan's limit, 1e6 kappa0(0.5) = 4.9e4
        config = SolveConfig(alpha=0.5, grid=GridSpec(16.0, 128))
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
        q_matrix = spectral_mod.OperatorCache.q_matrix

        def counting(self, kappa):
            built.append(float(kappa))
            return q_matrix(self, kappa)

        monkeypatch.setattr(spectral_mod.OperatorCache, "q_matrix", counting)
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("k_max", [math.inf, 1e160, 1.001e6])
    def test_range_above_the_search_limit_rejected(self, straight, monkeypatch, alpha, k_max):
        # find_bound_states' own limit, BRACKET_MAX_FACTOR * kappa0; kappa^2
        # overflows in the T multiplier from about 1e154.  Refused before any Q
        monkeypatch.setattr(spectral_mod, "OperatorCache",
                            lambda *args: pytest.fail("an operator was built"))
        config = SolveConfig(alpha=alpha, grid=GridSpec(8.0, 64))
        k_max *= kappa0(alpha)
        with pytest.raises(GeometryError, match="search limit"):
            spectrum_scan(straight, config, (kappa0(alpha), k_max), 5)

    def test_crossing_on_the_last_sample_recorded(self, bump):
        # alpha equal to lambda_0 at the last sample: branch 0 crosses exactly
        # there, with no later sample to bracket it.  The samples do not
        # depend on alpha, so a scan at another alpha gives that value
        grid = GridSpec(16.0, 256)
        first, _ = spectrum_scan(bump, SolveConfig(alpha=0.0, grid=grid, m_branches=2),
                                 (0.5, 3.0), 8)
        alpha = float(first.lambdas[-1, 0])
        config = SolveConfig(alpha=alpha, grid=grid, m_branches=2)
        sc, crossings = spectrum_scan(bump, config, (0.5, 3.0), 8)
        assert sc.kappas[-1] == 3.0 and sc.lambdas[-1, 0] == alpha
        assert [(c.branch, c.kappa) for c in crossings if c.branch == 0] == [(0, 3.0)]
        assert [c.branch for c in crossings] == [0, 1]

    @pytest.mark.parametrize("case", ["bump", "off_centre_wire", "helix", "straight"])
    def test_ritz_steps_keep_the_dense_scan(self, monkeypatch, request, case):
        # samples and Brent points take certified Ritz steps; the samples are
        # lambda_curve's dense values within the certified bound, and each
        # crossing keeps its branch and moves by rounding only
        curve = request.getfixturevalue(case)
        grid, m = {"helix": (GridSpec(12.0, 256), 3),
                   "off_centre_wire": (GridSpec(10.0, 256), 8)}.get(case, (GridSpec(16.0, 256), 8))
        config = SolveConfig(alpha=0.0, grid=grid, m_branches=m)
        k0 = kappa0(0.0)
        sc, crossings = spectrum_scan(curve, config, (0.5 * k0, 5.0 * k0), 20)
        dense = spectral_mod.lambda_curve(curve, grid, sc.kappas, m)
        # the dense scan: every block of every values solve is solved in full,
        # for values only, so no sample or Brent point has vectors to step from
        plain = spectral_mod.top_eigen
        monkeypatch.setattr(spectral_mod, "top_eigen", lambda q, m, vectors=False, seed=None:
                            plain(q, m, vectors and seed is None,
                                  None if seed is None else (None,) * len(q)))
        dense_sc, dense_crossings = spectrum_scan(curve, config, (0.5 * k0, 5.0 * k0), 20)
        assert sc.diagnostics["ritz_steps"] > 0
        assert dense_sc.diagnostics["ritz_steps"] == 0
        assert np.array_equal(dense_sc.lambdas, dense.lambdas)
        assert np.max(np.abs(sc.lambdas - dense.lambdas)) <= spectral_mod.RITZ_BOUND
        assert [c.branch for c in crossings] == [c.branch for c in dense_crossings]
        for c, d in zip(crossings, dense_crossings):
            assert c.kappa == pytest.approx(d.kappa, rel=1e-12, abs=0.0)

    def test_scan_diagnostics_count_the_solves(self, bump, off_centre_wire):
        # each values solve either steps every block or solves some block in
        # full, so on one block evaluations = dense_solves + ritz_steps.  The
        # off-centre wire's first sample step fails its certificate on 3
        # Krylov blocks and passes on more, so its block steps through the
        # samples; each step, accepted or not, makes 3 to RITZ_DEPTH block
        # products, and every value is lambda_curve's within the bound
        keys = {"evaluations", "dense_solves", "ritz_steps", "ritz_fallbacks",
                "ritz_blocks", "ritz_worst_bound"}
        k0 = kappa0(0.0)
        grid = GridSpec(10.0, 256)
        one, _ = spectrum_scan(off_centre_wire, SolveConfig(alpha=0.0, grid=grid),
                               (0.5 * k0, 5.0 * k0), 20)
        d = one.diagnostics
        assert set(d) == keys
        assert d["evaluations"] == d["dense_solves"] + d["ritz_steps"]
        assert 1 <= d["dense_solves"] < 10
        steps = d["ritz_steps"] + d["ritz_fallbacks"]
        assert 3 * steps <= d["ritz_blocks"] <= spectral_mod.RITZ_DEPTH * steps
        dense = spectral_mod.lambda_curve(off_centre_wire, grid, one.kappas, 8).lambdas
        assert np.max(np.abs(one.lambdas - dense)) <= spectral_mod.RITZ_BOUND
        # on the split bump both blocks step from sample to sample over most
        # of the range, so fewer than half the samples are full solves; a
        # values solve that solved no block in full stepped both
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256), m_branches=8)
        sc, _ = spectrum_scan(bump, config, (0.5 * k0, 5.0 * k0), 20)
        d = sc.diagnostics
        assert set(d) == keys
        assert 1 <= d["dense_solves"] < 10
        assert d["ritz_steps"] >= 2 * (d["evaluations"] - d["dense_solves"])
        assert 0 <= d["ritz_worst_bound"] <= spectral_mod.RITZ_BOUND

    def test_samples_do_not_depend_on_alpha(self, scan_wire):
        # samples chain only to samples, never to Brent points, so two alphas
        # with different crossings give the same samples bit for bit
        grid = GridSpec(16.0, 256)
        scans = [spectrum_scan(scan_wire, SolveConfig(alpha=alpha, grid=grid), (0.4, 4.0), 12)
                 for alpha in (0.0, 0.2)]
        (a, cross_a), (b, cross_b) = scans
        assert [c.kappa for c in cross_a] != [c.kappa for c in cross_b]
        assert a.diagnostics["ritz_steps"] > 0
        assert np.array_equal(a.kappas, b.kappas)
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_a_block_stops_stepping_at_its_first_failed_sample(self, monkeypatch,
                                                              off_centre_wire):
        # one block, no mirror symmetry: once a sample's step fails, the block
        # is solved for values only at every later sample, with no step, and
        # those samples are lambda_curve's values bit for bit
        grid = GridSpec(10.0, 256)
        steps, sample_steps, bounds = [], [], []
        ritz_step, solve = spectral_mod._ritz_step, spectral_mod._BranchEvaluator.solve

        def logged_solve(ev, kappa, block=None, seed=None, vectors=False):
            before = len(steps)
            rec = solve(ev, kappa, block, seed, vectors)
            if seed is None or not vectors:   # a sample: the first, or a later one
                sample_steps.append(len(steps) - before)
                bounds.append(rec.bounds[0])
            return rec

        monkeypatch.setattr(spectral_mod, "_ritz_step",
                            lambda *args: steps.append(1) or ritz_step(*args))
        monkeypatch.setattr(spectral_mod._BranchEvaluator, "solve", logged_solve)
        k0 = kappa0(0.0)
        sc, _ = spectrum_scan(off_centre_wire, SolveConfig(alpha=0.0, grid=grid),
                              (0.5 * k0, 5.0 * k0), 20)
        failed = next(i for i, b in enumerate(bounds) if i > 0 and b is None)
        assert sample_steps[0] == 0 and bounds[0] is None
        assert sample_steps[1:failed + 1] == [1] * failed
        assert all(b <= spectral_mod.RITZ_BOUND for b in bounds[1:failed])
        assert sample_steps[failed + 1:] == [0] * (19 - failed)
        assert bounds[failed:] == [None] * (20 - failed)
        monkeypatch.undo()   # lambda_curve's values solves are no scan samples
        dense = spectral_mod.lambda_curve(off_centre_wire, grid, sc.kappas, 8).lambdas
        assert np.array_equal(sc.lambdas[failed:], dense[failed:])
        assert np.max(np.abs(sc.lambdas - dense)) <= spectral_mod.RITZ_BOUND

    def test_straight_line_is_s_kappa_on_a_stepped_scan(self, straight):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256))
        k0 = kappa0(0.0)
        sc, _ = spectrum_scan(straight, config, (0.5 * k0, 5.0 * k0), 20)
        assert sc.diagnostics["ritz_steps"] >= 2 * 10
        assert np.max(np.abs(sc.lambdas[:, 0] - sc.s_k_values)) < 1e-12


def _random_wires(seed):
    """Endless (curve, alpha) draws of planar wires from a fixed seed, in turn
    a Gaussian bump, a power tail and a sum of one to three Gaussians of
    random sign, width and centre (off centre, so it runs as one block)."""
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        if i % 3 == 0:
            curve = PlanarCurvatureProfile.gaussian_bump(
                rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0), 48.0)
        elif i % 3 == 1:
            curve = PlanarCurvatureProfile.power_tail(
                rng.uniform(0.3, 1.2), rng.uniform(1.5, 3.0), 48.0)
        else:
            n = int(rng.integers(1, 4))
            sign, width, centre = (rng.choice([-1.0, 1.0], n), rng.uniform(0.5, 1.5, n),
                                   rng.uniform(-3.0, 3.0, n))
            curve = PlanarCurvatureProfile(
                lambda s, sign=sign, width=width, centre=centre: sum(
                    g * np.exp(-((s - c) / w) ** 2) for g, w, c in zip(sign, width, centre)),
                48.0)
        yield curve, rng.uniform(-0.1, 0.1)


class TestTheoremOnRandomWires:
    def test_every_bent_wire_binds_and_its_scan_crosses_at_its_states(self):
        # the paper's theorem: a bent, asymptotically straight wire binds at
        # least one state below zeta0.  Each state is a root within
        # tol_lambda, and a scan from the bracket start past the last state,
        # tracking as many branches as there are states, crosses alpha once
        # per branch, at the state of that energy rank
        grid = GridSpec(16.0, 256)
        wires = (w for w in _random_wires(2026)
                 if check_a1(w[0], (-grid.L, grid.L), 256).pass_a1)
        for _ in range(10):
            curve, alpha = next(wires)
            config = SolveConfig(alpha=alpha, grid=grid, m_branches=32)
            runs = []
            for _ in range(2):
                states = find_bound_states(curve, config)
                assert states
                assert all(st.energy < zeta0(alpha) for st in states)
                assert all(st.residual <= config.tol_lambda for st in states)
                k_start = kappa0(alpha) * (1 + solver_mod.BRACKET_START_OFFSET)
                k_end = 1.05 * max(st.kappa_tilde for st in states)
                sc, crossings = spectrum_scan(
                    curve, SolveConfig(alpha=alpha, grid=grid, m_branches=len(states)),
                    (k_start, k_end), 20)
                assert [c.branch for c in crossings] == list(range(len(states)))
                for c in crossings:
                    assert c.kappa == pytest.approx(states[c.branch].kappa_tilde,
                                                    rel=1e-9, abs=0.0)
                runs.append((states_to_dict(alpha, grid, states), sc.lambdas,
                             [c.kappa for c in crossings]))
            (doc, lambdas, kappas), (doc2, lambdas2, kappas2) = runs
            assert doc == doc2 and kappas == kappas2
            assert np.array_equal(lambdas, lambdas2)


def _closed_form_evaluator(monkeypatch, lam):
    """A one-branch _BranchEvaluator whose Q is the one-block stack [[[lam(kappa)]]]:
    the real memo and eigensolve over a known lambda(kappa).  Returns it with
    the list of kappas Q was built at."""
    built = []

    class ClosedForm:
        parity = False

        def __init__(self, curve, grid):
            pass

        def q_matrix(self, kappa):
            built.append(kappa)
            return np.array([[[lam(kappa)]]])

    monkeypatch.setattr(spectral_mod, "OperatorCache", ClosedForm)
    return spectral_mod._BranchEvaluator(None, GridSpec(8.0, 64), 1), built


class TestLogKappaRootSearch:
    alpha = 0.0
    k0 = kappa0(0.0)
    k_start = k0 * (1.0 + solver_mod.BRACKET_START_OFFSET)

    def _solve(self, ev):
        config = SolveConfig(alpha=self.alpha, grid=GridSpec(8.0, 64), tol_kappa_rel=1e-12)
        return solver_mod._solve_branch(ev, ev.solve(self.k_start), 0, self.alpha,
                                        self.k_start, self.k0, zeta0(self.alpha), config)

    def test_shallow_branch_grows_the_bracket(self, monkeypatch):
        # a tenth of the free-line slope: the predicted upper end falls short
        lift = 0.05
        lam = lambda k: self.alpha + lift - 0.1 * math.log(k / self.k_start) / (2 * math.pi)
        ev, built = _closed_form_evaluator(monkeypatch, lam)
        st = self._solve(ev)
        root = self.k_start * math.exp(20 * math.pi * lift)
        assert st.kappa_tilde == pytest.approx(root, rel=1e-11, abs=0.0)
        assert built[1] == pytest.approx(self.k_start * math.exp(2 * math.pi * lift),
                                         rel=1e-15)
        lo, hi = st.diagnostics["bracket"]
        assert self.k_start < lo < root < hi
        assert lam(lo) > self.alpha > lam(hi)
        # values come from the memo; only the root's eigenvector solve rebuilds
        assert len(set(built[:-1])) == len(built) - 1 == st.diagnostics["evaluations"]
        assert built[-1] == st.kappa_tilde

    def test_no_crossing_raises(self, monkeypatch):
        ev, built = _closed_form_evaluator(monkeypatch, lambda k: self.alpha + 1.0)
        with pytest.raises(BracketFailureError):
            self._solve(ev)
        assert max(built) == solver_mod.BRACKET_MAX_FACTOR * self.k0
        assert len(built) == len(set(built))

    def test_no_kappa_evaluated_twice(self, monkeypatch):
        # every Q build is at a new kappa except the eigenvector solve at each
        # root, also when several branches share the evaluator's memo
        built = []
        q_matrix = spectral_mod.OperatorCache.q_matrix

        def counting(self, kappa):
            built.append(float(kappa))
            return q_matrix(self, kappa)

        monkeypatch.setattr(spectral_mod.OperatorCache, "q_matrix", counting)
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                      m_branches=6))
        roots = [s.kappa_tilde for s in states]
        assert len(roots) == 5
        assert Counter(built) - Counter(set(built)) == Counter(roots)
        assert max(s.diagnostics["evaluations"] for s in states) == len(set(built))

    @pytest.mark.parametrize("alpha", [3.0, 8.0])
    def test_large_alpha_bracket_stays_above_the_start(self, alpha):
        # kappa0(alpha) = 1.12 exp(-2 pi alpha) is tiny here (1e-22 at 8), so
        # the step cap must be relative to k_lo: an absolute cap would put
        # the first upper end below k_start and walk k_lo down to 0
        curve = PlanarCurvatureProfile.gaussian_bump(1.0, 1.0, 24.0)
        config = SolveConfig(alpha=alpha, grid=GridSpec(16.0, 128), m_branches=4)
        (st,) = find_bound_states(curve, config, ground_only=True)
        k_start = kappa0(alpha) * (1.0 + solver_mod.BRACKET_START_OFFSET)
        lo, hi = st.diagnostics["bracket"]
        assert k_start <= lo < st.kappa_tilde < hi
        assert not st.threshold_uncertain
        # the doubling bracket from k_start took 8 evaluations
        assert st.diagnostics["evaluations"] <= 6

    def test_anchor_ground_state_is_exactly_even(self):
        _, states = bump_solution(24.0, 1024)
        (st,) = states
        assert st.diagnostics["parity"] == "even"
        assert np.array_equal(st.h, st.h[::-1])

    def test_anchor_takes_at_most_five_evaluations(self):
        _, states = bump_solution(24.0, 1024)
        (st,) = states
        assert st.diagnostics["evaluations"] <= 5
        lo, hi = st.diagnostics["bracket"]
        assert lo < st.kappa_tilde < hi
        assert st.diagnostics["eigensolver"] == "dense"

    @pytest.mark.parametrize("case", ["anchor", "bump_a3_w2", "sampled_scan"])
    def test_roots_match_a_tight_reference(self, helix, case):
        def roots(tol):
            if case == "sampled_scan":
                config = SolveConfig(alpha=0.0, grid=GridSpec(12.0, 256), m_branches=3,
                                     tol_kappa_rel=tol)
                k0 = kappa0(0.0)
                _, crossings = spectrum_scan(helix, config, (0.5 * k0, 5.0 * k0), 10)
                return [(c.branch, c.kappa) for c in crossings]
            if case == "anchor":
                curve, grid, m = bump_curve(), GridSpec(24.0, 1024), 8
            else:
                curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
                grid, m = GridSpec(24.0, 512), 6
            config = SolveConfig(alpha=0.0, grid=grid, m_branches=m, tol_kappa_rel=tol)
            return [(s.branch, s.kappa_tilde) for s in find_bound_states(curve, config)]

        found, reference = roots(1e-10), roots(1e-14)
        assert len(found) >= 1
        assert [b for b, _ in found] == [b for b, _ in reference]
        for (_, k), (_, k_ref) in zip(found, reference):
            assert k == pytest.approx(k_ref, rel=2e-10, abs=0.0)


def _counting_solves(monkeypatch):
    """Count Q builds and eigensolves the way the benchmark's tracer does: at
    ``OperatorCache.q_matrix``, the dense LAPACK drivers and Lanczos."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral_mod.OperatorCache, "q_matrix",
                        counted("q", spectral_mod.OperatorCache.q_matrix))
    for driver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, driver, counted("solve", getattr(scipy.linalg, driver)))
    monkeypatch.setattr(spectral_mod, "_iterative_top",
                        counted("solve", spectral_mod._iterative_top))
    return counts


class TestBlockSearch:
    # each branch is followed in its own parity block: only the bracket start
    # solves both blocks
    def test_strong_bump_keeps_the_one_matrix_states(self):
        # the one-matrix search's 5 states (energies as it found them), with
        # the same branch labels and parities
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                      m_branches=6))
        one_matrix = [(0, "even", -1708.5957135355532), (1, "even", -44.000515450465535),
                      (2, "even", -2.773106894056741), (3, "odd", -1.7732572896065935),
                      (4, "even", -1.643113904013527)]
        assert [(s.branch, s.diagnostics["parity"]) for s in states] == [
            (b, p) for b, p, _ in one_matrix]
        for s, (_, _, energy) in zip(states, one_matrix):
            assert s.energy == pytest.approx(energy, rel=1e-12, abs=0.0)
            assert s.diagnostics["block_evaluations"] == s.diagnostics["evaluations"] - 1

    @pytest.mark.parametrize("path", ["dense", "lanczos"])
    def test_each_root_solves_one_block(self, monkeypatch, path):
        # the eigenvectors of a root come from its branch's N/2 x N/2 block
        # alone
        if path == "lanczos":
            monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", 100)
            monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 100)
        shapes = []
        eigh, lanczos = scipy.linalg.eigh, spectral_mod._iterative_top

        def dense_spy(matrix, **kwargs):
            shapes.append(matrix.shape)
            return eigh(matrix, **kwargs)

        def lanczos_spy(matrix, m, want_vectors):
            if want_vectors:
                shapes.append(matrix.shape)
            return lanczos(matrix, m, want_vectors)

        monkeypatch.setattr(scipy.linalg, "eigh", dense_spy)
        monkeypatch.setattr(spectral_mod, "_iterative_top", lanczos_spy)
        curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
        states = find_bound_states(curve, SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512),
                                                      m_branches=6))
        assert len(states) == 5
        assert {s.diagnostics["eigensolver"] for s in states} == {path}
        # Lanczos on both blocks at the bracket start reads the parity of
        # each value from its Ritz vector
        start = [(512, 512)] if path == "lanczos" else []
        assert shapes == start + [(256, 256)] * 5

    def test_asymmetric_wire_takes_the_merged_path(self, off_centre_wire):
        config = SolveConfig(alpha=0.0, grid=GridSpec(10.0, 128), m_branches=3)
        (st,) = find_bound_states(off_centre_wire, config)
        assert st.diagnostics["evaluations"] == 5
        assert st.diagnostics["block_evaluations"] == 0
        assert st.energy == -1.274518578458271

    def test_ground_only_runs_lanczos_on_one_block(self, bump, monkeypatch):
        grid = GridSpec(16.0, 512)
        (dense,) = find_bound_states(bump, SolveConfig(alpha=0.0, grid=grid), ground_only=True)
        shapes = []
        lanczos = spectral_mod._iterative_top

        def spy(matrix, m, want_vectors):
            shapes.append(matrix.shape[0])
            return lanczos(matrix, m, want_vectors)

        monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 100)
        monkeypatch.setattr(spectral_mod, "_iterative_top", spy)
        (st,) = find_bound_states(bump, SolveConfig(alpha=0.0, grid=grid), ground_only=True)
        assert st.diagnostics["eigensolver"] == "lanczos"
        blocks = st.diagnostics["block_evaluations"]
        assert blocks == st.diagnostics["evaluations"] - 1 > 0
        assert shapes == [512] + [256] * (blocks + 1)
        assert st.energy == pytest.approx(dense.energy, rel=1e-9, abs=0.0)
        assert st.branch == dense.branch == 0

    @pytest.mark.parametrize("case", ["split_dense", "one_block", "split_lanczos",
                                      "scan_split", "scan_one_block"])
    def test_builds_and_solves_match_the_reported_evaluations(self, monkeypatch, case,
                                                              bump, off_centre_wire):
        # the identity the benchmark's trace cross-check relies on: one Q build
        # and one eigensolve per reported evaluation, plus one per root.  A
        # scan has no root solve, and an evaluation whose blocks all take a
        # Ritz step makes no eigensolve, so its LAPACK calls are its
        # ``dense_solves``
        if case.startswith("scan"):
            curve, grid = ((bump, GridSpec(16.0, 256)) if case == "scan_split"
                           else (off_centre_wire, GridSpec(10.0, 256)))
            counts = _counting_solves(monkeypatch)
            k0 = kappa0(0.0)
            sc, _ = spectrum_scan(curve, SolveConfig(alpha=0.0, grid=grid),
                                  (0.5 * k0, 5.0 * k0), 20)
            assert counts == {"q": sc.diagnostics["evaluations"],
                              "solve": sc.diagnostics["dense_solves"]}
            assert 20 < counts["q"] and 0 < counts["solve"] < counts["q"]
            return
        if case == "split_lanczos":
            monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", 100)
            monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 100)
        if case == "one_block":
            curve, config = off_centre_wire, SolveConfig(
                alpha=0.0, grid=GridSpec(10.0, 128), m_branches=3)
        else:
            curve = PlanarCurvatureProfile.gaussian_bump(3.0, 2.0, 56.0)
            config = SolveConfig(alpha=0.0, grid=GridSpec(24.0, 512), m_branches=6)
        counts = _counting_solves(monkeypatch)
        states = find_bound_states(curve, config)
        evaluations = [s.diagnostics["evaluations"] for s in states]
        expected = max(evaluations) + len(evaluations)
        assert counts == {"q": expected, "solve": expected}
        path = "lanczos" if case == "split_lanczos" else "dense"
        assert {s.diagnostics["eigensolver"] for s in states} == {path}
        blocks = max(s.diagnostics["block_evaluations"] for s in states)
        assert blocks == (0 if case == "one_block" else max(evaluations) - 1)


class TestConvergeStudy:
    def test_straight_vacuous_pass(self, straight):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128))
        report = converge_study(straight, config, levels=2)
        assert report.accepted
        assert all(lv.energy is None for lv in report.levels)

    def test_bump_second_order(self, bump):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 512))
        report = converge_study(bump, config, levels=3)
        assert report.accepted
        assert report.observed_order == pytest.approx(2.0, abs=0.5)
        assert report.richardson_energy is not None
        # larger box moves the energy by far less than the level gap scale
        assert report.tail_change < 1e-2

    def test_one_branch_is_enough_for_the_ground_state(self, bump):
        # the ground state is branch 0, so the m_branches cap must not veto a
        # study that reads only it, although a solve with m = 1 is refused
        one = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256), m_branches=1)
        with pytest.raises(ConfigError, match="raise -m"):
            find_bound_states(bump, one)
        capped = converge_study(bump, one, levels=2)
        full = converge_study(bump, SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256)),
                              levels=2)
        assert capped.levels[0].energy is not None
        for a, b in zip(capped.levels, full.levels):
            assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0.0)

    def test_too_few_levels_rejected(self, straight):
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, 128))
        with pytest.raises(GeometryError):
            converge_study(straight, config, levels=1)


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
        # a NaN tol_lambda would switch off the root's residual check
        # and so would an infinite one; an infinite tol_kappa_rel returns a
        # bracket end as the root
        for tolerance in ({"tol_lambda": -1.0}, {"tol_lambda": math.nan},
                          {"tol_kappa_rel": math.nan}, {"tol_lambda": math.inf},
                          {"tol_kappa_rel": math.inf}):
            with pytest.raises(GeometryError):
                SolveConfig(alpha=0.0, grid=GridSpec(8.0, 64), **tolerance)


class TestBrentPort:
    """solver._brentq against scipy.optimize.brentq, whose brentq.c it ports."""

    FAMILIES = [
        lambda c: lambda x: math.tanh(3.0 * (x - c)),
        lambda c: lambda x: (x - c) ** 3 + 1e-3 * (x - c),
        lambda c: lambda x: math.exp(-x) - c,
        # the free line's slope in u = ln kappa, lifted by a bump
        lambda c: lambda x: c - x / (2 * math.pi) + 0.05 * math.exp(-x * x),
    ]

    @staticmethod
    def traced(fn):
        points = []

        def f(x):
            points.append(x)
            return fn(x)
        return f, points

    def test_matches_scipy_bit_for_bit(self):
        import scipy.optimize

        eps = np.finfo(float).eps
        rng = np.random.default_rng(23)
        # brackets with an exact root at either end come first
        cases = [(lambda x: x - 1.0, 1.0, 2.0, 1e-12), (lambda x: 2.0 - x, 1.0, 2.0, 1e-12)]
        while len(cases) < 400:
            fn = self.FAMILIES[len(cases) % len(self.FAMILIES)](float(rng.uniform(0.2, 2.0)))
            a, b = sorted(float(x) for x in rng.uniform(-4.0, 6.0, 2))
            if (fn(a) > 0) != (fn(b) > 0):
                cases.append((fn, a, b, float(10.0 ** rng.uniform(-15, -3))))
        for fn, a, b, xtol in cases:
            f, points = self.traced(fn)
            f_ref, ref_points = self.traced(fn)
            root, res = scipy.optimize.brentq(f_ref, a, b, xtol=xtol, rtol=4 * eps,
                                              full_output=True)
            assert solver_mod._brentq(f, a, b, xtol, 4 * eps) == (root, res.iterations)
            assert points == ref_points

    def test_non_convergence_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailureError, match="3 iterations"):
            solver_mod._brentq(lambda x: math.tanh(x - 0.3), -2.0, 3.0, 1e-14, 1e-15, maxiter=3)

    def test_nan_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailureError, match="NaN"):
            solver_mod._brentq(lambda x: math.nan if x > 0 else -1.0, -2.0, 3.0, 1e-12, 1e-15)


class TestCacheLifetime:
    @pytest.mark.parametrize("search", [
        lambda curve, config: find_bound_states(curve, config),
        lambda curve, config: spectrum_scan(curve, config, (1.0, 3.0), 6),
    ], ids=["find_bound_states", "spectrum_scan"])
    def test_cache_freed_on_return_without_gc(self, bump, monkeypatch, search):
        # a reference cycle through the root-search objective (scipy's brentq
        # made one) must not leave the N x N operator arrays reachable
        caches = []

        class TrackedCache(spectral_mod.OperatorCache):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(weakref.ref(self))

        monkeypatch.setattr(spectral_mod, "OperatorCache", TrackedCache)
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
