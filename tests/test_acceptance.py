"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and enforces the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from leakywire.curve import (
    PlanarCurvatureProfile,
    StraightLine,
    check_a1,
    check_a2,
    check_curvature_decay,
)
from leakywire.eigenfield import (
    bc_residual,
    default_radii,
    extract_xi_omega,
    fit_trace,
    macdonald_identity,
    trace_on_shifted,
    trace_values,
)
from leakywire.operators import (
    GridSpec,
    PSI_ONE,
    assemble_B,
    hs_norm,
    kappa0,
    schur_holmgren_norm,
    t_multiplier,
    zeta0,
)
from leakywire.oracle import kernel_property_scan, scaling_inequality_check
from leakywire.solver import SolveConfig, find_bound_states, spectrum_scan
from leakywire.spectral import lambda_curve

from conftest import bump_curve, bump_solution


def _report(num, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) - {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_1_straight_line_spectrum():
    t0 = time.monotonic()
    straight = StraightLine()
    worst = 0.0
    states_total = 0
    for alpha in (-0.5, 0.0, 0.3):
        config = SolveConfig(alpha=alpha, grid=GridSpec(16.0, 512))
        k0 = kappa0(alpha)
        spec, _ = spectrum_scan(straight, config, (0.5 * k0, 5.0 * k0), 20)
        worst = max(worst, float(np.max(np.abs(spec.lambdas[:, 0] - spec.s_k_values))))
        states_total += len(find_bound_states(straight, config))
    z0 = zeta0(0.0)
    six_digits = f"{z0:.6g}" == "-1.26095"
    ok = worst <= 1e-12 and states_total == 0 and six_digits \
        and z0 == pytest.approx(-4.0 * math.exp(2.0 * PSI_ONE), abs=1e-15)
    _report(1, ok, 10.0, time.monotonic() - t0,
            f"max |lambda1 - s_kappa| = {worst:.2e} (tol 1e-12), "
            f"{states_total} spurious states, zeta0(0) = {z0:.6g}")


def test_criterion_2_curvature_induced_binding():
    t0 = time.monotonic()
    _, states_a = bump_solution(24.0, 1024)
    _, states_b = bump_solution(36.0, 2048)
    z0 = zeta0(0.0)
    accepted = [s for s in states_a if not s.threshold_uncertain]
    ok = len(accepted) >= 1
    detail = f"{len(accepted)} accepted state(s)"
    if ok:
        e_a = accepted[0].energy
        e_b = states_b[0].energy
        below = e_a < z0 - 1e-4 * abs(z0)
        agree = abs(e_a - e_b) / abs(e_b) < 1e-3
        ok = below and agree
        detail = (f"E(1024,24) = {e_a:.6f}, E(2048,36) = {e_b:.6f}, "
                  f"zeta0 = {z0:.6f}, rel diff = {abs(e_a - e_b) / abs(e_b):.2e} "
                  f"(tol 1e-3)")
    _report(2, ok, 300.0, time.monotonic() - t0, detail)


def test_criterion_3_bending_energy_inequality():
    t0 = time.monotonic()
    report = scaling_inequality_check(bump_curve(), 1.2, (0.2, 0.1, 0.05))
    _report(3, report.passed, 30.0, time.monotonic() - t0, report.details)


def test_criterion_4_kernel_properties():
    t0 = time.monotonic()
    grid = GridSpec(16.0, 512)
    bump = bump_curve()
    report = kernel_property_scan(bump, (1.2, 1.8, 2.4), grid)
    ok = report.passed and report.measured >= -1e-14
    norm_checks = []
    for kap in (1.2, 1.8, 2.4):
        b = assemble_B(bump, grid, kap)
        norm_checks.append((hs_norm(b), schur_holmgren_norm(b),
                            float(np.linalg.norm(b.matrix, 2))))
    hs_seq = [v[0] for v in norm_checks]
    sh_seq = [v[1] for v in norm_checks]
    ok = ok and all(hs_seq[i] >= hs_seq[i + 1] for i in range(2))
    ok = ok and all(sh_seq[i] >= sh_seq[i + 1] for i in range(2))
    ok = ok and all(two <= sh + 1e-8 for _, sh, two in norm_checks)
    _report(4, ok, 30.0, time.monotonic() - t0,
            f"min kernel entry = {report.measured:.2e} (floor -1e-14), "
            f"HS {hs_seq}, SH {sh_seq}")


def test_criterion_5_transverse_profile_identity():
    t0 = time.monotonic()
    worst = 0.0
    for (r, u, kap) in ((1.0, 0.0, 1.0), (0.5, 1.0, 2.0), (2.0, 0.3, 0.7)):
        lhs, rhs = macdonald_identity(r, u, kap)
        worst = max(worst, abs(lhs - rhs))
    ref_lhs, _ = macdonald_identity(1.0, 0.0, 1.0)
    ok = worst <= 1e-6 and ref_lhs == pytest.approx(math.exp(-1.0) / (4 * math.pi),
                                                    abs=1e-12)
    _report(5, ok, 5.0, time.monotonic() - t0,
            f"max |lhs - rhs| = {worst:.2e} (tol 1e-6), "
            f"lhs(1,0,1) = {ref_lhs:.7f}")


def test_criterion_6_boundary_conditions():
    t0 = time.monotonic()
    config, states = bump_solution(24.0, 1024)
    st = states[0]
    bump = bump_curve()
    grid = config.grid
    radii = default_radii()
    s_list = [-2.0, -1.0, 0.0, 1.0, 2.0]

    resid = bc_residual(bump, grid, st.kappa_tilde, st.h, config.alpha, s_list,
                        radii)
    dens = CubicSpline(grid.nodes, st.h)
    xi_ok = True
    for s in s_list:
        tf = fit_trace(trace_on_shifted(bump, grid, st.kappa_tilde, st.h, s, radii))
        xi_ok = xi_ok and abs(2 * math.pi * tf.xi - float(dens(s))) \
            <= 0.02 * abs(float(dens(s)))
    angles = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    vals = trace_values(bump, grid, st.kappa_tilde, st.h, 0.5, radii, angles)
    xis = [extract_xi_omega(vals[:, a], radii)[0] for a in range(8)]
    spread = (max(xis) - min(xis)) / abs(float(np.mean(xis)))
    ok = resid <= 0.05 and xi_ok and spread <= 0.05
    _report(6, ok, 120.0, time.monotonic() - t0,
            f"bc residual = {resid:.4f} (tol 0.05), xi within 2%: {xi_ok}, "
            f"per-direction xi spread = {spread:.4f} (tol 0.05)")


def test_criterion_7_norm_continuity_and_tail():
    t0 = time.monotonic()
    grid = GridSpec(16.0, 512)
    p = grid.momenta
    cont_ok = True
    worst_slack = -1.0
    for kap, kap2 in ((1.0, 1.5), (0.8, 2.4), (2.0, 2.05)):
        dev = float(np.max(np.abs(t_multiplier(p, kap) - t_multiplier(p, kap2))))
        bound = abs(math.log(kap / kap2)) / (2 * math.pi) + 1e-12
        cont_ok = cont_ok and dev <= bound
        worst_slack = max(worst_slack, dev - bound)
    k0 = kappa0(0.0)
    sc = lambda_curve(bump_curve(), grid, np.array([10.0 * k0]), m=1)
    tail_ok = float(sc.lambdas[0, 0]) < 0.0
    ok = cont_ok and tail_ok
    _report(7, ok, 30.0, time.monotonic() - t0,
            f"continuity slack = {worst_slack:.2e} (<= 0), "
            f"lambda1(10 kappa0) = {float(sc.lambdas[0, 0]):.4f} < alpha = 0: {tail_ok}")


def test_criterion_8_assumption_audits():
    t0 = time.monotonic()
    straight_rep = check_a1(StraightLine(), (-24.0, 24.0), 400)
    bump_rep = check_a2(bump_curve(), 0.5, 1.0, 1.0, (-24.0, 24.0), 500)
    beta_slow = check_curvature_decay(
        PlanarCurvatureProfile.power_tail(1.0, 1.0, 48.0), (-40.0, 40.0), 400)
    beta_fast = check_curvature_decay(
        PlanarCurvatureProfile.power_tail(1.0, 2.0, 48.0), (-40.0, 40.0), 400)
    ok = (straight_rep.c_estimate == 1.0 and bump_rep.pass_a2
          and not beta_slow > 1.25 and beta_fast > 1.25)
    _report(8, ok, 30.0, time.monotonic() - t0,
            f"straight c = {straight_rep.c_estimate} (exact 1), bump a2 d = "
            f"{bump_rep.a2_certificate.d:.4f} pass = {bump_rep.pass_a2}, "
            f"beta fits: {beta_slow:.2f} (fail<=1.25), {beta_fast:.2f} (pass>1.25)")
