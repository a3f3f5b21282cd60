"""Independent analytic and brute-force cross-checks.

These verify the numerical machinery against routes that do not share code
with what they certify: the straight wire against the closed-form spectrum,
the bending-energy inequality against direct quadrature with an analytic
Gaussian probe, kernel structure against fresh pointwise evaluation, and the
spectral-parameter independence of the renormalized free-kernel pairing
against a momentum-side evaluation.  Everything here is deterministic and
side-effect free; no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .curve import Curve, StraightLine, _CubicHermite
from .errors import GeometryError
from .operators import (
    GridSpec,
    assemble_T,
    bending_kernel_matrix,
    kappa0,
    zeta0,
)
from .solver import SolveConfig, find_bound_states, spectrum_scan


@dataclass
class OracleReport:
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    details: str

    def to_dict(self) -> dict:
        return asdict(self)


def straight_line_oracle(alpha: float, grid: GridSpec,
                         n_samples: int = 20) -> OracleReport:
    """Full-pipeline check on the straight wire: the eigenvalue curve must
    equal s_kappa to 1e-12 at every sample and no bound state may appear."""
    curve = StraightLine()
    config = SolveConfig(alpha=alpha, grid=grid)
    k0 = kappa0(alpha)
    spec, _ = spectrum_scan(curve, config, (0.5 * k0, 5.0 * k0), n_samples)
    dev = float(np.max(np.abs(spec.lambdas[:, 0] - spec.s_k_values)))
    states = find_bound_states(curve, config)
    passed = dev <= 1e-12 and len(states) == 0
    return OracleReport(
        name=f"straight_line[alpha={alpha:g},L={grid.L:g},N={grid.N}]",
        passed=passed,
        measured=dev,
        expected=0.0,
        tolerance=1e-12,
        details=(f"max |lambda_1(kappa) - s_kappa| over {n_samples} samples; "
                 f"{len(states)} bound states (want 0); "
                 f"zeta0 = {zeta0(alpha):.10g}"),
    )


def scaling_inequality_check(curve: Curve, kappa: float,
                             lambda_scales=(0.2, 0.1, 0.05),
                             quad_halfwidth: float = 15.0,
                             quad_points: int = 1200) -> OracleReport:
    """Bending-energy inequality probed with a dilated Gaussian.

    For phi(s) = exp(-s^2/2) (self-dual Fourier transform) the quadratic
    form of Q - s_kappa at phi_lambda(s) = sqrt(lambda) phi(lambda s) equals

        -(1/4pi) int ln(1 + (lambda u / kappa)^2) e^{-u^2} du
        + lambda int int B_kappa(s, s') phi(lambda s) phi(lambda s') ds ds' .

    The first term is O(lambda^2), the second O(lambda), so the sum turns
    positive for small lambda on any bent curve.  Passes iff the expression
    is positive at the smallest scale and consecutive halvings shrink the
    first term by a factor in [3.5, 4.5] and the second by one in [1.7, 2.3].
    The straight line fails by construction (second term vanishes).
    """
    from scipy.integrate import quad

    lams = [float(x) for x in lambda_scales]
    if len(lams) < 2 or any(l <= 0 for l in lams):
        raise GeometryError("need at least two positive scales")
    if any(abs(lams[i] / lams[i + 1] - 2.0) > 1e-9 for i in range(len(lams) - 1)):
        raise GeometryError("scales must be consecutive halvings")

    def log_term(lam):
        f = lambda u: math.log(1.0 + (lam * u / kappa) ** 2) * math.exp(-u * u)
        val, _ = quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12)
        return -2.0 * val / (4.0 * math.pi)

    # midpoint quadrature of the pointwise kernel on a dedicated grid,
    # independent of the operator assembly path
    grid = GridSpec(quad_halfwidth, quad_points)
    kern = bending_kernel_matrix(curve, grid, kappa)

    def bend_term(lam):
        phi = np.exp(-((lam * grid.nodes) ** 2) / 2.0)
        return lam * grid.delta * grid.delta * float(phi @ kern @ phi)

    t1 = {lam: log_term(lam) for lam in lams}
    t2 = {lam: bend_term(lam) for lam in lams}
    total_min = t1[lams[-1]] + t2[lams[-1]]
    checks = [total_min > 0.0]
    notes = [f"total({lams[-1]:g}) = {total_min:.6e}"]
    for a, b in zip(lams[:-1], lams[1:]):
        r1 = t1[a] / t1[b]
        checks.append(3.5 <= r1 <= 4.5)
        notes.append(f"log-term ratio {a:g}/{b:g} = {r1:.3f}")
        if t2[b] != 0.0:
            r2 = t2[a] / t2[b]
            checks.append(1.7 <= r2 <= 2.3)
            notes.append(f"bend-term ratio {a:g}/{b:g} = {r2:.3f}")
        else:
            checks.append(False)
            notes.append("bend term vanishes (straight line): expected failure")
    return OracleReport(
        name=f"scaling_inequality[kappa={kappa:g}]",
        passed=all(checks),
        measured=total_min,
        expected=0.0,
        tolerance=0.0,
        details="one-sided: total at smallest scale must be positive; " + "; ".join(notes),
    )


def kernel_property_scan(curve: Curve, kappa_list, grid: GridSpec,
                         kernels=None) -> OracleReport:
    """Entrywise positivity and kappa-monotonicity of the bending kernel,
    with norm cross-checks, recomputed pointwise (not via the assembled
    operators).  ``kernels`` overrides the matrices for fault injection."""
    kappas = [float(k) for k in kappa_list]
    if len(kappas) < 2 or any(np.diff(kappas) <= 0):
        raise GeometryError("kappa_list must be ascending with >= 2 entries")
    if kernels is None:
        kernels = [bending_kernel_matrix(curve, grid, k) for k in kappas]
    issues = []
    worst_entry = 0.0
    for k, kern in zip(kappas, kernels):
        mn = float(kern.min())
        worst_entry = min(worst_entry, mn)
        if mn < -1e-14:
            i, j = np.unravel_index(int(np.argmin(kern)), kern.shape)
            issues.append(f"negative entry ({i},{j}) = {mn:.3e} at kappa={k:g}")
    hs_list, sh_list = [], []
    delta = grid.delta
    for k, kern in zip(kappas, kernels):
        mat = delta * kern
        hs_list.append(float(np.sqrt(np.sum(mat ** 2))))
        sh_list.append(float(np.max(np.sum(mat, axis=1))))
        two_norm = float(np.linalg.norm(mat, 2))
        if two_norm > sh_list[-1] + 1e-8:
            issues.append(f"2-norm {two_norm:.3e} exceeds row bound "
                          f"{sh_list[-1]:.3e} at kappa={k:g}")
    for a in range(len(kappas) - 1):
        diff = kernels[a + 1] - kernels[a]
        mx = float(diff.max())
        if mx > 1e-14:
            i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
            issues.append(f"entry ({i},{j}) grows by {mx:.3e} from "
                          f"kappa={kappas[a]:g} to {kappas[a + 1]:g}")
        if hs_list[a + 1] > hs_list[a] + 1e-12:
            issues.append(f"HS norm grows between kappa={kappas[a]:g} "
                          f"and {kappas[a + 1]:g}")
        if sh_list[a + 1] > sh_list[a] + 1e-12:
            issues.append(f"row-bound norm grows between kappa={kappas[a]:g} "
                          f"and {kappas[a + 1]:g}")
    detail = (f"HS norms {['%.3e' % v for v in hs_list]}, "
              f"row bounds {['%.3e' % v for v in sh_list]}")
    if issues:
        detail += "; " + "; ".join(issues)
    return OracleReport(
        name=f"kernel_properties[N={grid.N}]",
        passed=not issues,
        measured=worst_entry,
        expected=0.0,
        tolerance=1e-14,
        details=detail,
    )


def kappa_independence_check(grid: GridSpec, kappa_pair=(1.0, 2.0),
                             test_vector=None) -> OracleReport:
    """Renormalized free-kernel pairing minus the multiplier form must not
    depend on kappa.

    For samples f on the grid, D(kappa) is the position-space quadrature of
    the renormalized 1D free kernel (exp(-kappa u) - 1)/(4 pi u) against the
    autocorrelation of the interpolated samples, minus the multiplier form
    Delta f^T T_kappa f.  The subtracted 1/(4 pi u) singularity is kappa
    independent, so D(kappa_1) = D(kappa_2) up to quadrature error.  Vectors
    with energy near the grid Nyquist momentum are evaluated at a degraded
    tolerance and flagged, not failed.
    """
    from scipy.integrate import quad

    k1, k2 = (float(k) for k in kappa_pair)
    if k1 <= 0 or k2 <= 0:
        raise GeometryError("kappa values must be positive")
    nodes = grid.nodes
    if test_vector is None:
        f = np.exp(-(nodes ** 2) / 2.0)
    else:
        f = np.asarray(test_vector, dtype=float)
        if f.shape != (grid.N,):
            raise GeometryError(f"test vector must have shape ({grid.N},)")

    # resolution estimate: spectral mass beyond half the Nyquist momentum
    fhat = np.fft.fft(f)
    freq_idx = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N))
    tail = float(np.sum(np.abs(fhat[freq_idx > grid.N / 4]) ** 2)
                 / max(np.sum(np.abs(fhat) ** 2), 1e-300))
    degraded = tail > 1e-12
    tol = 5e-2 if degraded else 1e-6

    # autocorrelation of the refined interpolant (rectangle rule is
    # spectrally accurate for smooth samples decaying inside the box)
    refine = 8
    m = refine * grid.N
    dt = 2.0 * grid.L / m
    t = -grid.L + (np.arange(m) + 0.5) * dt
    ft = _CubicHermite.spline(nodes, f)(t)
    spec = np.abs(np.fft.rfft(ft, 2 * m)) ** 2
    corr = np.fft.irfft(spec)[:m] * dt  # C(u_k) at u_k = k * dt
    corr_spline = _CubicHermite.spline(np.arange(m) * dt, corr)
    u_max = float(m - 1) * dt

    def renormalized_pairing(kap):
        def integrand(u):
            if u <= 0.0:
                return -kap / (4.0 * math.pi) * float(corr_spline(0.0))
            return (math.expm1(-kap * u) / (4.0 * math.pi * u)) * float(corr_spline(u))

        val, _ = quad(integrand, 0.0, u_max, epsabs=1e-13, epsrel=1e-11,
                      limit=400)
        return 2.0 * val

    def multiplier_form(kap):
        return grid.delta * float(f @ (assemble_T(grid, kap) @ f))

    d1 = renormalized_pairing(k1) - multiplier_form(k1)
    d2 = renormalized_pairing(k2) - multiplier_form(k2)
    scale = max(abs(d1), abs(d2), 1e-300)
    rel = abs(d1 - d2) / scale
    detail = (f"D({k1:g}) = {d1:.10e}, D({k2:g}) = {d2:.10e}; "
              f"high-frequency mass {tail:.2e}")
    if degraded:
        detail += "; WARNING: test vector under-resolved, tolerance degraded"
    return OracleReport(
        name=f"kappa_independence[{k1:g},{k2:g},N={grid.N}]",
        passed=rel <= tol,
        measured=rel,
        expected=0.0,
        tolerance=tol,
        details=detail,
    )


def default_suite() -> list:
    """The suite behind the ``verify`` CLI subcommand."""
    from .curve import PlanarCurvatureProfile

    grid = GridSpec(16.0, 512)
    bump = PlanarCurvatureProfile.gaussian_bump(1.0, 1.0, domain_hint=48.0)
    reports = []
    for alpha in (-0.5, 0.0, 0.3):
        reports.append(straight_line_oracle(alpha, grid))
    reports.append(kernel_property_scan(bump, (1.2, 1.8, 2.4), grid))
    reports.append(scaling_inequality_check(bump, 1.2))
    reports.append(kappa_independence_check(grid, (1.0, 2.0)))
    return reports
