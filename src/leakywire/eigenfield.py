"""Traces of the 3D eigenfunction near the wire and its generalized boundary values.

The eigenvector h of the boundary operator at the root kappa~ generates the
spatial eigenfunction through the single-layer potential

    f(x) = int exp(-kappa |x - gamma(s)|) / (4 pi |x - gamma(s)|) h(s) ds .

Close to the wire, f blows up logarithmically in the distance r; the
coefficient of -ln r and the regularized remainder,

    xi(s)    = -lim_{r->0} f|_r(s) / ln r        (= h(s) / 2pi)
    omega(s) =  lim_{r->0} [f|_r(s) + xi ln r]   (= (Q_kappa h)(s))

encode the generalized boundary condition 2 pi alpha xi(s) = omega(s) that a
genuine eigenfunction must satisfy.  Numerically the limits are realized as
a least-squares fit of the direction-averaged trace on shifted copies of the
curve against -xi ln r + omega over a ladder of radii.

For radii below the grid spacing a bare midpoint sum over the point sources
is useless (the nearest source dominates), so the trace evaluation splits
the line integral: cells far from the foot point keep the midpoint rule,
while a window around it integrates the cubic interpolant of h against the
exact kernel with a sinh-stretched Gauss rule that resolves the width-r
peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .curve import Curve, eval_frame, eval_point
from .errors import FitError, GeometryError
from .operators import GridSpec

_GLV_NODES, _GLV_WEIGHTS = leggauss(96)
#: grid cells on each side of the foot point integrated by the window rule
WINDOW_CELLS = 6


@dataclass
class TraceFit:
    """Direction-averaged trace values on shifted curves at one foot point
    and their log-fit values(r) ~ -xi ln r + omega."""

    s: float
    radii: np.ndarray
    values: np.ndarray
    xi: float
    omega: float
    fit_residual: float


def trace_values(curve: Curve, grid: GridSpec, kappa: float, h, s: float,
                 radii, angles) -> np.ndarray:
    """Trace of the reconstructed field on shifted copies of the curve.

    Returns an array of shape (len(radii), len(angles)); every radius must
    lie below ``curve.max_shift_radius()``.  The quadrature resolves radii
    far below the grid spacing (see module docstring): near the foot point it
    integrates the cubic interpolant of h, not the raw grid values.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (grid.N,):
        raise GeometryError(f"h must have shape ({grid.N},)")
    radii = np.asarray(radii, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if np.any(radii <= 0):
        raise GeometryError("radii must be positive")
    r0 = curve.max_shift_radius()
    if float(radii.max()) >= r0:
        raise GeometryError(f"radius {radii.max():g} is not below the safe bound r0 = {r0:.6g}")

    from scipy.interpolate import CubicSpline

    nodes = grid.nodes
    delta = grid.delta
    src = np.asarray(curve.point(nodes), dtype=float)
    dens = CubicSpline(nodes, h)
    j0 = int(np.clip(round((s - nodes[0]) / delta), 0, grid.N - 1))
    jlo = max(0, j0 - WINDOW_CELLS)
    jhi = min(grid.N - 1, j0 + WINDOW_CELLS)
    far = np.ones(grid.N, dtype=bool)
    far[jlo:jhi + 1] = False
    src_far, h_far = src[far], h[far]
    win_lo = nodes[jlo] - delta / 2.0
    win_hi = nodes[jhi] + delta / 2.0

    fr = eval_frame(curve, s)
    base = eval_point(curve, s)
    dirs = (np.cos(angles)[:, None] * fr.b[None, :]
            + np.sin(angles)[:, None] * fr.n[None, :])

    out = np.empty((radii.size, angles.size))
    for ir, r in enumerate(radii):
        # sinh stretch concentrates nodes in the width-r peak at s' = s
        vlo = math.asinh((win_lo - s) / r)
        vhi = math.asinh((win_hi - s) / r)
        v = 0.5 * (vhi - vlo) * (_GLV_NODES + 1.0) + vlo
        u = r * np.sinh(v)
        jac = 0.5 * (vhi - vlo) * r * np.cosh(v)
        sprime = s + u
        gpts = np.asarray(curve.point(sprime), dtype=float)
        hvals = dens(sprime)
        # all directions at once: points (angles, 3), distances (angles, sources)
        x = base + r * dirs
        dfar = np.linalg.norm(x[:, None, :] - src_far[None, :, :], axis=2)
        far_sum = delta * np.sum(np.exp(-kappa * dfar) / (4.0 * math.pi * dfar) * h_far,
                                 axis=1)
        dnear = np.linalg.norm(x[:, None, :] - gpts[None, :, :], axis=2)
        near = np.sum(_GLV_WEIGHTS * jac * np.exp(-kappa * dnear)
                      / (4.0 * math.pi * dnear) * hvals, axis=1)
        out[ir] = far_sum + near
    return out


def trace_on_shifted(curve: Curve, grid: GridSpec, kappa: float, h, s: float,
                     radii, n_angles: int = 8) -> TraceFit:
    """Direction-averaged trace over n_angles equally spaced directions,
    log-fitted by ``extract_xi_omega``."""
    if n_angles < 4:
        raise GeometryError("need at least 4 directions")
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    values = trace_values(curve, grid, kappa, h, s, radii, angles).mean(axis=1)
    return TraceFit(float(s), radii, values, *extract_xi_omega(values, radii))


def extract_xi_omega(values, radii):
    """Fit values(r) ~ -xi ln r + omega; returns (xi, omega, rms residual)."""
    values = np.asarray(values, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if values.shape != radii.shape or radii.ndim != 1:
        raise GeometryError("values and radii must be matching 1D arrays")
    if radii.size < 2:
        raise FitError("need at least two radii")
    span = float(radii.max() / radii.min())
    if span < 3.0:
        raise FitError(f"radii span a factor {span:.2f} < 3; fit is ill-conditioned")
    design = np.column_stack([-np.log(radii), np.ones_like(radii)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = float(np.sqrt(np.mean((design @ coef - values) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def default_radii(n: int = 8, r_min: float = 1e-3, r_max: float = 1e-2) -> np.ndarray:
    return np.geomspace(r_min, r_max, n)


def bc_defect(fits, alpha: float) -> float:
    """Worst relative defect of the boundary condition 2 pi alpha xi = omega
    over fitted traces.

    The defect at each foot point is normalized by
    |alpha xi| + |omega| + |xi|: the xi term keeps the quotient meaningful
    at alpha = 0, where the exact omega vanishes and the fitted one measures
    pure discretization error against the h/2pi scale.
    """
    worst = 0.0
    for tf in fits:
        num = abs(2.0 * math.pi * alpha * tf.xi - tf.omega)
        den = abs(alpha * tf.xi) + abs(tf.omega) + abs(tf.xi) + 1e-300
        worst = max(worst, num / den)
    return worst


def bc_residual(curve: Curve, grid: GridSpec, kappa: float, h, alpha: float,
                s_list, radii=None, n_angles: int = 8):
    """(``bc_defect``, fitted traces) at the foot points s_list."""
    if radii is None:
        radii = default_radii()
    fits = [trace_on_shifted(curve, grid, kappa, h, float(s), radii, n_angles)
            for s in s_list]
    return bc_defect(fits, alpha), fits


# ---------------------------------------------------------------------------
# transverse-profile identity used as the quadrature oracle


def macdonald_identity(r: float, u: float, kappa: float):
    """Both sides of the line-source Fourier identity

        exp(-kappa R)/(4 pi R) = (1/(2 pi)^2) int K0(sqrt(p^2+kappa^2) r)
                                              cos(p u) dp,   R = sqrt(r^2+u^2),

    the left evaluated in closed form, the right by adaptive quadrature.
    """
    from scipy.integrate import quad
    from scipy.special import k0 as bessel_k0

    if r <= 0 or kappa <= 0:
        raise GeometryError("need r > 0 and kappa > 0")
    big_r = math.hypot(r, u)
    lhs = math.exp(-kappa * big_r) / (4.0 * math.pi * big_r)

    def integrand(p):
        return bessel_k0(math.hypot(p, kappa) * r)

    if u == 0.0:
        val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    else:
        val, _ = quad(integrand, 0.0, np.inf, weight="cos", wvar=abs(u),
                      epsabs=1e-12, limit=400)
    rhs = val / (2.0 * math.pi ** 2)
    return lhs, rhs


def trace_to_dict(trace: TraceFit) -> dict:
    return {
        "s": trace.s,
        "radii": [float(r) for r in trace.radii],
        "values": [float(v) for v in trace.values],
        "xi": trace.xi,
        "omega": trace.omega,
        "fit_residual": trace.fit_residual,
    }
