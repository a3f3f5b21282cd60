"""Bound-state search via the spectral root condition lambda_j(kappa) = alpha.

For a non-straight admissible wire the top eigenvalue of the boundary
operator exceeds the free-line value s_kappa, is continuous in kappa and
drops to -infinity as kappa grows, so each branch that starts above the
coupling alpha crosses it exactly once on the sampled range.  The crossing
kappa~ gives a bound state with energy E = -kappa~^2 strictly below the
continuum edge zeta0 = -kappa0(alpha)^2.

The bracket starts at kappa0 * (1 + 1e-4): exactly at kappa0 the straight
line satisfies lambda = alpha spuriously (continuum edge, not an
eigenvalue), and the offset keeps that degeneracy out of the bracket.
Branches that bend the spectrum up but fail to clear alpha at the bracket
start are reported as threshold-uncertain records instead of being dropped:
a finite box cannot distinguish a weakly bound state from the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.optimize

from .curve import Curve, check_a1
from .errors import (
    AssumptionError,
    BracketFailureError,
    ConfigError,
    GeometryError,
    NumericalFailureError,
)
from .operators import GridSpec, OperatorCache, kappa0, s_kappa, zeta0
# _iterative_top is not called here: perfbench/tracing.py wraps the
# eigensolvers at solver._iterative_top and solver.scipy, so both stay bound.
from .spectral import SpectralCurve, _iterative_top, top_eigen  # noqa: F401


@dataclass
class SolveConfig:
    alpha: float
    grid: GridSpec
    kappa_bracket_growth: float = 2.0
    tol_kappa_rel: float = 1e-10
    tol_lambda: float = 1e-9
    m_branches: int = 8
    refine_levels: int = 3
    bracket_start_offset: float = 1e-4
    bracket_max_factor: float = 1e6
    threshold_gap_frac: float = 1e-6

    def __post_init__(self):
        if self.kappa_bracket_growth <= 1.0:
            raise GeometryError("bracket growth factor must exceed 1")
        if self.tol_kappa_rel <= 0 or self.tol_lambda <= 0:
            raise GeometryError("tolerances must be positive")
        if self.m_branches < 1:
            raise GeometryError("need at least one tracked branch")


@dataclass
class BoundState:
    kappa_tilde: float
    energy: float
    branch: int
    h: Optional[np.ndarray]
    gap: float                      # zeta0 - energy, positive below the edge
    residual: float                 # |lambda_j(kappa~) - alpha|
    threshold_uncertain: bool = False
    diagnostics: dict = field(default_factory=dict)


@dataclass
class Crossing:
    branch: int
    kappa: float


@dataclass
class ConvergenceLevel:
    N: int
    L: float
    energy: Optional[float]


@dataclass
class ConvergenceReport:
    levels: list
    diffs: list
    observed_order: Optional[float]
    richardson_energy: Optional[float]
    tail_change: Optional[float]
    accepted: bool
    warnings: list


class _BranchEvaluator:
    """lambda_j(kappa) with per-kappa caching of the top-m eigenvalues.

    Used as a context manager: leaving the block drops the operator cache.
    scipy's brentq keeps the objective in a self-referencing wrapper, so a
    root-search closure over the evaluator would otherwise hold the cache's
    N x N arrays until the cyclic garbage collector next runs.
    """

    def __init__(self, curve, grid, m):
        self.cache = OperatorCache(curve, grid)
        self.m = m
        self._vals = {}
        self.evaluations = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.cache = None

    def values(self, kappa: float) -> np.ndarray:
        key = float(kappa)
        if key not in self._vals:
            self._vals[key] = top_eigen(self.cache.q_matrix(key), self.m)
            self.evaluations += 1
        return self._vals[key]

    def eigenpair(self, kappa: float, branch: int):
        vals, vecs = top_eigen(self.cache.q_matrix(float(kappa)), self.m, vectors=True)
        return float(vals[branch]), vecs[:, branch].copy()


def _require_admissible(curve: Curve, grid: GridSpec):
    report = check_a1(curve, (-grid.L, grid.L), 256)
    if not report.pass_a1:
        raise AssumptionError(
            f"curve fails the chord-arc audit on [-{grid.L}, {grid.L}] "
            f"(c_estimate = {report.c_estimate:.3e})")
    return report


def find_bound_states(curve: Curve, config: SolveConfig, *,
                      ground_only: bool = False) -> list:
    """All branch crossings lambda_j(kappa~) = alpha above the continuum edge.

    Returns BoundState records sorted by energy; threshold-uncertain records
    (gap below threshold_gap_frac * |zeta0|, or a bent branch that never
    clears alpha at the bracket start) carry the flag instead of being
    silently dropped.  The straight line yields an empty list.  If the last
    tracked branch would give a record, more states may lie beyond the
    m_branches cap, so ConfigError is raised instead of a partial list.
    Callers that read only the lowest accepted state pass ground_only=True
    to skip that check: it comes from branch 0 (the top branch crosses
    alpha at the largest kappa~), so the cap cannot change it.
    """
    _require_admissible(curve, config.grid)
    alpha = config.alpha
    k0 = kappa0(alpha)
    z0 = zeta0(alpha)
    k_start = k0 * (1.0 + config.bracket_start_offset)
    s_start = s_kappa(k_start)
    lift_floor = 1e-8 * max(1.0, abs(s_start))

    m = config.m_branches
    states = []
    with _BranchEvaluator(curve, config.grid, m) as ev:
        lam_start = ev.values(k_start)
        for j in range(m):
            if lam_start[j] > alpha:
                state = _solve_branch(ev, j, alpha, k_start, k0, z0, config)
                states.append(state)
            elif lam_start[j] - s_start > lift_floor:
                # bent branch hugging the continuum edge: report, don't drop
                states.append(BoundState(
                    kappa_tilde=k_start,
                    energy=-k_start ** 2,
                    branch=j,
                    h=None,
                    gap=z0 - (-k_start ** 2),
                    residual=abs(lam_start[j] - alpha),
                    threshold_uncertain=True,
                    diagnostics={"reason": "branch lifted above the free line but "
                                           "below alpha at the bracket start",
                                 "lambda_start": float(lam_start[j]),
                                 "s_kappa_start": float(s_start)},
                ))
    if not ground_only and states and states[-1].branch == m - 1:
        raise ConfigError(
            f"the last of the {m} tracked branches gives a bound or threshold-"
            "uncertain state, so states beyond it would be dropped; raise -m "
            "(m_branches)")
    states.sort(key=lambda st: st.energy)
    return states


def _solve_branch(ev, j, alpha, k_start, k0, z0, config) -> BoundState:
    k_hi = k_start
    k_max = config.bracket_max_factor * k0
    while ev.values(k_hi)[j] > alpha:
        k_hi *= config.kappa_bracket_growth
        if k_hi > k_max:
            raise BracketFailureError(
                f"branch {j}: no sign change of lambda - alpha up to "
                f"kappa = {k_max:.3e}")
    kt, res = scipy.optimize.brentq(
        lambda k: ev.values(k)[j] - alpha, k_start, k_hi,
        rtol=max(config.tol_kappa_rel, 4 * np.finfo(float).eps),
        xtol=1e-300, full_output=True)
    lam_val, h = ev.eigenpair(kt, j)
    if abs(lam_val - alpha) > config.tol_lambda:
        raise NumericalFailureError(
            f"branch {j}: eigenvalue residual {abs(lam_val - alpha):.3e} at the "
            f"root exceeds tol_lambda = {config.tol_lambda:.1e}; tighten "
            "tol_kappa_rel")
    energy = -kt ** 2
    gap = z0 - energy
    return BoundState(
        kappa_tilde=float(kt),
        energy=float(energy),
        branch=j,
        h=h,
        gap=float(gap),
        residual=abs(lam_val - alpha),
        threshold_uncertain=bool(gap < config.threshold_gap_frac * abs(z0)),
        diagnostics={"bracket": [float(k_start), float(k_hi)],
                     "iterations": int(res.iterations),
                     "evaluations": int(ev.evaluations)},
    )


def spectrum_scan(curve: Curve, config: SolveConfig, kappa_range, n_points: int):
    """Eigenvalue curves over a kappa range plus refined alpha-crossings.

    Returns (SpectralCurve, list[Crossing]); crossings are Brent-refined to
    the configured relative tolerance between bracketing samples.
    """
    k_lo, k_hi = float(kappa_range[0]), float(kappa_range[1])
    if not (0 < k_lo < k_hi):
        raise GeometryError("kappa range must satisfy 0 < kappa_min < kappa_max")
    kappas = np.geomspace(k_lo, k_hi, int(n_points))
    crossings = []
    with _BranchEvaluator(curve, config.grid, config.m_branches) as ev:
        # sampling through the memo lets Brent reuse the bracketing samples
        curve_data = SpectralCurve.sample(kappas, ev.values, config.grid)
        for j in range(config.m_branches):
            f = curve_data.lambdas[:, j] - config.alpha
            for i in range(len(kappas) - 1):
                if f[i] == 0.0:
                    crossings.append(Crossing(branch=j, kappa=float(kappas[i])))
                elif f[i] * f[i + 1] < 0:
                    kc = scipy.optimize.brentq(
                        lambda k: ev.values(k)[j] - config.alpha,
                        kappas[i], kappas[i + 1],
                        rtol=max(config.tol_kappa_rel, 4 * np.finfo(float).eps),
                        xtol=1e-300)
                    crossings.append(Crossing(branch=j, kappa=float(kc)))
    return curve_data, crossings


def converge_study(curve: Curve, config: SolveConfig) -> ConvergenceReport:
    """Grid-refinement study of the ground-state energy.

    Runs an N-ladder N / 2^(levels-1), ..., N/2, N at fixed L (observed
    order from successive differences, Richardson extrapolation from the
    finest pair) plus one run with the box enlarged to 1.5 L at fixed
    resolution Delta, which isolates the truncation tail.  Acceptance
    requires every difference to shrink by at least 3x per N-doubling;
    non-monotone refinement only warns.
    """
    if config.refine_levels < 2:
        raise GeometryError("need at least 2 refinement levels")
    base = config.grid
    warnings = []
    levels = []
    energies = []
    for k in range(config.refine_levels):
        n_k = base.N // 2 ** (config.refine_levels - 1 - k)
        if n_k < 8 or n_k % 2:
            raise GeometryError(f"refinement level {k} gives invalid N = {n_k}")
        e_k = _ground_energy(curve, replace(config, grid=GridSpec(base.L, n_k)))
        levels.append(ConvergenceLevel(N=n_k, L=base.L, energy=e_k))
        energies.append(e_k)

    n_tail = base.N + base.N // 2
    n_tail += n_tail % 2
    tail_grid = GridSpec(1.5 * base.L, n_tail)
    e_tail = _ground_energy(curve, replace(config, grid=tail_grid))
    levels.append(ConvergenceLevel(N=n_tail, L=tail_grid.L, energy=e_tail))

    if any(e is None for e in energies):
        vacuous = all(e is None for e in energies) and e_tail is None
        if not vacuous:
            warnings.append("bound state appears only on some refinement levels")
        return ConvergenceReport(levels=levels, diffs=[], observed_order=None,
                                 richardson_energy=None, tail_change=None,
                                 accepted=vacuous, warnings=warnings)

    diffs = [energies[i + 1] - energies[i] for i in range(len(energies) - 1)]
    observed_order = None
    accepted = True
    for i in range(1, len(diffs)):
        if abs(diffs[i - 1]) > 0:
            ratio = abs(diffs[i - 1]) / max(abs(diffs[i]), 1e-300)
            if ratio < 3.0:
                accepted = False
            if np.sign(diffs[i]) != np.sign(diffs[i - 1]):
                warnings.append("non-monotone refinement between levels "
                                f"{i - 1} and {i + 1}")
    if len(diffs) >= 2 and abs(diffs[-1]) > 0:
        observed_order = math.log2(abs(diffs[-2]) / abs(diffs[-1]))
    p = observed_order if observed_order and 0.5 <= observed_order <= 6 else 2.0
    richardson = energies[-1] + diffs[-1] / (2 ** p - 1.0)
    tail_change = abs(e_tail - energies[-1]) if e_tail is not None else None
    if e_tail is None:
        warnings.append("bound state lost when enlarging the box")
        accepted = False
    return ConvergenceReport(levels=levels, diffs=diffs,
                             observed_order=observed_order,
                             richardson_energy=richardson,
                             tail_change=tail_change,
                             accepted=accepted, warnings=warnings)


def _ground_energy(curve, config) -> Optional[float]:
    states = [s for s in find_bound_states(curve, config, ground_only=True)
              if not s.threshold_uncertain]
    return states[0].energy if states else None


# ---------------------------------------------------------------------------
# serialization


def states_to_dict(alpha: float, grid: GridSpec, states,
                   convergence: Optional[ConvergenceReport] = None) -> dict:
    out = {
        "alpha": float(alpha),
        "zeta0": zeta0(alpha),
        "grid": {"L": float(grid.L), "N": int(grid.N)},
        "states": [
            {
                "kappa": st.kappa_tilde,
                "energy": st.energy,
                "gap": st.gap,
                "branch": st.branch,
                "residual": st.residual,
                "threshold_uncertain": bool(st.threshold_uncertain),
            }
            for st in states
        ],
    }
    if convergence is not None:
        out["convergence"] = convergence_to_dict(convergence)
    return out


def convergence_to_dict(report: ConvergenceReport) -> dict:
    return {
        "levels": [{"N": lv.N, "L": lv.L, "energy": lv.energy} for lv in report.levels],
        "diffs": list(report.diffs),
        "observed_order": report.observed_order,
        "richardson_energy": report.richardson_energy,
        "tail_change": report.tail_change,
        "accepted": bool(report.accepted),
        "warnings": list(report.warnings),
    }
