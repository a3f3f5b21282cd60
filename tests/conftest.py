import numpy as np
import pytest

from leakywire.curve import PlanarCurvatureProfile, SampledParametric, StraightLine
from leakywire.operators import GridSpec
from leakywire.solver import SolveConfig, find_bound_states

# ground-state solves are the expensive shared inputs; memoize them so the
# acceptance criteria, the boundary-condition tests and the solver tests all
# reuse one computation per grid
_SOLVE_CACHE = {}

BUMP_HINT = 56.0


def unfold(q):
    """The N x N matrix of an ``OperatorCache.q_matrix`` result: a (2, N/2,
    N/2) stack of even and odd blocks is mapped back through
    Q11 = (even + odd)/2 and Q12 J = (even - odd)/2, Q persymmetric."""
    if q.ndim == 2:
        return q
    even, odd = q
    left, right = (even + odd) / 2, (even - odd) / 2
    top = np.hstack([left, right[:, ::-1]])
    return np.vstack([top, top[::-1, ::-1]])


def parity_blocks(full):
    """The (even, odd) stack Q11 + Q12 J, Q11 - Q12 J of an N x N matrix."""
    h = full.shape[0] // 2
    left, right = full[:h, :h], full[:h, ::-1][:, :h]
    return np.stack([left + right, left - right])


def bump_curve():
    key = "bump"
    if key not in _SOLVE_CACHE:
        _SOLVE_CACHE[key] = PlanarCurvatureProfile.gaussian_bump(1.0, 1.0, BUMP_HINT)
    return _SOLVE_CACHE[key]


def bump_solution(L, N, alpha=0.0):
    key = (L, N, alpha)
    if key not in _SOLVE_CACHE:
        config = SolveConfig(alpha=alpha, grid=GridSpec(float(L), int(N)))
        _SOLVE_CACHE[key] = (config, find_bound_states(bump_curve(), config))
    return _SOLVE_CACHE[key]


@pytest.fixture(scope="session")
def bump():
    return bump_curve()


@pytest.fixture(scope="session")
def straight():
    return StraightLine()


@pytest.fixture(scope="session")
def half_circle_r2():
    # radius-2 circle arc covering half the circumference: arc length
    # parameter runs over [-pi, pi]
    ang = np.linspace(-np.pi / 2, np.pi / 2, 201)
    samples = np.stack([ang, 2.0 * np.cos(ang), 2.0 * np.sin(ang),
                        np.zeros_like(ang)], axis=1)
    return SampledParametric(samples)


@pytest.fixture(scope="session")
def helix():
    # a few turns of a radius-2 helix fading into straight ends: non-planar,
    # with torsion, and reparametrized by arc length on load
    t = np.linspace(-12.0, 12.0, 481)
    turn = np.exp(-(t / 4.0) ** 2)
    return SampledParametric(np.column_stack(
        [t, t + 2.0 * turn * np.sin(t), 2.0 * turn * np.cos(t), 0.5 * turn * t]))


def scan_samples(centre=0.0):
    """Samples of a non-planar wire like the benchmark's scan curves: a
    Gaussian bump in y centred at t = centre and an odd bump in z centred at
    t = 0, sampled every 0.1 on [-22, 22].  At centre 0 the wire is the same
    after a rotation by pi; off centre it has no mirror symmetry."""
    t = np.linspace(-22.0, 22.0, 441)
    return np.column_stack([t, t, np.exp(-((t - centre) / 1.5) ** 2),
                            0.8 * (t / 2.0) * np.exp(-(t / 2.0) ** 2)])


@pytest.fixture(scope="session")
def scan_wire():
    return SampledParametric(scan_samples())


@pytest.fixture(scope="session")
def off_centre_wire():
    return SampledParametric(scan_samples(1.0))
