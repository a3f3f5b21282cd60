"""Bound states of the 3D Laplacian perturbed by an attractive delta
interaction on an asymptotically straight curve.

The spatial eigenvalue problem is reduced to a one-dimensional boundary
integral operator Q_kappa = T_kappa + B_kappa on the curve (a
Birman-Schwinger reduction); bound-state energies E = -kappa~^2 correspond
to roots of lambda_j(kappa~) = alpha for the top eigenvalue branches.  See
the module docstrings of :mod:`leakywire.operators` and
:mod:`leakywire.solver` for the conventions.
"""

from .curve import (
    AssumptionReport,
    Curve,
    FrenetFrame,
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
from .eigenfield import (
    TraceFit,
    bc_residual,
    extract_xi_omega,
    macdonald_identity,
    trace_on_shifted,
)
from .operators import (
    GridSpec,
    assemble_T,
    hs_norm,
    kappa0,
    s_kappa,
    schur_holmgren_norm,
    t_multiplier,
    zeta0,
)
from .oracle import (
    OracleReport,
    kappa_independence_check,
    kernel_property_scan,
    scaling_inequality_check,
    straight_line_oracle,
)
from .solver import (
    BoundState,
    SolveConfig,
    converge_study,
    find_bound_states,
    spectrum_scan,
)
from .spectral import SpectralCurve, lambda_curve

__version__ = "0.1.0"
