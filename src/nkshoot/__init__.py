"""Numerical reconstruction of cohomogeneity-one nearly Kahler structures on
the six-sphere and on the product of two three-spheres.

The package solves the singular initial value problems at the two types of
singular orbit by power-series recurrence, integrates the fundamental ODE
system to the maximal-volume orbit, traces the two solution curves in
maximal-volume-orbit space, and locates the doubling and matching roots that
yield the homogeneous and the two inhomogeneous complete structures.
"""
from .errors import NKError
from .exact import eval_calabi_yau, eval_named, legendre_xi, rescale_bubble
from .geometry import (BohmValue, MaxOrbitRecord, bohm, comparison_bounds,
                       count_v0_zeros, project_H, scalar_curvature,
                       traceless_L_norm2, volume_and_mean_curvature)
from .integrate import MAX_VOLUME_EVENT, EventSpec, Trajectory, integrate
from .series import (SeriesSolution, SingularIVP, eval_series, handoff,
                     series_bubble_a, series_bubble_b, series_psi_a,
                     series_psi_b, solve_singular_ivp)
from .shoot import (CompleteSolution, Curve, FamilySolve, find_doubling,
                    find_matching, glue, max_orbit, scan_s2s4_boundary,
                    solve_family, trace_curve)
from .state import (ConstraintVector, State, Symmetry, apply_symmetry,
                    constraints, rhs)

__version__ = "0.1.0"

__all__ = [
    "NKError", "State", "ConstraintVector", "Symmetry", "constraints",
    "rhs", "apply_symmetry",
    "SingularIVP", "SeriesSolution", "solve_singular_ivp", "series_psi_a",
    "series_psi_b", "series_bubble_a", "series_bubble_b", "eval_series",
    "handoff",
    "EventSpec", "Trajectory", "integrate", "MAX_VOLUME_EVENT",
    "MaxOrbitRecord", "BohmValue", "bohm", "volume_and_mean_curvature",
    "scalar_curvature", "traceless_L_norm2", "project_H", "count_v0_zeros",
    "comparison_bounds",
    "eval_named", "eval_calabi_yau", "rescale_bubble", "legendre_xi",
    "FamilySolve", "Curve", "CompleteSolution", "max_orbit", "solve_family",
    "trace_curve", "find_doubling", "find_matching", "glue",
    "scan_s2s4_boundary",
    "__version__",
]
