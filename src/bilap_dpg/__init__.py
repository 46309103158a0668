"""DPG solver with optimal test functions for the clamped bi-Laplacian.

Two ultraweak formulations of Delta^2 u = f with u = du/dn = 0 are
discretized on triangular meshes: piecewise-polynomial field variables,
reduced Hsieh-Clough-Tocher skeleton traces, per-element optimal test
functions, a built-in residual error estimator, and adaptive
newest-vertex-bisection refinement.  A companion "trace lab" replays the
skeleton trace-space experiments (Dirac approximation, unbounded point
values, duality/extension norm sandwich) numerically.
"""

from bilap_dpg.mesh import (
    Mesh,
    MeshError,
    doerfler_mark,
    make_sector_domain,
    make_unit_square,
    refine_nvb,
)
from bilap_dpg.forms import Formulation
from bilap_dpg.problems import (
    Problem,
    l2_errors,
    singular_problem,
    smooth_problem,
)
from bilap_dpg.dpg_solver import (
    Indicators,
    Solution,
    StudyRecord,
    adaptive_loop,
    assemble_and_solve,
    error_indicators,
)
from bilap_dpg.trace_space import (
    TraceSpace,
    apply_clamped_bc,
    build_trace_space,
    interpolate_boundary_data,
)

__all__ = [
    "Mesh",
    "MeshError",
    "Formulation",
    "Problem",
    "Indicators",
    "Solution",
    "StudyRecord",
    "TraceSpace",
    "adaptive_loop",
    "apply_clamped_bc",
    "assemble_and_solve",
    "build_trace_space",
    "doerfler_mark",
    "error_indicators",
    "interpolate_boundary_data",
    "l2_errors",
    "make_sector_domain",
    "make_unit_square",
    "refine_nvb",
    "singular_problem",
    "smooth_problem",
]

__version__ = "0.1.0"
