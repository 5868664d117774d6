"""spinsurf: spinor (Weierstrass) representation of surfaces in R^3/R^4, the
quaternionic Moutard transformation, and exact Davey-Stewartson II solutions
from heat polynomials, with symbolic and numerical verification tooling.
"""

from .grid import (ComplexField, Grid2D, antiderivative, constant_field,
                   field_from_function, make_grid, save_complexfield_csv, square_grid,
                   wirtinger_derivative)
from .exactpoly import (BiPoly, C, RQuat, RationalFn, T, Z, ZBAR,
                        heat_antiderivative, heat_extend, heat_residual, poly_equal)
from .dirac import SpinorField, dirac_residual_norm
from .surface import (SurfaceMap, discrete_mean_curvature, gauss_map,
                      integrate_surface_r3, integrate_surface_r4, invert_surface,
                      measured_e2alpha, named_spinor, smatrix_to_surface, spinor_metric,
                      weier_derivatives, willmore)
from .meshio import export_mesh
from .moutard import (KData, MoutardTransform, build_S, heat_datum_fields,
                      heat_datum_spinors, heat_smatrix_values, k_matrix, moutard_exact,
                      omega, omega1, time_offset_integral)
from .dsii import (ExactSolution, NormResult, OzawaData, SingularEvent,
                   catalog, dsii_residual_exact, dsii_exact_identity_holds,
                   exact_solution, l2_norm_sq, re_v_from_u, singular_times,
                   to_halved_v_form)
from .evolve import (DsiiEvolver, EvolverState, Trajectory, evolve, grid_norm_sq, run_summary,
                     write_trajectory)

__version__ = "0.1.0"

# the 1-D soliton and Willmore-bound layer loads on first use (PEP 562): only
# verify and willmore-check run it
_HIERARCHY = ("Potential1D", "clifford_potential", "mkdv_reduction_identity",
              "mkdv_rhs_1d", "mkdv_soliton", "mnv_residual", "mnv_rhs",
              "soliton_potential", "v_from_constraint_mnv", "willmore_bound_check")


def __getattr__(name):
    if name in _HIERARCHY:
        from . import hierarchy
        return getattr(hierarchy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HIERARCHY))
