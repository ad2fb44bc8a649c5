"""Numerical laboratory for graphical translating solitons in R^3."""

from .grids import GridFunction, Rectangle
from .solitons import (BowlProfile, CylinderParams, DomainError, GrimParams,
                       bowl_asymptote_gap, bowl_grid, bowl_profile_solve,
                       bowl_radial_function, grim_cylinder_gradient,
                       grim_cylinder_residual, grim_cylinder_value, grim_grid,
                       grim_partials, grim_reaper_value, sample_to_grid,
                       strip_boundary_data, tilted_cylinder_value)
from .geometry import (GeometryFields, Partials, drift_identity_residuals,
                       geometry_fields, partials, translator_residual)
from .solver import (SolveConfig, SolveOutcome, fill_from_boundary,
                     newton_solve, parabolic_relax)
from .checks import (CheckReport, SuiteConfig, check_A_bound, check_convexity,
                     check_gradient_bounds, check_halfstrip_W_bound,
                     check_harnack, check_soliton_identities,
                     check_strip_H_bound, check_strip_asymptotics,
                     check_symmetry, check_translator, default_suite, run_suite)

__version__ = "0.1.0"
