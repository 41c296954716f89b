"""Numerical laboratory for radially symmetric semilinear wave equations.

Solves box(u) = A|u|^p in three space dimensions through the exact
spherical-means reduction to a Volterra integral equation on a characteristic
lattice, detects finite-time blow-up, verifies the chain of integral
inequalities that underlies the subcritical nonexistence argument, and
quantifies the weighted Gronwall lemma behind it with closed-form failure
radii.
"""

__version__ = "0.1.0"

from .gronwall import (GronwallCertificate, GronwallParams, WindowTooShortError,
                       certify, check_inequality, failure_radius,
                       log10_failure_radius)
from .diagnostics import (ChainConfig, DiagnosticsReport, GridTooShortError,
                          F_of, G_of, H_of, check_chain,
                          check_pointwise_lower_bound, choose_epsilon, compute_M,
                          gronwall_params_from_chain, s_exponent, select_t2_delta)
from .profiles import RadialProfile, bump_profile, zero_profile
from .regions import (Cone, RegionBrt, RegionQ, RegionQrt, RegionR, RegionT,
                      Sigma, SigmaPrime, area, contains, subset_check)
from .solver import (BlowupFit, CharGrid, Problem, RadialField, apply_P,
                     detect_blowup_time, integral_residual, linear_radial,
                     normalize_coefficient, solve_forced, solve_march)
from .spherical import (ScalarField3, SphereQuadrature, build_sphere_quadrature,
                        reduce_initial_data, spherical_mean)

__all__ = [
    "__version__",
    "Cone", "RegionR", "RegionT", "RegionQ", "RegionQrt", "RegionBrt",
    "Sigma", "SigmaPrime", "contains", "area", "subset_check",
    "ScalarField3", "SphereQuadrature", "build_sphere_quadrature",
    "spherical_mean", "reduce_initial_data",
    "RadialProfile", "bump_profile", "zero_profile",
    "Problem", "CharGrid", "RadialField", "BlowupFit", "apply_P",
    "linear_radial", "solve_march", "solve_forced", "detect_blowup_time",
    "integral_residual", "normalize_coefficient",
    "ChainConfig", "DiagnosticsReport", "GridTooShortError",
    "select_t2_delta", "compute_M", "check_pointwise_lower_bound",
    "F_of", "G_of", "H_of", "check_chain",
    "s_exponent", "choose_epsilon", "gronwall_params_from_chain",
    "GronwallParams", "GronwallCertificate", "WindowTooShortError",
    "check_inequality", "failure_radius", "log10_failure_radius", "certify",
]
