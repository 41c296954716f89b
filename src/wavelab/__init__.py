"""Numerical laboratory for radially symmetric semilinear wave equations.

Solves box(u) = A|u|^p in three space dimensions through the exact
spherical-means reduction to a Volterra integral equation on a characteristic
lattice, detects finite-time blow-up, verifies the chain of integral
inequalities that underlies the subcritical nonexistence argument, and
quantifies the weighted Gronwall lemma behind it with closed-form failure
radii.
"""

__version__ = "0.1.0"

from .gronwall import (GronwallCertificate, GronwallParams, WindowTooShortError, certify,
                       failure_radius, log10_failure_radius)
from .diagnostics import (ChainConfig, DiagnosticsReport, GridTooShortError, check_chain,
                          choose_epsilon, compute_M, gronwall_params_from_chain, s_exponent,
                          select_t2_delta)
from .profiles import RadialProfile, bump_profile, zero_profile
from .solver import (BlowupFit, CharGrid, Problem, RadialField, detect_blowup_time,
                     integral_residual, solve_march)
from .spherical import (ScalarField3, SphereQuadrature, build_sphere_quadrature,
                        spherical_mean)

__all__ = [
    "__version__",
    "ScalarField3", "SphereQuadrature", "build_sphere_quadrature",
    "spherical_mean",
    "RadialProfile", "bump_profile", "zero_profile",
    "Problem", "CharGrid", "RadialField", "BlowupFit",
    "solve_march", "detect_blowup_time", "integral_residual",
    "ChainConfig", "DiagnosticsReport", "GridTooShortError",
    "select_t2_delta", "compute_M", "check_chain",
    "s_exponent", "choose_epsilon", "gronwall_params_from_chain",
    "GronwallParams", "GronwallCertificate", "WindowTooShortError",
    "failure_radius", "log10_failure_radius", "certify",
]
