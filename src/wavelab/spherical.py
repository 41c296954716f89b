"""Spherical means of three-dimensional fields.

The radial average of h at radius r and time t is the surface average

    mean(h)(r, t) = (1/4pi) * integral over |xi| = 1 of h(r*xi, t) dS,

discretised by a product rule: Gauss-Legendre in the polar cosine times a
uniform azimuth grid.  With n_mu = ceil((d+1)/2) polar nodes and n_phi = d+1
azimuth nodes the rule integrates all spherical harmonics up to degree d
exactly, which the tests verify against closed-form monomial moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ScalarField3",
    "SphereQuadrature",
    "build_sphere_quadrature",
    "spherical_mean",
]


@dataclass(frozen=True)
class ScalarField3:
    """A scalar field on R^3 x [0, inf) with compact spatial support.

    ``evaluator(points, t)`` takes an (n, 3) array and a scalar time and
    returns n values; it must vanish for |x| > support_radius.
    """

    evaluator: Callable[[np.ndarray, float], np.ndarray]
    support_radius: float

    def __call__(self, points, t=0.0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.evaluator(points, t), dtype=float)


@dataclass(frozen=True)
class SphereQuadrature:
    nodes: np.ndarray      # (n, 3) unit vectors
    weights: np.ndarray    # (n,), positive, summing to 1
    degree: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ValueError("nodes must lie on the unit sphere")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")


def build_sphere_quadrature(degree: int = 23) -> SphereQuadrature:
    """Product rule exact for spherical polynomials of total degree <= degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n_mu = (degree + 2) // 2
    n_phi = degree + 1
    mu, w_mu = np.polynomial.legendre.leggauss(max(n_mu, 1))
    phi = 2.0 * np.pi * np.arange(max(n_phi, 1)) / max(n_phi, 1)
    sin_theta = np.sqrt(1.0 - mu**2)
    nodes = np.empty((mu.size * phi.size, 3))
    weights = np.empty(mu.size * phi.size)
    k = 0
    for i in range(mu.size):
        nodes[k : k + phi.size, 0] = sin_theta[i] * np.cos(phi)
        nodes[k : k + phi.size, 1] = sin_theta[i] * np.sin(phi)
        nodes[k : k + phi.size, 2] = mu[i]
        weights[k : k + phi.size] = 0.5 * w_mu[i] / phi.size
        k += phi.size
    return SphereQuadrature(nodes, weights, degree)


def spherical_mean(field: ScalarField3, r: float, t: float, quad: SphereQuadrature) -> float:
    """Surface average of the field over the sphere of radius r at time t.

    At r = 0 this is the centre value exactly; beyond the support radius it is
    zero without sampling.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return float(field(np.zeros((1, 3)), t)[0])
    if r > field.support_radius:
        return 0.0
    vals = field(r * quad.nodes, t)
    return float(np.dot(quad.weights, vals))
