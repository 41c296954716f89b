"""Sampled radial profiles with linear interpolation and exact cell moments.

A profile stores values on an ascending radius grid starting at 0 and is
treated as piecewise linear between knots and identically zero beyond its
support radius rho, which is made a knot (value 0) when it falls inside the
grid, so the profile is continuous at rho.  Besides evaluation it exposes the
two quantities the one-dimensional reduction of the homogeneous wave solution
needs:

* ``derivative(x)`` of the interpolant, centred at knots so that knot queries
  (which is where the solver asks) stay second-order accurate;
* ``moment_integral(x)`` = integral of y*profile(y) from 0 to x, computed from
  per-cell closed forms so compact support is honoured to round-off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RadialProfile", "bump_profile", "zero_profile"]


@dataclass(frozen=True)
class RadialProfile:
    r: np.ndarray
    values: np.ndarray
    rho: float
    _moments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or v.shape != r.shape:
            raise ValueError("profile grid and values must be 1-D and congruent")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ValueError("profile radii and values must be finite")
        if r.size < 2 or r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise ValueError("grid unsorted: need two or more radii ascending strictly from 0")
        if self.rho <= 0:
            raise ValueError("support radius must be positive")
        if r[0] < self.rho < r[-1] and not np.any(r == self.rho):
            # rho as a knot: the interpolant falls to zero at rho, where
            # __call__ zeroes x > rho, so the profile is continuous there
            k = np.searchsorted(r, self.rho)
            r, v = np.insert(r, k, self.rho), np.insert(v, k, 0.0)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)
        # cumulative integral of y*v(y) over whole cells, one entry per knot
        r0, r1 = r[:-1], r[1:]
        v0, v1 = v[:-1], v[1:]
        m = (v1 - v0) / (r1 - r0)
        cell = v0 * (r1**2 - r0**2) / 2 + m * (r1**3 - r0**3) / 3 - m * r0 * (r1**2 - r0**2) / 2
        object.__setattr__(self, "_moments", np.concatenate(([0.0], np.cumsum(cell))))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.r, self.values, left=self.values[0], right=0.0)
        out = np.where(x > self.rho, 0.0, out)
        return out if out.ndim else float(out)

    def derivative(self, x):
        """Slope of the interpolant; centred difference at interior knots."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r, v = self.r, self.values
        slopes = np.diff(v) / np.diff(r)
        idx = np.clip(np.searchsorted(r, x, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        inner = r[1:-1]
        on_knot = np.zeros(x.shape, dtype=bool)
        if inner.size:
            # within atol of an interior knot: only the two that bracket x can be
            k = np.searchsorted(inner, x)
            below, above = inner[np.maximum(k - 1, 0)], inner[np.minimum(k, inner.size - 1)]
            on_knot = np.minimum(np.abs(x - below), np.abs(x - above)) <= 1e-12 * max(1.0, r[-1])
        if on_knot.any():
            knot = np.clip(np.searchsorted(r, x[on_knot]), 1, len(r) - 2)
            centred = (v[knot + 1] - v[knot - 1]) / (r[knot + 1] - r[knot - 1])
            out[on_knot] = centred
        out = np.where(x >= min(self.rho, r[-1]), 0.0, out)
        return out if out.shape != (1,) else float(out[0])

    def moment_integral(self, x):
        """Exact integral of y*profile(y) dy from 0 to |x| (even in x); constant past rho."""
        x = np.abs(np.asarray(x, dtype=float))
        xc = np.minimum(x, min(self.rho, self.r[-1]))
        idx = np.clip(np.searchsorted(self.r, xc, side="right") - 1, 0, len(self.r) - 2)
        r0 = self.r[idx]
        r1 = self.r[idx + 1]
        v0 = self.values[idx]
        m = (self.values[idx + 1] - v0) / (r1 - r0)
        part = v0 * (xc**2 - r0**2) / 2 + m * (xc**3 - r0**3) / 3 - m * r0 * (xc**2 - r0**2) / 2
        out = self._moments[idx] + part
        return out if out.ndim else float(out)

    @staticmethod
    def from_csv(path, rho):
        data = _read_columns(path)
        return RadialProfile(data[:, 0], data[:, 1], rho)


def _read_columns(path):
    """The rows of a two-column CSV table after its header line, as an (n, 2)
    array; ValueError unless every row holds two finite numbers.  A table with
    no rows, on which genfromtxt warns and returns an empty array, is one of
    these errors, with no warning shown."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
        except UserWarning:
            raise ValueError("expected rows of two finite numbers (read no rows)") from None
    rows, cols = data.shape
    if cols != 2 or not np.all(np.isfinite(data)):
        raise ValueError(f"expected rows of two finite numbers (read {rows}x{cols})")
    return data


def bump_profile(amplitude, rho, grid_r):
    """amplitude * (1 - (r/rho)^2)^3 inside the support, zero outside."""
    grid_r = np.asarray(grid_r, dtype=float)
    x = np.clip(1.0 - (grid_r / rho) ** 2, 0.0, None)
    return RadialProfile(grid_r, amplitude * x**3, rho)


def zero_profile(rho, grid_r):
    grid_r = np.asarray(grid_r, dtype=float)
    return RadialProfile(grid_r, np.zeros_like(grid_r), rho)
