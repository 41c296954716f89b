"""Weighted Gronwall-type integral inequality as executable mathematics.

No continuous H: [t0, inf) -> [0, inf) with H > 0 beyond t1 can satisfy

    H(r) >= C * integral from t1 to r of H(a)^a_exp (a - t0)^b da     (*)

for all r >= t1 when C > 0, a_exp > 1 and b >= -1.  The proof is quantitative:
with J(r) the right-hand integral, J'/J^a_exp >= C^a_exp (r - t0)^b, and
integrating from t1 + 1 bounds the left side by J(t1+1)^(1-a_exp)/(a_exp - 1)
while the right side grows without bound.  Equating the two gives a closed-form
radius r_star by which (*) must already have failed:

    b > -1:  (r*-t0)^(b+1) = (t1+1-t0)^(b+1) + (b+1) J1^(1-a) / ((a-1) C^a)
    b = -1:  r* = t0 + (t1+1-t0) * exp( J1^(1-a) / ((a-1) C^a) )

The closed form is evaluated in log space, so r_star keeps a finite size
(log10_r_star) where r_star itself is beyond the double range.

This module checks (*) on sampled functions, computes r_star, and bundles both
into a certificate.  r_star is derived from the proof, not part of the
statement, and is labelled as such in reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "GronwallParams",
    "GronwallCertificate",
    "WindowTooShortError",
    "failure_radius",
    "log10_failure_radius",
    "certify",
]

_LOG_MAX = math.log(sys.float_info.max)
_LN10 = math.log(10.0)


class WindowTooShortError(ValueError):
    """The sample window ends before t1 + 1, so J1 = J(t1 + 1) cannot be computed."""


@dataclass(frozen=True)
class GronwallParams:
    """Hypotheses of the inequality: C > 0, a > 1, b >= -1, t0 <= t1."""

    C: float
    a: float
    b: float
    t0: float
    t1: float

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("need C > 0")
        if self.a <= 1:
            raise ValueError("need a > 1")
        if self.b < -1:
            raise ValueError("lemma hypothesis b >= -1 violated")
        if self.t1 < self.t0:
            raise ValueError("need t0 <= t1")


def _finite_or_none(x):
    """Strict JSON has no Infinity or NaN; a radius beyond doubles is null."""
    return x if x is not None and math.isfinite(x) else None


@dataclass(frozen=True)
class GronwallCertificate:
    """J1, the closed-form r_star and the scan's outcome on [t1, window_end].

    ``window_end`` is None for a certificate built from J1 alone (no samples).
    """

    params: GronwallParams
    J1: float
    r_star: float
    violation_found_at: Optional[float]
    log10_r_star: Optional[float]
    window_end: Optional[float] = None

    @property
    def window_short(self):
        """No violation found, and the window ends short of r_star."""
        return (self.violation_found_at is None and self.window_end is not None
                and self.window_end < self.r_star)

    def to_json_dict(self):
        """Strict-JSON fields; r_star and log10_r_star are None where not finite.

        A short window records why the lemma's conclusion is not confirmed
        (``skipped``) and where the samples end, in place of the violation.
        """
        p = self.params
        doc = {"C": p.C, "a": p.a, "b": p.b, "t0": p.t0, "t1": p.t1, "J1": self.J1,
               "r_star": _finite_or_none(self.r_star),
               "log10_r_star": _finite_or_none(self.log10_r_star)}
        if not self.window_short:
            doc["violation_found_at"] = self.violation_found_at
            return doc
        size = (f"{self.r_star:g}" if math.isfinite(self.r_star)
                else f"10^{self.log10_r_star:.1f}")
        doc["skipped"] = (f"extend window to r_star: no violation up to {self.window_end:g} "
                          f"but the lemma only forces one by {size}")
        doc["window_end"] = self.window_end
        return doc


def _cumulative_trapezoid(y, x=None, dx=1.0):
    """Trapezoid prefix sums of y along its last axis, 0.0 first; x or a uniform dx.

    The arithmetic of ``scipy.integrate.cumulative_trapezoid(y, x, dx=dx,
    initial=0.0)`` term by term, (d * (y[k+1] + y[k])) / 2.0 summed by one
    cumsum, so every value keeps the bits the chain was written against.
    """
    y = np.asarray(y, dtype=float)
    d = dx if x is None else np.diff(x)
    out = np.empty(y.shape)
    out[..., :1] = 0.0
    np.cumsum(d * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


def _weighted_cumulative(r, H, params):
    """Integral from t1 of H^a (alpha - t0)^b, trapezoid prefix sums.

    With b < 0 and t1 = t0 the weight is singular at the first node; that cell
    is dropped (open-left rule), which only underestimates the right side and
    matches the fact that the proof never integrates across it.
    """
    w = np.empty_like(r)
    gap = r - params.t0
    pos = gap > 0
    w[pos] = gap[pos] ** params.b
    if np.any(~pos):
        w[~pos] = 0.0 if params.b > 0 else (1.0 if params.b == 0 else np.inf)
    integrand = H**params.a * w
    if not np.isfinite(integrand[0]):
        integrand[0] = 0.0  # open-left first cell for the singular weight
    return _cumulative_trapezoid(integrand, r)


def _scan(r, H, params: GronwallParams):
    """Validated samples -> (r, the weighted cumulative integral, first violation).

    H must be sampled on an ascending grid starting at t1, nonnegative
    everywhere and strictly positive past t1 (the lemma's hypotheses, checked).
    The first violation is the smallest sampled radius where H(r) >= C *
    integral fails, or None; its tolerance 1e-12 * max(1, |H(r)|) covers
    round-off only, discretisation slack is the caller's grid-cell allowance.
    """
    r = np.asarray(r, dtype=float)
    H = np.asarray(H, dtype=float)
    if r.ndim != 1 or H.shape != r.shape or r.size < 3:
        raise ValueError("need congruent 1-D samples with at least 3 points")
    if abs(r[0] - params.t1) > 1e-9 * max(1.0, abs(params.t1)):
        raise ValueError("samples must start at t1")
    if np.any(np.diff(r) <= 0):
        raise ValueError("sample grid must ascend")
    if np.any(H < 0):
        raise ValueError("hypothesis violated: H must be nonnegative")
    if np.any(H[1:] <= 0):
        raise ValueError("hypothesis violated: H must be positive beyond t1")
    cums = _weighted_cumulative(r, H, params)
    tol = 1e-12 * np.maximum(1.0, np.abs(H))
    bad = np.nonzero(H < params.C * cums - tol)[0]
    return r, cums, float(r[bad[0]]) if bad.size else None


def _exp(x):
    return math.exp(x) if x <= _LOG_MAX else math.inf


def _log_gap(params: GronwallParams, J1: float) -> float:
    """ln(r_star - t0): the closed form in log space, for the given J1.

    log gain = (1-a) log J1 - log(a-1) - a log C, so neither the gain nor
    C^a is ever formed; b > -1 adds the base through a log-sum.  Finite for
    every valid parameter set except b = -1 with a gain beyond the double
    range, where ln(r_star - t0) = ln(base) + gain itself overflows.
    """
    if J1 <= 0:
        raise ValueError("need J1 > 0")
    a, bp1 = params.a, params.b + 1.0
    log_base = math.log(params.t1 + 1.0 - params.t0)
    log_gain = (1.0 - a) * math.log(J1) - math.log(a - 1.0) - a * math.log(params.C)
    if bp1 == 0.0:
        return log_base + _exp(log_gain)
    x, y = bp1 * log_base, math.log(bp1) + log_gain
    hi, lo = max(x, y), min(x, y)
    return (hi + math.log1p(math.exp(lo - hi))) / bp1


def failure_radius(params: GronwallParams, J1: float) -> float:
    """Closed-form radius by which the inequality must fail, given J1 = J(t1+1).

    Mathematically finite for every valid parameter set; this is the
    executable content of the nonexistence lemma.  With a tiny C and b close
    to -1 the closed form can exceed the double range, in which case +inf is
    returned (every finite sample window is then shorter than r_star);
    ``log10_failure_radius`` still gives its size.
    """
    return params.t0 + _exp(_log_gap(params, J1))


def log10_failure_radius(params: GronwallParams, J1: float) -> Optional[float]:
    """log10 r_star, finite where ``failure_radius`` overflows to +inf.

    It is +inf only for b = -1 with a gain beyond the double range, and None
    when r_star <= 0 (possible only for t1 < -1).
    """
    log_gap = _log_gap(params, J1)
    if log_gap == math.inf:
        return math.inf
    # log_gap >= ln(t1 + 1 - t0) >= 0, so exp(-log_gap) <= 1
    x = params.t0 * math.exp(-log_gap)
    if x <= -1.0:
        return None
    return (log_gap + math.log1p(x)) / _LN10


def certify(r, H, params: GronwallParams) -> GronwallCertificate:
    """Quadrature J1, closed-form r_star, and a violation scan in one bundle.

    Requires the sample window to cover [t1, t1+1] for J1 (WindowTooShortError
    otherwise), and then returns the certificate in every outcome.  If no
    violation is found and the window stops short of r_star
    (``window_short``), the lemma's conclusion is not confirmed numerically;
    r_star still bounds any existence horizon.  A window reaching r_star with
    no violation would refute the lemma (the property tests exercise exactly
    this contract).
    """
    if np.asarray(r, dtype=float)[-1] < params.t1 + 1.0 - 1e-12:
        raise WindowTooShortError("extend window to t1 + 1 to compute J1")
    r, cums, violation = _scan(r, H, params)
    J1 = float(np.interp(params.t1 + 1.0, r, cums))
    return GronwallCertificate(params, J1, failure_radius(params, J1), violation,
                               log10_failure_radius(params, J1), float(r[-1]))
