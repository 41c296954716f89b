"""An independent continuum reference for the radial march: a method of lines.

For radial u in three space dimensions, box(u) = A|u|^p becomes, for w = r*u,
the one-dimensional w_tt = w_rr + A r |w/r|^p on r >= 0, with w odd in r.
:func:`axis_value` discretises that equation with no lattice of
characteristics and no integral equation: fourth-order central differences
in r on the nodes r_i = i*dx, with two odd ghost points w_{-i} = -w_i below
the axis and two zero ones past the outer radius, which lies a unit past the
data's light cone; and classical RK4 in t with dt = dx/4.  u on the axis is
read as (8 w_1 - w_2) / (6 dx), exact for w = u0 r + u2 r^3, so the whole
scheme is fourth order.
"""

import numpy as np


def axis_value(g, rho, t_end, dx, p=2.0, A=1.0):
    """u(0, t_end) for the data u(r, 0) = 0 and u_t(r, 0) = g(r), g a vectorised
    function of r supported in r <= rho; t_end a multiple of dx/4."""
    r = dx * np.arange(int(round((rho + t_end + 1.0) / dx)) + 1)
    steps = int(round(4.0 * t_end / dx))
    dt = t_end / steps
    assert abs(dt - dx / 4.0) <= 1e-12 * dx

    def acceleration(w):
        # w_rr with odd ghosts below the axis and zero ones past the end, plus the source
        e = np.concatenate((-w[2:0:-1], w, [0.0, 0.0]))
        out = (-e[:-4] + 16.0 * e[1:-3] - 30.0 * e[2:-2] + 16.0 * e[3:-1] - e[4:]) / (12 * dx * dx)
        out[1:] += A * r[1:] * np.abs(w[1:] / r[1:]) ** p
        return out

    w, v = np.zeros_like(r), r * g(r)
    for _ in range(steps):
        k1w, k1v = v, acceleration(w)
        k2w, k2v = v + 0.5 * dt * k1v, acceleration(w + 0.5 * dt * k1w)
        k3w, k3v = v + 0.5 * dt * k2v, acceleration(w + 0.5 * dt * k2w)
        k4w, k4v = v + dt * k3v, acceleration(w + dt * k3w)
        w = w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return (8.0 * w[1] - w[2]) / (6.0 * dx)
