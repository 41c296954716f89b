"""Text exports of a field and a profile, with 17 significant digits.

The commands write no text copy of either: ``field.npz`` is the field
artifact, and a custom profile is read from CSV by ``RadialProfile.from_csv``.
These writers make the CSV inputs and the non-npz field that the tests need.
"""

import numpy as np

from conftest import held


def field_to_csv(field, path):
    """A ``# wavelab-field`` header line, then r,t,value rows by level."""
    grid, n_r = field.grid, field.grid.n_r
    tb, p, a = ("none" if x is None else f"{x:.17g}" for x in (field.t_b, field.p, field.A))
    rows = np.empty((field.n_levels * (n_r + 1), 3))
    rows[:, 0] = np.tile(grid.r_values(), field.n_levels)
    rows[:, 1] = np.repeat(grid.t_values(field.n_levels), n_r + 1)
    rows[:, 2] = held(field.samples).ravel()
    with open(path, "w", newline="") as fh:
        fh.write(f"# wavelab-field h={grid.h:.17g} r_max={grid.r_max:.17g} "
                 f"t_max={grid.t_max:.17g} p={p} A={a} status={field.status} t_b={tb}\n")
        fh.write("r,t,value\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def profile_to_csv(profile, path):
    """The ``r,value`` header, then one row per knot: what ``from_csv`` reads."""
    with open(path, "w", newline="") as fh:
        fh.write("r,value\n")
        for ri, vi in zip(profile.r, profile.values):
            fh.write(f"{ri:.17g},{vi:.17g}\n")
