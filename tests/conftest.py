import tracemalloc

import numpy as np
import pytest

import quadrature_oracle
from wavelab.cli import _FIELD_PART
from wavelab.diagnostics import ChainConfig, check_chain, compute_M, select_t2_delta
from wavelab.profiles import bump_profile, zero_profile
from wavelab.solver import CharGrid, Problem, solve_march

RHO = 1.0


@pytest.fixture(autouse=True)
def no_field_left_open(request):
    """Fail a test that leaves a solve's unfinished field.npz (``cli._FIELD_PART``)
    under its tmp_path: every solve writes through a RowFile, which is renamed
    field.npz once complete or removed when closed unsaved."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob(_FIELD_PART))
    assert not left, f"unclosed field writers left {left}"


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of the memory traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held(samples):
    """A field's samples as one array in memory: an array's copy, or the rows of a
    ``solver.RowFile`` (which come cut past their last nonzero column) read
    back into the whole lattice."""
    rows = samples[: samples.shape[0]]
    out = np.zeros(samples.shape)
    out[:, : rows.shape[1]] = rows
    return out


def dense_quadrature(u, i, j, alpha_lo=None, beta_lo=None, source=None):
    """The reference quadrature (``quadrature_oracle``) on g = source(u, a) built
    whole; u is an array or a ``solver.RowFile`` (``held``)."""
    u = held(u)
    g = u if source is None else source(u, np.arange(u.shape[1]))
    return quadrature_oracle.influence_quadrature(g, i, j, alpha_lo, beta_lo)


def blowup_problem(grid, amplitude=10.0, p=2.0, A=1.0, rho=RHO):
    gr = grid.r_values()
    return Problem(p, A, zero_profile(rho, gr), bump_profile(amplitude, rho, gr))


@pytest.fixture(scope="session")
def blowup_run_coarse():
    """Reference blow-up run at h = rho/32, cheap enough for unit tests."""
    grid = CharGrid(RHO / 32, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)
    field = solve_march(prob, grid)
    assert field.status == "blown_up"
    return prob, field


@pytest.fixture(scope="session")
def crit4_run():
    """The acceptance blow-up run at h = rho/128."""
    grid = CharGrid(RHO / 128, RHO + 16.0, 16.0)
    prob = blowup_problem(grid)
    field = solve_march(prob, grid)
    return prob, field


@pytest.fixture(scope="session")
def crit4_chain(crit4_run):
    """Selected cone base, constants, and full chain report for the run."""
    prob, field = crit4_run
    t2, delta = select_t2_delta(field, prob.f_profile, prob.g_profile)
    cfg = ChainConfig(prob.p, prob.A, t2, delta)
    cfg = cfg.with_constants(compute_M(field, t2, delta, prob.p))
    report = check_chain(field, cfg)
    return field, report
