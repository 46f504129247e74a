"""Shared fixtures: the solves are computed once per session and reused
by the acceptance criteria.  Runs that need PT defects solve densely
(eigenvalues only, defects from band vectors); the others take the
lowest levels from a certified window."""

import numpy as np
import pytest

import ptspec as ps

PTHO_ALPHA = 1.5
PTHO_C = 1.0
PTHO_HALFWIDTH = 12.0

ANGULAR_ELL = 1.0
ANGULAR_EPS = 0.1
# reality tolerance for the angular runs: exact double degeneracies split
# by up to ~2e-5 at npoints=1024, partly into the imaginary direction, so
# the default 1e-7 would misread rounding-split pairs as complex
ANGULAR_REALITY_TOL = 1e-4


# levels taken from each eigenvalue-only window; the criteria use 7 or 8
LOWEST = 8


def ptho_grid(alpha, c, npoints):
    model = ps.PthoParams(alpha=alpha, c=c)
    return model, ps.contour_for(model, npoints=npoints,
                                 halfwidth=PTHO_HALFWIDTH)


@pytest.fixture(scope="session")
def ptho_2000():
    return ps.solve_spectrum(*ptho_grid(PTHO_ALPHA, PTHO_C, 2000))


@pytest.fixture(scope="session")
def ptho_1000():
    return ps.solve_lowest(*ptho_grid(PTHO_ALPHA, PTHO_C, 1000), LOWEST)


@pytest.fixture(scope="session")
def ptho_2000_c05():
    return ps.solve_lowest(*ptho_grid(PTHO_ALPHA, 0.5, 2000), LOWEST)


@pytest.fixture(scope="session")
def ptho_2000_c20():
    return ps.solve_lowest(*ptho_grid(PTHO_ALPHA, 2.0, 2000), LOWEST)


@pytest.fixture(scope="session")
def ptho_harmonic():
    return ps.solve_lowest(*ptho_grid(0.5, 1.0, 2000), LOWEST)


@pytest.fixture(scope="session")
def angular_1024():
    model = ps.AngularParams(ell=ANGULAR_ELL, eps=ANGULAR_EPS)
    g = ps.contour_for(model, npoints=1024)
    return ps.solve_spectrum(model, g, reality_tol=ANGULAR_REALITY_TOL)


@pytest.fixture(scope="session")
def ptho_scan():
    model = ps.PthoParams(alpha=PTHO_ALPHA, c=PTHO_C)
    g = ps.contour_for(model, npoints=600, halfwidth=10.0)
    family = ps.ptho_numeric_family(model, g, 6)
    return ps.scan_parameter(family, 0.5, 2.5, 41, 6, crossing_tol=5e-3)


def ode_residual(wavefunction, potential, energy, grid):
    """Energy-relative discrete residual of an analytic eigenfunction:
    || (-D2 + V - E) psi || / (||psi|| max(1, |E|)) with the 3-point
    Laplacian on a uniform grid."""
    h = grid[1] - grid[0]
    psi = wavefunction(grid)
    v = potential(grid)
    lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2
    r = -lap + (v[1:-1] - energy) * psi[1:-1]
    return (np.linalg.norm(r) / np.linalg.norm(psi[1:-1])
            / max(1.0, abs(energy)))
