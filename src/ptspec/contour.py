"""Discretized complex integration paths and Hamiltonian assembly.

Two contour families are supported:

* ``straight``: the line Im x = -c truncated to [-L, L] on an
  endpoint-inclusive grid with homogeneous Dirichlet conditions just
  outside the grid;
* ``periodic``: the shifted circle phi - i eps, phi in (-pi, pi), on a
  midpoint grid so that index reversal j -> N-1-j is exactly the
  reflection t -> -t.

The assembled operator is the central 3-point discretization of
-d^2/dt^2 + V(t - i shift).  For the oscillator model the constant c^2
produced by completing the square is deliberately left out of V, so
computed eigenvalues approximate E itself.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularPoint
from .models import AngularParams, PthoParams, require_finite

MIN_POINTS = 16
MAX_POINTS = 4096    # largest grid build_hamiltonian assembles (16 N^2 bytes)
DEFAULT_HALFWIDTH = 12.0


@dataclass(frozen=True)
class Contour:
    """A discretized contour: kind is "straight" or "periodic", shift the
    downward displacement (c or eps), halfwidth the truncation L (pi,
    fixed, for periodic), npoints the grid size."""
    kind: str
    shift: float
    halfwidth: float
    npoints: int

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("straight", "periodic"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        if self.npoints < MIN_POINTS:
            raise ValueError(f"npoints must be >= {MIN_POINTS}")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")
        if self.kind == "periodic" and self.halfwidth != np.pi:
            raise ValueError("periodic contours have halfwidth pi")
        if self.halfwidth <= 0:
            raise ValueError("halfwidth must be positive")

    @property
    def gridstep(self):
        if self.kind == "straight":
            return 2.0 * self.halfwidth / (self.npoints - 1)
        return 2.0 * np.pi / self.npoints


def straight_contour(shift, npoints, halfwidth=DEFAULT_HALFWIDTH):
    return Contour("straight", shift, halfwidth, npoints)


def periodic_contour(shift, npoints):
    return Contour("periodic", shift, np.pi, npoints)


def contour_for(model, npoints, halfwidth=DEFAULT_HALFWIDTH):
    """Natural contour for a model: straight line for the oscillator,
    periodic interval for the angular equation."""
    if isinstance(model, PthoParams):
        return straight_contour(model.c, npoints, halfwidth)
    if isinstance(model, AngularParams):
        return periodic_contour(model.eps, npoints)
    raise TypeError(f"unknown model type {type(model).__name__}")


def grid_points(g: Contour):
    """Real contour parameters t_j; the complex points are t_j - i shift.

    Both grids satisfy t_j = -t_{N-1-j} exactly, which the PT-structure
    of the assembled matrix relies on.
    """
    n, h = g.npoints, g.gridstep
    if g.kind == "straight":
        t = np.linspace(-g.halfwidth, g.halfwidth, n)
    else:
        t = -np.pi + h * (np.arange(n) + 0.5)
    return 0.5 * (t - t[::-1])   # enforce exact reflection symmetry


def potential_value(model, t, shift=None):
    """Complex potential at contour points t - i shift.

    Oscillator: (t - ic)^2 + (alpha^2 - 1/4)/(t - ic)^2 (the +c^2 from
    completing the square is excluded).  Angular:
    ell(ell+1)/sin^2 z + lam(lam+1)/cos^2 z at z = t - i eps.
    """
    if shift is None:
        shift = model.c if isinstance(model, PthoParams) else model.eps
    z = np.asarray(t, dtype=float) - 1j * shift
    if isinstance(model, PthoParams):
        strength = model.alpha ** 2 - 0.25
        if strength != 0.0 and np.any(z == 0):
            raise SingularPoint("contour hits the centrifugal pole at x = ic")
        v = z * z
        if strength != 0.0:
            v = v + strength / (z * z)
        return v
    if isinstance(model, AngularParams):
        s, c2 = np.sin(z), np.cos(z) ** 2
        if np.any(s == 0) or (model.lam != 0.0 and np.any(c2 == 0)):
            raise SingularPoint("contour hits a pole of the angular potential")
        v = model.ell * (model.ell + 1) / s ** 2
        if model.lam != 0.0:
            v = v + model.lam * (model.lam + 1) / c2
        return v
    raise TypeError(f"unknown model type {type(model).__name__}")


def build_hamiltonian(model, g: Contour):
    """Assemble the dense 3-point finite-difference matrix of -d^2 + V on g.

    Straight contours get Dirichlet truncation; periodic contours get
    wrap-around corner entries.  The result satisfies the PT structure
    H[i, j] = conj(H[N-1-j, N-1-i]) exactly.  Grids above MAX_POINTS are
    rejected with ValueError before anything is allocated.
    """
    if g.npoints > MAX_POINTS:
        raise ValueError(f"npoints {g.npoints} exceeds the dense-solver "
                         f"cap {MAX_POINTS}")
    t = grid_points(g)
    h = g.gridstep
    v = potential_value(model, t, shift=g.shift)
    n = g.npoints
    m = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(m, 2.0 / h ** 2 + v)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -1.0 / h ** 2
    m[idx + 1, idx] = -1.0 / h ** 2
    if g.kind == "periodic":
        m[0, n - 1] = -1.0 / h ** 2
        m[n - 1, 0] = -1.0 / h ** 2
    return m
