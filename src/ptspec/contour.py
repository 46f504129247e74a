"""Discretized complex integration paths and Hamiltonian assembly.

Two contour families are supported:

* ``straight``: the line Im x = -c truncated to [-L, L] on an
  endpoint-inclusive grid with homogeneous Dirichlet conditions just
  outside the grid;
* ``periodic``: the shifted circle phi - i eps, phi in (-pi, pi), on a
  midpoint grid so that index reversal j -> N-1-j is exactly the
  reflection t -> -t.

The operator is the central 3-point discretization H of
-d^2/dt^2 + V(t - i shift).  For the oscillator model the constant c^2
produced by completing the square is deliberately left out of V, so
computed eigenvalues approximate E itself.

On both grids V(-t) = conj(V(t)), so H is complex symmetric and
J conj(H) J = H, with J the index reversal.  This PT symmetry makes H
unitarily similar to a real matrix.  With
S = (e^{i pi/4} I + e^{-i pi/4} J) / sqrt(2),

    A = S* H S = tridiag(-1/h^2, 2/h^2 + Re V, -1/h^2) + antidiag(Im V),

plus the periodic corners; row j of the antidiagonal holds Im V_j.
real_form assembles A from these O(N) entries as a sparse matrix; the
complex H is never formed, and only eigen.eig_dense makes A dense: one
copy per block, with both half-grid copies alive at once (4 N^2 bytes)
while the second may be solved in an extra thread.
In the folded order (0, N-1, 1, N-2, ...) the antidiagonal and the
periodic corners sit next to the diagonal and a STENCIL coupling d grid
steps long 2d places off it, so folded_band stores A as a band of
half-width BAND_HALFWIDTH, on both contours and for odd and even N; the
banded routines of eigen read that half-width from the band.

The angular potential ell(ell+1)/sin^2 z + lam(lam+1)/cos^2 z has period
pi.  On the periodic grid with N % 4 == 0 the shift by N/2 points is that
half period, and it commutes with H.  H therefore splits into the block
of vectors with w[j + N/2] = w[j] and the block with w[j + N/2] = -w[j].
Each block is the 3-point operator on the centred half grid
t_{N/4}, ..., t_{3N/4 - 1}, step h = 2 pi/N, whose corners -s/h^2 (s = +1
or -1) couple its two ends through the neighbour across the half period.
The window maps onto itself under j -> N-1-j only when N/4 is an
integer: then it keeps V(-t) = conj(V(t)), and each block has the exact
real form above.
real_blocks returns the two blocks, or real_form alone wherever they do
not exist (the oscillator, odd N, N % 4 == 2).
"""

import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .exceptions import SingularPoint
from .models import (AngularParams, PthoParams, require_count,
                     require_finite)

MIN_POINTS = 16
# largest grid real_form assembles; eig_dense holds 8 N^2 bytes for the
# full grid, 4 N^2 for the two half-grid blocks, whose copies it makes at once
MAX_POINTS = 4096
DEFAULT_HALFWIDTH = 12.0
# -h^2 d^2/dt^2 as the central 3-point stencil: the diagonal coefficient,
# then the coupling to each neighbour; in the folded order a coupling d
# steps long lies 2d places off the diagonal
STENCIL = (2.0, -1.0)
BAND_HALFWIDTH = 2 * (len(STENCIL) - 1)


@dataclass(frozen=True)
class Contour:
    """A discretized contour: kind is "straight" or "periodic", halfwidth
    the truncation L (pi, fixed, for periodic), npoints the grid size.
    The downward shift is the model's own (c or eps)."""
    kind: str
    halfwidth: float
    npoints: int

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("straight", "periodic"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        require_count("npoints", self.npoints, MIN_POINTS)
        if self.kind == "periodic" and self.halfwidth != np.pi:
            raise ValueError("periodic contours have halfwidth pi")
        if self.halfwidth <= 0:
            raise ValueError("halfwidth must be positive")

    @property
    def gridstep(self):
        if self.kind == "straight":
            return 2.0 * self.halfwidth / (self.npoints - 1)
        return 2.0 * np.pi / self.npoints


def contour_for(model, npoints, halfwidth=DEFAULT_HALFWIDTH):
    """Natural contour for a model: straight line for the oscillator,
    periodic interval for the angular equation."""
    if isinstance(model, PthoParams):
        return Contour("straight", halfwidth, npoints)
    if isinstance(model, AngularParams):
        return Contour("periodic", np.pi, npoints)
    raise TypeError(f"unknown model type {type(model).__name__}")


def grid_points(g: Contour):
    """Real contour parameters t_j; the complex points are t_j - i shift,
    with the model's shift.

    Both grids satisfy t_j = -t_{N-1-j} exactly, which the PT-structure
    of the assembled matrix relies on.
    """
    n, h = g.npoints, g.gridstep
    if g.kind == "straight":
        t = np.linspace(-g.halfwidth, g.halfwidth, n)
    else:
        t = -np.pi + h * (np.arange(n) + 0.5)
    return 0.5 * (t - t[::-1])   # enforce exact reflection symmetry


@np.errstate(all="ignore")
def potential_value(model, t):
    """Complex potential at contour points t - i shift, with the model's
    shift (c or eps).

    Oscillator: (t - ic)^2 + (alpha^2 - 1/4)/(t - ic)^2 (the +c^2 from
    completing the square is excluded).  Angular:
    ell(ell+1)/sin^2 z + lam(lam+1)/cos^2 z at z = t - i eps.
    A value that overflows is inf or nan without a warning: the assembly
    reports it once, as an error.  An alpha whose square overflows raises
    ValueError here.
    """
    shift = model.c if isinstance(model, PthoParams) else model.eps
    z = np.asarray(t, dtype=float) - 1j * shift
    if isinstance(model, PthoParams):
        try:
            strength = model.alpha ** 2 - 0.25
        except OverflowError:
            raise ValueError(f"potential overflows: alpha^2 at alpha = "
                             f"{model.alpha:g}") from None
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


def real_form(model, g: Contour):
    """The real form A of the 3-point operator on g (module docstring) as
    a scipy.sparse COO array of its O(N) entries in natural grid order;
    entries that meet at one position are summed on conversion.  A
    potential that is not finite or has V[::-1] != conj(V), or a grid
    that _check_grid rejects, raises ValueError."""
    _check_grid(g)
    h = g.gridstep
    corner = STENCIL[1] / h ** 2 if g.kind == "periodic" else None
    return _assemble(potential_value(model, grid_points(g)), h, corner)


def real_blocks(model, g: Contour):
    """The real forms whose spectra together make up the spectrum of the
    operator on g, as COO arrays; the checks are those of real_form.

    For an angular model on a periodic grid with N % 4 == 0 these are the
    two half-grid blocks of the module docstring: block b is assembled on
    the centred half grid grid_points(g)[N/4 : 3N/4], step h = 2 pi/N,
    with corners -s/h^2, s = (-1)^b, and its eigenvectors w of H extend to
    the full grid by w[j + N/2] = s w[j].  Every other case has one block,
    real_form(model, g)."""
    n = g.npoints
    if not (isinstance(model, AngularParams) and g.kind == "periodic"
            and n % 4 == 0):
        return [real_form(model, g)]
    _check_grid(g)
    h = g.gridstep
    v = potential_value(model, grid_points(g)[n // 4:n // 4 + n // 2])
    return [_assemble(v, h, s * STENCIL[1] / h ** 2) for s in (1.0, -1.0)]


def _check_grid(g):
    """Reject a grid above MAX_POINTS, or one whose step h has a square
    outside the normal floats: then 1/h^2 overflows, or h^2 does."""
    if g.npoints > MAX_POINTS:
        raise ValueError(f"npoints {g.npoints} exceeds the dense-solver "
                         f"cap {MAX_POINTS}")
    h = g.gridstep
    if not sys.float_info.min <= h * h <= sys.float_info.max:
        raise ValueError(f"grid step {h:g} is out of range: its square "
                         f"{'overflows' if h > 1 else 'underflows'}")


def _assemble(v, h, corner):
    """A for the potential values v on a reflection-symmetric grid of step
    h, with the periodic corner entry `corner` (None: no corners)."""
    bad = np.count_nonzero(~np.isfinite(v))
    if bad:
        raise ValueError(f"potential is not finite at {bad} of {len(v)} "
                         "grid points")
    if not np.array_equal(v[::-1], np.conj(v)):
        raise ValueError("potential is not PT-symmetric on the grid: "
                         "V(-t) != conj(V(t))")
    n = len(v)
    idx = np.arange(n)
    off = np.full(n - 1, STENCIL[1] / h ** 2)
    rows = [idx, idx[:-1], idx[1:], idx]
    cols = [idx, idx[1:], idx[:-1], idx[::-1]]
    data = [STENCIL[0] / h ** 2 + v.real, off, off, v.imag]
    if corner is not None:
        rows.append([0, n - 1])
        cols.append([n - 1, 0])
        data.append([corner, corner])
    # the antidiagonal meets the diagonal (odd n, where Im V is 0), the
    # off-diagonals (even n) and the periodic corners; at most two
    # entries share a position, so the sum does not depend on their order
    return scipy.sparse.coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def folded_order(n):
    """The folded order p = (0, N-1, 1, N-2, ...) of N grid indices."""
    j = np.arange(n)
    return np.where(j % 2 == 0, j // 2, n - 1 - j // 2)


def folded_band(a):
    """The real form `a` (the COO array real_form returns) in the folded
    order p = folded_order(N) as a (2w + 1, N) float array in LAPACK band
    storage with w = BAND_HALFWIDTH sub- and superdiagonals:
    band[w + i - j, j] = A[p[i], p[j]].  Entries that meet at one
    position are summed, as on conversion of the COO array."""
    n = a.shape[0]
    position = np.empty(n, dtype=int)
    position[folded_order(n)] = np.arange(n)
    i, j = position[a.row], position[a.col]
    band = np.zeros((2 * BAND_HALFWIDTH + 1, n))
    np.add.at(band, (BAND_HALFWIDTH + i - j, j), a.data)
    return band

