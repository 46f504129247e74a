"""Closed-form solutions of the two solvable complex-contour models.

Two families are covered:

* the singular harmonic oscillator on a straight line shifted below the
  real axis (coupling alpha, shift c), with the two-branch spectrum
  E = 4n + 2 +/- 2 alpha;
* the trigonometric Poschl-Teller angular equation on the shifted
  periodic interval (strengths ell and lam, shift eps), analytically
  solvable for lam = 0 and integer ell with spectrum
  E = (k +/- alpha + 1/2)^2, alpha = ell + 1/2.

The +/- label is the quasi-parity of the branch.  Wavefunctions are
returned unnormalized (overall constant fixed to 1): every consumer in
this package compares normalization-insensitive quantities only.

ptho_levels and termination_levels return a model's lowest `count`
energies as one sorted float64 array, in O(count) work for any alpha or
ell.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import UnsupportedModel
from .specfun import (cpow, gegenbauer, gegenbauer_is_degenerate,
                      gegenbauer_renormalized, laguerre)


def require_finite(params):
    """Reject a field of a parameter dataclass that is not a finite real
    number; fields annotated str are skipped."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type is not str and not (isinstance(value, numbers.Real)
                                      and math.isfinite(value)):
            raise ValueError(f"{f.name} must be a finite real number, "
                             f"got {value!r}")


def require_count(name, value, least):
    """Reject a size that is not an integer >= least; bool is not a size."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")


@dataclass(frozen=True)
class PthoParams:
    """Shifted singular harmonic oscillator: coupling alpha > 0, downward
    contour shift c (must be positive unless alpha = 1/2, where the
    singular term vanishes)."""
    alpha: float
    c: float

    def __post_init__(self):
        require_finite(self)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.c < 0 or (self.c == 0 and self.alpha != 0.5):
            raise ValueError("shift c must be positive, or zero when the "
                             "singular term vanishes (alpha = 1/2)")


@dataclass(frozen=True)
class AngularParams:
    """Periodic Poschl-Teller angular equation.

    ell drives the ell(ell+1)/sin^2 term, lam the lam(lam+1)/cos^2 term,
    eps > 0 the downward contour shift.  Closed-form results exist only
    for lam = 0 and integer ell.
    """
    ell: float
    eps: float
    lam: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.ell < 0:
            raise ValueError("ell must be non-negative")
        if self.eps <= 0:
            raise ValueError("contour shift eps must be positive")

    @property
    def alpha(self):
        return self.ell + 0.5


def _check_sign(qparity):
    if qparity not in (+1, -1):
        raise ValueError("qparity must be +1 or -1")


def _check_angular(p):
    # (sin z)^(1/2 +/- alpha) is single-valued on the shifted circle only
    # for integer ell
    if p.lam != 0.0 or p.ell != int(p.ell):
        raise UnsupportedModel("closed forms require lam = 0 and integer ell")


def ptho_energy(n, qparity, p: PthoParams):
    """E = 4n + 2 + qparity * 2 alpha; independent of the shift c."""
    _check_sign(qparity)
    if n < 0:
        raise ValueError("level index must be non-negative")
    return 4.0 * n + 2.0 + qparity * 2.0 * p.alpha


def ptho_wavefunction(n, qparity, p: PthoParams, x):
    """Unnormalized oscillator eigenfunction evaluated at real contour
    parameter x:

        (x - ic)^(s*alpha + 1/2) exp(-(x - ic)^2 / 2) L_n^(s*alpha)((x - ic)^2)
    """
    _check_sign(qparity)
    z = np.asarray(x, dtype=float) - 1j * p.c
    return (cpow(z, qparity * p.alpha + 0.5)
            * np.exp(-z * z / 2.0)
            * laguerre(n, qparity * p.alpha, z * z))


def _lowest(p, energy, ladders, count):
    """The lowest `count` energies of the (qparity, index range) ladders,
    sorted: a float64 array."""
    return np.sort([energy(n, s, p)
                    for s, indices in ladders for n in indices])[:count]


def ptho_levels(p: PthoParams, count):
    """The lowest `count` oscillator energies, sorted.  Both ladders
    4n + 2 +/- 2 alpha rise with n, so n < count: O(count) work for any
    alpha."""
    require_count("count", count, 0)
    return _lowest(p, ptho_energy, [(-1, range(count)), (+1, range(count))],
                   count)


def angular_energy(k, qparity, p: AngularParams):
    """E = (k + qparity * alpha + 1/2)^2 with alpha = ell + 1/2."""
    _check_sign(qparity)
    _check_angular(p)
    if k < 0:
        raise ValueError("level index must be non-negative")
    try:
        return (k + qparity * p.alpha + 0.5) ** 2
    except OverflowError:
        raise ValueError(f"closed-form level k = {k}, quasi-parity "
                         f"{qparity:+d}, overflows at ell = {p.ell:g}"
                         ) from None


def angular_wavefunction(k, qparity, p: AngularParams, phi):
    """Unnormalized angular eigenfunction at the shifted point phi - i eps:

        (sin z)^(1/2 + s*alpha) C_k^(1/2 + s*alpha)(cos z),  z = phi - i eps.

    On the degenerate set of the Gegenbauer family (weight parameter a
    non-positive integer and k large enough, where the naive polynomial
    vanishes identically) the renormalized limiting polynomial is used
    instead (specfun.gegenbauer_is_degenerate tells when).
    """
    _check_sign(qparity)
    _check_angular(p)
    z = np.asarray(phi, dtype=float) - 1j * p.eps
    expo = 0.5 + qparity * p.alpha
    if gegenbauer_is_degenerate(k, expo):
        poly = gegenbauer_renormalized(k, expo, np.cos(z))
    else:
        poly = gegenbauer(k, expo, np.cos(z))
    return cpow(np.sin(z), expo) * poly


def termination_levels(p: AngularParams, count):
    """The lowest `count` angular energies, sorted.  The plus ladder
    (k + ell + 1)^2 rises with k, so k < count; the minus ladder
    (k - ell)^2 is lowest at k = ell, so |k - ell| <= count.  O(count)
    work for any ell."""
    _check_angular(p)
    require_count("count", count, 0)
    ell = int(p.ell)
    return _lowest(p, angular_energy,
                   [(+1, range(count)),
                    (-1, range(max(0, ell - count), ell + count + 1))],
                   count)
