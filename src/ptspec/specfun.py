"""Complex-argument special functions evaluated by three-term recurrences.

Everything here is a plain function of scalar (or numpy-broadcastable)
arguments.  Polynomial families are evaluated by upward recurrence at any
degree asked for: ``wavefunction.index`` may be any value below
``contour.npoints`` (the tests use 400 and 1000), and a wavefunction that
is not finite makes ``cli.cmd_wavefunction`` exit 3.
"""

import numpy as np

from .exceptions import DomainError


def laguerre(n, a, z):
    """Generalized Laguerre polynomial L_n^(a)(z) for complex z.

    Uses the upward recurrence
    m L_m = (2m - 1 + a - z) L_{m-1} - (m - 1 + a) L_{m-2}.
    """
    if n < 0:
        raise DomainError("Laguerre degree must be non-negative")
    z = np.asarray(z, dtype=complex)
    pm1 = np.ones_like(z)            # L_0
    if n == 0:
        return pm1 if pm1.ndim else complex(pm1)
    p = 1.0 + a - z                  # L_1
    for m in range(2, n + 1):
        p, pm1 = ((2 * m - 1 + a - z) * p - (m - 1 + a) * pm1) / m, p
    return p if p.ndim else complex(p)


def gegenbauer(k, lam, x):
    """Gegenbauer polynomial C_k^lam(x) for complex x.

    The recurrence m C_m = 2x(m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2}
    (DLMF 18.9.1) is applied verbatim; for non-positive integer lam this
    yields the identically-zero polynomials of the degenerate family (see
    ``gegenbauer_renormalized`` for the nonzero limiting functions).
    """
    return _gegenbauer_pair(k, lam, x)[0]


def gegenbauer_is_degenerate(k, lam):
    """True when C_k^lam vanishes identically (lam a non-positive integer,
    k >= 1 - 2 lam)."""
    return lam <= 0 and float(lam).is_integer() and k >= 1 - 2 * int(lam)


def gegenbauer_renormalized(k, lam, x):
    """d/dlam C_k^lam(x), the nonzero limit function on the degenerate set.

    Where C_k^lam vanishes identically in x (non-positive integer lam with
    k large enough), the lam-derivative still satisfies the Gegenbauer
    differential equation and provides the analytically continued
    eigenfunction family.  At lam = 0 it equals (2/k) T_k(x) with T_k the
    Chebyshev polynomial of the first kind.

    Computed by propagating (value, d/dlam) jointly through the one
    recurrence pass that also gives ``gegenbauer``, so no finite-difference
    noise is introduced.
    """
    return _gegenbauer_pair(k, lam, x)[1]


def _gegenbauer_pair(k, lam, x):
    """(C_k^lam(x), d/dlam C_k^lam(x)) from one upward pass of DLMF 18.9.1
    and its lam-derivative: complex scalars for a scalar x, arrays of x's
    shape otherwise."""
    if k < 0:
        raise DomainError("Gegenbauer degree must be non-negative")
    x = np.asarray(x, dtype=complex)
    p_m1, d_m1 = np.ones_like(x), np.zeros_like(x)      # C_0, dC_0
    p, d = (2.0 * lam * x, 2.0 * x) if k else (p_m1, d_m1)  # C_1, dC_1
    for m in range(2, k + 1):
        p_new = (2 * x * (m + lam - 1) * p - (m + 2 * lam - 2) * p_m1) / m
        d_new = (2 * x * p + 2 * x * (m + lam - 1) * d
                 - 2 * p_m1 - (m + 2 * lam - 2) * d_m1) / m
        p, p_m1 = p_new, p
        d, d_m1 = d_new, d
    return (p, d) if x.ndim else (complex(p), complex(d))


def _terminating_degree(u, v):
    """Degree of the terminating Gauss series, or None."""
    best = None
    for p in (u, v):
        p = complex(p)
        if abs(p.imag) < 1e-13 and p.real <= 1e-13:
            r = round(p.real)
            if abs(p.real - r) < 1e-13:
                n = -int(r)
                best = n if best is None else min(best, n)
    return best


def hyp2f1(u, v, w, z):
    """Gauss hypergeometric function 2F1(u, v; w; z) as a terminating
    series: u or v a non-positive integer -n, summed exactly up to its
    z^n term for any z.  A series that does not terminate, or that meets
    a non-positive integer lower parameter w before it terminates, raises
    DomainError.
    """
    u, v, w, z = complex(u), complex(v), complex(w), complex(z)
    nterm = _terminating_degree(u, v)
    if nterm is None:
        raise DomainError("2F1 series does not terminate: neither upper "
                          "parameter is a non-positive integer")
    term, total = 1.0 + 0j, 1.0 + 0j
    for m in range(nterm):
        if abs(w + m) == 0:
            raise DomainError("2F1 lower parameter is a non-positive integer "
                              "and the series does not terminate first")
        term *= (u + m) * (v + m) / ((w + m) * (m + 1)) * z
        total += term
    return total


def cpow(base, exponent):
    """Principal-branch power base**exponent, Arg in (-pi, pi].

    Accepts scalar or array base.  Raises DomainError when the base
    vanishes and the exponent is not positive.
    """
    b = np.asarray(base, dtype=complex)
    if np.any(b == 0) and exponent <= 0:
        raise DomainError("cpow undefined at base 0 with non-positive exponent")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(exponent * (np.log(np.abs(b)) + 1j * np.angle(b)))
        out = np.where(b == 0, 0.0, out)
    return out if out.ndim else complex(out)
