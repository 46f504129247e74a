"""Dense non-Hermitian spectra: solve, classify, verify, scan.

The eigensolver delegates to LAPACK's balanced Hessenberg-QR driver
(scipy.linalg.eig) on the real form A = S* H S from build_hamiltonian, so
every non-real eigenvalue comes with its exact conjugate and real ones
have Im == 0; eigenvectors of H are v = S y.  Around it live reality/
conjugate-pair classification, PT-defect of eigenvectors, matching
against closed-form levels, and scans that locate level crossings.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .contour import build_hamiltonian, contour_for
from .exceptions import InsufficientLevels, NonConvergence
from .models import PthoParams

REAL = "real"
PAIR = "pair"
SPURIOUS = "spurious"

DEFAULT_REALITY_TOL = 1e-7
DEFAULT_SPURIOUS_FACTOR = 0.5
DEFAULT_CROSSING_TOL = 1e-3
BACKWARD_ERROR_TOL = 1e-10


@dataclass
class SpectrumResult:
    """Eigenvalues sorted by (Re, Im), optional unit eigenvectors aligned
    column-for-column, per-value classification, per-vector PT defect."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = None
    classifications: list = None
    pt_defects: np.ndarray = None

    def real_values(self):
        """Retained real eigenvalues (classification 'real'), ascending."""
        if self.classifications is None:
            raise ValueError("spectrum has not been classified")
        mask = np.array([c == REAL for c in self.classifications])
        return self.eigenvalues[mask].real


def _sort_order(values):
    return np.lexsort((values.imag, values.real))


def eig_dense(m, want_vectors=False):
    """Full spectrum of a dense real or complex matrix, such as the real
    form that build_hamiltonian returns.

    Eigenvalues come back sorted by real part (imaginary part breaks
    ties).  With want_vectors, eigenvectors are normalized to unit
    Euclidean norm and the backward error ||Mv - Ev|| / ||M|| of every
    pair is verified against 1e-10.
    """
    try:
        if want_vectors:
            values, vectors = scipy.linalg.eig(m, check_finite=False)
        else:
            values = scipy.linalg.eigvals(m, check_finite=False)
            vectors = None
    except scipy.linalg.LinAlgError as exc:   # QR iteration failed to deflate
        raise NonConvergence(str(exc)) from exc
    order = _sort_order(values)
    values = values[order]
    if vectors is not None:
        # complex even when a real matrix has an all-real spectrum
        vectors = vectors[:, order].astype(complex, copy=False)
        vectors /= np.linalg.norm(vectors, axis=0)
        resid = m @ vectors
        resid -= vectors * values
        worst = float(np.linalg.norm(resid, axis=0).max()
                      / np.linalg.norm(m, ord=1))
        if worst > BACKWARD_ERROR_TOL:
            raise NonConvergence(
                f"eigenpair backward error {worst:.3e} exceeds "
                f"{BACKWARD_ERROR_TOL:.0e}")
    return SpectrumResult(eigenvalues=values, eigenvectors=vectors)


def classify_spectrum(values, reality_tol=DEFAULT_REALITY_TOL,
                      spurious_cut=np.inf):
    """Label each eigenvalue real / conjugate-pair / spurious.

    A value with Re above spurious_cut is a grid artifact; of the rest, a
    value is real when |Im| <= reality_tol * max(1, |Re|), and one member
    of a conjugate pair otherwise.  reality_tol only settles
    near-degenerate levels that rounding splits into a narrow pair.

    Spectra of the real form come with exact conjugates, so the pair
    values must equal their own conjugates as a multiset.  If they do
    not, the operator was never PT-structured, and ValueError is raised.
    """
    values = np.asarray(values, dtype=complex)
    values = values[_sort_order(values)]
    spurious = values.real > spurious_cut
    real = ~spurious & (np.abs(values.imag)
                        <= reality_tol * np.maximum(1.0, np.abs(values.real)))
    pairs = values[~spurious & ~real]
    mirror = np.conj(pairs)
    unmatched = pairs != mirror[_sort_order(mirror)]
    if np.any(unmatched):
        raise ValueError(
            f"{np.count_nonzero(unmatched)} non-real eigenvalues have no "
            f"exact conjugate partner, first {pairs[unmatched][0]}")
    labels = np.where(spurious, SPURIOUS, np.where(real, REAL, PAIR))
    return SpectrumResult(eigenvalues=values, classifications=labels.tolist())


def pt_defect(v):
    """Distance of a vector from exact PT symmetry on a reflection-
    symmetric grid: min over a unit phase of
    || conj(reverse(v)) - exp(i theta) v || / ||v||.

    The minimizing phase is theta = arg(<v, conj(reverse(v))>), so no
    search is needed.  Zero for PT-symmetric vectors, sqrt(2) for
    maximally asymmetric ones.  Invariant under scaling and global phase.
    """
    v = np.asarray(v, dtype=complex)
    w = np.conj(v[::-1])
    ip = np.vdot(v, w)
    theta = np.angle(ip) if ip != 0 else 0.0
    return float(np.linalg.norm(w - np.exp(1j * theta) * v)
                 / np.linalg.norm(v))


def _spurious_cut(g, spurious_factor):
    """Eigenvalues with real part above this are grid artifacts."""
    return spurious_factor * 4.0 / g.gridstep ** 2


def solve_spectrum(model, contour, want_vectors=False,
                   reality_tol=DEFAULT_REALITY_TOL,
                   spurious_factor=DEFAULT_SPURIOUS_FACTOR):
    """Assemble, diagonalize and classify in one call.

    spurious_factor sets the artifact cutoff at factor * 4/h^2, the top
    of the 3-point stencil's dispersion range.  Eigenvectors are those
    of the complex operator H, not of its real form.
    """
    raw = eig_dense(build_hamiltonian(model, contour),
                    want_vectors=want_vectors)
    cut = _spurious_cut(contour, spurious_factor)
    result = classify_spectrum(raw.eigenvalues, reality_tol=reality_tol,
                               spurious_cut=cut)
    if want_vectors:
        # v = S y with S = ((1 + i) I + (1 - i) J) / 2; a real y (a real
        # level) gives conj(v[::-1]) == v exactly
        y = raw.eigenvectors
        result.eigenvectors = (0.5 + 0.5j) * y + (0.5 - 0.5j) * y[::-1]
        result.pt_defects = np.array(
            [pt_defect(result.eigenvectors[:, i])
             for i in range(result.eigenvectors.shape[1])])
    return result


@dataclass
class MatchEntry:
    numeric: float
    analytic: float
    abs_err: float
    rel_err: float


@dataclass
class MatchReport:
    entries: list
    tol: float

    @property
    def passed(self):
        return all(e.rel_err <= self.tol for e in self.entries)

    @property
    def worst_rel_err(self):
        return max(e.rel_err for e in self.entries)

    @property
    def worst_abs_err(self):
        return max(e.abs_err for e in self.entries)


def match_spectra(numeric: SpectrumResult, analytic_levels, count, tol):
    """Pair the lowest `count` numeric real eigenvalues with the sorted
    closed-form multiset and report per-level errors.

    Relative error is measured against max(1, |analytic|) so zero-energy
    levels stay meaningful.
    """
    real = np.sort(numeric.real_values())
    if len(real) < count:
        raise InsufficientLevels(
            f"only {len(real)} real levels retained, need {count}")
    energies = sorted(lv.energy for lv in analytic_levels)
    if len(energies) < count:
        raise InsufficientLevels(
            f"only {len(energies)} analytic levels supplied, need {count}")
    entries = []
    for num, ana in zip(real[:count], energies[:count]):
        abs_err = abs(num - ana)
        entries.append(MatchEntry(numeric=float(num), analytic=float(ana),
                                  abs_err=abs_err,
                                  rel_err=abs_err / max(1.0, abs(ana))))
    return MatchReport(entries=entries, tol=tol)


@dataclass
class Crossing:
    param: float
    pair: tuple
    gap: float


@dataclass
class ScanResult:
    params: np.ndarray
    energies: list                      # one array of retained levels per param
    crossings: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def scan_parameter(spectrum_fn, lo, hi, steps, levels,
                   crossing_tol=DEFAULT_CROSSING_TOL):
    """Sweep a spectrum-producing family and locate unavoided crossings.

    spectrum_fn(param) must return the retained low-lying eigenvalues
    (complex, enough of them to cover `levels`).  It is called exactly
    once per sweep point and nowhere else.  A family evaluation that
    raises is recorded as a failure and its grid point skipped.

    Two levels that cross linearly have an adjacent gap shaped like a V,
    g(p) = g* + s |p - p*|.  At each local minimum of a pair's sampled
    gap the V is fitted to the two neighbouring samples, with the slope
    s taken from the arms one step further out: the sample at the
    minimum may lie inside the exceptional-point window, off the V.  A
    crossing of that level pair is reported at p* when the apex gap g*
    is below crossing_tol, and Crossing.gap is max(g*, 0).  At the sweep
    ends, next to a failed point, or where the gap is flat, the sampled
    minimum stands as it is.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    params = np.linspace(lo, hi, steps)
    step = params[1] - params[0]
    energies, failures = [], []
    for p in params:
        try:
            vals = np.asarray(spectrum_fn(float(p)), dtype=complex)
            vals = vals[_sort_order(vals)]
            if len(vals) < levels:
                raise InsufficientLevels(
                    f"family produced {len(vals)} levels, need {levels}")
            energies.append(vals[:levels])
        except Exception as exc:        # record and skip the bad point
            energies.append(None)
            failures.append((float(p), str(exc)))

    crossings = []
    for i in range(levels - 1):
        gaps = np.array([abs(e[i + 1] - e[i]) if e is not None else np.nan
                         for e in energies])
        padded = np.pad(gaps, 2, constant_values=np.nan)
        for j, p in enumerate(params):
            # a missing neighbour is NaN, which no comparison holds for
            far_left, left, mid, right, far_right = padded[j:j + 5]
            if np.isnan(mid) or mid > left or mid >= right:
                continue
            p_star, g_star = p, mid
            if not np.isnan(left + right):
                outer = [abs(far - near) for far, near in
                         ((far_left, left), (far_right, right))
                         if not np.isnan(far)]
                slope = max(outer or [left - mid, right - mid]) / step
                if slope > 0:
                    p_star = p + (left - right) / (2 * slope)
                    g_star = max(0.5 * (left + right) - slope * step, 0.0)
            if g_star < crossing_tol:
                crossings.append(Crossing(param=float(p_star), pair=(i, i + 1),
                                          gap=float(g_star)))
    crossings.sort(key=lambda c: (c.param, c.pair))
    return ScanResult(params=params, energies=energies,
                      crossings=crossings, failures=failures)


def crossing_params(scan: ScanResult):
    """Distinct crossing parameter values, merging repeats from different
    level pairs that meet at the same point.  The sweep cannot resolve
    crossings closer than one grid step, so nearer ones are merged."""
    step = scan.params[1] - scan.params[0]
    out = []
    for c in sorted(scan.crossings, key=lambda c: c.param):
        if not out or abs(c.param - out[-1]) >= step:
            out.append(c.param)
        else:
            out[-1] = 0.5 * (out[-1] + c.param)
    return out


def ptho_analytic_family(nmax=8):
    """Closed-form oscillator family for scans: alpha -> exact energies."""
    def spectrum(alpha):
        energies = [4.0 * n + 2.0 + s * 2.0 * alpha
                    for n in range(nmax + 1) for s in (-1, +1)]
        return np.sort(np.array(energies, dtype=complex))
    return spectrum


def ptho_numeric_family(c=1.0, npoints=600, halfwidth=10.0,
                        spurious_factor=DEFAULT_SPURIOUS_FACTOR):
    """Discretized oscillator family for scans.

    Only the spurious cutoff is applied; no reality/pair classification.
    Inside the tiny exceptional-point window around a crossing the
    colliding levels form a conjugate pair, so keeping only real levels
    would drop precisely the points the scan is after.
    """
    def spectrum(alpha):
        model = PthoParams(alpha=alpha, c=c)
        g = contour_for(model, npoints=npoints, halfwidth=halfwidth)
        values = eig_dense(build_hamiltonian(model, g)).eigenvalues
        return values[values.real <= _spurious_cut(g, spurious_factor)]
    return spectrum
