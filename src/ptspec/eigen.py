"""Non-Hermitian spectra: solve, classify, verify, scan.

The full spectrum comes from LAPACK's balanced Hessenberg QR (dgeev, no
eigenvectors) on each real form A = S* H S of contour.real_blocks: the
two half-grid blocks of the pi-periodic angular operator when
N % 4 == 0, a quarter of one full-grid solve, and the full-grid A
otherwise.  eig_dense makes the package's only dense matrices, one
Fortran-order copy per block, which LAPACK then overwrites; both
half-grid copies (2 N^2 bytes each, 4 N^2 together) are alive at once,
still under the full grid's 8 N^2.  The second half-grid block is
solved in one extra thread while the calling thread solves the first,
where the LAPACK is a threaded OpenBLAS build.
Every non-real eigenvalue comes with its exact conjugate and real ones
have Im == 0.  The PT defect of each eigenvector of H = S A S* costs
O(N): 0 for a real value, and from one step of inverse iteration on the
folded band of A (contour.folded_band) for a non-real one
(_band_vectors).
The lowest levels alone come from one shift-invert window loop: ARPACK
on the sparse full-grid A, with k doubled until a certificate accepts
the window, and the dense eigenvalues once 2k would reach N.  Both
certificates read det(A - z) from _log_det, banded LUs of the folded
band.  solve_lowest (`ptspec verify`) certifies its window with a disc
guard and a determinant-parity guard at one real z; the scan family
(`ptspec scan`) with count_missing, an argument-principle count around a
rectangle.  Values with Re above about 2/h^2 are grid artifacts
(_spurious_cut).  match_spectra sets the lowest real levels beside the
closed form as the four columns that `ptspec verify` prints.
"""

import ctypes
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.sparse.linalg

from .contour import (STENCIL, folded_band, folded_order, real_blocks,
                      real_form)
from .exceptions import InsufficientLevels, NonConvergence
from .models import require_count

REAL = "real"
PAIR = "pair"
SPURIOUS = "spurious"

DEFAULT_REALITY_TOL = 1e-7
DEFAULT_CROSSING_TOL = 1e-3
BACKWARD_ERROR_TOL = 1e-10

# argument-principle count (count_missing): starting segments per edge
# and the most determinants it evaluates; stacked band rows per zgbtrf
# call (_stacked_lu), which size the one buffer, 16 (3w + 1) LU_ROWS
# bytes, that the banded LUs are factored in
MIN_SEGMENTS = 32
MAX_LOG_DETS = 4096
LU_ROWS = 4096
# seeds of the fixed start vectors of the band inverse iteration
START_SEEDS = (0, 1)


@dataclass
class SpectrumResult:
    """Eigenvalues sorted by (Re, Im), with per-value classification and
    PT defect where they were computed."""
    eigenvalues: np.ndarray
    classifications: np.ndarray
    pt_defects: np.ndarray = None

    def real_values(self):
        """Retained real eigenvalues (classification 'real'), ascending."""
        return self.eigenvalues[self.classifications == REAL].real


def _sort_order(values):
    return np.lexsort((values.imag, values.real))


def _lapack_dgeev():
    """LAPACK dgeev as a ctypes function, from the pointer scipy's
    cython_lapack exports in a capsule.  The capsule's name is the C
    signature; anything other than dgeev's 14 pointer parameters, jobvl
    and jobvr as char *, the sizes and info as int *, raises ImportError,
    since every argument is passed as a raw pointer.  A ctypes call
    releases the GIL for the whole foreign call (scipy.linalg.eigvals
    holds it)."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dgeev"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    signature = name.decode()
    params = signature[signature.index("(") + 1:signature.rindex(")")]
    kinds = "".join({"char *": "c", "int *": "i"}.get(
        p, "d" if p.endswith(" *") else "?") for p in params.split(", "))
    if kinds != "ccididddididii":
        raise ImportError(f"cython_lapack dgeev has signature {signature}")
    types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
             "d": ctypes.POINTER(ctypes.c_double)}
    return ctypes.CFUNCTYPE(None, *map(types.get, kinds))(
        get_pointer(capsule, name))


def _threaded_openblas():
    """Whether the LAPACK that cython_lapack links is a threaded OpenBLAS
    build (get_parallel() != 0), which takes dgeev calls from two threads
    at once.  A sequential OpenBLAS build (get_parallel() == 0) does so
    safely only when built with USE_LOCKING, which it cannot report, and
    a LAPACK without the query is not known to: False for both.  The
    query is found from cython_lapack's own library, since a symbol
    lookup on a library's handle also searches the libraries it links."""
    lib = ctypes.CDLL(scipy.linalg.cython_lapack.__file__)
    for name in ("scipy_openblas_get_parallel", "openblas_get_parallel"):
        query = getattr(lib, name, None)
        if query is not None:
            return query() != 0
    return False


_DGEEV = _lapack_dgeev()
_THREAD_SAFE = _threaded_openblas()


def _dgeev_args(a):
    """(args, wr, wi, info) for eigenvalues only of the block `a`: dgeev's
    arguments on a dense Fortran-order copy of `a`, which dgeev
    overwrites, with a workspace of the size a lwork = -1 query asks for
    (scipy.linalg.eigvals' size).  The args hold every array and int they
    point to; wr and wi start as NaN."""
    dense = a.toarray(order="F")
    n = len(dense)
    wr, wi, unused, query = (np.full(k, np.nan) for k in (n, n, 1, 1))
    size, lda, ldv, lwork, info = map(ctypes.c_int, (n, max(1, n), 1, -1, 0))

    def args(work):
        return (b"N", b"N", ctypes.byref(size), _pointer(dense),
                ctypes.byref(lda), _pointer(wr), _pointer(wi),
                _pointer(unused), ctypes.byref(ldv), _pointer(unused),
                ctypes.byref(ldv), _pointer(work), ctypes.byref(lwork),
                ctypes.byref(info))
    _DGEEV(*args(query))
    _check_dgeev(info)
    lwork.value = int(query[0])
    return args(np.empty(lwork.value)), wr, wi, info


def _pointer(array):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _check_dgeev(info):
    """scipy.linalg.eigvals' errors for dgeev's info: NonConvergence for
    info > 0 (the QR iteration failed to deflate), ValueError below 0."""
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of "
                         "internal eig algorithm (geev)")
    if info.value > 0:
        raise NonConvergence(
            f"eig algorithm (geev) did not converge (only eigenvalues with "
            f"order >= {info.value} have converged)")


def eig_dense(blocks):
    """Every eigenvalue of each real form block in `blocks` (scipy.sparse
    arrays from contour.real_blocks), one array per block, sorted by real
    part (imaginary part breaks ties): LAPACK's balanced Hessenberg QR
    (dgeev), with no eigenvectors, bit for bit scipy.linalg.eigvals.

    The calling thread makes every dense Fortran-order copy, result array
    and workspace first (_dgeev_args): the copies are the N x N arrays of
    the solve, all alive at once, and the blocks stay unchanged.  The
    first block's dgeev runs in the calling thread and each further
    block's in a thread of its own, which real_blocks' two half-grid
    blocks keep to one extra thread.  Only the foreign call runs there,
    and it is joined before anything returns or raises.  Where the LAPACK
    is not a threaded OpenBLAS build (_threaded_openblas), every dgeev
    runs in the calling thread, one after the other.  Each info is
    checked after every solve has ended (_check_dgeev).

    A block that is not float64 raises TypeError, and one that is not
    square ValueError, before any LAPACK call."""
    for a in blocks:
        if a.dtype != np.float64:
            raise TypeError(f"eig_dense takes float64 blocks, got {a.dtype}")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"eig_dense takes square blocks, got shape "
                             f"{a.shape}")
    solves = [_dgeev_args(a) for a in blocks]
    extra = solves[1:] if _THREAD_SAFE else []
    workers = []
    try:
        for args, *_ in extra:
            worker = threading.Thread(target=_DGEEV, args=args)
            worker.start()
            workers.append(worker)
        for args, *_ in solves[:len(solves) - len(extra)]:
            _DGEEV(*args)
    finally:
        for worker in workers:
            worker.join()
    out = []
    for _, wr, wi, info in solves:
        _check_dgeev(info)
        values = wr + 1j * wi               # as scipy.linalg.eigvals builds it
        out.append(values[_sort_order(values)])
    return out


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
    return SpectrumResult(eigenvalues=values, classifications=labels)


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


def _spurious_cut(g, band):
    """Eigenvalues with Re above 2/h^2 + N u ||A||_1 are grid artifacts,
    u the unit roundoff and ||A||_1 the largest column sum of |band|.

    The 3-point stencil -D2 maps exp(i k t) to (4/h^2) sin^2(k h / 2):
    above 2/h^2, half its range, lie only modes shorter than four grid
    steps, which resolve no level of the continuum.  The margin bounds
    the rounding of a computed real part.  On angular N = 512 grids
    (ell = 1, 2) a pair straddles 2/h^2, 2e-3 off at eps = 0.05 and
    5.4e-9 at 0.1, but only 1.8e-12 to 4.6e-10 for eps = 0.11 to 0.3:
    there the margin of 3.0e-9 keeps both, where a strict Re > 2/h^2
    labelled each by the last bit of the solve."""
    norm = np.abs(band).sum(axis=0).max()
    return 2.0 / g.gridstep ** 2 + g.npoints * np.finfo(float).eps * norm


def solve_spectrum(model, contour, reality_tol=DEFAULT_REALITY_TOL):
    """Every eigenvalue (_dense_spectrum), classified with _spurious_cut,
    and the PT defect of its eigenvector of H (_pt_defects)."""
    blocks, values = _dense_spectrum(model, contour)
    defects = np.concatenate(list(map(_pt_defects, blocks, values)))
    values = np.concatenate(values)
    order = _sort_order(values)
    result = classify_spectrum(
        values[order], reality_tol=reality_tol,
        spurious_cut=_spurious_cut(contour, folded_band(blocks[0])))
    result.pt_defects = defects[order]
    return result


def _dense_spectrum(model, g):
    """The real forms of contour.real_blocks and the eigenvalues of each
    (eig_dense).  Half-grid blocks hold the entries of the full-grid A,
    so every block has its ||A||_1."""
    blocks = real_blocks(model, g)
    return blocks, eig_dense(blocks)


def _pt_defects(a, values):
    """pt_defect(S y) for each eigenvalue of the real form a (a block of
    contour.real_blocks), y its eigenvector.  A value with Im == 0 has a
    real y, and then conj(J S y) = S y: the defect is exactly 0.0.  A
    value with Im > 0 takes y from _band_vectors, and its conjugate, with
    eigenvector conj(y), the same defect.  The sign extension of a
    half-grid block's vector to the full grid leaves the defect as is."""
    upper = values[values.imag > 0]
    y = _band_vectors(a, upper)
    partner = {z: pt_defect(v) for z, v in zip(
        upper.tolist(), ((0.5 + 0.5j) * y + (0.5 - 0.5j) * y[::-1]).T)}
    return np.array([partner.get(complex(z.real, abs(z.imag)), 0.0)
                     for z in values.tolist()])


def _band_vectors(a, shifts):
    """Unit eigenvectors y (natural order) of the real form a (a COO
    array), one per computed eigenvalue in `shifts`: one step of inverse
    iteration, y = (A - lambda)^-1 x, on the folded band of a (Ipsen,
    SIAM Rev. 39, 254 (1997)), O(N) work per value.

    The start x is a fixed pseudo-random vector: from the J-even ones,
    angular blocks gave backward errors of about 1.  Pivots below
    u ||A||_1 are raised to it.  A second step would let a near-degenerate
    neighbour take over (backward errors 1e-7 to 1e-6).  Each column's
    ||A y - lambda y|| / ||A||_1, from a CSR copy of a, must stay within
    BACKWARD_ERROR_TOL; a column above it (3 of 36981 over 588 angular
    N = 512 and oscillator N = 800 grids, at most 6.6e-10, each a
    rounding-split doublet near 4/h^2) is redone from the next start in
    START_SEEDS, and one still above it raises NonConvergence.
    """
    band = folded_band(a)
    n, w = band.shape[1], len(band) // 2
    norm = np.abs(band).sum(axis=0).max()
    tiny = np.finfo(float).eps * norm
    sparse, order = a.tocsr(), folded_order(n)
    y = np.empty((n, len(shifts)), dtype=complex)
    todo = np.arange(len(shifts))
    for seed in START_SEEDS:
        start = np.random.default_rng(seed).standard_normal(n)
        starts = np.tile(start, _blocks_per_call(n, len(todo)))[:, None]
        v = np.empty((n, len(todo)), dtype=complex)
        for rows, lu, ipiv, u in _stacked_lu(band, shifts[todo]):
            u[np.abs(u) < tiny] = tiny
            m = rows.stop - rows.start
            x, _ = scipy.linalg.lapack.zgbtrs(lu, w, w, starts[:m * n], ipiv)
            v[order, rows] = x.reshape(m, n).T
        v /= np.linalg.norm(v, axis=0)
        error = np.linalg.norm(sparse @ v - v * shifts[todo], axis=0) / norm
        y[:, todo] = v
        todo = todo[~(error <= BACKWARD_ERROR_TOL)]      # NaN fails too
        if len(todo) == 0:
            return y
    raise NonConvergence(f"eigenpair backward error {error.max():.3e} "
                         f"exceeds {BACKWARD_ERROR_TOL:.0e}")


def solve_lowest(model, contour, count, reality_tol=DEFAULT_REALITY_TOL):
    """The lowest `count` real levels from a certified shift-invert window.

    ARPACK finds the k eigenvalues of the sparse real form A nearest to
    sigma = min(Re V) - 1, a strict lower bound on Re lambda (_shift).
    The window is accepted only when, in the closure certify,

    * disc guard: with r the largest |lambda - sigma| returned, the
      values strictly inside the disc classify cleanly, and the
      count-th real level among them, `top`, has top - sigma < r;
    * parity guard: A - xI is nonsingular and the sign of its
      determinant, from the banded LU of _log_det, equals
      (-1)^(number of exactly real window values below x), where x is
      the midpoint of the first gap above `top` wider than
      1e-3 max(1, |top|).  A - xI is real, so arg det is exactly 0 or
      pi modulo 2 pi, and an odd number of missed real levels below x
      cannot pass.

    These two guards cost little next to the window.  The
    argument-principle count that certifies scan windows (count_missing)
    would add 0.9 to 2.5 times the whole solve on N = 512 to 1000 grids.
    k starts at 2 count + 2.
    The result classifies, with the cutoff of _spurious_cut, the window
    values strictly inside the disc, or every value when the loop's
    dense solve answers.
    """
    require_count("count", count, 1)

    def certify(band, sigma, cut, values):
        dist = np.abs(values - sigma)
        inside = values[dist < dist.max()]
        try:
            result = classify_spectrum(inside, reality_tol=reality_tol,
                                       spurious_cut=cut)
        except ValueError:
            return None
        # every value left lies strictly inside the disc, so top - sigma < r
        # holds once there are `count` real levels
        real = result.real_values()[:count]
        if len(real) < count:
            return None
        x = _gap_above(inside.real, real[-1])
        if x is None:
            return None
        log_det = _log_det(band, np.array([x]))[0]
        if log_det.real == -np.inf:         # A - x is singular
            return None
        below = np.count_nonzero((inside.imag == 0) & (inside.real < x))
        return inside if round(log_det.imag / np.pi) % 2 == below % 2 else None

    values, cut = _certified_window(model, contour, 2 * count + 2, certify)
    return classify_spectrum(values, reality_tol=reality_tol,
                             spurious_cut=cut)


def _shift(diagonal, g):
    """sigma = min(Re V) - 1 from diag(A) = STENCIL[0]/h^2 + Re V.  The
    symmetric part of A is -D2 + diag(Re V) >= min(Re V), so by
    Bendixson's theorem every eigenvalue has Re > sigma."""
    return diagonal.min() - STENCIL[0] / g.gridstep ** 2 - 1.0


def _certified_window(model, g, k, certify):
    """The one shift-invert window loop: (values, cut).  The real form A
    on g is assembled once, as its folded band (contour.folded_band) for
    the certificates and as a CSC array for ARPACK; sigma is _shift of
    the band's diagonal, cut its _spurious_cut.  ARPACK returns the k
    eigenvalues of A nearest to sigma from a fixed start vector, so every
    run gives the same window; certify(band, sigma, cut, values) returns
    the accepted values or None.  Then, or when ARPACK fails, k doubles;
    once 2k would reach N, every eigenvalue of the dense solve
    (_dense_spectrum, as in solve_spectrum) answers instead."""
    a = real_form(model, g)
    band = folded_band(a)
    sigma = _shift(band[len(band) // 2], g)
    cut = _spurious_cut(g, band)
    a = a.tocsc()
    n = g.npoints
    while 2 * k < n:
        try:
            values = scipy.sparse.linalg.eigs(
                a, k, sigma=sigma, v0=np.ones(n),
                return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackError:    # no convergence, mostly
            pass
        else:
            accepted = certify(band, sigma, cut, values)
            if accepted is not None:
                return accepted, cut
        k *= 2
    return np.concatenate(_dense_spectrum(model, g)[1]), cut


def _gap_above(re, top):
    """The midpoint of the first gap in the sorted real parts `re` at or
    above `top` that is wider than 1e-3 max(1, |top|); None if none is."""
    above = np.sort(re[re >= top])
    wide = np.flatnonzero(np.diff(above) > 1e-3 * max(1.0, abs(top)))
    if len(wide) == 0:
        return None
    return 0.5 * (above[wide[0]] + above[wide[0] + 1])


def count_missing(band, sigma, x, window):
    """Winding number of f(z) = det(A - z) / prod_w (w - z) around the
    rectangle [sigma, x] x [-height, height], with A given by its folded
    band (contour.folded_band) and w running over every value of
    `window` and the conjugate of each one whose partner it lacks (A is
    real, so that conjugate is an eigenvalue too).

    height is ||K||_inf + 1 for the skew part K = (A - A^T)/2, here
    antidiag(Im V), so max|Im V| + 1.  With sigma a strict lower bound
    on Re lambda (Bendixson's theorem bounds |Im lambda| by ||K||_2 <=
    ||K||_inf), the rectangle holds every eigenvalue with Re < x.  The
    count is (eigenvalues inside) - (poles inside): 0 when the window
    misses none.  Window values above x cancel the fast phase turn of
    their eigenvalues where the right edge crosses the real axis.

    With A real and the poles closed under conjugation, f(conj z) =
    conj f(z), so the count is 1/pi times the turn of arg f along the
    lower half of the rectangle, from sigma down, right and up to x; only
    that half is evaluated.

    Step rule: each edge of the whole rectangle starts as MIN_SEGMENTS
    segments (MIN_SEGMENTS / 2 on each half edge), and a segment is
    bisected until each of its halves changes log f by less than pi/4 in
    size.  Each half then turns arg f by less than pi/4, and the two
    halves add up to the whole step.  A half-step shows its true turn
    only when that turn is below pi in size, and eigenvalues far to the
    right turn the phase by tens of radians along an edge: with 8
    segments per edge a half-step can turn a whole 2 pi further than it
    shows, and complete windows were counted 4 or 8.  log|f| has no
    2 pi ambiguity, so bounding its change as well keeps half-steps
    short wherever a zero or pole lies close to the path.

    The count gives None, rejecting the window, once it would evaluate
    more than MAX_LOG_DETS determinants; each round evaluates at least
    one, so the loop always ends.  Complete counts take at most 315 in
    the test suite and 193 on the bench's and a default N = 2000 scan's
    windows; the cap of 4096 lies 13 times above the larger.  Only a log f
    that never resolves reaches it: a singular A - z on the path, where
    the segments beside it split every round, or a NaN in the band, where
    every segment does and their number doubles each round.
    """
    height = _skew_norm(band) + 1.0
    upper = np.unique(np.concatenate([window[window.imag > 0],
                                      np.conj(window[window.imag < 0])]))
    poles = np.concatenate([window[window.imag == 0], upper,
                            np.conj(upper)])
    half = MIN_SEGMENTS // 2
    z = np.concatenate([
        sigma - 1j * height * np.arange(half) / half,
        np.linspace(sigma, x, MIN_SEGMENTS + 1)[:-1] - 1j * height,
        x - 1j * height * np.arange(half, -1, -1) / half])

    def log_f(z):
        return (_log_det(band, z)
                - np.log(poles[None, :] - z[:, None]).sum(axis=1))

    f = log_f(z)
    za, zb, fa, fb = z[:-1], z[1:], f[:-1], f[1:]
    turn, evaluations = 0.0, len(z)
    while len(za):
        evaluations += len(za)
        if evaluations > MAX_LOG_DETS:
            return None
        zm = 0.5 * (za + zb)
        fm = log_f(zm)
        first, second = _log_step(fa, fm), _log_step(fm, fb)
        done = (np.abs(first) < np.pi / 4) & (np.abs(second) < np.pi / 4)
        turn += (first[done] + second[done]).imag.sum()
        split = ~done
        za, zb = (np.concatenate([za[split], zm[split]]),
                  np.concatenate([zm[split], zb[split]]))
        fa, fb = (np.concatenate([fa[split], fm[split]]),
                  np.concatenate([fm[split], fb[split]]))
    return int(round(turn / np.pi))


def _log_step(start, end):
    """end - start for values of log f whose imaginary parts are known
    modulo 2 pi: the turn is taken in [-pi, pi)."""
    step = end - start
    return step.real + 1j * ((step.imag + np.pi) % (2.0 * np.pi) - np.pi)


def _skew_norm(band):
    """||K||_inf of the skew part K = (A - A^T)/2 of the banded A."""
    n, w = band.shape[1], len(band) // 2
    rows = np.zeros(n)
    for d in range(1, w + 1):
        skew = np.abs(band[w - d, d:] - band[w + d, :n - d]) / 2.0
        rows[:n - d] += skew
        rows[d:] += skew
    return rows.max()


def _blocks_per_call(n, count):
    """Blocks of n rows that one _stacked_lu call factors for `count`
    shifts: as many as fit in LU_ROWS rows, at least one."""
    return max(1, min(count, LU_ROWS // n))


def _stacked_lu(band, z):
    """Yield (rows, lu, ipiv, u): one zgbtrf call factors A - z_i, A given
    by its folded band, for the shifts z[rows], up to LU_ROWS rows, side
    by side as the blocks of one band matrix with zero coupling, so
    partial pivoting never crosses a block; u views U's diagonal in lu.

    Each zgbtrf call factors in place in the leading columns of one
    Fortran-order buffer, allocated once per _stacked_lu call: its w fill
    rows are zeroed, the band is written into each block and the shifts
    are subtracted from the diagonal row.  So the next chunk overwrites
    the lu and u yielded before it, and a caller must be done with them
    before it advances."""
    n, w = band.shape[1], len(band) // 2
    per_call = _blocks_per_call(n, len(z))
    buffer = np.empty((3 * w + 1, per_call * n), dtype=complex, order="F")
    for start in range(0, len(z), per_call):
        shifts = z[start:start + per_call]
        m = len(shifts)
        ab = buffer[:, :m * n]
        ab[:w] = 0.0
        blocks = ab[w:].reshape(2 * w + 1, m, n)    # views, not copies
        blocks[...] = band[:, None, :]
        blocks[w] -= shifts[:, None]
        lu, ipiv, _ = scipy.linalg.lapack.zgbtrf(ab, w, w, overwrite_ab=True)
        yield slice(start, start + m), lu, ipiv, lu[2 * w]


def _log_det(band, z):
    """log det(A - z) = log|det| + i arg det for each z, A given by its
    folded band; arg det is known modulo 2 pi.

    P (A - z) = L U (_stacked_lu) with a unit-diagonal L and P a product
    of one row interchange per ipiv[j] != j, so
    log det = sum log u_jj + i pi #{j : ipiv[j] != j}.  A singular
    A - z gives -inf.
    """
    n = band.shape[1]
    out = np.empty(len(z), dtype=complex)
    for rows, _, ipiv, u in _stacked_lu(band, z):
        m = rows.stop - rows.start
        swaps = np.count_nonzero((ipiv != np.arange(m * n)).reshape(m, n),
                                 axis=1)
        with np.errstate(divide="ignore"):
            modulus = np.log(np.abs(u)).reshape(m, n).sum(axis=1)
        out[rows] = modulus + 1j * (
            np.angle(u).reshape(m, n).sum(axis=1) + np.pi * swaps)
    return out


def match_spectra(numeric: SpectrumResult, analytic, count):
    """The lowest min(count, available) numeric real eigenvalues beside
    the lowest of the closed-form energies `analytic`, an array: four
    float arrays (numeric, analytic, abs_err, rel_err).  abs_err =
    |numeric - analytic| and rel_err = abs_err / max(1, |analytic|), so
    zero-energy levels stay meaningful.  Fewer than `count` closed-form
    energies raises InsufficientLevels."""
    require_count("count", count, 1)
    if len(analytic) < count:
        raise InsufficientLevels(
            f"only {len(analytic)} analytic levels supplied, need {count}")
    real = np.sort(numeric.real_values())[:count]
    analytic = np.sort(analytic)[:len(real)]
    abs_err = np.abs(real - analytic)
    rel_err = abs_err / np.maximum(1.0, np.abs(analytic))
    return real, analytic, abs_err, rel_err


@dataclass
class Crossing:
    param: float
    pair: tuple
    gap: float


@dataclass
class ScanResult:
    """energies is (steps, levels) complex, a NaN row at each failure."""
    params: np.ndarray
    energies: np.ndarray
    crossings: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def scan_parameter(spectrum_fn, lo, hi, steps, levels,
                   crossing_tol=DEFAULT_CROSSING_TOL):
    """Sweep a spectrum-producing family and locate unavoided crossings.

    spectrum_fn(param) must return the retained low-lying eigenvalues
    (complex, enough of them to cover `levels`).  It is called exactly
    once per sweep point and nowhere else.  Its lowest `levels` values by
    (Re, Im) fill the point's row of ScanResult.energies, a (steps,
    levels) complex array.  An evaluation that raises or returns a value
    that is not finite is recorded as a failure, (param, "ExceptionType:
    message"), and its row is NaN: a NaN row means exactly a failure.

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
    require_count("steps", steps, 2)
    require_count("levels", levels, 1)
    if not lo < hi:
        raise ValueError(f"lo must be below hi, got lo={lo}, hi={hi}")
    params = np.linspace(lo, hi, steps)
    step = params[1] - params[0]
    energies = np.full((steps, levels), np.nan, dtype=complex)
    failures = []
    for p, row in zip(params, energies):
        try:
            vals = np.asarray(spectrum_fn(float(p)), dtype=complex)
            bad = np.count_nonzero(~np.isfinite(vals))
            if bad:
                raise FloatingPointError(
                    f"{bad} of {len(vals)} family values are not finite")
            if len(vals) < levels:
                raise InsufficientLevels(
                    f"family produced {len(vals)} levels, need {levels}")
            row[:] = vals[_sort_order(vals)][:levels]
        except Exception as exc:        # record the bad point; its row is NaN
            failures.append((float(p), type(exc).__name__
                             + (f": {exc}" if str(exc) else "")))

    gaps = np.abs(np.diff(energies, axis=1))    # NaN at a failed point
    crossings = []
    for i in range(levels - 1):
        padded = np.pad(gaps[:, i], 2, constant_values=np.nan)
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


def ptho_numeric_family(model, contour, levels):
    """Discretized oscillator family for scans: alpha -> the retained
    values of `model` at coupling alpha on `contour` below a certified x,
    at least `levels` of them when they exist.

    Each point runs the shift-invert window loop of solve_lowest with
    k = 2 levels + 4.  x is the midpoint of the first wide gap in real parts
    at or above the levels-th window value (the rule of solve_lowest),
    and the window is accepted when count_missing finds no eigenvalue
    with Re < x missing from it; otherwise k doubles, and once 2k reaches
    N the loop answers with every value of the dense solve (eig_dense).

    Only the spurious cutoff is applied; no reality/pair classification.
    Inside the tiny exceptional-point window around a crossing the
    colliding levels form a conjugate pair, so keeping only real levels
    would drop precisely the points the scan is after.
    """
    require_count("levels", levels, 1)

    def certify(band, sigma, cut, values):
        x = _gap_above(values.real, np.sort(values.real)[levels - 1])
        if x is None or count_missing(band, sigma, x, values) != 0:
            return None
        return values[values.real < x]

    def spectrum(alpha):
        values, cut = _certified_window(replace(model, alpha=alpha), contour,
                                        2 * levels + 4, certify)
        return values[values.real <= cut]
    return spectrum
