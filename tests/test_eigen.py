"""Dense eigensolve, band vectors, classification, PT defect, matching,
and scans."""

import ctypes
import math
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.sparse.linalg

import ptspec as ps
import ptspec.eigen
from ptspec.contour import MAX_POINTS, folded_band, real_blocks, real_form
from ptspec.eigen import (PAIR, REAL, SPURIOUS, _band_vectors,
                          _dense_spectrum, _gap_above, _log_det, _pt_defects,
                          _shift, _skew_norm, _spurious_cut, _stacked_lu,
                          count_missing)
from ptspec.exceptions import InsufficientLevels, NonConvergence

from test_contour import complex_stencil


def faddeev_leverrier(m):
    """Characteristic polynomial coefficients by the trace recursion --
    an eigensolver-free oracle."""
    n = m.shape[0]
    coeffs = [1.0 + 0j]
    work = np.zeros_like(m)
    for k in range(1, n + 1):
        work = m @ (work + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(work) / k)
    return coeffs


def realification(m):
    """The real 2n x 2n matrix [[Re m, -Im m], [Im m, Re m]] of a complex
    m: its spectrum is that of m together with that of conj(m)."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _openblas(name):
    """The OpenBLAS function `name` from the library cython_lapack links,
    under the scipy wheel's prefix or without it, or None."""
    lib = ctypes.CDLL(scipy.linalg.cython_lapack.__file__)
    for prefix in ("scipy_", ""):
        function = getattr(lib, prefix + name, None)
        if function is not None:
            return function
    return None


@pytest.fixture(params=[1, 2], ids=["one-blas-thread", "two-blas-threads"])
def blas_threads(request):
    """OpenBLAS at 1 and at 2 threads per call for the test, restored
    after it."""
    get = _openblas("openblas_get_num_threads")
    set_ = _openblas("openblas_set_num_threads")
    if get is None or set_ is None:
        pytest.skip("the LAPACK is not OpenBLAS")
    before = get()
    set_(request.param)
    yield request.param
    set_(before)


@pytest.fixture(params=[True, False], ids=["threaded", "sequential"])
def thread_safe(request, monkeypatch):
    """eig_dense as it runs on a threaded OpenBLAS build, the further
    blocks in threads of their own, and on any other LAPACK, every block
    in the calling thread."""
    monkeypatch.setattr(ptspec.eigen, "_THREAD_SAFE", request.param)
    return request.param


def record_threads(monkeypatch):
    """(thread, target) of each thread eig_dense makes, recorded as it is
    made: a thread drops its target once it has run.  Only the name
    eig_dense looks up is replaced, so threads made elsewhere in the
    process are not recorded."""
    made = []

    class Thread(threading.Thread):
        def __init__(self, *args, target=None, **kwargs):
            super().__init__(*args, target=target, **kwargs)
            made.append((self, target))
    monkeypatch.setattr(ptspec.eigen, "threading",
                        types.SimpleNamespace(Thread=Thread))
    return made


def dgeev_stub(monkeypatch, code):
    """Replace the LAPACK binding by a stub that answers the workspace
    query with one double and sets info to `code` on every solve."""
    calls = []

    def dgeev(*args):
        lwork, info = args[-2]._obj, args[-1]._obj
        if lwork.value == -1:
            args[11][0] = 1.0
        else:
            calls.append(args[2]._obj.value)
            info.value = code
    monkeypatch.setattr(ptspec.eigen, "_DGEEV", dgeev)
    return calls


class TestEigDense:
    def test_symmetric_flip(self):
        m = np.array([[0, 1], [1, 0]], dtype=float)
        vals = ps.eig_dense([scipy.sparse.coo_array(m)])[0]
        assert vals == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_antisymmetric_flip(self):
        # the (Re, Im) sort is ambiguous at Re = 0 +/- rounding, so
        # compare after ordering by imaginary part
        m = np.array([[0, 1], [-1, 0]], dtype=float)
        vals = ps.eig_dense([scipy.sparse.coo_array(m)])[0]
        vals = vals[np.argsort(vals.imag)]
        assert vals == pytest.approx([-1j, 1j], abs=1e-14)

    def test_random_matrix_matches_charpoly_roots(self):
        # the random complex m enters as its real 12 x 12 realification,
        # whose spectrum is the roots of m's characteristic polynomial
        # and their conjugates
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        vals = ps.eig_dense([scipy.sparse.coo_array(realification(m))])[0]
        roots = mp.polyroots([mp.mpc(c) for c in faddeev_leverrier(m)],
                             maxsteps=200, extraprec=100)
        roots = [complex(r) for r in roots]
        roots = sorted(roots + [np.conj(r) for r in roots],
                       key=lambda z: (z.real, z.imag))
        assert vals == pytest.approx(roots, abs=1e-9)

    @pytest.mark.parametrize("model,npoints", [
        (ps.PthoParams(1.5, 1.0), 64), (ps.PthoParams(1.5, 1.0), 65),
        (ps.AngularParams(ell=1.0, eps=0.1), 64)])
    def test_argument_unchanged(self, model, npoints):
        # LAPACK overwrites the dense copies eig_dense makes, never the
        # caller's blocks, and the values are those of an eigvals call
        # that leaves its input alone, bit for bit
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        blocks = real_blocks(model, g)
        before = [a.toarray() for a in blocks]
        for a, dense, values in zip(blocks, before, ps.eig_dense(blocks)):
            assert np.array_equal(a.toarray(), dense)
            reference = scipy.linalg.eigvals(dense)
            assert np.array_equal(
                values,
                reference[np.lexsort((reference.imag, reference.real))])

    @pytest.mark.parametrize("model,npoints", [
        (ps.PthoParams(1.5, 1.0), 64), (ps.PthoParams(1.5, 1.0), 65),
        (ps.PthoParams(1.5, 1.0), 800),
        (ps.AngularParams(ell=1.0, eps=0.1), 64),
        (ps.AngularParams(ell=2.0, eps=0.1), 64),
        (ps.AngularParams(ell=1.0, eps=0.1), 512),
        (ps.AngularParams(ell=2.0, eps=0.1), 512)])
    def test_values_are_eigvals_bit_for_bit(self, blas_threads, model,
                                            npoints):
        g = ps.contour_for(model, npoints=npoints)
        blocks = real_blocks(model, g)
        got = ps.eig_dense(blocks)
        assert len(got) == len(blocks)
        for a, values in zip(blocks, got):
            reference = scipy.linalg.eigvals(a.toarray())
            assert np.array_equal(
                values,
                reference[np.lexsort((reference.imag, reference.real))])

    @pytest.mark.parametrize("ell", [1.0, 2.0])
    def test_blocks_together_equal_one_at_a_time(self, monkeypatch, ell):
        # the second block is solved in a thread of its own while the
        # first is solved here
        monkeypatch.setattr(ptspec.eigen, "_THREAD_SAFE", True)
        model = ps.AngularParams(ell=ell, eps=0.1)
        blocks = real_blocks(model, ps.contour_for(model, npoints=512))
        together = ps.eig_dense(blocks)
        for a, values in zip(blocks, together):
            assert np.array_equal(values, ps.eig_dense([a])[0])

    @pytest.mark.parametrize("npoints", [64, 66])
    def test_at_most_one_extra_thread(self, thread_safe, monkeypatch,
                                      npoints):
        # N = 64 has two half-grid blocks, N = 66 one; the extra thread
        # runs the ctypes binding itself, so no Python code runs in it,
        # and it has ended when eig_dense returns
        made = record_threads(monkeypatch)
        model = ps.AngularParams(ell=1.0, eps=0.1)
        blocks = real_blocks(model, ps.contour_for(model, npoints=npoints))
        ps.eig_dense(blocks)
        expected = 1 if thread_safe and len(blocks) == 2 else 0
        assert len(made) == expected
        for thread, target in made:
            assert target is ptspec.eigen._DGEEV
            assert isinstance(target, ctypes._CFuncPtr)
            assert not thread.is_alive()

    @pytest.mark.parametrize("dtype", [complex, np.float32, int])
    def test_block_that_is_not_float64_is_rejected(self, monkeypatch,
                                                   dtype):
        # LAPACK reads every block as float64 through a raw pointer; a
        # bad second block is rejected before the first is solved
        calls = []
        original = ptspec.eigen._DGEEV
        monkeypatch.setattr(ptspec.eigen, "_DGEEV",
                            lambda *args: calls.append(args) or original(*args))
        good = scipy.sparse.coo_array(np.eye(3))
        bad = scipy.sparse.coo_array(np.eye(3, dtype=dtype))
        with pytest.raises(TypeError, match="float64"):
            ps.eig_dense([good, bad])
        assert calls == []

    def test_block_that_is_not_square_is_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ps.eig_dense([scipy.sparse.coo_array(np.ones((3, 4)))])

    @pytest.mark.parametrize("code,error,message", [
        (3, NonConvergence, "did not converge .* order >= 3"),
        (-5, ValueError, "illegal value in argument 5")])
    def test_info_raises_after_every_solve(self, thread_safe, monkeypatch,
                                           code, error, message):
        # info > 0: the QR iteration failed to deflate; info < 0: LAPACK
        # rejected an argument.  Both blocks were solved, and no thread is
        # left running
        calls = dgeev_stub(monkeypatch, code)
        made = record_threads(monkeypatch)
        model = ps.AngularParams(ell=1.0, eps=0.1)
        blocks = real_blocks(model, ps.contour_for(model, npoints=64))
        with pytest.raises(error, match=message):
            ps.eig_dense(blocks)
        assert calls == [32, 32]
        assert not any(thread.is_alive() for thread, _ in made)


    @pytest.mark.parametrize("lib,expected", [
        ({"scipy_openblas_get_parallel": 1}, True),
        ({"openblas_get_parallel": 2}, True),
        ({"openblas_get_parallel": 0}, False),
        ({}, False)])
    def test_only_a_threaded_openblas_takes_two_solves(self, monkeypatch,
                                                      lib, expected):
        # a sequential OpenBLAS build is not safe for concurrent calls
        # unless built with USE_LOCKING, and another LAPACK is not known
        # to be: both are solved in the calling thread alone
        fake = types.SimpleNamespace(
            **{name: (lambda v=v: v) for name, v in lib.items()})
        monkeypatch.setattr(ptspec.eigen, "ctypes",
                            types.SimpleNamespace(CDLL=lambda path: fake))
        assert ptspec.eigen._threaded_openblas() is expected


class TestClassify:
    def test_labels(self):
        # an exact conjugate pair is a pair however close to the axis;
        # a spurious value needs no partner
        values = [1.0, 2.0 + 1e-12j, 5 + 2j, 5 - 2j, 7 + 5e-6j, 7 - 5e-6j,
                  1e9 + 1j]
        res = ps.classify_spectrum(values, reality_tol=1e-7,
                                   spurious_cut=1e6)
        assert sorted(res.classifications) == sorted(
            [REAL, REAL, PAIR, PAIR, PAIR, PAIR, SPURIOUS])
        assert list(res.real_values()) == [1.0, 2.0]

    def test_unpaired_complex_raises(self):
        with pytest.raises(ValueError, match="conjugate"):
            ps.classify_spectrum([1.0, 3.0 + 0.5j], reality_tol=1e-7)

    def test_lone_near_axis_value_raises(self):
        # outside reality_tol and without its exact conjugate: the real
        # form never produces such a value
        with pytest.raises(ValueError, match="conjugate"):
            ps.classify_spectrum([1.0, 2.0 + 5e-6j], reality_tol=1e-7)

    def test_pairing_respects_scale(self):
        # |Im| = 1e-5 on a level of size 200 is within 1e-7 relative
        res = ps.classify_spectrum([200.0 + 1e-5j], reality_tol=1e-7)
        assert res.classifications.tolist() == [REAL]

    def test_scattered_pair_raises(self):
        # partners only roughly conjugate are not a pair
        with pytest.raises(ValueError, match="conjugate"):
            ps.classify_spectrum([50.0 + 2.0j, 51.5 - 2.1j],
                                 reality_tol=1e-7)

    def test_two_distant_noisy_values_raise(self):
        # near-axis values at unrelated energies are neither real nor a
        # pair
        with pytest.raises(ValueError, match="conjugate"):
            ps.classify_spectrum([10.0 + 5e-6j, 20.0 - 5e-6j],
                                 reality_tol=1e-7)


class TestPtDefect:
    def test_symmetric_real_vector_is_exact(self):
        v = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        assert ps.pt_defect(v) == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetric_vector_is_exact(self):
        # reversal gives -v; the phase factor absorbs the sign
        v = np.array([1.0, -2.0, 0.0, 2.0, -1.0])
        assert ps.pt_defect(v) == pytest.approx(0.0, abs=1e-15)

    def test_impulse_is_maximal(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert ps.pt_defect(v) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_scale_and_phase_invariance(self):
        rng = np.random.default_rng(41)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        d0 = ps.pt_defect(v)
        assert ps.pt_defect(3.7 * np.exp(0.9j) * v) == pytest.approx(
            d0, rel=1e-12)


class TestMatchSpectra:
    def levels(self, energies):
        return np.array(energies, dtype=float)

    def spectrum(self, values):
        return ps.classify_spectrum(values, reality_tol=1e-7)

    def test_exact_match_passes(self):
        num, ana, abs_err, rel_err = ps.match_spectra(
            self.spectrum([5.0, 1.0, 3.0]), self.levels([3.0, 5.0, 1.0]), 3)
        assert num.tolist() == ana.tolist() == [1.0, 3.0, 5.0]
        assert abs_err.tolist() == rel_err.tolist() == [0.0, 0.0, 0.0]
        assert all(c.dtype == np.float64 for c in (num, ana, abs_err, rel_err))

    def test_shifted_match_fails(self):
        num, ana, abs_err, rel_err = ps.match_spectra(
            self.spectrum([1.0, 3.1, 5.0]), self.levels([1.0, 3.0, 5.0]), 3)
        assert abs_err == pytest.approx([0.0, 0.1, 0.0])
        assert rel_err == pytest.approx([0.0, 0.1 / 3.0, 0.0])
        assert not np.all(rel_err <= 1e-3)

    def test_zero_energy_uses_absolute_floor(self):
        # below |E| = 1 the error is measured against 1, not |E|
        _, _, abs_err, rel_err = ps.match_spectra(
            self.spectrum([1e-4, 0.4]), self.levels([0.0, 0.5]), 2)
        assert rel_err.tolist() == abs_err.tolist()
        assert rel_err == pytest.approx([1e-4, 0.1])

    def test_short_numeric_spectrum_gives_short_columns(self):
        # a pair value is not a real level: two real levels of three asked
        columns = ps.match_spectra(self.spectrum([1.0, 4.0 + 1j, 4.0 - 1j,
                                                  6.0]),
                                   self.levels([1.0, 3.0, 5.0, 7.0]), 3)
        num, ana, abs_err, rel_err = columns
        assert [len(c) for c in columns] == [2, 2, 2, 2]
        assert num.tolist() == [1.0, 6.0] and ana.tolist() == [1.0, 3.0]
        assert abs_err.tolist() == [0.0, 3.0]
        assert rel_err.tolist() == [0.0, 1.0]
        for values in ([2.0 + 1j, 2.0 - 1j], []):
            empty = ps.match_spectra(self.spectrum(values),
                                     self.levels([1.0]), 1)
            assert [len(c) for c in empty] == [0, 0, 0, 0]

    def test_insufficient_levels(self):
        # too few closed-form levels is the caller's error
        with pytest.raises(InsufficientLevels):
            ps.match_spectra(self.spectrum([1.0, 3.0]),
                             self.levels([1.0]), 2)
        # count = -2 used to slice off the top two values; 0 asks nothing
        for count in (0, -2, 1.5):
            with pytest.raises(ValueError, match="count"):
                ps.match_spectra(self.spectrum([1.0, 3.0, 5.0]),
                                 self.levels([1.0, 3.0, 5.0]), count)


def exact_ladders(alpha):
    """The lowest 18 closed-form oscillator energies at coupling alpha."""
    return ps.ptho_levels(ps.PthoParams(alpha, 1.0), 18)


def split_at_crossings(alpha):
    """The closed-form ladders, except that at an integer coupling each
    coincident pair becomes the conjugate pair E -+ 0.03j, as on the
    discretized operator inside its exceptional-point window."""
    values = exact_ladders(alpha).astype(complex)
    if abs(alpha - round(alpha)) < 1e-9:
        twin = np.isclose(values[1:], values[:-1])
        values[:-1][twin] -= 0.03j
        values[1:][twin] += 0.03j
    return values


class TestScan:
    def test_analytic_crossings_at_integers(self):
        # with the split ladders the gap sampled at alpha = 1 and 2 is
        # 0.06, far above the apex of the V its neighbours span
        for family in (exact_ladders, split_at_crossings):
            calls = []

            def counted(p, family=family):
                calls.append(p)
                return family(p)

            scan = ps.scan_parameter(counted, 0.5, 2.5, 41, 6,
                                     crossing_tol=1e-3)
            assert calls == list(scan.params)   # once per sweep point
            found = ps.crossing_params(scan)
            assert len(found) == 2
            assert found[0] == pytest.approx(1.0, abs=1e-3)
            assert found[1] == pytest.approx(2.0, abs=1e-3)
            assert not scan.failures

    def test_crossings_within_one_step_merge(self):
        # raw crossings of a 41-step N=400 oscillator scan: level pairs
        # (1,2) and (3,4) meet near alpha = 1, (4,5) and (2,3) near 2;
        # the sweep cannot resolve points closer than its step of 0.05
        raw = [(0.9888, (1, 2)), (1.0145, (3, 4)), (1.9973, (4, 5)),
               (1.9984, (2, 3))]
        scan = ps.ScanResult(params=np.linspace(0.5, 2.5, 41), energies=[],
                             crossings=[ps.Crossing(param=p, pair=pair,
                                                    gap=1e-4)
                                        for p, pair in raw])
        found = ps.crossing_params(scan)
        assert len(found) == 2
        assert found[0] == pytest.approx(1.0, abs=2e-2)
        assert found[1] == pytest.approx(2.0, abs=2e-2)

    def test_constant_family_has_no_crossings(self):
        # a flat gap, and one whose minimum lies one ulp below its
        # neighbours: the flat arms give no slope, so no V is fitted
        def dipped(p):
            values = np.arange(6, dtype=complex)
            if p == 0.5:
                values[1] = np.nextafter(1.0, 0.0)
            return values

        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for family in (lambda p: np.arange(6, dtype=complex), dipped):
                scan = ps.scan_parameter(family, 0.0, 1.0, 11, 6)
                assert scan.crossings == []

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            ps.scan_parameter(exact_ladders, 0.5, 2.5, 1, 6)
        # a float size used to raise TypeError, and levels = -1 to keep
        # all but the last value
        for steps, levels in ((9.5, 6), (9, 2.5), (9, 0), (9, -1)):
            with pytest.raises(ValueError, match="steps|levels"):
                ps.scan_parameter(exact_ladders, 0.5, 2.5, steps, levels)

    @pytest.mark.parametrize("lo,hi", [(2.5, 0.5), (1.0, 1.0),
                                       (math.nan, 2.5), (0.5, math.nan)])
    def test_range_must_ascend(self, lo, hi):
        # a descending sweep has a negative step, which no V fit and no
        # crossing merge expect; no family is evaluated
        calls = []
        with pytest.raises(ValueError, match="lo must be below hi"):
            ps.scan_parameter(calls.append, lo, hi, 41, 6)
        assert calls == []

    def test_family_failures_recorded(self):
        def family(p):
            if p > 0.65:
                raise RuntimeError("boom")
            return np.arange(6, dtype=complex)

        scan = ps.scan_parameter(family, 0.0, 1.0, 6, 6)
        assert np.count_nonzero(np.isnan(scan.energies).all(axis=1)) == 2
        assert scan.failures == [(0.8, "RuntimeError: boom"),
                                 (1.0, "RuntimeError: boom")]
        assert scan.crossings == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(1.0, -math.inf)])
    def test_non_finite_family_values_fail_their_points(self, bad):
        # one non-finite value fails its point, also one above the
        # retained levels; every other row holds the sorted levels
        def family(p):
            values = np.arange(8, dtype=complex)
            if p > 0.65:
                values[2 if p < 0.9 else 7] = bad
            return values

        scan = ps.scan_parameter(family, 0.0, 1.0, 6, 6)
        error = "FloatingPointError: 1 of 8 family values are not finite"
        assert scan.failures == [(0.8, error), (1.0, error)]
        assert scan.energies.shape == (6, 6)
        assert np.isnan(scan.energies[4:]).all()
        assert np.array_equal(scan.energies[:4],
                              np.tile(np.arange(6, dtype=complex), (4, 1)))

    def test_insufficient_family_levels(self):
        scan = ps.scan_parameter(lambda p: np.arange(3, dtype=complex),
                                 0.0, 1.0, 5, 6)
        assert len(scan.failures) == 5


def conjugation_closed(values):
    """The multiset equals its own conjugate, exactly."""
    values = np.sort_complex(np.asarray(values))
    return np.array_equal(values, np.sort_complex(np.conj(values)))


class TestSpectrumSymmetry:
    def test_reverse_conjugate_invariance(self):
        # the PT structure of the operator makes the eigenvalue multiset
        # closed under complex conjugation; the real form keeps it exact
        model = ps.PthoParams(1.5, 1.0)
        g = ps.contour_for(model, npoints=64, halfwidth=8.0)
        vals = ps.eig_dense([real_form(model, g)])[0]
        assert conjugation_closed(vals)

    def test_strong_shift_stays_conjugation_closed(self):
        # at c = 1.6 the upper spectrum is rounding-dominated, yet every
        # non-real value still has its exact conjugate
        model = ps.PthoParams(1.5, 1.6)
        g = ps.contour_for(model, npoints=400)
        res = ps.solve_spectrum(model, g)
        assert conjugation_closed(res.eigenvalues)
        assert PAIR in res.classifications

    @pytest.mark.parametrize("model", [ps.PthoParams(1.5, 1.0),
                                       ps.AngularParams(ell=1.0, eps=0.1)])
    def test_real_levels_are_exactly_real(self, model):
        g = ps.contour_for(model, npoints=256)
        res = ps.solve_spectrum(model, g)
        real = res.eigenvalues[np.array(res.classifications) == REAL]
        assert len(real) >= 7
        assert np.all(real.imag == 0.0)

    @pytest.mark.parametrize("npoints", [200, 201])
    def test_eigenvectors_belong_to_the_complex_operator(self, npoints):
        # band vectors mapped back from the real form solve H v = E v,
        # pairs, real levels and an odd grid's middle row included; the
        # ground level (E ~ -1) is simple and real, with defect 0
        model = ps.PthoParams(1.5, 1.0)
        g = ps.contour_for(model, npoints=npoints, halfwidth=10.0)
        ev, v = full_grid_pairs(model, g, band_pairs)
        h = complex_stencil(model, g)
        backward = (np.linalg.norm(h @ v - v * ev, axis=0)
                    / np.linalg.norm(h, ord=1))
        assert backward.max() <= 1e-10
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=1e-13)
        res = ps.solve_spectrum(model, g)
        assert PAIR in res.classifications
        ground = int(np.argmin(np.abs(res.eigenvalues + 1.0)))
        assert res.classifications[ground] == REAL
        assert res.pt_defects[ground] == 0.0

    def test_vectors_peak_memory(self):
        # the dense copies of A that eig_dense hands LAPACK to
        # overwrite (8 N^2 bytes for one block, 4 N^2 for the two
        # half-grid blocks, made at once) and the band vectors, O(N) per
        # non-real value, dominate; for the angular blocks the band
        # vectors and their stacked LUs outweigh the dense copies.
        # Measured peaks: oscillator N = 800 8.56 N^2 at one BLAS thread
        # and at the default threads; angular N = 512 6.52 N^2 at one
        # BLAS thread (198 non-real values) and 5.28 N^2 at the default
        # threads on two cores (146)
        for model, n, bound in ((ps.PthoParams(1.5, 1.0), 800, 9.3),
                                (ps.AngularParams(ell=1.0, eps=0.1), 512, 8)):
            g = ps.contour_for(model, npoints=n)
            tracemalloc.start()
            try:
                res = ps.solve_spectrum(model, g, reality_tol=1e-4)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.count_nonzero(res.eigenvalues.imag) >= 50
            assert peak <= bound * n * n

    def test_all_real_spectrum_has_zero_defects(self, monkeypatch):
        # ell = 0 leaves the free periodic operator, whose real form is
        # symmetric: every eigenvalue is real, every defect 0.0, and no
        # band vector is computed; band vectors of its real values still
        # solve H v = E v
        model = ps.AngularParams(ell=0.0, eps=0.1)
        g = ps.contour_for(model, npoints=16)
        asked = []
        original = ptspec.eigen._band_vectors

        def band_vectors(a, shifts):
            asked.append(len(shifts))
            return original(a, shifts)
        monkeypatch.setattr(ptspec.eigen, "_band_vectors", band_vectors)
        res = ps.solve_spectrum(model, g)
        assert np.all(res.eigenvalues.imag == 0.0)
        assert np.all(res.pt_defects == 0.0) and set(asked) == {0}
        ev, v = full_grid_pairs(model, g, band_pairs)
        h = complex_stencil(model, g)
        assert np.abs(h @ v - v * ev).max() <= 1e-12


def band_pairs(a):
    """The eigenvalues of the real form a (eig_dense) and a band vector
    for every one of them."""
    values = ps.eig_dense([a])[0]
    return values, _band_vectors(a, values)


def eig_pairs(a):
    """Reference eigenpairs of the real form a from np.linalg.eig."""
    return np.linalg.eig(a.toarray())


def s_map(y):
    """v = S y, S = ((1 + i) I + (1 - i) J) / 2, column by column."""
    return (0.5 + 0.5j) * y + (0.5 - 0.5j) * y[::-1]


def full_grid_pairs(model, g, pairs):
    """Eigenvalues and unit eigenvectors of the complex H on the full
    grid from pairs(a) on each real form of real_blocks: v = S y, and
    block b, centred on the grid, extends by v[j + m] = (-1)^b v[j]."""
    n = g.npoints
    values, vectors = [], []
    for b, a in enumerate(real_blocks(model, g)):
        w, y = pairs(a)
        m = len(w)
        q, sign = (n - m) // 2, (-1.0) ** b
        v = s_map(y) * np.sqrt(m / n)
        values.append(w)
        vectors.append(np.concatenate([sign * v[m - q:], v, sign * v[:q]]))
    return np.concatenate(values), np.concatenate(vectors, axis=1)


class TestSymmetryBlocks:
    """The angular operator's half-grid blocks against the full grid."""

    @pytest.mark.parametrize("npoints", [16, 64, 512])
    @pytest.mark.parametrize("ell,lam", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0),
                                         (1.0, 0.7)])
    def test_block_values_are_the_full_grid_spectrum(self, ell, lam,
                                                      npoints):
        # H is complex symmetric, so the left eigenvector of a unit right
        # vector v is conj(v) and kappa = 1 / |v^T v|, here from the
        # reference vectors of np.linalg.eig on each block.  Each block
        # value with kappa <= 1e3 must lie within N kappa u ||H||_1 of a
        # full-grid eigenvalue, and each full-grid eigenvalue whose
        # nearest block value has kappa <= 1e3 within as much of it: a
        # block whose spectrum is a true subset (both corners -1/h^2)
        # fails the second check
        model = ps.AngularParams(ell=ell, lam=lam, eps=0.1)
        g = ps.contour_for(model, npoints=npoints)
        assert len(real_blocks(model, g)) == 2
        values = ps.solve_spectrum(model, g, reality_tol=1e-4).eigenvalues
        reference, v = full_grid_pairs(model, g, eig_pairs)
        kappa = 1.0 / np.abs(np.sum(v * v, axis=0))
        kappa = kappa[np.abs(values[:, None]
                             - reference[None, :]).argmin(axis=1)]
        h = complex_stencil(model, g)
        full = np.linalg.eigvals(h)
        assert len(values) == npoints
        assert np.array_equal(np.lexsort((values.imag, values.real)),
                              np.arange(npoints))
        assert conjugation_closed(values)
        assert abs(values.sum() - np.trace(h)) <= 1e-12 * abs(np.trace(h))
        bound = npoints * kappa * np.finfo(float).eps * np.linalg.norm(h, 1)
        well = kappa <= 1e3
        assert np.count_nonzero(well) >= npoints // 4
        dist = np.abs(values[:, None] - full[None, :])
        assert np.all(dist.min(axis=1)[well] <= bound[well])
        nearest = dist.argmin(axis=0)
        covered = well[nearest]
        assert np.all(dist.min(axis=0)[covered] <= bound[nearest][covered])

    @pytest.mark.parametrize("ell,lam,npoints", [
        (1.0, 0.0, 64), (2.0, 0.7, 128), (1.0, 0.0, 512), (2.0, 0.0, 512)])
    def test_block_vectors_solve_the_full_grid_operator(self, ell, lam,
                                                        npoints):
        # each block's band vectors, mapped by S and extended to the full
        # grid with its sign, are unit eigenvectors of the full-grid H; a
        # real level's defect is exactly 0
        model = ps.AngularParams(ell=ell, lam=lam, eps=0.1)
        g = ps.contour_for(model, npoints=npoints)
        ev, v = full_grid_pairs(model, g, band_pairs)
        h = complex_stencil(model, g)
        backward = (np.linalg.norm(h @ v - v * ev, axis=0)
                    / np.linalg.norm(h, ord=1))
        assert v.shape == (npoints, npoints)
        assert backward.max() <= 1e-10
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=1e-13)
        res = ps.solve_spectrum(model, g, reality_tol=1e-4)
        real = res.eigenvalues.imag == 0
        assert np.count_nonzero(real) >= 7
        assert np.all(res.pt_defects[real] == 0.0)

    @pytest.mark.parametrize("model,npoints", [
        (ps.AngularParams(ell=1.0, lam=0.7, eps=0.1), 130),
        (ps.AngularParams(ell=1.0, eps=0.1), 131),
        (ps.PthoParams(1.5, 1.0), 128),
    ])
    def test_one_block_is_the_full_real_form(self, model, npoints):
        # N = 2 (mod 4) has no index-symmetric half window, an odd N no
        # N/2 shift, and the oscillator no half period
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        blocks = real_blocks(model, g)
        assert len(blocks) == 1
        a = real_form(model, g)
        assert np.array_equal(blocks[0].toarray(), a.toarray())
        values = ps.eig_dense([a])[0]
        assert np.array_equal(_dense_spectrum(model, g)[1][0], values)
        res = ps.solve_spectrum(model, g)
        assert np.array_equal(res.eigenvalues, values)
        upper = values.imag > 0
        y = _band_vectors(a, values[upper])
        assert np.array_equal(res.pt_defects[upper],
                              [ps.pt_defect(v) for v in s_map(y).T])

    def test_half_grid_blocks_keep_the_size_cap(self):
        # the cap is on the full grid N, though each block has N/2 points
        model = ps.AngularParams(ell=1.0, eps=0.1)
        g = ps.Contour("periodic", math.pi, MAX_POINTS + 4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                ps.solve_spectrum(model, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestBandVectors:
    """One step of inverse iteration on the folded band, and the PT
    defects solve_spectrum takes from it."""

    def test_vectors_unit_norm_and_consistent(self):
        # any real matrix with the real form's pattern (tridiagonal,
        # antidiagonal, periodic corners) is a band in the folded order
        rng = np.random.default_rng(37)
        n = 9
        dense = (np.diag(rng.normal(size=n))
                 + np.diag(rng.normal(size=n - 1), 1)
                 + np.diag(rng.normal(size=n - 1), -1)
                 + np.fliplr(np.diag(rng.normal(size=n))))
        dense[0, -1], dense[-1, 0] = rng.normal(size=2)
        a = scipy.sparse.coo_array(dense)
        values = ps.eig_dense([a])[0]
        assert np.count_nonzero(values.imag) >= 2
        y = _band_vectors(a, values)
        assert np.allclose(np.linalg.norm(y, axis=0), 1.0, rtol=1e-13)
        for i, ev in enumerate(values):
            assert (np.linalg.norm(dense @ y[:, i] - ev * y[:, i])
                    <= 1e-10 * np.linalg.norm(dense, 1))

    @pytest.mark.parametrize("model,npoints", [
        (ps.PthoParams(1.5, 1.0), 40), (ps.PthoParams(1.0, 1.2), 41),
        (ps.AngularParams(ell=1.0, eps=0.1), 40),
        (ps.AngularParams(ell=2.0, eps=0.15), 41)])
    @pytest.mark.parametrize("blocks", [1, 2, 5])
    def test_vectors_stack_many_blocks(self, monkeypatch, model, npoints,
                                       blocks):
        # one call per value, two blocks per call, and five with a last
        # call of fewer blocks: the vectors of one call for all values
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        a = real_form(model, g)
        values = ps.eig_dense([a])[0]
        stacked = _band_vectors(a, values)
        monkeypatch.setattr(ptspec.eigen, "LU_ROWS", npoints * blocks)
        assert _band_vectors(a, values).tobytes() == stacked.tobytes()

    def test_exactly_singular_shift_is_clamped(self):
        # A - 2 has an exact zero pivot; raised to u ||A||_1 it gives the
        # exact eigenvector instead of inf or NaN
        a = scipy.sparse.coo_array(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        y = _band_vectors(a, np.array([2.0 + 0j]))
        assert np.all(np.isfinite(y))
        assert np.abs(y[:, 0]) == pytest.approx([0, 1, 0, 0, 0], abs=1e-15)

    def test_large_backward_error_raises(self, monkeypatch):
        model = ps.PthoParams(1.5, 1.0)
        g = ps.contour_for(model, npoints=64, halfwidth=8.0)
        monkeypatch.setattr(ptspec.eigen, "BACKWARD_ERROR_TOL", 1e-30)
        with pytest.raises(NonConvergence, match="backward"):
            ps.solve_spectrum(model, g)

    @pytest.mark.parametrize("model,npoints,compared", [
        (ps.PthoParams(1.5, 1.0), 200, 30),
        (ps.PthoParams(1.5, 1.0), 201, 30),
        (ps.AngularParams(ell=1.0, eps=0.1), 64, 6),
        (ps.AngularParams(ell=2.0, lam=0.7, eps=0.1), 128, 30),
        # every non-real value here is a rounding-split doublet
        (ps.AngularParams(ell=1.0, eps=0.1), 512, 0),
    ])
    def test_defects_match_the_eig_reference(self, model, npoints,
                                             compared):
        # per block, against pt_defect(S y) of np.linalg.eig's vectors.
        # A vector is fixed only to about its backward error over the gap
        # to the next eigenvalue, so the defects are compared where
        # kappa <= 1e3 and that gap exceeds 1e-6 max(1, |lambda|); the
        # two members of a doublet split by rounding (gap ~1e-8 at
        # N = 512) have defects of about 1e-3 that differ between any
        # two solvers
        g = ps.contour_for(model, npoints=npoints, halfwidth=10.0)
        checked = 0
        for a in real_blocks(model, g):
            values = ps.eig_dense([a])[0]
            defects = _pt_defects(a, values)
            assert np.all(defects[values.imag == 0] == 0.0)
            partner = dict(zip(values.tolist(), defects))
            assert all(partner[np.conj(z)] == d
                       for z, d in zip(values.tolist(), defects))
            reference, y = eig_pairs(a)
            v = s_map(y)
            nearest = np.abs(values[:, None]
                             - reference[None, :]).argmin(axis=1)
            kappa = 1.0 / np.abs(np.sum(v * v, axis=0))[nearest]
            gap = np.sort(np.abs(values[:, None] - values[None, :]),
                          axis=1)[:, 1]
            check = ((values.imag != 0) & (kappa <= 1e3)
                     & (gap > 1e-6 * np.maximum(1.0, np.abs(values))))
            expected = [ps.pt_defect(v[:, i]) for i in nearest[check]]
            assert defects[check] == pytest.approx(expected, abs=1e-9)
            checked += np.count_nonzero(check)
        assert checked >= compared
        first = ps.solve_spectrum(model, g, reality_tol=1e-4)
        second = ps.solve_spectrum(model, g, reality_tol=1e-4)
        assert first.pt_defects.tobytes() == second.pt_defects.tobytes()
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()


class TestSpuriousCut:
    @pytest.mark.parametrize("ell", [1.0, 2.0])
    def test_pair_at_the_cutoff_shares_one_label(self, ell):
        # at N = 512 a pair lies within 5e-10 of 2/h^2 from eps = 0.11
        # on; a strict Re > 2/h^2 labelled its members by the last bit,
        # differently between eps = 0.125 and 0.13 and between eigvals
        # and eig.  Inside the margin N u ||A||_1 they share one label
        for eps in (0.11, 0.125, 0.13, 0.15, 0.2, 0.3):
            model = ps.AngularParams(ell=ell, eps=eps)
            g = ps.contour_for(model, npoints=512)
            blocks = real_blocks(model, g)
            # the blocks hold the full-grid A's entries: one ||A||_1
            norms = [np.abs(folded_band(a)).sum(axis=0).max()
                     for a in blocks + [real_form(model, g)]]
            assert norms == pytest.approx([norms[-1]] * 3, rel=1e-15)
            cut = _spurious_cut(g, folded_band(blocks[0]))
            middle = 2.0 / g.gridstep ** 2
            assert cut - middle == pytest.approx(
                512 * np.finfo(float).eps * norms[-1],
                abs=2 * np.spacing(middle))
            res = ps.solve_spectrum(model, g, reality_tol=1e-4)
            reference = ps.classify_spectrum(
                np.concatenate([eig_pairs(a)[0] for a in blocks]),
                reality_tol=1e-4, spurious_cut=cut)
            for got in (res, reference):
                labels = np.array(got.classifications)
                near = np.abs(got.eigenvalues - middle) < 1e-6
                assert np.count_nonzero(near) == 2
                assert len(set(labels[near])) == 1
                assert SPURIOUS not in labels[near]
            assert (sorted(res.classifications)
                    == sorted(reference.classifications))


class TestSolveLowest:
    """The certified shift-invert window against the dense oracle."""

    @pytest.mark.parametrize("model,npoints,reality_tol", [
        (ps.PthoParams(1.5, 1.0), 400, 1e-7),
        (ps.PthoParams(0.35, 1.7), 401, 1e-7),
        (ps.PthoParams(2.55, 0.6), 600, 1e-7),
        (ps.PthoParams(0.5, 0.0), 300, 1e-7),     # real symmetric form
        (ps.AngularParams(ell=1.0, eps=0.1), 512, 1e-4),
        (ps.AngularParams(ell=2.0, eps=0.15), 301, 1e-4),
        (ps.AngularParams(ell=0.0, eps=0.1), 256, 1e-7),
    ])
    def test_window_matches_dense(self, model, npoints, reality_tol):
        # simple levels agree to 1e-8; the members of a near-double are
        # split by rounding, by ~1e-5, differently in each solver
        count = 8
        g = ps.contour_for(model, npoints=npoints)
        win = ps.solve_lowest(model, g, count, reality_tol=reality_tol)
        dense = ps.solve_spectrum(model, g, reality_tol=reality_tol)
        assert len(win.eigenvalues) < npoints        # no dense fallback
        lw, ld = win.real_values()[:count], dense.real_values()[:count]
        assert len(lw) == len(ld) == count
        scale = np.maximum(1.0, np.abs(ld))
        # a level is simple when no other dense eigenvalue lies within
        # 1e-3 relative of it
        others = np.abs(dense.eigenvalues[None, :] - ld[:, None])
        simple = np.sort(others, axis=1)[:, 1] > 1e-3 * scale
        assert simple.any()
        assert np.all(np.abs(lw - ld)[simple] <= 1e-8 * scale[simple])
        assert np.all(np.abs(lw - ld) <= 1e-4 * scale)
        levels = (ps.ptho_levels if isinstance(model, ps.PthoParams)
                  else ps.termination_levels)(model, count)
        rel_win = ps.match_spectra(win, levels, count)[-1]
        rel_dense = ps.match_spectra(dense, levels, count)[-1]
        for tol in (1e-3, 1e-2):
            assert np.all(rel_win <= tol) == np.all(rel_dense <= tol)

    def test_crossing_doubles_k(self, monkeypatch):
        # at alpha = 1 every double level is a narrow conjugate pair, so
        # 18 values hold too few real levels; the real levels found lie
        # high up, where both solvers resolve them to about 1e-6
        model = ps.PthoParams(1.0, 1.0)
        g = ps.contour_for(model, npoints=300)
        calls = self.patch_eigs(monkeypatch, lambda values, k: values)
        win = ps.solve_lowest(model, g, 8)
        dense = ps.solve_spectrum(model, g)
        assert calls[0] == 18 and len(calls) > 1
        assert len(win.eigenvalues) < 300
        assert win.real_values()[:8] == pytest.approx(
            dense.real_values()[:8], rel=1e-5)
        levels = ps.ptho_levels(model, 8)
        assert (np.all(ps.match_spectra(win, levels, 8)[-1] <= 1e-3)
                == np.all(ps.match_spectra(dense, levels, 8)[-1] <= 1e-3))

    def test_deterministic(self):
        model = ps.AngularParams(ell=2.0, eps=0.12)
        g = ps.contour_for(model, npoints=300)
        first = ps.solve_lowest(model, g, 8, reality_tol=1e-4)
        second = ps.solve_lowest(model, g, 8, reality_tol=1e-4)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.classifications, second.classifications)

    @staticmethod
    def patch_eigs(monkeypatch, change):
        """Route ARPACK's answer through change(values, k) and record the
        k of every call."""
        original = scipy.sparse.linalg.eigs
        calls = []

        def eigs(a, k, **kwargs):
            calls.append(k)
            return change(original(a, k, **kwargs), k)
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs)
        return calls

    def setup_ptho(self, npoints=300):
        model = ps.PthoParams(1.5, 1.0)
        return model, ps.contour_for(model, npoints=npoints)

    def test_missed_real_level_falls_back_to_dense(self, monkeypatch):
        # the third-lowest level lies well inside the disc, so only the
        # parity guard can see that it is missing
        def drop_third(values, k):
            return np.delete(values, np.argsort(values.real)[2])
        model, g = self.setup_ptho()
        calls = self.patch_eigs(monkeypatch, drop_third)
        win = ps.solve_lowest(model, g, 8)
        dense = ps.solve_spectrum(model, g)
        assert calls == [18, 36, 72, 144]          # while 2k < N
        assert np.array_equal(win.eigenvalues, dense.eigenvalues)
        assert np.array_equal(win.classifications, dense.classifications)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        def fail(values, k):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no convergence", values, None)
        model, g = self.setup_ptho()
        calls = self.patch_eigs(monkeypatch, fail)
        win = ps.solve_lowest(model, g, 8)
        assert calls == [18, 36, 72, 144]
        assert np.array_equal(win.eigenvalues,
                              ps.solve_spectrum(model, g).eigenvalues)

    def test_short_window_doubles_k(self, monkeypatch):
        # a first answer that reaches only 6 levels is too short for 8
        def short_first(values, k):
            return values[np.argsort(values.real)[:6]] if k == 18 else values
        model, g = self.setup_ptho()
        calls = self.patch_eigs(monkeypatch, short_first)
        win = ps.solve_lowest(model, g, 8)
        assert calls == [18, 36]
        assert len(win.eigenvalues) == 35
        assert win.real_values()[:8] == pytest.approx(
            ps.solve_spectrum(model, g).real_values()[:8], rel=1e-8)

    def test_partner_cut_at_the_edge_is_dropped(self, monkeypatch):
        # a lone non-real value at the largest distance is the half of a
        # conjugate pair that the window split; it is dropped, and the
        # window is still accepted
        def split_pair(values, k):
            far = np.abs(values - values.real.min()).max()
            return np.append(values, values.real.min() + 2 * far + 3j)
        model, g = self.setup_ptho()
        calls = self.patch_eigs(monkeypatch, split_pair)
        win = ps.solve_lowest(model, g, 8)
        assert calls == [18]
        assert win.real_values()[:8] == pytest.approx(
            ps.solve_spectrum(model, g).real_values()[:8], rel=1e-8)

    @pytest.mark.parametrize("npoints,count", [(40, 20), (41, 30), (52, 8)])
    def test_too_many_levels_match_dense(self, monkeypatch, npoints, count):
        # count >= N/2 goes straight to the dense solve; at N=52 only 5
        # real levels lie below the spurious cut 2/h^2, so the k = 18
        # window certifies no 8, k doubles to 36 >= N/2, and the dense
        # answer reports what exists
        model, g = self.setup_ptho(npoints)
        calls = self.patch_eigs(monkeypatch, lambda values, k: values)
        win = ps.solve_lowest(model, g, count)
        assert calls == ([18] if count == 8 else [])
        dense = ps.solve_spectrum(model, g)
        assert len(win.real_values()) == len(dense.real_values()) < count
        assert np.array_equal(win.eigenvalues, dense.eigenvalues)

    @pytest.mark.parametrize("count", [0, -1, 2.5, 8.0, True, "8"])
    def test_count_must_be_a_positive_integer(self, monkeypatch, count):
        # rejected before any solve: 0 used to raise IndexError, and 2.5
        # reached ARPACK as a float k
        model, g = self.setup_ptho(64)
        calls = self.patch_eigs(monkeypatch, lambda values, k: values)
        with pytest.raises(ValueError, match="count"):
            ps.solve_lowest(model, g, count)
        assert calls == []


def scan_window(model, g, levels):
    """The first window of ptho_numeric_family: (band, sigma, x, values)
    for k = 2 levels + 4, with x in the first wide gap at or above the
    levels-th value."""
    a = real_form(model, g)
    band = folded_band(a)
    sigma = _shift(band[2], g)
    values = scipy.sparse.linalg.eigs(a.tocsc(), 2 * levels + 4,
                                      sigma=sigma, v0=np.ones(g.npoints),
                                      return_eigenvectors=False)
    x = _gap_above(values.real, np.sort(values.real)[levels - 1])
    return band, sigma, x, values


SMALL_MODELS = [(ps.PthoParams(1.5, 1.0), 40), (ps.PthoParams(1.0, 1.2), 41),
                (ps.PthoParams(0.35, 1.7), 48),
                (ps.AngularParams(ell=1.0, eps=0.1), 40),
                (ps.AngularParams(ell=2.0, eps=0.15), 41)]


class TestCountMissing:
    """The argument-principle count on the folded band."""

    @pytest.mark.parametrize("model,npoints", SMALL_MODELS)
    def test_log_det_matches_slogdet(self, model, npoints):
        # both halves of the rectangle, the real axis and a point on the
        # spectrum's scale; pivoting swaps rows in some blocks, not others.
        # At a real shift, as in solve_lowest's parity guard, arg det is
        # a whole multiple of pi and gives the sign exactly
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        a = real_form(model, g).toarray()
        real = [-5.0, -3.0, 0.5, 0.7, 2.0, 4.0, 10.0, 30.0]
        z = np.array(real + [5.0 - 2.0j, 11.0 + 0.5j, 40.0 - 9.0j,
                             2.0 + 30.0j, 200.0 - 1e-3j])
        got = _log_det(folded_band(real_form(model, g)), z)
        for zi, log_det in zip(z, got):
            sign, logabs = np.linalg.slogdet(a - zi * np.eye(npoints))
            assert log_det.real == pytest.approx(logabs, rel=1e-12)
            assert abs(np.exp(1j * log_det.imag) - sign) <= 1e-10
            if zi.imag == 0:
                assert (-1) ** round(log_det.imag / np.pi) == sign

    def test_log_det_stacks_many_blocks(self, monkeypatch):
        # more shifts than fit in one call, a last call with fewer blocks
        # than the others, and one call per shift: the same answers
        model = ps.PthoParams(1.5, 1.0)
        g = ps.contour_for(model, npoints=40, halfwidth=8.0)
        band = folded_band(real_form(model, g))
        z = np.linspace(-2.0, 60.0, 23) - np.linspace(0.0, 9.0, 23) * 1j
        stacked = _log_det(band, z)
        monkeypatch.setattr(ptspec.eigen, "LU_ROWS", 40 * 5)
        assert _log_det(band, z) == pytest.approx(stacked, rel=1e-13)
        single = np.array([_log_det(band, z[i:i + 1])[0] for i in range(23)])
        assert np.array_equal(stacked, single)

    def test_stacked_lu_factors_every_chunk_in_one_buffer(self, monkeypatch):
        # 23 shifts at 5 blocks per call: five zgbtrf calls, the last with
        # three blocks, each factoring in place in the same buffer
        model = ps.PthoParams(1.5, 1.0)
        g = ps.contour_for(model, npoints=40, halfwidth=8.0)
        band = folded_band(real_form(model, g))
        z = np.linspace(-2.0, 60.0, 23) - np.linspace(0.0, 9.0, 23) * 1j
        monkeypatch.setattr(ptspec.eigen, "LU_ROWS", 40 * 5)
        chunks = [(rows, lu) for rows, lu, _, _ in _stacked_lu(band, z)]
        assert [rows.stop - rows.start for rows, _ in chunks] == [
            5, 5, 5, 5, 3]
        for (_, lu), (_, after) in zip(chunks, chunks[1:]):
            assert np.shares_memory(lu, after)

    def test_log_det_peak_memory(self):
        # one stacked buffer of 16 (3w + 1) LU_ROWS bytes, factored in
        # place, and the per-call pivots and sums beside it: 1.19 buffers
        # measured for 64 shifts on the angular N = 512 band, eight calls
        # of eight blocks
        model = ps.AngularParams(ell=1.0, eps=0.1)
        g = ps.contour_for(model, npoints=512)
        band = folded_band(real_form(model, g))
        w = len(band) // 2
        z = np.linspace(-3.0, 80.0, 64) + np.linspace(-5.0, 5.0, 64) * 1j
        tracemalloc.start()
        try:
            _log_det(band, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * (3 * w + 1) * ptspec.eigen.LU_ROWS

    @pytest.mark.parametrize("model,npoints", SMALL_MODELS)
    def test_half_width_is_read_from_the_band(self, model, npoints):
        # a zero outer diagonal on each side (half-width 3) stores the
        # same A, so every banded routine must give the same answers
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        a = real_form(model, g)
        band = folded_band(a)
        padded = np.pad(band, ((1, 1), (0, 0)))
        z = np.array([-3.0, 0.7, 10.0, 5.0 - 2.0j, 40.0 - 9.0j, 2.0 + 30.0j])
        assert np.array_equal(_log_det(padded, z), _log_det(band, z))
        assert _skew_norm(padded) == _skew_norm(band)
        sigma = _shift(band[2], g)
        ev = ps.eig_dense([a])[0]
        x = _gap_above(ev.real, ev.real[5])
        window = ev[ev.real < x]
        # without two real values, or without the lowest conjugate pair
        real = np.flatnonzero(window.imag == 0)
        drop = real[:2] if len(real) >= 2 else np.flatnonzero(window.imag)[:2]
        for poles, missing in ((window, 0), (np.delete(window, drop), 2)):
            assert count_missing(band, sigma, x, poles) == missing
            assert count_missing(padded, sigma, x, poles) == missing

    @pytest.mark.parametrize("model,npoints", SMALL_MODELS)
    def test_count_matches_dense_eigenvalues(self, model, npoints):
        # windows cut from the dense spectrum at a gap: complete, missing
        # one real level, missing a conjugate pair, with values above x
        # and without
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        a = real_form(model, g)
        band = folded_band(a)
        sigma = _shift(band[2], g)
        ev = np.linalg.eigvals(a.toarray())
        ev = ev[np.lexsort((ev.imag, ev.real))]
        checked = 0
        for levels in (1, 3, 6, 9):
            x = _gap_above(ev.real, ev.real[levels - 1])
            inside = ev[ev.real < x]
            for window in (ev[:levels + 6], inside, inside[1:],
                           np.delete(ev[:levels + 6], np.flatnonzero(
                               ev[:levels + 6].imag != 0)[:2])):
                poles = window[window.real < x]
                expected = len(inside) - len(poles)
                closed = np.array_equal(np.sort_complex(window),
                                        np.sort_complex(window.conj()))
                if closed:
                    assert count_missing(band, sigma, x, window) == expected
                    checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("model,npoints,halfwidth,levels", [
        (ps.PthoParams(0.7, 1.0), 200, 8.0, 4),
        (ps.PthoParams(1.6, 1.6), 200, 8.0, 4),
        (ps.PthoParams(1.0, 1.0), 600, 10.0, 6),
        (ps.PthoParams(2.0, 1.0), 600, 10.0, 6),
        (ps.AngularParams(ell=1.0, eps=0.1), 512, None, 8),
    ])
    def test_dropping_values_counts_them(self, model, npoints, halfwidth,
                                         levels):
        # a complete window counts 0; without its lowest value +1, and
        # without a conjugate pair below x +2 (at alpha = 1 the double
        # levels are such pairs)
        g = ps.contour_for(model, npoints=npoints,
                           **({"halfwidth": halfwidth} if halfwidth else {}))
        band, sigma, x, values = scan_window(model, g, levels)
        assert count_missing(band, sigma, x, values) == 0
        lowest = np.argmin(values.real)
        assert count_missing(band, sigma, x, np.delete(values, lowest)) == 1
        pair = np.flatnonzero((values.imag != 0) & (values.real < x))
        if len(pair):
            partner = np.flatnonzero(values == np.conj(values[pair[0]]))
            dropped = np.delete(values, [pair[0], partner[0]])
            assert count_missing(band, sigma, x, dropped) == 2

    @pytest.mark.parametrize("model,npoints,halfwidth,levels", [
        # bench-sized and larger grids, among them windows that 8
        # starting segments per edge miscount by 4 or -4
        (ps.PthoParams(1.025, 1.8), 200, 8.0, 4),
        (ps.PthoParams(0.35, 1.2), 600, 12.0, 6),
        (ps.AngularParams(ell=2.0, eps=0.1), 512, None, 8),
        (ps.PthoParams(2.78, 1.5), 276, 10.0, 5),
        (ps.PthoParams(2.44, 1.37), 234, 12.0, 3),
        (ps.PthoParams(2.9, 1.26), 394, 12.0, 2),
    ])
    def test_complete_windows_count_zero(self, model, npoints, halfwidth,
                                         levels):
        g = ps.contour_for(model, npoints=npoints,
                           **({"halfwidth": halfwidth} if halfwidth else {}))
        band, sigma, x, values = scan_window(model, g, levels)
        assert count_missing(band, sigma, x, values) == 0

    def test_unresolved_count_stops_at_the_evaluation_cap(self, monkeypatch):
        # a NaN in the band makes every step of log f NaN, so no segment
        # ever resolves; the count must give None within MAX_LOG_DETS
        # determinants, not bisect without bound
        model = ps.PthoParams(1.5, 1.0)
        g = ps.contour_for(model, npoints=48, halfwidth=8.0)
        band, sigma, x, values = scan_window(model, g, 4)
        band[len(band) // 2, 10] = np.nan
        evaluations = []
        log_det = ptspec.eigen._log_det

        def counted(band, z):
            evaluations.append(len(z))
            # far above the cap, far below an unbounded bisection
            assert sum(evaluations) <= 10 ** 4, "count_missing does not stop"
            return log_det(band, z)
        monkeypatch.setattr(ptspec.eigen, "_log_det", counted)
        assert count_missing(band, sigma, x, values) is None
        assert sum(evaluations) <= ptspec.eigen.MAX_LOG_DETS


def numeric_family(c, npoints, halfwidth, levels):
    """ptho_numeric_family on the oscillator with shift c and the straight
    grid of npoints points on [-halfwidth, halfwidth]."""
    model = ps.PthoParams(alpha=1.5, c=c)
    g = ps.contour_for(model, npoints=npoints, halfwidth=halfwidth)
    return ps.ptho_numeric_family(model, g, levels)


def dense_family(c, npoints, halfwidth):
    """The oscillator family from the dense eigvals, with the spurious
    cut of ptho_numeric_family."""
    def spectrum(alpha):
        model = ps.PthoParams(alpha=alpha, c=c)
        g = ps.contour_for(model, npoints=npoints, halfwidth=halfwidth)
        a = real_form(model, g)
        values = ps.eig_dense([a])[0]
        cut = _spurious_cut(g, folded_band(a))
        return values[values.real <= cut]
    return spectrum


def lowest(values, levels):
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))][:levels]


class TestNumericFamily:
    """ptho_numeric_family: certified windows against the dense solve."""

    @staticmethod
    def count_dense(monkeypatch):
        calls = []
        original = ptspec.eigen.eig_dense

        def eig_dense(blocks):
            calls.extend(a.shape[0] for a in blocks)
            return original(blocks)
        monkeypatch.setattr(ptspec.eigen, "eig_dense", eig_dense)
        return calls

    @pytest.mark.parametrize("levels", [0, -1, 2.5])
    def test_levels_must_be_a_positive_integer(self, levels):
        # rejected when the family is made: 0 and -1 used to return 41
        # values and 1, and 2.5 reached ARPACK as a float k
        with pytest.raises(ValueError, match="levels"):
            numeric_family(1.0, 100, 10.0, levels)

    @pytest.mark.parametrize("c,npoints,halfwidth,levels,alphas", [
        (0.7, 200, 8.0, 4, np.linspace(0.55, 2.45, 9)),
        (1.6, 200, 8.0, 4, np.linspace(0.55, 2.45, 9)),
        (1.0, 600, 10.0, 6, [1.0, 2.0]),
    ])
    def test_window_matches_dense(self, monkeypatch, c, npoints, halfwidth,
                                  levels, alphas):
        # the bench sweeps, and the exceptional points at alpha = 1, 2,
        # where the crossing levels are conjugate pairs
        dense = dense_family(c, npoints, halfwidth)
        calls = self.count_dense(monkeypatch)
        family = numeric_family(c, npoints, halfwidth, levels)
        for alpha in alphas:
            window = lowest(family(float(alpha)), levels)
            assert len(window) == levels
            assert np.abs(window - lowest(dense(float(alpha)),
                                          levels)).max() <= 1e-8
            if alpha == 1.0:       # inside the exceptional-point window
                assert np.count_nonzero(window.imag) >= 2
        assert calls == []                  # no dense fallback

    def test_small_grid_takes_the_dense_path(self, monkeypatch):
        # k = 2 * 8 + 4 = 20 and 2k >= N = 40: the dense eigvals answers
        calls = self.count_dense(monkeypatch)
        family = numeric_family(1.0, 40, 8.0, 8)
        got = family(1.5)
        assert calls == [40]
        assert np.array_equal(got, dense_family(1.0, 40, 8.0)(1.5))

    def test_incomplete_window_doubles_k_then_falls_back(self, monkeypatch):
        # ARPACK's answer without its lowest value never certifies, so k
        # doubles while 2k < N and the dense solve answers
        original = scipy.sparse.linalg.eigs
        ks = []

        def eigs(a, k, **kwargs):
            ks.append(k)
            values = original(a, k, **kwargs)
            return np.delete(values, np.argmin(values.real))
        monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs)
        calls = self.count_dense(monkeypatch)
        family = numeric_family(1.0, 200, 8.0, 4)
        got = family(1.5)
        assert ks == [12, 24, 48, 96] and calls == [200]
        assert np.array_equal(got, dense_family(1.0, 200, 8.0)(1.5))

    def test_sweep_is_deterministic(self):
        family = numeric_family(1.6, 200, 8.0, 4)
        first = ps.scan_parameter(family, 0.55, 2.45, 9, 4)
        second = ps.scan_parameter(family, 0.55, 2.45, 9, 4)
        for e1, e2 in zip(first.energies, second.energies):
            assert np.array_equal(e1, e2)
        assert first.crossings == second.crossings
