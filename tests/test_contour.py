"""Contour grids, complex potentials, and the assembled matrices."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import ptspec as ps
import ptspec.contour
from ptspec.cli import EXIT_SOLVER, main
from ptspec.contour import folded_band, real_form
from ptspec.exceptions import SingularPoint


def complex_stencil(model, g):
    """The complex 3-point matrix H of -d^2 + V on g, built directly."""
    n, h = g.npoints, g.gridstep
    v = ps.potential_value(model, ps.grid_points(g))
    m = np.diag(2.0 / h ** 2 + v)
    m += np.diag(np.full(n - 1, -1.0 / h ** 2), 1)
    m += np.diag(np.full(n - 1, -1.0 / h ** 2), -1)
    if g.kind == "periodic":
        m[0, n - 1] = m[n - 1, 0] = -1.0 / h ** 2
    return m


def similarity(n):
    """S = (e^{i pi/4} I + e^{-i pi/4} J) / sqrt(2), J the reversal."""
    eye = np.eye(n)
    return (np.exp(0.25j * np.pi) * eye
            + np.exp(-0.25j * np.pi) * eye[::-1]) / np.sqrt(2.0)


def unchecked(cls, **fields):
    """An instance of a frozen model dataclass without its domain checks."""
    model = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(model, name, value)
    return model


def break_pt(monkeypatch):
    """Make potential_value add a real odd term, which V(-t) = conj(V(t))
    forbids."""
    original = ptspec.contour.potential_value

    def skewed(model, t):
        return original(model, t) + 0.01 * np.asarray(t)
    monkeypatch.setattr(ptspec.contour, "potential_value", skewed)


class TestContourGeometry:
    def test_straight_gridstep_and_endpoints(self):
        g = ps.Contour("straight", 10.0, 21)
        t = ps.grid_points(g)
        assert g.gridstep == pytest.approx(1.0)
        assert t[0] == -10.0 and t[-1] == 10.0
        assert np.allclose(np.diff(t), g.gridstep)

    def test_periodic_gridstep_and_midpoints(self):
        g = ps.Contour("periodic", math.pi, 16)
        t = ps.grid_points(g)
        assert g.gridstep == pytest.approx(2 * math.pi / 16)
        assert t[0] == pytest.approx(-math.pi + g.gridstep / 2)
        assert t[-1] == pytest.approx(math.pi - g.gridstep / 2)

    @pytest.mark.parametrize("g", [
        ps.Contour("straight", 7.0, 33),
        ps.Contour("straight", 7.0, 34),
        ps.Contour("periodic", math.pi, 32),
        ps.Contour("periodic", math.pi, 33),
    ])
    def test_reflection_is_exact(self, g):
        # classification and pt_defect rely on t_j = -t_{N-1-j} with no
        # rounding at all
        t = ps.grid_points(g)
        assert np.array_equal(t, -t[::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.Contour("circle", 1.0, 32)
        with pytest.raises(ValueError):
            ps.Contour("straight", 12.0, 8)
        with pytest.raises(ValueError):
            ps.Contour("periodic", 1.0, 32)
        with pytest.raises(ValueError):
            ps.Contour("straight", -2.0, 32)
        # the shift belongs to the model, which rejects a negative one
        with pytest.raises(ValueError, match="shift c"):
            ps.PthoParams(alpha=0.5, c=-1.0)

    @pytest.mark.parametrize("field", ["halfwidth", "npoints"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "8",
                                     None])
    def test_non_finite_rejected(self, field, bad):
        args = {"kind": "straight", "halfwidth": 8.0, "npoints": 32,
                field: bad}
        with pytest.raises(ValueError, match=field):
            ps.Contour(**args)

    @pytest.mark.parametrize("bad", [20.5, 32.0, True, "32"])
    def test_non_integral_npoints_rejected(self, bad):
        # 20.5 and 32.0 used to pass and fail later in grid_points
        with pytest.raises(ValueError, match="npoints"):
            ps.Contour("straight", 10.0, bad)

    def test_numpy_integer_npoints_accepted(self):
        g = ps.Contour("straight", 10.0, np.int64(32))
        assert len(ps.grid_points(g)) == 32

    def test_contour_for_dispatch(self):
        assert ps.contour_for(ps.PthoParams(1.5, 1.0),
                              npoints=64).kind == "straight"
        g = ps.contour_for(ps.AngularParams(ell=1.0, eps=0.1), npoints=64)
        assert g.kind == "periodic"
        with pytest.raises(TypeError):
            ps.contour_for(object(), npoints=64)


class TestPotential:
    def test_oscillator_on_axis_origin(self):
        # alpha = 1/2: pure (t - i)^2, so V(0) = -1
        v = ps.potential_value(ps.PthoParams(0.5, 1.0), 0.0)
        assert v == pytest.approx(-1.0 + 0j)

    def test_oscillator_with_singular_term(self):
        # alpha = 3/2: (t-i)^2 + 2/(t-i)^2 -> -1 - 2 at t = 0
        v = ps.potential_value(ps.PthoParams(1.5, 1.0), 0.0)
        assert v == pytest.approx(-3.0 + 0j)

    def test_angular_frozen_value(self):
        # 2 / sin^2(pi/2 - 0.1i) = 2 / cosh(0.1)^2, purely real
        v = ps.potential_value(ps.AngularParams(ell=1.0, eps=0.1),
                               math.pi / 2)
        assert v == pytest.approx(1.9801325816948796 + 0j, rel=1e-13)

    def test_pt_symmetry_of_potential(self):
        # V(-t) = conj(V(t)) on the shifted contour
        t = np.linspace(0.3, 5.0, 20)
        for model in (ps.PthoParams(2.5, 0.7),
                      ps.AngularParams(ell=2.0, eps=0.3)):
            tt = t if isinstance(model, ps.PthoParams) else t / 2
            assert np.allclose(ps.potential_value(model, -tt),
                               np.conj(ps.potential_value(model, tt)),
                               rtol=1e-14)

    def test_unshifted_contour_hits_pole(self):
        # the models reject a zero shift that puts a pole on the contour;
        # bypassed, potential_value still refuses it
        with pytest.raises(ValueError):
            ps.PthoParams(1.5, 0.0)
        with pytest.raises(ValueError):
            ps.AngularParams(ell=1.0, eps=0.0)
        with pytest.raises(SingularPoint):
            ps.potential_value(unchecked(ps.PthoParams, alpha=1.5, c=0.0),
                               np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(SingularPoint):
            ps.potential_value(unchecked(ps.AngularParams, ell=1.0, eps=0.0,
                                         lam=0.0), 0.0)

    def test_shift_removes_pole(self):
        v = ps.potential_value(ps.PthoParams(1.5, 0.5), 0.0)
        assert np.isfinite(v)


class TestHamiltonian:
    @pytest.mark.parametrize("model,npoints", [
        (ps.PthoParams(1.5, 1.0), 40),
        (ps.PthoParams(1.5, 1.0), 41),
        (ps.AngularParams(ell=1.0, eps=0.1), 40),
    ])
    def test_pt_structure_exact(self, model, npoints):
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        m = real_form(model, g).toarray()
        assert np.array_equal(m, np.conj(m[::-1, ::-1]).T)

    def test_dense_square_real(self):
        g = ps.Contour("straight", 8.0, 32)
        m = real_form(ps.PthoParams(0.5, 1.0), g).toarray()
        assert m.shape == (32, 32) and m.dtype == np.float64
        assert m[0, 1] == -1.0 / g.gridstep ** 2

    @pytest.mark.parametrize("model,npoints", [
        (ps.PthoParams(1.5, 1.0), 40),
        (ps.PthoParams(1.5, 1.0), 41),
        (ps.AngularParams(ell=1.0, eps=0.1), 40),
        (ps.AngularParams(ell=1.0, eps=0.1), 41),
    ])
    def test_real_form_of_the_stencil(self, model, npoints):
        # S A S* is the complex stencil.  A is the stencil's real part,
        # which is symmetric and centrosymmetric, plus antidiag(Im V),
        # which is skew because Im V is odd in t.  So A itself is real and
        # persymmetric; it cannot be symmetric, as its spectrum has
        # conjugate pairs
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        a = real_form(model, g).toarray()
        h = complex_stencil(model, g)
        s = similarity(npoints)
        assert a.dtype == np.float64
        assert np.abs(s @ a @ s.conj().T - h).max() <= 1e-13 * np.abs(h).max()
        skew = np.fliplr(np.diag(h.diagonal().imag))
        assert np.array_equal(skew, -skew.T)
        assert np.array_equal(h.real, h.real.T)
        assert np.array_equal(h.real, h.real[::-1, ::-1])
        assert np.array_equal(a, h.real + skew)
        assert np.array_equal(a, a.T[::-1, ::-1])

    @pytest.mark.parametrize("model,npoints", [
        (ps.PthoParams(1.5, 1.0), 16),
        (ps.PthoParams(1.5, 1.0), 17),
        (ps.PthoParams(0.35, 1.7), 40),
        (ps.PthoParams(0.35, 1.7), 41),
        (ps.AngularParams(ell=1.0, eps=0.1), 16),
        (ps.AngularParams(ell=1.0, eps=0.1), 17),
        (ps.AngularParams(ell=2.0, eps=0.15), 40),
        (ps.AngularParams(ell=2.0, eps=0.15), 41),
    ])
    def test_folded_band_is_the_permuted_real_form(self, model, npoints):
        # in the order (0, N-1, 1, N-2, ...) every entry of A, the
        # periodic corners and the middle rows included, lies at most two
        # places off the diagonal; band[2 + i - j, j] holds entry (i, j)
        g = ps.contour_for(model, npoints=npoints, halfwidth=8.0)
        a = real_form(model, g).toarray()
        band = folded_band(real_form(model, g))
        order = [k for pair in zip(range(npoints), range(npoints - 1, -1, -1))
                 for k in pair][:npoints]
        assert sorted(order) == list(range(npoints))
        folded = a[np.ix_(order, order)]
        rebuilt = np.zeros_like(folded)
        for d in range(-2, 3):
            rebuilt += np.diag(band[2 - d, max(d, 0):npoints + min(d, 0)], d)
        assert band.shape == (5, npoints) and band.dtype == np.float64
        assert np.array_equal(rebuilt, folded)
        # the band's corners outside the matrix stay empty
        outside = [band[0, :2], band[1, :1], band[3, -1:], band[4, -2:]]
        assert not np.concatenate(outside).any()

    def test_non_pt_potential_rejected_before_allocation(self, monkeypatch):
        # the assembly, the dense solve and the window solve all check
        # first
        break_pt(monkeypatch)
        g = ps.Contour("straight", 8.0, 4000)
        for solve in (real_form, ps.solve_spectrum,
                      lambda model, g: ps.solve_lowest(model, g, 8)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="PT"):
                    solve(ps.PthoParams(1.5, 1.0), g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    @pytest.mark.parametrize("model", [
        ps.PthoParams(1.5, 1e300),                  # -inf + finite i
        ps.AngularParams(ell=1e300, eps=0.1),       # inf
        ps.AngularParams(ell=1.0, eps=1e300)])      # nan
    def test_non_finite_potential_rejected(self, model):
        # before the PT check, which a nan fails and -inf + finite i
        # passes, and without a floating-point warning
        g = ps.contour_for(model, npoints=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite at 64 of 64"):
                real_form(model, g)

    def test_non_pt_potential_exits_3(self, monkeypatch, tmp_path, capsys):
        break_pt(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"contour": {"npoints": 64}}')
        assert main(["spectrum", "--config", str(cfg)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == "" and "PT" in captured.err

    def test_assembly_peak_memory_is_one_real_matrix(self):
        # A is assembled from its O(N) entries, and no dense matrix is
        # allocated: the dense A alone would take 8 N^2 bytes
        n = 2000
        g = ps.Contour("straight", 12.0, n)
        tracemalloc.start()
        try:
            a = real_form(ps.PthoParams(1.5, 1.0), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.shape == (n, n) and a.nnz <= 4 * n
        assert peak <= 256 * n

    def test_oversize_grid_rejected_before_allocation(self):
        # the dense 5000-point operator would take 200 MB; the assembly,
        # the dense solve and the window solve, whose fallback is dense,
        # share the cap
        g = ps.Contour("straight", 8.0, 5000)
        for solve in (real_form, ps.solve_spectrum,
                      lambda model, g: ps.solve_lowest(model, g, 8)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="cap"):
                    solve(ps.PthoParams(1.5, 1.0), g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    def test_free_periodic_matches_circulant_spectrum(self):
        # ell = 0 removes the potential entirely: the matrix is the
        # periodic second-difference circulant with exact eigenvalues
        # 2(1 - cos(2 pi k / N)) / h^2
        n = 16
        g = ps.Contour("periodic", math.pi, n)
        m = real_form(ps.AngularParams(ell=0.0, eps=0.1), g).toarray()
        got = np.sort(np.linalg.eigvals(m).real)
        h = g.gridstep
        expect = np.sort(2.0 * (1 - np.cos(2 * np.pi * np.arange(n) / n))
                         / h ** 2)
        assert np.allclose(got, expect, rtol=1e-10, atol=1e-10)

    def test_ground_level_second_order_convergence(self):
        # halving h quarters the error of the lowest eigenvalue (E = 1
        # exactly for alpha = 1/2)
        def err(npoints):
            model = ps.PthoParams(0.5, 1.0)
            g = ps.Contour("straight", 12.0, npoints)
            vals = ps.eig_dense([real_form(model, g)])[0]
            return abs(vals[0] - 1.0)

        assert err(201) / err(401) > 3.8
