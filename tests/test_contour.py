"""Contour grids, complex potentials, and the assembled matrices."""

import math
import tracemalloc

import numpy as np
import pytest

import ptspec as ps
from ptspec.exceptions import SingularPoint


class TestContourGeometry:
    def test_straight_gridstep_and_endpoints(self):
        g = ps.straight_contour(1.0, npoints=21, halfwidth=10.0)
        t = ps.grid_points(g)
        assert g.gridstep == pytest.approx(1.0)
        assert t[0] == -10.0 and t[-1] == 10.0
        assert np.allclose(np.diff(t), g.gridstep)

    def test_periodic_gridstep_and_midpoints(self):
        g = ps.periodic_contour(0.1, npoints=16)
        t = ps.grid_points(g)
        assert g.gridstep == pytest.approx(2 * math.pi / 16)
        assert t[0] == pytest.approx(-math.pi + g.gridstep / 2)
        assert t[-1] == pytest.approx(math.pi - g.gridstep / 2)

    @pytest.mark.parametrize("g", [
        ps.straight_contour(1.0, npoints=33, halfwidth=7.0),
        ps.straight_contour(0.5, npoints=34, halfwidth=7.0),
        ps.periodic_contour(0.2, npoints=32),
        ps.periodic_contour(0.2, npoints=33),
    ])
    def test_reflection_is_exact(self, g):
        # classification and pt_defect rely on t_j = -t_{N-1-j} with no
        # rounding at all
        t = ps.grid_points(g)
        assert np.array_equal(t, -t[::-1])

    def test_validation(self):
        with pytest.raises(ValueError):
            ps.Contour("circle", 1.0, 1.0, 32)
        with pytest.raises(ValueError):
            ps.straight_contour(1.0, npoints=8)
        with pytest.raises(ValueError):
            ps.straight_contour(-1.0, npoints=32)
        with pytest.raises(ValueError):
            ps.Contour("periodic", 0.1, 1.0, 32)
        with pytest.raises(ValueError):
            ps.straight_contour(1.0, npoints=32, halfwidth=-2.0)

    @pytest.mark.parametrize("field", ["shift", "halfwidth", "npoints"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        args = {"kind": "straight", "shift": 1.0, "halfwidth": 8.0,
                "npoints": 32, field: bad}
        with pytest.raises(ValueError, match=field):
            ps.Contour(**args)

    def test_contour_for_dispatch(self):
        assert ps.contour_for(ps.PthoParams(1.5, 1.0),
                              npoints=64).kind == "straight"
        g = ps.contour_for(ps.AngularParams(ell=1.0, eps=0.1), npoints=64)
        assert g.kind == "periodic" and g.shift == 0.1
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
        with pytest.raises(SingularPoint):
            ps.potential_value(ps.PthoParams(1.5, 1.0),
                               np.array([-1.0, 0.0, 1.0]), shift=0.0)
        with pytest.raises(SingularPoint):
            ps.potential_value(ps.AngularParams(ell=1.0, eps=0.1),
                               0.0, shift=0.0)

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
        m = ps.build_hamiltonian(model, g)
        assert np.array_equal(m, np.conj(m[::-1, ::-1]).T)

    def test_dense_square_complex(self):
        g = ps.straight_contour(1.0, npoints=32, halfwidth=8.0)
        m = ps.build_hamiltonian(ps.PthoParams(0.5, 1.0), g)
        assert m.shape == (32, 32) and m.dtype == complex
        assert m[0, 1] == -1.0 / g.gridstep ** 2

    def test_oversize_grid_rejected_before_allocation(self):
        # the dense 5000-point operator would take 400 MB
        g = ps.straight_contour(1.0, npoints=5000, halfwidth=8.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                ps.build_hamiltonian(ps.PthoParams(1.5, 1.0), g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_free_periodic_matches_circulant_spectrum(self):
        # ell = 0 removes the potential entirely: the matrix is the
        # periodic second-difference circulant with exact eigenvalues
        # 2(1 - cos(2 pi k / N)) / h^2
        n = 16
        g = ps.periodic_contour(0.1, npoints=n)
        m = ps.build_hamiltonian(ps.AngularParams(ell=0.0, eps=0.1), g)
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
            g = ps.straight_contour(1.0, npoints, halfwidth=12.0)
            vals = ps.eig_dense(ps.build_hamiltonian(model, g)).eigenvalues
            return abs(vals[0] - 1.0)

        assert err(201) / err(401) > 3.8
