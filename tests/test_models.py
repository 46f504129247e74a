"""Closed-form model tests: energies, wavefunctions, quasi-parity
bookkeeping, and discrete ODE residuals of the analytic eigenfunctions."""

import math
from collections import namedtuple

import numpy as np
import pytest

import ptspec as ps
from ptspec.exceptions import UnsupportedModel
from ptspec.specfun import gegenbauer_is_degenerate

from conftest import ode_residual


def angular(ell, eps=0.1, lam=0.0):
    return ps.AngularParams(ell=ell, eps=eps, lam=lam)


# a non-number is rejected as a ValueError, as a non-finite number is
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1.5", None,
                                 1j])
@pytest.mark.parametrize("make,field", [
    (lambda x: ps.PthoParams(alpha=x, c=1.0), "alpha"),
    (lambda x: ps.PthoParams(alpha=1.5, c=x), "c"),
    (lambda x: ps.AngularParams(ell=x, eps=0.1), "ell"),
    (lambda x: ps.AngularParams(ell=1.0, eps=x), "eps"),
    (lambda x: ps.AngularParams(ell=1.0, eps=0.1, lam=x), "lam"),
])
def test_non_finite_params_rejected(make, field, bad):
    with pytest.raises(ValueError, match=field):
        make(bad)


class TestPthoEnergies:
    def test_half_alpha_plus(self):
        assert ps.ptho_energy(0, +1, ps.PthoParams(0.5, 1.0)) == 3.0

    def test_minus_branch(self):
        assert ps.ptho_energy(1, -1, ps.PthoParams(1.5, 1.0)) == 3.0

    def test_harmonic_reduction_multiset(self):
        # alpha = 1/2 kills the singular term; the two branches interleave
        # into the odd integers, each exactly once
        p = ps.PthoParams(0.5, 1.0)
        energies = sorted(ps.ptho_energy(n, s, p)
                          for n in range(4) for s in (-1, +1))
        assert energies == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_energy_ignores_shift(self):
        for c in (0.5, 1.0, 7.0):
            assert ps.ptho_energy(2, -1, ps.PthoParams(1.5, c)) == 7.0

    def test_branch_ordering(self):
        for n in range(6):
            for alpha in (0.25, 1.0, 2.5):
                p = ps.PthoParams(alpha, 1.0)
                assert ps.ptho_energy(n, -1, p) < ps.ptho_energy(n, +1, p)

    def test_crossing_condition_at_integer_alpha(self):
        # E_{(+n)} = E_{(-m)} exactly when alpha = m - n
        p = ps.PthoParams(2.0, 1.0)
        assert ps.ptho_energy(0, +1, p) == ps.ptho_energy(2, -1, p)
        assert ps.ptho_energy(1, +1, p) == ps.ptho_energy(3, -1, p)

    def test_levels_sorted(self):
        # the lowest `count` of both ladders, exactly `count` of them
        p = ps.PthoParams(1.5, 1.0)
        levels = ps.ptho_levels(p, 6)
        assert levels.tolist() == [-1.0, 3.0, 5.0, 7.0, 9.0, 11.0]
        assert [ps.ptho_energy(n, s, p) for n, s in [
            (0, -1), (1, -1), (0, +1)]] == levels[:3].tolist()
        assert ps.ptho_levels(p, 1).tolist() == [-1.0]
        assert ps.ptho_levels(p, 0).tolist() == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ps.PthoParams(-1.0, 1.0)
        with pytest.raises(ValueError):
            ps.PthoParams(1.5, 0.0)
        # the singular term vanishes at alpha = 1/2, shift optional
        ps.PthoParams(0.5, 0.0)


class TestPthoWavefunction:
    def test_reduces_to_first_excited_oscillator(self):
        p = ps.PthoParams(0.5, 0.0)
        val = ps.ptho_wavefunction(0, +1, p, 1.0)
        assert val == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_quasi_even_branch_is_gaussian(self):
        p = ps.PthoParams(0.5, 0.0)
        val = ps.ptho_wavefunction(0, -1, p, 2.0)
        assert val == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_frozen_oracle_value(self):
        # composed at 40 digits from the polar power, exp and Laguerre
        p = ps.PthoParams(1.5, 1.0)
        val = ps.ptho_wavefunction(1, +1, p, 0.5)
        assert val == pytest.approx(
            0.9547322240406529 - 6.1102429339396742j, rel=1e-12)

    def test_pt_symmetry_at_integer_exponent(self):
        # alpha = 3/2 makes the prefactor exponent an integer, so
        # psi(-x) = conj(psi(x)) exactly: Re even, Im odd
        p = ps.PthoParams(1.5, 1.0)
        x = np.linspace(-3, 3, 41)
        psi = ps.ptho_wavefunction(2, +1, p, x)
        assert np.allclose(psi[::-1], np.conj(psi), rtol=1e-12)


class TestAngularEnergies:
    def test_ground_level(self):
        assert ps.angular_energy(0, +1, angular(0.0)) == 1.0

    def test_two_branch_coincidence(self):
        assert ps.angular_energy(1, -1, angular(0.0)) == 1.0

    def test_zero_energy_level(self):
        assert ps.angular_energy(1, -1, angular(1.0)) == 0.0

    def test_unsupported_regimes(self):
        with pytest.raises(UnsupportedModel):
            ps.angular_energy(0, +1, angular(1.0, lam=0.5))

    def test_non_integer_ell_unsupported(self):
        # (sin z)^(1/2 +/- alpha) is multivalued on the shifted circle
        # at ell = 1/2: the formula would give 0.25, 0.25, 2.25, ... where
        # the periodic numerics give 0, 1, 1, 4, ...
        p = angular(0.5)
        with pytest.raises(UnsupportedModel):
            ps.termination_levels(p, 3)
        with pytest.raises(UnsupportedModel):
            ps.angular_energy(0, +1, p)
        with pytest.raises(UnsupportedModel):
            ps.angular_wavefunction(0, +1, p, 0.5)

    def test_termination_level_multisets(self):
        # the lowest levels are the first values of the plus ladder merged
        # with those of the minus ladder
        def ladder(p, qparity, indices):
            return [ps.angular_energy(k, qparity, p) for k in indices]

        p0 = angular(0.0)
        lv0 = ps.termination_levels(p0, 7)
        assert lv0.tolist() == [0, 1, 1, 4, 4, 9, 9]
        assert ladder(p0, +1, range(3)) == [1, 4, 9]
        assert ladder(p0, -1, range(4)) == [0, 1, 4, 9]
        assert sorted(ladder(p0, +1, range(3))
                      + ladder(p0, -1, range(4))) == lv0.tolist()

        p1 = angular(1.0)
        lv1 = ps.termination_levels(p1, 5)
        assert ladder(p1, +1, range(1)) == [4]
        assert sorted(ladder(p1, -1, range(4))) == [0, 1, 1, 4]
        assert sorted(ladder(p1, +1, range(1))
                      + ladder(p1, -1, range(4))) == lv1.tolist()

        # the minus ladder (k - ell)^2 falls to zero at k = ell first
        p2 = angular(2.0)
        lv2 = ps.termination_levels(p2, 5)
        assert ladder(p2, +1, range(1)) == [9] and lv2.max() < 9
        assert ladder(p2, -1, (2, 1, 3, 0, 4)) == lv2.tolist() == [
            0, 1, 1, 4, 4]
        assert ps.termination_levels(p2, 0).tolist() == []


@pytest.mark.parametrize("levels,model", [
    (ps.ptho_levels, ps.PthoParams(1.5, 1.0)),
    (ps.termination_levels, angular(1.0))])
@pytest.mark.parametrize("count", [-1, 2.5, 3.0, True, "3"])
def test_level_count_must_be_a_non_negative_integer(levels, model, count):
    with pytest.raises(ValueError, match="count"):
        levels(model, count)


class TestAngularWavefunction:
    def test_ground_state_at_midpoint(self):
        val = ps.angular_wavefunction(0, +1, angular(0.0, eps=1e-10),
                                      math.pi / 2)
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_degenerate_branch_flagged(self):
        # ell = 0, minus branch: exponent 1/2 - alpha = 0, weight 0
        assert gegenbauer_is_degenerate(1, 0.5 - angular(0.0).alpha)
        assert not gegenbauer_is_degenerate(0, 0.5 - angular(0.0).alpha)
        assert not gegenbauer_is_degenerate(1, 0.5 + angular(0.0).alpha)
        # the renormalized family is nonzero where the naive one vanishes
        val = ps.angular_wavefunction(1, -1, angular(0.0), 0.7)
        assert abs(val) > 0.1

    def test_frozen_oracle_value(self):
        val = ps.angular_wavefunction(2, +1, angular(1.0, eps=0.05), 0.8)
        assert val == pytest.approx(
            1.9981453280266062 + 0.1177532642564974j, rel=1e-12)


# Parameters (u, v) of one hypergeometric solution branch, with the
# separation constant beta they encode: 2u = 1/2 - beta + s alpha and
# 2v = 1/2 + beta + s alpha for branch sign s
HypergeomIndices = namedtuple("HypergeomIndices", "u v beta")


def hypergeom_indices(k, qparity, p):
    """Indices of the terminating branch of level k: the termination
    condition 2u = -2k gives beta = 2k + 1/2 + s alpha."""
    beta = 2.0 * k + 0.5 + qparity * p.alpha
    return HypergeomIndices(u=0.5 * (0.5 - beta + qparity * p.alpha),
                            v=0.5 * (0.5 + beta + qparity * p.alpha),
                            beta=beta)


def hypergeom_solution(qparity, idx, p, phi):
    """The hypergeometric solution branch at the shifted point z = phi -
    i eps, an oracle built on ps.hyp2f1 for lam = 0:

        (sin z)^(1/2 + s alpha) 2F1(u, v; 1 + s alpha; sin^2 z).
    """
    z = np.asarray(phi, dtype=float) - 1j * p.eps
    return (ps.cpow(np.sin(z), 0.5 + qparity * p.alpha)
            * ps.hyp2f1(idx.u, idx.v, 1.0 + qparity * p.alpha,
                        np.sin(z) ** 2))


class TestHypergeomSolution:
    def test_index_construction(self):
        idx = hypergeom_indices(1, +1, angular(0.0))
        # 2u = 1/2 - beta + alpha and 2v = 1/2 + beta + alpha
        assert 2 * idx.u == pytest.approx(0.5 - idx.beta + 0.5)
        assert 2 * idx.v == pytest.approx(0.5 + idx.beta + 0.5)
        assert idx.beta == pytest.approx(2 * 1 + 0.5 + 0.5)

    def test_one_term_termination(self):
        # u = -1 stops the series after two terms
        p = angular(0.0, eps=1e-12)
        idx = HypergeomIndices(u=-1.0, v=2.0, beta=3.0)
        val = hypergeom_solution(+1, idx, p, 0.3)
        s2 = math.sin(0.3) ** 2
        expect = math.sin(0.3) * (1 - 2.0 * s2 / 1.5)
        assert val == pytest.approx(expect, rel=1e-9)

    def test_near_origin_prefactor_dominates(self):
        p = angular(0.0, eps=0.2)
        idx = hypergeom_indices(0, +1, p)
        val = hypergeom_solution(+1, idx, p, 0.0)
        prefactor = ps.cpow(np.sin(-0.2j), 1.0)
        # series is 1 + O(sin^2) at the shifted origin
        assert val == pytest.approx(prefactor, rel=0.05)

    def test_matches_gegenbauer_at_termination(self):
        # the terminating series of index k is a degree-k polynomial in
        # sin^2, i.e. the even Gegenbauer state of degree 2k; it must be
        # proportional to that eigenfunction
        p = angular(1.0, eps=0.1)
        k = 2
        idx = hypergeom_indices(k, +1, p)
        assert idx.beta ** 2 == ps.angular_energy(2 * k, +1, p)
        phis = [0.4, 0.9, 1.7]
        hyp = np.array([hypergeom_solution(+1, idx, p, f) for f in phis])
        geg = np.array([ps.angular_wavefunction(2 * k, +1, p, f)
                        for f in phis])
        ratios = hyp / geg
        assert np.allclose(ratios, ratios[0], rtol=1e-10)


RESIDUAL_H = 1e-3
# the 1e-5 bound needs a finer step than 1e-3: the h^2 error constant
# grows like the fourth derivative of the singular prefactor (worst for
# alpha = 5/2 with c = 1/2), see the convergence-order test below
RESIDUAL_H_FINE = 2.5e-4
RESIDUAL_TOL = 1e-5


def ptho_residual(n, s, alpha, c, h):
    p = ps.PthoParams(alpha, c)
    grid = np.arange(-6.0, 6.0 + h / 2, h)
    return ode_residual(lambda x: ps.ptho_wavefunction(n, s, p, x),
                        lambda x: ps.potential_value(p, x),
                        ps.ptho_energy(n, s, p), grid)


def angular_residual(k, s, ell, eps, h):
    p = ps.AngularParams(ell=ell, eps=eps)
    margin = 0.02
    grid = np.arange(-math.pi + margin, math.pi - margin + h / 2, h)
    return ode_residual(lambda f: ps.angular_wavefunction(k, s, p, f),
                        lambda f: ps.potential_value(p, f),
                        ps.angular_energy(k, s, p), grid)


class TestOdeResiduals:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_ptho_residual_small(self, alpha, c):
        for n in range(6):
            for s in (-1, +1):
                r = ptho_residual(n, s, alpha, c, RESIDUAL_H_FINE)
                assert r < RESIDUAL_TOL, (n, s, alpha, c, r)

    def test_ptho_residual_second_order(self):
        for n, s, alpha, c in [(0, +1, 1.5, 1.0), (5, +1, 2.5, 2.0),
                               (1, -1, 2.5, 0.5)]:
            coarse = ptho_residual(n, s, alpha, c, RESIDUAL_H)
            fine = ptho_residual(n, s, alpha, c, RESIDUAL_H / 2)
            assert coarse / fine > 3.5

    @pytest.mark.parametrize("ell", [0.0, 1.0, 2.0])
    def test_angular_residual_small(self, ell):
        for k in range(5):
            for s in (-1, +1):
                r = angular_residual(k, s, ell, 0.6, RESIDUAL_H_FINE)
                assert r < RESIDUAL_TOL, (k, s, ell, r)

    def test_angular_residual_second_order(self):
        for k, s, ell in [(0, -1, 1.0), (3, -1, 2.0), (4, +1, 0.0)]:
            coarse = angular_residual(k, s, ell, 0.6, RESIDUAL_H)
            fine = angular_residual(k, s, ell, 0.6, RESIDUAL_H / 2)
            assert coarse / fine > 3.5
