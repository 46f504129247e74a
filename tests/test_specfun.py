"""Special-function unit tests: frozen oracle values, explicit-sum
cross-checks, and randomized identity sweeps."""

import math

import numpy as np
import pytest
from scipy.special import gamma

from ptspec.exceptions import DomainError
from ptspec.specfun import (cpow, gegenbauer, gegenbauer_is_degenerate,
                            gegenbauer_renormalized, hyp2f1, laguerre)


def laguerre_sum(n, a, z):
    """Independent oracle: L_n^(a)(z) = sum_j binom(n+a, n-j) (-z)^j / j!."""
    total = 0j
    for j in range(n + 1):
        binom = gamma(n + a + 1) / (gamma(a + j + 1) * math.factorial(n - j))
        total += binom * (-z) ** j / math.factorial(j)
    return total


def gegenbauer_sum(k, lam, x):
    """Independent oracle (lam > 0): explicit Gegenbauer finite sum."""
    total = 0j
    for j in range(k // 2 + 1):
        total += ((-1) ** j * gamma(lam + k - j)
                  / (gamma(lam) * math.factorial(j) * math.factorial(k - 2 * j))
                  * (2 * x) ** (k - 2 * j))
    return total


def hyp2f1_sum(u, v, w, z, nterms):
    """Independent oracle for terminating series: direct Pochhammer sum."""
    total, poch = 0j, 1.0 + 0j
    for j in range(nterms + 1):
        total += poch * z ** j / math.factorial(j)
        poch *= (u + j) * (v + j) / (w + j)
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 0.7, 3 + 2j) == 1

    def test_degree_one_closed_form(self):
        assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5)

    def test_frozen_oracle_value(self):
        # explicit finite sum evaluated at 40 digits
        val = laguerre(3, 0.5, 1.5 - 0.5j)
        assert val == pytest.approx(-1.25 + 0.10416666666666667j, rel=1e-13)

    def test_recurrence_matches_explicit_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(0, 16))
            a = float(rng.uniform(-0.9, 3.0))
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            expect = laguerre_sum(n, a, z)
            assert laguerre(n, a, z) == pytest.approx(expect, rel=1e-10,
                                                      abs=1e-10)

    def test_derivative_identity(self):
        # d/dz L_n^(a) = -L_{n-1}^(a+1), via central differences
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(300):
            n = int(rng.integers(1, 12))
            a = float(rng.uniform(-0.5, 2.5))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            fd = (laguerre(n, a, z + h) - laguerre(n, a, z - h)) / (2 * h)
            expect = -laguerre(n - 1, a + 1, z)
            assert fd == pytest.approx(expect, rel=1e-6, abs=1e-6)

    def test_vectorized_argument(self):
        z = np.array([0.5 + 0j, 1.0 - 0.3j])
        out = laguerre(2, 0.5, z)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(laguerre(2, 0.5, z[0]))


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert gegenbauer(0, 1.5, 0.3) == 1

    def test_degree_one_closed_form(self):
        assert gegenbauer(1, 1.5, 0.3) == pytest.approx(0.9)

    def test_degree_two_closed_form(self):
        # 2 lam (1 + lam) x^2 - lam at lam=1, x=0.5
        assert gegenbauer(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_oracle_value(self):
        val = gegenbauer(4, 1.5, 0.3 - 0.2j)
        assert val == pytest.approx(0.0939375 + 2.6775j, rel=1e-12)

    def test_recurrence_matches_explicit_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            k = int(rng.integers(0, 16))
            lam = float(rng.uniform(0.1, 3.0))
            x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            expect = gegenbauer_sum(k, lam, x)
            assert gegenbauer(k, lam, x) == pytest.approx(expect, rel=1e-10,
                                                          abs=1e-10)

    def test_negative_weight_evaluates(self):
        # the minus-branch weights are <= 0; recurrence must still run
        assert gegenbauer(1, -1.0, 0.4) == pytest.approx(-0.8)
        assert gegenbauer(2, -1.0, 0.4) == pytest.approx(1.0)
        assert gegenbauer(3, -1.0, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_predicate(self):
        assert gegenbauer_is_degenerate(1, 0.0)
        assert gegenbauer_is_degenerate(3, -1.0)
        assert not gegenbauer_is_degenerate(2, -1.0)
        assert not gegenbauer_is_degenerate(5, 0.5)

    def test_renormalized_limit_is_chebyshev_at_zero_weight(self):
        # d/dlam C_k^lam |_{lam=0} = (2/k) T_k
        for k, x in [(1, 0.3), (2, -0.7), (5, 0.2), (8, 0.9)]:
            tk = math.cos(k * math.acos(x))
            assert gegenbauer_renormalized(k, 0.0, x) == pytest.approx(
                2.0 * tk / k, rel=1e-12)

    def test_renormalized_matches_finite_difference(self):
        d = 1e-7
        for k, lam, x in [(3, -1.0, 0.4), (5, -2.0, -0.3), (4, 0.0, 0.6)]:
            fd = (gegenbauer(k, lam + d, x) - gegenbauer(k, lam - d, x)) / (2 * d)
            assert gegenbauer_renormalized(k, lam, x) == pytest.approx(
                fd, rel=1e-6, abs=1e-6)

    def test_renormalized_degree_zero_is_zero(self):
        # d/dlam C_0^lam = d/dlam 1 = 0, the derivative's degree-0 seed
        val = gegenbauer_renormalized(0, 1.5, 0.3 - 0.2j)
        assert type(val) is complex and val == 0
        x = np.array([[0.3 - 0.2j, -1.1], [2.0j, 0.5]])
        out = gegenbauer_renormalized(0, 1.5, x)
        assert out.shape == x.shape and not np.any(out)

    @pytest.mark.parametrize("func", [gegenbauer, gegenbauer_renormalized])
    def test_vectorized_argument(self, func):
        x = np.array([[0.3 - 0.2j, -1.1 + 0.4j, 2.0j],
                      [0.5 + 0j, -0.9 - 0.1j, 1.7 + 1.3j]])
        for k in (0, 1, 4):
            for lam in (1.5, 0.0, -1.0):
                out = func(k, lam, x)
                assert out.shape == x.shape
                for i in np.ndindex(x.shape):
                    ref = func(k, lam, complex(x[i]))
                    assert abs(out[i] - ref) <= 1e-14 * max(1, abs(ref))


class TestHyp2F1:
    def test_zero_argument(self):
        assert hyp2f1(-3, 1.7, 2.2, 0.0) == 1

    def test_one_term_termination(self):
        assert hyp2f1(-1, 2, 3, 0.4) == pytest.approx(1 - 2 * 0.4 / 3,
                                                      rel=1e-14)

    def test_terminating_matches_explicit_sum(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(0, 10))
            v = float(rng.uniform(-2, 4))
            w = float(rng.uniform(0.5, 4))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            expect = hyp2f1_sum(-n, v, w, z, n)
            assert hyp2f1(-n, v, w, z) == pytest.approx(expect, rel=1e-10,
                                                        abs=1e-10)

    def test_termination_allows_large_argument(self):
        assert hyp2f1(-2, 1.3, 2.1, 5.0) == pytest.approx(
            hyp2f1_sum(-2, 1.3, 2.1, 5.0, 2), rel=1e-12)

    def test_divergent_argument_raises(self):
        # only a terminating series is summed, inside the unit disk too
        for args in [(0.3, 0.7, 1.1, 1.2), (0.25, 0.75, 1.25, 0.5),
                     (0.3, 0.9, 1.4, 0.4 - 0.3j), (0.3, 0.9, 1.4, 0.0)]:
            with pytest.raises(DomainError, match="does not terminate"):
                hyp2f1(*args)

    def test_lower_parameter_pole_raises(self):
        # w + 1 = 0 is met before the series stops after two terms; it
        # used to raise ZeroDivisionError
        with pytest.raises(DomainError, match="lower parameter"):
            hyp2f1(-2, 1.0, -1.0, 0.5)
        # the series of degree 1 stops first
        assert hyp2f1(-1, 1.0, -1.0, 0.5) == 1.5


class TestCpow:
    def test_unit_base(self):
        assert cpow(1.0, 2.5) == 1

    def test_principal_branch_square(self):
        assert cpow(-1j, 2) == pytest.approx(-1.0 + 0j, rel=1e-15)

    def test_frozen_oracle_value(self):
        assert cpow(1 - 1j, 0.75) == pytest.approx(
            1.0782826817242804 - 0.7204854535664986j, rel=1e-13)

    def test_integer_exponent_matches_repeated_multiplication(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            # keep away from the branch cut (negative real axis)
            b = complex(rng.uniform(0.1, 2), rng.uniform(-2, 2))
            if rng.random() < 0.5:
                b = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            m = int(rng.integers(1, 6))
            expect = np.prod([b] * m)
            assert cpow(b, m) == pytest.approx(expect, rel=1e-12)

    def test_zero_base(self):
        assert cpow(0.0, 1.5) == 0
        with pytest.raises(DomainError):
            cpow(0.0, -1.0)
        with pytest.raises(DomainError):
            cpow(0.0, 0.0)
