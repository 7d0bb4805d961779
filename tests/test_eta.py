import cmath
import math

import pytest

from qcong.eta import (
    check_cusp_relation,
    eta_eval,
    euler_product,
    phi,
    phi_eval,
    psi,
    psi_eval,
)
from qcong.primes import PrimeContext
from qcong.series import QSeries, agree

PSI2 = [1, -24, 276, -2048, 11202, -49152]  # printed expansion, exponents -1..4


def brute_euler(n):
    """(1-q)(1-q^2)...(1-q^n) truncated to q^n: the independent oracle."""
    acc = QSeries([1], 0, prec=n)
    for k in range(1, n + 1):
        acc = acc * QSeries([1] + [0] * (k - 1) + [-1], 0, prec=n)
        acc = acc.truncate(n)
    return acc


def brute_partitions(n):
    """Partition counts by direct dynamic programming."""
    parts = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            parts[m] += parts[m - k]
    return parts


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: euler_product(-1), "nonnegative"),
        (lambda: psi(PrimeContext(2), -1), "nonnegative"),
        (lambda: phi(PrimeContext(2), 0), "at least 1"),
    ],
    ids=["euler-product", "psi", "phi"],
)
def test_precision_below_the_minimum_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestEulerProduct:
    def test_matches_bruteforce_product(self):
        e = euler_product(40)
        assert agree(e, brute_euler(40))

    def test_leading_terms(self):
        e = euler_product(7)
        assert [int(e.coeff(n)) for n in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_inverse_is_partition_series(self):
        n = 60
        prod = euler_product(n) * QSeries(brute_partitions(n), 0, prec=n)
        assert prod.coeff(0) == 1
        assert all(prod.coeff(k) == 0 for k in range(1, n + 1))

    def test_coefficients_in_pm_one(self):
        e = euler_product(4096)
        assert all(c in (-1, 0, 1) for c in e.coeffs)


class TestPsi:
    def test_printed_level2_expansion(self):
        s = psi(PrimeContext(2), 4)
        assert [int(s.coeff(n)) for n in range(-1, 5)] == PSI2

    def test_simple_pole_for_all_levels(self):
        for p in (2, 3, 5, 7):
            s = psi(PrimeContext(p), 8)
            assert s.val == -1
            assert s.coeff(-1) == 1

    def test_lambda_values(self):
        assert [PrimeContext(p).lam for p in (2, 3, 5, 7)] == [24, 12, 6, 4]

    def test_integrality_deep(self):
        for p in (2, 3, 5, 7):
            assert psi(PrimeContext(p), 2048).is_integral()


class TestPhi:
    def test_long_division_oracle(self):
        # divide 1 by the printed psi expansion directly
        ps = QSeries(PSI2, -1)
        ph = phi(PrimeContext(2), 4)
        assert agree(ps.invert(), ph)
        assert [int(ph.coeff(n)) for n in (1, 2, 3)] == [1, 24, 300]

    def test_product_with_psi_is_one(self):
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            prod = psi(ctx, 32) * phi(ctx, 34)
            assert prod.coeff(0) == 1
            assert all(prod.coeff(n) == 0 for n in range(1, prod.prec + 1))

    def test_leading_coefficient(self):
        for p in (2, 3, 5, 7):
            ph = phi(PrimeContext(p), 8)
            assert ph.val == 1 and ph.coeff(1) == 1

    def test_integrality_deep(self):
        for p in (2, 3, 5, 7):
            assert phi(PrimeContext(p), 2048).is_integral()


class TestEtaEval:
    def test_value_at_i(self):
        # Gamma(1/4) / (2 pi^(3/4)): classical closed form as the oracle
        expected = math.gamma(0.25) / (2 * math.pi ** 0.75)
        assert abs(eta_eval(1j) - expected) < 1e-12

    def test_translation_phase(self):
        tau = 0.21 + 0.9j
        lhs = eta_eval(tau + 1)
        rhs = cmath.exp(1j * cmath.pi / 12) * eta_eval(tau)
        assert abs(lhs - rhs) < 1e-12

    def test_inversion_functional_equation(self):
        tau = 1 + 2j
        lhs = eta_eval(-1 / tau)
        rhs = cmath.sqrt(-1j * tau) * eta_eval(tau)
        assert abs(lhs - rhs) < 1e-10

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            eta_eval(1 - 1j)


class TestCuspRelation:
    def test_fixed_point_value_level2(self):
        tau = 1j / math.sqrt(2)
        assert abs(psi_eval(PrimeContext(2), tau) - 64) < 1e-8

    def test_residuals(self):
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            for tau in (2j, 1j / math.sqrt(p)):
                assert check_cusp_relation(ctx, tau) < 1e-8

    def test_inverse_relation(self):
        # phi(-1/(p tau)) = p^(-lam/2) psi(tau), checked at tau = i
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            lhs = phi_eval(ctx, -1 / (p * 1j))
            rhs = p ** (-ctx.lam / 2) * psi_eval(ctx, 1j)
            assert abs(lhs - rhs) < 1e-8

    def test_series_matches_numeric_at_2i(self):
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            s = psi(ctx, 40)
            q = math.exp(-4 * math.pi)
            series_value = sum(float(c) * q**n for n, c in s.terms())
            numeric = psi_eval(ctx, 2j)
            assert abs(series_value - numeric) < 1e-8 * max(1.0, abs(numeric))


def test_exploratory_level_13():
    ctx = PrimeContext(13, exploratory=True)
    s = psi(ctx, 8)
    assert s.val == -1 and s.is_integral()
    with pytest.raises(ValueError):
        ctx.gamma(2)
    with pytest.raises(ValueError):
        _ = ctx.delta
    with pytest.raises(ValueError):
        PrimeContext(13)


@pytest.mark.parametrize("k", [0, -1])
def test_gamma_below_degree_one_raises(k):
    with pytest.raises(ValueError, match="degrees k >= 1"):
        PrimeContext(2).gamma(k)
