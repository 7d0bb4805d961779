import cmath
import math
from fractions import Fraction

import pytest

from qcong import basis, congruence, eta, hecke
from qcong.eta import (
    _eta_power,
    _euler_power,
    _jacobi_cube,
    check_cusp_relation,
    eta_eval,
    euler_product,
    phi,
    phi_eval,
    psi,
    psi_eval,
)
from qcong.primes import PrimeContext
from qcong.series import QSeries, agree, mul_int_lists

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


# acceptance-04's sizes: a little beyond the psi its sweep builds from
# base_prec 4096 at p = 2 and 2048 at p = 3, 5, 7
ACCEPTANCE_N = {2: 4119, 3: 2071, 5: 2071, 7: 2071}


def all_miller_psi(ctx, n):
    """A reference route for psi: q^-1 E^lam (E^-lam)(q^p), from two
    recurrences and one product."""
    t = n + 1
    ep = [0] * (t + 1)
    ep[:: ctx.p] = _eta_power(-ctx.lam, t // ctx.p)
    return QSeries(mul_int_lists(_eta_power(ctx.lam, t), ep, t + 1), -1)


def power_psi(ctx, n):
    """A second reference route for psi: q^-1 (E (1/E)(q^p))^lam, where 1/E
    is Euler's partition recurrence on the t/p + 1 terms of E and the power
    is taken by repeated squaring of one series."""
    t = n + 2
    ep_inv = QSeries(_eta_power(-1, t // ctx.p + 1)).dilate(ctx.p)
    return ((euler_product(t) * ep_inv) ** ctx.lam).shift(-1).truncate(n)


def context(p):
    return PrimeContext(p, exploratory=p == 13)


# psi's reference checks: acceptance-04's sizes, and p = 13's lam = 2 at a like size
ROUTE_N = {**ACCEPTANCE_N, 13: 2071}


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


class TestEtaPower:
    def test_first_power_is_the_euler_product(self):
        for n in (0, 1, 2, 7, 300):
            assert QSeries(_eta_power(1, n)) == euler_product(n)

    def test_inverse_is_the_partition_numbers(self):
        parts = _eta_power(-1, 120)
        assert parts == brute_partitions(120)
        assert parts[100] == 190_569_292

    def test_24th_power_matches_repeated_products(self):
        assert QSeries(_eta_power(24, 300)) == euler_product(300) ** 24

    def test_a_non_integral_power_leaves_a_remainder(self):
        # E^(1/2) = 1 - q/2 + ...: the first division is not exact
        with pytest.raises(ArithmeticError, match="division by 1 is not exact"):
            _eta_power(Fraction(1, 2), 4)

    @pytest.mark.parametrize("a", [2, 4, 6, 12, 24])
    def test_the_sparse_route_matches_the_recurrence(self, a):
        for n in (0, 1, 2, 3, 10, 300):
            assert _euler_power(a, n) == _eta_power(a, n), n

    def test_the_sparse_route_takes_only_the_levels_lam(self):
        with pytest.raises(KeyError):
            _euler_power(3, 10)

    def test_jacobi_cube_is_the_cube_of_the_euler_product(self):
        for n in (0, 1, 2, 3, 10, 120):
            cube = [0] * (n + 1)
            for g, c in _jacobi_cube(n):
                cube[g] = c
            assert QSeries(cube, 0, n) == brute_euler(n) ** 3, n

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_flipped_triangular_sign_is_caught(self, p, monkeypatch):
        # E^3's sign at q^10 = q^(4 * 5 / 2) flipped: psi and phi then both
        # carry a wrong E^lam, which their product and both references see
        cube = eta._jacobi_cube
        monkeypatch.setattr(eta, "_kept", {})
        monkeypatch.setattr(eta, "_jacobi_cube",
                            lambda n: [(g, -c if g == 10 else c) for g, c in cube(n)])
        ctx, n = PrimeContext(p), 128
        ps = psi(ctx, n)
        assert ps * phi(ctx, n + 2) != QSeries.one(n + 1)
        assert ps != all_miller_psi(ctx, n) and ps != power_psi(ctx, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_changed_pentagonal_sign_is_caught(self, p, monkeypatch):
        # Miller's recurrence, and the sparse E^lam where it reads E, see E' with
        # a wrong sign at q^12: psi phi then carries powers of E / E' at q and
        # at q^p, which do not cancel
        pentagonal = eta._pentagonal
        monkeypatch.setattr(eta, "_kept", {})
        monkeypatch.setattr(
            eta, "_pentagonal", lambda n: ((g, -e if g == 12 else e) for g, e in pentagonal(n))
        )
        ctx, n = PrimeContext(p), 128
        try:
            caught = psi(ctx, n) * phi(ctx, n + 2) != QSeries.one(n + 1)
        except ArithmeticError:
            caught = True
        assert caught


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

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_the_all_miller_route(self, p):
        ctx = context(p)
        for n in (791, ROUTE_N[p]):
            assert psi(ctx, n) == all_miller_psi(ctx, n), n

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_the_power_route(self, p):
        ctx = context(p)
        for n in (791, ROUTE_N[p]):
            assert psi(ctx, n) == power_psi(ctx, n), n

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_short_inverse_matches_the_dense_one(self, p):
        # reference: invert E(q^p) as a dense series of t terms, where psi's
        # E^-lam(q^p) takes the recurrence on t/p + 1 terms
        ctx = PrimeContext(p)
        for n in (0, 1, p, 97, 300):
            t = n + 2
            e = euler_product(t)
            dense = ((e * euler_product(t // p + 1).dilate(p).invert()) ** ctx.lam).shift(-1)
            assert psi(ctx, n) == dense.truncate(n), n


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
            for n in (791, ACCEPTANCE_N[p]):
                assert psi(ctx, n) * phi(ctx, n + 2) == QSeries.one(n + 1), (p, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_inverse_of_psi(self, p):
        ctx = PrimeContext(p)
        for n in (791, ACCEPTANCE_N[p]):
            assert phi(ctx, n) == psi(ctx, n + 2).invert().truncate(n), n

    def test_builds_no_psi(self, monkeypatch):
        def no_psi(*args):
            raise AssertionError("psi was built")

        monkeypatch.setattr(eta, "_kept", {})
        monkeypatch.setattr(eta, "_psi_factors", no_psi)
        for p in (2, 3, 5, 7):
            ph = phi(PrimeContext(p), 256)
            assert (ph.val, ph.prec, ph.coeff(1)) == (1, 256, 1)
        assert [phi(PrimeContext(2), 256).coeff(n) for n in (2, 3)] == [24, 300]

    def test_leading_coefficient(self):
        for p in (2, 3, 5, 7):
            ph = phi(PrimeContext(p), 8)
            assert ph.val == 1 and ph.coeff(1) == 1


def test_the_store_keeps_only_the_powers_of_phi(monkeypatch):
    # the lattice benchmark's tasks at each prime, from an empty store: only
    # phi^i, i >= 1, is kept, and psi, j and the basis are built at each call
    monkeypatch.setattr(eta, "_kept", {})
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        hecke.derive_bj(ctx, 128)
        hecke.verify_up_closure(ctx, trials=10, deg_max=4, seed=1)
        for m in range(1, 7):
            congruence.decompose_up_step(ctx, m)
        hecke.verify_power_sum_divisibility(ctx, 2 * p)
        hecke.verify_hpoly_relation(ctx, 128)
    assert all(len(k) == 2 and type(k[0]) is PrimeContext and k[1] >= 1 for k in eta._kept)
    assert {k[0].p for k in eta._kept} == {2, 3, 5, 7}
    built = []
    for mod, name in ((eta, "_psi_factors"), (congruence, "eisenstein"), (basis, "_faber_step")):
        monkeypatch.setattr(mod, name, lambda *a, f=getattr(mod, name), name=name:
                            built.append(name) or f(*a))
    for _ in range(2):
        psi(ctx, 64)
        congruence.j_series(64)
        basis.basis_family(ctx, 3, 64)
    once = ["_psi_factors", "eisenstein", "_psi_factors", "_faber_step", "_faber_step"]
    assert built == once * 2


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
    assert s.val == -1 and s.den == 1
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


@pytest.mark.parametrize("p", [2.0, 7.0, True, Fraction(2), "2"])
def test_a_level_that_is_not_an_int_is_refused(p):
    # 2.0 == 2 and hashes alike, so it would share the store keys of level 2
    # while its lam, 24.0, breaks psi and the sweep far from the cause
    with pytest.raises(TypeError, match="the level p must be an int"):
        PrimeContext(p)
    with pytest.raises(TypeError, match="the level p must be an int"):
        PrimeContext(p, exploratory=True)
