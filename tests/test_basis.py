import random
from fractions import Fraction

import pytest

from qcong import eta
from qcong.basis import (
    NotPolynomialError,
    PhiPolynomial,
    _clear,
    basis_element,
    basis_family,
    express_in_phi,
)
from qcong.eta import phi, phi_powers, psi
from qcong.primes import PrimeContext
from qcong.series import PrecisionError, QSeries

C2 = PrimeContext(2)


class TestBasisElement:
    def test_level2_order2(self):
        el = basis_element(C2, 2, 4)
        assert el.psi_poly == {2: 1, 1: 48}
        assert [int(el.series.coeff(n)) for n in range(-2, 5)] == [
            1, 0, -24, -4096, 98580, -1228800, 10745856,
        ]

    def test_level2_order3(self):
        el = basis_element(C2, 3, 4)
        assert el.psi_poly == {3: 1, 2: 72, 1: 900}
        assert [int(el.series.coeff(n)) for n in range(-3, 5)] == [
            1, 0, 0, -96, 33606, -1843200, 43434816, -648216576,
        ]

    def test_order_one_is_psi(self):
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            el = basis_element(ctx, 1, 16)
            assert el.psi_poly == {1: 1}
            assert el.series == psi(ctx, 16 + 0).truncate(el.series.prec)

    def test_order_zero_is_one(self):
        el = basis_element(C2, 0, 8)
        assert el.psi_poly == {}
        assert el.series.coeff(0) == 1 and el.series.val == 0

    def test_principal_part_normalized(self):
        for p in (2, 3, 5, 7):
            fam = basis_family(PrimeContext(p), 40, 8)
            for m in range(1, 41):
                s = fam[m].series
                assert s.coeff(-m) == 1
                assert all(s.coeff(-k) == 0 for k in range(1, m))
                assert s.den == 1

    def test_uniqueness_round_trip(self):
        # the psi-polynomial, evaluated on powers of psi, is the Faber series,
        # constant included
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            for m in (2, 5, 9):
                el = basis_element(ctx, m, 24)
                powers = psi_powers(psi(ctx, el.series.prec + m - 1), m)
                total = QSeries.zero(el.series.prec)
                for k, c in el.psi_poly.items():
                    total = total + c * powers[k]
                assert total == el.series

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_duality(self, p):
        # Faber/Zagier duality of the basis f_m = q^-m + sum a(m, n) q^n:
        # n a(m, n) = m a(n, m) (Zagier, "Traces of singular moduli", 2002)
        fam = basis_family(PrimeContext(p), 12, 12)
        for m in range(1, 13):
            for n in range(1, 13):
                assert n * fam[m].series.coeff(n) == m * fam[n].series.coeff(m)


def psi_powers(ps, k):
    """psi^0 .. psi^k by repeated products, each truncated at the precision
    of psi."""
    powers = [QSeries.one(ps.prec), ps]
    while len(powers) <= k:
        powers.append((powers[-1] * ps).truncate(ps.prec))
    return powers[: k + 1]


def reference_family(ctx, m_max, n):
    """Basis elements by elimination against the powers psi^1 .. psi^m_max."""
    powers = psi_powers(psi(ctx, n + m_max - 1), m_max)
    out = [(QSeries.one(n), {})]
    for m in range(1, m_max + 1):
        r, poly = powers[m], {m: 1}
        for k in range(m - 1, 0, -1):
            if c := r.coeff(-k):
                r = r - c * powers[k]
                poly[k] = -c
        out.append((r, poly))
    return out


def test_basis_family_rejects_negative_pole_order():
    with pytest.raises(ValueError, match="m_max must be nonnegative"):
        basis_family(C2, -1, 8)


class TestFaberRecurrence:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_elimination_against_psi_powers(self, p):
        ctx = PrimeContext(p)
        for m_max, n in ((12, 40), (5, 17), (1, 30), (40, 8)):
            fam = basis_family(ctx, m_max, n)
            assert len(fam) == m_max + 1
            for m, (series, poly) in enumerate(reference_family(ctx, m_max, n)):
                assert fam[m].m == m
                assert fam[m].series == series  # val, prec and coefficients
                assert fam[m].series.prec == (n if m == 0 else n + m_max - m)
                assert fam[m].psi_poly == poly


class TestPhiPowers:
    def test_table_matches_repeated_products(self):
        for p in (2, 7):
            ctx = PrimeContext(p)
            table = phi_powers(ctx, 4, 40)
            assert len(table) == 5 and table[0] == QSeries.one(40)
            for k in range(1, 5):
                assert table[k] == (phi(ctx, 40) ** k).truncate(40)

    def test_table_is_shared(self, monkeypatch):
        first = phi_powers(C2, 3, 24)

        def no_product(*args):
            raise AssertionError("a repeated call multiplied")

        monkeypatch.setattr(QSeries, "__mul__", no_product)
        assert phi_powers(C2, 3, 24) == first
        assert phi_powers(C2, 2, 20) == tuple(t.truncate(20) for t in first[:3])
        assert phi_powers(C2, -1, 24) == ()

    def test_each_power_keeps_its_own_precision(self, monkeypatch):
        # the closure asks for a few powers at a long precision, then, to read
        # their images in phi, for many at a short one: only the entries too
        # short are rebuilt
        ctx = PrimeContext(7)
        monkeypatch.setattr(eta, "_kept", {})
        for k, n in ((4, 300), (28, 44), (7, 128)):
            table = phi_powers(ctx, k, n)
            assert len(table) == k + 1 and table[0] == QSeries.one(n)
            for i in range(1, k + 1):
                assert table[i] == (phi(ctx, n) ** i).truncate(n)
        # phi is kept as built, to n + 4; phi^i, i >= 2, built at a request
        # for n keeps the precision of its product, n + i - 1
        assert set(eta._kept) == {(ctx, i) for i in range(1, 29)}
        assert eta._kept[ctx, 1].prec == 304
        asked = [300] * 3 + [128] * 3 + [44] * 21
        precs = [eta._kept[ctx, i].prec for i in range(2, 29)]
        assert precs == [n + i - 1 for i, n in enumerate(asked, start=2)]

    def test_shifted_request_multiplies_nothing(self, monkeypatch):
        # evaluate reads the table at n + j when phi^(j+1) is the lowest power;
        # the entries above phi^j built at n already reach that far
        monkeypatch.setattr(eta, "_kept", {})
        ph = phi(C2, 64).truncate(40)
        phi_powers(C2, 4, 40)
        want = (ph**2 + 3 * ph**4).truncate(41)

        def no_product(*args):
            raise AssertionError("a shifted request multiplied")

        monkeypatch.setattr(QSeries, "__mul__", no_product)
        assert PhiPolynomial({2: 1, 4: 3}).evaluate(C2, 40) == want


    def test_powers_beyond_the_precision_are_zero(self):
        # phi^k has valuation k, so beyond precision n it is zero to n
        assert phi_powers(C2, 20, 2)[20] == QSeries.zero(2)
        assert PhiPolynomial({1: 1, 10: 1}).evaluate(C2, 2) == phi(C2, 2)


class TestExpressInPhi:
    def test_round_trip(self):
        ph = phi(C2, 32)
        s = (ph**2 + 1).truncate(30)
        const, poly = express_in_phi(C2, s, 2)
        assert const == 1
        assert poly == PhiPolynomial({2: 1})

    def test_u2_of_psi(self):
        u = psi(C2, 64).u_op(2)
        const, poly = express_in_phi(C2, u, 1)
        assert const == -24
        assert poly == PhiPolynomial({1: -2048})

    def test_rejects_negative_valuation(self):
        s = psi(C2, 32)
        with pytest.raises(ValueError):
            express_in_phi(C2, s, 2)

    def test_rejects_low_precision(self):
        s = QSeries([1, 1], 0)
        with pytest.raises(PrecisionError):
            express_in_phi(C2, s, 4)

    def test_non_polynomial_reports_residual(self):
        # psi has a pole, so psi*phi^2 = phi is fine; use j-like tail instead
        s = QSeries([1] * 30, 0)
        with pytest.raises(NotPolynomialError) as err:
            express_in_phi(C2, s, 2)
        assert err.value.failing_exponent >= 1

    def test_fraction_coefficient_raises(self):
        # each is a polynomial in phi, but not over the integers
        sq = (phi(C2, 32) ** 2).truncate(30)
        for s in ((sq + 1) * Fraction(1, 2), sq + Fraction(1, 2)):
            with pytest.raises(TypeError, match="must be int"):
                express_in_phi(C2, s, 2)

    def test_fraction_constant_raises(self):
        # the constant keeps the int-only contract of the polynomial beside it;
        # an integral Fraction is read as an int, so only a true fraction raises
        assert express_in_phi(C2, QSeries([3], 0, 20), 4) == (3, PhiPolynomial())
        for s in (QSeries([Fraction(1, 2)], 0, 20), phi(C2, 20) + Fraction(1, 2)):
            with pytest.raises(TypeError, match="must be int"):
                express_in_phi(C2, s, 4)
        assert express_in_phi(C2, QSeries([Fraction(2)], 0, 20), 4) == (2, PhiPolynomial())
        const, poly = express_in_phi(C2, phi(C2, 20) + Fraction(2), 4)
        assert (const, poly) == (2, PhiPolynomial({1: 1})) and type(const) is int

    def test_fraction_zero_at_a_degree_reads_as_int(self):
        # a series stores a Fraction(0) as the int 0; and in the elimination a
        # zero multiplier is not kept and clears nothing, so a Fraction(0) read
        # at degree 1 leaves the entries after it, and the result, int
        sq = (phi(C2, 32) ** 2).truncate(30)
        s = QSeries([1, Fraction(0), *sq.coeffs], 0, 30)
        assert type(s.coeff(1)) is int and s == QSeries([1, 0, *sq.coeffs], 0, 30)
        const, poly = express_in_phi(C2, s, 4)
        assert (const, poly) == (1, PhiPolynomial({2: 1})) and type(const) is int
        powers = phi_powers(C2, 2, 30)
        t = [1, Fraction(0), *sq.coeffs]
        runs = [(0, (1,)), (1, powers[1].coeffs), (2, powers[2].coeffs)]
        assert _clear(t, runs) == {0: 1, 2: 1}
        assert not any(t) and all(type(x) is int for x in t[2:])

    def test_rejects_ramified_input(self):
        with pytest.raises(ValueError, match="unramified"):
            express_in_phi(C2, phi(C2, 32).ramify(2), 2)

    def test_rejects_maxdeg_below_one(self):
        with pytest.raises(ValueError, match="maxdeg must be positive"):
            express_in_phi(C2, phi(C2, 32), 0)


def test_express_in_phi_forms_no_series_sum(monkeypatch):
    # the elimination runs in place on one list: no cleared term builds a series
    ph = phi(C2, 40)
    s = (3 * ph**5 - 7 * ph**2 + ph + 11).truncate(36)
    phi_powers(C2, 6, 36)

    def no_sum(*args):
        raise AssertionError("express_in_phi formed a series sum")

    monkeypatch.setattr(QSeries, "_plus", no_sum)
    assert express_in_phi(C2, s, 6) == (11, PhiPolynomial({5: 3, 2: -7, 1: 1}))


class TestClear:
    def test_clears_each_offset_in_order(self):
        # phi^2 - 5 phi + 7/2 against 1, phi, phi^2, laid out from q^0
        powers = phi_powers(C2, 2, 30)
        s = powers[2] - 5 * powers[1] + Fraction(7, 2)
        t = [0] * s.val + list(s.coeffs)
        runs = [(0, (1,)), (1, powers[1].coeffs), (2, powers[2].coeffs)]
        assert _clear(t, runs) == {0: Fraction(7, 2), 1: -5, 2: 1}
        assert len(t) == 31 and not any(t)

    def test_offset_zero_changes_the_constant_alone(self):
        # degree 0 is cleared by the run (1,): the other entries stay int
        t = [Fraction(7, 2), 5, -3, 8]
        assert _clear(t, [(0, (1,))]) == {0: Fraction(7, 2)}
        assert t == [0, 5, -3, 8] and all(type(x) is int for x in t[1:])


class TestPhiPolynomial:
    def test_arithmetic(self):
        a = PhiPolynomial({1: 2, 2: 3})
        b = PhiPolynomial({1: -2, 3: 1})
        assert (a + b) == PhiPolynomial({2: 3, 3: 1})
        assert (a * b)[2] == -4
        assert (2 * a)[1] == 4
        assert a.degree == 2
        assert a.constant == 0

    @pytest.mark.parametrize(
        "coeffs",
        [{1: Fraction(1, 2)}, {1: Fraction(2)}, {1: 0.5}, {1: True}, {1.5: 3}, {True: 3}, {1.0: 0}],
        ids=["fraction", "integral-fraction", "float", "bool", "float-degree", "bool-degree",
             "float-degree-zero-coefficient"],
    )
    def test_non_int_input_raises(self, coeffs):
        with pytest.raises(TypeError, match="must be int"):
            PhiPolynomial(coeffs)

    @pytest.mark.parametrize("coeff", [1, 0])
    def test_negative_degree_raises(self, coeff):
        with pytest.raises(ValueError, match="negative degrees"):
            PhiPolynomial({-1: coeff})

    def test_scalar_other_than_int_is_refused(self):
        with pytest.raises(TypeError):
            PhiPolynomial({1: 2}) * Fraction(1, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_evaluate_matches_horner(self, p):
        def horner(poly, series):
            if not poly.coeffs:
                return QSeries.zero(series.prec)
            acc = QSeries.zero(series.prec - series.val)
            for k in range(poly.degree, -1, -1):
                acc = acc * series + poly[k]
            return acc

        ctx = PrimeContext(p)
        rng = random.Random(p)
        polys = [PhiPolynomial(), PhiPolynomial({0: 5}), PhiPolynomial({3: -2})]
        for _ in range(40):
            deg = rng.randint(1, 8)
            coeffs = {k: rng.choice([0, 0, rng.randint(-50, 50)]) for k in range(1, deg + 1)}
            polys.append(PhiPolynomial(coeffs))
            polys.append(PhiPolynomial(coeffs | {0: rng.randint(1, 99)}))
        for n in (24, 37):
            ph = phi(ctx, n)
            for poly in polys:
                got, want = poly.evaluate(ctx, n), horner(poly, ph)
                assert (got.val, got.prec, got.coeffs) == (want.val, want.prec, want.coeffs)

    def test_evaluate_matches_manual(self):
        ph = phi(C2, 20)
        poly = PhiPolynomial({1: 3, 2: -1})
        direct = 3 * ph - ph * ph
        val = poly.evaluate(C2, 20)
        assert all(
            val.coeff(n) == direct.coeff(n) for n in range(1, min(val.prec, direct.prec) + 1)
        )
