import decimal
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from qcong.basis import basis_family
from qcong.congruence import j_series
from qcong.eta import euler_product, phi, psi
from qcong.hecke import derive_bj
from qcong.primes import PrimeContext
import qcong.series
from qcong.series import (
    _DECIMAL_CUTOFF,
    _SCHOOL_CUTOFF,
    NotInvertibleError,
    PrecisionError,
    QSeries,
    _binary_kronecker,
    _decimal_kronecker,
    _kronecker_mul,
    _limb_bits,
    _school_mul,
    agree,
    mul_frac_lists,
    mul_int_lists,
    val_p,
)


def _limb_digits(a, b):
    # the fewest decimal digits k with 2|c| < 10^k for every product coefficient
    # (no str(): it is subject to the int/str digit limit)
    twice = 2 * min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    digits = (twice.bit_length() - 1) * 3 // 10
    while 10**digits <= twice:
        digits += 1
    return digits


def series(coeffs, val=0, prec=None, ram=1):
    return QSeries(coeffs, val, prec, ram)


def rand_series(rng, terms=12, val_range=(-4, 4), rational=False, ram=1):
    val = rng.randint(*val_range)
    coeffs = []
    for _ in range(terms):
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9) if rational else 1
        coeffs.append(Fraction(num, den))
    return QSeries(coeffs, val, ram=ram)


class TestAdd:
    def test_cancellation(self):
        a = series([1, -24], val=-1, prec=5)
        b = series([24, 1], val=0)
        c = a + b
        assert c.coeff(-1) == 1
        assert c.coeff(0) == 0
        assert c.coeff(1) == 1

    def test_identity(self):
        a = series([3, 1, 4], val=-1)
        z = QSeries.zero(1)
        assert a + z == a.truncate(1)

    def test_inverse_gives_zero(self):
        a = series([1, -24, 276], val=-1)
        assert (a + (-a)).is_zero()

    def test_prec_is_min(self):
        a = series([1, 2, 3], val=0)  # prec 2
        b = series([1, 1], val=0)  # prec 1
        assert (a + b).prec == 1


def _loop_add(a, b):
    """a + b in the former loop form, kept as the reference for the one-pass sum."""
    if isinstance(b, (int, Fraction)):
        if b == 0:
            return a
        b = QSeries([b], 0, max(a.prec, 0), a.ram)
    a, b = a._aligned(b)
    prec = min(a.prec, b.prec)
    if a.is_zero() and b.is_zero():
        return QSeries.zero(prec, a.ram)
    val = min(a.val, b.val, prec + 1)
    out = [0] * (prec - val + 1)
    for s in (a, b):
        for i, c in enumerate(s.coeffs):
            e = s.val + i
            if e > prec:
                break
            out[e - val] += c
    return QSeries(out, val, prec, a.ram)


def _loop_neg(a):
    return QSeries([-c for c in a.coeffs], a.val, a.prec, a.ram)


def _loop_u_op(a, p):
    """U_p in the former per-exponent form."""
    prec = a.prec // p
    lo = -((-a.val) // p)
    if lo > prec:
        return QSeries.zero(prec)
    out = [0] * (prec - lo + 1)
    for e in range(lo * p, a.prec + 1, p):
        out[e // p - lo] = a.coeff(e)
    return QSeries(out, lo, prec)


def _exact(s):
    # equality that also tells int from Fraction
    return s.ram, s.val, s.prec, [(type(c), c) for c in s.coeffs]


class TestOnePassSum:
    def _random_series(self, rng, ram):
        coeffs = [
            rng.choice([0, rng.randint(-9, 9), rng.randint(-10**30, 10**30),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
            for _ in range(rng.choice([0, rng.randint(1, 10)]))
        ]
        val = rng.randint(-6, 6)
        # prec from val - 1 (zero to precision) up, so below the valuation too
        return QSeries(coeffs, val, val + rng.randint(-1, 12), ram)

    def test_matches_the_loop_forms(self):
        rng = random.Random(10)
        for _ in range(2000):
            a = self._random_series(rng, rng.randint(1, 3))
            b = self._random_series(rng, rng.choice([a.ram, rng.randint(1, 3)]))
            c = rng.choice([0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
            cases = [
                (a + b, _loop_add(a, b)),
                (a - b, _loop_add(a, _loop_neg(b))),
                (a + c, _loop_add(a, c)),
                (a - c, _loop_add(a, -c)),
                (c + a, _loop_add(a, c)),
                (c - a, _loop_add(_loop_neg(a), c)),
            ]
            if a.ram == 1:
                p = rng.randint(2, 7)
                cases.append((a.u_op(p), _loop_u_op(a, p)))
            for got, want in cases:
                assert _exact(got) == _exact(want), (a, b, c)

    def test_difference_builds_one_series(self, monkeypatch):
        built = []
        init = QSeries.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        a = series([1, -24, 276, -2048], val=-1)
        b = series([3, 5, 7], val=0)
        monkeypatch.setattr(QSeries, "__init__", spy)
        a - b
        assert len(built) == 1


class TestMul:
    def test_shift_by_q(self):
        a = series([1, -24], val=-1)
        q = series([1], val=1, prec=10)
        c = a * q
        assert c.val == 0
        assert c.coeff(0) == 1 and c.coeff(1) == -24

    def test_identity(self):
        a = series([2, 0, 5], val=-2)
        one = QSeries.one(10)
        assert agree(a * one, a)
        assert (a * one).prec == a.prec  # min(prec_a + 0, 10 + val_a) = prec_a

    def test_prec_rule(self):
        a = series([1, 1], val=-1)  # prec 0
        b = series([1, 1, 1], val=2)  # prec 4
        c = a * b
        assert c.val == 1
        assert c.prec == min(0 + 2, 4 + (-1))

    def test_against_schoolbook_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rand_series(rng, rational=True)
            b = rand_series(rng, rational=True)
            c = a * b
            for n in range(c.val, c.prec + 1):
                ref = sum(
                    a.coeff(i) * b.coeff(n - i)
                    for i in range(a.val, n - b.val + 1)
                )
                assert c.coeff(n) == ref


class TestKroneckerKernel:
    def test_matches_naive_convolution(self):
        rng = random.Random(11)
        for _ in range(30):
            la = rng.randint(1, 120)
            lb = rng.randint(1, 120)
            bits = rng.choice([4, 30, 200])
            a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
            b = [rng.randint(-(2**bits), 2**bits) for _ in range(lb)]
            ref = [0] * (la + lb - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    ref[i + j] += x * y
            assert mul_int_lists(a, b) == ref

    def test_decimal_radix_matches_schoolbook(self):
        rng = random.Random(12)
        shapes = [(1, 40), (40, 1), (1, 1), (7, 93), (93, 7), (64, 65)]
        for la, lb in shapes * 4:
            bits = rng.choice([1, 8, 64, 300])
            a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
            b = [rng.randint(-(2**bits), 2**bits) for _ in range(lb)]
            a[-1] = a[-1] or 1
            b[0] = b[0] or -1
            cases = [
                (a, b),
                ([-abs(c) for c in a], [-abs(c) for c in b]),  # all negative
                ([0, 0] + a + [0, 0, 0], [0] + b),  # low and high zeros
                (a, [0] * lb + [-1]),  # a single negative top coefficient
            ]
            for x, y in cases:
                assert _decimal_kronecker(x, y, _limb_digits(x, y)) == _school_mul(x, y)

    def test_decimal_radix_at_the_limb_bound(self):
        # every product coefficient as close to 10^digits / 2 as the limb allows
        for digits, n in [(3, 1), (3, 5), (20, 17), (151, 64)]:
            top = math.isqrt((10**digits // 2 - 1) // n)
            for a, b in [
                ([top] * n, [top] * n),
                ([-top] * n, [top] * n),
                ([top, -top] * n, [-top, top] * n),
                ([top, -top] * n, [top, -top] * n),
            ]:
                a, b = a[:n], b[:n]
                assert 2 * max(map(abs, _school_mul(a, b))) < 10**digits
                assert _decimal_kronecker(a, b, digits) == _school_mul(a, b)

    def test_large_product_through_the_dispatcher(self):
        rng = random.Random(13)
        a = [rng.randint(-(2**400), 2**400) for _ in range(300)]
        b = [rng.randint(-(2**400), 2**400) for _ in range(310)]
        assert 300 * 800 > _DECIMAL_CUTOFF
        assert mul_int_lists(a, b) == _school_mul(a, b)
        assert mul_int_lists(a, b, 400) == _school_mul(a, b)[:400]

    def test_ignores_the_thread_local_decimal_context(self):
        rng = random.Random(14)
        a = [rng.randint(-(2**400), 2**400) for _ in range(300)]
        b = [rng.randint(-(2**400), 2**400) for _ in range(300)]
        ref = _school_mul(a, b)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            assert _decimal_kronecker(a, b, _limb_digits(a, b)) == ref
            assert mul_int_lists(a, b) == ref

    def test_operand_sizes_alone_choose_the_method(self, monkeypatch):
        calls = []
        for name in ("_school_mul", "_binary_kronecker", "_decimal_kronecker"):
            method = getattr(qcong.series, name)

            def spy(*args, _name=name, _method=method):
                calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(qcong.series, name, spy)

        rng = random.Random(16)
        n = 100  # n * n > _SCHOOL_CUTOFF
        # the kernel's limb is bit_length(max|a|) + bit_length(max|b|) + bit_length(n) + 2 bits
        at_cutoff = -(-_DECIMAL_CUTOFF // n)

        def operands(limb_bits):
            bits_a = (limb_bits - n.bit_length() - 2) // 2
            bits_b = limb_bits - n.bit_length() - 2 - bits_a
            a = [rng.randint(-(2**bits_a) + 1, 2**bits_a - 1) for _ in range(n)]
            b = [rng.randint(-(2**bits_b) + 1, 2**bits_b - 1) for _ in range(n)]
            a[0], b[0] = 2**bits_a - 1, -(2**bits_b) + 1
            return a, b

        # schoolbook while the shorter operand, or the kept length, has at
        # most _SCHOOL_CUTOFF coefficients, however long the other is
        short = [rng.randint(-9, 9) for _ in range(_SCHOOL_CUTOFF)]
        long = [rng.randint(-9, 9) for _ in range(4096)]
        cases = [
            ((short, long, None), "_school_mul"),
            ((long, long, _SCHOOL_CUTOFF), "_school_mul"),
            ((short + [1], short[::-1] + [1], None), "_binary_kronecker"),
            ((*operands(at_cutoff - 1), None), "_binary_kronecker"),
            ((*operands(at_cutoff), None), "_decimal_kronecker"),
        ]
        assert n * (at_cutoff - 1) < _DECIMAL_CUTOFF <= n * at_cutoff
        for (a, b, length), method in cases:
            calls.clear()
            product = mul_int_lists(a, b, length)
            assert calls == [method]
            assert product == _school_mul(a, b, length)

    def test_truncated_product_by_each_method(self):
        # coefficients 0..length-1 of the product, for lengths below, at and
        # above the full one; the two radices get a limb for the full product
        rng = random.Random(17)
        cases = []
        for _ in range(12):
            la, lb = rng.randint(1, 70), rng.randint(1, 70)
            bits = rng.choice([1, 8, 64, 300])
            a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
            b = [rng.randint(-(2**bits), 2**bits) for _ in range(lb)]
            a[-1] = a[-1] or 1
            b[0] = b[0] or -1
            cases += [
                (a, b),
                ([-abs(c) for c in a], [-abs(c) for c in b]),  # all negative
                ([0, 0] + a + [0, 0, 0], [0] + b),  # low and high zeros
                (a, [0] * lb),  # an all-zero operand, as invert's err can be
                (a, a),  # a square, passed as one list
            ]
        for a, b in cases:
            full = _school_mul(a, b)
            digits = _limb_digits(a, b if any(b) else [1])
            lengths = {1, len(a), len(full) - 1, len(full), len(full) + 3}
            for length in lengths | {rng.randint(1, len(full))}:
                want = (full + [0] * 3)[:length]
                assert _school_mul(a, b, length) == want
                assert _binary_kronecker(a, b, 4 * digits, length) == want
                assert _decimal_kronecker(a, b, digits, length) == want
                assert _kronecker_mul(a, b, length) == want
                assert mul_int_lists(a, b, length) == want

    def test_discarded_coefficients_may_overflow_the_limb(self):
        # small low coefficients and huge top ones: the kept coefficients fit
        # a limb about half as wide as the full product's, and the discarded
        # ones, up to 2^4000, overflow it
        rng = random.Random(18)
        n = 60
        a = [rng.randint(-9, 9) for _ in range(n)] + [2**2000]
        b = [rng.randint(-9, 9) for _ in range(n)] + [-(2**2000) + 1]
        for x, y in [(a, b), (a, a)]:
            full = _school_mul(x, y)
            length = n + 1
            bits = _limb_bits(x, y, length)
            assert bits < _limb_bits(x, y, len(full)) // 2 + 16
            assert 4 * max(map(abs, full[:length])) < 2**bits
            assert max(map(abs, full[length:])) >= 2**bits
            digits = bits * 30103 // 100000 + 1
            assert _binary_kronecker(x, y, bits, length) == full[:length]
            assert _decimal_kronecker(x, y, digits, length) == full[:length]
            assert _kronecker_mul(x, y, length) == full[:length]

    def test_coefficients_reaching_no_kept_one_are_not_packed(self, monkeypatch):
        # 2^5000 sits below the kept length, but meets only zeros of b there
        limbs = []
        binary = qcong.series._binary_kronecker

        def spy(a, b, bits, length=None):
            limbs.append(bits)
            return binary(a, b, bits, length)

        monkeypatch.setattr(qcong.series, "_binary_kronecker", spy)
        a = [3] * 40 + [2**5000] + [1] * 40
        b = [0] * 41 + [5] * 40
        assert _kronecker_mul(a, b, 81) == _school_mul(a, b)[:81]
        assert limbs == [_limb_bits(a[:40], b, 81)] and limbs[0] < 32

    def test_truncated_rational_product(self):
        rng = random.Random(19)
        a = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(50)]
        b = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(40)]
        for x, y in [(a, b), (a, a), ([2, 4, 6], [Fraction(1, 2)] * 45)]:
            full = _school_mul(x, y)
            for length in (1, 30, len(full), len(full) + 2):
                assert mul_frac_lists(x, y, length) == (full + [0, 0])[:length]

    def test_square_reaches_the_kernel_as_one_list(self, monkeypatch):
        seen = []
        kernel = qcong.series.mul_int_lists

        def spy(a, b, length=None):
            seen.append(a is b)
            return kernel(a, b, length)

        monkeypatch.setattr(qcong.series, "mul_int_lists", spy)
        s = series([1, -24, 252, -1472, 4830], val=-1)
        t = series([1, 2, 3, 4, 5], val=-1)
        assert s * s == s**2
        assert s * t == t * s
        assert seen == [True, True, False, False]

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
    )
    @pytest.mark.parametrize("limit", [None, 640])
    def test_limb_wider_than_the_int_str_digit_limit(self, limit):
        old = sys.get_int_max_str_digits()
        try:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
            width = sys.get_int_max_str_digits() or 4300
            # coefficients of about width/0.6 bits need limbs of over `width` digits
            bits = width * 5 // 3
            rng = random.Random(15)
            n = _DECIMAL_CUTOFF // (2 * bits) + 1
            a = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
            b = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
            assert _limb_digits(a, b) > width
            assert mul_int_lists(a, b) == _school_mul(a, b)
        finally:
            sys.set_int_max_str_digits(old)


class TestInvert:
    def test_geometric(self):
        a = series([1, -1], val=0, prec=8)
        b = a.invert()
        assert [b.coeff(n) for n in range(0, 9)] == [1] * 9

    def test_valuation_negated(self):
        a = series([2, 1], val=-3, prec=-2)
        b = a.invert()
        assert b.val == 3

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            QSeries.zero(5).invert()

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rand_series(rng, rational=True)
            if a.is_zero():
                continue
            prod = a * a.invert()
            assert prod.coeff(0) == 1
            assert all(prod.coeff(n) == 0 for n in range(1, prod.prec + 1))


class TestPow:
    def test_power_zero(self):
        a = series([1, 5], val=-1)
        assert (a**0).coeff(0) == 1

    def test_binomial(self):
        a = series([1, 1], val=0, prec=5)
        c = a**3
        assert [c.coeff(n) for n in range(0, 4)] == [1, 3, 3, 1]

    def test_negative_power(self):
        a = series([1, -1], val=0, prec=6)
        c = a**-2
        # 1/(1-q)^2 = sum (n+1) q^n
        assert [c.coeff(n) for n in range(0, 5)] == [1, 2, 3, 4, 5]


class TestDilateRamify:
    def test_dilate(self):
        a = series([1, 0, 1], val=-1)  # q^-1 + q
        c = a.dilate(2)
        assert c.coeff(-2) == 1 and c.coeff(2) == 1 and c.coeff(0) == 0

    def test_dilate_identity(self):
        a = series([1, 2, 3], val=0)
        assert a.dilate(1) == a

    def test_ramify_round_trip(self):
        a = series([1, 2], val=1)  # q + 2q^2
        w = a.ramify(2)
        assert w.ram == 2
        assert w.coeff(2) == 1 and w.coeff(4) == 2 and w.coeff(3) == 0

    def test_cross_ram_addition(self):
        a = series([1], val=1)  # q
        b = series([1], val=1, prec=4, ram=2)  # w = q^(1/2)
        c = a + b
        assert c.ram == 2
        assert c.coeff(1) == 1 and c.coeff(2) == 1


class TestUOp:
    def test_index_filter(self):
        a = series([1, 0, 0, 3, 0, 0, 1], val=-2)  # q^-2 + 3q + q^4
        c = a.u_op(2)
        assert c.coeff(-1) == 1 and c.coeff(2) == 1 and c.coeff(0) == 0
        assert c.prec == 2

    def test_kills_single_term(self):
        a = series([1], val=1, prec=10)
        for p in (2, 3, 5, 7):
            assert a.u_op(p).is_zero()

    def test_rejects_ramified(self):
        a = series([1], val=1, ram=2)
        with pytest.raises(ValueError):
            a.u_op(2)

    def test_u_after_dilate_is_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rand_series(rng)
            p = rng.choice([2, 3, 5, 7])
            back = a.dilate(p).u_op(p)
            assert back.val == a.val or (a.is_zero() and back.is_zero())
            assert back.prec == a.prec
            assert all(back.coeff(n) == a.coeff(n) for n in range(a.val, a.prec + 1))


class TestValP:
    def test_powers_of_two(self):
        assert val_p(-2048, 2) == 11
        assert val_p(10745856, 2) == 11
        big = 2**41 * 11**900  # about 3,150 bits
        assert val_p(big, 2) == val_p(-big, 2) == val_p(Fraction(-big, 3**500), 2) == 41

    def test_zero_is_infinite(self):
        for p in (2, 3, 5, 7):
            assert val_p(0, p) == math.inf

    def test_rational(self):
        assert val_p(Fraction(8, 6), 2) == 2
        assert val_p(Fraction(1, 9), 3) == -2

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(200):
            x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
            p = rng.choice([2, 3, 5, 7])
            assert val_p(x * y, p) == val_p(x, p) + val_p(y, p)


class TestRingAxioms:
    def test_axioms(self):
        rng = random.Random(1)
        for _ in range(200):
            a = rand_series(rng, rational=True)
            b = rand_series(rng, rational=True)
            c = rand_series(rng, rational=True)
            assert agree((a + b) + c, a + (b + c))
            assert agree(a * b, b * a)
            assert agree(a * (b + c), a * b + a * c)


class TestPrecisionHonesty:
    def test_refinement_monotonicity(self):
        rng = random.Random(2)
        for _ in range(200):
            stream_a = [Fraction(rng.randint(-9, 9)) for _ in range(24)]
            stream_b = [Fraction(rng.randint(-9, 9)) for _ in range(24)]
            va, vb = rng.randint(-3, 3), rng.randint(-3, 3)
            a_lo = QSeries(stream_a[:12], va)
            a_hi = QSeries(stream_a, va)
            b_lo = QSeries(stream_b[:12], vb)
            b_hi = QSeries(stream_b, vb)
            for op in (
                lambda x, y: x + y,
                lambda x, y: x * y,
                lambda x, y: x.u_op(2),
                lambda x, y: x.dilate(3),
            ):
                lo, hi = op(a_lo, b_lo), op(a_hi, b_hi)
                assert all(lo.coeff(n) == hi.coeff(n) for n in range(lo.val, lo.prec + 1))
            if not a_lo.is_zero() and a_lo.coeff(a_lo.val) != 0:
                lo, hi = a_lo.invert(), a_hi.invert()
                assert all(lo.coeff(n) == hi.coeff(n) for n in range(lo.val, lo.prec + 1))


class TestCoefficientTypes:
    """Integral values stay int; Fraction only where a denominator arises."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_integral_objects_have_int_coefficients(self, p):
        ctx = PrimeContext(p)
        objects = [psi(ctx, 64), phi(ctx, 64), euler_product(64), j_series(64)]
        objects += [e.series for e in basis_family(ctx, 6, 64)]
        for s in objects:
            assert all(type(c) is int for c in s.coeffs)
        assert all(type(b) is int for b in derive_bj(ctx).b)

    def test_denominators_give_fractions_not_floats(self):
        inv = QSeries([2, 1]).invert()
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4))
        assert all(type(c) is Fraction for c in inv.coeffs)

    def test_int_and_fraction_are_kept_as_given(self):
        s = QSeries([Fraction(1, 2), 3, Fraction(4)])
        assert [type(c) for c in s.coeffs] == [Fraction, int, Fraction]

    @pytest.mark.parametrize(
        "coeffs", [[0.5], [True], [1, 2.0], [decimal.Decimal(1)], [1, 1j]],
        ids=["float", "bool", "float-after-int", "decimal", "complex"],
    )
    def test_inexact_input_raises(self, coeffs):
        with pytest.raises(TypeError, match="int or Fraction"):
            QSeries(coeffs)

    def test_scalars_other_than_int_or_fraction_are_refused(self):
        a = series([1, 2], val=-1)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, 0.5)
        with pytest.raises(TypeError):
            a / 2


def test_coeff_beyond_precision_raises():
    a = series([1, 2], val=0)
    with pytest.raises(PrecisionError):
        a.coeff(5)


class TestInputChecks:
    """Each check on a caller's input rejects it through the public API."""

    def test_series_are_immutable(self):
        a = series([1, 2], val=-1)
        for name, value in [("val", 0), ("prec", 9), ("coeffs", (5,)), ("other", 1)]:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(a, name, value)
        assert a == series([1, 2], val=-1)

    @pytest.mark.parametrize("t", [0, -2])
    def test_dilate_factor_below_one(self, t):
        with pytest.raises(ValueError, match="dilation factor"):
            series([1, 2], val=-1).dilate(t)

    @pytest.mark.parametrize("e", [0, -2])
    def test_ramification_factor_below_one(self, e):
        with pytest.raises(ValueError, match="ramification factor"):
            series([1, 2], val=-1).ramify(e)

    @pytest.mark.parametrize("ram", [0, -1])
    def test_ramification_index_below_one(self, ram):
        with pytest.raises(ValueError, match="ramification index"):
            QSeries([1], ram=ram)

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_u_op_below_two(self, p):
        with pytest.raises(ValueError, match="p >= 2"):
            series([1, 0, 3], val=-1).u_op(p)


def test_zero_representation():
    z = QSeries.zero(7)
    assert z.is_zero()
    assert z.prec == 7
    assert z.coeff(7) == 0


class TestTruncate:
    def test_keeps_the_known_prefix(self):
        a = series([3, 0, 4, 1, 5], val=-2)  # prec 2
        assert a.truncate(0) == series([3, 0, 4], val=-2)
        assert a.truncate(2) is a and a.truncate(9) is a

    def test_just_below_the_valuation_is_zero(self):
        a = series([3, 1, 4], val=-2)
        z = a.truncate(-3)
        assert z.is_zero() and z.prec == -3 and z == QSeries.zero(-3)

    def test_at_the_valuation_keeps_one_coefficient(self):
        a = series([3, 1, 4], val=-2)
        assert a.truncate(-2).coeffs == (3,)
        assert a.truncate(-2) == series([3], val=-2)

    def test_further_below_the_valuation_raises(self):
        a = series([3, 1, 4], val=-2)
        with pytest.raises(ValueError):
            a.truncate(-4)
