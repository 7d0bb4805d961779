import decimal
import math
import operator
import random
import struct
import sys
import types
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
    _ks2_combine,
    _ks2_limb,
    _ks2_pack,
    _ks2_read,
    _ks2_unpack,
    _limb_bits,
    _low_square,
    _school_mul,
    agree,
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


class _Calls(list):
    def __init__(self):
        super().__init__()
        self.packed = []

    def clear(self):
        super().clear()
        self.packed.clear()


def _spy_methods(monkeypatch):
    """The names of the product methods called, in order, and in `packed` the
    coefficient runs packed for the binary radix."""
    calls = _Calls()
    for name in ("_school_mul", "_binary_kronecker", "_decimal_kronecker"):
        method = getattr(qcong.series, name)

        def spy(*args, _name=name, _method=method):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(qcong.series, name, spy)
    pack = qcong.series._ks2_pack

    def counted(coeffs, bits, m):
        calls.packed.append(list(coeffs[:m]))
        return pack(coeffs, bits, m)

    monkeypatch.setattr(qcong.series, "_ks2_pack", counted)
    return calls


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
    # the stored form, numerators over one denominator, and the values as read
    # with their types: equal series agree in both
    return s.ram, s.val, s.prec, s.num, s.den, [(type(c), c) for c in s.coeffs]


def _assert_canonical(s):
    # den >= 1 and in lowest terms with the numerators; a value reads as an
    # int exactly where it is integral
    assert type(s.den) is int and s.den >= 1 and math.gcd(s.den, *s.num) == 1
    assert all(type(x) is int for x in s.num) and (s.is_zero() or s.num[0] != 0)
    assert s.den == 1 or s.num
    for x, c in zip(s.num, s.coeffs):
        assert c == Fraction(x, s.den)
        assert type(c) is (int if x % s.den == 0 else Fraction)


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
        normalize = QSeries._normalize  # every constructor runs it once

        def spy(self, *args, **kwargs):
            built.append(args)
            normalize(self, *args, **kwargs)

        a = series([1, -24, 276, -2048], val=-1)
        b = series([3, 5, 7], val=0)
        monkeypatch.setattr(QSeries, "_normalize", spy)
        a - b
        assert len(built) == 1

    def test_difference_equals_the_multiply_route(self):
        rng = random.Random(11)
        for _ in range(1000):
            a = self._random_series(rng, rng.randint(1, 3))
            b = self._random_series(rng, rng.choice([a.ram, rng.randint(1, 3)]))
            # b * -1 multiplies each coefficient, as the sum did for c = -1
            assert _exact(a - b) == _exact(a + b * -1), (a, b)
            assert _exact(a._plus(-1, b, -1)) == _exact(-a + b * -1), (a, b)

    def test_scalar_adds_into_the_constant_alone(self):
        def dense(a, c, x):  # the constant series as the former route built it
            return a._plus(c, QSeries([x], 0, max(a.prec, 0), a.ram))

        cases = [
            series([1, 2, 3], val=-2),  # the constant lies inside the run
            series([1, 2, 3], val=2, prec=6),  # below the run
            series([1, 2, 3], val=-2, prec=9),  # inside, beyond the stored terms
            series([1, 2], val=-5, prec=-2),  # not known: the scalar is dropped
            series([1, Fraction(1, 3), 3], val=-1, ram=2),
            QSeries.zero(4),
            QSeries.zero(-3),
        ]
        for a in cases:
            for c in (1, -1, 3, Fraction(-1, 2)):
                for x in (0, 5, -1, Fraction(1, 2), Fraction(4)):
                    got, want = a._plus(c, x), dense(a, c, x)
                    # both routes store the one canonical form, so the types
                    # agree for a Fraction c too
                    assert _exact(got) == _exact(want), (a, c, x)
                    _assert_canonical(got)
                    kept = [(n, type(a.coeff(n))) for n in range(got.val, got.prec + 1) if n]
                    assert kept == [(n, type(got.coeff(n))) for n, _ in kept]
            assert _exact(a - 2) == _exact(dense(a, -1, 2)) and _exact(2 - a) == _exact(-a + 2)
        s = series([1, -24, 252, -1472], val=-1)
        half = s + Fraction(1, 2)
        assert half.coeff(0) == Fraction(-47, 2)
        assert [type(c) for c in half.coeffs] == [int, Fraction, int, int]


class TestPrivateConstructor:
    """Results of QSeries's own arithmetic skip the type check of the public
    constructor; each must still be what that constructor builds."""

    @pytest.mark.parametrize("kind", ["int", "laurent", "fraction", "ram2"])
    def test_every_result_is_what_the_public_constructor_builds(self, kind):
        rng = random.Random(kind)

        def make():
            coeffs = [rng.choice([0, rng.randint(-9, 9), rng.randint(-10**30, 10**30)])
                      for _ in range(rng.randint(1, 14))]
            if kind == "fraction":
                coeffs = [Fraction(c, rng.randint(1, 6)) if rng.random() < 0.5 else c
                          for c in coeffs]
            coeffs[0] = coeffs[0] or 1
            val = rng.randint(-4, -1) if kind == "laurent" else rng.randint(0, 3)
            return QSeries(coeffs, val, ram=2 if kind == "ram2" else 1)

        for _ in range(40):
            a, b = make(), make()
            results = [
                a + b, a - b, -a, b - a, a + 3, 3 - a, a - Fraction(1, 2),
                a._plus(Fraction(-2, 3), b), a._plus(-1, b, -1),
                a * b, a * a, a * 5, a * Fraction(2, 3), a * 0, a**3, a**-2,
                a.invert(), a.shift(3), a.shift(-2), a.truncate(a.val + 2),
                a.truncate(a.val - 1), a.dilate(3), a.ramify(2), a + b.ramify(3),
                a * b.ramify(3), (a - a) * b,
            ]
            if a.ram == 1:
                results += [a.u_op(2), a.u_op(3), (a * b).u_op(5)]
            for r in results:
                assert set(map(type, r.coeffs)) <= {int, Fraction}
                assert _exact(r) == _exact(QSeries(r.coeffs, r.val, r.prec, r.ram))
                _assert_canonical(r)

    def test_results_keep_the_precision_check(self):
        with pytest.raises(ValueError, match="prec must be >= val - 1"):
            QSeries._new([1], 0, -2, 1)
        with pytest.raises(ValueError, match="prec must be >= val - 1"):
            series([1, 2], val=0).truncate(-2)

    def test_a_normalized_tuple_is_stored_as_it_is(self):
        s = series([3, 0, 5, 0], val=-1)
        assert s.shift(4).coeffs is s.coeffs
        assert s.truncate(s.prec - 1).coeffs == s.coeffs[:-1]


# A second route for every series operation: a series is (ram, prec, {exponent:
# nonzero Fraction}), and each operation runs on plain Fraction values, term by
# term, with the precision rules written out again.


def _ref(s):
    return s.ram, s.prec, {s.val + i: Fraction(c, s.den) for i, c in enumerate(s.num) if c}


def _ref_val(r):
    return min(r[2], default=r[1] + 1)


def _ref_spread(r, t, ram):
    return ram, (r[1] + 1) * t - 1, {e * t: c for e, c in r[2].items()}


def _ref_aligned(r, s):
    ram = math.lcm(r[0], s[0])
    return _ref_spread(r, ram // r[0], ram), _ref_spread(s, ram // s[0], ram)


def _ref_add(r, s, c=1):
    r, s = _ref_aligned(r, s)
    prec = min(r[1], s[1])
    out = {}
    for e, x in [*r[2].items(), *((e, c * x) for e, x in s[2].items())]:
        if e <= prec:
            out[e] = out.get(e, 0) + x
    return r[0], prec, {e: x for e, x in out.items() if x}


def _ref_scalar(r, c):
    return r[0], max(r[1], 0), {0: Fraction(c)} if c else {}


def _ref_mul(r, s):
    r, s = _ref_aligned(r, s)
    prec = min(r[1] + _ref_val(s), s[1] + _ref_val(r))
    out = {}
    for e, x in r[2].items():
        for f, y in s[2].items():
            if e + f <= prec:
                out[e + f] = out.get(e + f, 0) + x * y
    return r[0], prec, {e: x for e, x in out.items() if x}


def _ref_invert(r):
    v, prec = _ref_val(r), r[1]
    u = [r[2].get(v + i, Fraction(0)) for i in range(prec - v + 1)]
    x = [1 / u[0]]
    for k in range(1, len(u)):
        x.append(-sum(u[i] * x[k - i] for i in range(1, k + 1)) / u[0])
    return r[0], prec - 2 * v, {k - v: c for k, c in enumerate(x) if c}


def _ref_pow(r, k):
    if k < 0:
        return _ref_pow(_ref_invert(r), -k)
    out = r[0], max(r[1] - _ref_val(r), 0), {0: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, r)
    return out


def _ref_shift(r, k):
    return r[0], r[1] + k, {e + k: c for e, c in r[2].items()}


def _ref_truncate(r, prec):
    if prec >= r[1]:
        return r
    return r[0], prec, {e: c for e, c in r[2].items() if e <= prec}


def _ref_u_op(r, p):
    return 1, r[1] // p, {e // p: c for e, c in r[2].items() if e % p == 0}


class TestFractionReference:
    """Every operation and every result against the Fraction-list route above,
    and every result in canonical form."""

    @staticmethod
    def _make(rng, kind):
        coeffs = [rng.choice([0, rng.randint(-9, 9), rng.randint(-10**20, 10**20)])
                  for _ in range(rng.randint(1, 9))]
        if kind == "fraction":
            coeffs = [Fraction(c, rng.randint(1, 12)) if rng.random() < 0.6 else c
                      for c in coeffs]
        coeffs[0] = coeffs[0] or Fraction(rng.randint(1, 9), rng.choice([1, 3]))
        val = rng.randint(-4, -1) if kind == "laurent" else rng.randint(0, 3)
        ram = 2 if kind == "ram2" else 1
        # the reference starts from the coefficients as given, not as stored
        ref = ram, val + len(coeffs) - 1, {val + i: Fraction(c) for i, c in enumerate(coeffs) if c}
        return QSeries(coeffs, val, ram=ram), ref

    @pytest.mark.parametrize("kind", ["int", "laurent", "fraction", "ram2"])
    def test_every_operation_matches_the_reference(self, kind):
        rng = random.Random(f"reference-{kind}")
        for _ in range(30):
            a, ra = self._make(rng, kind)
            b, rb = self._make(rng, rng.choice(["int", "laurent", "fraction", "ram2"]))
            assert (_ref(a), _ref(b)) == (ra, rb)
            cases = [
                (a + b, _ref_add(ra, rb)),
                (a - b, _ref_add(ra, rb, -1)),
                (b - a, _ref_add(rb, ra, -1)),
                (a._plus(Fraction(-2, 3), b), _ref_add(ra, rb, Fraction(-2, 3))),
                (-a, _ref_add(_ref_scalar(ra, 0), ra, -1)),
                (a * b, _ref_mul(ra, rb)),
                (a * b.ramify(3), _ref_mul(ra, _ref_spread(rb, 3, 3 * rb[0]))),
                (a + b.ramify(3), _ref_add(ra, _ref_spread(rb, 3, 3 * rb[0]))),
                (a.invert(), _ref_invert(ra)),
                (a.shift(3), _ref_shift(ra, 3)),
                (a.shift(-2), _ref_shift(ra, -2)),
                (a.truncate(a.val + 2), _ref_truncate(ra, a.val + 2)),
                (a.truncate(a.val - 1), _ref_truncate(ra, a.val - 1)),
                (a.dilate(3), _ref_spread(ra, 3, ra[0])),
                (a.ramify(2), _ref_spread(ra, 2, 2 * ra[0])),
            ]
            cases += [(a**k, _ref_pow(ra, k)) for k in (0, 1, 2, 3, -1, -2)]
            for c in (0, 1, -1, 3, Fraction(-2, 3), Fraction(4), Fraction(5, 2)):
                rc = _ref_scalar(ra, c)
                cases += [
                    (a + c, _ref_add(ra, rc)),
                    (c + a, _ref_add(ra, rc)),
                    (a - c, _ref_add(ra, rc, -1)),
                    (c - a, _ref_add(rc, ra, -1)),
                    (a * c, (ra[0], ra[1], {e: c * x for e, x in ra[2].items() if c})),
                    (c * a, (ra[0], ra[1], {e: c * x for e, x in ra[2].items() if c})),
                ]
            if a.ram == 1:
                cases += [(a.u_op(p), _ref_u_op(ra, p)) for p in (2, 3)]
            if a.ram == b.ram == 1:
                cases.append(((a * b).u_op(2), _ref_u_op(_ref_mul(ra, rb), 2)))
            for got, want in cases:
                assert _ref(got) == want, (a, b)
                assert got.val == _ref_val(want)
                _assert_canonical(got)
                assert got.coeffs == tuple(want[2].get(n, 0) for n in range(got.val, got.prec + 1))
                again = QSeries(got.coeffs, got.val, got.prec, got.ram)
                assert again == got and hash(again) == hash(got)

    def test_equal_series_hash_equal(self):
        pairs = [
            (QSeries([Fraction(3), 1]), QSeries([3, 1])),
            (QSeries([Fraction(1, 2), Fraction(3, 2)]) * 2, QSeries([1, 3])),
            (QSeries([Fraction(1, 6), Fraction(1, 3)]) + Fraction(5, 6),
             QSeries([1, Fraction(1, 3)])),
            (QSeries([Fraction(2, 4), 0], -1), QSeries([Fraction(1, 2), 0], -1)),
            (QSeries([Fraction(1, 3), 1, 5], 0, 0), QSeries([Fraction(1, 3)], 0, 0)),
            (QSeries([Fraction(1, 3)], 0, 2) - QSeries([Fraction(1, 3)], 0, 2), QSeries.zero(2)),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y) and (x.num, x.den) == (y.num, y.den)
            _assert_canonical(x)

    def test_agree_cross_multiplies(self):
        a = QSeries([Fraction(1, 2), 1, Fraction(1, 3)], -1)
        assert agree(a, a.truncate(0)) and agree(a.truncate(0), a)
        longer = QSeries([Fraction(1, 2), 1, Fraction(1, 3), Fraction(1, 5)], -1)
        assert longer.den == 30 and agree(a, longer) and agree(longer, a)
        assert not agree(a, QSeries([Fraction(1, 2), 1, Fraction(1, 4)], -1))
        assert agree(a * 6, QSeries([3, 6, 2], -1)) and not agree(a * 6, QSeries([3, 6, 3], -1))
        assert agree(a, a.ramify(2)) and not agree(a, (a + 1).ramify(2))


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

    def test_operand_shape_chooses_the_method(self, monkeypatch):
        calls = _spy_methods(monkeypatch)

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
        # a dilated operand, X(q^3) with 100 terms, makes one product per
        # residue class of the other operand, and X is packed once for all
        dilated = [0] * 298
        dilated[::3] = [rng.randint(-9, 9) or 1 for _ in range(100)]
        # 64 terms of 25 bits against 64 of 4,096: a schoolbook pair costs
        # a one-digit multiply, Kronecker a 4,130-bit limb per term
        narrow = [rng.randint(-(2**24), 2**24) for _ in range(64)]
        wide = [rng.randint(-(2**4095), 2**4095) for _ in range(64)]
        cases = [
            ((short, long, None), ["_school_mul"]),
            ((long, long, _SCHOOL_CUTOFF), ["_school_mul"]),
            ((short + [1], short[::-1] + [1], None), ["_binary_kronecker"]),
            ((*operands(at_cutoff - 1), None), ["_binary_kronecker"]),
            ((*operands(at_cutoff), None), ["_decimal_kronecker"]),
            ((long[:300], dilated, None), ["_binary_kronecker"] * 3),
            ((narrow, wide, None), ["_school_mul"]),
            ((wide, narrow, None), ["_school_mul"]),
        ]
        assert n * (at_cutoff - 1) < _DECIMAL_CUTOFF <= n * at_cutoff
        for (a, b, length), methods in cases:
            calls.clear()
            product = mul_int_lists(a, b, length)
            assert calls == methods
            assert product == _school_mul(a, b, length)
        calls.clear()
        mul_int_lists(long[:300], dilated)
        assert len(calls.packed) == 4  # three classes of long[:300], X once

    def test_shape_reads_match_schoolbook(self, monkeypatch):
        calls = _spy_methods(monkeypatch)
        rng = random.Random(24)
        seen = set()

        def check(a, b, lengths=()):
            full = _school_mul(a, b)
            for length in {None, 1, len(full) // 3, len(full) - 1, len(full) + 5, *lengths}:
                calls.clear()
                want = full if length is None else (full + [0] * 5)[:length]
                assert mul_int_lists(a, b, length) == want
                assert _kronecker_mul(a, b, length) == want
                seen.update(calls)

        def dilate(x, t):
            out = [0] * (len(x) * t - t + 1)
            out[::t] = x
            return out

        for t in (2, 3, 5, 7):
            for bits in (1, 30, 300):
                x = [rng.randint(-(2**bits), 2**bits) or 1 for _ in range(rng.randint(34, 90))]
                y = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(40, 400))]
                d = dilate(x, t)
                check(d, y)  # on either side
                check(y, d)
                check(d, d)  # a square
                check(d, dilate(y, t))  # both, by the same t: classes r > 0 are zero
                check(d, dilate(y[:60], 2 if t != 2 else 3))  # both, by different t
                check([0, 0] + d + [0, 0, 0], [0] + y)  # leading and trailing zeros
                check([-abs(c) for c in d], [-abs(c) for c in y])  # all negative
        assert seen == {"_school_mul", "_binary_kronecker"}
        # classes of _SCHOOL_CUTOFF and of _SCHOOL_CUTOFF + 1 terms
        for t in (2, 7):
            for m in (_SCHOOL_CUTOFF, _SCHOOL_CUTOFF + 1):
                x = [rng.randint(-99, 99) or 1 for _ in range(m)]
                y = [rng.randint(-99, 99) for _ in range(m * t)]
                calls.clear()
                assert mul_int_lists(dilate(x, t), y, m * t) == _school_mul(dilate(x, t), y, m * t)
                method = "_school_mul" if m == _SCHOOL_CUTOFF else "_binary_kronecker"
                assert calls == [method] * t
        # a class product past _DECIMAL_CUTOFF: 300 terms at a limb of about 810 bits
        x = [rng.randint(-(2**400), 2**400) for _ in range(300)]
        y = [rng.randint(-(2**400), 2**400) for _ in range(600)]
        calls.clear()
        assert mul_int_lists(dilate(x, 2), y) == _school_mul(dilate(x, 2), y)
        assert calls == ["_decimal_kronecker"] * 2
        # narrow-by-wide pairs on both sides of _NARROW_CUTOFF, either way round
        for n, narrow in ((40, 25), (128, 25), (64, 150)):
            a = [rng.randint(-(2**narrow), 2**narrow) for _ in range(n)]
            methods = set()
            for wide in (60, 200, 400, 700, 1100, 1700, 2600):
                b = [rng.randint(-(2**wide), 2**wide) for _ in range(n)]
                for x, y, length in ((a, b, None), (b, a, n), (a + a, b, 2 * n)):
                    calls.clear()
                    assert mul_int_lists(x, y, length) == _school_mul(x, y, length)
                    methods.update(calls)
            assert methods >= {"_school_mul", "_binary_kronecker"}

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
            bits = _limb_bits(x, y, length)[0]
            assert bits < _limb_bits(x, y, len(full))[0] // 2 + 16
            assert 4 * max(map(abs, full[:length])) < 2**bits
            assert max(map(abs, full[length:])) >= 2**bits
            digits = bits * 30103 // 100000 + 1
            assert _binary_kronecker(x, y, bits, length) == full[:length]
            assert _decimal_kronecker(x, y, digits, length) == full[:length]
            assert _kronecker_mul(x, y, length) == full[:length]

    # The binary method evaluates at +2^n and -2^n, n half the limb, and
    # reads the even- and the odd-indexed coefficients from separate sums.

    def _check_binary(self, a, b, length=None):
        want = _school_mul(a, b, length)
        bits = _limb_bits(a, b, len(want))[0]
        assert _binary_kronecker(a, b, bits, length) == want
        assert mul_int_lists(a, b, length) == want
        return want

    def test_two_point_short_kept_lengths_and_squares(self):
        rng = random.Random(20)
        a = [rng.randint(-(2**64), 2**64) for _ in range(50)]
        b = [rng.randint(-(2**64), 2**64) for _ in range(45)]
        for length in (1, 2, 3):
            assert len(self._check_binary(a, b, length)) == length
        for la in (47, 48):
            x = a[:la]
            for length in (la, la + 1, 2 * la - 2, None):
                self._check_binary(x, x, length)

    def test_two_point_with_an_all_zero_half(self):
        # the odd-indexed (or even-indexed) coefficients all zero: that half
        # of the operand packs to 0, and A(2^n) = A(-2^n) (or = -A(-2^n))
        rng = random.Random(21)
        a = [rng.randint(-(2**30), 2**30) for _ in range(61)]
        b = [rng.randint(-(2**30), 2**30) for _ in range(60)]
        evens = [c if i % 2 == 0 else 0 for i, c in enumerate(a)]
        odds = [c if i % 2 else 0 for i, c in enumerate(b)]
        for x, y in [(evens, b), (a, odds), (evens, odds), (odds, odds), (evens, evens)]:
            for length in (None, 60, 61):
                self._check_binary(x, y, length)
        for x in (evens, odds):
            self._check_binary(x, x, 59)

    def test_two_point_at_the_limb_bound(self):
        # every kept coefficient just inside the limb, 2^bits - 4|c_k| <= 16
        # (the limb is whole bytes, so these use all of it), at even and odd
        # k, all negative or alternating in sign
        n = 40
        for bits in (8, 64, 200):
            y = (2 ** (bits - 2) - 1) // 3
            for b in ([-y] * n, [(-1) ** k * y for k in range(n)]):
                for a in ([3], [-3] + [0] * (n - 1)):
                    for length in (n - 1, n):
                        want = _school_mul(a, b, length)
                        assert all(0 < 2**bits - 4 * abs(c) <= 16 for c in want)
                        assert _binary_kronecker(a, b, bits, length) == want
                        assert mul_int_lists(a, b, length) == want

    def test_discarded_coefficient_of_either_parity_may_overflow_the_limb(self):
        # wide top coefficients meet only small ones in the kept range, so
        # the one discarded c_k they make together, at k = 2m - 2 (even) or
        # 2m - 3 (odd), overflows the limb that holds the kept ones; the
        # coefficients from index m on are not read at all
        rng = random.Random(22)
        for m in (40, 41):
            small = [rng.randint(-9, 9) or 1 for _ in range(m)]
            for gap, parity in ((0, 0), (1, 1)):
                a = small[:-1] + [2**200 + 1]
                b = small[:]
                b[m - 1 - gap] = -(2**200) + 3
                full = _school_mul(a, b)
                bits = _limb_bits(a, b, m)[0]
                over = [k for k, c in enumerate(full) if abs(c) >= 2 ** (8 * ((bits + 7) // 8))]
                assert over == [2 * m - 2 - gap] and over[0] % 2 == parity
                assert self._check_binary(a, b, m) == full[:m]
                assert self._check_binary(a + [2**5000], b + [-(2**5000)], m) == full[:m]

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
        assert limbs == [_limb_bits(a[:40], b, 81)[0]] and limbs[0] < 32

    # The binary limbs are two's complement, offset by one XOR of the whole
    # packed value; a limb of at most 64 bits is one 8-byte word.

    @pytest.mark.parametrize("bits", [64, 65])
    def test_packed_round_trip_at_the_limb_bound(self, bits):
        assert _ks2_limb(bits)[0] == (8 if bits == 64 else 9)
        top = 2 ** (bits - 2) - 1  # the largest |c| with 4|c| < 2^bits
        rng = random.Random(bits)
        runs = [[top] * 9, [-top] * 9, [(-1) ** k * top for k in range(9)],
                [-top, 0, 0, top, 0, -1, 1], [0] * 5 + [-top],
                [rng.randint(-top, top) for _ in range(40)]]
        for run in runs:
            for m in {1, 2, len(run) - 1, len(run)}:
                assert _ks2_unpack(*_ks2_pack(run, bits, m), bits, m) == run[:m]

    @pytest.mark.parametrize("bits", [20, 64, 65, 200])
    def test_unpack_reads_past_overflowing_and_negative_values(self, bits):
        # C's coefficients from m on overflow their limbs, either sign, so
        # C(2^n) and C(-2^n) may be negative; the kept ones read back exactly
        n = _ks2_limb(bits)[1]
        top = 2 ** (bits - 2) - 1
        rng = random.Random(bits)
        for m in (1, 6, 7):
            kept = [rng.randint(-top, top) for _ in range(m)]
            for tail in ([-(2 ** (3 * bits))], [2 ** (2 * bits), -(2 ** (5 * bits))],
                         [-top - 1] * 3, []):
                c = kept + tail
                plus = sum(x << (n * k) for k, x in enumerate(c))
                minus = sum((-x if k % 2 else x) << (n * k) for k, x in enumerate(c))
                assert _ks2_unpack(plus, minus, bits, m) == kept
            negative = [-top] * m
            plus = sum(x << (n * k) for k, x in enumerate(negative))
            assert plus < 0
            assert _ks2_unpack(*_ks2_pack(negative, bits, m), bits, m) == negative

    # A limb of two 8-byte words is unpacked by one struct call, its top word
    # signed; a limb of 17, 18, 24 or 32 bytes one int.from_bytes at a time.

    @pytest.mark.parametrize("bits, nbytes", [(128, 16), (136, 17), (144, 18), (192, 24),
                                              (256, 32)])
    def test_wide_round_trip_at_the_limb_bound(self, bits, nbytes, monkeypatch):
        unpacks = []

        def unpack(fmt, raw):
            unpacks.append(fmt)
            return struct.unpack(fmt, raw)

        monkeypatch.setattr(qcong.series, "struct", types.SimpleNamespace(pack=struct.pack,
                                                                          unpack=unpack))
        assert _ks2_limb(bits)[0] == nbytes
        top = 2 ** (bits - 2) - 1  # the largest |c| with 4|c| < 2^bits
        rng = random.Random(bits)
        runs = [[top] * 9, [-top] * 9, [0] * 9, [(-1) ** k * top for k in range(9)],
                [-top, 0, 0, top, 0, -1, 1, 2**64, -(2**64), 2**63, -(2**63) - 1],
                [rng.choice((-top, 0, top, rng.randint(-top, top))) for _ in range(40)]]
        for run in runs:
            for m in {1, 2, len(run) - 1, len(run)}:
                assert _ks2_unpack(*_ks2_pack(run, bits, m), bits, m) == run[:m]
        if nbytes == 16:  # each limb: the low word unsigned, the top one signed
            assert unpacks and all(f == "<" + "Qq" * (len(f) // 2) for f in unpacks)
        else:
            assert unpacks == []

    @pytest.mark.parametrize("modulus", [2**57, 7**20])
    def test_combination_at_the_two_word_limb(self, modulus):
        # the residue family's limb at the benchmark's 781 coefficients, with
        # every residue, multiplier and f_k at modulus - 1: the largest kept
        # coefficients; a zero operand under the same terms gives the most negative
        size, m = 781, 12
        bits = 2 * (modulus - 1).bit_length() + (2 * size).bit_length() + 2
        assert bits <= 128 and _ks2_limb(bits)[0] == 16
        top = [modulus - 1] * size
        packed = _ks2_pack(top, bits, size)
        terms = [(modulus - 1, m - k, packed) for k in range(m - 1, 0, -1)]
        for a in (top, [0] * size):
            pa = _ks2_pack(a, bits, size)
            want = _school_mul(a, a, size)
            for c, shift, _ in terms:
                want[shift:] = [x - c * y for x, y in zip(want[shift:], top)]
            assert _ks2_combine([x * x for x in pa], terms, bits, size) == want

    # The residue family squares only the low bits that the unpack reads: a
    # change of C(+-2^n) by a multiple of 2^_ks2_read moves no read limb.

    def test_low_square_is_the_square_mod_2_to_the_keep(self):
        rng = random.Random(36)
        for keep in (1, 2, 3, 64, 65, 127, 128, 1000, 1001):
            for size in (0, 1, keep // 2, keep - 1, keep, keep + 1, 2 * keep + 3):
                for x in {0, 1, -1, 2**size, -(2**size), 2**size - 1, 1 - 2**size,
                          rng.getrandbits(size), -rng.getrandbits(size)}:
                    assert x.bit_length() <= size + 1
                    assert _low_square(x, keep) % 2**keep == x * x % 2**keep, (x, keep)

    def test_read_bits_bound_the_unpack(self):
        rng = random.Random(37)
        for bits, m in ((20, 7), (64, 6), (127, 9), (128, 8)):
            read = _ks2_read(bits, m)
            top = 2 ** (bits - 2) - 1
            plus, minus = _ks2_pack([rng.randint(-top, top) for _ in range(m)], bits, m)
            kept = _ks2_unpack(plus, minus, bits, m)
            for j, k in ((1, 0), (0, 1), (-3, 5)):
                assert _ks2_unpack(plus + (j << read), minus + (k << read), bits, m) == kept
            # one bit lower reaches a read limb, at either point
            assert _ks2_unpack(plus + (1 << (read - 1)), minus, bits, m) != kept
            assert _ks2_unpack(plus, minus + (1 << (read - 1)), bits, m) != kept

    def test_low_squares_unpack_like_full_squares_at_the_two_word_limb(self):
        # the residue family's polarization, f_i f_j = ((f_i + f_j)^2 - f_i^2 - f_j^2) / 2
        # at each point, from squares kept to _ks2_read + 1 bits (one for the >> 1),
        # at a limb of two 8-byte words; a product of opposite signs makes
        # C(-2^n) negative, and its kept coefficients the widest the limb holds
        size, bits = 781, 128
        assert _ks2_limb(bits)[0] == 16
        keep = _ks2_read(bits, size) + 1
        top = math.isqrt((2 ** (bits - 2) - 1) // size)  # size top^2 < 2^(bits-2)
        rng = random.Random(38)
        runs = [([top] * size, [-top] * size, True),
                ([(-1) ** k * top for k in range(size)], [-top] * size, True),
                ([rng.randint(-top, top) for _ in range(size)],
                 [rng.randint(-top, top) for _ in range(size)], False)]
        for a, b, negative in runs:
            pa, pb = _ks2_pack(a, bits, size), _ks2_pack(b, bits, size)
            full = [(pow(x + y, 2) - x * x - y * y) >> 1 for x, y in zip(pa, pb)]
            low = [(_low_square(x + y, keep) - _low_square(x, keep) - _low_square(y, keep)) >> 1
                   for x, y in zip(pa, pb)]
            assert full == [x * y for x, y in zip(pa, pb)] and low != full
            assert full[1] < 0 or not negative
            assert _ks2_unpack(*low, bits, size) == _ks2_unpack(*full, bits, size)
            assert _ks2_unpack(*full, bits, size) == _school_mul(a, b, size)
            # a kept square is read at one bit fewer
            squares = [_low_square(x, keep - 1) for x in pa]
            assert _ks2_unpack(*squares, bits, size) == _school_mul(a, a, size)

    def test_one_word_squares_classes_and_combinations(self, monkeypatch):
        calls = _spy_methods(monkeypatch)
        rng = random.Random(25)
        # squares at a limb of one word, full and truncated
        a = [rng.randint(-(2**25), 2**25) for _ in range(120)]
        for length in (None, 60, 61, 239):
            bits = _limb_bits(a, a, length or 239)[0]
            assert bits <= 64
            assert _binary_kronecker(a, a, bits, length) == _school_mul(a, a, length)
        # a dilated operand: one class product per residue class, each in words
        x = [rng.randint(-(2**20), 2**20) or 1 for _ in range(60)]
        d = [0] * 178
        d[::3] = x
        y = [rng.randint(-(2**20), 2**20) for _ in range(200)]
        for length in (None, 150):
            calls.clear()
            assert mul_int_lists(d, y, length) == _school_mul(d, y, length)
            assert calls == ["_binary_kronecker"] * 3
            assert _limb_bits(d, y, length or 377)[0] <= 64
        # a product less clearing terms c x^s F, as the residue family forms it
        modulus, size = 2**20, 200
        bits = 2 * (modulus - 1).bit_length() + (2 * size).bit_length() + 2
        assert bits <= 64
        f = [rng.randrange(modulus) for _ in range(size)]
        g = [rng.randrange(modulus) for _ in range(size)]
        pf, pg = _ks2_pack(f, bits, size), _ks2_pack(g, bits, size)
        for b, pb in ((f, pf), (g, pg)):
            terms = [(rng.randrange(modulus), s, pg) for s in (1, 2, 5, 11)]
            want = _school_mul(f, b, size)
            for c, shift, _ in terms:
                want[shift:] = [w - c * v for w, v in zip(want[shift:], g)]
            assert _ks2_combine((pf[0] * pb[0], pf[1] * pb[1]), terms, bits, size) == want

    def test_leading_zeros_are_stripped_for_every_method(self, monkeypatch):
        calls = _spy_methods(monkeypatch)
        seen = []
        for name in ("_school_mul", "_binary_kronecker", "_decimal_kronecker"):
            spied = getattr(qcong.series, name)

            def first(a, b, *args, _spied=spied):
                seen.append((a[0], b[0]))
                return _spied(a, b, *args)

            monkeypatch.setattr(qcong.series, name, first)
        rng = random.Random(26)
        # 20 terms take the schoolbook, 100 of 30 bits the binary radix, and
        # 300 of 400 bits the decimal one
        for n, bits, method in ((20, 30, "_school_mul"), (100, 30, "_binary_kronecker"),
                                (300, 400, "_decimal_kronecker")):
            a = [rng.randint(-(2**bits), 2**bits) or 1 for _ in range(n)]
            b = [rng.randint(-(2**bits), 2**bits) or 1 for _ in range(n)]
            for za, zb in ((3, 0), (0, 5), (3, 5), (40, 40)):
                x, y = [0] * za + a, [0] * zb + b
                full = _school_mul(x, y)
                for length in (None, za + zb, za + zb + 1, len(full) - 7):
                    calls.clear()
                    seen.clear()
                    want = full if length is None else full[:length]
                    assert _kronecker_mul(x, y, length) == want
                    short = {za + zb: [], za + zb + 1: ["_school_mul"]}  # 0 or 1 kept
                    assert calls == short.get(length, [method])
                    assert all(p and q for p, q in seen)
                calls.clear()
                assert _kronecker_mul(x, x, None) == _school_mul(x, x)
                assert calls == [method] and all(p and q for p, q in seen)

    def test_invert_packs_only_the_nonzero_run(self, monkeypatch):
        # Newton's correction X (U X - s) at step t -> 2t: U X - s starts at
        # q^t, and only its t nonzero terms are packed
        calls = _spy_methods(monkeypatch)
        rng = random.Random(27)
        u = QSeries([1] + [rng.randint(-99, 99) for _ in range(127)])
        inverse = u.invert()
        assert (u * inverse).num == (1,) + (0,) * 127
        assert calls.packed and all(run[0] for run in calls.packed)
        # the last step, t = 64: U X packs U and X, the correction X and the run
        assert sorted(map(len, calls.packed[-4:])) == [64, 64, 64, 128]

    def test_truncated_rational_product(self):
        # polynomials known to q^(length-1): their product is known there too
        rng = random.Random(19)
        a = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(50)]
        b = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(40)]
        for x, y in [(a, b), (a, a), ([2, 4, 6], [Fraction(1, 2)] * 45)]:
            full = _school_mul(x, y)
            for length in (1, 30, len(full), len(full) + 2):
                sx, sy = QSeries(x, 0, length - 1), QSeries(y, 0, length - 1)
                got = sx * sx if y is x else sx * sy
                assert [got.coeff(n) for n in range(length)] == (full + [0, 0])[:length]
                _assert_canonical(got)

    def test_int_operands_reach_the_kernel_as_they_are(self, monkeypatch):
        seen = []
        kernel = qcong.series.mul_int_lists

        def spy(a, b, length=None):
            seen.append((a, b))
            return kernel(a, b, length)

        monkeypatch.setattr(qcong.series, "mul_int_lists", spy)
        a, b = tuple(range(-20, 30)), tuple(range(7, 47))
        sa, sb = QSeries(a, 0, 88), QSeries(b, 0, 88)  # polynomials known to q^88
        assert (sa * sb).coeffs == tuple(_school_mul(a, b))
        assert (sa * sa).truncate(59).coeffs == tuple(_school_mul(a, a)[:60])
        assert seen[0][0] is sa.num and seen[0][1] is sb.num
        assert seen[1][0] is seen[1][1] is sa.num
        # a rational operand reaches it as its int numerators
        third = sa * Fraction(1, 3)
        assert (third * sb).coeffs == tuple(Fraction(c, 3) for c in _school_mul(a, b))
        assert seen[2][0] is third.num and all(type(c) is int for c in third.num)

    def test_int_mixed_and_integral_fraction_operands(self):
        rng = random.Random(23)
        ints = [rng.randint(-10**20, 10**20) for _ in range(50)]
        other = [rng.choice([0, rng.randint(-99, 99)]) for _ in range(40)]
        full = _school_mul(ints, other)
        square = _school_mul(ints, ints)
        for x in (ints, [Fraction(c) for c in ints], [Fraction(c) if i % 3 else c
                                                      for i, c in enumerate(ints)]):
            for y in (other, [Fraction(c) for c in other]):
                for length in (1, 30, len(full), len(full) + 2):
                    got = QSeries(x, 0, length - 1) * QSeries(y, 0, length - 1)
                    assert got.den == 1 and got == QSeries(full[:length], 0, length - 1)
                    assert all(type(c) is int for c in got.coeffs)
            sx = QSeries(x, 0, 69)
            got = sx * sx
            assert got == QSeries(square[:70], 0, 69) and all(type(c) is int for c in got.coeffs)

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

    POW_BASES = {
        "int": series([3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]),
        "laurent": series([1, 7, 0, -2, 11, 5, -3, 0, 1, 4], val=-3),
        "fraction": series([Fraction(2, 3), Fraction(-1, 4), 5, Fraction(7, 9), 0, Fraction(1, 2)]),
        "ram2": series([-2, 1, 0, 3, -1, 6, 2], val=1, ram=2),
    }

    @pytest.mark.parametrize("name", POW_BASES)
    def test_matches_repeated_multiplication(self, name):
        a = self.POW_BASES[name]
        # a^0 is the unit: a * a^0 is a
        assert a * a**0 == a
        product = a
        for k in range(1, 26):
            assert a**k == product, k  # val, prec, ram and every coefficient
            product = product * a

    def test_negative_power_inverts_once(self, monkeypatch):
        a = series([1, -3, 2, 5, -1], val=-2, prec=10)
        calls = []
        invert = QSeries.invert
        monkeypatch.setattr(QSeries, "invert", lambda s: calls.append(s) or invert(s))
        for k in (1, 2, 7):
            calls.clear()
            assert a**-k == invert(a) ** k
            assert calls == [a]


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

    def test_two_adic_bit_path_matches_the_division_loop(self):
        def loop(n):
            v = 0
            while n % 2 == 0:
                n //= 2
                v += 1
            return v

        rng = random.Random(12)
        for k in range(201):
            odd = 2 * rng.randrange(2**rng.randrange(1, 300)) + 1
            for n in (odd << k, -(odd << k)):
                assert val_p(n, 2) == loop(n) == k
                den = 3 << rng.randrange(60)
                assert val_p(Fraction(n, den), 2) == loop(n) - loop(den)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_long_runs_match_the_division_loop(self, p):
        def loop(n):
            v = 0
            while n % p == 0:
                n //= p
                v += 1
            return v

        rng = random.Random(p)
        for k in range(301):
            unit = p * rng.randrange(2 ** rng.randrange(1, 600)) + rng.randrange(1, p)
            for n in (unit * p**k, -unit * p**k):
                assert qcong.series._val_p_int(n, p) == loop(n) == k
                j = rng.randrange(301)
                den = p**j * (p * rng.randrange(2**40) + 1)
                assert val_p(Fraction(n, den), p) == loop(n) - loop(den) == k - j

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_p_below_two_raises(self, p):
        # unchecked, p = 1 never returns, p = 0 divides by zero, p = -2 reads as 2
        for x in (12, Fraction(12, 5), 0):
            with pytest.raises(ValueError, match="p >= 2"):
                val_p(x, p)

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

    def test_a_value_reads_as_int_exactly_where_integral(self):
        # stored as numerators over one denominator, cleared once on the way in
        s = QSeries([Fraction(1, 2), 3, Fraction(4)])
        assert (s.num, s.den) == ((1, 6, 8), 2)
        assert [type(c) for c in s.coeffs] == [Fraction, int, int]
        assert s.coeffs == (Fraction(1, 2), 3, 4) and s.coeff(2) == 4
        t = QSeries([Fraction(3), 1])
        assert (t.num, t.den) == ((3, 1), 1) and t.coeffs is t.num
        assert t == QSeries([3, 1]) and hash(t) == hash(QSeries([3, 1]))

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

    def test_bool_is_no_scalar_in_either_order(self):
        # one exact-type rule for sums and products, as for coefficients
        a = series([1, 2])
        for op in (operator.add, operator.sub, operator.mul):
            for flag in (True, False):
                with pytest.raises(TypeError):
                    op(a, flag)
                with pytest.raises(TypeError):
                    op(flag, a)


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

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "asdict"])
    def test_copies_are_equal_and_immutable(self, how):
        import copy
        import dataclasses
        import pickle

        from qcong.basis import basis_element

        element = basis_element(PrimeContext(3), 2, 12)
        laurent = series([Fraction(1, 3), 2, Fraction(-5, 7)], val=-2, ram=2)
        remake = {
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
            "pickle": lambda s: pickle.loads(pickle.dumps(s)),
            "asdict": lambda s: dataclasses.asdict(dataclasses.replace(element, series=s))["series"],
        }[how]
        for a in (series([1, 2], val=-1), laurent, QSeries.zero(4), element.series):
            b = remake(a)
            assert b == a and hash(b) == hash(a)
            assert (b.ram, b.val, b.prec, b.num, b.den) == (a.ram, a.val, a.prec, a.num, a.den)
            with pytest.raises(AttributeError, match="immutable"):
                b.val = 0

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
