"""Exact truncated Laurent/Puiseux series over the rationals.

A series is stored as a dense coefficient run from its valuation ``val`` to
its precision bound ``prec`` (both inclusive, in ``w``-units where
``w^ram = q``).  All arithmetic is exact; precision is propagated
pessimistically so that an operation never emits a coefficient its inputs do
not determine.

Coefficients are exact: Python ints wherever the values are integral, and
``fractions.Fraction`` only where a denominator arises (an inversion, or a
non-integral input).  Both expose ``numerator``/``denominator`` and print and
hash alike, so no code path needs to tell them apart.  Any other coefficient
type (float, bool, Decimal, ...) raises ``TypeError``.

Multiplication clears denominators and runs a truncated integer
convolution: it returns only the coefficients that the product's precision
determines, by one of three methods chosen from the operand sizes:

- schoolbook, for short products, over the pairs that reach a kept
  coefficient;
- binary Kronecker substitution, for longer products of moderate size: pack
  the coefficients into byte limbs of one big integer, multiply (CPython's
  Karatsuba), unpack the kept limbs;
- decimal Kronecker substitution, once the packed operand is large: limbs of
  10^k packed into ``decimal.Decimal`` values, whose multiply (libmpdec) is a
  number-theoretic transform, O(n log n) against Karatsuba's O(n^1.58).

The Kronecker limb is sized for the kept coefficients only; the discarded
ones may overflow it, since carries only run upward.  A square is packed
once.
"""
from __future__ import annotations

import decimal
import math
import operator
import sys
from fractions import Fraction
from itertools import accumulate

# int <-> str conversions raise beyond this many digits (0: no limit); the
# function exists from Python 3.10.7 on
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class NotInvertibleError(ArithmeticError):
    """Raised when a series with zero leading coefficient is inverted."""


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known precision is requested."""


def _val_p_int(n: int, p: int):
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_p(x, p: int):
    """p-adic valuation of an int or Fraction; +inf for zero."""
    if x == 0:
        return math.inf
    return _val_p_int(x.numerator, p) - _val_p_int(x.denominator, p)


# ---------------------------------------------------------------------------
# integer convolution kernel
#
# Each method returns the product coefficients c_0 .. c_{length-1} (by
# default all of them) and reads no operand coefficient from index `length`
# on, which reaches no kept c_k.  A square comes as one list, `b is a`.


def _school_mul(a, b, length=None):
    if length is None:
        length = len(a) + len(b) - 1
    out = [0] * length
    for i, ai in enumerate(a[:length]):
        if ai:
            for k, bj in enumerate(b[: length - i], i):
                if bj:
                    out[k] += ai * bj
    return out


def _binary_kronecker(a, b, bits, length=None):
    # pack into little-endian limbs of whole bytes, offset to be nonnegative
    m = len(a) + len(b) - 1 if length is None else length
    nbytes = (bits + 7) // 8
    half = 1 << (nbytes * 8 - 1)
    off_limb = b"\x00" * (nbytes - 1) + b"\x80"

    def pack(coeffs):
        coeffs = coeffs[:m]
        buf = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
        return int.from_bytes(buf, "little") - int.from_bytes(
            off_limb * len(coeffs), "little"
        )

    x = pack(a)
    prod = x * x if b is a else x * pack(b)
    # the limbs from m on only carry upward: the low m limbs, read modulo
    # 2^(8 nbytes m), are exact however far the discarded ones overflow
    shifted = prod + int.from_bytes(off_limb * m, "little")
    raw = (shifted & ((1 << (8 * nbytes * m)) - 1)).to_bytes(m * nbytes, "little")
    return [
        int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") - half
        for i in range(m)
    ]


# Every operation on a packed Decimal goes through this context: the
# thread-local default has 28 digits and would round silently.
_DEC = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def _decimal_pack(coeffs, digits):
    """Packed Decimal of sign * sum(c_i 10^(digits*i)) and the sign, taken
    from the top nonzero coefficient so that the packed value is positive."""
    top = len(coeffs)
    while top and not coeffs[top - 1]:
        top -= 1
    if not top:
        return _DEC.create_decimal(0), 1
    sign = 1 if coeffs[top - 1] > 0 else -1
    base = 10**digits
    limbs = []
    borrow = 0
    for c in coeffs[:top]:
        c = sign * c - borrow
        borrow = c < 0
        limbs.append(c + base if borrow else c)
    fmt = f"0{digits}d"
    return _DEC.create_decimal("".join([format(d, fmt) for d in reversed(limbs)])), sign


def _decimal_kronecker(a, b, digits, length=None):
    """Kronecker product in radix 10^digits, multiplied by libmpdec (a
    number-theoretic transform for large operands).  Every kept product
    coefficient c must satisfy 2|c| < 10^digits, and a limb of `digits`
    digits must pass the int/str conversion limit."""
    m = len(a) + len(b) - 1 if length is None else length
    da, sign = _decimal_pack(a[:m], digits)
    if b is a:
        prod = _DEC.multiply(da, da)
        sign = 1
    else:
        db, sign_b = _decimal_pack(b[:m], digits)
        prod = _DEC.multiply(da, db)
        sign *= sign_b
        del db
    del da
    # the limbs from m on only carry upward: the last m limbs of the digit
    # string are exact however far the discarded ones overflow
    prod = _DEC.to_sci_string(prod).zfill(m * digits)
    prod = prod[len(prod) - m * digits :]
    limbs = [int(prod[i : i + digits]) for i in range(0, len(prod), digits)]
    del prod
    # balanced digits: a limb at or above half the radix is negative; the
    # final carry belongs to c_m, which is not kept
    base = 10**digits
    half = base // 2
    out = []
    carry = 0
    for d in reversed(limbs):
        d += carry
        carry = d >= half
        out.append(sign * (d - base if carry else d))
    return out


def _limb_bits(a, b, length):
    """Limb width, in bits, for a Kronecker product that keeps c_0 ..
    c_{length-1}: 4|c_k| < 2^bits for every k < length.

    Let B_j be the largest bit length among b_0..b_j.  A term a_i b_j of a
    kept c_k has j <= j(i) = min(length-1-i, len(b)-1), so |a_i b_j| < 2^top,
    top the largest bit_length(a_i) + B_j(i) over i; and c_k has at most
    n = min(len(a), len(b), length) terms, so |c_k| < 2^(top + bit_length(n)).
    The discarded coefficients may overflow the limb: carries only run
    upward, and no method reads a limb from `length` on.  When every a_i and
    b_j below `length` meets a nonzero coefficient of the other operand in a
    kept c_k, each of them fits the limb too, being less than 2^(top-1)."""
    bits_a = [c.bit_length() for c in a[:length]]
    pb = list(accumulate(bits_a if b is a else [c.bit_length() for c in b[:length]], max))
    na, nb = len(bits_a), len(pb)
    # j(i) = len(b)-1 while i < length - len(b), and length-1-i from there on
    split = min(max(length - nb, 0), na)
    top = max(bits_a[:split]) + pb[-1] if split else 0
    tail = map(operator.add, bits_a[split:], reversed(pb[length - na : length - split]))
    top = max(top, max(tail, default=0))
    return top + min(na, nb).bit_length() + 2


def _kronecker_mul(a, b, length=None):
    if length is None:
        length = len(a) + len(b) - 1
    # a_i reaches a kept c_k only through a nonzero b_j with j < length - i:
    # drop the coefficients that reach none, which the limb need not hold
    fa = next((i for i, c in enumerate(a) if c), len(a))
    fb = fa if b is a else next((i for i, c in enumerate(b) if c), len(b))
    if fa + fb >= length:
        return [0] * length
    square = b is a
    a = a[: length - fb]
    b = a if square else b[: length - fa]
    bits = _limb_bits(a, b, length)
    n = min(len(a), len(b), length)
    if n * bits >= _DECIMAL_CUTOFF:
        digits = bits * 30103 // 100000 + 1  # 10^digits > 2^bits
        limit = _int_max_str_digits()
        if not limit or digits <= limit:
            return _decimal_kronecker(a, b, digits, length)
    return _binary_kronecker(a, b, bits, length)


# largest min(len(a), len(b), length) sent to schoolbook
_SCHOOL_CUTOFF = 32
# smallest min(len(a), len(b), length) * limb bits sent to the decimal radix:
# against CPython's Karatsuba, libmpdec breaks even near 150 kbit and wins by
# 1.4x and more from 200 kbit on
_DECIMAL_CUTOFF = 200_000


def mul_int_lists(a, b, length=None):
    """Coefficients 0..length-1 (by default all) of the product of two
    integer coefficient lists."""
    if not a or not b:
        return [0] * (length or 0)
    if length is None:
        length = len(a) + len(b) - 1
    if min(len(a), len(b), length) <= _SCHOOL_CUTOFF:
        return _school_mul(a, b, length)
    return _kronecker_mul(a, b, length)


def mul_frac_lists(a, b, length=None):
    """Coefficients 0..length-1 (by default all) of the product of two
    rational (int or Fraction) coefficient lists; an integral product is
    returned as ints."""

    def cleared(coeffs):
        coeffs = coeffs[:length]
        d = math.lcm(*(c.denominator for c in coeffs))
        return [c.numerator * (d // c.denominator) for c in coeffs], d

    na, da = cleared(a)
    nb, db = (na, da) if b is a else cleared(b)
    prod = mul_int_lists(na, nb, length)
    d = da * db
    if d == 1:
        return prod
    return [Fraction(c, d) for c in prod]


# ---------------------------------------------------------------------------


class QSeries:
    """Immutable truncated Laurent series with explicit precision."""

    __slots__ = ("ram", "val", "prec", "coeffs")

    def __init__(self, coeffs, val: int = 0, prec: int | None = None, ram: int = 1):
        if ram < 1:
            raise ValueError("ramification index must be positive")
        coeffs = list(coeffs)
        if not set(map(type, coeffs)) <= {int, Fraction}:
            raise TypeError("series coefficients must be int or Fraction")
        if prec is None:
            prec = val + len(coeffs) - 1
        if prec < val - 1:
            raise ValueError("prec must be >= val - 1")
        n = prec - val + 1
        coeffs = coeffs[:n] + [0] * (n - len(coeffs))
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            coeffs = []
            val = prec + 1
        elif lead:
            coeffs = coeffs[lead:]
            val += lead
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec: int, ram: int = 1) -> "QSeries":
        return cls([], val=prec + 1, prec=prec, ram=ram)

    @classmethod
    def one(cls, prec: int, ram: int = 1) -> "QSeries":
        return cls([1], val=0, prec=prec, ram=ram)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> int | Fraction:
        """Coefficient at w-exponent n; raises beyond the precision bound."""
        if n > self.prec:
            raise PrecisionError(f"coefficient at exponent {n} is beyond prec {self.prec}")
        if n < self.val:
            return 0
        return self.coeffs[n - self.val]

    def known(self, n: int) -> bool:
        return n <= self.prec

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero stored coefficients."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + i, c

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.ram == other.ram
            and self.val == other.val
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ram, self.val, self.prec, self.coeffs))

    def __repr__(self):
        return f"QSeries(ram={self.ram}, val={self.val}, prec={self.prec}, {self.pretty()})"

    def pretty(self, max_terms: int = 8) -> str:
        var = "q" if self.ram == 1 else "w"
        parts = []
        for exp, c in self.terms():
            if len(parts) >= max_terms:
                parts.append("...")
                break
            if exp == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sgn = "-" if c < 0 else ""
                e = f"{var}" if exp == 1 else f"{var}^{exp}"
                term = f"{sgn}{mag}{e}"
            parts.append(term)
        if not parts:
            parts = ["0"]
        out = parts[0]
        for t in parts[1:]:
            if t.startswith("-"):
                out += " - " + t[1:]
            else:
                out += " + " + t
        return f"{out} + O({var}^{self.prec + 1})"

    # -- ramification ------------------------------------------------------

    def _respread(self, t: int, new_ram: int) -> "QSeries":
        if t == 1:  # then new_ram == self.ram at every call site
            return self
        n = len(self.coeffs)
        out = [0] * (n * t) if n else []
        for i, c in enumerate(self.coeffs):
            out[i * t] = c
        return QSeries(out, self.val * t, (self.prec + 1) * t - 1, new_ram)

    def ramify(self, e: int) -> "QSeries":
        """Re-express with ramification e*ram; the abstract series is unchanged."""
        if e < 1:
            raise ValueError("ramification factor must be positive")
        return self._respread(e, self.ram * e)

    def dilate(self, t: int) -> "QSeries":
        """Substitute q -> q^t (exponents scaled by t, same ramification)."""
        if t < 1:
            raise ValueError("dilation factor must be positive")
        return self._respread(t, self.ram)

    def _aligned(self, other: "QSeries"):
        if self.ram == other.ram:
            return self, other
        r = math.lcm(self.ram, other.ram)
        return self._respread(r // self.ram, r), other._respread(r // other.ram, r)

    # -- arithmetic --------------------------------------------------------

    def _plus(self, c, other, sign=1) -> "QSeries":
        """sign * self + c * other in one pass over the two coefficient runs;
        a scalar other is the constant series at precision max(self.prec, 0)."""
        if isinstance(other, (int, Fraction)):
            other = QSeries([other], 0, max(self.prec, 0), self.ram)
        elif not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        val = min(a.val, b.val, prec + 1)
        out = [0] * (prec + 1 - val)
        run = a.coeffs[: max(prec + 1 - a.val, 0)]
        out[a.val - val : a.val - val + len(run)] = run if sign == 1 else [-x for x in run]
        run = b.coeffs[: max(prec + 1 - b.val, 0)]
        # a Fraction times 1 costs a gcd, so a plain sum multiplies nothing
        for i, x in enumerate(run if c == 1 else [c * x for x in run], b.val - val):
            out[i] += x
        return QSeries(out, val, prec, a.ram)

    def __add__(self, other):
        return self._plus(1, other)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.val, self.prec, self.ram)

    def __sub__(self, other):
        return self._plus(-1, other)

    def __rsub__(self, other):
        return self._plus(1, other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QSeries.zero(self.prec, self.ram)
            return QSeries([other * x for x in self.coeffs], self.val, self.prec, self.ram)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec + b.val, b.prec + a.val)
        val = a.val + b.val
        if a.is_zero() or b.is_zero():
            return QSeries.zero(prec, a.ram)
        # a square (self is other) reaches the kernel as one tuple
        out = mul_frac_lists(a.coeffs, b.coeffs, prec - val + 1)
        return QSeries(out, val, prec, a.ram)

    def __rmul__(self, other):
        return self.__mul__(other)

    def invert(self) -> "QSeries":
        """Multiplicative inverse to the determined precision (Newton iteration)."""
        if self.is_zero():
            raise NotInvertibleError("cannot invert a zero-to-precision series")
        u = list(self.coeffs)
        total = len(u)
        # a unit leading coefficient is its own inverse, so integral units stay int
        x = [u[0] if u[0] in (1, -1) else Fraction(1, u[0])]
        t = 1
        while t < total:
            t2 = min(2 * t, total)
            err = mul_frac_lists(u, x, t2)
            err[0] -= 1
            corr = mul_frac_lists(x, err, t2)
            x = [(x[i] if i < len(x) else 0) - corr[i] for i in range(t2)]
            t = t2
        return QSeries(x, -self.val, self.prec - 2 * self.val, self.ram)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return QSeries.one(max(self.prec - self.val, 0), self.ram)
        if k < 0:
            return self.invert() ** (-k)
        result = None
        base = self
        kk = k
        while kk:
            if kk & 1:
                result = base if result is None else result * base
            kk >>= 1
            if kk:
                base = base * base
        return result

    def shift(self, k: int) -> "QSeries":
        """Multiply by w^k."""
        return QSeries(list(self.coeffs), self.val + k, self.prec + k, self.ram)

    def truncate(self, prec: int) -> "QSeries":
        """Drop coefficients above the given precision bound."""
        if prec >= self.prec:
            return self
        # slice first, so that the cost follows the result, not self
        return QSeries(self.coeffs[: prec - self.val + 1], self.val, prec, self.ram)

    def u_op(self, p: int) -> "QSeries":
        """Keep coefficients at exponents divisible by p, dividing the exponent."""
        if self.ram != 1:
            raise ValueError("u_op is only supported on unramified series")
        if p < 2:
            raise ValueError("u_op requires p >= 2")
        lo = -((-self.val) // p)
        return QSeries(self.coeffs[lo * p - self.val :: p], lo, self.prec // p)


def agree(a: QSeries, b: QSeries) -> bool:
    """Whether two series agree on their common determined exponent range."""
    a, b = a._aligned(b)
    prec = min(a.prec, b.prec)
    lo = min(a.val, b.val, prec + 1)
    return all(a.coeff(n) == b.coeff(n) for n in range(lo, prec + 1))
