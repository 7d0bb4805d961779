"""Exact truncated Laurent/Puiseux series over the rationals.

A series is stored as a dense coefficient run from its valuation ``val`` to
its precision bound ``prec`` (both inclusive, in ``w``-units where
``w^ram = q``).  All arithmetic is exact; precision is propagated
pessimistically so that an operation never emits a coefficient its inputs do
not determine.

Coefficients are Python ints wherever the values are integral, and
``fractions.Fraction`` only where a denominator arises (a division, or a
non-integral input).  Both expose ``numerator``/``denominator`` and print and
hash alike, so no code path needs to tell them apart.

Multiplication clears denominators and runs an integer convolution, by one
of three methods chosen from the operand sizes:

- schoolbook, for short products;
- binary Kronecker substitution, for longer products of moderate size: pack
  the coefficients into byte limbs of one big integer, multiply (CPython's
  Karatsuba), unpack;
- decimal Kronecker substitution, once the packed operand is large: limbs of
  10^k packed into ``decimal.Decimal`` values, whose multiply (libmpdec) is a
  number-theoretic transform, O(n log n) against Karatsuba's O(n^1.58).
"""
from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction

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


def _school_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _binary_kronecker(a, b, bits):
    # pack into little-endian limbs of whole bytes, offset to be nonnegative
    m = len(a) + len(b) - 1
    nbytes = (bits + 7) // 8
    half = 1 << (nbytes * 8 - 1)
    off_limb = b"\x00" * (nbytes - 1) + b"\x80"

    def pack(coeffs):
        buf = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
        return int.from_bytes(buf, "little") - int.from_bytes(
            off_limb * len(coeffs), "little"
        )

    prod = pack(a) * pack(b)
    shifted = prod + int.from_bytes(off_limb * m, "little")
    raw = shifted.to_bytes(m * nbytes, "little")
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
    """Digit string of sign * sum(c_i 10^(digits*i)) and the sign, taken from
    the top nonzero coefficient so that the packed value is positive."""
    top = len(coeffs)
    while not coeffs[top - 1]:
        top -= 1
    sign = 1 if coeffs[top - 1] > 0 else -1
    base = 10**digits
    limbs = []
    borrow = 0
    for c in coeffs[:top]:
        c = sign * c - borrow
        borrow = c < 0
        limbs.append(c + base if borrow else c)
    fmt = f"0{digits}d"
    return "".join([format(d, fmt) for d in reversed(limbs)]), sign


def _decimal_kronecker(a, b, digits):
    """Kronecker product in radix 10^digits, multiplied by libmpdec (a
    number-theoretic transform for large operands).  Every product
    coefficient c must satisfy 2|c| < 10^digits, and a limb of `digits`
    digits must pass the int/str conversion limit."""
    m = len(a) + len(b) - 1
    sa, sign_a = _decimal_pack(a, digits)
    da = _DEC.create_decimal(sa)
    del sa
    sb, sign_b = _decimal_pack(b, digits)
    db = _DEC.create_decimal(sb)
    del sb
    prod = _DEC.to_sci_string(_DEC.multiply(da, db))
    del da, db
    nlimbs = -(-len(prod) // digits)
    prod = prod.zfill(nlimbs * digits)
    limbs = [int(prod[i : i + digits]) for i in range(0, len(prod), digits)]
    del prod
    # balanced digits: a limb at or above half the radix is negative
    base = 10**digits
    half = base // 2
    sign = sign_a * sign_b
    out = []
    carry = 0
    for d in reversed(limbs):
        d += carry
        carry = d >= half
        out.append(sign * (d - base if carry else d))
    if carry:  # the top limb was 0 - 1 after a borrow, so its digits are gone
        out.append(sign)
    return out + [0] * (m - len(out))


def _kronecker_mul(a, b):
    ma = max(abs(c) for c in a)
    mb = max(abs(c) for c in b)
    if ma == 0 or mb == 0:
        return [0] * (len(a) + len(b) - 1)
    n = min(len(a), len(b))
    # every product coefficient c has 4|c| < 2^bits
    bits = ma.bit_length() + mb.bit_length() + n.bit_length() + 2
    if n * bits >= _DECIMAL_CUTOFF:
        digits = bits * 30103 // 100000 + 1  # 10^digits > 2^bits
        limit = _int_max_str_digits()
        if not limit or digits <= limit:
            return _decimal_kronecker(a, b, digits)
    return _binary_kronecker(a, b, bits)


_SCHOOL_CUTOFF = 4096
# smallest min(len(a), len(b)) * limb bits sent to the decimal radix: against
# CPython's Karatsuba, libmpdec breaks even near 150 kbit and wins by 1.4x and
# more from 200 kbit on
_DECIMAL_CUTOFF = 200_000


def mul_int_lists(a, b):
    """Full convolution of two integer coefficient lists."""
    if not a or not b:
        return []
    if len(a) * len(b) <= _SCHOOL_CUTOFF:
        return _school_mul(a, b)
    return _kronecker_mul(a, b)


def mul_frac_lists(a, b):
    """Full convolution of two rational (int or Fraction) coefficient lists;
    an integral product is returned as ints."""
    if not a or not b:
        return []
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    na = [c.numerator * (da // c.denominator) for c in a]
    nb = [c.numerator * (db // c.denominator) for c in b]
    prod = mul_int_lists(na, nb)
    d = da * db
    if d == 1:
        return prod
    return [Fraction(c, d) for c in prod]


def _mul_trunc(a, b, length):
    prod = mul_frac_lists(a[:length], b[:length])
    prod = prod[:length]
    if len(prod) < length:
        prod += [0] * (length - len(prod))
    return prod


# ---------------------------------------------------------------------------


class QSeries:
    """Immutable truncated Laurent series with explicit precision."""

    __slots__ = ("ram", "val", "prec", "coeffs")

    def __init__(self, coeffs, val: int = 0, prec: int | None = None, ram: int = 1):
        if ram < 1:
            raise ValueError("ramification index must be positive")
        coeffs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
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
        length = prec - val + 1
        out = _mul_trunc(list(a.coeffs), list(b.coeffs), length)
        return QSeries(out, val, prec, a.ram)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return self.__mul__(Fraction(1, other))
        if isinstance(other, QSeries):
            return self.__mul__(other.invert())
        return NotImplemented

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
            err = _mul_trunc(u, x, t2)
            err[0] -= 1
            corr = _mul_trunc(x, err, t2)
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
