"""Exact truncated Laurent/Puiseux series over the rationals.

A series is stored as integer numerators ``num``, a dense run from its
valuation ``val`` to its precision bound ``prec`` (both inclusive, in
``w``-units where ``w^ram = q``), over one denominator ``den`` in lowest
terms: gcd(den, *num) == 1, and den == 1 for an integral series.  All
arithmetic runs over Z and is exact; precision is propagated pessimistically
so that an operation never emits a coefficient its inputs do not determine.

``fractions.Fraction`` appears only at the boundary: the constructor clears
int and Fraction coefficients once, with the lcm of their denominators, and
refuses any other type (float, bool, Decimal, ...); ``coeffs``, ``coeff``,
``terms`` and ``pretty`` read a value as an int where it is integral, else
as a Fraction.  ``val_p`` takes about v / 8 divisions for a long run.

A product runs a truncated integer convolution of the numerators, which
returns only the coefficients that the product's precision determines.  The
leading zeros of both operands are stripped and put back in front of the
product.  An operand X(q^t), zero off the multiples of t, splits it into t
products, X times a residue class of the other operand, at the limb of the
whole; each product takes one of three methods, by size and by the narrower
width:

- schoolbook, for short products, over the pairs that reach a kept
  coefficient, and where a narrow operand meets a wide one;
- binary Kronecker substitution at +2^n and -2^n, for longer products of
  moderate size: pack the even- and the odd-indexed coefficients into
  two's complement limbs of 2n bits, multiply twice at that half width
  (CPython's Karatsuba), and unpack the even and the odd kept limbs from the
  sum and the difference of the two products.  One XOR of a whole packed
  value with the offset constant 2^(2n-1) per limb turns two's complement
  limbs into nonnegative offset limbs, and back; a limb of at most 64 bits
  is one 8-byte word, and a run of words is packed and unpacked by one
  ``struct`` call; a wider limb is packed by one ``int.to_bytes`` each, and
  unpacked by one ``struct`` call when it is two words (the low one
  unsigned, the top one signed, joined at C level), else by one
  ``int.from_bytes`` each;
- decimal Kronecker substitution, once the packed operand is large: limbs of
  10^k packed into ``decimal.Decimal`` values, whose multiply (libmpdec) is a
  number-theoretic transform, O(n log n) against Karatsuba's O(n^1.58).

The Kronecker limb is sized for the kept coefficients only; the discarded
ones may overflow it, since carries only run upward (the two-point sum and
difference are exact).  In the binary method, packing is separate from the
product: a packed operand depends on the operand and the limb alone, so a
square is packed once, and a caller that fixes the limb in advance can pack
an operand once for many products, and form a linear combination of
products and shifted operands on the packed values before the one unpack.
"""
from __future__ import annotations

import decimal
import math
import operator
import struct
import sys
from fractions import Fraction
from itertools import accumulate, repeat

# int <-> str conversions raise beyond this many digits (0: no limit); the
# function exists from Python 3.10.7 on
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_STRIDE = {}  # p -> p^8, made once per p: the stride of a long run in _val_p_int


class NotInvertibleError(ArithmeticError):
    """Raised when a series with zero leading coefficient is inverted."""


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the known precision is requested."""


def _val_p_int(n: int, p: int):
    """p-adic valuation of an int, +inf for 0: by p up to v = 12, then by p^8."""
    if n % p:
        return 0
    if n == 0:
        return math.inf
    if p == 2:  # the lowest set bit of n, in two's complement for n < 0
        return (n & -n).bit_length() - 1
    # a short run (the common case) one division at a time, the first one
    # before the loop over a constant tuple; a long run by p^8, one digit of
    # CPython's int for p <= 13, while it divides, then by p
    n //= p
    if n % p:
        return 1
    for v in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
        n //= p
        if n % p:
            return v
    stride = _STRIDE.get(p) or _STRIDE.setdefault(p, p**8)
    while not n % stride:
        n //= stride
        v += 8
    while not n % p:
        n //= p
        v += 1
    return v


def val_p(x, p: int):
    """p-adic valuation of an int or Fraction; +inf for zero."""
    if p < 2:
        raise ValueError(f"val_p needs p >= 2, got {p}")
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


def _ks2_limb(bits):
    """(nbytes, n, off_limb) of the packed format for a limb of `bits`: limbs
    of nbytes whole bytes, one 8-byte word up to 64 bits, 2n bits each, and
    off_limb the offset 2^(2n-1) as one limb."""
    nbytes = 8 if bits <= 64 else (bits + 7) // 8
    return nbytes, 4 * nbytes, b"\x00" * (nbytes - 1) + b"\x80"


def _ks2_pack(coeffs, bits, m):
    """(A(2^n), A(-2^n)) for A = sum c_i x^i over c_0 .. c_(m-1), in limbs of
    whole bytes at least `bits` wide, 2n bits each; every coefficient must
    satisfy 4|c| < 2^bits.  The pair depends on the operand alone, so one
    packing serves every product and every combination it enters."""
    # two-point substitution (Harvey's KS2): evaluate at x = 2^n and x = -2^n,
    # n half the limb, so that each multiply of two packed values is half as
    # wide; the even- and the odd-indexed coefficients go into two's
    # complement limbs, which one XOR with the offset turns into the
    # nonnegative limbs c + 2^(2n-1): less the offset, A(+-2^n) = A_even +- 2^n A_odd
    nbytes, n, off_limb = _ks2_limb(bits)
    halves = []
    for h in (coeffs[0:m:2], coeffs[1:m:2]):
        if nbytes == 8:  # one struct call, its byte order fixed on any host
            raw = struct.pack(f"<{len(h)}q", *h)
        else:
            raw = b"".join([c.to_bytes(nbytes, "little", signed=True) for c in h])
        off = int.from_bytes(off_limb * len(h), "little")
        halves.append((int.from_bytes(raw, "little") ^ off) - off)
    even, odd = halves
    return even + (odd << n), even - (odd << n)


def _ks2_unpack(plus, minus, bits, m):
    """c_0 .. c_(m-1) of C from C(2^n) and C(-2^n), packed as by
    ``_ks2_pack``; every kept c_k must satisfy 4|c_k| < 2^bits, and C may have
    further coefficients of any size."""
    nbytes, n, off_limb = _ks2_limb(bits)

    def limbs(packed, count):
        # plus the offset, the low `count` limbs are c_k + 2^(2n-1), exact
        # however far the discarded limbs above overflow, since carries only
        # run upward; the XOR turns them back into two's complement limbs
        off = int.from_bytes(off_limb * count, "little")
        raw = ((packed + off) & ((1 << (2 * n * count)) - 1)) ^ off
        raw = raw.to_bytes(count * nbytes, "little")
        if nbytes == 8:
            return struct.unpack(f"<{count}q", raw)
        if nbytes == 16:  # two words, one struct call: the low word unsigned, the top signed
            words = struct.unpack("<" + "Qq" * count, raw)
            return map(operator.add, map(operator.lshift, words[1::2], repeat(64)), words[0::2])
        return [int.from_bytes(raw[i : i + nbytes], "little", signed=True)
                for i in range(0, len(raw), nbytes)]

    # exact identities:  C(2^n) + C(-2^n) = 2 sum c_2k 2^(2nk) and
    # C(2^n) - C(-2^n) = 2^(n+1) sum c_(2k+1) 2^(2nk), so a discarded c_k
    # still carries only upward, into limbs that are not read
    out = [0] * m
    out[0::2] = limbs((plus + minus) >> 1, (m + 1) // 2)
    out[1::2] = limbs((plus - minus) >> (n + 1), m // 2)
    return out


def _ks2_read(bits, m):
    """The low bits of C(+-2^n) that ``_ks2_unpack`` reads for c_0 .. c_(m-1).  Adding
    a multiple of 2^read moves no read limb: like a dropped c_k, it carries upward."""
    return _ks2_limb(bits)[1] * (m + 1) + 1


def _low_square(x, keep):
    """x^2 mod 2^keep, plus a multiple of 2^keep: with x = lo + hi 2^h, 2h >= keep, x^2 =
    lo^2 + lo hi 2^(h+1) + hi^2 2^(2h), and lo, hi reach lo hi 2^(h+1) mod 2^(keep-h)."""
    h = (keep + 1) >> 1
    lo, cut = x & ((1 << h) - 1), (1 << (keep - h)) - 1
    return lo * lo + (((lo & cut) * ((x >> h) & cut)) << (h + 1))


def _ks2_combine(product, terms, bits, m):
    """c_0 .. c_(m-1) of C - sum c x^s F over terms (c, s, F), where C is given
    at the two points, product = (C(2^n), C(-2^n)), and each F is a pair from
    ``_ks2_pack`` with this limb: x^s is the scalar (+-2^n)^s there, so each
    term costs a scalar multiply and a shift, and the whole one unpack."""
    n = _ks2_limb(bits)[1]
    plus, minus = product
    for c, s, (f_plus, f_minus) in terms:
        plus -= (c * f_plus) << (n * s)
        minus -= ((-c if s & 1 else c) * f_minus) << (n * s)
    return _ks2_unpack(plus, minus, bits, m)


def _binary_kronecker(a, b, bits, length=None, kept=None):
    m = len(a) + len(b) - 1 if length is None else length
    pa = kept[0] if kept else _ks2_pack(a, bits, m)
    if kept is not None:  # a list: the next class product of a dilated a reuses pa
        kept[:] = [pa]
    pb = pa if b is a else _ks2_pack(b, bits, m)
    return _ks2_combine((pa[0] * pb[0], pa[1] * pb[1]), (), bits, m)


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
    """(bits, narrow): the limb width for a Kronecker product that keeps c_0 ..
    c_{length-1}, 4|c_k| < 2^bits for every k < length, and a function that
    reads the narrower operand's widest coefficient, in bits, off this scan.

    Let B_j be the largest bit length among b_0..b_j.  A term a_i b_j of a
    kept c_k has j <= j(i) = min(length-1-i, len(b)-1), so |a_i b_j| < 2^top,
    top the largest bit_length(a_i) + B_j(i) over i; and c_k has at most
    n = min(len(a), len(b), length) terms, so |c_k| < 2^(top + bit_length(n)).
    The discarded coefficients may overflow the limb: carries only run
    upward, and no method reads a limb from `length` on.  When every a_i and
    b_j below `length` meets a nonzero coefficient of the other operand in a
    kept c_k, each of them fits the limb too, being less than 2^(top-1)."""
    bits_a = list(map(int.bit_length, a[:length]))
    # B_j as the bit length of |b_0| | .. | |b_j|: one C-level pass each, faster than max
    pb = list(map(int.bit_length, accumulate(map(abs, b[:length]), operator.or_)))
    na, nb = len(bits_a), len(pb)
    # j(i) = len(b)-1 while i < length - len(b), and length-1-i from there on
    split = min(max(length - nb, 0), na)
    top = max(bits_a[:split]) + pb[-1] if split else 0
    tail = map(operator.add, bits_a[split:], reversed(pb[length - na : length - split]))
    top = max(top, max(tail, default=0))
    return top + min(na, nb).bit_length() + 2, lambda: min(max(bits_a), pb[-1])


def _dilation(x):
    """t >= 2 if x = X(q^t) with X(0) != 0, t the index of x's first nonzero past x[0]; else 1."""
    if len(x) < 3 or not x[0] or x[1]:
        return 1
    t = next((i for i in range(2, len(x)) if x[i]), 1)
    return 1 if any(any(x[r::t]) for r in range(1, t)) else t


def _kronecker_mul(a, b, length=None):
    if length is None:
        length = len(a) + len(b) - 1
    # strip the leading zeros of both operands, to put fa + fb zeros in front
    # of the product; a_i then reaches a kept c_k only through a nonzero b_j
    # with j < length - i: drop the coefficients that reach none, which the
    # limb need not hold
    fa = next((i for i, c in enumerate(a) if c), len(a))
    fb = fa if b is a else next((i for i, c in enumerate(b) if c), len(b))
    zeros = fa + fb
    if zeros >= length or fa == len(a) or fb == len(b):
        return [0] * length
    square = b is a
    a = a[fa : length - fb]
    b = a if square else b[fb : length - fa]
    length -= zeros
    bits, narrow = _limb_bits(a, b, length)
    t = _dilation(a)
    if t == 1 and not square and (t := _dilation(b)) > 1:
        a, b = b, a
    if t == 1:
        out = _by_shape(a, b, bits, narrow, length)
        return [0] * zeros + out if zeros else out
    # a = X(q^t): class r of the product, c_r, c_(r+t), ..., is X times b_r, b_(r+t), ...,
    # within the limb as kept c_k; an all-zero class is skipped (a square has class 0 alone)
    x, kept = a[::t], []
    out = [0] * (zeros + length)
    for r, y in enumerate([x] if square else [b[r::t] for r in range(t)]):
        if any(y):
            out[zeros + r :: t] = _by_shape(x, y, bits, narrow, len(range(r, length, t)), kept)
    return out


def _by_shape(a, b, bits, narrow, length, *kept):
    """c_0 .. c_(length-1) of a b by the method its shape picks; `narrow` is read lazily."""
    n = min(len(a), len(b), length)
    e = max(len(a) + len(b) - 1 - length, 0)
    pairs = len(a) * len(b) - e * (e + 1) // 2  # the (i, j) with i + j < length
    if n <= _SCHOOL_CUTOFF or bits * n >= _NARROW_CUTOFF * pairs and (
            (bits - (w := narrow())) * n >= _NARROW_CUTOFF * (w // 64 + 1) * pairs):
        return _school_mul(a, b, length)
    if n * bits >= _DECIMAL_CUTOFF:
        digits = bits * 30103 // 100000 + 1  # 10^digits > 2^bits
        limit = _int_max_str_digits()
        if not limit or digits <= limit:
            return _decimal_kronecker(a, b, digits, length)
    return _binary_kronecker(a, b, bits, length, *kept)


# largest min(len(a), len(b), length) of a product, or of a class product, sent to schoolbook
_SCHOOL_CUTOFF = 32
# smallest min(len(a), len(b), length) * limb bits sent to the decimal radix, per product:
# against the two-point binary path, libmpdec breaks even between 200 and
# 300 kbit and wins by 1.1-1.7x from 400 kbit on.  No benchmark workload reaches it; it
# stays for the long phi and psi products of the tests: tier-1 without it took 19.1-19.4 s
# against 14.9-16.0 s with it (2-vCPU Xeon), most of that in TestPhi's p = 2 products
_DECIMAL_CUTOFF = 200_000
# least (limb - narrow) * n / (pairs * (narrow // 64 + 1)) sent to schoolbook: over
# n = 40..512, narrow 9..301 and wide 150..6,000 bits (full, truncated, 2n-by-n; Python
# 3.11, 2-vCPU Xeon) it took 84% of Kronecker's time, the best choice per product 81%;
# 128 terms of 26 x 1,100 bits kept to 128: 2.9 ms -> 1.5 ms
_NARROW_CUTOFF = 8


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


# ---------------------------------------------------------------------------


class QSeries:
    """Immutable truncated Laurent series with explicit precision."""

    __slots__ = ("ram", "val", "prec", "num", "den")

    def __init__(self, coeffs, val: int = 0, prec: int | None = None, ram: int = 1):
        if ram < 1:
            raise ValueError("ramification index must be positive")
        coeffs = list(coeffs)
        types = set(map(type, coeffs))
        if not types <= {int, Fraction}:
            raise TypeError("series coefficients must be int or Fraction")
        den = 1
        if Fraction in types:  # cleared once, with the lcm of the denominators
            den = math.lcm(*[c.denominator for c in coeffs])
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        if prec is None:
            prec = val + len(coeffs) - 1
        self._normalize(coeffs, val, prec, ram, den)

    @classmethod
    def _new(cls, num, val: int, prec: int, ram: int, den: int = 1) -> "QSeries":
        """Normalized, not type-checked: for QSeries's own int results, den >= 1."""
        out = object.__new__(cls)
        out._normalize(num, val, prec, ram, den)
        return out

    def _normalize(self, num, val, prec, ram, den):
        """Store num / den (num a list, or a tuple kept as it is when it needs no change)
        from val on, cut or zero-padded to prec, less leading zeros, with gcd(den, *num) == 1."""
        if prec < val - 1:
            raise ValueError("prec must be >= val - 1")
        n = prec - val + 1
        top = min(len(num), n)
        lead = 0
        while lead < top and num[lead] == 0:
            lead += 1
        if lead == top:
            num, den, val = (), 1, prec + 1
        else:
            if lead or len(num) > n:  # a slice copies: only when needed
                num = num[lead:n]
            num = tuple(num) + (0,) * (n - lead - len(num))
            val += lead
            if den != 1 and (g := math.gcd(den, *num)) != 1:
                num, den = tuple([c // g for c in num]), den // g
        object.__setattr__(self, "ram", ram)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):  # copy and pickle rebuild through _new, as __setattr__ refuses
        return QSeries._new, (self.num, self.val, self.prec, self.ram, self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec: int, ram: int = 1) -> "QSeries":
        return cls([], val=prec + 1, prec=prec, ram=ram)

    @classmethod
    def one(cls, prec: int, ram: int = 1) -> "QSeries":
        return cls([1], val=0, prec=prec, ram=ram)

    # -- queries -----------------------------------------------------------

    def _value(self, c):
        return Fraction(c, self.den) if c % self.den else c // self.den

    @property
    def coeffs(self) -> tuple:
        """Values val..prec: the numerators if den == 1, else int or Fraction."""
        return self.num if self.den == 1 else tuple(map(self._value, self.num))

    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, n: int) -> int | Fraction:
        """Coefficient at w-exponent n; raises beyond the precision bound."""
        if n > self.prec:
            raise PrecisionError(f"coefficient at exponent {n} is beyond prec {self.prec}")
        if n < self.val:
            return 0
        c = self.num[n - self.val]
        return c if self.den == 1 else self._value(c)

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero stored coefficients."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.val + i, c

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.ram, self.val, self.prec, self.den, self.num) == (
            other.ram, other.val, other.prec, other.den, other.num)

    def __hash__(self):
        return hash((self.ram, self.val, self.prec, self.num, self.den))

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
        out = [0] * (len(self.num) * t)
        out[::t] = self.num
        return QSeries._new(out, self.val * t, (self.prec + 1) * t - 1, new_ram, self.den)

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
        """sign * self + c * other in one pass over the two numerator runs,
        scaled to the lcm of their denominators; a scalar other is the constant
        series at precision max(self.prec, 0), whose run is the scalar alone."""
        if type(other) in (int, Fraction):
            a, b_val, b_prec, b_den = self, 0, max(self.prec, 0), other.denominator
            b_run = (other.numerator,) if other else ()
        elif isinstance(other, QSeries):
            a, b = self._aligned(other)
            b_val, b_prec, b_run, b_den = b.val, b.prec, b.num, b.den
        else:
            return NotImplemented
        b_den *= c.denominator
        den = a.den if a.den == b_den else math.lcm(a.den, b_den)
        prec = min(a.prec, b_prec)
        val = min(a.val, b_val, prec + 1)
        out = [0] * (prec + 1 - val)
        run = _scaled(a.num[: max(prec + 1 - a.val, 0)], sign * (den // a.den))
        out[a.val - val : a.val - val + len(run)] = run
        run = _scaled(b_run[: max(prec + 1 - b_val, 0)], c.numerator * (den // b_den))
        for i, x in enumerate(run, b_val - val):
            out[i] += x
        return QSeries._new(out, val, prec, a.ram, den)

    def __add__(self, other):
        return self._plus(1, other)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._new([-c for c in self.num], self.val, self.prec, self.ram, self.den)

    def __sub__(self, other):
        return self._plus(-1, other)

    def __rsub__(self, other):
        return self._plus(1, other, -1)

    def __mul__(self, other):
        # exact types, as in _plus: a bool is no scalar
        if type(other) in (int, Fraction):
            return QSeries._new(_scaled(self.num, other.numerator), self.val, self.prec,
                                self.ram, self.den * other.denominator)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec + b.val, b.prec + a.val)
        val = a.val + b.val
        # a square (self is other) reaches the kernel as one tuple
        out = mul_int_lists(a.num, b.num, prec - val + 1)
        return QSeries._new(out, val, prec, a.ram, a.den * b.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def invert(self) -> "QSeries":
        """Multiplicative inverse to the determined precision: Newton's iteration
        X <- X (2s - U X), s <- s^2 on the numerators U, for integral X / s -> 1 / U."""
        if self.is_zero():
            raise NotInvertibleError("cannot invert a zero-to-precision series")
        u = self.num
        t, s, x = 1, abs(u[0]), [1 if u[0] > 0 else -1]
        while t < len(u):
            t2 = min(2 * t, len(u))
            # X (2s - U X) as s X - X (U X - s): U X - s starts at q^t, which the kernel skips
            err = mul_int_lists(u, x, t2)
            err[0] -= s
            corr = mul_int_lists(x, err, t2)
            x = [xi - ci for xi, ci in zip(_scaled(x, s), corr)] + [-ci for ci in corr[len(x):]]
            s *= s
            if s != 1 and (g := math.gcd(s, *x)) != 1:
                x, s = [xi // g for xi in x], s // g
            t = t2
        # (num / den)^-1 = den X / s
        return QSeries._new(_scaled(x, self.den), -self.val, self.prec - 2 * self.val, self.ram, s)

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return QSeries.one(max(self.prec - self.val, 0), self.ram)
        if k < 0:
            return self.invert() ** (-k)
        # left to right, so that every multiply has self as one operand
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def shift(self, k: int) -> "QSeries":
        """Multiply by w^k."""
        return QSeries._new(self.num, self.val + k, self.prec + k, self.ram, self.den)

    def truncate(self, prec: int) -> "QSeries":
        """Drop coefficients above the given precision bound."""
        if prec >= self.prec:
            return self
        # slice first, so that the cost follows the result, not self
        return QSeries._new(self.num[: prec - self.val + 1], self.val, prec, self.ram, self.den)

    def u_op(self, p: int) -> "QSeries":
        """Keep coefficients at exponents divisible by p, dividing the exponent."""
        if self.ram != 1:
            raise ValueError("u_op is only supported on unramified series")
        if p < 2:
            raise ValueError("u_op requires p >= 2")
        lo = -((-self.val) // p)
        return QSeries._new(self.num[lo * p - self.val :: p], lo, self.prec // p, 1, self.den)


def _scaled(run, f):
    """run times the int f; the run itself when f is 1."""
    return run if f == 1 else [f * x for x in run]


def agree(a: QSeries, b: QSeries) -> bool:
    """Whether two series agree on their common determined exponent range:
    a_n b.den == b_n a.den for each n there."""
    a, b = a._aligned(b)
    prec = min(a.prec, b.prec)
    lo = min(a.val, b.val, prec + 1)
    runs = [(0,) * (min(s.val, prec + 1) - lo) + s.num[: max(prec + 1 - s.val, 0)] for s in (a, b)]
    return all(x * b.den == y * a.den for x, y in zip(*runs))
