"""The canonical pole-order basis and polynomial extraction in phi.

Basis elements q^{-m} + O(1) are built by one Faber step: f_m starts from a
product f_i f_j with i + j = m, and the principal part is cleared greedily
against f_(m-1), ..., f_1, each of which has the single pole term q^{-k}, so
the reduction is triangular and never needs a linear solve.
That reduction is ``_clear``, in place on one int list, and writing a series
in phi is the same reduction against 1, phi, ..., phi^D from q^0.
Both families are built here, and both start every f_m from
f_(floor(m/2)) f_(ceil(m/2)): the exact one (``basis_family``) takes the step
on int lists from the exact psi.  The residues mod p^K that the divisibility
sweep reads (``_residue_family``), p^K the largest whose Kronecker limb is two
64-bit words (``_residue_modulus``), start from psi's two eta factors multiplied
mod p^K and take it on values packed for the binary Kronecker kernel, each f_k
packed once, at one squaring per step: an odd m's product comes by
polarization from two kept squares, each formed to the low bits the unpack
reads only, since the rest only carries upward.  There the multipliers come
from the first m coefficients, and the product less the cleared principal
part is formed on the packed values and unpacked once.
f_m as a polynomial in psi comes on demand from the Lagrange-Faber formula.
Both families are built at each call, and the powers of phi are read from the
store of ``eta``.  The precision that writing U_p of a series in phi needs is
stated once, by ``_up_precision``.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import eta  # eta._psi_factors, looked up per call: one substitute reaches both families
from .eta import phi_powers, psi
from .primes import PrimeContext
from .series import (PrecisionError, QSeries, _ks2_combine, _ks2_pack, _ks2_read, _low_square,
                     _school_mul, mul_int_lists)


class NotPolynomialError(ValueError):
    """A series failed to reduce to a polynomial of the requested shape."""

    def __init__(self, message: str, failing_exponent: int):
        super().__init__(message)
        self.failing_exponent = failing_exponent


class PhiPolynomial:
    """A polynomial in the reciprocal Hauptmodul: int degrees >= 0 and int
    coefficients (any other type raises ``TypeError``)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        coeffs = dict(coeffs or ())
        if not {*map(type, coeffs), *map(type, coeffs.values())} <= {int}:
            raise TypeError("phi-polynomial degrees and coefficients must be int")
        if coeffs and min(coeffs) < 0:
            raise ValueError("negative degrees are not allowed")
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    @property
    def constant(self) -> int:
        return self.coeffs.get(0, 0)

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __getitem__(self, k: int) -> int:
        return self.coeffs.get(k, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        terms = " + ".join(
            f"{c}*x^{k}" for k, c in sorted(self.coeffs.items())
        )
        return f"PhiPolynomial({terms or '0'})"

    def __add__(self, other):
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return PhiPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PhiPolynomial({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return PhiPolynomial({k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return PhiPolynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def evaluate(self, ctx: PrimeContext, n: int) -> QSeries:
        """The series sum c_k phi^k for phi known to precision n, read from the
        shared ``phi_powers`` table.  Its precision is the one the terms
        determine: n + j when phi^(j+1) is the lowest non-constant power
        present, n for a constant."""
        n += min((k for k in self.coeffs if k), default=1) - 1
        powers = phi_powers(ctx, self.degree, n) if self.degree else ()
        out = [self.constant] + [0] * n
        for k, c in self.coeffs.items():
            if k:
                t = powers[k]
                for i, x in enumerate(t.coeffs, start=t.val):
                    out[i] += c * x
        return QSeries(out, 0, n)


@dataclass(frozen=True)
class BasisElement:
    """q^{-m} + O(1), the one element of Z[psi] with that principal part and
    no constant term in psi."""

    ctx: PrimeContext
    m: int
    series: QSeries

    @property
    def psi_poly(self) -> dict:
        """f_m as a polynomial in psi, {degree: int}, monic of degree m with
        no constant.  By Lagrange inversion of psi = 1/phi (the residue of
        f_m psi^(-k-1) dpsi at q = 0), its degree-k coefficient is
        m [q^m] phi^k / k."""
        m = self.m
        powers = phi_powers(self.ctx, m, m) if m else ()
        return {k: c for k in range(1, m + 1) if (c := m * powers[k].coeff(m) // k)}


def _clear(t: list, runs) -> dict:
    """Clear t[o] against each monic run r (r[0] = 1) at offset o, in the
    order given, in place: t[o : o + len(r)] -= t[o] * r.  Returns {o: c}
    for each nonzero multiplier c; a zero one changes nothing."""
    cleared = {}
    for o, r in runs:
        c = t[o]
        if c:
            cleared[o] = c
            t[o : o + len(r)] = [x - c * y for x, y in zip(t[o : o + len(r)], r)]
    return cleared


def _normalized(t: list, m: int) -> list:
    if t[0] != 1 or any(t[1:m]):
        raise ArithmeticError("basis reduction failed to normalize the principal part")
    return t


def _faber_step(fam: list) -> list:
    """f_m for m = len(fam) >= 2 as an int list q^-m .. q^(prec-m+1), from
    fam = [f_0, ..., f_(m-1)] in that layout, f_1 = psi: f_i f_j, i = floor(m/2),
    j = ceil(m/2), the rule of ``_residue_family`` too, with q^-(m-1) .. q^-1
    cleared against f_(m-1) .. f_1.  Any i + j = m would do: no step clears a
    constant, so each f_k, k >= 1, and every such product lie in psi Z[psi], and
    f_m is the one element there with principal part q^-m."""
    m = len(fam)
    t = mul_int_lists(fam[m // 2], fam[(m + 1) // 2], len(fam[1]))
    _clear(t, ((m - k, fam[k]) for k in range(m - 1, 0, -1)))
    return _normalized(t, m)


def basis_family(ctx: PrimeContext, m_max: int, n: int):
    """Basis elements for pole orders 0..m_max, f_m known to n + m_max - m,
    built from psi by one Faber step each."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    prec = n + m_max - 1  # of psi; f_m is known to prec - m + 1
    fam = [(1,), psi(ctx, prec).coeffs] if m_max else [(1,)]
    while len(fam) <= m_max:
        fam.append(_faber_step(fam))
    return tuple(BasisElement(ctx, m, QSeries(f, -m, prec - m + 1 if m else n))
                 for m, f in enumerate(fam))


# the residue family's binary Kronecker limb: two 64-bit words, which the
# modulus rule below fills as far as a power of p allows
_RESIDUE_BITS = 128


def _residue_limb(modulus: int, size: int) -> int:
    """The limb of the residue family mod modulus over runs of `size`
    coefficients: a kept coefficient of f_i f_j - sum c_k x^(m-k) f_k, every
    operand a residue, is below (size + m)(modulus - 1)^2 < 2 size (modulus - 1)^2."""
    return 2 * (modulus - 1).bit_length() + (2 * size).bit_length() + 2


def _residue_modulus(p: int, size: int) -> int:
    """p^K for the residue family over runs of `size` coefficients: the largest
    whose limb fits _RESIDUE_BITS, and p itself when none does.  For p <= 7 one
    more factor p adds at most 6 bits, so the limb is 123 .. 128 bits, 16 bytes."""
    modulus = p
    while _residue_limb(modulus * p, size) <= _RESIDUE_BITS:
        modulus *= p
    return modulus


def _residue_family(ctx: PrimeContext, m_max: int, n: int):
    """The series f_0 .. f_m_max of ``basis_family`` mod p^K, f_m known to
    n + m_max - m, p^K from ``_residue_modulus``, from psi's two eta factors as
    balanced residues, multiplied once: exact psi is never built.  Every residue is
    below p^K, which fixes the binary Kronecker limb of the whole family at two
    64-bit words, so each f_k is packed once.  Each f_m starts
    from f_i f_j, i = floor(m/2), j = ceil(m/2), at the two points of the packed format,
    by one squaring pair: the square f_j^2 new at an odd m, kept for the even m + 1,
    and from both kept squares the cross term by polarization.  Each square is
    formed mod 2^keep only, keep the bits ``_ks2_unpack`` reads and one for the
    polarization's >> 1: the dropped multiple of 2^keep, like a dropped limb, only
    carries upward.  The product less sum c_k x^(m-k) f_k is formed on the packed
    values, unpacked and reduced once."""
    prec = n + m_max - 1
    size = prec + 2  # q^-1 .. q^prec
    modulus = _residue_modulus(ctx.p, size)
    h = modulus // 2
    a, b = eta._psi_factors(ctx, prec)
    a = [(c + h) % modulus - h for c in a]  # each exact factor is dropped once reduced
    b = [(c + h) % modulus - h for c in b]
    fam = [[1], [c % modulus for c in mul_int_lists(a, b, size)]]  # fam[m]: q^-m .. q^(prec-m+1)
    del a, b
    bits = _residue_limb(modulus, size)
    keep = _ks2_read(bits, size) + 1  # and one bit for the polarization's >> 1
    packs = [None]  # packs[k] is f_k packed, made once, just before f_(k+1)
    squares = {}  # squares[k]: f_k^2 mod 2^keep at the two points, read by steps 2k - 1 .. 2k + 1
    for m in range(2, m_max + 1):
        packs.append(_ks2_pack(fam[m - 1], bits, size))
        i, j = m // 2, (m + 1) // 2
        for k in {i, j} - squares.keys():
            squares[k] = [_low_square(x, keep) for x in packs[k]]
        if i == j:
            product = squares[i]
        else:  # f_i f_j = ((f_i + f_j)^2 - f_i^2 - f_j^2) / 2, exact at each point mod 2^(keep-1)
            product = [(_low_square(x + y, keep) - u - v) >> 1 for x, y, u, v
                       in zip(packs[i], packs[j], squares.pop(i), squares[j])]
        # f_k has no pole term but q^-k, so clearing q^-k leaves every other
        # pole term as it was: c_k is the product's own coefficient at q^-k,
        # which its first m coefficients give
        head = _school_mul(fam[i][:m], fam[j][:m], m)
        terms = [(head[m - k] % modulus, m - k, packs[k]) for k in range(m - 1, 0, -1)]
        t = _ks2_combine(product, terms, bits, size)
        fam.append(_normalized([x % modulus for x in t], m))
    return [QSeries(f, -m, prec - m + 1) for m, f in enumerate(fam)]


def basis_element(ctx: PrimeContext, m: int, n: int) -> BasisElement:
    """The unique basis element with pole order m, to precision n."""
    return basis_family(ctx, m, n)[m]


_PHI_GUARD = 8  # coefficients of s beyond maxdeg, which must cancel too


def _up_precision(p: int, maxdeg: int) -> int:
    """Least n for which U_p of a series s known to n (so to n // p) is read in phi to maxdeg,
    and a proof, not a sample: if U_p s is a level-p function whose only pole, at the cusp 0,
    has order <= maxdeg, so is the residual left once q^0 .. q^maxdeg are cleared, which then
    vanishes to order > maxdeg at infinity and is 0 by the valence formula.  The _PHI_GUARD
    coefficients past q^maxdeg check that order: a pole of order e, maxdeg < e <=
    maxdeg + _PHI_GUARD, leaves a nonzero residual at some q^i, maxdeg < i <= e."""
    return p * (maxdeg + _PHI_GUARD)


def express_in_phi(ctx: PrimeContext, s: QSeries, maxdeg: int):
    """Write s as constant + polynomial in phi of degree <= maxdeg.

    s must know maxdeg + 8 coefficients (else ``PrecisionError``); the powers
    of phi come from the shared ``phi_powers`` table.  Succeeds only if the
    residual is zero to the precision of s; the first surviving exponent is
    reported otherwise.  The constant and the ``PhiPolynomial`` are ints
    only, so where either would have a Fraction coefficient, this raises
    ``TypeError``.
    """
    if s.ram != 1:
        raise ValueError("express_in_phi requires an unramified series")
    if not s.is_zero() and s.val < 0:
        raise ValueError("express_in_phi requires valuation >= 0")
    if maxdeg < 1:
        raise ValueError("maxdeg must be positive")
    if s.prec < maxdeg + _PHI_GUARD:
        raise PrecisionError(
            f"precision {s.prec} too low for degree {maxdeg} (guard {_PHI_GUARD})"
        )
    t = [0] * s.val + list(s.coeffs)  # q^0 .. q^prec
    powers = phi_powers(ctx, maxdeg, s.prec)
    coeffs = _clear(t, ((k, powers[k].coeffs if k else (1,)) for k in range(maxdeg + 1)))
    bad = next((n for n, x in enumerate(t) if x), None)
    if bad is not None:
        raise NotPolynomialError(
            f"not a phi-polynomial of degree <= {maxdeg}: residual at q^{bad}", bad
        )
    constant = coeffs.pop(0, 0)
    if type(constant) is not int:
        raise TypeError("the constant of a phi-polynomial must be int")
    return constant, PhiPolynomial(coeffs)

