"""The canonical pole-order basis and polynomial extraction in psi / phi.

Basis elements q^{-m} + O(1) are built by the Faber recurrence: the principal
part of psi * f_m is cleared greedily against f_m, ..., f_1, each of which has
the single pole term q^{-k}, so the reduction is triangular and never needs a
linear solve.  The family and the powers of phi are tables grown on demand.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .eta import phi, psi
from .primes import PrimeContext
from .series import PrecisionError, QSeries


class NotPolynomialError(ValueError):
    """A series failed to reduce to a polynomial of the requested shape."""

    def __init__(self, message: str, failing_exponent: int):
        super().__init__(message)
        self.failing_exponent = failing_exponent


class PhiPolynomial:
    """A polynomial in the reciprocal Hauptmodul with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, c in dict(coeffs).items():
                c = c if type(c) in (int, Fraction) else Fraction(c)
                if c:
                    if k < 0:
                        raise ValueError("negative degrees are not allowed")
                    self.coeffs[int(k)] = c

    @property
    def constant(self) -> int | Fraction:
        return self.coeffs.get(0, 0)

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __getitem__(self, k: int) -> int | Fraction:
        return self.coeffs.get(k, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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
        if isinstance(other, (int, Fraction)):
            return PhiPolynomial({k: c * other for k, c in self.coeffs.items()})
        if not isinstance(other, PhiPolynomial):
            return NotImplemented
        out: dict[int, int | Fraction] = {}
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
        present, n for a constant.  The non-constant part is phi^j times a
        sum read from the table, so no table beyond precision n is built."""
        j = min((k for k in self.coeffs if k), default=1) - 1
        powers = phi_powers(ctx, self.degree - j, n) if self.degree else ()
        out = [0] * (n + 1)
        for k, c in self.coeffs.items():
            if k:
                t = powers[k - j]
                for i, x in enumerate(t.coeffs, start=t.val):
                    out[i] += c * x
        s = QSeries(out, 0, n)
        if j:
            s = s * phi(ctx, n) ** j
        return s + self.constant


@dataclass(frozen=True)
class BasisElement:
    """q^{-m} + O(1), together with its integer polynomial in psi."""

    ctx: PrimeContext
    m: int
    series: QSeries
    psi_poly: dict = field(default_factory=dict)  # degree -> int, monic, no constant


def _grow(powers: list, t: QSeries, k: int, prec: int) -> list:
    """Extend powers = [t^0, t^1, ...] in place up to t^k, each truncated at
    precision prec."""
    while len(powers) <= k:
        powers.append((powers[-1] * t).truncate(prec))
    return powers


def _powers(t: QSeries, k: int, prec: int) -> tuple:
    """t^0 .. t^k of a Hauptmodul t, each truncated at precision prec."""
    return tuple(_grow([QSeries.one(prec), t.truncate(prec)], t, k, prec)[: k + 1])


@lru_cache(maxsize=16)
def _phi_table(ctx: PrimeContext, n: int) -> list:
    """phi^0, phi^1, ... at precision n, grown in degree by ``phi_powers``."""
    return [QSeries.one(n), phi(ctx, n)]


@lru_cache(maxsize=32)
def phi_powers(ctx: PrimeContext, k: int, n: int) -> tuple:
    """phi^0 .. phi^k, each truncated at precision n."""
    table = _phi_table(ctx, n)
    return tuple(_grow(table, table[1], k, n)[: k + 1])


def _eliminate(s: QSeries, powers, degrees):
    """Clear the leading term of each monic powers[k] from s, in the order
    of degrees; returns the residual and {k: c} with s = residual + sum
    c * powers[k]."""
    coeffs: dict[int, int | Fraction] = {}
    for k in degrees:
        c = s.coeff(powers[k].val)
        if c:
            coeffs[k] = c
            s = s - c * powers[k]
    return s, coeffs


@lru_cache(maxsize=8)
def _family_table(ctx: PrimeContext, prec: int) -> list:
    """Basis elements f_0, f_1, ... from psi at precision prec (f_m known to
    prec - m + 1), grown in pole order by ``basis_family``."""
    return [
        BasisElement(ctx, 0, QSeries.one(prec), {}),
        BasisElement(ctx, 1, psi(ctx, prec), {1: 1}),
    ]


def _grow_family(table: list, m_max: int) -> None:
    # Faber recurrence: psi * f_m = q^-(m+1) + sum_{k<=m} c_k q^-k + O(1), so
    # f_{m+1} = psi * f_m - sum c_k f_k; f_k is monic with no other pole term
    ctx, ps = table[1].ctx, table[1].series
    series = [e.series for e in table]
    while len(table) <= m_max:
        m = len(table) - 1
        r, coeffs = _eliminate(ps * series[m], series, range(m, 0, -1))
        if r.coeff(-m - 1) != 1 or any(r.coeff(-k) != 0 for k in range(1, m + 1)):
            raise ArithmeticError("basis reduction failed to normalize the principal part")
        # psi, f_k and so each c_k are integral; this guards the arithmetic
        if not r.is_integral():
            raise ArithmeticError("basis element has a non-integer coefficient")
        poly = {k + 1: c for k, c in table[m].psi_poly.items()}
        for k, c in coeffs.items():
            for d, e in table[k].psi_poly.items():
                poly[d] = poly.get(d, 0) - c * e
        table.append(BasisElement(ctx, m + 1, r, {d: e for d, e in poly.items() if e}))
        series.append(r)


def basis_family(ctx: PrimeContext, m_max: int, n: int):
    """Basis elements for pole orders 0..m_max, f_m known to n + m_max - m,
    read from the family grown on psi at precision n + m_max - 1."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    one = (BasisElement(ctx, 0, QSeries.one(n), {}),)
    if m_max == 0:
        return one
    table = _family_table(ctx, n + m_max - 1)
    _grow_family(table, m_max)
    return one + tuple(table[1 : m_max + 1])


def basis_element(ctx: PrimeContext, m: int, n: int) -> BasisElement:
    """The unique basis element with pole order m, to precision n."""
    return basis_family(ctx, m, n)[m]


_PHI_GUARD = 8  # coefficients of s beyond maxdeg, which must cancel too


def express_in_phi(ctx: PrimeContext, s: QSeries, maxdeg: int):
    """Write s as constant + polynomial in phi of degree <= maxdeg.

    s must know maxdeg + 8 coefficients (else ``PrecisionError``); the powers
    of phi come from the shared ``phi_powers`` table.  Succeeds only if the
    residual is zero to the precision of s; the first surviving exponent is
    reported otherwise.
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
    constant = s.coeff(0)
    residual, coeffs = _eliminate(
        s - constant, phi_powers(ctx, maxdeg, s.prec), range(1, maxdeg + 1)
    )
    if not residual.is_zero():
        bad = residual.val
        raise NotPolynomialError(
            f"not a phi-polynomial of degree <= {maxdeg}: residual at q^{bad}", bad
        )
    return constant, PhiPolynomial(coeffs)


def express_in_psi(ctx: PrimeContext, s: QSeries, maxdeg: int):
    """Write s as constant + polynomial in psi (no constant term in the poly),
    against powers of psi built to cover every coefficient of s."""
    if s.ram != 1:
        raise ValueError("express_in_psi requires an unramified series")
    if not s.is_zero() and s.val < -maxdeg:
        raise ValueError(f"valuation {s.val} below -maxdeg {-maxdeg}")
    ps = psi(ctx, s.prec + max(maxdeg, 1))
    residual, coeffs = _eliminate(s, _powers(ps, maxdeg, ps.prec), range(maxdeg, 0, -1))
    constant = residual.coeff(0) if residual.known(0) else 0
    residual = residual - constant
    if not residual.is_zero():
        bad = residual.val
        raise NotPolynomialError(
            f"not a psi-polynomial plus constant: residual at q^{bad}", bad
        )
    return constant, coeffs
