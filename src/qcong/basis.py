"""The canonical pole-order basis and polynomial extraction in psi / phi.

Basis elements q^{-m} + O(1) are built by greedy elimination of the principal
part of psi^m: psi^k has exact valuation -k, so the reduction is triangular
and never needs a linear solve.
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

    def evaluate(self, series: QSeries) -> QSeries:
        """Horner evaluation on a q-series."""
        if not self.coeffs:
            return QSeries.zero(series.prec, series.ram)
        acc = QSeries.zero(series.prec - series.val, series.ram)
        for k in range(self.degree, -1, -1):
            acc = acc * series + self.coeffs.get(k, 0)
        return acc


@dataclass(frozen=True)
class BasisElement:
    """q^{-m} + O(1), together with its integer polynomial in psi."""

    ctx: PrimeContext
    m: int
    series: QSeries
    psi_poly: dict = field(default_factory=dict)  # degree -> int, monic, no constant


def _powers(t: QSeries, k: int, prec: int) -> tuple:
    """t^0 .. t^k of a Hauptmodul t, each truncated at precision prec."""
    powers = [QSeries.one(prec), t.truncate(prec)]
    while len(powers) <= k:
        powers.append((powers[-1] * t).truncate(prec))
    return tuple(powers[: k + 1])


@lru_cache(maxsize=32)
def phi_powers(ctx: PrimeContext, k: int, n: int) -> tuple:
    """phi^0 .. phi^k, each truncated at precision n."""
    return _powers(phi(ctx, n), k, n)


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
def _basis_family_cached(ctx: PrimeContext, m_max: int, n: int):
    elements = [BasisElement(ctx, 0, QSeries.one(n), {})]
    if m_max == 0:
        return tuple(elements)
    ps = psi(ctx, n + m_max - 1)
    powers = _powers(ps, m_max, ps.prec)
    for m in range(1, m_max + 1):
        r, coeffs = _eliminate(powers[m], powers, range(m - 1, 0, -1))
        if r.coeff(-m) != 1 or any(r.coeff(-k) != 0 for k in range(1, m)):
            raise ArithmeticError("basis reduction failed to normalize the principal part")
        # psi^m - sum c_k psi^k is integral only if every c_k is (psi is monic)
        if not r.is_integral():
            raise ArithmeticError("basis element has a non-integer coefficient")
        poly = {m: 1} | {k: -c for k, c in coeffs.items()}
        elements.append(BasisElement(ctx, m, r, poly))
    return tuple(elements)


def basis_family(ctx: PrimeContext, m_max: int, n: int):
    """Basis elements for pole orders 0..m_max, sharing one psi expansion."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    return _basis_family_cached(ctx, m_max, n)


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
