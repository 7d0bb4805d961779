"""The canonical pole-order basis and polynomial extraction in psi / phi.

Basis elements q^{-m} + O(1) are built by the Faber recurrence: the principal
part of psi * f_m is cleared greedily against f_m, ..., f_1, each of which has
the single pole term q^{-k}, so the reduction is triangular and never needs a
linear solve.  The family and the powers of phi are tables grown on demand.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .eta import phi, psi
from .primes import PrimeContext
from .series import PrecisionError, QSeries


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
    """q^{-m} + O(1), together with its integer polynomial in psi."""

    ctx: PrimeContext
    m: int
    series: QSeries
    psi_poly: dict = field(default_factory=dict)  # degree -> int, monic, no constant


def _powers(t: QSeries, k: int, prec: int) -> list:
    """t^0 .. t^k of a Hauptmodul t, each truncated at precision prec."""
    powers = [QSeries.one(prec), t.truncate(prec)]
    while len(powers) <= k:
        powers.append((powers[-1] * t).truncate(prec))
    return powers[: k + 1]


_phi_tables: dict = {}  # level -> [phi^0, phi^1, ...]


def phi_powers(ctx: PrimeContext, k: int, n: int) -> tuple:
    """phi^0 .. phi^k, each truncated at precision n, read from the table at
    this level.  Only entries shorter than n are rebuilt, as phi^(i-1) * phi
    with phi at n, and each keeps the precision that product determines,
    n + i - 1.  So a later request at n + j for the powers above phi^j, as
    ``PhiPolynomial.evaluate`` makes, is served without a product.  A power
    whose valuation k lies beyond n is zero to precision n."""
    ph = phi(ctx, n)
    table = _phi_tables.setdefault(ctx, [])
    for i in range(k + 1):
        if i == len(table) or table[i].prec < n:
            t = table[i - 1] * ph if i > 1 else ph if i else QSeries.one(n)
            table[i : i + 1] = [t]  # replaces entry i, or appends it
    return tuple(t.truncate(n) if t.val <= n else QSeries.zero(n) for t in table[: k + 1])


def _eliminate(s: QSeries, powers, degrees):
    """Clear the leading term of each monic powers[k] from s, in the order
    of degrees, one series per cleared term; returns the residual and
    {k: c} with s = residual + sum c * powers[k]."""
    coeffs = {}
    for k in degrees:
        c = s.coeff(powers[k].val)
        if c:
            coeffs[k] = c
            s = s._plus(-c, powers[k])
    return s, coeffs


def _faber_step(ps: QSeries, fam: list) -> BasisElement:
    """f_m for m = len(fam), from psi and fam = [f_0, ..., f_{m-1}]."""
    # Faber recurrence: psi * f_{m-1} = q^-m + sum_{k<m} c_k q^-k + O(1), so
    # f_m = psi * f_{m-1} - sum c_k f_k; f_k is monic with no other pole term
    ctx, m = fam[0].ctx, len(fam)
    if m == 1:
        return BasisElement(ctx, 1, ps, {1: 1})
    series = [e.series for e in fam]
    r, coeffs = _eliminate(ps * series[m - 1], series, range(m - 1, 0, -1))
    if r.coeff(-m) != 1 or any(r.coeff(-k) != 0 for k in range(1, m)):
        raise ArithmeticError("basis reduction failed to normalize the principal part")
    # psi, f_k and so each c_k are integral; this guards the arithmetic
    if not r.is_integral():
        raise ArithmeticError("basis element has a non-integer coefficient")
    poly = {k + 1: c for k, c in fam[m - 1].psi_poly.items()}
    for k, c in coeffs.items():
        for d, e in fam[k].psi_poly.items():
            poly[d] = poly.get(d, 0) - c * e
    return BasisElement(ctx, m, r, {d: e for d, e in poly.items() if e})


_families: dict = {}  # level -> [None, f_1, f_2, ...]


def basis_family(ctx: PrimeContext, m_max: int, n: int):
    """Basis elements for pole orders 0..m_max, f_m known to n + m_max - m,
    read from the family at this level.  Each f_m there stays at the longest
    precision asked of it, and only entries shorter than asked are rebuilt."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    out = [BasisElement(ctx, 0, QSeries.one(n), {})]
    prec = n + m_max - 1  # of psi; f_m is known to prec - m + 1
    ps = psi(ctx, prec) if m_max else None
    table = _families.setdefault(ctx, [None])
    for m in range(1, m_max + 1):
        if m == len(table) or table[m].series.prec < prec - m + 1:
            table[m : m + 1] = [_faber_step(ps, out)]  # replaces f_m, or appends it
        e = table[m]
        out.append(BasisElement(ctx, m, e.series.truncate(prec - m + 1), e.psi_poly))
    return tuple(out)


def basis_element(ctx: PrimeContext, m: int, n: int) -> BasisElement:
    """The unique basis element with pole order m, to precision n."""
    return basis_family(ctx, m, n)[m]


_PHI_GUARD = 8  # coefficients of s beyond maxdeg, which must cancel too


def _express(s: QSeries, powers, degrees, shape: str):
    """Clear s against powers in the order of degrees, degree 0 being the
    constant 1; returns the constant and {k: c} of the other degrees, or
    raises if a residual survives to the precision of s."""
    residual, coeffs = _eliminate(s, powers, degrees)
    if not residual.is_zero():
        bad = residual.val
        raise NotPolynomialError(f"not a {shape}: residual at q^{bad}", bad)
    return coeffs.pop(0, 0), coeffs


def express_in_phi(ctx: PrimeContext, s: QSeries, maxdeg: int):
    """Write s as constant + polynomial in phi of degree <= maxdeg.

    s must know maxdeg + 8 coefficients (else ``PrecisionError``); the powers
    of phi come from the shared ``phi_powers`` table.  Succeeds only if the
    residual is zero to the precision of s; the first surviving exponent is
    reported otherwise.  ``PhiPolynomial`` takes ints only, so where s has a
    Fraction coefficient and a nonconstant polynomial, this raises ``TypeError``.
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
    constant, coeffs = _express(
        s, phi_powers(ctx, maxdeg, s.prec), range(maxdeg + 1),
        f"phi-polynomial of degree <= {maxdeg}",
    )
    return constant, PhiPolynomial(coeffs)


def express_in_psi(ctx: PrimeContext, s: QSeries, maxdeg: int):
    """Write s as constant + polynomial in psi (no constant term in the poly),
    against powers of psi built to cover every coefficient of s.  s must know
    its constant (else ``PrecisionError``)."""
    if s.ram != 1:
        raise ValueError("express_in_psi requires an unramified series")
    if not s.is_zero() and s.val < -maxdeg:
        raise ValueError(f"valuation {s.val} below -maxdeg {-maxdeg}")
    ps = psi(ctx, s.prec + max(maxdeg, 1))
    return _express(
        s, _powers(ps, maxdeg, ps.prec), range(maxdeg, -1, -1), "psi-polynomial plus constant"
    )
