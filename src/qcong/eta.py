"""Eta products, the level-p Hauptmoduln, and numeric cusp checks.

The fractional q^{1/24} prefactor of eta always cancels in the quotients used
here (the net q-exponent is the integer -1), so eta enters the exact path only
through its stripped Euler product.  The one non-exact path is the numeric
evaluation on the upper half-plane used for the cusp-relation check.
"""
from __future__ import annotations

import cmath

from .primes import PrimeContext
from .series import QSeries


def euler_product(n: int) -> QSeries:
    """prod_{k>=1} (1 - q^k) to precision n, via the pentagonal-number support."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n:
            break
        sign = -1 if k % 2 else 1
        coeffs[g1] = sign
        if g2 <= n:
            coeffs[g2] = sign
        k += 1
    return QSeries(coeffs, 0, n)


_kept: dict = {}  # key -> the longest value built under it


def _longest(key, n: int, build):
    """The value kept under key, or build() kept in its place when the kept
    one is not known to precision n.  Every per-level table (psi, phi, j,
    the powers of phi, the basis family) is kept here by this one rule: a
    shorter value is a truncation of a longer one, so only a request beyond
    it builds again.  A builder returns every coefficient its inputs
    determine, which may reach beyond n."""
    out = _kept.get(key)
    if out is None or out.prec < n:
        out = _kept[key] = build()
    return out


def _build_psi(ctx: PrimeContext, n: int) -> QSeries:
    """psi to precision n, and beyond where its inputs determine it.  The
    inverse of E(q^p) is (1/E)(q^p): Newton runs on the t/p + 1 terms of E,
    not on the t terms of E(q^p), of which all but every p-th are zero."""
    t = n + 2
    e = euler_product(t)
    ep_inv = euler_product(t // ctx.p + 1).invert().dilate(ctx.p)
    unit = (e * ep_inv) ** ctx.lam
    out = unit.shift(-1)
    if not out.is_integral():
        raise ArithmeticError("hauptmodul expansion produced a non-integer coefficient")
    return out


def psi(ctx: PrimeContext, n: int) -> QSeries:
    """The Hauptmodul q^{-1} + O(1): (eta(tau)/eta(p tau))^lam."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    return _longest(("psi", ctx), n, lambda: _build_psi(ctx, n)).truncate(n)


def _build_phi(ctx: PrimeContext, n: int) -> QSeries:
    out = psi(ctx, n + 2).invert()
    if not out.is_integral():
        raise ArithmeticError("hauptmodul inverse produced a non-integer coefficient")
    return out


def phi(ctx: PrimeContext, n: int) -> QSeries:
    """The reciprocal Hauptmodul q + O(q^2)."""
    if n < 1:
        raise ValueError("precision must be at least 1")
    return _longest(("phi", ctx), n, lambda: _build_phi(ctx, n)).truncate(n)


# ---------------------------------------------------------------------------
# numeric path (double precision; only used for cusp checks)


def eta_eval(tau: complex) -> complex:
    """Numeric eta(tau) = e^{2 pi i tau / 24} prod (1 - e^{2 pi i n tau})."""
    tol = 1e-20
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("eta_eval requires Im(tau) > 0")
    q = cmath.exp(2j * cmath.pi * tau)
    prod = 1 + 0j
    qn = 1 + 0j
    for _ in range(200000):
        qn *= q
        if abs(qn) < tol:
            break
        prod *= 1 - qn
    return cmath.exp(2j * cmath.pi * tau / 24) * prod


def psi_eval(ctx: PrimeContext, tau: complex) -> complex:
    return (eta_eval(tau) / eta_eval(ctx.p * tau)) ** ctx.lam


def phi_eval(ctx: PrimeContext, tau: complex) -> complex:
    return 1 / psi_eval(ctx, tau)


def check_cusp_relation(ctx: PrimeContext, tau: complex) -> float:
    """|psi(-1/(p tau)) - p^{lam/2} phi(tau)| at the given point, divided by
    max(1, |p^{lam/2} phi(tau)|) so that round-off does not grow with the
    values compared."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("check_cusp_relation requires Im(tau) > 0")
    try:
        lhs = psi_eval(ctx, -1 / (ctx.p * tau))
        rhs = ctx.p ** (ctx.lam / 2) * phi_eval(ctx, tau)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        # an eta value underflows to 0, a power overflows, or p tau does: -1/(p tau) is then 0
        raise ValueError(f"tau={tau} is beyond double range: {exc}") from exc
    return abs(lhs - rhs) / max(1.0, abs(rhs))
