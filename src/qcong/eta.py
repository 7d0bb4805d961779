"""Eta products, the level-p Hauptmoduln, and numeric cusp checks.

The fractional q^{1/24} prefactor of eta always cancels in the quotients used
here (the net q-exponent is the integer -1), so eta enters the exact path only
through its stripped Euler product E = prod (1 - q^k), whose integral powers
come from J. C. P. Miller's recurrence on E's pentagonal support: no Newton
iteration runs here.  The one non-exact path is the numeric evaluation on the
upper half-plane used for the cusp-relation check.
"""
from __future__ import annotations

import cmath

from .primes import PrimeContext
from .series import QSeries, mul_int_lists


def _pentagonal(n: int):
    """(g, e_g) for each nonzero coefficient e_g q^g of E with 1 <= g <= n,
    g ascending: the pentagonal numbers k (3k -+ 1) / 2, e_g = (-1)^k (Euler)."""
    k = 1
    while (g := k * (3 * k - 1) // 2) <= n:
        yield g, (-1) ** k
        if g + k <= n:
            yield g + k, (-1) ** k
        k += 1


def euler_product(n: int) -> QSeries:
    """prod_{k>=1} (1 - q^k) to precision n, via the pentagonal-number support."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    coeffs = [1] + [0] * n
    for g, e in _pentagonal(n):
        coeffs[g] = e
    return QSeries(coeffs, 0, n)


def _eta_power(a: int, n: int) -> list:
    """E^a to q^n as n + 1 ints, by J. C. P. Miller's recurrence over the
    pentagonal support of E: m f_m = sum_g ((a + 1) g - m) e_g f_(m-g) (Knuth,
    TAOCP vol. 2, 4.7), whose division by m is exact, or ArithmeticError."""
    terms = [(g, (a + 1) * g * e, e) for g, e in _pentagonal(n)]
    f = [1] + [0] * n
    top = 0  # terms[:top] are the g <= m; at most one enters per m
    for m in range(1, n + 1):
        top += top < len(terms) and terms[top][0] == m
        t = 0
        for g, c, e in terms[:top]:
            t += (c - e * m) * f[m - g]
        f[m], r = divmod(t, m)
        if r:
            raise ArithmeticError(f"E^{a}: the division by {m} is not exact")
    return f


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
    """psi to precision n, and beyond where its inputs determine it, as
    (E (1/E)(q^p))^lam: 1/E is Euler's partition recurrence, Miller's at
    a = -1, on the t/p + 1 terms of E, not on the t terms of E(q^p)."""
    t = n + 2
    ep_inv = QSeries(_eta_power(-1, t // ctx.p + 1)).dilate(ctx.p)
    return ((euler_product(t) * ep_inv) ** ctx.lam).shift(-1)


def psi(ctx: PrimeContext, n: int) -> QSeries:
    """The Hauptmodul q^{-1} + O(1): (eta(tau)/eta(p tau))^lam."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    return _longest(("psi", ctx), n, lambda: _build_psi(ctx, n)).truncate(n)


def _build_phi(ctx: PrimeContext, n: int) -> QSeries:
    """phi = q E^(-lam) E(q^p)^lam from two recurrences and one product: it
    builds neither psi nor a reciprocal.  It reaches n + 4, as 1/psi from psi
    to n + 2 does, so that a request up to n + 4 reads it from the store."""
    t = n + 3
    ep = [0] * (t + 1)
    ep[:: ctx.p] = _eta_power(ctx.lam, t // ctx.p)
    return QSeries(mul_int_lists(_eta_power(-ctx.lam, t), ep, t + 1), 1)


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
