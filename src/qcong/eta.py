"""Eta products, the level-p Hauptmoduln, and numeric cusp checks.

The fractional q^{1/24} prefactor of eta always cancels in the quotients used
here (the net q-exponent is the integer -1), so eta enters the exact path only
through E = prod (1 - q^k), with no Newton iteration: E^-a by J. C. P. Miller's
recurrence on E's pentagonal support, E^lam as one product of two sparse
supports, E's and Jacobi's cube E^3, squared, and psi from ``_psi_factors``,
E^lam and E^-lam(q^p).  The powers of phi are kept in the one store ``_kept``,
read only by ``phi_powers``.  The one non-exact path is the numeric evaluation
on the upper half-plane used for the cusp-relation check.
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


def _jacobi_cube(n: int):
    """(g, c) for each nonzero coefficient c q^g of E^3 with g <= n, g ascending: the
    triangular numbers k (k + 1) / 2, c = (-1)^k (2k + 1) (Jacobi; Hardy and Wright, Thm 357)."""
    k = 0
    while (g := k * (k + 1) // 2) <= n:
        yield g, (-1) ** k * (2 * k + 1)
        k += 1


def _euler_power(a: int, n: int) -> list:
    """E^a to q^n as n + 1 ints, a = r 2^s: E^r = E E, E^3 E or E^3 E^3 is one product of two
    sparse supports, E's and Jacobi's cube, then squared s times.  a is some lam, or KeyError."""
    r, s = {2: (2, 0), 4: (4, 0), 6: (6, 0), 12: (6, 1), 24: (6, 2)}[a]
    e, cube = [(0, 1), *_pentagonal(n)], list(_jacobi_cube(n))
    f = [0] * (n + 1)
    for g, c in cube if r > 2 else e:
        for h, d in cube if r == 6 else e:
            if g + h > n:
                break
            f[g + h] += c * d
    for _ in range(s):
        f = mul_int_lists(f, f, n + 1)
    return f


def _psi_factors(ctx: PrimeContext, n: int) -> tuple:
    """E^lam and E^-lam(q^p) to q^t, t = n + 1, whose product is q psi to q^t: the second is
    Miller's recurrence on the t/p + 1 terms of E, not on the t + 1 of E(q^p)."""
    t = n + 1
    ep = [0] * (t + 1)
    ep[:: ctx.p] = _eta_power(-ctx.lam, t // ctx.p)
    return _euler_power(ctx.lam, t), ep


def psi(ctx: PrimeContext, n: int) -> QSeries:
    """The Hauptmodul q^{-1} + O(1): (eta(tau)/eta(p tau))^lam, from ``_psi_factors``."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    return QSeries(mul_int_lists(*_psi_factors(ctx, n), n + 2), -1)


def _build_phi(ctx: PrimeContext, n: int) -> QSeries:
    """phi = q E^(-lam) E(q^p)^lam from Miller's recurrence, ``_euler_power`` and
    one product: it builds neither psi nor a reciprocal.  It reaches n + 4, so that a
    request up to n + 4 reads it from the store."""
    t = n + 3
    ep = [0] * (t + 1)
    ep[:: ctx.p] = _euler_power(ctx.lam, t // ctx.p)
    return QSeries(mul_int_lists(_eta_power(-ctx.lam, t), ep, t + 1), 1)


# (ctx, i) -> phi^i, i >= 1, the longest built: one pass of each benchmark
# workload read these back 696 times, and never psi, j or a basis element,
# which are therefore built at each call.
_kept: dict = {}


def phi_powers(ctx: PrimeContext, k: int, n: int) -> tuple:
    """phi^0 .. phi^k, each truncated at precision n, from the store.  Only a
    power kept shorter than n is rebuilt: phi by ``_build_phi``, phi^i as
    phi^(i-1) * phi with phi at n, known to n + i - 1, so that a later request
    at n + j for the powers above phi^j, as ``PhiPolynomial.evaluate`` makes,
    multiplies nothing.  A power whose valuation lies beyond n is zero there."""
    if n < 1:
        raise ValueError("precision must be at least 1")
    kept = [QSeries.one(n)]
    for i in range(1, k + 1):
        t = _kept.get((ctx, i))
        if t is None or t.prec < n:
            # phi^2 = phi * phi, the same operand, reaches the kernel as a square
            t = _kept[ctx, i] = _build_phi(ctx, n) if i == 1 else kept[-1] * kept[1]
        kept.append(t.truncate(n) if i == 1 else t)
    return tuple(t.truncate(n) if t.val <= n else QSeries.zero(n) for t in kept[: k + 1])


def phi(ctx: PrimeContext, n: int) -> QSeries:
    """The reciprocal Hauptmodul q + O(q^2)."""
    return phi_powers(ctx, 1, n)[1]


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
