"""The modular equation for phi, Newton power sums, the algebraic relation of
h = p^{lam/2} phi(tau/p), and the phi-lattice closure checks."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import add

from .basis import NotPolynomialError, PhiPolynomial, _up_precision, express_in_phi
from .eta import phi, phi_powers
from .primes import GENUS_ZERO_PRIMES, PrimeContext
from .series import PrecisionError, QSeries, _school_mul, _val_p_int

# reference values for the modular-equation coefficients b_j, used as an
# independent cross-check of the exact derivation
BJ_TABLE = {
    2: (12, 1024),
    3: (30, 2916, 59049),
    5: (63, 6500, 196875, 2343750, 9765625),
    7: (82, 8624, 289835, 4571504, 37882978, 161414428, 282475249),
}


@dataclass(frozen=True)
class ModularEquation:
    ctx: PrimeContext
    b: tuple  # b_1 .. b_p, integers


@dataclass(frozen=True)
class RpReport:
    member: bool
    t: object  # largest t with poly in p^t * lattice; math.inf for zero
    per_degree: dict  # degree -> valuation of that coefficient


def derive_bj(ctx: PrimeContext, n: int | None = None) -> ModularEquation:
    """Recover the integers b_j from U_p phi = p * sum b_j phi^j, exactly,
    from phi known to n, by default the least precision that proves them,
    p (p + 8) (below it ``PrecisionError``); a larger n gives the same b_j.
    Only the benchmark's lattice workload and the tests set n."""
    p, least = ctx.p, _up_precision(ctx.p, ctx.p)
    n = least if n is None else n
    if n < least:
        raise PrecisionError(f"precision must be at least {least}")
    constant, poly = express_in_phi(ctx, phi(ctx, n).u_op(p), p)
    if constant != 0:
        raise ArithmeticError("U_p phi unexpectedly has a constant term")
    b = []
    for j in range(1, p + 1):
        c, r = divmod(poly[j], p)
        if r:
            raise ArithmeticError(f"b_{j} is not an integer; precision too low?")
        b.append(c)
    return ModularEquation(ctx, tuple(b))


def g_poly(eq: ModularEquation, j: int) -> PhiPolynomial:
    """The coefficient polynomial attached to index j in the algebraic relation
    satisfied by p^{lam/2} phi(tau/p)."""
    ctx = eq.ctx
    p = ctx.p
    if not 1 <= j <= p:
        raise ValueError(f"j must lie in [1, {p}]")
    sign = 1 if (j + 1) % 2 == 0 else -1
    scale = sign * p ** (ctx.lam // 2 + 2)
    return PhiPolynomial({ell - j + 1: scale * eq.b[ell - 1] for ell in range(j, p + 1)})


def power_sums(eq: ModularEquation, n_max: int) -> list:
    """Power sums 1..n_max of the roots of the modular equation, in one pass of
    Newton's identities s_k = sum_j (-1)^(j+1) g_j s_(k-j) + (-1)^(k+1) k g_k
    on int lists indexed by phi-degree, each product by the schoolbook kernel."""
    if n_max < 1:
        raise ValueError("n must be positive")
    p = eq.ctx.p
    g = [None] + [[(-1) ** (j + 1) * c for c in map(g_poly(eq, j).__getitem__, range(p + 2 - j))]
                  for j in range(1, p + 1)]  # (-1)^(j+1) g_j, of degree p + 1 - j
    sums = [None]  # 1-indexed; s_k has degree k p
    for k in range(1, n_max + 1):
        acc = [0] * (k * p + 1)
        for j in range(1, min(k, p) + 1):  # j = k is the correction term
            term = _school_mul(g[j], sums[k - j]) if j < k else [k * c for c in g[k]]
            acc[: len(term)] = map(add, acc, term)
        sums.append(acc)
    return [PhiPolynomial(dict(enumerate(s))) for s in sums[1:]]


def rp_report(ctx: PrimeContext, poly: PhiPolynomial) -> RpReport:
    """Per-degree divisibility bookkeeping against the lattice exponents gamma:
    the p-adic valuation of each (int) coefficient, by ``_val_p_int``."""
    if poly.constant != 0:
        raise ValueError("lattice membership is defined for constant-free polynomials")
    per_degree = {k: _val_p_int(c, ctx.p) for k, c in sorted(poly.coeffs.items())}
    t = min((v - ctx.gamma(k) for k, v in per_degree.items()), default=math.inf)
    return RpReport(t >= 0, t, per_degree)


@dataclass(frozen=True)
class PowerSumRow:
    n: int
    observed_t: object
    required: int
    ok: bool


@dataclass(frozen=True)
class PowerSumReport:
    ctx: PrimeContext
    rows: tuple
    ok: bool


def power_sum_target(ctx: PrimeContext, n: int) -> int:
    """Lower bound on the extra power of p carried by the n-th power sum."""
    if ctx.p not in GENUS_ZERO_PRIMES:
        raise ValueError(f"power_sum_target is not defined for p={ctx.p}")
    return {2: 4 * n + 12, 3: 2 * n + 7, 5: 2 * n + 2, 7: n + 2}[ctx.p]


def verify_power_sum_divisibility(ctx: PrimeContext, n_max: int) -> PowerSumReport:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    targets = [power_sum_target(ctx, n) for n in range(1, n_max + 1)]  # p = 13 raises here
    rows = []
    for n, s in enumerate(power_sums(derive_bj(ctx), n_max), start=1):
        rep = rp_report(ctx, s)
        required = targets[n - 1]
        rows.append(PowerSumRow(n, rep.t, required, rep.t >= required))
    return PowerSumReport(ctx, tuple(rows), all(r.ok for r in rows))


def verify_hpoly_relation(ctx: PrimeContext, n: int = 128) -> QSeries:
    """Left-hand side of the algebraic relation satisfied by
    h = p^{lam/2} phi(tau/p), written in q by tau -> p tau: h^k becomes
    p^{lam k/2} phi^k, read from the shared ``phi_powers`` table, and each
    g_j(phi) is dilated by p.  The b_j are exact at ``derive_bj``'s own
    precision, whatever n is.  Zero to precision n iff the relation holds."""
    p = ctx.p
    powers = phi_powers(ctx, p, n)  # first, so that phi at n serves the b_j too
    eq = derive_bj(ctx)
    scale = p ** (ctx.lam // 2)
    lhs = powers[p] * scale**p
    for j in range(1, p + 1):
        # g_j known to n // p in q is known to (n // p + 1) p - 1 >= n once dilated
        g = g_poly(eq, j).evaluate(ctx, max(n // p, 1)).dilate(p)
        term = g * (powers[p - j] * scale ** (p - j))
        lhs = lhs + term if j % 2 == 0 else lhs - term
    return lhs


@dataclass(frozen=True)
class ClosureTrial:
    index: int
    poly: PhiPolynomial
    observed_t: object
    ok: bool
    error: str | None = None


@dataclass(frozen=True)
class ClosureBasisRow:
    k: int  # of the basis vector p^gamma(k) phi^k
    t: object  # lattice t of its image; None when the image is no polynomial
    slack: object  # t - delta
    j: int | None  # lowest phi-degree at which the minimum t occurs
    agree: bool  # the series and Newton routes give the same image


@dataclass(frozen=True)
class ClosureReport:
    ctx: PrimeContext
    trials: tuple
    ok: bool
    basis: tuple  # one ClosureBasisRow per k = 1 .. deg_max


def verify_up_closure(ctx: PrimeContext, trials: int = 100, deg_max: int = 4,
                      seed: int = 0) -> ClosureReport:
    """U_p maps L_D = {sum_{k<=D} c_k phi^k : v_p(c_k) >= gamma(k)} into p^delta L, proved
    by the D images U_p(p^gamma(k) phi^k), each read in phi by the series route and equal
    to the Newton route, power_sums[k] / p^(lam k/2 + 1).  Trials are their combinations.
    phi is known to p (p D + 8), the least that proves every image, and the b_j are
    derived at ``derive_bj``'s own precision."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if deg_max < 1:
        raise ValueError("deg_max must be positive")
    p = ctx.p
    powers = phi_powers(ctx, deg_max, _up_precision(p, p * deg_max))
    try:
        sums = power_sums(derive_bj(ctx), deg_max)
    except (ArithmeticError, NotPolynomialError):  # U_p phi is not p times a polynomial
        sums = [None] * deg_max
    images, errors, basis = {}, {}, []  # k -> (constant, polynomial) of U_p phi^k; k -> text
    for k in range(1, deg_max + 1):
        try:
            constant, image = images[k] = express_in_phi(ctx, powers[k].u_op(p), p * deg_max)
        except NotPolynomialError as exc:
            errors[k] = str(exc)
            basis.append(ClosureBasisRow(k, None, None, None, False))
            continue
        rep = rp_report(ctx, image * p ** ctx.gamma(k))
        j = min(rep.per_degree, key=lambda e: rep.per_degree[e] - ctx.gamma(e), default=None)
        agree = constant == 0 and image * p ** (ctx.lam * k // 2 + 1) == sums[k - 1]
        basis.append(ClosureBasisRow(k, rep.t, rep.t - ctx.delta, j, agree))
    results = []
    for i in range(trials):
        rng = random.Random(seed * 1000003 + i)  # split per trial for determinism
        d = [0]
        while not any(d):
            d = [rng.randint(-9, 9) for _ in range(deg_max)]
        poly = PhiPolynomial({k: d[k - 1] * p ** ctx.gamma(k) for k in range(1, deg_max + 1)})
        terms = poly.coeffs.items()
        error = next((errors[k] for k, _ in terms if k in errors), None)
        if error is not None or sum(c * images[k][0] for k, c in terms):
            results.append(ClosureTrial(i, poly, None, False, error or "nonzero constant"))
            continue
        t = rp_report(ctx, sum((images[k][1] * c for k, c in terms), PhiPolynomial())).t
        results.append(ClosureTrial(i, poly, t, t >= ctx.delta))
    ok = all(t.ok for t in results) and all(r.agree and r.slack >= 0 for r in basis)
    return ClosureReport(ctx, tuple(results), ok, tuple(basis))
