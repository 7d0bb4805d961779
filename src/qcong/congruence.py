"""Valuation sweeps: the divisibility theorems, the valuation table, the
j-invariant comparison row, and the exploratory scans."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import basis_family, express_in_phi, phi_powers
from .eta import _expansion, euler_product
from .primes import PrimeContext
from .series import QSeries, val_p


def bound(ctx: PrimeContext, d: int) -> int:
    """Required valuation of a coefficient after d net decimation steps."""
    if d < 1:
        raise ValueError("d must be positive")
    return {2: 3 * d + 8, 3: 2 * d + 3, 5: d + 1, 7: d}[ctx.p]


@dataclass(frozen=True)
class CongruenceCase:
    p: int
    m: int
    m_prime: int
    alpha: int
    beta: int
    n: int
    observed: object  # valuation; math.inf for a zero coefficient
    required: int
    ok: bool
    value: int | None = None  # populated only for failing cases


@dataclass(frozen=True)
class CongruenceReport:
    ctx: PrimeContext
    base_prec: int
    cases: tuple
    ok: bool

    @property
    def failures(self):
        return tuple(c for c in self.cases if not c.ok)


def default_base_precision(ctx: PrimeContext, m_max: int, d_max: int, n_max: int) -> int:
    """Precision needed so that n_max coefficients survive the decimations."""
    alpha_max = max((val_p(m, ctx.p) for m in range(1, m_max + 1)), default=0)
    return n_max * ctx.p ** (alpha_max + d_max) + m_max + 16


def verify_theorem2(
    ctx: PrimeContext,
    m_max: int,
    d_max: int,
    n_max: int | None = None,
    base_prec: int | None = None,
) -> CongruenceReport:
    """Exact divisibility sweep over basis elements and decimation depths.

    The index n runs from 1: constant terms are exempt (the constant term of
    the pole-order-1 element already violates the stated modulus).  Given
    ``n_max``, every checked block must know n = 1..n_max, or ValueError.
    """
    p = ctx.p
    # each bound below leaves no case to check, which would read as a PASS
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    if base_prec is None:
        if n_max is None:
            raise ValueError("give either n_max or base_prec")
        base_prec = default_base_precision(ctx, m_max, d_max, n_max)
    fam = basis_family(ctx, m_max, base_prec)
    cases = []
    for m in range(1, m_max + 1):
        alpha = val_p(m, p)
        m_prime = m // p**alpha
        s = fam[m].series
        for beta in range(1, alpha + d_max + 1):
            s = s.u_op(p)
            if beta <= alpha:
                continue
            required = bound(ctx, beta - alpha)
            # a coefficient nobody computed must not count as checked
            if n_max is not None and s.prec < n_max:
                raise ValueError(
                    f"base_prec={base_prec} knows m={m}, beta={beta} only to n={s.prec} < "
                    f"n_max={n_max}; default_base_precision(ctx, {m_max}, {d_max}, {n_max}) = "
                    f"{default_base_precision(ctx, m_max, d_max, n_max)} suffices"
                )
            for n in range(1, (s.prec if n_max is None else n_max) + 1):
                c = s.coeff(n)
                observed = val_p(c, p)
                ok = observed >= required
                cases.append(
                    CongruenceCase(
                        p, m, m_prime, alpha, beta, n, observed, required, ok,
                        None if ok else c,
                    )
                )
    return CongruenceReport(ctx, base_prec, tuple(cases), all(c.ok for c in cases))


# ---------------------------------------------------------------------------
# j-invariant (needed only for the comparison row of the valuation table)


def _sigma_list(n: int, k: int):
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**k
        for mult in range(d, n + 1, d):
            out[mult] += dk
    return out


def eisenstein(weight: int, n: int) -> QSeries:
    """Normalized Eisenstein series of weight 4 or 6."""
    if weight == 4:
        factor, k = 240, 3
    elif weight == 6:
        factor, k = -504, 5
    else:
        raise ValueError("only weights 4 and 6 are supported")
    sig = _sigma_list(n, k)
    coeffs = [1] + [factor * s for s in sig[1:]]
    return QSeries(coeffs, 0, n)


def _build_j(_, n: int) -> QSeries:
    e4 = eisenstein(4, n + 2)
    delta_unit = euler_product(n + 2) ** 24
    out = (e4**3 * delta_unit.invert()).shift(-1)
    if not out.is_integral():
        raise ArithmeticError("j expansion produced a non-integer coefficient")
    return out


def j_series(n: int) -> QSeries:
    """The classical q-expansion q^{-1} + 744 + 196884 q + ..."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    return _expansion(_build_j, None, n)


def j_series_alt(n: int) -> QSeries:
    """Independent construction route (weight-6 numerator), for cross-checks."""
    e6 = eisenstein(6, n + 2)
    delta_unit = euler_product(n + 2) ** 24
    return ((e6**2 * delta_unit.invert()).shift(-1) + 1728).truncate(n)


# ---------------------------------------------------------------------------
# valuation table


@dataclass(frozen=True)
class ValuationTable:
    p: int
    row_labels: tuple  # m values, then "min", optionally "j"
    col_labels: tuple  # n values
    rows: tuple  # tuple of tuples of valuations (math.inf for zero)


def valuation_table(ctx: PrimeContext, ms, ns, include_j: bool = False) -> ValuationTable:
    ms = list(ms)
    ns = list(ns)
    if any(m < 0 for m in ms):
        raise ValueError("pole orders must be nonnegative")
    prec = max(ns)
    fam = basis_family(ctx, max(ms), prec)
    rows = []
    for m in ms:
        rows.append(tuple(val_p(fam[m].series.coeff(n), ctx.p) for n in ns))
    minrow = tuple(min(r[i] for r in rows) for i in range(len(ns)))
    labels = list(ms) + ["min"]
    rows.append(minrow)
    if include_j:
        j = j_series(prec)
        rows.append(tuple(val_p(j.coeff(n), ctx.p) for n in ns))
        labels.append("j")
    return ValuationTable(ctx.p, tuple(labels), tuple(ns), tuple(rows))


# ---------------------------------------------------------------------------
# exploratory scans (data only, nothing asserted)


def scan_alpha_gt_beta(ctx: PrimeContext, m_max: int, n_max: int):
    """Valuations v_p(a(m, p^beta n)) for beta up to v_p(m); rows (m, beta, n, v)."""
    # a range with no (m, n) at all would read as an empty result
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p = ctx.p
    ms = [m for m in range(1, m_max + 1) if m % p == 0]
    if not ms:
        return []
    fam = basis_family(ctx, m_max, default_base_precision(ctx, m_max, 0, n_max))
    rows = []
    for m in ms:
        alpha = val_p(m, p)
        s = fam[m].series
        for beta in range(0, alpha + 1):
            if beta:
                s = s.u_op(p)
            for n in range(1, n_max + 1):
                if n % p == 0 or not s.known(n):
                    continue
                rows.append((m, beta, n, val_p(s.coeff(n), p)))
    return rows


def scan_phi_powers(ctx: PrimeContext, pow_max: int, d_max: int, n_max: int):
    """Valuations of coefficients of U_p^beta phi^k; rows (k, beta, n, v)."""
    if pow_max < 0:
        raise ValueError("pow_max must be nonnegative")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = []
    for k, s in enumerate(phi_powers(ctx, pow_max, default_base_precision(ctx, 0, d_max, n_max))):
        for beta in range(0, d_max + 1):
            if beta:
                s = s.u_op(ctx.p)
            for n in range(1, n_max + 1):
                if not s.known(n):
                    continue
                rows.append((k, beta, n, val_p(s.coeff(n), ctx.p)))
    return rows


# ---------------------------------------------------------------------------
# one-step decomposition of U_p on a basis element


@dataclass(frozen=True)
class UpStepDecomposition:
    ctx: PrimeContext
    m: int
    constant: int
    lower_pole_order: int | None  # m/p when p | m, else None
    degree_valuations: dict  # phi-degree -> valuation
    floors: dict  # phi-degree -> predicted floor lam*i/2 - 1
    ok: bool


def decompose_up_step(ctx: PrimeContext, m: int) -> UpStepDecomposition:
    """One U_p application on a basis element, split as constant
    (+ lower basis element when p divides m) + phi-polynomial with
    per-degree valuation floors lam*i/2 - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    p = ctx.p
    base_prec = max(256, p * (m + 24))
    # psi at precision base_prec whatever m is, so that the pole orders share
    # one growing family; f_m is known to base_prec - m + 1
    fam = basis_family(ctx, m, base_prec - m + 1)
    s = fam[m].series.u_op(p)
    lower = None
    if m % p == 0:
        lower = m // p
        s = s - fam[lower].series
    constant, poly = express_in_phi(ctx, s, max(m, 1))
    vals = {}
    floors = {}
    ok = True
    for k, c in sorted(poly.coeffs.items()):
        v = val_p(c, p)
        vals[k] = v
        floors[k] = ctx.lam * k // 2 - 1
        if v < floors[k]:
            ok = False
    return UpStepDecomposition(ctx, m, constant, lower, vals, floors, ok)
