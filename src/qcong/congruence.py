"""Valuation sweeps: the divisibility theorems, the valuation table, the
j-invariant comparison row, and the exploratory scans.

The divisibility sweep reads the basis mod p^K, p^K >= 2^64, from
``basis._residue_family``, and the exact coefficient only where a residue is
0 or the case fails; every other reader takes the exact ``basis_family``.
The sweep and the scans read U_p^beta of a series through one reader,
``_decimations``, which yields the coefficients at n = 1 .. top of each
decimation as one slice.  Both families of the basis are built in
``basis`` alone."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat

from .basis import _residue_family, _up_precision, basis_family, express_in_phi
from .eta import _eta_power, phi_powers
from .primes import GENUS_ZERO_PRIMES, PrimeContext
from .series import PrecisionError, QSeries, _val_p_int, val_p


def bound(ctx: PrimeContext, d: int) -> int:
    """Required valuation of a coefficient after d net decimation steps."""
    if d < 1:
        raise ValueError("d must be positive")
    if ctx.p not in GENUS_ZERO_PRIMES:
        raise ValueError(f"bound is not defined for p={ctx.p}")
    return {2: 3 * d + 8, 3: 2 * d + 3, 5: d + 1, 7: d}[ctx.p]


@dataclass(slots=True)
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


_RESIDUE_BITS = 64  # the sweep's modulus p^K: the least with p^K >= 2^64


def _decimations(s: QSeries, p: int, beta_max: int, n_max: int | None):
    """For beta = 0 .. beta_max, the coefficients at n = 1 .. top of
    U_p^beta s as one zero-padded slice, top = min(n_max, prec), or prec
    when n_max is None."""
    for beta in range(beta_max + 1):
        if beta:
            s = s.u_op(p)
        top = s.prec if n_max is None else min(n_max, s.prec)
        lead = min(max(s.val - 1, 0), top)
        yield (0,) * lead + s.coeffs[max(1 - s.val, 0) : max(top + 1 - s.val, 0)]


def verify_theorem2(
    ctx: PrimeContext,
    m_max: int,
    d_max: int,
    n_max: int | None = None,
    base_prec: int | None = None,
) -> CongruenceReport:
    """Exact divisibility sweep over basis elements and decimation depths,
    read from residues mod p^K: v_p(c) = v_p(c mod p^K) unless p^K | c.  A
    residue 0 (v_p >= K, undecided) or a failing case, whose ``value`` is the
    exact coefficient, reruns it on the exact ``basis_family``.

    The index n runs from 1: constant terms are exempt (the constant term of
    the pole-order-1 element already violates the stated modulus).  Given
    ``n_max``, every checked block must know n = 1..n_max, or PrecisionError.
    """
    p = ctx.p
    # each bound below leaves no case to check, which would read as a PASS
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    bounds = {d: bound(ctx, d) for d in range(1, d_max + 1)}  # p = 13 raises here
    if base_prec is None:
        if n_max is None:
            raise ValueError("give either n_max or base_prec")
        base_prec = default_base_precision(ctx, m_max, d_max, n_max)
    # a coefficient nobody computed must not count as checked: f_m is known
    # to base_prec + m_max - m, and each U_p floor-divides that by p
    for m in range(1, m_max + 1):
        alpha = val_p(m, p)
        for beta in range(alpha + 1, alpha + d_max + 1):
            known = (base_prec + m_max - m) // p**beta
            if n_max is not None and known < n_max:
                raise PrecisionError(
                    f"base_prec={base_prec} knows m={m}, beta={beta} only to n={known} "
                    f"< n_max={n_max}; default_base_precision(ctx, {m_max}, {d_max}, "
                    f"{n_max}) = {default_base_precision(ctx, m_max, d_max, n_max)} suffices"
                )
    modulus = p
    while modulus < 1 << _RESIDUE_BITS:
        modulus *= p
    for exact in (False, True):
        if exact:
            fam = [e.series for e in basis_family(ctx, m_max, base_prec)]
        else:
            fam = _residue_family(ctx, m_max, base_prec, modulus)
        cases = []
        ok = decided = True
        for m in range(1, m_max + 1):
            alpha = val_p(m, p)
            m_prime = m // p**alpha
            for beta, run in enumerate(_decimations(fam[m], p, alpha + d_max, n_max)):
                if beta <= alpha:
                    continue
                required = bounds[beta - alpha]
                vals = list(map(_val_p_int, run, repeat(p)))  # math.inf for c = 0
                decided = decided and math.inf not in vals
                ok = ok and min(vals, default=required) >= required
                cases += [CongruenceCase(p, m, m_prime, alpha, beta, n, v, required,
                                         v >= required, None if v >= required else c)
                          for n, v, c in zip(count(1), vals, run)]
        # a residue 0 decides nothing, and a failure reports the exact value
        if ok and decided:
            break
    return CongruenceReport(ctx, base_prec, tuple(cases), ok)


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
    if n < 0:
        raise ValueError("precision must be nonnegative")
    sig = _sigma_list(n, k)
    coeffs = [1] + [factor * s for s in sig[1:]]
    return QSeries(coeffs, 0, n)


def j_series(n: int) -> QSeries:
    """The classical q-expansion q^{-1} + 744 + 196884 q + ..."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    # 1/Delta = q^-1 E^-24, by Miller's recurrence
    return (eisenstein(4, n + 2) ** 3 * QSeries(_eta_power(-24, n + 2))).shift(-1).truncate(n)


def j_series_alt(n: int) -> QSeries:
    """Independent construction route (weight-6 numerator), for cross-checks."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    e6 = eisenstein(6, n + 2)
    return ((e6**2 * QSeries(_eta_power(-24, n + 2))).shift(-1) + 1728).truncate(n)


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
        for beta, run in enumerate(_decimations(fam[m].series, p, val_p(m, p), n_max)):
            rows += [(m, beta, n, _val_p_int(c, p)) for n, c in enumerate(run, 1) if n % p]
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
        for beta, run in enumerate(_decimations(s, ctx.p, d_max, n_max)):
            rows += [(k, beta, n, _val_p_int(c, ctx.p)) for n, c in enumerate(run, 1)]
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
    ok: bool  # each valuation at degree k is at least lam k/2 - 1


def decompose_up_step(ctx: PrimeContext, m: int) -> UpStepDecomposition:
    """One U_p application on a basis element, split as constant
    (+ lower basis element when p divides m) + phi-polynomial with
    per-degree valuation floors lam*k/2 - 1.  f_m is known to p (m + 8),
    the least precision that proves the split."""
    if m < 1:
        raise ValueError("m must be positive")
    p = ctx.p
    fam = basis_family(ctx, m, _up_precision(p, m))
    s = fam[m].series.u_op(p)
    lower = m // p if m % p == 0 else None
    if lower:
        s = s - fam[lower].series
    constant, poly = express_in_phi(ctx, s, m)
    vals = {k: val_p(c, p) for k, c in sorted(poly.coeffs.items())}
    ok = all(v >= ctx.lam * k // 2 - 1 for k, v in vals.items())
    return UpStepDecomposition(ctx, m, constant, lower, vals, ok)
