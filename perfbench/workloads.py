"""The three benchmark workloads, as tasks per prime.

A task is ``(label, run, check)``: ``run()`` makes the timed library calls
and returns what ``check(result, gate)`` inspects off the clock.  Checks make
no further library calls, so every timed second belongs to a task.

- ``sweep``: the Theorem 2 divisibility sweep.  Nearly all of its time is the
  big-integer kernel on long, wide operands (psi and ``basis_family``).  It
  has no random input; the seed is ignored.
- ``lattice``: the phi-lattice checks.  Many short products on phi at
  n ~ 256-500, so ``Fraction`` bookkeeping, ``QSeries.__add__``,
  ``express_in_phi``, ``PhiPolynomial`` and the power sums dominate.  The seed
  drives ``verify_up_closure``.
- ``rational``: seeded random Laurent series with genuine denominators and
  Puiseux series of ramification p, plus the ramified h-relation.  An
  integer-only fast path must leave this workload unchanged.
"""
from __future__ import annotations

import random
from fractions import Fraction

from gate import digest

PRIMES = (2, 3, 5, 7)

# Sizes are chosen so that one pass (all four primes) takes about 3-5 s on a
# 2-core Xeon VM, which lets a run take the median of many passes.
SWEEP_BASE_PREC = 768
CLOSURE_TRIALS = 10
DECOMPOSE_POLE_ORDERS = range(1, 7)
POWER_SUMS_PER_P = 2  # verify_power_sum_divisibility(ctx, 2 * p)
# Random triples per prime: many small draws keep the share of the time that
# depends on what the seed drew small.
RATIONAL_SERIES = 16
RATIONAL_LENGTH = 128  # coefficients of an unramified random series


def _num(x) -> str:
    # int and Fraction print alike, so a change of coefficient type alone
    # does not alter a digest
    return str(Fraction(x))


def sweep_tasks(qc, ctx, seed):
    p = ctx.p

    def run():
        return qc.verify_theorem2(ctx, m_max=12, d_max=3, base_prec=SWEEP_BASE_PREC)

    def check(report, gate):
        gate.check(f"sweep p={p}: report.ok", report.ok)
        gate.match(f"sweep.p{p}.cases", len(report.cases))
        rows = ((c.m, c.beta, c.n, c.observed) for c in report.cases)
        gate.match(f"sweep.p{p}.valuations", digest(rows))

    return [("verify_theorem2", run, check)]


def lattice_tasks(qc, ctx, seed):
    p = ctx.p

    def check_bj(eq, gate):
        gate.check(f"lattice p={p}: derive_bj == BJ_TABLE", eq.b == qc.BJ_TABLE[p])
        gate.match(f"lattice.p{p}.bj", list(eq.b))

    def check_closure(report, gate):
        gate.check(f"lattice p={p}: closure ok", report.ok)
        gate.check(f"lattice p={p}: closure trials", len(report.trials) == CLOSURE_TRIALS)

    def check_decompose(steps, gate):
        for d in steps:
            gate.check(f"lattice p={p}: decompose m={d.m} ok", d.ok)
        rows = (
            (d.m, _num(d.constant), d.lower_pole_order, sorted(d.degree_valuations.items()))
            for d in steps
        )
        gate.match(f"lattice.p{p}.decompositions", digest(rows))

    def check_power_sums(report, gate):
        gate.check(f"lattice p={p}: power sums ok", report.ok)
        rows = ((r.n, r.observed_t, r.required) for r in report.rows)
        gate.match(f"lattice.p{p}.power_sums", digest(rows))

    def check_hrelation(residual, gate):
        gate.check(f"lattice p={p}: h-relation residual is zero", residual.is_zero())

    return [
        ("derive_bj", lambda: qc.derive_bj(ctx, 128), check_bj),
        (
            "verify_up_closure",
            lambda: qc.verify_up_closure(ctx, trials=CLOSURE_TRIALS, deg_max=4, seed=seed),
            check_closure,
        ),
        ("decompose_up_step", lambda: [qc.decompose_up_step(ctx, m) for m in DECOMPOSE_POLE_ORDERS],
         check_decompose),
        ("verify_power_sum_divisibility",
         lambda: qc.verify_power_sum_divisibility(ctx, POWER_SUMS_PER_P * p), check_power_sums),
        ("verify_hpoly_relation", lambda: qc.verify_hpoly_relation(ctx, 128), check_hrelation),
    ]


def random_series(qc, rng, length: int, ram: int):
    """Laurent series with a nonzero leading term and denominators up to 16."""
    coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 16)) for _ in range(length)]
    while coeffs[0] == 0:
        coeffs[0] = Fraction(rng.randint(-40, 40), rng.randint(1, 16))
    val = rng.randint(-4, 4)
    return qc.QSeries(coeffs, val, val + length - 1, ram)


def rational_tasks(qc, ctx, seed):
    p = ctx.p
    rng = random.Random(seed * 1000 + p)
    triples = [
        (
            random_series(qc, rng, RATIONAL_LENGTH, 1),
            random_series(qc, rng, RATIONAL_LENGTH, 1),
            random_series(qc, rng, RATIONAL_LENGTH * p, p),  # Puiseux, w^p = q
        )
        for _ in range(RATIONAL_SERIES)
    ]

    def identities(a, b, c):
        prod = a * a.invert()
        return {
            "a * a.invert() == 1": prod == qc.QSeries.one(prod.prec),
            "u_op(dilate(a)) == a": a.dilate(p).u_op(p) == a,
            "a**3 == a*a*a": qc.agree(a**3, a * a * a),
            "(a+c)(a-c) == a^2 - c^2": qc.agree((a + c) * (a - c), a * a - c * c),
            "(a*b)*c == a*(b*c)": qc.agree((a * b) * c, a * (b * c)),
        }

    def check_identities(results, gate):
        for i, res in enumerate(results):
            for name, ok in res.items():
                gate.check(f"rational p={p} #{i}: {name}", ok)

    def check_hrelation(residual, gate):
        gate.check(f"rational p={p}: h-relation residual is zero", residual.is_zero())

    return [
        ("series identities", lambda: [identities(*t) for t in triples], check_identities),
        ("verify_hpoly_relation", lambda: qc.verify_hpoly_relation(ctx, 512), check_hrelation),
    ]


TASKS = {"sweep": sweep_tasks, "lattice": lattice_tasks, "rational": rational_tasks}
WORKLOADS = tuple(TASKS)
