"""End-to-end acceptance checks.

Each test covers one headline guarantee, prints a single pass/fail line, and
enforces its runtime budget where one is part of the contract.
"""
import math
import random
import time
from fractions import Fraction

from qcong import congruence
from qcong.basis import PhiPolynomial, basis_element
from qcong.congruence import decompose_up_step, valuation_table, verify_theorem2
from qcong.eta import check_cusp_relation, psi, psi_eval
from qcong.hecke import (
    derive_bj,
    power_sums,
    verify_hpoly_relation,
    verify_power_sum_divisibility,
    verify_up_closure,
)
from qcong.primes import GENUS_ZERO_PRIMES, PrimeContext
from qcong.series import QSeries, agree


def _report(label, ok, start):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({time.perf_counter() - start:.2f}s)"
    print(line)
    return time.perf_counter() - start


def test_01_printed_level2_expansions():
    start = time.perf_counter()
    ctx = PrimeContext(2)
    ok = [int(psi(ctx, 4).coeff(n)) for n in range(-1, 5)] == [
        1, -24, 276, -2048, 11202, -49152,
    ]
    f2 = basis_element(ctx, 2, 4)
    ok = ok and f2.psi_poly == {2: 1, 1: 48}
    ok = ok and [int(f2.series.coeff(n)) for n in range(-2, 5)] == [
        1, 0, -24, -4096, 98580, -1228800, 10745856,
    ]
    f3 = basis_element(ctx, 3, 4)
    ok = ok and f3.psi_poly == {3: 1, 2: 72, 1: 900}
    ok = ok and [int(f3.series.coeff(n)) for n in range(-3, 5)] == [
        1, 0, 0, -96, 33606, -1843200, 43434816, -648216576,
    ]
    elapsed = _report("acceptance-01 printed expansions", ok, start)
    assert ok and elapsed < 1.0


def test_02_modular_equation_coefficients():
    start = time.perf_counter()
    expected = {
        2: (12, 1024),
        3: (30, 2916, 59049),
        5: (63, 6500, 196875, 2343750, 9765625),
        7: (82, 8624, 289835, 4571504, 37882978, 161414428, 282475249),
    }
    ok = all(derive_bj(PrimeContext(p), 128).b == expected[p] for p in GENUS_ZERO_PRIMES)
    elapsed = _report("acceptance-02 modular equation", ok, start)
    assert ok and elapsed < 5.0


def test_03_level2_valuation_table():
    start = time.perf_counter()
    table = valuation_table(
        PrimeContext(2), [1, 3, 5, 7], [2, 4, 6, 8, 10, 12], include_j=True
    )
    rows = dict(zip(table.row_labels, table.rows))
    ok = (
        rows[1] == (11, 14, 13, 17, 12, 16)
        and rows[3] == (13, 16, 15, 19, 14, 18)
        and rows[5] == (12, 15, 14, 18, 13, 17)
        and rows[7] == (14, 17, 16, 20, 15, 19)
        and rows["min"] == (11, 14, 13, 17, 12, 16)
        and rows["j"] == rows["min"]
    )
    elapsed = _report("acceptance-03 valuation table", ok, start)
    assert ok and elapsed < 5.0


def test_04_divisibility_sweep(monkeypatch):
    # every case is decided from the residues mod p^K: the exact family, which
    # a residue 0 or a failing case would build, is never called
    exact, basis_family = [], congruence.basis_family
    monkeypatch.setattr(congruence, "basis_family",
                        lambda *args: exact.append(args) or basis_family(*args))
    start = time.perf_counter()
    ok = True
    for p in GENUS_ZERO_PRIMES:
        base_prec = 4096 if p == 2 else 2048
        report = verify_theorem2(PrimeContext(p), m_max=12, d_max=3, base_prec=base_prec)
        ok = ok and report.ok and len(report.cases) > 0
    elapsed = _report("acceptance-04 divisibility sweep", ok, start)
    assert ok and elapsed < 120.0
    assert exact == []


def test_05_algebraic_relation():
    start = time.perf_counter()
    ok = all(
        verify_hpoly_relation(PrimeContext(p), 128).is_zero() for p in GENUS_ZERO_PRIMES
    )
    elapsed = _report("acceptance-05 algebraic relation", ok, start)
    assert ok and elapsed < 10.0


def test_06_power_sums():
    start = time.perf_counter()
    eq2 = derive_bj(PrimeContext(2))
    ok = power_sums(eq2, 1)[-1] == PhiPolynomial({1: 2**16 * 3, 2: 2**24})
    ok = ok and power_sums(eq2, 2)[-1] == PhiPolynomial(
        {1: 2**25, 2: 2**32 * 9, 3: 2**41 * 3, 4: 2**48}
    )
    eq3 = derive_bj(PrimeContext(3))
    ok = ok and power_sums(eq3, 1)[-1] == PhiPolynomial(
        {1: 3**9 * 10, 2: 3**14 * 4, 3: 3**18}
    )
    ok = ok and power_sums(eq3, 2)[-1] == PhiPolynomial(
        {1: 3**14 * 8, 2: 3**19 * 34, 3: 3**23 * 80, 4: 3**27 * 68, 5: 3**32 * 8, 6: 3**36}
    )
    ok = ok and power_sums(eq3, 3)[-1] == PhiPolynomial(
        {
            1: 3**19, 2: 3**24 * 40, 3: 3**27 * 1174, 4: 3**34 * 136,
            5: 3**37 * 581, 6: 3**44 * 16, 7: 3**46 * 58, 8: 3**51 * 4, 9: 3**54,
        }
    )
    for p in GENUS_ZERO_PRIMES:
        ok = ok and verify_power_sum_divisibility(PrimeContext(p), 2 * p).ok
    elapsed = _report("acceptance-06 power sums", ok, start)
    assert ok and elapsed < 10.0


def test_07_lattice_closure():
    start = time.perf_counter()
    ok = all(
        verify_up_closure(PrimeContext(p), trials=100, deg_max=4, seed=0).ok
        for p in GENUS_ZERO_PRIMES
    )
    elapsed = _report("acceptance-07 lattice closure", ok, start)
    assert ok and elapsed < 60.0


def test_08_cusp_relation_numeric():
    start = time.perf_counter()
    ok = True
    for p in GENUS_ZERO_PRIMES:
        ctx = PrimeContext(p)
        for tau in (1j, complex(1 / 3, 1), 1j / math.sqrt(p)):
            ok = ok and check_cusp_relation(ctx, tau) < 1e-8
    ok = ok and abs(psi_eval(PrimeContext(2), 1j / math.sqrt(2)) - 64) < 1e-8
    _report("acceptance-08 cusp relation", ok, start)
    assert ok


def test_09_decimation_step_structure():
    start = time.perf_counter()
    ok = True
    for p in GENUS_ZERO_PRIMES:
        for m in range(1, 13):
            ok = ok and decompose_up_step(PrimeContext(p), m).ok
    dec = decompose_up_step(PrimeContext(2), 1)
    ok = ok and dec.constant == -24 and dec.lower_pole_order is None
    ok = ok and dec.degree_valuations == {1: 11}  # -24 - 2^11 phi
    _report("acceptance-09 decimation structure", ok, start)
    assert ok


def test_10_property_suites():
    start = time.perf_counter()

    def rand_series(rng):
        return QSeries(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)],
            rng.randint(-4, 4),
        )

    ok = True
    rng = random.Random(20260825)
    for _ in range(200):  # ring axioms
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        ok = ok and agree((a + b) + c, a + (b + c))
        ok = ok and agree(a * b, b * a)
        ok = ok and agree(a * (b + c), a * b + a * c)
    for _ in range(200):  # refinement monotonicity
        stream = [Fraction(rng.randint(-9, 9)) for _ in range(24)]
        v = rng.randint(-3, 3)
        lo, hi = QSeries(stream[:12], v), QSeries(stream, v)
        other = rand_series(rng)
        for f in (lambda x: x + other, lambda x: x * other, lambda x: x.dilate(2)):
            s, t = f(lo), f(hi)
            ok = ok and all(s.coeff(n) == t.coeff(n) for n in range(s.val, s.prec + 1))
    for _ in range(200):  # invert round trip
        a = rand_series(rng)
        if a.is_zero():
            continue
        prod = a * a.invert()
        ok = ok and prod.coeff(0) == 1
        ok = ok and all(prod.coeff(n) == 0 for n in range(1, prod.prec + 1))
    for _ in range(200):  # decimation undoes dilation
        a = rand_series(rng)
        q = rng.choice([2, 3, 5, 7])
        back = a.dilate(q).u_op(q)
        ok = ok and all(back.coeff(n) == a.coeff(n) for n in range(a.val, a.prec + 1))
    _report("acceptance-10 property suites", ok, start)
    assert ok
