import math
from collections import Counter, defaultdict

import pytest

from qcong.congruence import (
    bound,
    decompose_up_step,
    default_base_precision,
    eisenstein,
    j_series,
    j_series_alt,
    scan_alpha_gt_beta,
    scan_phi_powers,
    valuation_table,
    verify_theorem2,
)
from qcong import basis, eta
from qcong.basis import basis_element
from qcong.primes import PrimeContext
from qcong.series import agree, val_p


class TestBound:
    def test_reference_values(self):
        assert bound(PrimeContext(2), 1) == 11
        assert bound(PrimeContext(3), 3) == 9
        assert bound(PrimeContext(7), 2) == 2
        assert bound(PrimeContext(5), 4) == 5

    def test_slopes(self):
        slopes = {2: 3, 3: 2, 5: 1, 7: 1}
        for p, s in slopes.items():
            ctx = PrimeContext(p)
            assert bound(ctx, 6) - bound(ctx, 5) == s

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bound(PrimeContext(2), 0)


class TestTheorem2:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_small_sweep_passes(self, p):
        report = verify_theorem2(PrimeContext(p), m_max=6, d_max=2, n_max=20)
        assert report.ok
        assert report.failures == ()
        assert len(report.cases) > 0

    def test_case_bookkeeping(self):
        report = verify_theorem2(PrimeContext(2), m_max=4, d_max=1, n_max=5)
        # m = 4 has alpha = 2, so its first checked decimation depth is beta = 3
        betas = {c.beta for c in report.cases if c.m == 4}
        assert betas == {3}
        c = next(c for c in report.cases if c.m == 4)
        assert c.alpha == 2 and c.m_prime == 1 and c.required == 11
        assert c.value is None  # values stored only on failure

    def test_constant_terms_must_be_exempt(self):
        # the n = 0 coefficient genuinely violates the stated modulus
        ctx = PrimeContext(2)
        u = basis_element(ctx, 1, 64).series.u_op(ctx.p)
        assert val_p(u.coeff(0), 2) < bound(ctx, 1)

    def test_deep_valuation_example(self):
        # v_2(a(1, 2)) = v_2(-2048) = 11, exactly the d = 1 bound
        report = verify_theorem2(PrimeContext(2), m_max=1, d_max=1, n_max=1)
        (case,) = report.cases
        assert case.observed == 11 and case.required == 11 and case.ok

    def test_requires_some_precision_argument(self):
        with pytest.raises(ValueError):
            verify_theorem2(PrimeContext(2), m_max=2, d_max=1)

    @pytest.mark.parametrize(
        "m_max, d_max, n_max", [(0, 1, 5), (2, 0, 5), (2, 1, 0), (-1, 1, 5), (2, 1, -4)]
    )
    def test_rejects_a_range_without_cases(self, m_max, d_max, n_max):
        with pytest.raises(ValueError):
            verify_theorem2(PrimeContext(7), m_max=m_max, d_max=d_max, n_max=n_max)

    def test_rejects_n_max_beyond_the_known_coefficients(self):
        # at base_prec 128 and p = 7, beta = 2 knows n <= 2 and beta = 3 nothing
        with pytest.raises(ValueError, match=r"m=1, beta=2 .*default_base_precision"):
            verify_theorem2(PrimeContext(7), m_max=3, d_max=3, n_max=10, base_prec=128)
        report = verify_theorem2(PrimeContext(7), m_max=3, d_max=1, n_max=10, base_prec=128)
        assert {c.n for c in report.cases} == set(range(1, 11))


class TestLehnerDirect:
    """Pole orders below p (the CLI's ``verify lehner``)."""

    def test_level5(self):
        report = verify_theorem2(PrimeContext(5), m_max=2, d_max=1, n_max=30)
        assert report.ok
        assert all(c.required == 2 for c in report.cases if c.beta == 1)

    def test_level7(self):
        report = verify_theorem2(PrimeContext(7), m_max=3, d_max=1, n_max=30)
        assert report.ok
        assert all(c.required == 1 for c in report.cases if c.beta == 1)


class TestJSeries:
    def test_leading_coefficients(self):
        j = j_series(2)
        assert j.coeff(-1) == 1
        assert j.coeff(0) == 744
        assert j.coeff(1) == 196884
        assert j.coeff(2) == 21493760

    def test_rejects_negative_precision(self):
        with pytest.raises(ValueError, match="nonnegative"):
            j_series(-1)

    def test_two_routes_agree(self):
        assert agree(j_series(200), j_series_alt(200))

    def test_eisenstein_leading_terms(self):
        e4 = eisenstein(4, 3)
        assert [int(e4.coeff(n)) for n in range(4)] == [1, 240, 2160, 6720]
        e6 = eisenstein(6, 2)
        assert [int(e6.coeff(n)) for n in range(3)] == [1, -504, -16632]

    def test_rejects_other_weights(self):
        with pytest.raises(ValueError):
            eisenstein(8, 4)


class TestValuationTable:
    def test_level2_reference_table(self):
        table = valuation_table(
            PrimeContext(2), [1, 3, 5, 7], [2, 4, 6, 8, 10, 12], include_j=True
        )
        rows = dict(zip(table.row_labels, table.rows))
        assert rows[1] == (11, 14, 13, 17, 12, 16)
        assert rows[3] == (13, 16, 15, 19, 14, 18)
        assert rows[5] == (12, 15, 14, 18, 13, 17)
        assert rows[7] == (14, 17, 16, 20, 15, 19)
        assert rows["min"] == (11, 14, 13, 17, 12, 16)
        assert rows["j"] == rows["min"]

    def test_without_j_row(self):
        table = valuation_table(PrimeContext(3), [1, 2], [3, 6])
        assert table.row_labels == (1, 2, "min")
        assert len(table.rows) == 3

    def test_rejects_negative_pole_order(self):
        # fam[-1] would silently read the last basis element
        with pytest.raises(ValueError, match="nonnegative"):
            valuation_table(PrimeContext(2), [3, -1], [1, 2, 3])
        # the constant f_0 = 1 stays a valid row
        table = valuation_table(PrimeContext(2), [0, 1], [1, 2])
        assert table.rows[0] == (math.inf, math.inf)


class TestScans:
    def test_alpha_scan_deterministic(self):
        a = scan_alpha_gt_beta(PrimeContext(2), 8, 10)
        b = scan_alpha_gt_beta(PrimeContext(2), 8, 10)
        assert a == b
        assert all(n % 2 == 1 for (_, _, n, _) in a)

    def test_alpha_scan_empty_when_no_multiples(self):
        assert scan_alpha_gt_beta(PrimeContext(7), 6, 10) == []

    def test_phi_power_scan_shape(self):
        rows = scan_phi_powers(PrimeContext(3), 2, 1, 5)
        ks = {k for (k, _, _, _) in rows}
        assert ks == {0, 1, 2}
        # the constant series contributes only zero coefficients past n = 0
        assert all(v == math.inf for (k, _, _, v) in rows if k == 0)
        assert all(v >= 0 for (_, _, _, v) in rows)


class TestDecomposeUpStep:
    def test_level2_order1(self):
        dec = decompose_up_step(PrimeContext(2), 1)
        assert dec.constant == -24
        assert dec.lower_pole_order is None
        assert dec.degree_valuations == {1: 11}
        assert dec.floors == {1: 11}
        assert dec.ok

    def test_lower_element_split(self):
        dec = decompose_up_step(PrimeContext(2), 2)
        assert dec.lower_pole_order == 1
        assert dec.ok

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_pole_order_below_one(self, m):
        with pytest.raises(ValueError, match="m must be positive"):
            decompose_up_step(PrimeContext(2), m)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_floors_hold_for_small_orders(self, p):
        for m in range(1, 7):
            assert decompose_up_step(PrimeContext(p), m).ok

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pole_orders_share_one_psi_expansion(self, p, monkeypatch):
        # from empty tables, m = 1..6 build one psi and one family from it,
        # and express_in_phi, whose inputs shorten as m grows, reads every
        # phi^k from one table; each f_m and each phi^k is built once
        for table in ("_families", "_phi_tables"):
            monkeypatch.setattr(basis, table, {})
        monkeypatch.setattr(eta, "_built", {})
        builds = Counter()
        for module, name in ((eta, "_build_psi"), (eta, "_build_phi")):

            def counted(*args, _build=getattr(module, name), _name=name):
                builds[_name] += 1
                return _build(*args)

            monkeypatch.setattr(module, name, counted)
        ctx = PrimeContext(p)
        entries = defaultdict(dict)  # (table, index) -> {id: each entry it held}
        for m in range(1, 7):
            decompose_up_step(ctx, m)
            for table in ("_families", "_phi_tables"):
                for k, t in enumerate(getattr(basis, table)[ctx]):
                    entries[table, k][id(t)] = t
        assert builds == {"_build_psi": 1, "_build_phi": 1}
        assert sorted(entries) == [(t, k) for t in ("_families", "_phi_tables") for k in range(7)]
        assert all(len(built) == 1 for built in entries.values())


def test_default_base_precision_scales_with_depth():
    ctx = PrimeContext(3)
    lo = default_base_precision(ctx, 4, 1, 10)
    hi = default_base_precision(ctx, 4, 2, 10)
    assert hi > lo
    assert lo == 10 * 3**2 + 4 + 16  # alpha_max = 1 for m_max = 4
