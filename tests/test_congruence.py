import dataclasses
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qcong import basis, congruence, eta, series
from qcong.basis import basis_element, basis_family
from qcong.eta import phi_powers
from qcong.primes import PrimeContext
from qcong.series import agree, val_p


def test_exploratory_p13_raises_before_building_psi(monkeypatch):
    # p = 13 has no bound: the sweep refuses it before any series is built
    def no_psi(*args):
        raise AssertionError("psi was built")

    monkeypatch.setattr(eta, "_kept", {})
    monkeypatch.setattr(eta, "_psi_factors", no_psi)  # both families start from these
    ctx = PrimeContext(13, exploratory=True)
    for call in (lambda: bound(ctx, 1), lambda: verify_theorem2(ctx, 2, 1, base_prec=64)):
        with pytest.raises(ValueError, match="bound is not defined for p=13"):
            call()


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
        with pytest.raises(ValueError, match="exactly one of n_max and base_prec"):
            verify_theorem2(PrimeContext(2), m_max=2, d_max=1)

    @pytest.mark.parametrize(
        "m_max, d_max, n_max", [(0, 1, 5), (2, 0, 5), (2, 1, 0), (-1, 1, 5), (2, 1, -4)]
    )
    def test_rejects_a_range_without_cases(self, m_max, d_max, n_max):
        with pytest.raises(ValueError):
            verify_theorem2(PrimeContext(7), m_max=m_max, d_max=d_max, n_max=n_max)

    def test_n_max_alone_knows_every_block(self):
        # default_base_precision(ctx, 3, 3, 10) = 10 * 7^3 + 3 + 16 = 3449 knows
        # n = 1 .. 10 at beta = 3, where base_prec 128 would know nothing
        report = verify_theorem2(PrimeContext(7), m_max=3, d_max=3, n_max=10)
        assert report.ok and report.base_prec == 3449
        blocks = defaultdict(list)
        for c in report.cases:
            blocks[c.m, c.beta].append(c.n)
        assert sorted(blocks) == [(m, beta) for m in (1, 2, 3) for beta in (1, 2, 3)]
        assert all(ns == list(range(1, 11)) for ns in blocks.values())

    def test_rejects_n_max_before_building_psi(self, monkeypatch):
        # n_max and base_prec each size the sweep alone, so both together are
        # refused, even a base_prec that knows every block, before psi's
        # factors, which the exact psi and the residue family both start
        # from, or any basis element is built
        def build(*args):
            raise AssertionError("psi built")

        monkeypatch.setattr(eta, "_kept", {})
        monkeypatch.setattr(eta, "_psi_factors", build)
        for p, base_prec in ((7, 128), (7, 3449), (2, 4096)):
            with pytest.raises(ValueError, match="^give exactly one of n_max and base_prec$"):
                verify_theorem2(PrimeContext(p), m_max=3, d_max=3, n_max=10, base_prec=base_prec)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), m_max=st.integers(1, 40), d_max=st.integers(1, 4),
       n_max=st.integers(1, 64))
def test_default_base_precision_knows_every_block(p, m_max, d_max, n_max):
    # the invariant that lets the sweep take n_max alone: f_m is known to
    # base_prec + m_max - m, each U_p floor-divides that by p, and the deepest
    # checked decimation of f_m, beta = v_p(m) + d_max, still knows n_max
    base_prec = default_base_precision(PrimeContext(p), m_max, d_max, n_max)
    for m in range(1, m_max + 1):
        assert (base_prec + m_max - m) // p ** (val_p(m, p) + d_max) >= n_max, m


class TestResidueSweep:
    """The sweep reads valuations from the family mod p^K, the largest p^K
    whose Kronecker limb is two 64-bit words, and falls back to the exact
    family where the residues cannot decide."""

    @pytest.mark.parametrize("p, k", [(2, 57), (3, 35), (5, 24), (7, 20)])
    def test_residues_are_the_exact_family_mod_p_to_the_k(self, p, k, monkeypatch):
        ctx = PrimeContext(p)
        moduli = []
        residue_modulus = basis._residue_modulus

        def spy(p, size):
            moduli.append(residue_modulus(p, size))
            return moduli[-1]

        monkeypatch.setattr(basis, "_residue_modulus", spy)
        # the benchmark's sweep: m_max = 12 at base_prec 768, runs q^-1 .. q^779
        verify_theorem2(ctx, m_max=12, d_max=3, base_prec=768)
        assert moduli == [p**k]
        limb = basis._residue_limb
        assert limb(p**k, 781) <= basis._RESIDUE_BITS == 128 < limb(p ** (k + 1), 781)
        # the limb is two words at the benchmark's size and at acceptance
        # size, 4096 at p = 2 and 2048 otherwise, m_max = 12
        for size in (781, (4096 if p == 2 else 2048) + 13):
            assert series._ks2_limb(limb(residue_modulus(p, size), size))[0] == 16
        # m <= 13 includes pole orders divisible by p; an even f_m starts from
        # a kept square, an odd one by polarization, and an odd m_max = 2i + 1
        # squares f_(i+1) for its last step only; n = 0, 1, 2 give the shortest
        # operands, n = 768 the length the benchmark times
        for m_max in (1, 2, 3, 12, 13):
            for n in (0, 1, 2, 64, 768):
                moduli.clear()
                residues = basis._residue_family(ctx, m_max, n)
                assert moduli == [residue_modulus(p, n + m_max + 1)]
                assert len(residues) == m_max + 1
                for m, e in enumerate(basis_family(ctx, m_max, n)[1:], start=1):
                    assert (residues[m].val, residues[m].prec) == (-m, e.series.prec)
                    assert residues[m].coeffs == tuple(c % moduli[0] for c in e.series.coeffs)

    @pytest.mark.parametrize("p", [3, 7])
    def test_residues_read_no_bit_of_a_square_from_keep_on(self, p, monkeypatch):
        # each square is formed only mod 2^keep, keep the bits the unpack reads and
        # one for the polarization's >> 1: adding any multiple of 2^keep to each,
        # different at the two points, leaves every residue as it was
        ctx = PrimeContext(p)
        low_square = series._low_square
        rng = random.Random(p)
        monkeypatch.setattr(basis, "_low_square",
                            lambda x, keep: low_square(x, keep) + (rng.randint(-9, 9) << keep))
        for m_max, n in ((3, 0), (12, 64), (13, 65), (12, 768)):
            modulus = basis._residue_modulus(p, n + m_max + 1)
            residues = basis._residue_family(ctx, m_max, n)
            for m, e in enumerate(basis_family(ctx, m_max, n)[1:], start=1):
                assert residues[m].coeffs == tuple(c % modulus for c in e.series.coeffs)

    @pytest.mark.parametrize("modulus", [2**64, 7**23])
    def test_packed_combination_at_the_largest_residues(self, modulus):
        # the limb of the residue family, whose rule holds at any modulus
        # (7^23 > 2^64 too); 1023 is the longest run that shares it with the
        # benchmark's 781, both giving bit_length(2 size) = 11
        size, m = 1023, 12
        bits = 2 * (modulus - 1).bit_length() + (2 * size).bit_length() + 2
        top = [modulus - 1] * size
        packed = series._ks2_pack(top, bits, size)
        terms = [(modulus - 1, m - k, packed) for k in range(m - 1, 0, -1)]
        # every operand, f_k and c_k at modulus - 1 gives the largest kept
        # coefficients; zero operands under the same terms, the most negative
        for a in (top, [0] * size):
            a_packed = series._ks2_pack(a, bits, size)
            got = series._ks2_combine([x * x for x in a_packed], terms, bits, size)
            want = series._school_mul(a, a, size)
            for c, shift, _ in terms:
                want[shift:] = [x - c * y for x, y in zip(want[shift:], top)]
            assert got == want
            assert [x % modulus for x in got] == [x % modulus for x in want]

    @pytest.mark.parametrize("modulus", [2**64, 7**22])
    def test_polarized_product_at_the_largest_residues(self, modulus):
        # an odd step's f_i f_j from the kept squares at the same limb,
        # ((P_i + P_j)^2 - S_i - S_j) >> 1 at each point: the sum's square
        # reaches twice the kept width, but the identity is exact, so only
        # the combination's kept coefficients must fit the limb
        size, m = 1023, 13
        bits = 2 * (modulus - 1).bit_length() + (2 * size).bit_length() + 2
        top = [modulus - 1] * size
        packed = series._ks2_pack(top, bits, size)
        terms = [(modulus - 1, m - k, packed) for k in range(m - 1, 0, -1)]
        for f, g in ((top, top), (top, [0] * size), ([0] * size, [0] * size)):
            pf, pg = series._ks2_pack(f, bits, size), series._ks2_pack(g, bits, size)
            squares = [[x * x for x in pf], [y * y for y in pg]]
            product = [((x + y) ** 2 - u - v) >> 1 for x, y, u, v in zip(pf, pg, *squares)]
            assert product == [x * y for x, y in zip(pf, pg)]
            got = series._ks2_combine(product, terms, bits, size)
            want = series._school_mul(f, g, size)
            for c, shift, _ in terms:
                want[shift:] = [x - c * y for x, y in zip(want[shift:], top)]
            assert got == want

    def test_a_zero_residue_falls_back_to_the_same_report(self, monkeypatch):
        ctx = PrimeContext(2)
        calls = []
        exact_family = congruence.basis_family
        monkeypatch.setattr(
            congruence, "basis_family", lambda *args: calls.append(args) or exact_family(*args)
        )
        report = verify_theorem2(ctx, m_max=6, d_max=2, base_prec=128)
        assert calls == []
        # the benchmark's sweep decides every case from residues: an undecided
        # one would silently rerun the whole sweep on the exact family
        for p in (2, 3, 5, 7):
            assert verify_theorem2(PrimeContext(p), m_max=12, d_max=3, base_prec=768).ok
        assert calls == []
        # no limb fits one bit, so the rule falls to modulus p = 2, and mod 2
        # every checked coefficient reads 0: v_2 >= 1 decides nothing
        monkeypatch.setattr(basis, "_RESIDUE_BITS", 1)
        assert verify_theorem2(ctx, m_max=6, d_max=2, base_prec=128) == report
        assert calls == [(ctx, 6, 128)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("raise_bound", [0, 2])
    def test_every_row_matches_the_exact_family(self, p, raise_bound, monkeypatch):
        # raised by 2, the bound splits runs into passing and failing rows
        bound = congruence.bound
        monkeypatch.setattr(congruence, "bound", lambda ctx, d: bound(ctx, d) + raise_bound)
        ctx = PrimeContext(p)
        report = verify_theorem2(ctx, m_max=6, d_max=2, base_prec=256)
        fam = basis_family(ctx, 6, 256)
        want = []
        for m in range(1, 7):
            alpha = val_p(m, p)
            s = fam[m].series
            for beta in range(1, alpha + 3):
                s = s.u_op(p)
                if beta <= alpha:
                    continue
                required = bound(ctx, beta - alpha) + raise_bound
                for n in range(1, s.prec + 1):
                    c = s.coeff(n)
                    v = val_p(c, p)
                    ok = v >= required
                    want.append((p, m, m // p**alpha, alpha, beta, n, v, required, ok,
                                 None if ok else c))
        names = [f.name for f in dataclasses.fields(congruence.CongruenceCase)]
        assert names == ["p", "m", "m_prime", "alpha", "beta", "n", "observed", "required",
                         "ok", "value"]
        assert [tuple(getattr(c, name) for name in names) for c in report.cases] == want
        assert report.ok == all(row[8] for row in want) == (raise_bound == 0)
        if raise_bound:
            runs = defaultdict(set)
            for c in report.cases:
                runs[c.m, c.beta].add(c.ok)
            assert {True, False} in runs.values()
        # the benchmark's gate perturbs a case and the report through replace
        case = dataclasses.replace(report.cases[0], observed=-1)
        assert case.observed == -1 and report.cases[0].observed != -1
        assert dataclasses.replace(report, cases=(case,)).cases == (case,)

    def test_failing_cases_carry_the_exact_coefficient(self, monkeypatch):
        ctx = PrimeContext(2)
        bound = congruence.bound
        monkeypatch.setattr(congruence, "bound", lambda ctx, d: bound(ctx, d) + 1000)
        report = verify_theorem2(ctx, m_max=4, d_max=1, base_prec=256)
        assert not report.ok and len(report.failures) == len(report.cases)
        fam = basis_family(ctx, 4, 256)
        for c in report.failures:
            s = fam[c.m].series
            for _ in range(c.beta):
                s = s.u_op(2)
            assert c.value == s.coeff(c.n) and c.observed == val_p(s.coeff(c.n), 2)
        assert max(abs(c.value) for c in report.failures) >= 2**64

    def test_a_wrong_leading_residue_raises(self, monkeypatch):
        # both families start from psi's two factors: doubling the first
        # doubles psi, exact or mod p^K
        factors = eta._psi_factors

        def doubled(ctx, n):
            a, b = factors(ctx, n)
            return [2 * c for c in a], b

        monkeypatch.setattr(eta, "_psi_factors", doubled)
        with pytest.raises(ArithmeticError, match="principal part"):
            verify_theorem2(PrimeContext(3), m_max=2, d_max=1, base_prec=64)
        # the exact family takes the same guard
        with pytest.raises(ArithmeticError, match="principal part"):
            basis_family(PrimeContext(3), 2, 64)


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

    @pytest.mark.parametrize("build", [j_series, j_series_alt, lambda n: eisenstein(4, n)],
                             ids=["j_series", "j_series_alt", "eisenstein"])
    @pytest.mark.parametrize("n", [-1, -2])
    def test_rejects_negative_precision(self, build, n):
        # each route refuses bad input with one message, rather than return
        # a short series that looks like a result
        with pytest.raises(ValueError, match="precision must be nonnegative"):
            build(n)

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

    @staticmethod
    def _read(s, p, beta_max, n_max):
        """(beta, n, v_p) for each n = 1 .. n_max that U_p^beta s knows, by
        explicit U_p steps and one coefficient at a time."""
        rows = []
        for beta in range(beta_max + 1):
            if beta:
                s = s.u_op(p)
            rows += [(beta, n, val_p(s.coeff(n), p)) for n in range(1, n_max + 1) if n <= s.prec]
        return rows

    @pytest.mark.parametrize("p, m_max", [(2, 8), (3, 9)])
    def test_alpha_scan_reads_every_decimation(self, p, m_max):
        ctx = PrimeContext(p)
        fam = basis_family(ctx, m_max, default_base_precision(ctx, m_max, 0, 32))
        want = [
            (m, beta, n, v)
            for m in range(p, m_max + 1, p)
            for beta, n, v in self._read(fam[m].series, p, val_p(m, p), 32)
            if n % p
        ]
        assert scan_alpha_gt_beta(ctx, m_max, 32) == want

    # p = 2 with 20 powers: at base precision 17 (d_max 0, n_max 1) phi^18 ..
    # phi^20 are zero, and at 24 (d_max 1, n_max 4) U_2 phi^k starts past n = 4
    @pytest.mark.parametrize("p, pow_max, d_max, n_max", [
        (7, 3, 2, 32), (2, 20, 0, 1), (2, 20, 1, 4),
    ])
    def test_phi_power_scan_reads_every_decimation(self, p, pow_max, d_max, n_max):
        ctx = PrimeContext(p)
        powers = phi_powers(ctx, pow_max, default_base_precision(ctx, 0, d_max, n_max))
        want = [(k, *row) for k, s in enumerate(powers) for row in self._read(s, p, d_max, n_max)]
        assert scan_phi_powers(ctx, pow_max, d_max, n_max) == want

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
        # the one valuation meets its floor lam/2 - 1 = 11 exactly
        assert dec.degree_valuations[1] == PrimeContext(2).lam // 2 - 1
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
        # each m asks for its family at the rule, f_m known to p (m + 8), and
        # builds f_1 .. f_m from one psi: one psi build, m - 1 Faber steps
        built = []
        for mod, name in ((eta, "_psi_factors"), (basis, "_faber_step")):
            monkeypatch.setattr(mod, name, lambda *a, f=getattr(mod, name), name=name:
                                built.append(name) or f(*a))
        asked = []
        family = congruence.basis_family
        monkeypatch.setattr(congruence, "basis_family",
                            lambda ctx, m, n: asked.append(n) or family(ctx, m, n))
        for m in range(1, 7):
            built.clear()
            decompose_up_step(PrimeContext(p), m)
            assert built == ["_psi_factors"] + ["_faber_step"] * (m - 1), m
        assert asked == [p * (m + 8) for m in range(1, 7)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_small_orders_build_psi_at_the_rule(self, p, monkeypatch):
        # from an empty store, m = 1..6 each ask psi at the rule p (m + 8) + m - 1,
        # f_1's precision in a family whose f_m is known to p (m + 8), and no more
        monkeypatch.setattr(eta, "_kept", {})
        asked = []
        build = eta._psi_factors
        monkeypatch.setattr(eta, "_psi_factors", lambda ctx, n: asked.append(n) or build(ctx, n))
        for m in range(1, 7):
            decompose_up_step(PrimeContext(p), m)
        assert asked == [p * (m + 8) + m - 1 for m in range(1, 7)]

    def test_every_order_keeps_enough_after_one_step(self, monkeypatch):
        # U_p leaves n // p coefficients of f_m, known to n, and writing the
        # result in phi to degree m needs m + 8 of them; no series is built
        class Asked(Exception):
            pass

        def asked(ctx, m_max, n):
            raise Asked(n)

        monkeypatch.setattr(congruence, "basis_family", asked)
        for p in (2, 3, 5, 7):
            for m in range(1, 201):
                with pytest.raises(Asked) as exc:
                    decompose_up_step(PrimeContext(p), m)
                assert exc.value.args[0] // p >= m + 8, (p, m)

    def test_first_order_the_old_precision_missed(self):
        # max(256, p (m + 24)) left U_p f_59 at p = 3 with 66 < 59 + 8 coefficients
        assert decompose_up_step(PrimeContext(3), 59).ok


def test_default_base_precision_scales_with_depth():
    ctx = PrimeContext(3)
    lo = default_base_precision(ctx, 4, 1, 10)
    hi = default_base_precision(ctx, 4, 2, 10)
    assert hi > lo
    assert lo == 10 * 3**2 + 4 + 16  # alpha_max = 1 for m_max = 4
