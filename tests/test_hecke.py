import dataclasses
import math
import random

import pytest

from qcong import congruence, eta, hecke, series
from qcong.basis import NotPolynomialError, PhiPolynomial, basis_element, express_in_phi
from qcong.hecke import (
    BJ_TABLE,
    ClosureTrial,
    ModularEquation,
    derive_bj,
    g_poly,
    power_sum_target,
    power_sums,
    rp_report,
    verify_hpoly_relation,
    verify_power_sum_divisibility,
    verify_up_closure,
)
from qcong.congruence import decompose_up_step
from qcong.eta import phi, phi_powers
from qcong.primes import PrimeContext
from qcong.series import QSeries, agree


def test_exploratory_p13_raises_before_building_psi(monkeypatch):
    # p = 13 has no power-sum target: the check refuses it before derive_bj
    def no_psi(*args):
        raise AssertionError("psi was built")

    monkeypatch.setattr(eta, "_kept", {})
    monkeypatch.setattr(eta, "_psi_factors", no_psi)
    ctx = PrimeContext(13, exploratory=True)
    for call in (lambda: power_sum_target(ctx, 1), lambda: verify_power_sum_divisibility(ctx, 2)):
        with pytest.raises(ValueError, match="power_sum_target is not defined for p=13"):
            call()


class TestUpIterate:
    def test_single_step_coefficient(self):
        ctx = PrimeContext(2)
        f = basis_element(ctx, 1, 64).series
        assert int(f.u_op(ctx.p).coeff(1)) == -2048

    def test_zero_steps(self):
        ctx = PrimeContext(3)
        f = basis_element(ctx, 1, 32).series
        out = f
        for _ in range(0):
            out = out.u_op(ctx.p)
        assert out == f

    def test_index_division(self):
        for p in (2, 3, 5):
            ctx = PrimeContext(p)
            s = QSeries([1], val=p * p, prec=p * p + 1)
            out = s
            for _ in range(2):
                out = out.u_op(ctx.p)
            assert out.coeff(1) == 1


class TestDeriveBj:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_reference_values(self, p):
        eq = derive_bj(PrimeContext(p), 128)
        assert eq.b == BJ_TABLE[p]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_stable_under_precision_doubling(self, p):
        assert derive_bj(PrimeContext(p), 128).b == derive_bj(PrimeContext(p), 256).b

    def test_structure(self):
        for p in (2, 3, 5, 7):
            b = derive_bj(PrimeContext(p), 128).b
            assert len(b) == p
            assert b[-1] == p**10

    def test_low_precision_is_refused_before_phi_is_built(self, monkeypatch):
        # the library states the U_p rule itself: it names the least n, not
        # the n // p of U_p phi that express_in_phi would see
        def no_phi(*args):
            raise AssertionError("phi was built")

        monkeypatch.setattr(eta, "_kept", {})
        monkeypatch.setattr(eta, "_build_phi", no_phi)
        with pytest.raises(series.PrecisionError, match="^precision must be at least 105$"):
            derive_bj(PrimeContext(7), 16)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_least_precision_suffices(self, p):
        # n = p (p + 8) is the floor itself: it is read exactly
        assert derive_bj(PrimeContext(p), p * (p + 8)).b == BJ_TABLE[p]


class TestGPoly:
    def test_level2_values(self):
        eq = derive_bj(PrimeContext(2))
        assert g_poly(eq, 1) == PhiPolynomial({1: 2**16 * 3, 2: 2**24})
        assert g_poly(eq, 2) == PhiPolynomial({1: -(2**24)})

    def test_level3_values(self):
        eq = derive_bj(PrimeContext(3))
        assert g_poly(eq, 1) == PhiPolynomial({1: 3**9 * 10, 2: 3**14 * 4, 3: 3**18})
        assert g_poly(eq, 2) == PhiPolynomial({1: -(3**14) * 4, 2: -(3**18)})
        assert g_poly(eq, 3) == PhiPolynomial({1: 3**18})

    def test_top_index(self):
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p)
            eq = derive_bj(ctx)
            expected = (-1) ** (p + 1) * p ** (ctx.lam // 2 + 2) * p**10
            assert g_poly(eq, p) == PhiPolynomial({1: expected})

    def test_out_of_range(self):
        eq = derive_bj(PrimeContext(2))
        with pytest.raises(ValueError):
            g_poly(eq, 3)


def newton_power_sums(eq, n_max):
    """Reference route: Newton's identities on ``PhiPolynomial`` arithmetic,
    s_k = sum_j (-1)^(j+1) g_j s_(k-j) + (-1)^(k+1) k g_k."""
    p = eq.ctx.p
    g = {j: g_poly(eq, j) for j in range(1, p + 1)}
    sums = [None]  # 1-indexed
    for k in range(1, n_max + 1):
        acc = PhiPolynomial()
        for j in range(1, min(k - 1, p) + 1):
            term = g[j] * sums[k - j]
            acc = acc + term if (j + 1) % 2 == 0 else acc - term
        if k <= p:
            term = g[k] * k
            acc = acc + term if (k + 1) % 2 == 0 else acc - term
        sums.append(acc)
    return sums[1:]


def division_loop_valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestPowerSums:
    def test_level2_base_cases(self):
        eq = derive_bj(PrimeContext(2))
        assert power_sums(eq, 1)[-1] == g_poly(eq, 1)
        expected_s2 = PhiPolynomial(
            {1: 2**25, 2: 2**32 * 9, 3: 2**41 * 3, 4: 2**48}
        )
        assert power_sums(eq, 2)[-1] == expected_s2

    def test_level3_base_cases(self):
        eq = derive_bj(PrimeContext(3))
        g1, g2, g3 = (g_poly(eq, j) for j in (1, 2, 3))
        assert power_sums(eq, 1)[-1] == g1
        expected_s2 = PhiPolynomial(
            {
                1: 3**14 * 8,
                2: 3**19 * 34,
                3: 3**23 * 80,
                4: 3**27 * 68,
                5: 3**32 * 8,
                6: 3**36,
            }
        )
        assert power_sums(eq, 2)[-1] == g1 * g1 - 2 * g2
        assert power_sums(eq, 2)[-1] == expected_s2
        assert power_sums(eq, 3)[-1] == g1 * g1 * g1 - 3 * (g1 * g2) + 3 * g3
        expected_s3 = PhiPolynomial(
            {
                1: 3**19,
                2: 3**24 * 40,
                3: 3**27 * 1174,
                4: 3**34 * 136,
                5: 3**37 * 581,
                6: 3**44 * 16,
                7: 3**46 * 58,
                8: 3**51 * 4,
                9: 3**54,
            }
        )
        assert power_sums(eq, 3)[-1] == expected_s3

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_int_lists_match_the_phi_polynomial_route(self, p):
        eq = derive_bj(PrimeContext(p))
        assert power_sums(eq, 3 * p) == newton_power_sums(eq, 3 * p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_changed_b_j_moves_both_routes_alike(self, p):
        # b_1 off by one: neither route may read BJ_TABLE or the derived b_j
        eq = derive_bj(PrimeContext(p))
        changed = ModularEquation(eq.ctx, (eq.b[0] + 1,) + eq.b[1:])
        sums = power_sums(changed, 3 * p)
        assert sums == newton_power_sums(changed, 3 * p)
        assert sums[0] != power_sums(eq, 1)[0]

    @pytest.mark.parametrize("p", [5, 7])
    def test_coefficient_valuations_match_the_division_loop(self, p):
        # the long runs of val_p: up to v = 196 on ints of up to 559 bits at p = 7
        ctx = PrimeContext(p)
        sums = power_sums(derive_bj(ctx), 2 * p)
        for s in sums:
            loop = {k: division_loop_valuation(c, p) for k, c in s.coeffs.items()}
            assert rp_report(ctx, s).per_degree == loop
        assert max(division_loop_valuation(c, p) for s in sums for c in s.coeffs.values()) == {
            5: 150, 7: 196}[p]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_pass_matches_each_power_sum(self, p):
        eq = derive_bj(PrimeContext(p))
        sums = power_sums(eq, 3 * p)
        assert len(sums) == 3 * p
        for n in range(1, 3 * p + 1):
            assert power_sums(eq, n) == sums[:n]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_power_sums_give_up_of_phi_powers(self, p):
        # an independent route through the series: U_p(phi^n) = s_n(phi) / p^(lam*n/2 + 1)
        ctx = PrimeContext(p)
        ph = phi(ctx, 16 * p)
        for n, s in enumerate(power_sums(derive_bj(ctx), p + 1), start=1):
            assert agree((ph**n).u_op(p) * p ** (ctx.lam * n // 2 + 1), s.evaluate(ctx, 16 * p))

    def test_rejects_empty_range(self):
        ctx = PrimeContext(3)
        with pytest.raises(ValueError):
            power_sums(derive_bj(ctx), 0)
        with pytest.raises(ValueError):
            verify_power_sum_divisibility(ctx, 0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_divisibility_lower_bounds(self, p):
        report = verify_power_sum_divisibility(PrimeContext(p), 2 * p)
        assert report.ok
        first = report.rows[0]
        expected_first = {2: 16, 3: 9, 5: 5, 7: 4}[p]
        assert first.observed_t == expected_first


class TestRpReport:
    def test_g1_level2(self):
        ctx = PrimeContext(2)
        rep = rp_report(ctx, PhiPolynomial({1: 2**16 * 3, 2: 2**24}))
        assert rep.per_degree == {1: 16, 2: 24}
        assert rep.t == 16
        assert rep.member

    def test_bare_phi_is_member(self):
        ctx = PrimeContext(2)
        rep = rp_report(ctx, PhiPolynomial({1: 1}))
        assert rep.t == 0 and rep.member

    def test_phi_squared_is_not(self):
        ctx = PrimeContext(2)
        rep = rp_report(ctx, PhiPolynomial({2: 1}))
        assert rep.t == -8 and not rep.member

    def test_zero_polynomial(self):
        rep = rp_report(PrimeContext(5), PhiPolynomial({}))
        assert rep.t == math.inf and rep.member

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            rp_report(PrimeContext(2), PhiPolynomial({0: 1, 1: 1}))


class TestHPolyRelation:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_residual_is_zero(self, p):
        residual = verify_hpoly_relation(PrimeContext(p), 128)
        assert residual.is_zero()
        assert residual.prec >= 128

    @pytest.mark.parametrize("n", [128, 512])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_written_in_q_from_the_phi_table(self, p, n, monkeypatch):
        ctx = PrimeContext(p)
        residual = verify_hpoly_relation(ctx, n)
        assert residual.ram == 1 and residual.prec >= n and residual.is_zero()
        # with phi^0 .. phi^p in the table, only the p products G_j * H^(p-j)
        # reach the kernel: the powers of h are scaled table entries
        calls = []
        mul = series.mul_int_lists

        def counted(a, b, *length):
            calls.append(len(a) * len(b))
            return mul(a, b, *length)

        monkeypatch.setattr(series, "mul_int_lists", counted)
        assert verify_hpoly_relation(ctx, n) == residual
        assert len(calls) == p

    @pytest.mark.parametrize("p, first", [(2, 3), (3, 5), (5, 9), (7, 13)])
    def test_wrong_modular_equation_leaves_a_residual(self, p, first, monkeypatch):
        derive = hecke.derive_bj

        def wrong_bj(ctx, n=None):
            b = derive(ctx, n).b
            return ModularEquation(ctx, (b[0] + 1,) + b[1:])

        monkeypatch.setattr(hecke, "derive_bj", wrong_bj)
        residual = verify_hpoly_relation(PrimeContext(p), 128)
        assert not residual.is_zero() and residual.val == first

    def test_level2_leading_cancellation(self):
        # h^2 has w-coefficient 2^24 at w^2; g_2 contributes -2^24 there
        ctx = PrimeContext(2)
        from qcong.eta import phi

        ph = phi(ctx, 64)
        h = QSeries(list(ph.coeffs), ph.val, ph.prec, ram=2) * 2**12
        assert (h * h).coeff(2) == 2**24
        gw = g_poly(derive_bj(ctx), 2).evaluate(ctx, 64).ramify(2)
        assert gw.coeff(2) == -(2**24)


class TestClosure:
    def test_u2_phi_gains_delta(self):
        ctx = PrimeContext(2)
        eq = derive_bj(ctx, 128)
        poly = PhiPolynomial({j: eq.b[j - 1] * 2 for j in range(1, 3)})
        rep = rp_report(ctx, poly)  # U_2 phi = 2 * sum b_j phi^j
        assert rep.t >= ctx.delta

    def test_u5_phi_gains_delta(self):
        ctx = PrimeContext(5)
        eq = derive_bj(ctx, 128)
        poly = PhiPolynomial({j: eq.b[j - 1] * 5 for j in range(1, 6)})
        assert rp_report(ctx, poly).t >= 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_lattice_elements(self, p):
        report = verify_up_closure(PrimeContext(p), trials=10, deg_max=3, seed=42)
        assert report.ok

    def test_the_default_precision_is_the_one_enforced(self, monkeypatch):
        # at every prime phi is built once, at the rule's p (p deg_max + 8),
        # 252 at p = 7, and no longer
        build = eta._build_phi
        for p in (2, 3, 5, 7):
            built = []
            monkeypatch.setattr(eta, "_kept", {})
            monkeypatch.setattr(eta, "_build_phi", lambda ctx, n: built.append(n) or build(ctx, n))
            assert verify_up_closure(PrimeContext(p)).ok
            assert built == [p * (4 * p + 8)], p

    def test_deterministic(self):
        a = verify_up_closure(PrimeContext(3), trials=5, deg_max=2, seed=1)
        b = verify_up_closure(PrimeContext(3), trials=5, deg_max=2, seed=1)
        assert [t.observed_t for t in a.trials] == [t.observed_t for t in b.trials]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_phi_reading_at_the_rule_equals_one_at_256(p, monkeypatch):
    # the rule's least precision proves each reading, so reading at 256
    # changes no b_j, closure row, trial or split; each reading at the rule
    # starts from an empty store, so that it cannot see a longer series
    ctx = PrimeContext(p)
    monkeypatch.setattr(eta, "_kept", {})
    assert derive_bj(ctx).b == derive_bj(ctx, 256).b == BJ_TABLE[p]
    rule = congruence._up_precision  # widened below, so that phi or f_m is known to 256

    def widened(p, d):
        return max(256, rule(p, d))

    for deg_max in (1, 2, 3, 4):
        monkeypatch.setattr(eta, "_kept", {})
        short = verify_up_closure(ctx, trials=12, deg_max=deg_max)
        with monkeypatch.context() as wide:
            wide.setattr(hecke, "_up_precision", widened)
            long = verify_up_closure(ctx, trials=12, deg_max=deg_max)
        assert (short.basis, short.trials) == (long.basis, long.trials), deg_max
    monkeypatch.setattr(eta, "_kept", {})
    short = [decompose_up_step(ctx, m) for m in range(1, 13)]
    monkeypatch.setattr(congruence, "_up_precision", widened)
    for a, b in zip(short, (decompose_up_step(ctx, m) for m in range(1, 13))):
        for field in dataclasses.fields(a):
            assert getattr(a, field.name) == getattr(b, field.name), (a.m, field.name)


def _closure_by_trial(ctx, trials, deg_max, n, seed):
    """The per-trial series route, kept as the reference: each seeded trial is
    evaluated, decimated and read in phi on its own."""
    p = ctx.p
    out = []
    for i in range(trials):
        rng = random.Random(seed * 1000003 + i)
        while True:
            d = [rng.randint(-9, 9) for _ in range(deg_max)]
            if any(d):
                break
        poly = PhiPolynomial({k: d[k - 1] * p ** ctx.gamma(k) for k in range(1, deg_max + 1)})
        try:
            constant, image = express_in_phi(ctx, poly.evaluate(ctx, n).u_op(p), p * deg_max)
        except NotPolynomialError as exc:
            out.append(ClosureTrial(i, poly, None, False, str(exc)))
            continue
        if constant != 0:
            out.append(ClosureTrial(i, poly, None, False, "nonzero constant"))
            continue
        t = rp_report(ctx, image).t
        out.append(ClosureTrial(i, poly, t, t >= ctx.delta))
    return tuple(out)


class TestClosureBasis:
    """The closure is read from the images of the basis vectors p^gamma(k) phi^k."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_trials_match_the_per_trial_route(self, p):
        ctx = PrimeContext(p)
        for seed in (0, 1, 7919):
            for deg_max in (1, 2, 3, 4):
                report = verify_up_closure(ctx, trials=12, deg_max=deg_max, seed=seed)
                want = _closure_by_trial(ctx, 12, deg_max, p * (p * deg_max + 8), seed)
                assert report.trials == want, (seed, deg_max)
                assert report.ok

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_one_row_per_degree_and_the_routes_agree(self, p):
        report = verify_up_closure(PrimeContext(p), trials=1, deg_max=6)
        assert [r.k for r in report.basis] == [1, 2, 3, 4, 5, 6]
        assert all(r.agree and r.slack >= 0 for r in report.basis)
        # the least slack is 0, at (k, j) = (1, 1)
        first = report.basis[0]
        assert (first.slack, first.j) == (0, 1) and min(r.slack for r in report.basis) == 0

    @staticmethod
    def _failing(report):
        assert not report.ok
        return [r.k for r in report.basis if not (r.agree and r.slack >= 0)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_delta_one_too_high_fails_at_the_least_slack(self, p, monkeypatch):
        delta = PrimeContext.delta.fget
        monkeypatch.setattr(PrimeContext, "delta", property(lambda self: delta(self) + 1))
        report = verify_up_closure(PrimeContext(p), trials=3, deg_max=4)
        assert self._failing(report) == [1]
        assert report.basis[0].slack == -1 and report.basis[0].agree

    def test_gamma_1_raised_at_5_is_still_closed(self, monkeypatch):
        # gamma(1) cancels from t at (k, j) = (1, 1), and only t at j = 1 falls,
        # by one, for k >= 2: the lattice with gamma(k) = k for every k is
        # U_5-closed too, so this is no fault the check could catch
        gamma = PrimeContext.gamma
        before = verify_up_closure(PrimeContext(5), trials=3, deg_max=4).basis
        monkeypatch.setattr(PrimeContext, "gamma", lambda self, k: 1 if k == 1 else gamma(self, k))
        after = verify_up_closure(PrimeContext(5), trials=3, deg_max=4)
        assert after.ok
        assert [r.t for r in before] == [1, 3, 3, 4] and [r.t for r in after.basis] == [1, 2, 2, 3]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_changed_b_j_splits_the_routes(self, p, monkeypatch):
        derive = hecke.derive_bj

        def changed(ctx, n=None):
            eq = derive(ctx, n)
            return ModularEquation(ctx, eq.b[:-1] + (eq.b[-1] + 1,))

        monkeypatch.setattr(hecke, "derive_bj", changed)
        report = verify_up_closure(PrimeContext(p), trials=3, deg_max=4)
        assert 1 in self._failing(report) and not report.basis[0].agree

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_changed_coefficient_of_the_phi_squared_image_is_caught(self, p, monkeypatch):
        # the change keeps every valuation high, so only the Newton route sees it;
        # the image is read at the closure's own precision, p (4p + 8)
        ctx = PrimeContext(p)
        target = phi_powers(ctx, 2, p * (4 * p + 8))[2].u_op(p)
        express = hecke.express_in_phi

        def changed(ctx, s, maxdeg):
            constant, image = express(ctx, s, maxdeg)
            return constant, image + PhiPolynomial({1: p**60}) if s == target else image

        monkeypatch.setattr(hecke, "express_in_phi", changed)
        report = verify_up_closure(ctx, trials=3, deg_max=4)
        assert self._failing(report) == [2]
        assert report.basis[1].slack >= 0 and not report.basis[1].agree
