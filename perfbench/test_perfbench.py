"""Tests of the benchmark itself: the gate flags a perturbed result, a raised
task is a failed check, task times are scaled by the measured host speed, and
the tracer's wrapping and self times are right.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import math

import worker  # puts the checkout's src on sys.path before qcong is imported
import qcong
import calibrate
from gate import Gate
from tracing import Tracer, summarize
from workloads import sweep_tasks


def _small_sweep(ctx):
    return qcong.verify_theorem2(ctx, m_max=2, d_max=1, base_prec=64)


def test_gate_flags_perturbed_valuation():
    ctx = qcong.PrimeContext(7)
    report = _small_sweep(ctx)
    check = sweep_tasks(qcong, ctx, 0)[0][2]
    recorder = Gate({})
    check(report, recorder)

    clean = Gate(recorder.observed)
    check(report, clean)
    assert clean.failures == [] and clean.attempted == 3

    cases = list(report.cases)
    i = next(i for i, c in enumerate(cases) if c.observed != math.inf)
    cases[i] = dataclasses.replace(cases[i], observed=cases[i].observed + 1)
    perturbed = dataclasses.replace(report, cases=tuple(cases))
    gate = Gate(recorder.observed)
    check(perturbed, gate)
    assert gate.failures == ["sweep.p7.valuations: differs from the recorded value"]


def test_raised_task_is_a_failed_check(monkeypatch):
    def explode():
        raise ArithmeticError("perturbed")

    def tasks(qc, ctx, seed):
        return [("explode", explode, None), ("fine", lambda: ctx.p, lambda r, g: g.check("p", r > 1))]

    monkeypatch.setitem(worker.TASKS, "boom", tasks)
    gate = Gate({})
    out = worker.run_pass("boom", 0, None, gate)
    assert gate.attempted == 8
    assert len(gate.failures) == 4
    assert all("raised ArithmeticError: perturbed" in f for f in gate.failures)
    assert set(out["prime_s"]) == {2, 3, 5, 7}


def test_task_times_are_scaled_to_the_reference_speed(monkeypatch):
    def tasks(qc, ctx, seed):
        return [("sum", lambda: sum(range(20000)), lambda r, g: g.check("sum", r > 0))]

    monkeypatch.setitem(worker.TASKS, "half-speed", tasks)
    monkeypatch.setattr(calibrate, "probe", lambda: 2 * calibrate.PROBE_REFERENCE_S)
    out = worker.run_pass("half-speed", 0, None, Gate({}))
    assert out["speed_factors"] == [2.0] * 4
    for p in (2, 3, 5, 7):
        assert out["raw_prime_s"][p] > 0
        assert out["prime_s"][p] == out["raw_prime_s"][p] / 2
    assert out["wall_s"] == sum(out["prime_s"].values())


def test_tracer_wraps_every_binding_and_restores():
    originals = (qcong.basis.express_in_phi, qcong.hecke.express_in_phi,
                 qcong.express_in_phi, qcong.QSeries.__mul__)
    tracer = Tracer("test")
    tracer.install(qcong)
    try:
        assert qcong.hecke.express_in_phi is qcong.basis.express_in_phi
        assert qcong.express_in_phi is qcong.basis.express_in_phi
        assert qcong.basis.express_in_phi is not originals[0]
        eq = qcong.derive_bj(qcong.PrimeContext(3), 64)
    finally:
        tracer.uninstall()
    assert originals == (qcong.basis.express_in_phi, qcong.hecke.express_in_phi,
                         qcong.express_in_phi, qcong.QSeries.__mul__)
    assert eq.b == qcong.BJ_TABLE[3]
    names = {s[0] for s in tracer.spans}
    assert {"hecke.derive_bj", "basis.express_in_phi", "series.QSeries.__mul__",
            "series.mul_int_lists"} <= names
    top = [s for s in tracer.spans if s[1] is None]
    assert [s[0] for s in top] == ["hecke.derive_bj"]
    assert tracer.counters["series.new.calls"] > 0


def test_self_time_is_duration_minus_children():
    spans = [
        ("a", None, 0.0, 10.0, None),
        ("b", 0, 1.0, 4.0, None),
        ("a", 1, 2.0, 3.0, None),  # recursion: not counted again in "s"
        ("c", 0, 5.0, 9.0, None),
    ]
    rows = summarize(spans)
    assert rows["a"] == {"calls": 2, "s": 10.0, "self_s": 10.0 - 7.0 + 1.0}
    assert rows["b"]["self_s"] == 2.0
    assert rows["c"]["self_s"] == 4.0
