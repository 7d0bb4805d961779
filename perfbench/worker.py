"""One pass of a workload in a fresh process; started by run.py.

    worker.py <workload|probe> <seed> <traced 0|1> <spawn time> <run id> <pass>

``qcong`` is imported first, from the checkout's ``src``, so that the set-up
time runs from the parent's spawn to the end of ``import qcong`` and every
cache in the package starts empty.  Every time is given at the reference
speed of calibrate.py, and unscaled under a ``raw_`` key.  The pass prints
one JSON object.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import qcong  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402
from gate import Gate, load_expected  # noqa: E402
from tracing import Tracer, kernel_rows, summarize, top_level_seconds  # noqa: E402
from workloads import PRIMES, TASKS  # noqa: E402

SPAN_DIR = os.path.join(ROOT, ".perfbench")


class Stopwatch:
    """``perf_counter`` minus the time handed to ``hide``: the clock of an
    untraced pass (a traced pass uses the tracer's clock)."""

    def __init__(self):
        self._hidden = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._hidden

    def hide(self, seconds: float) -> None:
        self._hidden += seconds


def run_pass(workload: str, seed: int, tracer, gate: Gate) -> dict:
    """Run every task of the workload at p = 2, 3, 5, 7 and time it.

    Each task's time is divided by the host's speed factor sampled over the
    task, which gives its time at the reference speed (see calibrate.py).
    The ``raw_`` entries are the unscaled times.
    """
    watch = tracer if tracer is not None else Stopwatch()
    prime_s, raw_prime_s, real_s, factors = {}, {}, 0.0, []
    for p in PRIMES:
        ctx = qcong.PrimeContext(p)
        prime_s[p] = raw_prime_s[p] = 0.0
        for label, run, check in TASKS[workload](qcong, ctx, seed):
            error = None
            with calibrate.SpeedSampler(watch.hide) as speed:
                r0, t0 = time.perf_counter(), watch.clock()
                try:
                    result = run()
                except Exception as exc:  # a raised task is a failed check
                    error = exc
                spent = watch.clock() - t0
                real = time.perf_counter() - r0 - speed.hidden
            factors.append(speed.factor)
            prime_s[p] += spent / speed.factor
            raw_prime_s[p] += spent
            real_s += real / speed.factor
            if error is not None:
                gate.raised(f"{workload} p={p}: {label}", error)
                continue
            try:
                check(result, gate)
            except Exception as exc:
                gate.raised(f"{workload} p={p}: checking {label}", exc)
    return {"prime_s": prime_s, "wall_s": sum(prime_s.values()), "real_wall_s": real_s,
            "raw_prime_s": raw_prime_s, "raw_wall_s": sum(raw_prime_s.values()),
            "speed_factors": factors}


def cache_hit_ratio(module) -> float:
    hits = calls = 0
    for obj in vars(module).values():
        info = getattr(obj, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            calls += ci.hits + ci.misses
    return hits / calls if calls else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    rows = summarize(tracer.spans)
    c = tracer.counters

    def row(name):
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    kernel = row("series.mul_int_lists")
    kernel_bits = [a["bits"] for n, _, _, _, a in tracer.spans if n == "series.mul_int_lists"]
    steps = c["hecke.power_sum.steps"]
    out = {
        "series.mul.calls": kernel["calls"],
        "series.mul.self_s": kernel["self_s"],
        "series.mul.kronecker_share": (
            c["series.mul.kronecker_calls"] / kernel["calls"] if kernel["calls"] else 0.0
        ),
        "series.mul.max_bits": max(kernel_bits, default=0),
        "series.mul.packed_mbit": c["series.mul.packed_bits"] / 1e6,
    }
    buckets = kernel_rows(tracer.spans)
    for label in ("len_le64", "len_le512", "len_le4096", "len_gt4096",
                  "bits_le64", "bits_le512", "bits_gt512"):
        b = buckets.get(label, {"calls": 0, "self_s": 0.0})
        out[f"series.mul.{label}.calls"] = b["calls"]
        out[f"series.mul.{label}.self_s"] = b["self_s"]
    out.update({
        "series.mul_frac.self_s": row("series.mul_frac_lists")["self_s"],
        "series.add.calls": row("series.QSeries.__add__")["calls"],
        "series.add.self_s": row("series.QSeries.__add__")["self_s"],
        "series.new.coeffs": c["series.new.coeffs"],
        "series.invert.calls": row("series.QSeries.invert")["calls"],
        "series.invert.s": row("series.QSeries.invert")["s"],
        "series.u_op.calls": row("series.QSeries.u_op")["calls"],
        "series.u_op.s": row("series.QSeries.u_op")["s"],
        "series.val_p.calls": row("series.val_p")["calls"],
        "series.val_p.s": row("series.val_p")["s"],
        "eta.psi.s": row("eta.psi")["s"],
        "eta.phi.s": row("eta.phi")["s"],
        "eta.cache_hit_ratio": cache_hit_ratio(qcong.eta),
        "basis.basis_family.s": row("basis.basis_family")["s"],
        "basis.basis_family.max_bits": c["basis.basis_family.max_bits"],
        "basis.express_in_phi.calls": row("basis.express_in_phi")["calls"],
        "basis.express_in_phi.s": row("basis.express_in_phi")["s"],
        "basis.phipoly.mul.calls": row("basis.PhiPolynomial.__mul__")["calls"],
        "basis.phipoly.mul.s": row("basis.PhiPolynomial.__mul__")["s"],
        "hecke.power_sum.calls": row("hecke.power_sum")["calls"],
        "hecke.power_sum.s": row("hecke.power_sum")["s"],
        "hecke.power_sum.useful_ratio": len(tracer.power_sum_ns) / steps if steps else 0.0,
        "hecke.closure.s": row("hecke.verify_up_closure")["s"],
        "hecke.closure.trials": c["hecke.closure.trials"],
        "hecke.derive_bj.s": row("hecke.derive_bj")["s"],
        "hecke.hrelation.s": row("hecke.verify_hpoly_relation")["s"],
        "congruence.theorem2.self_s": row("congruence.verify_theorem2")["self_s"],
        "congruence.cases": c["congruence.cases"],
        "congruence.decompose.s": row("congruence.decompose_up_step")["s"],
        "trace.coverage": top_level_seconds(tracer.spans) / wall_s if wall_s else 0.0,
    })
    return out


def main(argv) -> int:
    workload, seed, traced, spawned, run_id, index = argv
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(qcong.__file__).startswith(src):
        print(f"qcong was imported from {qcong.__file__}, not from {src}", file=sys.stderr)
        return 2
    raw_setup_s = IMPORTED - float(spawned)
    out = {"setup_s": raw_setup_s / calibrate.factor_now(), "raw_setup_s": raw_setup_s}
    if workload != "probe":
        tracer = Tracer(run_id) if traced == "1" else None
        if tracer is not None:
            tracer.install(qcong)
        gate = Gate(load_expected())
        out.update(run_pass(workload, int(seed), tracer, gate))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(attempted=gate.attempted, failures=gate.failures, observed=gate.observed)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = layer_metrics(tracer, out["raw_wall_s"])
            os.makedirs(SPAN_DIR, exist_ok=True)
            tracer.write(os.path.join(SPAN_DIR, f"spans-{workload}-{index}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
