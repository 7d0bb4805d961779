"""qcong benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload sweep|lattice|rational --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; qcong is imported from its ``src``.  Each
pass of a workload is one fresh single-threaded Python process, so the
package's caches start empty as they do for a command-line user.  Passes run
one after another (a closed loop with one client) for about ``--seconds``,
and each metric is the median over the passes of the run.  A few extra
processes only import qcong, so that the set-up time is a median too.
Every time is given at the reference speed of calibrate.py: each task's time
is divided by the host's speed factor sampled throughout the task.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with ``trace.overhead`` (traced over untraced wall time, minus 1).
Spans are written to ``.perfbench/``, a summary of the run to
``.perfbench/result-<workload>.json``.  The last line of standard output is
the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from workloads import PRIMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 6
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
HELD_OUT_SEED = 7919  # reserved for confirming claims; never tune on it

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"),
    ("p2_s", "s"), ("p3_s", "s"), ("p5_s", "s"), ("p7_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def spawn(workload: str, seed: int, traced: bool, run_id: str, index: int, deadline: float):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(started), run_id, str(index)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass {index} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {index} exited {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    result["traced"] = traced
    return result


def run(workload: str, seed: int, seconds: float, trace: bool):
    run_id = uuid.uuid4().hex[:12]
    for stale in OUT_DIR.glob(f"spans-{workload}-*.jsonl"):  # spans of this run only
        stale.unlink()
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    probes = [spawn("probe", seed, False, run_id, -1 - i, deadline) for i in range(SETUP_PROBES)]
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn(workload, seed, traced, run_id, len(passes), deadline))
        if len(passes) < (2 if trace else 1):
            continue
        nxt = trace and len(passes) % 2 == 1
        same = [p["elapsed_s"] for p in passes if p["traced"] == nxt]
        est = statistics.median(same)
        now = time.monotonic()
        if now + est > start + seconds or now + est > deadline:
            break
    return run_id, probes, passes


def end_to_end(probes, passes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    m = {"setup_s": statistics.median([p["setup_s"] for p in probes + passes])}
    m["wall_s"] = statistics.median([p["wall_s"] for p in plain])
    for p in PRIMES:
        m[f"p{p}_s"] = statistics.median([q["prime_s"][str(p)] for q in plain])
    m["peak_rss_mb"] = statistics.median([p["peak_rss_mb"] for p in plain])
    return m


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    m = {k: statistics.median([p["layers"][k] for p in traced]) for k in traced[0]["layers"]}
    traced_wall = statistics.median([p["real_wall_s"] for p in traced])
    m["trace.overhead"] = traced_wall / statistics.median([p["wall_s"] for p in plain]) - 1
    return m


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    """HEAD of the checkout, read from .git when the checkout is a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcong").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, run_id: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "qcong_commit": git_commit(),
        "qcong_source_sha256": source_digest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "run_id": run_id,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        units = per_layer_units() if args.trace else dict(END_TO_END)
        run_id, probes, passes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, run_id)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    values = per_layer(passes) if args.trace else end_to_end(probes, passes)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    OUT_DIR.mkdir(exist_ok=True)
    summary = {"workload": args.workload, "env": env, "metrics": metrics,
               "error_rate": len(failures) / attempted, "failures": failures,
               "probes": probes, "passes": passes}
    (OUT_DIR / f"result-{args.workload}.json").write_text(json.dumps(summary, indent=1) + "\n")

    print("env " + json.dumps(env))
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "plain"
        primes = " ".join(f"p{q}={p['prime_s'][str(q)]:.3f}s" for q in PRIMES)
        print(f"pass {i} ({kind}): speed={statistics.median(p['speed_factors']):.2f} "
              f"setup={p['setup_s']:.4f}s wall={p['wall_s']:.3f}s "
              f"(raw {p['raw_wall_s']:.3f}s) {primes}")
    for f in failures:
        print(f"FAILED {f}")
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':34s} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} checks failed)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
