"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_expected.py

Runs one pass of ``sweep`` and ``lattice`` and writes every value the gate
matches (case counts, valuation and decomposition digests, b_j) to
``perfbench/expected.json``.  Run it only on a commit whose results are
trusted; the file in the repository was recorded from the commit that added
the benchmark.  ``rational`` and the closure trials depend on the seed and
are checked by identities instead.
"""
import json
import sys

import worker
from gate import EXPECTED_PATH, Gate


def main() -> int:
    gate = Gate({})
    for workload in ("sweep", "lattice"):
        worker.run_pass(workload, 0, None, gate)
    unmatched = [f for f in gate.failures if not f.endswith("no recorded value")]
    if unmatched:
        print("refusing to record: checks failed", *unmatched, sep="\n", file=sys.stderr)
        return 1
    EXPECTED_PATH.write_text(json.dumps(gate.observed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(gate.observed)} values to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
