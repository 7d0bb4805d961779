"""Correctness gate: counts every check of a pass, and a mismatch or a raised
exception is a failed check, never a crash of the benchmark."""
from __future__ import annotations

import hashlib
import json
import traceback
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def digest(rows) -> str:
    """sha256 over the repr of each row, one row per line."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class Gate:
    """Check counter for one pass.

    ``expected`` maps a key such as ``"sweep.p2.valuations"`` to the value
    recorded from the seed commit; ``observed`` collects what this pass saw
    under the same keys.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.observed = {}
        self.attempted = 0
        self.failures = []

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return bool(ok)

    def raised(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        where = traceback.extract_tb(exc.__traceback__)[-1]
        self.failures.append(
            f"{label}: raised {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
        )

    def match(self, key: str, value) -> bool:
        """Compare a value with the one recorded from the seed commit."""
        self.observed[key] = value
        if key not in self.expected:
            return self.check(f"{key}: no recorded value", False)
        return self.check(f"{key}: differs from the recorded value", self.expected[key] == value)
