import pytest

from qcong import eta


@pytest.fixture(autouse=True, scope="module")
def _phi_store_as_found():
    # eta._kept, the one module-level store, fills as tests build powers of
    # phi; each module leaves it as it found it, so a test run after tests/
    # meets the store it would meet alone
    kept = dict(eta._kept)
    yield
    eta._kept.clear()
    eta._kept.update(kept)
