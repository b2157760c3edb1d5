"""Legacy-equivalence oracle: the unified search runtime vs. PR 4.

``tests/fixtures/legacy_traces/*.json`` were generated by the
*pre-refactor* optimiser implementations (every strategy owning its
private loop) via ``tests/fixtures/gen_legacy_traces.py``.  These tests
rerun the same fixed-seed cases through the refactored
:class:`~repro.core.runtime.SearchDriver` path and assert byte-identical
behaviour: algorithm label, exact evaluation count, cache-hit count,
the *full* search trace (exact points and interpolation estimates, in
order) and the best configuration with its cost.
"""

import hashlib
import json
import os

import pytest

from repro.io.serialization import result_to_dict

from tests.fixtures.legacy_cases import DIGEST_CASES, LEGACY_CASES

FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "fixtures", "legacy_traces"
)


def _load_fixture(case_id: str) -> dict:
    path = os.path.join(FIXTURE_DIR, f"{case_id}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", LEGACY_CASES, ids=lambda c: c.case_id)
def test_runtime_reproduces_legacy_trace(case):
    expected = _load_fixture(case.case_id)
    got = result_to_dict(case.run())
    # Wall-clock is machine noise (zeroed in the fixtures), and the
    # budget stop_reason field post-dates the oracle.
    got["elapsed_seconds"] = 0.0
    expected.setdefault("stop_reason", None)
    assert got["algorithm"] == expected["algorithm"]
    assert got["evaluations"] == expected["evaluations"]
    assert got["cache_hits"] == expected["cache_hits"]
    assert got["trace"] == expected["trace"], (
        f"{case.case_id}: search trace diverged from the pre-refactor oracle"
    )
    assert got["best"] == expected["best"]
    assert got == expected


@pytest.mark.parametrize("case", DIGEST_CASES, ids=lambda c: c.case_id)
def test_runtime_reproduces_pinned_digest(case):
    result = case.run()
    assert (result.evaluations, result.cost) == (case.evaluations, case.cost)
    payload = result_to_dict(result)
    del payload["elapsed_seconds"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == case.sha256, (
        f"{case.case_id}: result diverged from the pinned digest"
    )
