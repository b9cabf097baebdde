"""Acceptance suite: one test per built-in criterion, run at full strength.

``regioncd verify`` executes the same list; this module makes the criteria
part of the normal pytest run and prints one PASS/FAIL line each. It is the
one place the tests run a criterion: no unit test repeats a criterion's check.
"""

import re

import pytest

from regioncd import verification


@pytest.mark.parametrize(
    "criterion", verification.CRITERIA, ids=[c.name for c in verification.CRITERIA]
)
def test_criterion(criterion):
    passed, detail = criterion.fn()
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion.cid} {criterion.name}: {detail}")
    assert passed, f"criterion {criterion.cid} ({criterion.name}): {detail}"
    # a passing detail goes into `regioncd verify --out`, which reruns write byte for
    # byte, so it holds no elapsed time; only a blown budget reports one
    assert not re.search(r"\d\s?s\b", detail), detail


def test_report_shape(monkeypatch):
    # run_all over stand-in criteria, so no real criterion runs a second time
    assert [c.cid for c in verification.CRITERIA] == list(range(1, 11))

    def crash():
        raise RuntimeError("boom")

    passes = verification.Criterion(1, "passes", lambda: (True, "fine"))
    raises = verification.Criterion(2, "raises", crash)
    monkeypatch.setattr(verification, "CRITERIA", (passes,))
    assert verification.run_all()["all_passed"] is True
    monkeypatch.setattr(verification, "CRITERIA", (passes, raises))
    assert verification.run_all() == {
        "count": 2,
        "all_passed": False,
        "criteria": [
            {"id": 1, "name": "passes", "passed": True, "detail": "fine"},
            {"id": 2, "name": "raises", "passed": False, "detail": "raised RuntimeError: boom"},
        ],
    }
