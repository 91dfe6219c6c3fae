"""The acceptance gate: every criterion runs at its stated tolerance on the
shipped reference inputs and prints one pass/fail line.  `covercount
verify-all --seed 1` executes the same checks."""

import pytest

from covercount.acceptance import ALL_CRITERIA, Budget, Workspace

RUNTIME_BOUNDS = {  # seconds, where the criterion states one
    "C1": 1.0,
    "C2": 30.0,
    "C3": 120.0,
    "C5": 120.0,
    "C7": 300.0,
}


@pytest.fixture(scope="module")
def workspace():
    return Workspace(Budget(), seed=1)


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__ for fn in ALL_CRITERIA])
def test_criterion(criterion, workspace, capsys):
    res = criterion(workspace)
    with capsys.disabled():
        mark = "PASS" if res.passed else "FAIL"
        print(f"\n[{mark}] {res.cid} {res.name} ({res.seconds:.1f}s) {res.details}")
    assert res.passed, f"{res.cid} failed: {res.details}"
    bound = RUNTIME_BOUNDS.get(res.cid)
    if bound is not None:
        assert res.seconds < bound, f"{res.cid} took {res.seconds}s (bound {bound}s)"
