"""The acceptance gate: every criterion runs at its stated tolerance on the
shipped reference inputs and prints one pass/fail line.  `covercount
verify-all --seed 1` executes the same checks."""

import pytest

from covercount.acceptance import ALL_CRITERIA, Workspace, run_criterion

RUNTIME_BOUNDS = {  # seconds, where the criterion states one
    "C1": 1.0,
    "C2": 30.0,
    "C3": 120.0,
    "C5": 120.0,
    "C7": 300.0,
}


@pytest.fixture(scope="module")
def workspace():
    return Workspace(seed=1)


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[fn.__name__ for fn in ALL_CRITERIA])
def test_criterion(criterion, workspace, capsys):
    res = run_criterion(criterion, workspace)
    with capsys.disabled():
        mark = "PASS" if res.passed else "FAIL"
        print(f"\n[{mark}] {res.cid} {res.name} ({res.seconds:.1f}s) {res.details}")
    assert res.passed, f"{res.cid} failed: {res.details}"
    bound = RUNTIME_BOUNDS.get(res.cid)
    if bound is not None:
        assert res.seconds < bound, f"{res.cid} took {res.seconds}s (bound {bound}s)"


def test_criterion_that_raises_fails_under_its_id(monkeypatch):
    from covercount import acceptance
    from covercount.errors import BudgetExceeded

    def raises(ws):
        raise BudgetExceeded(5)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [ALL_CRITERIA[0], raises])
    res = run_criterion(raises, Workspace())
    assert (res.cid, res.name, res.passed) == ("C2", "raises", False)
    assert res.details == {"error": f"BudgetExceeded: {BudgetExceeded(5)}"}


def test_determinism_probe_leaves_no_directory(monkeypatch, tmp_path):
    import tempfile

    from covercount.acceptance import c11_determinism
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_criterion(c11_determinism, Workspace()).passed
    assert list(tmp_path.iterdir()) == []
