"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line.  Run with -s (or read the junit output) to see the lines.
"""

import pytest

from twowin import run_all


@pytest.mark.parametrize("number", list(range(1, 11)))
def test_criterion(number):
    res = run_all([number])[0]
    print(res.line())
    assert res.passed, res.line()


def test_a_raising_criterion_fails_under_its_own_name(monkeypatch, capsys):
    from twowin import acceptance

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "trig_family", boom)
    (res,) = run_all([7])
    assert res.line() == "criterion  7 [FAIL] periodic two-line scans: raised RuntimeError: boom"
    assert "RuntimeError: boom" in capsys.readouterr().err
